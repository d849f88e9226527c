"""Spans around the calls into each layer of biphoton, recorded from outside
the program.

``Tracer.install`` replaces each public function at the module attribute
through which the program calls it (``biphoton.cli.read_stream``, not
``biphoton.tagio.read_stream``), so the program's own code is unchanged
and its outputs stay byte-identical. A span records (id, parent id, name,
start, end); spans stay in memory until the chain ends and are then
written out as JSON lines. A layer's self time is its spans' durations
minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import struct
import sys
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MB = float(1 << 20)


def _width_ps(gate) -> int:
    if hasattr(gate, "end"):
        return gate.end - gate.start
    return int(gate[1]) - int(gate[0])


def _count_gates(c, a, result):
    c["sequence.gates"] += len(result)


def _count_pairs(c, a, result):
    c["simulate.pairs"] += len(result) // 2


def _count_chaotic(c, a, result):
    """Field cells the generator has to synthesise: ceil(width / grid) per
    gate, on a channel whose chaotic rate is not zero."""
    src, signal = a["src"], a["channel"] == "signal"
    rate = src.uncorrelated_rate_s if signal else src.uncorrelated_rate_i
    if rate > 0:
        tau = src.chaotic_tau_s if signal else src.chaotic_tau_i
        grid = src.chaotic_grid_dt_ns or tau / 20.0
        c["simulate.chaotic_cells"] += sum(
            int(math.ceil(_width_ps(g) / 1000 / grid)) for g in a["gates"])
    c["simulate.chaotic_events"] += len(result)


def _count_detect(c, a, result):
    c["simulate.detect_in"] += len(a["batch"])
    c["simulate.detect_out"] += len(result)


def _count_write(c, a, result):
    """Bytes on disk, and the gate table's share read back from the header
    (docs/timetag-format.md)."""
    sink = a["sink"]
    c["tagio.write_bytes"] += os.path.getsize(sink)
    with open(sink, "rb") as fh:
        head = fh.read(52)
    if struct.unpack_from("<Q", head, 28)[0]:
        c["tagio.gate_table_bytes"] += 4 + 16 * struct.unpack_from("<I", head, 48)[0]


def _count_read(c, a, result):
    c["tagio.read_bytes"] += os.path.getsize(a["source"])


def _count_correlate(c, a, result):
    c["correlate.tags_in"] += len(a["stream"])
    c["correlate.coincidences"] += result.total_coincidences


def _count_fit(c, a, result):
    c["fitting.iterations"] += result.n_iterations
    c["fitting.converged"] += bool(result.converged)


# (module, attribute, span name, counter, record peak traced memory)
WRAPS = [
    ("biphoton.cli", "simulate_experiment", "pipeline.simulate_experiment", None, False),
    ("biphoton.cli", "write_stream", "tagio.write_stream", _count_write, False),
    ("biphoton.cli", "read_stream", "tagio.read_stream", _count_read, True),
    ("biphoton.cli", "cross_correlate", "correlate.cross_correlate", _count_correlate, True),
    ("biphoton.cli", "fit", "fitting.fit", _count_fit, False),
    ("biphoton.pipeline", "compile_duty_cycle", "sequence.compile_duty_cycle", None, False),
    ("biphoton.pipeline", "emit_gates", "sequence.emit_gates", _count_gates, False),
    ("biphoton.pipeline", "generate_pairs", "simulate.generate_pairs", _count_pairs, False),
    ("biphoton.pipeline", "generate_chaotic_gated", "simulate.generate_chaotic_gated",
     _count_chaotic, False),
    ("biphoton.pipeline", "merge_batches", "simulate.merge_batches", None, False),
    ("biphoton.pipeline", "detect", "simulate.detect", _count_detect, False),
    ("biphoton.simulate", "generate_chaotic", "simulate.generate_chaotic", None, False),
    ("biphoton.fitting", "model_eval_binned", "fitting.model_eval_binned", None, False),
]

# Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "cli.simulate_s": "s", "cli.correlate_s": "s", "cli.fit_s": "s",
    "cli.analyse_s": "s", "cli.self_s": "s", "cli.invocations": "count",
    "pipeline.simulate_experiment_s": "s", "pipeline.self_s": "s",
    "sequence.compile_s": "s", "sequence.emit_gates_s": "s", "sequence.gates": "count",
    "simulate.pairs_s": "s", "simulate.pairs": "count",
    "simulate.chaotic_s": "s", "simulate.chaotic_gated_self_s": "s",
    "simulate.chaotic_calls": "count", "simulate.chaotic_cells": "count",
    "simulate.chaotic_events": "count", "simulate.merge_s": "s",
    "simulate.detect_s": "s", "simulate.detect_in": "count",
    "simulate.detect_out": "count", "simulate.detect_yield": "ratio",
    "tagio.write_s": "s", "tagio.write_bytes": "bytes", "tagio.gate_table_bytes": "bytes",
    "tagio.read_s": "s", "tagio.read_bytes": "bytes", "tagio.read_peak_mb": "MB",
    "correlate.histogram_s": "s", "correlate.tags_in": "count",
    "correlate.histograms": "count", "correlate.coincidences": "count",
    "correlate.mtags_per_s": "Mtags/s", "correlate.peak_mb": "MB",
    "fitting.fit_s": "s", "fitting.model_eval_s": "s", "fitting.fits": "count",
    "fitting.iterations": "count", "fitting.model_evals": "count",
    "fitting.converged_frac": "ratio",
    "trace.spans": "count",
}

# Work counts that must repeat exactly for a fixed seed.
WORK_COUNTS = ("sequence.gates", "simulate.chaotic_cells", "simulate.pairs",
               "simulate.detect_out", "correlate.coincidences",
               "fitting.iterations", "fitting.model_evals")


class Tracer:
    """Spans in flat columns (no object per span), so that tracing the
    170 000 per-gate generator calls of the reference workload disturbs the
    heap as little as possible.

    With ``memory`` set, the wrappers marked for it also record the peak
    memory traced by ``tracemalloc`` during the call. That slows every
    allocation inside the call, so a chain traces either time or memory.
    """

    def __init__(self, memory=False):
        self.names = [name for _, _, name, _, _ in WRAPS]
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self.peak_mb = defaultdict(float)
        self.memory = memory
        self._stack = []
        self._installed = []

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _begin(self, name_id) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _finish(self, sid):
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        sid = self._begin(self._name_id(name))
        try:
            yield sid
        finally:
            self._finish(sid)

    def _wrap(self, fn, name, counter, memory):
        begin, finish, counts = self._begin, self._finish, self.counts
        name_id = self._name_id(name)
        memory = memory and self.memory
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if memory:
                tracemalloc.start()
            sid = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(sid)
                if memory:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    self.peak_mb[name] = max(self.peak_mb[name], peak)
            if counter is not None:
                counter(counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, name, counter, memory in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                print(f"trace: {module_name}.{attr} not found; not traced",
                      file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(fn, name, counter, memory))
            self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def layer_metrics(self) -> dict:
        """Per-layer metrics of every chain traced so far."""
        n = len(self.start)
        child = [0.0] * n
        incl, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for sid in range(n):
            name, took = self.names[self.name[sid]], self.end[sid] - self.start[sid]
            incl[name] += took
            calls[name] += 1
            if self.parent[sid] >= 0:
                child[self.parent[sid]] += took
        for sid in range(n):
            own[self.names[self.name[sid]]] += self.end[sid] - self.start[sid] - child[sid]
        c = self.counts
        cli = [key for key in calls if key.startswith("cli.")]
        m = {
            "cli.simulate_s": incl["cli.simulate"],
            "cli.correlate_s": incl["cli.correlate"],
            "cli.fit_s": incl["cli.fit"],
            "cli.analyse_s": incl["cli.correlate"] + incl["cli.fit"],
            "cli.self_s": sum(own[key] for key in cli),
            "cli.invocations": sum(calls[key] for key in cli),
            "pipeline.simulate_experiment_s": incl["pipeline.simulate_experiment"],
            "pipeline.self_s": own["pipeline.simulate_experiment"],
            "sequence.compile_s": incl["sequence.compile_duty_cycle"],
            "sequence.emit_gates_s": incl["sequence.emit_gates"],
            "simulate.pairs_s": incl["simulate.generate_pairs"],
            "simulate.chaotic_s": incl["simulate.generate_chaotic_gated"],
            "simulate.chaotic_gated_self_s": own["simulate.generate_chaotic_gated"],
            "simulate.chaotic_calls": calls["simulate.generate_chaotic"],
            "simulate.merge_s": incl["simulate.merge_batches"],
            "simulate.detect_s": incl["simulate.detect"],
            "simulate.detect_yield": (c["simulate.detect_out"] / c["simulate.detect_in"]
                                      if c["simulate.detect_in"] else 0.0),
            "tagio.write_s": incl["tagio.write_stream"],
            "tagio.read_s": incl["tagio.read_stream"],
            "tagio.read_peak_mb": self.peak_mb["tagio.read_stream"],
            "correlate.histogram_s": incl["correlate.cross_correlate"],
            "correlate.histograms": calls["correlate.cross_correlate"],
            "correlate.mtags_per_s": (c["correlate.tags_in"] / incl["cli.correlate"] / 1e6
                                      if incl["cli.correlate"] else 0.0),
            "correlate.peak_mb": self.peak_mb["correlate.cross_correlate"],
            "fitting.fit_s": incl["fitting.fit"],
            "fitting.model_eval_s": incl["fitting.model_eval_binned"],
            "fitting.fits": calls["fitting.fit"],
            "fitting.model_evals": calls["fitting.model_eval_binned"],
            "fitting.converged_frac": (c["fitting.converged"] / calls["fitting.fit"]
                                       if calls["fitting.fit"] else 0.0),
            "trace.spans": n,
        }
        for name in LAYER_UNITS:
            m.setdefault(name, c[name])
        return {name: m[name] for name in LAYER_UNITS}

    def write_spans(self, path):
        """One JSON line per span: id, parent id (-1 for none), name, start
        and end in seconds of ``time.perf_counter``."""
        with open(path, "w") as fh:
            for sid in range(len(self.start)):
                fh.write(json.dumps([sid, self.parent[sid], self.names[self.name[sid]],
                                     self.start[sid], self.end[sid]]) + "\n")
