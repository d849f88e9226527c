"""biphoton benchmark: the CLI chain of one workload, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0

Each chain runs in a fresh interpreter (``chain.py``) that imports
``biphoton.cli`` from ``src/`` and calls ``biphoton.cli.main`` once per
command. Chains run one after another until ``--seconds`` is used up, one
process at a time, with the numeric libraries held to one thread, so the
figures measure the program and not the scheduler. The benchmark reads and
writes only its checkout (``perfbench/work/`` holds its scratch files) and
measures only its own processes.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, medians over the chains of the run (``setup_s``
also over set-up-only interpreters started between them). With
``--trace 1`` untraced chains, chains traced for time and chains traced
for memory take turns, and the object holds the per-layer metrics,
medians over the traced chains; see ``tracer.py``.
Every chain's outputs are checked, and every chain of one run must write
byte-identical files, traced or not.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
CHAIN = os.path.join(HERE, "chain.py")

sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBES = 3
SETUP_SAMPLES = 15  # set-up samples in an untraced run: its chains and probes
TRACE_TURNS = ("", "time", "memory")  # the order of chains in a traced run
RUN_LIMIT_S = 170.0  # no child may run past this point of a run

END_TO_END_UNITS = {
    "setup_s": "s",
    "chain_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "ratio",
}

PER_LAYER_UNITS = {
    **tracer.LAYER_UNITS,
    "import.simulate_s": "s",
    "import.fitting_s": "s",
    "import.cli_s": "s",
    "trace.overhead_s": "s",
}

IMPORTTIME_MODULES = {"biphoton.simulate": "import.simulate_s",
                      "biphoton.fitting": "import.fitting_s",
                      "biphoton.cli": "import.cli_s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every chain
    env.pop("BIPHOTON_LOG", None)
    return env


class Run:
    """One benchmark run: its scratch directory, clock and children."""

    def __init__(self, workload, seed, trace, work=WORK):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.started = time.monotonic()
        self.dir = os.path.join(work, f"run-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = child_env()
        self.n_children = 0
        self.config = None
        self.replay = None

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def prepare(self):
        doc = self.workload.config(self.seed)
        if doc is None:
            self.replay = workloads.replay_input(os.path.join(self.work, "replay"),
                                                 self.seed, self.workload.size)
        else:
            self.config = os.path.join(self.dir, "config.json")
            with open(self.config, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)

    def child(self, steps, trace="", spans_out=None):
        """Run chain.py once; returns its result dict or None on failure."""
        self.n_children += 1
        job_dir = os.path.join(self.dir, f"child-{self.n_children}")
        os.makedirs(job_dir)
        job = {"src": SRC, "steps": [asdict(s) for s in steps], "trace": trace,
               "spans_out": spans_out,
               "result_out": os.path.join(job_dir, "result.json")}
        job_path = os.path.join(job_dir, "job.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        launched = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, CHAIN, job_path, repr(launched)],
                                  cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"# child {self.n_children} timed out", file=sys.stderr)
            return None
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not os.path.exists(job["result_out"]):
            print(f"# child {self.n_children} exited {proc.returncode}", file=sys.stderr)
            return None
        with open(job["result_out"]) as fh:
            return json.load(fh)

    def import_probe(self) -> dict:
        """Cumulative import times of a fresh ``import biphoton.cli``."""
        try:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                   "import biphoton.cli"], cwd=ROOT, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {}
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTTIME_MODULES:
                found[IMPORTTIME_MODULES[parts[2].strip()]] = int(parts[1]) * 1e-6
        return found

    def chain(self, trace=""):
        """Run one chain, traced for "time", "memory" or not at all, and
        check its outputs."""
        out = os.path.join(self.dir, f"chain-{self.n_children + 1}")
        os.makedirs(out)
        stream = self.replay or os.path.join(out, "stream.tags")
        steps = self.workload.steps(stream, out, self.config)
        spans = (os.path.join(self.work, f"spans-{self.workload.name}.jsonl")
                 if trace else None)
        result = self.child(steps, trace=trace, spans_out=spans)
        rec = {"trace": trace, "attempted": len(steps), "exit_codes": [],
               "failed": [s.op for s in steps], "checks": []}
        if result is not None:
            rec.update(self._outcome(result, out, stream))
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def _outcome(self, result, out, stream) -> dict:
        done = result["steps"]
        failed = [s["op"] for s in done if s["rc"] != 0]
        checks = []
        if not failed:
            try:
                checks = self.workload.check(out, stream)
            except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
                checks = [("outputs", False, f"unreadable: {exc!r}")]
            failed = sorted({op for op, ok, _ in checks if not ok})
        return {
            "attempted": len(done), "exit_codes": [s["rc"] for s in done],
            "failed": failed, "checks": checks,
            "setup_s": result["setup_s"], "chain_s": result["chain_s"],
            "peak_rss_mb": result["peak_rss_mb"], "versions": result["versions"],
            "layers": result.get("layers"),
            "digests": {name: workloads.file_digest(os.path.join(out, name))
                        for name in sorted(os.listdir(out))},
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def machine_facts(versions) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, **(versions or {})}


def median(values):
    return statistics.median(values) if values else 0.0


def measure(run, seconds, trace):
    """Warm up, then run chains until ``seconds`` are used.

    Each chain gives one set-up sample. An untraced run also starts
    set-up-only interpreters: between its chains, in step with the clock,
    and after the last one while time is left, until it has SETUP_SAMPLES
    set-up samples in all.
    """
    run.child([])  # untimed: fills the byte-code and file caches
    start = time.monotonic()
    deadline = start + seconds
    chains, setups, walls, probe_walls = [], [], [], []
    imports = [run.import_probe() for _ in range(IMPORT_PROBES)] if trace else []

    def probe_until(target, until=math.inf):
        while (not trace and len(chains) + len(setups) < target
               and time.monotonic() + median(probe_walls) <= until):
            t0 = time.monotonic()
            setups.append(run.child([]))
            probe_walls.append(time.monotonic() - t0)

    while True:
        t0 = time.monotonic()
        chains.append(run.chain(TRACE_TURNS[len(chains) % 3] if trace else ""))
        probe_until(SETUP_SAMPLES * min((time.monotonic() - start) / seconds, 1.0))
        walls.append(time.monotonic() - t0)
        done_each = not trace or len(chains) >= len(TRACE_TURNS)
        if done_each and time.monotonic() + median(walls) > deadline:
            break
        if run.remaining() < 2 * max(walls):
            break
    probe_until(SETUP_SAMPLES, until=deadline)
    return imports, chains, setups


def summarise(workload, imports, chains, setups, trace):
    ok = [c for c in chains if not c["failed"] and "chain_s" in c]
    timed = ok or [c for c in chains if "chain_s" in c]
    attempted = sum(c["attempted"] for c in chains)
    failed = min(sum(len(c["failed"]) for c in chains), attempted)
    problems = [f"{op}: {detail}" for c in chains for op, good, detail in c["checks"]
                if not good]
    problems += [f"chain {i + 1}: failed {sorted(c['failed'])}"
                 for i, c in enumerate(chains) if c["failed"]]
    if None in setups:
        problems.append(f"{setups.count(None)} set-up probes failed")
    digests = {json.dumps(c["digests"], sort_keys=True) for c in timed}
    if len(digests) > 1:
        problems.append("chains of one seed wrote different outputs")

    if trace:
        kinds = {k: [c for c in timed if c["trace"] == k and (c["layers"] or not k)]
                 for k in TRACE_TURNS}
        traced = kinds["time"] + kinds["memory"]
        counts = {tuple(c["layers"][k] for k in tracer.WORK_COUNTS) for c in traced}
        if len(counts) > 1:
            problems.append("work counts differ between traced chains")
        if not all(kinds.values()):
            problems.append("need an untraced chain and chains traced for "
                            "time and for memory")
        metrics = {name: median([c["layers"][name] for c in
                                 kinds["memory" if name.endswith("_mb") else "time"]])
                   for name in tracer.LAYER_UNITS}
        for key in IMPORTTIME_MODULES.values():
            metrics[key] = median([p[key] for p in imports if key in p])
        plain_s = median([c["chain_s"] for c in kinds[""]])
        metrics["trace.overhead_s"] = median([c["chain_s"] for c in kinds["time"]]) - plain_s
        units = PER_LAYER_UNITS
        print(f"# chain_s untraced: n={len(kinds[''])} median={plain_s:.4f}; "
              f"traced for time: median={plain_s + metrics['trace.overhead_s']:.4f}")
    else:
        setup_samples = [c["setup_s"] for c in timed] + [p["setup_s"] for p in setups if p]
        metrics = {
            "setup_s": median(setup_samples),
            "chain_s": median([c["chain_s"] for c in timed]),
            "peak_rss_mb": median([c["peak_rss_mb"] for c in timed]),
            "ok_ops_frac": (attempted - failed) / attempted if attempted else 0.0,
        }
        units = END_TO_END_UNITS
        for name, samples in (("setup_s", setup_samples),
                              ("chain_s", [c["chain_s"] for c in timed])):
            print(f"# {name}: n={len(samples)} min={min(samples, default=0):.4f} "
                  f"median={metrics[name]:.4f} max={max(samples, default=0):.4f}")

    versions = next((c["versions"] for c in timed), None)
    print(f"# workload {workload.name}: {len(chains)} chains "
          f"({sum(bool(c['trace']) for c in chains)} traced); "
          f"machine {json.dumps(machine_facts(versions))}")
    for op, good, detail in chains[0]["checks"] if chains else []:
        print(f"# check {op}: {'ok' if good else 'FAIL'}, {detail}")
    for line in problems:
        print(f"# FAIL {line}")
    correct = bool(chains) and not problems and failed == 0
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "biphoton", "cli.py")):
        print(f"no biphoton sources under {SRC}", file=sys.stderr)
        return 2

    run = Run(workloads.WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        run.prepare()
        imports, chains, setups = measure(run, args.seconds, run.trace)
        summary = summarise(run.workload, imports, chains, setups, run.trace)
    finally:
        run.close()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
