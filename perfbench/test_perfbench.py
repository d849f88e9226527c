"""Tests of the benchmark itself, on small versions of its workloads.

Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 5


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def chains(request, tmp_path_factory):
    """An untraced chain, one traced for time and one traced for memory."""
    work = str(tmp_path_factory.mktemp(request.param))
    r = run.Run(workloads.small(request.param), SEED, trace=True, work=work)
    try:
        r.prepare()
        yield request.param, [r.chain(kind) for kind in run.TRACE_TURNS]
    finally:
        r.close()


def test_every_command_exits_zero(chains):
    _, recs = chains
    for rec in recs:
        assert set(rec["exit_codes"]) == {0}


def test_tracing_leaves_outputs_byte_identical(chains):
    _, (plain, timed, memory) = chains
    assert plain["digests"]
    assert timed["digests"] == plain["digests"]
    assert memory["digests"] == plain["digests"]


def test_work_counts_repeat_exactly(chains):
    name, (_, timed, memory) = chains
    counts = {k: timed["layers"][k] for k in tracer.WORK_COUNTS}
    assert counts == {k: memory["layers"][k] for k in tracer.WORK_COUNTS}
    assert counts["correlate.coincidences"] > 0
    assert counts["fitting.model_evals"] > 0
    if name != "replay":
        assert counts["sequence.gates"] == workloads.small(name).size
        assert counts["simulate.detect_out"] > 0
    if name == "chaotic":
        assert counts["simulate.chaotic_cells"] > 0


def test_layers_reported(chains):
    name, (_, timed, memory) = chains
    assert set(timed["layers"]) == set(tracer.LAYER_UNITS)
    commands = {"reference": 3, "chaotic": 5, "replay": 4}[name]
    assert timed["layers"]["cli.invocations"] == commands
    assert timed["layers"]["correlate.histograms"] == commands - 1 - (name != "replay")
    assert memory["layers"]["correlate.peak_mb"] > 0


def test_replay_input_is_cached_by_digest(tmp_path):
    first = workloads.replay_input(str(tmp_path), SEED, 1000)
    digest = workloads.file_digest(first)
    mtime = os.path.getmtime(first)
    assert workloads.replay_input(str(tmp_path), SEED, 1000) == first
    assert os.path.getmtime(first) >= mtime
    assert workloads.file_digest(first) == digest
    with open(first, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        fh.write(b"\xff")
    workloads.replay_input(str(tmp_path), SEED, 1000)
    assert workloads.file_digest(first) == digest
    table = 4 + 16 * workloads.REPLAY_CYCLES
    assert os.path.getsize(first) == 48 + table + 8 * 2 * (1000 + 500)


def test_replay_cache_keeps_the_most_recent_files(tmp_path):
    paths = [workloads.replay_input(str(tmp_path), seed, 1000) for seed in (1, 2, 3)]
    kept = sorted(f for f in os.listdir(tmp_path) if f.endswith(".tags"))
    assert kept == sorted(os.path.basename(p) for p in paths[-workloads.REPLAY_KEEP:])


def test_refuses_a_checkout_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "reference", "--seconds", "1"]) == 2


def test_benchmark_json_matches_the_metrics_reported():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
