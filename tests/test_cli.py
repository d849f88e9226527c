import argparse
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from biphoton import cli, fitting, tagio
from biphoton.cli import main
from biphoton.correlate import HistogramConfig, cross_correlate, read_histogram
from biphoton.errors import (BiphotonError, CorruptionError, OrderingError,
                             StreamFormatError, ValidationError)
from biphoton.tagio import StreamHeader, StreamReader, StreamWriter

PIPELINE_CONFIG = {
    "seed": 11,
    "source": {"pair_rate": 1e5, "tau_c": 4.4},
    "signal_detector": {"quantum_efficiency": 0.9, "jitter_sigma": 0.43},
    "idler_detector": {"quantum_efficiency": 0.9, "jitter_sigma": 0.43},
    "duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 200,
                   "cycles": 2000},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulate -> correlate run shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.json"
    config.write_text(json.dumps(PIPELINE_CONFIG))
    stream = root / "run.tags"
    hist = root / "hist.csv"
    assert main(["simulate", "--config", str(config), "--out", str(stream)]) == 0
    assert main(["correlate", "--input", str(stream), "--out", str(hist)]) == 0
    return {"root": root, "config": config, "stream": stream, "hist": hist}


class TestPipeline:
    def test_simulate_writes_stream_and_manifest(self, workspace):
        manifest = json.loads(
            (workspace["root"] / "run.tags.manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["n_gates"] == 2000
        assert manifest["n_tags"] > 0
        assert len(manifest["config_sha256"]) == 64

    def test_correlate_writes_csv_and_sidecar(self, workspace):
        lines = workspace["hist"].read_text().splitlines()
        assert lines[0] == "bin_center_ns,counts,g2,g2_err"
        assert len(lines) == 286 + 1
        meta = json.loads((workspace["root"] / "hist.csv.meta.json").read_text())
        assert meta["bin_width_ns"] == 1.4
        assert meta["g_acc_per_bin"] > 0
        assert meta["duration_s"] == pytest.approx(0.4)

    def test_fit_recovers_source_parameters(self, workspace, capsys):
        report_path = workspace["root"] / "cross.json"
        code = main(["fit", "--input", str(workspace["hist"]),
                     "--model", "cross", "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["converged"]
        assert report["message"]
        assert report["n_evaluations"] >= report["n_iterations"] > 0
        assert 1 <= report["starts_converged"] <= 8
        assert report["params"]["tau_c"] == pytest.approx(4.4, abs=0.3)
        # Two detectors at 0.43 ns jitter add in quadrature to 0.61 ns.
        assert report["params"]["tau_d"] == pytest.approx(0.61, abs=0.1)
        assert report["coincidence_rate_hz"] > 0
        assert "converged" in capsys.readouterr().out

    def test_fit_of_the_csv_equals_the_fit_in_memory(self, workspace, capsys):
        out = workspace["root"] / "cross_again.json"
        assert main(["fit", "--input", str(workspace["hist"]), "--model", "cross",
                     "--out", str(out)]) == 0
        with StreamReader(workspace["stream"]) as reader:
            hist = cross_correlate(reader, HistogramConfig())
        result = cli.fit_histogram(hist, fitting.ModelKind.CROSS_CONVOLVED)
        # JSON round-trips a float exactly: equal here is equal bit for bit.
        assert json.loads(out.read_text())["params"] == result.as_dict()["params"]

    @pytest.mark.parametrize("channel_b", ["1", "5"], ids=["floor", "silent"])
    def test_sidecar_floor_is_the_read_back_histograms(self, workspace, tmp_path,
                                                       capsys, channel_b):
        # Channel 5 has no tags: the histogram has no floor and the fit
        # refuses it.
        out = tmp_path / "h.csv"
        assert main(["correlate", "--input", str(workspace["stream"]),
                     "--out", str(out), "--channel-b", channel_b]) == 0
        meta = json.loads((tmp_path / "h.csv.meta.json").read_text())
        g_acc = read_histogram(out).g_acc
        assert (g_acc > 0) == (channel_b == "1")
        assert meta.get("g_acc_per_bin") == (g_acc or None)
        if g_acc:
            report = tmp_path / "r.json"
            assert main(["fit", "--input", str(out), "--model", "cross",
                         "--out", str(report)]) == 0
            assert json.loads(report.read_text())["g_acc_per_bin"] == g_acc
        else:
            assert main(["fit", "--input", str(out), "--model", "cross",
                         "--out", str(tmp_path / "r.json")]) == 2

    def test_fit_residuals_csv(self, workspace):
        out = workspace["root"] / "cross2.json"
        res = workspace["root"] / "residuals.csv"
        assert main(["fit", "--input", str(workspace["hist"]), "--model",
                     "cross", "--out", str(out), "--residuals", str(res)]) == 0
        lines = res.read_text().splitlines()
        assert lines[0] == "x,observed,model,residual"
        assert len(lines) == 286 + 1
        # The model column is what the fit minimised: its chi2 is the report's.
        table = np.loadtxt(res, delimiter=",", skiprows=1)
        hist = read_histogram(workspace["hist"])
        sigma = np.sqrt(hist.counts + 1.0) / hist.g_acc
        chi2 = float(np.sum(((table[:, 1] - table[:, 2]) / sigma) ** 2))
        assert chi2 == pytest.approx(json.loads(out.read_text())["chi2"], rel=1e-6)

    def test_fit_that_does_not_converge_exits_5(self, workspace, monkeypatch, capsys):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 3)
        out = workspace["root"] / "stalled.json"
        assert main(["fit", "--input", str(workspace["hist"]),
                     "--model", "cross", "--out", str(out)]) == 5
        report = json.loads(out.read_text())
        assert report["converged"] is False
        assert report["starts_converged"] == 0
        assert "NOT CONVERGED" in capsys.readouterr().out

    def test_metrics_from_fit_report(self, workspace, capsys):
        # --tau-c and --rc stand in for the cross fit report's values.
        report_path = workspace["root"] / "cross.json"
        assert main(["report", "--cross", str(report_path)]) == 0
        from_report = capsys.readouterr().out.splitlines()
        report = json.loads(report_path.read_text())
        assert main(["report", "--tau-c", repr(report["params"]["tau_c"]),
                     "--rc", repr(report["coincidence_rate_hz"])]) == 0
        from_flags = capsys.readouterr().out.splitlines()
        metrics = [line for line in from_flags
                   if line.startswith(("bandwidth:", "spectral brightness:"))]
        assert len(metrics) == 2
        assert set(metrics) <= set(from_report)

    def test_report_without_autos_marks_r_unavailable(self, workspace, capsys):
        assert main(["report", "--cross",
                     str(workspace["root"] / "cross.json")]) == 0
        out = capsys.readouterr().out
        assert "Cauchy-Schwarz R: unavailable" in out
        assert "bandwidth" in out

    def test_report_with_autos_computes_ratio(self, workspace, capsys):
        auto = {"params": {"g0": 0.22, "tau_c": 18.9, "tau_d": 9.77},
                "uncertainties": {"g0": 0.03, "tau_c": 2.7, "tau_d": 1.1}}
        auto_path = workspace["root"] / "auto.json"
        auto_path.write_text(json.dumps(auto))
        out_path = workspace["root"] / "summary.txt"
        assert main(["report", "--cross", str(workspace["root"] / "cross.json"),
                     "--auto-signal", str(auto_path),
                     "--auto-idler", str(auto_path),
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Cauchy-Schwarz R = " in out
        assert "NON-CLASSICAL" in out
        assert out_path.read_text().strip() in out

    def test_seed_flag_overrides_config(self, workspace):
        other = workspace["root"] / "other.tags"
        assert main(["simulate", "--config", str(workspace["config"]),
                     "--seed", "12", "--out", str(other)]) == 0
        assert other.read_bytes() != workspace["stream"].read_bytes()

    def test_repeat_run_is_byte_identical(self, workspace):
        again = workspace["root"] / "again.tags"
        assert main(["simulate", "--config", str(workspace["config"]),
                     "--out", str(again)]) == 0
        assert again.read_bytes() == workspace["stream"].read_bytes()


class TestEdgeCases:
    def test_zero_cycles_gives_empty_stream(self, tmp_path, capsys):
        config = tmp_path / "empty.json"
        config.write_text(json.dumps(
            {"source": {"pair_rate": 1e5}, "duty_cycle": {"cycles": 0}}))
        stream = tmp_path / "empty.tags"
        assert main(["simulate", "--config", str(config),
                     "--out", str(stream)]) == 0
        assert "wrote 0 tags" in capsys.readouterr().out
        hist = tmp_path / "empty.csv"
        assert main(["correlate", "--input", str(stream),
                     "--out", str(hist)]) == 0

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"source": {"pair_rte": 1.0}}))
        code = main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.tags")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupted_stream_exits_4(self, workspace, tmp_path, capsys):
        damaged = tmp_path / "damaged.tags"
        damaged.write_bytes(workspace["stream"].read_bytes()[:-3])
        code = main(["correlate", "--input", str(damaged),
                     "--out", str(tmp_path / "h.csv")])
        assert code == 4

    def test_missing_input_exits_3(self, tmp_path):
        code = main(["correlate", "--input", str(tmp_path / "nope.tags"),
                     "--out", str(tmp_path / "h.csv")])
        assert code == 3

    @pytest.mark.parametrize("channel", ["256", "-1"])
    def test_channel_outside_8_bits_exits_2(self, workspace, tmp_path, channel):
        out = tmp_path / "h.csv"
        code = main(["correlate", "--input", str(workspace["stream"]),
                     "--out", str(out), "--channel-a", channel])
        assert code == 2
        assert not out.exists()

    def test_fit_without_accidental_floor_exits_2(self, tmp_path):
        csv_path = tmp_path / "h.csv"
        csv_path.write_text("bin_center_ns,counts\n0.0,5\n1.0,3\n")
        code = main(["fit", "--input", str(csv_path), "--model", "cross",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def write_random_stream(path, n, seed=0, gates=None):
    """n tags on channels 0 and 1, 1 us apart on average, so the density
    and with it the correlator's working set do not depend on n."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(0, 2_000_000, n)).astype(np.int64)
    ch = rng.integers(0, 2, n).astype(np.uint8)
    header = StreamHeader(acquisition_seconds=float(ts[-1]) * 1e-12)
    with StreamWriter(path, header, gates) as writer:
        writer.write(ch, ts)


class TestStreamingCorrelate:
    N = 200_000  # four reader chunks of 2**16 records

    @pytest.fixture(scope="class")
    def stream(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("stream") / "random.tags"
        write_random_stream(path, self.N, gates=[(0, 1 << 40)])
        return path

    @pytest.mark.parametrize("flags, cfg", [
        ([], HistogramConfig()),
        (["--channel-a", "1", "--channel-b", "1", "--dt-min", "-100",
          "--dt-max", "100"],
         HistogramConfig(dt_min=-100.0, dt_max=100.0, channel_a=1, channel_b=1))])
    def test_outputs_match_the_batch_path(self, stream, tmp_path, capsys,
                                          flags, cfg):
        # Read in chunks of 7 and 2**16 records or as one chunk, the file
        # gives the CLI's bytes. One record a chunk would take seconds on
        # this file: TestCorrelator::test_chunked_feeding_matches_batch
        # reads 5 000 tags that way.
        out = tmp_path / "cli.csv"
        assert main(["correlate", "--input", str(stream), "--out", str(out),
                     *flags]) == 0
        for chunk_records in (7, 1 << 16, self.N):
            with StreamReader(stream, chunk_records) as reader:
                hist = cross_correlate(reader, cfg)
            ref = tmp_path / "batch.csv"
            hist.export_csv(ref)
            assert out.read_bytes() == ref.read_bytes(), chunk_records
            assert (tmp_path / "cli.csv.meta.json").read_bytes() == \
                (tmp_path / "batch.csv.meta.json").read_bytes(), chunk_records

    def test_order_is_checked_once_per_chunk(self, stream, tmp_path, monkeypatch,
                                             capsys):
        # The reader checks each chunk; the correlator does not again.
        calls = []
        check_order = tagio.check_order

        def counted(*args):
            calls.append(len(args[0]))
            return check_order(*args)

        monkeypatch.setattr(tagio, "check_order", counted)
        assert main(["correlate", "--input", str(stream),
                     "--out", str(tmp_path / "h.csv")]) == 0
        assert len(calls) == 4
        assert sum(calls) == self.N

    @pytest.mark.parametrize("damage, code", [("disorder", 2), ("truncate", 4)])
    def test_damage_past_the_first_chunk_leaves_no_csv(self, stream, tmp_path,
                                                       capsys, damage, code):
        raw = bytearray(stream.read_bytes())
        record = len(raw) - 8 * (self.N // 4)
        if damage == "disorder":
            raw[record:record + 8] = bytes(8)  # timestamp 0 on channel 0
        else:
            del raw[record + 3:]
        bad = tmp_path / "bad.tags"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "h.csv"
        assert main(["correlate", "--input", str(bad), "--out", str(out)]) == code
        assert not out.exists()
        assert not (tmp_path / "h.csv.meta.json").exists()

    def test_reader_length_counts_whole_records(self, stream, tmp_path):
        with StreamReader(stream) as reader:
            assert len(reader) == self.N
            assert len(list(reader.chunks())) == 4
            assert len(reader) == self.N
        cut = tmp_path / "cut.tags"
        cut.write_bytes(stream.read_bytes()[:-3])
        with StreamReader(cut) as reader:
            assert len(reader) == self.N - 1


def test_correlate_memory_is_bounded_by_chunk_not_file(tmp_path, capsys):
    # Reading the 10x file whole would take about 40 MiB; the streaming
    # path holds a few reader chunks and the correlator's window.
    bound = 6 << 20
    peaks = []
    for n in (100_000, 1_000_000):
        path = tmp_path / f"{n}.tags"
        write_random_stream(path, n)
        tracemalloc.start()
        try:
            assert main(["correlate", "--input", str(path),
                         "--out", str(tmp_path / f"{n}.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert os.path.getsize(path) > bound
    assert max(peaks) < bound, peaks


@pytest.mark.parametrize("error, code", [
    (OrderingError("records must be sorted by timestamp"), 2),
    (CorruptionError("truncated record", 56), 4),
    (StreamFormatError("bad magic"), 4),
    (ValidationError("bad value", field="x"), 2),
    (BiphotonError("other toolkit error"), 2),
    (OSError("disk full"), 3),
])
def test_errors_map_to_exit_codes(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_report", fail)
    assert main(["report"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_commands_import_no_scipy(tmp_path):
    # Every command pays for what it imports: SciPy cost about 0.45 s of
    # each process's start-up, and numpy.ma (pulled in by np.median)
    # about 12 ms.
    config = tmp_path / "run.json"
    config.write_text(json.dumps(PIPELINE_CONFIG))
    script = f"""
import sys
from biphoton.cli import main
stream, hist = {str(tmp_path / "run.tags")!r}, {str(tmp_path / "hist.csv")!r}
codes = [main(["simulate", "--config", {str(config)!r}, "--out", stream]),
         main(["correlate", "--input", stream, "--out", hist]),
         main(["fit", "--input", hist, "--model", "cross",
               "--out", {str(tmp_path / "fit.json")!r}])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                    or m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_import_reaches_every_module():
    # A module that the command never imports is code no command runs.
    package = os.path.dirname(cli.__file__)
    modules = sorted(f"biphoton.{name[:-3]}" for name in os.listdir(package)
                     if name.endswith(".py") and name != "__init__.py")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, biphoton.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(modules) - set(proc.stdout.split()) == set()


def test_readme_commands_exist():
    # Every subcommand and --flag of README's command lines is one the
    # parser knows, so the README cannot keep a removed flag.
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = fh.read().replace("\\\n", " ").splitlines()
    commands = [line.split() for line in lines if line.startswith("biphoton ")]
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert len(commands) >= 6
    for words in commands:
        assert words[1] in subparsers.choices, words
        flags = {w.strip("[]") for w in words[2:] if w.lstrip("[").startswith("--")}
        known = subparsers.choices[words[1]]._option_string_actions
        assert flags <= set(known), (words[1], flags - set(known))


class TestSequenceCommand:
    def test_valid_duty_cycle_reports_layout(self, tmp_path, capsys):
        config = tmp_path / "seq.json"
        config.write_text(json.dumps(
            {"duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 200,
                            "cycles": 3}}))
        out = tmp_path / "program.csv"
        assert main(["sequence", "--config", str(config),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "35 slots/cycle" in text
        assert "3 gate windows" in text
        assert out.read_text().startswith("slot,time_us,")

    def test_oversized_cycle_exits_2(self, tmp_path, capsys):
        config = tmp_path / "big.json"
        config.write_text(json.dumps(
            {"duty_cycle": {"load_duration_us": 500, "fwm_duration_us": 200},
             "hardware": {"ram_words": 10}}))
        assert main(["sequence", "--config", str(config)]) == 2

    @pytest.mark.parametrize("duty_cycle", [
        {"analog_levels_v": {"a": 1.0}},
        {"always_on_channels": 5},
        {"always_on_channels": [1.5]},
    ], ids=["text-key", "not-a-list", "fraction"])
    def test_malformed_channels_exit_2(self, tmp_path, capsys, duty_cycle):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"duty_cycle": duty_cycle}))
        assert main(["sequence", "--config", str(config)]) == 2
        assert "duty_cycle" in capsys.readouterr().err

    @pytest.mark.parametrize("document, name", [
        ({"duty_cycle": {"cycles": 2.5}}, "cycles"),
        ({"duty_cycle": {"cycles": True}}, "cycles"),
        ({"hardware": {"slot_duration_us": 20.5}}, "slot_duration_us"),
        ({"hardware": {"digital_channels": "23"}}, "digital_channels"),
        ({"duty_cycle": {"analog_levels_v": {"0": "a"}},
          "hardware": {"words_per_slot": 2}}, "analog_levels_v"),
        ({"seed": True}, "seed"),
    ], ids=["fraction-cycles", "bool-cycles", "fraction-slot", "text-channels",
            "text-volts", "bool-seed"])
    def test_wrong_type_exits_2(self, tmp_path, capsys, document, name):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(document))
        assert main(["sequence", "--config", str(config)]) == 2
        assert name in capsys.readouterr().err


class TestODFitCommand:
    @pytest.mark.parametrize("text, column", [
        ("detuning_mhz,level\n0,0.5\n1,0.6\n", "transmission"),
        ("detuning_mhz,transmission\n0,0.5\n1,abc\n", "transmission"),
    ], ids=["missing-column", "text-cell"])
    def test_malformed_scan_exits_2(self, tmp_path, capsys, text, column):
        scan = tmp_path / "scan.csv"
        scan.write_text(text)
        out = tmp_path / "od.json"
        assert main(["od-fit", "--input", str(scan), "--out", str(out)]) == 2
        assert column in capsys.readouterr().err
        assert not out.exists()

    def test_scan_recovers_od(self, tmp_path, capsys):
        import numpy as np
        from biphoton.fitting import ModelKind, model_eval
        rng = np.random.default_rng(3)
        x = np.linspace(-60, 60, 121)
        y = model_eval(ModelKind.ABSORPTION_OD, np.array([20.0, 6.065, 0.0]), x)
        y = y * (1 + 0.01 * rng.standard_normal(len(x)))
        scan = tmp_path / "scan.csv"
        with open(scan, "w") as fh:
            fh.write("detuning_mhz,transmission\n")
            for xi, yi in zip(x, y):
                fh.write(f"{xi},{yi}\n")
        report_path = tmp_path / "od.json"
        assert main(["od-fit", "--input", str(scan), "--noise", "0.01",
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["params"]["od"] == pytest.approx(20.0, abs=0.5)
        assert report["atom_number"] == pytest.approx(5.5e7, rel=0.03)
        assert "atom number" in capsys.readouterr().out
