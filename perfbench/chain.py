"""Child process of the benchmark: one fresh interpreter runs one chain.

Usage: python3 chain.py JOB_JSON LAUNCH_TIME

LAUNCH_TIME is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there until ``biphoton.cli`` is
imported, so nothing but ``sys`` and ``time`` is imported before it. The
job file names the chain's steps, where to write the result and whether
to trace ("time" or "memory", see tracer.py). With ``"steps": []`` the
process only measures set-up.
"""

import sys
import time

import biphoton.cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402  (this file's directory is sys.path[0])


def _zero_bin_g2(csv_path):
    """Auto g2 at zero delay from a histogram CSV, at least 1 (criterion 4b)."""
    hist = workloads.read_histogram(csv_path)
    return max(workloads.zero_bin_counts(hist) / hist["meta"]["g_acc_per_bin"], 1.0)


def cauchy_schwarz_report(cross_json, ss_csv, ii_csv, out_json):
    from biphoton.metrics import cauchy_schwarz
    with open(cross_json) as fh:
        g2_si = json.load(fh)["g2_model_max"]
    rep = cauchy_schwarz(g2_si, _zero_bin_g2(ss_csv), _zero_bin_g2(ii_csv))
    with open(out_json, "w") as fh:
        json.dump({"ratio": rep.ratio, "classical": rep.classical,
                   "g2_si": rep.g2_si_max, "g2_ss": rep.g2_ss_0,
                   "g2_ii": rep.g2_ii_0}, fh, indent=2, sort_keys=True)
    return 0


def run_step(step):
    """Exit code of one step; an exception or exit counts as a failure."""
    try:
        if step["op"] == "cauchy_schwarz":
            return cauchy_schwarz_report(*step["argv"])
        return biphoton.cli.main(step["argv"])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) and exc.code else 1
    except Exception:  # the chain goes on; the parent reports the failure
        traceback.print_exc()
        return 1


def main():
    setup_s = IMPORTED - float(sys.argv[2])
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    module = os.path.realpath(biphoton.cli.__file__)
    if not module.startswith(src + os.sep):
        print(f"biphoton imported from {module}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(memory=job["trace"] == "memory")
        tracer.install()

    steps = []
    chain_start = time.monotonic()
    for step in job["steps"]:
        t0 = time.monotonic()
        if tracer is not None and step["op"] != "cauchy_schwarz":
            with tracer.span("cli." + step["argv"][0]):
                rc = run_step(step)
        else:
            rc = run_step(step)
        steps.append({"op": step["op"], "rc": rc, "seconds": time.monotonic() - t0})
    chain_s = time.monotonic() - chain_start

    import numpy
    import scipy
    result = {
        "setup_s": setup_s,
        "chain_s": chain_s,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if job["spans_out"]:
            tracer.write_spans(job["spans_out"])
    with open(job["result_out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
