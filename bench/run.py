"""prodone benchmark: time-to-verdict of the exhaustive scans behind the paper's claims.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen):
``inverse_k_le_2_372``, ``windows_k2_5113``, ``davenport_small_3133``.

With ``--trace 0`` the run prints the end-to-end metrics: ``wall_s`` (time to
a checked verdict, set-up excluded), ``setup_s`` (median of fresh-interpreter
import + make_group + table warm-up) and ``peak_rss_mb``.  The two times are
given at the reference speed of ``workloads.SpeedProbe``: shared hosts drift
in speed by up to a factor of two within seconds, so each time is scaled by
speed samples taken while it ran.  The times as measured go to the report on
standard error.  With ``--trace 1`` the run makes the untraced run, then a
traced replica of it, and prints the per-layer metrics of tracing.py, as
measured; they include the certificate checks.

A report with the environment stamp, the verdict details and the labelled
estimates goes to standard error.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check passed, 1 when a check
failed and 2 when prodone cannot be imported or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from time import perf_counter

WORKLOADS = ("inverse_k_le_2_372", "windows_k2_5113", "davenport_small_3133")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment()
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"cannot import prodone from this checkout: {exc}", file=sys.stderr)
        return 2
    group = wl.GROUP[args.workload]
    measured: dict = {}
    if args.trace:
        import tracing

        ctx = wl.warm_group(group)
        outcome, values = tracing.run_traced(args.workload, ctx, args.seed, args.seconds)
        units = dict(tracing.PER_LAYER)
    else:
        probe = wl.SpeedProbe()
        t0 = perf_counter()
        setup = wl.measure_setup(group, probe)
        t1 = perf_counter()
        ctx = wl.warm_group(group)
        with probe.periodic():
            outcome = wl.run(args.workload, ctx, args.seed, args.seconds)
        wl.check_certs(outcome)
        values = {
            "wall_s": statistics.median(outcome.walls(probe)),
            "setup_s": statistics.median(setup) * probe.scale(t0, t1),
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        measured = {
            "wall_s": outcome.walls(),
            "setup_s": setup,
            "probe_median_s": statistics.median([d for _, d in probe.samples]),
        }
        units = dict(END_TO_END)
    env["loadavg_end"] = list(os.getloadavg())
    correct = not outcome.problems and outcome.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "problems": outcome.problems,
        "measured": measured,
        "estimates": {k: v for k, v in outcome.detail.items() if k.startswith("estimate_")},
    }
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
