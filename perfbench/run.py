"""Benchmark jack4 end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload pairing --seed 1 --seconds 30 --trace 0

Workloads are ``pairing``, ``sweep`` and ``xframe`` (see workloads.py and
README.md).  The run repeats whole rounds of the workload, each with cold
caches, until the next round would pass ``--seconds``, and checks every
round's outputs outside the timed section.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# One process, one thread: keep numpy's BLAS from starting a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SETUP_PROBES = 7
# Share of --seconds that a traced run spends on untraced rounds, the
# baseline of trace.overhead_s.
UNTRACED_SHARE = 1 / 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("pairing", "sweep", "xframe"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads():
    """Import jack4 from the checkout's src/ and the workloads built on it."""
    if not os.path.isfile(os.path.join(SRC, "jack4", "__init__.py")):
        sys.exit(f"error: no src/jack4 under {ROOT}; run from the root of a jack4 checkout")
    sys.path.insert(0, SRC)
    import jack4
    import workloads

    if not os.path.abspath(jack4.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: jack4 was imported from {jack4.__file__}, not from {SRC}")
    return workloads


def monotonic() -> float:
    """A clock shared by all processes of the machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter to its first request being
    ready: importing jack4 (and numpy) and generating the workload's inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = monotonic()
        probe = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=120)
        words = probe.stdout.split()
        if probe.returncode != 0 or len(words) != 2 or words[0] != b"ready":
            sys.exit(f"error: set-up probe exited {probe.returncode} without getting ready")
        times.append(float(words[1]) - start)
    return statistics.median(times)


def run_rounds(workloads, workload, seconds: float, tracer=None) -> dict:
    """Whole rounds until the next one would pass ``seconds`` (at least one)."""
    walls, attempted, failed, problems = [], 0, 0, []
    deadline = time.perf_counter() + seconds
    while True:
        workloads.clear_caches()
        if tracer is not None:
            tracer.recording = not walls  # keep the spans of the first round only
            tracer.install()
        try:
            start = time.perf_counter()
            outputs = workload.run()
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        walls.append(wall)
        a, f, p = workload.check(outputs)
        del outputs
        attempted, failed = attempted + a, failed + f
        problems += p
        if time.perf_counter() + wall > deadline:
            break
    return {"walls": walls, "attempted": attempted, "failed": failed, "problems": problems}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_workloads()
    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed)
        print("ready", monotonic())
        return 0

    if args.trace:
        import tracing

        workload = make(args.seed)
        plain = run_rounds(workloads, workload, args.seconds * UNTRACED_SHARE)
        tracer = tracing.Tracer()
        traced = run_rounds(workloads, workload, args.seconds * (1 - UNTRACED_SHARE), tracer)
        runs = (plain, traced)
        traced_wall = statistics.fmean(traced["walls"])
        values = tracer.metrics(len(traced["walls"]))
        metrics = {name: metric(v, tracing.unit(name)) for name, v in values.items()}
        metrics["trace.wall_s"] = metric(traced_wall, "s")
        metrics["trace.overhead_s"] = metric(traced_wall - statistics.fmean(plain["walls"]), "s")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                           {"workload": args.workload, "seed": args.seed})
    else:
        setup_s = measure_setup(args)
        workload = make(args.seed)
        run = run_rounds(workloads, workload, args.seconds)
        runs = (run,)
        metrics = {
            "wall_s": metric(statistics.median(run["walls"]), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    problems = [p for r in runs for p in r["problems"]]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
