"""Benchmark of cuspkernel: two closed-loop workloads, one client, one thread.

    python3 perfbench/run.py                      # both, each in a fresh interpreter
    python3 perfbench/run.py --workload kernel_certify --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload kernel_certify --trace 1   # per-layer metrics

A run repeats whole rounds of its workload's fixed operation list until
--seconds have passed and at least 100 operations have been timed,
checking every output as it goes, and prints one
JSON line last: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
# percentiles come from at least this many timed operations, so that ten
# lie beyond the 90th
MIN_TIMED_OPS = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import the package, build the inputs and exit "
                         "(what setup_s times)")
    return ap.parse_args(argv)


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports cuspkernel and builds
    the workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def run_round(ops, tracer, problems):
    """Run every operation once; return (seconds per operation of the ones
    that succeeded, wall seconds of the round, number failed)."""
    from workloads import Failed

    times, wall, failed = [], 0.0, 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run(tracer)
        except Failed as exc:
            wall += time.perf_counter() - t0
            failed += 1
            if op.slot.fault is None:
                problems.append(f"{op.slot}: unexpected failure: {exc}")
            continue
        dt = time.perf_counter() - t0
        wall += dt
        times.append(dt)
        for msg in op.check(out):
            problems.append(f"{op.slot}: {msg}")
    return times, wall, failed


def percentile_ms(samples, q):
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return 1000.0 * cuts[q - 1]


def run_workload(args) -> dict:
    import workloads
    from spans import Tracer, layer_metrics

    # set-up is timed between rounds, so that its median spans the same
    # spells of machine speed as the rounds do
    setup_times = []

    def probe_setup():
        if not args.trace:
            setup_times.append(time_setup(args.workload, args.seed))

    probe_setup()
    ops = workloads.build(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    problems, op_times = [], []
    walls = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
        try:
            times, wall, n_failed = run_round(ops, tracer if traced else None,
                                              problems)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        probe_setup()
        attempted += len(ops)
        failed += n_failed
        if not traced:
            op_times += times
        done = (time.perf_counter() - start >= args.seconds
                and (args.trace or len(op_times) >= MIN_TIMED_OPS))
        if args.trace:
            if done and walls[True]:
                break
            traced = not traced
        elif done:
            break
    while len(setup_times) < SETUP_PROBES and not args.trace:
        probe_setup()
    for msg in problems[:20]:
        print(msg, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.dump()))
        metrics = layer_metrics(tracer.spans, tracer.counts, len(walls[True]))
        metrics["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]), "s")
    else:
        # the pretrace CLI runs in child processes
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "op_ms_p50": (percentile_ms(op_times, 50), "ms"),
            "op_ms_p90": (percentile_ms(op_times, 90), "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def run_all(args) -> int:
    """Each workload in its own interpreter; print a table, keep the raw lines."""
    OUT.mkdir(exist_ok=True)
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}")
            ok = False
            continue
        (OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            lines[-1] + "\n")
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        print(f"{workload}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cuspkernel" / "__init__.py").is_file():
        print(f"error: no cuspkernel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        import cuspkernel  # noqa: F401  (the import is what is timed)
        import inputs

        inputs.make(args.workload, args.seed)
        return 0
    OUT.mkdir(exist_ok=True)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
