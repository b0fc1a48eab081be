"""Run one capwaves benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

The workload runs whole passes, at least two, until another pass would end
after ``--seconds``; every pass checks its outputs.  With ``--trace 0`` it prints
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes and prints the per-layer metrics, computed from
the spans of the traced passes (also written to perfbench/out/).  Untraced
pass walls are also scaled to a reference host speed (hostspeed.py); the
end-to-end ``wall_s`` is their median.  With ``--trace 0``, ``setup_s`` is the
median over fresh processes that import the package and build the
workload's inputs, each timed and scaled the same way.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

The package is imported from src/ of the checkout this file lives in;
without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# one thread for BLAS / OpenMP, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalogue", "oracle", "cluster_flow"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's inputs, print host-speed samples "
                             "and exit (times set-up)")
    return parser.parse_args(argv)


def time_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Median set-up time of fresh processes that import capwaves and set up inputs.

    Returns it at reference host speed and as measured.  Each process samples
    host speed while it sets up (``setup_only``); its wall time, less its
    kernel runs, is scaled by its own mean kernel time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    scaled, walls = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        host = json.loads(proc.stdout.splitlines()[-1])
        walls.append(wall - host["kernel_total_s"])
        scaled.append(walls[-1] * hostspeed.REF_KERNEL_S / host["kernel_mean_s"])
    return statistics.median(scaled), statistics.median(walls)


def setup_only(args: argparse.Namespace) -> int:
    """Import the workloads and build the inputs while sampling host speed."""
    with hostspeed.HostSampler() as host:
        import workloads
        workloads.WORKLOADS[args.workload](args.seed, OUT)
    print(json.dumps({"kernel_total_s": host.kernel_total_s,
                      "kernel_mean_s": host.kernel_mean_s()}))
    return 0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def layer_metrics(tracer, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer values, per traced pass: self time of each span name and counters."""
    n = len(traced_walls)
    values = {f"{name}_s": t / n for name, t in tracer.self_times().items()}
    values.update({name: c / n for name, c in tracer.counts.items()})
    t_char = values.pop("dynamics.t_char", 0.0)
    integrate_s = values.get("dynamics.integrate_s", 0.0)
    values["dynamics.integrate_s_per_tchar"] = integrate_s / t_char if t_char else 0.0
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    )
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "capwaves" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)
    import workloads
    from spans import NullTracer, Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)

    tracer, null = Tracer(), NullTracer()
    # pass walls as measured, untraced and traced, and untraced at reference speed
    walls: dict[bool, list[float]] = {False: [], True: []}
    ref_walls: list[float] = []
    attempted = failed = 0
    misses: list[str] = []
    defects: dict[str, None] = {}  # distinct messages, in order
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            t0 = time.perf_counter()
            res = wl.run_pass(tracer)
            walls[True].append(time.perf_counter() - t0)
        else:
            with hostspeed.HostSampler() as host:
                res = wl.run_pass(null)
            walls[False].append(host.work_s)
            ref_walls.append(host.reference_s())
        attempted += res.attempted
        failed += res.failed
        misses += res.misses
        defects.update(dict.fromkeys(res.defects))
        all_walls = walls[False] + walls[True]
        elapsed = time.perf_counter() - start
        if len(all_walls) >= 2 and elapsed + statistics.median(all_walls) > args.seconds:
            break

    if args.trace:
        kind = "per_layer"
        values = layer_metrics(tracer, walls[True], walls[False])
        if wl.rhs_system:
            values["dynamics.rhs_us"] = workloads.rhs_call_us(*wl.rhs_system)
        values["dynamics.max_drift"] = wl.max_drift
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "traced_passes": len(walls[True])})
    else:
        kind = "end_to_end"
        setup_s, setup_measured_s = time_setup(args)
        print(f"# set-up: median {setup_measured_s:.4f} s as measured, "
              f"{setup_s:.4f} s at reference speed, over {SETUP_REPEATS} processes")
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(ref_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    metrics = {}
    for m in spec[kind]:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    unknown = set(values) - set(metrics)
    if unknown:
        print(f"error: metrics not declared in BENCHMARK.json: {sorted(unknown)}",
              file=sys.stderr)
        return 1

    for line in defects:
        print(f"known defect: {line}", file=sys.stderr)
    for line in misses:
        print(f"gate missed: {line}", file=sys.stderr)
    print(f"# capwaves benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(walls[False])} untraced + {len(walls[True])} traced passes "
          f"in {args.seconds:g} s, {attempted} operations, {failed} failed "
          f"(failed fraction {failed / attempted:.6f})")
    rows = {"untraced": walls[False], "traced": walls[True],
            "untraced at reference speed": ref_walls}
    for label, ws in rows.items():
        if ws:
            q1, q3 = quartiles(ws)
            print(f"# {label} pass wall: "
                  f"median {statistics.median(ws):.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, "
                  f"{len(ws)} passes: {' '.join(f'{w:.3f}' for w in ws)}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not misses, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
