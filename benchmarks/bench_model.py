#!/usr/bin/env python3
"""Analytic-engine sweep throughput -> BENCH_model.json.

Measures configurations/second through a read x write threshold sweep
of the proposed policy, evaluated once with ``engine="analytic"`` (the
closed-form estimator in :mod:`repro.model`) and once with
``engine="simulate"``.  The analytic numbers separate the one-time
workload-profile build from the per-configuration marginal cost: a
sweep pays the profile once and the Markov stage per point, which is
where the orders-of-magnitude advantage over trace replay comes from.
The engine's accuracy contract is asserted once, by
``tests/test_model_validation.py`` (DESIGN.md section 14.4).

The **gate** fails (exit 1) when the analytic sweep drops below the
speedup floor (100x at the full scale, 10x with ``--fast``, where the
traces are too short for simulation cost to dominate).

Run:  python benchmarks/bench_model.py [--fast] [--reps N]
                                       [--output BENCH_model.json]
                                       [--no-gate]
"""

import argparse
import gc
import json
import os
import platform
import sys
import time

from repro.experiments.runspec import RunSpec

#: Sweep workload and threshold grid (the paper's sensitivity range).
SWEEP_WORKLOAD = "dedup"
THRESHOLDS = (1, 2, 4, 8, 16, 32, 64)

#: Request scales: full (local measurement) and --fast (CI smoke).
FULL_SCALE = 0.005
FAST_SCALE = 0.0005

#: Speedup floors for the gate.
FULL_SPEEDUP_FLOOR = 100.0
FAST_SPEEDUP_FLOOR = 10.0


def timed(fn) -> float:
    """Process time of one ``fn()`` with the GC paused."""
    gc.collect()
    gc.disable()
    started = time.process_time()
    fn()
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed


def bench_sweep(scale: float, reps: int, simulated_points: int) -> dict:
    """Threshold-sweep configs/s: analytic vs simulate."""
    from repro.model import estimator

    overrides = [
        {"read_threshold": read, "write_threshold": write}
        for read in THRESHOLDS
        for write in THRESHOLDS
    ]
    instance = RunSpec.core(
        SWEEP_WORKLOAD, "proposed", request_scale=scale
    ).render()

    def run(engine: str, configs: list) -> None:
        for config in configs:
            RunSpec.core(
                SWEEP_WORKLOAD, "proposed", request_scale=scale,
                engine=engine, policy_overrides=config,
            ).execute(instance=instance)

    estimator._PROFILES.clear()
    estimator._MEMBERSHIP.clear()
    profile_seconds = timed(lambda: run("analytic", overrides[:1]))
    marginal = min(
        timed(lambda: run("analytic", overrides)) / len(overrides)
        for _ in range(reps)
    )
    simulated = overrides[:simulated_points]
    per_simulation = min(
        timed(lambda: run("simulate", simulated)) / len(simulated)
        for _ in range(reps)
    )
    analytic_cps = 1.0 / marginal
    simulate_cps = 1.0 / per_simulation
    speedup = per_simulation / marginal
    print(f"  sweep {SWEEP_WORKLOAD} ({len(overrides)} configs, "
          f"scale {scale:g}, {len(instance.trace.pages):,} requests)")
    print(f"    analytic  {analytic_cps:10,.0f} configs/s "
          f"({marginal * 1e3:.2f} ms marginal, "
          f"{profile_seconds:.2f}s one-time profile)")
    print(f"    simulate  {simulate_cps:10,.1f} configs/s "
          f"({per_simulation * 1e3:.1f} ms/config)")
    print(f"    speedup   {speedup:10,.0f}x")
    return {
        "workload": SWEEP_WORKLOAD,
        "request_scale": scale,
        "requests": int(len(instance.trace.pages)),
        "configs": len(overrides),
        "profile_build_seconds": round(profile_seconds, 4),
        "analytic_configs_per_second": round(analytic_cps, 1),
        "simulate_configs_per_second": round(simulate_cps, 2),
        "speedup": round(speedup, 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale (CI smoke run)")
    parser.add_argument("--reps", type=int, default=3, metavar="N",
                        help="best-of-N timing repetitions (default 3)")
    parser.add_argument("--output", default="BENCH_model.json",
                        help="result file (default: BENCH_model.json)")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and report only; skip the gate")
    args = parser.parse_args()

    scale = FAST_SCALE if args.fast else FULL_SCALE
    simulated_points = 4 if not args.fast else 8
    print("sweep throughput:")
    sweep = bench_sweep(scale, args.reps, simulated_points)

    payload = {
        "benchmark": "analytic-engine",
        "fast": args.fast,
        "reps": args.reps,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "sweep": sweep,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.no_gate:
        return 0
    floor = FAST_SPEEDUP_FLOOR if args.fast else FULL_SPEEDUP_FLOOR
    if sweep["speedup"] < floor:
        print(f"MODEL GATE FAILED: sweep speedup {sweep['speedup']:.0f}x "
              f"below the {floor:.0f}x floor", file=sys.stderr)
        return 1
    print(f"model gate OK (speedup {sweep['speedup']:,.0f}x >= "
          f"{floor:.0f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
