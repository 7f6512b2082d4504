#!/usr/bin/env python3
"""Sampled-engine throughput and accuracy -> BENCH_sampling.json.

Three measurements, one gate:

* **Accuracy** — the Fig. 4 operating point (proposed policy over the
  benchmark workloads) evaluated exactly (``engine="simulate"``) and
  with the 1-in-K sampled engine; per-workload relative errors on
  AMAT, APPR and total NVM writes.
* **Throughput** — engine-only wall-clock of the exact replay vs the
  sampled replay on a pre-rendered workload instance (rendering is a
  cost both engines share), with interval estimation off
  (``groups=1``) so the gate measures the estimator, not its
  diagnostics.  The gated figure is best-of-``reps``: warm, since the
  first execute leaves the trace's page index and the sampled draws
  (subset traces with their stack distances) cached.  Beside it, the
  cold figure times best-of-``reps`` sampled executes on uncached
  copies of the instance, each sorting the trace, drawing and
  predicting afresh.  The aggregate speedups count only runs the engine
  actually sampled: workloads whose replays see fewer than
  ``min_faults`` faults at every sparser rate, so the engine falls
  back to exact replay (streamcluster at this scale), are reported
  but excluded.
* **Interval calibration** — the same cells re-run with the default
  replicate groups, reporting each metric's relative half-width and
  whether the exact value fell inside the interval (report-only: one
  draw per cell is a coverage sample, not a coverage estimate).

The **gate** fails (exit 1) when the mean relative error, the worst
relative error, or the aggregate sampled speedup crosses its floor,
and when no cell sampled at all (a speedup over zero cells shows
nothing).

Run:  python benchmarks/bench_sampling.py [--fast] [--reps N]
                                          [--output BENCH_sampling.json]
                                          [--no-gate]
"""

import argparse
import gc
import json
import os
import platform
import sys
import time
from dataclasses import replace

from repro.experiments.runspec import RunSpec
from repro.sampling import SamplingConfig
from repro.trace.trace import Trace
from repro.workloads.parsec import WorkloadInstance

#: Benchmark grid: the six workloads spanning the accuracy spectrum —
#: large/faulty (dedup, canneal), composition-sensitive (bodytrack,
#: vips, freqmine) and the sparse-fault case that falls back to exact
#: replay (streamcluster).
WORKLOADS = ("dedup", "canneal", "bodytrack", "freqmine", "vips",
             "streamcluster")
POLICY = "proposed"

#: 1-in-K sampling rate the ISSUE/ROADMAP throughput target quotes.
RATE = 16

#: Operating points: full (local measurement) runs the calibrated
#: contract point — full footprints, 2% of the requests — while
#: --fast (CI smoke) keeps the default figure-grid footprint so the
#: smoke stays cheap.
FULL_SCALE = 0.02
FULL_FOOTPRINT = 1.0
FAST_SCALE = 0.005
FAST_FOOTPRINT = 1.0 / 64.0

#: Gate floors.  Full scale carries the contract (>= 10x at 1/16 with
#: <= 2% mean / <= 10% max error).  The fast traces are 4x shorter:
#: most cells' fault counts drop under ``min_faults`` and the engine
#: falls back to exact replay (zero error, no speedup — exercising
#: the adaptation path), while canneal keeps enough faults
#: to genuinely sample at 1/4, so the smoke floors are calibrated to
#: that one sampled cell.
FULL_FLOORS = {"speedup": 10.0, "mean_error": 0.02, "max_error": 0.10}
FAST_FLOORS = {"speedup": 1.3, "mean_error": 0.02, "max_error": 0.05}

#: Error metrics the gate scores, as RunResult accessors.
METRICS = ("amat", "appr", "nvm_writes")


def _metric(result, name: str) -> float:
    if name == "amat":
        return result.performance.amat
    if name == "appr":
        return result.power.appr
    return float(result.nvm_writes.total)


def timed(fn, reps: int) -> float:
    """Best-of-``reps`` wall-clock of ``fn()`` with the GC paused."""
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
        gc.enable()
    return best


def uncached(instance: WorkloadInstance) -> WorkloadInstance:
    """``instance`` over a new :class:`Trace` sharing its arrays: no
    page index and no sampled draw is cached for it yet."""
    trace = instance.trace
    return replace(instance, trace=Trace(
        trace.pages, trace.is_write, name=trace.name,
        page_size=trace.page_size))


def bench_cells(scale: float, footprint: float,
                reps: int) -> tuple[list, dict]:
    """Per-workload accuracy + engine-only throughput rows."""
    cells = []
    sampled_exact_seconds = 0.0
    sampled_seconds = 0.0
    sampled_cold_seconds = 0.0
    for workload in WORKLOADS:
        exact_spec = RunSpec.core(workload, POLICY, request_scale=scale,
                                  footprint_scale=footprint)
        sampled_spec = replace(
            exact_spec, engine="sampled",
            sampling=SamplingConfig(rate=RATE, groups=1),
        )
        instance = exact_spec.render()
        exact = exact_spec.execute(instance=instance)
        sampled = sampled_spec.execute(instance=instance)
        exact_t = timed(lambda s=exact_spec, i=instance:
                        s.execute(instance=i), reps)
        sampled_t = timed(lambda s=sampled_spec, i=instance:
                          s.execute(instance=i), reps)
        cold = iter([uncached(instance) for _ in range(reps)])
        sampled_cold_t = timed(lambda s=sampled_spec, c=cold:
                               s.execute(instance=next(c)), reps)
        errors = {
            name: abs(_metric(sampled, name) - _metric(exact, name))
            / abs(_metric(exact, name))
            for name in METRICS
        }
        effective_rate = sampled.sampling.effective_rate
        speedup = exact_t / sampled_t
        if effective_rate > 1:
            sampled_exact_seconds += exact_t
            sampled_seconds += sampled_t
            sampled_cold_seconds += sampled_cold_t
        print(f"  {workload:14s} 1/{effective_rate:<3d} "
              f"amat {errors['amat']:6.2%}  appr {errors['appr']:6.2%}  "
              f"nvm {errors['nvm_writes']:6.2%}  speedup {speedup:5.1f}x "
              f"(cold {exact_t / sampled_cold_t:5.1f}x)"
              + ("  (fell back to exact replay)"
                 if effective_rate == 1 else ""))
        cells.append({
            "workload": workload,
            "policy": POLICY,
            "requests": int(len(instance.trace)),
            "effective_rate": effective_rate,
            "sampled_pages": sampled.sampling.sampled_pages,
            "total_pages": sampled.sampling.total_pages,
            "amat_relative_error": round(errors["amat"], 5),
            "appr_relative_error": round(errors["appr"], 5),
            "nvm_writes_relative_error": round(errors["nvm_writes"], 5),
            "exact_seconds": round(exact_t, 4),
            "sampled_seconds": round(sampled_t, 4),
            "sampled_cold_seconds": round(sampled_cold_t, 4),
            "speedup": round(speedup, 2),
            "cold_speedup": round(exact_t / sampled_cold_t, 2),
        })
    all_errors = [cell[f"{name}_relative_error"]
                  for cell in cells for name in METRICS]
    aggregate = {
        "mean_relative_error": round(sum(all_errors) / len(all_errors), 5),
        "max_relative_error": round(max(all_errors), 5),
        "sampled_cells": sum(1 for c in cells if c["effective_rate"] > 1),
        "aggregate_speedup": round(
            sampled_exact_seconds / sampled_seconds, 2
        ) if sampled_seconds else 0.0,
        "aggregate_cold_speedup": round(
            sampled_exact_seconds / sampled_cold_seconds, 2
        ) if sampled_cold_seconds else 0.0,
    }
    print(f"  mean error {aggregate['mean_relative_error']:.2%}, "
          f"max {aggregate['max_relative_error']:.2%}, aggregate speedup "
          f"{aggregate['aggregate_speedup']:.1f}x (cold "
          f"{aggregate['aggregate_cold_speedup']:.1f}x) over "
          f"{aggregate['sampled_cells']} sampled cell(s)")
    return cells, aggregate


def calibrate_intervals(scale: float, footprint: float) -> list:
    """Replicate-interval half-widths and single-draw coverage."""
    rows = []
    for workload in WORKLOADS:
        exact_spec = RunSpec.core(workload, POLICY, request_scale=scale,
                                  footprint_scale=footprint)
        sampled_spec = replace(
            exact_spec, engine="sampled", sampling=SamplingConfig(rate=RATE),
        )
        instance = exact_spec.render()
        exact = exact_spec.execute(instance=instance)
        summary = sampled_spec.execute(instance=instance).sampling
        row = {"workload": workload,
               "effective_rate": summary.effective_rate,
               "groups": summary.groups}
        for name, interval in sorted(summary.intervals.items()):
            truth = _metric(exact, name)
            row[name] = {
                "relative_half_width": round(
                    interval.relative_half_width, 5),
                "covered": bool(interval.lo <= truth <= interval.hi),
            }
        rows.append(row)
    covered = sum(1 for row in rows for name in METRICS
                  if isinstance(row.get(name), dict)
                  and row[name]["covered"])
    total = sum(1 for row in rows for name in METRICS
                if isinstance(row.get(name), dict))
    print(f"  {covered}/{total} intervals covered the exact value")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale (CI smoke run)")
    parser.add_argument("--reps", type=int, default=2, metavar="N",
                        help="best-of-N timing repetitions (default 2)")
    parser.add_argument("--output", default="BENCH_sampling.json",
                        help="result file (default: BENCH_sampling.json)")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and report only; skip the gate")
    args = parser.parse_args()

    scale = FAST_SCALE if args.fast else FULL_SCALE
    footprint = FAST_FOOTPRINT if args.fast else FULL_FOOTPRINT
    floors = FAST_FLOORS if args.fast else FULL_FLOORS
    print(f"accuracy + throughput (1/{RATE} sample, scale {scale:g}, "
          f"footprint {footprint:g}):")
    cells, aggregate = bench_cells(scale, footprint, args.reps)
    print("interval calibration (default replicate groups):")
    intervals = calibrate_intervals(scale, footprint)

    payload = {
        "benchmark": "sampled-engine",
        "fast": args.fast,
        "reps": args.reps,
        "rate": RATE,
        "request_scale": scale,
        "footprint_scale": footprint,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "floors": floors,
        "cells": cells,
        "aggregate": aggregate,
        "intervals": intervals,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    if args.no_gate:
        return 0
    failures = []
    if aggregate["mean_relative_error"] > floors["mean_error"]:
        failures.append(
            f"mean relative error {aggregate['mean_relative_error']:.2%} "
            f"above the {floors['mean_error']:.0%} floor")
    if aggregate["max_relative_error"] > floors["max_error"]:
        failures.append(
            f"max relative error {aggregate['max_relative_error']:.2%} "
            f"above the {floors['max_error']:.0%} floor")
    if not aggregate["sampled_cells"]:
        failures.append("no cell sampled: every cell fell back to exact replay")
    elif aggregate["aggregate_speedup"] < floors["speedup"]:
        failures.append(
            f"aggregate speedup {aggregate['aggregate_speedup']:.1f}x "
            f"below the {floors['speedup']:.0f}x floor")
    if failures:
        print("SAMPLING GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"sampling gate OK (speedup "
          f"{aggregate['aggregate_speedup']:.1f}x >= "
          f"{floors['speedup']:.0f}x, mean error "
          f"{aggregate['mean_relative_error']:.2%} <= "
          f"{floors['mean_error']:.0%}, max "
          f"{aggregate['max_relative_error']:.2%} <= "
          f"{floors['max_error']:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
