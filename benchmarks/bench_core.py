#!/usr/bin/env python3
"""Batched-kernel throughput -> BENCH_core.json, with a regression gate.

Measures the simulator's hot loop:

* **Policy simulation** — requests/second through
  :class:`HybridMemorySimulator` for the core policies, once with the
  batched ``access_batch`` kernels (``batch=True``, the default) and
  once through the per-request ``access`` loop (``batch=False``, the
  pre-batching behaviour).  Both paths produce bit-identical
  :class:`RunResult`\\ s — ``tests/test_batch_equivalence.py`` asserts
  it — so the ratio is pure kernel speedup.
* **Observability overhead** — the batched kernels with the event bus
  detached (``events=None``, the default) versus attached with the
  standard sinks.  The events-off number is what the regression gate
  floors: the bus must stay zero-overhead when disabled.

Timing uses ``time.process_time()`` (container wall clocks jitter by
2x), garbage collection is disabled around the timed region, and each
cell is best-of-``--reps``.

The **regression gate** compares the batched and events-off numbers
against the floors in ``benchmarks/baseline_core.json`` and fails
(exit 1) when throughput drops below ``tolerance`` (default 0.7, i.e.
a >30% regression) times the stored floor.  Floors are deliberately
conservative — about half of a dev-container measurement — so the gate
catches real kernel regressions, not machine variance.  Refresh them
with ``--update-baseline`` after intentional changes.

Run:  python benchmarks/bench_core.py [--fast] [--reps N]
                                      [--output BENCH_core.json]
                                      [--baseline benchmarks/baseline_core.json]
                                      [--update-baseline] [--no-gate]
"""

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import HybridMemorySimulator
from repro.obs import EventConfig
from repro.policies.registry import policy_factory
from repro.workloads.synthetic import zipf_workload

#: Policies measured with the event bus attached vs detached.
EVENT_POLICIES = ("proposed", "clock-dwf")

#: Policies on the policy-throughput grid (the figure-4 core set).
POLICIES = ("proposed", "clock-dwf", "dram-only", "nvm-only")

#: zipf workload sizes: full (local measurement) and --fast (CI smoke).
FULL_SIZE = dict(pages=4000, requests=500_000)
FAST_SIZE = dict(pages=1000, requests=100_000)

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline_core.json"

#: Written into refreshed baselines: floor = measured * this margin.
BASELINE_MARGIN = 0.5


def best_of(fn, reps: int) -> float:
    """Best-of-``reps`` process time of ``fn()`` with the GC paused."""
    best = float("inf")
    for _ in range(reps):
        gc.collect()
        gc.disable()
        started = time.process_time()
        fn()
        elapsed = time.process_time() - started
        gc.enable()
        best = min(best, elapsed)
    return best


def policy_spec(name: str, footprint_pages: int) -> HybridMemorySpec:
    spec = HybridMemorySpec.for_footprint(footprint_pages)
    if name.startswith("dram-only"):
        return spec.as_dram_only()
    if name.startswith("nvm-only"):
        return spec.as_nvm_only()
    return spec


def bench_policies(size: dict, reps: int) -> dict:
    trace = zipf_workload(**size, seed=2016)
    requests = len(trace)
    rows: dict[str, dict] = {}
    for name in POLICIES:
        spec = policy_spec(name, size["pages"])

        def simulate(batch: bool) -> None:
            simulator = HybridMemorySimulator(
                spec, policy_factory(name), sanitize=False, batch=batch,
            )
            simulator.run(trace)

        batched = requests / best_of(lambda: simulate(True), reps)
        per_request = requests / best_of(lambda: simulate(False), reps)
        rows[name] = {
            "batch_rps": round(batched),
            "per_request_rps": round(per_request),
            "speedup": round(batched / per_request, 3),
        }
        print(f"  policy {name:10s}  batch {batched/1e3:7.1f}k req/s  "
              f"per-request {per_request/1e3:7.1f}k req/s  "
              f"speedup {batched / per_request:.2f}x")
    return {"workload": "zipf", **size, "results": rows}


def bench_events(size: dict, reps: int) -> dict:
    trace = zipf_workload(**size, seed=2016)
    requests = len(trace)
    rows: dict[str, dict] = {}
    for name in EVENT_POLICIES:
        spec = policy_spec(name, size["pages"])

        def simulate(events) -> None:
            simulator = HybridMemorySimulator(
                spec, policy_factory(name), sanitize=False, events=events,
            )
            simulator.run(trace)

        off = requests / best_of(lambda: simulate(None), reps)
        on = requests / best_of(
            lambda: simulate(EventConfig(buckets=64)), reps)
        rows[name] = {
            "events_off_rps": round(off),
            "events_on_rps": round(on),
            "overhead": round(off / on, 3),
        }
        print(f"  events {name:10s}  off {off/1e3:7.1f}k req/s  "
              f"on {on/1e3:7.1f}k req/s  overhead {off / on:.2f}x")
    return {"workload": "zipf", **size, "results": rows}


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def measured_floors(payload: dict) -> dict[str, float]:
    """Flatten a benchmark payload into gate-comparable numbers."""
    floors: dict[str, float] = {}
    for name, row in payload["policies"]["results"].items():
        floors[f"policy:{name}"] = row["batch_rps"]
    for name, row in payload.get("events", {}).get("results", {}).items():
        floors[f"events-off:{name}"] = row["events_off_rps"]
    return floors


def check_gate(payload: dict, baseline: dict) -> list[str]:
    mode = "fast" if payload["fast"] else "full"
    floors = baseline.get("floors", {}).get(mode)
    if not floors:
        return [f"baseline has no floors for mode {mode!r}"]
    tolerance = baseline.get("tolerance", 0.7)
    measured_by_key = measured_floors(payload)
    failures = []
    for key, floor in floors.items():
        measured = measured_by_key.get(key)
        if measured is None:
            failures.append(f"{key}: missing from benchmark output")
        elif measured < tolerance * floor:
            failures.append(
                f"{key}: {measured:,.0f}/s is below {tolerance:.0%} of "
                f"the {floor:,.0f}/s baseline floor")
    return failures


def update_baseline(payload: dict, path: Path) -> None:
    baseline = {"note": "Conservative throughput floors (~0.5x of a dev "
                        "measurement); the gate fails below tolerance x "
                        "floor. Refresh with --update-baseline.",
                "tolerance": 0.7, "floors": {}}
    if path.exists():
        baseline.update(json.loads(path.read_text(encoding="utf-8")))
    mode = "fast" if payload["fast"] else "full"
    baseline.setdefault("floors", {})[mode] = {
        key: round(value * BASELINE_MARGIN)
        for key, value in measured_floors(payload).items()
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"updated {path} ({mode} floors)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="reduced sizes (CI smoke run)")
    parser.add_argument("--reps", type=int, default=3, metavar="N",
                        help="best-of-N timing repetitions (default 3)")
    parser.add_argument("--output", default="BENCH_core.json",
                        help="result file (default: BENCH_core.json)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="baseline floors for the regression gate")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline floors from this run")
    parser.add_argument("--no-gate", action="store_true",
                        help="measure and report only; skip the gate")
    args = parser.parse_args()

    size = FAST_SIZE if args.fast else FULL_SIZE
    print(f"policy grid: {len(POLICIES)} policies on zipf "
          f"({size['pages']} pages, {size['requests']:,} requests), "
          f"best of {args.reps}")
    policies = bench_policies(size, args.reps)
    print("observability overhead:")
    events = bench_events(size, args.reps)

    payload = {
        "benchmark": "core-kernel-throughput",
        "fast": args.fast,
        "reps": args.reps,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
        "policies": policies,
        "events": events,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        update_baseline(payload, baseline_path)
        return 0
    if args.no_gate:
        return 0
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run with --update-baseline "
              "to create one", file=sys.stderr)
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = check_gate(payload, baseline)
    if failures:
        print("PERF REGRESSION GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    mode = "fast" if payload["fast"] else "full"
    print(f"perf gate OK ({mode} floors, "
          f"tolerance {baseline.get('tolerance', 0.7):.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
