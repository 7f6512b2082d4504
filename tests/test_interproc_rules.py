"""Seeded bugs of the retired deep lint rules R014/R015, caught at run time.

R014 (flush the deferred request count into the event clock before
emitting) and R015 (a spec's identity is frozen, hashable and digested
canonically) were whole-program lint rules.  Their guarantees are held
by runtime checks: the batched kernel's event stream must equal the
per-request reference, ``RunSpec`` instances key the executor's result
table, and pinned digests keep warm caches valid.  Each seeded case
edits a copy of the shipped module (:func:`tests.variants.load_variant`)
the way the rule's golden mutant did and checks the runtime check
fails; the unedited copy passes it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.executor import ParallelExecutor
from repro.experiments.runspec import RunSpec
from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import simulate
from repro.obs.config import EventConfig
from repro.sampling.config import SamplingConfig
from repro.trace.source import SourceSpec
from repro.workloads.synthetic import zipf_workload
from tests.variants import load_variant

#: Digest of ``RunSpec(workload="dedup")``, pinned since before the
#: engine field (``tests/test_model.py`` holds the full table).
DEDUP_DIGEST = "40b471fba25ce8a941b10cec"

_FROZEN_RUNSPEC = "@dataclass(frozen=True)\nclass RunSpec:"


# ----------------------------------------------------------------------
# R014 — sync-before-emit
# ----------------------------------------------------------------------
def _event_lines(policy_class, batch: bool) -> list[str]:
    trace = zipf_workload(pages=120, requests=2_000, alpha=1.2,
                          write_ratio=0.3, seed=13)
    result = simulate(trace, HybridMemorySpec.for_footprint(120),
                      policy_class, sanitize=False, batch=batch,
                      events=EventConfig(buckets=4, trace=True))
    assert result.events is not None
    return list(result.events.trace_lines)


class TestR014:
    def test_seeded_bug_dropped_fold_in_migration_kernel(self):
        """Golden mutant: delete the debt flush guarding the promotion
        callout of the shipped migration kernel; the batched event
        stream must then diverge from the per-request reference."""
        callout = (" " * 20) + "promote(page, trigger_is_write=is_write)\n"
        fold = (
            "                    if bus is not None:\n"
            "                        bus.clock += read_requests"
            " + write_requests - synced\n"
            "                        synced = read_requests"
            " + write_requests\n"
        )
        pristine = load_variant("core/migration.py").MigrationLRUPolicy
        mutant = load_variant(
            "core/migration.py", (fold + callout, callout)
        ).MigrationLRUPolicy
        reference = _event_lines(pristine, batch=False)
        assert _event_lines(pristine, batch=True) == reference
        assert _event_lines(mutant, batch=False) == reference
        assert _event_lines(mutant, batch=True) != reference


# ----------------------------------------------------------------------
# R015 — digest stability
# ----------------------------------------------------------------------
class TestR015:
    def test_stable_runspec_clean(self):
        variant = load_variant("experiments/runspec.py")
        assert variant.RunSpec(workload="dedup").digest() == DEDUP_DIGEST
        assert RunSpec(workload="dedup").digest() == DEDUP_DIGEST

    def test_unsorted_digest_flagged(self):
        variant = load_variant(
            "experiments/runspec.py",
            ("json.dumps(data, sort_keys=True,", "json.dumps(data,"),
        )
        assert variant.RunSpec(workload="dedup").digest() != DEDUP_DIGEST

    def test_unfrozen_runspec_flagged(self):
        variant = load_variant(
            "experiments/runspec.py",
            (_FROZEN_RUNSPEC, "@dataclass\nclass RunSpec:"),
        )
        with pytest.raises(TypeError, match="unhashable"):
            hash(variant.RunSpec(workload="dedup"))
        spec = RunSpec(workload="dedup")
        assert hash(spec) == hash(RunSpec(workload="dedup"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 1  # type: ignore[misc]

    def test_seeded_bug_unfrozen_shipped_runspec(self):
        """Golden mutant: unfreeze the shipped RunSpec dataclass; the
        executor keys its results by spec and refuses the batch before
        simulating anything."""
        variant = load_variant(
            "experiments/runspec.py",
            (_FROZEN_RUNSPEC, "@dataclass\nclass RunSpec:"),
        )
        executor = ParallelExecutor(jobs=1)
        with pytest.raises(TypeError, match="unhashable"):
            executor.submit([variant.RunSpec(workload="dedup")])
        assert executor.stats.simulated == 0

    def test_reachable_identity_type_checked(self):
        # Every dataclass reachable from a spec's fields is part of its
        # identity, so each must be frozen as well.
        specs = [
            RunSpec(workload="dedup", events=EventConfig(buckets=4)),
            RunSpec(workload="dedup", engine="sampled",
                    sampling=SamplingConfig()),
            RunSpec(workload="dedup",
                    source=SourceSpec(digest="0" * 64, name="ext",
                                      page_size=4096, requests=10,
                                      unique_pages=4, write_requests=3)),
        ]
        seen: set[type] = set()
        pending: list[object] = list(specs)
        while pending:
            value = pending.pop()
            if not dataclasses.is_dataclass(value):
                continue
            seen.add(type(value))
            assert type(value).__dataclass_params__.frozen, type(value)
            pending.extend(getattr(value, field.name)
                           for field in dataclasses.fields(value))
        assert {RunSpec, EventConfig, SamplingConfig, SourceSpec} <= seen
        assert len({hash(spec) for spec in specs}) == len(specs)
