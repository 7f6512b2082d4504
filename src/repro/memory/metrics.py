"""Performance model: Average Memory Access Time (paper Eq. 1).

The paper's AMAT charges, per request:

* the hit service time in DRAM or NVM (terms 1-2),
* the disk latency of page faults (term 3 — only the disk latency,
  because the DMA fill overlaps with reading the next block), and
* the prorated cost of page migrations in both directions (terms 4-5),
  each migration costing ``PageFactor`` reads on the source module plus
  ``PageFactor`` writes on the destination module.

Probabilities come from :class:`~repro.memory.accounting.AccessAccounting`
event counts, so the computed AMAT is an exact identity over a run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.memory.accounting import AccessAccounting
from repro.memory.specs import HybridMemorySpec
from repro.units import Count, Ratio, Seconds


@dataclass(frozen=True)
class PerformanceBreakdown:
    """Per-request latency split into the paper's AMAT terms (seconds)."""

    dram_hit_time: Seconds
    nvm_hit_time: Seconds
    fault_time: Seconds
    migration_to_dram_time: Seconds
    migration_to_nvm_time: Seconds

    @property
    def request_time(self) -> Seconds:
        """Hit-service component ("Read/Write Requests" in Fig. 2b/4c)."""
        return self.dram_hit_time + self.nvm_hit_time

    @property
    def migration_time(self) -> Seconds:
        """Total migration component ("Migrations" in Fig. 2b/4c)."""
        return self.migration_to_dram_time + self.migration_to_nvm_time

    @property
    def amat(self) -> Seconds:
        """Average memory access time per request (Eq. 1)."""
        return self.request_time + self.fault_time + self.migration_time

    @property
    def memory_time(self) -> Seconds:
        """AMAT excluding the disk-fault term (hit + migration time).

        The paper's AMAT figures (2b, 4c) stack only "Read/Write
        Requests" and "Migrations": the page-fault term is essentially
        identical across policies managing the same total capacity (it
        depends on hit ratio, which the proposed scheme deliberately
        preserves), so the figures compare the memory-system time where
        the policies actually differ.  This property is that quantity.
        """
        return self.request_time + self.migration_time

    def elapsed_time(self, total_requests: Count) -> Seconds:
        """Modelled wall-clock time of the run (requests x AMAT)."""
        return self.amat * total_requests

    def normalized_to(self, baseline: "PerformanceBreakdown") -> Ratio:
        """AMAT relative to a baseline run (the figures' y-axis)."""
        if baseline.amat == 0:
            raise ZeroDivisionError("baseline AMAT is zero")
        return self.amat / baseline.amat

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (result cache serialisation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PerformanceBreakdown":
        return cls(**data)


def compute_performance(
    accounting: AccessAccounting,
    spec: HybridMemorySpec,
) -> PerformanceBreakdown:
    """Evaluate Eq. 1 on a run's event counts.

    Each probability of Table I is an event count divided by the total
    number of requests; e.g. ``PHitDRAM * PRDRAM`` is exactly
    ``dram_read_hits / total``.
    """
    total = accounting.total_requests
    if total == 0:
        return PerformanceBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)

    dram, nvm, disk = spec.dram, spec.nvm, spec.disk
    dram_hit_time = (
        accounting.dram_read_hits * dram.read_latency
        + accounting.dram_write_hits * dram.write_latency
    ) / total
    nvm_hit_time = (
        accounting.nvm_read_hits * nvm.read_latency
        + accounting.nvm_write_hits * nvm.write_latency
    ) / total
    fault_time = accounting.page_faults * disk.access_latency / total
    migration_to_dram_time = (
        accounting.migrations_to_dram * spec.migration_latency_to_dram() / total
    )
    migration_to_nvm_time = (
        accounting.migrations_to_nvm * spec.migration_latency_to_nvm() / total
    )
    return PerformanceBreakdown(
        dram_hit_time=dram_hit_time,
        nvm_hit_time=nvm_hit_time,
        fault_time=fault_time,
        migration_to_dram_time=migration_to_dram_time,
        migration_to_nvm_time=migration_to_nvm_time,
    )
