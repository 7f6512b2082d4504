"""Power model: Average Power Per Request (paper Eq. 2 and Eq. 3).

Eq. 2 charges, per request, the dynamic energy of

* hit service in DRAM/NVM (terms 1-2),
* writing faulted pages into their destination module (terms 3-4,
  ``PageFactor`` line writes per fault), and
* page migrations in both directions (terms 5-6).

Eq. 3 prorates *static* power over requests: from the OS's point of
view the memory burns background power while servicing the request
stream, so each request is charged ``static power x AMAT`` joules
(equivalently, per-page static power divided by the page's access
rate, as the paper writes it).  The static term therefore needs the
performance model's AMAT, which is computed first and passed in.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.memory.accounting import AccessAccounting
from repro.memory.metrics import PerformanceBreakdown, compute_performance
from repro.memory.specs import HybridMemorySpec
from repro.units import Count, Joules, Ratio, Seconds


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-request energy split into the paper's APPR terms (joules)."""

    static: Joules
    dram_hit: Joules
    nvm_hit: Joules
    fault_fill: Joules
    migration_to_dram: Joules
    migration_to_nvm: Joules

    @property
    def dynamic_hit(self) -> Joules:
        """Hit-service dynamic energy ("Dynamic" in Fig. 1/2a/4a)."""
        return self.dram_hit + self.nvm_hit

    @property
    def migration(self) -> Joules:
        """Total migration energy ("Migration" in Fig. 2a/4a)."""
        return self.migration_to_dram + self.migration_to_nvm

    @property
    def appr(self) -> Joules:
        """Average power per request (Eq. 2 + prorated Eq. 3)."""
        return self.static + self.dynamic_hit + self.fault_fill + self.migration

    @property
    def dynamic_total(self) -> Joules:
        """All dynamic energy (everything except the static term)."""
        return self.dynamic_hit + self.fault_fill + self.migration

    def total_energy(self, total_requests: Count) -> Joules:
        """Total modelled energy of the run (requests x APPR), joules."""
        return self.appr * total_requests

    def normalized_to(self, baseline: "PowerBreakdown") -> Ratio:
        """APPR relative to a baseline run (the figures' y-axis)."""
        if baseline.appr == 0:
            raise ZeroDivisionError("baseline APPR is zero")
        return self.appr / baseline.appr

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (result cache serialisation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PowerBreakdown":
        return cls(**data)


def compute_power(
    accounting: AccessAccounting,
    spec: HybridMemorySpec,
    performance: PerformanceBreakdown | None = None,
    inter_request_gap: Seconds = 0.0,
) -> PowerBreakdown:
    """Evaluate Eq. 2 (+ prorated Eq. 3) on a run's event counts.

    Parameters
    ----------
    accounting:
        Event counts from the run.
    spec:
        Machine configuration (devices, sizes, PageFactor).
    performance:
        The run's Eq. 1 breakdown; computed on demand when omitted.
        Needed because the static proration charges background power
        for the modelled duration of each request.
    inter_request_gap:
        Mean compute/LLC time (seconds) elapsing between consecutive
        main-memory requests.  Eq. 3 prorates static power over wall
        time per request; for cache-friendly workloads most of that
        time is spent off-memory, which is exactly why the paper finds
        that "workloads with a high hit ratio in LLC of CPU will have
        higher static power consumption per request" (Section III).
    """
    total = accounting.total_requests
    if total == 0:
        return PowerBreakdown(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    if performance is None:
        performance = compute_performance(accounting, spec)

    dram, nvm = spec.dram, spec.nvm
    page_factor = spec.page_factor

    dram_hit = (
        accounting.dram_read_hits * dram.read_energy
        + accounting.dram_write_hits * dram.write_energy
    ) / total
    nvm_hit = (
        accounting.nvm_read_hits * nvm.read_energy
        + accounting.nvm_write_hits * nvm.write_energy
    ) / total
    fault_fill = (
        accounting.faults_filled_dram * page_factor * dram.write_energy
        + accounting.faults_filled_nvm * page_factor * nvm.write_energy
    ) / total
    migration_to_dram = (
        accounting.migrations_to_dram * spec.migration_energy_to_dram() / total
    )
    migration_to_nvm = (
        accounting.migrations_to_nvm * spec.migration_energy_to_nvm() / total
    )
    # Eq. 3: background power is burned for the modelled duration of the
    # run and prorated evenly across the requests it serviced.  Wall
    # time per request is compute/LLC time plus the time the memory
    # system is busy (hits + migrations).  Disk-fault stall time is
    # deliberately excluded: the paper derives its request rate from
    # full-system execution on real (unrestricted) memory, so swap
    # stalls never inflate its AvgStaticPower either.
    if inter_request_gap < 0:
        raise ValueError("inter_request_gap must be non-negative")
    static = spec.static_power * (
        performance.memory_time + inter_request_gap
    )

    return PowerBreakdown(
        static=static,
        dram_hit=dram_hit,
        nvm_hit=nvm_hit,
        fault_fill=fault_fill,
        migration_to_dram=migration_to_dram,
        migration_to_nvm=migration_to_nvm,
    )
