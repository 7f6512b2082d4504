"""NVM endurance model (paper Section III-C and Fig. 2c / 4b).

The paper evaluates endurance by counting *physical writes into NVM*
split by source:

* **request writes** — write requests served in place by NVM (one line
  write each; the proposed scheme allows these, CLOCK-DWF forbids them),
* **page-fault fills** — pages written into NVM on a fault
  (``PageFactor`` line writes each), and
* **migration writes** — pages demoted/promoted into NVM
  (``PageFactor`` line writes each).

Figures 2c and 4b normalise the total against an *NVM-only* memory
running plain LRU, where every write request and every fault fill lands
in NVM by construction.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Mapping

from repro.memory.accounting import AccessAccounting, WearAccounting
from repro.memory.specs import HybridMemorySpec


@dataclass(frozen=True)
class NVMWriteBreakdown:
    """Physical NVM line writes per source (the stacked bars of Fig. 2c/4b)."""

    request_writes: int
    fault_fill_writes: int
    migration_writes: int

    @property
    def total(self) -> int:
        return self.request_writes + self.fault_fill_writes + self.migration_writes

    def normalized_to(self, baseline: "NVMWriteBreakdown") -> float:
        if baseline.total == 0:
            raise ZeroDivisionError("baseline NVM write count is zero")
        return self.total / baseline.total

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (result cache serialisation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NVMWriteBreakdown":
        return cls(**data)


def compute_nvm_writes(
    accounting: AccessAccounting,
    spec: HybridMemorySpec,
) -> NVMWriteBreakdown:
    """Derive the NVM write breakdown from a run's event counts."""
    page_factor = spec.page_factor
    return NVMWriteBreakdown(
        request_writes=accounting.nvm_write_hits,
        fault_fill_writes=accounting.faults_filled_nvm * page_factor,
        migration_writes=accounting.migrations_to_nvm * page_factor,
    )


@dataclass(frozen=True)
class EnduranceReport:
    """Wear summary for one run over the per-page write histogram."""

    total_writes: int
    touched_pages: int
    max_page_writes: int
    mean_page_writes: float
    wear_cv: float
    estimated_lifetime_seconds: float | None

    @property
    def wear_is_even(self) -> bool:
        """Heuristic: coefficient of variation below 1 reads as even wear."""
        return self.wear_cv < 1.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (result cache serialisation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnduranceReport":
        return cls(**data)


def endurance_report(
    wear: WearAccounting,
    spec: HybridMemorySpec,
    elapsed_seconds: float | None = None,
) -> EnduranceReport:
    """Summarise wear and (optionally) estimate device lifetime.

    Lifetime is bounded by the hottest page: with per-line endurance of
    ``E`` cycles and the hottest page absorbing ``w`` line writes over
    ``t`` seconds, the first line fails after roughly ``E * t / w``
    seconds (no wear-levelling assumed — the paper reports lifetime
    relative between policies, which cancels the assumption).
    """
    counts = list(wear.page_writes.values())
    total = wear.total_writes
    touched = len(counts)
    max_writes = max(counts, default=0)
    mean_writes = total / touched if touched else 0.0
    if touched and mean_writes > 0:
        variance = sum((c - mean_writes) ** 2 for c in counts) / touched
        wear_cv = math.sqrt(variance) / mean_writes
    else:
        wear_cv = 0.0

    lifetime: float | None = None
    endurance = spec.nvm.endurance_cycles
    if (
        elapsed_seconds is not None
        and elapsed_seconds > 0
        and endurance is not None
        and max_writes > 0
    ):
        write_rate_per_line = max_writes / elapsed_seconds
        lifetime = endurance / write_rate_per_line

    return EnduranceReport(
        total_writes=total,
        touched_pages=touched,
        max_page_writes=max_writes,
        mean_page_writes=mean_writes,
        wear_cv=wear_cv,
        estimated_lifetime_seconds=lifetime,
    )
