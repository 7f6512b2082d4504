"""Declarative sampling configuration carried by RunSpec.

:class:`SamplingConfig` is frozen and hashable so it can ride on the
(frozen, picklable) :class:`~repro.experiments.runspec.RunSpec`, enter
its cache key/digest, and cross the executor's worker pool — exactly
the contract :class:`~repro.obs.config.EventConfig` established for
the observability bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: Default 1-in-K sampling rate (the ISSUE/ROADMAP throughput target
#: is quoted at 1/16).
DEFAULT_RATE = 16

#: Default floor on the expected sampled-page count: the configured
#: rate is clamped down (SHARDS-style rate adaptation) so the sample
#: keeps at least this many pages in expectation.
DEFAULT_MIN_PAGES = 32

#: Default floor on the fault count a sampled replay must observe
#: (unscaled): below it the engine moves to a denser sample.
DEFAULT_MIN_FAULTS = 64

#: Default replicate-group count for the stratified confidence
#: intervals; each group is a disjoint spatial sub-sample.
DEFAULT_GROUPS = 8


@dataclass(frozen=True)
class SamplingConfig:
    """How a sampled run selects pages and reports its uncertainty.

    Pages are always selected by frequency-stratified systematic
    membership (:mod:`repro.trace.sampling`).

    rate:
        Sample 1 in ``rate`` pages (``1`` = identity: the sampled
        engine reproduces the exact simulator bit-for-bit).
    salt:
        Selects the starting rank: independent resamples for the same
        rate.
    min_pages:
        Floor on the expected sampled-page count.  The effective rate
        is ``min(rate, footprint_pages // min_pages)``, so tiny
        workloads degrade toward exact simulation instead of running a
        handful of pages against sub-frame budgets.  ``0`` disables
        the clamp.
    min_faults:
        Floor on the fault count the sampled replay must *observe*
        (unscaled).  Disk faults are the rare events that dominate
        AMAT, and a count's relative sampling error is ~``1/sqrt(n)``;
        when a replay sees fewer than this many, the engine moves to a
        4x denser sample and, ultimately, to exact replay (rate 1) —
        workloads whose fault counts are intrinsically tiny are
        exactly the ones where sampling has nothing left to estimate.
        A draw whose LRU faults are predicted more than
        ``2*sqrt(min_faults)`` under the floor is skipped without
        being replayed.  ``0`` disables the floor.
    groups:
        Stratified replicate groups behind the per-metric confidence
        intervals; ``0`` or ``1`` disables interval estimation.
    confidence:
        Two-sided normal confidence level for the intervals.
    """

    rate: int = DEFAULT_RATE
    salt: int = 0
    min_pages: int = DEFAULT_MIN_PAGES
    min_faults: int = DEFAULT_MIN_FAULTS
    groups: int = DEFAULT_GROUPS
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.rate < 1:
            raise ValueError("sampling rate must be >= 1")
        if self.min_pages < 0:
            raise ValueError("min_pages must be >= 0")
        if self.min_faults < 0:
            raise ValueError("min_faults must be >= 0")
        if self.groups < 0:
            raise ValueError("groups must be >= 0")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    def effective_rate(self, footprint_pages: int) -> int:
        """The rate after the ``min_pages`` clamp for this footprint."""
        if self.rate <= 1:
            return 1
        if self.min_pages <= 0:
            return self.rate
        return max(1, min(self.rate, footprint_pages // self.min_pages))

    def to_dict(self) -> dict[str, Any]:
        return {
            "rate": self.rate,
            # The only membership rule.  Still emitted so sampled RunSpec
            # digests (pinned in tests/test_sampling.py) and result-cache
            # addresses keep their values.
            "scheme": "stratified",
            "salt": self.salt,
            "min_pages": self.min_pages,
            "min_faults": self.min_faults,
            "groups": self.groups,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplingConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys, so a typo
        cannot silently run at a default."""
        if not isinstance(data, Mapping):
            raise TypeError(
                f"sampling must be a mapping, got {type(data).__name__}")
        unknown = set(data) - _FIELDS
        if unknown:
            raise ValueError(
                f"unknown sampling field(s): {', '.join(sorted(unknown))}")
        scheme = data.get("scheme", "stratified")
        if scheme != "stratified":
            raise ValueError(
                f"sampling scheme {scheme!r} no longer exists: 'spatial', "
                "'modulo' and 'temporal' were removed; only 'stratified' "
                "remains")
        return cls(
            rate=data.get("rate", DEFAULT_RATE),
            salt=data.get("salt", 0),
            min_pages=data.get("min_pages", DEFAULT_MIN_PAGES),
            min_faults=data.get("min_faults", DEFAULT_MIN_FAULTS),
            groups=data.get("groups", DEFAULT_GROUPS),
            confidence=data.get("confidence", 0.95),
        )


#: Keys :meth:`SamplingConfig.from_dict` accepts (``to_dict``'s keys).
_FIELDS = frozenset(SamplingConfig().to_dict())
