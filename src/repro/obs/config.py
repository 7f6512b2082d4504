"""Declarative event-collection configuration carried by RunSpec.

:class:`EventConfig` is frozen and hashable so it can ride on the
(frozen, picklable) :class:`~repro.experiments.runspec.RunSpec`, enter
its cache key/digest, and cross the executor's worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: Default number of intervals a run is bucketed into when no explicit
#: interval length is configured.
DEFAULT_BUCKETS = 64


@dataclass(frozen=True)
class EventConfig:
    """How a run's event stream is collected and summarised.

    interval:
        Epoch length in measured requests.  ``0`` (default) derives it
        from ``buckets``.
    buckets:
        Target interval count when ``interval`` is auto-derived.
    trace:
        Also keep the raw JSONL-encoded event lines on the summary
        (costs memory proportional to the event count).
    classify:
        Run the beneficial-migration classifier.
    """

    interval: int = 0
    buckets: int = DEFAULT_BUCKETS
    trace: bool = False
    classify: bool = True

    def __post_init__(self) -> None:
        if self.interval < 0:
            raise ValueError("interval must be >= 0")
        if self.buckets < 1:
            raise ValueError("buckets must be >= 1")

    def resolve_interval(self, measured_requests: int) -> int:
        """Epoch length for a run of ``measured_requests`` requests."""
        if self.interval > 0:
            return self.interval
        return max(1, -(-measured_requests // self.buckets))

    def to_dict(self) -> dict[str, Any]:
        return {
            "interval": self.interval,
            "buckets": self.buckets,
            "trace": self.trace,
            "classify": self.classify,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EventConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys, so a typo
        cannot silently run at a default."""
        if not isinstance(data, Mapping):
            raise TypeError(
                f"events must be a mapping, got {type(data).__name__}")
        unknown = set(data) - _FIELDS
        if unknown:
            raise ValueError(
                f"unknown events field(s): {', '.join(sorted(unknown))}")
        return cls(
            interval=data.get("interval", 0),
            buckets=data.get("buckets", DEFAULT_BUCKETS),
            trace=data.get("trace", False),
            classify=data.get("classify", True),
        )


#: Keys :meth:`EventConfig.from_dict` accepts (``to_dict``'s keys).
_FIELDS = frozenset(EventConfig().to_dict())
