"""Declarative run specifications: the executor's unit of work.

A :class:`RunSpec` names everything that determines one simulation —
the workload (plus its scales and seed), the policy (plus structured
overrides), an optional declarative machine-spec transform, and the
warm-up fraction.  It is frozen, hashable and picklable, so it can be

* fanned out over a ``multiprocessing`` pool (the spec crosses the
  process boundary, the trace is rendered worker-side),
* used as a dictionary key for in-memory memoisation, and
* digested into a stable content address for the on-disk result cache
  (:mod:`repro.experiments.executor`).

Everything that used to construct :class:`HybridMemorySimulator` by
hand — the experiment runner, the sweeps, the examples, ``repro
simulate`` — now goes through :meth:`RunSpec.execute`, so all
evaluation paths share one simulation recipe (and the ``R011`` lint
rule keeps it that way).  :meth:`RunSpec.resolve` is the one place an
engine's inputs (instance, machine, warm-up) are worked out.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping

from repro.memory.specs import HybridMemorySpec
from repro.mmu.simulator import HybridMemorySimulator, PolicyFactory, RunResult, sanitize_default
from repro.obs.config import EventConfig
from repro.policies.registry import policy_factory
from repro.sampling.config import SamplingConfig
from repro.trace.source import SourceSpec, materialize
from repro.workloads.parsec import (
    DEFAULT_FOOTPRINT_SCALE,
    DEFAULT_REQUEST_SCALE,
    ParsecProfile,
    WorkloadInstance,
    parsec_workload,
)

# ----------------------------------------------------------------------
# Declarative machine-spec transforms
# ----------------------------------------------------------------------
# A transform is named by a string plus positional arguments so it can
# live inside a hashable, picklable spec (closures cannot).  The
# vocabulary covers every normalisation the evaluation uses: the
# paper's single-module baselines, the A-3 DRAM-share ablation, and the
# NVM-technology scaling studies.


def _dram_only(spec: HybridMemorySpec) -> HybridMemorySpec:
    return spec.as_dram_only()


def _nvm_only(spec: HybridMemorySpec) -> HybridMemorySpec:
    return spec.as_nvm_only()


def _dram_fraction(spec: HybridMemorySpec,
                   fraction: float) -> HybridMemorySpec:
    return spec.with_dram_fraction(fraction)


def _nvm_scaled(spec: HybridMemorySpec, latency: float = 1.0,
                energy: float = 1.0, static: float = 1.0) -> HybridMemorySpec:
    return replace(spec, nvm=spec.nvm.scaled(
        latency=latency, energy=energy, static=static))


SPEC_TRANSFORMS: dict[str, Callable[..., HybridMemorySpec]] = {
    "dram-only": _dram_only,
    "nvm-only": _nvm_only,
    "dram-fraction": _dram_fraction,
    "nvm-scaled": _nvm_scaled,
}

#: Normalised override form: sorted ``(name, value)`` pairs.
Overrides = tuple[tuple[str, Any], ...]

#: Execution engines a spec can name.  ``simulate`` replays the trace
#: through :class:`HybridMemorySimulator`; ``analytic`` evaluates the
#: Markov-chain estimator (:mod:`repro.model`) on the workload profile;
#: ``sampled`` replays a deterministic 1-in-K spatial page sample at a
#: scaled frame budget and scales the counters back up with confidence
#: intervals (:mod:`repro.sampling`).
ENGINES = ("simulate", "analytic", "sampled")


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation, as data.

    Parameters
    ----------
    workload:
        PARSEC profile name (Table III).
    policy:
        Registered policy name (:mod:`repro.policies.registry`).
    request_scale / footprint_scale / seed:
        Workload rendering knobs (:func:`parsec_workload`).
    policy_overrides:
        Structured policy configuration — e.g.
        ``{"read_threshold": 8}`` for the proposed scheme — passed to
        :func:`policy_factory`; a mapping is normalised to sorted
        pairs so equal configurations hash equally.
    spec_transform:
        Declarative machine transform, ``(name, *args)`` over
        :data:`SPEC_TRANSFORMS` — e.g. ``("dram-only",)`` or
        ``("dram-fraction", 0.3)``.
    warmup_fraction:
        Override of the workload's own warm-up fraction; ``None``
        keeps the rendered instance's value.
    events:
        Event-stream collection (:class:`repro.obs.EventConfig`);
        ``None`` (default) leaves the observability bus detached.  A
        mapping is normalised to an ``EventConfig``.  Part of the
        spec's identity: event-bearing results get their own cache
        entries.
    engine:
        Execution engine (:data:`ENGINES`).  ``"simulate"`` (default)
        replays the trace; ``"analytic"`` evaluates the closed-form
        estimator in :mod:`repro.model`; ``"sampled"`` replays a
        spatial page sample (:mod:`repro.sampling`).  Part of the
        spec's identity — analytic and sampled results get their own
        digests and cache entries — but the default keeps pre-engine
        digests unchanged, so warm caches survive.  Neither fast
        engine carries an event stream.
    sampling:
        Sampling configuration (:class:`repro.sampling.SamplingConfig`),
        only meaningful — and always present, defaulting to
        ``SamplingConfig()`` — with ``engine="sampled"``.  A mapping is
        normalised to a ``SamplingConfig``.  Part of the spec's
        identity; ``None`` on non-sampled specs keeps their
        pre-sampling digests unchanged.
    source:
        Externally-supplied trace (:class:`repro.trace.SourceSpec`),
        usually built by :meth:`for_source`.  When set, the workload is
        not rendered from a PARSEC profile — the simulate engine
        streams the backing trace file chunk by chunk at constant
        memory, the analytic and sampled engines see a synthetic
        profile derived from the scan statistics — and
        ``request_scale``/``footprint_scale``/``seed`` are inert (an
        external trace is already fully determined).  Part of the
        spec's identity through the chunk-size-invariant *content
        digest* (the backing path is deliberately excluded, so the
        same trace uploaded twice shares one cache entry); ``None``
        keeps pre-source digests unchanged.
    """

    workload: str
    policy: str = "proposed"
    request_scale: float = DEFAULT_REQUEST_SCALE
    footprint_scale: float = DEFAULT_FOOTPRINT_SCALE
    seed: int = 2016
    policy_overrides: Overrides = ()
    spec_transform: tuple = ()
    warmup_fraction: float | None = None
    events: EventConfig | None = None
    engine: str = "simulate"
    sampling: SamplingConfig | None = None
    source: SourceSpec | None = None

    def __post_init__(self) -> None:
        if self.source is not None and not isinstance(self.source,
                                                      SourceSpec):
            object.__setattr__(
                self, "source", SourceSpec.from_dict(self.source)
            )
        if self.engine not in ENGINES:
            known = ", ".join(ENGINES)
            raise ValueError(
                f"unknown engine {self.engine!r}; known: {known}")
        if self.engine != "simulate" and self.events is not None:
            raise ValueError(
                f"engine=\"{self.engine}\" estimates aggregate counters "
                "and produces no event stream; drop events= or use "
                "engine=\"simulate\"")
        if self.events is not None and not isinstance(self.events,
                                                      EventConfig):
            object.__setattr__(
                self, "events", EventConfig.from_dict(self.events)
            )
        if self.sampling is not None:
            if self.engine != "sampled":
                raise ValueError(
                    "sampling= is only meaningful with "
                    "engine=\"sampled\"; drop it or switch engines")
            if not isinstance(self.sampling, SamplingConfig):
                object.__setattr__(
                    self, "sampling", SamplingConfig.from_dict(self.sampling)
                )
        elif self.engine == "sampled":
            # Sampled specs always carry an explicit config, so equal
            # configurations digest equally (None vs default would
            # otherwise split the cache).
            object.__setattr__(self, "sampling", SamplingConfig())
        overrides = self.policy_overrides
        if isinstance(overrides, Mapping):
            pairs = tuple(sorted(overrides.items()))
        else:
            pairs = tuple(sorted((str(k), v) for k, v in overrides))
        object.__setattr__(self, "policy_overrides", pairs)
        transform = tuple(self.spec_transform)
        if transform and transform[0] not in SPEC_TRANSFORMS:
            known = ", ".join(sorted(SPEC_TRANSFORMS))
            raise ValueError(
                f"unknown spec transform {transform[0]!r}; known: {known}")
        object.__setattr__(self, "spec_transform", transform)
        if self.warmup_fraction is not None \
                and not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def core(cls, workload: str, policy: str, **kwargs: Any) -> "RunSpec":
        """A figure-grid spec: single-module baselines get the paper's
        same-total-capacity normalisation implied by their name."""
        transform: tuple = ()
        if policy.startswith("dram-only"):
            transform = ("dram-only",)
        elif policy.startswith("nvm-only"):
            transform = ("nvm-only",)
        return cls(workload=workload, policy=policy,
                   spec_transform=transform, **kwargs)

    @classmethod
    def for_source(cls, source: SourceSpec, **kwargs: Any) -> "RunSpec":
        """A spec over an externally-supplied trace.

        ``source`` is a :class:`~repro.trace.SourceSpec` — typically
        from :meth:`repro.trace.TraceStore.add`, which turns any
        :class:`~repro.trace.TraceSource` (a materialised trace, a
        generator, a ``.trc``/``.npz`` file) into a content-addressed,
        file-backed descriptor in one streaming pass.  The workload
        name defaults to the source's name.
        """
        kwargs.setdefault("workload", source.name)
        return cls(source=source, **kwargs)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """Stable, totally-ordered sort key (deterministic merges)."""
        return (
            self.workload,
            self.policy,
            repr(self.spec_transform),
            repr(self.policy_overrides),
            self.request_scale,
            self.footprint_scale,
            self.seed,
            -1.0 if self.warmup_fraction is None else self.warmup_fraction,
            repr(self.events),
            self.engine,
            repr(self.sampling),
            # Content identity only: two specs over the same trace
            # reached via different paths sort (and cache) together.
            "" if self.source is None else self.source.digest,
        )

    def to_dict(self) -> dict:
        """JSON-compatible form (cache keys and cache-file headers)."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "request_scale": self.request_scale,
            "footprint_scale": self.footprint_scale,
            "seed": self.seed,
            "policy_overrides": [list(pair) for pair in self.policy_overrides],
            "spec_transform": list(self.spec_transform),
            "warmup_fraction": self.warmup_fraction,
            "events": (
                self.events.to_dict() if self.events is not None else None
            ),
            "engine": self.engine,
            "sampling": (
                self.sampling.to_dict() if self.sampling is not None
                else None
            ),
            "source": (
                self.source.to_dict() if self.source is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        events = data.get("events")
        sampling = data.get("sampling")
        source = data.get("source")
        return cls(
            workload=data["workload"],
            policy=data["policy"],
            request_scale=data["request_scale"],
            footprint_scale=data["footprint_scale"],
            seed=data["seed"],
            policy_overrides=tuple(
                (name, value) for name, value in data["policy_overrides"]
            ),
            spec_transform=tuple(data["spec_transform"]),
            warmup_fraction=data["warmup_fraction"],
            events=(
                EventConfig.from_dict(events) if events is not None
                else None
            ),
            engine=data.get("engine", "simulate"),
            sampling=(
                SamplingConfig.from_dict(sampling) if sampling is not None
                else None
            ),
            source=(
                SourceSpec.from_dict(source) if source is not None else None
            ),
        )

    def digest(self) -> str:
        """Content address of the spec (code version is layered on by
        the cache, so the digest itself is pure input identity)."""
        data = self.to_dict()
        if data["engine"] == "simulate":
            # Back-compat: the engine field postdates the cache format;
            # default-engine specs keep their pre-engine digests so
            # existing warm caches stay valid.
            del data["engine"]
        if data["sampling"] is None:
            # Same elision for the sampling config: only sampled specs
            # (which always carry one) spend a digest key on it.
            del data["sampling"]
        if data["source"] is None:
            # And for external sources: profile-rendered specs keep
            # their pre-source digests.
            del data["source"]
        else:
            # The backing path is where the bytes happen to live, not
            # what they are — digest by content identity only.
            data["source"] = self.source.identity_dict()  # type: ignore[union-attr]
        canonical = json.dumps(data, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]

    def label(self) -> str:
        """Short human-readable form for progress reporting."""
        parts = [self.workload, self.policy]
        if self.source is not None:
            parts[0] = f"{self.workload}@{self.source.digest[:8]}"
        if self.engine == "sampled" and self.sampling is not None:
            parts.append(f"sampled@1/{self.sampling.rate}")
        elif self.engine != "simulate":
            parts.append(self.engine)
        if self.spec_transform:
            parts.append("/".join(str(p) for p in self.spec_transform))
        if self.policy_overrides:
            parts.append(",".join(f"{k}={v}"
                                  for k, v in self.policy_overrides))
        return ":".join(parts)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def render(self) -> WorkloadInstance:
        """Render the workload (trace + sized machine) for this spec.

        Source specs materialise the backing trace and wrap it in a
        synthetic profile built from the scan statistics — the form
        the analytic and sampled engines consume.  The simulate engine
        never calls this for a source spec: it streams the file
        directly (see :meth:`execute`), so replay stays constant
        memory.
        """
        if self.source is not None:
            return self._render_source()
        return parsec_workload(
            self.workload,
            request_scale=self.request_scale,
            footprint_scale=self.footprint_scale,
            seed=self.seed,
        )

    def _render_source(self) -> WorkloadInstance:
        source = self.source
        assert source is not None
        profile = ParsecProfile(
            name=source.name,
            working_set_kb=max(
                1, source.unique_pages * source.page_size // 1024
            ),
            read_requests=source.requests - source.write_requests,
            write_requests=source.write_requests,
            compute_gap_ns=0.0,
            description="external trace source",
        )
        return WorkloadInstance(
            profile=profile,
            trace=materialize(source.open()),
            spec=self.source_machine(),
            warmup_fraction=0.0,
            inter_request_gap=0.0,
        )

    def source_machine(self) -> HybridMemorySpec:
        """The machine a source spec implies: the paper's sizing rule
        applied to the scanned footprint, before the transform."""
        source = self.source
        assert source is not None
        return HybridMemorySpec.for_footprint(
            source.unique_pages, page_size=source.page_size
        )

    def machine_spec(self, instance: WorkloadInstance) -> HybridMemorySpec:
        """The rendered machine with this spec's transform applied."""
        return self._transform(instance.spec)

    def _transform(self, spec: HybridMemorySpec) -> HybridMemorySpec:
        if self.spec_transform:
            name, *args = self.spec_transform
            spec = SPEC_TRANSFORMS[name](spec, *args)
        return spec

    def resolve(
        self, instance: WorkloadInstance | None = None,
    ) -> tuple[WorkloadInstance, HybridMemorySpec, float]:
        """What every engine evaluates: the rendered instance (``instance``
        when given, else :meth:`render`), the transformed machine and
        the warm-up fraction (the spec's override, else the
        instance's own)."""
        if instance is None:
            instance = self.render()
        warmup = (instance.warmup_fraction if self.warmup_fraction is None
                  else self.warmup_fraction)
        return instance, self.machine_spec(instance), warmup

    def baseline_twin(self) -> "RunSpec | None":
        """The nvm-only spec whose result this plain LRU ``dram-only``
        baseline derives from (simulate engine, no events or overrides,
        unsanitized process); ``None`` for every other spec."""
        if (self.policy, self.spec_transform, self.engine, self.events,
                self.policy_overrides) != (
                "dram-only", ("dram-only",), "simulate", None, ()) \
                or sanitize_default():
            return None
        return replace(self, policy="nvm-only", spec_transform=("nvm-only",))

    def build_policy_factory(self) -> PolicyFactory:
        """Policy factory resolved from the registry plus overrides."""
        return policy_factory(self.policy, dict(self.policy_overrides) or None)

    def execute(
        self,
        instance: WorkloadInstance | None = None,
        factory: PolicyFactory | None = None,
    ) -> RunResult:
        """Run (or analytically estimate) what this spec describes.

        ``instance`` lets callers (the executor's per-worker cache, a
        sweep over one workload) reuse an already-rendered workload;
        it must match the spec's rendering knobs.  ``factory``
        substitutes the policy factory — used by studies that need the
        policy *object* afterwards (e.g. the adaptive-threshold
        comparison); such runs bypass the result cache because the
        factory is not part of the spec's identity, and only the
        simulate engine takes one (the fast engines hand back no
        policy object).  The policy such a factory builds is left
        intact; one built from the registry is disposed of after the
        run, as :func:`~repro.mmu.simulator.simulate` disposes of
        every policy it builds.
        """
        if self.engine != "simulate":
            if factory is not None:
                raise ValueError(
                    f"engine=\"{self.engine}\" cannot honour a custom "
                    "policy factory; use engine=\"simulate\"")
            if self.engine == "analytic":
                from repro.model.estimator import estimate_spec

                return estimate_spec(self, instance=instance)
            from repro.sampling.engine import sample_spec

            return sample_spec(self, instance=instance)
        if instance is None and self.source is not None:
            # Stream the backing file chunk by chunk: peak memory is
            # one chunk regardless of trace length.  Bit-identical to
            # replaying the rendered instance (the chunk-boundary
            # equivalence suite pins this), so both share one cache
            # entry.
            source, gap = self.source.open(), 0.0
            machine = self._transform(self.source_machine())
            warmup = self.warmup_fraction or 0.0
        else:
            instance, machine, warmup = self.resolve(instance)
            source, gap = instance.trace, instance.inter_request_gap
        simulator = HybridMemorySimulator(
            machine,
            factory if factory is not None else self.build_policy_factory(),
            inter_request_gap=gap,
            events=self.events,
        )
        result = simulator.run(source, warmup_fraction=warmup)
        if factory is None:
            # Nobody can reach the policy: free its queues right away.
            simulator.policy.dispose()
        return result
