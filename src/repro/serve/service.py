"""The transport-free core of ``repro serve``.

A :class:`ReproService` is a resident façade over the experiment
stack: one shared :class:`~repro.experiments.executor.ParallelExecutor`
(and therefore one warm result cache and one set of per-worker
rendered-workload caches), one content-addressed
:class:`~repro.trace.TraceStore` for uploaded traces, and a tolerant
payload-to-:class:`~repro.experiments.runspec.RunSpec` translation so
HTTP clients can submit partial dicts instead of the full frozen
dataclass form.

Everything here is transport-agnostic — the HTTP layer
(:mod:`repro.serve.server`) and the tests drive the same methods.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from repro.experiments.executor import (
    DEFAULT_CACHE_DIR,
    ParallelExecutor,
    ResultCache,
)
from repro.experiments.runspec import ENGINES, RunSpec
from repro.mmu.simulator import RunResult
from repro.obs.config import EventConfig
from repro.policies.registry import available_policies
from repro.trace.source import IterableTraceSource, SourceSpec, TraceStore
from repro.trace.source import parse_trace_line
from repro.workloads.parsec import WORKLOAD_NAMES


class ServiceError(ValueError):
    """A malformed or unsatisfiable request: HTTP ``status``, not a crash."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


#: RunSpec fields a payload may set directly (everything identity).
_SPEC_FIELDS = frozenset((
    "workload", "policy", "request_scale", "footprint_scale", "seed",
    "policy_overrides", "spec_transform", "warmup_fraction", "events",
    "engine", "sampling", "source",
))

#: Byte budget of the fast lane's stored bodies (oldest evicted first);
#: each entry's ``RunResult`` object takes about twice its body again.
FAST_LANE_BYTES = 16 * 1024 * 1024


class Answer(NamedTuple):
    """One spec's answer: the encoded ``/run`` response body and the
    result it encodes (shared between callers: treat it as read-only)."""

    body: bytes
    result: RunResult


class FastLane:
    """Answers by spec digest.  Readers do one lock-free ``dict.get``;
    inserts, evictions and the hit count take the lane's own lock.  The
    digest is a safe key: label and result depend only on fields it
    covers."""

    def __init__(self) -> None:
        self.entries: dict[str, Answer] = {}
        self.bytes = 0
        self.hits = 0
        self._lock = threading.Lock()

    def put(self, digest: str, answer: Answer) -> None:
        size = len(answer.body)
        if size > FAST_LANE_BYTES:
            return
        with self._lock:
            if digest in self.entries:
                return
            while self.bytes + size > FAST_LANE_BYTES:
                # Dicts keep insertion order: the first key is oldest.
                oldest = self.entries.pop(next(iter(self.entries)))
                self.bytes -= len(oldest.body)
            self.entries[digest] = answer
            self.bytes += size

    def count_hits(self, hits: int) -> None:
        with self._lock:
            self.hits += hits


class ReproService:
    """Resident executor + trace store behind ``repro serve``.

    Parameters
    ----------
    jobs:
        Worker processes for the shared executor (``None``: all CPUs).
    cache:
        The persistent :class:`ResultCache`; ``None`` disables
        persistence (every run recomputes).
    trace_root:
        Spill directory for uploaded traces; defaults to
        ``<cache dir>/traces``.
    executor:
        A prebuilt :class:`ParallelExecutor` (the CLI passes the one
        its shared ``--jobs/--cache/--progress`` flags imply);
        overrides ``jobs``/``cache``.
    defaults:
        Server-side spec defaults (e.g. ``{"engine": "analytic"}``
        from ``repro serve --engine analytic``) applied to any payload
        that does not set the key itself.
    events_dir:
        When set (the shared ``--events PATH`` flag), every
        event-bearing result is also persisted there as
        ``{workload}-{policy}-{digest}.jsonl``.

    :meth:`answers` serves repeated queries from the :class:`FastLane`
    without the service lock, so a hit never waits behind a cold run;
    misses go to the executor under the lock (disk cache or simulate)
    and are then stored.  The lane is off without a result cache and,
    under ``events_dir``, for event-bearing specs.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        trace_root: str | Path | None = None,
        executor: ParallelExecutor | None = None,
        defaults: Mapping[str, Any] | None = None,
        events_dir: str | Path | None = None,
    ) -> None:
        if executor is None:
            executor = ParallelExecutor(jobs=jobs, cache=cache)
        if trace_root is None:
            base = (executor.cache.root if executor.cache is not None
                    else Path(DEFAULT_CACHE_DIR))
            trace_root = Path(base) / "traces"
        self.store = TraceStore(trace_root)
        self.executor = executor
        self.defaults = dict(defaults or {})
        unknown = set(self.defaults) - _SPEC_FIELDS
        if unknown:
            raise ValueError(
                f"unknown default spec field(s): {', '.join(sorted(unknown))}")
        self.events_dir = Path(events_dir) if events_dir is not None else None
        #: Sources ingested this process, by digest — lets payloads
        #: reference an uploaded trace as ``{"source": "<digest>"}``.
        self.sources: dict[str, SourceSpec] = {}
        self._lock = threading.Lock()
        self.fast_lane = FastLane()
        # Operational uptime, not simulation state: never feeds a run.
        self._started = time.time()  # noqa: R002
        self._runs = 0
        self._ingests = 0

    # ------------------------------------------------------------------
    # Payload translation
    # ------------------------------------------------------------------
    def spec_from_payload(self, payload: Mapping[str, Any]) -> RunSpec:
        """Build a :class:`RunSpec` from a tolerant request dict.

        Unknown keys are rejected, at the top level and inside
        ``sampling``/``events`` (a typo must not silently run the
        default grid point), and the policy is resolved, so a bad
        request is a 400 before anything runs.  ``source`` may be a full
        :class:`SourceSpec` dict or just the digest string of a trace
        uploaded earlier this process; ``events`` may be ``true`` (a
        plain trace-collecting config), a dict, or absent.
        """
        if not isinstance(payload, Mapping):
            raise ServiceError("run payload must be a JSON object")
        unknown = set(payload) - _SPEC_FIELDS
        if unknown:
            raise ServiceError(
                f"unknown spec field(s): {', '.join(sorted(unknown))}")
        kwargs = dict(payload)
        for key, value in self.defaults.items():
            kwargs.setdefault(key, value)
        engine = kwargs.get("engine", "simulate")
        if engine not in ENGINES:
            raise ServiceError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINES)}")
        source = kwargs.get("source")
        if isinstance(source, str):
            source = self.sources.get(source)
            if source is None:
                raise ServiceError(
                    f"unknown source digest {kwargs['source']!r}; upload "
                    "the trace through POST /traces first")
        elif source is not None and not isinstance(source, SourceSpec):
            try:
                source = SourceSpec.from_dict(source)
            except (KeyError, TypeError) as exc:
                raise ServiceError(
                    "source must be an uploaded trace's digest or a "
                    f"SourceSpec object ({type(exc).__name__}: {exc})"
                ) from exc
        if source is not None:
            kwargs["source"] = source
            kwargs.setdefault("workload", source.name)
        if kwargs.get("events") is True:
            kwargs["events"] = EventConfig(trace=True)
        if "workload" not in kwargs:
            raise ServiceError("spec needs a workload or a source")
        if source is None and kwargs["workload"] not in WORKLOAD_NAMES:
            raise ServiceError(
                f"unknown workload {kwargs['workload']!r} (and no source "
                "given); known: " + ", ".join(WORKLOAD_NAMES))
        try:
            spec = RunSpec(**kwargs)
            spec.build_policy_factory()
        except KeyError as exc:
            raise ServiceError(str(exc.args[0])) from exc
        except (TypeError, ValueError) as exc:
            raise ServiceError(str(exc)) from exc
        return spec

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, payload: Mapping[str, Any],
            stream: bool = False) -> tuple[RunSpec, RunResult]:
        """Execute one spec: fast lane first, then the executor.

        ``stream=True`` bypasses the fast lane and forces event collection
        (``EventConfig(trace=True)``) so the caller has a JSONL event
        stream to forward — only meaningful for the simulate engine
        (the fast engines carry no event stream, which ``RunSpec``
        itself enforces).
        """
        spec = self.spec_from_payload(payload)
        if not stream:
            return spec, self.answers([spec])[0].result
        if spec.events is None:
            if spec.engine != "simulate":
                raise ServiceError(
                    f"engine={spec.engine!r} produces no event stream; "
                    "drop ?stream or use engine=\"simulate\"")
            spec = RunSpec.from_dict(
                {**spec.to_dict(), "events": {"trace": True}})
        result = self.run_specs([spec])[0]
        self._persist_events(spec, result)
        return spec, result

    def answers(self, specs: list[RunSpec]) -> list[Answer]:
        """Answer each spec in order: fast-lane hits, then one executor
        submit for the misses, whose bodies (the bytes of ``json.dumps(
        {"digest", "label", "result": result.to_dict()})``) are stored."""
        digests = [spec.digest() for spec in specs]
        found: dict[int, Answer] = {}
        for i, (spec, digest) in enumerate(zip(specs, digests)):
            answer = (self.fast_lane.entries.get(digest)
                      if self._in_lane(spec) else None)
            if answer is not None:
                found[i] = answer
        if found:
            self.fast_lane.count_hits(len(found))
        missing = [i for i in range(len(specs)) if i not in found]
        if missing:
            results = self.run_specs([specs[i] for i in missing])
            for i, result in zip(missing, results):
                spec = specs[i]
                body = json.dumps({"digest": digests[i],
                                   "label": spec.label(),
                                   "result": result.to_dict()})
                answer = found[i] = Answer(body.encode("utf-8"), result)
                self._persist_events(spec, result)
                if self._in_lane(spec):
                    self.fast_lane.put(digests[i], answer)
        return [found[i] for i in range(len(specs))]

    def _in_lane(self, spec: RunSpec) -> bool:
        # Without a result cache every run recomputes; under events_dir
        # every event-bearing run persists.
        return self.executor.cache is not None and (
            self.events_dir is None or spec.events is None)

    def _persist_events(self, spec: RunSpec, result: RunResult) -> None:
        events = result.events
        if self.events_dir is None or events is None:
            return
        self.events_dir.mkdir(parents=True, exist_ok=True)
        target = (self.events_dir
                  / f"{spec.workload}-{spec.policy}-{spec.digest()}.jsonl")
        target.write_text(
            "".join(f"{line}\n" for line in events.trace_lines),
            encoding="utf-8",
        )

    def run_specs(self, specs: list[RunSpec]) -> list[RunResult]:
        """Batch entry: one executor submit under the service lock.

        The executor's merge bookkeeping is not thread-safe, so
        concurrent misses serialise here; the pool still fans each
        batch out over all workers.  Holding the lock across the submit
        also means a second identical cold request finds the first
        one's result in the disk cache instead of simulating again.
        """
        with self._lock:
            self._runs += len(specs)
            return self.executor.submit(specs)

    # ------------------------------------------------------------------
    # Trace ingest
    # ------------------------------------------------------------------
    def ingest(self, lines: Iterable[str], name: str | None = None,
               page_size: int | None = None) -> SourceSpec:
        """Ingest ``.trc``-format lines into the trace store.

        Parses, digests and spills in one streaming pass (peak memory
        is one chunk), registers the resulting :class:`SourceSpec`
        under its content digest, and returns it.  Re-uploading the
        same content converges on the same digest and file.
        """
        def pairs():
            for number, raw in enumerate(lines, start=1):
                parsed = parse_trace_line(raw, number)
                if parsed is not None:
                    yield parsed

        source = IterableTraceSource(
            pairs(), name=name or "upload",
            **({"page_size": page_size} if page_size else {}),
        )
        try:
            spec = self.store.add(source, name=name)
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        with self._lock:
            self.sources[spec.digest] = spec
            self._ingests += 1
        return spec

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        lane = self.fast_lane
        with self._lock:
            executor = self.executor.stats.as_dict()
            hits = lane.hits  # runs and cache hits the executor never saw
            for key in ("submitted", "cache_hits"):
                executor[key] += hits
            return {
                "uptime_seconds": round(
                    time.time() - self._started, 3),  # noqa: R002
                "runs": self._runs + hits,
                "ingests": self._ingests,
                "sources": sorted(self.sources),
                "jobs": self.executor.jobs,
                "cache": (
                    str(self.executor.cache.root)
                    if self.executor.cache is not None else None
                ),
                "executor": executor,
                "fast_lane": {"hits": hits, "entries": len(lane.entries),
                              "bytes": lane.bytes},
            }

    def catalog(self) -> dict[str, list[str]]:
        return {
            "policies": list(available_policies()),
            "workloads": list(WORKLOAD_NAMES),
            "engines": list(ENGINES),
        }
