"""Parallel experiment execution over :class:`RunSpec` batches.

``submit([specs]) -> [RunResult]`` is the one interface every consumer
of simulation results goes through (the experiment runner, the sweeps,
the CLI, the examples).  Beneath it sit two layers:

* :class:`ParallelExecutor` — fans specs out over a ``multiprocessing``
  worker pool (``jobs`` workers, default ``os.cpu_count()``), one task
  per rendered workload, largest first; a task derives the LRU
  dram-only baseline from its nvm-only twin instead of replaying it.
  Results are merged deterministically in input order, progress is
  reported through a callback as results arrive, and failed specs are
  retried in the parent and surfaced as :class:`ExecutorError` *after*
  the remaining specs complete — a crash never starves the batch.
* :class:`ResultCache` — a content-addressed JSON cache under
  ``.repro-cache/``, keyed by ``RunSpec.digest()`` plus a code-version
  fingerprint (a hash over the simulation-relevant source trees), so
  results persist across processes and invalidate themselves when the
  simulator, policies, models or workload generators change.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import tempfile
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import repro
from repro.experiments.runspec import RunSpec
from repro.mmu.simulator import RunResult
from repro.policies.single_tier import dram_only_from_nvm_only
from repro.workloads.parsec import MEMO_LIMIT, PROFILES, WorkloadInstance, scaled_requests

#: Default location of the persistent result cache.
DEFAULT_CACHE_DIR = ".repro-cache"

#: How many times a failed spec is re-executed serially in the parent
#: before it is reported as a failure.
RETRIES = 1

#: ``multiprocessing`` start method of the worker pool; ``None`` keeps
#: the platform default (``fork`` on Linux, which inherits registered
#: custom policies and environment toggles).
START_METHOD: str | None = None

#: Packages whose source determines simulation results; a change in any
#: of them invalidates every cached result.
_VERSIONED_SUBPACKAGES = (
    "trace", "workloads", "memory", "mmu", "core", "policies", "obs",
    "model", "sampling",
)
_VERSIONED_MODULES = ("experiments/runspec.py",)

#: Memoised (stat signature, content hash) of the last fingerprint
#: computation.  The signature — (relative path, mtime_ns, size) per
#: versioned file — is cheap to recompute (a stat per file, no reads),
#: so the expensive content hash reruns only when some file actually
#: changed.  Unlike a plain once-per-process memo this stays correct
#: in long-lived processes that edit source between submits (notebook
#: kernels, watch loops, the executor's own tests).
_code_version_memo: tuple[tuple, str] | None = None

StatSignature = tuple[tuple[str, int, int], ...]


def _versioned_files(root: Path) -> list[Path]:
    files: list[Path] = []
    for sub in _VERSIONED_SUBPACKAGES:
        files.extend((root / sub).rglob("*.py"))
    files.extend(
        path for rel in _VERSIONED_MODULES
        if (path := root / rel).is_file()
    )
    return sorted(files)


def _stat_signature(root: Path, files: Sequence[Path]) -> StatSignature:
    signature = []
    for path in files:
        stat = path.stat()
        signature.append(
            (str(path.relative_to(root)), stat.st_mtime_ns, stat.st_size)
        )
    return tuple(signature)


def code_version(root: str | Path | None = None) -> str:
    """Fingerprint of the simulation-relevant source.

    Memoised against a stat signature of the versioned tree: calls
    after the first cost one ``stat`` per file and re-hash content only
    when a file's path set, mtime or size changed.  ``root`` overrides
    the package directory (tests point it at a scratch tree); only the
    default root participates in the memo.
    """
    global _code_version_memo
    explicit_root = root is not None
    base = Path(root) if explicit_root else Path(repro.__file__).parent
    files = _versioned_files(base)
    signature = _stat_signature(base, files)
    if not explicit_root and _code_version_memo is not None:
        cached_signature, cached_version = _code_version_memo
        if cached_signature == signature:
            return cached_version
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(base)).encode())
        digest.update(path.read_bytes())
    version = digest.hexdigest()[:16]
    if not explicit_root:
        _code_version_memo = (signature, version)
    return version


# ----------------------------------------------------------------------
# Persistent result cache
# ----------------------------------------------------------------------
class ResultCache:
    """Content-addressed on-disk cache of :class:`RunResult` objects.

    One JSON file per (spec digest, code version); the stored payload
    carries the spec itself so cache files are self-describing and
    auditable.  Corrupt or stale files read as misses.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR,
                 version: str | None = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else code_version()
        # A hit builds its file name from plain strings: pathlib's
        # parsing would cost more than the rest of the name.
        self._prefix = os.path.join(self.root, "")
        self._suffix = f"-{self.version}.json"

    def _file(self, spec: RunSpec) -> str:
        return self._prefix + spec.digest() + self._suffix

    def path_for(self, spec: RunSpec) -> Path:
        return Path(self._file(spec))

    def get(self, spec: RunSpec) -> RunResult | None:
        try:
            with open(self._file(spec), "rb") as handle:
                payload = json.loads(handle.read())
            if payload.get("version") != self.version:
                return None
            return RunResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, spec: RunSpec, result: RunResult) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": self.version,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        path = self.path_for(spec)
        # Unique temp file + atomic rename: concurrent writers of the
        # same spec (several executors, a resident server's threads)
        # never interleave bytes — each rename is all-or-nothing and
        # the last writer wins with a complete file.  A shared
        # ``path + ".tmp"`` name would race: two writers would append
        # into one file and rename a corrupt mixture.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=path.stem + "-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-process rendered-workload cache: with ``fork`` each worker keeps
#: its own copy, so a workload is rendered at most once per worker even
#: when it appears in many specs.  Cleared whole at :data:`MEMO_LIMIT`,
#: so a resident process fed fresh seeds keeps a bounded set.
_INSTANCES: dict[tuple, WorkloadInstance] = {}


def _instance_key(spec: RunSpec) -> tuple:
    """Which rendered instance a spec runs on (and its pool task)."""
    return (
        spec.workload, spec.request_scale, spec.footprint_scale, spec.seed,
        # External traces key by content digest: two sources sharing a
        # name must not collide in the per-worker instance cache.
        spec.source.digest if spec.source is not None else None,
    )


def _rendered(spec: RunSpec) -> WorkloadInstance:
    key = _instance_key(spec)
    instance = _INSTANCES.get(key)
    if instance is None:
        instance = spec.render()
        if len(_INSTANCES) >= MEMO_LIMIT:
            _INSTANCES.clear()
        _INSTANCES[key] = instance
    return instance


def _instance_for(spec: RunSpec) -> WorkloadInstance | None:
    """The pre-rendered instance a spec's execution should reuse.

    ``None`` for simulated source specs: those stream the backing
    trace file chunk by chunk inside ``execute`` — materialising (and
    worker-caching) the whole trace would defeat the constant-memory
    drive path.  The analytic and sampled engines consume a rendered
    instance either way.
    """
    if spec.source is not None and spec.engine == "simulate":
        return None
    return _rendered(spec)


#: One spec's outcome in a task: (spec, result, traceback, derived).
Outcome = tuple[RunSpec, RunResult | None, str | None, bool]


def _run_group(specs: Sequence[RunSpec]) -> list[Outcome]:
    """Execute one task's specs, never raising.  A spec whose
    :meth:`~RunSpec.baseline_twin` succeeded earlier in the task is
    derived from the twin's result; otherwise it runs on its own."""
    done: dict[RunSpec | None, RunResult] = {}
    outcomes: list[Outcome] = []
    for spec in specs:
        try:
            instance = _instance_for(spec)
            twin = done.get(spec.baseline_twin())
            if twin is not None:
                result = dram_only_from_nvm_only(
                    twin, instance.inter_request_gap if instance else 0.0)
            else:
                result = spec.execute(instance=instance)
            done[spec] = result
            outcomes.append((spec, result, None, twin is not None))
        except Exception:
            outcomes.append((spec, None, traceback.format_exc(), False))
    return outcomes


def _tasks(pending: Sequence[RunSpec], workers: int) -> list[list[RunSpec]]:
    """``pending`` as tasks: one per rendered instance, each baseline
    twin just before the spec it derives, split above ``ceil(len /
    workers)`` specs (never between twins), largest work first."""
    groups: dict[tuple, list[RunSpec]] = {}
    for spec in pending:
        groups.setdefault(_instance_key(spec), []).append(spec)
    limit = -(-len(pending) // workers)
    tasks: list[list[RunSpec]] = []
    for group in groups.values():
        derived = {spec.baseline_twin(): spec for spec in group}
        task: list[RunSpec] = []
        for spec in group:
            if spec.baseline_twin() in group:
                continue  # rides right behind its twin
            if len(task) >= limit:
                tasks.append(task)
                task = []
            task += [spec, derived[spec]] if spec in derived else [spec]
        tasks.append(task)

    def work(task: list[RunSpec]) -> tuple:
        spec, profile = task[0], PROFILES.get(task[0].workload)
        requests = (spec.source.requests if spec.source is not None else
                    scaled_requests(profile, spec.request_scale) if profile
                    else 0)
        return -len(task) * requests, spec.key()

    return sorted(tasks, key=work)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class ExecutorStats:
    """Counters over an executor's lifetime (cache audits, benchmarks)."""

    submitted: int = 0
    simulated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    failures: int = 0
    #: Of ``simulated``, the results derived rather than replayed.
    derived: int = 0
    #: Fresh results the cache could not store (a full disk, say).
    cache_write_errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class WorkerFailure:
    """One spec that failed after retries, with its worker traceback."""

    spec: RunSpec
    traceback: str


class ExecutorError(RuntimeError):
    """Raised after a batch completes with at least one failed spec.

    The error carries the failures *and* every completed result, so a
    single bad spec does not discard the rest of the batch.
    """

    def __init__(self, failures: Sequence[WorkerFailure],
                 results: dict[RunSpec, RunResult]) -> None:
        self.failures = list(failures)
        self.results = results
        lines = [f"{len(self.failures)} of "
                 f"{len(self.failures) + len(results)} run spec(s) failed:"]
        for failure in self.failures:
            last = failure.traceback.strip().splitlines()[-1]
            lines.append(f"  {failure.spec.label()}: {last}")
        super().__init__("\n".join(lines))


#: Progress callback signature: (completed, total, spec just finished).
ProgressCallback = Callable[[int, int, RunSpec], None]


class ParallelExecutor:
    """Executes :class:`RunSpec` batches, in parallel, with caching.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means ``os.cpu_count()``; ``1``
        executes serially in-process (no pool overhead).
    cache:
        A :class:`ResultCache` (or ``None`` to disable persistence).
    progress:
        Callback invoked in the parent as each spec completes.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.progress = progress
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    def submit(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Execute a batch and return results aligned with ``specs``.

        Duplicate specs are simulated once.  The merge is deterministic:
        output order is input order and each result is keyed by its
        spec, so worker completion order never shows through.  If any
        spec still fails after retries, :class:`ExecutorError` is
        raised *after* all remaining specs have completed (the partial
        results ride on the exception).
        """
        specs = list(specs)
        self.stats.submitted += len(specs)
        unique = list(dict.fromkeys(specs))
        results: dict[RunSpec, RunResult] = {}
        total = len(unique)
        done = 0

        def _completed(spec: RunSpec, result: RunResult) -> None:
            nonlocal done
            results[spec] = result
            done += 1
            if self.progress is not None:
                self.progress(done, total, spec)

        pending: list[RunSpec] = []
        for spec in unique:
            cached = self.cache.get(spec) if self.cache else None
            if cached is not None:
                self.stats.cache_hits += 1
                _completed(spec, cached)
            else:
                if self.cache:
                    self.stats.cache_misses += 1
                pending.append(spec)

        # Deterministic execution order (stable scheduling + progress).
        pending.sort(key=RunSpec.key)

        def _fresh(spec: RunSpec, result: RunResult) -> None:
            self.stats.simulated += 1
            if self.cache:
                try:
                    self.cache.put(spec, result)
                except OSError:  # the batch keeps the result it computed
                    self.stats.cache_write_errors += 1
            _completed(spec, result)

        failed: list[tuple[RunSpec, str | None]] = []
        for outcomes in self._outcomes(pending):
            for spec, result, error, derived in outcomes:
                if result is None:
                    failed.append((spec, error))
                else:
                    self.stats.derived += derived
                    _fresh(spec, result)
        # Retry crashed specs serially in the parent, up to RETRIES
        # times: a transient worker death must not cost the batch, and
        # a deterministic crash reproduces here with a clean traceback.
        failures: list[WorkerFailure] = []
        for spec, error in failed:
            result = None
            for _ in range(RETRIES):
                self.stats.retries += 1
                _spec, result, error, _derived = _run_group([spec])[0]
                if result is not None:
                    break
            if result is None:
                failures.append(WorkerFailure(spec, error or ""))
            else:
                _fresh(spec, result)

        if failures:
            self.stats.failures += len(failures)
            raise ExecutorError(failures, results)
        return [results[spec] for spec in specs]

    # ------------------------------------------------------------------
    def _outcomes(self, pending: list[RunSpec]) -> Iterator[list[Outcome]]:
        """Each task's outcomes as it finishes: in-process when
        ``jobs == 1`` or there is one task, else over the pool."""
        tasks = _tasks(pending, min(self.jobs, len(pending) or 1))
        if self.jobs == 1 or len(tasks) <= 1:
            yield from map(_run_group, tasks)
            return
        context = multiprocessing.get_context(START_METHOD)
        with context.Pool(processes=min(self.jobs, len(tasks))) as pool:
            yield from pool.imap_unordered(_run_group, tasks)
