"""Experiment runner: policy x workload grids over the executor.

The figure builders all need the same underlying runs (the proposed
scheme, CLOCK-DWF and the two homogeneous baselines over the twelve
PARSEC workloads).  The runner translates ``(workload, policy)`` cells
into declarative :class:`~repro.experiments.runspec.RunSpec` batches,
submits them through a :class:`~repro.experiments.executor.
ParallelExecutor` (parallel with ``jobs > 1``, optionally backed by the
persistent disk cache), and memoises the merged results in-process so
every figure derives from the same run objects.

``ExperimentRunner.run(workload, policy)`` — the historical
cell-at-a-time entry point — is gone; build specs with ``spec_for`` /
``RunSpec.core`` and batch them through ``submit``.
"""

from __future__ import annotations

from repro.experiments.executor import ParallelExecutor, ResultCache
from repro.experiments.results import WorkloadRuns
from repro.experiments.runspec import RunSpec
from repro.mmu.simulator import RunResult
from repro.obs.config import EventConfig
from repro.sampling import SamplingConfig
from repro.workloads.parsec import (
    DEFAULT_FOOTPRINT_SCALE,
    DEFAULT_REQUEST_SCALE,
    WORKLOAD_NAMES,
    WorkloadInstance,
    parsec_workload,
)

#: The four runs every paper figure draws on.
CORE_POLICIES = ("dram-only", "nvm-only", "clock-dwf", "proposed")


class ExperimentRunner:
    """Runs and caches (workload, policy) simulations at one scale.

    Parameters
    ----------
    request_scale / footprint_scale / seed / workloads:
        Rendering knobs shared by every spec the runner builds.
    jobs:
        Worker processes for batch submissions (``grid``/``runs_for``);
        ``1`` (the default) executes serially in-process.
    cache:
        A :class:`ResultCache` for cross-process persistence, or
        ``None`` (in-memory memoisation only).
    executor:
        A fully-configured executor; overrides ``jobs``/``cache``.
    events:
        Event-stream collection config attached to every spec the
        runner builds (``None`` keeps the observability bus detached).
    engine:
        Execution engine stamped on every spec the runner builds:
        ``"simulate"`` (default), ``"analytic"`` or ``"sampled"``
        (:data:`repro.experiments.runspec.ENGINES`).
    sampling:
        Sampling configuration stamped on every spec when ``engine``
        is ``"sampled"`` (``None`` means the engine default,
        :class:`~repro.sampling.SamplingConfig`).
    """

    def __init__(
        self,
        request_scale: float = DEFAULT_REQUEST_SCALE,
        footprint_scale: float = DEFAULT_FOOTPRINT_SCALE,
        seed: int = 2016,
        workloads: tuple[str, ...] = WORKLOAD_NAMES,
        jobs: int = 1,
        cache: ResultCache | None = None,
        executor: ParallelExecutor | None = None,
        events: EventConfig | None = None,
        engine: str = "simulate",
        sampling: SamplingConfig | None = None,
    ) -> None:
        self.request_scale = request_scale
        self.footprint_scale = footprint_scale
        self.seed = seed
        self.workload_names = workloads
        self.events = events
        self.engine = engine
        self.sampling = sampling
        self.executor = executor or ParallelExecutor(jobs=jobs, cache=cache)
        self._instances: dict[str, WorkloadInstance] = {}
        #: Every result this runner has delivered, by spec (the memo
        #: ``submit`` serves repeats from).
        self.runs: dict[RunSpec, RunResult] = {}

    # ------------------------------------------------------------------
    def workload(self, name: str) -> WorkloadInstance:
        """The rendered workload (cached)."""
        if name not in self._instances:
            self._instances[name] = parsec_workload(
                name,
                request_scale=self.request_scale,
                footprint_scale=self.footprint_scale,
                seed=self.seed,
            )
        return self._instances[name]

    def spec_for(self, workload_name: str, policy_name: str) -> RunSpec:
        """The declarative spec for one grid cell.

        The homogeneous baselines run on the same *total* capacity with
        all frames moved to one module, exactly as the paper's
        normalisations require (``RunSpec.core`` derives that transform
        from the policy name).
        """
        return RunSpec.core(
            workload_name,
            policy_name,
            request_scale=self.request_scale,
            footprint_scale=self.footprint_scale,
            seed=self.seed,
            events=self.events,
            engine=self.engine,
            sampling=self.sampling,
        )

    def submit(self, specs: list[RunSpec]) -> list[RunResult]:
        """Execute a spec batch through the executor, memoised.

        Already-seen specs return the identical in-memory object;
        everything else goes to the executor in one submission (and so
        runs in parallel when the executor has workers).
        """
        missing = [spec for spec in dict.fromkeys(specs)
                   if spec not in self.runs]
        if missing:
            for spec, result in zip(missing, self.executor.submit(missing)):
                self.runs[spec] = result
        return [self.runs[spec] for spec in specs]

    def runs_for(self, workload_name: str,
                 policies: tuple[str, ...] = CORE_POLICIES) -> WorkloadRuns:
        """All requested policy runs for one workload."""
        specs = [self.spec_for(workload_name, policy)
                 for policy in policies]
        results = self.submit(specs)
        return WorkloadRuns(
            workload=workload_name,
            runs=dict(zip(policies, results)),
        )

    def grid(self, policies: tuple[str, ...] = CORE_POLICIES,
             workloads: tuple[str, ...] | None = None,
             ) -> dict[str, WorkloadRuns]:
        """The full policy x workload grid (one batched submission)."""
        names = tuple(workloads or self.workload_names)
        specs = [self.spec_for(name, policy)
                 for name in names for policy in policies]
        self.submit(specs)  # one batch: cells fan out together
        return {name: self.runs_for(name, policies) for name in names}
