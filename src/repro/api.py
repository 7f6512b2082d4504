"""The stable public API facade.

Everything an external caller — the examples, a notebook, a downstream
study — needs lives behind this one module::

    from repro.api import RunSpec, ParallelExecutor, EventConfig

The deep module paths (``repro.experiments.runspec``,
``repro.obs.sinks``, ...) remain importable but are internal layout:
they may move between releases, while the names in ``__all__`` here
are the compatibility surface.  The facade re-exports only — it
defines nothing — so it stays a zero-cost seam.

Groups
------
* **Workloads & traces** — PARSEC profiles, trace synthesis, the CPU
  front-end and trace transforms/statistics; the chunk-first
  :class:`TraceSource` protocol (file readers, generator sources, the
  chunk-invariant :func:`scan_source` digest and the
  content-addressed :class:`TraceStore`).
* **Machine specs** — memory-technology specs and the hybrid machine.
* **Simulation** — the manager/policy substrate and the one-shot
  :func:`simulate` entry point for custom policies.
* **Policies** — the registry and the policy base class.
* **Experiments** — declarative :class:`RunSpec`, the parallel
  executor with its persistent cache, the figure/table/claims
  pipeline and the parameter sweeps.
* **Analytic engine** — the closed-form estimator behind
  ``RunSpec(engine="analytic")``: workload profiling, the Che/Markov
  building blocks and the per-policy estimators.
* **Sampled engine** — the SHARDS-style spatial page sampler behind
  ``RunSpec(engine="sampled")``: the sampling configuration, the
  summary/interval types that ride on :class:`RunResult`, and the
  trace-level membership primitives.
* **Observability** — typed event streams: config, bus, sinks and the
  serialisable summaries that ride on :class:`RunResult`.
* **Serving** — the resident ``repro serve`` service: the
  transport-free :class:`ReproService`, the HTTP server and the
  blocking client.
"""

from __future__ import annotations

# --- Workloads & traces ----------------------------------------------
from repro.cpu import cotson_hierarchy, filter_trace, synthesize_cpu_trace
from repro.cpu.filter import filter_chunks
from repro.trace import Trace, characterize
from repro.trace.source import (
    DEFAULT_CHUNK_REQUESTS,
    IterableTraceSource,
    SourceSpec,
    TraceSource,
    TraceStore,
    as_source,
    materialize,
    open_trace_source,
    scan_source,
)
from repro.trace.transform import densify
from repro.workloads import parsec_workload
from repro.workloads.parsec import PROFILES, WORKLOAD_NAMES, WorkloadInstance

# --- Machine specs ---------------------------------------------------
from repro.memory import (
    HybridMemorySpec,
    dram_spec,
    hdd_spec,
    pcm_spec,
    sttram_spec,
)
from repro.memory.wear_leveling import replay_writes

# --- Simulation substrate --------------------------------------------
from repro.core.config import MigrationConfig
from repro.core.lru import LRUQueue
from repro.mmu import MemoryManager, PageLocation, RunResult, simulate

# --- Policies --------------------------------------------------------
from repro.policies import (
    HybridMemoryPolicy,
    available_policies,
    policy_factory,
    register_policy,
)

# --- Experiments -----------------------------------------------------
from repro.experiments.claims import claims_hold, verify_claims
from repro.experiments.executor import (
    DEFAULT_CACHE_DIR,
    ExecutorError,
    ExecutorStats,
    ParallelExecutor,
    ResultCache,
)
from repro.experiments.figures import FIGURE_BUILDERS, build_figure
from repro.experiments.report import figure_summary, render_figure, render_table
from repro.experiments.runner import CORE_POLICIES, ExperimentRunner
from repro.experiments.runspec import ENGINES, RunSpec
from repro.experiments.sweep import (
    AdaptiveComparison,
    SweepPoint,
    adaptive_comparison,
    dram_ratio_sweep,
    threshold_sweep,
    window_sweep,
)
from repro.experiments.tables import table_ii, table_iii, table_iv

# --- Serving ---------------------------------------------------------
from repro.serve import ReproServer, ReproService, ServeClient, serve

# --- Analytic engine -------------------------------------------------
from repro.model import (
    ANALYTIC_POLICIES,
    UnsupportedPolicyError,
    WorkloadProfile,
    characteristic_time,
    estimate_run,
    estimate_spec,
    profile_trace,
    profile_workload,
    promotion_probability,
    supports_policy,
    survival_probability,
)

# --- Sampled engine --------------------------------------------------
from repro.sampling import MetricInterval, SamplingConfig, SamplingSummary
from repro.trace.sampling import subset_trace

# --- Observability ---------------------------------------------------
from repro.obs import (
    BeneficialMigrationClassifier,
    BufferSink,
    EpochEvent,
    EventBus,
    EventConfig,
    EventSummary,
    EvictionEvent,
    IntervalAggregator,
    IntervalLedger,
    IntervalMetrics,
    MigrationEvent,
    MigrationLedger,
    PageFaultEvent,
    Sink,
    decode_event,
    encode_event,
)

__all__ = [
    # workloads & traces
    "DEFAULT_CHUNK_REQUESTS",
    "IterableTraceSource",
    "PROFILES",
    "SourceSpec",
    "Trace",
    "TraceSource",
    "TraceStore",
    "WORKLOAD_NAMES",
    "WorkloadInstance",
    "as_source",
    "characterize",
    "cotson_hierarchy",
    "densify",
    "filter_chunks",
    "filter_trace",
    "materialize",
    "open_trace_source",
    "parsec_workload",
    "scan_source",
    "synthesize_cpu_trace",
    # machine specs
    "HybridMemorySpec",
    "dram_spec",
    "hdd_spec",
    "pcm_spec",
    "replay_writes",
    "sttram_spec",
    # simulation substrate
    "LRUQueue",
    "MemoryManager",
    "MigrationConfig",
    "PageLocation",
    "RunResult",
    "simulate",
    # policies
    "HybridMemoryPolicy",
    "available_policies",
    "policy_factory",
    "register_policy",
    # experiments
    "AdaptiveComparison",
    "CORE_POLICIES",
    "DEFAULT_CACHE_DIR",
    "ENGINES",
    "ExecutorError",
    "ExecutorStats",
    "ExperimentRunner",
    "FIGURE_BUILDERS",
    "ParallelExecutor",
    "ResultCache",
    "RunSpec",
    "SweepPoint",
    "adaptive_comparison",
    "build_figure",
    "claims_hold",
    "dram_ratio_sweep",
    "figure_summary",
    "render_figure",
    "render_table",
    "table_ii",
    "table_iii",
    "table_iv",
    "threshold_sweep",
    "verify_claims",
    "window_sweep",
    # serving
    "ReproServer",
    "ReproService",
    "ServeClient",
    "serve",
    # analytic engine
    "ANALYTIC_POLICIES",
    "UnsupportedPolicyError",
    "WorkloadProfile",
    "characteristic_time",
    "estimate_run",
    "estimate_spec",
    "profile_trace",
    "profile_workload",
    "promotion_probability",
    "supports_policy",
    "survival_probability",
    # sampled engine
    "MetricInterval",
    "SamplingConfig",
    "SamplingSummary",
    "subset_trace",
    # observability
    "BeneficialMigrationClassifier",
    "BufferSink",
    "EpochEvent",
    "EventBus",
    "EventConfig",
    "EventSummary",
    "EvictionEvent",
    "IntervalAggregator",
    "IntervalLedger",
    "IntervalMetrics",
    "MigrationEvent",
    "MigrationLedger",
    "PageFaultEvent",
    "Sink",
    "decode_event",
    "encode_event",
]
