"""Evaluation harness: runners, figure/table builders, sweeps, reports."""

from repro.experiments.figures import (
    FIGURE_BUILDERS,
    build_figure,
    figure_1,
    figure_2a,
    figure_2b,
    figure_2c,
    figure_4a,
    figure_4b,
    figure_4c,
)
from repro.experiments.claims import ClaimResult, claims_hold, verify_claims
from repro.experiments.executor import (
    DEFAULT_CACHE_DIR,
    ExecutorError,
    ExecutorStats,
    ParallelExecutor,
    ResultCache,
    WorkerFailure,
    code_version,
)
from repro.experiments.runspec import SPEC_TRANSFORMS, RunSpec
from repro.experiments.report import figure_summary, render_figure, render_table
from repro.experiments.results import (
    ARITH_MEAN_LABEL,
    GEO_MEAN_LABEL,
    FigureData,
    StackedBar,
    WorkloadRuns,
    arith_mean,
    geo_mean,
)
from repro.experiments.runner import CORE_POLICIES, ExperimentRunner
from repro.experiments.sweep import (
    AdaptiveComparison,
    SweepPoint,
    adaptive_comparison,
    dram_ratio_sweep,
    threshold_sweep,
    window_sweep,
)
from repro.experiments.tables import TableIIIRow, table_ii, table_iii, table_iv

__all__ = [
    "ARITH_MEAN_LABEL",
    "ClaimResult",
    "DEFAULT_CACHE_DIR",
    "ExecutorError",
    "ExecutorStats",
    "ParallelExecutor",
    "ResultCache",
    "RunSpec",
    "SPEC_TRANSFORMS",
    "WorkerFailure",
    "claims_hold",
    "code_version",
    "verify_claims",
    "AdaptiveComparison",
    "CORE_POLICIES",
    "ExperimentRunner",
    "FIGURE_BUILDERS",
    "FigureData",
    "GEO_MEAN_LABEL",
    "StackedBar",
    "SweepPoint",
    "TableIIIRow",
    "WorkloadRuns",
    "adaptive_comparison",
    "arith_mean",
    "build_figure",
    "dram_ratio_sweep",
    "figure_1",
    "figure_2a",
    "figure_2b",
    "figure_2c",
    "figure_4a",
    "figure_4b",
    "figure_4c",
    "figure_summary",
    "geo_mean",
    "render_figure",
    "render_table",
    "table_ii",
    "table_iii",
    "table_iv",
    "threshold_sweep",
    "window_sweep",
]
