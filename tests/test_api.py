"""Tests for the stable public facade (:mod:`repro.api`)."""

from __future__ import annotations

import ast
from pathlib import Path

import repro.api as api

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_all_names_resolve():
    missing = [name for name in api.__all__ if not hasattr(api, name)]
    assert not missing


def test_all_is_sorted_within_groups_and_duplicate_free():
    assert len(set(api.__all__)) == len(api.__all__)


def test_facade_covers_every_example_import():
    """The examples are the facade's contract: everything they pull
    from ``repro.api`` must be exported (not merely importable)."""
    exported = set(api.__all__)
    for script in EXAMPLES.glob("*.py"):
        tree = ast.parse(script.read_text(), filename=str(script))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.api":
                names = {alias.name for alias in node.names}
                assert names <= exported, (
                    f"{script.name} imports {sorted(names - exported)} "
                    "which repro.api does not export"
                )


def test_facade_reexports_are_the_canonical_objects():
    from repro.experiments.runspec import RunSpec
    from repro.obs import EventConfig

    assert api.RunSpec is RunSpec
    assert api.EventConfig is EventConfig


def test_facade_exports_the_engine_surface():
    import repro.model as model
    from repro.experiments.runspec import ENGINES

    assert api.ENGINES is ENGINES
    assert api.ANALYTIC_POLICIES is model.ANALYTIC_POLICIES
    assert api.estimate_spec is model.estimate_spec
    assert api.estimate_run is model.estimate_run
    assert api.profile_workload is model.profile_workload
    assert api.WorkloadProfile is model.WorkloadProfile
    assert api.UnsupportedPolicyError is model.UnsupportedPolicyError
    assert set(ENGINES) == {"simulate", "analytic", "sampled"}


def test_facade_exports_the_sampling_surface():
    import repro.sampling as sampling
    import repro.trace.sampling as trace_sampling

    assert api.SamplingConfig is sampling.SamplingConfig
    assert api.SamplingSummary is sampling.SamplingSummary
    assert api.MetricInterval is sampling.MetricInterval
    assert api.subset_trace is trace_sampling.subset_trace
