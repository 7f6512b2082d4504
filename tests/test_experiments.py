"""Tests for the evaluation harness: results, runner, figures, tables,
report rendering and sweeps.

Heavier grid computations run at a reduced scale so the whole file
stays fast; the full-scale shape checks live in the benchmarks.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import FIGURE_BUILDERS, build_figure
from repro.experiments.report import figure_summary, render_figure, render_table
from repro.experiments.results import (
    ARITH_MEAN_LABEL,
    GEO_MEAN_LABEL,
    FigureData,
    arith_mean,
    geo_mean,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweep import (
    adaptive_comparison,
    dram_ratio_sweep,
    threshold_sweep,
    window_sweep,
)
from repro.experiments.tables import table_ii, table_iii, table_iv


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    """A reduced-scale runner over three representative workloads."""
    return ExperimentRunner(
        request_scale=1 / 4000,
        footprint_scale=1 / 256,
        workloads=("bodytrack", "canneal", "streamcluster"),
    )


class TestMeans:
    def test_geo_mean(self):
        assert geo_mean([1, 4]) == pytest.approx(2.0)
        assert geo_mean([2, 2, 2]) == pytest.approx(2.0)
        assert geo_mean([]) == 0.0

    def test_geo_mean_survives_zero(self):
        assert geo_mean([0.0, 1.0]) >= 0.0

    def test_arith_mean(self):
        assert arith_mean([1, 2, 3]) == pytest.approx(2.0)
        assert arith_mean([]) == 0.0


class TestFigureData:
    def _figure(self) -> FigureData:
        figure = FigureData("figX", "demo", "norm", ("A", "B"))
        figure.add_bar("w1", A=0.5, B=0.5)
        figure.add_bar("w2", A=2.0, B=2.0)
        return figure

    def test_totals(self):
        figure = self._figure()
        assert figure.totals() == {"w1": 1.0, "w2": 4.0}

    def test_unknown_segment_rejected(self):
        figure = self._figure()
        with pytest.raises(ValueError):
            figure.add_bar("w3", C=1.0)

    def test_means_appended(self):
        figure = self._figure()
        figure.append_means()
        labels = [bar.label for bar in figure.bars]
        assert GEO_MEAN_LABEL in labels
        assert ARITH_MEAN_LABEL in labels
        assert figure.mean_total(GEO_MEAN_LABEL) == pytest.approx(2.0)
        assert figure.mean_total(ARITH_MEAN_LABEL) == pytest.approx(2.5)

    def test_mean_bars_preserve_segment_shares(self):
        figure = self._figure()
        figure.append_means()
        gmean = next(b for b in figure.bars if b.label == GEO_MEAN_LABEL)
        assert gmean.segments["A"] == pytest.approx(gmean.segments["B"])

    def test_grouped_means(self):
        figure = FigureData("figY", "demo", "norm", ("A",))
        figure.add_bar("w1", group="left", A=1.0)
        figure.add_bar("w1", group="right", A=3.0)
        figure.append_means()
        assert figure.mean_total(GEO_MEAN_LABEL, group="left") == \
            pytest.approx(1.0)
        assert figure.mean_total(GEO_MEAN_LABEL, group="right") == \
            pytest.approx(3.0)

    def test_mean_total_requires_append(self):
        with pytest.raises(KeyError):
            self._figure().mean_total()


class TestRunner:
    def test_submit_memoises(self, runner):
        spec = runner.spec_for("bodytrack", "proposed")
        first = runner.submit([spec])[0]
        second = runner.submit([spec])[0]
        assert first is second

    def test_baseline_specs_single_module(self, runner):
        dram_run, nvm_run, hybrid = runner.submit([
            runner.spec_for("bodytrack", "dram-only"),
            runner.spec_for("bodytrack", "nvm-only"),
            runner.spec_for("bodytrack", "proposed"),
        ])
        assert dram_run.spec.nvm_pages == 0
        assert nvm_run.spec.dram_pages == 0
        assert dram_run.spec.total_pages == hybrid.spec.total_pages

    def test_grid_covers_requested_cells(self, runner):
        grid = runner.grid(policies=("dram-only", "proposed"))
        assert set(grid) == {"bodytrack", "canneal", "streamcluster"}
        for runs in grid.values():
            assert set(runs.policies) == {"dram-only", "proposed"}


class TestFigures:
    @pytest.mark.parametrize("figure_id", sorted(FIGURE_BUILDERS))
    def test_every_figure_builds(self, runner, figure_id):
        figure = build_figure(figure_id, runner)
        assert figure.figure_id == figure_id
        assert figure.bars
        for bar in figure.bars:
            assert bar.total >= 0.0
        # every non-mean bar is one of the runner's workloads
        labels = {bar.label for bar in figure.bars}
        assert labels & set(runner.workload_names)

    def test_unknown_figure_rejected(self, runner):
        with pytest.raises(KeyError):
            build_figure("fig9z", runner)

    def test_fig1_bars_sum_to_one(self, runner):
        figure = build_figure("fig1", runner)
        for bar in figure.bars:
            assert bar.total == pytest.approx(1.0, abs=1e-6)

    def test_fig4a_has_two_groups(self, runner):
        figure = build_figure("fig4a", runner)
        groups = {bar.group for bar in figure.bars}
        assert groups == {"clock-dwf", "proposed"}

    def test_fig4c_normalises_to_clock_dwf(self, runner):
        figure = build_figure("fig4c", runner)
        dwf, proposed = runner.submit([
            runner.spec_for("bodytrack", "clock-dwf"),
            runner.spec_for("bodytrack", "proposed"),
        ])
        expected = (proposed.performance.memory_time
                    / dwf.performance.memory_time)
        assert figure.totals()["bodytrack"] == pytest.approx(expected)


class TestTables:
    def test_table_iv_rows(self):
        rows = table_iv()
        assert rows[0] == ("DRAM", "50/50", "3.2/3.2", "1")
        assert rows[1][0] == "NVM (PCM)"
        assert rows[1][1] == "100/350"
        assert rows[1][2] == "6.4/32.0"

    def test_table_ii_mentions_table_constants(self):
        rows = dict(table_ii())
        assert "32KB" in rows["L1 Data Cache"]
        assert "2MB" in rows["Last-Level Cache"]
        assert "5 milliseconds" in rows["Secondary Storage"]

    def test_table_iii_rows_cover_selected_workloads(self):
        rows = table_iii(request_scale=1 / 4000, footprint_scale=1 / 256,
                         names=("bodytrack", "vips"))
        assert [row.workload for row in rows] == ["bodytrack", "vips"]
        for row in rows:
            assert row.write_ratio_error < 8.0
            assert row.measured_reads > 0


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_figure_mentions_all_bars(self, runner):
        figure = build_figure("fig2b", runner)
        text = render_figure(figure)
        for bar in figure.bars:
            assert bar.label in text
        assert figure.title in text

    def test_figure_summary_compact(self, runner):
        figure = build_figure("fig2a", runner)
        summary = figure_summary(figure)
        assert summary.startswith("fig2a:")
        assert "G-Mean" in summary


class TestSweeps:
    _SCALE = dict(seed=7)

    def test_threshold_sweep_monotone_migrations(self):
        points = threshold_sweep("raytrace", thresholds=(1, 8, 64))
        migrations = [point.migrations_to_dram for point in points]
        assert migrations[0] > migrations[-1]
        assert all(p.parameter == "read_threshold" for p in points)

    def test_window_sweep_runs(self):
        points = window_sweep("bodytrack", fractions=(0.05, 0.5))
        assert len(points) == 2
        assert all(p.amat_ns > 0 for p in points)

    def test_dram_ratio_sweep_static_power_rises(self):
        points = dram_ratio_sweep("bodytrack", ratios=(0.1, 0.5))
        # more DRAM -> faster requests but pricier background power;
        # at minimum the sweep must produce distinct machines
        assert points[0].appr_nj != points[1].appr_nj

    def test_adaptive_comparison(self):
        comparison = adaptive_comparison("raytrace")
        assert comparison.workload == "raytrace"
        assert 0.0 <= comparison.promotion_efficiency <= 1.0
        # on the bait workload, adaptation must cut migrations
        assert comparison.adaptive.migrations_to_dram <= \
            comparison.fixed.migrations_to_dram
