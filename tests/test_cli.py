"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.mmu.simulator import SANITIZE_ENV, sanitize_default
from repro.trace.io import save_trace, write_text_trace
from repro.trace.trace import Trace


@pytest.fixture
def trace_files(tmp_path):
    rng = np.random.default_rng(0)
    trace = Trace(rng.integers(0, 64, 3000), rng.random(3000) < 0.3,
                  name="cli-demo")
    text_path = tmp_path / "demo.trc"
    npz_path = tmp_path / "demo.npz"
    write_text_trace(trace, text_path)
    save_trace(trace, npz_path)
    return str(text_path), str(npz_path)


class TestListingCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out
        assert "streamcluster" in out

    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "proposed" in out
        assert "clock-dwf" in out
        assert "pdram" in out


class TestCharacterize:
    def test_text_trace(self, trace_files, capsys):
        text_path, _ = trace_files
        assert main(["characterize", text_path]) == 0
        out = capsys.readouterr().out
        assert "3,000" in out
        assert "distinct pages" in out

    def test_npz_trace(self, trace_files, capsys):
        _, npz_path = trace_files
        assert main(["characterize", npz_path]) == 0
        assert "working set" in capsys.readouterr().out


class TestSimulate:
    def test_parsec_workload(self, capsys):
        assert main(["simulate", "--workload", "bodytrack",
                     "--policy", "proposed"]) == 0
        out = capsys.readouterr().out
        assert "bodytrack" in out
        assert "APPR" in out
        assert "hit ratio" in out

    def test_trace_file(self, trace_files, capsys):
        text_path, _ = trace_files
        assert main(["simulate", "--trace", text_path,
                     "--policy", "clock-dwf", "--warmup", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "clock-dwf" in out

    def test_baseline_spec_switch(self, trace_files, capsys):
        text_path, _ = trace_files
        assert main(["simulate", "--trace", text_path,
                     "--policy", "dram-only", "--warmup", "0"]) == 0
        out = capsys.readouterr().out
        assert "/ 0.000" in out  # zero NVM hit share


class TestFiguresAndTables:
    def test_single_figure_small_seeded(self, capsys):
        # use the tiny cli-level path: full-scale is exercised in
        # benchmarks; here we just prove the wiring end to end
        assert main(["figure", "fig2b"]) == 0
        out = capsys.readouterr().out
        assert "Normalized AMAT" in out
        assert "G-Mean" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_sweep(self, capsys):
        assert main(["sweep", "threshold", "--workload", "raytrace"]) == 0
        out = capsys.readouterr().out
        assert "read_threshold" in out


class TestRun:
    ARGS = ["run", "--workload", "raytrace", "--policy", "proposed"]

    def test_grid_through_executor(self, capsys):
        assert main([*self.ARGS, "--no-cache", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "raytrace" in out
        assert "simulated 1" in out

    def test_persistent_cache_round_trip(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path)]
        assert main([*self.ARGS, *cache, "--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert "simulated 1, cache hits 0, cache misses 1" in first
        assert main([*self.ARGS, *cache, "--jobs", "1"]) == 0
        second = capsys.readouterr().out
        assert "simulated 0, cache hits 1, cache misses 0" in second
        # cached metrics identical to the freshly-simulated ones
        assert second.splitlines()[:4] == first.splitlines()[:4]


    def test_sanitize_is_scoped_to_the_command(self, monkeypatch, capsys):
        # --sanitize must not outlive its command: a leaked flag would
        # sanitize (and so stop deriving the dram-only baseline in)
        # every later run of the process.
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert main([*self.ARGS, "--engine", "analytic", "--no-cache",
                     "--jobs", "1", "--sanitize"]) == 0
        assert not sanitize_default()
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert main([*self.ARGS, "--engine", "analytic", "--no-cache",
                     "--jobs", "1", "--sanitize"]) == 0
        assert sanitize_default()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "doom"])
