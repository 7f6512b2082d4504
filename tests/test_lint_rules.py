"""Tests for the custom lint pass (repro.analysis rules R002-R005, R011).

The R010/R012 classes at the end keep the cases of two retired rules,
run against the runtime sanitizer that now enforces their contract.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import lint_paths
from repro.analysis.rules import DEFAULT_RULES
from repro.analysis.sanitizer import SanitizerError
from repro.cli import main
from repro.memory.specs import HybridMemorySpec
from repro.mmu.manager import MemoryManager
from repro.mmu.page import PageLocation
from repro.mmu.simulator import simulate
from repro.policies.base import HybridMemoryPolicy
from repro.policies.registry import policy_factory
from repro.trace.trace import Trace
from repro.workloads.synthetic import zipf_workload


def _lint_snippet(tmp_path: Path, source: str,
                  filename: str = "mod.py", select=None):
    """Write ``source`` into ``tmp_path`` and lint just that tree."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path], select=select)


# ----------------------------------------------------------------------
# R002 — determinism
# ----------------------------------------------------------------------
class TestR002:
    @pytest.mark.parametrize("snippet, fragment", [
        ("import random\n", "process-global"),
        ("from random import choice\n", "process-global"),
        ("import time\nstamp = time.time()\n", "wall-clock"),
        ("from datetime import datetime\nnow = datetime.now()\n",
         "wall-clock"),
        ("import numpy as np\nnp.random.seed(1)\n", "legacy global RNG"),
        ("import numpy as np\nx = np.random.rand(3)\n",
         "legacy global RNG"),
        ("import numpy as np\nrng = np.random.default_rng()\n",
         "without a seed"),
        ("from numpy.random import default_rng\nrng = default_rng()\n",
         "without a seed"),
    ])
    def test_flagged(self, tmp_path, snippet, fragment):
        findings = _lint_snippet(tmp_path, snippet, select=["R002"])
        assert len(findings) == 1, findings
        assert fragment in findings[0].message

    @pytest.mark.parametrize("snippet", [
        "import numpy as np\nrng = np.random.default_rng(7)\n",
        "import numpy as np\nseq = np.random.SeedSequence(3)\n",
        "import time\nelapsed = time.perf_counter()\n",
    ])
    def test_seeded_usage_clean(self, tmp_path, snippet):
        assert _lint_snippet(tmp_path, snippet, select=["R002"]) == []


# ----------------------------------------------------------------------
# R003 — mutable defaults
# ----------------------------------------------------------------------
class TestR003:
    @pytest.mark.parametrize("snippet", [
        "def f(x=[]):\n    return x\n",
        "def f(x={}):\n    return x\n",
        "def f(*, x=set()):\n    return x\n",
        "def f(x=list()):\n    return x\n",
        "g = lambda x=[]: x\n",
    ])
    def test_flagged(self, tmp_path, snippet):
        findings = _lint_snippet(tmp_path, snippet, select=["R003"])
        assert len(findings) == 1
        assert findings[0].rule_id == "R003"

    def test_immutable_defaults_clean(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def f(x=None, y=(), z=0, name="n"):
                return x, y, z, name
        """, select=["R003"])
        assert findings == []


# ----------------------------------------------------------------------
# R004 — registry coverage
# ----------------------------------------------------------------------
_POLICIES_SOURCE = """
class ListedPolicy(HybridMemoryPolicy):
    name = "listed"

    def access(self, page, is_write):
        self.mm.record_request(is_write)


class OrphanPolicy(HybridMemoryPolicy):
    name = "orphan"

    def access(self, page, is_write):
        self.mm.record_request(is_write)
"""


class TestR004:
    def test_unregistered_policy_flagged(self, tmp_path):
        (tmp_path / "policies.py").write_text(
            textwrap.dedent(_POLICIES_SOURCE), encoding="utf-8")
        (tmp_path / "registry.py").write_text(
            'FACTORIES = {"listed": ListedPolicy}\n', encoding="utf-8")
        findings = lint_paths([tmp_path], select=["R004"])
        assert len(findings) == 1
        assert "OrphanPolicy" in findings[0].message
        assert "'orphan'" in findings[0].message

    def test_registration_by_name_string(self, tmp_path):
        (tmp_path / "policies.py").write_text(
            textwrap.dedent(_POLICIES_SOURCE), encoding="utf-8")
        # Referencing the policies' *name* strings also counts.
        (tmp_path / "registry.py").write_text(
            'KNOWN = ["listed", "orphan"]\n', encoding="utf-8")
        assert lint_paths([tmp_path], select=["R004"]) == []

    def test_without_registry_rule_is_silent(self, tmp_path):
        (tmp_path / "policies.py").write_text(
            textwrap.dedent(_POLICIES_SOURCE), encoding="utf-8")
        assert lint_paths([tmp_path], select=["R004"]) == []


# ----------------------------------------------------------------------
# R005 — magic numbers in the device layer
# ----------------------------------------------------------------------
class TestR005:
    def test_magic_latency_in_memory_layer_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            spec = DeviceSpec(read_latency=5e-08, write_energy=W)
        """, filename="memory/devices_x.py", select=["R005"])
        assert len(findings) == 1
        assert "read_latency" in findings[0].message

    def test_named_constants_clean(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            spec = DeviceSpec(
                read_latency=50 * NANOSECOND,
                write_energy=ZERO_ENERGY,
                access_latency=0,
            )
        """, filename="memory/devices_x.py", select=["R005"])
        assert findings == []

    def test_outside_memory_layer_not_constrained(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            spec = DeviceSpec(read_latency=5e-08)
        """, filename="policies/tuning.py", select=["R005"])
        assert findings == []


class TestR011:
    def test_direct_construction_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            from repro.mmu.simulator import HybridMemorySimulator
            sim = HybridMemorySimulator(spec, factory)
        """, filename="scripts/ad_hoc.py", select=["R011"])
        assert len(findings) == 1
        assert "RunSpec.execute()" in findings[0].message

    def test_attribute_call_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            import repro.mmu.simulator as sim_mod
            sim = sim_mod.HybridMemorySimulator(spec, factory)
        """, filename="scripts/ad_hoc.py", select=["R011"])
        assert len(findings) == 1

    def test_engine_packages_exempt(self, tmp_path):
        source = """
            sim = HybridMemorySimulator(spec, factory)
        """
        for filename in ("experiments/runspec_x.py", "mmu/driver.py"):
            assert _lint_snippet(tmp_path, source, filename=filename,
                                 select=["R011"]) == []

    def test_other_calls_clean(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            result = RunSpec("dedup").execute()
        """, filename="scripts/ad_hoc.py", select=["R011"])
        assert findings == []


# ----------------------------------------------------------------------
# Driver behaviour
# ----------------------------------------------------------------------
class TestLintDriver:
    def test_syntax_error_becomes_r000(self, tmp_path):
        findings = _lint_snippet(tmp_path, "def broken(:\n")
        assert [f.rule_id for f in findings] == ["R000"]

    def test_findings_sorted_by_location(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def late(x=[]):
                return x

            def early(y={}):
                return y
        """, select=["R003"])
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_noqa_silences_only_listed_rules(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            import random  # noqa: r003, R002

            def f(x=[]):  # noqa: R002
                return x
        """)
        assert [f.rule_id for f in findings] == ["R003"]

    def test_repo_source_tree_is_clean(self):
        src_root = Path(repro.__file__).parent
        findings = lint_paths([src_root])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestLintCli:
    def test_clean_path_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("VALUE = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 0

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\n\n\ndef f(x=[]):\n    return x\n",
            encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R002" in out and "R003" in out
        assert "2 findings" in out

    def test_bad_policy_file_fails_lint(self, tmp_path, capsys):
        (tmp_path / "bad_policy.py").write_text(
            textwrap.dedent(_POLICIES_SOURCE), encoding="utf-8")
        (tmp_path / "registry.py").write_text(
            'FACTORIES = {"listed": ListedPolicy}\n', encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R004" in out and "OrphanPolicy" in out

    def test_select_restricts_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\n\n\ndef f(x=[]):\n    return x\n",
            encoding="utf-8")
        assert main(["lint", str(tmp_path), "--select", "R003"]) == 1
        out = capsys.readouterr().out
        assert "R003" in out and "R002" not in out

    def test_missing_path_is_usage_error(self, tmp_path):
        assert main(["lint", str(tmp_path / "nope.txt")]) == 2

    @pytest.mark.parametrize("select", [
        ["R999"], ["R001"], ["R010"], ["R013"], ["R003", "R999"],
    ])
    def test_unknown_select_id_is_usage_error(self, tmp_path, capsys,
                                              select):
        # A typo or a retired rule id must not pass by checking nothing.
        (tmp_path / "bad.py").write_text("def f(x=[]):\n    return x\n",
                                         encoding="utf-8")
        assert main(["lint", str(tmp_path), "--select", *select]) == 2
        assert f"unknown rule id(s): {select[-1]}" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in DEFAULT_RULES:
            assert rule.rule_id in out


# ----------------------------------------------------------------------
# R010 / R012 — the accounting contract, now held at run time
# ----------------------------------------------------------------------
# R010 (``access`` calls ``mm.record_request`` exactly once) and R012
# (the same for every request of an ``access_batch`` kernel) left the
# linter: the sanitizer checks the contract after every request, on
# both the per-request and the batched drive path.  Each case below is
# the policy shape the lint rule used to judge, run sanitized.
def _walk_trace() -> Trace:
    """36 requests over 18 pages on 12 NVM frames: a forward pass of
    faults and evictions, then a backward pass of 12 hits, 6 faults."""
    pairs = [(page, page % 3 == 0) for page in range(18)]
    pairs += [(page, page % 2 == 0) for page in reversed(range(18))]
    return Trace.from_pairs(pairs, name="walk")


def _serve(mm: MemoryManager, page: int, is_write: bool) -> None:
    """Correct NVM-only servicing of one already-recorded request."""
    if mm.is_resident(page):
        mm.serve_hit(page, is_write)
        return
    if not mm.has_free(PageLocation.NVM):
        _make_room(mm)
    mm.fault_fill(page, PageLocation.NVM, is_write)


def _make_room(mm: MemoryManager) -> None:
    victim = next(entry.page for entry in mm.page_table.entries()
                  if entry.location is PageLocation.NVM)
    mm.evict_to_disk(victim)


def _run_sanitized(spec, policy_class, batch: bool = False):
    return simulate(_walk_trace(), spec, policy_class, sanitize=True,
                    batch=batch)


class _CountedPolicy(HybridMemoryPolicy):
    name = "test-counted"

    def access(self, page: int, is_write: bool) -> None:
        self.mm.record_request(is_write)
        _serve(self.mm, page, is_write)


class TestR010:
    def test_clean_policy_passes(self, small_spec):
        result = _run_sanitized(small_spec, _CountedPolicy)
        assert result.accounting.total_requests == len(_walk_trace())

    def test_missing_call_flagged(self, small_spec):
        class BadPolicy(HybridMemoryPolicy):
            name = "bad"

            def access(self, page: int, is_write: bool) -> None:
                _serve(self.mm, page, is_write)

        with pytest.raises(SanitizerError, match="record_request 0 times"):
            _run_sanitized(small_spec, BadPolicy)

    def test_conditional_skip_flagged(self, small_spec):
        class SometimesPolicy(HybridMemoryPolicy):
            name = "sometimes"

            def access(self, page: int, is_write: bool) -> None:
                if is_write:
                    self.mm.record_request(is_write)
                _serve(self.mm, page, is_write)

        # The walk opens with a write to page 0; the first read skips.
        with pytest.raises(SanitizerError,
                           match=r"page=1, is_write=False\) called "
                                 "record_request 0 times"):
            _run_sanitized(small_spec, SometimesPolicy)

    def test_double_call_flagged(self, small_spec):
        class EagerPolicy(HybridMemoryPolicy):
            name = "eager"

            def access(self, page: int, is_write: bool) -> None:
                self.mm.record_request(is_write)
                self.mm.record_request(is_write)
                _serve(self.mm, page, is_write)

        with pytest.raises(SanitizerError, match="record_request 2 times"):
            _run_sanitized(small_spec, EagerPolicy)

    def test_transitive_subclass_checked(self, small_spec):
        class Leaf(_CountedPolicy):
            name = "leaf"

            def access(self, page: int, is_write: bool) -> None:
                _serve(self.mm, page, is_write)

        _run_sanitized(small_spec, _CountedPolicy)
        with pytest.raises(SanitizerError, match="record_request 0 times"):
            _run_sanitized(small_spec, Leaf)


class TestR012:
    def test_deferred_counter_kernel_passes(self, small_spec):
        class FastPolicy(_CountedPolicy):
            name = "fast"

            def access_batch(self, pages: list[int],
                             writes: list[bool]) -> None:
                mm = self.mm
                record_request = mm.record_request
                read_requests = 0
                write_requests = 0
                try:
                    for page, is_write in zip(pages, writes):
                        if not mm.is_resident(page):
                            record_request(is_write)
                            _serve(mm, page, is_write)
                            continue
                        if is_write:
                            write_requests += 1
                        else:
                            read_requests += 1
                        mm.serve_hit(page, is_write)
                finally:
                    mm.accounting.read_requests += read_requests
                    mm.accounting.write_requests += write_requests

        batched = _run_sanitized(small_spec, FastPolicy, batch=True)
        looped = _run_sanitized(small_spec, FastPolicy, batch=False)
        assert batched.accounting.snapshot() == looped.accounting.snapshot()

    def test_delegating_loop_passes(self, small_spec):
        class PlainPolicy(_CountedPolicy):
            name = "plain"

            def access_batch(self, pages: list[int],
                             writes: list[bool]) -> None:
                access = self.access
                for page, is_write in zip(pages, writes):
                    access(page, is_write)

        result = _run_sanitized(small_spec, PlainPolicy, batch=True)
        assert result.accounting.total_requests == len(_walk_trace())

    def test_unaccounted_fast_path_flagged(self, small_spec):
        class LeakyPolicy(_CountedPolicy):
            name = "leaky"

            def access_batch(self, pages: list[int],
                             writes: list[bool]) -> None:
                mm = self.mm
                for page, is_write in zip(pages, writes):
                    if mm.is_resident(page):
                        mm.serve_hit(page, is_write)
                    else:
                        mm.record_request(is_write)
                        _serve(mm, page, is_write)

        # The forward pass only faults; the backward pass opens with
        # a resident hit on page 17.
        with pytest.raises(SanitizerError,
                           match=r"page=17, is_write=False\) called "
                                 "record_request 0 times"):
            _run_sanitized(small_spec, LeakyPolicy, batch=True)
        _run_sanitized(small_spec, LeakyPolicy, batch=False)

    def test_never_accounting_flagged(self, small_spec):
        class SilentPolicy(_CountedPolicy):
            name = "silent"

            def access_batch(self, pages: list[int],
                             writes: list[bool]) -> None:
                for page, is_write in zip(pages, writes):
                    _serve(self.mm, page, is_write)

        with pytest.raises(SanitizerError, match="record_request 0 times"):
            _run_sanitized(small_spec, SilentPolicy, batch=True)

    def test_double_accounting_flagged(self, small_spec):
        class GreedyPolicy(_CountedPolicy):
            name = "greedy"

            def access_batch(self, pages: list[int],
                             writes: list[bool]) -> None:
                mm = self.mm
                read_requests = 0
                write_requests = 0
                try:
                    for page, is_write in zip(pages, writes):
                        mm.record_request(is_write)
                        if is_write:
                            write_requests += 1
                        else:
                            read_requests += 1
                        _serve(mm, page, is_write)
                finally:
                    mm.accounting.read_requests += read_requests
                    mm.accounting.write_requests += write_requests

        with pytest.raises(SanitizerError, match="record_request 2 times"):
            _run_sanitized(small_spec, GreedyPolicy, batch=True)

    def test_flush_and_prologue_not_constrained(self, small_spec):
        # Accounting outside the request loop (the hoisting prologue,
        # the ``finally`` flush) lands once per request all the same.
        class FlushPolicy(_CountedPolicy):
            name = "flush"

            def access_batch(self, pages: list[int],
                             writes: list[bool]) -> None:
                mm = self.mm
                record_request = mm.record_request
                write_requests = 0
                try:
                    for page, is_write in zip(pages, writes):
                        if is_write:
                            write_requests += 1
                        else:
                            record_request(False)
                        _serve(mm, page, is_write)
                finally:
                    mm.accounting.write_requests += write_requests

        result = _run_sanitized(small_spec, FlushPolicy, batch=True)
        assert result.accounting.write_requests == sum(
            1 for _, is_write in _walk_trace().iter_pairs() if is_write)

    def test_non_request_loop_ignored(self, small_spec):
        # A sweep over internal state before the request loop records
        # nothing and must not be mistaken for request handling.
        class SweepPolicy(_CountedPolicy):
            name = "sweep"

            def access_batch(self, pages: list[int],
                             writes: list[bool]) -> None:
                for entry in self.mm.page_table.entries():
                    entry.copy_dirty = False
                access = self.access
                for page, is_write in zip(pages, writes):
                    access(page, is_write)

        result = _run_sanitized(small_spec, SweepPolicy, batch=True)
        assert result.accounting.total_requests == len(_walk_trace())

    def test_nested_inner_loop_does_not_double_count(self, small_spec):
        # An eviction cascade inside the request loop adds no requests.
        class CascadePolicy(_CountedPolicy):
            name = "cascade"

            def access_batch(self, pages: list[int],
                             writes: list[bool]) -> None:
                mm = self.mm
                for page, is_write in zip(pages, writes):
                    mm.record_request(is_write)
                    if mm.is_resident(page):
                        mm.serve_hit(page, is_write)
                        continue
                    while not mm.has_free(PageLocation.NVM):
                        _make_room(mm)
                    mm.fault_fill(page, PageLocation.NVM, is_write)

        batched = _run_sanitized(small_spec, CascadePolicy, batch=True)
        looped = _run_sanitized(small_spec, CascadePolicy, batch=False)
        assert batched.accounting.snapshot() == looped.accounting.snapshot()

    def test_shipped_kernels_pass(self):
        trace = zipf_workload(pages=96, requests=1_500, alpha=1.1,
                              write_ratio=0.3, seed=5)
        spec = HybridMemorySpec.for_footprint(96)
        kernels = {
            "proposed": spec,
            "clock-dwf": spec,
            "dram-only": spec.as_dram_only(),
            "nvm-only": spec.as_nvm_only(),
        }
        for name, machine in kernels.items():
            batched = simulate(trace, machine, policy_factory(name),
                               sanitize=True, batch=True)
            looped = simulate(trace, machine, policy_factory(name),
                              sanitize=True, batch=False)
            assert batched.accounting.snapshot() \
                == looped.accounting.snapshot(), name
