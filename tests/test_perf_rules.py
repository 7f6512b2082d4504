"""Tests for the perf lint tier (R016-R018): hot regions and rules.

Fixtures exploit the hot-seed discovery directly: a module-level
``filter_trace`` function or a ``*Policy`` class's ``access``/
``access_batch`` method is hot by definition, so snippets named that
way land inside the tier's scope without any scaffolding.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis import lint as lint_mod
from repro.analysis.lint import lint_paths, lint_report
from repro.analysis.perf.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)


def _lint_snippet(tmp_path: Path, source: str,
                  filename: str = "mod.py", select=("R016", "R017", "R018"),
                  perf: bool = True):
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path], select=list(select) if select else None,
                      perf=perf)


# ----------------------------------------------------------------------
# Hot-region discovery
# ----------------------------------------------------------------------
class TestHotRegions:
    def test_cold_function_not_linted(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows, cfg):  # repro: cold
                out = []
                for row in rows:
                    out.append({"kind": "row"})
                return out
        """)
        assert findings == []

    def test_non_hot_function_not_linted(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def summarise(rows):
                out = []
                for row in rows:
                    out.append({"kind": "row"})
                return out
        """)
        assert findings == []

    def test_hotness_propagates_through_calls_with_evidence(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def tally(rows):
                out = []
                for row in rows:
                    out.append({"kind": "row"})
                return out

            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    return tally(pages)
        """)
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule_id == "R016"
        assert any("hot seed" in note for note in finding.evidence)
        assert any("access_batch -> tally" in note
                   for note in finding.evidence)

    def test_cold_function_blocks_traversal(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def helper(rows):
                out = []
                for row in rows:
                    out.append({"kind": "row"})
                return out

            def middle(rows):  # repro: cold
                return helper(rows)

            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    return middle(pages)
        """)
        assert findings == []


# ----------------------------------------------------------------------
# R016 — per-iteration allocation
# ----------------------------------------------------------------------
class TestR016:
    def test_invariant_dict_in_hot_loop_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows, read_cost, write_cost):
                total = 0
                for row in rows:
                    cost = {"read": read_cost, "write": write_cost}
                    total += cost["read"]
                return total
        """)
        assert [f.rule_id for f in findings] == ["R016"]
        assert findings[0].line == 5
        assert "loop-invariant" in findings[0].message

    def test_variant_dict_not_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows):
                out = None
                for row in rows:
                    out = {"row": row}
                return out
        """)
        assert findings == []

    def test_accumulator_display_not_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows):
                out = []
                for row in rows:
                    bucket = []
                    bucket.append(row)
                    out.append(bucket)
                return out
        """)
        assert findings == []

    def test_discarded_comprehension_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows):
                for row in rows:
                    [touch(cell) for cell in row]
        """)
        assert [f.rule_id for f in findings] == ["R016"]
        assert "discarded" in findings[0].message

    def test_invariant_fstring_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows, name):
                out = []
                for row in rows:
                    out.append(f"trace-{name}")
                return out
        """)
        assert [f.rule_id for f in findings] == ["R016"]

    def test_variant_fstring_not_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows):
                out = []
                for row in rows:
                    out.append(f"row-{row}")
                return out
        """)
        assert findings == []

    def test_invariant_lambda_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows, scale):
                out = []
                for row in rows:
                    out.append(sorted(row, key=lambda x: x * scale))
                return out
        """)
        assert [f.rule_id for f in findings] == ["R016"]
        assert "lambda" in findings[0].message

    def test_nested_loop_allocation_attributed_to_inner(self, tmp_path):
        # Invariant w.r.t. the inner loop even though it uses the outer
        # loop's variable: still rebuilt per inner iteration.
        findings = _lint_snippet(tmp_path, """
            def filter_trace(rows):
                out = []
                for row in rows:
                    for cell in row:
                        out.append({"row": row})
                return out
        """)
        assert [f.rule_id for f in findings] == ["R016"]
        assert findings[0].line == 6


# ----------------------------------------------------------------------
# R017 — unhoisted loop-invariant lookups
# ----------------------------------------------------------------------
class TestR017:
    def test_self_chain_in_hot_loop_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    for page in pages:
                        self.mm.serve_hit(page, False)
        """)
        assert [f.rule_id for f in findings] == ["R017"]
        assert "`self.mm.serve_hit`" in findings[0].message
        assert findings[0].line == 5

    def test_store_to_prefix_suppresses(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    for page in pages:
                        self.mm = rebuild(page)
                        self.mm.serve_hit(page, False)
        """)
        assert findings == []

    def test_depth_one_self_attr_not_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    hits = 0
                    for page in pages:
                        hits += self.threshold
                    return hits
        """)
        assert findings == []

    def test_import_rooted_lookup_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            import math

            def filter_trace(rows):
                total = 0.0
                for row in rows:
                    total += math.sqrt(row)
                return total
        """)
        assert [f.rule_id for f in findings] == ["R017"]
        assert "`math.sqrt`" in findings[0].message

    def test_while_test_lookup_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    n = 0
                    while n < self.cfg.limit:
                        n += 1
                    return n
        """)
        assert [f.rule_id for f in findings] == ["R017"]
        assert "`self.cfg.limit`" in findings[0].message

    def test_local_rooted_chain_not_flagged(self, tmp_path):
        # Hoisting depth-one-from-a-local is the kernels' own idiom;
        # flagging `bus._pending.append` would force triviality churn.
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    bus = self.bus
                    for page in pages:
                        bus._pending.append(page)
        """)
        assert findings == []

    def test_reported_once_per_loop(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    for page in pages:
                        self.mm.serve_hit(page, False)
                        self.mm.serve_hit(page, True)
        """)
        assert len(findings) == 1
        assert findings[0].line == 5


# ----------------------------------------------------------------------
# R018 — numpy scalar boxing and dtype churn
# ----------------------------------------------------------------------
class TestR018:
    def test_np_append_in_hot_loop_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            import numpy as np

            def filter_trace(rows):
                kept = np.zeros(0)
                for row in rows:
                    kept = np.append(kept, row)
                return kept
        """, select=("R018",))
        assert [f.rule_id for f in findings] == ["R018"]
        assert "O(n^2)" in findings[0].message

    def test_scalar_boxing_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            import numpy as np

            def filter_trace(rows):
                arr = np.asarray(rows)
                total = 0.0
                for i in range(3):
                    total += float(arr[i])
                return total
        """, select=("R018",))
        assert [f.rule_id for f in findings] == ["R018"]
        assert "boxes a numpy scalar" in findings[0].message

    def test_mixed_dtype_arithmetic_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            import numpy as np

            def filter_trace(rows):
                counts = np.zeros(8, dtype=np.int64)
                for row in rows:
                    counts[row] += 1
                return counts * 1.5
        """, select=("R018",))
        assert [f.rule_id for f in findings] == ["R018"]
        assert "implicit `astype`" in findings[0].message

    def test_astype_once_outside_not_flagged(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            import numpy as np

            def filter_trace(rows):
                counts = np.zeros(8, dtype=np.int64)
                for row in rows:
                    counts[row] += 1
                scaled = counts.astype(np.float64)
                return scaled * 1.5
        """, select=("R018",))
        assert findings == []


# ----------------------------------------------------------------------
# Suppression, selection, profiles
# ----------------------------------------------------------------------
class TestScoping:
    HOT_SNIPPET = """
        class DemoPolicy(HybridMemoryPolicy):
            def access_batch(self, pages, writes):
                for page in pages:
                    self.mm.serve_hit(page, False)
    """

    def test_noqa_suppresses(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    for page in pages:
                        self.mm.serve_hit(page, False)  # noqa: R017
        """)
        assert findings == []

    def test_select_restricts_to_one_rule(self, tmp_path):
        findings = _lint_snippet(tmp_path, """
            class DemoPolicy(HybridMemoryPolicy):
                def access_batch(self, pages, writes):
                    for page in pages:
                        cost = {"a": 1}
                        self.mm.serve_hit(page, cost)
        """, select=("R016",))
        assert {f.rule_id for f in findings} == {"R016"}

    def test_perf_rules_need_perf_or_select(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent(self.HOT_SNIPPET),
                          encoding="utf-8")
        base_ids = {f.rule_id for f in lint_paths([tmp_path])}
        assert "R017" not in base_ids
        perf_ids = {f.rule_id for f in lint_paths([tmp_path], perf=True)}
        assert "R017" in perf_ids

    def test_tests_profile_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, self.HOT_SNIPPET, filename="tests/test_mod.py")
        assert findings == []

    def test_examples_profile_exempt(self, tmp_path):
        findings = _lint_snippet(
            tmp_path, self.HOT_SNIPPET, filename="examples/demo.py")
        assert findings == []


# ----------------------------------------------------------------------
# Shared parse cache and tier statistics
# ----------------------------------------------------------------------
class TestSharedCaches:
    def test_combined_run_parses_each_file_once(self, tmp_path, monkeypatch):
        for name in ("alpha", "beta", "gamma"):
            (tmp_path / f"{name}.py").write_text(
                f"def {name}():\n    return 0\n", encoding="utf-8")
        lint_mod._PARSE_CACHE.clear()
        parsed: list[str] = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        lint_paths([tmp_path], perf=True)
        ours = [name for name in parsed if name.startswith(str(tmp_path))]
        assert sorted(ours) == sorted(set(ours))
        assert len(ours) == 3

    def test_report_names_all_tiers(self, tmp_path):
        (tmp_path / "mod.py").write_text("def f():\n    return 0\n",
                                         encoding="utf-8")
        report = lint_report([tmp_path], perf=True)
        assert [tier.name for tier in report.tiers] == ["base", "perf"]
        assert all(tier.elapsed >= 0.0 for tier in report.tiers)


# ----------------------------------------------------------------------
# Ratcheting baseline
# ----------------------------------------------------------------------
class TestBaseline:
    SNIPPET_ONE = """
        class DemoPolicy(HybridMemoryPolicy):
            def access_batch(self, pages, writes):
                for page in pages:
                    self.mm.serve_hit(page, False)
    """
    SNIPPET_TWO = """
        class DemoPolicy(HybridMemoryPolicy):
            def access_batch(self, pages, writes):
                for page in pages:
                    self.mm.serve_hit(page, False)
                    self.wear.record_write(page)
    """

    def test_ratchet_tolerates_recorded_and_fails_new(self, tmp_path):
        mod = tmp_path / "mod.py"
        baseline = tmp_path / "baseline.json"
        mod.write_text(textwrap.dedent(self.SNIPPET_ONE), encoding="utf-8")
        original = lint_paths([mod], select=["R016", "R017", "R018"])
        assert len(original) == 1
        write_baseline(baseline, original)

        tolerated = load_baseline(baseline)
        fresh, suppressed = apply_baseline(original, tolerated)
        assert fresh == [] and suppressed == 1

        mod.write_text(textwrap.dedent(self.SNIPPET_TWO), encoding="utf-8")
        regressed = lint_paths([mod], select=["R016", "R017", "R018"])
        assert len(regressed) == 2
        fresh, suppressed = apply_baseline(regressed, tolerated)
        assert suppressed == 1
        assert [f.rule_id for f in fresh] == ["R017"]
        assert "`self.wear.record_write`" in fresh[0].message

    def test_duplicate_counts_ratchet_by_multiplicity(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(textwrap.dedent(self.SNIPPET_ONE), encoding="utf-8")
        original = lint_paths([mod], select=["R016", "R017", "R018"])
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, original + original)
        fresh, suppressed = apply_baseline(original, load_baseline(baseline))
        assert fresh == [] and suppressed == 1
