"""Seeded-mutant goldens for the perf tier, plus the CLI surface.

Each mutant copies a real kernel into a fixture tree, re-introduces
one deoptimization of the kind R016-R018 exist to catch, and asserts
the rule fires at the expected line — and that the unmodified copy
lints clean.  The CLI tests cover ``--statistics``, the crash exit
code, and the baseline ratchet end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import run_lint
from repro.analysis.lint import lint_paths
from repro.cli import main

SRC_ROOT = Path(repro.__file__).parent

PERF_SELECT = ["R016", "R017", "R018"]


def _copy_kernel(tmp_path: Path, relative: str) -> tuple[Path, str]:
    original = (SRC_ROOT / relative).read_text(encoding="utf-8")
    target = tmp_path / Path(relative).name
    return target, original


def _findings_at(findings, rule_id):
    return [f for f in findings if f.rule_id == rule_id]


class TestSeededMutants:
    def test_clean_kernels_have_no_perf_findings(self, tmp_path):
        for relative in ("core/migration.py", "cpu/filter.py"):
            target, original = _copy_kernel(tmp_path, relative)
            target.write_text(original, encoding="utf-8")
        assert lint_paths([tmp_path], select=PERF_SELECT) == []

    def test_reinlined_dict_literal_flagged_r016(self, tmp_path):
        """Golden mutant: a per-request cost dict inside the fused loop."""
        target, original = _copy_kernel(tmp_path, "core/migration.py")
        anchor = "            for page, is_write in zip(pages, writes):\n"
        assert anchor in original
        mutated = original.replace(
            anchor,
            anchor + "                cost = {\"read\": 1, \"write\": 2}\n",
            1,
        )
        target.write_text(mutated, encoding="utf-8")
        expected_line = (
            mutated[: mutated.index("cost = {")].count("\n") + 1)
        findings = _findings_at(
            lint_paths([tmp_path], select=PERF_SELECT), "R016")
        assert [f.line for f in findings] == [expected_line]
        assert "dict literal" in findings[0].message

    def test_unhoisted_attribute_lookup_flagged_r017(self, tmp_path):
        """Golden mutant: undo the ``record_request`` hoist in the
        page-fault fallback."""
        target, original = _copy_kernel(tmp_path, "core/migration.py")
        hoisted = "                        record_request(is_write)\n"
        assert hoisted in original
        mutated = original.replace(
            hoisted,
            "                        self.mm.record_request(is_write)\n",
            1,
        )
        target.write_text(mutated, encoding="utf-8")
        expected_line = original[: original.index(hoisted)].count("\n") + 1
        findings = _findings_at(
            lint_paths([tmp_path], select=PERF_SELECT), "R017")
        assert [f.line for f in findings] == [expected_line]
        assert "`self.mm.record_request`" in findings[0].message
        assert any("hot seed" in note for note in findings[0].evidence)

    def test_np_append_in_filter_flagged_r018(self, tmp_path):
        """Golden mutant: grow the kept-pages array with ``np.append``."""
        target, original = _copy_kernel(tmp_path, "cpu/filter.py")
        loop_append = "            pages.append(line // lines_per_page)\n"
        future = "from __future__ import annotations\n"
        assert loop_append in original and future in original
        mutated = original.replace(
            loop_append,
            "            pages = np.append(pages, line // lines_per_page)\n",
            1,
        ).replace(future, future + "\nimport numpy as np\n", 1)
        target.write_text(mutated, encoding="utf-8")
        expected_line = (
            mutated[: mutated.index("pages = np.append(")].count("\n") + 1)
        findings = _findings_at(
            lint_paths([tmp_path], select=PERF_SELECT), "R018")
        assert [f.line for f in findings] == [expected_line]
        assert "np.append" in findings[0].message


class TestLintCli:
    HOT_FIXTURE = (
        "class DemoPolicy(HybridMemoryPolicy):\n"
        "    def access_batch(self, pages, writes):\n"
        "        for page in pages:\n"
        "            self.mm.serve_hit(page, False)\n"
    )

    def _write_fixture(self, tmp_path: Path) -> Path:
        mod = tmp_path / "mod.py"
        mod.write_text(self.HOT_FIXTURE, encoding="utf-8")
        return mod

    def test_statistics_prints_tiers_and_rule_counts(self, tmp_path, capsys):
        mod = self._write_fixture(tmp_path)
        code = main(["lint", str(mod), "--perf", "--statistics"])
        captured = capsys.readouterr()
        assert code == 1
        assert "tier base:" in captured.err
        assert "tier perf:" in captured.err
        assert "R017: 1 finding(s)" in captured.err

    def test_exit_codes_distinguish_findings_from_crash(
        self, tmp_path, capsys, monkeypatch
    ):
        mod = self._write_fixture(tmp_path)
        assert main(["lint", str(mod), "--select", "R017"]) == 1
        capsys.readouterr()

        def exploding_report(*args, **kwargs):
            raise RuntimeError("analyzer exploded")

        monkeypatch.setattr(
            "repro.analysis.cli.lint_report", exploding_report)
        code = main(["lint", str(mod), "--select", "R017"])
        captured = capsys.readouterr()
        assert code == 2
        assert "internal error" in captured.err
        assert "analyzer exploded" in captured.err

    def test_update_baseline_requires_baseline_path(self, tmp_path, capsys):
        mod = self._write_fixture(tmp_path)
        assert main(["lint", str(mod), "--perf", "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_baseline_ratchet_end_to_end(self, tmp_path, capsys):
        mod = self._write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        args = ["lint", str(mod), "--perf",
                "--baseline", str(baseline)]

        # No baseline yet: the finding fails the run.
        assert main([*args, "--select", "R017"]) == 1
        capsys.readouterr()

        # Record it; the run is clean from then on.
        assert main([*args, "--select", "R017",
                     "--update-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main([*args, "--select", "R017"]) == 0
        capsys.readouterr()

        # A new hazard fails the build and only the new one is printed.
        mod.write_text(
            self.HOT_FIXTURE
            + "            self.wear.record_write(page)\n",
            encoding="utf-8",
        )
        assert main([*args, "--select", "R017"]) == 1
        out = capsys.readouterr().out
        assert "record_write" in out
        assert "serve_hit" not in out

    def test_json_format_carries_evidence(self, tmp_path, capsys):
        mod = self._write_fixture(tmp_path)
        code = main(["lint", str(mod), "--select", "R017",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["count"] == 1
        evidence = payload["findings"][0]["evidence"]
        assert any("hot seed" in note for note in evidence)

    def test_github_format_carries_evidence(self, tmp_path, capsys):
        mod = self._write_fixture(tmp_path)
        code = main(["lint", str(mod), "--select", "R017",
                     "--format", "github"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("::error file=")
        assert "hot seed" in out

    def test_list_rules_includes_perf_tier(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R016", "R017", "R018"):
            assert rule_id in out
        assert "(perf)" in out


@pytest.mark.slow
class TestProjectCleanliness:
    def test_src_lints_clean_against_baseline(self, capsys, monkeypatch):
        # Baseline keys are repo-root-relative, so lint from there.
        repo_root = SRC_ROOT.parent.parent
        monkeypatch.chdir(repo_root)
        code = run_lint(
            ["src"], perf=True,
            baseline="benchmarks/lint_perf_baseline.json")
        assert code == 0, capsys.readouterr().out
