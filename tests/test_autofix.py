"""Tests for the ``repro lint`` output formats.

The module once also covered ``repro lint --fix``; that option is gone
and the format tests keep their ids.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import run_lint
from repro.cli import main


def _write(tmp_path: Path, name: str, source: str) -> Path:
    target = tmp_path / name
    target.write_text(source, encoding="utf-8")
    return target


class TestFormats:
    def test_json_format(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", "def f(x=[]):\n    return x\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        finding = payload["findings"][0]
        assert finding["rule_id"] == "R003"
        assert finding["path"].endswith("bad.py")
        assert finding["line"] == 1

    def test_json_format_clean(self, tmp_path, capsys):
        _write(tmp_path, "ok.py", "VALUE = 1\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "findings": [], "count": 0}

    def test_github_format(self, tmp_path, capsys):
        _write(tmp_path, "bad.py", "def f(x=[]):\n    return x\n")
        assert main(["lint", str(tmp_path), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert ",line=1," in out and "::R003 " in out

    def test_unknown_format_is_usage_error(self, tmp_path):
        _write(tmp_path, "ok.py", "VALUE = 1\n")
        assert run_lint([str(tmp_path)], fmt="yaml") == 2
