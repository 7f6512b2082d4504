"""End-to-end tests for the per-directory lint profiles.

Builds one fixture project with ``src``/``tests``/``examples``
subtrees, seeds the same violations in each, and asserts the profile
table switches exactly the right rules off per directory.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.lint import PROFILES, disabled_for, lint_paths

_RANDOM_AND_DEFAULT = """
    import random

    def pick(items, extras=[]):
        return random.choice(items + extras)
"""

_POLICY = """
    class {name}(HybridMemoryPolicy):
        name = "{key}"

        def access(self, page, is_write):
            self.mm.record_request(is_write)
"""


def _build_project(tmp_path: Path) -> Path:
    proj = tmp_path / "proj"
    for rel, source in {
        "src/sim.py": _RANDOM_AND_DEFAULT,
        "tests/test_sim.py": _RANDOM_AND_DEFAULT,
        "src/policies.py": _POLICY.format(
            name="OrphanPolicy", key="orphan"),
        "examples/demo.py": "import random\n" + textwrap.dedent(
            _POLICY.format(name="ShowcasePolicy", key="showcase")),
        "src/registry.py": 'FACTORIES = {}\n',
    }.items():
        target = proj / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return proj


class TestDisabledFor:
    def test_src_has_no_exemptions(self):
        assert disabled_for(Path("proj/src/sim.py")) == frozenset()

    def test_tests_profile(self):
        assert disabled_for(
            Path("proj/tests/test_sim.py")) == PROFILES["tests"]

    def test_nested_test_dirs_match_by_part(self):
        assert "R002" in disabled_for(Path("a/b/tests/unit/test_x.py"))


class TestProjectTree:
    def test_profiles_end_to_end(self, tmp_path):
        proj = _build_project(tmp_path)
        findings = lint_paths([proj])
        got = {
            (str(Path(f.path).relative_to(proj)), f.rule_id)
            for f in findings
        }
        assert got == {
            # src gets the full rule set.
            ("src/sim.py", "R002"),
            ("src/sim.py", "R003"),
            ("src/policies.py", "R004"),
            # tests keep R003 but drop R002/R004.
            ("tests/test_sim.py", "R003"),
            # examples drop R004 but keep R002/R003.
            ("examples/demo.py", "R002"),
        }, "\n".join(f.render() for f in findings)

    def test_select_still_respects_profiles(self, tmp_path):
        proj = _build_project(tmp_path)
        findings = lint_paths([proj], select=["R002"])
        assert {f.path for f in findings} == {
            str(proj / "src" / "sim.py"),
            str(proj / "examples" / "demo.py"),
        }
