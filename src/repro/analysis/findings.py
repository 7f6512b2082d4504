"""Lint findings: what a rule reports and how it is rendered."""

from __future__ import annotations

import re
from dataclasses import dataclass

#: ``# noqa`` / ``# noqa: R002,R003`` suppression comments on the
#: offending line silence the listed rules (or every rule when bare).
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<ids>[A-Z0-9,\s]+))?", re.IGNORECASE)


def canonical_id(rule_id: str) -> str:
    """Normalise a user-written rule id (``" r003"`` -> ``"R003"``)."""
    return rule_id.strip().upper()


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    ``evidence`` carries the hot-region chain for perf-tier findings
    (seed, reason, call path); base-tier rules leave it empty.  The
    renderers surface it, the baseline and ``noqa`` machinery ignore it.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    evidence: tuple[str, ...] = ()

    def render(self) -> str:
        """``file:line:col: rule-id message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def suppressed(finding: Finding, source_lines: list[str]) -> bool:
    """True when the finding's line carries a matching ``noqa`` comment."""
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _NOQA.search(source_lines[finding.line - 1])
    if match is None:
        return False
    ids = match.group("ids")
    if ids is None:
        return True
    wanted = {canonical_id(part) for part in ids.split(",") if part.strip()}
    return finding.rule_id in wanted
