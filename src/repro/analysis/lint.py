"""Lint driver: collect files, build project context, run the rules."""

from __future__ import annotations

import ast
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.analysis.context import ProjectContext, SourceFile
from repro.analysis.findings import Finding, canonical_id, suppressed
from repro.analysis.perf.rules import PERF_RULES
from repro.analysis.rules import DEFAULT_RULES, LintRule

#: Directories never worth linting.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist"}

#: Per-directory rule profiles: rules listed here are not applied to
#: files under a directory of that name.  Tests exercise clocks and ad
#: hoc RNGs on purpose, define throwaway policy classes that have no
#: business in the registry or the device-constant vocabulary, and
#: probe simulator internals directly (R011 exempts them); examples
#: define demonstration policies without registering them.  The perf
#: tier (R016-R018) is scoped to ``src``: test fixtures and examples
#: build throwaway objects in loops on purpose.
PROFILES: dict[str, frozenset[str]] = {
    "tests": frozenset({"R002", "R004", "R005", "R011",
                        "R016", "R017", "R018"}),
    "examples": frozenset({"R004", "R016", "R017", "R018"}),
}


def disabled_for(path: Path) -> frozenset[str]:
    """Rule ids the directory profiles switch off for ``path``."""
    disabled: set[str] = set()
    for part, rule_ids in PROFILES.items():
        if part in path.parts:
            disabled |= rule_ids
    return frozenset(disabled)


class UnknownRuleError(ValueError):
    """``select`` named a rule id no rule in the run answers to."""


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    collected.add(candidate)
        elif path.suffix == ".py":
            collected.add(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(collected)


#: Parse cache keyed on the file's ``(mtime_ns, size)`` stat signature
#: — the same scheme the executor's ``code_version`` uses — so a
#: repeated run (and the call graph hanging off the parse trees)
#: re-reads only files that changed since the previous run.
_PARSE_CACHE: dict[str, tuple[tuple[int, int], SourceFile]] = {}


def _load(path: Path) -> SourceFile:
    key = str(path)
    stat = path.stat()
    signature = (stat.st_mtime_ns, stat.st_size)
    cached = _PARSE_CACHE.get(key)
    if cached is not None and cached[0] == signature:
        return cached[1]
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=key)
    src = SourceFile(path=path, text=text, tree=tree)
    _PARSE_CACHE[key] = (signature, src)
    return src


def parse_files(
    files: Iterable[Path],
) -> tuple[list[SourceFile], list[Finding]]:
    """Parse each file; unreadable/unparsable ones become R000 findings."""
    sources: list[SourceFile] = []
    errors: list[Finding] = []
    for path in files:
        try:
            sources.append(_load(path))
        except (OSError, SyntaxError, ValueError) as exc:
            line = getattr(exc, "lineno", None) or 1
            errors.append(Finding(
                path=str(path), line=line, col=1, rule_id="R000",
                message=f"cannot parse: {exc}",
            ))
    return sources, errors


@dataclass
class TierStats:
    """Per-tier accounting for ``--statistics``."""

    name: str
    elapsed: float
    count: int


@dataclass
class LintReport:
    """Findings plus the per-tier timings of the run that produced them."""

    findings: list[Finding]
    tiers: list[TierStats] = field(default_factory=list)

    def rule_counts(self) -> dict[str, int]:
        return dict(Counter(finding.rule_id for finding in self.findings))


def lint_report(
    paths: Sequence[str | Path],
    rules: Sequence[LintRule] | None = None,
    select: Iterable[str] | None = None,
    perf: bool = False,
) -> LintReport:
    """Run the lint tiers over ``paths``; findings plus tier timings.

    ``select`` restricts the run to the given rule ids (perf-tier ids
    are selectable without ``perf``) and raises
    :class:`UnknownRuleError` for an id no rule answers to, so a typo
    cannot pass by checking nothing; ``rules`` substitutes the rule set
    entirely; ``perf=True`` adds the hot-path tier (R016-R018) to the
    default set.  Directory :data:`PROFILES` switch rules off per file.

    Files are parsed once for the whole run (shared ``_PARSE_CACHE``)
    and all tiers lint the same :class:`ProjectContext`.
    """
    # The perf rules duck-type ``LintRule`` (they do not inherit it),
    # so the catalogue is deliberately untyped.
    if rules is not None:
        tiers: list[tuple[str, list[Any]]] = [("custom", list(rules))]
    else:
        tiers = [("base", list(DEFAULT_RULES))]
        if perf or select is not None:
            tiers.append(("perf", list(PERF_RULES)))
    if select is not None:
        wanted = {canonical_id(rule_id) for rule_id in select}
        unknown = wanted - {rule.rule_id for _, tier in tiers for rule in tier}
        if unknown:
            raise UnknownRuleError(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                "(see --list-rules)")
        tiers = [
            (name, [rule for rule in tier if rule.rule_id in wanted])
            for name, tier in tiers
        ]
        tiers = [(name, tier) for name, tier in tiers if tier]
    sources, parse_errors = parse_files(iter_python_files(paths))
    project = ProjectContext.build(sources)
    findings = list(parse_errors)
    stats: list[TierStats] = []
    for name, tier in tiers:
        started = time.perf_counter()
        tier_findings: list[Finding] = []
        for src in sources:
            lines = src.lines
            disabled = disabled_for(src.path)
            for rule in tier:
                if rule.rule_id in disabled:
                    continue
                for finding in rule.check(src, project):
                    if not suppressed(finding, lines):
                        tier_findings.append(finding)
        stats.append(TierStats(
            name=name,
            elapsed=time.perf_counter() - started,
            count=len(tier_findings),
        ))
        findings.extend(tier_findings)
    return LintReport(findings=sorted(findings), tiers=stats)


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[LintRule] | None = None,
    select: Iterable[str] | None = None,
    perf: bool = False,
) -> list[Finding]:
    """Sorted findings of :func:`lint_report` (the historical API)."""
    return lint_report(paths, rules=rules, select=select, perf=perf).findings
