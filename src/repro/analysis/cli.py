"""The ``repro lint`` subcommand: run the rules, print, set exit code.

Exit codes: 0 clean, 1 findings, 2 usage error *or* analyzer crash —
CI can therefore distinguish "the code has hazards" from "the linter
itself broke" and fail the right way.
"""

from __future__ import annotations

import json
import sys
import traceback
from collections import Counter
from pathlib import Path
from typing import Sequence, TextIO

from repro.analysis.findings import Finding
from repro.analysis.lint import LintReport, UnknownRuleError, lint_report
from repro.analysis.perf.baseline import (
    Key,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.perf.rules import PERF_RULES
from repro.analysis.rules import DEFAULT_RULES

#: Output formats ``run_lint`` understands.
FORMATS = ("text", "json", "github")


def list_rules(stream: TextIO | None = None) -> int:
    """Print the rule catalogue (``repro lint --list-rules``)."""
    stream = stream if stream is not None else sys.stdout
    for tag, rules in (("", DEFAULT_RULES), (" (perf)", PERF_RULES)):
        for rule in rules:
            print(f"{rule.rule_id}  {rule.title}{tag}", file=stream)
    return 0


def _render_text(findings: Sequence[Finding], stream: TextIO) -> None:
    for finding in findings:
        print(finding.render(), file=stream)
        for note in finding.evidence:
            print(f"    {note}", file=stream)
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun}", file=stream)


def _render_json(findings: Sequence[Finding], stream: TextIO) -> None:
    payload = {
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule_id": finding.rule_id,
                "message": finding.message,
                "evidence": list(finding.evidence),
            }
            for finding in findings
        ],
        "count": len(findings),
    }
    print(json.dumps(payload, indent=2), file=stream)


def _render_github(findings: Sequence[Finding], stream: TextIO) -> None:
    """GitHub Actions workflow-command annotations."""
    for finding in findings:
        message = f"{finding.rule_id} {finding.message}"
        if finding.evidence:
            message = f"{message} [{'; '.join(finding.evidence)}]"
        print(
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col}::{message}",
            file=stream,
        )


_RENDERERS = {
    "text": _render_text,
    "json": _render_json,
    "github": _render_github,
}


def _render_statistics(
    report: LintReport,
    reported: Sequence[Finding],
    suppressed: int,
    stream: TextIO,
) -> None:
    """Per-tier timings and per-rule counts (``--statistics``)."""
    for tier in report.tiers:
        print(
            f"tier {tier.name}: {tier.count} finding(s) in "
            f"{tier.elapsed * 1000.0:.1f} ms",
            file=stream,
        )
    counts = Counter(finding.rule_id for finding in reported)
    for rule_id in sorted(counts):
        print(f"{rule_id}: {counts[rule_id]} finding(s)", file=stream)
    if suppressed:
        print(f"baseline: {suppressed} finding(s) tolerated", file=stream)


def run_lint(
    paths: Sequence[str],
    select: Sequence[str] | None = None,
    stream: TextIO | None = None,
    *,
    perf: bool = False,
    fmt: str = "text",
    baseline: str | None = None,
    update_baseline: bool = False,
    statistics: bool = False,
) -> int:
    """Lint ``paths``; 0 clean, 1 findings, 2 usage error or crash.

    ``perf`` adds the hot-path tier (R016-R018); ``select`` restricts
    the run to the given rule ids, an unknown id being a usage error;
    ``fmt`` picks the output renderer (``text``/``json``/``github``).
    ``baseline`` ratchets: findings recorded there are tolerated, new
    ones fail; ``update_baseline`` re-records and exits clean.
    ``statistics`` prints per-tier timings and per-rule counts to
    stderr, where they cannot corrupt ``json``/``github`` output.
    """
    stream = stream if stream is not None else sys.stdout
    renderer = _RENDERERS.get(fmt)
    if renderer is None:
        print(f"repro lint: unknown format {fmt!r} "
              f"(expected one of {', '.join(FORMATS)})", file=sys.stderr)
        return 2
    if update_baseline and baseline is None:
        print("repro lint: --update-baseline requires --baseline PATH",
              file=sys.stderr)
        return 2
    try:
        report = lint_report(paths, select=select, perf=perf)
    except (FileNotFoundError, UnknownRuleError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa — analyzer crash must not masquerade as findings
        print("repro lint: internal error in an analyzer:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2
    findings = report.findings
    suppressed = 0
    if update_baseline:
        assert baseline is not None
        recorded = write_baseline(baseline, findings)
        print(
            f"baseline updated: {len(findings)} finding(s) over "
            f"{recorded} key(s) recorded in {baseline}",
            file=stream,
        )
        findings = []
    elif baseline is not None:
        tolerated: Counter[Key]
        if Path(baseline).exists():
            tolerated = load_baseline(baseline)
        else:
            print(f"repro lint: baseline {baseline} not found; "
                  "treating every finding as new", file=sys.stderr)
            tolerated = Counter()
        findings, suppressed = apply_baseline(findings, tolerated)
    renderer(findings, stream)
    if statistics:
        _render_statistics(report, findings, suppressed, sys.stderr)
    return 1 if findings else 0
