"""Hot-region discovery for the performance lint tier.

The perf rules (R016-R018) only pay off where code actually runs per
request or per trace record; flagging a dict literal in a config loader
would be noise.  This module decides *where* those rules look:

* **seeds** come from :meth:`CallGraph.hot_seeds` — policy ``access``/
  ``access_batch`` kernels, the trace filter, and the simulator
  drive loops;
* **closure**: everything reachable from a seed through the project
  call graph (:mod:`repro.analysis.perf.callgraph`) is hot, with the
  shortest call chain kept as evidence (seed -> ... -> function), so a
  finding can say *why* the function is on the hot path;
* **opt-out**: a ``# repro: cold`` comment on a ``def`` line removes
  the function from the hot set and stops traversal through it —
  validation passes and debug helpers called from kernels live there.

The result is memoised in ``project.scratch``, so the three perf rules
share one call graph and one closure per lint run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.context import ProjectContext
from repro.analysis.perf.callgraph import (
    COLD_MARKER,
    CallGraph,
    FunctionInfo,
    short_chain,
)


@dataclass
class HotRegions:
    """The per-run hot set: seeds, evidence chains, and the cold set."""

    graph: CallGraph
    seeds: dict[str, str]
    chains: dict[str, tuple[str, ...]]
    cold: frozenset[str]

    def is_hot(self, qname: str) -> bool:
        return qname in self.chains

    def functions_in(self, path: str) -> list[FunctionInfo]:
        """Hot functions defined in ``path``, in source order."""
        found = [
            info
            for qname, info in self.graph.functions.items()
            if info.path == path and qname in self.chains
        ]
        return sorted(found, key=lambda info: info.line)

    def evidence(self, qname: str) -> tuple[str, ...]:
        """Human-readable hot chain for ``qname`` (empty when cold).

        First element names the seed and why it is hot; the second (for
        non-seed functions) gives the call path from seed to function.
        """
        chain = self.chains.get(qname)
        if not chain:
            return ()
        seed = chain[0]
        reason = self.seeds.get(seed, "hot seed")
        parts = [f"hot seed {short_chain(self.graph, (seed,))}: {reason}"]
        if len(chain) > 1:
            parts.append(f"call path {short_chain(self.graph, chain)}")
        return tuple(parts)


def hot_regions(project: ProjectContext) -> HotRegions:
    """Build (or reuse) the hot-region map for this lint run."""
    cached = project.scratch.get("perf.hot")
    if isinstance(cached, HotRegions):
        return cached
    graph = CallGraph.build(project.files)
    lines_by_path = {str(src.path): src.lines for src in project.files}
    cold: set[str] = set()
    for qname, info in graph.functions.items():
        lines = lines_by_path.get(info.path)
        if lines and 1 <= info.line <= len(lines) \
                and COLD_MARKER in lines[info.line - 1]:
            cold.add(qname)
    seeds = graph.hot_seeds(sorted(project.policy_classes))
    for qname in cold:
        seeds.pop(qname, None)
    chains = graph.reachable(list(seeds), exclude=frozenset(cold))
    regions = HotRegions(
        graph=graph, seeds=seeds, chains=chains, cold=frozenset(cold))
    project.scratch["perf.hot"] = regions
    return regions
