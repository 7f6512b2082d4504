"""The project-specific lint rules (R002-R005, R011).

The hot-path perf tier (R016-R018) lives in
:mod:`repro.analysis.perf.rules`.

Each rule checks one contract the reproduction's correctness rests on:

``R002``
    No unseeded randomness or wall-clock reads inside ``src/repro``:
    RNGs must be ``numpy`` Generators flowing from an explicit seed.
``R003``
    No mutable default arguments.
``R004``
    Every concrete policy class that defines a ``name`` identifier is
    registered in ``policies/registry.py``.
``R005``
    Latency/energy keyword arguments in the device-model layer
    (``repro.memory``) must come from named constants, not inline
    magic numbers.
``R011``
    ``HybridMemorySimulator`` is constructed only inside
    ``repro.experiments``/``repro.mmu``; everything else runs through
    ``RunSpec.execute()`` / the parallel executor so all evaluation
    paths share one simulation recipe and the result cache.

The accounting contract itself (every policy charges each request
exactly once, Eq. 1-3) is checked at runtime by the sanitizer
(:mod:`repro.analysis.sanitizer`) and pinned by the equivalence and
literal-equation suites, not statically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ProjectContext, SourceFile, is_abstract
from repro.analysis.findings import Finding

__all__ = [
    "LintRule",
    "DeterminismRule",
    "MutableDefaultRule",
    "RegistryRule",
    "MagicNumberRule",
    "SimulatorConstructionRule",
    "DEFAULT_RULES",
]


class LintRule:
    """Base class: one rule, one ``check`` pass over a parsed file.

    The lint driver duck-types rules (``rule_id``/``title``/``check``),
    so the perf rules in :mod:`repro.analysis.perf.rules` participate
    without inheriting from this class.
    """

    rule_id: str = "R000"
    title: str = "abstract rule"

    def check(self, src: SourceFile,
              project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, src: SourceFile, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=str(src.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


# ----------------------------------------------------------------------
# R002 — determinism
# ----------------------------------------------------------------------
#: ``numpy.random`` attributes that are seed-explicit and allowed.
_NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64",
}
#: Wall-clock reads that break replayability.
_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}


class DeterminismRule(LintRule):
    """R002: randomness and time must flow from explicit seeds/inputs."""

    rule_id = "R002"
    title = "no unseeded randomness or wall-clock reads"

    def check(self, src: SourceFile,
              project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.finding(
                            src, node,
                            "stdlib `random` is process-global state; "
                            "use numpy Generators threaded from an "
                            "explicit seed",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        src, node,
                        "stdlib `random` is process-global state; use "
                        "numpy Generators threaded from an explicit seed",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(src, node)

    def _check_call(self, src: SourceFile,
                    node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            if (isinstance(func, ast.Name) and func.id == "default_rng"
                    and not node.args and not node.keywords):
                yield self.finding(
                    src, node,
                    "default_rng() without a seed is entropy-seeded; "
                    "pass the simulation seed through",
                )
            return
        owner = func.value
        owner_name = owner.id if isinstance(owner, ast.Name) else (
            owner.attr if isinstance(owner, ast.Attribute) else ""
        )
        if (owner_name, func.attr) in _CLOCK_CALLS:
            yield self.finding(
                src, node,
                f"wall-clock read `{owner_name}.{func.attr}()` makes "
                "runs unreplayable; take timestamps as inputs",
            )
            return
        # numpy legacy global RNG: np.random.<anything mutable>.
        if (func.attr not in _NP_RANDOM_ALLOWED
                and isinstance(owner, ast.Attribute)
                and owner.attr == "random"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")):
            yield self.finding(
                src, node,
                f"legacy global RNG `np.random.{func.attr}` is shared "
                "state; use np.random.default_rng(seed)",
            )
            return
        if (func.attr == "default_rng" and not node.args
                and not node.keywords):
            yield self.finding(
                src, node,
                "default_rng() without a seed is entropy-seeded; pass "
                "the simulation seed through",
            )


# ----------------------------------------------------------------------
# R003 — mutable defaults
# ----------------------------------------------------------------------
_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set,
    ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTABLE_BUILTINS = {"list", "dict", "set", "bytearray"}


class MutableDefaultRule(LintRule):
    """R003: default argument values must be immutable."""

    rule_id = "R003"
    title = "no mutable default arguments"

    def check(self, src: SourceFile,
              project: ProjectContext) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                name = getattr(node, "name", "<lambda>")
                defaults = list(node.args.defaults)
                defaults += [d for d in node.args.kw_defaults if d is not None]
                for default in defaults:
                    if self._is_mutable(default):
                        yield self.finding(
                            src, default,
                            f"mutable default argument in `{name}`; "
                            "use None and create inside the function",
                        )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, _MUTABLE_LITERALS):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_BUILTINS
        )


# ----------------------------------------------------------------------
# R004 — registry coverage
# ----------------------------------------------------------------------
class RegistryRule(LintRule):
    """R004: named concrete policies must be in the registry."""

    rule_id = "R004"
    title = "every named policy class is registered"

    def check(self, src: SourceFile,
              project: ProjectContext) -> Iterator[Finding]:
        if project.registry_names is None:
            return  # no registry among the linted files; cannot check
        if src.path.name == "registry.py":
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not project.is_policy_class(node) or is_abstract(node):
                continue
            policy_name = self._declared_name(node)
            if policy_name is None or policy_name == "abstract":
                continue
            registered = (
                node.name in project.registry_names
                or policy_name in project.registry_names
            )
            if not registered:
                yield self.finding(
                    src, node,
                    f"policy class {node.name} (name={policy_name!r}) "
                    "is not registered in policies/registry.py",
                )

    @staticmethod
    def _declared_name(node: ast.ClassDef) -> str | None:
        for item in node.body:
            if isinstance(item, ast.Assign):
                targets = [
                    t.id for t in item.targets if isinstance(t, ast.Name)
                ]
                value = item.value
                if "name" in targets and isinstance(value, ast.Constant) \
                        and isinstance(value.value, str):
                    return value.value
            elif isinstance(item, ast.AnnAssign):
                target = item.target
                value = item.value
                if (isinstance(target, ast.Name) and target.id == "name"
                        and isinstance(value, ast.Constant)
                        and isinstance(value.value, str)):
                    return value.value
        return None


# ----------------------------------------------------------------------
# R005 — no magic latency/energy numbers in the device-model layer
# ----------------------------------------------------------------------
class MagicNumberRule(LintRule):
    """R005: latency/energy values must reference named constants."""

    rule_id = "R005"
    title = "device latencies/energies come from named constants"

    #: Keyword-argument name fragments the rule applies to.
    keywords = ("latency", "energy")
    #: Only the device/cost-model layer is constrained.
    scope_dir = "memory"

    def check(self, src: SourceFile,
              project: ProjectContext) -> Iterator[Finding]:
        if self.scope_dir not in src.path.parts:
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                lowered = keyword.arg.lower()
                if not any(frag in lowered for frag in self.keywords):
                    continue
                if self._is_magic(keyword.value):
                    yield self.finding(
                        src, keyword.value,
                        f"inline magic number for `{keyword.arg}`; "
                        "express it via a named unit constant "
                        "(e.g. 50 * NANOSECOND)",
                    )

    @staticmethod
    def _is_magic(node: ast.expr) -> bool:
        """A bare non-zero numeric literal (possibly negated)."""
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
            and node.value != 0
        )


# ----------------------------------------------------------------------
# R011 — all evaluation paths share the RunSpec simulation recipe
# ----------------------------------------------------------------------
class SimulatorConstructionRule(LintRule):
    """R011: no direct simulator construction outside the engine.

    ``HybridMemorySimulator`` may only be instantiated inside
    ``repro.experiments`` (the :class:`RunSpec`/executor engine) and
    ``repro.mmu`` (where it lives).  Everything else goes through
    ``RunSpec.execute()`` / ``ParallelExecutor.submit()`` so every
    evaluation shares one run recipe — ``RunSpec.resolve`` for the
    instance, machine and warm-up, ``RunResult.scored`` for the Eq. 1-3
    scoring every engine uses — and every run is cacheable by spec
    digest.
    """

    rule_id = "R011"
    title = "simulations go through RunSpec.execute / the executor"

    target = "HybridMemorySimulator"
    #: Directories allowed to construct the simulator directly.
    allowed_dirs = ("experiments", "mmu")

    def check(self, src: SourceFile,
              project: ProjectContext) -> Iterator[Finding]:
        if any(part in src.path.parts for part in self.allowed_dirs):
            return
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = None
            if isinstance(callee, ast.Name):
                name = callee.id
            elif isinstance(callee, ast.Attribute):
                name = callee.attr
            if name != self.target:
                continue
            yield self.finding(
                src, node,
                f"direct `{self.target}(...)` construction outside "
                "repro.experiments/repro.mmu; use `RunSpec.execute()`, "
                "`ParallelExecutor.submit()` or `repro.mmu.simulate` so "
                "the run shares the engine's recipe and result cache",
            )


#: The rules ``repro lint`` runs by default, in report order.
DEFAULT_RULES: tuple = (
    DeterminismRule(),
    MutableDefaultRule(),
    RegistryRule(),
    MagicNumberRule(),
    SimulatorConstructionRule(),
)
