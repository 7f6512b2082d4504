"""The hot-path performance rules: R016-R018.

All three are scoped to the hot regions discovered by
:mod:`repro.analysis.perf.hotpath` — code reachable from a batch
kernel, the trace filter, or the simulator drive loop.  Each finding
carries the evidence chain (seed -> call path) explaining why its
function is hot.

* **R016 (per-iteration allocation)** — a dict/list/set display,
  comprehension, f-string, or closure built inside a hot loop when it
  is loop-invariant (no free name rebound in the loop) or its value is
  discarded.  Loop-invariance is the conservative two-point lattice:
  any name bound anywhere in the loop makes every expression using it
  variant.
* **R017 (unhoisted loop-invariant lookup)** — an attribute chain
  rooted at ``self``/``cls`` (two or more attributes deep) or at a
  module import alias, resolved in the per-iteration region of a hot
  loop, when no store in the loop rebinds the root or any prefix of
  the chain.  Depth-one ``self.x`` reads and chains rooted at locals
  are deliberately not flagged — hoisting those is the idiom the
  kernels already use, and re-reading one attribute is cheap.
* **R018 (numpy scalar boxing / dtype churn)** — ``np.append``-family
  calls in a loop (each reallocates the whole array), ``float(arr[i])``
  per element (boxes a numpy scalar), and arithmetic mixing an
  int-dtype array with a float constant (every use pays an implicit
  ``astype``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ProjectContext, SourceFile
from repro.analysis.findings import Finding
from repro.analysis.perf.callgraph import (
    SCOPE_STMTS,
    FunctionInfo,
    attribute_base,
    collect_scope,
)
from repro.analysis.perf.hotpath import HotRegions, hot_regions

#: Loop statement kinds the rules iterate over.
_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_LoopNode = ast.For | ast.AsyncFor | ast.While

#: Container-mutating method names: a display assigned to a name that
#: is then mutated in the loop is a per-iteration accumulator, not a
#: hoistable constant (``row = []; row.append(...)``).
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "discard", "remove", "pop",
    "popitem", "clear", "update", "setdefault", "sort", "reverse",
    "appendleft", "popleft",
})

#: numpy functions that rebuild the whole array per call (R018).
_GROWTH_FUNCS = frozenset({
    "append", "concatenate", "vstack", "hstack", "column_stack",
    "insert", "delete",
})

#: Builtin conversions that box a numpy scalar element-wise (R018).
_BOXING_CALLS = frozenset({"float", "int", "bool", "complex"})


# ----------------------------------------------------------------------
# Shared traversal helpers
# ----------------------------------------------------------------------
def _hot_functions(
    src: SourceFile, project: ProjectContext
) -> Iterator[tuple[FunctionInfo, HotRegions]]:
    regions = hot_regions(project)
    for info in regions.functions_in(str(src.path)):
        yield info, regions


def _loops_in(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[_LoopNode]:
    """Every loop statement in ``func``, skipping nested scopes."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, SCOPE_STMTS) or isinstance(node, ast.Lambda):
            continue
        if isinstance(node, _LOOPS):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _bound_in_loop(loop: _LoopNode) -> frozenset[str]:
    """Names bound anywhere in the loop (targets, stores, defs, imports).

    The variance lattice: an expression whose free names intersect this
    set is loop-variant; everything else is invariant.
    """
    names: set[str] = set()
    stack: list[ast.AST] = list(loop.body)
    stack.extend(loop.orelse)
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        stack.append(loop.target)
    while stack:
        node = stack.pop()
        if isinstance(node, SCOPE_STMTS):
            names.add(node.name)
            continue
        if isinstance(node, ast.Name) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return frozenset(names)


def _per_iteration(loop: _LoopNode) -> Iterator[tuple[ast.AST, ast.AST]]:
    """``(node, parent)`` pairs evaluated once per iteration of ``loop``.

    Excludes nested scopes' bodies (their code runs when called) and
    nested loops' per-iteration regions (those belong to the inner
    loop) — but a nested ``for``'s iterable *is* evaluated once per
    outer iteration, so it stays in.  For a ``while`` loop the test is
    part of the region; a ``for`` head's iterable is evaluated once
    and is not.
    """
    roots: list[tuple[ast.AST, ast.AST]] = [
        (stmt, loop) for stmt in loop.body]
    if isinstance(loop, ast.While):
        roots.append((loop.test, loop))
    stack = roots
    while stack:
        node, parent = stack.pop()
        if isinstance(node, (ast.For, ast.AsyncFor)):
            stack.append((node.iter, node))
            continue
        if isinstance(node, ast.While):
            continue
        yield node, parent
        if isinstance(node, SCOPE_STMTS) or isinstance(node, ast.Lambda):
            continue
        stack.extend(
            (child, node) for child in ast.iter_child_nodes(node))


def _free_names(node: ast.AST) -> frozenset[str]:
    """Names loaded anywhere under ``node`` (conservative free set)."""
    return frozenset(
        child.id for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    )


def _comp_free_names(comp: ast.expr) -> frozenset[str]:
    """Free names of a comprehension, minus its own iteration targets."""
    bound: set[str] = set()
    for gen in getattr(comp, "generators", []):
        for leaf in ast.walk(gen.target):
            if isinstance(leaf, ast.Name):
                bound.add(leaf.id)
    return _free_names(comp) - frozenset(bound)


def _closure_free_names(
    node: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef,
) -> frozenset[str]:
    """Names a closure captures from the enclosing function."""
    if isinstance(node, ast.Lambda):
        args = node.args
        params = {
            arg.arg
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            )
        }
        stores = {
            leaf.id for leaf in ast.walk(node.body)
            if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store)
        }
        return _free_names(node.body) - frozenset(params | stores)
    local_names, nonlocals = collect_scope(node)
    return _free_names(node) - local_names - nonlocals - {node.name}


def _finding(
    src: SourceFile,
    node: ast.AST,
    rule_id: str,
    message: str,
    evidence: tuple[str, ...],
) -> Finding:
    return Finding(
        path=str(src.path),
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule_id=rule_id,
        message=message,
        evidence=evidence,
    )


# ----------------------------------------------------------------------
# R016 — per-iteration allocation
# ----------------------------------------------------------------------
_DISPLAYS: dict[type, str] = {
    ast.Dict: "dict literal",
    ast.List: "list literal",
    ast.Set: "set literal",
}

_COMPREHENSIONS: dict[type, str] = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
}


class HotLoopAllocationRule:
    """R016: hot loops must not rebuild invariant or discarded objects."""

    rule_id = "R016"
    title = "hot loop rebuilds a loop-invariant or discarded object"

    def check(
        self, src: SourceFile, project: ProjectContext
    ) -> Iterator[Finding]:
        for info, regions in _hot_functions(src, project):
            evidence = regions.evidence(info.qname)
            for loop in _loops_in(info.node):
                yield from self._check_loop(src, loop, evidence)

    def _check_loop(
        self,
        src: SourceFile,
        loop: _LoopNode,
        evidence: tuple[str, ...],
    ) -> Iterator[Finding]:
        bound = _bound_in_loop(loop)
        region = list(_per_iteration(loop))
        discarded = {
            id(node.value) for node, _ in region if isinstance(node, ast.Expr)
        }
        accumulators = self._accumulator_names(region)
        for node, parent in region:
            kind, free = self._classify(node)
            if kind is None:
                continue
            invariant = not (free & bound)
            if isinstance(node, tuple(_DISPLAYS)) and invariant \
                    and self._feeds_accumulator(node, parent, accumulators):
                continue
            if invariant:
                yield _finding(
                    src, node, self.rule_id,
                    f"{kind} is rebuilt on every iteration of a hot loop "
                    "but is loop-invariant; hoist it above the loop",
                    evidence,
                )
            elif id(node) in discarded:
                yield _finding(
                    src, node, self.rule_id,
                    f"{kind} is built and immediately discarded on every "
                    "iteration of a hot loop; drop it or keep the result",
                    evidence,
                )

    @staticmethod
    def _classify(node: ast.AST) -> tuple[str | None, frozenset[str]]:
        """``(description, free names)`` for allocation candidates."""
        for kind, label in _DISPLAYS.items():
            if isinstance(node, kind):
                return label, _free_names(node)
        for kind, label in _COMPREHENSIONS.items():
            if isinstance(node, kind):
                return label, _comp_free_names(node)
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id in ("tuple", "frozenset") \
                and len(node.args) == 1 and not node.keywords \
                and isinstance(node.args[0], ast.GeneratorExp):
            return (f"{node.func.id} comprehension",
                    _comp_free_names(node.args[0]))
        if isinstance(node, ast.JoinedStr):
            return "f-string", _free_names(node)
        if isinstance(node, ast.Lambda):
            return "lambda", _closure_free_names(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return "nested function definition", _closure_free_names(node)
        return None, frozenset()

    @staticmethod
    def _accumulator_names(
        region: list[tuple[ast.AST, ast.AST]],
    ) -> frozenset[str]:
        """Names mutated in place within the loop's iteration region.

        ``row = []`` followed by ``row.append(...)`` in the same loop is
        a fresh-per-iteration accumulator — hoisting it would alias one
        object across iterations — so R016 must not flag its display.
        """
        mutated: set[str] = set()
        for node, _ in region:
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS \
                    and isinstance(node.func.value, ast.Name):
                mutated.add(node.func.value.id)
            elif isinstance(node, ast.Subscript) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and isinstance(node.value, ast.Name):
                mutated.add(node.value.id)
            elif isinstance(node, ast.AugAssign) \
                    and isinstance(node.target, ast.Name):
                mutated.add(node.target.id)
        return frozenset(mutated)

    @staticmethod
    def _feeds_accumulator(
        node: ast.AST, parent: ast.AST, accumulators: frozenset[str]
    ) -> bool:
        if not isinstance(parent, ast.Assign):
            return False
        return any(
            isinstance(target, ast.Name) and target.id in accumulators
            for target in parent.targets
        )


# ----------------------------------------------------------------------
# R017 — unhoisted loop-invariant lookups
# ----------------------------------------------------------------------
class UnhoistedLookupRule:
    """R017: invariant attribute/global chains must be hoisted."""

    rule_id = "R017"
    title = "hot loop re-resolves a loop-invariant attribute chain"

    def check(
        self, src: SourceFile, project: ProjectContext
    ) -> Iterator[Finding]:
        for info, regions in _hot_functions(src, project):
            evidence = regions.evidence(info.qname)
            index = regions.graph.indexes.get(info.path)
            imports = index.imports if index is not None else {}
            for loop in _loops_in(info.node):
                yield from self._check_loop(
                    src, info, loop, imports, evidence)

    def _check_loop(
        self,
        src: SourceFile,
        info: FunctionInfo,
        loop: _LoopNode,
        imports: dict[str, str],
        evidence: tuple[str, ...],
    ) -> Iterator[Finding]:
        bound = _bound_in_loop(loop)
        stores = self._stored_chains(loop)
        reported: dict[tuple[str, tuple[str, ...]], ast.Attribute] = {}
        for node, parent in _per_iteration(loop):
            if not isinstance(node, ast.Attribute) \
                    or not isinstance(node.ctx, ast.Load):
                continue
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue  # inner segment of a longer chain
            root, attrs = self._pure_chain(node)
            if root is None:
                continue
            if not self._candidate(root, attrs, info, imports):
                continue
            if self._rebound(root, attrs, stores, bound):
                continue
            key = (root, attrs)
            prior = reported.get(key)
            if prior is None or node.lineno < prior.lineno:
                reported[key] = node
        for (root, attrs), node in sorted(
            reported.items(), key=lambda item: item[1].lineno,
        ):
            chain = ".".join((root, *attrs))
            yield _finding(
                src, node, self.rule_id,
                f"`{chain}` is re-resolved on every iteration of a hot "
                "loop and never rebound; hoist it into a local before "
                "the loop",
                evidence,
            )

    @staticmethod
    def _pure_chain(node: ast.Attribute) -> tuple[str | None, tuple[str, ...]]:
        """Root and attrs of a subscript-free ``a.b.c`` chain."""
        attrs: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            attrs.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            return current.id, tuple(reversed(attrs))
        return None, ()

    @staticmethod
    def _candidate(
        root: str,
        attrs: tuple[str, ...],
        info: FunctionInfo,
        imports: dict[str, str],
    ) -> bool:
        if root in ("self", "cls") and info.cls is not None:
            return len(attrs) >= 2
        if root in imports and root not in info.local_names:
            return len(attrs) >= 1
        return False

    @staticmethod
    def _stored_chains(loop: ast.stmt) -> list[tuple[str, tuple[str, ...]]]:
        """Attribute chains assigned/deleted anywhere in the loop."""
        chains: list[tuple[str, tuple[str, ...]]] = []
        for node in ast.walk(loop):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, (ast.Attribute, ast.Subscript)):
                        root, attrs = attribute_base(leaf)
                        if root is not None:
                            chains.append((root, tuple(attrs)))
        return chains

    @staticmethod
    def _rebound(
        root: str,
        attrs: tuple[str, ...],
        stores: list[tuple[str, tuple[str, ...]]],
        bound: frozenset[str],
    ) -> bool:
        """True when any loop path may rebind the chain's resolution."""
        if root in bound:
            return True
        for sroot, sattrs in stores:
            if sroot != root:
                continue
            if len(sattrs) <= len(attrs) \
                    and sattrs == attrs[: len(sattrs)]:
                return True
        return False


# ----------------------------------------------------------------------
# R018 — numpy scalar boxing and dtype churn
# ----------------------------------------------------------------------
_INT_DTYPES = frozenset({
    "int8", "int16", "int32", "int64", "intp",
    "uint8", "uint16", "uint32", "uint64", "uintp",
})


class NumpyChurnRule:
    """R018: no per-element boxing or array reallocation on hot paths."""

    rule_id = "R018"
    title = "hot path boxes numpy scalars or churns array dtypes"

    def check(
        self, src: SourceFile, project: ProjectContext
    ) -> Iterator[Finding]:
        for info, regions in _hot_functions(src, project):
            evidence = regions.evidence(info.qname)
            index = regions.graph.indexes.get(info.path)
            imports = index.imports if index is not None else {}
            numpy_roots = frozenset(
                name for name, origin in imports.items()
                if (origin == "numpy" or origin.startswith("numpy."))
                and name not in info.local_names
            )
            arrays, int_arrays = self._array_locals(info.node, numpy_roots)
            for loop in _loops_in(info.node):
                for node, _ in _per_iteration(loop):
                    if not isinstance(node, ast.Call):
                        continue
                    growth = self._growth_call(node, numpy_roots)
                    if growth is not None:
                        yield _finding(
                            src, node, self.rule_id,
                            f"`{growth}` inside a hot loop copies the "
                            "whole array every call (O(n^2) growth); "
                            "collect into a list and convert once, or "
                            "preallocate",
                            evidence,
                        )
                        continue
                    boxed = self._boxing_call(node, arrays)
                    if boxed is not None:
                        yield _finding(
                            src, node, self.rule_id,
                            f"`{boxed}` boxes a numpy scalar on every "
                            "iteration of a hot loop; vectorize the "
                            "computation or call `.item()` once outside",
                            evidence,
                        )
            for node in ast.walk(info.node):
                mixed = self._mixed_dtype_op(node, int_arrays)
                if mixed is not None:
                    yield _finding(
                        src, node, self.rule_id,
                        f"arithmetic mixes int-dtype array `{mixed}` with "
                        "a float constant, paying an implicit `astype` on "
                        "every use; cast once with `.astype(...)` outside "
                        "the hot path",
                        evidence,
                    )

    @staticmethod
    def _array_locals(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        numpy_roots: frozenset[str],
    ) -> tuple[frozenset[str], frozenset[str]]:
        """``(array-valued locals, int-dtype array locals)``.

        A name counts as array-valued when singly assigned from an
        ``np.*`` call or an ``.astype(...)`` call, or annotated as an
        ndarray parameter; int-dtype when the creating call passes an
        integer ``dtype=``.
        """
        assigned: dict[str, int] = {}
        arrays: set[str] = set()
        int_arrays: set[str] = set()
        for arg in (*func.args.posonlyargs, *func.args.args,
                    *func.args.kwonlyargs):
            annotation = arg.annotation
            text = ""
            if isinstance(annotation, ast.Name):
                text = annotation.id
            elif isinstance(annotation, ast.Attribute):
                text = annotation.attr
            elif isinstance(annotation, ast.Constant) \
                    and isinstance(annotation.value, str):
                text = annotation.value
            if "ndarray" in text:
                arrays.add(arg.arg)
        for node in ast.walk(func):
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Store):
                assigned[node.id] = assigned.get(node.id, 0) + 1
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if assigned.get(name, 0) != 1:
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            func_expr = value.func
            from_numpy = (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id in numpy_roots
            )
            from_astype = (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr == "astype"
            )
            if not (from_numpy or from_astype):
                continue
            arrays.add(name)
            for keyword in value.keywords:
                if keyword.arg != "dtype":
                    continue
                dtype = keyword.value
                dtype_name = ""
                if isinstance(dtype, ast.Attribute):
                    dtype_name = dtype.attr
                elif isinstance(dtype, ast.Name):
                    dtype_name = dtype.id
                elif isinstance(dtype, ast.Constant) \
                        and isinstance(dtype.value, str):
                    dtype_name = dtype.value
                if dtype_name in _INT_DTYPES or dtype_name == "int":
                    int_arrays.add(name)
        return frozenset(arrays), frozenset(int_arrays)

    @staticmethod
    def _growth_call(
        node: ast.Call, numpy_roots: frozenset[str]
    ) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in numpy_roots \
                and func.attr in _GROWTH_FUNCS:
            return f"{func.value.id}.{func.attr}"
        return None

    @staticmethod
    def _boxing_call(node: ast.Call, arrays: frozenset[str]) -> str | None:
        func = node.func
        if not isinstance(func, ast.Name) \
                or func.id not in _BOXING_CALLS \
                or len(node.args) != 1 or node.keywords:
            return None
        arg = node.args[0]
        if isinstance(arg, ast.Subscript) \
                and isinstance(arg.value, ast.Name) \
                and arg.value.id in arrays:
            return f"{func.id}({arg.value.id}[...])"
        return None

    @staticmethod
    def _mixed_dtype_op(
        node: ast.AST, int_arrays: frozenset[str]
    ) -> str | None:
        if not isinstance(node, ast.BinOp) or not int_arrays:
            return None
        sides = (node.left, node.right)
        array_name = next(
            (side.id for side in sides
             if isinstance(side, ast.Name) and side.id in int_arrays),
            None,
        )
        if array_name is None:
            return None
        other = node.right if isinstance(node.left, ast.Name) \
            and node.left.id == array_name else node.left
        is_float_const = (
            isinstance(other, ast.Constant)
            and isinstance(other.value, float)
        )
        is_true_div = isinstance(node.op, ast.Div) and (
            isinstance(other, ast.Constant)
            and isinstance(other.value, (int, float))
            and not isinstance(other.value, bool)
        )
        if is_float_const or is_true_div:
            return array_name
        return None


#: The perf tier, in rule-id order.
PERF_RULES = (
    HotLoopAllocationRule(),
    UnhoistedLookupRule(),
    NumpyChurnRule(),
)
