"""Project-wide call graph for the hot-path perf tier.

The perf rules (R016-R018) look only at code reachable from a hot
seed, so they need the question "what does calling this function
reach, transitively".  This module builds the project call graph
:mod:`repro.analysis.perf.hotpath` walks:

* a :class:`ModuleIndex` per file — its functions (including nested
  ones), classes and import aliases — memoised on the file's
  ``(mtime_ns, size)`` stat signature, the same scheme the executor's
  ``code_version`` uses, so repeated lint runs re-index only files
  that changed;
* name resolution from call sites to function definitions:
  module-level functions by name and import alias, constructors to
  ``__init__``/``__post_init__``, ``self.m()`` over the enclosing
  class hierarchy (ancestors *and* overriding descendants — a virtual
  call may land in either), and generic ``x.m()`` against every class
  defining ``m``;
* a bounded-depth reachability closure (:meth:`CallGraph.reachable`)
  returning, for every reached function, the call chain from its seed
  — the evidence a perf finding prints.

Resolution is deliberately an over-approximation: dispatch that cannot
be narrowed fans out to every candidate, and call sites that resolve
to nothing known add no edge.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.analysis.context import SourceFile

#: Statements whose bodies define a new scope: they run when called,
#: not where they are defined.
SCOPE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Marker comment on a ``def`` line that excludes the function from the
#: perf tier's hot regions: it is neither treated as hot itself nor
#: traversed through when closing over the hot seeds (validation and
#: debug helpers that happen to be called from a kernel opt out here).
COLD_MARKER = "repro: cold"

#: Function names that are hot by definition: the trace filter runs
#: once per trace record before the simulator ever sees a request.
HOT_KERNEL_FUNCTIONS = frozenset({"filter_trace"})

#: Sampling filter kernels that are hot by definition: membership
#: selection and trace subsetting touch every record of the *full*
#: trace before the sampled engine replays the 1-in-K subset, so they
#: bound the engine's achievable speedup.
HOT_SAMPLING_FUNCTIONS = frozenset({
    "page_membership", "subset_trace", "frequency_ranks",
})

#: Per-class drive-loop methods that are hot by definition: the
#: simulator replay loops dispatch every request of a run (``_drive``
#: is the chunked loop every entry point funnels into), the streaming
#: trace sources parse/slice every request before the simulator sees
#: it, and the sampled engine's membership draws run once per
#: replicate.
HOT_DRIVE_METHODS: dict[str, tuple[str, ...]] = {
    "HybridMemorySimulator": ("_replay", "_drive"),
    "IterableTraceSource": ("chunks",),
    "TextTraceSource": ("chunks",),
    "_Membership": ("draw", "replicate_draws"),
}

#: Default bound on the reachability closure depth.
DEFAULT_DEPTH = 16


def short_chain(graph: "CallGraph", chain: Sequence[str]) -> str:
    """Render a call chain with module prefixes stripped for messages.

    ``("repro.core.m.P.access", "repro.core.m.P._fault")`` becomes
    ``"P.access -> P._fault"`` — the form perf findings print as
    evidence.
    """
    parts = []
    for qname in chain:
        info = graph.functions.get(qname)
        if info is not None and qname.startswith(info.module + "."):
            parts.append(qname[len(info.module) + 1:])
        else:
            parts.append(qname)
    return " -> ".join(parts)


def module_name(path: Path) -> str:
    """Dotted module name for ``path``, anchored at ``repro``/``src``.

    Falls back to the last two path components for files outside a
    recognisable package root (fixture trees in tests).
    """
    parts = list(path.with_suffix("").parts)
    anchored = False
    for anchor in ("repro", "src"):
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            if anchor == "src":
                index += 1
            parts = parts[index:]
            anchored = True
            break
    if not anchored:
        parts = parts[-2:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def inline_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``node`` that execute inline with it.

    Skips nested function/class definitions (their bodies run when
    *called*, not here); lambdas are included because their bodies
    typically run within the same dynamic extent (sort keys, filters).
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, SCOPE_STMTS):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def collect_scope(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[frozenset[str], frozenset[str]]:
    """``(local names, nonlocal decls)`` of ``func``.

    Locals include parameters and every name bound inline (assignment,
    loop target, ``with ... as``, walrus, handler name, in-function
    imports), minus the ``global``/``nonlocal`` declarations.
    """
    args = func.args
    names: set[str] = {
        arg.arg
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *( [args.vararg] if args.vararg else [] ),
            *( [args.kwarg] if args.kwarg else [] ),
        )
    }
    globals_: set[str] = set()
    nonlocals: set[str] = set()
    for node in inline_nodes(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Global):
            globals_.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            nonlocals.update(node.names)
    return frozenset(names - globals_ - nonlocals), frozenset(nonlocals)


def build_aliases(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, tuple[str, str]]:
    """Single-assignment local aliases used to sharpen resolution.

    Maps a local name to ``("attr", a)`` when bound from ``<expr>.a``
    (``bus = mm.events`` makes ``bus`` an events-attribute alias) or to
    ``("name", n)`` when bound from another plain name.  Names bound
    more than once, or from anything else, resolve to nothing here.
    """
    aliases: dict[str, tuple[str, str]] = {}
    seen: set[str] = set()

    def bind(name: str) -> bool:
        """Record one binding of ``name``; True on the first sighting.

        Traversal order is arbitrary, so *any* second binding kills the
        alias regardless of which assignment was visited first.
        """
        if name in seen:
            aliases.pop(name, None)
            return False
        seen.add(name)
        return True

    for node in inline_nodes(func):
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        if isinstance(node, ast.Assign) and len(targets) == 1 \
                and isinstance(targets[0], ast.Name):
            if bind(targets[0].id):
                if isinstance(node.value, ast.Attribute):
                    aliases[targets[0].id] = ("attr", node.value.attr)
                elif isinstance(node.value, ast.Name):
                    aliases[targets[0].id] = ("name", node.value.id)
            continue
        for target in targets:
            for leaf in ast.walk(target):
                if isinstance(leaf, ast.Name) \
                        and isinstance(leaf.ctx, ast.Store):
                    bind(leaf.id)
    return aliases


def attribute_base(node: ast.expr) -> tuple[str | None, list[str]]:
    """Root name and attribute path of a ``a.b.c``-style chain.

    ``mm.accounting.read_requests`` -> ``("mm", ["accounting",
    "read_requests"])``; returns ``(None, [])`` when the chain is not
    rooted at a plain name (e.g. a call result).
    """
    attrs: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        attrs.append(current.attr)
        current = current.value
    while isinstance(current, ast.Subscript):
        current = current.value
        while isinstance(current, ast.Attribute):
            attrs.append(current.attr)
            current = current.value
    if isinstance(current, ast.Name):
        return current.id, list(reversed(attrs))
    return None, []


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qname: str
    module: str
    path: str
    name: str
    cls: str | None
    parent: str | None
    line: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    local_names: frozenset[str]


@dataclass
class ModuleIndex:
    """Per-file slice of the call graph (memoised by stat signature)."""

    module: str
    path: str
    functions: list[FunctionInfo] = field(default_factory=list)
    classes: dict[str, list[str]] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)


def _resolve_relative(base_module: str, node: ast.ImportFrom) -> str:
    parts = base_module.split(".")
    if node.level > 0:
        parts = parts[: max(len(parts) - node.level, 0)]
        prefix = ".".join(parts)
    else:
        prefix = ""
    if node.module:
        return f"{prefix}.{node.module}" if prefix else node.module
    return prefix


def build_module_index(src: SourceFile) -> ModuleIndex:
    """Index one parsed file: functions, classes, imports."""
    module = module_name(src.path)
    index = ModuleIndex(module=module, path=str(src.path))
    for stmt in src.tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else local
                index.imports[local] = origin
        elif isinstance(stmt, ast.ImportFrom):
            origin_module = _resolve_relative(module, stmt)
            for alias in stmt.names:
                local = alias.asname or alias.name
                index.imports[local] = (
                    f"{origin_module}.{alias.name}" if origin_module
                    else alias.name
                )
    _index_functions(index, src.tree.body, cls=None, parent=None)
    return index


def _index_functions(
    index: ModuleIndex,
    body: Sequence[ast.stmt],
    cls: str | None,
    parent: str | None,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if parent is not None:
                qname = f"{parent}.<locals>.{stmt.name}"
            elif cls is not None:
                qname = f"{index.module}.{cls}.{stmt.name}"
            else:
                qname = f"{index.module}.{stmt.name}"
            index.functions.append(FunctionInfo(
                qname=qname,
                module=index.module,
                path=index.path,
                name=stmt.name,
                cls=cls,
                parent=parent,
                line=stmt.lineno,
                node=stmt,
                local_names=collect_scope(stmt)[0],
            ))
            _index_functions(index, stmt.body, cls=None, parent=qname)
        elif isinstance(stmt, ast.ClassDef):
            if cls is None and parent is None:
                bases = [
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in stmt.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                ]
                index.classes[stmt.name] = bases
                _index_functions(index, stmt.body, cls=stmt.name, parent=None)
            # Classes nested in functions/classes are rare enough to skip.


#: Per-file index cache: path -> ((mtime_ns, size), index).
_INDEX_CACHE: dict[str, tuple[tuple[int, int], ModuleIndex]] = {}


def indexed(src: SourceFile) -> ModuleIndex:
    """The module index for ``src``, reusing the stat-signature cache."""
    key = str(src.path)
    try:
        stat = src.path.stat()
        signature: tuple[int, int] | None = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        signature = None
    if signature is not None:
        cached = _INDEX_CACHE.get(key)
        if cached is not None and cached[0] == signature:
            return cached[1]
    index = build_module_index(src)
    if signature is not None:
        _INDEX_CACHE[key] = (signature, index)
    return index


@dataclass
class CallGraph:
    """Resolved call edges over every function in the linted files."""

    indexes: dict[str, ModuleIndex] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    by_method: dict[str, list[str]] = field(default_factory=dict)
    by_func_name: dict[str, list[str]] = field(default_factory=dict)
    class_methods: dict[str, dict[str, str]] = field(default_factory=dict)
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    edges: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _related: dict[str, frozenset[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Sequence[SourceFile]) -> "CallGraph":
        graph = cls()
        for src in files:
            index = indexed(src)
            graph.indexes[index.path] = index
            for name, bases in index.classes.items():
                graph.class_bases.setdefault(name, bases)
            for info in index.functions:
                graph.functions[info.qname] = info
                if info.cls is not None:
                    graph.by_method.setdefault(info.name, []).append(
                        info.qname)
                    graph.class_methods.setdefault(
                        info.cls, {})[info.name] = info.qname
                elif info.parent is None:
                    graph.by_func_name.setdefault(info.name, []).append(
                        info.qname)
        for info in graph.functions.values():
            graph._build_edges(info)
        return graph

    def _build_edges(self, info: FunctionInfo) -> None:
        aliases = build_aliases(info.node)
        targets: list[str] = []
        # Defining a nested function may mean calling it.
        prefix = f"{info.qname}.<locals>."
        for qname in self.functions:
            if qname.startswith(prefix) \
                    and "." not in qname[len(prefix):]:
                targets.append(qname)
        for node in inline_nodes(info.node):
            if isinstance(node, ast.Call):
                targets.extend(self.resolve_call(info, node, aliases))
        self.edges[info.qname] = tuple(dict.fromkeys(targets))

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------
    def related_classes(self, cls_name: str) -> frozenset[str]:
        """``cls_name`` plus ancestors and descendants, by name."""
        cached = self._related.get(cls_name)
        if cached is not None:
            return cached
        related = {cls_name}
        frontier = [cls_name]
        while frontier:  # ancestors
            current = frontier.pop()
            for base in self.class_bases.get(current, []):
                if base not in related:
                    related.add(base)
                    frontier.append(base)
        changed = True
        while changed:  # descendants (of anything already related)
            changed = False
            for name, bases in self.class_bases.items():
                if name not in related and any(b in related for b in bases):
                    related.add(name)
                    changed = True
        result = frozenset(related)
        self._related[cls_name] = result
        return result

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self,
        info: FunctionInfo,
        call: ast.Call,
        aliases: dict[str, tuple[str, str]],
    ) -> list[str]:
        """Possible targets of one call site (empty when unresolved)."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(info, func.id, aliases)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(info, func)
        return []

    def _resolve_name(
        self,
        info: FunctionInfo,
        name: str,
        aliases: dict[str, tuple[str, str]],
        _depth: int = 0,
    ) -> list[str]:
        alias = aliases.get(name)
        if alias is not None and _depth < 4:
            kind, value = alias
            if kind == "name":
                return self._resolve_name(info, value, aliases, _depth + 1)
            return self._resolve_method(value)
        if name in info.local_names and alias is None:
            # A locally-bound callable we could not trace.
            return []
        index = self.indexes.get(info.path)
        module = index.module if index is not None else info.module
        direct = self.functions.get(f"{module}.{name}")
        if direct is not None and direct.cls is None:
            return [direct.qname]
        if name in self.class_methods or name in self.class_bases:
            return self._constructor_targets(name)
        if index is not None and name in index.imports:
            return self._resolve_import(index.imports[name])
        return []

    def _constructor_targets(self, cls_name: str) -> list[str]:
        methods = self.class_methods.get(cls_name, {})
        return [
            methods[special] for special in ("__init__", "__post_init__")
            if special in methods
        ]

    def _resolve_import(self, origin: str) -> list[str]:
        direct = self.functions.get(origin)
        if direct is not None:
            return [direct.qname]
        tail = origin.rsplit(".", 1)[-1]
        if tail in self.class_methods or tail in self.class_bases:
            return self._constructor_targets(tail)
        return []

    def _resolve_attribute(
        self, info: FunctionInfo, func: ast.Attribute
    ) -> list[str]:
        method = func.attr
        base, chain = attribute_base(func)
        if base is None:
            return self._resolve_method(method)
        if base in ("self", "cls") and info.cls is not None and len(chain) == 1:
            related = self.related_classes(info.cls)
            targets = [
                qname for qname in self.by_method.get(method, [])
                if self.functions[qname].cls in related
            ]
            return targets or self._resolve_method(method)
        index = self.indexes.get(info.path)
        imported = index.imports.get(base) if index is not None else None
        if imported is not None and base not in info.local_names:
            if len(chain) == 1:
                return self._resolve_import(f"{imported}.{method}")
            return []
        return self._resolve_method(method)

    def _resolve_method(self, method: str) -> list[str]:
        return list(self.by_method.get(method, []))

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable(
        self,
        seeds: Sequence[str],
        max_depth: int = DEFAULT_DEPTH,
        exclude: frozenset[str] = frozenset(),
    ) -> dict[str, tuple[str, ...]]:
        """Functions reachable from ``seeds`` within ``max_depth`` calls.

        Maps each reached qname to its call chain ``(seed, ...,
        qname)`` — the shortest one found, for diagnostics.  Functions
        in ``exclude`` are neither reported nor traversed through (the
        perf tier passes the ``# repro: cold`` set here).
        """
        chains: dict[str, tuple[str, ...]] = {}
        queue: deque[tuple[str, tuple[str, ...]]] = deque()
        for seed in seeds:
            if seed in self.functions and seed not in chains \
                    and seed not in exclude:
                chains[seed] = (seed,)
                queue.append((seed, (seed,)))
        while queue:
            qname, chain = queue.popleft()
            if len(chain) > max_depth:
                continue
            for callee in self.edges.get(qname, ()):
                if callee not in chains and callee not in exclude:
                    chains[callee] = chain + (callee,)
                    queue.append((callee, chain + (callee,)))
        return chains

    # ------------------------------------------------------------------
    # Seed discovery
    # ------------------------------------------------------------------
    def hot_seeds(self, policy_classes: Sequence[str]) -> dict[str, str]:
        """Hot entry points for the perf tier: qname -> why it is hot.

        Four families: policy ``access``/``access_batch`` kernels (one
        body per request or per batch), the trace filter
        (:data:`HOT_KERNEL_FUNCTIONS`), the sampling filter kernels
        (:data:`HOT_SAMPLING_FUNCTIONS`), and the simulator/sampler
        drive loops (:data:`HOT_DRIVE_METHODS`).  Everything reachable
        from these inherits hotness via :meth:`reachable`.
        """
        seeds: dict[str, str] = {}
        for cls_name in policy_classes:
            methods = self.class_methods.get(cls_name, {})
            for method in ("access", "access_batch"):
                qname = methods.get(method)
                if qname is not None:
                    seeds.setdefault(
                        qname,
                        f"policy {method} kernel runs once per request",
                    )
        for name in sorted(HOT_KERNEL_FUNCTIONS):
            for qname in self.by_func_name.get(name, []):
                seeds.setdefault(
                    qname, "trace-filter kernel runs once per trace record")
        for name in sorted(HOT_SAMPLING_FUNCTIONS):
            for qname in self.by_func_name.get(name, []):
                seeds.setdefault(
                    qname, "sampling filter kernel touches every trace record")
        for cls_name, methods_wanted in HOT_DRIVE_METHODS.items():
            methods = self.class_methods.get(cls_name, {})
            for method in methods_wanted:
                qname = methods.get(method)
                if qname is not None:
                    seeds.setdefault(
                        qname, "simulator drive loop dispatches every request")
        return seeds
