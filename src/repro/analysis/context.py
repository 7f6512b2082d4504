"""Project-wide context shared by the lint rules.

R004 (registry coverage) and the perf tier's hot seeds need to know
which classes are placement policies and which class names the policy
registry references.  Both are computed once over the
whole set of linted files, so rules stay simple per-file visitors.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

#: The root of the policy class hierarchy (``repro.policies.base``).
POLICY_ROOT = "HybridMemoryPolicy"


@dataclass
class SourceFile:
    """One parsed python file."""

    path: Path
    text: str
    tree: ast.Module

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()


def base_names(node: ast.ClassDef) -> list[str]:
    """Base-class identifiers of a class (``Name`` ids / ``Attribute`` attrs)."""
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def is_abstract(node: ast.ClassDef) -> bool:
    """True when the class still declares abstract methods of its own."""
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in item.decorator_list:
                name = decorator.attr if isinstance(decorator, ast.Attribute) \
                    else getattr(decorator, "id", "")
                if name in ("abstractmethod", "abstractproperty"):
                    return True
    return False


@dataclass
class ProjectContext:
    """Cross-file facts the per-file rules consult."""

    files: list[SourceFile]
    #: class name -> base-class names, over every linted file.
    class_bases: dict[str, list[str]] = field(default_factory=dict)
    #: classes (transitively) derived from :data:`POLICY_ROOT`.
    policy_classes: set[str] = field(default_factory=set)
    #: identifiers and string literals appearing in ``policies/registry.py``,
    #: or ``None`` when no registry file is among the linted files.
    registry_names: set[str] | None = None
    #: per-run memoisation space for expensive analyses (keyed by the
    #: analysis; the perf tier keeps its hot-region map here).
    scratch: dict = field(default_factory=dict)

    @classmethod
    def build(cls, files: list[SourceFile]) -> "ProjectContext":
        context = cls(files=files)
        for src in files:
            for node in ast.walk(src.tree):
                if isinstance(node, ast.ClassDef):
                    context.class_bases[node.name] = base_names(node)
            if src.path.name == "registry.py":
                context.registry_names = _referenced_names(src.tree)
        context.policy_classes = _policy_closure(context.class_bases)
        return context

    def is_policy_class(self, node: ast.ClassDef) -> bool:
        return node.name in self.policy_classes


def _policy_closure(class_bases: dict[str, list[str]]) -> set[str]:
    """Classes deriving from the policy root, transitively by name.

    Bases defined outside the linted files are matched heuristically by
    the ``*Policy`` suffix so single-file lint runs still recognise
    e.g. ``class Variant(MigrationLRUPolicy)``.
    """
    policies = {POLICY_ROOT}
    changed = True
    while changed:
        changed = False
        for name, bases in class_bases.items():
            if name in policies:
                continue
            for base in bases:
                known = base in policies
                external = base not in class_bases and base.endswith("Policy")
                if known or external:
                    policies.add(name)
                    changed = True
                    break
    policies.discard(POLICY_ROOT)
    return policies


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every identifier and string literal the registry mentions."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names
