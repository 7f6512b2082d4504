"""Load an edited copy of a shipped module, for seeded-bug tests.

A seeded-bug test re-introduces one mistake into a real source file and
shows that a runtime check (the sanitizer, a pinned digest, a literal
equation) stops it.  :func:`load_variant` applies the edit to the
module's source text and executes the result as a fresh module object;
the shipped module and every importer of it are left untouched.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).parent


def load_variant(relative: str, *edits: tuple[str, str]) -> types.ModuleType:
    """Execute ``src/repro/<relative>`` with each ``(old, new)`` edit applied.

    Every ``old`` anchor must occur in the source, so a test whose
    anchor has drifted fails loudly instead of testing the pristine
    file.  With no edits the variant is the unmodified module: the
    control case of each seeded-bug experiment.
    """
    path = SRC_ROOT / relative
    text = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert old in text, f"edit anchor not found in {relative}: {old!r}"
        text = text.replace(old, new, 1)
    name = "variant_" + relative.removesuffix(".py").replace("/", "_")
    module = types.ModuleType(name)
    module.__file__ = str(path)
    # dataclasses resolves string annotations through sys.modules while
    # the class body is processed, so the variant is registered for the
    # duration of its execution only.
    sys.modules[name] = module
    try:
        exec(compile(text, str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module
