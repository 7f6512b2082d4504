"""Tests for the perf tier's project call graph."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.analysis.context import SourceFile
from repro.analysis.perf.callgraph import (
    CallGraph,
    build_aliases,
    build_module_index,
    indexed,
    module_name,
)


def _src(tmp_path: Path, name: str, source: str) -> SourceFile:
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    text = textwrap.dedent(source)
    target.write_text(text, encoding="utf-8")
    return SourceFile(
        path=target, text=text, tree=ast.parse(text, filename=str(target)))


def _func(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


# ----------------------------------------------------------------------
# Module naming and indexing
# ----------------------------------------------------------------------
class TestModuleIndex:
    def test_module_name_anchors_at_repro(self):
        assert module_name(
            Path("/x/src/repro/memory/devices.py")
        ) == "repro.memory.devices"
        assert module_name(
            Path("/x/src/repro/obs/__init__.py")) == "repro.obs"

    def test_module_name_fixture_fallback(self):
        assert module_name(Path("/tmp/fix0/mod.py")) == "fix0.mod"

    def test_functions_methods_and_nested(self, tmp_path):
        src = _src(tmp_path, "mod.py", """
            def outer():
                def inner():
                    return 1
                return inner

            class Box:
                def get(self):
                    return 0
        """)
        index = build_module_index(src)
        qnames = {info.qname for info in index.functions}
        module = index.module
        assert f"{module}.outer" in qnames
        assert f"{module}.outer.<locals>.inner" in qnames
        assert f"{module}.Box.get" in qnames
        assert index.classes == {"Box": []}

    def test_import_aliases(self, tmp_path):
        src = _src(tmp_path, "mod.py", """
            import json
            import numpy as np
            from collections import deque as dq
            from .sibling import helper
        """)
        index = build_module_index(src)
        assert index.imports["json"] == "json"
        assert index.imports["np"] == "numpy"
        assert index.imports["dq"] == "collections.deque"
        assert index.imports["helper"] == f"{tmp_path.name}.sibling.helper"

    def test_index_cache_reuses_until_file_changes(self, tmp_path):
        src = _src(tmp_path, "mod.py", "X = 1\n")
        first = indexed(src)
        assert indexed(src) is first
        src.path.write_text("X = 1\ndef y():\n    return 2\n",
                            encoding="utf-8")
        fresh = SourceFile(
            path=src.path,
            text=src.path.read_text(encoding="utf-8"),
            tree=ast.parse(src.path.read_text(encoding="utf-8")),
        )
        second = indexed(fresh)
        assert second is not first
        assert [info.name for info in second.functions] == ["y"]


# ----------------------------------------------------------------------
# Alias extraction
# ----------------------------------------------------------------------
class TestAliases:
    def test_attribute_and_name_aliases(self):
        func = _func(ast.parse(textwrap.dedent("""
            def kernel(mm):
                bus = mm.events
                record = mm.record_request
                other = bus
        """)), "kernel")
        aliases = build_aliases(func)
        assert aliases["bus"] == ("attr", "events")
        assert aliases["record"] == ("attr", "record_request")
        assert aliases["other"] == ("name", "bus")

    def test_rebound_names_drop_out(self):
        func = _func(ast.parse(textwrap.dedent("""
            def kernel(mm):
                bus = mm.events
                bus = None
        """)), "kernel")
        assert "bus" not in build_aliases(func)


# ----------------------------------------------------------------------
# Call resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_same_module_and_constructor(self, tmp_path):
        src = _src(tmp_path, "mod.py", """
            class Box:
                def __init__(self):
                    self.v = 0

            def helper():
                return Box()

            def entry():
                return helper()
        """)
        graph = CallGraph.build([src])
        module = next(iter(graph.indexes.values())).module
        assert graph.edges[f"{module}.entry"] == (f"{module}.helper",)
        assert graph.edges[f"{module}.helper"] == (
            f"{module}.Box.__init__",)

    def test_self_dispatch_over_hierarchy(self, tmp_path):
        src = _src(tmp_path, "mod.py", """
            class Base:
                def run(self):
                    return self.step()

                def step(self):
                    return 0

            class Child(Base):
                def step(self):
                    return 1

            class Unrelated:
                def step(self):
                    return 2
        """)
        graph = CallGraph.build([src])
        module = next(iter(graph.indexes.values())).module
        targets = set(graph.edges[f"{module}.Base.run"])
        assert f"{module}.Base.step" in targets
        assert f"{module}.Child.step" in targets
        assert f"{module}.Unrelated.step" not in targets

    def test_hoisted_method_alias_resolves(self, tmp_path):
        src = _src(tmp_path, "mod.py", """
            class Manager:
                def record_request(self, is_write):
                    return is_write

            def kernel(mm):
                record_request = mm.record_request
                record_request(True)
        """)
        graph = CallGraph.build([src])
        module = next(iter(graph.indexes.values())).module
        assert f"{module}.Manager.record_request" in \
            graph.edges[f"{module}.kernel"]


# ----------------------------------------------------------------------
# Reachability
# ----------------------------------------------------------------------
class TestReachability:
    def test_chain_and_depth_bound(self, tmp_path):
        src = _src(tmp_path, "mod.py", """
            def a():
                return b()

            def b():
                return c()

            def c():
                return 0
        """)
        graph = CallGraph.build([src])
        module = next(iter(graph.indexes.values())).module
        a, b, c = (f"{module}.{n}" for n in "abc")
        full = graph.reachable([a])
        assert full[c] == (a, b, c)
        shallow = graph.reachable([a], max_depth=1)
        assert b in shallow and c not in shallow
