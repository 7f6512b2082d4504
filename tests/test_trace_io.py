"""Round-trip tests for trace file formats.

Page traces are read back the one way the program reads them: through
``open_trace_source`` and ``materialize``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.io import save_trace, write_text_trace
from repro.trace.source import materialize, open_trace_source
from repro.trace.trace import Trace


def _read(path) -> Trace:
    return materialize(open_trace_source(path))


def _parse(tmp_path, text: str) -> Trace:
    path = tmp_path / "trace.trc"
    path.write_text(text, encoding="utf-8")
    return _read(path)


@pytest.fixture
def trace() -> Trace:
    rng = np.random.default_rng(3)
    return Trace(rng.integers(0, 100, 500), rng.random(500) < 0.4,
                 name="roundtrip", page_size=8192)


class TestTextFormat:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.trc"
        write_text_trace(trace, path)
        loaded = _read(path)
        assert loaded == trace
        assert loaded.name == "roundtrip"
        assert loaded.page_size == 8192

    def test_parse_comments_and_hex(self, tmp_path):
        trace = _parse(tmp_path, (
            "# name: demo\n"
            "# page_size: 0x2000\n"
            "\n"
            "R 0x10\n"
            "# a comment between requests\n"
            "W 17\n"
        ))
        assert trace.name == "demo"
        assert trace.page_size == 8192
        assert list(trace.pages) == [16, 17]
        assert list(trace.is_write) == [False, True]

    def test_parse_rejects_malformed_lines(self, tmp_path):
        with pytest.raises(ValueError):
            _parse(tmp_path, "R\n")

    def test_parse_rejects_bad_kind(self, tmp_path):
        with pytest.raises(ValueError):
            _parse(tmp_path, "Q 5\n")


class TestBinaryFormat:
    def test_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(trace, path)
        loaded = _read(path)
        assert loaded == trace
        assert loaded.name == trace.name

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_trace(Trace.empty(name="nothing"), path)
        loaded = _read(path)
        assert len(loaded) == 0
        assert loaded.name == "nothing"
