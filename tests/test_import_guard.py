"""The run path stays off the lint framework and off ``numpy.ma``.

``repro.analysis`` (the lint rules and the perf tier's call graph) is
only needed to lint or to sanitize; ``numpy.ma`` is a lazily imported
numpy submodule a plain ``np.unique`` pulls in.  A fresh process that
runs a simulate cell and an analytic cell and imports the CLI without
``REPRO_SANITIZE`` must load neither.  Sanitizing must not load the
linter either: the test suite and every ``--sanitize`` run import the
sanitizer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.mmu.simulator import SANITIZE_ENV

_SCRIPT = """
import json
import sys

import numpy

bare_numpy_loads_ma = "numpy.ma" in sys.modules

from repro.experiments.runspec import RunSpec

for engine in ("simulate", "analytic"):
    RunSpec("dedup", policy="proposed", engine=engine,
            request_scale=0.0005).execute()
import repro.cli

print(json.dumps({
    "bare_numpy_loads_ma": bare_numpy_loads_ma,
    "analysis": sorted(name for name in sys.modules
                       if name.split(".")[:2] == ["repro", "analysis"]),
    "numpy_ma": "numpy.ma" in sys.modules,
}))
"""


_SANITIZER_SCRIPT = """
import json
import sys

import repro.analysis.sanitizer

print(json.dumps({
    "analysis": sorted(name for name in sys.modules
                       if name.split(".")[:2] == ["repro", "analysis"]),
}))
"""


def _fresh_process(script: str) -> dict:
    """Run ``script`` in a clean interpreter; its last stdout JSON line."""
    env = {key: value for key, value in os.environ.items()
           if key != SANITIZE_ENV}
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_run_path_imports_neither_analysis_nor_numpy_ma():
    loaded = _fresh_process(_SCRIPT)
    assert loaded["analysis"] == []
    if not loaded["bare_numpy_loads_ma"]:
        assert not loaded["numpy_ma"]


def test_sanitizer_import_leaves_the_linter_unloaded():
    loaded = _fresh_process(_SANITIZER_SCRIPT)
    assert "repro.analysis.lint" not in loaded["analysis"]
    assert loaded["analysis"] == ["repro.analysis", "repro.analysis.sanitizer"]
