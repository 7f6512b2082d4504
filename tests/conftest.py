"""Shared fixtures: small deterministic traces and machine specs."""

from __future__ import annotations

from typing import Iterator

import numpy as np
import pytest

from repro.analysis.sanitizer import SANITIZE_ENV
from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.specs import HybridMemorySpec
from repro.policies import registry
from repro.trace.trace import Trace


@pytest.fixture(autouse=True)
def _sanitize_simulations(monkeypatch: pytest.MonkeyPatch) -> None:
    """Run the whole suite with the simulation sanitizer enabled.

    Every ``HybridMemorySimulator`` built without an explicit
    ``sanitize=`` argument wraps its policy in the runtime sanitizer,
    so each test doubles as an invariant check.
    """
    monkeypatch.setenv(SANITIZE_ENV, "1")


@pytest.fixture(autouse=True)
def _restore_policy_registry() -> Iterator[None]:
    """Restore the policy registry's table after every test, so a
    policy one test registers (an example run in-process registers
    ``write-twice``) is gone in the next."""
    table = registry._FACTORIES
    saved = dict(table)
    yield
    table.clear()
    table.update(saved)


@pytest.fixture
def small_spec() -> HybridMemorySpec:
    """A tiny hybrid memory: 4 DRAM frames + 12 NVM frames."""
    return HybridMemorySpec(
        dram=dram_spec(),
        nvm=pcm_spec(),
        disk=hdd_spec(),
        dram_pages=4,
        nvm_pages=12,
    )


@pytest.fixture
def zipf_trace() -> Trace:
    """A 5k-request zipf trace over 64 pages, 30% writes."""
    rng = np.random.default_rng(7)
    pages = rng.zipf(1.3, 5000) % 64
    writes = rng.random(5000) < 0.3
    return Trace(pages, writes, name="zipf64")


@pytest.fixture
def tiny_trace() -> Trace:
    """A hand-written 8-request trace (pages 0-3)."""
    return Trace.from_pairs(
        [(0, False), (1, True), (0, False), (2, False),
         (3, True), (1, False), (0, True), (3, False)],
        name="tiny",
    )
