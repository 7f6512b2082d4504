"""Composable synthetic access-pattern framework.

The paper's evaluation feeds main-memory traces (captured from PARSEC
under COTSon) to the policies.  We regenerate equivalent traces from
parameterised *patterns* — reusable building blocks for page-reference
behaviour — combined with *write models* that decide request direction.
Everything is driven by an explicit ``numpy`` RNG, so a seed fully
determines a trace.

Patterns produce page-id arrays over a dense universe ``[0, pages)``;
write models turn a page array into a boolean write-flag array;
:class:`PhasedWorkload` stitches ``(pattern, write model, length)``
phases into a :class:`~repro.trace.trace.Trace`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.trace.record import PAGE_SIZE
from repro.trace.rng import SeedLike, ensure_rng
from repro.trace.trace import Trace


class AccessPattern(abc.ABC):
    """Generates a sequence of page ids over ``[0, pages)``."""

    def __init__(self, pages: int) -> None:
        if pages < 1:
            raise ValueError("pattern needs at least one page")
        self.pages = pages

    @abc.abstractmethod
    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Produce ``count`` page ids (int64 array)."""

    def _check_count(self, count: int) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")


class UniformPattern(AccessPattern):
    """No locality at all: every page equally likely (canneal-style)."""

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        return rng.integers(0, self.pages, size=count, dtype=np.int64)


class ZipfPattern(AccessPattern):
    """Zipf-distributed popularity, the classic page-access skew.

    Rank ``k`` (0-based) is accessed with probability proportional to
    ``1 / (k + 1) ** alpha``.  A seed-stable permutation maps ranks to
    page ids so hot pages are scattered across the address space.
    """

    def __init__(self, pages: int, alpha: float = 1.0,
                 permute_seed: SeedLike = 0) -> None:
        super().__init__(pages)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        weights = 1.0 / np.arange(1, pages + 1, dtype=np.float64) ** alpha
        self._probabilities = weights / weights.sum()
        permuter = ensure_rng(permute_seed)
        self._rank_to_page = permuter.permutation(pages).astype(np.int64)

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        ranks = rng.choice(self.pages, size=count, p=self._probabilities)
        return self._rank_to_page[ranks]

    def top_pages(self, count: int) -> np.ndarray:
        """Page ids of the ``count`` most popular ranks."""
        return self._rank_to_page[:max(0, count)].copy()

    def traffic_share(self, count: int) -> float:
        """Fraction of this pattern's accesses hitting the top ranks."""
        if count <= 0:
            return 0.0
        return float(self._probabilities[:count].sum())


class SequentialScan(AccessPattern):
    """A streaming pass: consecutive pages with optional stride and wrap.

    The scan cursor persists across ``generate`` calls, so a pattern
    reused over several phases keeps streaming forward.
    """

    def __init__(self, pages: int, stride: int = 1, start: int = 0) -> None:
        super().__init__(pages)
        if stride == 0:
            raise ValueError("stride must be non-zero")
        self.stride = stride
        self._cursor = start % pages

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        offsets = np.arange(count, dtype=np.int64) * self.stride
        result = (self._cursor + offsets) % self.pages
        if count:
            self._cursor = int((result[-1] + self.stride) % self.pages)
        return result


class LoopPattern(AccessPattern):
    """Repeated sweeps over a window — the streamcluster signature.

    Scans ``window`` pages in order, then restarts, endlessly; a small
    per-access jitter probability models out-of-loop references.
    """

    def __init__(self, pages: int, window: int | None = None,
                 jitter: float = 0.0) -> None:
        super().__init__(pages)
        self.window = min(window or pages, pages)
        if self.window < 1:
            raise ValueError("window must be at least one page")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.jitter = jitter
        self._cursor = 0

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        positions = (self._cursor + np.arange(count, dtype=np.int64))
        result = positions % self.window
        if count:
            self._cursor = int((positions[-1] + 1) % self.window)
        if self.jitter > 0.0 and count:
            jitter_mask = rng.random(count) < self.jitter
            result = result.copy()
            result[jitter_mask] = rng.integers(
                0, self.pages, size=int(jitter_mask.sum()), dtype=np.int64
            )
        return result


class BurstPattern(AccessPattern):
    """Pick a page, hammer it for a burst, move on.

    ``burst_low``/``burst_high`` bound the (uniform) burst length.  Set
    the bounds just above a policy's promotion threshold and every
    burst baits a non-beneficial migration — the raytrace failure mode
    discussed in Section V-B.
    """

    def __init__(self, pages: int, burst_low: int, burst_high: int) -> None:
        super().__init__(pages)
        if not 1 <= burst_low <= burst_high:
            raise ValueError("need 1 <= burst_low <= burst_high")
        self.burst_low = burst_low
        self.burst_high = burst_high

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        mean_burst = (self.burst_low + self.burst_high) / 2
        bursts = int(count / mean_burst) + 2
        lengths = rng.integers(
            self.burst_low, self.burst_high + 1, size=bursts, dtype=np.int64
        )
        chosen = rng.integers(0, self.pages, size=bursts, dtype=np.int64)
        result = np.repeat(chosen, lengths)
        while result.shape[0] < count:  # pragma: no cover - defensive top-up
            extra_page = rng.integers(0, self.pages, dtype=np.int64)
            result = np.concatenate(
                [result, np.full(self.burst_high, extra_page, dtype=np.int64)]
            )
        return result[:count]


class WorkingSetPattern(AccessPattern):
    """A drifting hot working set over a colder universe.

    With probability ``hot_probability`` an access lands (uniformly) in
    a contiguous hot window of ``hot_pages`` pages; the window slides by
    ``drift`` pages every ``phase_length`` accesses, modelling program
    phases (facesim/ferret-style).
    """

    def __init__(
        self,
        pages: int,
        hot_pages: int,
        hot_probability: float = 0.9,
        phase_length: int = 10_000,
        drift: int | None = None,
    ) -> None:
        super().__init__(pages)
        if not 1 <= hot_pages <= pages:
            raise ValueError("hot_pages must be within the universe")
        if not 0.0 <= hot_probability <= 1.0:
            raise ValueError("hot_probability must be in [0, 1]")
        if phase_length < 1:
            raise ValueError("phase_length must be positive")
        self.hot_pages = hot_pages
        self.hot_probability = hot_probability
        self.phase_length = phase_length
        self.drift = hot_pages // 2 if drift is None else drift
        self._offset = 0
        self._ticks = 0

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        result = np.empty(count, dtype=np.int64)
        produced = 0
        while produced < count:
            room = min(count - produced,
                       self.phase_length - self._ticks % self.phase_length)
            hot_mask = rng.random(room) < self.hot_probability
            chunk = rng.integers(0, self.pages, size=room, dtype=np.int64)
            hot_hits = int(hot_mask.sum())
            chunk[hot_mask] = (
                self._offset
                + rng.integers(0, self.hot_pages, size=hot_hits,
                               dtype=np.int64)
            ) % self.pages
            result[produced:produced + room] = chunk
            produced += room
            self._ticks += room
            if self._ticks % self.phase_length == 0:
                self._offset = (self._offset + self.drift) % self.pages
        return result


class MixturePattern(AccessPattern):
    """Probabilistic blend of sub-patterns (e.g. 70 % zipf + 30 % scan).

    Each access is drawn from one component; components generate their
    own contiguous streams, which are then interleaved according to the
    drawn choices, so stateful components (scans, loops) stay coherent.
    """

    def __init__(
        self,
        components: Sequence[tuple[AccessPattern, float]],
    ) -> None:
        if not components:
            raise ValueError("mixture needs at least one component")
        pages = max(pattern.pages for pattern, _ in components)
        super().__init__(pages)
        weights = np.array([weight for _, weight in components], dtype=float)
        if (weights <= 0).any():
            raise ValueError("component weights must be positive")
        self._patterns = [pattern for pattern, _ in components]
        self._probabilities = weights / weights.sum()

    def generate(self, rng: np.random.Generator, count: int) -> np.ndarray:
        self._check_count(count)
        choices = rng.choice(
            len(self._patterns), size=count, p=self._probabilities
        )
        result = np.empty(count, dtype=np.int64)
        for index, pattern in enumerate(self._patterns):
            mask = choices == index
            need = int(mask.sum())
            if need:
                result[mask] = pattern.generate(rng, need)
        return result


# ----------------------------------------------------------------------
# Write models
# ----------------------------------------------------------------------
class WriteModel(abc.ABC):
    """Chooses the direction (read/write) of each request."""

    @abc.abstractmethod
    def flags(self, rng: np.random.Generator,
              pages: np.ndarray) -> np.ndarray:
        """Boolean write-flag array aligned with ``pages``."""


class BernoulliWrites(WriteModel):
    """Every request is a write with a fixed probability."""

    def __init__(self, write_ratio: float) -> None:
        if not 0.0 <= write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        self.write_ratio = write_ratio

    def flags(self, rng: np.random.Generator,
              pages: np.ndarray) -> np.ndarray:
        if self.write_ratio == 0.0:
            return np.zeros(pages.shape[0], dtype=bool)
        return rng.random(pages.shape[0]) < self.write_ratio


class ReadOnly(BernoulliWrites):
    """All reads (blackscholes)."""

    def __init__(self) -> None:
        super().__init__(0.0)


class AlignedWrites(WriteModel):
    """Writes concentrated on an explicit set of pages.

    Real applications write mostly to a compact set of hot structures
    (stacks, accumulators, output buffers) that also rank among the
    most-read pages; CLOCK-DWF's whole design bet is that this write
    working set roughly fits in DRAM.  ``member_pages`` names that set;
    requests to it are writes with ``hot_write_ratio``, all other
    requests with ``cold_write_ratio``.

    Use :func:`solve_cold_ratio` to pick ``cold_write_ratio`` so that
    the *overall* write ratio matches a target given the member pages'
    expected traffic share.
    """

    def __init__(
        self,
        member_pages: "np.ndarray | Sequence[int]",
        hot_write_ratio: float,
        cold_write_ratio: float,
    ) -> None:
        members = np.asarray(member_pages, dtype=np.int64)
        if members.size and members.min() < 0:
            raise ValueError("member pages must be non-negative")
        for name, value in (
            ("hot_write_ratio", hot_write_ratio),
            ("cold_write_ratio", cold_write_ratio),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        size = int(members.max()) + 1 if members.size else 1
        self._lookup = np.zeros(size, dtype=bool)
        self._lookup[members] = True
        self.hot_write_ratio = hot_write_ratio
        self.cold_write_ratio = cold_write_ratio

    def flags(self, rng: np.random.Generator,
              pages: np.ndarray) -> np.ndarray:
        draws = rng.random(pages.shape[0])
        in_range = pages < self._lookup.shape[0]
        hot = np.zeros(pages.shape[0], dtype=bool)
        hot[in_range] = self._lookup[pages[in_range]]
        return np.where(
            hot, draws < self.hot_write_ratio, draws < self.cold_write_ratio
        )


def solve_cold_ratio(
    target_write_ratio: float,
    member_traffic_share: float,
    hot_write_ratio: float,
) -> float:
    """Cold-page write probability hitting an overall write-ratio target.

    Solves ``share * hot + (1 - share) * cold = target`` for ``cold``,
    clamped to [0, 1].
    """
    if not 0.0 <= member_traffic_share <= 1.0:
        raise ValueError("member_traffic_share must be in [0, 1]")
    remainder = 1.0 - member_traffic_share
    if remainder <= 0.0:
        return 0.0
    cold = (
        target_write_ratio - member_traffic_share * hot_write_ratio
    ) / remainder
    return min(1.0, max(0.0, cold))


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Phase:
    """One workload phase: a pattern, a write model, and its length."""

    pattern: AccessPattern
    writes: WriteModel
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("phase length must be non-negative")

    def render(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Materialise this phase as (pages, write-flags)."""
        pages = self.pattern.generate(rng, self.length)
        return pages, self.writes.flags(rng, pages)


class ComponentPhase(Phase):
    """A mixture phase where each component has its *own* write model.

    Needed when the read/write behaviour is tied to the access pattern
    itself — e.g. vips' tile buffers take write bursts while its row
    scans are read-mostly.  A single :class:`MixturePattern` +
    :class:`WriteModel` cannot express that, because the write model
    only sees page numbers.
    """

    def __init__(
        self,
        components: Sequence[tuple[AccessPattern, float, WriteModel]],
        length: int,
    ) -> None:
        if not components:
            raise ValueError("component phase needs at least one component")
        weights = np.array([weight for _, weight, _ in components],
                           dtype=float)
        if (weights <= 0).any():
            raise ValueError("component weights must be positive")
        # Satisfy the (frozen) dataclass base with representative values.
        object.__setattr__(self, "pattern", components[0][0])
        object.__setattr__(self, "writes", components[0][2])
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "_components", list(components))
        object.__setattr__(self, "_probabilities", weights / weights.sum())
        if length < 0:
            raise ValueError("phase length must be non-negative")

    def render(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        choices = rng.choice(
            len(self._components), size=self.length, p=self._probabilities
        )
        pages = np.empty(self.length, dtype=np.int64)
        flags = np.empty(self.length, dtype=bool)
        for index, (pattern, _, writes) in enumerate(self._components):
            mask = choices == index
            need = int(mask.sum())
            if need:
                chunk = pattern.generate(rng, need)
                pages[mask] = chunk
                flags[mask] = writes.flags(rng, chunk)
        return pages, flags


class PhasedWorkload:
    """A named sequence of phases rendered into a :class:`Trace`."""

    def __init__(self, name: str, phases: Sequence[Phase],
                 page_size: int = PAGE_SIZE) -> None:
        if not phases:
            raise ValueError("workload needs at least one phase")
        self.name = name
        self.phases = list(phases)
        self.page_size = page_size

    @property
    def total_requests(self) -> int:
        return sum(phase.length for phase in self.phases)

    def build(self, seed: SeedLike = 0) -> Trace:
        """Render the workload deterministically from ``seed``.

        ``seed`` may also be a live ``Generator``, so several workloads
        can be built from one threaded stream without correlation.
        """
        rng = ensure_rng(seed)
        page_chunks: list[np.ndarray] = []
        write_chunks: list[np.ndarray] = []
        for phase in self.phases:
            pages, flags = phase.render(rng)
            page_chunks.append(pages)
            write_chunks.append(flags)
        return Trace(
            np.concatenate(page_chunks) if page_chunks else [],
            np.concatenate(write_chunks) if write_chunks else [],
            name=self.name,
            page_size=self.page_size,
        )
