"""Policy interface: the decision layer over the memory manager.

A policy receives the request stream and decides placement — where
faults fill, what migrates, what gets evicted — by invoking
:class:`~repro.mmu.manager.MemoryManager` primitives.  All bookkeeping
(hits, faults, migrations, wear) happens inside the manager, so every
policy is scored identically.
"""

from __future__ import annotations

import abc
from types import MappingProxyType
from typing import Callable, ClassVar, Mapping, NamedTuple

from repro.mmu.manager import MemoryManager

#: Factory signature used by the simulator and the registry.
PolicyFactory = Callable[[MemoryManager], "HybridMemoryPolicy"]


class KernelContract(NamedTuple):
    """What the ``access_batch`` kernel of its declaring class assumes."""

    #: Methods the loop inlines or bypasses: overriding one disables it.
    inlines: tuple[str, ...]
    #: The exact type of each attribute whose internals the loop reads.
    reads: Mapping[str, type] = MappingProxyType({})
    #: Methods the loop calls only once a class overrides them.
    hooks: tuple[str, ...] = ()


#: Per class: the names in its kernel's contract that it overrides, and
#: the ``reads`` pairs when those are all hooks (else ``None``).
_KERNELS: dict[type, tuple[frozenset[str], tuple | None]] = {}


class HybridMemoryPolicy(abc.ABC):
    """Base class for page-placement policies over a hybrid memory."""

    #: Short identifier used in reports and the policy registry.
    name: str = "abstract"

    #: The per-request loop of :meth:`access_batch` inlines nothing.
    kernel_contract: ClassVar[KernelContract] = KernelContract(())

    def __init__(self, mm: MemoryManager) -> None:
        self.mm = mm

    @classmethod
    def kernel_overrides(cls) -> frozenset[str]:
        """The names in its kernel's contract, ``access_batch`` included,
        that ``cls`` resolves otherwise than the nearest class in its MRO
        declaring ``kernel_contract`` (memoised: sanitized runs call the
        kernel once per request)."""
        known = _KERNELS.get(cls)
        if known is None:
            declarer = next(
                k for k in cls.__mro__ if "kernel_contract" in vars(k))
            contract: KernelContract = vars(declarer)["kernel_contract"]
            names = ("access_batch", *contract.inlines, *contract.hooks)
            overrides = frozenset(
                name for name in names
                if getattr(cls, name) is not getattr(declarer, name))
            reads = tuple(contract.reads.items())
            known = _KERNELS[cls] = (
                overrides, reads if overrides <= set(contract.hooks) else None
            )
        return known[0]

    def runs_kernel(self) -> bool:
        """Whether this object's kernel may run: its class overrides no
        name in the contract but hooks, and each attribute the contract
        reads has exactly its declared type.  Where not, the kernel
        replays through :meth:`access`, bypassing no override."""
        if type(self) not in _KERNELS:
            type(self).kernel_overrides()
        reads = _KERNELS[type(self)][1]
        if reads is None:
            return False
        for name, kind in reads:
            if type(getattr(self, name)) is not kind:
                return False
        return True

    @abc.abstractmethod
    def access(self, page: int, is_write: bool) -> None:
        """Handle one memory request end-to-end.

        Implementations must call ``self.mm.record_request(is_write)``
        exactly once *on every control-flow path*, then service the
        request through the manager (``serve_hit`` / ``fault_fill``
        plus any migrations/evictions the policy decides on).

        This contract is machine-checked at runtime by the simulation
        sanitizer (:mod:`repro.analysis.sanitizer`), which asserts that
        the request counter advanced exactly once per ``access`` call.
        """

    def access_batch(self, pages: list[int], writes: list[bool]) -> None:
        """Handle a pre-decoded span of requests (the batched kernel).

        ``pages`` and ``writes`` are equal-length lists of native
        Python ``int``/``bool`` (the simulator converts the trace's
        numpy arrays once via ``.tolist()``).  The default
        implementation simply loops over :meth:`access`, so every
        policy is batch-drivable; hot policies override it with a
        kernel that hoists bound methods out of the loop and serves
        resident hits inline, declaring a :class:`KernelContract`.

        Overrides are bound by the same contract as :meth:`access` —
        every request routes through ``self.mm.record_request``
        exactly once — checked at runtime by the sanitizer and proven
        behaviourally by the golden-equivalence tests
        (``tests/test_batch_equivalence.py``): a batch replay must
        produce *bit-identical* results to the per-request replay.
        """
        access = self.access
        for page, is_write in zip(pages, writes):
            access(page, is_write)

    def dispose(self) -> None:
        """End a run nobody inspects any more: dispose of every
        attribute that can (LRU queues, replacement algorithms, clock
        rings).  That breaks their node cycles, so the run's memory is
        freed by reference counting instead of whenever the cyclic
        collector runs.  The policy replays nothing afterwards."""
        for value in vars(self).values():
            dispose = getattr(type(value), "dispose", None)
            if dispose is not None:
                dispose(value)

    def validate(self) -> None:  # repro: cold
        """Check policy-internal state against the manager's.

        Subclasses extend this with their own structure checks; the
        default validates the shared mechanical layer.  The simulator
        enforces it at end-of-run, and the sanitizer re-runs it on its
        periodic deep-check cadence.
        """
        self.mm.validate()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} policy={self.name!r}>"
