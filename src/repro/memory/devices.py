"""Memory and storage device characteristics (paper Table IV / Table II).

All latencies are seconds, all energies joules, so model outputs come
out in SI units without conversion factors.  The presets reproduce
Table IV verbatim (the paper takes them from the CLOCK-DWF study for a
fair comparison) and Table II's 5 ms HDD.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping

from repro.units import Bytes, Joules, Seconds, Watts

NANOSECOND = 1e-9
MILLISECOND = 1e-3
NANOJOULE = 1e-9
GIB = 1 << 30


@dataclass(frozen=True)
class MemoryDeviceSpec:
    """Latency, dynamic energy and static power of one memory technology.

    Parameters
    ----------
    name:
        Technology label used in reports.
    read_latency / write_latency:
        Per-access service time in seconds.
    read_energy / write_energy:
        Per-access dynamic energy in joules.
    static_power_per_gb:
        Background (leakage + refresh) power in watts per GiB of
        capacity — the paper's ``j/GB.second`` column.
    endurance_cycles:
        Writes a cell sustains before wear-out; ``None`` means
        effectively unlimited (DRAM).
    """

    name: str
    read_latency: Seconds
    write_latency: Seconds
    read_energy: Joules
    write_energy: Joules
    static_power_per_gb: Watts
    endurance_cycles: int | None = None

    def __post_init__(self) -> None:
        for field_name in (
            "read_latency",
            "write_latency",
            "read_energy",
            "write_energy",
            "static_power_per_gb",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")
        if self.endurance_cycles is not None and self.endurance_cycles <= 0:
            raise ValueError("endurance_cycles must be positive when given")

    # ------------------------------------------------------------------
    def access_latency(self, is_write: bool) -> Seconds:
        return self.write_latency if is_write else self.read_latency

    def access_energy(self, is_write: bool) -> Joules:
        return self.write_energy if is_write else self.read_energy

    def static_power(self, capacity_bytes: Bytes) -> Watts:
        """Static power in watts for ``capacity_bytes`` of this memory."""
        return self.static_power_per_gb * capacity_bytes / GIB

    @property
    def is_asymmetric(self) -> bool:
        """True when writes cost more than reads (the NVM signature)."""
        return (
            self.write_latency > self.read_latency
            or self.write_energy > self.read_energy
        )

    def scaled(self, *, latency: float = 1.0, energy: float = 1.0,
               static: float = 1.0) -> "MemoryDeviceSpec":
        """A copy with latency/energy/static power multiplied by factors.

        Lets sensitivity studies model faster or slower NVM generations
        without redefining the full spec.
        """
        return replace(
            self,
            read_latency=self.read_latency * latency,
            write_latency=self.write_latency * latency,
            read_energy=self.read_energy * energy,
            write_energy=self.write_energy * energy,
            static_power_per_gb=self.static_power_per_gb * static,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (result cache serialisation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MemoryDeviceSpec":
        return cls(**data)


@dataclass(frozen=True)
class DiskSpec:
    """Secondary storage model: a constant service time per page move.

    The paper models the disk as a 5 ms HDD (Table II) and charges only
    the disk latency for a page fault, because the DMA write of the
    incoming page overlaps with reading the next block from disk
    (Section II-A).
    """

    name: str
    access_latency: Seconds

    def __post_init__(self) -> None:
        if self.access_latency < 0:
            raise ValueError("access_latency must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (result cache serialisation)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DiskSpec":
        return cls(**data)


def dram_spec() -> MemoryDeviceSpec:
    """Table IV DRAM: 50/50 ns, 3.2/3.2 nJ, 1 J/(GiB*s) static."""
    return MemoryDeviceSpec(
        name="DRAM",
        read_latency=50 * NANOSECOND,
        write_latency=50 * NANOSECOND,
        read_energy=3.2 * NANOJOULE,
        write_energy=3.2 * NANOJOULE,
        static_power_per_gb=1.0,
        endurance_cycles=None,
    )


def pcm_spec() -> MemoryDeviceSpec:
    """Table IV NVM (PCM): 100/350 ns, 6.4/32 nJ, 0.1 J/(GiB*s) static.

    Endurance defaults to 1e8 cycles, the figure commonly cited for PCM
    (the paper reports *relative* lifetime, so the constant only scales
    absolute lifetime estimates).
    """
    return MemoryDeviceSpec(
        name="NVM (PCM)",
        read_latency=100 * NANOSECOND,
        write_latency=350 * NANOSECOND,
        read_energy=6.4 * NANOJOULE,
        write_energy=32 * NANOJOULE,
        static_power_per_gb=0.1,
        endurance_cycles=100_000_000,
    )


def sttram_spec() -> MemoryDeviceSpec:
    """An STT-RAM-like NVM point for sensitivity studies.

    Faster and less write-asymmetric than PCM, with higher endurance;
    representative of the STT-RAM parameters in the literature the
    paper cites ([4], [6]).
    """
    return MemoryDeviceSpec(
        name="NVM (STT-RAM)",
        read_latency=60 * NANOSECOND,
        write_latency=120 * NANOSECOND,
        read_energy=4.0 * NANOJOULE,
        write_energy=12.0 * NANOJOULE,
        static_power_per_gb=0.15,
        endurance_cycles=4_000_000_000,
    )


def hdd_spec() -> DiskSpec:
    """Table II secondary storage: HDD with 5 ms response time."""
    return DiskSpec(name="HDD", access_latency=5 * MILLISECOND)
