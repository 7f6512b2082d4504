"""Device models, event accounting and the paper's cost models."""

from repro.memory.devices import (
    DiskSpec,
    MemoryDeviceSpec,
    dram_spec,
    hdd_spec,
    pcm_spec,
    sttram_spec,
)
from repro.memory.specs import (
    DEFAULT_DRAM_FRACTION,
    DEFAULT_MEMORY_FRACTION,
    HybridMemorySpec,
)
from repro.memory.accounting import AccessAccounting, WearAccounting
from repro.memory.metrics import PerformanceBreakdown, compute_performance
from repro.memory.power import PowerBreakdown, compute_power
from repro.memory.wear_leveling import (
    StartGapLeveler,
    WearSummary,
    replay_writes,
)
from repro.memory.endurance import (
    EnduranceReport,
    NVMWriteBreakdown,
    compute_nvm_writes,
    endurance_report,
)

__all__ = [
    "AccessAccounting",
    "DEFAULT_DRAM_FRACTION",
    "DEFAULT_MEMORY_FRACTION",
    "DiskSpec",
    "EnduranceReport",
    "HybridMemorySpec",
    "MemoryDeviceSpec",
    "NVMWriteBreakdown",
    "PerformanceBreakdown",
    "PowerBreakdown",
    "WearAccounting",
    "compute_nvm_writes",
    "compute_performance",
    "compute_power",
    "dram_spec",
    "endurance_report",
    "hdd_spec",
    "pcm_spec",
    "StartGapLeveler",
    "WearSummary",
    "replay_writes",
    "sttram_spec",
]
