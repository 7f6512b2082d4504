"""repro — reproduction of "An Operating System Level Data Migration
Scheme in Hybrid DRAM-NVM Memory Architecture" (Salkhordeh & Asadi,
DATE 2016).

The package is organised bottom-up:

* :mod:`repro.trace` — memory/CPU access records, trace containers, IO
  and workload characterisation (Table III statistics).
* :mod:`repro.workloads` — synthetic access-pattern framework and the
  twelve PARSEC-profile generators.
* :mod:`repro.cpu` — the COTSon-substitute multi-core cache hierarchy
  that filters CPU traces into main-memory traces (Table II).
* :mod:`repro.memory` — device models (Table IV), event accounting and
  the paper's AMAT/APPR/endurance models (Eq. 1-3).
* :mod:`repro.mmu` — the Linux-like memory-management layer: page
  table, frame allocation, DMA, and the trace-driven simulator.
* :mod:`repro.core` — the paper's contribution: the two-LRU migration
  scheme with windowed hot-page counters (Algorithm 1), plus the
  adaptive-threshold extension.
* :mod:`repro.policies` — rivals and baselines: CLOCK-DWF, CLOCK, LRU,
  DRAM-only, NVM-only, and ablation variants.
* :mod:`repro.experiments` — the evaluation harness regenerating every
  table and figure of Section V.

Quick start::

    from repro import simulate, parsec_workload, policy_factory

    workload = parsec_workload("dedup")
    result = simulate(
        workload.trace, workload.spec, policy_factory("proposed"),
        inter_request_gap=workload.inter_request_gap,
        warmup_fraction=workload.warmup_fraction,
    )
    print(result.summary())
"""

from repro.core import AdaptiveMigrationPolicy, MigrationConfig, MigrationLRUPolicy
from repro.memory import (
    HybridMemorySpec,
    MemoryDeviceSpec,
    compute_nvm_writes,
    compute_performance,
    compute_power,
    dram_spec,
    hdd_spec,
    pcm_spec,
)
from repro.mmu import HybridMemorySimulator, MemoryManager, RunResult, simulate
from repro.policies import (
    ClockDWFPolicy,
    available_policies,
    policy_factory,
)
from repro.trace import Trace, characterize
from repro.workloads import parsec_workload

__version__ = "1.0.0"

__all__ = [
    "AdaptiveMigrationPolicy",
    "ClockDWFPolicy",
    "HybridMemorySimulator",
    "HybridMemorySpec",
    "MemoryDeviceSpec",
    "MemoryManager",
    "MigrationConfig",
    "MigrationLRUPolicy",
    "RunResult",
    "Trace",
    "__version__",
    "available_policies",
    "characterize",
    "compute_nvm_writes",
    "compute_performance",
    "compute_power",
    "dram_spec",
    "hdd_spec",
    "parsec_workload",
    "pcm_spec",
    "policy_factory",
    "simulate",
]
