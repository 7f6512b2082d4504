"""Synthetic workload generators: pattern framework + PARSEC profiles."""

from repro.workloads.base import (
    AccessPattern,
    BernoulliWrites,
    BurstPattern,
    LoopPattern,
    MixturePattern,
    Phase,
    PhasedWorkload,
    ReadOnly,
    SequentialScan,
    UniformPattern,
    WorkingSetPattern,
    WriteModel,
    ZipfPattern,
)
from repro.workloads.parsec import (
    PROFILES,
    WORKLOAD_NAMES,
    ParsecProfile,
    WorkloadInstance,
    parsec_workload,
    scaled_pages,
    scaled_requests,
)
from repro.workloads.mix import WorkloadMix, mix_workloads
from repro.workloads import synthetic

__all__ = [
    "AccessPattern",
    "BernoulliWrites",
    "BurstPattern",
    "LoopPattern",
    "MixturePattern",
    "PROFILES",
    "ParsecProfile",
    "Phase",
    "PhasedWorkload",
    "ReadOnly",
    "SequentialScan",
    "UniformPattern",
    "WORKLOAD_NAMES",
    "WorkingSetPattern",
    "WorkloadInstance",
    "WorkloadMix",
    "WriteModel",
    "ZipfPattern",
    "mix_workloads",
    "parsec_workload",
    "scaled_pages",
    "scaled_requests",
    "synthetic",
]
