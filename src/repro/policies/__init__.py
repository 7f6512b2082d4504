"""Placement policies: the proposed scheme's rivals and baselines.

The ablation variants (:mod:`repro.policies.variants`) subclass the
proposed scheme from :mod:`repro.core`, which itself depends on this
package's base class — so they are exposed lazily (PEP 562) to keep
module loading acyclic whichever package is imported first.
"""

from repro.policies.base import HybridMemoryPolicy, PolicyFactory
from repro.policies.clock_dwf import ClockDWFPolicy, WriteHistoryClock
from repro.policies.registry import (
    available_policies,
    policy_factory,
    register_policy,
)
from repro.policies.replacement import (
    ClockReplacement,
    LRUReplacement,
    ReplacementAlgorithm,
)
from repro.policies.single_tier import (
    DramOnlyPolicy,
    NvmOnlyPolicy,
    SingleTierPolicy,
)

_LAZY = {
    "DramCachePolicy",
    "PDRAMPolicy",
    "EagerMigrationPolicy",
    "NeverMigratePolicy",
    "StaticPartitionPolicy",
}


def __getattr__(name: str):
    if name in _LAZY:
        if name == "PDRAMPolicy":
            from repro.policies.pdram import PDRAMPolicy

            return PDRAMPolicy
        if name == "DramCachePolicy":
            from repro.policies.dram_cache import DramCachePolicy

            return DramCachePolicy
        from repro.policies import variants

        return getattr(variants, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DramCachePolicy",
    "PDRAMPolicy",
    "ClockDWFPolicy",
    "ClockReplacement",
    "DramOnlyPolicy",
    "EagerMigrationPolicy",
    "HybridMemoryPolicy",
    "LRUReplacement",
    "NeverMigratePolicy",
    "NvmOnlyPolicy",
    "PolicyFactory",
    "ReplacementAlgorithm",
    "SingleTierPolicy",
    "StaticPartitionPolicy",
    "WriteHistoryClock",
    "available_policies",
    "policy_factory",
    "register_policy",
]
