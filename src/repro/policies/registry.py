"""Policy registry: build any policy by name.

The experiment runner, benchmarks and examples all reference policies
by their short names; the registry maps those to factories over a
:class:`~repro.mmu.manager.MemoryManager`.

The built-in factory table is populated lazily because the registry
sits between two packages that import each other's leaves
(``repro.core`` provides policies, ``repro.policies.base`` provides
their base class); deferring the imports keeps module loading acyclic
regardless of which package is imported first.
"""

from __future__ import annotations

from typing import Mapping

from repro.policies.base import PolicyFactory

_FACTORIES: dict[str, PolicyFactory] = {}


def _ensure_builtins() -> None:
    if _FACTORIES:
        return
    from repro.core.adaptive import AdaptiveMigrationPolicy
    from repro.core.migration import MigrationLRUPolicy
    from repro.policies.clock_dwf import ClockDWFPolicy
    from repro.policies.dram_cache import DramCachePolicy
    from repro.policies.pdram import PDRAMPolicy
    from repro.policies.replacement import ClockReplacement
    from repro.policies.single_tier import DramOnlyPolicy, NvmOnlyPolicy
    from repro.policies.variants import (
        EagerMigrationPolicy,
        NeverMigratePolicy,
        StaticPartitionPolicy,
    )

    _FACTORIES.update({
        "proposed": MigrationLRUPolicy,
        "adaptive": AdaptiveMigrationPolicy,
        "clock-dwf": ClockDWFPolicy,
        "pdram": PDRAMPolicy,
        "dram-cache": DramCachePolicy,
        "dram-only": DramOnlyPolicy,
        "nvm-only": NvmOnlyPolicy,
        "eager-migration": EagerMigrationPolicy,
        "never-migrate": NeverMigratePolicy,
        "static-partition": StaticPartitionPolicy,
        "dram-only-clock": lambda mm: DramOnlyPolicy(mm, ClockReplacement),
        "nvm-only-clock": lambda mm: NvmOnlyPolicy(mm, ClockReplacement),
    })


def available_policies() -> list[str]:
    """Registered policy names, sorted."""
    _ensure_builtins()
    return sorted(_FACTORIES)


def policy_factory(
    name: str,
    overrides: Mapping[str, object] | None = None,
) -> PolicyFactory:
    """Factory for a registered policy name.

    ``overrides`` configures the policy structurally instead of through
    ad-hoc closures: for the configurable policies (``proposed``,
    ``adaptive``, ``clock-dwf``) the mapping supplies
    :class:`MigrationConfig` fields and/or constructor keywords —
    exactly what :class:`~repro.experiments.runspec.RunSpec` carries as
    its hashable ``policy_overrides``.
    """
    _ensure_builtins()
    try:
        base = _FACTORIES[name]
    except KeyError:
        known = ", ".join(available_policies())
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None
    if not overrides:
        return base
    return _configured_factory(name, dict(overrides))


def _configured_factory(
    name: str, overrides: dict[str, object]
) -> PolicyFactory:
    """Bind structured overrides into a factory for a configurable policy."""
    from dataclasses import fields

    from repro.core.adaptive import AdaptiveMigrationPolicy
    from repro.core.config import MigrationConfig
    from repro.core.migration import MigrationLRUPolicy
    from repro.policies.clock_dwf import ClockDWFPolicy

    config_fields = {f.name for f in fields(MigrationConfig)}
    config_kwargs = {
        key: value for key, value in overrides.items()
        if key in config_fields
    }
    extra = {
        key: value for key, value in overrides.items()
        if key not in config_fields
    }

    if name == "proposed":
        if extra:
            raise ValueError(
                f"unknown override(s) for 'proposed': {sorted(extra)}")
        config = MigrationConfig(**config_kwargs)
        return lambda mm: MigrationLRUPolicy(mm, config)
    if name == "adaptive":
        config = MigrationConfig(**config_kwargs)
        return lambda mm: AdaptiveMigrationPolicy(mm, config, **extra)
    if name == "clock-dwf":
        if config_kwargs:
            raise ValueError(
                "clock-dwf takes no MigrationConfig fields: "
                f"{sorted(config_kwargs)}")
        return lambda mm: ClockDWFPolicy(mm, **extra)
    raise ValueError(f"policy {name!r} does not accept overrides")


def register_policy(name: str, factory: PolicyFactory) -> None:
    """Register a custom policy (examples/tests extending the suite)."""
    _ensure_builtins()
    if name in _FACTORIES:
        raise ValueError(f"policy {name!r} already registered")
    _FACTORIES[name] = factory
