#!/usr/bin/env python3
"""NVM-technology sensitivity: PCM today, STT-RAM tomorrow.

Section IV notes that the promotion thresholds are "closely related to
the cost of the migration between DRAM and NVM which is related to the
performance and power characteristics of the employed NVM".  This
study re-runs the comparison with an STT-RAM-like device (faster, less
write-asymmetric, higher endurance) and with hypothetical future PCM
generations, showing how the hybrid trade-off shifts with technology.

Run:  python examples/nvm_technology_study.py
"""

from repro.api import (
    HybridMemorySpec,
    parsec_workload,
    pcm_spec,
    policy_factory,
    render_table,
    simulate,
    sttram_spec,
)


def main() -> None:
    workload = parsec_workload("facesim")
    base = workload.spec
    # keep the calibrated static compensation of the rendered workload
    static_factor = (base.nvm.static_power_per_gb
                     / pcm_spec().static_power_per_gb)

    import dataclasses

    faster_writes = dataclasses.replace(
        base.nvm,
        name="PCM, 2x faster writes",
        write_latency=base.nvm.write_latency / 2,
        write_energy=base.nvm.write_energy / 2,
    )
    technologies = {
        "PCM (Table IV)": base.nvm,
        "PCM, 2x faster writes": faster_writes,
        # `static` here is scaled()'s dimensionless factor, not the
        # PowerBreakdown.static joules field of the same name.
        "STT-RAM-like": sttram_spec().scaled(static=static_factor),
        "PCM, half energy": base.nvm.scaled(energy=0.5),
        "PCM, 2x slower": base.nvm.scaled(latency=2.0),
    }

    print(f"workload: {workload.name} "
          f"({workload.trace.write_ratio:.0%} writes)\n")
    rows = []
    for name, nvm in technologies.items():
        spec = HybridMemorySpec(
            dram=base.dram, nvm=nvm, disk=base.disk,
            dram_pages=base.dram_pages, nvm_pages=base.nvm_pages,
        )
        dram_only = simulate(
            workload.trace, spec.as_dram_only(),
            policy_factory("dram-only"),
            inter_request_gap=workload.inter_request_gap,
            warmup_fraction=workload.warmup_fraction,
        )
        for policy in ("clock-dwf", "proposed"):
            result = simulate(
                workload.trace, spec, policy_factory(policy),
                inter_request_gap=workload.inter_request_gap,
                warmup_fraction=workload.warmup_fraction,
            )
            rows.append((
                name,
                policy,
                f"{result.performance.memory_time * 1e9:.1f}",
                f"{result.power.appr / dram_only.power.appr:.2f}",
                f"{result.accounting.migrations:,}",
                f"{result.nvm_writes.total:,}",
            ))
    print(render_table(
        ["NVM technology", "policy", "mem time (ns)", "power vs DRAM",
         "migrations", "NVM writes"],
        rows,
        title="facesim across NVM technologies",
    ))
    print()
    print("Takeaways: faster/cheaper NVM shrinks the migration penalty")
    print("(CLOCK-DWF recovers some ground) while the proposed scheme's")
    print("advantage persists because it avoids the migrations rather")
    print("than just paying less for them.")


if __name__ == "__main__":
    main()
