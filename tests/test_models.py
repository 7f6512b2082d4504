"""Tests for the paper's cost models: Eq. 1 (AMAT), Eq. 2-3 (APPR),
and the endurance bookkeeping — verified against hand-computed values
and against a literal transcription of the equations."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.accounting import AccessAccounting, WearAccounting
from repro.memory.devices import dram_spec, hdd_spec, pcm_spec
from repro.memory.endurance import compute_nvm_writes, endurance_report
from repro.memory.metrics import compute_performance
from repro.memory.power import compute_power
from repro.memory.specs import HybridMemorySpec


def _spec() -> HybridMemorySpec:
    return HybridMemorySpec(
        dram=dram_spec(), nvm=pcm_spec(), disk=hdd_spec(),
        dram_pages=16, nvm_pages=144,
    )


def _accounting() -> AccessAccounting:
    acct = AccessAccounting(
        read_requests=700, write_requests=300,
        dram_read_hits=400, dram_write_hits=200,
        nvm_read_hits=280, nvm_write_hits=95,
        read_faults=20, write_faults=5,
        faults_filled_dram=22, faults_filled_nvm=3,
        migrations_to_dram=12, migrations_to_nvm=15,
        clean_evictions=4, dirty_evictions=3,
    )
    acct.validate()
    return acct


def _literal_eq1(acct: AccessAccounting, spec: HybridMemorySpec) -> float:
    """Equation 1 exactly as printed in the paper."""
    dram, nvm = spec.dram, spec.nvm
    pf = spec.page_factor
    return (
        acct.p_hit_dram * (acct.p_read_dram * dram.read_latency
                           + acct.p_write_dram * dram.write_latency)
        + acct.p_hit_nvm * (acct.p_read_nvm * nvm.read_latency
                            + acct.p_write_nvm * nvm.write_latency)
        + acct.p_miss * spec.disk.access_latency
        + acct.p_mig_d * pf * (nvm.read_latency + dram.write_latency)
        + acct.p_mig_n * pf * (dram.read_latency + nvm.write_latency)
    )


def _literal_eq2(acct: AccessAccounting, spec: HybridMemorySpec) -> float:
    """Equation 2 exactly as printed (dynamic terms only)."""
    dram, nvm = spec.dram, spec.nvm
    pf = spec.page_factor
    return (
        acct.p_hit_dram * (acct.p_read_dram * dram.read_energy
                           + acct.p_write_dram * dram.write_energy)
        + acct.p_hit_nvm * (acct.p_read_nvm * nvm.read_energy
                            + acct.p_write_nvm * nvm.write_energy)
        + acct.p_miss * acct.p_disk_to_dram * pf * dram.write_energy
        + acct.p_miss * acct.p_disk_to_nvm * pf * nvm.write_energy
        + acct.p_mig_d * pf * (nvm.read_energy + dram.write_energy)
        + acct.p_mig_n * pf * (dram.read_energy + nvm.write_energy)
    )


class TestPerformanceModel:
    def test_matches_literal_equation_1(self):
        acct, spec = _accounting(), _spec()
        breakdown = compute_performance(acct, spec)
        assert breakdown.amat == pytest.approx(_literal_eq1(acct, spec))

    def test_component_sum(self):
        breakdown = compute_performance(_accounting(), _spec())
        assert breakdown.amat == pytest.approx(
            breakdown.request_time + breakdown.fault_time
            + breakdown.migration_time
        )
        assert breakdown.memory_time == pytest.approx(
            breakdown.amat - breakdown.fault_time
        )

    def test_hand_computed_hit_only_case(self):
        acct = AccessAccounting(read_requests=10, dram_read_hits=10)
        breakdown = compute_performance(acct, _spec())
        assert breakdown.amat == pytest.approx(50e-9)
        assert breakdown.fault_time == 0.0
        assert breakdown.migration_time == 0.0

    def test_fault_only_case(self):
        acct = AccessAccounting(read_requests=4, read_faults=4,
                                faults_filled_dram=4)
        breakdown = compute_performance(acct, _spec())
        assert breakdown.amat == pytest.approx(5e-3)

    def test_empty_accounting(self):
        breakdown = compute_performance(AccessAccounting(), _spec())
        assert breakdown.amat == 0.0

    def test_elapsed_time(self):
        acct = AccessAccounting(read_requests=10, dram_read_hits=10)
        breakdown = compute_performance(acct, _spec())
        assert breakdown.elapsed_time(10) == pytest.approx(500e-9)

    def test_normalized_to(self):
        acct = _accounting()
        breakdown = compute_performance(acct, _spec())
        assert breakdown.normalized_to(breakdown) == pytest.approx(1.0)


class TestPowerModel:
    def test_matches_literal_equation_2(self):
        acct, spec = _accounting(), _spec()
        power = compute_power(acct, spec)
        assert power.dynamic_total == pytest.approx(_literal_eq2(acct, spec))

    def test_static_term_uses_wall_time(self):
        acct, spec = _accounting(), _spec()
        perf = compute_performance(acct, spec)
        gap = 100e-9
        power = compute_power(acct, spec, perf, inter_request_gap=gap)
        assert power.static == pytest.approx(
            spec.static_power * (perf.memory_time + gap)
        )

    def test_gap_increases_only_static(self):
        acct, spec = _accounting(), _spec()
        without = compute_power(acct, spec)
        with_gap = compute_power(acct, spec, inter_request_gap=1e-6)
        assert with_gap.static > without.static
        assert with_gap.dynamic_total == pytest.approx(without.dynamic_total)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            compute_power(_accounting(), _spec(), inter_request_gap=-1.0)

    def test_appr_is_component_sum(self):
        power = compute_power(_accounting(), _spec())
        assert power.appr == pytest.approx(
            power.static + power.dynamic_hit + power.fault_fill
            + power.migration
        )

    def test_write_hit_in_nvm_costs_10x_dram(self):
        spec = _spec()
        nvm_writes = AccessAccounting(write_requests=10, nvm_write_hits=10)
        dram_writes = AccessAccounting(write_requests=10, dram_write_hits=10)
        nvm_power = compute_power(nvm_writes, spec)
        dram_power = compute_power(dram_writes, spec)
        assert nvm_power.dynamic_hit == pytest.approx(
            10 * dram_power.dynamic_hit
        )

    def test_total_energy(self):
        power = compute_power(_accounting(), _spec())
        assert power.total_energy(1000) == pytest.approx(power.appr * 1000)


class TestEnduranceModel:
    def test_write_breakdown_from_accounting(self):
        acct, spec = _accounting(), _spec()
        writes = compute_nvm_writes(acct, spec)
        assert writes.request_writes == 95
        assert writes.fault_fill_writes == 3 * 64
        assert writes.migration_writes == 15 * 64
        assert writes.total == 95 + 18 * 64

    def test_endurance_report(self):
        wear = WearAccounting(page_factor=64)
        for _ in range(10):
            wear.record_request_write(1)
        wear.record_fault_fill(2)
        report = endurance_report(wear, _spec(), elapsed_seconds=1.0)
        assert report.total_writes == 74
        assert report.max_page_writes == 64
        assert report.touched_pages == 2
        # hottest page does 64 writes/s; endurance 1e8 -> ~1.56e6 s
        assert report.estimated_lifetime_seconds == pytest.approx(
            1e8 / 64
        )

    def test_lifetime_none_without_elapsed(self):
        wear = WearAccounting()
        wear.record_request_write(0)
        report = endurance_report(wear, _spec())
        assert report.estimated_lifetime_seconds is None


@settings(max_examples=120, deadline=None)
@given(
    dram_reads=st.integers(0, 500), dram_writes=st.integers(0, 500),
    nvm_reads=st.integers(0, 500), nvm_writes=st.integers(0, 500),
    read_faults=st.integers(0, 50), write_faults=st.integers(0, 50),
    mig_d=st.integers(0, 30), mig_n=st.integers(0, 30),
)
def test_models_are_exact_identities(dram_reads, dram_writes, nvm_reads,
                                     nvm_writes, read_faults, write_faults,
                                     mig_d, mig_n):
    """For any consistent event counts, the vectorised implementations
    equal the literal textbook equations, and all terms are finite and
    non-negative."""
    acct = AccessAccounting(
        read_requests=dram_reads + nvm_reads + read_faults,
        write_requests=dram_writes + nvm_writes + write_faults,
        dram_read_hits=dram_reads, dram_write_hits=dram_writes,
        nvm_read_hits=nvm_reads, nvm_write_hits=nvm_writes,
        read_faults=read_faults, write_faults=write_faults,
        faults_filled_dram=read_faults + write_faults,
        migrations_to_dram=mig_d, migrations_to_nvm=mig_n,
    )
    acct.validate()
    spec = _spec()
    perf = compute_performance(acct, spec)
    power = compute_power(acct, spec, perf)
    assert perf.amat == pytest.approx(_literal_eq1(acct, spec))
    assert power.dynamic_total == pytest.approx(_literal_eq2(acct, spec))
    assert perf.amat >= 0.0
    assert power.appr >= 0.0
