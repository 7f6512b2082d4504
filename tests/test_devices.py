"""Tests for device specifications (paper Table IV / Table II)."""

from __future__ import annotations

import pytest

from repro.memory.devices import (
    GIB,
    MemoryDeviceSpec,
    dram_spec,
    hdd_spec,
    pcm_spec,
    sttram_spec,
)


class TestTableIVConstants:
    """The presets must match Table IV exactly."""

    def test_dram_latencies(self):
        dram = dram_spec()
        assert dram.read_latency == pytest.approx(50e-9)
        assert dram.write_latency == pytest.approx(50e-9)

    def test_dram_energy(self):
        dram = dram_spec()
        assert dram.read_energy == pytest.approx(3.2e-9)
        assert dram.write_energy == pytest.approx(3.2e-9)

    def test_dram_static_power(self):
        assert dram_spec().static_power_per_gb == pytest.approx(1.0)

    def test_pcm_latencies(self):
        pcm = pcm_spec()
        assert pcm.read_latency == pytest.approx(100e-9)
        assert pcm.write_latency == pytest.approx(350e-9)

    def test_pcm_energy(self):
        pcm = pcm_spec()
        assert pcm.read_energy == pytest.approx(6.4e-9)
        assert pcm.write_energy == pytest.approx(32e-9)

    def test_pcm_static_power_is_tenth_of_dram(self):
        assert pcm_spec().static_power_per_gb == pytest.approx(
            dram_spec().static_power_per_gb / 10
        )

    def test_hdd_is_5ms(self):
        assert hdd_spec().access_latency == pytest.approx(5e-3)

    def test_asymmetry_flags(self):
        assert not dram_spec().is_asymmetric
        assert pcm_spec().is_asymmetric
        assert sttram_spec().is_asymmetric

    def test_endurance(self):
        assert dram_spec().endurance_cycles is None
        assert pcm_spec().endurance_cycles == 100_000_000


class TestDeviceBehaviour:
    def test_access_helpers(self):
        pcm = pcm_spec()
        assert pcm.access_latency(True) == pcm.write_latency
        assert pcm.access_latency(False) == pcm.read_latency
        assert pcm.access_energy(True) == pcm.write_energy
        assert pcm.access_energy(False) == pcm.read_energy

    def test_static_power_scales_with_capacity(self):
        dram = dram_spec()
        assert dram.static_power(GIB) == pytest.approx(1.0)
        assert dram.static_power(GIB // 2) == pytest.approx(0.5)
        assert dram.static_power(0) == 0.0

    def test_scaled_copies(self):
        pcm = pcm_spec()
        faster = pcm.scaled(latency=0.5, energy=0.25, static=2.0)
        assert faster.read_latency == pytest.approx(pcm.read_latency / 2)
        assert faster.write_energy == pytest.approx(pcm.write_energy / 4)
        assert faster.static_power_per_gb == pytest.approx(
            pcm.static_power_per_gb * 2
        )
        # original untouched (frozen dataclass semantics)
        assert pcm.read_latency == pytest.approx(100e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryDeviceSpec("bad", -1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            MemoryDeviceSpec("bad", 1, 1, 1, 1, 1, endurance_cycles=0)
