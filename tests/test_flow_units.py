"""Units slips in the model files (formerly lint rules R006/R007), at run time.

The dimension analysis that read the model files' unit annotations is
gone; the literal-equation tests of ``tests/test_models.py`` carry its
guarantee.  Each golden case seeds one units slip R006/R007 used to
report into a copy of the shipped model file, loads the copy, and
checks it no longer evaluates Eq. 1 or Eq. 3 as printed — while the
unmodified copy does.
"""

from __future__ import annotations

import pytest

from tests.test_models import _accounting, _literal_eq1, _literal_eq2, _spec
from tests.variants import load_variant

#: Wall time between requests for the static-power checks (seconds).
GAP = 100e-9


def _eq3_static(metrics, power) -> tuple[float, float]:
    """(modelled, printed) static energy per request for ``power``."""
    acct, spec = _accounting(), _spec()
    performance = metrics.compute_performance(acct, spec)
    breakdown = power.compute_power(acct, spec, performance,
                                    inter_request_gap=GAP)
    printed = spec.static_power * (performance.memory_time + GAP)
    return breakdown.static, printed


class TestGoldenModelFiles:
    def test_pristine_copies_are_clean(self):
        metrics = load_variant("memory/metrics.py")
        power = load_variant("memory/power.py")
        acct, spec = _accounting(), _spec()
        assert metrics.compute_performance(acct, spec).amat \
            == pytest.approx(_literal_eq1(acct, spec))
        assert power.compute_power(acct, spec).dynamic_total \
            == pytest.approx(_literal_eq2(acct, spec))
        modelled, printed = _eq3_static(metrics, power)
        assert modelled == pytest.approx(printed)

    def test_double_ns_conversion_in_metrics_flagged(self):
        # ns<->s slip: "converting" an already-seconds latency by a
        # stray NANOSECOND factor.
        metrics = load_variant(
            "memory/metrics.py",
            ("from repro.units import",
             "from repro.memory.devices import NANOSECOND\n"
             "from repro.units import"),
            ("fault_time = accounting.page_faults * disk.access_latency"
             " / total",
             "fault_time = accounting.page_faults * disk.access_latency"
             " * NANOSECOND / total"),
        )
        acct, spec = _accounting(), _spec()
        assert metrics.compute_performance(acct, spec).amat \
            != pytest.approx(_literal_eq1(acct, spec))

    def test_static_term_missing_time_factor_flagged(self):
        # Eq. 3 regression: charging raw watts as joules.
        power = load_variant(
            "memory/power.py",
            ("static = spec.static_power * (\n"
             "        performance.memory_time + inter_request_gap\n"
             "    )",
             "static = spec.static_power"),
        )
        modelled, printed = _eq3_static(load_variant("memory/metrics.py"),
                                        power)
        assert modelled != pytest.approx(printed)
