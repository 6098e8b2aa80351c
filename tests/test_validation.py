"""Tests for the retention-integrity checker."""

import dataclasses

import pytest

from repro.memctrl.request import MemRequest, RequestType
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.sim.validation import RetentionIntegrityChecker
from repro.utils.units import s_to_ns


@pytest.fixture
def checker(modes):
    return RetentionIntegrityChecker(modes)


def completed(rtype, block, n_sets=None, finish_s=0.0):
    request = MemRequest(rtype=rtype, block=block, n_sets=n_sets)
    request.finish_time_ns = s_to_ns(finish_s)
    return request


class TestChecker:
    def test_fresh_read_is_fine(self, checker):
        checker.on_completion(completed(RequestType.WRITE, 0, 3, 0.0))
        checker.on_completion(completed(RequestType.READ, 0, finish_s=1.0))
        assert checker.violation_count == 0

    def test_expired_fast_read_flagged(self, checker):
        checker.on_completion(completed(RequestType.WRITE, 0, 3, 0.0))
        checker.on_completion(completed(RequestType.READ, 0, finish_s=3.0))
        assert checker.violation_count == 1
        violation = checker.violations[0]
        assert violation.kind == "read-expired"
        assert violation.n_sets == 3
        assert violation.age_s == pytest.approx(3.0)

    def test_refresh_rearms_retention(self, checker):
        checker.on_completion(completed(RequestType.WRITE, 0, 3, 0.0))
        checker.on_completion(completed(RequestType.RRM_REFRESH, 0, 3, 1.9))
        checker.on_completion(completed(RequestType.READ, 0, finish_s=3.5))
        assert checker.violation_count == 0

    def test_stale_overwrite_flagged(self, checker):
        checker.on_completion(completed(RequestType.WRITE, 0, 3, 0.0))
        checker.on_completion(completed(RequestType.WRITE, 0, 3, 10.0))
        assert checker.violation_count == 1
        assert checker.violations[0].kind == "stale-overwrite"

    def test_expired_at_end_flagged(self, checker):
        checker.on_completion(completed(RequestType.WRITE, 0, 3, 0.0))
        checker.finalize(s_to_ns(5.0))
        assert checker.violation_count == 1
        assert checker.violations[0].kind == "expired-at-end"

    def test_slow_writes_have_long_retention(self, checker):
        checker.on_completion(completed(RequestType.WRITE, 0, 7, 0.0))
        checker.on_completion(completed(RequestType.READ, 0, finish_s=3000.0))
        assert checker.violation_count == 0

    def test_global_refresh_caps_slow_age(self, modes):
        checker = RetentionIntegrityChecker(
            modes, global_refresh_interval_s=3054.0
        )
        checker.on_completion(completed(RequestType.WRITE, 0, 7, 0.0))
        # Way past the raw retention, but the self-refresh circuit keeps
        # rewriting slow data, so this is legal.
        checker.on_completion(completed(RequestType.READ, 0, finish_s=50000.0))
        assert checker.violation_count == 0

    def test_fast_age_not_capped_by_global_refresh(self, modes):
        checker = RetentionIntegrityChecker(
            modes, global_refresh_interval_s=3054.0
        )
        checker.on_completion(completed(RequestType.WRITE, 0, 3, 0.0))
        checker.on_completion(completed(RequestType.READ, 0, finish_s=3.0))
        assert checker.violation_count == 1

    def test_one_report_per_stale_window(self, checker):
        checker.on_completion(completed(RequestType.WRITE, 0, 3, 0.0))
        checker.on_completion(completed(RequestType.READ, 0, finish_s=3.0))
        checker.on_completion(completed(RequestType.READ, 0, finish_s=4.0))
        assert checker.violation_count == 1


def _run_with_checker(config, scheme):
    system = System(config, "GemsFDTD", scheme)
    scaled_modes = system.modes
    interval = None
    if config.drift_scale:
        interval = scaled_modes.refresh_interval_s(scheme.global_refresh_n_sets)
    checker = RetentionIntegrityChecker(
        scaled_modes, global_refresh_interval_s=interval
    )
    system.controller.add_observer(on_complete=checker.on_completion)
    system.run()
    checker.finalize(system.sim.now)
    return checker


class TestEndToEndIntegrity:
    def test_rrm_preserves_all_data(self, tiny_config):
        """The RRM's selective refresh must keep every short-retention
        block valid for the whole run."""
        checker = _run_with_checker(tiny_config, Scheme.RRM)
        assert checker.checks_performed > 1000
        assert checker.violation_count == 0

    def test_fault_injection_is_detected(self, tiny_config):
        """Disabling every maintenance path (selective refresh, decay
        demotion, eviction rewrites) makes short-retention data expire —
        the checker must catch it. Run several fast retention periods so
        stale windows are guaranteed to open."""
        broken = dataclasses.replace(
            tiny_config,
            duration_s=tiny_config.duration_s * 3,
            rrm=dataclasses.replace(
                tiny_config.rrm,
                selective_refresh_enabled=False,
                decay_enabled=False,
                refresh_on_eviction=False,
            ),
        )
        checker = _run_with_checker(broken, Scheme.RRM)
        assert checker.violation_count > 0
        assert any(v.n_sets == 3 for v in checker.violations)

    def test_static7_never_expires(self, tiny_config):
        checker = _run_with_checker(tiny_config, Scheme.STATIC_7)
        assert checker.violation_count == 0
