"""Retention-integrity checking.

The scheduler-level deadline counter (``ControllerStats.retention_violations``)
catches refreshes that complete *late*. This module catches the stronger
failure: data that *expired* — a block whose stored value drifted out of
its band before it was rewritten, refreshed or read.

:class:`RetentionIntegrityChecker` observes every completed memory
operation and keeps, per block, the mode and completion time of the most
recent write. A violation is recorded when

- a block is **read** after its last write's retention has elapsed, or
- a block is **rewritten** after having been expired (the stale window
  existed even though nobody observed it), or
- at **end of run**, a live block's age exceeds its retention.

Slow-mode writes are additionally protected by the device's global
self-refresh circuit: their effective age is capped by the global refresh
interval, so only short-retention (fast-mode) data can realistically
expire — exactly the data the RRM's selective refresh must cover. With
``RRMConfig.selective_refresh_enabled=False`` (fault injection), the
checker reports the expiries the RRM would otherwise have prevented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memctrl.request import MemRequest, RequestType
from repro.pcm.write_modes import WriteModeTable


@dataclass
class RetentionViolation:
    """One detected data-expiry event."""

    block: int
    kind: str  # "read-expired", "stale-overwrite", "expired-at-end"
    age_s: float
    retention_s: float
    n_sets: int


@dataclass
class RetentionIntegrityChecker:
    """Tracks per-block write recency and flags expired data.

    Attach to a system with::

        checker = RetentionIntegrityChecker(system.modes,
                                            global_interval_s=...)
        system.controller.add_observer(on_complete=checker.on_completion)
        ...run...
        checker.finalize(system.sim.now)

    Args:
        modes: The device's (possibly drift-scaled) write-mode table.
        global_refresh_interval_s: Interval of the built-in self-refresh
            circuit, capping the effective age of slow-mode data. None
            disables the cap (strictest checking).
    """

    modes: WriteModeTable
    global_refresh_interval_s: Optional[float] = None
    violations: List[RetentionViolation] = field(default_factory=list)
    checks_performed: int = 0
    #: block -> (n_sets, completion time ns)
    _last_write: Dict[int, Tuple[int, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def on_completion(self, request: MemRequest) -> None:
        """Memory-controller ``on_complete`` observer."""
        finish = request.finish_time_ns
        assert finish is not None
        if request.rtype is RequestType.READ:
            self._check(request.block, finish, kind="read-expired")
        else:
            assert request.n_sets is not None
            self._check(request.block, finish, kind="stale-overwrite")
            self._last_write[request.block] = (request.n_sets, finish)

    def finalize(self, now_ns: float) -> List[RetentionViolation]:
        """End-of-run sweep: every live block must still be valid."""
        for block in list(self._last_write):
            self._check(block, now_ns, kind="expired-at-end")
        return self.violations

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def tracked_blocks(self) -> int:
        return len(self._last_write)

    # ------------------------------------------------------------------
    def _check(self, block: int, now_ns: float, kind: str) -> None:
        record = self._last_write.get(block)
        if record is None:
            return
        n_sets, written_ns = record
        self.checks_performed += 1
        age_s = (now_ns - written_ns) / 1e9
        effective_age = age_s
        if (
            self.global_refresh_interval_s is not None
            and n_sets == self.modes.slow.n_sets
        ):
            # Slow data is rewritten by the self-refresh circuit at least
            # once per interval, so its drift age is capped.
            effective_age = min(age_s, self.global_refresh_interval_s)
        retention = self.modes.mode(n_sets).retention_s
        if effective_age > retention:
            self.violations.append(
                RetentionViolation(
                    block=block,
                    kind=kind,
                    age_s=age_s,
                    retention_s=retention,
                    n_sets=n_sets,
                )
            )
            # One report per stale window: re-arm on the next write.
            del self._last_write[block]
