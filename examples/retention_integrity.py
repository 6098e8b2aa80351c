#!/usr/bin/env python3
"""End-to-end retention correctness: prove the RRM never loses data.

Short-retention writes are only safe if every such block is re-written or
refreshed before its retention expires. This example attaches the
:class:`~repro.sim.validation.RetentionIntegrityChecker` to a running
system and shows (a) the RRM keeps every block valid, and (b) with
selective refresh fault-injected off, data demonstrably expires — i.e.
the selective refresh is load-bearing, not decorative.

Run:  python examples/retention_integrity.py [--workload NAME]
"""

import argparse
import dataclasses

from repro import Scheme, SystemConfig
from repro.sim.system import System
from repro.sim.validation import RetentionIntegrityChecker


def run_with_checker(config, workload):
    system = System(config, workload, Scheme.RRM)
    interval = system.modes.refresh_interval_s(Scheme.RRM.global_refresh_n_sets)
    checker = RetentionIntegrityChecker(
        system.modes, global_refresh_interval_s=interval
    )
    system.controller.add_observer(on_complete=checker.on_completion)
    result = system.run()
    checker.finalize(system.sim.now)
    return result, checker


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="GemsFDTD")
    args = parser.parse_args()

    config = SystemConfig.tiny()
    config = dataclasses.replace(config, duration_s=config.duration_s * 3)

    print("=== RRM with selective refresh (normal operation) ===")
    result, checker = run_with_checker(config, args.workload)
    print(f"fast writes          : {result.fast_writes} "
          f"({result.fast_write_fraction:.0%} of demand writes)")
    print(f"selective refreshes  : "
          f"{result.rrm_fast_refreshes + result.rrm_slow_refreshes}")
    print(f"integrity checks     : {checker.checks_performed}")
    print(f"expired-data events  : {checker.violation_count}")
    assert checker.violation_count == 0

    print()
    print("=== fault injection: all maintenance paths disabled ===")
    # Disable every mechanism that rewrites short-retention data in time:
    # the selective-refresh interrupt, decay demotion rewrites, and
    # eviction rewrites. Whatever expires is then caught by the checker.
    broken = config.with_rrm(
        dataclasses.replace(
            config.rrm,
            selective_refresh_enabled=False,
            decay_enabled=False,
            refresh_on_eviction=False,
        )
    )
    result, checker = run_with_checker(broken, args.workload)
    print(f"fast writes          : {result.fast_writes}")
    print(f"selective refreshes  : "
          f"{result.rrm_fast_refreshes + result.rrm_slow_refreshes}")
    print(f"expired-data events  : {checker.violation_count}")
    if checker.violations:
        worst = max(checker.violations, key=lambda v: v.age_s / v.retention_s)
        print(f"worst expiry         : block {worst.block} aged "
              f"{worst.age_s:.3f}s against a {worst.retention_s:.3f}s "
              f"retention ({worst.kind})")
    print()
    print("Without the RRM's selective refresh, short-retention data "
          "outlives its drift margin — the monitor's refresh traffic is "
          "exactly what keeps fast writes safe.")


if __name__ == "__main__":
    main()
