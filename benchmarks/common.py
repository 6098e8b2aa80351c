"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables or figures. Runs are
expensive (seconds each in pure Python), so a session-wide
:class:`SweepCache` memoises (config-variant, workload, scheme) results:
the main performance/lifetime/wear/energy figures all share one sweep,
and sensitivity benches only add their own variant cells.

Environment knobs:

- ``REPRO_BENCH_QUICK=1``   use the tiny configuration (smoke run);
- ``REPRO_BENCH_FULL=1``    run all 11 workloads instead of the default
  representative subset;
- ``REPRO_BENCH_SEED=N``    change the simulation seed;
- ``REPRO_BENCH_RETRIES=N`` retries per failed simulation (default 1);
- ``REPRO_BENCH_JOURNAL=PATH`` checkpoint completed cells to a JSONL
  journal (see :mod:`repro.fabric.journal`) and reload them on the
  next session, so an interrupted or crashed bench run resumes instead
  of recomputing the whole sweep. A journal written under a different
  seed or base configuration is refused, not reused.

Reports are printed and also written under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.fabric import ResultJournal, RetryPolicy
from repro.fabric.journal import check_fingerprint, sweep_fingerprint
from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.runner import ExperimentRunner
from repro.sim.schemes import Scheme
from repro.workloads.mixes import all_workload_names

RESULTS_DIR = Path(__file__).parent / "results"

#: Representative subset used by default (one light, one pointer-chasing,
#: one streaming, two stencil-heavy, one mix); REPRO_BENCH_FULL runs all.
DEFAULT_WORKLOADS = ["GemsFDTD", "hmmer", "lbm", "libquantum", "mcf", "MIX_2"]

#: Workloads used by the sensitivity sweeps (Figs 11-13).
SENSITIVITY_WORKLOADS = ["GemsFDTD", "lbm", "mcf"]

ALL_SCHEMES = [
    Scheme.STATIC_7,
    Scheme.STATIC_6,
    Scheme.STATIC_5,
    Scheme.STATIC_4,
    Scheme.STATIC_3,
    Scheme.RRM,
]


def quick_mode() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def workloads_under_test() -> List[str]:
    if os.environ.get("REPRO_BENCH_FULL", "") == "1":
        return all_workload_names()
    return list(DEFAULT_WORKLOADS)


def base_config() -> SystemConfig:
    seed = int(os.environ.get("REPRO_BENCH_SEED", "1"))
    if quick_mode():
        return SystemConfig.tiny(seed=seed)
    return SystemConfig.scaled(seed=seed)


class SweepCache:
    """Memoises simulation results across the whole bench session.

    Cells are keyed by (variant, workload, scheme). ``variant`` names a
    configuration derived from the base config — ``"default"`` for the
    main sweep, or e.g. ``"threshold=8"`` for sensitivity variants
    registered via :meth:`config_for`.

    Missing cells run through an :class:`ExperimentRunner`: transient
    failures are retried under a deterministic backoff policy, and with
    ``REPRO_BENCH_JOURNAL`` set every completed cell is checkpointed and
    reloaded on the next session, so a crashed bench run loses at most
    the cell it was computing.
    """

    def __init__(self) -> None:
        self.base = base_config()
        self._configs: Dict[str, SystemConfig] = {"default": self.base}
        self._results: Dict[Tuple[str, str, Scheme], SimResult] = {}
        self.runs_executed = 0
        self.retry = RetryPolicy(
            max_retries=int(os.environ.get("REPRO_BENCH_RETRIES", "1"))
        )
        self._journal: Optional[ResultJournal] = None
        journal_path = os.environ.get("REPRO_BENCH_JOURNAL", "")
        if journal_path:
            self._journal = self._load_journal(ResultJournal(journal_path))

    def _load_journal(self, journal: ResultJournal) -> ResultJournal:
        """Reload previously checkpointed cells; start fresh otherwise.

        Journal keys pack the variant into the workload slot as
        ``variant|workload`` so the (workload, scheme) journal schema
        carries the cache's three-part key unchanged. The meta record
        carries the base config's fingerprint; a journal from another
        seed or configuration raises ``CheckpointCorruptError``.
        """
        fingerprint = sweep_fingerprint(self.base, [], [])
        meta = {"seed": self.base.seed, "fingerprint": fingerprint}
        try:
            contents = ResultJournal.load(journal.path)
        except FileNotFoundError:
            journal.start(meta)
            return journal
        check_fingerprint(journal.path, contents.meta, fingerprint)
        for (packed, scheme_name), record in contents.results.items():
            variant, _, workload = packed.partition("|")
            self._results[(variant, workload, Scheme(scheme_name))] = (
                SimResult.from_json_dict(record)
            )
        journal.resume_from(contents, meta)
        return journal

    def register_variant(self, name: str, config: SystemConfig) -> None:
        existing = self._configs.get(name)
        if existing is not None and existing != config:
            raise ValueError(f"variant {name!r} already registered differently")
        self._configs[name] = config

    def config_for(self, variant: str) -> SystemConfig:
        return self._configs[variant]

    def get(
        self, workload: str, scheme: Scheme, variant: str = "default"
    ) -> SimResult:
        key = (variant, workload, scheme)
        if key not in self._results:
            self.ensure([workload], [scheme], variant)
        return self._results[key]

    def ensure(
        self,
        workloads: Iterable[str],
        schemes: Iterable[Scheme],
        variant: str = "default",
    ) -> int:
        """Run every missing (workload, scheme) cell; returns how many
        simulations actually executed.

        The cells run as one sweep; a cell that exhausts its retries
        raises its structured error (``JobCrashedError`` and kin).
        """
        workloads, schemes = list(workloads), list(schemes)
        cached = {
            (workload, scheme): self._results[(variant, workload, scheme)]
            for workload in workloads
            for scheme in schemes
            if (variant, workload, scheme) in self._results
        }
        if len(cached) == len(workloads) * len(schemes):
            return 0
        runner = ExperimentRunner(
            self._configs[variant], workloads, schemes, retry=self.retry
        )
        runner.results.update(cached)
        before = self.runs_executed

        def record(workload: str, scheme: Scheme, result: SimResult) -> None:
            self._results[(variant, workload, scheme)] = result
            self.runs_executed += 1
            if self._journal is not None:
                self._journal.append_result(
                    f"{variant}|{workload}", scheme.value, result.to_json_dict()
                )

        runner.run_all(progress=record)
        if runner.failures:
            raise next(iter(runner.failures.values())).to_error()
        return self.runs_executed - before


def write_report(name: str, text: str) -> Path:
    """Persist a bench report under benchmarks/results/ and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print()
    print(text)
    return path


def geomean_over(values: Iterable[float]) -> float:
    from repro.utils.mathx import geomean

    return geomean(values)
