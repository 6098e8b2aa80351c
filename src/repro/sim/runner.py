"""Experiment orchestration: sweeps over workloads and schemes.

Runs are independent, so the runner fans them out on the sweep fabric
(:class:`~repro.fabric.executor.FabricExecutor`, one or more worker
processes): each (workload, scheme) job gets a per-attempt wall-clock
timeout, bounded deterministic retries, and crash isolation, so one bad
job degrades to a structured :class:`FailedRun` instead of aborting the
sweep. With a ``journal_path`` every settled job is checkpointed to an
append-only JSONL journal, and :meth:`resume` restarts an interrupted
sweep from its surviving results. Aggregation helpers follow the
paper's reporting conventions and tolerate sweeps with failed cells.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.fabric.executor import FabricExecutor
from repro.fabric.faultinject import FaultPlan
from repro.fabric.journal import (
    ResultJournal,
    check_fingerprint,
    sweep_fingerprint,
)
from repro.fabric.policy import FailedRun, RetryPolicy
from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.schemes import Scheme, all_schemes
from repro.sim.system import System
from repro.telemetry import TelemetryConfig
from repro.utils.persist import atomic_write_text
from repro.telemetry.trace import NULL_TRACER
from repro.utils.mathx import geomean
from repro.workloads.mixes import all_workload_names

ResultKey = Tuple[str, Scheme]


def run_workload(
    config: SystemConfig,
    workload: str,
    scheme: Scheme,
    *,
    track_wear_per_block: bool = False,
    max_events: Optional[int] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> SimResult:
    """Build and run one system; the basic unit of every experiment."""
    system = System(
        config,
        workload,
        scheme,
        track_wear_per_block=track_wear_per_block,
        telemetry=telemetry,
    )
    return system.run(max_events=max_events)


def _validate_sim_result(key, value) -> Optional[str]:
    """Validate one job's result; a non-None message marks corruption."""
    workload, scheme_value = key
    if not isinstance(value, SimResult):
        return f"expected a SimResult, got {type(value).__name__}"
    if value.workload != workload or value.scheme.value != scheme_value:
        return (
            f"result is for ({value.workload}, {value.scheme.value}), "
            f"not ({workload}, {scheme_value})"
        )
    if not math.isfinite(value.ipc) or value.ipc < 0:
        return f"non-finite or negative IPC: {value.ipc}"
    return None


class ExperimentRunner:
    """Sweeps workloads x schemes and aggregates results.

    Args:
        timeout_s: optional per-attempt wall-clock limit per job.
        retry: retry policy for failed jobs (default: 2 retries with
            exponential backoff and seeded jitter).
        journal_path: optional JSONL checkpoint journal; every settled
            job is appended atomically so a crashed sweep can resume.
            Without one the fleet queues through a throwaway journal.
        n_jobs: worker process count. The sweep always runs on the
            fabric (:class:`~repro.fabric.executor.FabricExecutor`); the
            workers share the journal as a work-stealing queue, and
            results are bit-identical for any ``n_jobs``.
        lease_s: claim lease duration.
        ledger_path: optional run ledger; workers append their cells to
            per-worker shards which are merged deterministically (sorted
            by name) when the sweep completes.
        profile_path: optional sampling-profile artifact: each worker
            samples its own stacks and the merged profile lands here
            when the sweep completes.
        fault_plan: optional fault-injection plan (tests / drills).
        tracer: optional wall-clock :class:`~repro.telemetry.Tracer`
            (``Tracer.wallclock()``); job lifecycle transitions are
            recorded as instant events (category ``sweep``), giving an
            orchestration timeline.
        on_event: optional ``(name, args)`` observer for the same
            lifecycle events the tracer sees (``job.attempt`` /
            ``job.result`` / ``job.retry`` / ``job.failed``, plus the
            ``fabric.*`` events); used by
            :class:`~repro.obs.progress.SweepProgress`.
        recorder_dir: optional directory for per-worker crash flight
            recorders; crash/timeout failure records then carry a
            ``recorder_path`` post-mortem pointer.
    """

    def __init__(
        self,
        config: SystemConfig,
        workloads: Optional[Iterable[str]] = None,
        schemes: Optional[Iterable[Scheme]] = None,
        *,
        max_events: Optional[int] = None,
        n_jobs: int = 1,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        journal_path=None,
        lease_s: float = 300.0,
        ledger_path=None,
        profile_path=None,
        fault_plan: Optional[FaultPlan] = None,
        tracer=NULL_TRACER,
        on_event=None,
        recorder_dir=None,
    ) -> None:
        if n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {n_jobs}")
        if max_events is not None and max_events < 1:
            raise ConfigError(f"max_events must be >= 1, got {max_events}")
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigError(f"timeout_s must be positive, got {timeout_s}")
        self.config = config
        self.workloads = list(workloads) if workloads else all_workload_names()
        self.schemes = list(schemes) if schemes else all_schemes()
        self.max_events = max_events
        self.n_jobs = n_jobs
        self.timeout_s = timeout_s
        self.retry = retry or RetryPolicy()
        self.journal_path = journal_path
        self.lease_s = lease_s
        self.ledger_path = ledger_path
        self.profile_path = profile_path
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.on_event = on_event
        self.recorder_dir = recorder_dir
        self.results: Dict[ResultKey, SimResult] = {}
        self.failures: Dict[ResultKey, FailedRun] = {}
        #: Live FabricStats during a sweep (set before the fleet starts,
        #: zeroed in place per sweep), so observers can scrape mid-run.
        self.fabric_stats = None
        #: Live FleetStatus (aggregated worker heartbeats) during a sweep.
        self.fleet = None
        self._resumed = False

    def _on_fabric_event(self, name: str, args: dict) -> None:
        """Forward fleet lifecycle transitions to the sweep tracer and
        to any external observer (e.g. a progress reporter)."""
        self.tracer.instant(name, "sweep", args=args)
        if self.on_event is not None:
            self.on_event(name, args)

    # ------------------------------------------------------------------
    def run_all(self, progress=None) -> Dict[ResultKey, SimResult]:
        """Run every (workload, scheme) pair not yet cached.

        Results are harvested as jobs complete: the ``progress`` callback
        fires in completion order and every finished result is in
        ``self.results`` (and the journal) even if a later job fails. A
        job that exhausts its retries lands in ``self.failures`` as a
        :class:`FailedRun` instead of raising.

        Args:
            progress: Optional callable ``(workload, scheme, result)``
                invoked after each run (e.g. to print a line).
        """
        done = {(workload, scheme.value) for workload, scheme in self.results}
        if all(
            (workload, scheme.value) in done
            for workload in self.workloads
            for scheme in self.schemes
        ):
            return self.results

        def on_result(key, result) -> None:
            workload, scheme_value = key
            scheme = Scheme(scheme_value)
            self.results[(workload, scheme)] = result
            self.failures.pop((workload, scheme), None)
            if progress is not None:
                progress(workload, scheme, result)

        def on_failure(failed: FailedRun) -> None:
            workload, scheme_value = failed.key
            self.failures[(workload, Scheme(scheme_value))] = failed

        executor = FabricExecutor(
            self.n_jobs,
            journal_path=self.journal_path,
            lease_s=self.lease_s,
            timeout_s=self.timeout_s,
            retry=self.retry,
            fault_plan=self.fault_plan,
            seed=self.config.seed,
            ledger_path=self.ledger_path,
            profile_path=self.profile_path,
            on_event=(
                self._on_fabric_event
                if (self.tracer.enabled or self.on_event is not None)
                else None
            ),
            on_result=on_result,
            on_failure=on_failure,
            recorder_dir=self.recorder_dir,
        )
        # Expose the live observability surfaces before the fleet
        # starts: stats reset in place, so mid-sweep scrapes see
        # current numbers through these references.
        self.fabric_stats = executor.stats
        self.fleet = executor.fleet
        outcome = executor.run(
            self.config,
            self.workloads,
            self.schemes,
            max_events=self.max_events,
            meta=self._journal_meta(),
            # resume() already seeded the journal with surviving results;
            # a fresh start here would wipe them.
            fresh=not self._resumed,
            done=done,
        )
        # The journal is the truth; events were only the live stream.
        for (workload, scheme_value), result in outcome.results.items():
            self.results[(workload, Scheme(scheme_value))] = result
        for (workload, scheme_value), failed in outcome.failures.items():
            key = (workload, Scheme(scheme_value))
            if key not in self.results:
                self.failures[key] = failed
        return self.results

    def _fingerprint(self) -> Dict[str, str]:
        return sweep_fingerprint(
            self.config,
            self.workloads,
            [s.value for s in self.schemes],
            self.max_events,
        )

    def _journal_meta(self) -> dict:
        return {
            "seed": self.config.seed,
            "workloads": list(self.workloads),
            "schemes": [s.value for s in self.schemes],
            "fingerprint": self._fingerprint(),
        }

    # ------------------------------------------------------------------
    def resume(self, path=None, progress=None) -> Dict[ResultKey, SimResult]:
        """Restart an interrupted sweep from its checkpoint journal.

        Loads every surviving result from *path* (default: this runner's
        ``journal_path``), then runs only the missing pairs — jobs the
        journal recorded as failed, jobs lost to a truncated final line,
        and jobs never reached. Journaling continues into the same file.
        """
        path = path if path is not None else self.journal_path
        if path is None:
            raise ConfigError("resume() needs a journal path")
        contents = ResultJournal.load(path)
        check_fingerprint(path, contents.meta, self._fingerprint())
        domain = {
            (w, s.value) for w in self.workloads for s in self.schemes
        }
        for (workload, scheme_value), record in contents.results.items():
            if (workload, scheme_value) not in domain:
                continue
            result = SimResult.from_json_dict(record)
            problem = _validate_sim_result((workload, scheme_value), result)
            if problem is not None:
                continue  # journaled garbage: just re-run the pair
            self.results[(workload, Scheme(scheme_value))] = result
        # Journaled failures are *not* preloaded into self.failures: their
        # pairs are missing from self.results, so run_all re-runs them.
        self.journal_path = path
        ResultJournal(path).resume_from(contents, self._journal_meta())
        self._resumed = True
        return self.run_all(progress=progress)

    # ------------------------------------------------------------------
    # Aggregation (the paper's reporting conventions)
    # ------------------------------------------------------------------
    def result(self, workload: str, scheme: Scheme) -> SimResult:
        try:
            return self.results[(workload, scheme)]
        except KeyError:
            failed = self.failures.get((workload, scheme))
            if failed is not None:
                raise ConfigError(
                    f"run for ({workload}, {scheme.value}) failed: "
                    f"{failed.kind} — {failed.message}"
                ) from None
            raise ConfigError(
                f"no result for ({workload}, {scheme.value}); run run_all() first"
            ) from None

    def has_result(self, workload: str, scheme: Scheme) -> bool:
        return (workload, scheme) in self.results

    def completed_workloads(self, *schemes: Scheme) -> List[str]:
        """Workloads with a result under every given scheme, sweep order."""
        return [
            w
            for w in self.workloads
            if all((w, s) in self.results for s in schemes)
        ]

    def ipc_series(self, scheme: Scheme) -> List[float]:
        """Per-workload IPC, skipping failed/missing cells."""
        return [
            self.results[(w, scheme)].ipc
            for w in self.completed_workloads(scheme)
        ]

    def normalized_ipc(self, scheme: Scheme, baseline: Scheme) -> List[float]:
        """Per-workload IPC normalised to *baseline* (Figures 2 and 7).

        Workloads missing either cell are skipped, so a sweep containing
        failed runs still aggregates over its surviving pairs.
        """
        return [
            self.results[(w, scheme)].ipc / self.results[(w, baseline)].ipc
            for w in self.completed_workloads(scheme, baseline)
        ]

    def geomean_ipc(self, scheme: Scheme) -> float:
        series = self.ipc_series(scheme)
        return geomean(series) if series else float("nan")

    def geomean_speedup(self, scheme: Scheme, baseline: Scheme) -> float:
        series = self.normalized_ipc(scheme, baseline)
        return geomean(series) if series else float("nan")

    def lifetime_series(self, scheme: Scheme) -> List[float]:
        return [
            self.results[(w, scheme)].lifetime_years
            for w in self.completed_workloads(scheme)
        ]

    def geomean_lifetime(self, scheme: Scheme) -> float:
        series = self.lifetime_series(scheme)
        return geomean(series) if series else float("nan")

    # ------------------------------------------------------------------
    def save_json(self, path) -> None:
        """Persist all settled runs as JSON (one record per run).

        Successful runs carry ``"status": "ok"``; failed runs appear as
        ``"status": "failed"`` records with the failure's kind, message
        and attempt count, so downstream tooling sees the full sweep
        outcome. The write is atomic (tmp file + ``os.replace``) so a
        mid-write crash cannot truncate an existing results file.
        """
        records = [
            {"status": "ok", **result.as_dict()}
            for result in self.results.values()
        ]
        records.extend(
            {
                "status": "failed",
                "workload": workload,
                "scheme": scheme.value,
                "kind": failed.kind,
                "message": failed.message,
                "attempts": failed.attempts,
            }
            for (workload, scheme), failed in self.failures.items()
        )
        path = Path(path)
        atomic_write_text(path, json.dumps(records, indent=2))
