"""Tests for sweep resilience: retries, journal, faults, failure kinds."""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.errors import (
    CheckpointCorruptError,
    ConfigError,
    CorruptResultError,
    JobCrashedError,
    JobTimeoutError,
    ReproError,
    ResilienceError,
)
from repro.fabric import FaultPlan, FaultSpec, ResultJournal, RetryPolicy
from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.runner import ExperimentRunner, run_workload
from repro.sim.schemes import Scheme

# Fast-failing policies so failure-path tests don't sleep for real.
NO_RETRY = RetryPolicy(max_retries=0, base_delay_s=0.0)
QUICK_RETRY = RetryPolicy(max_retries=2, base_delay_s=0.001, max_delay_s=0.01)

#: Event cap that keeps each simulated cell well under a second.
FAST = 20_000


class TestRetryPolicy:
    def test_schedule_is_deterministic_per_seed(self):
        policy = RetryPolicy(max_retries=4, base_delay_s=0.1)
        a = policy.schedule(("w", "s"), seed=42)
        b = policy.schedule(("w", "s"), seed=42)
        assert a == b
        assert policy.schedule(("w", "s"), seed=43) != a
        assert policy.schedule(("other", "s"), seed=42) != a

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=6, base_delay_s=0.1, backoff_factor=2.0,
            max_delay_s=0.4, jitter_fraction=0.0,
        )
        assert policy.schedule(("k",), seed=1) == pytest.approx(
            [0.1, 0.2, 0.4, 0.4, 0.4, 0.4]
        )

    def test_jitter_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter_fraction=0.25)
        for attempt in (1, 2):
            delay = policy.delay_s(("k",), attempt, seed=7)
            base = min(policy.base_delay_s * 2 ** (attempt - 1), policy.max_delay_s)
            assert base * 0.75 <= delay <= base * 1.25

    def test_config_errors_not_retried(self):
        policy = RetryPolicy(max_retries=5)
        assert not policy.should_retry(1, "ConfigError")
        assert not policy.should_retry(1, "TraceFormatError")
        assert policy.should_retry(1, "ValueError")
        assert not policy.should_retry(6, "ValueError")


class TestFaultSpecs:
    def test_parse_forms(self):
        assert FaultSpec.parse("crash:1") == FaultSpec("crash", "1", None)
        assert FaultSpec.parse("hang:GemsFDTD/rrm") == FaultSpec(
            "hang", "GemsFDTD/rrm", None
        )
        assert FaultSpec.parse("crash:0:1") == FaultSpec("crash", "0", 1)

    @pytest.mark.parametrize(
        "bad", ["crash", "explode:1", "crash:1:zero", "crash:1:0", "a:b:c:d"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ConfigError):
            FaultSpec.parse(bad)

    def test_bind_resolves_index_and_name(self):
        keys = [("hmmer", "Static-7-SETs"), ("hmmer", "RRM")]
        plan = FaultPlan.parse(["crash:1", "hang:hmmer/static-7"]).bind(keys)
        assert plan.fault_for(("hmmer", "RRM"), 1) == "crash"
        assert plan.fault_for(("hmmer", "Static-7-SETs"), 1) == "hang"

    def test_bind_rejects_unknown_targets(self):
        keys = [("hmmer", "RRM")]
        with pytest.raises(ConfigError):
            FaultPlan.parse(["crash:5"]).bind(keys)
        with pytest.raises(ConfigError):
            FaultPlan.parse(["crash:lbm/rrm"]).bind(keys)

    def test_max_fires_limits_attempts(self):
        plan = FaultPlan.parse(["crash:0:2"]).bind([("w", "s")])
        assert plan.fault_for(("w", "s"), 1) == "crash"
        assert plan.fault_for(("w", "s"), 2) == "crash"
        assert plan.fault_for(("w", "s"), 3) is None


def _sweep(n_jobs, workloads=("hmmer",), schemes=(Scheme.STATIC_7,), **kw):
    """A FAST tiny sweep on *n_jobs* workers, already run."""
    runner = ExperimentRunner(
        SystemConfig.tiny(),
        workloads=list(workloads),
        schemes=list(schemes),
        max_events=FAST,
        n_jobs=n_jobs,
        **kw,
    )
    runner.run_all()
    return runner


@pytest.mark.parametrize("n_jobs", [1, 2])
class TestRunnerFailureKinds:
    """Each failure kind a sweep cell can degrade to, at one and two
    workers: the executor is the same either way."""

    def test_worker_crash_is_isolated(self, n_jobs):
        runner = _sweep(
            n_jobs,
            schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
            retry=NO_RETRY,
            fault_plan=FaultPlan.parse(["crash:hmmer/static-3"]),
        )
        assert list(runner.results) == [("hmmer", Scheme.STATIC_7)]
        failed = runner.failures[("hmmer", Scheme.STATIC_3)]
        assert failed.kind == "crash"
        assert isinstance(failed.to_error(), JobCrashedError)
        assert isinstance(failed.to_error(), ResilienceError)
        assert isinstance(failed.to_error(), ReproError)

    def test_error_degrades_to_failed_run(self, n_jobs):
        runner = _sweep(
            n_jobs, retry=QUICK_RETRY, fault_plan=FaultPlan.parse(["error:0"])
        )
        failed = runner.failures[("hmmer", Scheme.STATIC_7)]
        assert failed.kind == "error"
        assert failed.attempts == 3  # 1 try + 2 retries
        assert "injected worker error" in failed.message

    def test_hang_hits_timeout(self, n_jobs):
        started = time.monotonic()
        runner = _sweep(
            n_jobs,
            schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
            timeout_s=2.0,
            retry=NO_RETRY,
            fault_plan=FaultPlan.parse(["hang:0"]),
        )
        assert time.monotonic() - started < 60
        assert list(runner.results) == [("hmmer", Scheme.STATIC_3)]
        failed = runner.failures[("hmmer", Scheme.STATIC_7)]
        assert failed.kind == "timeout"
        assert isinstance(failed.to_error(), JobTimeoutError)

    def test_corrupt_fault_caught_by_validation(self, n_jobs):
        runner = _sweep(
            n_jobs, retry=NO_RETRY, fault_plan=FaultPlan.parse(["corrupt:0"])
        )
        failed = runner.failures[("hmmer", Scheme.STATIC_7)]
        assert failed.kind == "corrupt"
        assert "IPC" in failed.message
        assert isinstance(failed.to_error(), CorruptResultError)

    def test_config_error_is_not_retried(self, n_jobs):
        runner = _sweep(n_jobs, workloads=["no-such-workload"], retry=QUICK_RETRY)
        failed = runner.failures[("no-such-workload", Scheme.STATIC_7)]
        assert failed.message.startswith("ConfigError")
        assert failed.attempts == 1

    def test_retry_then_succeed(self, n_jobs, tmp_path):
        journal = tmp_path / "j.jsonl"
        runner = _sweep(
            n_jobs,
            retry=QUICK_RETRY,
            fault_plan=FaultPlan.parse(["crash:0:1"]),
            journal_path=journal,
        )
        assert not runner.failures
        assert runner.has_result("hmmer", Scheme.STATIC_7)
        # Attempt numbers live in the journal: the crashed claim and the
        # successful rerun.
        claims = ResultJournal.load(journal).claims[
            ("hmmer", Scheme.STATIC_7.value)
        ]
        assert [c["attempt"] for c in claims] == [1, 2]

    def test_duplicate_keys_rejected(self, n_jobs):
        runner = ExperimentRunner(
            SystemConfig.tiny(),
            workloads=["hmmer", "hmmer"],
            schemes=[Scheme.STATIC_7],
            n_jobs=n_jobs,
        )
        with pytest.raises(ConfigError, match="unique"):
            runner.run_all()

    def test_lifecycle_event_sequences(self, n_jobs):
        seen = []
        _sweep(
            n_jobs,
            schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
            retry=RetryPolicy(max_retries=1, base_delay_s=0.001),
            fault_plan=FaultPlan.parse(["error:hmmer/static-3"]),
            on_event=lambda name, args: seen.append((name, args)),
        )

        def lifecycle(scheme):
            return [
                (name, args)
                for name, args in seen
                if name.startswith("job.")
                and args["key"] == ["hmmer", scheme.value]
            ]

        ok = lifecycle(Scheme.STATIC_7)
        assert [name for name, _ in ok] == ["job.attempt", "job.result"]
        failed = lifecycle(Scheme.STATIC_3)
        assert [name for name, _ in failed] == [
            "job.attempt", "job.retry", "job.attempt", "job.failed",
        ]
        failed_args = failed[-1][1]
        assert failed_args["kind"] == "error"
        assert failed_args["attempts"] == 2
        assert "InjectedFaultError" in failed_args["message"]


class TestJournal:
    def test_append_is_atomic_and_loadable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultJournal(path)
        journal.start({"seed": 3})
        journal.append_result("w1", "s1", {"ipc": 1.0})
        journal.append_failure("w2", "s1", {"kind": "crash"})
        assert not path.with_name("j.jsonl.tmp").exists()
        contents = ResultJournal.load(path)
        assert contents.meta["seed"] == 3
        assert contents.results[("w1", "s1")] == {"ipc": 1.0}
        assert contents.failures[("w2", "s1")] == {"kind": "crash"}
        assert not contents.truncated

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultJournal(path)
        journal.start({"seed": 1})
        journal.append_result("w1", "s1", {"ipc": 1.0})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "result", "workload": "w2", "sch')
        contents = ResultJournal.load(path)
        assert contents.truncated
        assert list(contents.results) == [("w1", "s1")]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [
            json.dumps({"type": "meta", "version": 1}),
            "NOT JSON AT ALL",
            json.dumps(
                {"type": "result", "workload": "w", "scheme": "s", "result": {}}
            ),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointCorruptError):
            ResultJournal.load(path)

    def test_resume_from_drops_failures(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ResultJournal(path)
        journal.start({"seed": 1})
        journal.append_result("w1", "s1", {"ipc": 1.0})
        journal.append_failure("w2", "s1", {"kind": "timeout"})
        fresh = ResultJournal(path)
        fresh.resume_from(ResultJournal.load(path), {"seed": 1})
        contents = ResultJournal.load(path)
        assert list(contents.results) == [("w1", "s1")]
        assert not contents.failures


class TestRunnerValidation:
    def test_n_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(SystemConfig.tiny(), n_jobs=0)
        with pytest.raises(ConfigError):
            ExperimentRunner(SystemConfig.tiny(), n_jobs=-2)

    def test_max_events_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(SystemConfig.tiny(), max_events=0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentRunner(SystemConfig.tiny(), timeout_s=0)


class TestSimResultRoundTrip:
    def test_journal_serialization_is_lossless(self):
        result = run_workload(
            SystemConfig.tiny(), "hmmer", Scheme.STATIC_7, max_events=20_000
        )
        rebuilt = SimResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert rebuilt == result


@pytest.fixture(scope="module")
def crashed_sweep(tmp_path_factory):
    """A 1x2 sweep where the Static-3 job always crashes."""
    journal = tmp_path_factory.mktemp("sweep") / "journal.jsonl"
    runner = ExperimentRunner(
        SystemConfig.tiny(),
        workloads=["hmmer"],
        schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
        retry=NO_RETRY,
        fault_plan=FaultPlan.parse(["crash:hmmer/static-3"]),
        journal_path=journal,
    )
    runner.run_all()
    return runner, journal


class TestRunnerFailurePaths:
    def test_crash_mid_sweep_degrades(self, crashed_sweep):
        runner, _ = crashed_sweep
        assert runner.has_result("hmmer", Scheme.STATIC_7)
        assert not runner.has_result("hmmer", Scheme.STATIC_3)
        failed = runner.failures[("hmmer", Scheme.STATIC_3)]
        assert failed.kind == "crash"
        with pytest.raises(ConfigError, match="crash"):
            runner.result("hmmer", Scheme.STATIC_3)

    def test_aggregation_skips_failed_cells(self, crashed_sweep):
        runner, _ = crashed_sweep
        assert runner.completed_workloads(Scheme.STATIC_3) == []
        assert runner.ipc_series(Scheme.STATIC_3) == []
        assert math.isnan(runner.geomean_ipc(Scheme.STATIC_3))
        assert math.isnan(
            runner.geomean_speedup(Scheme.STATIC_3, Scheme.STATIC_7)
        )
        assert runner.geomean_ipc(Scheme.STATIC_7) > 0

    def test_reports_annotate_failures(self, crashed_sweep):
        from repro.analysis.report import (
            energy_report,
            failure_report,
            lifetime_report,
            performance_report,
            wear_report,
        )

        runner, _ = crashed_sweep
        assert "FAIL:crash" in performance_report(runner)
        assert "FAIL:crash" in lifetime_report(runner)
        assert "n/a" in wear_report(runner)
        assert "n/a" in energy_report(runner)
        assert "crash" in failure_report(runner)

    def test_save_json_includes_failures(self, crashed_sweep, tmp_path):
        runner, _ = crashed_sweep
        path = tmp_path / "out.json"
        path.write_text("pre-existing", encoding="utf-8")
        runner.save_json(path)
        records = json.loads(path.read_text())
        by_status = {r["status"] for r in records}
        assert by_status == {"ok", "failed"}
        (failed,) = [r for r in records if r["status"] == "failed"]
        assert failed["scheme"] == "Static-3-SETs"
        assert failed["kind"] == "crash"
        assert not path.with_name("out.json.tmp").exists()

    def test_journal_records_both_outcomes(self, crashed_sweep):
        _, journal = crashed_sweep
        contents = ResultJournal.load(journal)
        assert list(contents.results) == [("hmmer", "Static-7-SETs")]
        assert list(contents.failures) == [("hmmer", "Static-3-SETs")]


class TestRunnerResume:
    def test_resume_reruns_only_missing(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        first = ExperimentRunner(
            SystemConfig.tiny(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
            retry=NO_RETRY,
            fault_plan=FaultPlan.parse(["crash:hmmer/static-3"]),
            journal_path=journal,
        )
        first.run_all()
        # Simulate a crash mid-append: torn trailing write.
        with journal.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "result", "workload": "hm')

        second = ExperimentRunner(
            SystemConfig.tiny(),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7, Scheme.STATIC_3],
            retry=NO_RETRY,
        )
        reran = []
        second.resume(journal, progress=lambda w, s, r: reran.append((w, s)))
        # Only the journaled failure re-ran; the surviving result was reused.
        assert reran == [("hmmer", Scheme.STATIC_3)]
        assert len(second.results) == 2
        assert not second.failures
        assert second.result("hmmer", Scheme.STATIC_7).ipc == first.result(
            "hmmer", Scheme.STATIC_7
        ).ipc
        # The journal now holds both results and no failure records.
        contents = ResultJournal.load(journal)
        assert len(contents.results) == 2
        assert not contents.failures and not contents.truncated

    def test_resume_without_journal_raises(self):
        runner = ExperimentRunner(SystemConfig.tiny(), workloads=["hmmer"])
        with pytest.raises(ConfigError):
            runner.resume()


class TestSweepCacheJournal:
    def test_bench_cache_resumes_from_journal(self, tmp_path, monkeypatch):
        from benchmarks.common import SweepCache

        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setenv(
            "REPRO_BENCH_JOURNAL", str(tmp_path / "bench.jsonl")
        )
        first = SweepCache()
        result = first.get("hmmer", Scheme.STATIC_7)
        assert first.runs_executed == 1
        # A new session (fresh cache) reloads the cell instead of re-running.
        second = SweepCache()
        reloaded = second.get("hmmer", Scheme.STATIC_7)
        assert second.runs_executed == 0
        assert reloaded.ipc == result.ipc
        assert reloaded.scheme is Scheme.STATIC_7
        # A partly cached matrix runs only its missing cell.
        assert second.ensure(["hmmer"], [Scheme.STATIC_7, Scheme.STATIC_3]) == 1

    def test_seed_change_is_refused(self, tmp_path, monkeypatch):
        from benchmarks.common import SweepCache

        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setenv("REPRO_BENCH_SEED", "1")
        monkeypatch.setenv(
            "REPRO_BENCH_JOURNAL", str(tmp_path / "bench.jsonl")
        )
        SweepCache().get("hmmer", Scheme.STATIC_7)
        # The next session runs another seed: its cells would differ, so
        # the journal must not be reused.
        monkeypatch.setenv("REPRO_BENCH_SEED", "2")
        with pytest.raises(CheckpointCorruptError, match="different sweep"):
            SweepCache()

    def test_failed_cell_raises_structured_error(self, monkeypatch):
        from benchmarks.common import SweepCache

        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setenv("REPRO_BENCH_RETRIES", "0")
        monkeypatch.delenv("REPRO_BENCH_JOURNAL", raising=False)
        cache = SweepCache()
        with pytest.raises(JobCrashedError, match="ConfigError"):
            cache.get("no-such-workload", Scheme.STATIC_7)
        assert cache.runs_executed == 0


class TestDeterminism:
    def _run(self):
        runner = ExperimentRunner(
            SystemConfig.tiny(seed=5),
            workloads=["hmmer"],
            schemes=[Scheme.STATIC_7],
            retry=QUICK_RETRY,
            fault_plan=FaultPlan.parse(["crash:0:1"]),  # retry succeeds
        )
        runner.run_all()
        return runner

    def test_same_seed_same_results_and_schedule(self):
        a, b = self._run(), self._run()
        assert not a.failures and not b.failures
        da = a.result("hmmer", Scheme.STATIC_7).to_json_dict()
        db = b.result("hmmer", Scheme.STATIC_7).to_json_dict()
        # Wall time measures the host, not the simulation.
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db
        # The jitter schedule itself is a pure function of the seed.
        policy = QUICK_RETRY
        key = ("hmmer", Scheme.STATIC_7.value)
        assert policy.schedule(key, seed=5) == policy.schedule(key, seed=5)
