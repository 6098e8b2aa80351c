"""The repository benchmark: four workloads, plain-run speed, traced layers.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

With ``--trace 0`` the workload's cells run with all instrumentation off,
repeatedly for about ``--seconds``, and the end-to-end metrics are medians
over those repetitions. With ``--trace 1`` a separate traced run records
per-layer spans (:mod:`perfbench.tracing`) and prints the per-layer
metrics; it also repeats the plain cell so the tracing overhead can be
stated. Every result is checked against the committed sha256 digest of
its ``SimResult.as_dict()`` (``digests.json``). The last line of standard
output is one JSON object; the exit code is 0 only if every check held.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional

from repro.telemetry import TelemetryConfig

from .cells import (
    ATTRIBUTED,
    SWEEP_JOBS,
    Cell,
    CellRun,
    SweepRun,
    clock,
    contended_cell,
    result_digest,
    run_cell,
    run_sweep,
    wide_cell,
)
from .goldens import DIGESTS_PATH, load_digests, write_digests
from .hostspeed import SpeedMeter, host_facts, peak_rss_mb
from .tracing import (
    BANK_OPS,
    CAN_ACCEPT,
    DECIDE,
    ENQUEUE,
    ITEM,
    LAYERS,
    MAINTENANCE,
    REGISTER,
    SCHEDULE,
    UNATTRIBUTED,
    SpanRecorder,
)

WORKLOADS = ("contended-rrm", "wide-static", "sweep-fabric", "attributed-rrm")

#: End-to-end metrics (plain runs only) and their units.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced runs) and their units. Layers a workload
#: does not run report 0.
PER_LAYER: Dict[str, str] = {
    "engine.events": "count",
    "engine.cancelled": "count",
    "engine.schedule_calls": "count",
    "engine.schedule_ns": "ns",
    "engine.self_s": "s",
    "engine.events_per_s": "1/s",
    "memctrl.enqueue_calls": "count",
    "memctrl.enqueue_ns": "ns",
    "memctrl.completions": "count",
    "memctrl.refused_frac": "ratio",
    "memctrl.self_s": "s",
    "pcm.bank_ops": "count",
    "pcm.bank_op_ns": "ns",
    "pcm.ready_probes": "count",
    "pcm.issue_per_probe": "ratio",
    "pcm.self_s": "s",
    "core.register_calls": "count",
    "core.register_ns": "ns",
    "core.decide_calls": "count",
    "core.decide_ns": "ns",
    "core.maintenance_s": "s",
    "core.filtered_frac": "ratio",
    "core.self_s": "s",
    "cpu.dispatches": "count",
    "cpu.self_s": "s",
    "cpu.space_stalls": "count",
    "workloads.items": "count",
    "workloads.item_ns": "ns",
    "workloads.self_s": "s",
    "fabric.busy_frac": "ratio",
    "fabric.cell_p50_s": "s",
    "fabric.retries": "count",
    "fabric.journal_bytes": "bytes",
    "attribution.hook_calls": "count",
    "attribution.hook_ns": "ns",
    "attribution.tax_frac": "ratio",
    "attribution.self_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Per-layer values that are pure functions of the simulated run: two
#: traced runs of one seed must agree on them exactly.
EXACT = (
    "engine.events",
    "engine.cancelled",
    "engine.schedule_calls",
    "memctrl.enqueue_calls",
    "memctrl.completions",
    "memctrl.refused_frac",
    "pcm.bank_ops",
    "pcm.ready_probes",
    "pcm.issue_per_probe",
    "core.register_calls",
    "core.decide_calls",
    "core.filtered_frac",
    "cpu.dispatches",
    "cpu.space_stalls",
    "workloads.items",
    "attribution.hook_calls",
)

HOOKS = tuple(
    f"AttributionCollector.{hook}"
    for hook in ("on_enqueue", "on_dequeue", "on_read_issue",
                 "on_write_issue", "on_write_paused", "on_complete")
)
ROOT = "System.run"

#: Repetitions a plain run makes at least, whatever ``--seconds`` says.
MIN_REPS = 3
#: ``System`` constructions timed per repetition for ``setup_s``.
SETUP_SAMPLES = 10
#: Traced cells per traced run; two, so exact counts are compared.
TRACED_REPS = 2
#: Events of the untimed warm-up cell (imports, code paths, allocator).
WARMUP_EVENTS = 2_000


# ----------------------------------------------------------------------
# Correctness bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Cells attempted and failed, and why each failure happened.

    For a seed with committed digests every cell must match its digest.
    For any other seed there is nothing committed to compare with, so the
    first result of each cell becomes the reference and every later one
    (repetitions, traced runs, the attributed path) must match it.
    """

    pinned: Optional[Dict[str, str]]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    seen: Dict[str, str] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check(self, cell_id: str, result, label: str = "") -> None:
        """Count one attempted cell and verify its digest."""
        self.attempted += 1
        digest = result_digest(result)
        if self.pinned is not None:
            expected = self.pinned.get(cell_id)
            if expected is None:
                self.fail(f"{cell_id}{label}: no committed digest")
                return
        else:
            expected = self.seen.setdefault(cell_id, digest)
        if digest != expected:
            self.fail(
                f"{cell_id}{label}: digest {digest[:16]} != expected "
                f"{expected[:16]}"
            )

    def attempt(self, cell_id: str, fn: Callable[[], CellRun],
                label: str = "") -> Optional[CellRun]:
        """Run one cell; an exception counts as a failed cell."""
        try:
            run = fn()
        except Exception as exc:  # noqa: BLE001 - a failed cell is a result
            self.attempted += 1
            self.fail(f"{cell_id}{label}: {type(exc).__name__}: {exc}")
            return None
        self.check(cell_id, run.result, label)
        return run

    def exact(self, name: str, first, second) -> None:
        if first != second:
            self.fail(f"exact count {name} differs across traced runs: "
                      f"{first} != {second}")


# ----------------------------------------------------------------------
# Repetition
# ----------------------------------------------------------------------
def repeat(seconds: float, once: Callable[[], Optional[list]],
           min_reps: int) -> List[list]:
    """Call *once* at least *min_reps* times, then while another call is
    expected to end within *seconds* of the first; stop at the first
    None (a failed cell). Every run *once* returns gets the ``speed``
    its call was measured at (:class:`~perfbench.hostspeed.SpeedMeter`)."""
    started = clock()
    reps: List[list] = []
    durations: List[float] = []
    while True:
        began = clock()
        with SpeedMeter() as meter:
            runs = once()
        durations.append(clock() - began)
        if runs is None:
            return reps
        for run in runs:
            run.speed = meter.speed
        reps.append(runs)
        if len(reps) >= min_reps and (
            clock() - started + median(durations) > seconds
        ):
            return reps


def warm_up(cell: Cell, telemetry: Optional[TelemetryConfig]) -> None:
    short = Cell(cell.cell_id, cell.config, cell.workload, cell.scheme,
                 WARMUP_EVENTS)
    run_cell(short, telemetry=telemetry)


def plain_cells(tally: Tally, cell: Cell, telemetry, seconds: float,
                min_reps: int) -> List[CellRun]:
    def once() -> Optional[list]:
        run = tally.attempt(cell.cell_id, lambda: run_cell(
            cell, telemetry=telemetry, setup_samples=SETUP_SAMPLES
        ))
        if run is None:
            return None
        run.system = None  # keep the timings, free the simulated machine
        return [run]

    return [runs[0] for runs in repeat(seconds, once, min_reps)]


def scaled_wall(runs) -> float:
    """Median wall time in reference-host seconds."""
    return median(r.wall_s * r.speed for r in runs)


def cell_end_to_end(runs: List[CellRun]) -> Dict[str, float]:
    return {
        "wall_s": scaled_wall(runs),
        "sim_minstr_per_s": median(
            r.result.instructions / (r.wall_s * r.speed) / 1e6 for r in runs
        ),
        "setup_s": median(s * r.speed for r in runs for s in r.setup_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def plain_sweeps(tally: Tally, seed: int, work_dir: Path, seconds: float,
                 min_reps: int) -> List[SweepRun]:
    attempts = itertools.count()

    def once() -> Optional[list]:
        try:
            run = run_sweep(seed, work_dir / f"sweep-{next(attempts)}")
        except Exception as exc:  # noqa: BLE001 - a failed sweep is a result
            tally.attempted += 1
            tally.fail(f"sweep: {type(exc).__name__}: {exc}")
            return None
        for cell_id in run.failed:
            tally.attempted += 1
            tally.fail(f"{cell_id}: failed in the sweep")
        for cell_id, result in sorted(run.results.items()):
            tally.check(cell_id, result)
        return None if run.failed else [run]

    return [runs[0] for runs in repeat(seconds, once, min_reps)]


def sweep_end_to_end(runs: List[SweepRun]) -> Dict[str, float]:
    return {
        "wall_s": scaled_wall(runs),
        "sim_minstr_per_s": median(
            sum(res.instructions for res in r.results.values())
            / (r.wall_s * r.speed) / 1e6
            for r in runs
        ),
        "setup_s": median(r.setup_s * r.speed for r in runs),
        "peak_rss_mb": peak_rss_mb(),
    }


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


@dataclass
class TracedRun:
    """One traced cell's layer metrics and the spans behind them."""

    metrics: Dict[str, float]
    recorder: SpanRecorder
    #: Host-speed factor set by the repetition loop.
    speed: float = 1.0


def traced_cell(tally: Tally, cell: Cell, telemetry) -> Optional[TracedRun]:
    """One cell with the layer wrappers installed; returns its layer
    metrics (those that need plain runs too are filled in later)."""
    recorder = SpanRecorder()
    recorder.cell = cell.cell_id
    recorder.install()
    try:
        run = tally.attempt(cell.cell_id, lambda: run_cell(
            cell, telemetry=telemetry,
            wrap_run=lambda fn: recorder.wrap(fn, ROOT, UNATTRIBUTED),
        ), label=" (traced)")
    finally:
        recorder.uninstall()
    if run is None:
        return None
    return TracedRun(layer_metrics(tally, recorder, run), recorder)


def layer_metrics(tally: Tally, rec: SpanRecorder, run: CellRun
                  ) -> Dict[str, float]:
    result = run.result
    system = run.system
    selfs = rec.layer_self_ns()
    # Integer host nanoseconds: the sum must be exact.
    root_total = rec.total_ns(ROOT)
    if sum(selfs.values()) != root_total:
        tally.fail(f"layer self times sum to {sum(selfs.values())} ns, "
                   f"traced wall is {root_total} ns")
    completed = (result.reads + result.writes + result.rrm_fast_refreshes
                 + result.rrm_slow_refreshes)
    if rec.dispatches("memctrl") != completed:
        tally.fail(f"memctrl completions {rec.dispatches('memctrl')} != "
                   f"{completed} requests completed")

    schedules = rec.calls(SCHEDULE)
    enqueues = rec.calls(ENQUEUE)
    bank_ops = rec.calls(*BANK_OPS)
    probes = rec.scheduler_probes
    registers = rec.calls(REGISTER)
    decides = rec.calls(DECIDE)
    items = rec.calls(ITEM)
    hooks = rec.calls(*HOOKS)
    filtered = (
        system.rrm.stats.clean_writes_filtered if system.rrm is not None else 0
    )
    metrics = {
        "engine.events": result.sim_events,
        "engine.cancelled": system.sim.events_cancelled,
        "engine.schedule_calls": schedules,
        "engine.schedule_ns": _per(rec.total_ns(SCHEDULE), schedules),
        "memctrl.enqueue_calls": enqueues,
        "memctrl.enqueue_ns": _per(rec.self_ns(ENQUEUE), enqueues),
        "memctrl.completions": rec.dispatches("memctrl"),
        "memctrl.refused_frac": _per(rec.refused, rec.calls(CAN_ACCEPT)),
        "pcm.bank_ops": bank_ops,
        "pcm.bank_op_ns": _per(rec.total_ns(*BANK_OPS), bank_ops),
        "pcm.ready_probes": probes,
        "pcm.issue_per_probe": _per(bank_ops, probes),
        "core.register_calls": registers,
        "core.register_ns": _per(rec.total_ns(REGISTER), registers),
        "core.decide_calls": decides,
        "core.decide_ns": _per(rec.total_ns(DECIDE), decides),
        "core.maintenance_s": rec.self_ns(*MAINTENANCE) / 1e9,
        "core.filtered_frac": _per(filtered, registers),
        "cpu.dispatches": rec.dispatches("cpu"),
        "cpu.space_stalls": (result.stalls["read_queue_stalls"]
                             + result.stalls["write_queue_stalls"]),
        "workloads.items": items,
        "workloads.item_ns": _per(rec.total_ns(ITEM), items),
        "attribution.hook_calls": hooks,
        "attribution.hook_ns": _per(rec.total_ns(*HOOKS), hooks),
        "unattributed_s": selfs[UNATTRIBUTED] / 1e9,
        "trace.wall_s": root_total / 1e9,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs[layer] / 1e9
    return metrics


def combine_traced(tally: Tally, samples: List[Dict[str, float]]
                   ) -> Dict[str, float]:
    """Exact counts must agree across traced runs; times take the median."""
    combined = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        if name in EXACT:
            for other in values[1:]:
                tally.exact(name, values[0], other)
            combined[name] = values[0]
        else:
            combined[name] = median(values)
    return combined


def zero_layers() -> Dict[str, float]:
    return {name: 0 for name in PER_LAYER}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    metrics: Dict[str, float]
    reps: int
    #: Trace artifact body (traced runs only).
    trace: Optional[dict] = None
    #: Printed for context, not reported as metrics.
    notes: Dict[str, float] = field(default_factory=dict)


def speed_notes(runs) -> Dict[str, float]:
    return {
        "raw wall_s": median(r.wall_s for r in runs),
        "host speed": median(r.speed for r in runs),
    }


def single_cell(tally: Tally, cell: Cell, telemetry, seconds: float,
                trace: bool, tax_cell: Optional[Cell] = None) -> Outcome:
    warm_up(cell, telemetry)
    if not trace:
        runs = plain_cells(tally, cell, telemetry, seconds, MIN_REPS)
        if not runs:
            return Outcome({}, 0)
        return Outcome(cell_end_to_end(runs), len(runs),
                       notes=speed_notes(runs))

    started = clock()

    def once_traced() -> Optional[list]:
        run = traced_cell(tally, cell, telemetry)
        return None if run is None else [run]

    traced = [runs[0] for runs in repeat(0.0, once_traced, TRACED_REPS)]
    if len(traced) < TRACED_REPS:
        return Outcome({}, len(traced))
    remaining = seconds - (clock() - started)

    def once() -> Optional[list]:
        # attributed-rrm alternates its cell with the unattributed one
        # so attribution.tax_frac compares runs made under the same load.
        runs = [tally.attempt(cell.cell_id, lambda: run_cell(
            cell, telemetry=telemetry
        ))]
        if tax_cell is not None and runs[0] is not None:
            runs.append(tally.attempt(tax_cell.cell_id,
                                      lambda: run_cell(tax_cell)))
        return None if None in runs else runs

    reps = repeat(remaining, once, 2)
    own = [runs[0] for runs in reps]
    base = [runs[1] for runs in reps if len(runs) > 1]
    metrics = zero_layers()
    metrics.update(combine_traced(tally, [t.metrics for t in traced]))
    if own:
        metrics["engine.events_per_s"] = (
            metrics["engine.events"] / median(r.wall_s for r in own)
        )
        metrics["trace.overhead_frac"] = median(
            t.metrics["trace.wall_s"] * t.speed for t in traced
        ) / scaled_wall(own) - 1.0
        if base:
            metrics["attribution.tax_frac"] = (
                scaled_wall(own) / scaled_wall(base) - 1.0
            )
    recorder = traced[0].recorder
    artifact = {
        "aggregates": {
            name: {"layer": layer, "calls": calls, "total_ns": total,
                   "self_ns": self_ns}
            for name, (layer, calls, total, self_ns)
            in sorted(recorder.aggregates.items())
        },
        "spans_kept": len(recorder.spans),
        "spans_dropped": recorder.spans_dropped,
        "spans": recorder.spans,
    }
    return Outcome(metrics, len(traced) + len(own), artifact)


def sweep(tally: Tally, seed: int, work_dir: Path, seconds: float,
          trace: bool) -> Outcome:
    warm_up(contended_cell(seed), None)
    runs = plain_sweeps(tally, seed, work_dir, seconds,
                        2 if trace else MIN_REPS)
    if not runs:
        return Outcome({}, 0)
    if not trace:
        return Outcome(sweep_end_to_end(runs), len(runs),
                       notes=speed_notes(runs))
    # The cells run in worker processes, which the traced run does not
    # instrument: the sweep reports the fabric layer only, and its
    # "traced" sweeps are its plain ones (overhead 0 by construction).
    metrics = zero_layers()
    wall = median(r.wall_s for r in runs)
    metrics.update({
        "fabric.busy_frac": median(
            r.busy_s / (SWEEP_JOBS * r.wall_s) for r in runs
        ),
        "fabric.cell_p50_s": median(
            median(res.wall_time_s for res in r.results.values())
            for r in runs
        ),
        "fabric.retries": sum(r.retries for r in runs),
        "fabric.journal_bytes": median(r.journal_bytes for r in runs),
        "unattributed_s": wall,
        "trace.wall_s": wall,
    })
    spans = [
        (index, "cell", "fabric", attempt, done, 0, cell_id, worker)
        for index, (cell_id, worker, attempt, done)
        in enumerate(runs[0].timeline, start=1)
    ]
    artifact = {"spans_kept": len(spans), "spans_dropped": 0, "spans": spans}
    return Outcome(metrics, len(runs), artifact)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tally: Tally, work_dir: Path) -> Outcome:
    if name == "contended-rrm":
        return single_cell(tally, contended_cell(seed), None, seconds, trace)
    if name == "wide-static":
        return single_cell(tally, wide_cell(seed), None, seconds, trace)
    if name == "attributed-rrm":
        cell = contended_cell(seed)
        return single_cell(tally, cell, ATTRIBUTED, seconds, trace,
                           tax_cell=cell if trace else None)
    return sweep(tally, seed, work_dir, seconds, trace)


# ----------------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--digests", type=Path, default=DIGESTS_PATH,
        help="committed digest file to check results against",
    )
    parser.add_argument(
        "--write-digests", type=int, nargs="+", metavar="SEED",
        help="compute and commit digests for these seeds instead of "
        "benchmarking",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="with --write-digests: replace digests already committed",
    )
    args = parser.parse_args(argv)
    if args.write_digests is None and args.workload is None:
        parser.error("--workload is required")
    return args


def format_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: List[str], root: Path) -> int:
    args = parse_args(argv)
    if args.write_digests is not None:
        return write_digests(args.digests, args.write_digests, args.force)

    host = host_facts()
    pinned = load_digests(args.digests).get(str(args.seed))
    tally = Tally(pinned=pinned)
    out_dir = root / "perfbench" / "out"
    work_dir = out_dir / f"work-{os.getpid()}"
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), tally, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if name not in outcome.metrics]
    correct = tally.failed == 0 and not missing

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} reps={outcome.reps} "
          f"digests={'committed' if pinned is not None else 'self-consistency only'}")
    print("host " + json.dumps(host, sort_keys=True))
    for name in wanted:
        if name in outcome.metrics:
            print(f"  {name:<24} {format_value(outcome.metrics[name]):>14} "
                  f"{wanted[name]}")
    for name, value in outcome.notes.items():
        print(f"  ({name} {format_value(value)})")
    print(f"  fail_frac {tally.failed}/{tally.attempted}")
    for problem in tally.problems:
        print(f"FAIL {problem}")

    if outcome.trace is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        artifact = {
            "workload": args.workload, "seed": args.seed, "host": host,
            "metrics": {n: outcome.metrics.get(n) for n in wanted},
            "span_fields": ["id", "name", "layer", "start_ns", "end_ns",
                            "parent", "cell", "req_id_or_worker"],
            **outcome.trace,
        }
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(artifact), encoding="utf-8")
        print(f"trace written to {path.relative_to(root)}")

    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": wanted[name]}
            for name in wanted
            if name in outcome.metrics
        },
    }))
    return 0 if correct else 1
