"""The simulated work behind each benchmark workload, and how it is run.

Every workload is a fixed set of cells (one ``System`` each). The seed is
the only input; it reaches the simulator through ``SystemConfig.seed``
and nowhere else. Cell lengths are chosen so one cell takes about a
second or three on a 2-core Xeon host, letting a run repeat it several
times and report medians.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.sim.config import SystemConfig
from repro.sim.metrics import SimResult
from repro.sim.runner import ExperimentRunner
from repro.sim.schemes import Scheme, all_schemes
from repro.sim.system import System
from repro.telemetry import TelemetryConfig

#: Host wall clock for every measurement the benchmark takes. Reads are
#: reported, never fed into simulated state.
clock = time.perf_counter  # repro-lint: disable=RL001 - host timing is the measurement

#: Half of ``SystemConfig.tiny``'s 20 ms: long enough to take the RRM's
#: first refresh interrupt (9.04 ms) and drain its refresh burst.
CONTENDED_DURATION_S = 0.01

#: The ROADMAP's 0.5 ms paper-config window (about 70k events). Shorter
#: windows differ more in work from seed to seed (events IQR/median over
#: seeds 1-10: 7.8% at 0.2 ms, 4.5% at 0.5 ms). Cells are cut by
#: simulated time only, never by event count: a change that removes
#: events (batched wake-ups, say) then still simulates the same machine
#: time, so its result digest and its timed work stay the same.
WIDE_DURATION_S = 0.0005

#: The figure set's default workloads (``benchmarks/common.py``
#: ``DEFAULT_WORKLOADS``), copied so the benchmark's work stays fixed.
SWEEP_WORKLOADS = ("GemsFDTD", "hmmer", "lbm", "libquantum", "mcf", "MIX_2")

#: Short cells (0.5 simulated ms, about 4k events each), so worker
#: start-up, claiming, pickling and journal appends are a visible share
#: of the sweep's time.
SWEEP_DURATION_S = 0.0005

#: Worker processes for the sweep: the reference host's core count,
#: fixed so the workload does not change shape from host to host.
SWEEP_JOBS = 2

ATTRIBUTED = TelemetryConfig(attribution=True, trace=False)


@dataclass(frozen=True)
class Cell:
    """One simulated system: its digest key and everything it runs."""

    cell_id: str
    config: SystemConfig
    workload: str
    scheme: Scheme
    max_events: Optional[int] = None


def contended_cell(seed: int) -> Cell:
    return Cell(
        "contended/GemsFDTD/RRM",
        SystemConfig.tiny(seed).with_duration(CONTENDED_DURATION_S),
        "GemsFDTD",
        Scheme.RRM,
    )


def wide_cell(seed: int) -> Cell:
    return Cell(
        "wide/MIX_1/Static-7-SETs",
        SystemConfig.paper(seed).with_duration(WIDE_DURATION_S),
        "MIX_1",
        Scheme.STATIC_7,
    )


def sweep_cells(seed: int) -> List[Cell]:
    config = sweep_config(seed)
    return [
        Cell(sweep_cell_id(workload, scheme), config, workload, scheme)
        for workload in SWEEP_WORKLOADS
        for scheme in all_schemes()
    ]


def sweep_config(seed: int) -> SystemConfig:
    return SystemConfig.scaled(seed, duration_s=SWEEP_DURATION_S)


def sweep_cell_id(workload: str, scheme: Scheme) -> str:
    return f"sweep/{workload}/{scheme.value}"


def all_cells(seed: int) -> List[Cell]:
    """Every distinct cell of every workload (attributed-rrm reuses
    contended-rrm's cell: attribution must not change the result)."""
    return [contended_cell(seed), wide_cell(seed), *sweep_cells(seed)]


def result_digest(result: SimResult) -> str:
    """sha256 of the canonical JSON of ``SimResult.as_dict()``."""
    canonical = json.dumps(
        result.as_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
@dataclass
class CellRun:
    """One timed cell: ``System`` construction times and ``run()`` time."""

    setup_s: List[float]
    wall_s: float
    result: SimResult
    system: Optional[System]
    #: Host-speed factor set by the benchmark's repetition loop.
    speed: float = 1.0


def run_cell(
    cell: Cell,
    *,
    telemetry: Optional[TelemetryConfig] = None,
    setup_samples: int = 1,
    wrap_run=None,
) -> CellRun:
    """Build the cell's ``System`` *setup_samples* times, run the last.

    *wrap_run*, when given, wraps ``System.run`` (the traced root span).
    """
    setups = []
    system: Optional[System] = None
    for _ in range(setup_samples):
        # A System holds reference cycles: collect the previous one, and
        # any an earlier cell left behind, before every build (untimed),
        # so peak RSS reflects the single system that runs.
        system = None
        gc.collect()
        started = clock()
        system = System(cell.config, cell.workload, cell.scheme,
                        telemetry=telemetry)
        setups.append(clock() - started)
    assert system is not None, "setup_samples must be at least 1"
    run = system.run if wrap_run is None else wrap_run(system.run)
    started = clock()
    result = run(max_events=cell.max_events)
    return CellRun(setups, clock() - started, result, system)


@dataclass
class SweepRun:
    """One timed sweep through ``ExperimentRunner`` on the fabric."""

    setup_s: float
    wall_s: float
    results: Dict[str, SimResult]
    failed: List[str]
    busy_s: float
    retries: int
    journal_bytes: int
    #: (cell id, worker, attempt seen, result seen), coordinator clock.
    timeline: List[Tuple[str, int, float, float]] = field(default_factory=list)
    #: Host-speed factor set by the benchmark's repetition loop.
    speed: float = 1.0


def run_sweep(seed: int, work_dir: Path) -> SweepRun:
    """Run the 36-cell sweep with its journal inside *work_dir*.

    ``setup_s`` runs from runner construction to the first
    ``job.attempt`` event; ``wall_s`` from ``run_all()`` to the last
    result harvested.
    """
    work_dir.mkdir(parents=True)
    # Workers fork from this process: collect any earlier System first.
    gc.collect()
    journal = work_dir / "journal.jsonl"
    attempts: Dict[str, float] = {}
    first_attempt: List[float] = []
    timeline: List[Tuple[str, int, float, float]] = []
    retries = 0
    last_result = [0.0]

    def on_event(name: str, args: dict) -> None:
        nonlocal retries
        now = clock()
        if name == "job.attempt":
            attempts[_key_id(args["key"])] = now
            if not first_attempt:
                first_attempt.append(now)
        elif name == "job.result":
            cell_id = _key_id(args["key"])
            timeline.append((cell_id, args["worker"], attempts[cell_id], now))
        elif name == "job.retry":
            retries += 1

    def progress(workload, scheme, result) -> None:
        last_result[0] = clock()

    constructed = clock()
    runner = ExperimentRunner(
        sweep_config(seed),
        SWEEP_WORKLOADS,
        all_schemes(),
        n_jobs=SWEEP_JOBS,
        journal_path=journal,
        on_event=on_event,
    )
    started = clock()
    try:
        runner.run_all(progress=progress)
        journal_bytes = journal.stat().st_size
    finally:
        shutil.rmtree(work_dir)
    stats = runner.fabric_stats
    return SweepRun(
        setup_s=(first_attempt or [started])[0] - constructed,
        wall_s=last_result[0] - started,
        results={
            sweep_cell_id(workload, scheme): result
            for (workload, scheme), result in runner.results.items()
        },
        failed=[
            sweep_cell_id(workload, scheme)
            for workload, scheme in runner.failures
        ],
        busy_s=sum(stats.worker_busy_s.values()),
        retries=retries,
        journal_bytes=journal_bytes,
        timeline=timeline,
    )


def _key_id(key) -> str:
    workload, scheme_value = key
    return sweep_cell_id(workload, Scheme(scheme_value))
