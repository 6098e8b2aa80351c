"""Self-tests of the benchmark.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, tracing
from .cells import (
    Cell,
    all_cells,
    contended_cell,
    result_digest,
    run_cell,
    sweep_cells,
    wide_cell,
)
from .goldens import write_digests

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def short(cell: Cell, events: int) -> Cell:
    return Cell(f"test/{cell.cell_id}", cell.config, cell.workload,
                cell.scheme, events)


def run_bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1][:1] == "{" else None


def test_declared_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_printed_names_match_benchmark_json_and_wide_static_skips_core():
    proc, plain = run_bench("--workload", "wide-static", "--seconds", "1",
                            "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]

    proc, traced = run_bench("--workload", "wide-static", "--seconds", "1",
                             "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    assert metrics["core.register_calls"] == 0
    assert metrics["attribution.hook_calls"] == 0
    assert metrics["engine.events"] > 0


def test_corrupted_digest_fails_the_run(tmp_path):
    digests = json.loads(bench.DIGESTS_PATH.read_text(encoding="utf-8"))
    cell_id = wide_cell(1).cell_id
    good = digests["seeds"]["1"][cell_id]
    digests["seeds"]["1"][cell_id] = ("0" if good[0] != "0" else "1") + good[1:]
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests), encoding="utf-8")

    proc, result = run_bench("--workload", "wide-static", "--seed", "1",
                             "--seconds", "1", "--digests", str(corrupted))
    assert proc.returncode != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_directory_without_sources_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = run_bench("--workload", "wide-static", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def test_uninstall_restores_every_original():
    originals = {key: key[0].__dict__[key[1]] for key in tracing.PATCHED}
    cell = short(contended_cell(1), 3_000)
    before = result_digest(run_cell(cell).result)

    tally = bench.Tally(pinned=None)
    traced = bench.traced_cell(tally, cell, None)
    assert traced is not None and tally.failed == 0
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"

    calls = {name: agg[1] for name, agg in traced.recorder.aggregates.items()}
    after = run_cell(cell)
    assert result_digest(after.result) == before
    assert {n: a[1] for n, a in traced.recorder.aggregates.items()} == calls


def test_exact_counts_repeat_and_self_times_add_up():
    cell = short(contended_cell(2), 6_000)
    tally = bench.Tally(pinned=None)
    untraced = result_digest(run_cell(cell).result)
    first = bench.traced_cell(tally, cell, bench.ATTRIBUTED)
    second = bench.traced_cell(tally, cell, bench.ATTRIBUTED)
    assert first is not None and second is not None
    assert tally.problems == []
    assert tally.seen[cell.cell_id] == untraced
    for name in bench.EXACT:
        assert first.metrics[name] == second.metrics[name], name
    for run in (first, second):
        selfs = run.recorder.layer_self_ns()
        assert sum(selfs.values()) == run.recorder.total_ns(bench.ROOT)
        assert run.metrics["attribution.hook_calls"] > 0
        assert run.metrics["core.register_calls"] > 0


def test_write_digests_refuses_to_overwrite(tmp_path):
    path = tmp_path / "digests.json"
    body = {"seeds": {"1": {"x": "committed"}}}
    path.write_text(json.dumps(body), encoding="utf-8")
    assert write_digests(path, [1], force=False) == 2
    assert json.loads(path.read_text(encoding="utf-8")) == body


def test_cells_are_cut_by_simulated_time_only():
    # An event-count cut would change a cell's simulated work (and its
    # digest) whenever a change removes events.
    assert all(cell.max_events is None for cell in all_cells(1))


def test_cells_take_the_seed_only_through_the_config():
    for make in (contended_cell, wide_cell, lambda s: sweep_cells(s)[-1]):
        one, two = make(1), make(2)
        assert replace(one.config, seed=2) == two.config
        assert (one.cell_id, one.workload, one.scheme, one.max_events) == (
            two.cell_id, two.workload, two.scheme, two.max_events
        )
