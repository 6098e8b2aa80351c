"""Committed sha256 digests of every benchmark cell's ``SimResult.as_dict()``.

``digests.json`` maps a seed to ``{cell id: digest}`` for every distinct
cell of every workload (:func:`perfbench.cells.all_cells`). Seed 1 is the
default seed; seed 2 is held out: a speed change is written against
seed 1 and confirmed on seed 2. Other committed seeds widen the set of
seeds the benchmark can check exactly.

Regenerate with ``python3 perfbench/run.py --write-digests SEED...``.
Seeds already committed are refused unless ``--force`` is given, since
replacing a digest redefines what a correct simulator is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterable

from repro.sim.runner import run_workload

from .cells import all_cells, result_digest

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def load_digests(path: Path) -> Dict[str, Dict[str, str]]:
    """Seed (as a string) -> cell id -> digest; empty if no file."""
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["seeds"]


def compute_digests(seed: int) -> Dict[str, str]:
    """Run every cell for *seed* serially, in this process."""
    return {
        cell.cell_id: result_digest(run_workload(
            cell.config, cell.workload, cell.scheme,
            max_events=cell.max_events,
        ))
        for cell in all_cells(seed)
    }


def write_digests(path: Path, seeds: Iterable[int], force: bool) -> int:
    """Add digests for *seeds* to *path*; exit status for the CLI."""
    seeds_map = load_digests(path)
    clashes = [seed for seed in seeds if str(seed) in seeds_map]
    if clashes and not force:
        print(
            f"refusing to overwrite committed digests for seeds {clashes}; "
            "pass --force to replace them",
            file=sys.stderr,
        )
        return 2
    for seed in seeds:
        seeds_map[str(seed)] = compute_digests(seed)
        print(f"seed {seed}: {len(seeds_map[str(seed)])} cells", flush=True)
    body = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seeds": seeds_map,
    }
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0
