"""Bit-identity against the benchmark's committed result digests.

``perfbench/digests.json`` pins the sha256 of ``SimResult.as_dict()`` for
every benchmark cell (one contended tiny cell, one paper-config cell and
the 36-cell scaled sweep) on many seeds. Running the default seed and the
held-out seed here makes every speed or simplicity change prove that it
left the simulated results untouched, in the ordinary test run and not
only when the benchmark runs. The digest file is read, never written.
"""

import pytest
from perfbench.cells import (
    ATTRIBUTED,
    all_cells,
    contended_cell,
    result_digest,
    run_cell,
)
from perfbench.goldens import (
    DEFAULT_SEED,
    DIGESTS_PATH,
    HELD_OUT_SEED,
    load_digests,
)

SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)
PINNED = load_digests(DIGESTS_PATH)


@pytest.mark.parametrize(
    "seed,cell",
    [(seed, cell) for seed in SEEDS for cell in all_cells(seed)],
    ids=lambda value: value.cell_id if hasattr(value, "cell_id") else str(value),
)
def test_cell_matches_committed_digest(seed, cell):
    digest = result_digest(run_cell(cell).result)
    assert digest == PINNED[str(seed)][cell.cell_id]


@pytest.mark.parametrize("seed", SEEDS)
def test_attributed_cell_matches_plain_digest(seed):
    cell = contended_cell(seed)
    digest = result_digest(run_cell(cell, telemetry=ATTRIBUTED).result)
    assert digest == PINNED[str(seed)][cell.cell_id]
