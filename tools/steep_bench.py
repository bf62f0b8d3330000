"""Time the quenched engine at strong disorder, where blocks vary most.

Usage: PYTHONPATH=src python tools/steep_bench.py [--repeats 5]

For each (law, beta) of GRID it times ``estimators.replica_log_z`` at
N = 2000, R = 32, h = 0.1 and seed 0 on the logarithmic family at
upsilon = 2, the best of ``--repeats`` calls, and prints one JSON line per
beta: that time, the largest in-block charge variation of the replicas'
rows beside ``partition._fill_limit`` (the variation past which a block's
row is filled in log space), and the number of (row, block) pairs that the engine sends to its
log-domain fill, counted by a spy on ``partition._block_plan`` during one
more, untimed call.  The program is imported from the PYTHONPATH, so two
checkouts are compared by running the script once with each one's src/.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from copolab import partition
from copolab.disorder import BINARY, GAUSSIAN
from copolab.estimators import _replica_prefixes, replica_log_z
from copolab.kernel import FamilyKind, SlowlyVaryingFamily, build_kernel

N, REPLICAS, H, SEED = 2000, 32, 0.1, 0
GRID = [(GAUSSIAN, beta) for beta in (1.0, 2.5, 3.0, 3.5, 4.0)] + [(BINARY, beta) for beta in (3.0, 4.0, 5.0, 6.0)]


def largest_variation(rows) -> float:
    """The largest sum |S_{i+1} - S_i| over one engine block of any row."""
    block = partition._BLOCK
    return max(
        float(np.abs(np.diff(rows[:, j0 : j0 + block], axis=1)).sum(axis=1).max())
        for j0 in range(0, rows.shape[1], block)
    )


def steep_pairs(kernel, law, beta) -> int:
    """The (row, block) pairs one ``replica_log_z`` call fills in the log domain."""
    plan, counted = partition._block_plan, []

    def spy(*args):
        mid, steep = plan(*args)
        counted.append(int(steep.sum()))
        return mid, steep

    partition._block_plan = spy
    try:
        replica_log_z(kernel, law, beta, H, N, SEED, REPLICAS)
    finally:
        partition._block_plan = plan
    return sum(counted)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    kernel = build_kernel(SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 2.0), N)
    limit = round(partition._fill_limit(kernel, N), 3)
    for law, beta in GRID:
        (rows,) = _replica_prefixes(law, beta, H, N, SEED, REPLICAS)
        steep = steep_pairs(kernel, law, beta)
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            replica_log_z(kernel, law, beta, H, N, SEED, REPLICAS)
            times.append(time.perf_counter() - start)
        print(json.dumps({
            "law": law.value, "beta": beta, "best_s": round(min(times), 6),
            "largest_block_variation": round(largest_variation(rows), 3), "fill_limit": limit,
            "steep_pairs": steep,
        }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
