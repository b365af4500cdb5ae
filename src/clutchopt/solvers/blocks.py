"""Approximate solver: optimize disk subsets exactly, then rotate subsets.

The disks are split into K contiguous subsets: the first K - 1 get
floor(n_disks / K) disks and the last one the rest, K chosen as the smallest
value >= 3 keeping every subset, the last included, at 8 disks or fewer. Each
subset's internal shifts are solved exactly, the optimized subset collapses
to one rigid super-profile (its segment-wise sum), and the K super-profiles
are rotated against each other with the same exact solver. Only a fraction
of the full space is searched, so optimality is not guaranteed.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import check_integer
from ..stack import DeviationMatrix, rotated_sum, rotations
from .exact import _deadline, _range_search
from .result import SolveResult, scored

MAX_SUBSET_DISKS = 8
MIN_SUBSETS = 3


def split_disk_blocks(n_disks: int) -> list[list[int]]:
    """K contiguous blocks of disk indices, as the module docstring says; fewer than MIN_SUBSETS disks is an error."""
    check_integer("n_disks", n_disks, MIN_SUBSETS)
    k = MIN_SUBSETS
    while n_disks - (k - 1) * (n_disks // k) > MAX_SUBSET_DISKS:
        k += 1
    size = n_disks // k
    blocks = [list(range(g * size, (g + 1) * size)) for g in range(k - 1)]
    blocks.append(list(range((k - 1) * size, n_disks)))
    return blocks


def block_approximate(devs: DeviationMatrix, budget_seconds: float | None = None) -> SolveResult:
    """Block-decomposition search; only its delegated exact search, below 4 disks, proves optimality."""
    b = devs.devs
    ns = devs.n_segments
    t0 = time.perf_counter()
    deadline = _deadline(t0, budget_seconds)

    delegated = devs.n_disks < 4
    if delegated:
        shifts, leaves, optimal = _range_search(rotations(b), deadline)
    else:
        optimal = False
        leaves = 0
        blocks = split_disk_blocks(devs.n_disks)
        internal: list[tuple[int, ...]] = []
        super_rows = np.empty((len(blocks), ns))
        for g, block in enumerate(blocks):
            shifted = rotations(b[block])
            sub_shifts, sub_leaves, _ = _range_search(shifted, deadline)
            internal.append(sub_shifts)
            leaves += sub_leaves
            super_rows[g] = rotated_sum(shifted, sub_shifts)
        rot, rot_leaves, _ = _range_search(rotations(super_rows), deadline)
        leaves += rot_leaves
        # split_disk_blocks returns contiguous blocks in disk order, so each block's
        # internal shifts, moved by its rotation, follow one another disk by disk
        shifts = tuple((s + r) % ns for sub_shifts, r in zip(internal, rot) for s in sub_shifts)

    params = {"delegated": delegated, "budget_seconds": budget_seconds}
    return scored("approx", devs, shifts, t0, nodes_explored=leaves, optimal=optimal, params=params)
