"""Approximate solver: optimize disk subsets exactly, then rotate subsets.

The disks are split into K contiguous subsets, K chosen as the smallest
value >= 3 keeping floor(n_disks / K) at 8 disks or fewer; the first K - 1
subsets get floor(n_disks / K) disks and the last one the remainder. Each
subset's internal shifts are solved exactly, the optimized subset collapses
to one rigid super-profile (its segment-wise sum), and the K super-profiles
are rotated against each other with the same exact solver. Only a fraction
of the full space is searched, so optimality is not guaranteed.
"""

from __future__ import annotations

import time

import numpy as np

from ..stack import DeviationMatrix, rotated_sum, rotations
from .exact import _deadline, _range_search
from .result import SolveResult, scored

MAX_SUBSET_DISKS = 8
MIN_SUBSETS = 3


def split_disk_blocks(n_disks: int) -> list[list[int]]:
    k = MIN_SUBSETS
    while n_disks // k > MAX_SUBSET_DISKS:
        k += 1
    size = n_disks // k
    blocks = [list(range(g * size, (g + 1) * size)) for g in range(k - 1)]
    blocks.append(list(range((k - 1) * size, n_disks)))
    return blocks


def block_approximate(devs: DeviationMatrix, budget_seconds: float | None = None) -> SolveResult:
    """Block-decomposition search; delegates to the exact solver below 4 disks."""
    b = devs.devs
    ns = devs.n_segments
    t0 = time.perf_counter()
    deadline = _deadline(t0, budget_seconds)

    if devs.n_disks < 4:
        shifts, leaves, completed = _range_search(rotations(b), deadline)
        delegated = True
    else:
        delegated = False
        completed = True
        leaves = 0
        blocks = split_disk_blocks(devs.n_disks)
        internal: list[tuple[int, ...]] = []
        super_rows = np.empty((len(blocks), ns))
        for g, block in enumerate(blocks):
            shifted = rotations(b[block])
            sub_shifts, sub_leaves, sub_done = _range_search(shifted, deadline)
            internal.append(sub_shifts)
            leaves += sub_leaves
            completed = completed and sub_done
            super_rows[g] = rotated_sum(shifted, sub_shifts)
        rot, rot_leaves, rot_done = _range_search(rotations(super_rows), deadline)
        leaves += rot_leaves
        completed = completed and rot_done
        out = [0] * devs.n_disks
        for g, block in enumerate(blocks):
            for k, s in zip(block, internal[g]):
                out[k] = (s + rot[g]) % ns
        shifts = tuple(out)

    params = {"delegated": delegated, "budget_seconds": budget_seconds}
    return scored(
        "approx", devs, shifts, t0, nodes_explored=leaves, optimal=delegated and completed, params=params
    )
