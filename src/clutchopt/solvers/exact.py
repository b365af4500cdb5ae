"""Exact solvers: exhaustive enumeration and a screened enumeration on the range.

Both solvers exploit the global rotational symmetry and fix disk 0 at
shift 0, leaving n_segments**(n_disks-1) candidate configurations, and
walk them in the same lex order. The trailing few disks are always
evaluated as one vectorized block, so the Python-level loop stays short.

The range solver stores that block transposed, one row per segment, and
screens it on its first few segments: the range over a subset of segments
never exceeds the full range, so a leaf whose head range already reaches
the incumbent cannot improve on it. No subtree is skipped: a node bound
such as range(p) minus the free rows' ranges rarely fires, since one row's
range alone exceeds the optimal profile range, and saved no time where it did.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from ..errors import InvalidInputError, ProblemTooLargeError
from ..stack import DeviationMatrix, apply_shifts, range_metric, rotations, stddev
from .result import SolveResult

DEFAULT_ENUMERATION_CAP = 10_000_000

# largest vectorized leaf block; bounds peak memory at block * n_segments floats
_TAIL_BLOCK = 4096
# segments the range solver screens every leaf block on before finishing it
_HEAD_COLUMNS = 16


def _tail_table(shifted: np.ndarray, disks) -> np.ndarray:
    """All shift combinations of the given disks, summed, in lex order."""
    ns = shifted.shape[2]
    table = np.zeros((1, ns))
    for k in disks:
        table = (table[:, None, :] + shifted[k][None, :, :]).reshape(-1, ns)
    return table


def _tail_split(n_free: int, n_segments: int) -> int:
    m = 1
    while m < n_free and n_segments ** (m + 1) <= _TAIL_BLOCK:
        m += 1
    return m


def _prefix_profile(rows: np.ndarray, shifted: np.ndarray, combo) -> np.ndarray:
    """Row 0 plus rows 1, 2, ... rotated by combo, summed in row order."""
    profile = rows[0]
    for k, s in enumerate(combo, start=1):
        profile = profile + shifted[k, s]
    return profile


def _shift_vector(combo, index: int, n_segments: int, m: int) -> tuple[int, ...]:
    """Row 0 at 0, the prefix rows at combo, the m tail rows at index's base-n_segments digits."""
    return (0, *combo, *(index // n_segments ** (m - 1 - pos) % n_segments for pos in range(m)))


def exhaustive_search(
    devs: DeviationMatrix,
    objective: str = "range",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> SolveResult:
    """Enumerate every gauge-fixed shift vector and keep the best.

    Strict improvement over a lexicographic enumeration order makes the
    returned vector the lexicographically smallest optimum, which is the
    tie-break every other solver is compared against.
    """
    if objective not in ("range", "sigma"):
        raise InvalidInputError(f"objective must be 'range' or 'sigma', got {objective!r}")
    b = devs.devs
    n_disks, ns = b.shape
    leaves = ns ** (n_disks - 1)
    if leaves > cap:
        raise ProblemTooLargeError(
            f"{leaves} gauge-fixed configurations exceed the cap of {cap}"
        )
    t0 = time.perf_counter()
    best_key = None
    if n_disks == 1:
        shifts: tuple[int, ...] = (0,)
    else:
        shifted = rotations(b)
        m = _tail_split(n_disks - 1, ns)
        table = _tail_table(shifted, range(n_disks - m, n_disks))
        best_val = np.inf
        for combo in itertools.product(range(ns), repeat=n_disks - 1 - m):
            block = _prefix_profile(b, shifted, combo) + table
            if objective == "range":
                vals = block.max(axis=1)
                vals -= block.min(axis=1)
            else:
                vals = np.einsum("bi,bi->b", block, block)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_key = (combo, i)
        shifts = _shift_vector(*best_key, ns, m)
    wall = time.perf_counter() - t0
    profile = apply_shifts(devs, shifts)
    return SolveResult(
        solver_id="exhaustive",
        shifts=shifts,
        sigma=stddev(profile),
        range=range_metric(profile),
        wall_time=wall,
        nodes_explored=leaves,
        optimal=True,
        params={"objective": objective, "cap": cap},
    )


def _deadline(t0: float, budget_seconds: float | None) -> float:
    """Wall-clock deadline t0 + budget; no budget never expires."""
    if budget_seconds is None:
        return math.inf
    budget = float(budget_seconds)
    if not budget >= 0:  # also false for NaN
        raise InvalidInputError(f"budget_seconds must be >= 0, got {budget_seconds!r}")
    return t0 + budget


def _range_search(rows: np.ndarray, deadline: float):
    """Range-optimal enumeration in exhaustive_search's order, sums and tie-break.

    The identity shifts seed the incumbent. Each leaf block, the tail table
    transposed to (n_segments, n_combos), is first ranged over its first
    _HEAD_COLUMNS segments, a lower bound on each leaf's full range. Leaves
    below the incumbent are finished on the other segments, gathered if at
    most a quarter survive and densely otherwise; max and min are exact, so
    every value matches the dense one bit for bit.

    Returns (shifts, leaves evaluated, completed). The search stops when the
    incumbent range is 0, which no leaf can beat, or, incomplete, when the
    deadline has passed at the start of a block.
    """
    n, ns = rows.shape
    if n == 1:
        return (0,), 1, True
    shifted = rotations(rows)
    m = _tail_split(n - 1, ns)
    table = np.ascontiguousarray(_tail_table(shifted, range(n - m, n)).T)
    head, n_combos = min(_HEAD_COLUMNS, ns), table.shape[1]
    best_key = ((0,) * (n - 1 - m), 0)
    best = float(np.ptp(_prefix_profile(rows, shifted, best_key[0]) + table[:, 0]))
    leaves = 0
    completed = True
    for combo in itertools.product(range(ns), repeat=n - 1 - m):
        if best == 0.0:
            break
        if time.perf_counter() > deadline:
            completed = False
            break
        profile = _prefix_profile(rows, shifted, combo)
        leaves += n_combos
        block = profile[:head, None] + table[:head]
        hi = block.max(axis=0)
        lo = block.min(axis=0)
        del block  # freed before a dense finish allocates the rest of the block
        keep = np.flatnonzero(hi - lo < best)
        if keep.size == 0:
            continue
        if 4 * keep.size <= n_combos:
            hi, lo, rest = hi[keep], lo[keep], table[head:, keep]
        else:
            keep, rest = None, table[head:]
        if head < ns:
            rest = profile[head:, None] + rest
            np.maximum(hi, rest.max(axis=0), out=hi)
            np.minimum(lo, rest.min(axis=0), out=lo)
        vals = hi - lo
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_key = (combo, i if keep is None else int(keep[i]))
    return _shift_vector(*best_key, ns, m), leaves, completed


def branch_and_bound(devs: DeviationMatrix, budget_seconds: float | None = None) -> SolveResult:
    """Range-optimal solver; on budget expiry returns the incumbent unproven.

    Ties break lexicographically, as in exhaustive_search.
    """
    t0 = time.perf_counter()
    shifts, leaves, completed = _range_search(devs.devs, _deadline(t0, budget_seconds))
    wall = time.perf_counter() - t0
    profile = apply_shifts(devs, shifts)
    return SolveResult(
        solver_id="exact",
        shifts=shifts,
        sigma=stddev(profile),
        range=range_metric(profile),
        wall_time=wall,
        nodes_explored=leaves,
        optimal=completed,
        params={"budget_seconds": budget_seconds},
    )
