"""Exact solvers: exhaustive enumeration and branch-and-bound on the range.

Both solvers exploit the global rotational symmetry and fix one disk at
shift 0, leaving n_segments**(n_disks-1) candidate configurations. The
trailing few disks of the search order are always evaluated as one
vectorized block, so the Python-level tree stays shallow.

Branch and bound stores that block transposed, one row per segment, so
its range reductions run over contiguous rows. It screens each block on
its first few segments: the range over a subset of segments never exceeds
the full range, so a leaf whose head range already reaches the incumbent
cannot improve on it. Only the survivors are finished on the remaining
segments, or the whole block densely when too many survive to gather.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from ..errors import InvalidInputError, ProblemTooLargeError
from ..stack import DeviationMatrix, apply_shifts, canonicalize_shifts, range_metric, rotations, stddev
from .result import SolveResult

DEFAULT_ENUMERATION_CAP = 10_000_000

# largest vectorized leaf block; bounds peak memory at block * n_segments floats
_TAIL_BLOCK = 4096
# segments branch and bound screens every leaf block on before finishing it
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


def _tail_digits(index: int, n_segments: int, m: int) -> list[int]:
    digits = []
    for pos in range(m):
        digits.append((index // n_segments ** (m - 1 - pos)) % n_segments)
    return digits


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
        free = list(range(1, n_disks))
        m = _tail_split(len(free), ns)
        prefix, tail = free[: len(free) - m], free[len(free) - m :]
        table = _tail_table(shifted, tail)
        best_val = np.inf
        for combo in itertools.product(range(ns), repeat=len(prefix)):
            profile = b[0]
            for k, s in zip(prefix, combo):
                profile = profile + shifted[k, s]
            block = profile + table
            if objective == "range":
                vals = block.max(axis=1)
                vals -= block.min(axis=1)
            else:
                vals = np.einsum("bi,bi->b", block, block)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_key = (combo, i)
        combo, i = best_key
        out = [0] * n_disks
        for k, s in zip(prefix, combo):
            out[k] = s
        for k, digit in zip(tail, _tail_digits(i, ns, m)):
            out[k] = digit
        shifts = tuple(out)
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


class _BudgetExpired(Exception):
    pass


def _bnb_core(rows: np.ndarray, deadline: float | None):
    """Branch-and-bound on the range metric over raw deviation rows.

    Branches on disks in descending row-range order with the widest disk
    frozen at shift 0; children are explored in ascending lower bound. At a
    node with partial profile p the bound is max(0, range(p) - sum of the
    free rows' ranges), admissible because range(p + q) >= range(p) -
    range(q) and circular shifts preserve a row's range. The identity shift
    vector seeds the incumbent so pruning is active from the first node.

    Leaf blocks use the tail table transposed to (n_segments, n_combos).
    Each leaf is first ranged over the first _HEAD_COLUMNS segments; that
    partial range is a lower bound on its full range, so only leaves with
    a partial range below the incumbent are finished on the other
    segments. If more than a quarter survive, the rest of the block is
    finished densely instead of gathered. Max and min are exact, so every
    leaf value, tie-break and incumbent matches a dense evaluation bit for
    bit; leaves counts every leaf of every block reached.

    Returns (shifts, range value, leaves evaluated, completed flag); shifts
    are indexed by original row order. When the deadline expires the current
    incumbent is returned with completed False.
    """
    n, ns = rows.shape
    identity_value = float(np.ptp(rows.sum(axis=0)))
    best = {"value": identity_value, "shifts": (0,) * n}
    if n == 1:
        return best["shifts"], best["value"], 1, True

    row_ranges = np.ptp(rows, axis=1)
    order = np.argsort(-row_ranges, kind="stable")
    shifted = rotations(rows)
    frozen = int(order[0])
    free = [int(k) for k in order[1:]]
    m = _tail_split(len(free), ns)
    middle, tail = free[: len(free) - m], free[len(free) - m :]
    table = np.ascontiguousarray(_tail_table(shifted, tail).T)
    head, n_combos = min(_HEAD_COLUMNS, ns), table.shape[1]
    tail_range_sum = float(row_ranges[tail].sum())
    # rem[d] = sum of ranges of rows still free once d middle disks are fixed
    rem = np.empty(len(middle) + 1)
    rem[-1] = tail_range_sum
    for d in range(len(middle) - 1, -1, -1):
        rem[d] = rem[d + 1] + row_ranges[middle[d]]

    assign: dict[int, int] = {frozen: 0}
    leaves = 0

    def eval_tail(profile: np.ndarray) -> None:
        nonlocal leaves
        leaves += n_combos
        block = profile[:head, None] + table[:head]
        hi = block.max(axis=0)
        lo = block.min(axis=0)
        del block  # freed before a dense finish allocates the rest of the block
        keep = np.flatnonzero(hi - lo < best["value"])
        if keep.size == 0:
            return
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
        if vals[i] < best["value"]:
            best["value"] = float(vals[i])
            if keep is not None:
                i = int(keep[i])
            out = [0] * n
            for k, s in assign.items():
                out[k] = s
            for k, digit in zip(tail, _tail_digits(i, ns, m)):
                out[k] = digit
            best["shifts"] = tuple(out)

    def visit(depth: int, profile: np.ndarray) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise _BudgetExpired
        if depth == len(middle):
            bound = max(0.0, float(profile.max() - profile.min()) - tail_range_sum)
            if bound < best["value"]:
                eval_tail(profile)
            return
        k = middle[depth]
        children = profile + shifted[k]
        spans = children.max(axis=1)
        spans -= children.min(axis=1)
        bounds = np.maximum(0.0, spans - rem[depth + 1])
        for j in np.argsort(bounds, kind="stable"):
            if bounds[j] >= best["value"]:
                break
            assign[k] = int(j)
            visit(depth + 1, children[j])
        assign.pop(k, None)

    completed = True
    root = rows[frozen]
    if max(0.0, float(np.ptp(root)) - float(rem[0])) < best["value"]:
        try:
            visit(0, root)
        except _BudgetExpired:
            completed = False
    return best["shifts"], best["value"], leaves, completed


def branch_and_bound(devs: DeviationMatrix, budget_seconds: float | None = None) -> SolveResult:
    """Range-optimal solver; on budget expiry returns the incumbent unproven."""
    t0 = time.perf_counter()
    deadline = None if budget_seconds is None else t0 + float(budget_seconds)
    shifts, _, leaves, completed = _bnb_core(devs.devs, deadline)
    wall = time.perf_counter() - t0
    canon = canonicalize_shifts(shifts, devs.n_segments)
    profile = apply_shifts(devs, canon)
    return SolveResult(
        solver_id="exact",
        shifts=canon,
        sigma=stddev(profile),
        range=range_metric(profile),
        wall_time=wall,
        nodes_explored=leaves,
        optimal=completed,
        params={"budget_seconds": budget_seconds},
    )
