"""Exact solvers: exhaustive enumeration and a screened enumeration on the range.

Both solvers exploit the global rotational symmetry and fix disk 0 at
shift 0, leaving n_segments**(n_disks-1) candidate configurations, and
walk them in the same lex order. The trailing few disks are always
evaluated as one vectorized block, so the Python-level loop stays short.

The range solver stores that block transposed, one row per segment, and
takes the prefix profiles a batch at a time. The first batch is ranged on
every segment; later batches are screened in float32 on each profile's
most extreme segments, where a leaf's maximum and minimum usually fall.
The range over a subset of segments never exceeds the full range, so a
leaf whose screened range reaches the incumbent, less a margin for the
rounding, cannot improve on it; the few survivors are finished in float64
with exhaustive_search's sums. No subtree is skipped: a node bound such as
range(p) minus the free rows' ranges rarely fires, since one row's range
alone exceeds the optimal profile range, and saved no time where it did.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from ..errors import InvalidInputError, ProblemTooLargeError
from ..stack import DeviationMatrix, rotated_sum, rotations
from .result import SolveResult, scored

DEFAULT_ENUMERATION_CAP = 10_000_000

# largest vectorized leaf block; bounds peak memory at block * n_segments floats
_TAIL_BLOCK = 4096
# leaves the range solver screens per batch of prefix profiles
_BATCH_LEAVES = 16384
# each leaf after the first batch is screened on its prefix's this many highest and as many lowest segments
_SCREEN_EXTREMES = 3
# slack of the float32 screen on values scaled into (-1, 1), 16 * 2**-24: see _screened_ranges
_SINGLE_MARGIN = 2.0**-20


def _tail_table(shifted: np.ndarray, disks) -> np.ndarray:
    """All shift combinations of the given disks, summed, in lex order."""
    ns = shifted.shape[2]
    table = np.zeros((1, ns))
    for k in disks:
        table = (table[:, None, :] + shifted[k][None, :, :]).reshape(-1, ns)
    return table


def _tail_columns(shifted: np.ndarray, disks, spare_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """_tail_table transposed to (n_segments, n_combos) from the same sums, and a spare buffer.

    Both share one allocation, the buffer a flat spare_rows * n_combos floats
    behind the table: one large block, which the allocator can map and unmap
    whole, left a lower peak RSS than a separate table and buffer.
    shifted[k] is symmetric, since segment j of row k rotated by s is row
    k's segment (j + s) % n_segments, so it serves as its own transpose.
    """
    ns = shifted.shape[2]
    n_combos = ns ** len(disks)
    store = np.empty((ns + spare_rows) * n_combos)
    columns = np.zeros((ns, 1))
    for i, k in enumerate(disks):
        out = store[: ns * n_combos].reshape(ns, -1, ns) if i == len(disks) - 1 else None
        columns = np.add(columns[:, :, None], shifted[k][:, None, :], out=out).reshape(ns, -1)
    return columns, store[ns * n_combos :]


def _tail_split(n_free: int, n_segments: int) -> int:
    m = 1
    while m < n_free and n_segments ** (m + 1) <= _TAIL_BLOCK:
        m += 1
    return m


def _prefix_batches(shifted: np.ndarray, n_pre: int, batch: int):
    """(combos, profiles) for all n_pre prefix disks, in lex order, up to batch at a time.

    The last prefix disk's shift varies within a batch, and profiles[t] is
    rotated_sum(shifted, (0, *combos[t])), bit for bit: the other disks are
    summed once per batch, and that sum plus the last disk's rotation is the
    last addition rotated_sum makes. With no prefix disks the one batch is
    row 0 alone.
    """
    if n_pre == 0:
        yield [()], shifted[0, :1]
        return
    ns = shifted.shape[2]
    last = shifted[n_pre]
    for outer in itertools.product(range(ns), repeat=n_pre - 1):
        base = rotated_sum(shifted, (0, *outer))
        for first in range(0, ns, batch):
            profiles = base + last[first : first + batch]
            yield [(*outer, s) for s in range(first, first + len(profiles))], profiles


def _fold_ranges(table, order, ranked, cols, buf):
    """Max and min, flat over (t, j), of ranked[t, p] + table[order[t, p], j] over the positions p in cols.

    The blocks go through buf, as many positions at a time as it holds.
    """
    hi = lo = None
    width = buf.size // (len(order) * table.shape[1])
    for c in range(0, len(cols), width):
        part = cols[c : c + width]
        seg = order[:, part]
        block = buf[: seg.size * table.shape[1]].reshape(*seg.shape, table.shape[1])
        np.take(table, seg, axis=0, out=block, mode="clip")  # mode="raise" copies through a temporary
        block += ranked[:, part, None]
        top = block.max(axis=1).ravel()
        bottom = block.min(axis=1).ravel()
        if hi is None:
            hi, lo = top, bottom
        else:
            np.maximum(hi, top, out=hi)
            np.minimum(lo, bottom, out=lo)
    return hi, lo


def _screened_ranges(table, scaled, profiles, picks: np.ndarray, buf: np.ndarray, best: float):
    """Full ranges of the batch's leaves that may beat best, and their flat indices.

    Leaf (t, j), at flat index t * n_combos + j, is profiles[t] plus column
    j of table; scaled = (table32, e) is table * 2**-e in float32, which puts
    every leaf value in (-1, 1). Each leaf is ranged in float32, through buf
    viewed as float32, over picks, positions in its profile's argsort, and
    kept if that lower bound on its range is below best * 2**-e +
    _SINGLE_MARGIN. float32 rounds with an error of at most 2**-25 below 1
    and 2**-24 below 2: the four inputs of a screened range cost at most
    4 * 2**-25, the two adds and the subtract 3 * 2**-24, and the threshold,
    below 2 + 2**-20, 2**-23; 7 * 2**-24 in all, which the margin of
    16 * 2**-24 covers twice over (the float64 sums are far closer still).
    So every leaf whose float64 range is below best is kept. The survivors
    are gathered by column and finished in float64; max and min are exact,
    so every range equals exhaustive_search's bit for bit.
    """
    ns, n_combos = table.shape
    table32, e = scaled
    # a stable argsort and a flat take touch less of numpy's sorting code, and so less
    # resident memory, than the default kind and np.sort
    order = np.argsort(profiles, axis=1, kind="stable")
    ranked = np.take(profiles, order + np.arange(0, profiles.size, ns)[:, None])
    ranked32 = np.ldexp(ranked, -e).astype(np.float32)
    hi, lo = _fold_ranges(table32, order, ranked32, picks, buf.view(np.float32))
    hi -= lo
    keep = np.flatnonzero(hi < np.float32(math.ldexp(best, -e) + _SINGLE_MARGIN))
    vals = np.empty(keep.size)
    width = buf.size // (2 * ns)
    for c in range(0, keep.size, width):
        row, col = np.divmod(keep[c : c + width], n_combos)
        full, rest = buf[: 2 * ns * col.size].reshape(2, ns, col.size)
        np.take(table, col, axis=1, out=full, mode="clip")
        np.take(profiles.T, row, axis=1, out=rest, mode="clip")
        full += rest
        np.subtract(full.max(axis=0), full.min(axis=0), out=vals[c : c + width])
    return vals, keep


def _single_precision(table: np.ndarray, rows: np.ndarray, store: np.ndarray):
    """table * 2**-e as float32, written into store, and e: every leaf value times 2**-e lies in (-1, 1).

    e is the binary exponent of S, the sum over rows of their largest
    absolute value, so S * 2**-e < 1; no leaf value exceeds S in magnitude.
    Scaling by a power of two is exact, and it keeps the float32 values
    clear of overflow at large magnitudes and of underflow at small ones.
    """
    e = int(np.frexp(np.abs(rows).max(axis=1).sum())[1])
    table32 = store.view(np.float32)[: table.size].reshape(table.shape)
    np.ldexp(table, -e, out=table32)
    return table32, e


def _shift_vector(combo, index: int, n_segments: int, m: int) -> tuple[int, ...]:
    """Row 0 at 0, the prefix rows at combo, the m tail rows at index's base-n_segments digits."""
    return (0, *combo, *(index // n_segments ** (m - 1 - pos) % n_segments for pos in range(m)))


def _leaves_within(devs: DeviationMatrix, cap: int | None) -> int:
    """n_segments**(n_disks-1) gauge-fixed configurations; ProblemTooLargeError past cap (None: no cap)."""
    leaves = devs.n_segments ** (devs.n_disks - 1)
    if cap is not None and leaves > cap:
        raise ProblemTooLargeError(f"{leaves} gauge-fixed configurations exceed the cap of {cap}")
    return leaves


def exhaustive_search(
    devs: DeviationMatrix,
    objective: str = "range",
    cap: int | None = DEFAULT_ENUMERATION_CAP,
) -> SolveResult:
    """Enumerate every gauge-fixed shift vector and keep the best.

    Strict improvement over a lexicographic enumeration order makes the
    returned vector the lexicographically smallest optimum, which is the
    tie-break every other solver is compared against.
    """
    if objective not in ("range", "sigma"):
        raise InvalidInputError(f"objective must be 'range' or 'sigma', got {objective!r}")
    leaves = _leaves_within(devs, cap)
    b = devs.devs
    n_disks, ns = b.shape
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
            block = rotated_sum(shifted, (0, *combo)) + table
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
    params = {"objective": objective, "cap": cap}
    return scored("exhaustive", devs, shifts, t0, nodes_explored=leaves, optimal=True, params=params)


def _deadline(t0: float, budget_seconds: float | None) -> float:
    """Wall-clock deadline t0 + budget; no budget never expires."""
    if budget_seconds is None:
        return math.inf
    budget = float(budget_seconds)
    if not budget >= 0:  # also false for NaN
        raise InvalidInputError(f"budget_seconds must be >= 0, got {budget_seconds!r}")
    return t0 + budget


def _range_search(shifted: np.ndarray, deadline: float):
    """Range-optimal enumeration in exhaustive_search's order, sums and tie-break.

    shifted is the rotations() table of the rows. The identity shifts seed
    the incumbent. The prefix profiles come in batches of about
    _BATCH_LEAVES leaves, each added to the tail table transposed to
    (n_segments, n_combos). The first batch is ranged on every segment in
    float64; with no prefix disks it is the only batch, as in every
    sub-search of block_approximate at 42 segments. Later batches go through
    _screened_ranges. The first minimum in a batch's flat (prefix, tail)
    order is its lex-first one, and only a strictly lower range replaces the
    incumbent. One allocation, made with the tail table, holds the first
    batch's blocks, then the float32 table, written for the second batch,
    and the blocks of the screen and the finish.

    Returns (shifts, leaves evaluated, completed). The search stops when the
    incumbent range is 0, which no leaf can beat, counting the leaves up to
    the prefix that reached it, as a loop over single prefixes would; or,
    incomplete, when the deadline has passed at the start of a batch.
    """
    n, ns = shifted.shape[:2]
    if n == 1:
        return (0,), 1, True
    m = _tail_split(n - 1, ns)
    n_pre, n_combos = n - 1 - m, ns**m
    batch = max(1, _BATCH_LEAVES // n_combos) if n_pre else 1
    r = min(_SCREEN_EXTREMES, ns // 2)
    picks = np.arange(-r, r) % ns  # in a profile's argsort, its r highest and r lowest segments
    # in rows of n_combos floats: at least 16 for the first batch's fold; later the float32
    # table and the float32 screen's blocks, two to a row
    copy_rows = -(-ns // 2) if n_pre else 0
    spare_rows = max(16, copy_rows + -(-batch * len(picks) // 2))
    # one buffer per search: a block this size allocated per batch would be a fresh mmap each time
    table, spare = _tail_columns(shifted, range(n - m, n), spare_rows)
    best_key = ((0,) * n_pre, 0)
    best = float(np.ptp(rotated_sum(shifted, (0, *best_key[0])) + table[:, 0]))
    leaves = 0
    completed = True
    scaled, buf = None, spare[copy_rows * n_combos :]
    for combos, profiles in _prefix_batches(shifted, n_pre, batch):
        if best == 0.0:
            break
        if time.perf_counter() > deadline:
            completed = False
            break
        if leaves == 0:  # the first batch
            order = np.broadcast_to(np.arange(ns), profiles.shape)
            hi, lo = _fold_ranges(table, order, profiles, np.arange(ns), spare)
            vals, keep = hi - lo, None
        else:
            if scaled is None:
                scaled = _single_precision(table, shifted[:, 0], spare)
            vals, keep = _screened_ranges(table, scaled, profiles, picks, buf, best)
        leaves += len(combos) * n_combos
        if vals.size == 0:
            continue
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            t, j = divmod(i if keep is None else int(keep[i]), n_combos)
            best_key = (combos[t], j)
            if best == 0.0:
                leaves -= (len(combos) - 1 - t) * n_combos
    return _shift_vector(*best_key, ns, m), leaves, completed


def branch_and_bound(
    devs: DeviationMatrix, budget_seconds: float | None = None, cap: int | None = None
) -> SolveResult:
    """Range-optimal screened enumeration; on budget expiry returns the incumbent unproven.

    cap is an enumeration cap, as in exhaustive_search: more than cap
    gauge-fixed configurations raise ProblemTooLargeError before any search,
    and None means no cap. Ties break lexicographically, as in
    exhaustive_search.
    """
    _leaves_within(devs, cap)
    t0 = time.perf_counter()
    shifts, leaves, completed = _range_search(rotations(devs.devs), _deadline(t0, budget_seconds))
    params = {"budget_seconds": budget_seconds}
    return scored("exact", devs, shifts, t0, nodes_explored=leaves, optimal=completed, params=params)
