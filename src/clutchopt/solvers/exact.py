"""Exact solvers: exhaustive enumeration and a screened enumeration on the range.

Both solvers exploit the global rotational symmetry and fix disk 0 at
shift 0, leaving n_segments**(n_disks-1) candidate configurations, and
walk them in the same lex order. Each keeps its best leaf as its index in
that order, whose n_disks - 1 base-n_segments digits are the shifts of
disks 1 on. The trailing few disks are always evaluated as one vectorized
block, so the Python-level loop stays short. One function builds that
block, one row per segment; exhaustive_search ranges a transposed copy.

The range solver adds each prefix profile to the block's columns. It
seeds the incumbent by ranging the lex-first prefix in float64, then
screens the prefix profiles a batch at a time in float32 on each profile's
most extreme segments, where a leaf's maximum and minimum usually fall.
The range over a subset of segments never exceeds the full range, so a
leaf whose screened range reaches the incumbent, less a margin for the
rounding, cannot improve on it; the few survivors are finished in float64
with exhaustive_search's sums. No subtree is skipped: a node bound such as
range(p) minus the free rows' ranges rarely fires, since one row's range
alone exceeds the optimal profile range, and saved no time where it did.
A walk of at least twice _PART_LEAVES leaves is cut into contiguous parts
walked side by side by forked processes, one per usable CPU, and merged
into the answer and leaf count one process would return.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import closing

import numpy as np

from ..errors import InvalidInputError, ProblemTooLargeError, check_integer
from ..stack import DeviationMatrix, rotated_sum, rotations
from .parallel import fork_map, usable_cpus
from .result import SolveResult, scored

DEFAULT_ENUMERATION_CAP = 10_000_000

# largest vectorized leaf block; bounds peak memory at block * n_segments floats
_TAIL_BLOCK = 4096
# leaves the range solver screens per batch of prefix profiles
_BATCH_LEAVES = 16384
# fewest leaves a part of a split search walks: at 5x42 about 10 ms of screening on a 2-core Xeon,
# against the 1.1-1.8 ms a fork of a process holding numpy takes there
_PART_LEAVES = 1 << 20
# each leaf of a batch is screened on its prefix's this many highest and as many lowest segments
_SCREEN_EXTREMES = 3
# slack of the float32 screen on values scaled into (-1, 1), 16 * 2**-24: see _screened_ranges
_SINGLE_MARGIN = 2.0**-20


def _tail_columns(shifted: np.ndarray, disks) -> np.ndarray:
    """All shift combinations of the given disks, summed, one column each in lex order.

    The table is (n_segments, n_combos) float64, its sums added in disk order.
    shifted[k] is symmetric, since segment j of row k rotated by s is row
    k's segment (j + s) % n_segments, so it serves as its own transpose.
    """
    ns = shifted.shape[2]
    columns = np.zeros((ns, 1))
    for k in disks:
        columns = (columns[:, :, None] + shifted[k][:, None, :]).reshape(ns, -1)
    return columns


def _tail_split(n_free: int, n_segments: int) -> int:
    m = 1
    while m < n_free and n_segments ** (m + 1) <= _TAIL_BLOCK:
        m += 1
    return m


def _prefix_batches(shifted: np.ndarray, n_pre: int, batch: int, start: int, stop: int):
    """(first_leaf, profiles) for batches start to stop - 1 of the n_pre >= 1 prefix disks' shifts, in lex order.

    A batch holds up to batch shifts of the last prefix disk, from first on,
    with the others at outer, so there are ceil(n_segments / batch) batches
    per shift of the others. Row t of profiles is rotated_sum(shifted,
    (0, *outer, first + t)), bit for bit: the other disks are summed once
    for each of their shift combinations, and that sum plus the last disk's
    rotation is the last addition rotated_sum makes. first_leaf is the lex
    index of the batch's first leaf, (0, *outer, first, 0, ..., 0), so leaf
    (t, j) of the batch, tail column j of prefix row t, is first_leaf +
    t * n_combos + j.
    """
    n, ns = shifted.shape[:2]
    n_combos = ns ** (n - 1 - n_pre)
    last = shifted[n_pre]
    firsts = range(0, ns, batch)
    for index in range(start, stop):
        outer_index, f = divmod(index, len(firsts))
        if index == start or f == 0:
            base = rotated_sum(shifted, (0, *_digits(outer_index, ns, n_pre - 1)))
        yield (outer_index * ns + firsts[f]) * n_combos, base + last[firsts[f] : firsts[f] + batch]


def _screened_ranges(table, scaled, profiles, picks: np.ndarray, best: float):
    """The batch's lowest full range below best and its first flat index; (inf, 0) if none is.

    Leaf (t, j), at flat index t * n_combos + j, is profiles[t] plus column
    j of table; scaled = (table32, e) is table * 2**-e in float32, which puts
    every leaf value in (-1, 1). The whole batch is screened as one float32
    block: the rows of table32 at picks, positions in each profile's
    argsort, plus the profile's values there, ranged with one max and one
    min over those segments. A leaf is kept if that lower bound on its range
    is below best * 2**-e + _SINGLE_MARGIN. float32 rounds with an error of
    at most 2**-25 below 1 and 2**-24 below 2: the four inputs of a screened
    range cost at most 4 * 2**-25, the two adds and the subtract 3 * 2**-24,
    and the threshold, below 2 + 2**-20, 2**-23; 7 * 2**-24 in all, which
    the margin of 16 * 2**-24 covers twice over (the float64 sums are far
    closer still). So every leaf whose float64 range is below best is kept.
    The survivors are gathered by column and finished in float64, a chunk
    of about _BATCH_LEAVES values at a time; max and min are exact, so every
    range equals exhaustive_search's bit for bit.
    """
    ns, n_combos = table.shape
    table32, e = scaled
    seg = np.argsort(profiles, axis=1)[:, picks]
    block = table32[seg]
    block += np.ldexp(np.take_along_axis(profiles, seg, axis=1), -e).astype(np.float32)[:, :, None]
    hi = block.max(axis=1).ravel()
    hi -= block.min(axis=1).ravel()
    del block  # free before the finish allocates its chunks, which then reuse its memory
    keep = np.flatnonzero(hi < np.float32(math.ldexp(best, -e) + _SINGLE_MARGIN))
    if keep.size == 0:
        return math.inf, 0
    vals = np.empty(keep.size)
    width = max(1, _BATCH_LEAVES // ns)
    for c in range(0, keep.size, width):
        row, col = np.divmod(keep[c : c + width], n_combos)
        full = table[:, col] + profiles.T[:, row]
        np.subtract(full.max(axis=0), full.min(axis=0), out=vals[c : c + width])
    i = int(np.argmin(vals))
    return float(vals[i]), int(keep[i])


def _single_precision(table: np.ndarray, rows: np.ndarray):
    """table * 2**-e as a new float32 array, and e: every leaf value times 2**-e lies in (-1, 1).

    e is the binary exponent of S, the sum over rows of their largest
    absolute value, so S * 2**-e < 1; no leaf value exceeds S in magnitude.
    Scaling by a power of two is exact, and it keeps the float32 values
    clear of overflow at large magnitudes and of underflow at small ones.
    """
    e = int(np.frexp(np.abs(rows).max(axis=1).sum())[1])
    table32 = np.empty(table.shape, dtype=np.float32)
    np.ldexp(table, -e, out=table32)
    return table32, e


def _digits(index: int, base: int, count: int) -> tuple[int, ...]:
    """index's count lowest base-base digits, most significant first."""
    return tuple(index // base ** (count - 1 - pos) % base for pos in range(count))


def _leaves_within(devs: DeviationMatrix, cap: int | None) -> int:
    """n_segments**(n_disks-1) gauge-fixed configurations; ProblemTooLargeError past cap (None: no cap)."""
    leaves = devs.n_segments ** (devs.n_disks - 1)
    if cap is not None:
        check_integer("cap", cap)
        if leaves > cap:
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
    if n_disks == 1:
        shifts: tuple[int, ...] = (0,)
    else:
        shifted = rotations(b)
        m = _tail_split(n_disks - 1, ns)
        table = np.ascontiguousarray(_tail_columns(shifted, range(n_disks - m, n_disks)).T)
        best_val, best_leaf = np.inf, 0
        for c, combo in enumerate(itertools.product(range(ns), repeat=n_disks - 1 - m)):
            block = rotated_sum(shifted, (0, *combo)) + table
            if objective == "range":
                vals = block.max(axis=1)
                vals -= block.min(axis=1)
            else:
                vals = np.einsum("bi,bi->b", block, block)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val = float(vals[i])
                best_leaf = c * ns**m + i
        shifts = (0, *_digits(best_leaf, ns, n_disks - 1))
    params = {"objective": objective, "cap": cap}
    return scored("exhaustive", devs, shifts, t0, nodes_explored=leaves, optimal=True, params=params)


def _deadline(t0: float, budget_seconds: float | None) -> float:
    """Wall-clock deadline t0 + budget; no budget never expires."""
    try:
        budget = math.inf if budget_seconds is None else float(budget_seconds)
    except (TypeError, ValueError):
        budget = math.nan
    if not budget >= 0:  # also false for NaN
        raise InvalidInputError(f"budget must be >= 0 seconds, got {budget_seconds!r}")
    return t0 + budget


def _range_search(shifted: np.ndarray, deadline: float):
    """Range-optimal enumeration in exhaustive_search's order, sums and tie-break.

    shifted is the rotations() table of the rows. The leaves of the lex-first
    prefix are ranged in float64, as exhaustive_search's one addition to the
    tail table, and their first minimum seeds the incumbent: with no prefix
    disks, the whole search, as in every sub-search of block_approximate at
    7x42. Otherwise the batches of about _BATCH_LEAVES leaves, the
    first covering that prefix again, are cut into contiguous parts in lex
    order, one per usable CPU but none under _PART_LEAVES leaves. Each part
    starts from the seed incumbent and puts its batches through
    _screened_ranges: the first minimum in a batch's flat (prefix, tail)
    order is its lex-first one, and only a strictly lower range replaces the
    incumbent, kept as one leaf index and decoded into shifts at the end.
    fork_map walks the first part here and the others in forked children.
    A search holds the float64 tail table and its float32 copy; each batch
    allocates its profiles, its float32 screen block and the float64 chunks
    that finish its survivors.

    Returns (shifts, leaves evaluated, completed), each leaf counted once.
    The identity range 0, or a deadline passed before any ranging, returns
    the identity with 0 leaves. A part stops when its incumbent range is 0,
    counting the leaves up to the prefix that reached it; or, incomplete,
    when the deadline has passed at the start of a batch. The parts merge
    as one loop over them in order would: the lowest range wins and the
    earliest part wins ties, and the leaves and completion of the parts are
    summed up to the first part that reached range 0.
    """
    n, ns = shifted.shape[:2]
    if n == 1:
        return (0,), 1, True
    m = _tail_split(n - 1, ns)
    n_pre, n_combos = n - 1 - m, ns**m
    batch = max(1, _BATCH_LEAVES // n_combos)
    r = min(_SCREEN_EXTREMES, ns // 2)
    picks = np.arange(-r, r) % ns  # in a profile's argsort, its r highest and r lowest segments
    table = _tail_columns(shifted, range(n - m, n))
    first = rotated_sum(shifted, (0,) * (n_pre + 1))
    zero = float(np.ptp(first + table[:, 0])) == 0.0
    if zero or time.perf_counter() > deadline:  # the identity, proven optimal if its range is 0
        return (0,) * n, 0, zero
    vals = np.ptp(table + first[:, None], axis=0)
    seed_leaf = int(np.argmin(vals))
    seed = float(vals[seed_leaf])
    if n_pre == 0 or seed == 0.0:
        return (0, *_digits(seed_leaf, ns, n - 1)), n_combos, True
    scaled = _single_precision(table, shifted[:, 0])

    def walk(part):
        best, best_leaf, leaves = seed, seed_leaf, 0
        for first_leaf, profiles in _prefix_batches(shifted, n_pre, batch, *part):
            if time.perf_counter() > deadline:
                return best, best_leaf, leaves, False
            val, i = _screened_ranges(table, scaled, profiles, picks, best)
            leaves += len(profiles) * n_combos
            if val < best:
                best, best_leaf = val, first_leaf + i
                if best == 0.0:
                    return best, best_leaf, leaves - (len(profiles) - 1 - i // n_combos) * n_combos, True
        return best, best_leaf, leaves, True

    n_batches = ns ** (n_pre - 1) * -(-ns // batch)
    n_parts = max(1, min(usable_cpus(), ns ** (n - 1) // _PART_LEAVES))
    bounds = [n_batches * p // n_parts for p in range(n_parts + 1)]
    best, best_leaf, leaves, completed = seed, seed_leaf, 0, True
    with closing(fork_map(walk, list(zip(bounds, bounds[1:])))) as parts:
        for part_best, part_leaf, part_leaves, part_completed in parts:
            if part_best < best:
                best, best_leaf = part_best, part_leaf
            leaves += part_leaves
            completed &= part_completed
            if part_best == 0.0:  # one loop would stop here: the later parts are ended unread
                break
    # the lex-first prefix is counted with the first batch, which ranges it again; before that batch, alone
    return (0, *_digits(best_leaf, ns, n - 1)), max(leaves, n_combos), completed


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
