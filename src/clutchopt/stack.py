"""Disk stack model: thickness matrices, rotations, and quality metrics.

A stack holds n_disks rotatable disks divided into n_segments angular
positions. Rotating disk k by shift s moves its elements s segments to the
left, indices wrapping around. Configuration quality is judged on the
per-segment sums of mean-centered element heights: their standard deviation
and their range (highest minus lowest).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError, as_float, check_integer, read_text
from .rng import stream_rng

DEFAULT_TARGET_THICKNESS = 2.0
DEFAULT_MAX_VARIATION = 0.1

ShiftVector = tuple[int, ...]


def _real_array(values, name: str, copy: bool | None = True) -> np.ndarray:
    """values as a float64 array, a copy unless copy is None and they are one already."""
    try:
        # the cast would drop a complex dtype's imaginary parts with only a warning, and would read text as numbers
        if (dtype := np.asarray(values).dtype).kind in "cSU":
            raise TypeError(f"got {dtype} values")
        return np.array(values, dtype=np.float64, copy=copy)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be an array of real numbers: {exc}") from None


def _checked(values, ndim: int, name: str) -> np.ndarray:
    """values as a read-only float64 copy with ndim non-empty axes and only finite entries."""
    arr = _real_array(values, name)
    if arr.ndim != ndim or 0 in arr.shape:
        raise InvalidInputError(f"{name} must be a non-empty {ndim}-D array")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def check_band(target_thickness, max_variation) -> tuple[float, float]:
    """The band's edges, target_thickness -/+ max_variation / 2, which must be finite.

    Both are real numbers, a bool or a str is not, finite, and max_variation >= 0.
    """
    for name, value in (("target_thickness", target_thickness), ("max_variation", max_variation)):
        if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(as_float(value)):
            raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
    if max_variation < 0:
        raise InvalidInputError(f"max_variation must be >= 0, got {max_variation!r}")
    low = target_thickness - max_variation / 2.0
    high = target_thickness + max_variation / 2.0
    if not (math.isfinite(low) and math.isfinite(high)):
        raise InvalidInputError("the thickness band must be finite")
    return low, high


@dataclass(frozen=True, eq=False)
class DiskStack:
    """Element thickness matrix (n_disks x n_segments) plus generation metadata."""

    heights: np.ndarray
    target_thickness: float = DEFAULT_TARGET_THICKNESS
    max_variation: float = DEFAULT_MAX_VARIATION
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "heights", _checked(self.heights, 2, "heights"))
        check_band(self.target_thickness, self.max_variation)
        if self.seed is not None:
            check_integer("seed", self.seed, 0)

    @property
    def n_disks(self) -> int:
        return self.heights.shape[0]

    @property
    def n_segments(self) -> int:
        return self.heights.shape[1]


@dataclass(frozen=True, eq=False)
class DeviationMatrix:
    """Mean-centered element heights; the only input any solver needs."""

    devs: np.ndarray

    def __post_init__(self) -> None:
        d = _checked(self.devs, 2, "devs")
        # subnormal heights cannot be centered finer than the smallest subnormal
        scale = max(1e-9 * float(np.abs(d).max()), np.finfo(np.float64).smallest_subnormal)
        if abs(float(d.sum())) > d.size * scale:
            raise InvalidInputError("devs must sum to zero (mean-centered heights)")
        object.__setattr__(self, "devs", d)

    @property
    def n_disks(self) -> int:
        return self.devs.shape[0]

    @property
    def n_segments(self) -> int:
        return self.devs.shape[1]


def deviations(stack: DiskStack) -> DeviationMatrix:
    """Center all heights on the global mean over every element in the stack."""
    devs = stack.heights - stack.heights.mean()
    # second centering pass removes the O(ulp * height) residual of the first
    # so the mean-zero contract holds relative to the deviation scale
    devs = devs - devs.mean()
    return DeviationMatrix(devs)


def _as_shift_vector(shifts, n_segments: int, n_disks: int | None = None) -> ShiftVector:
    """shifts as a non-empty tuple of ints in [0, n_segments), n_disks long when that is given."""
    check_integer("n_segments", n_segments)
    try:
        raw = tuple(shifts)
    except TypeError:
        raise InvalidInputError(f"shifts must be a sequence of integers, got {shifts!r}") from None
    if not raw or n_disks is not None and len(raw) != n_disks:
        raise InvalidInputError(f"expected {n_disks or 'one or more'} shifts, got {len(raw)}")
    for s in raw:
        check_integer("shift", s, 0)
        if s >= n_segments:
            raise InvalidInputError(f"shift {s} outside [0, {n_segments})")
    return tuple(int(s) for s in raw)


def rotations(rows: np.ndarray) -> np.ndarray:
    """Every rotation of every row: tensor[k, j] is row k rotated left by j.

    A read-only view, in O(n_rows * n_segments) memory, of windows sliding along each row and its head.
    """
    return sliding_window_view(np.concatenate([rows, rows[:, :-1]], axis=1), rows.shape[1], axis=1)


def rotated_sum(shifted: np.ndarray, shifts) -> np.ndarray:
    """Sum over rows k of shifted[k, shifts[k]], from a rotations() table, added in row order.

    With one row the sum is the table's own read-only view.
    """
    total = shifted[0, shifts[0]]
    for k in range(1, len(shifts)):
        total = total + shifted[k, shifts[k]]
    return total


def apply_shifts(devs: DeviationMatrix, shifts) -> np.ndarray:
    """Rotate each disk by its shift number and sum the deviations per segment, as a read-only array."""
    shifts = _as_shift_vector(shifts, devs.n_segments, devs.n_disks)
    return _checked(rotated_sum(rotations(devs.devs), shifts), 1, "profile")


def _root_mean_square(d: np.ndarray, count: int) -> float:
    """sqrt(sum(d * d) / count), with d scaled so its squares neither overflow nor underflow.

    The scale is 2**-e, e the binary exponent of max |d|. A power of two is
    exact in binary floating point, so wherever the unscaled squares stay
    normal the result is the unscaled one bit for bit.
    """
    e = math.frexp(np.abs(d).max())[1]
    scaled = np.ldexp(d, -e)
    return math.ldexp(math.sqrt(float(np.sum(scaled * scaled)) / count), e)


def stddev(profile) -> float:
    """Root mean square of the profile (its mean is zero, so no recentering)."""
    d = _checked(profile, 1, "profile")
    return _root_mean_square(d, d.shape[0])


def range_metric(profile) -> float:
    """Highest minus lowest segment deviation; always >= 0."""
    d = _checked(profile, 1, "profile")
    return float(d.max() - d.min())


def ln_norm(profile, n) -> float:
    """Standard L_n norm of the profile; n = math.inf, or an int beyond float's range, gives max absolute value."""
    d = _checked(profile, 1, "profile")
    if isinstance(n, numbers.Real) and as_float(n) == math.inf:
        return float(np.abs(d).max())
    check_integer("norm order", n)
    if n == 1:
        return float(np.abs(d).sum())
    if n == 2:
        return _root_mean_square(d, 1)
    # scaled by the largest magnitude, whose term is then exactly 1: the sum can
    # neither overflow nor underflow, and terms far below the largest may vanish
    a = np.abs(d)
    top = a.max()
    if top == 0:
        return 0.0
    with np.errstate(under="ignore"):
        return float(top * np.sum((a / top) ** n) ** (1.0 / n))


def shift_metrics(devs: DeviationMatrix, shifts) -> tuple[float, float]:
    """Convenience: (stddev, range) of the profile produced by the shifts."""
    profile = apply_shifts(devs, shifts)
    return stddev(profile), range_metric(profile)


def canonicalize_shifts(shifts, n_segments: int) -> ShiftVector:
    """Rotate all disks so the first one sits at shift 0.

    Global rotations change neither metric, so every shift vector has an
    equivalent canonical form. Solvers report the canonical form, ties broken
    lexicographically, so all of them agree on a unique reportable optimum.
    """
    out = _as_shift_vector(shifts, n_segments)
    base = out[0]
    return tuple((s - base) % n_segments for s in out)


def generate_instance(
    n_disks: int,
    n_segments: int,
    target_thickness: float = DEFAULT_TARGET_THICKNESS,
    max_variation: float = DEFAULT_MAX_VARIATION,
    seed: int | None = None,
) -> DiskStack:
    """Draw every element height i.i.d. uniform on the target thickness band.

    The band is [target - max_variation/2, target + max_variation/2]. The same
    seed reproduces the identical matrix bit for bit; heights come from the
    dedicated "instance" stream so they never overlap annealer randomness.
    """
    check_integer("n_disks", n_disks)
    check_integer("n_segments", n_segments)
    low, high = check_band(target_thickness, max_variation)
    rng = stream_rng("instance", seed)
    heights = rng.uniform(low, high, size=(n_disks, n_segments))
    return DiskStack(heights, target_thickness, max_variation, seed)


def format_instance(stack: DiskStack) -> str:
    """Serialize a stack to the line-oriented instance format.

    Line 1: "ND NS". Line 2: "A0 DELTA SEED" with "-" for a missing seed.
    Then one line of 17-significant-digit heights per disk (full round trip).
    """
    lines = [f"{stack.n_disks} {stack.n_segments}"]
    seed_txt = "-" if stack.seed is None else str(int(stack.seed))
    lines.append(f"{stack.target_thickness:.17g} {stack.max_variation:.17g} {seed_txt}")
    for row in stack.heights:
        lines.append(" ".join(f"{h:.17g}" for h in row))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> DiskStack:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise InvalidInputError("instance file needs a dimension line and a metadata line")
    try:
        n_disks, n_segments = (int(tok) for tok in lines[0].split())
    except ValueError:
        raise InvalidInputError(f"bad dimension line: {lines[0]!r}") from None
    meta = lines[1].split()
    if len(meta) != 3:
        raise InvalidInputError(f"bad metadata line: {lines[1]!r}")
    try:
        target = float(meta[0])
        variation = float(meta[1])
        seed = None if meta[2] == "-" else int(meta[2])
    except ValueError:
        raise InvalidInputError(f"bad metadata line: {lines[1]!r}") from None
    rows = lines[2:]
    if len(rows) != n_disks:
        raise InvalidInputError(f"expected {n_disks} height rows, got {len(rows)}")
    heights = []
    for k, row in enumerate(rows):
        vals = row.split()
        if len(vals) != n_segments:
            raise InvalidInputError(f"row {k} has {len(vals)} heights, expected {n_segments}")
        try:
            heights.append([float(v) for v in vals])
        except ValueError:
            raise InvalidInputError(f"row {k} holds a non-numeric height") from None
    return DiskStack(np.array(heights), target, variation, seed)


def write_instance(stack: DiskStack, path) -> None:
    Path(path).write_text(format_instance(stack))


def read_instance(path) -> DiskStack:
    return parse_instance(read_text(path))
