"""Binary quadratic model of the stacking problem.

Shift numbers are one-hot encoded: each movable disk contributes n_segments
binary variables, exactly one of which may be set. Squaring the L2-norm of
the segment profile expands into linear and pairwise coefficients over those
variables, and every one-hot constraint enters as a quadratic penalty of
strength rho, so each violated constraint costs at least rho. With gauge
fixing, disk 0 is frozen at shift 0; its deviations fold into the offset and
the linear terms, dropping n_segments variables.

Energies are directly comparable to the squared L2-norm of the profile:
constant terms accumulate in an explicit offset instead of being dropped,
and a feasible assignment's energy equals that norm with zero penalty.
"""

from __future__ import annotations

import io
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, as_float, check_integer, read_text
from .stack import DeviationMatrix, ShiftVector, _as_shift_vector, _real_array, rotations

# cross-disk couplings smaller than this fraction of the largest coefficient
# are dropped; lossy only below numerical noise
PRUNE_RELATIVE = 1e-12


def _same_disk(n_vars: int, n_segments: int) -> np.ndarray:
    """mask[u, v] is True when variables u and v encode shifts of one disk."""
    disk = np.arange(n_vars) // n_segments
    return disk[:, None] == disk[None, :]


class _PairView(Mapping):
    """Read-only {(i, j): coefficient} view of a coupling matrix, i < j.

    The keys, in row-major order as the export writes them, are the nonzero
    pairs plus every within-disk pair, which the one-hot penalty keeps.
    """

    def __init__(self, coupling: np.ndarray, n_segments: int) -> None:
        self._coupling = coupling
        self._keys = np.triu((coupling != 0) | _same_disk(len(coupling), n_segments), 1)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self._keys)

    def __getitem__(self, key) -> float:
        i, j = key
        if not (0 <= i < len(self._keys) and 0 <= j < len(self._keys) and self._keys[i, j]):
            raise KeyError(key)
        return float(self._coupling[i, j])

    def __iter__(self):
        return zip(*(index.tolist() for index in self.pairs()))

    def __len__(self) -> int:
        return int(self._keys.sum())


def _as_flag(name: str, value) -> bool:
    """value as a bool; only a Python or numpy bool is one."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidInputError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _layout(gauge_fixed: bool, n_disks: int, n_segments: int) -> tuple[tuple[int, int], ...]:
    return tuple((k, j) for k in range(int(gauge_fixed), n_disks) for j in range(n_segments))


@dataclass(frozen=True, eq=False)
class QuboModel:
    """Quadratic model stored as one dense symmetric coupling matrix.

    Variable v encodes (disk k, shift j) with v = (k - k0) * n_segments + j,
    where k0 is 1 for gauge-fixed models and 0 otherwise, so n_vars and
    var_map follow from gauge_fixed, n_disks and n_segments.

    The constructor takes the n_vars linear coefficients and the strictly
    upper-triangular coefficients as an n_vars x n_vars array ``upper``.
    They are stored once, as the read-only float64 ``linear`` and symmetric
    matrix ``coupling`` with a zero diagonal; ``quadratic`` is a read-only
    {(i, j): coeff} view of ``coupling``. ``offset`` and ``rho`` are read
    with float() and stored as Python floats.
    """

    offset: float
    linear: np.ndarray
    upper: InitVar[np.ndarray]
    rho: float
    gauge_fixed: bool
    n_disks: int
    n_segments: int
    coupling: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, upper) -> None:
        object.__setattr__(self, "gauge_fixed", _as_flag("gauge_fixed", self.gauge_fixed))
        check_integer("n_disks", self.n_disks)
        check_integer("n_segments", self.n_segments)
        n = self.n_vars
        lin = _real_array(self.linear, "linear")
        upper = _real_array(upper, "upper", copy=None)
        if not (lin.shape == (n,) and upper.shape == (n, n)):
            raise InvalidInputError(f"linear and upper do not fit {self.n_disks} disks x {self.n_segments} segments")
        if np.tril(upper).any():
            raise InvalidInputError("upper must be strictly upper-triangular")
        coupling = upper + upper.T
        try:
            offset, rho = as_float(self.offset), as_float(self.rho)
        except (TypeError, ValueError):
            raise InvalidInputError(f"offset and rho must be numbers, got {self.offset!r} and {self.rho!r}") from None
        if not (rho >= 0 and all(np.isfinite(a).all() for a in (offset, rho, lin, coupling))):
            raise InvalidInputError("rho must be >= 0 and every number finite")
        lin.setflags(write=False)
        coupling.setflags(write=False)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "coupling", coupling)

    @property
    def n_vars(self) -> int:
        return (self.n_disks - int(self.gauge_fixed)) * self.n_segments

    @property
    def var_map(self) -> tuple[tuple[int, int], ...]:
        return _layout(self.gauge_fixed, self.n_disks, self.n_segments)

    @cached_property
    def quadratic(self) -> _PairView:
        return _PairView(self.coupling, self.n_segments)

    def encode(self, shifts) -> np.ndarray:
        shifts = _as_shift_vector(shifts, self.n_segments, self.n_disks)
        return encode_shifts(shifts, self.n_segments, self.gauge_fixed)


@dataclass(frozen=True)
class InfeasibleSample:
    """Decode outcome for an assignment that violates one-hot constraints.

    violations lists (disk index, number of set bits) for each bad disk.
    """

    violations: tuple[tuple[int, int], ...]


def check_penalty(rho) -> float:
    """rho as a float, which float() must read as finite and > 0."""
    try:
        if 0 < (value := as_float(rho)) < np.inf:  # false for NaN
            return value
    except (TypeError, ValueError):
        pass
    raise InvalidInputError(f"rho must be finite and > 0, got {rho!r}")


def build_qubo(devs: DeviationMatrix, rho: float, gauge_fixed: bool = True) -> QuboModel:
    """Expand the squared profile norm plus one-hot penalties into coefficients.

    The linear vector already contains the x^2 -> x collapse and the -rho
    penalty part; each within-disk variable pair carries +2*rho on top of its
    objective cross term; symmetric cross terms are folded once into the
    upper triangle.
    """
    rho = check_penalty(rho)
    b = devs.devs
    n_disks, n_seg = b.shape
    k0 = 1 if gauge_fixed else 0
    n_movable = n_disks - k0
    n_vars = n_movable * n_seg

    # rot[p, j] is movable row p rotated left by j segments, copied with the disk axis innermost: matmul's
    # summation order follows its operands' layout, and a C-order copy changes the coefficients' last bits
    rot = np.ascontiguousarray(rotations(b).transpose(1, 2, 0)).transpose(2, 0, 1)[k0:]
    base = b[0] if gauge_fixed else np.zeros(n_seg)

    offset = float(base @ base) + rho * n_movable
    row_sq = np.einsum("ki,ki->k", b, b)[k0:]
    linear = (2.0 * (rot @ base) + row_sq[:, None] - rho).reshape(n_vars)

    # gram[p, q] = rot[p] @ rot[q].T, one matrix product per disk pair
    gram = np.matmul(rot[:, None], np.swapaxes(rot, 1, 2)[None])
    quad = 2.0 * gram.transpose(0, 2, 1, 3).reshape(n_vars, n_vars)
    within = _same_disk(n_vars, n_seg)
    quad[within] += 2.0 * rho
    upper = np.triu(quad, 1)

    # prune cross terms below noise, keeping every penalty-bearing pair
    threshold = PRUNE_RELATIVE * max(np.abs(upper).max(initial=0.0), np.abs(linear).max(initial=0.0))
    upper[(np.abs(upper) < threshold) & ~within] = 0.0

    return QuboModel(offset, linear, upper, rho, gauge_fixed, n_disks, n_seg)


def _objective_scale(model: QuboModel) -> float:
    """Typical magnitude of the model's objective (non-penalty) coefficients.

    build_qubo adds the penalty exactly (-rho on every linear term, +2*rho on
    every within-disk pair), so subtracting it recovers the objective parts.
    Their median magnitude estimates the energy resolution an annealer's cold
    end has to reach.
    """
    c = model.coupling
    objective = np.where(_same_disk(model.n_vars, model.n_segments), c - 2.0 * model.rho, c)
    parts = np.abs(np.concatenate([model.linear + model.rho, objective[np.triu_indices(model.n_vars, 1)]]))
    nonzero = parts[parts > 0]
    return float(np.median(nonzero)) if nonzero.size else 0.0


def objective_bound(devs: DeviationMatrix) -> float:
    """Upper bound on the squared profile norm over all configurations.

    No profile entry can exceed the sum of per-disk maximum deviations, so
    n_segments times that sum squared bounds the objective.
    """
    per_disk_max = np.abs(devs.devs).max(axis=1)
    return devs.n_segments * float(per_disk_max.sum()) ** 2


def default_penalty(devs: DeviationMatrix) -> float:
    """A penalty strength safely above any achievable objective value.

    Adding 1 to the objective bound makes every constraint violation strictly
    worse than the worst feasible configuration, guaranteeing a feasible
    global minimum. Use this wherever that guarantee matters more than the
    solver's energy resolution (exhaustive ranking, feasibility proofs).
    """
    return objective_bound(devs) + 1.0


def annealing_penalty(devs: DeviationMatrix) -> float:
    """Penalty strength scaled for annealing-style solvers.

    A penalty far above the objective scale freezes the one-hot constraints
    at temperatures where objective differences are still thermally
    invisible, which degrades an annealer to a uniform draw over feasible
    configurations. Measured on random instances, 0.3 times the objective
    bound keeps every chain feasible at the end of the schedule while
    roughly tripling the odds of hitting the true optimum compared to
    default_penalty. Falls back to 1.0 for an all-zero deviation matrix.
    """
    bound = objective_bound(devs)
    return 0.3 * bound if bound > 0 else 1.0


def encode_shifts(shifts, n_segments: int, gauge_fixed: bool = True) -> np.ndarray:
    """One-hot encode a shift vector into a flat binary assignment."""
    gauge_fixed = _as_flag("gauge_fixed", gauge_fixed)
    s = _as_shift_vector(shifts, n_segments)
    if gauge_fixed and s[0] != 0:
        raise InvalidInputError("gauge-fixed encoding requires shift 0 for disk 0; canonicalize first")
    s = s[1:] if gauge_fixed else s
    bits = np.zeros(len(s) * n_segments, dtype=np.uint8)
    bits[np.arange(len(s)) * n_segments + np.array(s, dtype=np.int64)] = 1
    return bits


def _as_bits(bits, n_vars: int, rows: bool) -> np.ndarray:
    """bits as one assignment of n_vars entries, or with rows a 2-D array of them, each a
    bool or real number equal to 0 or 1: text is not a bit, even where float() reads one."""
    try:
        x = np.asarray(bits)
    except ValueError as exc:  # a ragged list
        raise InvalidInputError(f"bits must be an array: {exc}") from None
    if x.ndim != 1 + rows or x.shape[-1] != n_vars:
        raise InvalidInputError(f"expected {'rows of ' if rows else ''}{n_vars} bits, got shape {x.shape}")
    if x.dtype.kind not in "biuf" or not np.all((x == 0) | (x == 1)):
        raise InvalidInputError("assignment entries must be 0 or 1")
    return x


def decode_solution(bits, model: QuboModel) -> ShiftVector | InfeasibleSample:
    """Invert the one-hot encoding, or report which disks violate it."""
    x = _as_bits(bits, model.n_vars, rows=False)
    blocks = x.reshape(-1, model.n_segments)
    counts = np.count_nonzero(blocks, axis=1)
    if np.any(counts != 1):
        k0 = 1 if model.gauge_fixed else 0
        return InfeasibleSample(tuple((int(p) + k0, int(counts[p])) for p in np.flatnonzero(counts != 1)))
    shifts = tuple(blocks.argmax(axis=1).tolist())
    return (0, *shifts) if model.gauge_fixed else shifts


def local_fields(model: QuboModel, x: np.ndarray) -> np.ndarray:
    """field[c, v] = linear[v] + x[c] . coupling[v] for 0/1 states x, one per row.

    Flipping bit v of state c changes its energy by (1 - 2 x[c, v]) * field[c, v].
    Each entry is the np.vecdot of a state with one coupling row, the product
    simulated_anneal takes for each proposal, so for its float64 states the
    two agree bit for bit.
    """
    return np.vecdot(x[:, None], model.coupling) + model.linear


def evaluate_batch(model: QuboModel, assignments: np.ndarray) -> np.ndarray:
    """Energies of many assignments at once (rows of a 2-D 0/1 array of bools or numbers).

    offset + x . linear + x . coupling . x / 2, summed as offset + x . (field + linear) / 2.
    """
    x = _as_bits(assignments, model.n_vars, rows=True).astype(np.float64, copy=False)
    return model.offset + 0.5 * np.vecdot(x, local_fields(model, x) + model.linear)


def evaluate(model: QuboModel, bits) -> float:
    """Energy of one assignment: the batch-of-one case of evaluate_batch."""
    return float(evaluate_batch(model, [bits])[0])


# export_qubo joins its Q lines this many at a time, parse_qubo reads its
# text in pieces of about PARSE_BLOCK characters; both bound the transient
# memory of the text layer
EXPORT_CHUNK = 4096
PARSE_BLOCK = 1 << 16


def export_qubo(model: QuboModel, path=None) -> str:
    """Serialize to the sparse text format; re-importing is coefficient-exact.

    Header "QUBO n_vars offset rho", comment lines recording the gauge flag,
    the stack dimensions and the variable bijection, then "L i coeff" lines
    for nonzero linear terms and "Q i j coeff" (i < j) for quadratic terms,
    all at 17 significant digits. The bijection is always the fixed layout
    of QuboModel, one "# varmap v -> k,j" line per variable in order.

    The Q block, nearly all of the text, is written in bulk: a model has far
    fewer distinct coefficients than pairs, so each distinct bit pattern
    (-0.0 apart from 0.0) is formatted once, and each line is joined from
    three strings picked by index, "Q i ", "j " and the coefficient, in
    chunks of EXPORT_CHUNK lines.
    """
    lines = [f"QUBO {model.n_vars} {model.offset:.17g} {model.rho:.17g}"]
    lines.append(f"# gauge_fixed {int(model.gauge_fixed)}")
    lines.append(f"# disks {model.n_disks} segments {model.n_segments}")
    lines.extend(f"# varmap {i} -> {k},{j}" for i, (k, j) in enumerate(model.var_map))
    lines.extend(f"L {i} {c:.17g}" for i, c in enumerate(model.linear.tolist()) if c != 0.0)
    chunks = ["\n".join(lines) + "\n"]
    rows, cols = model.quadratic.pairs()
    patterns, which = np.unique(model.coupling[rows, cols].view(np.int64), return_inverse=True)
    coeffs = np.array([f"{c:.17g}\n" for c in patterns.view(np.float64).tolist()], dtype=object)
    firsts = np.array([f"Q {i} " for i in range(model.n_vars)], dtype=object)
    seconds = np.array([f"{j} " for j in range(model.n_vars)], dtype=object)
    for start in range(0, len(rows), EXPORT_CHUNK):
        part = slice(start, start + EXPORT_CHUNK)
        cells = np.empty((len(rows[part]), 3), dtype=object)
        cells[:, 0], cells[:, 1], cells[:, 2] = firsts[rows[part]], seconds[cols[part]], coeffs[which[part]]
        chunks.append("".join(cells.ravel().tolist()))
    text = "".join(chunks)
    if path is not None:
        Path(path).write_text(text)
    return text


def _blocks(text: str):
    """Cut text into pieces of about PARSE_BLOCK characters, each ending after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + PARSE_BLOCK) + 1 or len(text)
        yield text[start:end]
        start = end


# what np.loadtxt misreads: the ASCII line breaks str.splitlines honours besides "\n", which it reads
# as spaces inside a line, and NUL, which its U2 field drops when trailing
_MISREAD = "\r\x0b\x0c\x1c\x1d\x1e\x00"

_Q_LINE = np.dtype([("q", "U2"), ("i", np.int64), ("j", np.int64), ("coeff", np.float64)])


def _q_columns(block: str, n_vars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The columns i, j and coeff of a block of good Q lines, else None.

    np.loadtxt reads an ASCII block whole, taking any whitespace around the
    four fields and blank lines anywhere. Left to the line-by-line reading,
    which names the bad line, are a block with a non-ASCII character (numpy
    2.4 crashes on one beyond the BMP in an integer field), a character of
    _MISREAD, a blank block (on which loadtxt warns), and a block with any
    line that is not "Q i j coeff" with 0 <= i < j < n_vars.
    """
    if not block.isascii() or block.isspace() or any(c in block for c in _MISREAD):
        return None
    try:
        rows = np.loadtxt(io.StringIO(block), dtype=_Q_LINE, comments=None, ndmin=1)
    except ValueError:
        return None
    i, j = rows["i"], rows["j"]
    if np.all(rows["q"] == "Q") and np.all((0 <= i) & (i < j) & (j < n_vars)):
        return i, j, rows["coeff"]
    return None


def parse_qubo(text: str) -> QuboModel:
    """Read the export format back into a model.

    Each line is stripped and blank lines are skipped. Every line has the
    exact token count of its kind, numbers follow Python's int and float,
    and an L index, a Q pair, a gauge_fixed line or a disks line given
    twice is rejected; gauge_fixed defaults to 1. Comment lines other
    than gauge_fixed, disks and varmap are ignored. The varmap lines must
    list the variables 0, 1, ... in order and in the fixed layout of
    QuboModel; parsing rejects any other varmap.

    The text after the header is read as two regions, cut at the start of
    its first line that begins with Q: the comment and L lines before it,
    and from it to the end, the Q lines as export_qubo writes them. Each
    region is read in blocks of about PARSE_BLOCK characters cut at
    newlines. np.loadtxt reads a block of Q lines whole (_q_columns), with
    any ASCII whitespace or blank lines among them; every other block is
    read one line at a time, which also takes CRLF-ended text and L or
    comment lines among the Q lines, only slower. The Q coefficients go straight into the
    upper triangle of the coupling matrix.
    """
    body = text.lstrip()
    # the first line, ended wherever splitlines would end it
    head = (body.partition("\n")[0].splitlines() or [""])[0]
    if not head.startswith("QUBO "):
        raise InvalidInputError("missing QUBO header line")
    try:
        _, n_vars, offset, rho = head.split()
        n_vars, offset, rho = int(n_vars), float(offset), float(rho)
    except ValueError:
        raise InvalidInputError(f"bad header: {head.strip()!r}") from None
    if n_vars < 0:
        raise InvalidInputError(f"bad header: {head.strip()!r}")

    gauge_fixed = n_disks = n_segments = None
    var_map: list[tuple[int, int]] = []
    lin_index: list[int] = []
    lin_coeff: list[float] = []
    # the Q lines read one at a time, as Python numbers until the checks below bound n_vars
    q_i: list[int] = []
    q_j: list[int] = []
    q_coeff: list[float] = []
    q_parts = []
    q_start = body.find("\nQ", len(head)) + 1 or len(body)
    for block in chain(_blocks(body[len(head) : q_start]), _blocks(body[q_start:])):
        if (columns := _q_columns(block, n_vars)) is not None:
            q_parts.append(columns)
            continue
        for ln in map(str.strip, block.splitlines()):
            if not ln:
                continue
            parts = ln.split()
            try:
                if parts[0] == "#":
                    key = parts[1]
                    # a second gauge_fixed or disks line falls through to the error below
                    if key == "gauge_fixed" and len(parts) == 3 and gauge_fixed is None:
                        gauge_fixed = {"0": False, "1": True}[parts[2]]
                    elif key == "disks" and len(parts) == 5 and parts[3] == "segments" and n_disks is None:
                        n_disks, n_segments = int(parts[2]), int(parts[4])
                    elif key == "varmap" and len(parts) == 5 and parts[3] == "->" and int(parts[2]) == len(var_map):
                        k, j = parts[4].split(",")
                        var_map.append((int(k), int(j)))
                    elif key in ("gauge_fixed", "disks", "varmap"):
                        raise InvalidInputError(f"bad line: {ln!r}")
                elif parts[0] == "L" and len(parts) == 3 and 0 <= (i := int(parts[1])) < n_vars:
                    lin_index.append(i)
                    lin_coeff.append(float(parts[2]))
                elif parts[0] == "Q" and len(parts) == 4 and 0 <= (i := int(parts[1])) < (j := int(parts[2])) < n_vars:
                    q_i.append(i)
                    q_j.append(j)
                    q_coeff.append(float(parts[3]))
                else:
                    raise InvalidInputError(f"bad line: {ln!r}")
            except (IndexError, KeyError, ValueError):
                raise InvalidInputError(f"bad line: {ln!r}") from None
    if n_disks is None or n_segments is None:
        raise InvalidInputError("missing '# disks ... segments ...' line")
    gauge_fixed = gauge_fixed is not False
    # sizes first, so the layout is built only for a var_map that can match it
    if not (n_disks >= 1 and n_segments >= 1 and (n_disks - int(gauge_fixed)) * n_segments == n_vars):
        raise InvalidInputError(f"{n_vars} variables do not fit {n_disks} disks x {n_segments} segments")
    # one varmap line per variable bounds the n_vars x n_vars allocation
    if len(var_map) != n_vars:
        raise InvalidInputError(f"{len(var_map)} varmap lines for {n_vars} variables")
    if tuple(var_map) != _layout(gauge_fixed, n_disks, n_segments):
        raise InvalidInputError("var_map must follow the fixed (disk, shift) layout")
    if len(set(lin_index)) < len(lin_index):
        raise InvalidInputError("an L index is given twice")
    q_parts.append((np.array(q_i, np.int64), np.array(q_j, np.int64), np.array(q_coeff)))
    i, j, coeff = map(np.concatenate, zip(*q_parts))
    if np.bincount(i * n_vars + j, minlength=1).max() > 1:
        raise InvalidInputError("a Q pair is given twice")
    linear = np.zeros(n_vars)
    linear[lin_index] = lin_coeff
    upper = np.zeros((n_vars, n_vars))
    upper[i, j] = coeff
    return QuboModel(offset, linear, upper, rho, gauge_fixed, n_disks, n_segments)


def load_qubo(path) -> QuboModel:
    return parse_qubo(read_text(path))
