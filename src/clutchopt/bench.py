"""Benchmark harness: run the solver portfolio over a grid of instance sizes.

Instances are generated deterministically from (base seed, size, index), each
configured solver runs on each instance, and every (instance, solver) pair
yields exactly one record: ok, skip (enumeration cap exceeded) or error. The
emitted CSV/JSONL is plot-ready, one row per record, and byte-identical
across runs of the same config except for the wall_time column.
"""

from __future__ import annotations

import csv
import io
import json
import typing
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

from .errors import ConfigError, InvalidInputError, ProblemTooLargeError, check_integer, read_text
from .rng import derive_seed
from .solvers import DEFAULT_ENUMERATION_CAP, DEFAULT_SAMPLES, DEFAULT_SWEEPS, SOLVER_PARAMS, check_params, solve
from .solvers.result import REPORTED_FIELDS, format_value
from .stack import (
    DEFAULT_MAX_VARIATION,
    DEFAULT_TARGET_THICKNESS,
    check_band,
    deviations,
    generate_instance,
)

DEFAULT_BASE_SEED = 20240817

# config solver keys and their types: solve()'s parameters, budget for budget_seconds, and no seed
_SOLVER_PARAM_TYPES = {
    "samples": int,
    "sweeps": int,
    "cap": int,
    "rho": float,
    "budget": float,
    "objective": str,
}
_SOLVE_KWARGS = {"budget": "budget_seconds"}
# config keys that take one value: the BenchmarkConfig field each sets and its type
_SCALAR_KEYS = {
    "instances": ("instances_per_size", int),
    "seed": ("base_seed", int),
    "a0": ("target_thickness", float),
    "delta": ("max_variation", float),
    "out": ("out", str),
}


@dataclass(frozen=True)
class SolverSpec:
    """One solver entry of a benchmark config: a name plus the parameters it reads."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.params, dict):
            raise ConfigError(f"solver parameters must be a dict, got {self.params!r}")
        # the config's key names before any value, so budget_seconds=abc is an unknown key;
        # an unknown solver is left to check_params
        known = isinstance(self.name, str) and self.name in SOLVER_PARAMS
        if known and (unknown := self.params.keys() - _SOLVER_PARAM_TYPES.keys()):
            raise ConfigError(f"{self.name} does not take {', '.join(sorted(unknown))}")
        try:
            check_params(self.name, self.solve_kwargs())
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from None

    def solve_kwargs(self) -> dict:
        return {_SOLVE_KWARGS.get(key, key): value for key, value in self.params.items()}


@dataclass(frozen=True)
class BenchmarkConfig:
    sizes: tuple[tuple[int, int], ...]
    instances_per_size: int
    solvers: tuple[SolverSpec, ...]
    base_seed: int = DEFAULT_BASE_SEED
    target_thickness: float = DEFAULT_TARGET_THICKNESS
    max_variation: float = DEFAULT_MAX_VARIATION
    out: str | None = None

    def __post_init__(self) -> None:
        for name in ("sizes", "solvers"):
            if not isinstance(value := getattr(self, name), Sequence):
                raise ConfigError(f"{name} must be a sequence, got {value!r}")
        if not self.sizes:
            raise ConfigError("config needs at least one 'size ND NS'")
        try:
            for size in self.sizes:
                if not (isinstance(size, tuple) and len(size) == 2):
                    raise InvalidInputError(f"a size is a pair (n_disks, n_segments), got {size!r}")
                check_integer("n_disks", size[0])
                check_integer("n_segments", size[1])
            check_integer("instances_per_size", self.instances_per_size)
            check_integer("seed", self.base_seed, 0)
            check_band(self.target_thickness, self.max_variation)
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from None
        # rows are keyed by instance, nd{ND}_ns{NS}_i{index}, so a repeated size would repeat them
        if len(set(self.sizes)) < len(self.sizes):
            listed = ", ".join(f"{nd} {ns}" for nd, ns in self.sizes)
            raise ConfigError(f"a size is listed more than once: {listed}")
        if not self.solvers:
            raise ConfigError("config needs at least one 'solver NAME'")
        if bad := [spec for spec in self.solvers if not isinstance(spec, SolverSpec)]:
            raise ConfigError(f"a solver entry is a SolverSpec, got {bad[0]!r}")
        names = [spec.name for spec in self.solvers]
        if len(set(names)) < len(names):
            raise ConfigError(f"a solver is listed more than once: {', '.join(names)}")
        # a config line is split on whitespace and cut at #, so "out PATH" cannot hold either
        if self.out is not None and not (
            isinstance(self.out, str) and self.out.split() == [self.out] and "#" not in self.out
        ):
            raise ConfigError(f"out must be a non-empty path without whitespace or '#', got {self.out!r}")


@dataclass(frozen=True)
class BenchmarkRecord:
    """One row of the CSV/JSONL results; the columns after status are the
    SolveResult fields of the same name, but seed is the instance seed."""

    instance: str
    n_disks: int
    n_segments: int
    n_vars: int
    solver: str
    status: str
    sigma: float | None = None
    range: float | None = None
    energy: float | None = None
    wall_time: float | None = None
    samples_total: int | None = None
    samples_feasible: int | None = None
    nodes_explored: int | None = None
    optimal: bool | None = None
    seed: int | None = None
    note: str = ""


_COLUMNS = tuple(f.name for f in fields(BenchmarkRecord))
_RESULT_COLUMNS = tuple(name for name in REPORTED_FIELDS if name in _COLUMNS)
_COLUMN_TYPES = typing.get_type_hints(BenchmarkRecord)
_STATUSES = ("ok", "no-feasible-sample", "skip", "error")


def default_config() -> BenchmarkConfig:
    """Desk-scale grid: oracle-verified 6-segment rows plus 42-segment rows.

    The size column of interest is n_vars = (n_disks - 1) * n_segments; the
    42-segment rows reach 252 variables at 7 disks. Enumeration caps make
    the exhaustive and exact solvers skip sizes beyond their reach, so the
    run stays deterministic with no wall-clock cutoffs.
    """
    sizes = tuple((nd, 6) for nd in range(2, 7)) + tuple((nd, 42) for nd in range(2, 8))
    solvers = (
        SolverSpec("exhaustive", {"cap": 10_000}),
        SolverSpec("exact", {"cap": DEFAULT_ENUMERATION_CAP}),
        SolverSpec("approx", {}),
        SolverSpec("sa", {"samples": DEFAULT_SAMPLES, "sweeps": DEFAULT_SWEEPS}),
    )
    return BenchmarkConfig(sizes=sizes, instances_per_size=2, solvers=solvers)


def run_benchmark(config: BenchmarkConfig, progress=None) -> list[BenchmarkRecord]:
    """Run every configured solver on every generated instance.

    Partial failures become error records and the run continues. A solver
    whose enumeration cap the gauge-fixed configuration count exceeds
    yields a skip record.
    """
    records: list[BenchmarkRecord] = []
    for nd, ns in config.sizes:
        for idx in range(config.instances_per_size):
            inst_seed = derive_seed("bench", config.base_seed, nd, ns, idx)
            stack = generate_instance(
                nd, ns, config.target_thickness, config.max_variation, inst_seed
            )
            devs = deviations(stack)
            instance_id = f"nd{nd}_ns{ns}_i{idx}"
            base = {
                "instance": instance_id,
                "n_disks": nd,
                "n_segments": ns,
                "n_vars": (nd - 1) * ns,
            }
            for spec in config.solvers:
                record = _run_one(devs, spec, inst_seed, base)
                records.append(record)
                if progress is not None:
                    progress(record)
    return records


def _run_one(devs, spec: SolverSpec, inst_seed: int, base: dict) -> BenchmarkRecord:
    seed = inst_seed if "seed" in SOLVER_PARAMS[spec.name] else None
    try:
        result = solve(devs, spec.name, seed=seed, **spec.solve_kwargs())
    except Exception as exc:
        skip = isinstance(exc, ProblemTooLargeError)
        return BenchmarkRecord(
            **base,
            solver=spec.name,
            status="skip" if skip else "error",
            seed=inst_seed,
            note=str(exc) if skip else f"{type(exc).__name__}: {exc}",
        )
    values = {name: getattr(result, name) for name in _RESULT_COLUMNS}
    values["seed"] = inst_seed  # a row's seed is the instance seed, whatever the solver reads
    return BenchmarkRecord(**base, solver=spec.name, status=result.status, **values)


def _uncell(column: str, text: str):
    hint = _COLUMN_TYPES[column]
    optional = typing.get_args(hint)  # (T, NoneType) for a "T | None" column
    if text == "" and optional:
        return None
    kind = optional[0] if optional else hint
    if kind is not bool:
        return kind(text)
    if text not in ("true", "false"):
        raise ValueError(f"{column} must be true or false, not {text!r}")
    return text == "true"


def _unjson(column: str, value):
    """A JSONL value as the column's annotation types it; bool is not an int."""
    hint = _COLUMN_TYPES[column]
    optional = typing.get_args(hint)
    if value is None and optional:
        return None
    kind = optional[0] if optional else hint
    if kind is float and type(value) in (int, float):
        return float(value)
    if type(value) is not kind:
        raise ValueError(f"{column} must be {kind.__name__}, not {value!r}")
    return value


def _record(values: dict) -> BenchmarkRecord:
    if values["status"] not in _STATUSES:
        raise ValueError(f"status must be one of {', '.join(_STATUSES)}, not {values['status']!r}")
    return BenchmarkRecord(**values)


def emit_results(records, fmt: str = "csv") -> str:
    """Serialize records with a stable column order; re-parsing is exact."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for rec in records:
            writer.writerow([format_value(getattr(rec, col)) for col in _COLUMNS])
        return buf.getvalue()
    if fmt == "jsonl":
        lines = []
        for rec in records:
            lines.append(json.dumps({col: getattr(rec, col) for col in _COLUMNS}))
        return "\n".join(lines) + ("\n" if lines else "")
    raise ConfigError(f"unknown output format {fmt!r}")


def parse_results(text: str, fmt: str = "csv") -> list[BenchmarkRecord]:
    """Read emit_results output back; malformed input raises ConfigError."""
    records: list[BenchmarkRecord] = []
    try:
        if fmt == "csv":
            rows = csv.reader(io.StringIO(text))
            if next(rows, None) != list(_COLUMNS):
                raise ConfigError("unexpected CSV header")
            for row in rows:
                if len(row) != len(_COLUMNS):
                    raise ValueError(f"{len(row)} cells, expected {len(_COLUMNS)}")
                records.append(_record({col: _uncell(col, cell) for col, cell in zip(_COLUMNS, row)}))
        elif fmt == "jsonl":
            for line in text.splitlines():
                if line.strip():
                    values = json.loads(line)
                    if not isinstance(values, dict):
                        raise ValueError("not a JSON object")
                    if values.keys() != set(_COLUMNS):
                        wrong = sorted(values.keys() ^ set(_COLUMNS))
                        raise ValueError(f"keys must be the {len(_COLUMNS)} columns; unknown or missing {wrong}")
                    records.append(_record({col: _unjson(col, values[col]) for col in _COLUMNS}))
        else:
            raise ConfigError(f"unknown output format {fmt!r}")
    except ConfigError:
        raise
    except (csv.Error, TypeError, ValueError) as exc:
        raise ConfigError(f"record {len(records) + 1}: {exc}") from None
    return records


def parse_config(text: str) -> BenchmarkConfig:
    """Parse the declarative line-oriented config format.

    Keys: "size ND NS" (repeatable), "instances N", "seed N", "a0 X",
    "delta X", "out PATH", and "solver NAME [key=value ...]" (repeatable).
    Blank lines and # comments are ignored; a line with more or fewer tokens
    than its key takes is an error.
    """
    sizes: list[tuple[int, int]] = []
    solvers: list[SolverSpec] = []
    scalars: dict = {"instances_per_size": 1}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "size":
                nd, ns = parts[1:]  # ValueError for any other token count
                sizes.append((int(nd), int(ns)))
            elif key in _SCALAR_KEYS:
                name, kind = _SCALAR_KEYS[key]
                (value,) = parts[1:]
                scalars[name] = kind(value)
            elif key == "solver":
                params = {}
                for item in parts[2:]:
                    pkey, _, pval = item.partition("=")
                    if pkey in params:
                        raise ConfigError(f"{pkey} is given twice")
                    # an unknown name stays text for SolverSpec to reject by name
                    params[pkey] = _SOLVER_PARAM_TYPES.get(pkey, str)(pval)
                solvers.append(SolverSpec(parts[1], params))
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except (IndexError, ValueError):
            raise ConfigError(f"line {lineno}: cannot parse {raw!r}") from None
    return BenchmarkConfig(sizes=tuple(sizes), solvers=tuple(solvers), **scalars)


def load_config(path) -> BenchmarkConfig:
    return parse_config(read_text(path, ConfigError))
