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
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .rng import derive_seed
from .solvers import DEFAULT_ENUMERATION_CAP, SOLVER_NAMES, solve
from .stack import (
    DEFAULT_MAX_VARIATION,
    DEFAULT_TARGET_THICKNESS,
    deviations,
    generate_instance,
)

DEFAULT_BASE_SEED = 20240817

_SOLVER_PARAM_TYPES = {
    "samples": int,
    "sweeps": int,
    "cap": int,
    "rho": float,
    "budget": float,
    "objective": str,
}


@dataclass(frozen=True)
class SolverSpec:
    """One solver entry of a benchmark config: a name plus its parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in SOLVER_NAMES:
            raise ConfigError(f"unknown solver {self.name!r}; expected one of {SOLVER_NAMES}")
        for key in self.params:
            if key not in _SOLVER_PARAM_TYPES:
                raise ConfigError(f"unknown solver parameter {key!r}")
        if not self.params.get("budget", 0) >= 0:  # also false for NaN
            raise ConfigError(f"budget must be >= 0 seconds, got {self.params['budget']!r}")


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
        if not self.sizes:
            raise ConfigError("config needs at least one size")
        for nd, ns in self.sizes:
            if nd < 1 or ns < 1:
                raise ConfigError(f"bad size ({nd}, {ns})")
        if self.instances_per_size < 1:
            raise ConfigError("instances_per_size must be >= 1")
        if not self.solvers:
            raise ConfigError("config needs at least one solver")
        if not (math.isfinite(self.target_thickness) and math.isfinite(self.max_variation)):
            raise ConfigError("a0 and delta must be finite")
        if self.max_variation < 0:
            raise ConfigError("delta must be >= 0")


@dataclass(frozen=True)
class BenchmarkRecord:
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
_FLOAT_COLUMNS = {"sigma", "range", "energy", "wall_time"}
_INT_COLUMNS = {
    "n_disks",
    "n_segments",
    "n_vars",
    "samples_total",
    "samples_feasible",
    "nodes_explored",
    "seed",
}


def default_config(
    base_seed: int = DEFAULT_BASE_SEED,
    instances_per_size: int = 2,
) -> BenchmarkConfig:
    """Desk-scale grid: oracle-verified 6-segment rows plus 42-segment rows.

    The size column of interest is n_vars = (n_disks - 1) * n_segments; the
    42-segment rows reach 252 variables at 7 disks. Enumeration caps make
    the exhaustive and exact solvers skip sizes beyond their reach, so the
    run stays deterministic with no wall-clock cutoffs.
    """
    sizes = tuple((nd, 6) for nd in range(2, 7)) + tuple((nd, 42) for nd in range(2, 8))
    solvers = (
        SolverSpec("exhaustive", {"cap": 10_000}),
        SolverSpec("exact", {"cap": 10_000_000}),
        SolverSpec("approx", {}),
        SolverSpec("sa", {"samples": 35, "sweeps": 1500}),
    )
    return BenchmarkConfig(
        sizes=sizes,
        instances_per_size=instances_per_size,
        solvers=solvers,
        base_seed=base_seed,
    )


def run_benchmark(config: BenchmarkConfig, progress=None) -> list[BenchmarkRecord]:
    """Run every configured solver on every generated instance.

    Partial failures become error records and the run continues. Exact
    solvers are skipped with a skip record where the gauge-fixed
    configuration count exceeds their cap.
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
    params = dict(spec.params)
    leaves = base["n_segments"] ** (base["n_disks"] - 1)
    if spec.name in ("exhaustive", "exact"):
        cap = params.get("cap", DEFAULT_ENUMERATION_CAP)
        if leaves > cap:
            return BenchmarkRecord(
                **base,
                solver=spec.name,
                status="skip",
                seed=inst_seed,
                note=f"{leaves} configurations exceed cap {cap}",
            )
    kwargs = {
        "objective": params.get("objective"),
        "rho": params.get("rho"),
        "samples": params.get("samples"),
        "sweeps": params.get("sweeps"),
        "budget_seconds": params.get("budget"),
        "cap": params.get("cap"),
    }
    if spec.name == "sa":
        kwargs["seed"] = inst_seed
    try:
        result = solve(devs, spec.name, **kwargs)
    except Exception as exc:
        return BenchmarkRecord(
            **base,
            solver=spec.name,
            status="error",
            seed=inst_seed,
            note=f"{type(exc).__name__}: {exc}",
        )
    return BenchmarkRecord(
        **base,
        solver=spec.name,
        status="ok" if result.found_feasible else "no-feasible-sample",
        sigma=result.sigma,
        range=result.range,
        energy=result.energy,
        wall_time=result.wall_time,
        samples_total=result.samples_total,
        samples_feasible=result.samples_feasible,
        nodes_explored=result.nodes_explored,
        optimal=result.optimal,
        seed=inst_seed,
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _uncell(column: str, text: str):
    if text == "":
        return None if column != "note" else ""
    if column == "optimal":
        return text == "true"
    if column in _FLOAT_COLUMNS:
        return float(text)
    if column in _INT_COLUMNS:
        return int(text)
    return text


def emit_results(records, fmt: str = "csv") -> str:
    """Serialize records with a stable column order; re-parsing is exact."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for rec in records:
            writer.writerow([_cell(getattr(rec, col)) for col in _COLUMNS])
        return buf.getvalue()
    if fmt == "jsonl":
        lines = []
        for rec in records:
            lines.append(json.dumps({col: getattr(rec, col) for col in _COLUMNS}))
        return "\n".join(lines) + ("\n" if lines else "")
    raise ConfigError(f"unknown output format {fmt!r}")


def parse_results(text: str, fmt: str = "csv") -> list[BenchmarkRecord]:
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != _COLUMNS:
            raise ConfigError("unexpected CSV header")
        return [
            BenchmarkRecord(**{col: _uncell(col, cell) for col, cell in zip(_COLUMNS, row)})
            for row in rows[1:]
        ]
    if fmt == "jsonl":
        records = []
        for line in text.splitlines():
            if line.strip():
                records.append(BenchmarkRecord(**json.loads(line)))
        return records
    raise ConfigError(f"unknown output format {fmt!r}")


def write_results(records, path, fmt: str = "csv") -> None:
    Path(path).write_text(emit_results(records, fmt))


def parse_config(text: str) -> BenchmarkConfig:
    """Parse the declarative line-oriented config format.

    Keys: "size ND NS" (repeatable), "instances N", "seed N", "a0 X",
    "delta X", "out PATH", and "solver NAME [key=value ...]" (repeatable).
    Blank lines and # comments are ignored.
    """
    sizes: list[tuple[int, int]] = []
    solvers: list[SolverSpec] = []
    scalars: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        try:
            if key == "size":
                sizes.append((int(parts[1]), int(parts[2])))
            elif key == "instances":
                scalars["instances_per_size"] = int(parts[1])
            elif key == "seed":
                scalars["base_seed"] = int(parts[1])
            elif key == "a0":
                scalars["target_thickness"] = float(parts[1])
            elif key == "delta":
                scalars["max_variation"] = float(parts[1])
            elif key == "out":
                scalars["out"] = parts[1]
            elif key == "solver":
                params = {}
                for item in parts[2:]:
                    pkey, _, pval = item.partition("=")
                    if pkey not in _SOLVER_PARAM_TYPES:
                        raise ConfigError(f"line {lineno}: unknown solver parameter {pkey!r}")
                    params[pkey] = _SOLVER_PARAM_TYPES[pkey](pval)
                solvers.append(SolverSpec(parts[1], params))
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except (IndexError, ValueError):
            raise ConfigError(f"line {lineno}: cannot parse {raw!r}") from None
    if not sizes:
        raise ConfigError("config needs at least one 'size ND NS' line")
    if not solvers:
        raise ConfigError("config needs at least one 'solver NAME' line")
    return BenchmarkConfig(
        sizes=tuple(sizes),
        instances_per_size=scalars.get("instances_per_size", 1),
        solvers=tuple(solvers),
        base_seed=scalars.get("base_seed", DEFAULT_BASE_SEED),
        target_thickness=scalars.get("target_thickness", DEFAULT_TARGET_THICKNESS),
        max_variation=scalars.get("max_variation", DEFAULT_MAX_VARIATION),
        out=scalars.get("out"),
    )


def format_config(config: BenchmarkConfig) -> str:
    lines = [f"size {nd} {ns}" for nd, ns in config.sizes]
    lines.append(f"instances {config.instances_per_size}")
    lines.append(f"seed {config.base_seed}")
    lines.append(f"a0 {config.target_thickness:.17g}")
    lines.append(f"delta {config.max_variation:.17g}")
    if config.out is not None:
        lines.append(f"out {config.out}")
    for spec in config.solvers:
        items = "".join(f" {k}={_cell(v)}" for k, v in spec.params.items())
        lines.append(f"solver {spec.name}{items}")
    return "\n".join(lines) + "\n"


def load_config(path) -> BenchmarkConfig:
    return parse_config(Path(path).read_text())
