"""Common result record shared by every solver, and how a result is reported."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from ..stack import DeviationMatrix, shift_metrics


@dataclass(frozen=True)
class SolveResult:
    """What a solver found, how good it is, and what finding it cost.

    shifts is the canonical shift vector (first entry 0), or None for the
    explicit no-feasible-sample outcome of a random solver, in which case
    energy still carries the best raw value seen. optimal is True only when the
    result is proven optimal for the objective the solver optimized (exact solvers
    that ran to completion). wall_time covers the core search only. The fields
    from shifts to seed are reported, in this order, by `clutchopt solve`.
    """

    solver_id: str
    shifts: tuple[int, ...] | None
    sigma: float | None
    range: float | None
    energy: float | None = None
    wall_time: float = 0.0
    samples_total: int = 1
    samples_feasible: int = 1
    nodes_explored: int | None = None
    optimal: bool = False
    seed: int | None = None
    params: dict = field(default_factory=dict)

    @property
    def found_feasible(self) -> bool:
        return self.shifts is not None

    @property
    def status(self) -> str:
        return "ok" if self.found_feasible else "no-feasible-sample"


# the fields a solve reports, in output order; solver_id and status head the
# CLI output, and params stays in memory
REPORTED_FIELDS = tuple(
    f.name for f in dataclasses.fields(SolveResult) if f.name not in ("solver_id", "params")
)


def format_value(value) -> str:
    """None is empty, a bool true or false, a shift tuple space-separated;
    str() of a float is its repr, so the text parses back exactly."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(str(v) for v in value)
    return str(value)


def scored(solver_id: str, devs: DeviationMatrix, shifts, t0: float, **fields) -> SolveResult:
    """Stop the clock started at t0 and score shifts by their sigma and range on devs."""
    wall = time.perf_counter() - t0
    sigma, spread = shift_metrics(devs, shifts)
    return SolveResult(solver_id, shifts, sigma, spread, wall_time=wall, **fields)
