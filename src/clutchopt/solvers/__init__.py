"""Solver portfolio behind one dispatch interface.

exhaustive  - oracle enumeration of every gauge-fixed configuration
exact       - screened enumeration, range-optimal, optional wall-clock budget
approx      - block decomposition, fast but without optimality guarantee
sa          - simulated annealing on the gauge-fixed binary quadratic model
"""

from __future__ import annotations

from ..errors import InvalidInputError
from ..qubo import annealing_penalty, build_qubo
from ..stack import DeviationMatrix
from .anneal import (
    DEFAULT_SAMPLES,
    DEFAULT_SWEEPS,
    AnnealSchedule,
    default_beta_range,
    default_schedule,
    simulated_anneal,
)
from .blocks import block_approximate, split_disk_blocks
from .exact import DEFAULT_ENUMERATION_CAP, branch_and_bound, exhaustive_search
from .result import SolveResult

SOLVER_NAMES = ("exhaustive", "exact", "approx", "sa")

__all__ = [
    "AnnealSchedule",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_SAMPLES",
    "DEFAULT_SWEEPS",
    "SOLVER_NAMES",
    "SolveResult",
    "block_approximate",
    "branch_and_bound",
    "default_beta_range",
    "default_schedule",
    "exhaustive_search",
    "simulated_anneal",
    "solve",
    "split_disk_blocks",
]


def solve(
    devs: DeviationMatrix,
    solver: str,
    *,
    objective: str | None = None,
    rho: float | None = None,
    samples: int | None = None,
    sweeps: int | None = None,
    schedule: AnnealSchedule | None = None,
    seed: int | None = None,
    budget_seconds: float | None = None,
    cap: int | None = None,
) -> SolveResult:
    """Dispatch to a solver by name, with uniform parameter handling.

    The exact solvers optimize the range; sa optimizes the standard
    deviation through the squared L2 objective, so requesting the opposite
    objective is rejected rather than silently ignored.
    """
    if solver == "exhaustive":
        return exhaustive_search(
            devs,
            objective="range" if objective is None else objective,
            cap=DEFAULT_ENUMERATION_CAP if cap is None else cap,
        )
    if solver == "exact":
        if objective not in (None, "range"):
            raise InvalidInputError("the exact solver optimizes the range only")
        return branch_and_bound(devs, budget_seconds=budget_seconds)
    if solver == "approx":
        if objective not in (None, "range"):
            raise InvalidInputError("the approximate solver optimizes the range only")
        return block_approximate(devs, budget_seconds=budget_seconds)
    if solver == "sa":
        if objective not in (None, "sigma"):
            raise InvalidInputError("sa optimizes sigma (the squared L2 norm) only")
        rho_val = annealing_penalty(devs) if rho is None else float(rho)
        model = build_qubo(devs, rho_val, gauge_fixed=True)
        sched = schedule
        if sched is None:
            sched = default_schedule(model, sweeps=DEFAULT_SWEEPS if sweeps is None else sweeps)
        return simulated_anneal(
            model,
            sched,
            samples=DEFAULT_SAMPLES if samples is None else samples,
            seed=seed,
            devs=devs,
        )
    raise InvalidInputError(f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}")
