"""Solver portfolio behind one dispatch interface.

exhaustive  - oracle enumeration of every gauge-fixed configuration
exact       - screened enumeration, range-optimal, optional wall-clock budget and cap
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

# the solve() parameters each solver reads; any other parameter is an error
SOLVER_PARAMS = {
    "exhaustive": ("objective", "cap"),
    "exact": ("objective", "budget_seconds", "cap"),
    "approx": ("objective", "budget_seconds"),
    "sa": ("objective", "rho", "samples", "sweeps", "seed"),
}
SOLVER_NAMES = tuple(SOLVER_PARAMS)
# the objectives each solver optimizes, its default first
SOLVER_OBJECTIVES = {
    "exhaustive": ("range", "sigma"),
    "exact": ("range",),
    "approx": ("range",),
    "sa": ("sigma",),
}

__all__ = [
    "AnnealSchedule",
    "DEFAULT_ENUMERATION_CAP",
    "DEFAULT_SAMPLES",
    "DEFAULT_SWEEPS",
    "SOLVER_NAMES",
    "SOLVER_OBJECTIVES",
    "SOLVER_PARAMS",
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
    seed: int | None = None,
    budget_seconds: float | None = None,
    cap: int | None = None,
) -> SolveResult:
    """Dispatch to a solver by name, passing on only the parameters it reads.

    SOLVER_PARAMS lists them; any other parameter that is not None raises
    InvalidInputError, and so does an objective the solver does not
    optimize. exact and approx optimize the range, sa sigma (through the
    squared L2 objective), exhaustive either (range by default). cap is an
    enumeration cap: exhaustive defaults to DEFAULT_ENUMERATION_CAP, exact to
    none.
    """
    if solver not in SOLVER_PARAMS:
        raise InvalidInputError(f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}")
    given = dict(rho=rho, samples=samples, sweeps=sweeps, seed=seed, budget_seconds=budget_seconds, cap=cap)
    for name, value in given.items():
        if value is not None and name not in SOLVER_PARAMS[solver]:
            raise InvalidInputError(f"{solver} does not take {name}")
    objectives = SOLVER_OBJECTIVES[solver]
    if objective is None:
        objective = objectives[0]
    elif objective not in objectives:
        raise InvalidInputError(f"{solver} optimizes {' or '.join(objectives)} only, not {objective!r}")

    if solver == "exhaustive":
        return exhaustive_search(devs, objective, DEFAULT_ENUMERATION_CAP if cap is None else cap)
    if solver == "exact":
        return branch_and_bound(devs, budget_seconds, cap)
    if solver == "approx":
        return block_approximate(devs, budget_seconds)
    model = build_qubo(devs, annealing_penalty(devs) if rho is None else float(rho), gauge_fixed=True)
    return simulated_anneal(
        model,
        default_schedule(model, DEFAULT_SWEEPS if sweeps is None else sweeps),
        samples=DEFAULT_SAMPLES if samples is None else samples,
        seed=seed,
        devs=devs,
    )
