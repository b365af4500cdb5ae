"""Solver portfolio behind one dispatch interface.

exhaustive  - oracle enumeration of every gauge-fixed configuration
exact       - screened enumeration, range-optimal, optional wall-clock budget and cap
approx      - block decomposition, fast but without optimality guarantee
sa          - simulated annealing on the gauge-fixed binary quadratic model
"""

from __future__ import annotations

from ..errors import InvalidInputError, check_integer
from ..qubo import annealing_penalty, build_qubo, check_penalty
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
from .exact import DEFAULT_ENUMERATION_CAP, _deadline, branch_and_bound, exhaustive_search
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
    "check_params",
    "default_beta_range",
    "default_schedule",
    "exhaustive_search",
    "simulated_anneal",
    "solve",
    "split_disk_blocks",
]


def check_params(solver: str, params: dict) -> str:
    """Check solver and its solve() params, None meaning not given; return the objective it optimizes."""
    if not isinstance(solver, str) or solver not in SOLVER_PARAMS:
        raise InvalidInputError(f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}")
    objectives = SOLVER_OBJECTIVES[solver]
    for name, value in params.items():
        if value is None:
            continue
        if name not in SOLVER_PARAMS[solver]:
            raise InvalidInputError(f"{solver} does not take {name}")
        if name == "objective" and value not in objectives:
            raise InvalidInputError(f"{solver} optimizes {' or '.join(objectives)} only, not {value!r}")
        if name in ("samples", "sweeps", "cap"):
            check_integer(name, value)
        elif name == "budget_seconds":
            _deadline(0.0, value)
        elif name == "rho":
            check_penalty(value)
        elif name == "seed":
            check_integer(name, value, 0)
    return params.get("objective") or objectives[0]


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

    check_params vets them first. exact and approx optimize the range, sa sigma
    (through the squared L2 objective), exhaustive either (range by default).
    cap is an enumeration cap, by default DEFAULT_ENUMERATION_CAP on exhaustive and none on exact.
    """
    given = dict(rho=rho, samples=samples, sweeps=sweeps, seed=seed, budget_seconds=budget_seconds, cap=cap)
    objective = check_params(solver, dict(given, objective=objective))

    if solver == "exhaustive":
        return exhaustive_search(devs, objective, DEFAULT_ENUMERATION_CAP if cap is None else cap)
    if solver == "exact":
        return branch_and_bound(devs, budget_seconds, cap)
    if solver == "approx":
        return block_approximate(devs, budget_seconds)
    model = build_qubo(devs, annealing_penalty(devs) if rho is None else rho, gauge_fixed=True)
    return simulated_anneal(
        model,
        default_schedule(model, DEFAULT_SWEEPS if sweeps is None else sweeps),
        samples=DEFAULT_SAMPLES if samples is None else samples,
        seed=seed,
        devs=devs,
    )
