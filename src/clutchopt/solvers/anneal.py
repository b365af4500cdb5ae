"""Simulated annealing over the binary quadratic model.

Every chain starts from a uniform random assignment and performs one
Metropolis sweep per temperature step: each variable is proposed for a
single-bit flip once per sweep in random order and accepted with
probability min(1, exp(-beta * dE)), so zero-cost moves always pass. The
inverse temperature follows a geometric ladder. Chains are advanced in one
vectorized batch.

Each sweep first builds its proposal table, one row per position in the
proposal order and one column per chain: the proposed variable, its flat
index into the chain states, and its current bit, sign 1 - 2x and linear
coefficient. A sweep proposes every variable exactly once, so the bits read
at the start of the sweep are still current when their turn comes. The
sweep also turns its uniforms u into thresholds log(u) / -beta, and a
proposal is accepted when dE < threshold, which is u < exp(-beta * dE)
without an exp per proposal (u = 0 always accepts). The two tests can
disagree only when u lies within rounding of exp(-beta * dE).

Each proposal recomputes its energy delta from its full coefficient row
against the current states: the rows are gathered with take and dotted with
the states by np.vecdot, an O(samples * n_vars) product, so a sweep that
runs costs O(samples * n_vars**2); the table only removes the small numpy
calls around that product.

Late in the schedule whole sweeps pass in which no chain moves. After such
a still sweep the states are known, so the loop builds the local field
(qubo.local_fields) once for the still stretch and tests all of the next
sweep's proposals against it at once. The field takes the same np.vecdot of
each state with each coupling row as a proposal does, so it equals every
proposal's delta bit for bit. A chain changes only through its own accepted
flips, and every proposal before the first accepted one sees the sweep's
starting states, so a sweep in which no proposal passes against the field is
exactly a sweep that moves nothing, and is skipped; its order and uniforms
are still drawn, which keeps the random stream aligned. A skipped sweep costs
O(samples * n_vars) numpy work, plus one O(samples * n_vars**2) field per
still stretch.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, check_integer
from ..qubo import InfeasibleSample, QuboModel, _objective_scale, decode_solution, evaluate_batch, local_fields
from ..rng import stream_rng
from ..stack import DeviationMatrix, canonicalize_shifts
from .result import SolveResult, scored

DEFAULT_SAMPLES = 35
DEFAULT_SWEEPS = 1500


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric inverse-temperature ladder, one sweep per step."""

    sweeps: int = DEFAULT_SWEEPS
    beta_initial: float = 0.1
    beta_final: float = 10.0

    def __post_init__(self) -> None:
        check_integer("sweeps", self.sweeps)
        # a bool is no beta, as check_band and check_integer reject it elsewhere
        real = all(isinstance(b, numbers.Real) and not isinstance(b, bool) for b in (self.beta_initial, self.beta_final))
        if not (real and 0 < self.beta_initial <= self.beta_final and math.isfinite(self.beta_final)):
            raise InvalidInputError("need real numbers 0 < beta_initial <= beta_final < inf")

    def betas(self) -> np.ndarray:
        return np.geomspace(self.beta_initial, self.beta_final, self.sweeps)


def default_beta_range(model: QuboModel) -> tuple[float, float]:
    """Auto-range the ladder from the model's coefficients.

    The magnitude sum of a variable's linear and coupling coefficients bounds
    its largest single-flip energy delta, which sets the hot end (that move
    accepted half the time). The cold end resolves the objective's own
    coefficient scale (accepted 1% of the time) rather than the smallest
    coefficient overall; aiming colder just wastes sweeps in a regime where
    one-hot constraints have long since frozen all movement. Overridable
    through an explicit schedule.
    """
    sums = np.abs(model.linear) + np.abs(model.coupling).sum(axis=1)
    if sums.size == 0 or sums.max() == 0:
        return 1.0, 1.0
    smallest = _objective_scale(model)
    if smallest == 0:
        steps = np.abs(np.concatenate([model.linear, model.coupling.ravel()]))
        smallest = float(steps[steps > 0].min())
    return math.log(2.0) / float(sums.max()), math.log(100.0) / smallest


def default_schedule(model: QuboModel, sweeps: int = DEFAULT_SWEEPS) -> AnnealSchedule:
    beta_initial, beta_final = default_beta_range(model)
    return AnnealSchedule(sweeps=sweeps, beta_initial=beta_initial, beta_final=beta_final)


def simulated_anneal(
    model: QuboModel,
    schedule: AnnealSchedule | None = None,
    samples: int = DEFAULT_SAMPLES,
    seed: int | None = None,
    devs: DeviationMatrix | None = None,
) -> SolveResult:
    """Run independent chains and keep the best feasible final sample.

    Infeasible samples are counted and discarded, never repaired; if no
    chain ends feasible the result carries shifts None and the best raw
    energy. Passing the deviation matrix fills in the recomputed sigma and
    range of the winning shifts. Same seed, same inputs: identical result.
    """
    if model.n_vars < 1:
        raise InvalidInputError("model has no variables to anneal")
    check_integer("samples", samples)
    if schedule is not None and not isinstance(schedule, AnnealSchedule):
        raise InvalidInputError(f"schedule must be an AnnealSchedule or None, got {schedule!r}")
    sched = schedule if schedule is not None else default_schedule(model)

    t0 = time.perf_counter()
    n = model.n_vars
    coupling, linear = model.coupling, model.linear
    rng = stream_rng("anneal", seed)
    x = rng.integers(0, 2, size=(samples, n)).astype(np.float64)
    flat = x.reshape(-1)
    offsets = np.arange(samples) * n
    field = None  # flat local field of x, kept while the last sweep moved no chain
    for beta in sched.betas():
        order = np.argsort(rng.random((samples, n)), axis=1)
        unif = rng.random((samples, n))
        var = np.ascontiguousarray(order.T)
        cell = var + offsets
        cur = flat[cell]
        signs = 1.0 - 2.0 * cur
        with np.errstate(divide="ignore"):
            threshold = np.ascontiguousarray(np.log(unif.T) / -beta)
        if field is not None and not (signs * field[cell] < threshold).any():
            continue
        start = x.copy()
        for v, c, sign, lin, limit, flipped in zip(var, cell, signs, linear[var], threshold, 1.0 - cur):
            act = np.vecdot(x, coupling.take(v, axis=0))
            flips = (sign * (lin + act) < limit).nonzero()[0]
            flat[c[flips]] = flipped[flips]
        # a sweep the screen lets through moves a chain, so a still sweep here starts a still stretch
        field = local_fields(model, x).reshape(-1) if np.array_equal(x, start) else None

    energies = evaluate_batch(model, x)
    feasible = []
    for c in range(samples):
        decoded = decode_solution(x[c].astype(np.int8), model)
        if not isinstance(decoded, InfeasibleSample):
            feasible.append((float(energies[c]), canonicalize_shifts(decoded, model.n_segments)))
    energy, shifts = min(feasible, default=(float(energies.min()), None))
    fields = {
        "energy": energy,
        "samples_total": samples,
        "samples_feasible": len(feasible),
        "seed": seed,
        "params": {
            "rho": model.rho,
            "samples": samples,
            "sweeps": sched.sweeps,
            "beta_initial": sched.beta_initial,
            "beta_final": sched.beta_final,
        },
    }
    if shifts is not None and devs is not None:
        return scored("sa", devs, shifts, t0, **fields)
    sigma = None if shifts is None else math.sqrt(max(energy, 0.0) / model.n_segments)
    return SolveResult("sa", shifts, sigma, None, wall_time=time.perf_counter() - t0, **fields)
