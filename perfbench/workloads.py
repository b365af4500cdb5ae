"""The benchmark's workloads: what one operation is, and how it is checked.

Every operation starts from instance text, as `clutchopt solve --instance`
does, and ends with the stacking a user receives. The benchmark times the
operation from outside; the checks, and the oracles they call, run after
the clock stops. Each check returns the problems it found and a record of
counts and quality numbers that must repeat exactly for the same seed.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

import clutchopt as co
from clutchopt.qubo import QuboModel, export_qubo, parse_qubo
from clutchopt.solvers import DEFAULT_SAMPLES, DEFAULT_SWEEPS
from clutchopt.stack import format_instance, parse_instance

A0 = 2.0
DELTA = 0.1
N_SEGMENTS = 42
TINY_SIZE = (3, 6)
# instance index of the warm-up case, beyond any run's operations
WARM_UP_INDEX = 2**31

# energy of a feasible stacking against n_segments * sigma**2
ENERGY_REL_TOL = 1e-9
# an annealed sigma may undercut the proven optimum only by rounding
SIGMA_SLACK = 1e-12
# two optimal ranges found along different summation paths
RANGE_REL_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    """Inputs of one operation, all derived from the workload seed."""

    index: int
    text: str
    solver_seed: int


@dataclass
class Outcome:
    devs: co.DeviationMatrix
    result: co.SolveResult
    answer_s: float
    op_s: float
    model: QuboModel | None = None
    qubo_text: str | None = None
    parsed: QuboModel | None = None


@dataclass
class Check:
    problems: list[str]
    record: dict


def _load(case: Case, tracer) -> co.DeviationMatrix:
    with tracer.span("stack.parse_instance"):
        stack = parse_instance(case.text)
    with tracer.span("stack.deviations"):
        return co.deviations(stack)


def _recompute(devs, shifts, tracer) -> tuple[float, float]:
    with tracer.span("stack.shift_metrics"):
        return co.shift_metrics(devs, shifts)


def _without_time(result: co.SolveResult) -> co.SolveResult:
    return dataclasses.replace(result, wall_time=0.0)


class Workload:
    name = ""
    key = 0
    n_disks = 0
    # the first `panel` operations always run, whatever the time limit, and
    # their records are the counts and quality numbers that must repeat
    panel = 0

    def __init__(self, tiny: bool = False) -> None:
        self.size = TINY_SIZE if tiny else (self.n_disks, N_SEGMENTS)

    def case(self, seed: int, index: int, size: tuple[int, int] | None = None) -> Case:
        state = np.random.SeedSequence([seed, self.key, index]).generate_state(2, np.uint32)
        nd, ns = self.size if size is None else size
        stack = co.generate_instance(nd, ns, A0, DELTA, seed=int(state[0]))
        return Case(index, format_instance(stack), int(state[1]))

    def warm_up_case(self, seed: int) -> Case:
        return self.case(seed, WARM_UP_INDEX, TINY_SIZE)

    def op(self, case: Case, tracer) -> Outcome:
        raise NotImplementedError

    def check(self, case: Case, out: Outcome, tracer) -> Check:
        raise NotImplementedError

    def summary(self, records: list[dict]) -> dict[str, float]:
        """Counts and quality numbers over the panel's records."""
        raise NotImplementedError


def _mean(records: list[dict], field: str) -> float:
    vals = [r[field] for r in records if field in r]
    return float(np.mean(vals)) if vals else 0.0


class AnnealWorkload(Workload):
    name = "sa-5x42"
    key = 1
    n_disks = 5
    panel = 4

    def op(self, case, tracer):
        t0 = time.perf_counter()
        devs = _load(case, tracer)
        if tracer.enabled:
            # the steps of solve(devs, "sa") made visible one span each;
            # the check proves they return what solve() returns
            with tracer.span("qubo.penalty"):
                rho = co.annealing_penalty(devs)
            with tracer.span("qubo.build"):
                model = co.build_qubo(devs, rho, gauge_fixed=True)
            with tracer.span("anneal.schedule"):
                schedule = co.default_schedule(model, sweeps=DEFAULT_SWEEPS)
            with tracer.span("anneal.search"):
                result = co.simulated_anneal(
                    model, schedule, samples=DEFAULT_SAMPLES, seed=case.solver_seed, devs=devs
                )
        else:
            result = co.solve(devs, "sa", seed=case.solver_seed)
        elapsed = time.perf_counter() - t0
        return Outcome(devs, result, elapsed, elapsed)

    def check(self, case, out, tracer):
        res, devs = out.result, out.devs
        problems: list[str] = []
        nd, ns = self.size
        record = {
            "proposals": res.samples_total * res.params["sweeps"] * (nd - 1) * ns,
            "chains": res.samples_total,
            "feasible_chains": res.samples_feasible,
        }
        if tracer.enabled and case.index == 0:
            direct = co.solve(devs, "sa", seed=case.solver_seed)
            if _without_time(direct) != _without_time(res):
                problems.append("the traced steps of sa differ from solve(devs, 'sa')")
        if res.shifts is None:
            problems.append("sa returned no feasible sample")
            return Check(problems, record)
        with tracer.span("exact.oracle"):
            oracle = co.exhaustive_search(devs, objective="sigma")
        sigma, _ = _recompute(devs, res.shifts, tracer)
        if sigma != res.sigma:
            problems.append(f"sa sigma {res.sigma!r} but its shifts give {sigma!r}")
        if sigma < oracle.sigma - SIGMA_SLACK:
            problems.append(f"sa sigma {sigma!r} below the proven optimum {oracle.sigma!r}")
        if not math.isclose(res.energy, ns * sigma**2, rel_tol=ENERGY_REL_TOL):
            problems.append(f"sa energy {res.energy!r} != n_segments * sigma^2 = {ns * sigma**2!r}")
        record.update(
            shifts=list(res.shifts),
            sigma_excess=sigma / oracle.sigma - 1.0,
            hit=float(sigma <= oracle.sigma * (1.0 + ENERGY_REL_TOL)),
        )
        return Check(problems, record)

    def summary(self, records):
        chains = sum(r["chains"] for r in records if "chains" in r)
        feasible = sum(r["feasible_chains"] for r in records if "chains" in r)
        return {
            "sigma_excess": _mean(records, "sigma_excess"),
            "hit_rate": _mean(records, "hit"),
            "anneal.proposals": _mean(records, "proposals"),
            "anneal.feasible_frac": feasible / chains if chains else 0.0,
        }


class ExactWorkload(Workload):
    name = "exact-5x42"
    key = 2
    n_disks = 5
    panel = 8

    def op(self, case, tracer):
        t0 = time.perf_counter()
        devs = _load(case, tracer)
        with tracer.span("exact.search"):
            result = co.solve(devs, "exact")
        elapsed = time.perf_counter() - t0
        return Outcome(devs, result, elapsed, elapsed)

    def check(self, case, out, tracer):
        res, devs = out.result, out.devs
        problems: list[str] = []
        record = {"leaves": res.nodes_explored, "range": res.range, "shifts": list(res.shifts)}
        if not res.optimal:
            problems.append("exact ran without a budget but did not claim optimality")
        with tracer.span("exact.oracle"):
            oracle = co.exhaustive_search(devs, objective="range")
        if not math.isclose(res.range, oracle.range, rel_tol=RANGE_REL_TOL, abs_tol=0.0):
            problems.append(f"exact range {res.range!r} != oracle range {oracle.range!r}")
        _, spread = _recompute(devs, res.shifts, tracer)
        if spread != res.range:
            problems.append(f"exact range {res.range!r} but its shifts give {spread!r}")
        return Check(problems, record)

    def summary(self, records):
        nd, ns = self.size
        leaves = _mean(records, "leaves")
        return {
            "range_mean": _mean(records, "range"),
            "exact.leaves": leaves,
            "exact.leaves_to_proof_frac": leaves / ns ** (nd - 1),
        }


def _model_mismatch(a: QuboModel, b: QuboModel) -> str | None:
    for field in ("n_vars", "offset", "rho", "var_map", "gauge_fixed", "n_disks", "n_segments"):
        if getattr(a, field) != getattr(b, field):
            return field
    if not np.array_equal(a.linear, b.linear):
        return "linear"
    if dict(a.quadratic) != dict(b.quadratic):
        return "quadratic"
    return None


class StationWorkload(Workload):
    name = "station-7x42"
    key = 3
    n_disks = 7
    panel = 24

    def op(self, case, tracer):
        t0 = time.perf_counter()
        devs = _load(case, tracer)
        with tracer.span("blocks.approx"):
            result = co.solve(devs, "approx")
        t_answer = time.perf_counter()
        with tracer.span("qubo.penalty"):
            rho = co.annealing_penalty(devs)
        with tracer.span("qubo.build"):
            model = co.build_qubo(devs, rho, gauge_fixed=True)
        with tracer.span("qubo.export"):
            text = export_qubo(model)
        with tracer.span("qubo.parse"):
            parsed = parse_qubo(text)
        t_end = time.perf_counter()
        return Outcome(devs, result, t_answer - t0, t_end - t0, model, text, parsed)

    def check(self, case, out, tracer):
        res, devs, model = out.result, out.devs, out.model
        problems: list[str] = []
        record = {
            "blocks_leaves": res.nodes_explored,
            "quadratic_entries": len(model.quadratic),
            "export_bytes": len(out.qubo_text.encode()),
        }
        if res.shifts is None:
            problems.append("approx returned no stacking")
            return Check(problems, record)
        record.update(range=res.range, shifts=list(res.shifts))
        sigma, spread = _recompute(devs, res.shifts, tracer)
        if spread != res.range:
            problems.append(f"approx range {res.range!r} but its shifts give {spread!r}")
        field = _model_mismatch(model, out.parsed)
        if field is not None:
            problems.append(f"parse_qubo(export_qubo(m)) differs from m in {field}")
        if export_qubo(out.parsed) != out.qubo_text:
            problems.append("re-exporting the parsed QUBO changed the text")
        bits = model.encode(res.shifts)
        with tracer.span("qubo.evaluate"):
            energy = co.evaluate(model, bits)
            energy_parsed = co.evaluate(out.parsed, bits)
        if energy != energy_parsed:
            problems.append(f"QUBO energy {energy!r} but {energy_parsed!r} after the round trip")
        ns = self.size[1]
        if not math.isclose(energy, ns * sigma**2, rel_tol=ENERGY_REL_TOL):
            problems.append(f"QUBO energy {energy!r} != n_segments * sigma^2 = {ns * sigma**2!r}")
        return Check(problems, record)

    def summary(self, records):
        return {
            "range_mean": _mean(records, "range"),
            "blocks.leaves": _mean(records, "blocks_leaves"),
            "qubo.quadratic_entries": _mean(records, "quadratic_entries"),
            "qubo.export_bytes": _mean(records, "export_bytes"),
        }


WORKLOADS = {w.name: w for w in (AnnealWorkload, ExactWorkload, StationWorkload)}
