"""Acceptance suite: one test per shipping criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

import clutchopt as co
from clutchopt.bench import default_config, emit_results, parse_results, run_benchmark
from clutchopt.qubo import InfeasibleSample


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status} - {detail}")
    assert ok, f"criterion {number:02d}: {detail}"


def rand_devs(nd, ns, seed):
    return co.deviations(co.generate_instance(nd, ns, seed=seed))


def all_bits(n):
    return ((np.arange(2**n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


def feasible_minimum(devs, model):
    """Minimum energy over all one-hot-feasible assignments, via encode."""
    nd, ns = devs.n_disks, devs.n_segments
    rows = [
        co.encode_shifts((0, *rest), ns, True)
        for rest in itertools.product(range(ns), repeat=nd - 1)
    ]
    return float(co.evaluate_batch(model, np.array(rows)).min())


def test_criterion_01_qubo_metric_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        nd = int(rng.integers(2, 5))
        ns = int(rng.integers(2, 7))
        devs = rand_devs(nd, ns, int(rng.integers(1 << 31)))
        sigma_opt = co.exhaustive_search(devs, objective="sigma").sigma
        model = co.build_qubo(devs, co.default_penalty(devs), gauge_fixed=True)
        minimum = feasible_minimum(devs, model)
        target = ns * sigma_opt**2
        worst = max(worst, abs(minimum - target) / (1e-9 * abs(target) + 1e-12))
        assert math.isclose(minimum, target, rel_tol=1e-9, abs_tol=1e-12)
    elapsed = time.perf_counter() - t0
    report(
        1,
        elapsed < 120,
        f"min feasible energy = NS*sigma_opt^2 on 200 instances "
        f"(worst case used {worst:.3f}x of the 1e-9 rel tolerance, {elapsed:.1f}s < 120s)",
    )


def test_criterion_02_exact_solver_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    mismatches = 0
    for _ in range(100):
        while True:
            nd = int(rng.integers(2, 6))
            ns = int(rng.integers(2, 11))
            if ns ** (nd - 1) <= 10_000:
                break
        devs = rand_devs(nd, ns, int(rng.integers(1 << 31)))
        bnb = co.branch_and_bound(devs)
        oracle = co.exhaustive_search(devs, objective="range")
        if not math.isclose(bnb.range, oracle.range, rel_tol=1e-9, abs_tol=1e-12):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        mismatches == 0 and elapsed < 120,
        f"branch-and-bound matches exhaustive range on 100 instances "
        f"({mismatches} mismatches, {elapsed:.1f}s < 120s)",
    )


def test_criterion_03_gauge_symmetry():
    rng = np.random.default_rng(303)
    for _ in range(50):
        nd = int(rng.integers(2, 5))
        ns = int(rng.integers(2, 8))
        devs = rand_devs(nd, ns, int(rng.integers(1 << 31)))
        shifts = tuple(int(rng.integers(ns)) for _ in range(nd))
        base = co.apply_shifts(devs, shifts)
        for _ in range(20):
            g = int(rng.integers(ns))
            moved = co.apply_shifts(devs, tuple((s + g) % ns for s in shifts))
            assert co.range_metric(moved) == co.range_metric(base)
            assert math.isclose(co.stddev(moved), co.stddev(base), rel_tol=1e-12, abs_tol=1e-300)

    free_sizes = [(2, 6), (2, 8), (3, 5), (4, 4), (3, 4), (2, 7)]
    for i, (nd, ns) in enumerate(free_sizes):
        assert nd * ns <= 16
        devs = rand_devs(nd, ns, 7000 + i)
        rho = co.default_penalty(devs)
        free = co.build_qubo(devs, rho, gauge_fixed=False)
        gauged = co.build_qubo(devs, rho, gauge_fixed=True)
        free_min = float(co.evaluate_batch(free, all_bits(free.n_vars)).min())
        gauged_min = float(co.evaluate_batch(gauged, all_bits(gauged.n_vars)).min())
        assert math.isclose(free_min, gauged_min, rel_tol=1e-9, abs_tol=1e-9)
    report(
        3,
        True,
        "metrics invariant under 20 global rotations on 50 instances; "
        f"free and gauge-fixed minima agree on {len(free_sizes)} instances up to 16 free variables",
    )


def test_criterion_04_penalty_safety():
    rng = np.random.default_rng(404)
    sizes = [(2, ns) for ns in range(2, 17)] + [(3, ns) for ns in range(2, 9)] + [(4, 4), (4, 5), (5, 4)]
    sizes = [s for s in sizes if (s[0] - 1) * s[1] <= 16]
    checked = 0
    for i in range(25):
        nd, ns = sizes[rng.integers(len(sizes))]
        devs = rand_devs(nd, ns, int(rng.integers(1 << 31)))
        rho = co.default_penalty(devs)
        model = co.build_qubo(devs, rho, gauge_fixed=True)
        batch = all_bits(model.n_vars)
        energies = co.evaluate_batch(model, batch)
        winner = batch[int(np.argmin(energies))].astype(int)
        assert not isinstance(co.decode_solution(winner, model), InfeasibleSample)
        infeasible = np.array(
            [
                isinstance(co.decode_solution(row.astype(int), model), InfeasibleSample)
                for row in batch
            ]
        )
        assert float(energies[infeasible].min()) >= rho * (1 - 1e-9) - 1e-12
        checked += 1
    report(
        4,
        True,
        f"global minimum feasible and infeasible energies >= rho on {checked} "
        "exhaustively enumerated models (n <= 16)",
    )


def test_criterion_05_metric_inequalities():
    rng = np.random.default_rng(505)
    for _ in range(10_000):
        ns = int(rng.integers(2, 49))
        profile = rng.normal(size=ns)
        profile -= profile.mean()
        spread = co.range_metric(profile)
        linf = co.ln_norm(profile, math.inf)
        pos_peak = float(np.maximum(profile, 0.0).max())
        neg_peak = float(np.maximum(-profile, 0.0).max())
        assert spread == pos_peak + neg_peak
        assert spread >= linf
        assert linf >= co.stddev(profile)
    report(5, True, "range = pos peak + neg peak, range >= Linf, Linf >= sigma on 10^4 profiles")


def test_criterion_06_sa_efficacy_desk_scale():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    sizes = [(2, ns) for ns in range(4, 13)] + [(3, 4), (3, 5), (3, 6), (4, 4)]
    hits = 0
    total = 50
    for _ in range(total):
        nd, ns = sizes[rng.integers(len(sizes))]
        assert (nd - 1) * ns <= 12
        devs = rand_devs(nd, ns, int(rng.integers(1 << 31)))
        oracle = co.exhaustive_search(devs, objective="sigma")
        result = co.solve(devs, "sa", seed=int(rng.integers(1 << 31)))
        assert result.samples_total == 35 and result.params["sweeps"] == 1500
        if result.shifts is None:
            assert result.samples_feasible == 0 and result.energy is not None
            continue
        sigma, _ = co.shift_metrics(devs, result.shifts)
        assert math.isclose(sigma, result.sigma, rel_tol=1e-9, abs_tol=1e-12)
        if result.sigma <= oracle.sigma * (1 + 1e-9) + 1e-15:
            hits += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        hits >= 0.9 * total and elapsed < 300,
        f"SA hit the oracle sigma-optimum on {hits}/{total} instances "
        f"(needs 45, {elapsed:.1f}s < 300s)",
    )


def _sa_wall_time(nd, ns, sweeps, repeats, samples, seed=11):
    devs = rand_devs(nd, ns, seed)
    model = co.build_qubo(devs, co.annealing_penalty(devs), gauge_fixed=True)
    times = []
    for rep in range(repeats):
        result = co.simulated_anneal(
            model, co.default_schedule(model, sweeps), samples=samples, seed=seed + rep, devs=devs
        )
        times.append(result.wall_time)
    return float(np.median(times))


@pytest.mark.slow
def test_criterion_07_sa_scaling():
    sweep_grid = np.array([500, 1500, 4500])
    sweep_times = np.array(
        [_sa_wall_time(2, 42, s, repeats=2, samples=35) for s in sweep_grid]
    )
    slope, intercept = np.polyfit(sweep_grid, sweep_times, 1)
    predicted = slope * sweep_grid + intercept
    ss_res = float(((sweep_times - predicted) ** 2).sum())
    ss_tot = float(((sweep_times - sweep_times.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot

    # measure the size exponent with enough chains that per-proposal work
    # (O(samples * n_vars) arithmetic) dominates fixed dispatch overhead;
    # at 35 chains and n <= 252 the interpreter constant masks the asymptote
    size_grid = [(2, 42), (3, 42), (5, 42), (7, 42)]
    n_vars = np.array([(nd - 1) * ns for nd, ns in size_grid])
    size_times = np.array(
        [_sa_wall_time(nd, ns, 120, repeats=2, samples=1024) for nd, ns in size_grid]
    )
    exponent = float(np.polyfit(np.log(n_vars), np.log(size_times), 1)[0])

    report(
        7,
        r_squared >= 0.95 and 1.5 <= exponent <= 2.5,
        f"sweep fit R^2 = {r_squared:.4f} (>= 0.95); n_vars scaling exponent "
        f"{exponent:.2f} within [1.5, 2.5] over {list(n_vars)} at 1024 chains",
    )


def test_criterion_08_approximate_quality_gap():
    strict = 0
    for i in range(20):
        devs = rand_devs(9, 6, 8800 + i)
        exact = co.branch_and_bound(devs)
        approx = co.block_approximate(devs)
        tol = 1e-9 * max(1.0, exact.range)
        assert approx.range >= exact.range - tol
        if approx.range > exact.range + tol:
            strict += 1
    report(
        8,
        strict >= 1,
        f"approximate range >= exact range on 20 9x6 instances, strictly worse on {strict}",
    )


@pytest.mark.slow
def test_criterion_09_end_to_end_benchmark():
    config = default_config()
    records = run_benchmark(config)
    expected = len(config.sizes) * config.instances_per_size * len(config.solvers)
    assert len(records) == expected
    assert len({(r.instance, r.solver) for r in records}) == expected

    csv_text = emit_results(records, "csv")
    parsed = parse_results(csv_text, "csv")
    by_instance = {}
    for rec in parsed:
        by_instance.setdefault(rec.instance, {})[rec.solver] = rec
    ordered = 0
    for group in by_instance.values():
        exact = group["exact"]
        if exact.status != "ok" or not exact.optimal:
            continue
        tol = 1e-9 * max(1.0, exact.range)
        for other in ("approx", "sa"):
            rec = group[other]
            if rec.status == "ok":
                assert exact.range <= rec.range + tol, (exact.instance, other)
                ordered += 1

    again = emit_results(run_benchmark(config), "csv")
    drop = csv_text.splitlines()[0].split(",").index("wall_time")

    def strip(text):
        return [
            tuple(cell for i, cell in enumerate(line.split(",")) if i != drop)
            for line in text.splitlines()
        ]

    assert strip(csv_text) == strip(again)
    report(
        9,
        ordered > 0,
        f"default grid: {expected} records, byte-stable modulo wall_time, "
        f"exact <= approx and exact <= sa on {ordered} ok comparisons",
    )


@pytest.mark.slow
def test_criterion_10_production_scale_smoke():
    budget = float(os.environ.get("CLUTCHOPT_BNB_BUDGET", "20"))
    assert budget <= 3600
    devs = rand_devs(7, 42, 4242)
    assert co.build_qubo(devs, 1.0, gauge_fixed=True).n_vars == 252

    sa = co.solve(devs, "sa", seed=4242)
    assert sa.shifts is not None, "SA produced no feasible sample"
    assert sa.shifts[0] == 0 and len(sa.shifts) == 7
    assert all(0 <= s < 42 for s in sa.shifts)
    assert sa.samples_feasible > 0

    bnb = co.branch_and_bound(devs, budget_seconds=budget)
    assert bnb.shifts[0] == 0 and len(bnb.shifts) == 7
    assert all(0 <= s < 42 for s in bnb.shifts)
    assert bnb.wall_time <= budget * 1.5 + 5
    report(
        10,
        True,
        f"252-variable instance: SA feasible in {sa.wall_time:.1f}s "
        f"({sa.samples_feasible}/35 samples), branch-and-bound returned a canonical "
        f"vector under a {budget:.0f}s budget (optimal={bnb.optimal})",
    )
