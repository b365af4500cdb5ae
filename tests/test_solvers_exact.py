import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clutchopt as co
from clutchopt.errors import InvalidInputError, ProblemTooLargeError

EXAMPLE = co.DeviationMatrix(np.array([[-1.5, 0.5], [-0.5, 1.5]]))


def brute_optimum(devs, objective):
    """Plain-Python enumeration over all gauge-fixed shift vectors."""
    nd, ns = devs.devs.shape
    metric = co.range_metric if objective == "range" else co.stddev
    best = None
    for rest in itertools.product(range(ns), repeat=nd - 1):
        shifts = (0, *rest)
        value = metric(co.apply_shifts(devs, shifts))
        if best is None or value < best[0]:
            best = (value, shifts)
    return best


def random_devs(rng, max_leaves=10_000):
    while True:
        nd = int(rng.integers(2, 6))
        ns = int(rng.integers(2, 11))
        if ns ** (nd - 1) <= max_leaves:
            break
    return co.deviations(co.generate_instance(nd, ns, seed=int(rng.integers(1 << 31))))


class TestExhaustive:
    def test_hand_example(self):
        result = co.exhaustive_search(EXAMPLE, objective="range")
        assert result.shifts == (0, 1)
        assert result.range == 0.0
        assert result.sigma == 0.0
        assert result.nodes_explored == 2
        assert result.optimal

    def test_all_zero_ties_break_lexicographically(self):
        devs = co.DeviationMatrix(np.zeros((3, 4)))
        result = co.exhaustive_search(devs)
        assert result.shifts == (0, 0, 0)
        assert result.range == 0.0

    def test_single_disk(self):
        devs = co.deviations(co.DiskStack(np.array([[1.0, 2.0, 4.0]])))
        result = co.exhaustive_search(devs)
        assert result.shifts == (0,)
        assert result.nodes_explored == 1
        assert result.range == co.range_metric(co.apply_shifts(devs, (0,)))

    def test_cap_enforced(self):
        devs = co.deviations(co.generate_instance(9, 6, seed=1))
        with pytest.raises(ProblemTooLargeError):
            co.exhaustive_search(devs, cap=100)

    def test_rejects_unknown_objective(self):
        with pytest.raises(InvalidInputError):
            co.exhaustive_search(EXAMPLE, objective="mean")

    @pytest.mark.parametrize("objective", ["range", "sigma"])
    def test_matches_bruteforce(self, objective):
        rng = np.random.default_rng(10)
        for _ in range(12):
            devs = random_devs(rng, max_leaves=500)
            got = co.exhaustive_search(devs, objective=objective)
            value, shifts = brute_optimum(devs, objective)
            metric = got.range if objective == "range" else got.sigma
            assert metric == pytest.approx(value, rel=1e-12, abs=1e-15)
            assert got.shifts == shifts, "lexicographic tie-break must agree"

    def test_duplicate_disks_lex_tie_break(self):
        row = np.array([0.3, -0.1, -0.2])
        devs = co.DeviationMatrix(np.vstack([row, row, -2 * row]) - 0.0)
        got = co.exhaustive_search(devs, objective="range")
        value, shifts = brute_optimum(devs, "range")
        assert got.shifts == shifts


class TestBranchAndBound:
    def test_hand_example(self):
        result = co.branch_and_bound(EXAMPLE)
        assert result.shifts == (0, 1)
        assert result.range == 0.0
        assert result.optimal

    def test_all_zero_prunes_everything(self):
        devs = co.DeviationMatrix(np.zeros((4, 5)))
        result = co.branch_and_bound(devs)
        assert result.shifts == (0, 0, 0, 0)
        assert result.range == 0.0
        assert result.nodes_explored == 0
        assert result.optimal

    def test_single_disk(self):
        devs = co.deviations(co.DiskStack(np.array([[2.0, 1.0]])))
        result = co.branch_and_bound(devs)
        assert result.shifts == (0,)
        assert result.optimal

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            devs = random_devs(rng)
            exact = co.branch_and_bound(devs)
            oracle = co.exhaustive_search(devs, objective="range")
            assert exact.range == pytest.approx(oracle.range, rel=1e-9, abs=1e-12)
            assert exact.nodes_explored <= oracle.nodes_explored
            assert exact.optimal
            assert exact.shifts[0] == 0

    def test_identity_optimum_returned_when_already_best(self):
        base = np.array([[0.5, -0.25, -0.25], [-0.5, 0.25, 0.25]])
        devs = co.DeviationMatrix(base)
        result = co.branch_and_bound(devs)
        assert result.range == 0.0
        assert result.shifts == (0, 0)

    def test_budget_expiry_returns_incumbent(self):
        devs = co.deviations(co.generate_instance(7, 42, seed=9))
        result = co.branch_and_bound(devs, budget_seconds=0.1)
        assert result.wall_time < 5.0
        assert not result.optimal
        assert result.shifts[0] == 0
        assert all(0 <= s < 42 for s in result.shifts)
        sigma, spread = co.shift_metrics(devs, result.shifts)
        assert spread == pytest.approx(result.range, rel=1e-9)

    @pytest.mark.parametrize("nd, ns", [(3, 42), (4, 20), (4, 42)])
    def test_oracle_equivalence_past_the_head_screen(self, nd, ns):
        # more segments than the head screen covers, so survivors are finished on the rest
        for seed in range(3):
            devs = co.deviations(co.generate_instance(nd, ns, seed=seed))
            exact = co.branch_and_bound(devs)
            oracle = co.exhaustive_search(devs, objective="range")
            assert exact.range == oracle.range
            assert exact.shifts == oracle.shifts
            assert exact.optimal

    @pytest.mark.parametrize("nd", [3, 4])
    def test_integer_ties_past_the_head_screen(self, nd):
        # small centred integer rows: every sum is exact and optima tie
        for seed in range(12, 15):
            rows = np.random.default_rng(seed).integers(-2, 3, size=(nd, 24)).astype(float)
            rows[:, -1] -= rows.sum(axis=1)
            devs = co.DeviationMatrix(rows)
            exact = co.branch_and_bound(devs)
            oracle = co.exhaustive_search(devs, objective="range")
            assert exact.range == oracle.range
            sigma, spread = co.shift_metrics(devs, exact.shifts)
            assert spread == exact.range
            assert sigma == exact.sigma

    def test_leaves_count_every_leaf_reached(self):
        devs = co.deviations(co.generate_instance(4, 42, seed=1))
        assert co.branch_and_bound(devs).nodes_explored == 42**3

    @pytest.mark.parametrize("nd, ns", [(3, 24), (4, 24), (5, 10)])
    def test_ties_break_like_exhaustive(self, nd, ns):
        # centred integer rows: every sum is exact, so optima tie exactly
        for seed in range(12, 30):
            rows = np.random.default_rng(seed).integers(-2, 3, size=(nd, ns)).astype(float)
            rows[:, -1] -= rows.sum(axis=1)
            devs = co.DeviationMatrix(rows)
            assert co.branch_and_bound(devs).shifts == co.exhaustive_search(devs, "range").shifts

    @pytest.mark.parametrize("nd, ns", [(8, 6), (9, 6)])
    def test_completed_run_reaches_every_leaf(self, nd, ns):
        for seed in range(100, 105):
            result = co.branch_and_bound(co.deviations(co.generate_instance(nd, ns, seed=seed)))
            assert result.optimal
            assert result.range > 0.0
            assert result.nodes_explored == ns ** (nd - 1)

    @pytest.mark.parametrize("budget", [float("nan"), -5.0, -1e-9])
    def test_rejects_nan_or_negative_budget(self, budget):
        with pytest.raises(InvalidInputError):
            co.branch_and_bound(EXAMPLE, budget_seconds=budget)
        with pytest.raises(InvalidInputError):
            co.block_approximate(EXAMPLE, budget_seconds=budget)

    def test_zero_and_infinite_budgets_are_valid(self):
        devs = co.deviations(co.generate_instance(4, 6, seed=3))
        assert not co.branch_and_bound(devs, budget_seconds=0.0).optimal
        assert co.branch_and_bound(devs, budget_seconds=float("inf")).optimal

    @given(
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8),
        st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8),
    )
    def test_bound_lemma(self, p, q):
        # range(p + q) >= range(p) - range(q), the inequality behind pruning
        n = min(len(p), len(q))
        pa = np.array(p[:n])
        qa = np.array(q[:n])
        lhs = float(np.ptp(pa + qa))
        rhs = float(np.ptp(pa)) - float(np.ptp(qa))
        assert lhs >= rhs - 1e-9 * max(1.0, np.abs(pa).max(), np.abs(qa).max())


class TestSolveResultContract:
    @pytest.mark.parametrize("solver", ["exhaustive", "exact"])
    def test_metrics_recomputable_from_shifts(self, solver):
        devs = co.deviations(co.generate_instance(4, 5, seed=21))
        result = co.solve(devs, solver)
        sigma, spread = co.shift_metrics(devs, result.shifts)
        assert sigma == pytest.approx(result.sigma, rel=1e-9, abs=1e-12)
        assert spread == pytest.approx(result.range, rel=1e-9, abs=1e-12)
        assert result.samples_feasible <= result.samples_total
        assert result.wall_time >= 0.0
