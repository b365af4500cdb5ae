import contextlib
import itertools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clutchopt as co
from clutchopt.errors import InvalidInputError, ProblemTooLargeError
from clutchopt.solvers import exact as exact_module
from clutchopt.solvers import parallel
from clutchopt.stack import rotated_sum, rotations

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


def near_tie_rows(seed):
    """4x42 rows whose optimal range beats the next by about 1e-10 of itself, below float32's resolution.

    Disk 1 is 1e-10 the size of disk 0 and the tail disks are flat, so disk
    1's shift alone decides the range, and for seeds 0 to 5 its best shift
    lies in a float32 batch (shift 9 or later).
    """
    rng = np.random.default_rng(seed)
    rows = np.zeros((4, 42))
    rows[:2] = rng.normal(size=(2, 42)) * [[1.0], [1e-10]]
    return rows - rows.mean(axis=1, keepdims=True)


class TestTailTable:
    @pytest.mark.parametrize("ns, m", [(42, 2), (10, 3), (6, 4)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_column_is_the_rotated_sum_of_its_lex_digits(self, ns, m, seed):
        # exact and exhaustive share this table; rows of mixed scales make the order of the adds
        # show in the bits, and the two rows ahead of the tail are never read
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(m + 2, ns)) * 10.0 ** rng.integers(-3, 4, size=(m + 2, 1))
        shifted = rotations(rows)
        table = exact_module._tail_columns(shifted, range(2, m + 2))
        want = [rotated_sum(shifted[2:], digits) for digits in itertools.product(range(ns), repeat=m)]
        assert table.dtype == np.float64
        assert table.tobytes() == np.array(want).T.tobytes()


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

    @pytest.mark.parametrize("search", [co.exhaustive_search, co.branch_and_bound])
    @pytest.mark.parametrize("cap", ["x", 0, -1, True, 2.5])
    def test_cap_checked_as_solve_checks_it(self, search, cap):
        with pytest.raises(InvalidInputError) as solved:
            co.solve(EXAMPLE, "exhaustive", cap=cap)
        with pytest.raises(InvalidInputError) as searched:
            search(EXAMPLE, cap=cap)
        assert str(searched.value) == str(solved.value)

    @pytest.mark.parametrize("objective", ["range", "sigma"])
    def test_matches_bruteforce(self, objective):
        rng = np.random.default_rng(10)
        # up to 500 leaves the tail holds every free disk; at 4x17 it holds 2 of 3, so the prefix loop runs
        for devs in [random_devs(rng, max_leaves=500) for _ in range(12)] + [
            co.deviations(co.generate_instance(4, 17, seed=10))
        ]:
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

    # (3, 42): no prefix disk, so ranging the lex-first prefix is the whole search; (4, 42):
    # batches of 9 prefixes, the last of 6; (6, 10) and (5, 20): one batch per outer prefix disk's
    # shift. At (4, 20), (4, 24) and (5, 10) all prefixes fit in one batch, so batches are shrunk
    # to screen more than one.
    @pytest.mark.parametrize(
        "nd, ns, batch_leaves",
        [
            (3, 42, None), (4, 20, 2048), (4, 42, None), (4, 24, 2048),
            (5, 10, 2048), (6, 10, None), (5, 20, None),
        ],
    )
    def test_oracle_equivalence_past_the_head_screen(self, nd, ns, batch_leaves, monkeypatch):
        # the float32 screen ranges 3 + 3 of these segments, so its survivors are finished on the rest
        if batch_leaves:
            monkeypatch.setattr(exact_module, "_BATCH_LEAVES", batch_leaves)
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

    @pytest.mark.parametrize(
        "nd, ns, batch_leaves",
        [(3, 24, None), (4, 24, 2048), (5, 10, 2048), (4, 42, None), (6, 10, None), (5, 20, None)],
    )
    def test_ties_break_like_exhaustive(self, nd, ns, batch_leaves, monkeypatch):
        # centred integer rows: every sum is exact, so optima tie exactly; batch_leaves as above
        if batch_leaves:
            monkeypatch.setattr(exact_module, "_BATCH_LEAVES", batch_leaves)
        for seed in range(12, 30):
            rows = np.random.default_rng(seed).integers(-2, 3, size=(nd, ns)).astype(float)
            rows[:, -1] -= rows.sum(axis=1)
            devs = co.DeviationMatrix(rows)
            assert co.branch_and_bound(devs).shifts == co.exhaustive_search(devs, "range").shifts

    @given(
        st.integers(4, 6).flatmap(
            lambda nd: st.integers(3, 10).flatmap(
                lambda ns: st.lists(
                    st.lists(st.integers(-2, 2), min_size=ns, max_size=ns), min_size=nd, max_size=nd
                )
            )
        )
    )
    def test_integer_rows_match_exhaustive(self, cells):
        # small integers: every sum is exact, so optima tie and the lex-first one must win
        rows = np.array(cells, dtype=float)
        rows[:, -1] -= rows.sum(axis=1)
        devs = co.DeviationMatrix(rows)
        exact = co.branch_and_bound(devs)
        oracle = co.exhaustive_search(devs, objective="range")
        assert exact.shifts == oracle.shifts
        assert exact.range == oracle.range
        assert exact.optimal

    @pytest.mark.parametrize(
        "nd, ns, prefix, leaves",
        # batches of 9, 16 and 16 prefixes, all screened in float32; the zero falls inside the
        # second batch, the first and only one, and the batch after an outer prefix disk's first
        [(4, 42, (12,), 13 * 42**2), (5, 10, (3,), 4 * 10**3), (6, 10, (1, 2), 13 * 10**3)],
    )
    def test_zero_range_stops_after_its_prefix(self, nd, ns, prefix, leaves):
        # the prefix disks at these shifts cancel disk 0 exactly; the tail disks are flat
        rows = np.zeros((nd, ns))
        rows[0] = np.random.default_rng(ns).integers(-3, 4, size=ns)
        rows[0, -1] -= rows[0].sum()
        for k, shift in enumerate(prefix, start=1):
            rows[k] = np.roll(-rows[0] / len(prefix), shift)
        result = co.branch_and_bound(co.DeviationMatrix(rows))
        assert result.range == 0.0
        assert result.shifts == (0, *prefix) + (0,) * (nd - 1 - len(prefix))
        assert result.nodes_explored == leaves

    @given(
        st.integers(6, 10).flatmap(
            lambda ns: st.lists(st.lists(st.integers(-2, 2), min_size=ns, max_size=ns), min_size=6, max_size=6)
        )
    )
    def test_integer_rows_at_six_disks_match_exhaustive_in_float32_batches(self, cells):
        # one prefix per batch: from 6 segments on there are at least 6 prefixes, so every
        # example screens at least 5 batches in float32; integer rows make optima tie
        rows = np.array(cells, dtype=float)
        rows[:, -1] -= rows.sum(axis=1)
        devs = co.DeviationMatrix(rows)
        with mock.patch.object(exact_module, "_BATCH_LEAVES", 1):
            exact = co.branch_and_bound(devs)
        oracle = co.exhaustive_search(devs, objective="range")
        assert exact.shifts == oracle.shifts
        assert exact.range == oracle.range
        assert exact.optimal

    @pytest.mark.parametrize("scale", [1e-300, 1e-40, 1.0, 1e39, 1e300])
    def test_float32_screen_at_extreme_magnitudes(self, scale):
        # 4x42 screens its 5 batches in float32; unscaled, float32 overflows at 1e300 and
        # at 1e39 rounds far beyond the margin, and without the margin the near ties are lost
        instances = [co.deviations(co.generate_instance(4, 42, seed=seed)).devs for seed in range(2)]
        for rows in instances + [near_tie_rows(seed) for seed in range(3)]:
            devs = co.DeviationMatrix(rows * scale)
            exact = co.branch_and_bound(devs)
            oracle = co.exhaustive_search(devs, objective="range")
            assert exact.shifts == oracle.shifts
            assert exact.range == oracle.range
            assert exact.nodes_explored == 42**3

    def test_budget_expiry_stops_at_a_batch_boundary(self):
        devs = co.deviations(co.generate_instance(7, 42, seed=3))
        result = co.branch_and_bound(devs, budget_seconds=0.2)
        assert not result.optimal
        # every batch screens whole prefixes of 42**2 tail leaves each
        assert 0 < result.nodes_explored < 42**6
        assert result.nodes_explored % 42**2 == 0
        assert result.range == co.range_metric(co.apply_shifts(devs, result.shifts))
        assert result.range <= co.range_metric(co.apply_shifts(devs, (0,) * 7))

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

    def test_zero_budget_with_prefix_disks_returns_the_identity(self):
        # 5x42 has a prefix disk, so the deadline is checked before the lex-first prefix is ranged
        devs = co.deviations(co.generate_instance(5, 42, seed=1))
        result = co.branch_and_bound(devs, budget_seconds=0)
        assert result.shifts == (0,) * 5
        assert result.nodes_explored == 0
        assert not result.optimal

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


@contextlib.contextmanager
def split_into(parts, part_leaves=1):
    """Run as if on this many CPUs, with parts of at least part_leaves leaves; yields the forks made here."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    with (
        mock.patch.object(exact_module, "_PART_LEAVES", part_leaves),
        mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(parts)), create=True),
        mock.patch.object(os, "fork", fork),
    ):
        yield forks


def refuse_fork():
    raise AssertionError("os.fork called")


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def zero_range_rows(nd, ns, prefixes):
    """Rows whose range is 0 exactly where disk 1 sits at one of prefixes, the other free disks at 0.

    Disk 0 repeats a pattern of ns // len(prefixes) segments, disk 1 cancels
    it at the first prefix, and so at each of them when they are that period
    apart; the free disks after disk 1 are flat.
    """
    period = ns // len(prefixes)
    rows = np.zeros((nd, ns))
    pattern = np.random.default_rng(ns).integers(-3, 4, size=period).astype(float)
    pattern[-1] -= pattern.sum()
    rows[0] = np.tile(pattern, len(prefixes))
    rows[1] = np.roll(-rows[0], prefixes[0])
    return co.DeviationMatrix(rows)


def assert_same_search(devs, parts=3):
    """branch_and_bound split into parts gives what one process and exhaustive_search give.

    Only a range of 0 at the identity or in the lex-first prefix ends the
    search before it splits.
    """
    one = co.branch_and_bound(devs)
    with split_into(parts) as forks:
        split = co.branch_and_bound(devs)
    assert forks or split.range == 0.0
    assert no_children_left()
    oracle = co.exhaustive_search(devs, objective="range")
    assert split.shifts == one.shifts == oracle.shifts
    assert split.range.hex() == one.range.hex() == oracle.range.hex()
    assert split.optimal and one.optimal
    assert split.nodes_explored == one.nodes_explored
    return split


class TestSplitSearch:
    @given(
        st.integers(6, 9).flatmap(
            lambda ns: st.lists(st.lists(st.integers(-2, 2), min_size=ns, max_size=ns), min_size=6, max_size=6)
        ),
        st.integers(2, 4),
    )
    def test_integer_rows_match_one_process_and_exhaustive(self, cells, parts):
        # 6 disks from 6 segments on keep a prefix disk; small integer rows tie exactly, and one
        # prefix per batch cuts the 6 to 9 prefixes into parts of one or more
        rows = np.array(cells, dtype=float)
        rows[:, -1] -= rows.sum(axis=1)
        with mock.patch.object(exact_module, "_BATCH_LEAVES", 1):
            assert_same_search(co.DeviationMatrix(rows), parts)

    @pytest.mark.parametrize("nd, ns", [(5, 10), (4, 42), (6, 10)])
    def test_generated_instances_match_one_process_and_exhaustive(self, nd, ns):
        for seed in range(3):
            result = assert_same_search(co.deviations(co.generate_instance(nd, ns, seed=seed)))
            assert result.nodes_explored == ns ** (nd - 1)

    @pytest.mark.parametrize(
        "prefixes, leaves",
        # 4x42 walks 5 batches of up to 9 prefixes, cut into parts of batches 0, 1-2 and 3-4:
        # a zero in the first part, in a later one, and in the second and third, where the
        # second's wins and the third's is never read
        [((3,), 4 * 42**2), ((12,), 13 * 42**2), ((12, 33), 13 * 42**2)],
    )
    def test_zero_range_in_any_part_counts_leaves_as_one_loop(self, prefixes, leaves):
        devs = zero_range_rows(4, 42, prefixes)
        with split_into(3) as forks:
            co.branch_and_bound(devs)
        assert len(forks) == 2
        result = assert_same_search(devs)
        assert result.range == 0.0
        assert result.shifts == (0, prefixes[0], 0, 0)
        assert result.nodes_explored == leaves

    def test_zero_budget_returns_the_identity_without_forking(self):
        devs = co.deviations(co.generate_instance(5, 42, seed=1))
        with split_into(2), mock.patch.object(os, "fork", refuse_fork):
            result = co.branch_and_bound(devs, budget_seconds=0)
        assert result.shifts == (0,) * 5
        assert result.nodes_explored == 0
        assert not result.optimal

    def test_budgeted_split_returns_a_consistent_incumbent(self):
        devs = co.deviations(co.generate_instance(7, 42, seed=3))
        with split_into(2) as forks:
            result = co.branch_and_bound(devs, budget_seconds=0.2)
        assert forks
        assert no_children_left()
        assert not result.optimal
        assert 0 < result.nodes_explored < 42**6
        assert result.nodes_explored % 42**2 == 0
        assert result.range == co.range_metric(co.apply_shifts(devs, result.shifts))

    def test_a_child_that_raises_raises_here_and_leaves_no_child(self, monkeypatch):
        parent = os.getpid()
        screen = exact_module._screened_ranges

        def failing_in_children(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("screen failed in a child")
            return screen(*args)

        monkeypatch.setattr(exact_module, "_screened_ranges", failing_in_children)
        with split_into(2) as forks, pytest.raises(ZeroDivisionError):
            co.branch_and_bound(co.deviations(co.generate_instance(4, 42, seed=1)))
        assert forks
        assert no_children_left()

    def test_fork_map_raises_the_first_exception_in_part_order(self):
        def fn(part):
            if part == 1:
                raise KeyError(part)
            if part == 2:
                raise ValueError(part)
            return part * 10

        assert list(parallel.fork_map(fn, [0, 3, 4])) == [0, 30, 40]
        with pytest.raises(KeyError):
            list(parallel.fork_map(fn, [0, 1, 2]))
        assert no_children_left()

    def test_fork_map_closed_early_ends_its_children(self):
        results = parallel.fork_map(lambda part: part, [0, 1, 2])
        assert next(results) == 0
        results.close()
        assert no_children_left()

    def test_failed_fork_runs_the_parts_here(self):
        def failing_fork():
            raise OSError("fork failed")

        with mock.patch.object(os, "fork", failing_fork):
            assert list(parallel.fork_map(lambda part: -part, [1, 2, 3])) == [-1, -2, -3]

    def test_block_approximate_at_7x42_never_forks(self):
        devs = co.deviations(co.generate_instance(7, 42, seed=1))
        one = co.block_approximate(devs)
        with mock.patch.object(os, "fork", refuse_fork):
            result = co.block_approximate(devs)
        assert result.shifts == one.shifts
        assert result.nodes_explored == one.nodes_explored

    def test_only_walks_of_two_parts_split(self):
        # on two CPUs 5x42 walks 3,111,696 leaves, two parts, and 4x42 74,088, too few; 3x6 has no prefix
        with split_into(2, exact_module._PART_LEAVES) as forks:
            for nd, ns in [(3, 6), (4, 42), (5, 42)]:
                co.branch_and_bound(co.deviations(co.generate_instance(nd, ns, seed=1)))
                assert len(forks) == (nd == 5)


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
