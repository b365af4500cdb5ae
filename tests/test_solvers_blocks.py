import itertools

import numpy as np
import pytest

import clutchopt as co
from clutchopt.errors import InvalidInputError
from clutchopt.solvers import split_disk_blocks
from clutchopt.stack import rotated_sum, rotations


def lex_first_range_optimum(rows):
    """Row 0 at shift 0 and the lex-first shifts of the others with the lowest range, by brute force."""
    best, best_shifts = None, None
    for rest in itertools.product(range(rows.shape[1]), repeat=len(rows) - 1):
        value = float(np.ptp(rotated_sum(rotations(rows), (0, *rest))))
        if best is None or value < best:
            best, best_shifts = value, (0, *rest)
    return best_shifts


def reference_approximate(devs):
    """block_approximate by its definition: each block solved alone, then its super-row rotated."""
    blocks = split_disk_blocks(devs.n_disks)
    internal = [lex_first_range_optimum(devs.devs[block]) for block in blocks]
    super_rows = np.array([rotated_sum(rotations(devs.devs[block]), s) for block, s in zip(blocks, internal)])
    rot = lex_first_range_optimum(super_rows)
    return tuple((s + rot[g]) % devs.n_segments for g in range(len(blocks)) for s in internal[g])


class TestSplit:
    def test_24_disks_is_three_blocks_of_eight(self):
        assert split_disk_blocks(24) == [list(range(8)), list(range(8, 16)), list(range(16, 24))]

    def test_9_disks_is_three_blocks_of_three(self):
        assert [len(b) for b in split_disk_blocks(9)] == [3, 3, 3]

    def test_4_disks(self):
        assert split_disk_blocks(4) == [[0], [1], [2, 3]]

    def test_blocks_partition_disks(self):
        for nd in range(3, 61):
            blocks = split_disk_blocks(nd)
            assert len(blocks) >= 3
            flat = [k for block in blocks for k in block]
            assert flat == list(range(nd))
            assert max(len(b) for b in blocks) <= 8

    @pytest.mark.parametrize(
        "nd, sizes", [(22, [7, 7, 8]), (23, [5, 5, 5, 8]), (26, [6, 6, 6, 8]), (35, [7, 7, 7, 7, 7])]
    )
    def test_the_last_block_holds_at_most_eight_disks(self, nd, sizes):
        assert [len(b) for b in split_disk_blocks(nd)] == sizes

    @pytest.mark.parametrize("nd", [-1, 0, 1, 2, 5.0, True])
    def test_fewer_than_three_disks_or_a_non_integer_is_rejected(self, nd):
        with pytest.raises(InvalidInputError, match="n_disks"):
            split_disk_blocks(nd)


class TestBlockApproximate:
    def test_delegates_below_four_disks(self):
        devs = co.deviations(co.generate_instance(3, 5, seed=8))
        approx = co.block_approximate(devs)
        exact = co.branch_and_bound(devs)
        assert approx.solver_id == "approx"
        assert approx.params["delegated"]
        assert approx.optimal
        assert approx.range == pytest.approx(exact.range, rel=1e-12, abs=1e-15)

    def test_all_zero_matches_exhaustive(self):
        devs = co.DeviationMatrix(np.zeros((6, 4)))
        result = co.block_approximate(devs)
        assert result.range == 0.0
        assert result.sigma == 0.0

    def test_never_beats_exact(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            nd = int(rng.integers(4, 8))
            ns = int(rng.integers(3, 7))
            devs = co.deviations(co.generate_instance(nd, ns, seed=int(rng.integers(1 << 31))))
            approx = co.block_approximate(devs)
            exact = co.branch_and_bound(devs)
            assert approx.range >= exact.range - 1e-9 * max(1.0, exact.range)
            assert not approx.optimal
            assert approx.shifts[0] == 0

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            nd = int(rng.integers(4, 10))
            ns = int(rng.integers(3, 8))
            devs = co.deviations(co.generate_instance(nd, ns, seed=int(rng.integers(1 << 31))))
            self.assert_matches_reference(devs)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_reference_at_7x42(self, seed):
        # every sub-search here is a single batch with no prefix disk
        self.assert_matches_reference(co.deviations(co.generate_instance(7, 42, 2.0, 0.1, seed=seed)))

    @staticmethod
    def assert_matches_reference(devs):
        result = co.block_approximate(devs)
        shifts = reference_approximate(devs)
        assert result.shifts == shifts
        assert result.range == pytest.approx(co.range_metric(co.apply_shifts(devs, shifts)), rel=1e-12)

    def test_metrics_recomputable(self):
        devs = co.deviations(co.generate_instance(9, 5, seed=4))
        result = co.block_approximate(devs)
        sigma, spread = co.shift_metrics(devs, result.shifts)
        assert sigma == pytest.approx(result.sigma, rel=1e-9)
        assert spread == pytest.approx(result.range, rel=1e-9)


class TestSolveDispatch:
    DEVS = co.DeviationMatrix(np.array([[-1.5, 0.5], [-0.5, 1.5]]))

    def test_unknown_solver(self):
        with pytest.raises(InvalidInputError):
            co.solve(self.DEVS, "quantum")

    def test_exact_on_example(self):
        assert co.solve(self.DEVS, "exact").range == 0.0

    def test_objective_routing(self):
        result = co.solve(self.DEVS, "exhaustive", objective="sigma")
        assert result.params["objective"] == "sigma"
        with pytest.raises(InvalidInputError):
            co.solve(self.DEVS, "exact", objective="sigma")
        with pytest.raises(InvalidInputError):
            co.solve(self.DEVS, "sa", objective="range")

    def test_approx_on_three_disks_delegates(self):
        devs = co.deviations(co.generate_instance(3, 4, seed=2))
        result = co.solve(devs, "approx")
        assert result.params["delegated"]
        assert result.range == pytest.approx(co.solve(devs, "exact").range, rel=1e-12)

    def test_sa_rho_override_recorded(self):
        result = co.solve(self.DEVS, "sa", rho=42.5, seed=1, sweeps=50, samples=5)
        assert result.params["rho"] == 42.5
        default = co.solve(self.DEVS, "sa", seed=1, sweeps=50, samples=5)
        assert default.params["rho"] == co.annealing_penalty(self.DEVS)

    def test_exhaustive_cap_forwarded(self):
        devs = co.deviations(co.generate_instance(5, 6, seed=3))
        with pytest.raises(co.ProblemTooLargeError):
            co.solve(devs, "exhaustive", cap=10)

    @pytest.mark.parametrize(
        "solver, kwargs",
        [
            ("sa", {"budget_seconds": float("nan")}),
            ("exhaustive", {"budget_seconds": -5.0}),
            ("exact", {"seed": 4}),
            ("exact", {"rho": -1.0}),
            ("exact", {"samples": 3}),
            ("exact", {"sweeps": 10}),
            ("approx", {"cap": 100}),
            ("sa", {"cap": 100}),
        ],
    )
    def test_rejects_parameters_the_solver_does_not_read(self, solver, kwargs):
        (name,) = kwargs
        with pytest.raises(InvalidInputError, match=f"{solver} does not take {name}"):
            co.solve(self.DEVS, solver, **kwargs)

    def test_exact_cap_is_an_enumeration_cap(self):
        devs = co.deviations(co.generate_instance(4, 6, seed=3))
        leaves = 6**3
        with pytest.raises(co.ProblemTooLargeError):
            co.solve(devs, "exact", cap=leaves - 1)
        capped = co.solve(devs, "exact", cap=leaves)
        free = co.solve(devs, "exact")
        assert capped.shifts == free.shifts
        assert capped.range == free.range
        assert capped.nodes_explored == free.nodes_explored == leaves
