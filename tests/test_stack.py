import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import clutchopt as co
from clutchopt.errors import InvalidInputError
from conftest import devs_with_shifts, disk_stacks


def brute_deviations(heights):
    """Independent mean/subtract in plain Python loops."""
    total = 0.0
    count = 0
    for row in heights:
        for h in row:
            total += h
            count += 1
    mean = total / count
    return [[h - mean for h in row] for row in heights]


def brute_profile(devs, shifts):
    """Literal modular-index summation."""
    nd = len(devs)
    ns = len(devs[0])
    return [
        sum(devs[k][(i + shifts[k]) % ns] for k in range(nd))
        for i in range(ns)
    ]


class TestDeviations:
    def test_hand_example(self):
        devs = co.deviations(co.DiskStack(np.array([[1.0, 3.0], [2.0, 4.0]])))
        assert np.array_equal(devs.devs, [[-1.5, 0.5], [-0.5, 1.5]])

    def test_constant_matrix_is_zero(self):
        devs = co.deviations(co.DiskStack(np.full((3, 5), 7.25)))
        assert np.array_equal(devs.devs, np.zeros((3, 5)))

    def test_single_element(self):
        devs = co.deviations(co.DiskStack(np.array([[5.0]])))
        assert devs.devs[0, 0] == 0.0

    def test_subnormal_heights(self):
        # the mean of these heights rounds to 0, so they cannot be centered exactly
        heights = np.array([[0.0, 0.0, 0.0, 5e-324]])
        assert np.array_equal(co.deviations(co.DiskStack(heights)).devs, heights)

    def test_against_bruteforce(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            heights = rng.uniform(0.5, 9.5, size=(rng.integers(1, 6), rng.integers(1, 8)))
            got = co.deviations(co.DiskStack(heights)).devs
            want = np.array(brute_deviations(heights.tolist()))
            assert np.allclose(got, want, rtol=0, atol=1e-12)

    @given(disk_stacks())
    @example(co.DiskStack(np.array([[0.0, 0.0, 0.0, 5e-324]])))
    def test_mean_zero_invariant(self, stack):
        devs = co.deviations(stack)
        scale = np.abs(devs.devs).max()
        floor = max(1e-9 * scale, np.finfo(np.float64).smallest_subnormal)
        assert abs(devs.devs.sum()) <= devs.devs.size * floor

    def test_rejects_non_centered(self):
        with pytest.raises(InvalidInputError):
            co.DeviationMatrix(np.array([[1.0, 2.0]]))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: co.DiskStack([["a", "b"]]), "heights"),
        (lambda: co.DiskStack([[1.0, 2.0], [1.0]]), "heights"),
        (lambda: co.DeviationMatrix({}), "devs"),
        (lambda: co.stddev([1 + 1j, 2]), "profile"),
        # a complex dtype is refused before the cast to float64, which would warn and drop the imaginary parts
        (lambda: co.stddev(np.array([1 + 1j, -1 - 1j])), "profile"),
        (lambda: co.DiskStack(np.array([[1 + 0j, 2]])), "heights"),
        (lambda: co.DiskStack([np.array([1 + 0j, 2], dtype=np.complex64)]), "heights"),
        (lambda: co.DeviationMatrix(np.array([[1j, -1j]])), "devs"),
    ],
    ids=["strings", "ragged", "dict", "complex", "complex-array", "complex-reals", "complex-rows", "complex-devs"],
)
def test_values_that_are_no_real_array_raise_invalid_input(build, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"^{name} must be an array of real numbers"):
            build()


class TestApplyShifts:
    DEVS = co.DeviationMatrix(np.array([[-1.5, 0.5], [-0.5, 1.5]]))

    def test_zero_shift_example(self):
        profile = co.apply_shifts(self.DEVS, (0, 0))
        assert np.array_equal(profile, [-2.0, 2.0])

    def test_aligned_shift_example(self):
        profile = co.apply_shifts(self.DEVS, (0, 1))
        assert np.array_equal(profile, [0.0, 0.0])

    def test_identity_shift_is_column_sum(self):
        rng = np.random.default_rng(2)
        devs = co.deviations(co.DiskStack(rng.uniform(1, 2, size=(4, 5))))
        profile = co.apply_shifts(devs, (0, 0, 0, 0))
        assert np.allclose(profile, devs.devs.sum(axis=0), rtol=0, atol=0)

    @given(devs_with_shifts())
    def test_against_bruteforce(self, case):
        devs, shifts = case
        got = co.apply_shifts(devs, shifts)
        want = brute_profile(devs.devs.tolist(), shifts)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    @given(devs_with_shifts())
    def test_profile_sum_is_zero(self, case):
        devs, shifts = case
        profile = co.apply_shifts(devs, shifts)
        scale = np.abs(devs.devs).max()
        assert abs(profile.sum()) <= 1e-9 * devs.devs.size * max(scale, 1e-30)

    @given(devs_with_shifts())
    def test_read_only_and_equal_to_a_roll_sum(self, case):
        devs, shifts = case
        got = co.apply_shifts(devs, shifts)
        want = np.zeros(devs.n_segments)
        for row, shift in zip(devs.devs, shifts):
            want += np.roll(row, -shift)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert np.array_equal(got, want)

    def test_memory_is_linear_in_the_instance(self):
        devs = co.deviations(co.generate_instance(20, 500, seed=1))
        tracemalloc.start()
        try:
            co.apply_shifts(devs, tuple(range(20)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few copies of the 80 KB matrix, not the 40 MB table of every rotation
        assert peak < 1_000_000

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            co.apply_shifts(self.DEVS, (0, 0, 0))

    def test_shift_out_of_range(self):
        with pytest.raises(InvalidInputError):
            co.apply_shifts(self.DEVS, (0, 2))

    def test_non_integer_shift(self):
        with pytest.raises(InvalidInputError):
            co.apply_shifts(self.DEVS, (0, 0.5))


class TestMetrics:
    def test_stddev_hand_example(self):
        assert co.stddev(np.array([-2.0, 2.0])) == 2.0

    def test_stddev_zero_vector(self):
        assert co.stddev(np.zeros(4)) == 0.0

    def test_stddev_single_segment(self):
        assert co.stddev(np.array([-3.5])) == 3.5

    def test_range_hand_examples(self):
        assert co.range_metric(np.array([-2.0, 2.0])) == 4.0
        assert co.range_metric(np.zeros(2)) == 0.0
        assert co.range_metric(np.ones(3)) == 0.0

    def test_ln_norm_examples(self):
        profile = np.array([-2.0, 2.0])
        assert co.ln_norm(profile, 2) == math.sqrt(8.0)
        assert co.ln_norm(profile, math.inf) == 2.0
        assert co.ln_norm(np.zeros(2), 3) == 0.0

    @pytest.mark.parametrize("scale", [1e-300, 3e-200, 1e-160, 1e160, 3e200, 1e300])
    def test_stddev_and_l2_at_extreme_magnitudes(self, scale):
        # squared directly, 3e200 overflows to inf and 3e-200 underflows to 0
        with np.errstate(all="raise"):
            assert co.stddev(np.array([scale, -scale])) == scale
            assert co.ln_norm(np.array([3 * scale, -4 * scale]), 2) == pytest.approx(5 * scale, rel=1e-15)

    def test_stddev_and_l2_bit_identical_at_ordinary_magnitudes(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.normal(size=int(rng.integers(1, 50))) * 10.0 ** rng.uniform(-100, 100)
            assert co.stddev(d) == float(np.sqrt(np.sum(d * d) / d.size))
            assert co.ln_norm(d, 2) == float(np.sqrt(np.sum(d * d)))

    def test_solve_reports_finite_sigma_at_large_magnitudes(self):
        devs = co.deviations(co.generate_instance(3, 6, seed=1))
        big = co.DeviationMatrix(devs.devs * 1e200)
        got = co.solve(big, "exact")
        assert got.shifts == co.solve(devs, "exact").shifts
        sigma, _ = co.shift_metrics(devs, got.shifts)
        assert got.sigma == pytest.approx(sigma * 1e200, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 1075, 10**6])
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_higher_ln_norms_at_extreme_magnitudes(self, n, scale):
        # raised to the power n directly, 1e200 overflows to inf and 1e-200 underflows to 0;
        # past n = 1074 even a largest term scaled into [0.5, 1), as 1.0 is to 0.5, underflows
        with np.errstate(all="raise"):
            got = co.ln_norm(np.array([scale, -scale]), n)
        assert got == pytest.approx(scale * 2.0 ** (1.0 / n), rel=1e-12)

    @pytest.mark.parametrize("values", [[math.nan, 1.0], [math.inf, -1.0], [-math.inf, 0.0, 1.0]])
    @pytest.mark.parametrize(
        "metric",
        [co.stddev, co.range_metric, lambda d: co.ln_norm(d, 2), lambda d: co.ln_norm(d, math.inf)],
        ids=["stddev", "range", "l2", "linf"],
    )
    def test_metrics_reject_non_finite(self, metric, values):
        with pytest.raises(InvalidInputError):
            metric(np.array(values))

    def test_ln_norm_rejects_bad_order(self):
        profile = np.array([1.0, -1.0])
        for bad in (0, -1, 1.5, True):
            with pytest.raises(InvalidInputError):
                co.ln_norm(profile, bad)

    @given(devs_with_shifts())
    def test_stddev_matches_l2(self, case):
        devs, shifts = case
        profile = co.apply_shifts(devs, shifts)
        expected = math.sqrt(1.0 / devs.n_segments) * co.ln_norm(profile, 2)
        assert co.stddev(profile) == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @given(devs_with_shifts())
    def test_range_decomposes_into_extremes(self, case):
        devs, shifts = case
        d = co.apply_shifts(devs, shifts)
        pos_peak = float(np.maximum(d, 0.0).max())
        neg_peak = float(np.maximum(-d, 0.0).max())
        # the identity is exact for exactly mean-zero profiles; allow the
        # fp residual of centering, which is what bounds the profile sum
        slack = 1e-12 * devs.devs.size * max(float(np.abs(devs.devs).max()), 1e-300)
        assert co.range_metric(d) == pytest.approx(pos_peak + neg_peak, abs=slack)
        assert co.range_metric(d) >= co.ln_norm(d, math.inf) - slack

    @given(devs_with_shifts())
    def test_linf_dominates_stddev(self, case):
        devs, shifts = case
        profile = co.apply_shifts(devs, shifts)
        linf = co.ln_norm(profile, math.inf)
        # 4-ulp slack: equal-magnitude profiles can round sqrt up a hair
        assert co.stddev(profile) <= linf * (1 + 4e-16) + 1e-300


class TestGaugeInvariance:
    @given(devs_with_shifts(), st.integers(0, 5))
    def test_global_rotation_preserves_metrics(self, case, g):
        devs, shifts = case
        ns = devs.n_segments
        rotated = tuple((s + g) % ns for s in shifts)
        base = co.apply_shifts(devs, shifts)
        moved = co.apply_shifts(devs, rotated)
        assert co.range_metric(base) == co.range_metric(moved)
        assert co.stddev(base) == pytest.approx(co.stddev(moved), rel=1e-12, abs=1e-300)

    def test_canonicalize_examples(self):
        assert co.canonicalize_shifts((3, 5, 3), 6) == (0, 2, 0)
        assert co.canonicalize_shifts((0, 1), 2) == (0, 1)
        assert co.canonicalize_shifts((4, 4, 4, 4), 5) == (0, 0, 0, 0)

    @pytest.mark.parametrize("shifts", [(0, 1.7), (0, 2.5), (), ("a",), (0, 4), (-1, 0), (0, True), 3])
    def test_canonicalize_rejects_bad_shifts(self, shifts):
        with pytest.raises(InvalidInputError):
            co.canonicalize_shifts(shifts, 4)

    @pytest.mark.parametrize("helper", [co.canonicalize_shifts, co.encode_shifts])
    @pytest.mark.parametrize("n_segments", [2.5, 2.0, "3", True, None, 0, -2])
    def test_shift_helpers_reject_a_segment_count_that_is_no_positive_integer(self, helper, n_segments):
        with pytest.raises(InvalidInputError, match="n_segments must be"):
            helper((0, 1), n_segments)

    @given(devs_with_shifts())
    def test_canonicalize_is_idempotent_and_metric_preserving(self, case):
        devs, shifts = case
        canon = co.canonicalize_shifts(shifts, devs.n_segments)
        assert canon[0] == 0
        assert co.canonicalize_shifts(canon, devs.n_segments) == canon
        assert co.range_metric(co.apply_shifts(devs, canon)) == co.range_metric(
            co.apply_shifts(devs, shifts)
        )


class TestGenerateInstance:
    def test_zero_variation_gives_exact_target(self):
        stack = co.generate_instance(3, 4, 2.0, 0.0, seed=1)
        assert np.array_equal(stack.heights, np.full((3, 4), 2.0))

    def test_seed_reproducibility(self):
        a = co.generate_instance(5, 7, 2.0, 0.1, seed=42)
        b = co.generate_instance(5, 7, 2.0, 0.1, seed=42)
        assert np.array_equal(a.heights, b.heights)

    def test_different_seeds_differ(self):
        a = co.generate_instance(5, 7, 2.0, 0.1, seed=42)
        b = co.generate_instance(5, 7, 2.0, 0.1, seed=43)
        assert not np.array_equal(a.heights, b.heights)

    def test_bad_dimensions(self):
        with pytest.raises(InvalidInputError):
            co.generate_instance(0, 4)
        with pytest.raises(InvalidInputError):
            co.generate_instance(4, 0)
        with pytest.raises(InvalidInputError):
            co.generate_instance(2, 2, 2.0, -0.1)
        # a size is an integer: a float or a bool is not, a numpy integer is
        for nd, ns in [(2.5, 3), (True, 3), (3, 4.0), (3, False)]:
            with pytest.raises(InvalidInputError, match="must be an integer"):
                co.generate_instance(nd, ns)
        assert co.generate_instance(np.int64(2), np.int64(3), seed=1).heights.shape == (2, 3)

    @pytest.mark.parametrize(
        "a0, delta",
        [
            (2.0, math.nan),
            (2.0, math.inf),
            (math.nan, 0.1),
            (-math.inf, 0.1),
            (1.7e308, 1e308),
            ("2.0", 0.1),
            (2.0, "0.1"),
            (True, 0.1),
            (2.0, True),
            (None, 0.1),
            (2.0, -0.1),
        ],
    )
    def test_rejects_non_finite_band(self, a0, delta):
        with pytest.raises(InvalidInputError):
            co.generate_instance(2, 2, a0, delta)
        # the stack checks the same rule, all but the band's overflow, which only generation meets
        if (a0, delta) != (1.7e308, 1e308):
            with pytest.raises(InvalidInputError, match="must be a finite number|must be >= 0"):
                co.DiskStack(np.full((2, 2), 2.0), a0, delta)

    def test_histogram_bounds_and_mean(self):
        # 10^5 samples: hard bounds plus mean within 3 standard errors
        stack = co.generate_instance(200, 500, 2.0, 0.1, seed=7)
        h = stack.heights
        assert h.min() >= 2.0 - 0.05
        assert h.max() <= 2.0 + 0.05
        se = (0.1 / math.sqrt(12.0)) / math.sqrt(h.size)
        assert abs(h.mean() - 2.0) <= 3 * se

    def test_instance_and_anneal_streams_differ(self):
        from clutchopt.rng import stream_rng

        a = stream_rng("instance", 5).uniform(size=8)
        b = stream_rng("anneal", 5).uniform(size=8)
        assert not np.array_equal(a, b)


class TestInstanceFile:
    def test_round_trip_exact(self, tmp_path):
        stack = co.generate_instance(3, 5, 2.0, 0.1, seed=11)
        path = tmp_path / "inst.txt"
        co.write_instance(stack, path)
        back = co.read_instance(path)
        assert np.array_equal(back.heights, stack.heights)
        assert back.target_thickness == stack.target_thickness
        assert back.max_variation == stack.max_variation
        assert back.seed == stack.seed

    def test_missing_seed_round_trip(self, tmp_path):
        stack = co.DiskStack(np.array([[1.0, 2.0], [3.0, 0.0]]), 1.5, 3.0, None)
        path = tmp_path / "inst.txt"
        co.write_instance(stack, path)
        back = co.read_instance(path)
        assert back.seed is None
        assert np.array_equal(back.heights, stack.heights)

    def test_format_shape(self):
        stack = co.generate_instance(2, 3, seed=0)
        lines = co.stack.format_instance(stack).splitlines()
        assert lines[0] == "2 3"
        assert lines[1].endswith(" 0")
        assert len(lines) == 4

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2 2\n2.0 0.1\n1 2\n3 4",
            "2 2\n2.0 0.1 -\n1 2",
            "2 2\n2.0 0.1 -\n1 2\n3 x",
            "junk\n2.0 0.1 -\n1 2\n3 4",
            "1 -1\n2.0 0.1 -\n1.0",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(InvalidInputError):
            co.stack.parse_instance(text)

    def test_parse_rejects_a_seed_generate_instance_refuses(self):
        # a seed is an integer >= 0, as generate_instance requires, so the instance can be regenerated
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            co.stack.parse_instance("2 2\n2.0 0.1 -7\n1 2\n3 4")
        with pytest.raises(InvalidInputError, match="seed must be"):
            co.DiskStack(np.zeros((2, 2)), seed=1.5)
        assert co.stack.parse_instance("2 2\n2.0 0.1 7\n1 2\n3 4").seed == 7

    @pytest.mark.parametrize("header", ["nan nan -", "2.0 nan -", "inf 0.1 -", "2.0 inf 0"])
    def test_parse_rejects_non_finite_header(self, header):
        with pytest.raises(InvalidInputError):
            co.stack.parse_instance(f"2 2\n{header}\n1 2\n3 4")
