import re
import itertools
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import clutchopt as co
from clutchopt.errors import InvalidInputError
from clutchopt.qubo import InfeasibleSample
from conftest import deviation_matrices, devs_with_shifts

SRC = Path(__file__).resolve().parents[1] / "src"
EXAMPLE = co.DeviationMatrix(np.array([[-1.5, 0.5], [-0.5, 1.5]]))
# a well-formed export of a gauge-fixed 2x2 stack with no coefficients
TWO_VARS = "QUBO 2 0 1\n# gauge_fixed 1\n# disks 2 segments 2\n# varmap 0 -> 1,0\n# varmap 1 -> 1,1\n"


def direct_energy(devs, rho, gauge_fixed, bits):
    """Literal cost function: squared profile norm plus one-hot penalties.

    Plain Python loops over the defining double sums, independent of the
    coefficient expansion under test.
    """
    b = devs.devs.tolist()
    nd = len(b)
    ns = len(b[0])
    k0 = 1 if gauge_fixed else 0
    x = [bits[(k - k0) * ns : (k - k0 + 1) * ns] for k in range(k0, nd)]
    total = 0.0
    for i in range(ns):
        dh = b[0][i] if gauge_fixed else 0.0
        for pos, k in enumerate(range(k0, nd)):
            for j in range(ns):
                dh += b[k][(i + j) % ns] * x[pos][j]
        total += dh * dh
    for pos in range(nd - k0):
        total += rho * (sum(x[pos]) - 1) ** 2
    return total


def reference_export(model):
    """One f-string per line, the export format written out literally.

    export_qubo writes its Q block in bulk; it must give these bytes.
    """
    lines = [f"QUBO {model.n_vars} {model.offset:.17g} {model.rho:.17g}"]
    lines.append(f"# gauge_fixed {int(model.gauge_fixed)}")
    lines.append(f"# disks {model.n_disks} segments {model.n_segments}")
    lines.extend(f"# varmap {i} -> {k},{j}" for i, (k, j) in enumerate(model.var_map))
    lines.extend(f"L {i} {c:.17g}" for i, c in enumerate(model.linear.tolist()) if c != 0.0)
    rows, cols = model.quadratic.pairs()
    values = model.coupling[rows, cols].tolist()
    lines.extend(f"Q {i} {j} {c:.17g}" for i, j, c in zip(rows.tolist(), cols.tolist(), values))
    return "\n".join(lines) + "\n"


def all_assignments(n):
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.float64) if n else np.zeros((1, 0))


class TestBuildQubo:
    def test_frozen_example_coefficients(self):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=True)
        assert model.n_vars == 2
        assert model.offset == 12.5
        assert np.array_equal(model.linear, [-4.5, -12.5])
        assert dict(model.quadratic) == {(0, 1): 17.0}
        assert model.var_map == ((1, 0), (1, 1))

    def test_all_zero_devs_is_pure_penalty(self):
        devs = co.DeviationMatrix(np.zeros((3, 4)))
        rho = 2.5
        model = co.build_qubo(devs, rho, gauge_fixed=True)
        assert model.offset == rho * 2
        assert np.array_equal(model.linear, np.full(8, -rho))
        for (i, j), coeff in model.quadratic.items():
            assert model.var_map[i][0] == model.var_map[j][0]
            assert coeff == 2 * rho

    def test_single_disk_gauge_fixed_has_no_variables(self):
        devs = co.deviations(co.DiskStack(np.array([[1.0, 2.0, 6.0]])))
        model = co.build_qubo(devs, 5.0, gauge_fixed=True)
        assert model.n_vars == 0
        assert model.offset == pytest.approx(float(devs.devs[0] @ devs.devs[0]))
        assert co.evaluate(model, []) == model.offset

    def test_variable_counts(self):
        devs = co.deviations(co.generate_instance(7, 42, seed=0))
        assert co.build_qubo(devs, 1.0, gauge_fixed=True).n_vars == 252
        devs2 = co.deviations(co.generate_instance(2, 3, seed=0))
        assert co.build_qubo(devs2, 1.0, gauge_fixed=False).n_vars == 6
        assert co.build_qubo(devs2, 1.0, gauge_fixed=True).n_vars == 3

    @pytest.mark.parametrize("gauge_fixed", ["no", "1", 1, 0, None, 1.0])
    def test_rejects_gauge_fixed_other_than_a_bool(self, gauge_fixed):
        with pytest.raises(InvalidInputError, match="gauge_fixed must be a bool"):
            co.build_qubo(EXAMPLE, 2.0, gauge_fixed=gauge_fixed)
        with pytest.raises(InvalidInputError, match="gauge_fixed must be a bool"):
            co.QuboModel(0.0, np.zeros(2), np.zeros((2, 2)), 1.0, gauge_fixed, 2, 2)
        with pytest.raises(InvalidInputError, match="gauge_fixed must be a bool"):
            co.encode_shifts((0, 1, 1), 2, gauge_fixed)

    def test_numpy_bool_gauge_fixed_is_stored_as_a_bool(self):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=np.True_)
        assert model.gauge_fixed is True
        assert model.n_vars == 2

    def test_rejects_nonpositive_rho(self):
        for rho in (0.0, -1.0, math.inf, math.nan, "abc", None):
            with pytest.raises(InvalidInputError):
                co.build_qubo(EXAMPLE, rho)

    def test_quadratic_keys_upper_triangular(self):
        devs = co.deviations(co.generate_instance(3, 4, seed=3))
        model = co.build_qubo(devs, 2.0, gauge_fixed=False)
        for i, j in model.quadratic:
            assert 0 <= i < j < model.n_vars

    def test_within_disk_pairs_always_present(self):
        devs = co.deviations(co.generate_instance(3, 5, seed=4))
        model = co.build_qubo(devs, 3.0, gauge_fixed=True)
        ns = devs.n_segments
        for block in range(2):
            for j in range(ns):
                for j2 in range(j + 1, ns):
                    assert (block * ns + j, block * ns + j2) in model.quadratic

    def test_prunes_negligible_cross_terms(self):
        devs = co.DeviationMatrix(np.array([[-1.0, 1.0], [1e-14, -1e-14], [1.0, -1.0]]))
        model = co.build_qubo(devs, 10.0, gauge_fixed=True)
        touched = {
            tuple(sorted((model.var_map[i][0], model.var_map[j][0])))
            for i, j in model.quadratic
            if model.var_map[i][0] != model.var_map[j][0]
        }
        # disk1-disk2 couplings (~1e-14 against coefficients ~20) are below
        # the relative noise threshold and must be pruned; disk 2 still
        # couples to the frozen disk through its linear terms
        assert (1, 2) not in touched
        penalty_pairs = [
            key
            for key in model.quadratic
            if model.var_map[key[0]][0] == model.var_map[key[1]][0] == 1
        ]
        assert penalty_pairs, "within-disk penalty pairs survive pruning"

    @given(deviation_matrices(max_disks=3, max_segments=3), st.booleans())
    def test_matches_direct_energy_on_all_assignments(self, devs, gauge_fixed):
        rho = co.default_penalty(devs)
        model = co.build_qubo(devs, rho, gauge_fixed=gauge_fixed)
        if model.n_vars > 10:
            return
        scale = max(1.0, abs(model.offset), float(np.abs(model.linear).max(initial=0.0)))
        for bits in itertools.product((0, 1), repeat=model.n_vars):
            want = direct_energy(devs, rho, gauge_fixed, list(bits))
            got = co.evaluate(model, np.array(bits))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9 * scale)


class TestEvaluate:
    def test_frozen_energies(self):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=True)
        assert co.evaluate(model, [0, 1]) == 0.0
        assert co.evaluate(model, [1, 0]) == 8.0
        assert co.evaluate(model, [0, 0]) == 12.5

    def test_length_mismatch(self):
        model = co.build_qubo(EXAMPLE, 10.0)
        with pytest.raises(InvalidInputError):
            co.evaluate(model, [0, 1, 1])

    @pytest.mark.parametrize("value", [2.0, -1.0, math.nan])
    def test_rejects_entries_other_than_0_and_1(self, value):
        model = co.build_qubo(co.deviations(co.generate_instance(3, 4, seed=1)), 2.0)
        with pytest.raises(InvalidInputError, match="assignment entries must be 0 or 1"):
            co.evaluate(model, [value] * 8)
        with pytest.raises(InvalidInputError, match="assignment entries must be 0 or 1"):
            co.evaluate_batch(model, np.full((2, 8), value))

    @pytest.mark.parametrize(
        "bits",
        [["1", "0"] * 4, ["a", "0"] * 4, np.array([1, 0] * 4, dtype=object), np.array([1, 0] * 4, dtype=complex)],
        ids=["1", "a", "object", "complex"],
    )
    def test_rejects_text_entries(self, bits):
        # float() would read "1" and "0" as bits, and 1 == 1+0j; only bools and real numbers are bits
        model = co.build_qubo(co.deviations(co.generate_instance(3, 4, seed=1)), 2.0)
        with pytest.raises(InvalidInputError, match="assignment entries must be 0 or 1"):
            co.evaluate(model, bits)
        with pytest.raises(InvalidInputError, match="assignment entries must be 0 or 1"):
            co.evaluate_batch(model, [bits, bits])
        with pytest.raises(InvalidInputError, match="assignment entries must be 0 or 1"):
            co.decode_solution(bits, model)

    def test_rejects_a_ragged_list(self):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=True)
        ragged = [[0, 1], [1]]
        with pytest.raises(InvalidInputError, match="^bits must be an array"):
            co.evaluate(model, ragged)
        with pytest.raises(InvalidInputError, match="^bits must be an array"):
            co.evaluate_batch(model, ragged)
        with pytest.raises(InvalidInputError, match="^bits must be an array"):
            co.decode_solution(ragged, model)

    def test_accepts_bool_and_integer_bits(self):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=True)
        for bits in ([False, True], np.array([0, 1], dtype=np.uint8), [0, 1]):
            assert co.evaluate(model, bits) == 0.0

    # the annealer's delta rule against the energy: flipping bit v of x moves
    # evaluate_batch by (1 - 2 x[v]) * local_fields(model, x)[v]
    @pytest.mark.parametrize("nd", [5, 7])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_flip_changes_energy_by_its_local_field(self, nd, seed):
        devs = co.deviations(co.generate_instance(nd, 42, seed=seed))
        model = co.build_qubo(devs, co.annealing_penalty(devs))
        # a row's magnitude sum bounds the energy change of flipping its bit
        scale = (np.abs(model.linear) + np.abs(model.coupling).sum(axis=1)).max()
        rng = np.random.default_rng(seed)
        states = rng.integers(0, 2, size=(3, model.n_vars)).astype(np.float64)
        fields = co.local_fields(model, states)
        every = np.arange(model.n_vars)
        for x, field in zip(states, fields):
            flipped = np.repeat(x[None], model.n_vars, axis=0)
            flipped[every, every] = 1.0 - x
            delta = co.evaluate_batch(model, flipped) - co.evaluate(model, x)
            assert np.abs(delta - (1.0 - 2.0 * x) * field).max() <= 1e-12 * scale

    def test_batch_matches_scalar(self):
        devs = co.deviations(co.generate_instance(3, 3, seed=5))
        model = co.build_qubo(devs, 4.0, gauge_fixed=True)
        batch = all_assignments(model.n_vars)
        energies = co.evaluate_batch(model, batch)
        for row, energy in zip(batch, energies):
            assert energy == pytest.approx(co.evaluate(model, row), rel=1e-12)

    @given(devs_with_shifts(max_disks=4, max_segments=5))
    def test_feasible_energy_equals_squared_l2(self, case):
        devs, shifts = case
        canon = co.canonicalize_shifts(shifts, devs.n_segments)
        rho = co.default_penalty(devs)
        model = co.build_qubo(devs, rho, gauge_fixed=True)
        energy = co.evaluate(model, co.encode_shifts(canon, devs.n_segments))
        want = co.ln_norm(co.apply_shifts(devs, canon), 2) ** 2
        scale = max(1.0, rho, float(np.abs(model.linear).max(initial=0.0)))
        assert energy == pytest.approx(want, rel=1e-9, abs=1e-9 * scale)

    @given(deviation_matrices(max_disks=3, max_segments=3))
    def test_infeasible_floor(self, devs):
        rho = co.default_penalty(devs)
        model = co.build_qubo(devs, rho, gauge_fixed=True)
        if model.n_vars > 10:
            return
        batch = all_assignments(model.n_vars)
        energies = co.evaluate_batch(model, batch)
        for row, energy in zip(batch, energies):
            if isinstance(co.decode_solution(row.astype(int), model), InfeasibleSample):
                assert energy >= rho * (1 - 1e-9) - 1e-12


class TestEncodeDecode:
    def test_encode_examples(self):
        assert np.array_equal(co.encode_shifts((0, 1), 2, True), [0, 1])
        assert np.array_equal(co.encode_shifts((0, 0), 2, True), [1, 0])
        assert np.array_equal(
            co.encode_shifts((0, 0, 0), 2, False), [1, 0, 1, 0, 1, 0]
        )

    def test_gauge_violation(self):
        with pytest.raises(InvalidInputError):
            co.encode_shifts((1, 0), 2, True)

    @pytest.mark.parametrize("gauge_fixed", [True, False])
    @pytest.mark.parametrize("shifts", [(0, 2.5), (), ("a",), (0, 4), (0, -1), (0, True)])
    def test_encode_rejects_bad_shifts(self, shifts, gauge_fixed):
        with pytest.raises(InvalidInputError):
            co.encode_shifts(shifts, 4, gauge_fixed)
        model = co.build_qubo(co.deviations(co.generate_instance(2, 4, seed=1)), 1.0, gauge_fixed)
        with pytest.raises(InvalidInputError):
            model.encode(shifts)

    def test_decode_examples(self):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=True)
        assert co.decode_solution(np.array([0, 1]), model) == (0, 1)
        bad2 = co.decode_solution(np.array([1, 1]), model)
        assert isinstance(bad2, InfeasibleSample)
        assert bad2.violations == ((1, 2),)
        bad0 = co.decode_solution(np.array([0, 0]), model)
        assert bad0.violations == ((1, 0),)

    def test_decode_rejects_junk_values(self):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=True)
        with pytest.raises(InvalidInputError):
            co.decode_solution(np.array([2, 0]), model)

    @given(devs_with_shifts(max_disks=4, max_segments=4), st.booleans())
    def test_decode_inverts_encode(self, case, gauge_fixed):
        devs, shifts = case
        canon = co.canonicalize_shifts(shifts, devs.n_segments)
        use = canon if gauge_fixed else shifts
        model = co.build_qubo(devs, 1.0, gauge_fixed=gauge_fixed)
        assert co.decode_solution(model.encode(use), model) == use


class TestPenalties:
    def test_default_penalty_example(self):
        assert co.default_penalty(EXAMPLE) == 19.0

    def test_default_penalty_all_zero(self):
        assert co.default_penalty(co.DeviationMatrix(np.zeros((2, 3)))) == 1.0

    def test_default_penalty_scaling(self):
        base = co.default_penalty(EXAMPLE) - 1.0
        scaled = co.default_penalty(co.DeviationMatrix(3.0 * EXAMPLE.devs)) - 1.0
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_annealing_penalty_scales_with_bound(self):
        assert co.annealing_penalty(EXAMPLE) == pytest.approx(0.3 * 18.0)
        assert co.annealing_penalty(co.DeviationMatrix(np.zeros((2, 2)))) == 1.0

    @given(deviation_matrices(max_disks=3, max_segments=3))
    def test_default_penalty_keeps_minimum_feasible(self, devs):
        model = co.build_qubo(devs, co.default_penalty(devs), gauge_fixed=True)
        if model.n_vars > 12:
            return
        batch = all_assignments(model.n_vars)
        energies = co.evaluate_batch(model, batch)
        winner = batch[int(np.argmin(energies))].astype(int)
        assert not isinstance(co.decode_solution(winner, model), InfeasibleSample)


class TestExport:
    def test_line_counts_for_example(self):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=True)
        lines = co.export_qubo(model).splitlines()
        assert sum(1 for ln in lines if ln.startswith("QUBO ")) == 1
        assert sum(1 for ln in lines if ln.startswith("L ")) == 2
        assert sum(1 for ln in lines if ln.startswith("Q ")) == 1
        assert sum(1 for ln in lines if ln.startswith("# varmap")) == 2

    def test_empty_model_export(self):
        devs = co.deviations(co.DiskStack(np.array([[1.0, 2.0]])))
        model = co.build_qubo(devs, 2.0, gauge_fixed=True)
        lines = co.export_qubo(model).splitlines()
        assert lines[0].startswith("QUBO 0 ")
        assert not [ln for ln in lines if ln.startswith(("L ", "Q "))]

    def _assert_models_equal(self, a, b):
        assert a.n_vars == b.n_vars
        assert a.offset == b.offset
        assert a.rho == b.rho
        assert np.array_equal(a.linear, b.linear)
        assert np.array_equal(a.coupling, b.coupling)
        assert dict(a.quadratic) == dict(b.quadratic)
        assert a.var_map == b.var_map
        assert a.gauge_fixed == b.gauge_fixed
        assert (a.n_disks, a.n_segments) == (b.n_disks, b.n_segments)

    @given(deviation_matrices(max_disks=3, max_segments=4), st.booleans())
    def test_round_trip_exact(self, devs, gauge_fixed):
        model = co.build_qubo(devs, co.default_penalty(devs), gauge_fixed=gauge_fixed)
        text = co.export_qubo(model)
        assert text == reference_export(model)
        self._assert_models_equal(co.parse_qubo(text), model)

    @pytest.mark.parametrize("nd", [5, 7])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_export_bytes_at_production_size(self, nd, seed):
        devs = co.deviations(co.generate_instance(nd, 42, 2.0, 0.1, seed=seed))
        model = co.build_qubo(devs, co.annealing_penalty(devs), gauge_fixed=True)
        text = co.export_qubo(model)
        assert text == reference_export(model)
        self._assert_models_equal(co.parse_qubo(text), model)

    def test_export_keeps_negative_zero_apart(self):
        # -0.0 on both sides of the diagonal passes the triangle check and
        # sums to a -0.0 coupling, which equals 0.0 as a float
        upper = np.zeros((4, 4))
        upper[0, 1] = upper[1, 0] = -0.0
        model = co.QuboModel(0.0, np.zeros(4), upper, 1.0, True, 3, 2)
        text = co.export_qubo(model)
        assert text == reference_export(model)
        assert text.endswith("Q 0 1 -0\nQ 2 3 0\n")

    def test_whitespace_tolerated(self):
        model = co.build_qubo(co.deviations(co.generate_instance(3, 4, seed=7)), 2.0, gauge_fixed=True)
        canonical = co.export_qubo(model)
        lines = canonical.splitlines()
        messy = ["", "  " + lines[0] + " "] + [
            ("\t" if n % 3 == 0 else " " * (n % 4)) + ln.replace(" ", " \t"[n % 2]) + "  " * (n % 2)
            for n, ln in enumerate(lines[1:])
        ]
        messy[5:5] = ["", "\t", "   "]
        text = "\r\n".join(messy) + "\r\n\r\n"
        assert "\t" in text and "\r\n" in text and "\n \n" not in canonical
        self._assert_models_equal(co.parse_qubo(text), co.parse_qubo(canonical))
        self._assert_models_equal(co.parse_qubo(text), model)

    def test_model_derives_its_layout(self):
        model = co.QuboModel(0.0, np.zeros(4), np.zeros((4, 4)), 1.0, False, 2, 2)
        assert model.n_vars == 4
        assert model.var_map == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert dict(model.quadratic) == {(0, 1): 0.0, (2, 3): 0.0}
        # the view holds only those keys: a cross-disk zero, a lower or an out-of-range pair is none
        assert len(model.quadratic) == 2
        for key in [(0, 2), (1, 0), (0, 4), (-1, 1)]:
            assert key not in model.quadratic
            with pytest.raises(KeyError):
                model.quadratic[key]

    @pytest.mark.parametrize(
        "linear, upper, nd, ns",
        [
            (np.zeros(3), np.zeros((4, 4)), 3, 2),
            (np.zeros(4), np.zeros((3, 3)), 3, 2),
            (np.zeros((4, 1)), np.zeros((4, 4)), 3, 2),
            (np.zeros(4), np.zeros((4, 4)), 2, 2),
            (np.zeros(0), np.zeros((0, 0)), 0, 2),
            (np.zeros(0), np.zeros((0, 0)), 2, 0),
            (np.zeros(4), np.zeros((4, 4)), 3.0, 2),
            (np.zeros(4), np.zeros((4, 4)), 3, "2"),
        ],
    )
    def test_model_rejects_inputs_off_the_layout(self, linear, upper, nd, ns):
        with pytest.raises(InvalidInputError):
            co.QuboModel(0.0, linear, upper, 1.0, True, nd, ns)

    @pytest.mark.parametrize("cell", [(1, 0), (2, 2)], ids=["below", "diagonal"])
    def test_model_rejects_upper_off_the_strict_upper_triangle(self, cell):
        upper = np.zeros((4, 4))
        upper[cell] = 1.0
        with pytest.raises(InvalidInputError, match="^upper must be strictly upper-triangular$"):
            co.QuboModel(0.0, np.zeros(4), upper, 1.0, True, 3, 2)

    @pytest.mark.parametrize("offset, rho", [("1", None), (None, 1.0), (0.0, "abc"), ([1.0, 2.0], 1.0), (0.0, {})])
    def test_model_rejects_an_offset_or_rho_float_cannot_read(self, offset, rho):
        with pytest.raises(InvalidInputError, match="offset and rho must be numbers"):
            co.QuboModel(offset, np.zeros(4), np.zeros((4, 4)), rho, True, 3, 2)

    @pytest.mark.parametrize("offset, rho", [("1", "1"), (np.float32(1.5), True), (np.int64(2), np.float16(0.5))])
    def test_model_stores_offset_and_rho_as_python_floats(self, offset, rho):
        model = co.QuboModel(offset, np.zeros(4), np.zeros((4, 4)), rho, True, 3, 2)
        assert type(model.offset) is float and model.offset == float(offset)
        assert type(model.rho) is float and model.rho == float(rho)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "linear, upper, name",
        [
            (["a"], np.zeros((1, 1)), "linear"),
            # text is refused even where float() reads it
            (["1.5"], [["0"]], "linear"),
            ([0.0], [["0"]], "upper"),
            ([0.0], [[0.0], [0.0, 1.0]], "upper"),
            # a complex dtype is refused before the cast to float64, which would warn and drop the imaginary parts
            (np.zeros(1, dtype=complex), np.zeros((1, 1)), "linear"),
            (np.zeros(1), np.array([[1j]]), "upper"),
            ([0.0], [[0j]], "upper"),
        ],
        ids=["strings", "numeric-text-linear", "numeric-text-upper", "ragged", "complex-linear", "complex-upper", "complex-list"],
    )
    def test_model_rejects_values_that_are_no_real_array(self, linear, upper, name):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an array of real numbers"):
            co.QuboModel(0.0, linear, upper, 1.0, False, 1, 1)

    def test_huge_disks_header_fails_before_any_layout(self):
        # a 1000 x 1000 layout would take about 88 MB of tuples
        text = TWO_VARS.replace("disks 2 segments 2", "disks 1000 segments 1000")
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="do not fit"):
                co.parse_qubo(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_each_variable_needs_its_varmap_line(self):
        with pytest.raises(InvalidInputError, match="^1 varmap lines for 2 variables$"):
            co.parse_qubo(TWO_VARS.replace("# varmap 1 -> 1,1\n", ""))

    def test_file_round_trip(self, tmp_path):
        model = co.build_qubo(EXAMPLE, 10.0, gauge_fixed=True)
        path = tmp_path / "model.qubo"
        co.export_qubo(model, path)
        self._assert_models_equal(co.load_qubo(path), model)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "QUBO x 1 1",
            "QUBO 1 0.0 1.0\nL 0 1.0",
            "QUBO 1 0.0 1.0\n# disks 2 segments 1\nwat 0 1",
            "QUBO -1 0 1",
            TWO_VARS + "L -1 5.0",
            TWO_VARS.replace("QUBO 2 0 1", "QUBO 2 nan 1"),
            TWO_VARS + "Q 0 1 inf",
            TWO_VARS.replace("gauge_fixed 1", "gauge_fixed 5"),
            TWO_VARS.replace("1 -> 1,1", "1 -> 1,0"),
            TWO_VARS.replace("varmap 1 ->", "varmap 5 ->"),
            TWO_VARS.replace("disks 2", "disks 9"),
            # every kind of line has an exact token count
            TWO_VARS.replace("QUBO 2 0 1", "QUBO 2 0 1 9"),
            TWO_VARS.replace("QUBO 2 0 1", "QUBO 2 0"),
            TWO_VARS + "L 0 1.0 junk",
            TWO_VARS + "L 0",
            TWO_VARS + "Q 0 1 2.0 junk",
            TWO_VARS + "Q 0 1",
            TWO_VARS + "Q 0 1 2.0\nQ 0 1",
            TWO_VARS.replace("gauge_fixed 1", "gauge_fixed 1 x"),
            TWO_VARS.replace("disks 2 segments 2", "disks 2 segments 2 2"),
            TWO_VARS.replace("1 -> 1,1", "1 -> 1,1 x"),
            # and its literal keywords
            TWO_VARS.replace("disks 2 segments 2", "disks 2 foo 2"),
            TWO_VARS.replace("1 -> 1,1", "1 => 1,1"),
            TWO_VARS + "Qx 0 1 2.0",
            TWO_VARS + "Q Q 1 2.0",
            # a two-character field would drop the trailing NUL and keep "Q"
            TWO_VARS + "Q\x00 0 1 2.0",
            TWO_VARS + "Q\x00x 0 1 2.0",
            TWO_VARS + "QUBO 2 0 1",
            # an L index or a Q pair given twice
            TWO_VARS + "L 0 1.0\nL 0 2.0",
            TWO_VARS + "Q 0 1 1.0\nQ 0 1 2.0",
            TWO_VARS + "Q 0 1 1.0\n" + " \n" * 40_000 + "Q 0 1 2.0",
            # a gauge_fixed or disks line given twice, even with the same value
            TWO_VARS + "# gauge_fixed 1",
            TWO_VARS + "# disks 2 segments 2",
            TWO_VARS.replace("QUBO 2 0 1\n", "QUBO 2 0 1\n# disks 9 segments 9\n# gauge_fixed 0\n"),
            # Q indices out of range, or beyond int64
            TWO_VARS + "Q 1 0 1.0",
            TWO_VARS + "Q 0 2 1.0",
            TWO_VARS + "Q 99999999999999999999 1 1.0",
            TWO_VARS + "Q 0 99999999999999999999 1.0",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(InvalidInputError):
            co.parse_qubo(text)

    @staticmethod
    def _production_lines(seed=1):
        devs = co.deviations(co.generate_instance(7, 42, 2.0, 0.1, seed=seed))
        model = co.build_qubo(devs, co.annealing_penalty(devs), gauge_fixed=True)
        return model, co.export_qubo(model).splitlines()

    @pytest.mark.parametrize("block", [16, 256])
    def test_block_size_does_not_change_the_model(self, block, monkeypatch):
        # small blocks cut the Q lines into many blocks, each read whole, and CRLF text into many read line by line
        model, lines = self._production_lines()
        monkeypatch.setattr(co.qubo, "PARSE_BLOCK", block)
        self._assert_models_equal(co.parse_qubo("\n".join(lines) + "\n"), model)
        self._assert_models_equal(co.parse_qubo("\r\n".join(lines)), model)

    def test_numerals_read_as_int_and_float_read_them(self):
        # Q lines spread over every block, the later ones read a block at a time; a spelling
        # int() or float() reads must give the canonical value, in a column with canonical texts
        model, lines = self._production_lines()
        index_spellings = [lambda t: "+" + t, lambda t: "0" + t, lambda t: "_".join(t),
                           lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩"))]
        coeff_spellings = [lambda c: c + "e0" if "e" not in c else c.replace("e", "0E"),
                           lambda c: repr(float(c)), lambda c: c if c.startswith("-") else "+" + c]
        q = [p for p, ln in enumerate(lines) if ln.startswith("Q ")]
        for n, p in enumerate(q[::97]):
            _, i, j, c = lines[p].split()
            spelled = index_spellings[n % 4]
            i, j = (spelled(i), j) if n % 2 else (i, spelled(j))
            lines[p] = f"Q {i} {j} {coeff_spellings[n % 3](c)}"
        assert sum(ln != canon for ln, canon in zip(lines, co.export_qubo(model).splitlines())) > 300
        self._assert_models_equal(co.parse_qubo("\n".join(lines) + "\n"), model)

    # signs, leading zeros, underscores, non-ASCII digits, int64 edges, other bases, decimal and exponent
    # forms, subnormals and their rounding, overflow to inf, and nan and inf forms, read or not
    NUMERALS = [
        "7", "+7", "-7", "07", "0007", "+07", "-0", "+0", "00", "1_0", "1__0", "_7", "7_",
        "\u0667", "\u096d", "\uff17", "\U0001d7d5", "1\u0660", "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809", "18446744073709551616", "9" * 30, "0x7", "0X7",
        "0o7", "0b1", "7.", "7.0", "7e0", "1e1", "++7", "+-7", "7-", "7L", "seven",
        "1.5", "+1.5", "-1.5", ".5", "-.5", "5.", ".", "1e3", "1E3", "1e+3", "1e-3", "1e", "e3", "1e1_0",
        "1_000.5", "1.5_0", "1._5", "\u0661.\u0665", "1.5.5", "1,5", "1.5f", "1d3", "0.1",
        "0.30000000000000004", "2.2250738585072011e-308", "2.2250738585072014e-308", "4.9e-324",
        "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-400", "1.7976931348623157e308",
        "1.7976931348623159e308", "1e309", "-1e309", "0." + "0" * 320 + "49406564584124654", "-0.0",
        "nan", "NaN", "-nan", "+nan", "inf", "-Inf", "+infinity", "INFINITY", "infinit", "nan(123)",
        "0x1p3", "0x1.8p1",
    ]

    @pytest.mark.parametrize("field", [1, 2, 3], ids=["i", "j", "coeff"])
    def test_the_bulk_reader_reads_numerals_as_int_and_float_read_them(self, field):
        # np.loadtxt may leave a numeral to the line-by-line reading, but what it reads must be
        # what int() or float() reads, bit for bit; either way the model is Python's reading
        n = 16
        empty = co.export_qubo(co.QuboModel(0.0, np.zeros(n), np.zeros((n, n)), 1.0, False, 1, n))
        head = "".join(ln for ln in empty.splitlines(keepends=True) if not ln.startswith("Q "))
        bulk = set()
        for numeral in self.NUMERALS:
            parts = ["Q", "0", "15", "1.5"]
            parts[field] = numeral
            line = " ".join(parts)
            try:
                i, j, coeff = int(parts[1]), int(parts[2]), float(parts[3])
                good = 0 <= i < j < n
            except ValueError:
                good = False
            if (columns := co.qubo._q_columns(line + "\n", n)) is not None:
                bulk.add(numeral)
                assert good and (columns[0].item(), columns[1].item()) == (i, j), line
                assert columns[2].item().hex() == coeff.hex(), line
            if not good:
                with pytest.raises(InvalidInputError, match=f"^bad line: {re.escape(repr(line))}$"):
                    co.parse_qubo(head + line + "\n")
            elif not math.isfinite(coeff):
                with pytest.raises(InvalidInputError, match="every number finite"):
                    co.parse_qubo(head + line + "\n")
            else:
                upper = np.zeros((n, n))
                upper[i, j] = coeff
                want = co.QuboModel(0.0, np.zeros(n), upper, 1.0, False, 1, n)
                assert co.parse_qubo(head + line + "\n").coupling.tobytes() == want.coupling.tobytes(), line
        assert {"7", "+7", "07"} <= bulk

    @pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_every_line_break_of_splitlines_ends_a_q_line(self, brk):
        model, lines = self._production_lines()
        at = len(lines) - 1000
        joined = "\n".join(lines[:at]) + brk + "\n".join(lines[at:]) + "\n"
        self._assert_models_equal(co.parse_qubo(joined), model)
        split = lines[at].rsplit(" ", 1)
        lines[at] = brk.join(split)
        with pytest.raises(InvalidInputError, match=re.escape(repr(split[0]))):
            co.parse_qubo("\n".join(lines) + "\n")

    def test_q_lines_must_each_hold_one_q_line(self):
        # layouts that keep the block's tokens in fours, each Q at a multiple of 4
        model, lines = self._production_lines()
        at = len(lines) - 1000
        indented = lines[:at] + ["\t" + lines[at]] + lines[at + 1 :]
        self._assert_models_equal(co.parse_qubo("\n".join(indented) + "\n"), model)
        merged = lines[:at] + [lines[at] + " " + lines[at + 1], ""] + lines[at + 2 :]
        head, tail = lines[at].rsplit(" ", 1)
        moved = lines[:at] + [head, tail + " " + lines[at + 1]] + lines[at + 2 :]
        for bad in (merged, moved):
            with pytest.raises(InvalidInputError, match="bad line"):
                co.parse_qubo("\n".join(bad) + "\n")

    # a header region of one blank line is read line by line, with no warning from np.loadtxt
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block", [None, 256])
    def test_q_lines_before_the_comment_and_l_lines(self, block, monkeypatch):
        # the Q region then starts right after the header and holds every other line too
        model, lines = self._production_lines()
        if block:
            monkeypatch.setattr(co.qubo, "PARSE_BLOCK", block)
        q = [ln for ln in lines[1:] if ln.startswith("Q ")]
        rest = [ln for ln in lines[1:] if not ln.startswith("Q ")]
        self._assert_models_equal(co.parse_qubo("\n".join([lines[0], *q, *rest]) + "\n"), model)

    @pytest.mark.parametrize("sep", ["\t", "\x1f", "\xa0", "\u3000"], ids=["tab", "x1f", "xa0", "u3000"])
    def test_any_whitespace_between_the_fields(self, sep):
        # the header starts with "QUBO " literally
        model, lines = self._production_lines()
        text = lines[0] + "\n" + "\n".join(lines[1:]).replace(" ", sep) + "\n"
        self._assert_models_equal(co.parse_qubo(text), model)

    def test_a_comment_among_the_q_lines_is_ignored(self):
        # it splits into four fields like a Q line
        model, lines = self._production_lines()
        at = len(lines) - 1000
        self._assert_models_equal(co.parse_qubo("\n".join(lines[:at] + ["# 1 2 3"] + lines[at:]) + "\n"), model)

    def test_a_character_beyond_the_bmp_is_a_bad_line(self):
        # np.loadtxt crashed the interpreter on one in an integer field, so the parses run in a new one
        lines = ["Q \U0009c6ea0 1 2.0", "Q 0 \U0009c6ea1 2.0", "Q 0 1 \U0009c6ea2.0"]
        code = (
            f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport clutchopt as co\n"
            f"for line in {lines!r}:\n"
            "    try:\n"
            f"        co.parse_qubo({TWO_VARS!r} + line + '\\n')\n"
            "    except co.InvalidInputError as exc:\n"
            "        print(ascii(str(exc)))\n"
        )
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
        assert done.stdout.splitlines() == [ascii(f"bad line: {line!r}") for line in lines], done.stderr

    @pytest.mark.parametrize("block, gap", [(None, 1), (64, 40)])
    def test_l_line_and_indented_q_line_inside_the_q_region(self, block, gap, monkeypatch):
        # an L line moved among the Q lines and an indented Q line, in one block or across a block edge
        model, lines = self._production_lines()
        if block:
            monkeypatch.setattr(co.qubo, "PARSE_BLOCK", block)
        at = len(lines) - 1000
        l_at = next(p for p, ln in enumerate(lines) if ln.startswith("L "))
        odd = lines[:at] + [lines[l_at]] + lines[at : at + gap] + ["  " + lines[at + gap]] + lines[at + gap + 1 :]
        del odd[l_at]
        assert sum(ln.startswith("L ") for ln in odd[at - 1 :]) == 1
        self._assert_models_equal(co.parse_qubo("\n".join(odd) + "\n"), model)

    @pytest.mark.parametrize("bad", [("L 1 x", "Q 1 0 2.0"), ("Q 1 0 2.0", "L 1 x")], ids=["L-first", "Q-first"])
    def test_the_first_bad_line_in_file_order_is_named(self, bad):
        # one block of the Q region with a bad L line and a bad Q line, in either order
        text = TWO_VARS + "Q 0 1 1.0\n" + "\n".join(bad) + "\n"
        with pytest.raises(InvalidInputError, match=f"^bad line: {re.escape(repr(bad[0]))}$"):
            co.parse_qubo(text)

    def test_a_bad_coefficient_given_twice_names_its_first_line(self):
        _, lines = self._production_lines()
        q = [p for p, ln in enumerate(lines) if ln.startswith("Q ")]
        bad = [q[-2000], q[-1990], q[-20]]
        for p in bad:
            lines[p] = lines[p].rsplit(" ", 1)[0] + " 1.0.0"
        with pytest.raises(InvalidInputError, match=f"^bad line: {re.escape(repr(lines[bad[0]]))}$"):
            co.parse_qubo("\n".join(lines) + "\n")

    def test_parse_error_names_the_bad_q_line(self):
        model = co.build_qubo(co.deviations(co.generate_instance(3, 4, seed=7)), 2.0, gauge_fixed=True)
        lines = co.export_qubo(model).splitlines()
        at = len(lines) - 3
        assert lines[at].startswith("Q ")
        lines[at] += " junk"
        with pytest.raises(InvalidInputError, match=re.escape(lines[at])):
            co.parse_qubo("\n".join(lines))
