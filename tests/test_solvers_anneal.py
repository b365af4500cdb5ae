import math

import numpy as np
import pytest

import clutchopt as co
from clutchopt.errors import InvalidInputError
from clutchopt.qubo import InfeasibleSample, QuboModel, decode_solution, evaluate_batch, local_fields
from clutchopt.rng import stream_rng
from clutchopt.solvers import anneal as anneal_module
from clutchopt.solvers import AnnealSchedule, default_beta_range, default_schedule, simulated_anneal
from clutchopt.stack import canonicalize_shifts

EXAMPLE = co.DeviationMatrix(np.array([[-1.5, 0.5], [-0.5, 1.5]]))


def example_model(rho=10.0):
    return co.build_qubo(EXAMPLE, rho, gauge_fixed=True)


def annealing_model(nd, ns, seed):
    devs = co.deviations(co.generate_instance(nd, ns, seed=50 + seed))
    return co.build_qubo(devs, co.annealing_penalty(devs), gauge_fixed=True)


def reference_anneal(model, schedule, samples, seed):
    """One Metropolis proposal at a time, the exp form of the acceptance test.

    Returns (energy, shifts, samples_feasible) as simulated_anneal reports
    them, and the final states of all chains, so the vectorized sweep can be
    pinned to this trajectory.
    """
    n = model.n_vars
    coupling = model.coupling
    rng = stream_rng("anneal", seed)
    x = rng.integers(0, 2, size=(samples, n)).astype(np.float64)
    chains = np.arange(samples)
    for beta in schedule.betas():
        order = np.argsort(rng.random((samples, n)), axis=1)
        lin_ordered = model.linear[order]
        unif = rng.random((samples, n))
        for pos in range(n):
            v = order[:, pos]
            act = np.einsum("cn,cn->c", x, coupling[v])
            cur = x[chains, v]
            delta = (1.0 - 2.0 * cur) * (lin_ordered[:, pos] + act)
            accept = unif[:, pos] < np.exp(-beta * np.maximum(delta, 0.0))
            if accept.any():
                x[chains[accept], v[accept]] = 1.0 - cur[accept]
    energies = evaluate_batch(model, x)
    feasible = []
    for c in range(samples):
        decoded = decode_solution(x[c].astype(np.int8), model)
        if not isinstance(decoded, InfeasibleSample):
            feasible.append((float(energies[c]), canonicalize_shifts(decoded, model.n_segments)))
    if not feasible:
        return (float(energies.min()), None, 0), x
    energy, shifts = min(feasible)
    return (energy, shifts, len(feasible)), x


def assert_follows_reference(monkeypatch, model, schedule, samples, seed):
    """simulated_anneal reports what reference_anneal does, and ends every chain alike.

    The final states are read from the one evaluate_batch call that scores
    them, so no chain can differ unseen behind an equal best chain.
    """
    states = []

    def recording(m, x):
        states.append(np.array(x))
        return evaluate_batch(m, x)

    monkeypatch.setattr(anneal_module, "evaluate_batch", recording)
    result = simulated_anneal(model, schedule, samples=samples, seed=seed)
    want, want_states = reference_anneal(model, schedule, samples, seed)
    assert (result.energy, result.shifts, result.samples_feasible) == want
    assert len(states) == 1 and np.array_equal(states[0], want_states)
    return want


class TestSchedule:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            AnnealSchedule(sweeps=0)
        with pytest.raises(InvalidInputError):
            AnnealSchedule(beta_initial=0.0)
        with pytest.raises(InvalidInputError):
            AnnealSchedule(beta_initial=2.0, beta_final=1.0)
        with pytest.raises(InvalidInputError):
            AnnealSchedule(beta_initial=1.0, beta_final=math.inf)
        # a beta is a real number: a str, None or a bool is not
        for beta_initial, beta_final in [("1", 1.0), (None, 1.0), (1.0, "2"), (True, 2.0), (0.5, True)]:
            with pytest.raises(InvalidInputError, match="need real numbers"):
                AnnealSchedule(5, beta_initial, beta_final)

    @pytest.mark.parametrize("sweeps", [2.5, True, np.float64(3.0), "3"])
    def test_sweeps_must_be_an_integer(self, sweeps):
        with pytest.raises(InvalidInputError, match="sweeps must be an integer"):
            AnnealSchedule(sweeps=sweeps)

    def test_betas_geometric(self):
        sched = AnnealSchedule(sweeps=3, beta_initial=1.0, beta_final=100.0)
        assert np.allclose(sched.betas(), [1.0, 10.0, 100.0])
        single = AnnealSchedule(sweeps=1, beta_initial=0.5, beta_final=2.0)
        assert single.betas().shape == (1,)

    def test_default_range_for_example_model(self):
        model = example_model()
        beta_initial, beta_final = default_beta_range(model)
        # per-variable magnitude sums are 21.5 and 29.5; objective parts
        # are |lin + rho| = (5.5, 2.5) and |quad - 2 rho| = 3, median 3
        assert beta_initial == pytest.approx(math.log(2) / 29.5)
        assert beta_final == pytest.approx(math.log(100) / 3.0)
        assert 0 < beta_initial <= beta_final

    def test_default_range_of_an_all_zero_model_is_flat(self):
        model = co.QuboModel(0.0, np.zeros(4), np.zeros((4, 4)), 0.0, False, 2, 2)
        assert default_beta_range(model) == (1.0, 1.0)

    def test_default_range_degenerate_model(self):
        devs = co.DeviationMatrix(np.zeros((2, 2)))
        model = co.build_qubo(devs, 1.5, gauge_fixed=True)
        beta_initial, beta_final = default_beta_range(model)
        assert 0 < beta_initial <= beta_final


class TestSimulatedAnneal:
    def test_finds_example_optimum_with_stock_defaults(self):
        result = simulated_anneal(example_model(), samples=35, seed=123, devs=EXAMPLE)
        assert result.energy == 0.0
        assert result.shifts == (0, 1)
        assert result.sigma == 0.0
        assert result.range == 0.0
        assert result.params["sweeps"] == 1500
        assert result.samples_total == 35

    def test_deterministic_given_seed(self):
        a = simulated_anneal(example_model(), samples=7, seed=5, devs=EXAMPLE)
        b = simulated_anneal(example_model(), samples=7, seed=5, devs=EXAMPLE)
        assert a.shifts == b.shifts
        assert a.energy == b.energy
        assert a.samples_feasible == b.samples_feasible
        c = simulated_anneal(example_model(), samples=7, seed=6, devs=EXAMPLE)
        assert (c.energy, c.samples_feasible) != (a.energy, a.samples_feasible) or c.shifts == a.shifts

    def test_zero_temperature_limit_is_greedy(self):
        cold = AnnealSchedule(sweeps=50, beta_initial=1e12, beta_final=1e12)
        uphill = QuboModel(0.0, np.array([2.0]), np.zeros((1, 1)), 1.0, True, 2, 1)
        downhill = QuboModel(0.0, np.array([-2.0]), np.zeros((1, 1)), 1.0, True, 2, 1)
        for seed in range(5):
            assert simulated_anneal(uphill, cold, samples=1, seed=seed).energy == 0.0
            assert simulated_anneal(downhill, cold, samples=1, seed=seed).energy == -2.0

    @pytest.mark.parametrize("nd, ns", [(2, 7), (3, 6), (4, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_trajectory_as_reference_loop(self, monkeypatch, nd, ns, seed):
        model = annealing_model(nd, ns, seed)
        assert_follows_reference(monkeypatch, model, default_schedule(model, 200), 7, seed)

    # Both schedules below hold stretches of sweeps in which no chain moves,
    # which are screened against one field and skipped, and sweeps the screen
    # lets through in which a chain then moves; three chains make the still
    # stretches long. Both must follow the reference.
    @pytest.mark.parametrize("nd, ns", [(2, 7), (3, 6)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_trajectory_through_still_sweeps(self, monkeypatch, nd, ns, seed):
        model = annealing_model(nd, ns, seed)
        assert_follows_reference(monkeypatch, model, default_schedule(model), 3, seed)

    # simulated_anneal screens a still sweep against local_fields, which must equal
    # the delta each proposal takes, linear[v] + vecdot(x, coupling row v), bit for bit
    @pytest.mark.parametrize("nd, ns", [(2, 7), (3, 6), (5, 42), (7, 42)])
    @pytest.mark.parametrize("samples", [1, 3, 35, 1024])
    def test_still_field_equals_every_proposal_delta(self, nd, ns, samples):
        model = annealing_model(nd, ns, samples)
        rng = np.random.default_rng(samples)
        x = rng.integers(0, 2, size=(samples, model.n_vars)).astype(np.float64)
        field = local_fields(model, x)
        for v in np.argsort(rng.random((samples, model.n_vars)), axis=1).T:
            delta = model.linear[v] + np.vecdot(x, model.coupling.take(v, axis=0))
            assert np.array_equal(field[np.arange(samples), v], delta)

    @pytest.mark.parametrize("nd, ns, seed", [(2, 7, 1), (3, 6, 0), (3, 6, 1)])
    def test_same_trajectory_at_constant_cold_beta(self, monkeypatch, nd, ns, seed):
        model = annealing_model(nd, ns, seed)
        beta = default_beta_range(model)[1] / 8
        sched = AnnealSchedule(sweeps=200, beta_initial=beta, beta_final=beta)
        assert_follows_reference(monkeypatch, model, sched, 3, seed)

    def test_same_trajectory_without_feasible_sample(self, monkeypatch):
        devs = co.deviations(co.generate_instance(3, 4, seed=2))
        model = co.build_qubo(devs, 0.01, gauge_fixed=True)
        sched = AnnealSchedule(sweeps=1, beta_initial=1e-6, beta_final=1e-6)
        assert assert_follows_reference(monkeypatch, model, sched, 7, 0)[1] is None

    def test_empty_model_rejected(self):
        devs = co.deviations(co.DiskStack(np.array([[1.0, 2.0]])))
        model = co.build_qubo(devs, 1.0, gauge_fixed=True)
        with pytest.raises(InvalidInputError):
            simulated_anneal(model)

    def test_samples_validated(self):
        with pytest.raises(InvalidInputError):
            simulated_anneal(example_model(), samples=0)

    @pytest.mark.parametrize("schedule", [5, 1500, (1500, 0.1, 10.0), {"sweeps": 10}])
    def test_schedule_must_be_an_anneal_schedule_or_none(self, schedule):
        with pytest.raises(InvalidInputError, match="schedule must be an AnnealSchedule or None"):
            simulated_anneal(example_model(), schedule)

    @pytest.mark.parametrize("samples", [2.5, True, np.float64(3.0), "3"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(InvalidInputError, match="samples must be an integer"):
            simulated_anneal(example_model(), samples=samples)

    @pytest.mark.parametrize("count", [{"sweeps": True}, {"sweeps": 2.5}, {"samples": True}, {"samples": 2.5}])
    def test_solve_rejects_non_integer_counts(self, count):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            co.solve(EXAMPLE, "sa", **count)

    @pytest.mark.parametrize("seed", [1.5, True, -1, "3", np.float64(2.0)])
    def test_solve_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidInputError, match="seed must be"):
            co.solve(EXAMPLE, "sa", seed=seed, samples=2, sweeps=5)

    def test_numpy_integer_seed_accepted(self):
        a = co.solve(EXAMPLE, "sa", seed=np.uint64(7), samples=2, sweeps=5)
        assert a.shifts == co.solve(EXAMPLE, "sa", seed=7, samples=2, sweeps=5).shifts

    def test_numpy_integer_counts_accepted(self):
        sched = AnnealSchedule(sweeps=np.int32(20), beta_initial=0.1, beta_final=10.0)
        result = simulated_anneal(example_model(), sched, samples=np.int64(3), seed=1)
        assert result.samples_total == 3
        assert result.params["sweeps"] == 20

    def test_no_feasible_sample_reported_not_repaired(self):
        devs = co.deviations(co.generate_instance(3, 4, seed=2))
        model = co.build_qubo(devs, 0.01, gauge_fixed=True)
        sched = AnnealSchedule(sweeps=1, beta_initial=1e-6, beta_final=1e-6)
        result = simulated_anneal(model, sched, samples=1, seed=0, devs=devs)
        assert result.shifts is None
        assert result.sigma is None and result.range is None
        assert result.samples_feasible == 0
        assert result.energy is not None
        assert not result.found_feasible

    def test_feasibility_accounting(self):
        devs = co.deviations(co.generate_instance(3, 5, seed=14))
        result = co.solve(devs, "sa", seed=3, samples=20)
        assert 0 < result.samples_feasible <= result.samples_total == 20
        bits = co.encode_shifts(result.shifts, devs.n_segments)
        model = co.build_qubo(devs, result.params["rho"], gauge_fixed=True)
        assert co.evaluate(model, bits) == pytest.approx(result.energy, rel=1e-9, abs=1e-12)

    def test_sigma_from_energy_without_devs(self):
        result = simulated_anneal(example_model(), samples=35, seed=123)
        assert result.range is None
        assert result.sigma == pytest.approx(
            math.sqrt(max(result.energy, 0.0) / 2), rel=1e-12, abs=1e-15
        )

    def test_monotonicity_in_sweeps(self):
        # success never drops by more than the binomial 95 percent band
        def success_rate(sweeps):
            hits = 0
            for i in range(20):
                devs = co.deviations(co.generate_instance(3, 4, seed=300 + i))
                oracle = co.exhaustive_search(devs, objective="sigma")
                result = co.solve(devs, "sa", sweeps=sweeps, seed=400 + i)
                if result.shifts is not None and result.sigma <= oracle.sigma * (1 + 1e-9) + 1e-15:
                    hits += 1
            return hits / 20

        rates = [success_rate(s) for s in (500, 1500, 5000)]
        for low, high in zip(rates, rates[1:]):
            pooled = (low + high) / 2
            band = 1.96 * math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2 / 20)
            assert high >= low - band
