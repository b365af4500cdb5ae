"""One table of bad solver parameters, rejected alike by solve(), a bench config and the CLI."""

import math
import warnings

import numpy as np
import pytest

import clutchopt as co
from clutchopt.bench import BenchmarkConfig, SolverSpec
from clutchopt import solvers
from clutchopt.cli import main
from clutchopt.errors import ConfigError, InvalidInputError
from clutchopt.qubo import check_penalty
from clutchopt.solvers.exact import _deadline

DEVS = co.deviations(co.generate_instance(3, 4, seed=9))

# solver, solve() keyword and value, the same value as `clutchopt solve` flags (None where no
# flag can say it), and how the message starts
BAD_VALUES = [
    ("sa", "samples", "3", None, "samples must be an integer"),
    ("sa", "samples", 0, ["--samples", "0"], "samples must be >= 1"),
    ("sa", "sweeps", 2.5, ["--sweeps", "2.5"], "sweeps must be an integer"),
    ("sa", "rho", math.inf, ["--rho", "inf"], "rho must be finite and > 0"),
    ("sa", "rho", "abc", ["--rho", "abc"], "rho must be finite and > 0"),
    ("exact", "budget_seconds", "abc", ["--budget", "abc"], "budget must be >= 0"),
    ("approx", "budget_seconds", math.nan, ["--budget", "nan"], "budget must be >= 0"),
    ("exact", "cap", 0, None, "cap must be >= 1"),
    ("exhaustive", "cap", -1, None, "cap must be >= 1"),
    ("exact", "cap", "x", None, "cap must be an integer"),
]
CASES = [pytest.param(*case, id=f"{case[0]}-{case[1]}={case[2]!r}") for case in BAD_VALUES]
CLI_CASES = [case for case in CASES if case.values[3] is not None]
CONFIG_KEYS = {"budget_seconds": "budget"}


@pytest.mark.parametrize("solver, name, value, flags, message", CASES)
def test_solve_raises_invalid_input_before_any_work(solver, name, value, flags, message, monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("a solver ran before its parameters were checked")

    for step in ("build_qubo", "simulated_anneal", "exhaustive_search", "branch_and_bound", "block_approximate"):
        monkeypatch.setattr(solvers, step, ran)
    with pytest.raises(InvalidInputError, match=f"^{message}"):
        co.solve(DEVS, solver, **{name: value})


@pytest.mark.parametrize("solver, name, value, flags, message", CASES)
def test_solver_spec_raises_config_error(solver, name, value, flags, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        SolverSpec(solver, {CONFIG_KEYS.get(name, name): value})


@pytest.mark.parametrize("solver, name, value, flags, message", CLI_CASES)
def test_cli_solve_exits_2_with_an_error_line(solver, name, value, flags, message, tmp_path, capsys):
    instance = tmp_path / "inst.txt"
    co.write_instance(co.generate_instance(3, 4, seed=9), instance)
    try:
        code = main(["solve", "--instance", str(instance), "--solver", solver, *flags])
    except SystemExit as exc:  # argparse rejects a value its type cannot read
        code, message = exc.code, f"argument {flags[0]}"
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", [["exact"], {"sa": 1}, {"approx"}])
def test_a_solver_name_that_is_not_a_string_is_an_unknown_solver(name):
    with pytest.raises(InvalidInputError, match="^unknown solver"):
        co.solve(DEVS, name)
    with pytest.raises(ConfigError, match="^unknown solver"):
        SolverSpec(name)


@pytest.mark.parametrize("name, params", [("sa", None), ("sa", [1]), ("nope", None), ("exact", (("cap", 5),))])
def test_solver_spec_params_that_are_not_a_dict_raise_config_error(name, params):
    with pytest.raises(ConfigError, match="^solver parameters must be a dict"):
        SolverSpec(name, params)


# a Python int beyond float's range, which float() refuses with OverflowError
BIG = 10**400
PROFILE = np.array([0.5, -2.0, 1.5])
ONE_VAR = (np.zeros(1), np.zeros((1, 1)))
RHO = (InvalidInputError, "rho must be finite and > 0")
MODEL = (InvalidInputError, "rho must be >= 0 and every number finite")
A0 = (InvalidInputError, "target_thickness must be a finite number")
BETA = (InvalidInputError, "need real numbers 0 < beta_initial")
# each call and what it gives when it reads BIG as +-inf, as float() reads the text 1e400: the error
# type and how its message starts, or the value returned
BEYOND_FLOAT = {
    "check_penalty": (lambda: check_penalty(BIG), RHO),
    "build_qubo": (lambda: co.build_qubo(DEVS, BIG), RHO),
    "solve-rho": (lambda: co.solve(DEVS, "sa", rho=BIG), RHO),
    "spec-rho": (lambda: SolverSpec("sa", {"rho": BIG}), (ConfigError, RHO[1])),
    "deadline": (lambda: _deadline(1.0, BIG), math.inf),
    "deadline-negative": (lambda: _deadline(1.0, -BIG), (InvalidInputError, "budget must be >= 0")),
    "solve-budget": (lambda: co.solve(DEVS, "exact", budget_seconds=BIG).optimal, True),
    "approx-budget": (lambda: co.solve(DEVS, "approx", budget_seconds=BIG).optimal, True),
    "spec-budget": (lambda: SolverSpec("exact", {"budget": BIG}).params, {"budget": BIG}),
    "model-offset": (lambda: co.QuboModel(BIG, *ONE_VAR, 1.0, False, 1, 1), MODEL),
    "model-rho": (lambda: co.QuboModel(0.0, *ONE_VAR, BIG, False, 1, 1), MODEL),
    "band-a0": (lambda: co.generate_instance(2, 2, BIG, 0.1), A0),
    "band-a0-negative": (lambda: co.DiskStack(np.ones((2, 2)), -BIG, 0.1), A0),
    "band-delta": (
        lambda: co.DiskStack(np.ones((2, 2)), 2.0, BIG),
        (InvalidInputError, "max_variation must be a finite number"),
    ),
    "config-band": (
        lambda: BenchmarkConfig(((2, 2),), 1, (SolverSpec("exact"),), target_thickness=BIG),
        (ConfigError, A0[1]),
    ),
    "beta-final": (lambda: co.AnnealSchedule(10, 1.0, BIG), BETA),
    "betas": (lambda: co.AnnealSchedule(10, BIG, BIG), BETA),
    "ln_norm": (lambda: co.ln_norm(PROFILE, BIG), 2.0),
    "ln_norm-negative": (lambda: co.ln_norm(PROFILE, -BIG), (InvalidInputError, "norm order must be >= 1")),
}


@pytest.mark.parametrize("call, want", BEYOND_FLOAT.values(), ids=BEYOND_FLOAT.keys())
def test_an_int_beyond_float_range_reads_as_infinite(call, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, tuple):
            with pytest.raises(want[0], match=f"^{want[1]}"):
                call()
        else:
            assert call() == want
