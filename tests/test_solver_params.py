"""One table of bad solver parameters, rejected alike by solve(), a bench config and the CLI."""

import math

import pytest

import clutchopt as co
from clutchopt.bench import SolverSpec
from clutchopt import solvers
from clutchopt.cli import main
from clutchopt.errors import ConfigError, InvalidInputError

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
