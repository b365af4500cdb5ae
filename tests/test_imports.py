"""What `import clutchopt` loads: the benchmark harness only once one of its names is used."""

import subprocess
import sys
from pathlib import Path

import pytest

import clutchopt as co

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH_NAMES = [
    "BenchmarkConfig",
    "BenchmarkRecord",
    "SolverSpec",
    "default_config",
    "emit_results",
    "parse_config",
    "parse_results",
    "run_benchmark",
]
HARNESS_MODULES = ("clutchopt.bench", "csv", "json")


def fresh_python(code: str, cwd=None) -> list[str]:
    """Run code in a new isolated interpreter that imports the program from src; its output lines."""
    prelude = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
    done = subprocess.run(
        [sys.executable, "-I", "-c", prelude + code], capture_output=True, text=True, cwd=cwd, check=True
    )
    return done.stdout.splitlines()


def loaded_harness() -> str:
    return f"print(*[m for m in {HARNESS_MODULES!r} if m in sys.modules], sep=',')"


@pytest.mark.parametrize("module", ["clutchopt", "clutchopt.cli"])
def test_import_loads_no_benchmark_harness(module):
    assert fresh_python(f"import {module}\n{loaded_harness()}") == [""]


def test_generate_and_solve_load_no_benchmark_harness(tmp_path):
    code = (
        "from clutchopt.cli import main\n"
        "main(['generate', '--nd', '3', '--ns', '4', '--seed', '1', '--out', 'i.txt'])\n"
        "main(['solve', '--instance', 'i.txt', '--solver', 'exact', '--export-qubo', 'i.qubo'])\n"
        + loaded_harness()
    )
    lines = fresh_python(code, cwd=tmp_path)
    assert "optimal: true" in lines
    assert lines[-1] == ""


def test_benchmark_names_resolve_from_bench_on_first_use():
    code = (
        "import clutchopt as co\n"
        f"print(sorted(set({BENCH_NAMES!r}) - set(dir(co))))\n"
        "print('clutchopt.bench' in sys.modules)\n"
        "run = co.run_benchmark\n"
        "import clutchopt.bench\n"
        "print(run is clutchopt.bench.run_benchmark)\n"
        f"print(all(getattr(co, name) is getattr(clutchopt.bench, name) for name in {BENCH_NAMES!r}))\n"
        "from clutchopt import SolverSpec\n"
        "print(SolverSpec is clutchopt.bench.SolverSpec)\n"
    )
    assert fresh_python(code) == ["[]", "False", "True", "True", "True"]


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        co.no_such_name
    assert not hasattr(co, "no_such_name")
