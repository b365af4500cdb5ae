"""Rotational stacking optimization for multi-disk clutches.

Models stacks of rotatable disks with per-segment thickness deviations,
builds the one-hot-encoded binary quadratic model of the problem, and
solves it with an exhaustive oracle, an exact screened enumeration, a
block-decomposition heuristic, and a simulated annealer, plus a benchmark
harness comparing solution quality and runtime across instance sizes.

The harness's names load `clutchopt.bench` on first use, so a solve never
imports it (nor its csv and json).
"""

from .errors import ConfigError, InvalidInputError, ProblemTooLargeError
from .qubo import (
    InfeasibleSample,
    QuboModel,
    annealing_penalty,
    build_qubo,
    decode_solution,
    default_penalty,
    encode_shifts,
    evaluate,
    evaluate_batch,
    export_qubo,
    load_qubo,
    local_fields,
    objective_bound,
    parse_qubo,
)
from .solvers import (
    AnnealSchedule,
    SolveResult,
    block_approximate,
    branch_and_bound,
    default_schedule,
    exhaustive_search,
    simulated_anneal,
    solve,
)
from .stack import (
    DeviationMatrix,
    DiskStack,
    apply_shifts,
    canonicalize_shifts,
    deviations,
    generate_instance,
    ln_norm,
    range_metric,
    read_instance,
    shift_metrics,
    stddev,
    write_instance,
)

__version__ = "0.1.0"

_BENCH_NAMES = (
    "BenchmarkConfig",
    "BenchmarkRecord",
    "SolverSpec",
    "default_config",
    "emit_results",
    "parse_config",
    "parse_results",
    "run_benchmark",
)


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_BENCH_NAMES})
