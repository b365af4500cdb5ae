"""Command-line interface: generate instances, solve them, run benchmarks."""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from .errors import ConfigError, InvalidInputError, ProblemTooLargeError
from .qubo import annealing_penalty, build_qubo, export_qubo
from .solvers import SOLVER_NAMES, SOLVER_PARAMS, check_params, solve
from .solvers.result import REPORTED_FIELDS, format_value
from .stack import (
    DEFAULT_MAX_VARIATION,
    DEFAULT_TARGET_THICKNESS,
    deviations,
    generate_instance,
    read_instance,
    write_instance,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clutchopt",
        description="Rotational stacking optimization for multi-disk clutches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance file")
    gen.add_argument("--nd", type=int, required=True, help="number of disks")
    gen.add_argument("--ns", type=int, required=True, help="number of segments")
    gen.add_argument("--a0", type=float, default=DEFAULT_TARGET_THICKNESS, help="target element thickness")
    gen.add_argument("--delta", type=float, default=DEFAULT_MAX_VARIATION, help="maximal thickness variation")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="instance file to write")

    slv = sub.add_parser("solve", help="solve an instance file")
    slv.add_argument("--instance", required=True)
    slv.add_argument("--solver", required=True, choices=SOLVER_NAMES)
    slv.add_argument("--objective", choices=("sigma", "range"), default=None)
    slv.add_argument("--rho", type=float, default=None, help="penalty strength override")
    slv.add_argument("--sweeps", type=int, default=None)
    slv.add_argument("--samples", type=int, default=None)
    slv.add_argument("--seed", type=int, default=None)
    slv.add_argument("--budget", type=float, default=None, help="wall-clock budget in seconds")
    slv.add_argument("--export-qubo", default=None, help="also write the gauge-fixed QUBO here")

    ben = sub.add_parser("bench", help="run a benchmark grid")
    ben.add_argument("--config", default=None, help="config file (default: desk-scale grid)")
    ben.add_argument("--out", default=None, help="results file")
    ben.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    return parser


def _cmd_generate(args) -> int:
    stack = generate_instance(args.nd, args.ns, args.a0, args.delta, args.seed)
    write_instance(stack, args.out)
    print(f"wrote {args.nd}x{args.ns} instance to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    stack = read_instance(args.instance)
    devs = deviations(stack)
    params = dict(
        objective=args.objective,
        # --rho given only to set the export penalty is not the solver's
        rho=None if args.export_qubo and "rho" not in SOLVER_PARAMS[args.solver] else args.rho,
        samples=args.samples,
        sweeps=args.sweeps,
        seed=args.seed,
        budget_seconds=args.budget,
    )
    check_params(args.solver, params)  # before the export, so bad parameters leave no file behind
    if args.export_qubo:
        rho = args.rho if args.rho is not None else annealing_penalty(devs)
        export_qubo(build_qubo(devs, rho, gauge_fixed=True), args.export_qubo)
    result = solve(devs, args.solver, **params)
    print(f"solver: {result.solver_id}")
    print(f"status: {result.status}")
    for name in REPORTED_FIELDS:
        print(f"{name}: {format_value(getattr(result, name)) or '-'}")
    return 0


def _cmd_bench(args) -> int:
    from .bench import default_config, emit_results, load_config, run_benchmark  # only bench needs the harness

    config = default_config() if args.config is None else load_config(args.config)
    out = args.out if args.out is not None else config.out
    if out is None:
        raise ConfigError("no output path: pass --out or put 'out PATH' in the config")
    names = [spec.name for spec in config.solvers]
    with open(out, "w") as sink:  # opened first, so a path that cannot be written fails before any solve
        print(f"grid: {len(config.sizes)} sizes x {config.instances_per_size} instances, "
              f"solvers: {', '.join(names)}")
        records = run_benchmark(config, progress=lambda r: print(
            f"  {r.instance:>14s} {r.solver:>10s} {r.status:>5s}"
            + (f"  range={r.range:.6f}  {r.wall_time:.2f}s" if r.status == "ok"
               else f"  ({r.note})" if r.note else "")
        ))
        sink.write(emit_results(records, args.format))
    print(f"\nwrote {len(records)} records to {out}")

    # mean range per solver over the instances every solver completed
    ranges = defaultdict(dict)
    for rec in records:
        if rec.status == "ok":
            ranges[rec.instance][rec.solver] = rec.range
    shared = [row for row in ranges.values() if len(row) == len(names)]
    if shared:
        print(f"\nmean range over the {len(shared)} instances every solver completed:")
        for name in names:
            print(f"  {name:>10s}  {sum(row[name] for row in shared) / len(shared):.6f}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"generate": _cmd_generate, "solve": _cmd_solve, "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except (ConfigError, InvalidInputError, ProblemTooLargeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
