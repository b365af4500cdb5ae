#!/usr/bin/env python3
"""Run one workload of the clutchopt benchmark and print its metrics.

    python3 perfbench/run.py --workload sa-5x42 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
./src, never from an installed copy. The report goes to standard output,
and its last line is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
named in BENCHMARK.json, with --trace 1 its per-layer metrics. Full
reports, spans and the records of the determinism check are written under
.perfbench_out/ in the checkout. --seed takes a number or one of the names
"default" and "held-out"; claims are confirmed on the held-out seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sa-5x42", "exact-5x42", "station-7x42")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
NAMED_SEEDS = {"default": DEFAULT_SEED, "held-out": HELD_OUT_SEED}


class SetupError(Exception):
    pass


def load_program(root: Path) -> None:
    """Put the checkout's own package first on the import path."""
    package = root / "src" / "clutchopt"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(root / "src"))
    import clutchopt

    if Path(clutchopt.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported clutchopt from {clutchopt.__file__}, not from {package}")


def load_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} is missing")
    return json.loads(path.read_text())


def _seed(text: str) -> int:
    if text in NAMED_SEEDS:
        return NAMED_SEEDS[text]
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0 or one of {sorted(NAMED_SEEDS)}")
    return seed


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default="default")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="3x6 instances: every workload and check in seconds")
    return parser


def layer_unit(name: str) -> str:
    from harness import COUNT_UNITS

    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name.endswith("us_per_proposal"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


def format_report(report: dict) -> list[str]:
    from harness import END_TO_END_UNITS

    lines = [
        f"# clutchopt benchmark {report['workload']} ({report['size']}), seed {report['seed']}, "
        f"{report['seconds']:g} s, tracing {'on' if report['trace'] else 'off'}, loop: {report['loop']}",
        f"# env {json.dumps(report['env'], sort_keys=True)}",
        f"# samples {json.dumps(report['samples'], sort_keys=True)}",
        f"# attempted {report['attempted']}, failed {report['failed']}, correct {report['correct']}",
    ]
    if not report["trace"]:
        lines.append("end-to-end metrics:")
        for name, value in report["end_to_end"].items():
            label = name
            if name == "solve_tail_s":
                label = f"{name} (p{report['tail_percentile']:.1f})"
            lines.append(f"  {label:<28} {value:.6g} {END_TO_END_UNITS[name]}")
    else:
        lines.append("per-layer metrics (median per operation; counts are per-operation means over the panel):")
        for name, value in sorted(report["per_layer"].items()):
            lines.append(f"  {name:<28} {value:.6g} {layer_unit(name)}")
        if report["trace_overhead_frac"] is None:
            lines.append("trace overhead: unknown; run --trace 0 with the same seed in this checkout first")
        else:
            lines.append(
                f"trace overhead: {report['trace_overhead_frac']:+.2%} on solve_p50_s against the untraced run"
            )
    for problem in report["problems"][:10]:
        lines.append(f"FAILED {problem}")
    for mismatch in report["determinism_mismatch"]:
        lines.append(f"NOT DETERMINISTIC {mismatch}")
    return lines


def result_line(report: dict, spec: dict) -> str:
    """The final JSON line: exactly the metrics BENCHMARK.json names."""
    if report["trace"]:
        wanted, measured = spec["per_layer"], report["per_layer"]
    else:
        wanted, measured = spec["end_to_end"], report["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise SetupError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = load_spec(ROOT)
        load_program(ROOT)
        from harness import run_workload

        report = run_workload(ROOT, args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
        lines = format_report(report)
        lines.append(result_line(report, spec))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
