"""Closed-loop measurement of one workload, with one caller.

The caller sends the next operation only after the previous one and its
checks complete. Set-up (a fresh interpreter importing the program, the
first instances, and one warm-up operation on a tiny instance) is repeated
SETUP_REPS times and reported as a median. The timed loop always runs the workload's panel of first
operations, then keeps going until the time limit. End-to-end metrics come
from a run with tracing off; a traced run gives the per-layer metrics.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer
from workloads import WORKLOADS

SETUP_REPS = 7
OUT_DIR = ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "answer_p50_s": "s",
    "throughput_per_s": "1/s",
    "failed_frac": "1",
    "peak_rss_mb": "MB",
    "sigma_excess": "1",
    "hit_rate": "1",
    "range_mean": "height",
}

# counts are per operation over the panel, and 0 where a workload bypasses
# the layer; "1" marks a ratio
COUNT_UNITS = {
    "qubo.quadratic_entries": "count",
    "qubo.export_bytes": "B",
    "anneal.proposals": "count",
    "anneal.feasible_frac": "1",
    "exact.leaves": "count",
    "exact.leaves_to_proof_frac": "1",
    "blocks.leaves": "count",
}


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value), or None up to 20 samples, where that
    percentile would not lie above the median.
    """
    n = len(values)
    if n <= 20:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _blas_threads() -> int | None:
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def code_digest(root: Path) -> str:
    """Hash of the program and the benchmark, to key determinism records."""
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(root),
        "code_sha256": code_digest(root),
        "machine": platform.machine(),
    }


class State:
    """Records kept between runs in one checkout, in OUT_DIR/state.json."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def section(self, name: str) -> dict:
        return self.data.setdefault(name, {})

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)


def _import_seconds(root: Path) -> float:
    """Time a fresh, isolated interpreter takes to import the program.

    numpy is imported first and not counted: its import time follows the
    file system's load, and no change to the program moves it.
    """
    code = (
        f"import sys, time, numpy; sys.path.insert(0, {str(root / 'src')!r}); "
        "t0 = time.perf_counter(); import clutchopt; print(time.perf_counter() - t0)"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], check=True, capture_output=True, text=True, timeout=120
    )
    return float(proc.stdout)


def _normalise(obj):
    return json.loads(json.dumps(obj))


def _layer_metrics(tracer: Tracer, ok_ops: list[int], records: dict) -> dict:
    """Median per operation of each span's self time ("<span>_s") and of
    each layer's self time inside the operation ("<layer>.self_s", where
    "bench" is the benchmark's own glue), plus the per-unit rates."""
    per_op = tracer.self_times()
    values: dict[str, list[float]] = defaultdict(list)
    for i in ok_ops:
        own: dict[str, float] = defaultdict(float)
        for (root, name), t in per_op[i].items():
            if name not in ("op", "check"):
                own[f"{name}_s"] += t
            if root == "op":
                own[f"{'bench' if name == 'op' else name.split('.')[0]}.self_s"] += t
        for key, t in own.items():
            values[key].append(t)
    metrics = {key: float(np.median(vals)) for key, vals in values.items()}

    def total_time(span: str) -> float:
        return sum(t for i in ok_ops for (_, name), t in per_op[i].items() if name == span)

    proposals = sum(records[i].get("proposals", 0) for i in ok_ops)
    if proposals:
        metrics["anneal.us_per_proposal"] = 1e6 * total_time("anneal.search") / proposals
    leaves = sum(records[i].get("leaves", 0) for i in ok_ops)
    if leaves:
        metrics["exact.leaves_per_s"] = leaves / total_time("exact.search")
    return metrics


def run_workload(
    root: Path,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    out_dir: Path | None = None,
) -> dict:
    """Set up, run and check one workload; returns the full report.

    Reports, spans and the records of the determinism check go to out_dir,
    by default OUT_DIR in the checkout.
    """
    workload = WORKLOADS[name](tiny=tiny)
    tracer = Tracer() if trace else NullTracer()

    setup_times = []
    for _ in range(SETUP_REPS):
        import_s = _import_seconds(root)
        t0 = time.perf_counter()
        cases = [workload.case(seed, i) for i in range(workload.panel)]
        workload.op(workload.warm_up_case(seed), NullTracer())
        setup_times.append(import_s + time.perf_counter() - t0)

    op_times: list[float] = []
    answer_times: list[float] = []
    records: dict[int, dict] = {}
    problems: list[str] = []
    failed = 0
    ok_ops: list[int] = []
    start = time.perf_counter()
    i = 0
    while i < workload.panel or time.perf_counter() - start < seconds:
        case = cases[i] if i < workload.panel else workload.case(seed, i)
        tracer.op_id = i
        try:
            with tracer.span("op"):
                out = workload.op(case, tracer)
            op_times.append(out.op_s)
            answer_times.append(out.answer_s)
            with tracer.span("check"):
                check = workload.check(case, out, tracer)
        except Exception as exc:  # one broken operation must not end the run
            failed += 1
            problems.append(f"op {i}: {type(exc).__name__}: {exc}\n{traceback.format_exc(limit=4)}")
            records[i] = {"error": type(exc).__name__}
        else:
            records[i] = _normalise(check.record)
            if check.problems:
                failed += 1
                problems.extend(f"op {i}: {p}" for p in check.problems)
            else:
                ok_ops.append(i)
        i += 1
        if i == workload.panel:
            # memory over a fixed amount of work: the heap keeps growing
            # slowly with the operation count, which a faster program raises
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = i

    panel_records = [records[j] for j in range(workload.panel)]
    summary = workload.summary(panel_records)
    nd, ns = workload.size
    metrics: dict[str, float] = {
        "setup_s": float(np.median(setup_times)),
        "failed_frac": failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    if op_times:
        metrics["solve_p50_s"] = float(np.median(op_times))
        metrics["answer_p50_s"] = float(np.median(answer_times))
        metrics["throughput_per_s"] = len(op_times) / float(np.sum(op_times))
    tail_point = tail(op_times)
    if tail_point is not None:
        metrics["solve_tail_s"] = tail_point[1]
    for quality in ("sigma_excess", "hit_rate", "range_mean"):
        if quality in summary:
            metrics[quality] = summary[quality]
    layer = {key: float(summary.get(key, 0.0)) for key in COUNT_UNITS}
    if trace and op_times:
        layer.update(_layer_metrics(tracer, ok_ops, records))
        layer["trace.solve_p50_s"] = metrics["solve_p50_s"]

    out_dir = root / OUT_DIR if out_dir is None else out_dir
    out_dir.mkdir(exist_ok=True)
    state = State(out_dir / "state.json")
    env = environment(root)
    run_key = f"{name} {nd}x{ns} seed={seed} code={env['code_sha256']}"
    determinism = state.section("determinism")
    fingerprint = {"records": panel_records, "summary": _normalise(summary)}
    mismatch = []
    if run_key in determinism:
        old = determinism[run_key]
        for j, (a, b) in enumerate(zip(old["records"], panel_records)):
            if a != b:
                mismatch.append(f"panel op {j}: {a} then {b}")
        for key in sorted(set(old["summary"]) | set(fingerprint["summary"])):
            if old["summary"].get(key) != fingerprint["summary"].get(key):
                mismatch.append(f"{key}: {old['summary'].get(key)!r} then {fingerprint['summary'].get(key)!r}")
    else:
        determinism[run_key] = fingerprint
    overhead = None
    untraced = state.section("untraced_solve_p50_s")
    if not trace and "solve_p50_s" in metrics:
        untraced[run_key] = metrics["solve_p50_s"]
    elif trace and run_key in untraced and "trace.solve_p50_s" in layer:
        overhead = layer["trace.solve_p50_s"] / untraced[run_key] - 1.0
    state.save()

    report = {
        "workload": name,
        "size": f"{nd}x{ns}",
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 caller",
        "env": env,
        "samples": {
            "setup_s": len(setup_times),
            "solve_p50_s": len(op_times),
            "answer_p50_s": len(answer_times),
            "solve_tail_s": len(op_times) if tail_point else 0,
            "panel": workload.panel,
        },
        "tail_percentile": tail_point[0] if tail_point else None,
        "correct": failed == 0 and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "determinism_mismatch": mismatch,
        "end_to_end": metrics,
        "per_layer": layer,
        "op_times_s": op_times,
        "setup_times_s": setup_times,
        "trace_overhead_frac": overhead,
    }
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(report, indent=1))
    if trace:
        (out_dir / f"spans-{tag}.json").write_text(json.dumps(tracer.spans))
    return report
