"""Tests of the benchmark itself, on 3x6 instances so they run in seconds."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program(ROOT)

import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(tmp_path, name, trace=False, seed=7):
    return harness.run_workload(ROOT, name, seed, 0.0, trace, tiny=True, out_dir=tmp_path)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_mode_runs_every_workload_and_check(tmp_path, name, trace):
    report = tiny_run(tmp_path, name, trace)
    assert report["problems"] == []
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= workloads.WORKLOADS[name].panel
    line = json.loads(run.result_line(report, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    if not trace:
        assert all(line["metrics"][m]["value"] > 0 for m in line["metrics"])


def _perturbed(factor):
    real = workloads.co.exhaustive_search

    def oracle(devs, objective="range", **kwargs):
        res = real(devs, objective=objective, **kwargs)
        return dataclasses.replace(res, sigma=res.sigma * factor, range=res.range * factor)

    return oracle


@pytest.mark.parametrize("name, factor", [("exact-5x42", 1.01), ("sa-5x42", 2.0)])
def test_wrong_oracle_value_counts_as_failed(tmp_path, monkeypatch, name, factor):
    monkeypatch.setattr(workloads.co, "exhaustive_search", _perturbed(factor))
    report = tiny_run(tmp_path, name)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] > 0
    assert report["end_to_end"]["failed_frac"] == 1.0


def test_counts_that_change_between_runs_are_flagged(tmp_path):
    first = tiny_run(tmp_path, "exact-5x42")
    second = tiny_run(tmp_path, "exact-5x42")
    assert first["correct"] and second["correct"]
    assert second["determinism_mismatch"] == []

    state_path = tmp_path / "state.json"
    state = json.loads(state_path.read_text())
    (record,) = state["determinism"].values()
    record["records"][0]["leaves"] += 1
    state_path.write_text(json.dumps(state))
    third = tiny_run(tmp_path, "exact-5x42")
    assert not third["correct"]
    assert third["failed"] == 0
    assert any("panel op 0" in m for m in third["determinism_mismatch"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-5x42", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_has_ten_samples_beyond_it():
    assert harness.tail([1.0] * 20) is None
    pct, value = harness.tail([float(v) for v in range(40)])
    assert value == 29.0 and pct == 75.0


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    tracer.op_id = 0
    with tracer.span("op"):
        with tracer.span("stack.parse_instance"):
            pass
        with tracer.span("qubo.build"):
            with tracer.span("qubo.export"):
                pass
    root = tracer.spans[0]
    own = tracer.self_times()[0]
    assert set(own) == {("op", n) for n in ("op", "stack.parse_instance", "qubo.build", "qubo.export")}
    assert sum(own.values()) == pytest.approx(root["end"] - root["start"], abs=1e-12)
    assert all(t >= 0 for t in own.values())
