import numpy as np
import pytest

import clutchopt as co
from clutchopt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code, stdout, _ = run(
            capsys, "generate", "--nd", "3", "--ns", "4", "--seed", "5", "--out", str(out)
        )
        assert code == 0
        assert "3x4" in stdout
        stack = co.read_instance(out)
        assert stack.heights.shape == (3, 4)
        assert np.array_equal(stack.heights, co.generate_instance(3, 4, seed=5).heights)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code, _, stderr = run(capsys, "generate", "--nd", "3", "--ns", "4", "--seed", "-1", "--out", str(out))
        assert code == 2
        assert "error: seed must be >= 0" in stderr
        assert not out.exists()

    def test_bad_dimensions_exit_nonzero(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "generate", "--nd", "0", "--ns", "4", "--out", str(tmp_path / "x")
        )
        assert code != 0
        assert "error" in stderr


class TestSolve:
    @pytest.fixture()
    def instance(self, tmp_path):
        path = tmp_path / "inst.txt"
        co.write_instance(co.generate_instance(3, 4, seed=9), path)
        return path

    def test_exhaustive(self, instance, capsys):
        code, stdout, _ = run(capsys, "solve", "--instance", str(instance), "--solver", "exhaustive")
        assert code == 0
        assert "solver: exhaustive" in stdout
        assert "shifts: 0" in stdout
        assert "optimal: true" in stdout

    def test_sa_with_overrides(self, instance, capsys):
        code, stdout, _ = run(
            capsys,
            "solve",
            "--instance", str(instance),
            "--solver", "sa",
            "--samples", "5",
            "--sweeps", "60",
            "--seed", "3",
            "--rho", "0.7",
        )
        assert code == 0
        assert "solver: sa" in stdout
        assert "samples_total: 5" in stdout

    def test_sa_without_a_feasible_chain_reports_no_feasible_sample(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        assert run(capsys, "generate", "--nd", "3", "--ns", "4", "--seed", "1", "--out", str(path))[0] == 0
        # a penalty near zero and one sweep leave every chain off the one-hot constraints
        code, stdout, _ = run(
            capsys, "solve", "--instance", str(path), "--solver", "sa",
            "--samples", "3", "--sweeps", "1", "--rho", "1e-9", "--seed", "0",
        )
        assert code == 0
        values = dict(line.split(": ", 1) for line in stdout.splitlines())
        assert values["status"] == "no-feasible-sample"
        assert values["shifts"] == values["sigma"] == values["range"] == "-"
        assert values["samples_total"] == "3" and values["samples_feasible"] == "0"
        assert float(values["energy"]) > 0

    def test_output_keys_in_order_and_none_as_dash(self, instance, capsys):
        code, stdout, _ = run(capsys, "solve", "--instance", str(instance), "--solver", "exact")
        assert code == 0
        pairs = [line.split(": ", 1) for line in stdout.splitlines()]
        assert [key for key, _ in pairs] == [
            "solver", "status", "shifts", "sigma", "range", "energy", "wall_time",
            "samples_total", "samples_feasible", "nodes_explored", "optimal", "seed",
        ]
        values = dict(pairs)
        assert values["status"] == "ok"
        assert values["energy"] == "-" and values["seed"] == "-"
        assert values["nodes_explored"] == "16"

    def test_budget_flag(self, instance, capsys):
        code, stdout, _ = run(
            capsys, "solve", "--instance", str(instance), "--solver", "exact", "--budget", "10"
        )
        assert code == 0
        assert "optimal: true" in stdout

    @pytest.mark.parametrize("budget", ["nan", "-5"])
    def test_nan_or_negative_budget_exits_2(self, instance, capsys, budget):
        code, _, stderr = run(
            capsys, "solve", "--instance", str(instance), "--solver", "exact", "--budget", budget
        )
        assert code == 2
        assert "budget" in stderr

    def test_parameter_the_solver_does_not_read_exits_2(self, instance, capsys):
        code, _, stderr = run(
            capsys, "solve", "--instance", str(instance), "--solver", "exact", "--seed", "3"
        )
        assert code == 2
        assert "exact does not take seed" in stderr

    def test_negative_seed_exits_2(self, instance, capsys):
        code, stdout, stderr = run(
            capsys, "solve", "--instance", str(instance), "--solver", "sa", "--seed", "-1"
        )
        assert code == 2
        assert "error: seed must be >= 0" in stderr
        assert stdout == ""

    def test_rho_without_export_for_a_solver_that_does_not_read_it_exits_2(self, instance, capsys):
        code, _, stderr = run(
            capsys, "solve", "--instance", str(instance), "--solver", "exact", "--rho", "0.5"
        )
        assert code == 2
        assert "exact does not take rho" in stderr

    def test_rho_sets_the_export_penalty_for_any_solver(self, instance, tmp_path, capsys):
        qubo_path = tmp_path / "model.qubo"
        code, _, _ = run(
            capsys,
            "solve",
            "--instance", str(instance),
            "--solver", "exact",
            "--rho", "0.5",
            "--export-qubo", str(qubo_path),
        )
        assert code == 0
        assert co.load_qubo(qubo_path).rho == 0.5

    def test_export_qubo(self, instance, tmp_path, capsys):
        qubo_path = tmp_path / "model.qubo"
        code, _, _ = run(
            capsys,
            "solve",
            "--instance", str(instance),
            "--solver", "exhaustive",
            "--export-qubo", str(qubo_path),
        )
        assert code == 0
        model = co.load_qubo(qubo_path)
        assert model.n_vars == 8
        assert model.gauge_fixed

    @pytest.mark.parametrize(
        "flags, message", [(["--samples", "0"], "samples must be >= 1"), (["--seed", "-1"], "seed must be >= 0")]
    )
    def test_bad_parameter_writes_no_export(self, instance, tmp_path, capsys, flags, message):
        qubo_path = tmp_path / "x.qubo"
        code, stdout, stderr = run(
            capsys,
            "solve",
            "--instance", str(instance),
            "--solver", "sa",
            *flags,
            "--export-qubo", str(qubo_path),
        )
        assert code == 2
        assert f"error: {message}" in stderr
        assert stdout == ""
        assert not qubo_path.exists()

    def test_missing_instance_file(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "solve", "--instance", str(tmp_path / "nope.txt"), "--solver", "exact"
        )
        assert code == 2
        assert "error" in stderr

    def test_undecodable_instance_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin-1.txt"
        path.write_bytes(b"2 3\n2.0 0.1 \xff\n")
        code, stdout, stderr = run(capsys, "solve", "--instance", str(path), "--solver", "exact")
        assert code == 2
        assert stderr == f"error: {path} is not UTF-8 text: invalid start byte at byte 12\n"
        assert stdout == ""

    def test_unknown_solver_rejected_by_parser(self, instance):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--instance", str(instance), "--solver", "warp"])
        assert exc.value.code == 2

    def test_incompatible_objective(self, instance, capsys):
        code, _, stderr = run(
            capsys,
            "solve", "--instance", str(instance), "--solver", "exact", "--objective", "sigma",
        )
        assert code == 2
        assert "range" in stderr


class TestBench:
    CONFIG = """
    size 2 3
    size 3 3
    instances 1
    seed 4
    solver exhaustive
    solver exact
    solver sa samples=5 sweeps=60
    """

    def test_bench_with_config(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG)
        out = tmp_path / "results.csv"
        code, stdout, _ = run(
            capsys, "bench", "--config", str(config), "--out", str(out)
        )
        assert code == 0
        assert "6 records" in stdout
        records = co.parse_results(out.read_text(), "csv")
        assert len(records) == 6

    def test_bench_progress_and_summary(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(
            "size 2 4\nsize 3 4\nsize 4 4\ninstances 2\nseed 11\n"
            # the cap makes exhaustive skip 4x4, so the summary leaves those instances out
            "solver exhaustive cap=20\nsolver exact\nsolver approx\nsolver sa samples=4 sweeps=30\n"
        )
        out = tmp_path / "results.csv"
        code, stdout, _ = run(capsys, "bench", "--config", str(config), "--out", str(out))
        assert code == 0
        records = co.parse_results(out.read_text(), "csv")
        names = ["exhaustive", "exact", "approx", "sa"]
        assert len(records) == 3 * 2 * len(names)

        lines = stdout.splitlines()
        assert lines[0] == "grid: 3 sizes x 2 instances, solvers: exhaustive, exact, approx, sa"
        progress, rest = lines[1 : 1 + len(records)], lines[1 + len(records) :]
        assert [line.split()[:3] for line in progress] == [[r.instance, r.solver, r.status] for r in records]
        assert rest[:3] == ["", f"wrote {len(records)} records to {out}", ""]

        by_instance = {}
        for rec in records:
            by_instance.setdefault(rec.instance, {})[rec.solver] = rec
        shared = [row for row in by_instance.values() if all(row[n].status == "ok" for n in names)]
        assert 0 < len(shared) < len(by_instance)
        assert rest[3] == f"mean range over the {len(shared)} instances every solver completed:"
        means = dict(line.split() for line in rest[4:])
        assert list(means) == names
        for name in names:
            assert means[name] == f"{sum(row[name].range for row in shared) / len(shared):.6f}"

    def test_bench_progress_line_has_no_empty_note(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("size 3 4\ninstances 1\nseed 1\nsolver sa samples=3 sweeps=1 rho=1e-9\n")
        code, stdout, _ = run(capsys, "bench", "--config", str(config), "--out", str(tmp_path / "r.csv"))
        assert code == 0
        assert stdout.splitlines()[1] == "      nd3_ns4_i0         sa no-feasible-sample"

    def test_bench_jsonl(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG)
        out = tmp_path / "results.jsonl"
        code, _, _ = run(
            capsys, "bench", "--config", str(config), "--out", str(out), "--format", "jsonl"
        )
        assert code == 0
        assert len(co.parse_results(out.read_text(), "jsonl")) == 6

    def test_bench_needs_output_path(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG)
        code, _, stderr = run(capsys, "bench", "--config", str(config))
        assert code == 2
        assert "out" in stderr

    def test_bench_fails_on_its_output_path_before_solving(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG)
        out = tmp_path / "missing" / "x.csv"
        code, stdout, stderr = run(capsys, "bench", "--config", str(config), "--out", str(out))
        assert code == 2
        assert "No such file" in stderr
        assert stdout == ""  # neither the grid header nor a progress line

    @pytest.mark.parametrize(
        "line, bad, reason",
        [
            ("seed 4", "seed -1", "seed must be >= 0"),
            ("solver exact", "solver exact cap=0", "cap must be >= 1"),
            ("size 3 3", "size 3 3\nsize 2 3", "a size is listed more than once: 2 3, 3 3, 2 3"),
        ],
    )
    def test_bench_bad_config_fails_before_solving(self, tmp_path, capsys, line, bad, reason):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG.replace(line, bad))
        out = tmp_path / "r.csv"
        code, stdout, stderr = run(capsys, "bench", "--config", str(config), "--out", str(out))
        assert code == 2
        assert stderr.startswith("error: ") and reason in stderr
        assert stdout == "" and not out.exists()  # no grid header, no progress line, no results file

    def test_bench_undecodable_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_bytes(self.CONFIG.encode() + b"# caf\xe9\n")
        out = tmp_path / "r.csv"
        code, stdout, stderr = run(capsys, "bench", "--config", str(config), "--out", str(out))
        assert code == 2
        assert stderr.startswith(f"error: {config} is not UTF-8 text")
        assert stdout == "" and not out.exists()

    def test_bench_bad_config(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("solver exact\n")
        code, _, stderr = run(capsys, "bench", "--config", str(config), "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "size" in stderr
