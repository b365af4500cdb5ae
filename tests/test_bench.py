import pytest

from clutchopt.bench import (
    BenchmarkConfig,
    SolverSpec,
    default_config,
    emit_results,
    format_config,
    parse_config,
    parse_results,
    run_benchmark,
)
from clutchopt.errors import ConfigError


def tiny_config(**overrides):
    base = dict(
        sizes=((2, 2), (3, 3)),
        instances_per_size=2,
        solvers=(
            SolverSpec("exhaustive", {}),
            SolverSpec("exact", {}),
            SolverSpec("sa", {"samples": 10, "sweeps": 80}),
        ),
        base_seed=77,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


def strip_wall_time(csv_text):
    rows = [line.split(",") for line in csv_text.splitlines()]
    drop = rows[0].index("wall_time")
    return ["\x1f".join(cell for i, cell in enumerate(row) if i != drop) for row in rows]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(sizes=())
        with pytest.raises(ConfigError):
            tiny_config(instances_per_size=0)
        with pytest.raises(ConfigError):
            tiny_config(solvers=())
        with pytest.raises(ConfigError):
            SolverSpec("warp-drive")
        with pytest.raises(ConfigError):
            SolverSpec("sa", {"warp": 1})

    @pytest.mark.parametrize(
        "lines", ["a0 nan\ndelta nan\n", "a0 nan\n", "delta nan\n", "delta inf\n", "a0 -inf\n"]
    )
    def test_parse_rejects_non_finite_band(self, lines):
        with pytest.raises(ConfigError):
            parse_config("size 2 2\nsolver exact\n" + lines)

    @pytest.mark.parametrize("budget", ["nan", "-5", "-inf"])
    def test_parse_rejects_nan_or_negative_budget(self, budget):
        with pytest.raises(ConfigError):
            parse_config(f"size 2 2\nsolver exact budget={budget}\n")

    @pytest.mark.parametrize("budget", ["0", "inf", "2.5"])
    def test_parse_accepts_zero_and_infinite_budget(self, budget):
        config = parse_config(f"size 2 2\nsolver exact budget={budget}\n")
        assert config.solvers[0].params["budget"] == float(budget)

    def test_parse_round_trip(self):
        config = tiny_config(out="results.csv")
        assert parse_config(format_config(config)) == config

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            parse_config("size 2 2\nsolver exact\nwarp 9\n")

    def test_parse_requires_sizes_and_solvers(self):
        with pytest.raises(ConfigError):
            parse_config("solver exact\n")
        with pytest.raises(ConfigError):
            parse_config("size 2 2\n")

    def test_parse_example_document(self):
        text = """
        # desk benchmark
        size 2 6
        size 3 6
        instances 2
        seed 9
        a0 1.5
        delta 0.2
        solver exhaustive cap=5000
        solver sa samples=10 sweeps=100 rho=0.5
        """
        config = parse_config(text)
        assert config.sizes == ((2, 6), (3, 6))
        assert config.base_seed == 9
        assert config.target_thickness == 1.5
        assert config.solvers[0].params == {"cap": 5000}
        assert config.solvers[1].params == {"samples": 10, "sweeps": 100, "rho": 0.5}


class TestRunBenchmark:
    def test_one_record_per_pair_and_oracle_agreement(self):
        records = run_benchmark(tiny_config())
        assert len(records) == 2 * 2 * 3
        keys = {(r.instance, r.solver) for r in records}
        assert len(keys) == len(records)
        by_instance = {}
        for rec in records:
            by_instance.setdefault(rec.instance, {})[rec.solver] = rec
        for group in by_instance.values():
            assert group["exhaustive"].range == pytest.approx(group["exact"].range, rel=1e-9)
            assert group["exhaustive"].sigma is not None
            assert group["exact"].optimal

    def test_skip_record_beyond_cap(self):
        config = tiny_config(
            sizes=((5, 6),),
            instances_per_size=1,
            solvers=(SolverSpec("exhaustive", {"cap": 100}), SolverSpec("approx", {})),
        )
        records = run_benchmark(config)
        skip = [r for r in records if r.solver == "exhaustive"][0]
        assert skip.status == "skip"
        assert "cap" in skip.note
        assert skip.sigma is None
        ok = [r for r in records if r.solver == "approx"][0]
        assert ok.status == "ok"

    def test_error_record_keeps_run_going(self, monkeypatch):
        import clutchopt.bench as bench_mod

        def boom(devs, solver, **kwargs):
            if solver == "exact":
                raise RuntimeError("synthetic failure")
            return real_solve(devs, solver, **kwargs)

        real_solve = bench_mod.solve
        monkeypatch.setattr(bench_mod, "solve", boom)
        records = run_benchmark(tiny_config())
        errors = [r for r in records if r.status == "error"]
        assert len(errors) == 4
        assert all("synthetic failure" in r.note for r in errors)
        assert len(records) == 12

    def test_determinism_modulo_wall_time(self):
        config = tiny_config()
        a = emit_results(run_benchmark(config))
        b = emit_results(run_benchmark(config))
        assert strip_wall_time(a) == strip_wall_time(b)

    def test_n_vars_column(self):
        records = run_benchmark(tiny_config(sizes=((3, 4),), instances_per_size=1))
        assert {r.n_vars for r in records} == {8}


class TestEmitParse:
    def test_csv_shape(self):
        records = run_benchmark(tiny_config(sizes=((2, 2),), instances_per_size=1))
        text = emit_results(records, "csv")
        lines = text.splitlines()
        assert len(lines) == len(records) + 1
        assert lines[0].startswith("instance,")

    def test_csv_round_trip(self):
        records = run_benchmark(tiny_config())
        assert parse_results(emit_results(records, "csv"), "csv") == records

    def test_jsonl_round_trip(self):
        records = run_benchmark(tiny_config())
        text = emit_results(records, "jsonl")
        assert len(text.splitlines()) == len(records)
        assert parse_results(text, "jsonl") == records

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_results([], "xml")


class TestDefaultConfig:
    def test_grid_contents(self):
        config = default_config()
        assert (2, 6) in config.sizes and (6, 6) in config.sizes
        assert (7, 42) in config.sizes
        names = [spec.name for spec in config.solvers]
        assert names == ["exhaustive", "exact", "approx", "sa"]
        sa = config.solvers[-1]
        assert sa.params == {"samples": 35, "sweeps": 1500}
