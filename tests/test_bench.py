import json
import re

import numpy as np
import pytest

from clutchopt.bench import (
    BenchmarkConfig,
    SolverSpec,
    default_config,
    emit_results,
    parse_config,
    parse_results,
    run_benchmark,
)
from clutchopt.errors import ConfigError
from clutchopt.solvers import DEFAULT_ENUMERATION_CAP, DEFAULT_SAMPLES, DEFAULT_SWEEPS


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


def _jsonl_row(drop=(), **overrides):
    """A well-formed JSONL result line with some values replaced or keys dropped."""
    row = {
        "instance": "nd2_ns2_i0", "n_disks": 2, "n_segments": 2, "n_vars": 2,
        "solver": "exact", "status": "ok", "sigma": 0.1, "range": 0.2, "energy": None,
        "wall_time": 0.0, "samples_total": None, "samples_feasible": None,
        "nodes_explored": 2, "optimal": True, "seed": 7, "note": "",
    }
    return json.dumps({k: v for k, v in {**row, **overrides}.items() if k not in drop})


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
        # a parameter name that is not a string is named too, alone or among strings
        for params in ({1: 2}, {1: 2, "warp": 3}):
            with pytest.raises(ConfigError, match="^exact does not take 1"):
                SolverSpec("exact", params)
        # a size is two integers >= 1: a float or a bool is not, a numpy integer is
        for size in [(2.5, 4), (2, 4.0), (True, 4), (2, 0)]:
            with pytest.raises(ConfigError):
                tiny_config(sizes=(size,))
        assert tiny_config(sizes=((np.int64(2), np.int64(4)),)).sizes == ((2, 4),)
        # a size is a pair, a tuple of two: the error names the size that is not
        bad_sizes = [(((2, 4, 5),), "(2, 4, 5)"), (((2,),), "(2,)"), ((2, 4), "2"), (([2, 4],), "[2, 4]")]
        for sizes, shown in bad_sizes:
            with pytest.raises(ConfigError, match=f"a size is a pair .*, got {re.escape(shown)}$"):
                tiny_config(sizes=sizes)
        # the thickness band is two finite real numbers, a bool or a str is not, and delta >= 0
        for a0, delta in [("2.0", 0.1), (2.0, "0.1"), (True, 0.1), (2.0, True), (None, 0.1), (2.0, -0.1)]:
            with pytest.raises(ConfigError):
                tiny_config(target_thickness=a0, max_variation=delta)
        assert tiny_config(target_thickness=2, max_variation=np.float32(0.5)).max_variation == 0.5

    @pytest.mark.parametrize("field", ["sizes", "solvers"])
    def test_rejects_sizes_or_solvers_that_are_no_sequence(self, field):
        with pytest.raises(ConfigError, match=f"^{field} must be a sequence, got 5$"):
            tiny_config(**{field: 5})

    @pytest.mark.parametrize("solvers", [["exact"], (SolverSpec("exact"), "sa"), ({"name": "exact"},)])
    def test_rejects_a_solver_entry_that_is_not_a_solver_spec(self, solvers):
        with pytest.raises(ConfigError, match="^a solver entry is a SolverSpec"):
            tiny_config(solvers=solvers)

    @pytest.mark.parametrize(
        "lines",
        [
            "a0 nan\ndelta nan\n",
            "a0 nan\n",
            "delta nan\n",
            "delta inf\n",
            "a0 -inf\n",
            # each finite, but the band's upper edge a0 + delta / 2 overflows
            "a0 1.7e308\ndelta 1e308\n",
        ],
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

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("solver exact budget=nan", "budget must be >= 0"),
            ("solver sa budget=1", "sa does not take budget"),
            ("bogus 1", "unknown key"),
            ("solver sa samples=2 samples=3", "samples is given twice"),
            ("solver exact objective=sigma", "exact optimizes range only"),
            ("solver sa objective=range", "sa optimizes sigma only"),
            ("solver sa samples=0", "samples must be >= 1"),
            ("solver sa sweeps=0", "sweeps must be >= 1"),
            ("solver sa sweeps=-3", "sweeps must be >= 1"),
            ("solver sa rho=0", "rho must be finite and > 0"),
            ("solver sa rho=-1", "rho must be finite and > 0"),
            ("solver sa rho=nan", "rho must be finite and > 0"),
            ("solver sa rho=inf", "rho must be finite and > 0"),
            # a solve() keyword the config spells otherwise is an unknown key, whatever its value
            ("solver exact budget_seconds=abc", "exact does not take budget_seconds"),
            ("solver exact budget_seconds=2", "exact does not take budget_seconds"),
        ],
    )
    def test_parse_errors_keep_their_reason(self, line, reason):
        with pytest.raises(ConfigError, match=f"^line 2: {reason}"):
            parse_config(f"size 2 2\n{line}\nsolver approx\n")

    @pytest.mark.parametrize(
        "line",
        ["size 2 2 9", "instances 2 3", "seed 9 10", "a0 1.5 2.0", "delta 0.1 0.2", "out my results.csv"],
    )
    def test_parse_rejects_extra_tokens(self, line):
        with pytest.raises(ConfigError, match="^line 2: cannot parse"):
            parse_config(f"size 2 2\n{line}\nsolver approx\n")

    def test_solver_spec_checks_parameters_against_the_solver(self):
        with pytest.raises(ConfigError, match="exact does not take samples"):
            SolverSpec("exact", {"samples": 3})
        with pytest.raises(ConfigError, match="approx does not take cap"):
            SolverSpec("approx", {"cap": 100})
        assert SolverSpec("exact", {"cap": 100, "budget": 1.0}).params == {"cap": 100, "budget": 1.0}

    def test_rejects_a_solver_listed_twice(self):
        with pytest.raises(ConfigError, match="more than once"):
            parse_config("size 2 2\nsolver sa samples=2 sweeps=5\nsolver sa samples=3 sweeps=50\n")
        with pytest.raises(ConfigError, match="more than once"):
            tiny_config(solvers=(SolverSpec("exact"), SolverSpec("approx"), SolverSpec("exact")))

    def test_rejects_a_size_listed_twice(self):
        # rows are keyed by instance, so a repeated size would repeat its nd2_ns4_i0 rows
        with pytest.raises(ConfigError, match="more than once: 2 4, 3 4, 2 4"):
            parse_config("size 2 4\nsize 3 4\nsize 2 4\nsolver exact\n")
        with pytest.raises(ConfigError, match="more than once"):
            tiny_config(sizes=((2, 2), (2, 2)))

    @pytest.mark.parametrize(
        "out", ["results.csv", "runs/2024-08-17/r.jsonl", "out/a,b;c.csv", "résultats.csv"]
    )
    def test_parse_out_path(self, out):
        text = (
            "size 2 2\nsize 3 3\ninstances 2\nseed 77\n"
            f"out {out}\nsolver exhaustive\nsolver exact\nsolver sa samples=10 sweeps=80\n"
        )
        assert parse_config(text) == tiny_config(out=out)

    @pytest.mark.parametrize(
        "out", ["", "my results.csv", "run#2.csv", " r.csv", "r.csv\n", "a\tb", 5, b"r.csv", ["r.csv"]]
    )
    def test_rejects_out_that_would_not_round_trip(self, out):
        with pytest.raises(ConfigError, match="out must be"):
            tiny_config(out=out)

    @pytest.mark.parametrize(
        "first, second",
        [("instances 2", "instances 3"), ("seed 1", "seed 2"), ("a0 2.0", "a0 2.0"), ("delta 0.1", "delta 0.2"),
         ("out a.csv", "out b.csv")],
    )
    def test_parse_rejects_a_key_given_twice(self, first, second):
        # the last line would win silently, so seed 1 then seed 2 would run seed 2
        key = first.split()[0]
        with pytest.raises(ConfigError, match=f"^line 4: {key} is given twice$"):
            parse_config(f"size 2 2\n{first}\nsolver exact\n{second}\n")

    @pytest.mark.parametrize("seed", ["-1", "-20240817"])
    def test_parse_rejects_negative_seed(self, seed):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            parse_config(f"size 2 2\nseed {seed}\nsolver exact\n")

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

    def test_exact_skips_beyond_its_cap(self):
        config = tiny_config(
            sizes=((4, 6),),
            instances_per_size=1,
            solvers=(SolverSpec("exact", {"cap": 100}), SolverSpec("approx")),
        )
        records = run_benchmark(config)
        skip = records[0]
        assert skip.status == "skip"
        assert skip.note == "216 gauge-fixed configurations exceed the cap of 100"
        assert skip.nodes_explored is None
        assert records[1].status == "ok"

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

    def test_no_feasible_sample_row_round_trips(self):
        # a penalty near zero and one sweep leave every chain off the one-hot constraints
        config = tiny_config(
            sizes=((3, 4),),
            instances_per_size=1,
            base_seed=1,
            solvers=(SolverSpec("sa", {"samples": 3, "sweeps": 1, "rho": 1e-9}),),
        )
        records = run_benchmark(config)
        (row,) = records
        assert row.status == "no-feasible-sample" and row.note == ""
        assert row.sigma is None and row.range is None and row.energy is not None
        assert (row.samples_total, row.samples_feasible) == (3, 0)
        text = emit_results(records, "csv")
        assert text.splitlines()[1].startswith("nd3_ns4_i0,3,4,8,sa,no-feasible-sample,,,")
        assert parse_results(text, "csv") == records
        assert parse_results(emit_results(records, "jsonl"), "jsonl") == records

    def test_jsonl_values_typed_like_csv_cells(self):
        (record,) = parse_results(_jsonl_row(wall_time=0, optimal=False) + "\n", "jsonl")
        assert record.wall_time == 0.0 and isinstance(record.wall_time, float)
        assert record.optimal is False and record.energy is None
        assert parse_results(emit_results([record], "csv"), "csv") == [record]

    def test_csv_header_is_pinned(self):
        assert emit_results([], "csv") == (
            "instance,n_disks,n_segments,n_vars,solver,status,sigma,range,energy,wall_time,"
            "samples_total,samples_feasible,nodes_explored,optimal,seed,note\n"
        )

    @pytest.mark.parametrize(
        "fmt, bad",
        [
            ("csv", "nd2_ns2_i0,2,2,2"),
            ("csv", "nd2_ns2_i0,two,2,2,exact,ok,0.1,0.2,,0.0,1,1,2,true,7,"),
            ("csv", "nd2_ns2_i0,2,2,2,exact,ok,low,0.2,,0.0,1,1,2,true,7,"),
            ("csv", "nd2_ns2_i0,2,2,2,exact,ok,0.1,0.2,,0.0,1,1,2,maybe,7,"),
            ("jsonl", '{"instance": "nd2_ns2_i0",'),
            ("jsonl", '{"warp": 1}'),
            ("jsonl", "[1, 2]"),
            ("jsonl", _jsonl_row(n_disks="two")),
            ("jsonl", _jsonl_row(optimal="yes")),
            ("jsonl", _jsonl_row(n_disks=True)),
            ("jsonl", _jsonl_row(sigma="0.1")),
            ("jsonl", _jsonl_row(instance=None)),
            ("jsonl", _jsonl_row(warp=1)),
            ("jsonl", _jsonl_row(drop=("sigma", "note"))),
            ("jsonl", _jsonl_row(status="fine")),
            ("csv", "nd2_ns2_i0,2,2,2,exact,fine,0.1,0.2,,0.0,1,1,2,true,7,"),
        ],
    )
    def test_parse_results_rejects_malformed_records(self, fmt, bad):
        records = run_benchmark(tiny_config(sizes=((2, 2),), instances_per_size=1))
        with pytest.raises(ConfigError, match=f"^record {len(records) + 1}: "):
            parse_results(emit_results(records, fmt) + bad + "\n", fmt)

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            emit_results([], "xml")
        with pytest.raises(ConfigError, match="^unknown output format 'xml'$"):
            parse_results(emit_results([], "csv"), "xml")


class TestDefaultConfig:
    def test_grid_contents(self):
        config = default_config()
        assert config.instances_per_size == 2
        assert (2, 6) in config.sizes and (6, 6) in config.sizes
        assert (7, 42) in config.sizes
        names = [spec.name for spec in config.solvers]
        assert names == ["exhaustive", "exact", "approx", "sa"]
        sa = config.solvers[-1]
        assert sa.params == {"samples": 35, "sweeps": 1500}
        # the grid takes its defaults from the solvers, one source for each
        assert config.solvers[1].params == {"cap": DEFAULT_ENUMERATION_CAP}
        assert sa.params == {"samples": DEFAULT_SAMPLES, "sweeps": DEFAULT_SWEEPS}
