import csv
import json

import numpy as np
import pytest

from rgsolve.cli import main
from rgsolve.errors import DegenerateStepError, RgsolveError


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def small_problem(tmp_path):
    out = tmp_path / "prob"
    code = run_cli("gen", "--kind", "randn", "--m", "60", "--n", "8",
                   "--seed", "7", "--out", str(out))
    assert code == 0
    return out


def test_gen_is_deterministic(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for out in (a_dir, b_dir):
        assert run_cli("gen", "--kind", "randn", "--m", "20", "--n", "5",
                       "--seed", "3", "--out", str(out)) == 0
    for name in ("A.mtx", "b.mtx", "xstar.mtx", "meta.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_gen_smatrix_inconsistent_meta(tmp_path):
    out = tmp_path / "smat"
    code = run_cli("gen", "--kind", "smatrix", "--m", "100", "--n", "10", "--r", "10",
                   "--sigma1", "1.25", "--sigma2", "1", "--inconsistent",
                   "--seed", "5", "--out", str(out))
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["consistent"] is False
    assert meta["meta"]["generator"] == "smatrix"
    assert meta["meta"]["noise_scale"] == 0.1


def test_solve_converges_and_emits_outputs(tmp_path, small_problem, capsys):
    out = tmp_path / "run"
    code = run_cli("solve", str(small_problem), "--method", "rgdr",
                   "--theta", "0.5", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "reason=converged" in printed
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "rgdr"
    assert report["runs"][0]["termination_reason"] == "converged"
    assert report["runs"][0]["rse_trace"][0] == 1.0
    rows = read_csv(out / "trace.csv")
    assert rows[0]["k"] == "0" and rows[0]["rse"] == "1.0"


def test_solve_deterministic_outputs_modulo_wall_clock(tmp_path, small_problem):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli("solve", str(small_problem), "--method", "rgrk", "--theta", "0.5",
                       "--seed", "11", "--out", str(out)) == 0
        outs.append(out)
    reports = [json.loads((o / "report.json").read_text()) for o in outs]
    for rep in reports:
        for run in rep["runs"]:
            run.pop("iter_seconds")
            run.pop("wall_seconds")
        rep["aggregate"].pop("mean_wall_seconds")
    assert reports[0] == reports[1]
    traces = []
    for o in outs:
        rows = read_csv(o / "trace.csv")
        traces.append([(r["run"], r["k"], r["rse"], r["set_size"]) for r in rows])
    assert traces[0] == traces[1]


def test_solve_row_method_on_inconsistent_instance_exits_3(tmp_path):
    prob = tmp_path / "incons"
    assert run_cli("gen", "--kind", "randn", "--m", "50", "--n", "6",
                   "--inconsistent", "--seed", "9", "--out", str(prob)) == 0
    out = tmp_path / "run"
    code = run_cli("solve", str(prob), "--method", "rgdr", "--out", str(out))
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["runs"][0]["termination_reason"] == "stalled"


def test_solve_repeats_reports_mean_with_one_decimal(tmp_path, small_problem, capsys):
    out = tmp_path / "rep"
    code = run_cli("solve", str(small_problem), "--method", "rgrk", "--theta", "0.5",
                   "--repeats", "5", "--out", str(out))
    assert code == 0
    printed = capsys.readouterr().out
    assert "mean IT=" in printed
    mean_field = printed.split("mean IT=")[1].split()[0]
    assert "." in mean_field and len(mean_field.split(".")[1]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["aggregate"]["runs"] == 5
    assert len(report["runs"]) == 5


def test_solve_repeats_ignored_for_deterministic_methods(tmp_path, small_problem):
    out = tmp_path / "det"
    assert run_cli("solve", str(small_problem), "--method", "rgdr",
                   "--repeats", "5", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["aggregate"]["runs"] == 1


def test_solve_unknown_method_exits_2(tmp_path, small_problem):
    assert run_cli("solve", str(small_problem), "--method", "bogus",
                   "--out", str(tmp_path / "x")) == 2


def test_solve_missing_problem_dir_exits_2(tmp_path):
    assert run_cli("solve", str(tmp_path / "nope"), "--method", "rgdr",
                   "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("runner, method, error", [
    ("run_col_method", "rgdc", DegenerateStepError("selected columns cancel exactly")),
    ("run_row_method", "rgdr", RgsolveError("residual recursion drifted beyond tolerance")),
])
def test_solver_errors_exit_3_with_one_error_line(tmp_path, small_problem, capsys,
                                                  monkeypatch, runner, method, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"rgsolve.cli.{runner}", fail)
    code = run_cli("solve", str(small_problem), "--method", method, "--out", str(tmp_path / "x"))
    assert code == 3
    assert capsys.readouterr().err == f"error: {error}\n"


def test_bench_small_sweep(tmp_path):
    config = {
        "problems": [{"kind": "randn", "m": 60, "n": 8}],
        "methods": [
            {"method": "rgdr", "theta": 0.5},
            {"method": "rgrk", "theta": 0.5},
        ],
        "seeds": [0, 1],
        "tol": 1e-4,
        "repeats": 3,
    }
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "bench"
    assert run_cli("bench", str(cfg), "--out", str(out)) == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 2
    by_method = {r["method"]: r for r in rows}
    assert float(by_method["rgdr"]["mean_it"]) < float(by_method["rgrk"]["mean_it"])
    assert by_method["rgdr"]["runs"] == "2"  # deterministic: one run per seed
    assert by_method["rgrk"]["runs"] == "6"  # randomized: repeats per seed
    summary = read_csv(out / "summary.csv")
    assert len(summary) == 1
    assert float(summary[0]["it_ratio"]) < 1.0


def test_bench_labels_numeric_string_parameters_by_their_value(tmp_path):
    config = {
        "problems": [{"kind": "randn", "m": 30, "n": 6}],
        "methods": [{"method": "rgdr", "theta": "0.5"}, {"method": "rbcd", "block_size": "3"}],
        "seeds": [0],
        "repeats": 1,
    }
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "bench"
    assert run_cli("bench", str(cfg), "--out", str(out)) == 0
    labels = [row["label"] for row in read_csv(out / "results.csv")]
    assert labels == ["rgdr theta=0.5", "rbcd block_size=3"]


def test_bench_empty_methods_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problems": [{"kind": "randn", "m": 10, "n": 2}],
                               "methods": [], "seeds": [0]}))
    assert run_cli("bench", str(cfg), "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("problem", [
    {"kind": "randn", "n": 3},
    {"kind": "randn", "m": 0, "n": 3},
    {"kind": "randn", "m": 10, "n": 2.5},
    {"kind": "randn", "m": "10", "n": 3},
    {"kind": "smatrix", "m": 10, "n": 4, "r": "abc"},
    {"kind": "smatrix", "m": 10, "n": 4, "r": 0},
])
def test_bench_problem_without_positive_integer_dims_exits_2(tmp_path, capsys, problem):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problems": [problem], "methods": [{"method": "rgdr"}],
                               "seeds": [0]}))
    assert run_cli("bench", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bench config problem ") and err.count("\n") == 1


@pytest.mark.parametrize("config", [
    [],
    {"problems": [5], "methods": [{"method": "rgdr"}], "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": ["rgdr"], "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgdr"}],
     "seeds": [0], "tol": "abc"},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgdr"}],
     "seeds": [0], "max_iters": [3]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgdr"}],
     "seeds": [0], "repeats": "many"},
    {"problems": [{"kind": "smatrix", "m": 10, "n": 2, "sigma1": "abc"}],
     "methods": [{"method": "rgdr"}], "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2, "noise_scale": None}],
     "methods": [{"method": "rgdr"}], "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}],
     "methods": [{"method": "rgdr", "theta": "x"}], "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}],
     "methods": [{"method": "rbk", "block_size": [2]}], "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgdr"}],
     "seeds": ["a"]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgdr"}],
     "seeds": 5},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": 5, "seeds": [0]},
    {"problems": [{"kind": "nope", "m": 10, "n": 2}], "methods": [{"method": "rgdr"}],
     "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "nope"}],
     "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2, "case": "inconsistant"}],
     "methods": [{"method": "rgdr"}], "seeds": [0]},
], ids=["not-an-object", "problem-5", "method-string", "tol", "max_iters", "repeats",
        "sigma1", "noise_scale", "theta", "block_size", "seed", "seeds-not-a-list",
        "methods-not-a-list", "unknown-kind", "unknown-method", "unknown-case"])
def test_bench_malformed_config_entries_exit_2(tmp_path, capsys, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("bench", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bench config ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_certify_deterministic_pass(tmp_path):
    prob = tmp_path / "prob"
    assert run_cli("gen", "--kind", "randn", "--m", "100", "--n", "50",
                   "--seed", "4", "--out", str(prob)) == 0
    out = tmp_path / "cert"
    assert run_cli("certify", str(prob), "--method", "rgdr", "--theta", "0.5",
                   "--out", str(out)) == 0
    rows = read_csv(out / "certificates.csv")
    assert rows and all(r["satisfied"] == "1" for r in rows)
    assert run_cli("certify", str(prob), "--method", "rgdc", "--theta", "0.3",
                   "--out", str(tmp_path / "cert2")) == 0


def test_certify_randomized_statistical(tmp_path):
    prob = tmp_path / "prob"
    assert run_cli("gen", "--kind", "randn", "--m", "60", "--n", "12",
                   "--seed", "6", "--out", str(prob)) == 0
    out = tmp_path / "cert"
    assert run_cli("certify", str(prob), "--method", "rgrk", "--theta", "0.5",
                   "--repeats", "10", "--out", str(out)) == 0
    rows = read_csv(out / "certificates.csv")
    assert rows[0]["satisfied"] == "1"
    assert rows[0]["runs"] == "10"


def test_certify_size_guard_refusal(tmp_path):
    prob = tmp_path / "big"
    assert run_cli("gen", "--kind", "randn", "--m", "600", "--n", "20",
                   "--seed", "2", "--out", str(prob)) == 0
    code = run_cli("certify", str(prob), "--method", "rgdr",
                   "--out", str(tmp_path / "cert"))
    assert code == 4
    assert not (tmp_path / "cert").exists()  # refused before anything is written


def test_trace_plot_long_format(tmp_path, small_problem):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert run_cli("solve", str(small_problem), "--method", "rgdc", "--theta", "0.5",
                   "--out", str(run_a)) == 0
    assert run_cli("solve", str(small_problem), "--method", "rgrcd", "--theta", "0.5",
                   "--seed", "1", "--out", str(run_b)) == 0
    out_csv = tmp_path / "curves.csv"
    assert run_cli("trace-plot", str(run_a / "report.json"), str(run_b / "report.json"),
                   "--out", str(out_csv)) == 0
    rows = read_csv(out_csv)
    methods = [r["method"] for r in rows]
    assert methods == sorted(methods)
    ks = [int(r["k"]) for r in rows if r["method"] == "rgdc"]
    assert ks == sorted(ks)
    # the deterministic aggregate method reaches the target in fewer tracked steps
    assert max(int(r["k"]) for r in rows if r["method"] == "rgdc") < \
        max(int(r["k"]) for r in rows if r["method"] == "rgrcd")


def test_trace_plot_empty_inputs_writes_header_only(tmp_path):
    out_csv = tmp_path / "empty.csv"
    assert run_cli("trace-plot", "--out", str(out_csv)) == 0
    assert out_csv.read_text().splitlines() == ["method,theta,k,cumulative_seconds,rse"]


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as excinfo:
        main(["solve"])  # missing required arguments
    assert excinfo.value.code == 2
