import csv
import json

import numpy as np
import pytest

from rgsolve import DenseMatrix, ProblemInstance, save_instance
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


def test_bench_takes_whole_floats_and_numeric_strings_for_integer_fields(tmp_path):
    config = {
        "problems": [{"kind": "randn", "m": 30, "n": 6}],
        "methods": [{"method": "rbk", "block_size": 3.0}, {"method": "rgrk"}],
        "seeds": [1.0, "2"],
        "repeats": "2",
        "max_iters": 30000.0,
    }
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "bench"
    assert run_cli("bench", str(cfg), "--out", str(out)) == 0
    rows = read_csv(out / "results.csv")
    assert [(row["label"], row["runs"]) for row in rows] == [("rbk block_size=3", "4"),
                                                             ("rgrk", "4")]


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
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgrk"}],
     "seeds": [-2]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgrk"}],
     "seeds": [0], "repeats": 0},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}],
     "methods": [{"method": "rbk", "block_size": 2.5}], "seeds": [0]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgdr"}],
     "seeds": [1.9]},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgrk"}],
     "seeds": [0], "repeats": 1.5},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}], "methods": [{"method": "rgdr"}],
     "seeds": [0], "max_iters": 2000.7},
    {"problems": [{"kind": "randn", "m": 10, "n": 2}],
     "methods": [{"method": "rgdr", "theta": True}], "seeds": [0]},
], ids=["not-an-object", "problem-5", "method-string", "tol", "max_iters", "repeats",
        "sigma1", "noise_scale", "theta", "block_size", "seed", "seeds-not-a-list",
        "methods-not-a-list", "unknown-kind", "unknown-method", "unknown-case",
        "negative-seed", "zero-repeats", "fractional-block_size", "fractional-seed",
        "fractional-repeats", "fractional-max_iters", "boolean-theta"])
def test_bench_malformed_config_entries_exit_2(tmp_path, capsys, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("bench", str(cfg), "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bench config ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("solve", "PROBLEM", "--method", "amdcd", "--eta2", "nan"),
    ("solve", "PROBLEM", "--method", "cd", "--tol", "nan"),
    ("gen", "--kind", "randn", "--m", "20", "--n", "4", "--seed", "1", "--inconsistent",
     "--noise-scale", "nan"),
], ids=["eta2", "tol", "noise-scale"])
def test_nan_parameter_exits_2(tmp_path, small_problem, capsys, argv):
    argv = [str(small_problem) if arg == "PROBLEM" else arg for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(", got nan\n") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_bench_nan_tol_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problems": [{"kind": "randn", "m": 10, "n": 2}],
                               "methods": [{"method": "cd"}], "seeds": [0],
                               "tol": float("nan")}))
    assert "NaN" in cfg.read_text()
    assert run_cli("bench", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == "error: rse_tol must be positive, got nan\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "randn", "--m", "50", "--n", "10", "--seed", "-1"),
    ("solve", "PROBLEM", "--method", "rgrk", "--seed", "-1"),
    ("solve", "PROBLEM", "--method", "rgrk", "--repeats", "0"),
    ("certify", "PROBLEM", "--method", "rgrk", "--seed", "-1"),
    ("certify", "PROBLEM", "--method", "rgrk", "--repeats", "0"),
], ids=["gen-seed", "solve-seed", "solve-repeats", "certify-seed", "certify-repeats"])
def test_negative_seed_or_repeats_below_one_exit_2(tmp_path, small_problem, capsys, argv):
    argv = [str(small_problem) if arg == "PROBLEM" else arg for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, old, new", [
    ("A.mtx", "60 8\n", "60 x\n"),
    ("b.mtx", "60 1\n", "60 1\nabc\n"),
    ("meta.json", '"consistent"', '"consistency"'),
], ids=["size-line", "value-line", "meta-without-consistent"])
def test_solve_malformed_problem_file_exits_2_naming_it(tmp_path, small_problem, capsys,
                                                       name, old, new):
    path = small_problem / name
    path.write_text(path.read_text().replace(old, new, 1))
    assert run_cli("solve", str(small_problem), "--method", "rgdr",
                   "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1


@pytest.mark.parametrize("command, name", [
    ("solve", "prob/A.mtx"), ("solve", "prob/meta.json"), ("bench", "bench.json"),
    ("trace-plot", "run/report.json"),
], ids=["matrix", "meta", "bench-config", "report"])
def test_non_ascii_input_file_exits_2_naming_it(tmp_path, small_problem, capsys, command, name):
    (tmp_path / "bench.json").write_text(json.dumps({
        "problems": [{"m": 10, "n": 2}], "methods": [{"method": "rgdr"}], "seeds": [0]}))
    assert run_cli("solve", str(small_problem), "--method", "rgdr",
                   "--out", str(tmp_path / "run")) == 0
    path = tmp_path / name
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    capsys.readouterr()
    argv = {"solve": ("solve", str(small_problem), "--method", "rgdr"),
            "bench": ("bench", str(path)), "trace-plot": ("trace-plot", str(path))}[command]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not an ASCII text file") and err.count("\n") == 1
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


@pytest.mark.parametrize("method", ["rgdr", "rgrk"])
def test_certify_refuses_min_dimension_above_512(tmp_path, capsys, method):
    # The identity keeps the 513x513 file short to write and read; nothing is solved.
    ones = np.ones(513)
    save_instance(ProblemInstance(DenseMatrix(np.eye(513)), ones, ones, True, 0),
                  tmp_path / "big")
    code = run_cli("certify", str(tmp_path / "big"), "--method", method,
                   "--out", str(tmp_path / "cert"))
    assert code == 4
    assert "min(m, n) = 513" in capsys.readouterr().err
    assert not (tmp_path / "cert").exists()  # refused before anything is written


def test_certify_tall_instance_beyond_512_rows(tmp_path):
    # 600x20: refused while certification guarded max(m, n) <= 512.
    prob = tmp_path / "tall"
    assert run_cli("gen", "--kind", "randn", "--m", "600", "--n", "20",
                   "--seed", "2", "--out", str(prob)) == 0
    assert run_cli("certify", str(prob), "--method", "rgdr",
                   "--out", str(tmp_path / "cert")) == 0
    rows = read_csv(tmp_path / "cert" / "certificates.csv")
    assert rows and all(row["satisfied"] == "1" for row in rows)


@pytest.mark.parametrize("method", ["rgrk", "rgrcd"])
def test_certify_statistical_refuses_one_repeat_before_the_solve(tmp_path, small_problem,
                                                                  capsys, method):
    code = run_cli("certify", str(small_problem), "--method", method, "--repeats", "1",
                   "--out", str(tmp_path / "cert"))
    assert code == 2
    assert capsys.readouterr().err == "error: statistical certification needs at least two runs\n"
    assert not (tmp_path / "cert").exists()


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


def test_every_csv_output_is_ascii_with_newline_line_ends(tmp_path, small_problem):
    # csv.DictReader accepts any line end, so the other tests cannot see the dialect.
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"problems": [{"kind": "randn", "m": 30, "n": 6}],
                               "methods": [{"method": "rgdr"}, {"method": "cd"}],
                               "seeds": [0], "repeats": 1}))
    runs = [
        ("solve", str(small_problem), "--method", "rgdr", "--out", str(tmp_path / "s")),
        ("solve", str(small_problem), "--method", "rgrk", "--repeats", "2",
         "--out", str(tmp_path / "r")),
        ("bench", str(cfg), "--out", str(tmp_path / "b")),
        ("certify", str(small_problem), "--method", "rgdc", "--out", str(tmp_path / "c1")),
        ("certify", str(small_problem), "--method", "rgrcd", "--repeats", "3",
         "--out", str(tmp_path / "c2")),
        ("trace-plot", str(tmp_path / "s" / "report.json"), str(tmp_path / "r" / "report.json"),
         "--out", str(tmp_path / "curves.csv")),
    ]
    for argv in runs:
        assert run_cli(*argv) == 0, argv
    headers = {
        "s/trace.csv": "run,k,rse,set_size,cumulative_seconds",
        "r/trace.csv": "run,k,rse,set_size,cumulative_seconds",
        "b/results.csv": "kind,m,n,case,method,label,seeds,runs,mean_it,mean_wall_seconds,"
                         "mean_final_rse,reasons,status",
        "b/summary.csv": "kind,m,n,case,method_a,method_b,it_ratio",
        "c1/certificates.csv": "k,factor,ratio,satisfied,relaxation_factor,active_energy,"
                               "zero_set_mass,sigma_min,sigma_max_subset,set_energy_fraction",
        "c2/certificates.csv": "method,theta,factor,mean_contraction,std_error,runs,satisfied",
        "curves.csv": "method,theta,k,cumulative_seconds,rse",
    }
    for name, header in headers.items():
        data = (tmp_path / name).read_bytes()
        assert data.isascii(), name
        assert b"\r" not in data and data.endswith(b"\n"), name
        lines = data.decode("ascii").split("\n")
        assert lines[0] == header, name
        assert len(lines) > 2 and lines[-1] == "", name  # a header, rows, a final newline


@pytest.mark.parametrize("payload", [
    {},
    [1],
    {"method": "rgdr", "params": {}, "runs": [{"rse_trace": [1.0, 0.5]}]},
], ids=["empty-object", "list", "run-without-iter-seconds"])
def test_trace_plot_malformed_report_exits_2_naming_it(tmp_path, capsys, payload):
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    out_csv = tmp_path / "curves.csv"
    assert run_cli("trace-plot", str(report), "--out", str(out_csv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: not a solve report") and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("params", [{}, {"theta": "\u03b8"}], ids=["method", "theta"])
def test_trace_plot_non_ascii_text_exits_2_naming_the_output(tmp_path, capsys, params):
    # An ASCII report can still hold non-ASCII text through JSON escapes.
    report = tmp_path / "report.json"
    method = "rgdc" if params else "\u03b8x"
    report.write_text(json.dumps({"method": method, "params": params,
                                  "runs": [{"rse_trace": [1.0], "iter_seconds": [0.0]}]}))
    assert report.read_bytes().isascii()
    out_csv = tmp_path / "o.csv"
    assert run_cli("trace-plot", str(report), "--out", str(out_csv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_csv}: cannot write non-ASCII text") and err.count("\n") == 1
    assert not out_csv.exists()


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as excinfo:
        main(["solve"])  # missing required arguments
    assert excinfo.value.code == 2
