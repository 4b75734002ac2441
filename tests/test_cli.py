import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peclab

from peclab import cli, worlds
from peclab.biasfactor import report_from_data
from peclab.cli import dispatch
from peclab.datagen import generate_scenario
from peclab.harness import _fmt
from peclab.model import Dataset, format_scenario, load_scenario


@pytest.fixture()
def scenario_file(tmp_path):
    s = worlds.table3_scenario(1, n=800, replications=2, seed=3)
    path = tmp_path / "scenario.txt"
    path.write_text(format_scenario(s))
    return path


@pytest.fixture()
def dataset_csv(tmp_path):
    ds = generate_scenario(worlds.table3_scenario(1, n=3000, seed=9), 0)
    path = tmp_path / "data.csv"
    ds.to_csv(path)
    return path


def test_no_command_is_usage_error(capsys):
    assert dispatch([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 1


def test_bad_flag_is_usage_error():
    assert dispatch(["reproduce", "--table", "table7"]) == 1


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("simulate", "reproduce", "exchprob", "bias", "calibrate", "estimate"):
        assert cmd in out


def test_subcommand_help_documents_flags(capsys):
    assert dispatch(["estimate", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--method", "--exposure", "--adjust", "--delta", "--estimand"):
        assert flag in out


def test_simulate_writes_results(scenario_file, tmp_path, capsys):
    out = tmp_path / "results.csv"
    data = tmp_path / "rep0.csv"
    code = dispatch(
        [
            "simulate",
            "--scenario", str(scenario_file),
            "--methods", "naive_cep,rc",
            "--jobs", "1",
            "--out", str(out),
            "--emit-csv", str(data),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,method,estimand,mean,mc_sd,runs"
    assert len(lines) == 3
    assert data.read_text().splitlines()[0] == "X,Xep,C,Cep,V,Vep,Y"


def test_rejected_simulate_leaves_no_emitted_csv(scenario_file, tmp_path, capsys):
    data = tmp_path / "rep0.csv"
    code = dispatch(
        ["simulate", "--scenario", str(scenario_file), "--methods", "naive_cep,bogus",
         "--jobs", "1", "--out", str(tmp_path / "results.csv"), "--emit-csv", str(data)]
    )
    assert code == 2
    assert "unknown method(s): bogus" in capsys.readouterr().err
    assert not data.exists()


def test_simulate_seed_flag_threads_through(scenario_file, tmp_path):
    out1, out2, out3 = (tmp_path / f"r{i}.csv" for i in range(3))
    for out, seed in ((out1, "99"), (out2, "99"), (out3, "100")):
        assert dispatch(
            ["simulate", "--scenario", str(scenario_file), "--methods", "naive_cep",
             "--jobs", "1", "--seed", seed, "--out", str(out)]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_env_seed_fallback(scenario_file, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("PECLAB_SEED", "424242")
    assert dispatch(
        ["simulate", "--scenario", str(scenario_file), "--methods", "naive_cep",
         "--jobs", "1", "--out", str(out1)]
    ) == 0
    monkeypatch.delenv("PECLAB_SEED")
    assert dispatch(
        ["simulate", "--scenario", str(scenario_file), "--methods", "naive_cep",
         "--jobs", "1", "--seed", "424242", "--out", str(out2)]
    ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invalid_scenario_is_data_error(tmp_path, capsys):
    s = worlds.table3_scenario(1, n=800, replications=2, seed=3)
    text = format_scenario(s).replace("scenario.n = 800", "scenario.n = 0")
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert dispatch(["simulate", "--scenario", str(path)]) == 2
    assert "n must be" in capsys.readouterr().err


def test_comma_in_scenario_name_is_data_error(scenario_file, tmp_path, capsys):
    path = tmp_path / "comma.txt"
    path.write_text(
        scenario_file.read_text().replace("scenario.name = table3-1", "scenario.name = a,b")
    )
    out = tmp_path / "results.csv"
    assert dispatch(
        ["simulate", "--scenario", str(path), "--methods", "naive_cep", "--jobs", "1",
         "--out", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert "name 'a,b' must be non-empty, with no comma" in err
    assert not out.exists()


@pytest.mark.parametrize("lo, hi, code", [(-1.7e308, 1.7e308, 2), (-1e18, 1e18, 0)])
def test_a_rounded_uniform_noise_wider_than_a_float_is_one_data_error(
    lo, hi, code, scenario_file, tmp_path, capsys
):
    # hi - lo overflows at 3.4e308; at 2e18 the law simulates, its moments
    # read from its end cells
    lines = [
        f"outcome.noise = roundedUniform({lo!r}, {hi!r})" if line.startswith("outcome.noise =")
        else line
        for line in scenario_file.read_text().splitlines()
    ]
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "results.csv"
    assert dispatch(["simulate", "--scenario", str(path), "--methods", "naive_cep",
                     "--jobs", "1", "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.count("error:") == 1
        assert "outcome.noise: roundedUniform requires hi - lo to be finite" in err
        assert not out.exists()
    else:
        assert err == "" and out.exists()


def test_nonzero_mean_error_noise_is_data_error(tmp_path, capsys):
    s = worlds.table3_scenario(1, n=800, replications=2, seed=3)
    text = format_scenario(s).replace(
        "exposure_error.noiseU = normal(0.0, 0.3)", "exposure_error.noiseU = normal(0.5, 0.3)"
    )
    assert text != format_scenario(s)
    path = tmp_path / "shifted.txt"
    path.write_text(text)
    assert dispatch(["simulate", "--scenario", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert "exposure_error.noiseU must have mean 0" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_out_of_range_seed_is_data_error(scenario_file, tmp_path, monkeypatch, capsys):
    table2 = ["reproduce", "--table", "table2", "--n", "1000", "--jobs", "1"]
    for seed in ("-1", str(2**64)):
        assert dispatch(table2 + ["--seed", seed]) == 2
        assert f"seed {seed} is outside [0, 2**64)" in capsys.readouterr().err
    monkeypatch.setenv("PECLAB_SEED", "-1")
    assert dispatch(table2) == 2
    assert "seed -1 is outside" in capsys.readouterr().err
    monkeypatch.delenv("PECLAB_SEED")
    path = tmp_path / "negative.txt"
    path.write_text(scenario_file.read_text().replace("scenario.seed = 3", "scenario.seed = -1"))
    assert dispatch(["simulate", "--scenario", str(path), "--jobs", "1"]) == 2
    assert "seed -1 is outside" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["reproduce", "--table", "table2", "--n", "0"], "error: n must be >= 1"),
        (["reproduce", "--table", "table3", "--n", "0"], "table3-1: n must be >= 1"),
        (["reproduce", "--table", "table3", "--runs", "0"], "table3-1: replications must be >= 1"),
        (["reproduce", "--table", "table3", "--jobs", "0"], "error: jobs must be >= 1"),
        (["simulate", "--scenario", "SCENARIO", "--jobs", "0"], "error: jobs must be >= 1"),
        (["simulate", "--scenario", "NONFINITE", "--jobs", "1"],
         "outcome.beta_x must be finite, got inf; x_model.noise: parameters must be finite, "
         "got normal(0.0, nan)"),
        *(
            (["estimate", "--method", method, "--in", "DATA", "--exposure", "X",
              "--adjust", "C,V", "--delta", delta], "error: delta must be finite and > 0")
            for method in ("naive", "ipw", "gcomp")
            for delta in ("nan", "inf")
        ),
        (["reproduce", "--table", "table2", "--runs", "0"], "error: runs must be >= 1"),
        (["bias", "--gamma1", "nan", "--var-x", "1", "--var-u", "1"],
         "error: gamma1 must be finite, got nan"),
        (["bias", "--gamma1", "1", "--var-x", "inf", "--var-u", "0.5"],
         "error: var_x must be finite and >= 0, got inf"),
        (["bias", "--gamma1", "1", "--var-x", "0.5", "--var-u", "nan"],
         "error: var_u must be finite and >= 0, got nan"),
        (["reproduce", "--table", "table2", "--n", "2000", "--runs", "7"],
         "error: table2 draws one world and takes no runs"),
    ],
)
def test_zero_and_non_finite_inputs_are_data_errors(
    argv, message, scenario_file, dataset_csv, tmp_path, capsys
):
    nonfinite = tmp_path / "nonfinite.txt"
    nonfinite.write_text(
        scenario_file.read_text()
        .replace("outcome.beta_x = 1.0", "outcome.beta_x = inf")
        .replace("x_model.noise = normal(0.0, 0.5)", "x_model.noise = normal(0.0, nan)")
    )
    paths = {"SCENARIO": str(scenario_file), "NONFINITE": str(nonfinite), "DATA": str(dataset_csv)}
    assert dispatch([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, code, header",
    [
        (["simulate", "--scenario", "SCENARIO", "--methods", "naive_cep", "--jobs", "1",
          "--out", "-"], 0, "scenario,method,estimand,mean,mc_sd,runs"),
        (["simulate", "--scenario", "SCENARIO", "--methods", "naive_cep", "--jobs", "1",
          "--out", "results.csv", "--emit-csv", "-"], 0, "X,Xep,C,Cep,V,Vep,Y\n"),
        (["reproduce", "--table", "table2", "--n", "2000", "--out", "-"], 3,
         "scenario,method,estimand,mean,mc_sd,runs,paper_value,abs_diff,pass"),
        (["exchprob", "--table2", "--n", "2000", "--out", "-"], 0, "xep,x,y,p,mode"),
        (["bias", "--gamma1", "1", "--var-x", "0.5", "--var-u", "0.5", "--out", "-"], 0,
         "quantity,value"),
        (["bias", "--figure2", "-"], 0, "gamma1,p,lambda"),
        (["calibrate", "--in", "DATA", "--out", "-"], 0, "X,Xep,C,Cep,V,Vep,Y,"),
        (["calibrate", "--in", "DATA", "--out", "calibrated.csv", "--coef-out", "-"], 0,
         "target,term,coefficient,residual_sd"),
        (["estimate", "--method", "naive", "--in", "DATA", "--exposure", "X",
          "--adjust", "C,V", "--out", "-"], 0, "method,estimand,delta,value"),
    ],
    ids=["simulate", "simulate-emit-csv", "reproduce", "exchprob", "bias", "bias-figure2", "calibrate",
         "calibrate-coef", "estimate"],
)
def test_out_dash_writes_to_stdout(
    argv, code, header, scenario_file, dataset_csv, tmp_path, monkeypatch, capsys
):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    paths = {"SCENARIO": str(scenario_file), "DATA": str(dataset_csv)}
    assert dispatch([paths.get(a, a) for a in argv]) == code
    assert capsys.readouterr().out.startswith(header)
    assert not (work / "-").exists()


def test_reproduce_exit_codes_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = dispatch(["reproduce", "--table", "table3", "--n", "400", "--runs", "2",
                      "--seed", "1", "--jobs", "1", "--out", str(out1)])
    code2 = dispatch(["reproduce", "--table", "table3", "--n", "400", "--runs", "2",
                      "--seed", "1", "--jobs", "1", "--out", str(out2)])
    # tiny runs fail the tolerance check: exit 3, identical bytes
    assert code1 == code2 == 3
    assert out1.read_bytes() == out2.read_bytes()


def test_exchprob_table2_grid_and_csv(tmp_path, capsys):
    out = tmp_path / "cells.csv"
    code = dispatch(
        ["exchprob", "--table2", "--n", "150000", "--seed", "5", "--grid",
         "--out", str(out)]
    )
    assert code == 0
    grid = capsys.readouterr().out.splitlines()
    assert grid[0].startswith("xep,")
    assert grid[0].endswith(",sum")
    assert len(grid) == 6  # header + 5 measured-exposure rows
    # row sums are the final column
    for line in grid[1:]:
        assert float(line.split(",")[-1]) == pytest.approx(1.0, abs=1e-9)
    body = out.read_text().splitlines()
    assert body[0] == "xep,x,y,p,mode"
    assert all(line.endswith("empiricalConditionalJoint") for line in body[1:])


def test_exchprob_from_csv_continuous_is_data_error(dataset_csv, capsys):
    assert dispatch(["exchprob", "--from-csv", str(dataset_csv)]) == 2


def test_exchprob_from_csv_discrete(tmp_path, capsys):
    from peclab.datagen import generate_table2_world

    path = tmp_path / "discrete.csv"
    generate_table2_world(100_000, 11).to_csv(path)
    out = tmp_path / "cells.csv"
    assert dispatch(["exchprob", "--from-csv", str(path), "--out", str(out)]) == 0
    # one line per distinct (Xep, X, Y) row of the data, each with mass; the
    # grid's 5 x 3 x 5 cells include structural zeros, which are not listed
    ds = Dataset.from_csv(path)
    distinct = np.unique(np.round(np.column_stack([ds["Xep"], ds["X"], ds["Y"]]), 9), axis=0)
    lines = out.read_text().splitlines()
    assert lines[0] == "xep,x,y,p,mode"
    cells = [tuple(map(float, line.split(",")[:4])) for line in lines[1:]]
    assert [list(c[:3]) for c in cells] == distinct.tolist()
    assert len(cells) < 5 * 3 * 5 and all(c[3] > 0 for c in cells)


def test_simulate_binary_scenario_gcomp_methods(tmp_path):
    s = worlds.table4_scenario(1, n=1500, replications=2, seed=21)
    path = tmp_path / "binary.txt"
    path.write_text(format_scenario(s))
    out = tmp_path / "res.csv"
    assert dispatch(
        ["simulate", "--scenario", str(path), "--methods", "gcomp_true_cv,gcomp_rc",
         "--jobs", "1", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    # two methods x two estimands
    assert len(lines) == 5
    assert any("riskRatio" in line for line in lines)


def test_bias_closed_form(capsys):
    assert dispatch(["bias", "--gamma1", "1", "--var-x", "0.5", "--var-u", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out and "0.5" in out


def test_bias_prints_no_negative_zero(capsys):
    argv = ["bias", "--gamma1", "1", "--var-x", "-0.0", "--var-u", "1", "--out", "-"]
    assert dispatch(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:5] == ["lambda,0", "gamma1,1", "p_rd,0", "r_squared_check,0"]
    assert dispatch(["bias", "--gamma1", "-1", "--var-x", "0", "--var-u", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["lambda", "0"]
    assert not any(line.split()[-1].startswith("-0") for line in lines)


def test_bias_figure2_csv(tmp_path):
    path = tmp_path / "fig2.csv"
    assert dispatch(["bias", "--figure2", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "gamma1,p,lambda"
    assert len(lines) == 1 + 5 * 101


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            (["estimate", "--method", method, "--in", "DATA", "--exposure", "X",
              "--truncate-quantile", quantile], "--truncate-quantile applies to --method ipw only")
            for method in ("naive", "gcomp")
            for quantile in ("7", "0.5")
        ),
        (["bias", "--gamma1", "1", "--var-x", "1", "--var-u", "1", "--adjust", "C"],
         "--adjust needs --from-csv"),
        (["bias", "--from-csv", "DATA", "--gamma1", "2", "--var-u", "9"],
         "--from-csv takes no --gamma1, --var-u"),
        (["bias", "--from-csv", "DATA", "--var-x", "1"], "--from-csv takes no --var-x"),
        (["exchprob", "--from-csv", "DATA", "--n", "7"], "--from-csv takes no --n"),
        (["exchprob", "--from-csv", "DATA", "--seed", "99"], "--from-csv takes no --seed"),
        (["exchprob", "--from-csv", "DATA", "--n", "7", "--seed", "99"],
         "--from-csv takes no --n, --seed"),
        *(
            (["estimate", "--method", method, "--in", "DATA", "--exposure", "X",
              "--estimand", "rr"], "--method naive|ipw reports risk differences only")
            for method in ("naive", "ipw")
        ),
        # a closed-form value or --out beside --figure2 asks for the report too
        *(
            (["bias", "--figure2", "-", *given],
             "bias needs either --from-csv or all of --gamma1/--var-x/--var-u")
            for given in (["--var-x", "0.5"], ["--gamma1", "1"], ["--out", "-"])
        ),
    ],
)
def test_ignored_option_combinations_are_data_errors(argv, message, dataset_csv, capsys):
    assert dispatch([str(dataset_csv) if a == "DATA" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_peclab_silently(dataset_csv):
    # the calibrated CSV outgrows the pipe buffer, so peclab is still writing
    # when the reader closes its end
    src = str(Path(peclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "peclab", "calibrate", "--in", str(dataset_csv), "--out", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE
    assert err == b""
    assert head[0].startswith(b"X,Xep,")


def test_only_main_keeps_the_heap(tmp_path):
    # a fresh interpreter, so importing peclab happens here first; a CDLL
    # that records each mallopt lookup sees every call of the heap helper
    script = """
import ctypes, sys
calls = []

class Recording(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            calls.append(name)
        return super().__getattr__(name)

ctypes.CDLL = Recording
import peclab.cli
argv = ["reproduce", "--table", "table3", "--n", "200", "--runs", "2", "--out", sys.argv[1]]
assert peclab.cli.dispatch([*argv, "--jobs", "2"]) in (0, 3)
assert calls == [], calls
sys.argv = ["peclab", *argv, "--jobs", "1"]
try:
    peclab.cli.main()
except SystemExit as exc:
    assert exc.code in (0, 3), exc.code
assert calls == ["mallopt"], calls
"""
    src = str(Path(peclab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report.csv")],
        env=env, check=True, timeout=120,
    )


def test_default_jobs_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._default_jobs() == 1
    assert cli.build_parser().parse_args(["reproduce", "--table", "table3"]).jobs == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._default_jobs() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._default_jobs() == 1


def test_bias_missing_inputs_is_data_error():
    assert dispatch(["bias", "--gamma1", "1"]) == 2


@pytest.mark.parametrize(
    "given",
    [["--gamma1", "1"], ["--var-x", "0.5", "--var-u", "2"], ["--from-csv", "missing.csv"]],
)
def test_rejected_bias_report_leaves_no_figure2(tmp_path, monkeypatch, capsys, given):
    monkeypatch.chdir(tmp_path)
    assert dispatch(["bias", "--figure2", "figure2.csv", *given]) == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "figure2.csv").exists()


def test_exchprob_signed_zero_rows_print_alike_in_either_order(tmp_path, capsys):
    outputs = []
    for rows in (["0,1,1", "-0,1,1", "1,1,1"], ["1,1,1", "-0,1,1", "0,1,1"]):
        path = tmp_path / "signed_zero.csv"
        path.write_text("\n".join(["X,Xep,Y", *rows]) + "\n")
        for extra in (["--out", "-"], []):
            assert dispatch(["exchprob", "--from-csv", str(path), *extra]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    assert outputs[0].splitlines()[1] == "1,0,1,0.666667,empiricalConditionalJoint"
    assert outputs[1].splitlines()[0] == "xep,x=0;y=1,x=1;y=1,sum"


@pytest.mark.parametrize("adjust", [[], ["C", "V"]])
def test_bias_from_csv_writes_report_from_data(dataset_csv, tmp_path, adjust):
    out = tmp_path / "bias.csv"
    args = ["bias", "--from-csv", str(dataset_csv), "--out", str(out)]
    assert dispatch(args + (["--adjust", ",".join(adjust)] if adjust else [])) == 0
    rep = report_from_data(Dataset.from_csv(dataset_csv), adjust)
    want = [
        ("lambda", rep.lambda_),
        ("gamma1", rep.gamma1),
        ("p_rd", rep.p_rd),
        ("r_squared_check", rep.r_squared_check),
        ("surrogate_lower", rep.surrogate_lower),
        ("surrogate_upper", rep.surrogate_upper),
    ]
    assert out.read_text().splitlines() == ["quantity,value"] + [f"{k},{_fmt(v)}" for k, v in want]


def test_bias_from_csv_without_x_is_data_error(tmp_path, capsys):
    ds = generate_scenario(worlds.table3_scenario(1, n=500, seed=9), 0)
    path = tmp_path / "no_x.csv"
    Dataset({c: ds[c] for c in ds.names if c != "X"}).to_csv(path)
    assert dispatch(["bias", "--from-csv", str(path)]) == 2
    assert "missing column(s): X" in capsys.readouterr().err


@pytest.mark.parametrize("adjust, column", [("Xep", "Xep"), ("X", "X"), ("C,X,Xep", "X, Xep")])
def test_bias_from_csv_rejects_the_exposure_as_adjustment(dataset_csv, capsys, adjust, column):
    # Xep on a design that holds it fits exactly, and X beside X is singular
    assert dispatch(["bias", "--from-csv", str(dataset_csv), "--adjust", adjust]) == 2
    err = capsys.readouterr().err
    assert err.strip().endswith(f"must not hold the exposure column(s): {column}")


def test_bias_from_csv_rejects_the_outcome_as_adjustment(dataset_csv, capsys):
    assert dispatch(["bias", "--from-csv", str(dataset_csv), "--adjust", "C,Y"]) == 2
    assert capsys.readouterr().err.strip().endswith("must not hold the outcome column(s): Y")


def test_calibrate_and_estimate_flow(dataset_csv, tmp_path, capsys):
    calibrated = tmp_path / "cal.csv"
    coefs = tmp_path / "coefs.csv"
    assert dispatch(
        ["calibrate", "--condition", "two", "--in", str(dataset_csv),
         "--out", str(calibrated), "--coef-out", str(coefs)]
    ) == 0
    header = calibrated.read_text().splitlines()[0]
    assert header == "X,Xep,C,Cep,V,Vep,Y,X_RC,C_RC,V_RC"
    assert coefs.read_text().splitlines()[0] == "target,term,coefficient,residual_sd"

    assert dispatch(
        ["estimate", "--method", "naive", "--in", str(calibrated),
         "--exposure", "X_RC", "--adjust", "C_RC,V_RC"]
    ) == 0
    line = capsys.readouterr().out.splitlines()[1]
    value = float(line.split(",")[-1])
    assert value == pytest.approx(1.0, abs=0.15)


def test_calibrate_rejects_a_dataset_that_holds_its_columns(dataset_csv, tmp_path, capsys):
    calibrated = tmp_path / "cal.csv"
    assert dispatch(["calibrate", "--in", str(dataset_csv), "--out", str(calibrated)]) == 0
    assert dispatch(["calibrate", "--in", str(calibrated), "--out", str(tmp_path / "again.csv")]) == 2
    assert "dataset already has column(s): X_RC, C_RC, V_RC" in capsys.readouterr().err


def test_estimate_missing_column_is_data_error(dataset_csv, capsys):
    code = dispatch(
        ["estimate", "--method", "ipw", "--in", str(dataset_csv),
         "--exposure", "Treatment", "--adjust", "C,V"]
    )
    assert code == 2
    assert "Treatment" in capsys.readouterr().err


def test_estimate_ipw_without_adjustment(dataset_csv, capsys):
    assert dispatch(["estimate", "--method", "naive", "--in", str(dataset_csv),
                     "--exposure", "X"]) == 0
    naive = capsys.readouterr().out.splitlines()
    assert dispatch(["estimate", "--method", "ipw", "--in", str(dataset_csv),
                     "--exposure", "X"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "method,estimand,delta,value"
    # unit weights: the IPW slope is the naive one
    assert float(lines[1].split(",")[-1]) == pytest.approx(
        float(naive[1].split(",")[-1]), rel=1e-9
    )


def test_estimate_gcomp_on_binary_csv(tmp_path, capsys):
    ds = generate_scenario(worlds.table4_scenario(1, n=5000, seed=23), 0)
    path = tmp_path / "binary.csv"
    ds.to_csv(path)
    assert dispatch(
        ["estimate", "--method", "gcomp", "--in", str(path),
         "--exposure", "X", "--adjust", "C,V", "--estimand", "rr"]
    ) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert float(line.split(",")[-1]) > 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--method", "naive", "--exposure", "X", "--adjust", "Y"],
         "adjustment must not hold the outcome column(s): Y"),
        (["--method", "ipw", "--exposure", "Y"], "exposure must not be the outcome column: Y"),
        (["--method", "ipw", "--exposure", "X", "--adjust", "Y"],
         "adjustment must not hold the outcome column(s): Y"),
        (["--method", "gcomp", "--exposure", "X", "--adjust", "Y"],
         "adjustment must not hold the outcome column(s): Y"),
        (["--method", "naive", "--exposure", "X", "--adjust", "C,X"],
         "adjustment must not hold the exposure column(s): X"),
    ],
    ids=["naive-adjust-y", "ipw-exposure-y", "ipw-adjust-y", "gcomp-adjust-y", "naive-adjust-x"],
)
def test_estimate_rejects_the_outcome_and_the_exposure_as_inputs(dataset_csv, capsys, argv, message):
    # unchecked, each of these fits: naive prints a slope of ~1e-17, ipw 1
    # and -0.716, and gcomp reports a perfectly separated response
    assert dispatch(["estimate", "--in", str(dataset_csv), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().endswith(message)


def test_simulate_overrides_n_and_runs_for_the_emitted_world(tmp_path):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(format_scenario(worlds.table3_scenario(1, n=800, replications=1)))
    out, world = tmp_path / "results.csv", tmp_path / "world.csv"
    assert dispatch(
        ["simulate", "--scenario", str(scenario), "--n", "300", "--runs", "2",
         "--methods", "naive_cep", "--jobs", "1", "--out", str(out), "--emit-csv", str(world)]
    ) == 0
    assert len(world.read_text().splitlines()) == 1 + 300
    header, row = out.read_text().splitlines()
    assert header.endswith(",runs")
    assert row.split(",")[-1] == "2"


def test_non_integer_env_seed_is_data_error(scenario_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PECLAB_SEED", "abc")
    assert dispatch(
        ["simulate", "--scenario", str(scenario_file), "--jobs", "1",
         "--out", str(tmp_path / "r.csv")]
    ) == 2
    assert "PECLAB_SEED='abc' is not an integer" in capsys.readouterr().err
