import _pyio
import argparse
import ast
import base64
import builtins
import functools
import json
import os
import re
import reprlib
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import robustpr.metrics
from robustpr import (
    ExperimentSpec,
    FieldTag,
    GrayImage,
    MeasurementEnsemble,
    NoiseSpec,
    SolverConfig,
    deserialize_instance,
    error_vs_iteration,
    estimate_stability,
    fixed_point_residual,
    lambda_grid_search,
    linear_rate_certificate,
    read_pgm,
    remark5_quantities,
    run_experiment,
    serialize_instance,
    solve,
    spectral_init,
    synthesize_instance,
    write_pgm,
)
from robustpr import cli, solver
from robustpr.cli import main
from robustpr.diagnostics import RHO0
from robustpr.metrics import summarize
from robustpr.model import decode_vector

from oracles import rayleigh_step
from test_pgm import PGM_BYTES


def run(*argv):
    """Invoke the CLI in-process; returns the exit code."""
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code


GEN = ["gen", "--p", "16", "--s", "2", "--n", "160", "--field", "real",
       "--noise", "none", "--seed", "3"]


def test_gen_writes_roundtrippable_instance(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(out)) == 0
    text = out.read_text()
    e = deserialize_instance(text)
    assert e.p == 16 and e.n == 160
    summary = capsys.readouterr().out
    assert "p=16" in summary and "seed=3" in summary


def test_gen_full_scale_roundtrip(tmp_path):
    out = tmp_path / "inst.json"
    assert run("gen", "--p", "128", "--s", "12", "--n", "768", "--field", "real",
               "--noise", "type2:0.1", "--seed", "5", "--out", str(out)) == 0
    e = deserialize_instance(out.read_text())
    assert e.p == 128 and e.n == 768
    assert np.count_nonzero(e.ground_truth) == 12
    # 2.06 MB with the matrix as decimal floats, 1.08 MB as base64 bytes;
    # named by its seed's draw and a checksum, 32 KB
    assert out.stat().st_size < 64e3


def test_gen_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(*GEN, "--out", str(out1)) == 0
    assert run(*GEN, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_rejects_bad_p(tmp_path):
    code = run("gen", "--p", "0", "--s", "1", "--n", "4",
               "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_solve_requires_lambda(tmp_path, capsys):
    inst, cfg = tmp_path / "inst.json", tmp_path / "conf.txt"
    assert run(*GEN, "--out", str(inst)) == 0
    code = run("solve", "--instance", str(inst))
    assert code == 2
    assert ("the following arguments are required: --lambda"
            in capsys.readouterr().err)
    cfg.write_text("lambda = 1e-4\n")  # a config-file line meets the requirement
    assert run("solve", "--instance", str(inst), "--config", str(cfg)) == 0


def test_solve_end_to_end(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    res = tmp_path / "res.json"
    trace = tmp_path / "trace.csv"
    assert run(*GEN, "--out", str(inst)) == 0
    code = run("solve", "--instance", str(inst), "--lambda", "1e-4",
               "--out-result", str(res), "--out-trace", str(trace))
    assert code == 0
    doc = json.loads(res.read_text())
    assert doc["config"]["alpha"] == 1.345
    assert doc["relative_error"] < 5e-3
    assert doc["termination"] == "Converged"
    header = trace.read_text().splitlines()[0]
    assert header == "k,F,tau,j,step_norm,support_size,fp_residual"
    assert b"\r" not in trace.read_bytes()
    assert "relative error" in capsys.readouterr().out


def test_solve_with_no_accepted_step(tmp_path, monkeypatch):
    # delta = 1e20 rejects every trial at k = 1 until one rounds to the start,
    # a zero step that the start's residual fails (see the solver's
    # test_line_search_failure_is_reported_not_raised), so the trace has no rows
    # and the result's residual is the start's first trial, at the start's
    # Rayleigh step 1 / rho(x0); the command evaluates no residual of its own.
    inst, res, trace = (tmp_path / name for name in ("inst.json", "res.json", "trace.csv"))
    assert run(*GEN, "--out", str(inst)) == 0
    calls = []
    for module in (cli, solver):
        monkeypatch.setattr(module, "fixed_point_residual", lambda *a: calls.append(a))
    monkeypatch.setattr(SolverConfig, "delta", 1e20)
    assert run("solve", "--instance", str(inst), "--lambda", "1e-4",
               "--out-result", str(res), "--out-trace", str(trace)) == 0
    doc = json.loads(res.read_text())
    assert doc["termination"] == "LineSearchFailed"
    assert doc["iterations"] == 0
    assert trace.read_bytes() == b"k,F,tau,j,step_norm,support_size,fp_residual\n"
    e = deserialize_instance(inst.read_text())
    x = decode_vector(doc["estimate"], e.field, "estimate", e.p)
    cfg = SolverConfig(lam=1e-4)
    assert not calls
    assert doc["fixed_point_residual"] == fixed_point_residual(
        x, e, cfg.lam, cfg.alpha, rayleigh_step(x, e))


MALFORMED = [
    ({"a": 3}, "a"),
    ({"a": [0.0] * 2560}, "a"),  # n*p scalars, the layout before base64
    ({"p": None}, "p"),
    ({"p": "x"}, "p"),
    ({"p": -1, "n": -1}, "p"),
    ({"seed": 1.5}, "seed"),
]


@pytest.mark.parametrize("fields, key", MALFORMED, ids=[
    ",".join(f"{k}={reprlib.repr(v)}" for k, v in fields.items())
    for fields, _ in MALFORMED])
def test_solve_malformed_instance_is_parse_error(tmp_path, capsys, fields, key):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    inst.write_text(json.dumps({**json.loads(inst.read_text()), **fields}))
    capsys.readouterr()
    assert run("solve", "--instance", str(inst), "--lambda", "1e-4") == 4
    assert f"malformed field: {key}\n" in capsys.readouterr().err


DRAWN_TAMPERED = {
    "crc": lambda doc: {"a": {"crc32": doc["a"]["crc32"] ^ 1}},
    "seed": lambda doc: {"seed": doc["seed"] + 1},
    "n": lambda doc: {"n": doc["n"] + 1, "b": doc["b"] + [0.0]},
    "p": lambda doc: {"p": doc["p"] + 1},
    "extra-key": lambda doc: {"a": {**doc["a"], "seed": doc["seed"]}},
    "bool": lambda doc: {"a": {"crc32": True}},
    "negative": lambda doc: {"a": {"crc32": -1}},
    "2^32": lambda doc: {"a": {"crc32": 1 << 32}},
}


@pytest.mark.parametrize("change", DRAWN_TAMPERED)
def test_solve_tampered_drawn_matrix_exits_4(tmp_path, capsys, change):
    inst, out = tmp_path / "inst.json", tmp_path / "r.json"
    assert run(*GEN, "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    assert set(doc["a"]) == {"crc32"}
    inst.write_text(json.dumps({**doc, **DRAWN_TAMPERED[change](doc)}))
    capsys.readouterr()
    assert run("solve", "--instance", str(inst), "--lambda", "1e-4",
               "--out-result", str(out)) == 4
    assert capsys.readouterr().err == "error: malformed field: a\n"
    assert not out.exists()


@pytest.mark.parametrize("field", ["real", "complex"])
def test_both_forms_of_the_matrix_give_the_same_output_bytes(tmp_path, field):
    drawn, written = tmp_path / "drawn.json", tmp_path / "base64.json"
    assert run("gen", "--p", "16", "--s", "2", "--n", "160", "--field", field,
               "--noise", "type2:0.1", "--seed", "3", "--out", str(drawn)) == 0
    doc = json.loads(drawn.read_text())
    assert set(doc["a"]) == {"crc32"}
    a = deserialize_instance(drawn.read_text()).sampling_vectors
    doc["a"] = base64.b64encode(a.astype(a.dtype.newbyteorder("<")).tobytes()).decode()
    written.write_text(json.dumps(doc) + "\n")
    outputs = []
    for inst in (drawn, written):
        res, trace, cert = (tmp_path / f"{inst.stem}-{name}"
                            for name in ("res.json", "trace.csv", "cert.json"))
        assert run("solve", "--instance", str(inst), "--lambda", "1e-3",
                   "--out-result", str(res), "--out-trace", str(trace)) == 0
        assert run("diag", "certificate", "--instance", str(inst),
                   "--solution", str(res), "--lambda", "1e-3", "--out", str(cert)) == 0
        outputs.append([path.read_bytes() for path in (res, trace, cert)])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("key, index, value", [
    ("x_true", 0, "NaN"), ("eps", 1, "NaN"), ("x_true", 0, "Infinity")])
def test_solve_refuses_a_non_finite_truth_or_noise_record(tmp_path, capsys,
                                                          key, index, value):
    inst, out = tmp_path / "inst.json", tmp_path / "r.json"
    assert run("gen", "--p", "16", "--s", "2", "--n", "96", "--noise", "type2:0.1",
               "--seed", "3", "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    doc[key][index] = float(value)
    inst.write_text(json.dumps(doc))
    assert value in inst.read_text()
    capsys.readouterr()
    assert run("solve", "--instance", str(inst), "--lambda", "1e-3",
               "--out-result", str(out)) == 4
    kind = "signal" if key == "x_true" else "ensemble"
    assert capsys.readouterr().err == f"error: {kind} contains non-finite entries\n"
    assert not out.exists()


def test_diag_rejects_wrong_length_estimate(tmp_path, capsys):
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    assert run(*GEN, "--out", str(inst)) == 0
    sol.write_text(json.dumps({"estimate": [0.0] * 15}))
    assert run("diag", "certificate", "--instance", str(inst),
               "--solution", str(sol), "--lambda", "1e-4") == 4
    assert "malformed field: estimate" in capsys.readouterr().err


SOLVER_FLAGS = ["--lambda", "2e-4", "--alpha", "0.9"]
SOLVER_SETTINGS = {"lambda": 2e-4, "alpha": 0.9}


def solve_echo(tmp_path):
    inst, res = tmp_path / "inst.json", tmp_path / "res.json"
    assert run(*GEN, "--out", str(inst)) == 0
    assert run("solve", "--instance", str(inst), *SOLVER_FLAGS,
               "--out-result", str(res)) == 0
    return json.loads(res.read_text())["config"], SOLVER_SETTINGS


def image_echo(tmp_path):
    # the threshold defines the truth the image's error fields measure against
    metrics = tmp_path / "metrics.json"
    assert run("image", "--input", str(sparse_image(tmp_path)), "--out-image",
               str(tmp_path / "o.pgm"), "--out-metrics", str(metrics),
               "--threshold", "0.3", *SOLVER_FLAGS, "--seed", "4") == 0
    return json.loads(metrics.read_text()), {"noise": "none", "threshold": 0.3,
                                              **SOLVER_SETTINGS, "seed": 4}


def success_rate_echo(tmp_path):
    prefix = tmp_path / "bench"
    assert run("bench", "success-rate", "--p", "8", "--s", "2", "--grid", "4",
               "--trials", "1", *SOLVER_FLAGS, "--out-prefix", str(prefix)) == 0
    return (json.loads((tmp_path / "bench.json").read_text()),
            {"success_threshold": 5e-3, **SOLVER_SETTINGS})


@pytest.mark.parametrize("writer", [solve_echo, image_echo, success_rate_echo],
                         ids=["solve", "image", "success-rate"])
def test_solve_echoes_every_solver_flag(tmp_path, writer):
    # each writer echoes every SolverConfig field, in order, amid its own keys
    doc, expected = writer(tmp_path)
    keys = list(doc)
    first = keys.index(next(iter(expected)))
    assert keys[first:first + len(expected)] == list(expected)
    assert {key: doc[key] for key in expected} == expected


def test_solve_deterministic_outputs(tmp_path):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    pairs = []
    for tag in ("1", "2"):
        res = tmp_path / f"res{tag}.json"
        trace = tmp_path / f"tr{tag}.csv"
        assert run("solve", "--instance", str(inst), "--lambda", "1e-4",
                   "--out-result", str(res), "--out-trace", str(trace)) == 0
        pairs.append((res.read_bytes(), trace.read_bytes()))
    assert pairs[0] == pairs[1]


def test_solve_missing_file_is_io_error(tmp_path):
    assert run("solve", "--instance", str(tmp_path / "nope.json"),
               "--lambda", "1e-4") == 4


def test_solve_without_ground_truth(tmp_path):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    del doc["x_true"]
    del doc["eps"]
    blind = tmp_path / "blind.json"
    blind.write_text(json.dumps(doc))
    res = tmp_path / "res.json"
    assert run("solve", "--instance", str(blind), "--lambda", "1e-4",
               "--out-result", str(res)) == 0
    out = json.loads(res.read_text())
    assert "relative_error" not in out
    assert out["termination"] in ("Converged", "MaxIterations")


@pytest.mark.parametrize("field", ["real", "complex"])
def test_solve_with_zero_ground_truth(tmp_path, field):
    # an all-zero truth gives no sparsity and no relative error
    inst = tmp_path / "inst.json"
    assert run("gen", "--p", "16", "--s", "2", "--n", "160", "--field", field,
               "--seed", "3", "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    doc["x_true"] = [[0.0, 0.0] if field == "complex" else 0.0] * 16
    del doc["eps"]
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(doc))
    res = tmp_path / "res.json"
    assert run("solve", "--instance", str(zero), "--lambda", "1e-4",
               "--out-result", str(res)) == 0
    out = json.loads(res.read_text())
    assert "relative_error" not in out
    assert run("bench", "lambda-grid", "--instance", str(zero), "--grid", "1e-4,1e-3",
               "--rule", "holdout") == 0


def _no_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(robustpr.metrics, "solve", refuse)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_lambda_grid_oracle_on_a_zero_truth_exits_3_before_solving(
    tmp_path, field, monkeypatch, capsys
):
    inst = tmp_path / "inst.json"
    assert run("gen", "--p", "16", "--s", "2", "--n", "160", "--field", field,
               "--seed", "3", "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    doc["x_true"] = [[0.0, 0.0] if field == "complex" else 0.0] * 16
    del doc["eps"]
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(doc))
    _no_solve(monkeypatch)
    assert run("bench", "lambda-grid", "--instance", str(zero), "--grid", "1e-4,1e-3",
               "--rule", "oracle") == 3
    assert "nonzero ground truth" in capsys.readouterr().err


def test_lambda_grid_holdout_on_one_measurement_exits_3_before_solving(
    tmp_path, monkeypatch, capsys
):
    inst = tmp_path / "inst.json"
    assert run("gen", "--p", "4", "--s", "1", "--n", "1", "--noise", "none",
               "--seed", "1", "--out", str(inst)) == 0
    _no_solve(monkeypatch)
    capsys.readouterr()
    assert run("bench", "lambda-grid", "--instance", str(inst), "--grid", "1e-3",
               "--rule", "holdout") == 3
    assert capsys.readouterr().err == (
        "error: holdout rule needs at least 2 measurements\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_lambda_grid_rejects_a_bad_grid_value_before_solving(
    tmp_path, bad, monkeypatch, capsys
):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    _no_solve(monkeypatch)
    assert run("bench", "lambda-grid", "--instance", str(inst),
               f"--grid=1e-3,{bad}", "--rule", "oracle") == 2
    assert capsys.readouterr().err == (
        f"error: lam must be finite and positive, got {float(bad)}\n")


def test_bench_success_rate_outputs(tmp_path, capsys):
    prefix = tmp_path / "bench"
    code = run("bench", "success-rate", "--p", "16", "--s", "2",
               "--grid", "4,10", "--trials", "3", "--noise", "none",
               "--lambda", "1e-4", "--seed", "1", "--out-prefix", str(prefix))
    assert code == 0
    rows = (tmp_path / "bench.csv").read_text().splitlines()
    assert rows[0] == ("n,trial,seed,termination,iterations,initial_objective,"
                       "final_objective,fixed_point_residual,trials,prox_calls,"
                       "forward_products,adjoint_products,support_size,"
                       "relative_error,truth_gap,support_missed,support_extra")
    assert len(rows) == 1 + 2 * 3
    rates = (tmp_path / "bench_rates.csv").read_text().splitlines()
    assert len(rates) == 3
    assert (tmp_path / "bench.gp").read_text().startswith("# gnuplot")
    for row in rates[1:]:
        assert all(np.isfinite(float(cell)) for cell in row.split(","))
    agg = json.loads((tmp_path / "bench.json").read_text())
    assert set(agg["success_rate"]) == {"64", "160"}
    for name in ("bench.csv", "bench_rates.csv"):
        assert b"\r" not in (tmp_path / name).read_bytes(), name


def test_every_run_writer_carries_the_summary_fields_in_order(tmp_path):
    # solve's result JSON, image's metrics JSON and success-rate's per-trial
    # CSV take a run's fields from metrics.summarize, so a field added there
    # reaches all three, in the summary's order and, for solve, with its values
    inst, res, metrics = (tmp_path / name for name in ("inst.json", "res.json", "m.json"))
    assert run(*GEN, "--out", str(inst)) == 0
    assert run("solve", "--instance", str(inst), "--lambda", "1e-4",
               "--out-result", str(res)) == 0
    e = deserialize_instance(inst.read_text())
    cfg = SolverConfig(lam=1e-4)
    summary = json.loads(json.dumps(summarize(solve(e, spectral_init(e), cfg), e, cfg)))
    assert len(summary) == 14
    doc = json.loads(res.read_text())
    assert [(k, v) for k, v in doc.items() if k in summary] == list(summary.items())
    assert run("image", "--input", str(sparse_image(tmp_path)), "--out-image",
               str(tmp_path / "o.pgm"), "--out-metrics", str(metrics),
               "--ratio", "8", "--lambda", "1e-4") == 0
    assert [k for k in json.loads(metrics.read_text()) if k in summary] == list(summary)
    assert run("bench", "success-rate", "--p", "8", "--s", "2", "--grid", "4",
               "--trials", "1", "--lambda", "1e-4",
               "--out-prefix", str(tmp_path / "rate")) == 0
    header = (tmp_path / "rate.csv").read_text().splitlines()[0].split(",")
    assert header == ["n", "trial", "seed", *summary]


def test_bench_empty_grid_usage_error(tmp_path):
    code = run("bench", "success-rate", "--p", "16", "--s", "2", "--grid", "",
               "--lambda", "1e-4", "--out-prefix", str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["success-rate", "--p", "8", "--s", "2", "--grid", "4,4", "--lambda", "1e-4"],
    ["consistency", "--p-grid", "8,8", "--s", "2", "--lambda", "1e-4"],
    ["lambda-grid", "--grid", "1e-3,1e-4,0.001"],
])
def test_bench_repeated_grid_value_usage_error(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    if argv[0] == "lambda-grid":
        argv = argv + ["--instance", str(inst)]
    assert run("bench", *argv, "--out-prefix", str(tmp_path / "x")) == 2
    assert "list flag repeats a value" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [inst]


def test_bench_error_iter(tmp_path):
    prefix = tmp_path / "curve"
    code = run("bench", "error-iter", "--p", "16", "--s", "2", "--ratio", "6",
               "--noise", "none", "--lambda", "1e-4", "--seed", "2",
               "--out-prefix", str(prefix))
    assert code == 0
    rows = (tmp_path / "curve.csv").read_text().splitlines()
    assert rows[0] == "k,relative_error"
    assert b"\r" not in (tmp_path / "curve.csv").read_bytes()
    last = rows[-1].split(",")
    assert float(last[1]) < 5e-3


def test_bench_lambda_grid(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    code = run("bench", "lambda-grid", "--instance", str(inst),
               "--grid", "1e-5,1e-3", "--rule", "oracle",
               "--out-prefix", str(tmp_path / "tab"))
    assert code == 0
    assert "chose lambda" in capsys.readouterr().out
    rows = (tmp_path / "tab.csv").read_text().splitlines()
    assert rows[0] == "lambda,score" and len(rows) == 3
    assert b"\r" not in (tmp_path / "tab.csv").read_bytes()
    assert (tmp_path / "tab.gp").read_text().startswith("set logscale x")


@pytest.mark.parametrize("field", ["real", "complex"])
def test_lambda_grid_scores_the_point_solve_reaches(tmp_path, field):
    # both commands start from the spectral point, a function of the instance
    inst, res = tmp_path / "inst.json", tmp_path / "res.json"
    assert run("gen", "--p", "16", "--s", "2", "--n", "160", "--noise", "type1:0.1",
               "--field", field, "--seed", "5", "--out", str(inst)) == 0
    assert run("solve", "--instance", str(inst), "--lambda", "1e-4",
               "--out-result", str(res)) == 0
    assert run("bench", "lambda-grid", "--instance", str(inst), "--grid", "1e-4",
               "--rule", "oracle", "--out-prefix", str(tmp_path / "tab")) == 0
    score = (tmp_path / "tab.csv").read_text().splitlines()[1].split(",")[1]
    assert float(score) == json.loads(res.read_text())["relative_error"]


def test_bench_consistency(tmp_path):
    prefix = tmp_path / "cons"
    code = run("bench", "consistency", "--p-grid", "8,16", "--s", "2",
               "--ratio", "8", "--trials", "2", "--noise", "none",
               "--lambda", "1e-4", "--out-prefix", str(prefix))
    assert code == 0
    rows = (tmp_path / "cons.csv").read_text().splitlines()
    assert len(rows) == 3
    assert b"\r" not in (tmp_path / "cons.csv").read_bytes()
    for row in rows[1:]:
        assert all(np.isfinite(float(cell)) for cell in row.split(","))


def _lines(rows) -> bytes:
    return "".join(row + "\n" for row in rows).encode()


def test_bench_tables_match_a_repr_oracle(tmp_path):
    """Each bench table is its header and then one row per record, every
    float by repr(), as computed by the library calls behind the mode."""
    cfg = SolverConfig(lam=1e-4)

    def spec(p, n_grid):
        return ExperimentSpec(p=p, s=2, n_grid=n_grid, noise=NoiseSpec(), trials=2,
                              solver=cfg, master_seed=3)

    assert run("bench", "success-rate", "--p", "8", "--s", "2", "--grid", "4,6",
               "--trials", "2", "--noise", "none", "--lambda", "1e-4", "--seed", "3",
               "--out-prefix", str(tmp_path / "rate")) == 0
    report = run_experiment(spec(8, (32, 48)))
    assert (tmp_path / "rate_rates.csv").read_bytes() == _lines(
        ["n_over_p,n,success_rate,median_relative_error"]
        + [f"{n // 8},{n},{report.success_rate[n]!r},"
           f"{report.median_relative_error[n]!r}" for n in (32, 48)])

    assert run("bench", "error-iter", "--p", "8", "--s", "2", "--ratio", "6",
               "--noise", "none", "--lambda", "1e-4", "--seed", "3",
               "--out-prefix", str(tmp_path / "curve")) == 0
    e = synthesize_instance(8, 2, 48, FieldTag.REAL, NoiseSpec(), 3)
    curve, _ = error_vs_iteration(e, cfg)
    assert (tmp_path / "curve.csv").read_bytes() == _lines(
        ["k,relative_error"] + [f"{k},{err!r}" for k, err in curve])

    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    assert run("bench", "lambda-grid", "--instance", str(inst),
               "--grid", "1e-5,1e-4,1e-3", "--rule", "holdout",
               "--out-prefix", str(tmp_path / "tab")) == 0
    _, table = lambda_grid_search(deserialize_instance(inst.read_text()),
                                  SolverConfig(lam=1.0), [1e-5, 1e-4, 1e-3],
                                  "holdout")
    assert (tmp_path / "tab.csv").read_bytes() == _lines(
        ["lambda,score"] + [f"{lam!r},{score!r}" for lam, score in table])

    assert run("bench", "consistency", "--p-grid", "8,12", "--s", "2", "--ratio", "6",
               "--trials", "2", "--noise", "none", "--lambda", "1e-4", "--seed", "3",
               "--out-prefix", str(tmp_path / "cons")) == 0
    rows = ["p,n,median_relative_error,mean_relative_error,success_rate"]
    for p in (8, 12):
        report = run_experiment(spec(p, (6 * p,)))
        mean = float(np.mean([r.relative_error for r in report.records]))
        rows.append(f"{p},{6 * p},{report.median_relative_error[6 * p]!r},"
                    f"{mean!r},{report.success_rate[6 * p]!r}")
    assert (tmp_path / "cons.csv").read_bytes() == _lines(rows)


def sparse_image(tmp_path, width=8, height=8):
    pixels = np.zeros((height, width))
    pixels[2, 3] = 1.0
    pixels[5, 1] = 0.75
    pixels[6, 6] = 0.5
    img = GrayImage(pixels=pixels)
    path = tmp_path / "input.pgm"
    write_pgm(path, img)
    return path


def test_image_reconstruction_small(tmp_path, capsys):
    src = sparse_image(tmp_path)
    out = tmp_path / "recon.pgm"
    metrics = tmp_path / "metrics.json"
    assert run("image", "--input", str(src), "--out-image", str(out)) == 2
    assert ("the following arguments are required: --lambda"
            in capsys.readouterr().err)
    assert not out.exists()
    code = run("image", "--input", str(src), "--out-image", str(out),
               "--out-metrics", str(metrics), "--ratio", "8",
               "--lambda", "1e-4", "--seed", "4")
    assert code == 0
    doc = json.loads(metrics.read_text())
    assert doc["relative_error"] < 5e-3
    assert doc["pixel_scale"] == 255
    recon = read_pgm(out)
    truth = read_pgm(src)
    assert np.max(np.abs(recon.pixels - truth.pixels)) < 0.02


def test_image_cap_refusal(tmp_path):
    src = sparse_image(tmp_path)
    code = run("image", "--input", str(src), "--out-image",
               str(tmp_path / "o.pgm"), "--lambda", "1e-4", "--cap", "10")
    assert code == 2


def test_image_default_cap_refuses_before_measuring(tmp_path, capsys, monkeypatch):
    # 65 x 64 = 4160 pixels, above the default cap of 4096: at --ratio 6 its
    # sampling matrix would take 8 * 6 * 4160^2 bytes = 831 MB
    def measure(*args):
        raise AssertionError("measure called")

    monkeypatch.setattr(cli, "measure", measure)
    src, out = sparse_image(tmp_path, width=65, height=64), tmp_path / "o.pgm"
    capsys.readouterr()
    assert run("image", "--input", str(src), "--out-image", str(out),
               "--lambda", "1e-4") == 2
    assert capsys.readouterr().err == (
        "error: image has 4160 pixels, above the cap 4096; "
        "downscale it or raise --cap\n")
    assert not out.exists()


def test_image_at_the_default_cap_reaches_measure(tmp_path, monkeypatch):
    # 64 x 64 = 4096 pixels, exactly the default cap: the image is accepted
    class Measured(Exception):
        pass

    def measure(*args):
        raise Measured  # before the 805 MB sampling matrix is built

    monkeypatch.setattr(cli, "measure", measure)
    src = sparse_image(tmp_path, width=64, height=64)
    with pytest.raises(Measured):
        run("image", "--input", str(src), "--out-image", str(tmp_path / "o.pgm"),
            "--lambda", "1e-4")


@pytest.mark.parametrize("flag, value", [
    ("--threshold", "nan"), ("--threshold", "-1"), ("--threshold", "inf"),
    ("--cap", "-5"), ("--cap", "0"),
])
def test_image_rejects_bad_threshold_and_cap(tmp_path, capsys, flag, value):
    src = sparse_image(tmp_path)
    out = tmp_path / "o.pgm"
    assert run("image", "--input", str(src), "--out-image", str(out),
               "--lambda", "1e-4", flag, value) == 2
    assert f"argument {flag}: must be" in capsys.readouterr().err
    assert not out.exists()


def test_image_threshold_above_every_pixel(tmp_path, capsys):
    src, out = sparse_image(tmp_path), tmp_path / "o.pgm"
    assert run("image", "--input", str(src), "--out-image", str(out),
               "--lambda", "1e-4", "--threshold", "1.5") == 2
    assert "entirely black after thresholding" in capsys.readouterr().err
    assert not out.exists()


def test_image_rejects_non_pgm(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"JFIF nonsense")
    assert run("image", "--input", str(bad), "--out-image",
               str(tmp_path / "o.pgm"), "--lambda", "1e-4") == 4


@pytest.mark.parametrize("token", [b"x", b"2.5", b"1_0", b"+1", b"-0"])
def test_image_malformed_p2_raster_is_format_error(tmp_path, capsys, token):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n0 1 " + token + b" 3\n")
    assert run("image", "--input", str(bad), "--out-image",
               str(tmp_path / "o.pgm"), "--lambda", "1e-4") == 4
    assert "malformed P2 raster value" in capsys.readouterr().err


def test_diag_stability_complex_unsupported(tmp_path):
    inst = tmp_path / "c.json"
    assert run("gen", "--p", "8", "--s", "2", "--n", "32", "--field", "complex",
               "--noise", "none", "--seed", "1", "--out", str(inst)) == 0
    assert run("diag", "stability", "--instance", str(inst)) == 3


def test_diag_stability_real(tmp_path):
    inst = tmp_path / "r.json"
    assert run(*GEN, "--out", str(inst)) == 0
    out = tmp_path / "stab.json"
    assert run("diag", "stability", "--instance", str(inst), "--samples", "30",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["mu_hat"] >= 0.0
    assert list(doc) == ["mu_hat", "c2_hat", "samples", "inlier_threshold",
                         "used_noise_record", "consistency"]
    assert list(doc["consistency"]) == [
        "t_n", "mean_abs_eps", "alpha_floor", "alpha_ok", "lambda_upper",
        "lambda_lower", "x_min", "x_min_floor", "x_min_ok", "p_log_n_over_n",
    ]
    # mu_hat = 0.25 gives 2 (1 - rho0) mu_hat <= 1: no alpha meets the floor
    assert doc["consistency"]["alpha_floor"] is None
    assert doc["consistency"]["alpha_ok"] is False


def test_diag_certificate_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    res = tmp_path / "res.json"
    assert run("gen", "--p", "16", "--s", "2", "--n", "320", "--field", "real",
               "--noise", "none", "--seed", "21", "--out", str(inst)) == 0
    assert run("solve", "--instance", str(inst), "--lambda", "1e-4",
               "--out-result", str(res)) == 0
    cert = tmp_path / "cert.json"
    assert run("diag", "certificate", "--instance", str(inst),
               "--solution", str(res), "--lambda", "1e-4",
               "--out", str(cert)) == 0
    doc = json.loads(cert.read_text())
    assert doc["passed"] is True


def test_a_report_with_a_nan_exits_2_and_writes_no_file(tmp_path, monkeypatch,
                                                        capsys):
    def nan_certificate(*args):
        report = linear_rate_certificate(*args)
        return replace(report, rhs_boundary_norms=np.nan)

    monkeypatch.setattr(cli, "linear_rate_certificate", nan_certificate)
    inst, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    assert run(*DIAG_INSTANCE, "--out", str(inst)) == 0
    capsys.readouterr()
    assert run("diag", "certificate", "--instance", str(inst), "--use-truth",
               "--lambda", "1e-3", "--out", str(cert)) == 2
    assert "not JSON compliant" in capsys.readouterr().err
    assert not cert.exists()


def test_diag_remark5_missing_record(tmp_path):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    del doc["eps"]
    stripped = tmp_path / "bare.json"
    stripped.write_text(json.dumps(doc))
    assert run("diag", "remark5", "--instance", str(stripped),
               "--use-truth") == 3


def test_solve_start_reads_no_ground_truth(tmp_path, monkeypatch):
    # the start comes from the measurements alone: the same complex file
    # without x_true and eps gives the same estimate
    inst, blind = tmp_path / "inst.json", tmp_path / "blind.json"
    assert run("gen", "--p", "16", "--s", "3", "--n", "96", "--field", "complex",
               "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    del doc["x_true"], doc["eps"]
    blind.write_text(json.dumps(doc))
    outs = []
    monkeypatch.setattr(SolverConfig, "max_iter", 5)
    for path in (inst, blind):
        res = tmp_path / f"{path.stem}_result.json"
        assert run("solve", "--instance", str(path), "--lambda", "1e-3",
                   "--out-result", str(res)) == 0
        outs.append(json.loads(res.read_text()))
    assert outs[0]["estimate"] == outs[1]["estimate"]


def test_unknown_field_is_a_usage_error(tmp_path, capsys):
    assert run("gen", "--p", "4", "--s", "1", "--n", "8", "--field", "quaternion",
               "--out", str(tmp_path / "inst.json")) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "argument --field: field must be 'real' or 'complex', got 'quaternion'")
    assert not (tmp_path / "inst.json").exists()


@pytest.mark.parametrize("argv, line", [
    (["gen", "--p", "1.5"],
     "robustpr gen: error: argument --p: must be a positive integer, got '1.5'"),
    (["bench", "success-rate", "--grid", "2,x"],
     "robustpr bench success-rate: error: argument --grid: "
     "must be a positive integer, got 'x'"),
    # an integer list item is refused by its flag, not later by the library
    (["bench", "success-rate", "--grid", "0,2"],
     "robustpr bench success-rate: error: argument --grid: "
     "must be a positive integer, got '0'"),
    (["bench", "consistency", "--p-grid", "0,2"],
     "robustpr bench consistency: error: argument --p-grid: "
     "must be a positive integer, got '0'"),
    (["bench", "lambda-grid", "--grid", "1e-3,x"],
     "robustpr bench lambda-grid: error: argument --grid: "
     "expected a comma list of numbers, got '1e-3,x'"),
    (["image", "--threshold", "abc"],
     "robustpr image: error: argument --threshold: "
     "must be a finite nonnegative number, got 'abc'"),
    (["gen", "--noise", "type2:"],
     "robustpr gen: error: argument --noise: "
     "noise spec must look like 'kind:eta', got 'type2:'"),
])
def test_a_malformed_flag_value_says_what_was_expected(capsys, argv, line):
    assert run(*argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == line


def _command_parsers(parser, words=()):
    """(command words, parser) for a parser and every command parser under it."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_parsers(sub, (*words, name))


def test_every_typed_flag_refuses_a_malformed_token_naming_the_flag(capsys):
    # a message names no function of cli (a converter such as _positive_int
    # or comma_list) and carries no Python conversion error text
    functions = {node.name for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                 if isinstance(node, ast.FunctionDef)}
    typed, refused, leaks = set(), set(), []
    for words, parser in _command_parsers(cli.build_parser()):
        for action in parser._actions:
            if action.type is None:
                continue
            flag = action.option_strings[0]
            typed.add(flag)
            for token in ("abc", "", "1.5", "2,x", "type2:", "0"):
                try:
                    action.type(token)
                    continue  # a well-formed token for this flag
                except (ValueError, argparse.ArgumentTypeError):
                    pass
                assert run(*words, f"{flag}={token}") == 2
                last = capsys.readouterr().err.splitlines()[-1]
                refused.add(flag)
                prefix = f"robustpr {' '.join(words)}: error: argument {flag}: "
                if (not last.startswith(prefix) or set(re.findall(r"\w+", last)) & functions
                        or re.search("could not convert|invalid literal", last)):
                    leaks.append(last)
    assert leaks == []
    assert refused == typed and {"--p", "--grid", "--noise", "--threshold"} <= typed


def test_diag_use_truth_needs_a_ground_truth(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    del doc["x_true"]
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("diag", "certificate", "--instance", str(inst), "--use-truth",
               "--lambda", "1e-4") == 3
    assert capsys.readouterr().err == (
        "error: --use-truth needs a nonzero ground truth; pass --solution\n")


@pytest.mark.parametrize("mode", ["certificate", "remark5"])
def test_diag_use_truth_needs_a_nonzero_ground_truth(tmp_path, capsys, mode):
    # a hand-built instance whose stored truth is all zero, as lambda-grid's
    # oracle rule refuses it: missing data, exit 3
    a = np.eye(4)
    e = MeasurementEnsemble(a, np.ones(4), ground_truth=np.zeros(4),
                            noise_record=np.ones(4))
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    inst.write_text(serialize_instance(e))
    extra = ["--lambda", "1e-3"] if mode == "certificate" else []
    capsys.readouterr()
    assert run("diag", mode, "--instance", str(inst), "--use-truth", *extra,
               "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "error: --use-truth needs a nonzero ground truth; pass --solution\n")
    assert run("bench", "lambda-grid", "--instance", str(inst), "--grid", "1e-3",
               "--rule", "oracle") == 3
    assert "oracle rule needs a nonzero ground truth" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["certificate", "remark5"])
def test_diag_on_an_all_zero_solution_exits_3(tmp_path, capsys, mode):
    # a lambda this large zeroes the estimate: a point with no support is
    # outside the checks' domain, as an all-zero truth is
    inst, res, out = (tmp_path / f for f in ("inst.json", "res.json", "out.json"))
    assert run("gen", "--p", "8", "--s", "1", "--n", "48", "--out", str(inst)) == 0
    assert run("solve", "--instance", str(inst), "--lambda", "1e3",
               "--out-result", str(res)) == 0
    assert not np.any(json.loads(res.read_text())["estimate"])
    extra = ["--lambda", "1e-3"] if mode == "certificate" else []
    capsys.readouterr()
    assert run("diag", mode, "--instance", str(inst), "--solution", str(res),
               *extra, "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: solution has empty support\n"
    assert not out.exists()


def test_diag_remark5_ok(tmp_path):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    out = tmp_path / "rem.json"
    assert run("diag", "remark5", "--instance", str(inst), "--use-truth",
               "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["inlier_noise_norm"] == 0.0


@pytest.mark.parametrize("content", ["42", '"estimate"'])
def test_diag_rejects_non_object_solution(tmp_path, capsys, content):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    sol = tmp_path / "sol.json"
    sol.write_text(content)
    assert run("diag", "certificate", "--instance", str(inst),
               "--solution", str(sol), "--lambda", "1e-4") == 4
    assert run("diag", "remark5", "--instance", str(inst),
               "--solution", str(sol)) == 4
    err = capsys.readouterr().err
    assert err.count("solution document must be a JSON object") == 2


@pytest.mark.parametrize("document, content, message", [
    ("instance", "[]", "instance document must be a JSON object\n"),
    ("solution", '{"estimate": [', "invalid JSON in solution "),
    ("solution", '{"x": []}', "missing field: estimate\n"),
], ids=["instance-not-an-object", "solution-not-json", "solution-without-estimate"])
def test_diag_rejects_bad_documents(tmp_path, capsys, document, content, message):
    paths = {"instance": tmp_path / "inst.json", "solution": tmp_path / "sol.json"}
    assert run(*GEN, "--out", str(paths["instance"])) == 0
    paths["solution"].write_text(json.dumps({"estimate": [0.0] * 16}))
    paths[document].write_text(content)
    capsys.readouterr()
    assert run("diag", "certificate", "--instance", str(paths["instance"]),
               "--solution", str(paths["solution"]), "--lambda", "1e-4") == 4
    assert message in capsys.readouterr().err


DIAG_INSTANCE = ["gen", "--p", "16", "--s", "2", "--n", "96",
                 "--noise", "type2:0.1", "--seed", "3"]


def positive(index, argv, name, value):
    """Case ``argv<index>`` of the positive-parameter rule, its id naming the rule."""
    return pytest.param(argv, f"{name} must be finite and positive, got {value}",
                        id=f"argv{index}-{name} must be positive")


def rho0_outside(index, argv, value):
    """Case ``argv<index>`` of the rho0 rule, its id naming the rule."""
    return pytest.param(argv, f"rho0 must lie in (0, 1), got {value}",
                        id=f"argv{index}-rho0 must lie in (0, 1)")


@pytest.mark.parametrize("argv, message", [
    positive(0, ["certificate", "--use-truth", "--lambda", "-1"], "lam", "-1.0"),
    positive(1, ["certificate", "--use-truth", "--lambda", "nan"], "lam", "nan"),
    positive(2, ["stability", "--alpha", "nan"], "alpha", "nan"),
    positive(3, ["stability", "--alpha", "-1"], "alpha", "-1.0"),
    positive(4, ["remark5", "--use-truth", "--alpha", "nan"], "alpha", "nan"),
    positive(5, ["remark5", "--use-truth", "--alpha", "-2"], "alpha", "-2.0"),
    rho0_outside(6, ["remark5", "--use-truth", "--rho0", "1.5"], "1.5"),
    rho0_outside(7, ["remark5", "--use-truth", "--rho0", "-1"], "-1.0"),
    (["certificate", "--use-truth"], "the following arguments are required: --lambda"),
    (["certificate", "--solution", "sol.json", "--use-truth", "--lambda", "1e-3"],
     "argument --use-truth: not allowed with argument --solution"),
    (["remark5", "--use-truth", "--solution", "sol.json"],
     "argument --solution: not allowed with argument --use-truth"),
    rho0_outside(11, ["certificate", "--use-truth", "--lambda", "1e-3", "--rho0", "1"],
                 "1.0"),
    rho0_outside(12, ["stability", "--rho0", "nan"], "nan"),
    # the boundary width is (1 - rho0) * alpha, not a flag of its own
    (["certificate", "--use-truth", "--lambda", "1e-3", "--eps1", "0.5"],
     "unrecognized arguments: --eps1 0.5"),
    # one alpha message for the three modes
    positive(14, ["certificate", "--use-truth", "--lambda", "1e-3", "--alpha", "0"],
             "alpha", "0.0"),
    rho0_outside(15, ["certificate", "--use-truth", "--lambda", "1e-3", "--rho0", "nan"],
                 "nan"),
])
def test_diag_rejects_bad_parameters(tmp_path, capsys, argv, message):
    inst = tmp_path / "inst.json"
    assert run(*DIAG_INSTANCE, "--out", str(inst)) == 0
    capsys.readouterr()
    assert run("diag", argv[0], "--instance", str(inst), *argv[1:]) == 2
    # the whole message, after the "error: " that ends the last line's prefix
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.partition("error: ")[2] == message


TOO_SMALL = "smallest nonzero entry is too small"
OVERFLOWS = "solution overflows the certificate's curvature terms"


def non_finite(*case):
    """A solution with a non-finite entry, which ``check_signal`` refuses whole;
    the id names the case."""
    return pytest.param(*case, "error: signal contains non-finite entries\n",
                        id="-".join(case) + "-solution has a non-finite entry")


@pytest.mark.parametrize("field, mode, entry, message", [
    *[case for field in ("real", "complex") for case in [
        non_finite(field, "certificate", "Infinity"),
        non_finite(field, "certificate", "NaN"),
        (field, "certificate", "1e-300", TOO_SMALL),
        (field, "certificate", "1e200", OVERFLOWS)]],
    non_finite("real", "remark5", "Infinity"),
    non_finite("real", "remark5", "NaN"),
])
def test_diag_rejects_non_finite_or_degenerate_solution(tmp_path, capsys, field,
                                                        mode, entry, message):
    inst, sol, out = (tmp_path / f for f in ("inst.json", "sol.json", "out.json"))
    assert run(*DIAG_INSTANCE, "--field", field, "--out", str(inst)) == 0
    zero, value = ("0", entry) if field == "real" else ("[0, 0]", f"[{entry}, 0]")
    sol.write_text('{"estimate": [%s]}' % ", ".join([value] + [zero] * 15))
    capsys.readouterr()
    extra = ["--lambda", "1e-3"] if mode == "certificate" else []
    assert run("diag", mode, "--instance", str(inst), "--solution", str(sol),
               *extra, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_defaults_and_precedence(tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("# defaults\np = 16\ns = 2\nn = 160\nseed = 3\nout = %s\n"
                   % (tmp_path / "from_config.json"))
    assert run("gen", "--config", str(cfg)) == 0
    assert (tmp_path / "from_config.json").exists()
    # explicit flag beats the config value
    override = tmp_path / "override.json"
    assert run("gen", "--config", str(cfg), "--out", str(override)) == 0
    assert override.exists()
    e = deserialize_instance(override.read_text())
    assert e.p == 16


@pytest.mark.parametrize("head", [["--config", "{cfg}", "gen"],
                                  ["gen", "--config={cfg}"]])
def test_config_file_before_the_command_or_joined(tmp_path, head):
    cfg = tmp_path / "conf.txt"
    out = tmp_path / "inst.json"
    cfg.write_text(f"p = 16\ns = 2\nn = 160\nseed = 3\nout = {out}\n")
    assert run(*(word.format(cfg=cfg) for word in head)) == 0
    assert deserialize_instance(out.read_text()).p == 16


def test_config_flag_errors(tmp_path, capsys):
    assert run("gen", "--config") == 2  # no path
    assert run("gen", "--config", str(tmp_path / "nope.txt")) == 4  # unreadable
    cfg = tmp_path / "conf.txt"
    cfg.write_text("p = 16\ns = 2\nn = 160\nout = x.json\nsamples = 3\n")
    capsys.readouterr()
    assert run("gen", "--config", str(cfg)) == 2  # --samples is not a gen flag
    assert "unrecognized arguments: --samples 3" in capsys.readouterr().err
    cfg.write_text("p = 16\nverbose\n")
    assert run("gen", "--config", str(cfg)) == 4
    assert "config line 2: expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["instance", "solution", "config"])
def test_a_file_that_is_not_utf8_text_exits_4_naming_its_kind(tmp_path, capsys, kind):
    inst, bad, out = tmp_path / "inst.json", tmp_path / "bad", tmp_path / "out.json"
    assert run(*GEN, "--out", str(inst)) == 0
    bad.write_bytes(b"\xff")
    argv = {
        "instance": ["solve", "--instance", str(bad), "--out-result", str(out)],
        "solution": ["diag", "certificate", "--instance", str(inst),
                     "--solution", str(bad), "--out", str(out)],
        "config": ["solve", "--config", str(bad), "--instance", str(inst),
                   "--out-result", str(out)],
    }[kind]
    capsys.readouterr()
    assert run(*argv, "--lambda", "1e-4") == 4
    assert capsys.readouterr().err == f"error: {kind} file is not UTF-8 text\n"
    assert not out.exists()


def test_a_prefix_of_a_flag_is_not_that_flag(tmp_path, capsys):
    # --s (the sparsity of gen and bench) is a prefix of diag certificate's
    # --solution; on the command line or as a config key it must not set
    # --solution (which --use-truth would then reject as not allowed with it)
    inst, cfg = tmp_path / "inst.json", tmp_path / "conf.txt"
    assert run(*GEN, "--out", str(inst)) == 0
    argv = ["diag", "certificate", "--instance", str(inst), "--use-truth",
            "--lambda", "1e-4"]
    capsys.readouterr()
    assert run(*argv, "--s", "2") == 2
    assert "unrecognized arguments: --s 2" in capsys.readouterr().err
    cfg.write_text("s = 2\n")
    assert run(*argv, "--config", str(cfg)) == 2
    assert "unrecognized arguments: --s 2" in capsys.readouterr().err


@pytest.mark.parametrize("mode, flags", [
    ("certificate", ["--use-truth", "--lambda", "1e-3"]),
    ("stability", ["--samples", "20"]),
    ("remark5", ["--use-truth"]),
], ids=["certificate", "stability", "remark5"])
def test_config_rho0_reaches_each_diag_report(tmp_path, mode, flags):
    # each diag file is its library report's to_json(), made at the config's rho0
    inst, cfg, out = (tmp_path / f for f in ("inst.json", "conf.txt", "report.json"))
    assert run(*DIAG_INSTANCE, "--out", str(inst)) == 0
    cfg.write_text("rho0 = 0.3\n")
    assert run("diag", mode, "--config", str(cfg), "--instance", str(inst), *flags,
               "--out", str(out)) == 0
    e = deserialize_instance(inst.read_text())
    alpha = SolverConfig.alpha
    report = {
        "certificate": lambda rho0: linear_rate_certificate(e.ground_truth, e, 1e-3,
                                                            alpha, rho0=rho0),
        "stability": lambda rho0: estimate_stability(e, 20, rho0, alpha, 0),
        "remark5": lambda rho0: remark5_quantities(e.ground_truth, e, alpha, rho0),
    }[mode]
    assert out.read_text() == report(0.3).to_json() + "\n"
    assert report(0.3).to_json() != report(RHO0).to_json()


BEYOND_INT64 = str(10**20)


@pytest.mark.parametrize("argv", [
    ["gen", "--p", BEYOND_INT64, "--s", "1", "--n", "4", "--out"],
    ["bench", "success-rate", "--p", BEYOND_INT64, "--s", "1", "--grid", "2",
     "--lambda", "1e-3", "--out-prefix"],
    ["bench", "error-iter", "--p", BEYOND_INT64, "--s", "1", "--lambda", "1e-3",
     "--out-prefix"],
    ["bench", "consistency", "--p-grid", BEYOND_INT64, "--s", "1", "--lambda", "1e-3",
     "--out-prefix"],
], ids=["gen", "success-rate", "error-iter", "consistency"])
def test_a_dimension_past_int64_is_a_usage_error(tmp_path, capsys, argv):
    # NumPy refuses the size with OverflowError, exit 2 as a too large --n is
    capsys.readouterr()
    assert run(*argv, str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 12.0 GiB"), "Unable to allocate 12.0 GiB"),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("argv, out, target", [
    (GEN, "--out", "synthesize_instance"),
    (["image", "--input", "{src}", "--lambda", "1e-4"], "--out-image", "measure"),
], ids=["gen", "image"])
def test_an_allocation_beyond_memory_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                      argv, out, target, exc, message):
    # a request whose arrays do not fit (image at its default --cap, say)
    # exits 2 with one message line, as the --cap refusal does
    def too_large(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, too_large)
    src, dest = sparse_image(tmp_path), tmp_path / "out"
    capsys.readouterr()
    assert run(*(word.format(src=src) for word in argv), out, str(dest)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not dest.exists()


def test_config_file_sets_switches(tmp_path, capsys):
    inst, cfg = tmp_path / "inst.json", tmp_path / "conf.txt"
    assert run(*GEN, "--out", str(inst)) == 0
    cfg.write_text("use_truth = true\n")
    assert run("diag", "remark5", "--instance", str(inst), "--config", str(cfg)) == 0
    cfg.write_text("use_truth = false\n")
    capsys.readouterr()
    assert run("diag", "remark5", "--instance", str(inst), "--config", str(cfg)) == 2
    assert ("one of the arguments --solution --use-truth is required"
            in capsys.readouterr().err)
    cfg.write_text("use_truth = yes\n")
    assert run("diag", "remark5", "--instance", str(inst), "--config", str(cfg)) == 2
    assert ("argument --use-truth: expected true or false, got 'yes'"
            in capsys.readouterr().err)
    src, out = sparse_image(tmp_path), tmp_path / "copy.pgm"
    cfg.write_text("passthrough = true\n")  # image has no switch left
    assert run("--config", str(cfg), "image", "--input", str(src),
               "--out-image", str(out), "--lambda", "1e-4") == 2
    assert "unrecognized arguments: --passthrough true" in capsys.readouterr().err
    assert not out.exists()
    assert run("--config", str(cfg), *GEN, "--out", str(inst)) == 2  # not a gen flag


def test_main_calls_share_no_parser_state(tmp_path, capsys):
    # the parser is built once per process; a switch one call sets from its
    # config file must not reach the next call
    inst, cfg = tmp_path / "inst.json", tmp_path / "conf.txt"
    assert run(*GEN, "--out", str(inst)) == 0
    cfg.write_text("use_truth = true\n")
    at_truth, at_solution = tmp_path / "truth.json", tmp_path / "solution.json"
    assert run("diag", "remark5", "--instance", str(inst), "--config", str(cfg),
               "--out", str(at_truth)) == 0
    sol = tmp_path / "sol.json"
    truth = deserialize_instance(inst.read_text()).ground_truth
    sol.write_text(json.dumps({"estimate": (2.0 * truth).tolist()}))
    assert run("diag", "remark5", "--instance", str(inst), "--solution", str(sol),
               "--out", str(at_solution)) == 0
    assert at_solution.read_text() != at_truth.read_text()
    capsys.readouterr()
    assert run("diag", "remark5", "--instance", str(inst)) == 2
    assert ("one of the arguments --solution --use-truth is required"
            in capsys.readouterr().err)


def test_main_calls_share_one_config_preparser(tmp_path, monkeypatch):
    # the --config pre-parser is built once per process, as the parser is;
    # the first parser main asks to parse is the pre-parser
    seen, parse = [], argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        seen.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    first = []
    for name in ("a.json", "b.json"):
        seen.clear()
        assert run(*GEN, "--out", str(tmp_path / name)) == 0
        first.append(seen[0])
    assert first[0] is first[1] is cli._config_flag()
    assert first[0] is not cli.build_parser()


def test_module_entry_point_reads_sys_argv(tmp_path):
    cfg = tmp_path / "conf.txt"
    cfg.write_text("p = 16\ns = 2\nn = 160\nseed = 3\nout = inst.json\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "robustpr.cli", "--config", str(cfg),
                           "gen", "--seed", "4"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "seed=4 -> inst.json" in proc.stdout
    assert deserialize_instance((tmp_path / "inst.json").read_text()).seed == 4


# Each argument is one command line, run in order by one interpreter.
CLI_SEQUENCE = """
import sys
from robustpr.cli import main
for line in sys.argv[1:]:
    if main(line.split()) != 0:
        sys.exit(f"exit code not 0: {line}")
"""


def test_cli_round_trip_opens_no_text_in_the_locale_encoding(tmp_path):
    # EncodingWarning marks a text open or decode that falls back to the
    # locale's encoding; -W error makes each one fatal, wherever it runs
    (tmp_path / "conf.txt").write_text("instance = inst.json\nlambda = 1e-3\n",
                                       encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    lines = [
        " ".join(DIAG_INSTANCE + ["--out", "inst.json"]),
        "solve --instance inst.json --lambda 1e-3 --out-result res.json "
        "--out-trace trace.csv",
        "diag certificate --instance inst.json --solution res.json "
        "--lambda 1e-3 --out cert.json",
        "diag stability --instance inst.json --samples 20 --out stab.json",
        "--config conf.txt solve --out-result config.json",
        "bench lambda-grid --instance inst.json --grid 1e-3,1e-2 --rule oracle "
        "--out-prefix grid",
    ]
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-c", CLI_SEQUENCE,
                           *lines], cwd=tmp_path, env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    outputs = ("inst.json", "res.json", "trace.csv", "cert.json", "stab.json",
               "grid.csv", "grid.gp")
    assert all((tmp_path / name).stat().st_size for name in outputs)
    assert ((tmp_path / "config.json").read_bytes()
            == (tmp_path / "res.json").read_bytes())


@pytest.mark.parametrize("argv", [
    ["gen", "--p", "8", "--s", "2", "--n", "32", "--noise", "type1:nan"],
    ["gen", "--p", "8", "--s", "2", "--n", "32", "--noise", "type3:inf"],
    ["bench", "success-rate", "--p", "8", "--s", "2", "--grid", "2",
     "--lambda", "1e-4", "--threshold", "nan"],
    ["bench", "consistency", "--p-grid", "8", "--s", "2", "--lambda", "1e-4",
     "--threshold", "-1"],
])
def test_non_finite_or_nonpositive_parameters_are_usage_errors(tmp_path, argv):
    assert run(*argv, "--out" if argv[0] == "gen" else "--out-prefix",
               str(tmp_path / "x")) == 2
    assert list(tmp_path.iterdir()) == []


def help_defaults(capsys, *command):
    """Flag -> default as shown by ``<command> --help``."""
    assert run(*command, "--help") == 0
    text = " ".join(capsys.readouterr().out.split())
    options = text.split("options:", 1)[1]
    shown = {}
    for entry in re.split(r" (?=--[a-z])", options):
        defaults = re.findall(r"\(default: ([^()]*)\)", entry)
        if defaults:
            shown[entry.split()[0]] = defaults[-1]
    return shown


def test_help_lists_defaults(capsys):
    assert help_defaults(capsys, "solve")["--alpha"] == "1.345"
    for command in (["solve"], ["image"], ["bench", "success-rate"],
                    ["bench", "error-iter"], ["bench", "lambda-grid"],
                    ["bench", "consistency"]):
        shown = help_defaults(capsys, *command)
        if command == ["bench", "lambda-grid"]:  # it searches a grid of lambdas
            assert "--lambda" not in shown
        else:
            assert shown["--lambda"] == "None", command
        for f in fields(SolverConfig):
            if f.name == "lam":
                continue
            flag = "--" + f.name.replace("_", "-")
            assert shown[flag] == str(f.default), (command, f.name)
    for mode in ("stability", "certificate", "remark5"):
        shown = help_defaults(capsys, "diag", mode)
        assert shown["--alpha"] == str(SolverConfig.alpha), mode
        assert shown["--rho0"] == str(RHO0), mode
    assert help_defaults(capsys, "diag", "stability")["--samples"] == "200"


def test_readme_lists_the_generated_solver_flags():
    # the solver flags are solve's flags for the SolverConfig fields, in order
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    listed = re.search(r"solver flags \((.*?)\)", text)
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    names = [f.name for f in fields(SolverConfig)]
    flags = [action.option_strings[0] for action in commands["solve"]._actions
             if action.dest in names]
    assert flags == ["--lambda", "--alpha"]
    assert re.findall(r"`(--[a-z-]+)`", listed.group(1)) == flags


def test_unknown_command_usage_error():
    assert run("frobnicate") == 2


class Recorder(argparse.Namespace):
    """Namespace that adds each public attribute read from it to ``Recorder.read``."""

    read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            Recorder.read.add(name)
        return super().__getattribute__(name)


def test_every_flag_is_read_by_its_command(tmp_path, capsys, monkeypatch):
    inst, res = str(tmp_path / "inst.json"), str(tmp_path / "res.json")
    assert run(*GEN, "--out", inst) == 0
    assert run("solve", "--instance", inst, "--lambda", "1e-3", "--out-result", res) == 0
    out, image = str(tmp_path / "out"), str(sparse_image(tmp_path))
    monkeypatch.setattr(SolverConfig, "max_iter", 5)
    quick = ["--lambda", "1e-3"]
    synthetic = ["--s", "2", *quick, "--out-prefix", out]
    images = ["image", "--input", image, "--out-image", out + ".pgm",
              "--out-metrics", out]
    diag = ["--instance", inst, "--out", out]
    variants = [
        ["gen", "--p", "8", "--s", "2", "--n", "32", "--out", out],
        ["solve", "--instance", inst, *quick, "--out-result", out,
         "--out-trace", out + ".csv"],
        ["bench", "success-rate", *synthetic, "--p", "8", "--grid", "4",
         "--trials", "1"],
        ["bench", "error-iter", *synthetic, "--p", "8"],
        ["bench", "lambda-grid", "--instance", inst, "--grid", "1e-3",
         "--out-prefix", out],
        ["bench", "consistency", *synthetic, "--p-grid", "8", "--trials", "1"],
        [*images, *quick],
        ["diag", "stability", *diag, "--samples", "5"],
        *[["diag", mode, *diag, *point, *extra]
          for mode, extra in [("certificate", ["--lambda", "1e-3"]), ("remark5", [])]
          for point in (["--solution", res], ["--use-truth"])],
    ]
    unread = {}
    for argv in variants:
        args = cli.build_parser().parse_args(argv, namespace=Recorder())
        Recorder.read.clear()  # parse_args reads and copies the namespace
        assert args.func(args) == 0, argv
        command = " ".join(argv[:2] if argv[0] in ("bench", "diag") else argv[:1])
        keys = set(vars(args)) - Recorder.read
        keys -= {"func", "command", "bench_mode", "diag_mode", "config"}
        unread[command] = unread.get(command, keys) & keys
    assert {command: keys for command, keys in unread.items() if keys} == {}


@pytest.mark.parametrize("argv, message", [
    (["lambda-grid", "--instance", "inst.json", "--grid", "1e-3", "--lambda", "1e-3"],
     "unrecognized arguments: --lambda 1e-3"),
    (["consistency", "--p-grid", "8", "--p", "8", "--s", "2", "--trials", "1",
      "--lambda", "1e-3"], "unrecognized arguments: --p 8"),
    # constants of the solver and the spectral start, not flags
    (["error-iter", "--p", "8", "--s", "2", "--lambda", "1e-3",
      "--max-backtracks", "3"], "unrecognized arguments: --max-backtracks 3"),
    (["success-rate", "--p", "8", "--s", "2", "--grid", "4", "--trials", "1",
      "--lambda", "1e-3", "--power-iterations", "5"],
     "unrecognized arguments: --power-iterations 5"),
    (["lambda-grid", "--instance", "inst.json", "--grid", "1e-3",
      "--power-tol", "1e-7"], "unrecognized arguments: --power-tol 1e-7"),
], ids=["lambda-grid-lambda", "consistency-p", "error-iter-max-backtracks",
        "success-rate-power-iterations", "lambda-grid-power-tol"])
def test_bench_rejects_a_flag_it_would_not_read(tmp_path, capsys, argv, message):
    assert run("bench", *argv, "--out-prefix", str(tmp_path / "x")) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# every command that solves, with its required flags
SOLVING_COMMANDS = [
    ["solve", "--instance", "inst.json", "--lambda", "1e-3"],
    ["image", "--input", "in.pgm", "--out-image", "out.pgm", "--lambda", "1e-3"],
    ["bench", "success-rate", "--p", "8", "--s", "2", "--grid", "4", "--trials", "1",
     "--lambda", "1e-3", "--out-prefix", "x"],
    ["bench", "error-iter", "--p", "8", "--s", "2", "--lambda", "1e-3",
     "--out-prefix", "x"],
    ["bench", "lambda-grid", "--instance", "inst.json", "--grid", "1e-3"],
    ["bench", "consistency", "--p-grid", "8", "--s", "2", "--trials", "1",
     "--lambda", "1e-3", "--out-prefix", "x"],
]


def refuses_as_unrecognized(capsys, argv, key, value):
    """The command ``argv`` exits 2 on ``--key value`` and on the config
    line ``key = value``, in the working directory, before it writes a file."""
    flag = "--" + key.replace("_", "-")
    Path("conf.txt").write_text(f"{key} = {value}\n")
    for extra in ([flag, value], ["--config", "conf.txt"]):
        assert run(*argv, *extra) == 2, (argv, extra)
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert os.listdir() == ["conf.txt"]


@pytest.mark.parametrize("argv", SOLVING_COMMANDS,
                         ids=lambda argv: "-".join(argv[:2] if argv[0] == "bench"
                                                   else argv[:1]))
def test_no_command_takes_a_truncation(tmp_path, capsys, monkeypatch, argv):
    # the spectral start has no knob: its flag and its config key are usage errors
    monkeypatch.chdir(tmp_path)
    refuses_as_unrecognized(capsys, argv, "truncation", "5")


@pytest.mark.parametrize("argv", [argv for argv in SOLVING_COMMANDS
                                  if "--instance" in argv],
                         ids=["solve", "bench-lambda-grid"])
def test_no_command_on_an_instance_takes_a_start_seed(tmp_path, capsys, monkeypatch,
                                                       argv):
    # the start is drawn with the instance's own seed: no flag or config key picks it
    monkeypatch.chdir(tmp_path)
    refuses_as_unrecognized(capsys, argv, "seed", "3")


@pytest.fixture(scope="module")
def echoes(tmp_path_factory):
    """writer name -> (document, expected echo) of the three echoing writers."""
    return {writer.__name__: writer(tmp_path_factory.mktemp(writer.__name__))
            for writer in (solve_echo, image_echo, success_rate_echo)}


@pytest.mark.parametrize("name", ["beta", "delta", "eps", "max_iter"])
def test_the_mm_constants_are_not_options(tmp_path, capsys, monkeypatch, echoes, name):
    # a class constant of SolverConfig, not a field: no constructor argument,
    # flag or config key sets it, and no writer echoes it
    with pytest.raises(TypeError):
        SolverConfig(1e-3, **{name: getattr(SolverConfig, name)})
    assert [f.name for f in fields(SolverConfig)] == ["lam", "alpha"]
    monkeypatch.chdir(tmp_path)
    for argv in SOLVING_COMMANDS:
        refuses_as_unrecognized(capsys, argv, name, "1")
    assert [name in doc for doc, _ in echoes.values()] == [False] * 3
    config, expected = echoes["solve_echo"]
    assert config == expected == {"lambda": 2e-4, "alpha": 0.9}


def test_switches_take_true_or_false(tmp_path, capsys):
    inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
    assert run(*GEN, "--out", str(inst)) == 0
    truth = deserialize_instance(inst.read_text()).ground_truth
    sol.write_text(json.dumps({"estimate": (2.0 * truth).tolist()}))
    reports = {}
    for name, point in [("solution", ["--solution", str(sol)]),
                        ("false", ["--use-truth", "false", "--solution", str(sol)]),
                        ("true", ["--use-truth", "true"]), ("bare", ["--use-truth"])]:
        reports[name] = tmp_path / f"{name}.json"
        assert run("diag", "remark5", "--instance", str(inst), *point,
                   "--out", str(reports[name])) == 0
    text = {name: path.read_text() for name, path in reports.items()}
    assert text["false"] == text["solution"] != text["true"] == text["bare"]
    image = ["image", "--input", str(sparse_image(tmp_path)),
             "--out-image", str(tmp_path / "copy.pgm"), "--lambda", "1e-4"]
    capsys.readouterr()
    for value in ([], ["true"], ["false"]):  # --use-truth is the only switch
        assert run(*image, "--passthrough", *value) == 2
        assert ("unrecognized arguments: --passthrough"
                in capsys.readouterr().err)
    assert not (tmp_path / "copy.pgm").exists()


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_outputs_are_strict_json(tmp_path):
    # NaN and Infinity are not JSON; parse every written document strictly
    inst, res = tmp_path / "inst.json", tmp_path / "res.json"
    written = [inst, res]
    assert run(*DIAG_INSTANCE, "--out", str(inst)) == 0
    assert run("solve", "--instance", str(inst), "--lambda", "1e-3",
               "--out-result", str(res)) == 0
    assert run("bench", "success-rate", "--p", "8", "--s", "2", "--grid", "4",
               "--trials", "1", "--lambda", "1e-4",
               "--out-prefix", str(tmp_path / "rate")) == 0
    written.append(tmp_path / "rate.json")
    metrics = tmp_path / "img.json"
    assert run("image", "--input", str(sparse_image(tmp_path)), "--out-image",
               str(tmp_path / "o.pgm"), "--out-metrics", str(metrics),
               "--ratio", "8", "--lambda", "1e-4") == 0
    written.append(metrics)
    for mode, extra in [("stability", ["--samples", "20"]),
                        ("certificate", ["--solution", str(res), "--lambda", "1e-3"]),
                        ("remark5", ["--use-truth"])]:
        out = tmp_path / f"{mode}.json"
        assert run("diag", mode, "--instance", str(inst), *extra,
                   "--out", str(out)) == 0
        written.append(out)
    for path in written:
        json.loads(path.read_text(), parse_constant=reject_constant)


def test_text_outputs_end_lines_with_lf_under_a_crlf_platform(tmp_path, monkeypatch):
    # _pyio's text mode translates "\n" to os.linesep, as on Windows
    monkeypatch.setattr(builtins, "open", _pyio.open)
    monkeypatch.setattr(os, "linesep", "\r\n")
    inst, res = tmp_path / "inst.json", tmp_path / "res.json"
    assert run(*DIAG_INSTANCE, "--out", str(inst)) == 0
    assert run("solve", "--instance", str(inst), "--lambda", "1e-3",
               "--out-result", str(res), "--out-trace", str(tmp_path / "trace.csv")) == 0
    synthetic = ["--s", "2", "--trials", "1", "--lambda", "1e-4"]
    assert run("bench", "success-rate", *synthetic, "--p", "8", "--grid", "4",
               "--out-prefix", str(tmp_path / "rate")) == 0
    assert run("bench", "error-iter", "--p", "8", "--s", "2", "--lambda", "1e-4",
               "--out-prefix", str(tmp_path / "curve")) == 0
    assert run("bench", "lambda-grid", "--instance", str(inst), "--grid", "1e-4,1e-3",
               "--out-prefix", str(tmp_path / "tab")) == 0
    assert run("bench", "consistency", *synthetic, "--p-grid", "8",
               "--out-prefix", str(tmp_path / "cons")) == 0
    for mode, extra in [("certificate", ["--solution", str(res), "--lambda", "1e-3"]),
                        ("stability", ["--samples", "20"]),
                        ("remark5", ["--use-truth"])]:
        assert run("diag", mode, "--instance", str(inst), *extra,
                   "--out", str(tmp_path / f"{mode}.json")) == 0
    assert run("image", "--input", str(sparse_image(tmp_path)), "--out-image",
               str(tmp_path / "o.pgm"), "--out-metrics", str(tmp_path / "img.json"),
               "--ratio", "8", "--lambda", "1e-4") == 0
    written = sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".pgm")
    assert len(written) == 17
    assert [name for name in written if b"\r" in (tmp_path / name).read_bytes()] == []


# ------------------------------------------- instance values out of range
#
# Edits of a small instance file (p = 8, n = 32) that overflow the package's
# arithmetic, one row each: (name, command line, field, changes, exit code,
# message).  A row's run prints only its one error line and writes no file.

class Drop:
    """The change that deletes its key."""

    def __repr__(self):
        return "DROP"


DROP = Drop()


def mutate(doc, changes):
    """Apply ``changes`` to the JSON document ``doc`` in place and return it:
    ``key: value`` sets a top-level key (``DROP`` deletes it) and ``(key, i):
    value`` sets entry i of a list."""
    for where, value in changes.items():
        key, index = where if isinstance(where, tuple) else (where, None)
        holder, slot = (doc, key) if index is None else (doc[key], index)
        if value is DROP:
            del holder[slot]
        else:
            holder[slot] = value
    return doc


@functools.cache
def small_instance(field):
    """The ``gen`` text of a noiseless p = 8, n = 32 instance of ``field``."""
    return serialize_instance(synthesize_instance(8, 2, 32, FieldTag(field), NoiseSpec(), 1))


def entry(field, value):
    """A signal entry of ``field`` whose real part is ``value``."""
    return value if field == "real" else [value, 0.0]


class Wire(str):
    """The base64 ``a`` of a 32 x 8 matrix of ``value`` in ``dtype``'s layout,
    shown by what it holds."""

    def __new__(cls, dtype, value):
        text = base64.b64encode(np.full((32, 8), value, dtype).tobytes()).decode()
        wire = super().__new__(cls, text)
        wire.label = f"Wire({dtype!r}, {value!r})"
        return wire

    def __repr__(self):
        return self.label


FIELDS = ["real", "complex"]
SOLVE = "solve --instance inst.json --lambda 1e-4 --out-result out.json"
GRID = "bench lambda-grid --instance inst.json --grid 1e-3 --out-prefix out"
STABILITY = "diag stability --instance inst.json --samples 3 --out out.json"
REMARK5 = "diag remark5 --instance inst.json --use-truth --out out.json"
REFUSALS = [
    # a truth past the forward model's range is inconsistent, not a NaN gap
    *[(f"{field}-truth-{name}", SOLVE, field, changes, 4,
       "observations inconsistent with ground truth and noise record")
      for field in FIELDS for name, changes in [
          ("all-1e308", {"x_true": [entry(field, 1e308)] * 8}),
          ("one-1e200", {("x_true", 0): entry(field, 1e200)})]],
    # truth-free observations past the spectral start's range
    *[(f"{command}-{field}-observations-{value:g}", argv, field,
       {"x_true": DROP, "eps": DROP, "b": [value] * 32}, 2,
       "observations overflow the spectral start")
      for field in FIELDS for value in (1e300, 1e308)
      for command, argv in [("solve", SOLVE), ("lambda-grid", GRID)]],
    # sampling vectors whose row norms overflow the rows' normalization
    *[(f"{command}-a-1e300", argv, "real", {"eps": DROP, "a": Wire("<f8", 1e300)}, 2,
       "sampling ensemble row norms overflow")
      for command, argv in [("stability", STABILITY), ("remark5", REMARK5)]],
]


@pytest.mark.parametrize("argv, field, changes, code, message",
                         [pytest.param(*row, id=name) for name, *row in REFUSALS])
def test_refusal(tmp_path, monkeypatch, capsys, argv, field, changes, code, message):
    monkeypatch.chdir(tmp_path)
    Path("inst.json").write_text(json.dumps(mutate(json.loads(small_instance(field)),
                                                   changes)))
    capsys.readouterr()
    assert run(*argv.split()) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir() == ["inst.json"]


# ---------------------------------------------------------------- the fuzz
#
# Mutated small instance files and arbitrary PGM bytes through the commands
# that read them: each run exits 0, 2, 3 or 4, raises nothing (a warning is an
# error in this suite), and a run that exits nonzero writes no file.  The base
# file keeps its truth and noise record, so most edits of a, b, x_true or eps
# end at the reader's consistency check with exit 4.

# what a mutation puts in a key or a list entry
FUZZ_VALUES = [None, True, 0, -1, 0.5, 2**64, 1e300, 1e308, -1e308, 5e-324,
               float("nan"), float("inf"), float("-inf"), "", "x", [], {}, [0.0, 0.0]]
FUZZ_COMMANDS = {
    "solve": SOLVE,
    "certificate": "diag certificate --instance inst.json --use-truth --lambda 1e-3 "
                   "--out out.json",
    "stability": STABILITY,
    "remark5": REMARK5,
    "lambda-grid": GRID,
}


INSTANCE_KEYS = ["field", "p", "n", "seed", "a", "b", "x_true", "eps"]
FUZZ_KEYS = st.sampled_from(INSTANCE_KEYS)
FUZZ_VALUE = st.sampled_from(FUZZ_VALUES)
MUTATIONS = st.one_of(
    FUZZ_KEYS.map(lambda key: {key: DROP}),
    st.tuples(FUZZ_KEYS, FUZZ_VALUE).map(lambda change: dict([change])),
    st.tuples(st.sampled_from(["b", "x_true", "eps"]), st.integers(0, 7), FUZZ_VALUE)
    .map(lambda change: {change[:2]: change[2]}),
    st.one_of(FUZZ_VALUE.map(lambda crc: {"crc32": crc}),
              st.sampled_from(["", "!", *[Wire(dtype, value) for dtype in ("<f8", "<c16")
                                         for value in (0.0, 1e300, np.nan)]]))
    .map(lambda a: {"a": a}),
    st.sampled_from(["real", "complex", "Real", "quaternion"]).map(lambda f: {"field": f}),
)


def exits_cleanly(files, argv):
    """Run ``argv`` in a directory of ``files``; check the fuzz's property."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        for name, content in files.items():
            Path(name).write_bytes(content)
        code = run(*argv.split())
        assert code in (0, 2, 3, 4)
        assert code == 0 or sorted(os.listdir()) == sorted(files)


def each_deletion(test):
    """``test`` with one explicit example per top-level key deleted, in each
    field, so that every missing-data path runs whatever the draw."""
    for field in FIELDS:
        for key in INSTANCE_KEYS:
            test = example(field=field, changes={key: DROP})(test)
    return test


@pytest.mark.parametrize("argv", FUZZ_COMMANDS.values(), ids=FUZZ_COMMANDS)
@settings(max_examples=100, deadline=None)
@each_deletion
@given(field=st.sampled_from(FIELDS), changes=MUTATIONS)
def test_a_mutated_instance_exits_cleanly(argv, field, changes):
    doc = mutate(json.loads(small_instance(field)), changes)
    exits_cleanly({"inst.json": json.dumps(doc).encode()}, argv)


@settings(max_examples=100, deadline=None)
@given(PGM_BYTES)
def test_any_pgm_bytes_exit_image_cleanly(data):
    exits_cleanly({"input.pgm": data}, "image --input input.pgm --out-image out.pgm "
                  "--lambda 1e-4 --out-metrics out.json")
