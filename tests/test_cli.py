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


def test_a_drawn_instance_whose_mean_observation_is_nonpositive_fails_from_zero(
        tmp_path, monkeypatch, capsys):
    # no spectral start: a read instance is refused (REFUSALS), a drawn one
    # starts and stays at zero, so a sweep counts a failure and finishes
    monkeypatch.chdir(tmp_path)
    noise = "--noise gaussian:3 --lambda 1e-3"
    assert run(*f"bench success-rate --p 8 --s 2 --grid 4 --trials 20 {noise} "
               "--out-prefix x".split()) == 0
    header, *body = Path("x.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), row.split(","))) for row in body]
    assert [(row["trial"], row["support_size"], row["relative_error"]) for row in rows
            if synthesize_instance(8, 2, 32, FieldTag.REAL, NoiseSpec.parse("gaussian:3"),
                                   int(row["seed"])).observations.mean() <= 0
            ] == [(trial, "0", "1.0") for trial in ("4", "17", "19")]
    # error-iter's one drawn instance at seed 2 is another such draw
    assert run(*f"bench error-iter --p 8 --s 2 --ratio 4 --seed 2 {noise} "
               "--out-prefix y".split()) == 0
    assert Path("y.csv").read_text().splitlines() == ["k,relative_error", "0,1.0", "1,1.0"]
    assert capsys.readouterr().err == ""


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


DIAG_INSTANCE = ["gen", "--p", "16", "--s", "2", "--n", "96",
                 "--noise", "type2:0.1", "--seed", "3"]


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
    refuse([row for argv in SOLVING_COMMANDS.values()
            for row in unrecognized(argv, name, "1")], tmp_path, monkeypatch, capsys)
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


# ------------------------------------------------------------- the refusals
#
# Each row of REFUSALS is one command line that the CLI refuses: (test id,
# command line, input files, exit code, last stderr line).  It runs in a
# directory that holds only its input files.  It must exit with its code and
# print its line: the whole stderr of a refusal by cli.main, and the line
# after the usage of an argparse usage error.  It must run no solve and
# leave the directory as it was.  Rows that share a test id run in order in
# that test, and an id without brackets is a test without parameters.

class Drop:
    """The change that deletes its key."""

    def __repr__(self):
        return "DROP"


DROP = Drop()


def mutate(doc, changes):
    """Apply ``changes`` to the JSON document ``doc`` in place and return it:
    ``key: value`` sets a top-level key (``DROP`` deletes it) and ``(key, i):
    value`` sets entry i of a list.  Deleting a key the document lacks, or
    setting an entry of a list it lacks, changes nothing."""
    for where, value in changes.items():
        key, index = where if isinstance(where, tuple) else (where, None)
        if value is DROP:
            doc.pop(key, None)
        elif index is None:
            doc[key] = value
        elif key in doc:
            doc[key][index] = value
    return doc


@functools.cache
def small_instance(field, truth=True):
    """The ``gen`` document of a noiseless p = 8, n = 32 instance of
    ``field`` as JSON text, without its ``x_true`` and ``eps`` unless ``truth``."""
    e = synthesize_instance(8, 2, 32, FieldTag(field), NoiseSpec(), 1)
    doc = json.loads(serialize_instance(e))
    return json.dumps(doc if truth else mutate(doc, {"x_true": DROP, "eps": DROP}))


def inst(changes=None, field="real", truth=True):
    """Input files: ``small_instance`` with ``changes`` applied, as inst.json."""
    return {"inst.json": json.dumps(mutate(json.loads(small_instance(field, truth)),
                                           changes or {}))}


def entry(field, value):
    """A signal entry of ``field`` whose real part is ``value``."""
    return value if field == "real" else [value, 0.0]


class AnyErrorLine(str):
    """The line of a refusal that NumPy words: equal to any ``error:`` line,
    since its text changes with NumPy's version and platform."""

    def __eq__(self, other):
        return isinstance(other, str) and other.startswith("error: ")

    __hash__ = str.__hash__


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


def with_solution(field, first):
    """Input files: the small instance of ``field`` and a solution whose
    first entry is the JSON token ``first`` and the rest zero."""
    zero, value = ("0", first) if field == "real" else ("[0, 0]", f"[{first}, 0]")
    return {**inst(field=field),
            "sol.json": '{"estimate": [%s]}' % ", ".join([value] + [zero] * 7)}


def unrecognized(argv, key, value):
    """Rows (without their test id) of ``argv`` given ``--key value``, on the
    command line and as the config line ``key = value``."""
    flag = "--" + key.replace("_", "-")
    line = f"robustpr: error: unrecognized arguments: {flag} {value}"
    return [(f"{argv} {flag} {value}", {}, 2, line),
            (f"{argv} --config conf.txt", {"conf.txt": f"{key} = {value}\n"}, 2, line)]


def positive(argv, name, value):
    """(argv, id label, line) of a diag parameter refused as not positive."""
    return (argv, f"{name} must be positive",
            f"error: {name} must be finite and positive, got {value}")


def rho0_outside(argv, value):
    """(argv, id label, line) of a diag rho0 refused as outside (0, 1)."""
    return argv, "rho0 must lie in (0, 1)", f"error: rho0 must lie in (0, 1), got {value}"


def diag_usage(argv, message):
    """(argv, id label, line) of a diag command line that its mode's parser
    refuses."""
    return argv, message, f"robustpr diag {argv.split()[0]}: error: {message}"


FIELDS = ["real", "complex"]
SOLVE = "solve --instance inst.json --lambda 1e-4 --out-result out.json"
GRID = "bench lambda-grid --instance inst.json --grid 1e-3 --out-prefix out"
STABILITY = "diag stability --instance inst.json --samples 3 --out out.json"
REMARK5 = "diag remark5 --instance inst.json --use-truth --out out.json"
CERTIFICATE = ("diag certificate --instance inst.json --use-truth --lambda 1e-3 "
               "--out out.json")
AT_SOLUTION = {
    "certificate": "diag certificate --instance inst.json --solution sol.json "
                   "--lambda 1e-3 --out out.json",
    "remark5": "diag remark5 --instance inst.json --solution sol.json --out out.json",
}
IMAGE = "image --input in.pgm --out-image out.pgm --lambda 1e-4"
PGM = {"in.pgm": b"P2\n3 3\n255\n0 255 0\n0 0 0\n191 0 0\n"}  # 9 pixels, 2 lit
DRAWN = json.loads(small_instance("real"))  # its "a" is {"crc32": ...}
ZERO_TRUTH = {"inst.json": serialize_instance(MeasurementEnsemble(
    np.eye(4), np.ones(4), ground_truth=np.zeros(4), noise_record=np.ones(4)))}
BEYOND_INT64 = str(10**20)
NON_FINITE = ("solution has a non-finite entry",
              "error: signal contains non-finite entries")
# every command that solves, with its required flags
SOLVING_COMMANDS = {
    "solve": "solve --instance inst.json --lambda 1e-3",
    "image": "image --input in.pgm --out-image out.pgm --lambda 1e-3",
    "bench-success-rate": "bench success-rate --p 8 --s 2 --grid 4 --trials 1 "
                          "--lambda 1e-3 --out-prefix x",
    "bench-error-iter": "bench error-iter --p 8 --s 2 --lambda 1e-3 --out-prefix x",
    "bench-lambda-grid": "bench lambda-grid --instance inst.json --grid 1e-3",
    "bench-consistency": "bench consistency --p-grid 8 --s 2 --trials 1 --lambda 1e-3 "
                         "--out-prefix x",
}
REFUSALS = [
    # gen, flags and config files
    ("test_gen_rejects_bad_p", "gen --p 0 --s 1 --n 4 --out x.json", {}, 2,
     "robustpr gen: error: argument --p: must be a positive integer, got '0'"),
    ("test_unknown_field_is_a_usage_error",
     "gen --p 4 --s 1 --n 8 --field quaternion --out inst.json", {}, 2,
     "robustpr gen: error: argument --field: field must be 'real' or 'complex', "
     "got 'quaternion'"),
    ("test_unknown_command_usage_error", "frobnicate", {}, 2,
     "robustpr: error: argument command: invalid choice: 'frobnicate' "
     "(choose from 'gen', 'solve', 'bench', 'image', 'diag')"),
    *[(f"test_a_malformed_flag_value_says_what_was_expected[argv{i}-{line}]", argv, {},
       2, line) for i, (argv, line) in enumerate([
           ("gen --p 1.5",
            "robustpr gen: error: argument --p: must be a positive integer, got '1.5'"),
           ("bench success-rate --grid 2,x", "robustpr bench success-rate: error: "
            "argument --grid: must be a positive integer, got 'x'"),
           # an integer list item is refused by its flag, not later by the library
           ("bench success-rate --grid 0,2", "robustpr bench success-rate: error: "
            "argument --grid: must be a positive integer, got '0'"),
           ("bench consistency --p-grid 0,2", "robustpr bench consistency: error: "
            "argument --p-grid: must be a positive integer, got '0'"),
           ("bench lambda-grid --grid 1e-3,x", "robustpr bench lambda-grid: error: "
            "argument --grid: expected a comma list of numbers, got '1e-3,x'"),
           ("image --threshold abc", "robustpr image: error: argument --threshold: "
            "must be a finite nonnegative number, got 'abc'"),
           ("gen --noise type2:", "robustpr gen: error: argument --noise: "
            "noise spec must look like 'kind:eta', got 'type2:'")])],
    *[(f"test_non_finite_or_nonpositive_parameters_are_usage_errors[argv{i}]", argv, {},
       2, line) for i, (argv, line) in enumerate([
           *[(f"gen --p 8 --s 2 --n 32 --noise {noise}:{eta} --out x",
              "robustpr gen: error: argument --noise: "
              f"eta must be finite and nonnegative, got {eta}")
             for noise, eta in [("type1", "nan"), ("type3", "inf")]],
           *[(f"bench {mode} --s 2 --lambda 1e-4 --threshold {value} --out-prefix x",
              f"error: success_threshold must be finite and positive, got {float(value)}")
             for mode, value in [("success-rate --p 8 --grid 2", "nan"),
                                 ("consistency --p-grid 8", "-1")]]])],
    # NumPy refuses the size with OverflowError, exit 2 as a too large --n is
    *[(f"test_a_dimension_past_int64_is_a_usage_error[{name}]", f"{argv} --s 1 {flags}",
       {}, 2, AnyErrorLine("error: "))
      for name, argv, flags in [
          ("gen", f"gen --p {BEYOND_INT64}", "--n 4 --out out"),
          ("success-rate", f"bench success-rate --p {BEYOND_INT64}",
           "--grid 2 --lambda 1e-3 --out-prefix out"),
          ("error-iter", f"bench error-iter --p {BEYOND_INT64}",
           "--lambda 1e-3 --out-prefix out"),
          ("consistency", f"bench consistency --p-grid {BEYOND_INT64}",
           "--lambda 1e-3 --out-prefix out")]],
    ("test_bench_empty_grid_usage_error",
     "bench success-rate --p 16 --s 2 --grid= --lambda 1e-4 --out-prefix x", {}, 2,
     "robustpr bench success-rate: error: argument --grid: "
     "list flag must contain at least one value"),
    *[(f"test_bench_repeated_grid_value_usage_error[argv{i}]",
       f"bench {mode} {flag} {grid} {flags} --out-prefix x", files, 2,
       f"robustpr bench {mode}: error: argument {flag}: list flag repeats a value")
      for i, (mode, flag, grid, flags, files) in enumerate([
          ("success-rate", "--grid", "4,4", "--p 8 --s 2 --lambda 1e-4", {}),
          ("consistency", "--p-grid", "8,8", "--s 2 --lambda 1e-4", {}),
          ("lambda-grid", "--grid", "1e-3,1e-4,0.001", "--instance inst.json", inst())])],
    *[(f"test_bench_rejects_a_flag_it_would_not_read[{name}]",
       f"bench {argv} {extra} --out-prefix x", {}, 2,
       f"robustpr: error: unrecognized arguments: {extra}")
      for name, argv, extra in [
          ("lambda-grid-lambda", "lambda-grid --instance inst.json --grid 1e-3",
           "--lambda 1e-3"),
          ("consistency-p", "consistency --p-grid 8 --s 2 --trials 1 --lambda 1e-3",
           "--p 8"),
          # constants of the solver and the spectral start, not flags
          ("error-iter-max-backtracks", "error-iter --p 8 --s 2 --lambda 1e-3",
           "--max-backtracks 3"),
          ("success-rate-power-iterations",
           "success-rate --p 8 --s 2 --grid 4 --trials 1 --lambda 1e-3",
           "--power-iterations 5"),
          ("lambda-grid-power-tol", "lambda-grid --instance inst.json --grid 1e-3",
           "--power-tol 1e-7")]],
    # the spectral start has no knob, and is drawn with the instance's own seed
    *[(f"test_no_command_takes_a_truncation[{name}]", *row)
      for name, argv in SOLVING_COMMANDS.items()
      for row in unrecognized(argv, "truncation", "5")],
    *[(f"test_no_command_on_an_instance_takes_a_start_seed[{name}]", *row)
      for name in ("solve", "bench-lambda-grid")
      for row in unrecognized(SOLVING_COMMANDS[name], "seed", "3")],
    *[("test_config_flag_errors", *row) for row in [
        ("gen --config", {}, 2,
         "robustpr: error: argument --config: expected one argument"),
        ("gen --config nope.txt", {}, 4,
         "error: [Errno 2] No such file or directory: 'nope.txt'"),
        ("gen --config conf.txt",  # --samples is not a gen flag
         {"conf.txt": "p = 16\ns = 2\nn = 160\nout = x.json\nsamples = 3\n"}, 2,
         "robustpr: error: unrecognized arguments: --samples 3"),
        ("gen --config conf.txt", {"conf.txt": "p = 16\nverbose\n"}, 4,
         "error: config line 2: expected 'key = value'")]],
    # --s, a flag of gen and bench, is a prefix of diag's --solution; it never sets it
    *[("test_a_prefix_of_a_flag_is_not_that_flag", *row)
      for row in unrecognized(CERTIFICATE, "s", "2")],
    *[(f"test_a_file_that_is_not_utf8_text_exits_4_naming_its_kind[{kind}]",
       f"{argv} --lambda 1e-4", {**inst(), "bad": b"\xff"}, 4,
       f"error: {kind} file is not UTF-8 text") for kind, argv in [
           ("instance", "solve --instance bad --out-result out.json"),
           ("solution", "diag certificate --instance inst.json --solution bad "
            "--out out.json"),
           ("config", "solve --config bad --instance inst.json --out-result out.json")]],
    # instance files
    ("test_solve_missing_file_is_io_error", "solve --instance nope.json --lambda 1e-4",
     {}, 4, "error: [Errno 2] No such file or directory: 'nope.json'"),
    *[(f"test_solve_malformed_instance_is_parse_error[{label}]", SOLVE, inst(changes),
       4, f"error: malformed field: {next(iter(changes))}")
      for changes in [{"a": 3}, {"a": [0.0] * 256}, {"p": None}, {"p": "x"},
                      {"p": -1, "n": -1}, {"seed": 1.5}]
      for label in [",".join(f"{k}={reprlib.repr(v)}" for k, v in changes.items())]],
    *[(f"test_solve_tampered_drawn_matrix_exits_4[{name}]", SOLVE, inst(changes), 4,
       "error: malformed field: a") for name, changes in [
           ("crc", {"a": {"crc32": DRAWN["a"]["crc32"] ^ 1}}), ("seed", {"seed": 2}),
           ("n", {"n": 33, "b": DRAWN["b"] + [0.0]}), ("p", {"p": 9}),
           ("extra-key", {"a": {**DRAWN["a"], "seed": 1}}),
           ("bool", {"a": {"crc32": True}}), ("negative", {"a": {"crc32": -1}}),
           ("2^32", {"a": {"crc32": 1 << 32}})]],
    *[(f"test_solve_refuses_a_non_finite_truth_or_noise_record[{key}-{i}-{value}]",
       SOLVE, inst({(key, i): float(value)}), 4,
       f"error: {kind} contains non-finite entries")
      for key, i, value, kind in [("x_true", 0, "NaN", "signal"),
                                  ("eps", 1, "NaN", "ensemble"),
                                  ("x_true", 0, "Infinity", "signal")]],
    # a truth past the forward model's range is inconsistent, not a NaN gap
    *[(f"test_refusal[{field}-truth-{name}]", SOLVE, inst(changes, field), 4,
       "error: observations inconsistent with ground truth and noise record")
      for field in FIELDS for name, changes in [
          ("all-1e308", {"x_true": [entry(field, 1e308)] * 8}),
          ("one-1e200", {("x_true", 0): entry(field, 1e200)})]],
    # truth-free observations past the spectral start's range, or outside its domain
    *[(f"test_refusal[{command}-{field}-observations-{value:g}]", argv,
       inst({"b": [value] * 32}, field, truth=False), 2,
       "error: observations overflow the spectral start")
      for field in FIELDS for value in (1e300, 1e308)
      for command, argv in [("solve", SOLVE), ("lambda-grid", GRID)]],
    *[(f"test_refusal[{command}-{field}-mean-observation-nonpositive]", argv,
       inst({"b": [-1.0] * 32}, field, truth=False), 3,
       "error: mean observation is nonpositive; no spectral start")
      for field in FIELDS for command, argv in [("solve", SOLVE), ("lambda-grid", GRID)]],
    # sampling vectors whose row norms overflow the rows' normalization
    *[(f"test_refusal[{command}-a-1e300]", argv,
       inst({"eps": DROP, "a": Wire("<f8", 1e300)}), 2,
       "error: sampling ensemble row norms overflow")
      for command, argv in [("stability", STABILITY), ("remark5", REMARK5)]],
    # bench lambda-grid
    *[(f"test_lambda_grid_oracle_on_a_zero_truth_exits_3_before_solving[{field}]",
       f"{GRID} --rule oracle", inst({"x_true": [entry(field, 0.0)] * 8, "eps": DROP},
                                     field), 3,
       "error: oracle rule needs a nonzero ground truth") for field in FIELDS],
    ("test_lambda_grid_holdout_on_one_measurement_exits_3_before_solving",
     f"{GRID} --rule holdout", {"inst.json": serialize_instance(
         synthesize_instance(4, 1, 1, FieldTag.REAL, NoiseSpec(), 1))}, 3,
     "error: holdout rule needs at least 2 measurements"),
    *[(f"test_lambda_grid_rejects_a_bad_grid_value_before_solving[{bad}]",
       f"bench lambda-grid --instance inst.json --grid=1e-3,{bad} --rule oracle",
       inst(), 2, f"error: lam must be finite and positive, got {float(bad)}")
      for bad in ["nan", "inf", "-inf", "0", "-1e-3"]],
    # image
    ("test_image_cap_refusal", f"{IMAGE} --cap 8", PGM, 2,
     "error: image has 9 pixels, above the cap 8; downscale it or raise --cap"),
    *[(f"test_image_rejects_bad_threshold_and_cap[{flag}-{value}]",
       f"{IMAGE} {flag} {value}", PGM, 2,
       f"robustpr image: error: argument {flag}: must be {rule}, got '{value}'")
      for flag, rule, values in [
          ("--threshold", "a finite nonnegative number", ["nan", "-1", "inf"]),
          ("--cap", "a positive integer", ["-5", "0"])]
      for value in values],
    ("test_image_threshold_above_every_pixel", f"{IMAGE} --threshold 1.5", PGM, 2,
     "error: image is entirely black after thresholding"),
    ("test_image_rejects_non_pgm", IMAGE, {"in.pgm": b"JFIF nonsense"}, 4,
     "error: not a PGM image (magic b'JFIF', want P2 or P5)"),
    *[(f"test_image_malformed_p2_raster_is_format_error[{token}]", IMAGE,
       {"in.pgm": b"P2\n2 2\n255\n0 1 " + token.encode() + b" 3\n"}, 4,
       "error: malformed P2 raster value") for token in ["x", "2.5", "1_0", "+1", "-0"]],
    # diag
    ("test_diag_stability_complex_unsupported", STABILITY, inst(field="complex"), 3,
     "error: stability estimation is defined for real ensembles only"),
    ("test_diag_remark5_missing_record", REMARK5, inst({"eps": DROP}), 3,
     "error: Remark-5 quantities require a noise record"),
    ("test_diag_use_truth_needs_a_ground_truth", CERTIFICATE, inst({"x_true": DROP}), 3,
     "error: --use-truth needs a nonzero ground truth; pass --solution"),
    # a stored truth that is all zero, as lambda-grid's oracle rule refuses it
    *[(f"test_diag_use_truth_needs_a_nonzero_ground_truth[{mode}]", argv, ZERO_TRUTH, 3,
       line) for mode, diag in [("certificate", CERTIFICATE), ("remark5", REMARK5)]
      for argv, line in [
          (diag, "error: --use-truth needs a nonzero ground truth; pass --solution"),
          (f"{GRID} --rule oracle", "error: oracle rule needs a nonzero ground truth")]],
    *[(f"test_refusal[{mode}-empty-support]", argv, with_solution("real", "0"), 3,
       "error: solution has empty support") for mode, argv in AT_SOLUTION.items()],
    ("test_diag_rejects_wrong_length_estimate", AT_SOLUTION["certificate"],
     {**inst(), "sol.json": json.dumps({"estimate": [0.0] * 7})}, 4,
     "error: malformed field: estimate"),
    *[(f"test_diag_rejects_non_object_solution[{content}]", argv,
       {**inst(), "sol.json": content}, 4,
       "error: solution document must be a JSON object")
      for content in ["42", '"estimate"'] for argv in AT_SOLUTION.values()],
    *[(f"test_diag_rejects_bad_documents[{name}]", AT_SOLUTION["certificate"],
       {**with_solution("real", "0"), **changed}, 4, line) for name, changed, line in [
           ("instance-not-an-object", {"inst.json": "[]"},
            "error: instance document must be a JSON object"),
           ("solution-not-json", {"sol.json": '{"estimate": ['}, "error: invalid JSON "
            "in solution document: Expecting value: line 1 column 15 (char 14)"),
           ("solution-without-estimate", {"sol.json": '{"x": []}'},
            "error: missing field: estimate")]],
    *[(f"test_diag_rejects_bad_parameters[argv{i}-{label}]",
       f"diag {argv} --instance inst.json", inst(), 2, line)
      for i, (argv, label, line) in enumerate([
          positive("certificate --use-truth --lambda -1", "lam", "-1.0"),
          positive("certificate --use-truth --lambda nan", "lam", "nan"),
          positive("stability --alpha nan", "alpha", "nan"),
          positive("stability --alpha -1", "alpha", "-1.0"),
          positive("remark5 --use-truth --alpha nan", "alpha", "nan"),
          positive("remark5 --use-truth --alpha -2", "alpha", "-2.0"),
          rho0_outside("remark5 --use-truth --rho0 1.5", "1.5"),
          rho0_outside("remark5 --use-truth --rho0 -1", "-1.0"),
          diag_usage("certificate --use-truth",
                     "the following arguments are required: --lambda"),
          diag_usage("certificate --solution sol.json --use-truth --lambda 1e-3",
                     "argument --use-truth: not allowed with argument --solution"),
          diag_usage("remark5 --use-truth --solution sol.json",
                     "argument --solution: not allowed with argument --use-truth"),
          rho0_outside("certificate --use-truth --lambda 1e-3 --rho0 1", "1.0"),
          rho0_outside("stability --rho0 nan", "nan"),
          # the boundary width is (1 - rho0) * alpha, not a flag of its own
          ("certificate --use-truth --lambda 1e-3 --eps1 0.5",
           "unrecognized arguments: --eps1 0.5",
           "robustpr: error: unrecognized arguments: --eps1 0.5"),
          # one alpha message for the three modes
          positive("certificate --use-truth --lambda 1e-3 --alpha 0", "alpha", "0.0"),
          rho0_outside("certificate --use-truth --lambda 1e-3 --rho0 nan", "nan")])],
    *[("test_diag_rejects_non_finite_or_degenerate_solution"
       f"[{field}-{mode}-{first}-{label}]", AT_SOLUTION[mode],
       with_solution(field, first), 2, line)
      for field, mode, first, label, line in [
          *[(field, "certificate", first, *outcome) for field in FIELDS
            for first, outcome in [
                ("Infinity", NON_FINITE), ("NaN", NON_FINITE),
                ("1e-300", ("smallest nonzero entry is too small",
                            "error: regularizer term overflows: the solution's "
                            "smallest nonzero entry is too small for this lambda")),
                ("1e200", ("solution overflows the certificate's curvature terms",
                           "error: solution overflows the certificate's curvature "
                           "terms"))]],
          ("real", "remark5", "Infinity", *NON_FINITE),
          ("real", "remark5", "NaN", *NON_FINITE)]],
]


def refuse(rows, tmp_path, monkeypatch, capsys):
    """Run each (command line, input files, exit code, line) row of ``rows``
    in a directory of its own under ``tmp_path``, then check every row at
    once, so that one wrong row hides none after it: the exit code, the last
    stderr line (after the usage for an argparse error, alone for a refusal
    by ``cli.main``) and a directory that holds only the input files."""
    def no_solve(*args, **kwargs):
        raise AssertionError("a refused command ran a solve")

    monkeypatch.setattr(cli, "solve", no_solve)
    monkeypatch.setattr(robustpr.metrics, "solve", no_solve)
    seen = []
    for k, (argv, files, code, line) in enumerate(rows):
        (tmp_path / str(k)).mkdir()
        monkeypatch.chdir(tmp_path / str(k))
        for name, content in files.items():
            Path(name).write_bytes(content if isinstance(content, bytes)
                                   else content.encode())
        capsys.readouterr()
        exit_code = run(*argv.split())
        *usage, last = capsys.readouterr().err.splitlines() or [""]
        seen.append((argv, exit_code, last, bool(usage), sorted(os.listdir())))
    wanted = [(argv, code, line, not line.startswith("error: "), sorted(files))
              for argv, files, code, line in rows]
    wrong = [f"{got} != {want}" for got, want in zip(seen, wanted) if got != want]
    assert not wrong, "\n".join(wrong)


def refusal_test(cases):
    """The test that refuses the rows of each case: parametrized by the case
    ids, or with no parameter when its one case has no id (None)."""
    if list(cases) == [None]:
        def test(tmp_path, monkeypatch, capsys, rows=cases[None]):
            refuse(rows, tmp_path, monkeypatch, capsys)
        return test

    @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
    def test(tmp_path, monkeypatch, capsys, rows):
        refuse(rows, tmp_path, monkeypatch, capsys)
    return test


REFUSAL_CASES = {}  # test name -> case id (None for no parameter) -> rows
for test_id, *row in REFUSALS:
    test_name, _, case = test_id.partition("[")
    REFUSAL_CASES.setdefault(test_name, {}).setdefault(case[:-1] or None, []).append(row)
globals().update({name: refusal_test(cases) for name, cases in REFUSAL_CASES.items()})


def test_every_domain_refusal_has_its_row():
    # the constant text of each DomainError message built in src/ (a bare
    # name or a module's attribute, raised there or not) is in an exit-3
    # row's line, and a raise or build whose message is not one literal or
    # f-string fails; bench error-iter draws its truth with s >= 1 nonzero
    # entries, so no command line reaches error_vs_iteration's refusal
    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    lines = "\n".join(line for *_, code, line in REFUSALS if code == 3)
    missing = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            bare = isinstance(node, ast.Raise) and named(node.exc) == "DomainError"
            assert not bare, where
            if isinstance(node, ast.Call) and named(node.func) == "DomainError":
                one = len(node.args) == 1 and not node.keywords
                message = node.args[0] if one else None
                assert isinstance(message, (ast.Constant, ast.JoinedStr)), where
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                missing += [part.value for part in parts
                            if isinstance(part, ast.Constant) and part.value not in lines]
    assert missing == ["error-vs-iteration needs a nonzero ground truth"]


# ---------------------------------------------------------------- the fuzz
#
# Mutated small instance files and arbitrary PGM bytes through the commands
# that read them: each run exits 0, 2, 3 or 4, raises nothing (a warning is an
# error in this suite), and a run that exits nonzero writes no file.  A base
# file that keeps its truth and noise record ends most edits of a, b, x_true
# or eps at the reader's consistency check with exit 4; the truth-free base
# takes them on to the spectral start and the solver.

# what a mutation puts in a key or a list entry
FUZZ_VALUES = [None, True, 0, -1, 0.5, 2**64, 1e300, 1e308, -1e308, 5e-324,
               float("nan"), float("inf"), float("-inf"), "", "x", [], {}, [0.0, 0.0]]
FUZZ_COMMANDS = {
    "solve": SOLVE,
    "certificate": CERTIFICATE,
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


def explicit_examples(test):
    """``test`` with explicit examples in each field, run whatever the draw:
    one per top-level key deleted from the base with truth, so that every
    missing-data path runs, and the truth-free base with one observation of
    -1e308 (entry 1, inside the holdout rule's training part), whose mean
    observation is negative."""
    for field in FIELDS:
        for key in INSTANCE_KEYS:
            test = example(field=field, truth=True, changes={key: DROP})(test)
        test = example(field=field, truth=False, changes={("b", 1): -1e308})(test)
    return test


@pytest.mark.parametrize("argv", FUZZ_COMMANDS.values(), ids=FUZZ_COMMANDS)
@settings(max_examples=100, deadline=None)
@explicit_examples
@given(field=st.sampled_from(FIELDS), truth=st.booleans(), changes=MUTATIONS)
def test_a_mutated_instance_exits_cleanly(argv, field, truth, changes):
    doc = mutate(json.loads(small_instance(field, truth)), changes)
    exits_cleanly({"inst.json": json.dumps(doc).encode()}, argv)


@settings(max_examples=100, deadline=None)
@given(PGM_BYTES)
def test_any_pgm_bytes_exit_image_cleanly(data):
    exits_cleanly({"input.pgm": data}, "image --input input.pgm --out-image out.pgm "
                  "--lambda 1e-4 --out-metrics out.json")
