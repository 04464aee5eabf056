import json
import re
from dataclasses import fields

import numpy as np
import pytest

from robustpr import (
    GrayImage,
    SolverConfig,
    SpectralConfig,
    deserialize_instance,
    read_pgm,
    write_pgm,
)
from robustpr.cli import main
from robustpr.diagnostics import RHO0


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
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    code = run("solve", "--instance", str(inst))
    assert code == 2
    assert "lambda required (see bench lambda-grid)" in capsys.readouterr().err


def test_solve_rejects_nan_eps(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    code = run("solve", "--instance", str(inst), "--lambda", "1e-3", "--eps", "nan")
    assert code == 2
    assert "delta and eps must be positive" in capsys.readouterr().err


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


def test_solve_echoes_every_solver_flag(tmp_path):
    inst = tmp_path / "inst.json"
    res = tmp_path / "res.json"
    assert run(*GEN, "--out", str(inst)) == 0
    assert run("solve", "--instance", str(inst), "--lambda", "2e-4",
               "--alpha", "0.9", "--gamma", "0.8", "--beta", "0.6",
               "--delta", "2e-4", "--eps", "1e-5", "--max-iter", "400",
               "--max-backtracks", "30", "--power-iterations", "150",
               "--power-tol", "1e-7", "--truncation", "5", "--seed", "11",
               "--out-result", str(res)) == 0
    config = json.loads(res.read_text())["config"]
    assert list(config) == ["lambda", "alpha", "gamma", "beta", "delta", "eps",
                            "max_iter", "max_backtracks", "seed", "truncation"]
    assert config["lambda"] == 2e-4
    assert config["alpha"] == 0.9
    assert config["gamma"] == 0.8
    assert config["beta"] == 0.6
    assert config["delta"] == 2e-4
    assert config["eps"] == 1e-5
    assert config["max_iter"] == 400
    assert config["max_backtracks"] == 30
    assert config["seed"] == 11
    assert config["truncation"] == 5


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


def test_bench_success_rate_outputs(tmp_path, capsys):
    prefix = tmp_path / "bench"
    code = run("bench", "success-rate", "--p", "16", "--s", "2",
               "--grid", "4,10", "--trials", "3", "--noise", "none",
               "--lambda", "1e-4", "--seed", "1", "--out-prefix", str(prefix))
    assert code == 0
    rows = (tmp_path / "bench.csv").read_text().splitlines()
    assert rows[0] == "n,trial,seed,relative_error,iterations,termination"
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


def test_bench_empty_grid_usage_error(tmp_path):
    code = run("bench", "success-rate", "--p", "16", "--s", "2", "--grid", "",
               "--lambda", "1e-4", "--out-prefix", str(tmp_path / "x"))
    assert code == 2


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


def sparse_image(tmp_path, width=8, height=8):
    pixels = np.zeros((height, width))
    pixels[2, 3] = 1.0
    pixels[5, 1] = 0.75
    pixels[6, 6] = 0.5
    img = GrayImage(width=width, height=height, pixels=pixels)
    path = tmp_path / "input.pgm"
    write_pgm(path, img)
    return path


def test_image_passthrough_pixel_identical(tmp_path):
    src = sparse_image(tmp_path)
    out = tmp_path / "copy.pgm"
    assert run("image", "--input", str(src), "--out-image", str(out),
               "--passthrough") == 0
    a, b = read_pgm(src), read_pgm(out)
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_image_reconstruction_small(tmp_path):
    src = sparse_image(tmp_path)
    out = tmp_path / "recon.pgm"
    metrics = tmp_path / "metrics.json"
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


def test_image_72x60_accepted(tmp_path):
    pixels = np.zeros((60, 72))
    pixels[10:20, 30:40] = 1.0
    path = tmp_path / "hi.pgm"
    write_pgm(path, GrayImage(width=72, height=60, pixels=pixels))
    out = tmp_path / "hi_out.pgm"
    assert run("image", "--input", str(path), "--out-image", str(out),
               "--passthrough") == 0
    assert read_pgm(out).width == 72


def test_image_rejects_non_pgm(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"JFIF nonsense")
    assert run("image", "--input", str(bad), "--out-image",
               str(tmp_path / "o.pgm"), "--lambda", "1e-4") == 4


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


def test_diag_remark5_missing_record(tmp_path):
    inst = tmp_path / "inst.json"
    assert run(*GEN, "--out", str(inst)) == 0
    doc = json.loads(inst.read_text())
    del doc["eps"]
    stripped = tmp_path / "bare.json"
    stripped.write_text(json.dumps(doc))
    assert run("diag", "remark5", "--instance", str(stripped),
               "--use-truth") == 3


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


DIAG_INSTANCE = ["gen", "--p", "16", "--s", "2", "--n", "96",
                 "--noise", "type2:0.1", "--seed", "3"]


@pytest.mark.parametrize("argv, message", [
    (["certificate", "--use-truth", "--lambda", "-1"], "lam and alpha"),
    (["certificate", "--use-truth", "--lambda", "nan"], "lam and alpha"),
    (["stability", "--alpha", "nan"], "alpha must be positive"),
    (["stability", "--alpha", "-1"], "alpha must be positive"),
    (["remark5", "--use-truth", "--alpha", "nan"], "alpha must be positive"),
    (["remark5", "--use-truth", "--alpha", "-2"], "alpha must be positive"),
    (["remark5", "--use-truth", "--rho0", "1.5"], "rho0 must lie in (0, 1)"),
    (["remark5", "--use-truth", "--rho0", "-1"], "rho0 must lie in (0, 1)"),
])
def test_diag_rejects_bad_parameters(tmp_path, capsys, argv, message):
    inst = tmp_path / "inst.json"
    assert run(*DIAG_INSTANCE, "--out", str(inst)) == 0
    capsys.readouterr()
    assert run("diag", argv[0], "--instance", str(inst), *argv[1:]) == 2
    assert message in capsys.readouterr().err


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
    shown = help_defaults(capsys, "solve")
    assert shown["--alpha"] == "1.345"
    for f in fields(SolverConfig) + fields(SpectralConfig):
        if f.name == "lam":
            continue
        assert shown["--" + f.name.replace("_", "-")] == str(f.default), f.name
    for mode in ("stability", "remark5"):
        assert help_defaults(capsys, "diag", mode)["--rho0"] == str(RHO0), mode
    for mode in ("stability", "certificate", "remark5"):
        shown = help_defaults(capsys, "diag", mode)
        assert shown["--alpha"] == str(SolverConfig.alpha), mode
    assert help_defaults(capsys, "diag", "stability")["--samples"] == "200"


def test_unknown_command_usage_error():
    assert run("frobnicate") == 2
