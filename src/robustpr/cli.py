"""Command-line interface.

Commands: gen | solve | bench {success-rate,error-iter,lambda-grid,consistency}
| image | diag {stability,certificate,remark5}.

Exit codes: 0 success, 2 usage or validation error, 3 domain error
(unsupported field, missing data), 4 I/O or file-format error.

A flat ``key = value`` config file (``--config``, '#' comments) supplies
defaults for any long flag of the invoked command; explicit flags win over
the config file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .diagnostics import (
    RHO0,
    estimate_stability,
    linear_rate_certificate,
    remark5_quantities,
)
from .errors import DomainError, ParseError
from .metrics import (
    ExperimentSpec,
    align,
    error_vs_iteration,
    lambda_grid_search,
    relative_error,
    run_experiment,
)
from .model import (
    FieldTag,
    NoiseSpec,
    decode_vector,
    deserialize_instance,
    encode_vector,
    measure,
    serialize_instance,
    synthesize_instance,
)
from .pgm import GrayImage, read_pgm, write_pgm
from .solver import SolverConfig, fixed_point_residual, solve, write_trace_csv
from .spectral import SpectralConfig, spectral_init


def _positive_int(flag):
    def convert(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"invalid value for {flag}: must be >= 1")
        return value

    return convert


def _int_list(text):
    items = [tok for tok in text.split(",") if tok.strip()]
    if not items:
        raise argparse.ArgumentTypeError("list flag must contain at least one value")
    return [int(tok) for tok in items]


def _float_list(text):
    items = [tok for tok in text.split(",") if tok.strip()]
    if not items:
        raise argparse.ArgumentTypeError("list flag must contain at least one value")
    return [float(tok) for tok in items]


def _field(text):
    try:
        return FieldTag(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"field must be 'real' or 'complex', got {text!r}"
        ) from None


def _noise(text):
    try:
        return NoiseSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# One flag per SolverConfig field; the field's default is the flag's default.
_SOLVER_HELP = {
    "alpha": "Huber transition threshold",
    "gamma": "largest trial step",
    "beta": "backtracking ratio",
    "delta": "sufficient-decrease constant",
    "eps": "stopping tolerance",
    "max_iter": "iteration cap",
    "max_backtracks": "backtrack cap",
}


def _add_solver_flags(p, lambda_required=False):
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="regularization weight (required)" if lambda_required
                   else "regularization weight")
    for f in fields(SolverConfig):
        if f.name != "lam":
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           default=f.default, help=_SOLVER_HELP[f.name])


def _add_spectral_flags(p):
    p.add_argument("--power-iterations", type=int,
                   default=SpectralConfig.power_iterations,
                   help="power-method iteration cap")
    p.add_argument("--power-tol", type=float, default=SpectralConfig.power_tol,
                   help="power-method convergence tolerance")
    p.add_argument("--truncation", type=int, default=SpectralConfig.truncation,
                   help="keep-count for the initializer (default: 2s for "
                        "complex instances when s is known, else none)")


def _solver_config(args, lam=None) -> SolverConfig:
    """SolverConfig from the solver flags; ``lam`` overrides ``--lambda``."""
    values = {f.name: getattr(args, f.name) for f in fields(SolverConfig)}
    if lam is not None:
        values["lam"] = lam
    if values["lam"] is None:
        raise ValueError("lambda required (see bench lambda-grid)")
    return SolverConfig(**values)


def _spectral_config(args, field: FieldTag, s: int | None) -> SpectralConfig:
    truncation = args.truncation
    if truncation is None and field is FieldTag.COMPLEX and s is not None:
        truncation = 2 * s
    return SpectralConfig(
        power_iterations=args.power_iterations,
        power_tol=args.power_tol,
        truncation=truncation,
    )


def _known_sparsity(e) -> int | None:
    if e.ground_truth is None:
        return None
    return int(np.count_nonzero(e.ground_truth))


def _experiment_spec(args, p: int, n_grid: tuple) -> ExperimentSpec:
    return ExperimentSpec(
        p=p,
        s=args.s,
        n_grid=n_grid,
        noise=args.noise,
        trials=args.trials,
        solver=_solver_config(args),
        spectral=_spectral_config(args, args.field, args.s),
        master_seed=args.seed,
        field=args.field,
        success_threshold=args.threshold,
    )


def _load_instance(path):
    with open(path) as fh:
        return deserialize_instance(fh.read())


def _load_solution(path, field: FieldTag):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in solution file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("solution document must be a JSON object")
    if "estimate" not in doc:
        raise ParseError("missing field: estimate")
    return decode_vector(doc["estimate"], field, "estimate")


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _plot_script(csv_name, xlabel, ylabel, columns, logy=False):
    # reference the CSV by basename so the script is relocatable and the
    # emitted bytes do not depend on the working directory
    csv_name = os.path.basename(str(csv_name))
    lines = [
        "# gnuplot script generated by robustpr",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
    ]
    if logy:
        lines.append("set logscale y")
    plots = ", ".join(
        f'"{csv_name}" using {x}:{y} with linespoints' for x, y in columns
    )
    lines.append(f"plot {plots}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- commands


def cmd_gen(args):
    ensemble = synthesize_instance(
        args.p, args.s, args.n, args.field, args.noise, args.seed
    )
    _write_text(args.out, serialize_instance(ensemble) + "\n")
    print(
        f"gen p={args.p} n={args.n} s={args.s} field={args.field.value} "
        f"noise={args.noise} seed={args.seed} -> {args.out}"
    )
    return 0


def cmd_solve(args):
    e = _load_instance(args.instance)
    cfg = _solver_config(args)
    spectral_cfg = _spectral_config(args, e.field, _known_sparsity(e))
    seed = e.seed if args.seed is None else args.seed
    x0 = spectral_init(e, spectral_cfg, seed)
    result = solve(e, x0, cfg)
    last = result.trace[-1] if result.trace else None
    fp_res = (
        last.fixed_point_residual
        if last is not None
        else fixed_point_residual(result.estimate, e, cfg.lam, cfg.alpha, cfg.gamma)
    )
    echo = asdict(cfg)
    doc = {
        "estimate": encode_vector(result.estimate),
        "field": e.field.value,
        "termination": result.termination.value,
        "iterations": result.iterations,
        "initial_objective": result.initial_objective,
        "final_objective": result.final_objective,
        "fixed_point_residual": fp_res,
        "config": {
            "lambda": echo.pop("lam"),
            **echo,
            "seed": seed,
            "truncation": spectral_cfg.truncation,
        },
    }
    message = (
        f"solve {args.instance}: {result.termination.value} after "
        f"{result.iterations} iterations, F={result.final_objective:.6g}"
    )
    if e.ground_truth is not None:
        rel = relative_error(result.estimate, e.ground_truth)
        doc["relative_error"] = rel
        message += f", relative error {rel:.3e}"
    if args.out_result:
        _write_text(args.out_result, json.dumps(doc, indent=2) + "\n")
    if args.out_trace:
        write_trace_csv(args.out_trace, result)
    print(message)
    return 0


def _bench_success_rate(args):
    n_grid = tuple(sorted(m * args.p for m in args.grid))
    report = run_experiment(_experiment_spec(args, args.p, n_grid))
    prefix = args.out_prefix
    report.write_csv(prefix + ".csv")
    report.write_json(prefix + ".json")
    rows = ["n_over_p,n,success_rate,median_relative_error"]
    for n in n_grid:
        rows.append(
            f"{n // args.p},{n},{report.success_rate[n]!r},"
            f"{report.median_relative_error[n]!r}"
        )
    _write_text(prefix + "_rates.csv", "\n".join(rows) + "\n")
    _write_text(
        prefix + ".gp",
        _plot_script(prefix + "_rates.csv", "n/p", "success rate", [(1, 3)]),
    )
    for n in n_grid:
        print(f"n={n} (n/p={n // args.p}): success rate {report.success_rate[n]:.2f}")
    return 0


def _bench_error_iter(args):
    n = args.ratio * args.p
    e = synthesize_instance(args.p, args.s, n, args.field, args.noise, args.seed)
    curve, result = error_vs_iteration(
        e, _solver_config(args), _spectral_config(args, args.field, args.s)
    )
    prefix = args.out_prefix
    rows = ["k,relative_error"] + [f"{k},{err!r}" for k, err in curve]
    _write_text(prefix + ".csv", "\n".join(rows) + "\n")
    _write_text(
        prefix + ".gp",
        _plot_script(prefix + ".csv", "iteration", "relative error", [(1, 2)],
                     logy=True),
    )
    print(
        f"error-iter n={n}: {result.termination.value} after {result.iterations} "
        f"iterations, final relative error {curve[-1][1]:.3e}"
    )
    return 0


def _bench_lambda_grid(args):
    e = _load_instance(args.instance)
    # lambda_grid_search sets lam per grid point; the base lam is a placeholder.
    base = _solver_config(args, lam=1.0)
    spectral_cfg = _spectral_config(args, e.field, _known_sparsity(e))
    chosen, table = lambda_grid_search(
        e, base, args.grid, args.rule, spectral=spectral_cfg, seed=args.seed
    )
    rows = ["lambda,score"] + [f"{lam!r},{score!r}" for lam, score in table]
    if args.out_prefix:
        _write_text(args.out_prefix + ".csv", "\n".join(rows) + "\n")
        script = "set logscale x\n" + _plot_script(
            args.out_prefix + ".csv", "lambda", "validation score", [(1, 2)]
        )
        _write_text(args.out_prefix + ".gp", script)
    print(f"lambda-grid rule={args.rule}: chose lambda={chosen:g}")
    return 0


def _bench_consistency(args):
    rows = ["p,n,median_relative_error,mean_relative_error,success_rate"]
    summaries = []
    for p in sorted(args.p_grid):
        n = args.ratio * p
        report = run_experiment(_experiment_spec(args, p, (n,)))
        med = report.median_relative_error[n]
        mean = float(np.mean([r.relative_error for r in report.records]))
        rows.append(f"{p},{n},{med!r},{mean!r},{report.success_rate[n]!r}")
        summaries.append((p, n, med))
    prefix = args.out_prefix
    _write_text(prefix + ".csv", "\n".join(rows) + "\n")
    _write_text(
        prefix + ".gp",
        _plot_script(prefix + ".csv", "n", "median relative error", [(2, 3)],
                     logy=True),
    )
    for p, n, med in summaries:
        print(f"p={p} n={n}: median relative error {med:.3e}")
    return 0


def cmd_image(args):
    img = read_pgm(args.input)
    if args.passthrough:
        write_pgm(args.out_image, img)
        print(f"image passthrough {args.input} -> {args.out_image}")
        return 0
    p = img.width * img.height
    if p > args.cap:
        raise ValueError(
            f"image has {p} pixels, above the cap {args.cap}; "
            "downscale it or raise --cap"
        )
    x_true = img.as_signal()
    if args.threshold > 0:
        x_true = np.where(np.abs(x_true) < args.threshold, 0.0, x_true)
    if not np.any(x_true):
        raise ValueError("image is entirely black after thresholding")
    n = args.ratio * p
    e = measure(x_true, n, args.noise, args.seed)
    cfg = _solver_config(args)
    spectral_cfg = _spectral_config(args, e.field, _known_sparsity(e))
    x0 = spectral_init(e, spectral_cfg, args.seed)
    result = solve(e, x0, cfg)
    estimate = align(result.estimate, x_true)
    rel = relative_error(result.estimate, x_true)
    recon = GrayImage.from_signal(
        np.clip(estimate, 0.0, 1.0), img.width, img.height, maxval=img.maxval
    )
    write_pgm(args.out_image, recon)
    metrics = {
        "input": os.path.basename(args.input),
        "width": img.width,
        "height": img.height,
        "pixel_scale": img.maxval,
        "p": p,
        "n": n,
        "noise": str(args.noise),
        "lambda": cfg.lam,
        "alpha": cfg.alpha,
        "seed": args.seed,
        "termination": result.termination.value,
        "iterations": result.iterations,
        "final_objective": result.final_objective,
        "relative_error": rel,
    }
    if args.out_metrics:
        _write_text(args.out_metrics, json.dumps(metrics, indent=2) + "\n")
    print(
        f"image {args.input} ({img.width}x{img.height}): relative error {rel:.3e} "
        f"after {result.iterations} iterations -> {args.out_image}"
    )
    return 0


def _diag_stability(args):
    e = _load_instance(args.instance)
    est = estimate_stability(e, args.samples, args.rho0, args.alpha, args.seed)
    doc = {
        "mu_hat": est.mu_hat,
        "c2_hat": est.c2_hat,
        "samples": est.samples,
        "inlier_threshold": est.inlier_threshold,
        "used_noise_record": est.used_noise_record,
        "note": "sampled infima; heuristic upper bounds on the true constants",
    }
    if args.out:
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    print(f"stability: mu_hat={est.mu_hat:.4g} c2_hat={est.c2_hat:.4g}")
    return 0


def _diag_solution(args, e):
    if args.use_truth:
        if e.ground_truth is None:
            raise DomainError("instance has no ground truth; pass --solution")
        return e.ground_truth
    if not args.solution:
        raise ValueError("either --solution or --use-truth is required")
    return _load_solution(args.solution, e.field)


def _diag_certificate(args):
    e = _load_instance(args.instance)
    x = _diag_solution(args, e)
    if args.lam is None:
        raise ValueError("lambda required (see bench lambda-grid)")
    report = linear_rate_certificate(x, e, args.lam, args.alpha, args.eps1)
    if args.out:
        _write_text(args.out, report.to_json() + "\n")
    print(
        f"certificate: passed={report.passed} lhs={report.lhs_min_eig:.4g} "
        f"boundary={report.rhs_boundary_norms:.4g} reg={report.rhs_reg_term:.4g}"
    )
    return 0


def _diag_remark5(args):
    e = _load_instance(args.instance)
    x = _diag_solution(args, e)
    report = remark5_quantities(x, e, args.alpha, args.rho0)
    if args.out:
        _write_text(args.out, report.to_json() + "\n")
    print(
        f"remark5: inlier_noise={report.inlier_noise_norm:.4g} "
        f"boundary_noise={report.boundary_noise_norm:.4g} "
        f"quad_min_eig={report.inlier_quadratic_min_eig:.4g}"
    )
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="robustpr",
        description="Robust sparse phase retrieval solver and benchmarks",
    )
    parser.add_argument("--config", default=None,
                        help="flat key = value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="synthesize an instance file",
                           formatter_class=fmt)
    p_gen.add_argument("--p", type=_positive_int("--p"), required=True,
                       help="signal dimension")
    p_gen.add_argument("--s", type=_positive_int("--s"), required=True,
                       help="sparsity of the ground truth")
    p_gen.add_argument("--n", type=_positive_int("--n"), required=True,
                       help="number of measurements")
    p_gen.add_argument("--field", type=_field, default=FieldTag.REAL,
                       help="scalar field: real or complex")
    p_gen.add_argument("--noise", type=_noise, default=NoiseSpec("none"),
                       help="noise spec, e.g. none, type1:0.1, gaussian:0.01")
    p_gen.add_argument("--seed", type=int, default=0, help="master seed")
    p_gen.add_argument("--out", required=True, help="output instance JSON path")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", help="solve an instance file",
                             formatter_class=fmt)
    p_solve.add_argument("--instance", required=True, help="instance JSON path")
    _add_solver_flags(p_solve, lambda_required=True)
    _add_spectral_flags(p_solve)
    p_solve.add_argument("--seed", type=int, default=None,
                         help="spectral-init seed (default: instance seed)")
    p_solve.add_argument("--out-result", default=None, help="result JSON path")
    p_solve.add_argument("--out-trace", default=None, help="trace CSV path")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="Monte Carlo benchmarks")
    bench_sub = p_bench.add_subparsers(dest="bench_mode", required=True)

    def bench_common(bp, needs_instance=False):
        if not needs_instance:
            bp.add_argument("--p", type=_positive_int("--p"), default=32,
                            help="signal dimension")
            bp.add_argument("--s", type=_positive_int("--s"), default=4,
                            help="sparsity")
            bp.add_argument("--field", type=_field, default=FieldTag.REAL,
                            help="scalar field")
            bp.add_argument("--noise", type=_noise, default=NoiseSpec("none"),
                            help="noise spec")
        _add_solver_flags(bp)
        _add_spectral_flags(bp)
        bp.add_argument("--seed", type=int, default=0, help="master seed")

    b_rate = bench_sub.add_parser("success-rate", formatter_class=fmt,
                                  help="success rate versus n/p")
    bench_common(b_rate)
    b_rate.add_argument("--grid", type=_int_list, required=True,
                        help="comma list of n/p multipliers, e.g. 2,4,6,8")
    b_rate.add_argument("--trials", type=_positive_int("--trials"), default=50,
                        help="Monte Carlo trials per grid point")
    b_rate.add_argument("--threshold", type=float,
                        default=ExperimentSpec.success_threshold,
                        help="success threshold on the relative error")
    b_rate.add_argument("--out-prefix", required=True,
                        help="prefix for CSV/JSON/plot outputs")
    b_rate.set_defaults(func=_bench_success_rate)

    b_iter = bench_sub.add_parser("error-iter", formatter_class=fmt,
                                  help="relative error along iterations")
    bench_common(b_iter)
    b_iter.add_argument("--ratio", type=_positive_int("--ratio"), default=6,
                        help="n/p ratio")
    b_iter.add_argument("--out-prefix", required=True,
                        help="prefix for CSV/plot outputs")
    b_iter.set_defaults(func=_bench_error_iter)

    b_lam = bench_sub.add_parser("lambda-grid", formatter_class=fmt,
                                 help="grid search for lambda on an instance")
    b_lam.add_argument("--instance", required=True, help="instance JSON path")
    b_lam.add_argument("--grid", type=_float_list, required=True,
                       help="comma list of lambda values")
    b_lam.add_argument("--rule", choices=("oracle", "holdout"), default="holdout",
                       help="validation rule")
    bench_common(b_lam, needs_instance=True)
    b_lam.add_argument("--out-prefix", default=None,
                       help="prefix for the score table CSV and plot script")
    b_lam.set_defaults(func=_bench_lambda_grid)

    b_con = bench_sub.add_parser("consistency", formatter_class=fmt,
                                 help="error versus n at fixed n/p")
    bench_common(b_con)
    b_con.add_argument("--p-grid", type=_int_list, required=True,
                       help="comma list of signal dimensions")
    b_con.add_argument("--ratio", type=_positive_int("--ratio"), default=6,
                       help="n/p ratio")
    b_con.add_argument("--trials", type=_positive_int("--trials"), default=50,
                       help="trials per dimension")
    b_con.add_argument("--threshold", type=float,
                       default=ExperimentSpec.success_threshold,
                       help="success threshold on the relative error")
    b_con.add_argument("--out-prefix", required=True,
                       help="prefix for CSV/plot outputs")
    b_con.set_defaults(func=_bench_consistency)

    p_img = sub.add_parser("image", help="reconstruct a PGM image",
                           formatter_class=fmt)
    p_img.add_argument("--input", required=True, help="input PGM path")
    p_img.add_argument("--out-image", required=True, help="output PGM path")
    p_img.add_argument("--out-metrics", default=None, help="metrics JSON path")
    p_img.add_argument("--passthrough", action="store_true",
                       help="read and rewrite the image without solving")
    p_img.add_argument("--ratio", type=_positive_int("--ratio"), default=6,
                       help="n/p ratio for the synthesized measurements")
    p_img.add_argument("--noise", type=_noise, default=NoiseSpec("none"),
                       help="noise spec")
    p_img.add_argument("--threshold", type=float, default=0.0,
                       help="zero out pixels below this value at ingestion")
    p_img.add_argument("--cap", type=int, default=16384,
                       help="largest accepted pixel count")
    p_img.add_argument("--seed", type=int, default=0, help="master seed")
    _add_solver_flags(p_img, lambda_required=True)
    _add_spectral_flags(p_img)
    p_img.set_defaults(func=cmd_image)

    p_diag = sub.add_parser("diag", help="theory diagnostics")
    diag_sub = p_diag.add_subparsers(dest="diag_mode", required=True)

    d_stab = diag_sub.add_parser("stability", formatter_class=fmt,
                                 help="sampled stability constants")
    d_stab.add_argument("--instance", required=True, help="instance JSON path")
    d_stab.add_argument("--samples", type=_positive_int("--samples"), default=200,
                        help="random direction pairs before refinement")
    d_stab.add_argument("--rho0", type=float, default=RHO0,
                        help="inliers have |eps_i| <= rho0 * alpha")
    d_stab.add_argument("--alpha", type=float, default=SolverConfig.alpha,
                        help="Huber transition threshold")
    d_stab.add_argument("--seed", type=int, default=0,
                        help="seed of the sampled directions")
    d_stab.add_argument("--out", default=None, help="report JSON path")
    d_stab.set_defaults(func=_diag_stability)

    d_cert = diag_sub.add_parser("certificate", formatter_class=fmt,
                                 help="linear-rate spectral-gap certificate")
    d_cert.add_argument("--instance", required=True, help="instance JSON path")
    d_cert.add_argument("--solution", default=None,
                        help="result JSON from 'solve'")
    d_cert.add_argument("--use-truth", action="store_true",
                        help="evaluate at the stored ground truth")
    d_cert.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="regularization weight (required)")
    d_cert.add_argument("--alpha", type=float, default=SolverConfig.alpha,
                        help="Huber transition threshold")
    d_cert.add_argument("--eps1", type=float, default=None,
                        help="boundary width (default alpha/2)")
    d_cert.add_argument("--out", default=None, help="report JSON path")
    d_cert.set_defaults(func=_diag_certificate)

    d_rem = diag_sub.add_parser("remark5", formatter_class=fmt,
                                help="noise-weighted certificate terms")
    d_rem.add_argument("--instance", required=True, help="instance JSON path")
    d_rem.add_argument("--solution", default=None,
                       help="result JSON from 'solve'")
    d_rem.add_argument("--use-truth", action="store_true",
                       help="evaluate at the stored ground truth")
    d_rem.add_argument("--alpha", type=float, default=SolverConfig.alpha,
                       help="Huber transition threshold")
    d_rem.add_argument("--rho0", type=float, default=RHO0,
                       help="inliers have |eps_i| <= rho0 * alpha")
    d_rem.add_argument("--out", default=None, help="report JSON path")
    d_rem.set_defaults(func=_diag_remark5)

    return parser


def _read_config(path) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError(f"config line {lineno}: expected 'key = value'")
            values[key.strip()] = value.strip()
    return values


def _inject_config(argv: list, config: dict) -> list:
    """Splice config entries as flags right after the command words.

    Explicit flags appear later in argv, so argparse's last-wins rule gives
    them precedence over the config file.
    """
    head = []
    rest = list(argv)
    words = 0
    while rest and not rest[0].startswith("-") and words < 2:
        head.append(rest.pop(0))
        words += 1
    injected = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        injected.extend([flag, value])
    return head + injected + rest


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    config_path = None
    cleaned = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                print("error: --config needs a path", file=sys.stderr)
                return 2
            config_path = argv[i + 1]
            i += 2
        elif tok.startswith("--config="):
            config_path = tok.split("=", 1)[1]
            i += 1
        else:
            cleaned.append(tok)
            i += 1
    parser = build_parser()
    try:
        if config_path is not None:
            cleaned = _inject_config(cleaned, _read_config(config_path))
        args = parser.parse_args(cleaned)
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
