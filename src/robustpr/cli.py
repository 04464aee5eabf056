"""Command-line interface.

Commands: gen | solve | bench {success-rate,error-iter,lambda-grid,consistency}
| image | diag {stability,certificate,remark5}.

Exit codes: 0 success, 2 usage, validation or out-of-memory error, 3 domain
error (unsupported field, missing data), 4 I/O or file-format error.

Each flag is declared once and read by its command: shared groups are
argparse parent parsers, and the solver flags are generated from the
``SolverConfig`` fields (``bench lambda-grid`` has no ``--lambda``: it
searches a grid).  The spectral start has no flag.  A flat ``key = value``
config file (``--config``, '#' comments) supplies ``--key value`` for any long
flag of the invoked command, ``true`` or ``false`` for a switch; explicit
flags win over the config file, which wins over built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import MISSING, fields

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
    run_experiment,
    settings,
    summarize,
)
from .metrics import relative_error  # unused here; benchmarks/tracing.py binds it
from .model import (
    FieldTag,
    NoiseSpec,
    decode_vector,
    deserialize_instance,
    encode_vector,
    measure,
    parse_document,
    read_text,
    serialize_instance,
    synthesize_instance,
    write_csv,
    write_json,
    write_text,
)
from .pgm import GrayImage, read_pgm, write_pgm
from .solver import SolverConfig, solve, write_trace_csv
from .solver import fixed_point_residual  # unused here; benchmarks/tracing.py binds it
from .spectral import spectral_init


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_float(text):
    value = float(text)
    if not 0.0 <= value < np.inf:  # also rejects NaN
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _comma_list(convert):
    def comma_list(text):
        items = [tok for tok in text.split(",") if tok.strip()]
        if not items:
            raise argparse.ArgumentTypeError("list flag must contain at least one value")
        values = [convert(tok) for tok in items]
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError("list flag repeats a value")
        return values

    return comma_list


def _switch(text):
    # True or False itself: an exclusive group tests values against defaults by `is`
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text == "true"


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


# One flag per SolverConfig field; the field's annotation gives the flag's
# type and its default the flag's default.
_FIELD_HELP = {
    "lam": "regularization weight (required)",
    "alpha": "Huber transition threshold",
    "gamma": "largest trial step",
    "beta": "backtracking ratio",
    "delta": "sufficient-decrease constant",
    "eps": "stopping tolerance",
    "max_iter": "iteration cap",
}
# the fields' annotations are strings (postponed evaluation)
_FIELD_TYPES = {"float": float, "int": int}


def _field_flags(*config_fields) -> argparse.ArgumentParser:
    """Parent parser with one flag per dataclass field (``lam`` is ``--lambda``);
    a field without a default gives a required flag."""
    parent = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    for f in config_fields:
        flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
        missing = f.default is MISSING
        parent.add_argument(flag, dest=f.name, type=_FIELD_TYPES[f.type],
                            required=missing,
                            default=None if missing else f.default,
                            help=_FIELD_HELP[f.name])
    return parent


def _solver_config(args, lam=None) -> SolverConfig:
    """SolverConfig from the solver flags; ``lam`` stands in for no ``--lambda``."""
    return SolverConfig(**{f.name: getattr(args, f.name, lam)
                           for f in fields(SolverConfig)})


def _experiment_spec(args, p: int, n_grid: tuple) -> ExperimentSpec:
    return ExperimentSpec(
        p=p,
        s=args.s,
        n_grid=n_grid,
        noise=args.noise,
        trials=args.trials,
        solver=_solver_config(args),
        master_seed=args.seed,
        field=args.field,
        success_threshold=args.threshold,
    )


def _load_instance(path):
    return deserialize_instance(read_text(path, "instance"))


def _write_plot(csv_path, header, rows, gp_path, x, y, xlabel, ylabel, logscale=""):
    """Write a table to ``csv_path`` and, to ``gp_path``, a gnuplot script
    plotting its column ``y`` against ``x``, any ``set logscale`` line first.
    The script names the CSV by basename: relocatable, the same bytes from
    any working directory."""
    write_csv(csv_path, header, rows)
    lines = [f"set logscale {logscale}"] if logscale else []
    lines += [
        "# gnuplot script generated by robustpr",
        'set datafile separator ","',
        "set key autotitle columnhead",
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        f'plot "{os.path.basename(csv_path)}" using {x}:{y} with linespoints',
    ]
    write_text(gp_path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- commands


def cmd_gen(args):
    ensemble = synthesize_instance(
        args.p, args.s, args.n, args.field, args.noise, args.seed
    )
    write_text(args.out, serialize_instance(ensemble) + "\n")
    print(
        f"gen p={args.p} n={args.n} s={args.s} field={args.field.value} "
        f"noise={args.noise} seed={args.seed} -> {args.out}"
    )
    return 0


def cmd_solve(args):
    e = _load_instance(args.instance)
    cfg = _solver_config(args)
    seed = e.seed if args.seed is None else args.seed
    result = solve(e, spectral_init(e, seed=seed), cfg)
    summary = summarize(result, e, cfg)
    doc = {
        "estimate": encode_vector(result.estimate),
        "field": e.field.value,
        **summary,
        "config": {**settings(cfg), "seed": seed},
    }
    message = (
        f"solve {args.instance}: {result.termination.value} after "
        f"{result.iterations} iterations, F={result.final_objective:.6g}"
    )
    if "relative_error" in summary:
        message += f", relative error {summary['relative_error']:.3e}"
    if args.out_result:
        write_json(args.out_result, doc)
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
    rows = [(n // args.p, n, report.success_rate[n], report.median_relative_error[n])
            for n in n_grid]
    _write_plot(prefix + "_rates.csv",
                ("n_over_p", "n", "success_rate", "median_relative_error"), rows,
                prefix + ".gp", 1, 3, "n/p", "success rate")
    for n in n_grid:
        print(f"n={n} (n/p={n // args.p}): success rate {report.success_rate[n]:.2f}")
    return 0


def _bench_error_iter(args):
    n = args.ratio * args.p
    e = synthesize_instance(args.p, args.s, n, args.field, args.noise, args.seed)
    curve, result = error_vs_iteration(e, _solver_config(args))
    prefix = args.out_prefix
    _write_plot(prefix + ".csv", ("k", "relative_error"), curve,
                prefix + ".gp", 1, 2, "iteration", "relative error", logscale="y")
    print(
        f"error-iter n={n}: {result.termination.value} after {result.iterations} "
        f"iterations, final relative error {curve[-1][1]:.3e}"
    )
    return 0


def _bench_lambda_grid(args):
    e = _load_instance(args.instance)
    # lambda_grid_search sets lam per grid point; the base lam is a placeholder.
    base = _solver_config(args, lam=1.0)
    chosen, table = lambda_grid_search(e, base, args.grid, args.rule, seed=args.seed)
    if args.out_prefix:
        _write_plot(args.out_prefix + ".csv", ("lambda", "score"), table,
                    args.out_prefix + ".gp", 1, 2, "lambda", "validation score",
                    logscale="x")
    print(f"lambda-grid rule={args.rule}: chose lambda={chosen:g}")
    return 0


def _bench_consistency(args):
    rows = []
    for p in sorted(args.p_grid):
        n = args.ratio * p
        report = run_experiment(_experiment_spec(args, p, (n,)))
        mean = float(np.mean([r.relative_error for r in report.records]))
        rows.append((p, n, report.median_relative_error[n], mean,
                     report.success_rate[n]))
    prefix = args.out_prefix
    _write_plot(prefix + ".csv",
                ("p", "n", "median_relative_error", "mean_relative_error",
                 "success_rate"), rows,
                prefix + ".gp", 2, 3, "n", "median relative error", logscale="y")
    for p, n, med, _, _ in rows:
        print(f"p={p} n={n}: median relative error {med:.3e}")
    return 0


def cmd_image(args):
    img = read_pgm(args.input)
    p = img.width * img.height
    if p > args.cap:
        raise ValueError(
            f"image has {p} pixels, above the cap {args.cap}; "
            "downscale it or raise --cap"
        )
    x_true = img.as_signal()
    x_true = np.where(np.abs(x_true) < args.threshold, 0.0, x_true)
    if not np.any(x_true):
        raise ValueError("image is entirely black after thresholding")
    n = args.ratio * p
    e = measure(x_true, n, args.noise, args.seed)
    cfg = _solver_config(args)
    x0 = spectral_init(e)
    result = solve(e, x0, cfg)
    estimate = align(result.estimate, x_true)
    summary = summarize(result, e, cfg)
    # from_signal clips the estimate to [0, 1]
    recon = GrayImage.from_signal(estimate, img.width, img.height, maxval=img.maxval)
    write_pgm(args.out_image, recon)
    metrics = {
        "input": os.path.basename(args.input),
        "width": img.width,
        "height": img.height,
        "pixel_scale": img.maxval,
        "p": p,
        "n": n,
        "noise": str(args.noise),
        "threshold": args.threshold,
        **settings(cfg),
        "seed": args.seed,
        **summary,
    }
    if args.out_metrics:
        write_json(args.out_metrics, metrics)
    print(
        f"image {args.input} ({img.width}x{img.height}): "
        f"relative error {summary['relative_error']:.3e} "
        f"after {result.iterations} iterations -> {args.out_image}"
    )
    return 0


def _diag_stability(args):
    e = _load_instance(args.instance)
    est = estimate_stability(e, args.samples, args.rho0, args.alpha, args.seed)
    doc = {
        **vars(est),
        "note": "sampled infima; heuristic upper bounds on the true constants",
    }
    if args.out:
        write_json(args.out, doc)
    print(f"stability: mu_hat={est.mu_hat:.4g} c2_hat={est.c2_hat:.4g}")
    return 0


def _diag_point(args):
    """The instance and the point to evaluate: --solution's estimate or the truth."""
    e = _load_instance(args.instance)
    if args.use_truth:
        if e.ground_truth is None:
            raise DomainError("instance has no ground truth; pass --solution")
        return e, e.ground_truth
    doc = parse_document(read_text(args.solution, "solution"), "solution", ("estimate",))
    return e, decode_vector(doc["estimate"], e.field, "estimate", e.p)


def _diag_certificate(args):
    e, x = _diag_point(args)
    report = linear_rate_certificate(x, e, args.lam, args.alpha, args.rho0)
    if args.out:
        write_text(args.out, report.to_json() + "\n")
    print(
        f"certificate: passed={report.passed} lhs={report.lhs_min_eig:.4g} "
        f"boundary={report.rhs_boundary_norms:.4g} reg={report.rhs_reg_term:.4g}"
    )
    return 0


def _diag_remark5(args):
    e, x = _diag_point(args)
    report = remark5_quantities(x, e, args.alpha, args.rho0)
    if args.out:
        write_text(args.out, report.to_json() + "\n")
    print(
        f"remark5: inlier_noise={report.inlier_noise_norm:.4g} "
        f"boundary_noise={report.boundary_noise_norm:.4g} "
        f"quad_min_eig={report.inlier_quadratic_min_eig:.4g}"
    )
    return 0


# ------------------------------------------------------------------ parser


@functools.cache
def _config_flag() -> argparse.ArgumentParser:
    # main pre-parses --config with abbreviations off, so no other flag
    # (--cap, say) is ever taken for it
    parent = argparse.ArgumentParser(prog="robustpr", add_help=False,
                                     allow_abbrev=False)
    parent.add_argument("--config", default=None,
                        help="flat key = value file supplying flag defaults")
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser tree, built once per process; parsing leaves it unchanged."""
    # shared(): a flag group that commands attach with parents=[...];
    # command(): a command parser whose help shows each flag's default
    # abbreviations are off everywhere, so a flag or config key that is a
    # prefix of another flag (--s of --solution, say) is an error, not that flag
    shared = functools.partial(argparse.ArgumentParser, add_help=False,
                               allow_abbrev=False)
    command = functools.partial(argparse.ArgumentParser, allow_abbrev=False,
                                formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    instance = shared()
    instance.add_argument("--instance", required=True, help="instance JSON path")
    seed = shared()
    seed.add_argument("--seed", type=int, default=0, help="master seed")
    init_seed = shared()
    init_seed.add_argument("--seed", type=int, default=None,
                           help="spectral-init seed (default: instance seed)")
    noise = shared()
    noise.add_argument("--noise", type=_noise, default=NoiseSpec("none"),
                       help="noise spec, e.g. none, type1:0.1, gaussian:0.01")
    signal = shared(parents=[noise, seed])
    signal.add_argument("--field", type=_field, default=FieldTag.REAL,
                        help="scalar field: real or complex")
    ratio = shared()
    ratio.add_argument("--ratio", type=_positive_int, default=6,
                       help="n/p ratio of the synthesized measurements")
    solver_field = {f.name: f for f in fields(SolverConfig)}
    lam_field = solver_field.pop("lam")
    lam = _field_flags(lam_field)
    # every solver flag but --lambda, for bench lambda-grid's grid search
    search = _field_flags(*solver_field.values())
    solver = shared(parents=[lam, search])

    parser = argparse.ArgumentParser(
        prog="robustpr",
        description="Robust sparse phase retrieval solver and benchmarks",
        parents=[_config_flag()],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=command)

    p_gen = sub.add_parser("gen", parents=[signal],
                           help="synthesize an instance file")
    p_gen.add_argument("--p", type=_positive_int, required=True,
                       help="signal dimension")
    p_gen.add_argument("--s", type=_positive_int, required=True,
                       help="sparsity of the ground truth")
    p_gen.add_argument("--n", type=_positive_int, required=True,
                       help="number of measurements")
    p_gen.add_argument("--out", required=True, help="output instance JSON path")
    p_gen.set_defaults(func=cmd_gen)

    p_solve = sub.add_parser("solve", parents=[instance, solver, init_seed],
                             help="solve an instance file")
    p_solve.add_argument("--out-result", default=None, help="result JSON path")
    p_solve.add_argument("--out-trace", default=None, help="trace CSV path")
    p_solve.set_defaults(func=cmd_solve)

    # the bench modes other than lambda-grid synthesize their instances
    synthetic = shared(parents=[signal, solver])
    synthetic.add_argument("--s", type=_positive_int, default=4,
                           help="sparsity")
    synthetic.add_argument("--out-prefix", required=True,
                           help="prefix for CSV/JSON/plot outputs")
    # consistency takes its dimensions from --p-grid instead
    dimension = shared()
    dimension.add_argument("--p", type=_positive_int, default=32,
                           help="signal dimension")
    trials = shared()
    trials.add_argument("--trials", type=_positive_int, default=50,
                        help="Monte Carlo trials per grid point")
    trials.add_argument("--threshold", type=float,
                        default=ExperimentSpec.success_threshold,
                        help="success threshold on the relative error")

    p_bench = sub.add_parser("bench", help="Monte Carlo benchmarks")
    bench = p_bench.add_subparsers(dest="bench_mode", required=True,
                                   parser_class=command)

    b_rate = bench.add_parser("success-rate", parents=[synthetic, dimension, trials],
                              help="success rate versus n/p")
    b_rate.add_argument("--grid", type=_comma_list(int), required=True,
                        help="comma list of n/p multipliers, e.g. 2,4,6,8")
    b_rate.set_defaults(func=_bench_success_rate)

    b_iter = bench.add_parser("error-iter", parents=[synthetic, dimension, ratio],
                              help="relative error along iterations")
    b_iter.set_defaults(func=_bench_error_iter)

    b_lam = bench.add_parser("lambda-grid", parents=[instance, search, init_seed],
                             help="grid search for lambda on an instance")
    b_lam.add_argument("--grid", type=_comma_list(float), required=True,
                       help="comma list of lambda values")
    b_lam.add_argument("--rule", choices=("oracle", "holdout"), default="holdout",
                       help="validation rule")
    b_lam.add_argument("--out-prefix", default=None,
                       help="prefix for the score table CSV and plot script")
    b_lam.set_defaults(func=_bench_lambda_grid)

    b_con = bench.add_parser("consistency", parents=[synthetic, ratio, trials],
                             help="error versus n at fixed n/p")
    b_con.add_argument("--p-grid", type=_comma_list(int), required=True,
                       help="comma list of signal dimensions")
    b_con.set_defaults(func=_bench_consistency)

    p_img = sub.add_parser("image", parents=[ratio, noise, seed, solver],
                           help="reconstruct a PGM image")
    p_img.add_argument("--input", required=True, help="input PGM path")
    p_img.add_argument("--out-image", required=True, help="output PGM path")
    p_img.add_argument("--out-metrics", default=None, help="metrics JSON path")
    p_img.add_argument("--threshold", type=_nonnegative_float, default=0.0,
                       help="zero out pixels below this value at ingestion")
    p_img.add_argument("--cap", type=_positive_int, default=4096,
                       help="largest pixel count p; the sampling matrix takes "
                            "8*ratio*p^2 bytes (805 MB at the defaults)")
    p_img.set_defaults(func=cmd_image)

    report = shared(parents=[instance, _field_flags(solver_field["alpha"])])
    report.add_argument("--out", default=None, help="report JSON path")
    report.add_argument("--rho0", type=float, default=RHO0,
                        help="inliers |v| <= rho0*alpha, boundary width (1-rho0)*alpha")
    solution = shared()
    point = solution.add_mutually_exclusive_group(required=True)
    point.add_argument("--solution", default=None, help="result JSON from 'solve'")
    point.add_argument("--use-truth", type=_switch, nargs="?", const=True,
                       default=False, help="evaluate at the stored ground truth")

    p_diag = sub.add_parser("diag", help="theory diagnostics")
    diag = p_diag.add_subparsers(dest="diag_mode", required=True,
                                 parser_class=command)

    d_stab = diag.add_parser("stability", parents=[report, seed],
                             help="sampled stability constants")
    d_stab.add_argument("--samples", type=_positive_int, default=200,
                        help="random direction pairs before refinement")
    d_stab.set_defaults(func=_diag_stability)

    d_cert = diag.add_parser("certificate", parents=[report, solution, lam],
                             help="linear-rate spectral-gap certificate")
    d_cert.set_defaults(func=_diag_certificate)

    d_rem = diag.add_parser("remark5", parents=[report, solution],
                            help="noise-weighted certificate terms")
    d_rem.set_defaults(func=_diag_remark5)

    return parser


def _inject_config(argv: list, path) -> list:
    """Splice the config file's ``key = value`` lines in as ``--key value``
    right after the command words.

    Explicit flags appear later in argv, so argparse's last-wins rule gives
    them precedence over the config file.
    """
    head = []
    rest = list(argv)
    while rest and not rest[0].startswith("-") and len(head) < 2:
        head.append(rest.pop(0))
    for lineno, raw in enumerate(read_text(path, "config").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ParseError(f"config line {lineno}: expected 'key = value'")
        head.extend(["--" + key.replace("_", "-"), value])
    return head + rest


def main(argv=None) -> int:
    known, argv = _config_flag().parse_known_args(argv)
    try:
        if known.config is not None:
            argv = _inject_config(argv, known.config)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, DomainError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, (ParseError, OSError)):  # a ParseError is a ValueError
            return 4
        return 3 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
