"""The work ledger: what a fixed list of runs did, pinned in a committed file.

Each entry is one run through the public API: ``spectral_init`` then
``solve`` on the quick, t3 and cplx shapes and on t3 at alpha = 0.00425, at
seeds 1-3 with lambda = 1e-3, an oracle and a holdout ``lambda_grid_search``
on t3 seed 1, and one
``run_experiment`` shaped like the benchmark's success-rate-small (p = 32,
s = 4, n from 2p to 8p, 4 trials each, noiseless, lambda = 1e-3).  A solve
records the integer and string fields of ``metrics.summarize``, the start's
support size and a 16-hex sha256 of its estimate and trace bytes; a grid
search records the chosen lambda and a hash of its table; the experiment
records its trials' termination counts, their iterations, trials and
prox-call totals, and a hash of their summaries.  The diagnostics record a
hash of their report's JSON, its floats at 12 significant digits: the rate
certificate at the quick and cplx seed-1 solve estimates, the Remark-5
quantities at the quick one, and the stability estimate of t3 seed 1 from 50
samples.  The instance entries record a hash of ``serialize_instance``'s text,
the file ``gen`` writes less its final newline, for the quick and cplx shapes
at seed 1, so a change to the instance format or to the random streams shows
up by name.  A change that moves only bits shows up
in the solve, grid and experiment hashes even when no count moves.

``tests/test_work_ledger.py`` recomputes the ledger and names each entry
that moved.  A change that moves a ledger value regenerates the file, from
the repository root, with

    PYTHONPATH=src python tests/work_ledger.py --write

and lists each value's before -> after in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from robustpr import (
    ExperimentSpec,
    FieldTag,
    NoiseSpec,
    SolverConfig,
    estimate_stability,
    lambda_grid_search,
    linear_rate_certificate,
    remark5_quantities,
    run_experiment,
    serialize_instance,
    solve,
    spectral_init,
    synthesize_instance,
)
from robustpr.diagnostics import RHO0
from robustpr.metrics import summarize

LEDGER = Path(__file__).with_name("work_ledger.json")
LAM = 1e-3
# name: (p, s, n, field, noise, alpha)
SHAPES = {
    "quick": (128, 12, 768, FieldTag.REAL, "type2:0.1", 1.345),
    "t3": (64, 6, 512, FieldTag.REAL, "type3:0.1", 0.1345),
    "cplx": (128, 8, 768, FieldTag.COMPLEX, "type3:0.05", 1.345),
    # t3 at a small alpha, where the natural step is far above 1: under a
    # step cap of 1 these runs stopped Converged short of the minimizer
    "t3-small-alpha": (64, 6, 512, FieldTag.REAL, "type3:0.1", 0.00425),
}
SEEDS = (1, 2, 3)
GRID = (1e-6, 1e-5, 1e-4, 1e-3)
EXPERIMENT = ExperimentSpec(p=32, s=4, n_grid=(64, 128, 192, 256),
                            noise=NoiseSpec("none"), trials=4,
                            solver=SolverConfig(lam=LAM), master_seed=1)


def _hash(*buffers: bytes) -> str:
    return hashlib.sha256(b"".join(buffers)).hexdigest()[:16]


def _instance(shape: str, seed: int):
    p, s, n, field, noise, alpha = SHAPES[shape]
    e = synthesize_instance(p, s, n, field, NoiseSpec.parse(noise), seed)
    return e, alpha


def _solve(shape: str, seed: int):
    e, alpha = _instance(shape, seed)
    cfg = SolverConfig(lam=LAM, alpha=alpha)
    x0 = spectral_init(e)
    return e, cfg, x0, solve(e, x0, cfg)


def _solve_entry(e, cfg, x0, result) -> dict:
    entry = {k: v for k, v in summarize(result, e, cfg).items()
             if isinstance(v, (int, str))}
    entry["start_support_size"] = int(np.count_nonzero(x0))
    entry["hash"] = _hash(result.estimate.tobytes(), result.trace.tobytes())
    return entry


def _grid_entry(shape: str, seed: int, rule: str) -> dict:
    e, alpha = _instance(shape, seed)
    best, table = lambda_grid_search(
        e, SolverConfig(lam=LAM, alpha=alpha), GRID, rule)
    return {"lambda": best,
            "table_hash": _hash(np.asarray(table, dtype=np.float64).tobytes())}


def _report_entry(report) -> dict:
    """A hash of the report's JSON with each float read at 12 significant
    digits: a Gram product's summation order follows the BLAS thread count,
    which moves the last digits of the certificate and Remark-5 numbers."""
    doc = json.loads(report.to_json(), parse_float=lambda t: f"{float(t):.12g}")
    return {"hash": _hash(json.dumps(doc).encode())}


def _diagnostic_entries(solved: dict) -> dict:
    """The diagnostics at the quick and cplx seed-1 solves, by shape."""
    entries = {f"certificate/{shape}/1": _report_entry(
        linear_rate_certificate(result.estimate, e, cfg.lam, cfg.alpha))
        for shape, (e, cfg, _, result) in solved.items()}
    e, cfg, _, result = solved["quick"]
    entries["remark5/quick/1"] = _report_entry(
        remark5_quantities(result.estimate, e, cfg.alpha))
    e, alpha = _instance("t3", 1)
    entries["stability/t3/1"] = _report_entry(
        estimate_stability(e, 50, RHO0, alpha, 1))
    return entries


def _instance_entry(shape: str, seed: int) -> dict:
    e, _ = _instance(shape, seed)
    return {"hash": _hash(serialize_instance(e).encode())}


def _experiment_entry() -> dict:
    summaries = [r.summary for r in run_experiment(EXPERIMENT).records]
    terminations = [s["termination"] for s in summaries]
    entry = {"termination": {t: terminations.count(t) for t in set(terminations)}}
    for key in ("iterations", "trials", "prox_calls"):
        entry[key] = sum(s[key] for s in summaries)
    entry["hash"] = _hash(json.dumps(summaries).encode())
    return entry


def ledger() -> dict:
    """Every entry, keyed 'solve/<shape>/<seed>', 'grid/<shape>/<seed>'
    (oracle rule), 'grid-holdout/<shape>/<seed>', '<diagnostic>/<shape>/<seed>',
    'instance/<shape>/<seed>' or 'experiment/<master seed>'."""
    solved = {(shape, seed): _solve(shape, seed) for shape in SHAPES for seed in SEEDS}
    entries = {f"solve/{shape}/{seed}": _solve_entry(*run)
               for (shape, seed), run in solved.items()}
    entries["grid/t3/1"] = _grid_entry("t3", 1, "oracle")
    entries["grid-holdout/t3/1"] = _grid_entry("t3", 1, "holdout")
    entries.update(_diagnostic_entries(
        {shape: solved[shape, 1] for shape in ("quick", "cplx")}))
    entries.update({f"instance/{shape}/1": _instance_entry(shape, 1)
                    for shape in ("quick", "cplx")})
    entries[f"experiment/{EXPERIMENT.master_seed}"] = _experiment_entry()
    return entries


def render(entries: dict) -> str:
    return json.dumps(entries, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/work_ledger.py --write")
    LEDGER.write_text(render(ledger()), encoding="utf-8")
