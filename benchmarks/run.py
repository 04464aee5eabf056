"""robustpr benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 benchmarks/run.py --workload cli-real --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1          # every workload

Run from the root of a checkout; the package is imported from ``src/`` there.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  Every run
also writes a record with its environment to ``.bench_out/``.  See
benchmarks/README.md for the metrics, the workloads and why each was chosen.
"""

import os
import sys

# Pinned before numpy loads: one BLAS thread, no trial thread pool.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("ROBUSTPR_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("cli-real", "lib-complex-outliers", "lambda-sweep-t3",
                  "success-rate-small")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "unit_s_p50": "s",
    "peak_rss_mb": "MB",
    "rel_err_gmean": "1",
}


IMPORTS = 5  # fresh-interpreter imports per run; setup_s takes their median


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s", ".s_p50", ".s_max")):
        return "s"
    if name.endswith((".bytes", ".bytes_computed")):
        return "B"
    if name.endswith(("accept_ratio", "per_iteration")):
        return "1"
    return "count"


def fresh_import_seconds() -> float:
    """Import time of robustpr in a new interpreter, measured inside it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import robustpr; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "l3": l3,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "ROBUSTPR_THREADS": os.environ.get("ROBUSTPR_THREADS", "unset"),
        "seed": seed,
        "load": "one process, one unit at a time (closed loop)",
        "loadavg": os.getloadavg(),
    }


def unit_tail(times):
    """(percentile, value, count beyond): the highest of p99.9/p99/p95/p90/p75
    with at least ten units beyond it, or None."""
    import numpy as np

    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = len(times) - math.ceil(len(times) * q / 100.0)
        if beyond >= 10:
            return q, float(np.percentile(times, q)), beyond
    return None


def geometric_mean(values) -> float:
    """Geometric mean of the finite positive values; NaN when there are none."""
    logs = [math.log(v) for v in values if v > 0 and math.isfinite(v)]
    return math.exp(statistics.fmean(logs)) if logs else math.nan


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values (each quarter cut rounds down)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def batch_count(workload, seconds: int, traced: bool) -> int:
    batches = max(3, round(seconds / workload.batch_s))
    return math.ceil(batches / 3) if traced else batches


class Run:
    """Builds, runs and checks the batches of one workload run."""

    def __init__(self, workload, seed: int, traced: bool, work: Path):
        from tracing import Trace

        self.wl, self.seed, self.traced, self.work = workload, seed, traced, work
        self.build_s, self.walls, self.units, self.problems = [], [], [], []
        self.serialize_s = []  # traced runs: serialize_instance time per set-up
        self.traces = [Trace(), Trace()] if traced else []
        self.traced_walls = [0.0, 0.0]
        self.warmup_wall = None  # batch 0's untimed first run
        # Untraced runs: calibration samples, one before the first timed pass
        # and one after each; timed pass b lies between samples b and b + 1.
        self.calibration_s = []
        self.unit_batch = []  # untraced runs: the timed pass of each unit
        self.import_s, self.import_calibration_s = [], []

    def imports(self):
        """Time IMPORTS fresh imports, each between two calibration samples."""
        samples = [self.wl.calibrate()]
        for _ in range(IMPORTS):
            self.import_s.append(fresh_import_seconds())
            samples.append(self.wl.calibrate())
        self.import_calibration_s = [(a + b) / 2 for a, b in zip(samples, samples[1:])]

    def execute(self, inputs, trace=None):
        """One pass over a batch, then the check of every output."""
        from tracing import installed
        from workloads import run_batch

        if trace is None:
            return self.wl.check(inputs, run_batch(self.wl, inputs))
        base = len(self.walls) * self.wl.units

        def mark(i):
            trace.unit_id = base + i

        with installed(trace):
            raw = run_batch(self.wl, inputs, mark)
        return self.wl.check(inputs, raw)

    def build(self, b: int, bdir: Path):
        from tracing import Trace, installed, layer_metrics

        setup_trace = Trace()
        with installed(setup_trace) if self.traced else contextlib.nullcontext():
            start = time.perf_counter()
            inputs = self.wl.build(self.seed, b, bdir)
            self.build_s.append(time.perf_counter() - start)
        if self.traced:
            self.serialize_s.append(
                layer_metrics(setup_trace)["model.serialize_instance.s"])
        return inputs

    def batch(self, b: int):
        """Build batch b, run it untraced, and (traced runs) twice traced.

        Batch 0 runs once more before that, untimed, so that first-call costs
        stay out of the timings; its outputs must repeat exactly.
        """
        bdir = self.work / f"b{b}"
        bdir.mkdir()
        inputs = self.build(b, bdir)
        if b == 0:
            warm = self.execute(inputs)
            self.warmup_wall = sum(u.seconds for u in warm)
        timed = not self.traced
        if timed and not self.calibration_s:
            self.calibration_s.append(self.wl.calibrate())
        checked = self.execute(inputs)
        if timed:
            self.calibration_s.append(self.wl.calibrate())
            self.unit_batch.extend([b] * len(checked))
        digests = [u.digest for u in checked]
        if b == 0 and [u.digest for u in warm] != digests:
            self.problems.append("batch 0 gave different outputs when repeated")
        for r, trace in enumerate(self.traces):
            again = self.execute(inputs, trace)
            self.traced_walls[r] += sum(u.seconds for u in again)
            self.units.extend(again)
            if [u.digest for u in again] != digests:
                self.problems.append(f"batch {b}: traced outputs differ from untraced")
        self.walls.append(sum(u.seconds for u in checked))
        self.units.extend(checked)
        shutil.rmtree(bdir)

    def raw_times(self) -> dict:
        """The end-to-end times in seconds as measured, before speed scaling."""
        return {
            "setup_s": statistics.median(self.import_s) + statistics.median(self.build_s),
            "wall_s": self.wl.units * interquartile_mean(u.seconds for u in self.units),
            "unit_s_p50": statistics.median(u.seconds for u in self.units),
        }

    def scaled_times(self) -> dict:
        """The end-to-end times in seconds at the reference machine's speed.

        Each unit's time is scaled by reference_s / c, where c is the mean of
        the calibration samples just before and after its timed pass; a
        batch's build like its pass, and each import by the samples around
        it.  The shared machine switches between a fast and a slow state, up
        to 1.7x apart, within seconds; this cancels most of that.
        ``wall_s`` is the wall time of one batch: the units per batch times
        the interquartile mean of the unit times, so that neither the rare
        slow instance nor a pause of the machine decides it.
        """
        ref, cal = self.wl.reference_s, self.calibration_s
        factors = [2 * ref / (a + b) for a, b in zip(cal, cal[1:])]
        units = [u.seconds * factors[b] for u, b in zip(self.units, self.unit_batch)]
        return {
            "setup_s": statistics.median(
                s * ref / c for s, c in zip(self.import_s, self.import_calibration_s))
            + statistics.median(s * f for s, f in zip(self.build_s, factors)),
            "wall_s": self.wl.units * interquartile_mean(units),
            "unit_s_p50": statistics.median(units),
        }

    def metrics(self) -> tuple[dict, dict]:
        """(metrics, units of the metrics) for the JSON line."""
        from tracing import exact_counters, layer_metrics

        if not self.traced:
            metrics = {
                **self.scaled_times(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "rel_err_gmean": geometric_mean([u.rel_err for u in self.units]),
            }
            return metrics, END_TO_END_UNITS
        layers = [layer_metrics(t) for t in self.traces]
        exact = [exact_counters(m) for m in layers]
        if exact[0] != exact[1]:
            diff = sorted(k for k in exact[0] if exact[0][k] != exact[1][k])
            self.problems.append(f"exact counters differ between traced runs: {diff}")
        metrics = {
            k: v if isinstance(v, int) else statistics.median(m[k] for m in layers)
            for k, v in layers[0].items()
        }
        metrics["model.serialize_instance.s"] = statistics.median(self.serialize_s)
        metrics["trace.overhead_s"] = (
            statistics.median(self.traced_walls) - sum(self.walls))
        return metrics, {k: layer_unit(k) for k in metrics}

    def extras(self) -> dict:
        """Numbers for the report and the record that are not gated."""
        import numpy as np

        units = self.units
        failures = sorted({u.failure for u in units if u.failure is not None})
        digest = hashlib.sha256("".join(u.digest for u in units).encode())
        extras = {
            "batches": len(self.walls),
            "units_per_batch": self.wl.units,
            "failed_frac": f"{sum(u.failure is not None for u in units)}/{len(units)}",
            "success_rate": f"{sum(u.success for u in units)}/{len(units)}",
            "rel_err_p50": float(np.nanmedian([u.rel_err for u in units])),
            "digest": digest.hexdigest()[:16],
            "import_s": self.import_s,
            "import_calibration_s": self.import_calibration_s,
            "build_s": self.build_s,
            "batch_wall_s": self.walls,
            "batch0_warmup_wall_s": self.warmup_wall,
            "calibration_s": self.calibration_s,
            "unit_s": [u.seconds for u in units],
            "unit_batch": self.unit_batch,
            "problems": self.problems + failures[:10],
        }
        if self.traced:
            extras["untraced_wall_s"] = sum(self.walls)
            extras["traced_wall_s"] = self.traced_walls
        else:
            extras["raw"] = self.raw_times()
            tail = unit_tail([u.seconds for u in units])
            if tail is not None:
                extras["unit_s_tail"] = dict(zip(("percentile", "value", "beyond"), tail))
        return extras


def run_workload(name: str, seed: int, seconds: int, traced: bool, out_dir: Path):
    import numpy as np

    from tracing import SPAN_NAMES
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".bench_work"))
    try:
        run = Run(wl, seed, traced, work)
        run.imports()
        for b in range(batch_count(wl, seconds, traced)):
            run.batch(b)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            (ROOT / ".bench_work").rmdir()

    metrics, units_of = run.metrics()
    extras = run.extras()
    failed = sum(u.failure is not None for u in run.units)
    result = {
        "correct": failed == 0 and not run.problems and len(run.units) > 0,
        "attempted": len(run.units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "why": wl.why, "trace": int(traced),
              "environment": environment(seed), "extras": extras, **result}
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        np.savez_compressed(out_dir / f"{stem}-spans.npz",
                            span_names=np.array(SPAN_NAMES), **run.traces[0].arrays())
    return result, record


def print_report(record: dict) -> None:
    print(f"== {record['workload']} (trace {record['trace']}): {record['why']}")
    env = record["environment"]
    print("   environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for k, m in record["metrics"].items():
        print(f"   {k} = {m['value']:.6g} {m['unit']}")
    extras = record["extras"]
    if not record["trace"]:
        if "unit_s_tail" in extras:
            t = extras["unit_s_tail"]
            print(f"   unit_s_tail = {t['value']:.6g} s (p{t['percentile']:g}, "
                  f"{t['beyond']} of {record['attempted']} units beyond it)")
        else:
            print(f"   unit_s_tail omitted: {record['attempted']} units are too few")
        print(f"   rel_err_p50 = {extras['rel_err_p50']:.6g} 1")
        raw = ", ".join(f"{k} = {v:.6g} s" for k, v in extras["raw"].items())
        print(f"   raw (unscaled): {raw}")
    print(f"   failed_frac = {extras['failed_frac']} units")
    print(f"   success_rate = {extras['success_rate']} units with relative "
          f"error < 5e-3")
    print(f"   batches = {extras['batches']} x {extras['units_per_batch']} units, "
          f"output digest {extras['digest']}")
    for line in extras["problems"]:
        print(f"   PROBLEM: {line}")


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is per workload."""
    summary = {}
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            ok = False
            continue
        summary[name] = json.loads(lines[-1])
        ok &= summary[name]["correct"]
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25,
                        help="sets the batch count, so that a run takes about "
                             "this long on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for the per-run records")
    args = parser.parse_args(argv)
    if not (SRC / "robustpr" / "__init__.py").is_file():
        print(f"error: no robustpr package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result, record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), Path(args.out))
    print_report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
