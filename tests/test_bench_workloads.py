"""One batch of every benchmark workload runs and passes the benchmark's checks.

``benchmarks/workloads.py`` holds the contract between the benchmark and the
package: one ``metrics.solve`` call per lambda, the CLI's exit codes and
output files, and the descent inequality on every trace.  A change in
``src`` that breaks it would otherwise surface only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as is
        name = "robustpr_bench_workloads"
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolve the module's string annotations through sys.modules
        mp.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize(
    "name",
    ["cli-real", "lib-complex-outliers", "lambda-sweep-t3", "success-rate-small"],
)
def test_one_batch_passes_the_benchmark_checks(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(1, 0, tmp_path)
    units = wl.check(inputs, workloads.run_batch(wl, inputs))
    assert units
    assert [u.failure for u in units] == [None] * len(units)
