"""The benchmark tracer's by-name bindings still point at the package's code.

``benchmarks/tracing.py`` rebinds module-level names such as
``(solver, "objective")`` from outside the package; a rename or a changed
import in ``src`` would otherwise surface only in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_spanned_binding_resolves_to_the_named_function(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmarks/ as is
    spec = importlib.util.spec_from_file_location("robustpr_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [(span, module, attr)
                for span, pairs in tracing.SPANNED.items() for module, attr in pairs]
    assert len(bindings) == 28
    for span, module, attr in bindings:
        fn = getattr(module, attr)
        home, name = span.split(".")
        assert (fn.__module__, fn.__name__) == ("robustpr." + home, name), (
            module.__name__, attr)
