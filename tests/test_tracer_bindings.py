"""The benchmark tracer's by-name bindings still point at the package's code.

``benchmarks/tracing.py`` rebinds module-level names such as
``(solver, "objective")`` from outside the package; a rename or a changed
import in ``src`` would otherwise surface only in a traced benchmark run.
Those bindings are also the only imports a ``src`` module may leave unused;
there is no linter, so a stray import fails here.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"


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


def _unused_imports(path: Path) -> set:
    """Names a module imports but never loads (``__future__`` aside)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_unused_import_is_a_spanned_binding(monkeypatch):
    # an import kept only for the tracer to rebind is fine; any other is stray
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("robustpr_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    spanned = {(module.__name__, attr)
               for pairs in tracing.SPANNED.values() for module, attr in pairs}
    unused = {("robustpr." + path.stem, name)
              for path in (ROOT / "src" / "robustpr").glob("*.py")
              if path.name != "__init__.py"  # it imports to re-export
              for name in _unused_imports(path)}
    assert sorted(unused - spanned) == []
