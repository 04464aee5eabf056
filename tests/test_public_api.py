"""The public API exports only what the package and its benchmark run.

A name in ``robustpr.__all__`` that no package module (other than the
re-exporting ``__init__``) and no benchmark script uses is test-only code;
it belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import robustpr

ROOT = Path(__file__).resolve().parents[1]


def _used_names(path: Path) -> set:
    """Names a module loads, reads as attributes or imports (aliases too)."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_exported_name_is_used_outside_the_tests():
    sources = [p for p in (ROOT / "src" / "robustpr").glob("*.py")
               if p.name != "__init__.py"]
    sources += (ROOT / "benchmarks").glob("*.py")
    used = set().union(*map(_used_names, sources))
    assert sorted(set(robustpr.__all__) - used) == []
