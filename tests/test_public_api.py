"""The public API exports only what the package and its benchmark run.

A name in ``robustpr.__all__`` that no package module (other than the
re-exporting ``__init__``) and no benchmark script uses is test-only code;
it belongs in ``tests/oracles.py``.  Likewise an optional parameter of a
public function, or a defaulted field of a dataclass, that no call in the
package or the benchmark passes is a knob only tests turn; a value that one
setting serves is a constant, not a field.  And every file the package
opens as text is opened in ``model``, as UTF-8; ``pgm`` opens its files in
binary mode.
Only ``spectral`` builds a ``SpectralConfig``, and only ``test_spectral``
passes ``truncation=``: the rest of the package and its tests run the
untruncated start.
"""

import ast
from itertools import takewhile
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def _optional_parameters(path: Path):
    """(function, parameter, position) for each optional parameter of a
    public function or method, and (class, field, position) for each
    defaulted field of a dataclass; the position is None for a keyword-only
    parameter and does not count ``self`` or ``cls``."""
    tree = ast.parse(path.read_text(), str(path))
    functions = [(node, 0) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [(node, 1) for node in cls.body
                      if isinstance(node, ast.FunctionDef)]
        if _is_dataclass(cls):  # an annotated assignment is a field
            fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)]
            for i, field in enumerate(fields):
                if field.value is not None:
                    yield cls.name, field.target.id, i
    for fn, skip in functions:
        if fn.name.startswith("_"):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][skip:]
        first = len(positional) - len(args.defaults)
        for i in range(first, len(positional)):
            yield fn.name, positional[i], i
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, a.arg, None


def _passed_arguments(path: Path) -> set:
    """(callee name, position or keyword) for each argument a call passes.
    An unpacked ``*args`` or ``**kwargs`` names no parameter, so only the
    positions before the first ``*`` and the explicit keywords count."""
    passed = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        positional = takewhile(lambda a: not isinstance(a, ast.Starred), node.args)
        passed.update((name, i) for i, _ in enumerate(positional))
        passed.update((name, k.arg) for k in node.keywords if k.arg is not None)
    return passed


def test_an_unpacked_argument_passes_no_named_parameter(tmp_path):
    snippet = tmp_path / "calls.py"
    snippet.write_text("f(*a)\ng(**kw)\nh(1, *a)\nk(x=1, **kw)\n")
    assert _passed_arguments(snippet) == {("h", 0), ("k", "x")}


def test_every_optional_parameter_has_a_caller():
    package = sorted((ROOT / "src" / "robustpr").glob("*.py"))
    callers = package + sorted((ROOT / "benchmarks").glob("*.py"))
    passed = set().union(*map(_passed_arguments, callers))
    uncalled = [
        f"{fn}({param})"
        for path in package
        for fn, param, position in _optional_parameters(path)
        if not {(fn, param), (fn, position)} & passed
    ]
    assert uncalled == []


def _opens(path: Path):
    """(line, mode, encoding) of each ``open(...)`` call in a module; a mode
    or encoding that is not a string literal reads as None."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        if (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) != "open":
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
        encoding = node.args[3] if len(node.args) > 3 else keywords.get("encoding")
        yield node.lineno, *(arg.value if isinstance(arg, ast.Constant) else None
                             for arg in (mode, encoding))


def test_every_text_file_is_opened_as_utf8_in_model():
    seen, stray = set(), []
    for path in sorted((ROOT / "src" / "robustpr").glob("*.py")):
        for line, mode, encoding in _opens(path):
            seen.add(path.name)
            allowed = {"model.py": encoding == "utf-8",
                       "pgm.py": isinstance(mode, str) and "b" in mode}
            if not allowed.get(path.name):
                stray.append(f"{path.name}:{line} mode={mode!r} encoding={encoding!r}")
    assert stray == []
    assert seen == {"model.py", "pgm.py"}


def _calls(path: Path):
    """(line, callee name, keyword names) of each call in a module."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            yield node.lineno, name, {k.arg for k in node.keywords}


def test_only_spectral_builds_a_config_and_only_its_tests_truncate():
    built = [f"{path.name}:{line}"
             for path in sorted((ROOT / "src" / "robustpr").glob("*.py"))
             for line, name, _ in _calls(path)
             if name == "SpectralConfig" and path.name != "spectral.py"]
    truncating = [f"{path.name}:{line}"
                  for path in sorted((ROOT / "tests").glob("*.py"))
                  for line, _, keywords in _calls(path)
                  if "truncation" in keywords and path.name != "test_spectral.py"]
    assert (built, truncating) == ([], [])
