"""The public API exports only what the package and its benchmark run, and
each rule the package writes once has one home.

A name in ``robustpr.__all__``, an optional parameter of a public function
or a defaulted dataclass field that nothing outside the tests uses is
test-only code.  Every text file the package opens is UTF-8 and opened in
``model``; every exception it raises maps to an exit code; every ``int`` or
``float`` field of an exported dataclass holds a Python number.
``RULE_HOMES`` lists the rules written in one place, each with the
functions that may hold it and the spellings its matcher must and must not
see; ``FORWARD_MODEL`` lists the functions whose every square is
``model._squared_modulus``.
"""

import ast
import builtins
import dataclasses
from collections.abc import Callable
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

import robustpr
import robustpr.errors

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


def test_the_package_has_one_domain_error():
    tree = ast.parse((ROOT / "src" / "robustpr" / "errors.py").read_text())
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == [
        "ParseError", "DomainError"]


def _handled_by_main() -> tuple:
    """The exception classes ``cli.main``'s handler catches."""
    tree = ast.parse((ROOT / "src" / "robustpr" / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handler = next(node for node in ast.walk(main)
                   if isinstance(node, ast.ExceptHandler))
    return tuple(getattr(builtins, n.id, None) or getattr(robustpr.errors, n.id)
                 for n in handler.type.elts)


def _raised_class(node) -> str:
    """The name of the class a ``raise`` statement raises."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, "id", None) or getattr(exc, "attr", None)


def _owners(tree, match) -> list:
    """The innermost enclosing function (None at module level) of each node
    of a module's tree for which ``match(node)`` holds."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                owners.append(owner)
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else owner)

    visit(tree, None)
    return owners


PACKAGE = "src/robustpr/*.py"


def _homes(scope, match, per_module=False) -> dict:
    """Per file of ``scope`` (globs from the repo root; a glob with a leading
    ``!`` drops its files) that has any match, the owners of its matches.
    ``match`` is a node test or, with ``per_module``, a function of the
    module's tree that returns one."""
    paths = set()
    for glob in scope:
        if glob.startswith("!"):
            paths -= set(ROOT.glob(glob[1:]))
        else:
            paths |= set(ROOT.glob(glob))
    homes = {}
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), str(path))
        if owners := _owners(tree, match(tree) if per_module else match):
            homes[path.relative_to(ROOT).as_posix()] = owners
    return homes


def test_every_raised_exception_has_an_exit_code():
    handled = _handled_by_main()
    assert {c.__name__ for c in handled} == {
        "ValueError", "OverflowError", "DomainError", "OSError", "MemoryError"}

    def unmapped(node):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            return False  # a bare raise re-raises what it caught
        name = _raised_class(node)
        cls = getattr(builtins, name, None) or getattr(robustpr.errors, name, None)
        return not (isinstance(cls, type) and issubclass(cls, handled))

    # a flag's type function raises ArgumentTypeError, which argparse turns
    # into a usage error (exit 2); _min_eig's RuntimeError is a self-check
    argparse_only = _homes((PACKAGE,), lambda node: unmapped(node)
                           and _raised_class(node) == "ArgumentTypeError")
    assert list(argparse_only) == ["src/robustpr/cli.py"]
    assert _homes((PACKAGE,), lambda node: unmapped(node)
                  and _raised_class(node) != "ArgumentTypeError"
                  ) == {"src/robustpr/diagnostics.py": ["_min_eig"]}


def _passes_a_start_seed(node) -> bool:
    """A call of ``spectral_init`` with ``seed=``, a third positional
    argument, or an unpacked argument that may carry either."""
    if not (isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)) == "spectral_init"):
        return False
    return (len(node.args) >= 3 or any(isinstance(a, ast.Starred) for a in node.args)
            or any(k.arg in ("seed", None) for k in node.keywords))


def _is_matmul(node) -> bool:
    """An ``@`` or ``@=``."""
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
        node.op, ast.MatMult)


def _finite_rule(low_op):
    """The test of a chained ``0 <low_op> v < inf``: ``<`` matches the finite
    and positive rule (``0.0 < v < np.inf``, say), ``<=`` the finite and
    nonnegative one (``0.0 <= v < np.inf``)."""
    def match(node) -> bool:
        if not (isinstance(node, ast.Compare)
                and [type(op) for op in node.ops] == [low_op, ast.Lt]):
            return False
        low, high = node.left, node.comparators[-1]
        return (isinstance(low, ast.Constant) and low.value == 0
                and getattr(high, "attr", getattr(high, "id", None)) == "inf")

    return match


def _is_count_rule(node) -> bool:
    """A single ``v < 1`` or ``v >= 1`` (or ``1 > v``, ``1 <= v``): the
    positive-count rule.  A chained range such as ``1 <= s <= p`` is another."""
    if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
        return False

    def one(side):
        return (isinstance(side, ast.Constant) and side.value == 1
                and not isinstance(side.value, bool))

    op = type(node.ops[0])
    return ((one(node.comparators[0]) and op in (ast.Lt, ast.GtE))
            or (one(node.left) and op in (ast.Gt, ast.LtE)))


def _zero_truth_test(tree):
    """For a module's tree, the node test of a call to ``any`` or
    ``count_nonzero`` over a ``.ground_truth`` or a name the module binds to one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.NamedExpr):
            pairs = [(node.target, node.value)]
        elif isinstance(node, ast.Assign):
            pairs = []
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs += zip(target.elts, node.value.elts)
                else:
                    pairs.append((target, node.value))
        else:
            continue
        names.update(t.id for t, v in pairs if isinstance(t, ast.Name)
                     and getattr(v, "attr", None) == "ground_truth")

    def is_truth(node):
        return (getattr(node, "attr", None) == "ground_truth"
                or isinstance(node, ast.Name) and node.id in names)

    def match(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name not in ("any", "count_nonzero"):
            return False
        operands = node.args or [getattr(func, "value", None)]  # x.any()
        return any(is_truth(n) for arg in operands for n in ast.walk(arg))

    return match


def _imports_json(node) -> bool:
    """An import of ``json``, of a submodule of it or of a name from it."""
    return ((isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "json" for alias in node.names))
            or (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "json"))


def _is_unit_floor(node) -> bool:
    """A call ``max(1, v)`` or ``max(v, 1.0)``: the floor of a relative size."""
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max"
            and any(isinstance(arg, ast.Constant) and type(arg.value) in (int, float)
                    and arg.value == 1 for arg in node.args))


def _is_prox_call(node) -> bool:
    """A call of ``_half_threshold`` or ``half_threshold``, by name or as an
    attribute (``prox._half_threshold(...)``, say)."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    ) in ("_half_threshold", "half_threshold")


def _is_ignore_filter(node) -> bool:
    """A ``simplefilter`` or ``filterwarnings`` call (``pytest.mark``'s too)
    whose action, the first argument or ``action=``, starts with "ignore".
    pyproject's ``filterwarnings = ["error"]`` makes every warning a test
    failure, which such a filter would hide; recording warnings, with
    ``simplefilter("always")``, stays allowed."""
    if not (isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    ) in ("simplefilter", "filterwarnings")):
        return False
    keywords = {k.arg: k.value for k in node.keywords}
    action = node.args[0] if node.args else keywords.get("action")
    return (isinstance(action, ast.Constant) and isinstance(action.value, str)
            and action.value.startswith("ignore"))


@dataclasses.dataclass(frozen=True)
class Rule:
    """A rule written in one place.  The nodes ``match`` finds in the files
    of ``scope`` sit in ``homes``: per file (its path from the repo root),
    the innermost enclosing function of each match, None at module level;
    ``{}`` means nowhere.  ``match`` finds each of ``catches`` and none of
    ``ignores``; with ``per_module`` it is a function of the module's tree
    that returns the node test."""
    name: str
    match: Callable
    homes: dict
    catches: tuple
    ignores: tuple
    scope: tuple = (PACKAGE,)
    per_module: bool = False


SOLVER = "src/robustpr/solver.py"

RULE_HOMES = [
    # every start the package makes is drawn with the instance's own seed
    Rule("start-seed", _passes_a_start_seed, {},
         catches=("spectral_init(e, seed=seed)", "spectral_init(e, None, 3)",
                  "robustpr.spectral_init(e, cfg, e.seed)",
                  "spectral_init(e, cfg=None, seed=1)", "spectral_init(*args)",
                  "spectral_init(e, **kwargs)"),
         ignores=("spectral_init(e)", "spectral_init(train, cfg)",
                  "spectral_init(e, SpectralConfig(truncation=2))",
                  "power_iteration(e, seed)",
                  "synthesize_instance(p, s, n, field, noise, seed)")),
    # the one forward and the one adjoint product; diagnostics' checks
    # multiply their own restricted and rescaled copies
    Rule("matmul", _is_matmul,
         {"src/robustpr/model.py": ["correlate"], "src/robustpr/gradient.py": ["_adjoint"]},
         scope=(PACKAGE, "!src/robustpr/diagnostics.py"),
         catches=("a @ x", "m @= u"), ignores=("a * x", "a.dot(x)")),
    Rule("positive", _finite_rule(ast.Lt), {"src/robustpr/model.py": ["_check_positive"]},
         catches=("0.0 < lam < np.inf", "0 < mu < inf", "not 0.0 < a < math.inf"),
         ignores=("0.0 <= eta < np.inf", "0.0 < rho0 < 1.0", "lo < v < np.inf")),
    Rule("nonnegative", _finite_rule(ast.LtE),
         {"src/robustpr/model.py": ["_check_nonnegative"]},
         catches=("0.0 <= eta < np.inf", "0 <= t < inf", "not 0.0 <= v < math.inf"),
         ignores=("0.0 < lam < np.inf", "0.0 <= rho0 < 1.0", "lo <= v < np.inf")),
    # pgm.read_pgm refuses a PGM header: a file-format refusal (exit 4)
    Rule("count", _is_count_rule,
         {"src/robustpr/model.py": ["_check_count"],
          "src/robustpr/pgm.py": ["read_pgm", "read_pgm"]},
         catches=("n < 1", "not (_is_int(v) and v >= 1)", "1 > k", "1 <= len(x)"),
         ignores=("1 <= s <= p", "v < 1.5", "x < True", "value < minimum")),
    Rule("zero-truth", _zero_truth_test, {"src/robustpr/model.py": ["nonzero_truth"]},
         per_module=True,
         catches=("not np.any(e.ground_truth)", "x = e.ground_truth\nnp.any(x)",
                  "x, t = r.estimate, e.ground_truth\nif not np.any(t): pass",
                  "if (t := e.ground_truth) is None or not t.any(): pass",
                  "np.count_nonzero(e.ground_truth) == 0"),
         ignores=("np.any(x_true)", "t = e.nonzero_truth\nnp.any(t)",
                  "np.all(np.isfinite(e.ground_truth))")),
    # every JSON text is rendered, strict, by model.render_json
    Rule("json-import", _imports_json, {"src/robustpr/model.py": [None]},
         catches=("import json", "from json import dumps", "import json.decoder",
                  "def f():\n    import json as j"),
         ignores=("from .model import render_json", "import jsonschema",
                  "x = json.dumps({})")),
    # no max(1, ||x||): the stop test and every residual are purely relative,
    # so the solver's rule has no absolute scale
    Rule("relative-floor", _is_unit_floor, {}, scope=(SOLVER,),
         catches=("max(1.0, x_norm)", "max(x_norm, 1)", "s / max(1, _norm(x))"),
         ignores=("max(x, y)", "max(2.0, v)", "max(True, v)", "min(1.0, v)")),
    # the solver's one prox call, in the map each trial and each residual apply
    Rule("mm-map", _is_prox_call, {SOLVER: ["_mm_map"]}, scope=(SOLVER,),
         catches=("_half_threshold(x - 2.0 * tau * g, 2.0 * lam * tau)",
                  "prox._half_threshold(v, mu)", "half_threshold(v, mu)",
                  "y = _half_threshold(v, mu) - x"),
         ignores=("_mm_map(x, g, lam, tau)", "threshold_point(mu)",
                  "from .prox import _half_threshold", "f = _half_threshold")),
    Rule("ignore-filter", _is_ignore_filter, {}, scope=("src/**/*.py", "tests/**/*.py"),
         catches=("warnings.simplefilter('ignore', RuntimeWarning)",
                  "warnings.filterwarnings(action='ignore')",
                  "pytestmark = pytest.mark.filterwarnings('ignore::DeprecationWarning')"),
         ignores=("simplefilter('always')", "warnings.filterwarnings('error')")),
]


def test_each_rule_has_a_unique_name_and_spellings_either_way():
    names = [rule.name for rule in RULE_HOMES]
    assert len(set(names)) == len(names)
    assert [rule.name for rule in RULE_HOMES if not (rule.catches and rule.ignores)] == []


@pytest.mark.parametrize("rule", RULE_HOMES, ids=lambda rule: rule.name)
def test_rule_has_one_home(rule):
    assert _homes(rule.scope, rule.match, rule.per_module) == rule.homes


@pytest.mark.parametrize("rule", RULE_HOMES, ids=lambda rule: rule.name)
def test_rule_guard_sees_each_spelling(rule):
    def seen(text):
        tree = ast.parse(text)
        return any(map(rule.match(tree) if rule.per_module else rule.match,
                       ast.walk(tree)))

    assert [seen(text) for text in rule.catches + rule.ignores] == (
        [True] * len(rule.catches) + [False] * len(rule.ignores))


# The functions that square a correlation <a_i, x> or a sampling-matrix
# entry, by module and qualified name: each calls model._squared_modulus.
# A per-function scope, with a required call besides, is no row of RULE_HOMES.
FORWARD_MODEL = {
    "model.py": ["measure", "MeasurementEnsemble.__post_init__"],
    "objective.py": ["_evaluate"],
    "diagnostics.py": ["_real_terms", "_complex_terms", "linear_rate_certificate",
                       "remark5_quantities"],
}


def _is_inline_square(node) -> bool:
    """``v ** 2``, ``v * v`` (``m * m`` with ``m = np.abs(c)``, say),
    ``np.square(v)`` or ``np.power(v, 2)``; not ``c_in**2``, the complex
    square c^2 of the certificate's ``sym`` weight, which is no modulus."""
    def two(side):
        return isinstance(side, ast.Constant) and side.value == 2

    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return two(node.right) and getattr(node.left, "id", None) != "c_in"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return ast.dump(node.left) == ast.dump(node.right)
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name == "square" or (name == "power" and len(node.args) == 2
                                        and two(node.args[1]))
    return False


def _function(tree, qualname: str):
    """The definition of ``qualname`` (``Class.method``, say) in a module's tree."""
    node = tree
    for name in qualname.split("."):
        node = next(child for child in node.body
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                    and child.name == name)
    return node


def test_one_function_squares_every_correlation():
    squares, callers = [], []
    for module, names in FORWARD_MODEL.items():
        tree = ast.parse((ROOT / "src" / "robustpr" / module).read_text())
        for qualname in names:
            fn = _function(tree, qualname)
            squares += [f"{module}:{node.lineno}" for node in ast.walk(fn)
                        if _is_inline_square(node)]
            if not any(getattr(node, "id", None) == "_squared_modulus"
                       for node in ast.walk(fn)):
                callers.append(qualname)
    assert (squares, callers) == ([], [])


def test_the_square_guard_sees_each_spelling():
    squares = ["np.abs(c) ** 2", "c**2", "m = np.abs(c)\nr = m * m",
               "np.abs(c) * np.abs(c)", "np.square(np.abs(c))", "np.power(c, 2)"]
    others = ["c_in**2", "x ** -1.5", "2.0 * c", "a * b", "np.abs(c)",
              "_squared_modulus(c)", "np.power(c, 3)"]
    assert [any(map(_is_inline_square, ast.walk(ast.parse(text))))
            for text in squares + others] == [True] * 6 + [False] * 7


def _scalar_fields(cls) -> dict:
    """The name and annotation of each field of ``cls`` annotated ``int`` or
    ``float``, or either of them ``| None``."""
    return {f.name: f.type for f in dataclasses.fields(cls)
            if f.type.removesuffix(" | None") in ("int", "float")}


def _built_from_numpy(name):
    """The exported dataclass ``name`` built with a NumPy scalar in each of its
    int and float fields: np.int32(2) and np.float32(0.5), which every such
    field accepts."""
    cls = getattr(robustpr, name)
    others = {
        "GrayImage": dict(pixels=np.zeros((2, 2))),
        "MeasurementEnsemble": dict(sampling_vectors=np.ones((3, 2)),
                                    observations=np.ones(3)),
        "ExperimentSpec": dict(n_grid=(4,), noise=robustpr.NoiseSpec(),
                               solver=robustpr.SolverConfig(1e-3)),
        "NoiseSpec": dict(kind="type1"),
    }.get(name, {})
    return cls(**others, **{field: np.int32(2) if kind.startswith("int")
                            else np.float32(0.5)
                            for field, kind in _scalar_fields(cls).items()})


def _made_from_numpy(name):
    """The exported dataclass ``name`` as the package makes it from NumPy
    scalar parameters."""
    e = robustpr.synthesize_instance(8, 2, 80, robustpr.FieldTag.REAL,
                                     robustpr.NoiseSpec("type2", 0.1), np.int64(3))
    lam, alpha, rho0 = np.float32(1e-4), np.float32(1.345), np.float32(0.5)
    x = e.ground_truth
    made = {
        "SolverResult": lambda: robustpr.solve(
            e, x, robustpr.SolverConfig(lam, alpha)),
        "CertificateReport": lambda: robustpr.linear_rate_certificate(
            x, e, lam, alpha, rho0),
        "Remark5Report": lambda: robustpr.remark5_quantities(x, e, alpha, rho0),
        "StabilityEstimate": lambda: robustpr.estimate_stability(
            e, np.int16(3), rho0, alpha, np.int64(1)),
        "ExperimentReport": lambda: robustpr.ExperimentReport(
            _built_from_numpy("ExperimentSpec"), []),
    }
    return made[name]()


# The exported dataclasses a caller builds; the others the package makes.
BUILT = ("ExperimentSpec", "GrayImage", "MeasurementEnsemble", "NoiseSpec",
         "SolverConfig", "SpectralConfig")


@pytest.mark.parametrize("name", [name for name in robustpr.__all__
                                  if dataclasses.is_dataclass(getattr(robustpr, name))])
def test_every_int_and_float_field_holds_a_python_number(name):
    built = name in BUILT
    obj = (_built_from_numpy if built else _made_from_numpy)(name)
    wrong = []
    for field, kind in _scalar_fields(type(obj)).items():
        value = getattr(obj, field)
        want = 2 if kind.startswith("int") else 0.5
        if value is None and kind.endswith("| None") and not built:
            continue
        if type(value).__name__ != kind.removesuffix(" | None") or (
                built and value != want):
            wrong.append(f"{field}: {value!r}")
    assert wrong == []
