"""Nothing in the package or its tests switches a warning off.

pyproject's ``filterwarnings = ["error"]`` makes every warning a test
failure; a ``warnings.simplefilter("ignore", ...)``,
``warnings.filterwarnings("ignore", ...)`` or
``pytest.mark.filterwarnings("ignore...")`` under ``src/`` or ``tests/``
would hide one instead.  Recording warnings, with
``catch_warnings(record=True)`` and ``simplefilter("always")``, stays
allowed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ignore_filters(path: Path):
    """(line, callee name) of each ``simplefilter`` or ``filterwarnings``
    call whose action, the first argument or ``action=``, starts with
    "ignore"."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name not in ("simplefilter", "filterwarnings"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        action = node.args[0] if node.args else keywords.get("action")
        if (isinstance(action, ast.Constant) and isinstance(action.value, str)
                and action.value.startswith("ignore")):
            yield node.lineno, name


def test_the_guard_finds_each_ignoring_filter(tmp_path):
    snippet = tmp_path / "filters.py"
    snippet.write_text(
        "warnings.simplefilter('ignore', RuntimeWarning)\n"
        "warnings.filterwarnings(action='ignore')\n"
        "pytestmark = pytest.mark.filterwarnings('ignore::DeprecationWarning')\n"
        "simplefilter('always')\n"
        "warnings.filterwarnings('error')\n")
    assert list(_ignore_filters(snippet)) == [
        (1, "simplefilter"), (2, "filterwarnings"), (3, "filterwarnings")]


def test_no_source_or_test_silences_a_warning():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    silenced = [f"{path.relative_to(ROOT)}:{line} {name}"
                for path in paths for line, name in _ignore_filters(path)]
    assert silenced == []
