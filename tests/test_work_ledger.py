"""The committed work ledger is current: every run does the work it records.

A change that moves a value regenerates ``tests/work_ledger.json`` with
``PYTHONPATH=src python tests/work_ledger.py --write`` and lists the
before -> after of each moved value in CHANGES.md.
"""

import json

from robustpr import solver
from work_ledger import LEDGER, SEEDS, SHAPES, _solve, _solve_entry, ledger, render


def test_work_ledger_is_current():
    recorded = json.loads(LEDGER.read_text(encoding="utf-8"))
    current = json.loads(render(ledger()))
    moved = [f"{name}: {recorded.get(name)} -> {current.get(name)}"
             for name in sorted(recorded.keys() | current.keys())
             if recorded.get(name) != current.get(name)]
    assert moved == [], "ledger entries moved; regenerate and list them:\n" + \
        "\n".join(moved)


def test_ledger_file_is_in_its_written_form():
    text = LEDGER.read_text(encoding="utf-8")
    assert text == render(json.loads(text))


def test_recorded_solves_count_the_calls_they_made(monkeypatch):
    # a solve's F(x0) and each trial evaluate F once; each prox is one call
    recorded = json.loads(LEDGER.read_text(encoding="utf-8"))
    calls = {}
    for name in ("_evaluate", "_half_threshold"):
        def counted(*args, name=name, inner=getattr(solver, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(solver, name, counted)
    for shape in SHAPES:
        for seed in SEEDS:
            calls.update(_evaluate=0, _half_threshold=0)
            _solve_entry(*_solve(shape, seed))
            entry = recorded[f"solve/{shape}/{seed}"]
            assert (entry["trials"], entry["prox_calls"]) == (
                calls["_evaluate"] - 1, calls["_half_threshold"]), (shape, seed)


def test_small_alpha_solves_end_on_the_true_support():
    # at alpha = 0.00425 the natural step is far above 1; each recorded run
    # must reach the minimizer's support, not stop Converged short of it
    recorded = json.loads(LEDGER.read_text(encoding="utf-8"))
    for seed in SEEDS:
        entry = recorded[f"solve/t3-small-alpha/{seed}"]
        assert (entry["support_missed"], entry["support_extra"],
                entry["termination"]) == (0, 0, "Converged"), seed
