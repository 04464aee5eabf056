"""The committed work ledger is current: every run does the work it records.

A change that moves a value regenerates ``tests/work_ledger.json`` with
``PYTHONPATH=src python tests/work_ledger.py --write`` and lists the
before -> after of each moved value in CHANGES.md.
"""

import json

from work_ledger import LEDGER, ledger, render


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
