"""Every mutant that `scripts/mutants.json` lists can still be planted.

`scripts/mutants.py` plants a mutant by replacing one exact source text, and
stops at its entry check when an entry's file is gone or its text does not
occur exactly once. The script is not part of the tests, since each mutant
costs a whole test-suite run, so a refactor that moves mutated code would
leave its entry stale and nothing here would fail. This guard runs the
script's own entry check on every entry. The script is loaded from its
source, so no bytecode is written under `scripts/`. The script leaves this
file out of the runs it makes on a planted mutant, which fails it by
construction.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def _load_script() -> types.ModuleType:
    module = types.ModuleType("flashsim_mutants")
    module.__file__ = str(SCRIPT)
    exec(compile(SCRIPT.read_text(encoding="utf-8"), str(SCRIPT), "exec"), module.__dict__)
    return module


MUTANTS = _load_script()
ENTRIES = json.loads(MUTANTS.MUTANTS.read_text(encoding="utf-8"))


def test_the_script_reads_this_repository_and_leaves_this_guard_out():
    assert MUTANTS.ROOT == ROOT
    assert "tests/" + Path(__file__).name in MUTANTS.PYTEST


def test_each_mutant_is_named_once():
    names = [entry["name"] for entry in ENTRIES]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["name"] for entry in ENTRIES])
def test_every_listed_mutant_can_be_planted(entry):
    assert MUTANTS.problem(ROOT, entry) is None
