"""Every mutant that `scripts/mutants.json` lists can still be planted.

`scripts/mutants.py` plants a mutant by replacing one exact source text, and
stops at its entry check when an entry's file is gone or its text does not
occur exactly once. The script is not part of the tests, since each mutant
costs a whole test-suite run, so a refactor that moves mutated code would
leave its entry stale and nothing here would fail. This guard runs the
script's own entry check on every entry. The script is loaded from its
source, so no bytecode is written under `scripts/`. The script leaves this
file out of the runs it makes on a planted mutant, which fails it by
construction. This file also pins how the script judges a test run.
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


# pytest's last lines under -x -q: a test that fails, and a test module that
# raises at import
_FAILED_OUTPUT = """\
=========================== short test summary info ============================
FAILED tests/test_b.py::test_b - assert 1 == 2
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
1 failed in 1.04s
"""
_IMPORT_ERROR_OUTPUT = """\
_______________________ ERROR collecting tests/test_a.py _______________________
tests/test_a.py:1: in <module>
    raise ValueError("boom")
E   ValueError: boom
=========================== short test summary info ============================
ERROR tests/test_a.py - ValueError: boom
!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!
1 error in 1.25s
"""


@pytest.mark.parametrize(
    "returncode,stdout,expected",
    [
        (1, _FAILED_OUTPUT, "killed by tests/test_b.py::test_b"),
        (1, _IMPORT_ERROR_OUTPUT, "broke the run (tests/test_a.py did not import)"),
        (4, "", "broke the run (pytest exit 4)"),
    ],
    ids=["failed-test", "module-did-not-import", "exit-4"],
)
def test_only_a_failing_test_kills_a_mutant(returncode, stdout, expected):
    assert MUTANTS.outcome(returncode, stdout) == expected
