"""Every function that `scripts/reachable.py` lists as unreached exists.

The script runs the command line over many inputs and fails when a listed
name is reached or names no function, but it is not part of the tests, so
a refactor that renames or deletes a listed function would leave a stale
entry that only the next run of the script shows. This guard checks the
list against the script's own reading of the package, with no run. The
script is loaded from its source, so no bytecode is written under
`scripts/`.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "reachable.py"


def _load_script() -> types.ModuleType:
    module = types.ModuleType("flashsim_reachable")
    module.__file__ = str(SCRIPT)
    exec(compile(SCRIPT.read_text(encoding="utf-8"), str(SCRIPT), "exec"), module.__dict__)
    return module


REACHABLE = _load_script()
DEFINED = set(REACHABLE.defined_functions().values())


@pytest.mark.parametrize("name", sorted(REACHABLE.ALLOWED))
def test_every_listed_name_is_a_function_of_the_package(name):
    assert name in DEFINED
