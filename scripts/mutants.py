#!/usr/bin/env python3
"""Plant each listed mutant in a copy of the repository and run the tests on it.

    python3 scripts/mutants.py

Run from anywhere inside the repository. The mutants are listed in
``scripts/mutants.json``: each entry names the mutant (``name``), the file it
edits (``file``, relative to the repository root), the exact source text it
replaces (``find``, which must occur exactly once in that file), the text
put in its place (``replace``) and why it is on the list (``reason``).

The working tree, without ``.git`` and caches, is copied once to a
temporary directory. Each mutant is then planted there on its own and
``python -m pytest -x -q -p no:cacheprovider tests`` runs against the
copy's ``src``, without ``tests/test_mutant_list.py``: that test checks
that every entry's text occurs exactly once, which a planted mutant breaks
by construction, so it would kill every mutant. A mutant is killed when
tests fail (pytest exit 1), and the first test that failed is named; it
survived when the run passes. Any other pytest exit, such as 2 for a
collection error or 4 when ``conftest.py`` cannot import the package,
means the mutant broke the run before its tests could judge it: the row
says "broke the run (pytest exit N)", and the mutant must be planted
another way. So does a test module that fails at import: pytest exits 1,
but its first ``ERROR`` line names the module, with no ``::`` test id, and
the row says "broke the run (tests/<module>.py did not import)". Prints
one row per mutant, its name and what became of it, and exits 1 when a
mutant survives or breaks the run. Before any test runs, every entry is
checked: when an entry's file is missing or its text does not occur
exactly once, the script names the entry and exits 1.
The copy goes where ``tempfile`` puts temporary directories (``TMPDIR``)
and is removed at the end.

Stdlib only. The mutants run one after another; a run that passes costs a
whole test-suite run (about 40 s), so the script is not part of the tests.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "scripts" / "mutants.json"
# every test but the guard on this list, which no planted mutant passes
PYTEST = (
    "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--ignore", "tests/test_mutant_list.py", "tests",
)
RUN_TIMEOUT_S = 900
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"
)
# pytest's summary line for the test that failed first
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def problem(root: Path, mutant: dict) -> str | None:
    """Why `mutant` cannot be planted in the tree at `root`, or None."""
    path = root / mutant["file"]
    if not path.is_file():
        return f"no file {mutant['file']}"
    found = path.read_text(encoding="utf-8").count(mutant["find"])
    if found != 1:
        return f"its text occurs {found} times in {mutant['file']}"
    return None


def verdict(copy: Path, mutant: dict) -> str:
    """Plant `mutant` in `copy`, run the tests, restore the file and say
    what became of the mutant."""
    path = copy / mutant["file"]
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant["find"], mutant["replace"]), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, *PYTEST],
            cwd=copy,
            env=dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"killed (no result in {RUN_TIMEOUT_S} s)"
    finally:
        path.write_text(original, encoding="utf-8")
    return outcome(proc.returncode, proc.stdout)


def outcome(returncode: int, stdout: str) -> str:
    """What became of a mutant whose test run exited with `returncode`
    and printed `stdout`."""
    if returncode == 0:
        return "survived"
    if returncode != 1:
        return f"broke the run (pytest exit {returncode})"
    first = FAILED.search(stdout)
    if first is None:
        return "killed by pytest exit 1"
    if "::" not in first.group(1):  # a module that failed at import
        return f"broke the run ({first.group(1)} did not import)"
    return f"killed by {first.group(1)}"


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    problems = [(m["name"], problem(ROOT, m)) for m in mutants]
    problems = [(name, why) for name, why in problems if why]
    for name, why in problems:
        print(f"problem  {name}: {why}")
    if problems:
        print(f"{len(mutants)} mutants, {len(problems)} problems")
        return 1
    survived = broke = 0
    with tempfile.TemporaryDirectory(prefix="flashsim-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        for mutant in mutants:
            result = verdict(copy, mutant)
            survived += result == "survived"
            broke += result.startswith("broke")
            print(f"{mutant['name']:<28} {result}", flush=True)
    print(f"{len(mutants)} mutants, {survived} survived, {broke} broke the run")
    return 1 if survived or broke else 0


if __name__ == "__main__":
    sys.exit(main())
