#!/usr/bin/env python3
"""List the functions under src/flashsim that no command-line run enters.

    python3 scripts/reachable.py

Run from anywhere inside the repository. ``flashsim.cli.main`` runs in this
process under ``sys.setprofile``, which records every function it enters,
over the argvs of ``scripts/same_bytes.py`` (its ``cases``) for seeds 1
and 2: every input of that script under each of its flag sets, each
benchmark workload's own argv, and each of its argv forms. The inputs it
generates are written to a temporary directory; the argv forms that
argparse answers (help and usage errors) print, which is thrown away, and
exit, and only they may.

Every function defined in ``src/flashsim`` that no run enters must be listed
in ALLOWED with the reason it stays: an error path, a path for input no
case has, a name that perfbench's tracer hooks, or a documented library
name with a test that calls it as a library user would. Prints each
unreached function with its reason, and exits 1 when one is not listed, or
when a listed name is reached or names no function, so that the list stays
exact. ``tests/test_reachable_list.py`` checks without a run that every
listed name is a function. Stdlib only, Python 3.11 or later (it matches
code objects by ``co_qualname``); the runs take about 10 s, one after
another.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flashsim"

SEEDS = [1, 2]

ERROR = "error path"
HOOKED = "hooked by perfbench/tracer.py; goes with its hook (ROADMAP item 1)"
API = "documented library API, with a library-style test"

# module.qualname -> why a function no command-line run enters stays
ALLOWED = {
    "cli.entry": "the `flashsim` console script; it only wraps cli.main",
    # exceptions and messages for inputs the runs above do not have
    "expr._too_deep": ERROR,
    "models._overflow": ERROR,
    # the pricing adapters and decomposition the tracer still hooks
    "models.EventContext.for_event": HOOKED,
    "models.ModelSet.latency_us": HOOKED,
    "models.ModelSet.energy_uj": HOOKED,
    "models.ModelSet._function": HOOKED + "; helper of latency_us/energy_uj",
    "expr.Expression.evaluate": HOOKED,
    "expr.Expression._compiled": HOOKED + "; helper of evaluate",
    "commands.decompose": HOOKED + "; also the event DAGs of tests/oracle.py",
    "topology.encode": HOOKED + "; " + API,
    # documented library names
    "commands.Command._check": API + "; the command line builds commands in C",
    "errors._checked_make": API
    + "; a checked record's _make, and so its _replace, which the command line never calls",
    # the methods every record shares, as a named tuple has them
    "errors._asdict": API,
    "errors._repr": API,
    "errors._getnewargs": API + "; copy and pickle call it",
    "commands.Command.__eq__": API,
    "commands.Command.__ne__": API,
    "commands.Command.__hash__": API,
    "topology.SubsystemState.page_state": API,
    "topology.SubsystemState.erase_count": API,
    "engine.ScheduledEvent.end_ns": API,
    # RunResult.schedule read as a sequence; the command line reads its columns
    "engine.EventLog.__len__": API + "; also perfbench's count of scheduled events",
    "engine.EventLog.__iter__": API,
    "engine.EventLog.__getitem__": API + "; reads the log in order through __iter__",
    "engine.EventLog.__eq__": API + "; also the equality of RunResults",
    "engine.EventLog.of": API + "; write_report's reader of a Report built by hand "
    "with a list of ScheduledEvents",
    "trace_io.emit_trace": API,
    "stats.emit": API + "; the command line streams through write_report, and "
    "the tracer hooks cli.emit (ROADMAP item 1)",
}


def defined_functions() -> dict[tuple[str, str], str]:
    """(file, qualname) -> module.qualname for every `def` in the package,
    with the qualname the function's code object carries."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    out[(str(path), qualname)] = f"{path.stem}.{qualname}"
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.dont_write_bytecode = True  # leave no __pycache__ in scripts/
    sys.path.insert(0, str(ROOT / "scripts"))
    import same_bytes

    functions = defined_functions()
    entered: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_qualname))

    sys.path.insert(0, str(ROOT / "src"))
    answered = [same_bytes.form_argv(form) for form in same_bytes.ANSWERED_FORMS]
    with tempfile.TemporaryDirectory(prefix="reachable-") as tmp:
        work = Path(tmp)
        argvs = [argv for _, argv in same_bytes.cases(work, SEEDS, work / "report.out")]
        sys.setprofile(profile)
        try:
            # import inside the profile, so that what import runs counts
            import flashsim.cli

            for argv in argvs:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        flashsim.cli.main(argv)
                    except SystemExit:  # argparse, after printing help or a usage error
                        if argv not in answered:
                            raise
        finally:
            sys.setprofile(None)

    reached = {name for key, name in functions.items() if key in entered}
    names = set(functions.values())
    unreached = sorted(names - reached)
    problems = 0
    for name in unreached:
        reason = ALLOWED.get(name)
        if reason is None:
            problems += 1
            print(f"UNLISTED  {name}")
        else:
            print(f"listed    {name}: {reason}")
    for name in sorted(ALLOWED):
        if name not in names:
            problems += 1
            print(f"UNKNOWN   {name}: listed, but no such function")
        elif name in reached:
            problems += 1
            print(f"REACHED   {name}: listed, but a run enters it")
    print(
        f"{len(names)} functions, {len(reached)} entered by {len(argvs)} runs, "
        f"{len(unreached)} not entered; {problems} problems"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
