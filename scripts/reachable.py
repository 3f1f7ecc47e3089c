#!/usr/bin/env python3
"""List the functions under src/flashsim that no command-line run enters.

    python3 scripts/reachable.py

Run from anywhere inside the repository. ``flashsim.cli.main`` runs in this
process under ``sys.setprofile``, which records every function it enters,
over these inputs:

- each benchmark workload's config and trace (generated by
  ``perfbench/workloads.py``, imported with bytecode writing off, never
  written to) for seeds 1 and 2, under each of WORKLOAD_FLAGS;
- each trace of ``tests/data`` and ``sample/`` under each config of those
  two directories, under each of DATA_FLAGS;
- ``--help``, the one run that argparse reads (it prints the help, which
  is thrown away, and exits 0).

Every function defined in ``src/flashsim`` that no run enters must be listed
in ALLOWED with the reason it stays: an error path, a path for input no
data trace has, a name that perfbench's tracer hooks, or a documented
library name with a test that calls it as a library user would. Prints each unreached function with its reason, and
exits 1 when one is not listed, or when a listed name is reached or names no
function, so that the list stays exact. Stdlib only, Python 3.11 or later
(it matches code objects by ``co_qualname``); the runs take about 15 s, one
after another.
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

WORKLOAD_FLAGS = (
    (),
    ("--events",),
    ("--format", "table"),
    ("--format", "table", "--events"),
    ("--strict",),
    ("--check",),
    ("--check", "--strict"),
)
DATA_FLAGS = (
    (),
    ("--events",),
    ("--format", "table", "--events"),
    ("--strict",),
    ("--check",),
)
SEEDS = (1, 2)

ERROR = "error path"
HOOKED = "hooked by perfbench/tracer.py; goes with its hook (ROADMAP item 1)"
API = "documented library API, with a library-style test"

# module.qualname -> why a function no command-line run enters stays
ALLOWED = {
    "cli.entry": "the `flashsim` console script; it only wraps cli.main",
    # exceptions and messages for inputs the runs above do not have
    "errors.ConfigError.__init__": ERROR,
    "errors.TraceParseError.__init__": ERROR,
    "errors.ExpressionSyntaxError.__init__": ERROR,
    "errors.UnknownIdentifierError.__init__": ERROR,
    "errors.ModelEvaluationError.__init__": ERROR,
    "errors.ModelEvaluationError.located": ERROR,
    "expr._too_deep": ERROR,
    "models._out_of_range": ERROR,
    "models._overflow": ERROR,
    "trace_io._parse_address": ERROR + "; parse_trace's writer of address diagnostics, "
    "and its reader of a flat index, which no data trace has",
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
    "topology.decode": API + "; also the command line's reader of a flat trace index",
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


def cases(work: Path) -> list[list[str]]:
    """Every argv of the pass; writes the workload inputs under `work`."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    out = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            config, trace = work / f"{name}-{seed}.ini", work / f"{name}-{seed}.trace"
            config.write_text(workload.config)
            trace.write_text(workload.make_trace(seed, workload.commands))
            for flags in WORKLOAD_FLAGS:
                out.append(["--config", str(config), "--trace", str(trace), *flags])
    folders = (ROOT / "tests" / "data", ROOT / "sample")
    configs = [path for folder in folders for path in sorted(folder.glob("*.ini"))]
    traces = [path for folder in folders for path in sorted(folder.glob("*.trace"))]
    for config in configs:
        for trace in traces:
            for flags in DATA_FLAGS:
                out.append(["--config", str(config), "--trace", str(trace), *flags])
    out.append(["--help"])
    return out


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    functions = defined_functions()
    entered: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_qualname))

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="reachable-") as tmp:
        argvs = cases(Path(tmp))
        sys.setprofile(profile)
        try:
            # import inside the profile, so that what import runs counts
            import flashsim.cli

            for argv in argvs:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        flashsim.cli.main(argv)
                    except SystemExit as exc:  # argparse, after printing the help
                        if argv != ["--help"] or exc.code != 0:
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
