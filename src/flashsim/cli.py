"""Command-line driver: load config, parse trace, validate, run, report.

Exit codes: 0 clean run, 1 constraint warnings under --strict, 2 input
errors (bad files, malformed trace/config, structurally invalid commands)
and a report that cannot be written. Diagnostics go to stderr with
file:line context; the report is streamed to stdout or the --out file.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from .engine import Policy, idle_accounting, replay, run
from .errors import (
    ConfigError,
    FlashSimError,
    ModelEvaluationError,
    Severity,
    TraceParseError,
    ValidationFatal,
)
from .stats import build_report, write_report
# unused here: perfbench's tracer hooks cli.emit until it hooks write_report
# and counts the bytes written (ROADMAP item 1)
from .stats import emit  # noqa: F401
from .trace_io import parse_config, parse_trace


# Each option `_build_parser` declares: whether it takes a value.
_OPTIONS = {
    "--config": True,
    "--trace": True,
    "--format": True,
    "--out": True,
    "--events": False,
    "--check": False,
    "--strict": False,
}
_FORMATS = ("structured", "table")


def _build_parser():
    """The argparse parser of the command line. argparse is imported only
    here, since a canonical argv never needs it (see `_read_argv`)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="flashsim",
        description="Trace-driven latency and energy simulator for NAND flash subsystems.",
    )
    parser.add_argument("--config", required=True, help="configuration file (INI)")
    parser.add_argument("--trace", required=True, help="command trace file")
    parser.add_argument(
        "--format",
        choices=_FORMATS,
        default="structured",
        help="report format (default: structured JSON)",
    )
    parser.add_argument(
        "--events", action="store_true", help="append the per-event log to the report"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the trace against the config and constraints; no simulation",
    )
    parser.add_argument(
        "--strict", action="store_true", help="treat constraint warnings as fatal"
    )
    parser.add_argument("--out", help="write the report to this file instead of stdout")
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The options of a canonical argv, as `_build_parser` reads them, or
    None for any other argv.

    Canonical: every option by its full name, each value as `--opt value`
    or `--opt=value`, no separate value that is empty or starts with `-`,
    every `--format` one of its choices, and both `--config` and `--trace`
    given. What is left (help, abbreviations, `--`, and every usage error)
    is argparse's to read, print and exit on.
    """
    values = {
        "format": "structured",
        "events": False,
        "check": False,
        "strict": False,
        "out": None,
    }
    rest = iter(argv)
    for arg in rest:
        option, equals, value = arg.partition("=")
        takes_value = _OPTIONS.get(option)
        if takes_value is None or (equals and not takes_value):
            return None
        if not takes_value:
            values[option[2:]] = True
            continue
        if not equals:
            value = next(rest, "")
            if not value or value[0] == "-":
                return None
        if option == "--format" and value not in _FORMATS:
            return None  # argparse checks each one given, not just the last
        values[option[2:]] = value
    if "config" not in values or "trace" not in values:
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    err = sys.stderr

    config_text = _read(args.config, "config", err)
    if config_text is None:
        return 2
    trace_text = _read(args.trace, "trace", err)
    if trace_text is None:
        return 2

    try:
        config = parse_config(config_text)
    except ConfigError as exc:
        where = args.config if exc.line is None else f"{args.config}:{exc.line}"
        print(f"{where}: {exc}", file=err)
        return 2

    # From the trace's parse to the report's last write, memory grows with
    # the trace and no command leaves a reference cycle, so the cyclic
    # collector would only rescan the parsed trace again and again. It is
    # paused for that span and turned back on, if it was on, however the
    # span ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _pipeline(args, config, trace_text, err)
    finally:
        if collecting:
            gc.enable()


def _pipeline(args, config, trace_text: str, err) -> int:
    """Parse the trace, then check it or simulate it and write the report;
    the exit code."""
    try:
        trace = parse_trace(trace_text, config.geometry)
    except TraceParseError as exc:
        for diag in exc.diagnostics:
            print(f"{args.trace}:{diag.line}: {diag.message}", file=err)
        return 2

    policy = config.policy._replace(strict=True) if args.strict else config.policy

    if args.check:
        return _check_only(trace, config, policy, args.trace, err)

    try:
        result = run(
            trace,
            config.geometry,
            config.supported,
            config.models,
            policy,
            event_log=args.events,
        )
        _print_violations(result.warnings, args.trace, err)
        idle = idle_accounting(result, config.geometry, config.models)
        report = build_report(result, idle)
    except ValidationFatal as exc:
        _print_violations(exc.violations, args.trace, err)
        if any(v.severity is Severity.ERROR for v in exc.violations):
            return 2
        return 1  # warnings escalated by strict policy
    except ModelEvaluationError as exc:
        where = args.trace if exc.line is None else f"{args.trace}:{exc.line}"
        print(f"{where}: error: {exc}", file=err)
        return 2
    except FlashSimError as exc:
        print(f"{args.trace}: {exc}", file=err)
        return 2

    try:
        if args.out:
            with open(args.out, "w") as out:
                write_report(report, out, args.format)
        else:
            write_report(report, sys.stdout, args.format)
            sys.stdout.flush()
    except OSError as exc:
        print(f"{args.out or '<stdout>'}: cannot write report: {exc.strerror}", file=err)
        if not args.out:
            # what stays buffered would fail again, loudly, when Python exits
            sys.stdout = open(os.devnull, "w")
        return 2
    return 0


def _read(path: str, what: str, err) -> str | None:
    """The file's text, or None after printing why it cannot be read."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    print(f"{path}: cannot read {what}: {reason}", file=err)
    return None


def _check_only(trace, config, policy: Policy, trace_path: str, err) -> int:
    """Replay the constraint checks over every command; emit no report."""
    findings = [
        v
        for _, violations in replay(trace, config.geometry, config.supported, policy)
        for v in violations
    ]
    _print_violations(findings, trace_path, err)
    errors = sum(1 for v in findings if v.severity is Severity.ERROR)
    warnings = len(findings) - errors
    print(
        f"checked {len(trace)} commands: {errors} errors, {warnings} warnings",
        file=err,
    )
    if errors:
        return 2
    if warnings and policy.strict:
        return 1
    return 0


def _print_violations(violations, trace_path: str, err) -> None:
    write = err.write  # one call per line; print() makes two
    for v in violations:
        where = f"{trace_path}:{v.line}: " if v.line is not None else f"{trace_path}: "
        write(f"{where}{v.severity.value}: {v.message} [{v.rule.value}]\n")


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
