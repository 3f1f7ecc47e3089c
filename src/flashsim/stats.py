"""Aggregation of run output into machine- and human-readable reports.

Accumulation discipline: the report's total energy is defined as the sum of
the per-event-kind totals plus the sum of the per-resource idle totals, each
total accumulated left-to-right (event-kind declaration order; resources in
sorted order). The conservation identity
``total == sum(kind totals) + sum(idle totals)`` is therefore exact, not
approximate, and is asserted on every build. Percentiles use the
nearest-rank definition. All report content is emitted in a fixed,
documented order so identical runs produce identical bytes. A report holds
the run's event log exactly when the run kept one, and is written with it
exactly then. Rows are written to the stream as they are rendered, one
command's event rows per write. The log's rows are written from its
columns (`EventLog`): each step of a compiled shape, each resource and each
priced pair is rendered once, a target once per command, and a start per
event.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .commands import CommandKind, EventKind
from .engine import CommandResult, EventLog, RunResult, ScheduledEvent
from .errors import ModelEvaluationError, Rule, Violation
from .topology import ADDRESS_FORMAT, Resource

REPORT_SCHEMA = "flashsim-report v1"

PERCENTILES = (50, 95, 99)


class KindStats(NamedTuple):
    kind: CommandKind
    count: int
    mean_us: float
    min_us: float
    max_us: float
    percentiles_us: tuple[float, ...]  # matches PERCENTILES


class ResourceUsage(NamedTuple):
    resource: Resource
    busy_us: float
    utilization: float  # busy / makespan, in [0, 1]
    idle_energy_uj: float


class Report(NamedTuple):
    """A run's aggregates; `commands` and `events` are the run's own records.

    `events` is the run's `schedule`, or None when the run kept no event
    log. A report built by hand may hold any sequence of `ScheduledEvent`s
    there, numbered as a run numbers them.
    """

    command_count: int
    makespan_us: float
    commands: Sequence[CommandResult]
    kind_stats: tuple[KindStats, ...]
    energy_by_kind: tuple[tuple[EventKind, float], ...]
    event_energy_uj: float
    idle_energy_uj: float
    total_energy_uj: float
    usage: tuple[ResourceUsage, ...]
    warning_counts: tuple[tuple[Rule, int], ...]
    warnings: tuple[Violation, ...]
    events: Sequence[ScheduledEvent] | None


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    """Nearest-rank percentile of an ascending, non-empty sample."""
    rank = math.ceil(percentile / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def build_report(
    run: RunResult, idle: Mapping[Resource, float] | None = None
) -> Report:
    """Aggregate a completed run (plus optional idle energies) into a Report.

    Reads the run's results and warnings once each; the per-kind energy
    totals are the run's own. It raises ModelEvaluationError when an energy
    total overflows to infinity.
    """
    idle = idle or {}

    latencies: dict[CommandKind, list[float]] = {}
    for r in run.results:
        latencies.setdefault(r.kind, []).append(r.latency_ns / 1000)
    kind_stats = []
    for kind in CommandKind:
        values = latencies.get(kind)
        if values is None:
            continue
        values.sort()
        kind_stats.append(
            KindStats(
                kind,
                len(values),
                sum(values) / len(values),
                values[0],
                values[-1],
                tuple(nearest_rank(values, p) for p in PERCENTILES),
            )
        )

    energy_by_kind = run.energy_by_kind
    event_energy = 0.0
    for _, kind_total in energy_by_kind:
        event_energy += kind_total

    idle_energy = 0.0
    for resource in sorted(idle):
        idle_energy += idle[resource]

    makespan_us = run.makespan_ns / 1000
    busy = run.busy_ns
    usage = []
    for resource in sorted(set(busy) | set(idle)):
        busy_us = busy.get(resource, 0) / 1000
        idle_uj = idle.get(resource, 0.0)
        if busy_us == 0 and idle_uj == 0:
            continue  # untouched resources with no idle cost stay out of the report
        utilization = busy_us / makespan_us if makespan_us > 0 else 0.0
        usage.append(ResourceUsage(resource, busy_us, utilization, idle_uj))

    warnings = tuple(run.warnings)
    rule_counts = Counter(w.rule for w in warnings)

    report = Report(
        command_count=len(run.results),
        makespan_us=makespan_us,
        commands=run.results,
        kind_stats=tuple(kind_stats),
        energy_by_kind=energy_by_kind,
        event_energy_uj=event_energy,
        idle_energy_uj=idle_energy,
        total_energy_uj=event_energy + idle_energy,
        usage=tuple(usage),
        warning_counts=tuple(
            (rule, rule_counts[rule]) for rule in Rule if rule in rule_counts
        ),
        warnings=warnings,
        events=run.schedule if run.event_log else None,
    )
    _reject_overflow(report)
    _assert_conserved(report)
    return report


def _reject_overflow(report: Report) -> None:
    """Raise if an energy total overflowed, naming the first part that did.

    Event and idle energies are >= 0, so the total is finite exactly when
    every part of it is.
    """
    if math.isfinite(report.total_energy_uj):
        return
    parts = [
        (f"energy of {kind.value} events", value)
        for kind, value in report.energy_by_kind
    ]
    parts.append(("energy of all events", report.event_energy_uj))
    parts += [(f"idle energy of {u.resource.label}", u.idle_energy_uj) for u in report.usage]
    parts.append(("idle energy of all resources", report.idle_energy_uj))
    parts.append(("total energy", report.total_energy_uj))
    name, value = next((n, v) for n, v in parts if not math.isfinite(v))
    raise ModelEvaluationError(f"[power] {name}", f"overflows to {value}")


def _assert_conserved(report: Report) -> None:
    total = 0.0
    for _, kind_total in report.energy_by_kind:
        total += kind_total
    total += report.idle_energy_uj
    if total != report.total_energy_uj:  # pragma: no cover - identity by construction
        raise AssertionError("energy breakdown does not reproduce the total")


def write_report(report: Report, file: TextIO, format: str = "structured") -> None:
    """Render a report into the text stream `file` as it goes, one row per
    write (one command's event rows per write) and the stream doing the
    buffering; identical reports always write identical bytes.

    The run's event log is appended exactly when the report has one
    (`report.events` is not None); `report._replace(events=None)` renders a
    logged report without it. An unknown format raises ValueError before
    anything is written.
    """
    if format == "structured":
        _write_structured(report, file.write)
    elif format == "table":
        _write_table(report, file.write)
    else:
        raise ValueError(f"unknown report format '{format}'")


def emit(report: Report, format: str = "structured") -> str:
    """The text `write_report` writes, as one string."""
    out = io.StringIO()
    write_report(report, out, format)
    return out.getvalue()


# Below 10**15 ns the exact decimal ns / 1000 has at most 15 significant
# digits. No other decimal that short reads back as the same double, so it
# is the shortest text that does, which is what float.__repr__ writes (and
# without an exponent, from 0.001 to below 10**12). At and above 10**15 ns
# the decimal may need more digits, and repr may switch to exponent form.
_EXACT_US_LIMIT_NS = 10**15
# the fraction of a microsecond for each ns % 1000, as repr ends it
_NS_FRACTIONS = tuple(
    "." + ("%03d" % ns).rstrip("0") if ns else ".0" for ns in range(1000)
)


def us_repr(ns: int) -> str:
    """``repr(ns / 1000)``, computed from the integer nanoseconds."""
    if 0 <= ns < _EXACT_US_LIMIT_NS:
        return "%d%s" % (ns // 1000, _NS_FRACTIONS[ns % 1000])
    return repr(ns / 1000)


def _json_float(value: float) -> str:
    """`value` as json.dumps writes it: float.__repr__ when finite."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _json_int(value: int | None) -> str:
    return "null" if value is None else "%d" % value


# The rows of the report's arrays, each laid out exactly as
# json.dumps(..., indent=2) lays it out and led by the comma that separates
# it from the row before. Strings come quoted by encode_basestring_ascii,
# the encoder json.dumps uses by default; numbers come pre-rendered.
_COMMAND_ROW = (
    ",\n    {\n"
    '      "sequence_id": %d,\n'
    '      "kind": %s,\n'
    '      "arrival_us": %s,\n'
    '      "completion_us": %s,\n'
    '      "latency_us": %s,\n'
    '      "energy_uj": %s,\n'
    '      "warning_count": %d\n'
    "    }"
)
_WARNING_ROW = (
    ",\n    {\n"
    '      "rule": %s,\n'
    '      "severity": %s,\n'
    '      "message": %s,\n'
    '      "sequence_id": %s,\n'
    '      "line": %s\n'
    "    }"
)
# An event row is written from its parts: its command's head, its step's
# event id and kind, its target, its resource, its start and the tail that
# its priced (duration, energy) pair renders to.
_EVENT_HEAD = ',\n    {\n      "sequence_id": %d,\n      "event_id": '
_EVENT_STEP = '%d,\n      "kind": %s,\n      "target": '
# a target's text is quoted as it is, as digits and dots need no escaping
_EVENT_TARGET = '"' + ADDRESS_FORMAT + '",\n      "resource": '
_EVENT_RESOURCE = ',\n      "start_us": '
_EVENT_TAIL = ',\n      "duration_us": %s,\n      "energy_uj": %s\n    }'


def _write_array(write: Callable[[str], object], rows: Iterator[str]) -> None:
    """Write a top-level key's array of `rows`, each led by a comma."""
    first = next(rows, None)
    if first is None:
        write("[]")
        return
    write("[" + first[1:])  # the first row follows "[", not a comma
    for row in rows:
        write(row)
    write("\n  ]")


def _events_of(report: Report) -> EventLog:
    """The report's event log as columns; a hand-built report's sequence of
    `ScheduledEvent`s is read into them."""
    events = report.events
    return events if isinstance(events, EventLog) else EventLog.of(events)


# Tails are cached by the identity of their priced pair, as floats that
# compare equal may render differently (-0.0 and 0.0). The log keeps every
# pair alive, so no identity is reused while a log is written. Pricing
# returns a new pair for each input it evaluates, so the cache is emptied
# when it holds this many tails.
_TAILS_KEPT = 1024


def _event_rows(log: EventLog) -> Iterator[str]:
    """The structured event rows of each command, joined, from the log's
    columns. Each step of a compiled shape, each resource and each priced
    pair is rendered once, and each target once per command."""
    join = "".join
    resources = [_quote(r.label) + _EVENT_RESOURCE for r in log.resources]
    resources.append("null" + _EVENT_RESOURCE)  # slot -1: no resource
    shapes: dict[int, list[tuple[str, int]]] = {}
    tails: dict[int, str] = {}
    events = zip(log.starts, log.prices, log.slots)
    for sequence_id, steps, targets, count in zip(
        log.sequence_ids, log.steps, log.targets, log.counts()
    ):
        head = _EVENT_HEAD % sequence_id
        shape = shapes.get(id(steps))
        if shape is None:
            shape = shapes[id(steps)] = [
                (_EVENT_STEP % (event_id, _quote(step[0]._value_)), step[1])
                for event_id, step in enumerate(steps)
            ]
        texts = [_EVENT_TARGET % target for target in targets]
        parts: list[str] = []
        add = parts.extend
        # a command's events are its first `count` steps; zip reads a step
        # before an event, so it leaves the next command's events unread
        for (step, index), (start, pair, slot) in zip(islice(shape, count), events):
            tail = tails.get(id(pair))
            if tail is None:
                if len(tails) == _TAILS_KEPT:
                    tails.clear()
                tail = tails[id(pair)] = _EVENT_TAIL % (
                    us_repr(pair[0]), _json_float(pair[1])
                )
            if 0 <= start < _EXACT_US_LIMIT_NS:  # us_repr(start), inlined
                whole, ns = divmod(start, 1000)
                add((head, step, texts[index], resources[slot], str(whole),
                     _NS_FRACTIONS[ns], tail))
            else:
                add((head, step, texts[index], resources[slot], repr(start / 1000), tail))
        yield join(parts)


def _write_structured(report: Report, write: Callable[[str], object]) -> None:
    # the three arrays that grow with the trace are written from row
    # templates; json.dumps renders the other keys, in two runs around them
    scalars = json.dumps(
        {
            "schema": REPORT_SCHEMA,
            "command_count": report.command_count,
            "makespan_us": report.makespan_us,
            "total_energy_uj": report.total_energy_uj,
            "event_energy_uj": report.event_energy_uj,
            "idle_energy_uj": report.idle_energy_uj,
        },
        indent=2,
    )
    summaries = json.dumps(
        {
            "latency_by_kind": [
                {
                    "kind": s.kind.value,
                    "count": s.count,
                    "mean_us": s.mean_us,
                    "min_us": s.min_us,
                    "max_us": s.max_us,
                    **{
                        f"p{p}_us": value
                        for p, value in zip(PERCENTILES, s.percentiles_us)
                    },
                }
                for s in report.kind_stats
            ],
            "energy_by_event_kind": [
                {"kind": kind.value, "energy_uj": value}
                for kind, value in report.energy_by_kind
            ],
            "resources": [
                {
                    "resource": u.resource.label,
                    "busy_us": u.busy_us,
                    "utilization": u.utilization,
                    "idle_energy_uj": u.idle_energy_uj,
                }
                for u in report.usage
            ],
            "warning_counts": [
                {"rule": rule.value, "count": count}
                for rule, count in report.warning_counts
            ],
        },
        indent=2,
    )
    # each dumped object's keys, without its braces, are top-level keys here
    write(scalars[:-2] + ',\n  "commands": ')
    _write_array(
        write,
        (
            _COMMAND_ROW
            % (
                c.sequence_id,
                _quote(c.kind._value_),
                us_repr(c.arrival_ns),
                us_repr(c.completion_ns),
                us_repr(c.latency_ns),
                _json_float(c.energy_uj),
                len(c.warnings),
            )
            for c in report.commands
        ),
    )
    write("," + summaries[1:-2] + ',\n  "warnings": ')
    _write_array(
        write,
        (
            _WARNING_ROW
            % (
                _quote(w.rule._value_),
                _quote(w.severity._value_),
                _quote(w.message),
                _json_int(w.sequence_id),
                _json_int(w.line),
            )
            for w in report.warnings
        ),
    )
    if report.events is not None:
        write(',\n  "events": ')
        _write_array(write, _event_rows(_events_of(report)))
    write("\n}\n")


def _write_table(report: Report, write: Callable[[str], object]) -> None:
    # the summary's size is set by the kinds, resources and rules, so it is
    # written whole; the warning lines and the event log are rows
    lines = [
        "flashsim report",
        "===============",
        f"commands: {report.command_count}   makespan: {report.makespan_us:.3f} us   "
        f"total energy: {report.total_energy_uj:.3f} uJ "
        f"(events {report.event_energy_uj:.3f} + idle {report.idle_energy_uj:.3f})",
    ]
    if report.kind_stats:
        lines += ["", "latency by command kind (us)"]
        header = f"{'kind':<24}{'count':>6}{'mean':>12}{'min':>12}{'max':>12}"
        header += "".join(f"{'p' + str(p):>12}" for p in PERCENTILES)
        lines.append(header)
        for s in report.kind_stats:
            row = f"{s.kind.value:<24}{s.count:>6}{s.mean_us:>12.3f}{s.min_us:>12.3f}{s.max_us:>12.3f}"
            row += "".join(f"{v:>12.3f}" for v in s.percentiles_us)
            lines.append(row)
    if report.energy_by_kind:
        lines += ["", "energy by event kind (uJ)"]
        for kind, value in report.energy_by_kind:
            lines.append(f"{kind.value:<24}{value:>12.3f}")
    if report.usage:
        lines += ["", "resource usage"]
        lines.append(f"{'resource':<24}{'busy us':>12}{'util':>8}{'idle uJ':>12}")
        for u in report.usage:
            lines.append(
                f"{u.resource.label:<24}{u.busy_us:>12.3f}{u.utilization:>8.3f}"
                f"{u.idle_energy_uj:>12.3f}"
            )
    if report.warning_counts:
        lines += ["", f"warnings ({len(report.warnings)})"]
        for rule, count in report.warning_counts:
            lines.append(f"{rule.value:<24}{count:>6}")
    write("\n".join(lines) + "\n")
    if report.warning_counts:
        for line in _warning_lines(report.warnings):
            write(line)
    if report.events is not None:
        write("\nevent log (start us, duration us, kind, target, resource, energy uJ)\n")
        for lines in _event_lines(_events_of(report)):
            write(lines)


def _event_lines(log: EventLog) -> Iterator[str]:
    """The table's event lines of each command, joined, from the log's
    columns, each field padded to its column. Each step of a compiled
    shape, each resource and each priced pair is rendered once, and each
    target once per command."""
    join = "".join
    resources = [f"{r.label:<16}" for r in log.resources]
    resources.append(f"{'-':<16}")  # slot -1: no resource
    shapes: dict[int, list[tuple[str, int]]] = {}
    tails: dict[int, tuple[str, str]] = {}
    events = zip(log.starts, log.prices, log.slots)
    for steps, targets, count in zip(log.steps, log.targets, log.counts()):
        shape = shapes.get(id(steps))
        if shape is None:
            shape = shapes[id(steps)] = [
                (f"  {step[0]._value_:<18}", step[1]) for step in steps
            ]
        texts = [f"{ADDRESS_FORMAT % target:<16}" for target in targets]
        parts: list[str] = []
        add = parts.extend
        for (step, index), (start, pair, slot) in zip(islice(shape, count), events):
            tail = tails.get(id(pair))
            if tail is None:
                if len(tails) == _TAILS_KEPT:
                    tails.clear()
                duration, energy = pair
                tail = tails[id(pair)] = (
                    f"{duration / 1000:>12.3f}", f"{energy:>10.3f}\n"
                )
            add(("%12.3f" % (start / 1000), tail[0], step, texts[index], resources[slot],
                 tail[1]))
        yield join(parts)


def _warning_lines(warnings: Iterable[Violation]) -> Iterator[str]:
    for w in warnings:
        where = f"line {w.line}: " if w.line is not None else ""
        yield f"  {where}{w.message} [{w.rule.value}]\n"
