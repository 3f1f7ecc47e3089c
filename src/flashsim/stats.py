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
columns (`EventLog`): each step of a compiled shape is rendered once, with
the tail of its folded price, and so is each resource and each pair priced
per event; a command's targets (a cache command's pages, from its first
page's prefix) and its resources once per command; and a start per event.
"""

from __future__ import annotations

import io
import math
from _json import encode_basestring_ascii as _quote
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from itertools import islice, product, repeat

from .commands import CommandKind, EventKind
from .engine import CommandResult, EventLog, RunResult, ScheduledEvent
from .errors import ModelEvaluationError, Record, Rule, Violation
from .topology import ADDRESS_FORMAT, FlashAddress, Resource

REPORT_SCHEMA = "flashsim-report v1"

PERCENTILES = (50, 95, 99)


class KindStats(Record):
    kind: CommandKind
    count: int
    mean_us: float
    min_us: float
    max_us: float
    percentiles_us: tuple[float, ...]  # matches PERCENTILES


class ResourceUsage(Record):
    resource: Resource
    busy_us: float
    utilization: float  # busy / makespan, in [0, 1]
    idle_energy_uj: float


class Report(Record):
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


def write_report(report: Report, file: io.TextIOBase, format: str = "structured") -> None:
    """Render a report into the text stream `file` as it goes, one row per
    write (one command's event rows per write) and the stream doing the
    buffering; identical reports always write identical bytes.

    The run's event log is appended exactly when the report has one
    (`report.events` is not None); `report._replace(events=None)` renders a
    logged report without it. `format` is a key of `FORMATS`; an unknown
    format raises ValueError before anything is written.
    """
    writer = FORMATS.get(format)
    if writer is None:
        raise ValueError(f"unknown report format '{format}'")
    writer(report, file.write)


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
# the fraction of a microsecond for each ns % 1000, as repr ends it: the
# three digits after the point without their trailing zeros, or ".0". Built
# in C from the texts ".000" to ".999" in order, with no Python step per entry.
_NS_FRACTIONS = (
    ".0",
    *islice(
        map(str.rstrip, map("".join, product(".", *repeat("0123456789", 3))), repeat("0")),
        1,
        None,
    ),
)


def us_repr(ns: int) -> str:
    """``repr(ns / 1000)``, computed from the integer nanoseconds."""
    if 0 <= ns < _EXACT_US_LIMIT_NS:
        return "%d%s" % (ns // 1000, _NS_FRACTIONS[ns % 1000])
    return repr(ns / 1000)


def _json_float(value: float) -> str:
    """`value` as json.dumps writes it: float.__repr__ when finite."""
    if math.isfinite(value):
        return repr(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _json_text(value: object, indent: str = "\n") -> str:
    """`value`, a tree of dicts with str keys, lists, str, int, float, bool
    and None, as ``json.dumps(value, indent=2)`` writes it; `indent` is the
    newline and indentation that lead the line `value` starts on."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not value:
        return "[]"
    items = [_json_text(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]"


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
# its (duration, energy) pair renders to. A target's text is quoted as it
# is, as digits and dots need no escaping: its quotes end the step's part
# and start the resource's.
_EVENT_HEAD = ',\n    {\n      "sequence_id": %d,\n      "event_id": '
_EVENT_STEP = '%d,\n      "kind": %s,\n      "target": "'
_EVENT_RESOURCE = '",\n      "resource": %s,\n      "start_us": '
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


# Tails are cached by the identity of their pair, as floats that compare
# equal may render differently (-0.0 and 0.0). The log keeps every pair
# alive, so no identity is reused while a log is written. A folded pair is
# shared by every step of its kind and byte count, and its tail is kept
# with each shape that has it; the cap is for pairs priced per event, as
# pricing returns a new pair for each input it evaluates. The cache is
# emptied when it holds this many tails.
_TAILS_KEPT = 1024


def _tail_cache(render_tail: Callable[[tuple[int, float]], object]) -> Callable:
    """`render_tail`, cached by the identity of its pair."""
    tails: dict[int, object] = {}

    def tail_of(pair: tuple[int, float]) -> object:
        found = tails.get(id(pair))
        if found is None:
            if len(tails) == _TAILS_KEPT:
                tails.clear()
            found = tails[id(pair)] = render_tail(pair)
        return found

    return tail_of


def _shape(
    steps: Sequence[tuple],
    render_step: Callable[[int, EventKind], str],
    tail_of: Callable[[tuple[int, float]], object],
) -> tuple[list[tuple], list[int]]:
    """A compiled shape's rows as the writers take them: for each step, its
    rendered step text, its target index, its use and the tail its folded
    pair renders to, or None for a step priced per event; and, for each
    step, how many targets the steps up to it read."""
    rows = []
    reaches = []
    reach = 0
    for event_id, step in enumerate(steps):
        kind, index, use, pair = step[:4]
        rows.append(
            (render_step(event_id, kind), index, use, None if pair is None else tail_of(pair))
        )
        reach = max(reach, index + 1)
        reaches.append(reach)
    return rows, reaches


def _target_texts(targets: Sequence[FlashAddress], reach: int) -> list[str]:
    """The address texts of the targets a command's events read, the first
    `reach`: its operands', or, for a cache command, whose steps read past
    its one operand, each page of its extent's, written after its first
    page's prefix."""
    if reach <= len(targets):
        return [ADDRESS_FORMAT % target for target in targets]
    first = targets[0]
    prefix = ADDRESS_FORMAT[:-2] % first[:5]  # its first five indices, each with its dot
    return ["%s%d" % (prefix, page) for page in range(first[5], first[5] + reach)]


def _event_rows(log: EventLog) -> Iterator[str]:
    """The structured event rows of each command, joined, from the log's
    columns. Each step of a compiled shape, with its folded pair's tail,
    and each resource and each priced pair is rendered once, a command's
    targets and resources once per command, and a start per event."""
    join = "".join
    resources = [_EVENT_RESOURCE % _quote(r.label) for r in log.resources]
    resources.append(_EVENT_RESOURCE % "null")  # slot -1: no resource
    shapes: dict[int, tuple[list[tuple], list[int]]] = {}
    tail_of = _tail_cache(_structured_tail)
    next_price = iter(log.prices).__next__
    starts = iter(log.starts)
    for sequence_id, steps, targets, slots, count in zip(
        log.sequence_ids, log.steps, log.targets, log.slots, log.counts
    ):
        head = _EVENT_HEAD % sequence_id
        shape = shapes.get(id(steps))
        if shape is None:
            shape = shapes[id(steps)] = _shape(
                steps,
                lambda event_id, kind: _EVENT_STEP % (event_id, _quote(kind._value_)),
                tail_of,
            )
        rows, reaches = shape
        texts = _target_texts(targets, reaches[count - 1])
        used = [resources[slot] for slot in slots]
        parts: list[str] = []
        add = parts.extend
        # a command's events are its first `count` steps; zip reads a step
        # before a start, so it leaves the next command's starts unread
        for (step, index, use, tail), start in zip(islice(rows, count), starts):
            if tail is None:  # a step priced per event
                tail = tail_of(next_price())
            if 0 <= start < _EXACT_US_LIMIT_NS:  # us_repr(start), inlined
                add((head, step, texts[index], used[use], str(start // 1000),
                     _NS_FRACTIONS[start % 1000], tail))
            else:
                add((head, step, texts[index], used[use], repr(start / 1000), tail))
        yield join(parts)


def _structured_tail(pair: tuple[int, float]) -> str:
    return _EVENT_TAIL % (us_repr(pair[0]), _json_float(pair[1]))


def _write_structured(report: Report, write: Callable[[str], object]) -> None:
    # the three arrays that grow with the trace are written from row
    # templates; _json_text renders the other keys, in two runs around them
    scalars = _json_text(
        {
            "schema": REPORT_SCHEMA,
            "command_count": report.command_count,
            "makespan_us": report.makespan_us,
            "total_energy_uj": report.total_energy_uj,
            "event_energy_uj": report.event_energy_uj,
            "idle_energy_uj": report.idle_energy_uj,
        }
    )
    summaries = _json_text(
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
        }
    )
    # each rendered object's keys, without its braces, are top-level keys here
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
    shape, with its folded pair's tail, and each resource and each priced
    pair is rendered once, a command's targets and resources once per
    command, and a start per event."""
    join = "".join
    resources = [f"{r.label:<16}" for r in log.resources]
    resources.append(f"{'-':<16}")  # slot -1: no resource
    shapes: dict[int, tuple[list[tuple], list[int]]] = {}
    tail_of = _tail_cache(_table_tail)
    next_price = iter(log.prices).__next__
    starts = iter(log.starts)
    for steps, targets, slots, count in zip(log.steps, log.targets, log.slots, log.counts):
        shape = shapes.get(id(steps))
        if shape is None:
            shape = shapes[id(steps)] = _shape(
                steps, lambda event_id, kind: f"  {kind._value_:<18}", tail_of
            )
        rows, reaches = shape
        texts = [f"{text:<16}" for text in _target_texts(targets, reaches[count - 1])]
        used = [resources[slot] for slot in slots]
        parts: list[str] = []
        add = parts.extend
        for (step, index, use, tail), start in zip(islice(rows, count), starts):
            if tail is None:  # a step priced per event
                tail = tail_of(next_price())
            add(("%12.3f" % (start / 1000), tail[0], step, texts[index], used[use], tail[1]))
        yield join(parts)


def _table_tail(pair: tuple[int, float]) -> tuple[str, str]:
    duration, energy = pair
    return f"{duration / 1000:>12.3f}", f"{energy:>10.3f}\n"


def _warning_lines(warnings: Iterable[Violation]) -> Iterator[str]:
    for w in warnings:
        where = f"line {w.line}: " if w.line is not None else ""
        yield f"  {where}{w.message} [{w.rule.value}]\n"


# The writer of each report format, by name; the command line offers them
# in this order, the first as its default.
FORMATS = {"structured": _write_structured, "table": _write_table}
