"""Aggregation of run output into machine- and human-readable reports.

Accumulation discipline: the report's total energy is defined as the sum of
the per-event-kind totals plus the sum of the per-resource idle totals, each
total accumulated left-to-right (event-kind declaration order; resources in
sorted order). The conservation identity
``total == sum(kind totals) + sum(idle totals)`` is therefore exact, not
approximate, and is asserted on every build. Percentiles use the
nearest-rank definition. All report content is emitted in a fixed,
documented order so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .commands import CommandKind, EventKind
from .engine import CommandResult, RunResult, ScheduledEvent
from .errors import ModelEvaluationError, Rule, Violation
from .topology import Resource

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
    """A run's aggregates; `commands` and `events` are the run's own records."""

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
    events: Sequence[ScheduledEvent]


def nearest_rank(sorted_values: list[float], percentile: int) -> float:
    """Nearest-rank percentile of an ascending, non-empty sample."""
    rank = math.ceil(percentile / 100 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def build_report(
    run: RunResult, idle: Mapping[Resource, float] | None = None
) -> Report:
    """Aggregate a completed run (plus optional idle energies) into a Report.

    Reads the run's results, schedule and warnings once each. It raises
    ModelEvaluationError when an energy total overflows to infinity.
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

    # each kind's total is 0.0 + e1 + e2 + ... in schedule order; keyed by
    # `kind._value_`, a plain attribute, as hashing an Enum member is a
    # Python-level call
    kind_energy: dict[str, float] = {}
    for e in run.schedule:
        value = e.kind._value_
        kind_energy[value] = kind_energy.get(value, 0.0) + e.energy_uj
    energy_by_kind = tuple(
        (kind, kind_energy[kind._value_])
        for kind in EventKind
        if kind._value_ in kind_energy
    )

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
        events=run.schedule,
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


def emit(report: Report, format: str = "structured", event_log: bool = False) -> str:
    """Render a report; identical reports always render identical bytes."""
    if format == "structured":
        return _emit_structured(report, event_log)
    if format == "table":
        return _emit_table(report, event_log)
    raise ValueError(f"unknown report format '{format}'")


def _labelled(
    events: Sequence[ScheduledEvent], render: Callable[[str], str], missing: str
) -> Iterator[tuple[ScheduledEvent, str, str, str]]:
    """Each event with its kind, target and resource rendered by `render`;
    an event without a resource gets `missing` for it.

    Nothing is hashed per event in Python: kinds are keyed by
    `kind._value_`, and resources by `id()`. That is a value key because
    `engine.run` interns one `Resource` object per slot (equal resources
    that are distinct objects are merely rendered once each), and a safe
    one because `events` keeps every resource alive, so no id is reused.
    The events of one command share their target objects, so a target is
    rendered again only when it is not the previous event's target.
    """
    kinds: dict[str, str] = {}
    resources: dict[int, str] = {id(None): missing}
    previous: object = object()  # no event's target
    target_text = ""
    for e in events:
        value = e.kind._value_
        kind = kinds.get(value)
        if kind is None:
            kind = kinds[value] = render(value)
        target = e.target
        if target is not previous:
            previous = target
            target_text = render(str(target))
        resource = resources.get(id(e.resource))
        if resource is None:
            resource = resources[id(e.resource)] = render(e.resource.label)
        yield e, kind, target_text, resource


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
_EVENT_ROW = (
    ",\n    {\n"
    '      "sequence_id": %d,\n'
    '      "event_id": %d,\n'
    '      "kind": %s,\n'
    '      "target": %s,\n'
    '      "resource": %s,\n'
    '      "start_us": %s%s,\n'
    "%s"
)
# an event row's duration and energy, shared by events priced alike
_EVENT_TAIL = (
    '      "duration_us": %s,\n'
    '      "energy_uj": %s\n'
    "    }"
)


def _write_array(parts: list[str], rows: Iterable[str]) -> None:
    """Append a top-level key's array of `rows`, each led by a comma, to `parts`."""
    first = len(parts)
    parts += rows
    if len(parts) == first:
        parts.append("[]")
    else:
        parts[first] = "[" + parts[first][1:]  # the first row follows "[", not a comma
        parts.append("\n  ]")


def _event_rows(events: Sequence[ScheduledEvent]) -> list[str]:
    # few (duration, energy) pairs recur: each tail is cached by the
    # duration's int and reused only for the very same energy object, as
    # floats that compare equal may render differently (-0.0 and 0.0)
    tails: dict[int, tuple[float, str]] = {}
    rows: list[str] = []
    append = rows.append
    for e, kind, target, resource in _labelled(events, _quote, "null"):
        duration, energy = e.duration_ns, e.energy_uj
        tail = tails.get(duration)
        if tail is None or tail[0] is not energy:
            tail = tails[duration] = (
                energy, _EVENT_TAIL % (us_repr(duration), _json_float(energy))
            )
        start = e.start_ns
        if 0 <= start < _EXACT_US_LIMIT_NS:  # us_repr(start), inlined
            whole, fraction = start // 1000, _NS_FRACTIONS[start % 1000]
        else:
            whole, fraction = repr(start / 1000), ""
        append(
            _EVENT_ROW
            % (e.sequence_id, e.event_id, kind, target, resource, whole, fraction, tail[1])
        )
    return rows


def _emit_structured(report: Report, event_log: bool) -> str:
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
    parts = [scalars[:-2], ',\n  "commands": ']
    _write_array(
        parts,
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
    parts += [",", summaries[1:-2], ',\n  "warnings": ']
    _write_array(
        parts,
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
    if event_log:
        parts.append(',\n  "events": ')
        _write_array(parts, _event_rows(report.events))
    parts.append("\n}\n")
    return "".join(parts)


def _emit_table(report: Report, event_log: bool) -> str:
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
        for w in report.warnings:
            where = f"line {w.line}: " if w.line is not None else ""
            lines.append(f"  {where}{w.message} [{w.rule.value}]")
    if event_log:
        lines += ["", "event log (start us, duration us, kind, target, resource, energy uJ)"]
        for e, kind, target, resource in _labelled(report.events, str, "-"):
            lines.append(
                f"{e.start_ns / 1000:>12.3f}{e.duration_ns / 1000:>12.3f}  {kind:<18}"
                f"{target:<16}{resource:<16}{e.energy_uj:>10.3f}"
            )
    return "\n".join(lines) + "\n"
