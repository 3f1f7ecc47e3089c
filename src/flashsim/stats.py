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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .commands import CommandKind, EventKind
from .engine import CommandResult, RunResult, ScheduledEvent
from .errors import ModelEvaluationError, Rule, Violation
from .topology import Resource

REPORT_SCHEMA = "flashsim-report v1"

PERCENTILES = (50, 95, 99)


@dataclass(frozen=True)
class KindStats:
    kind: CommandKind
    count: int
    mean_us: float
    min_us: float
    max_us: float
    percentiles_us: tuple[float, ...]  # matches PERCENTILES


@dataclass(frozen=True)
class ResourceUsage:
    resource: Resource
    busy_us: float
    utilization: float  # busy / makespan, in [0, 1]
    idle_energy_uj: float


@dataclass(frozen=True)
class Report:
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
    events: Iterable[ScheduledEvent], render: Callable[[str | None], str]
) -> Iterator[tuple[ScheduledEvent, str, str, str]]:
    """Each event with its kind, target and resource rendered by `render`.

    Events share few kinds and resources and often a target, so each
    distinct one is rendered once and its text reused. An event without a
    resource has it rendered from None. Kinds are keyed by `kind._value_`,
    so that no Enum member is hashed per event.
    """
    kinds: dict[str, str] = {}
    labels: dict[object, str] = {}
    for e in events:
        value = e.kind._value_
        kind = kinds.get(value)
        if kind is None:
            kind = kinds[value] = render(value)
        target = labels.get(e.target)
        if target is None:
            target = labels[e.target] = render(str(e.target))
        resource = labels.get(e.resource)
        if resource is None:
            resource = labels[e.resource] = render(
                None if e.resource is None else e.resource.label
            )
        yield e, kind, target, resource


# One event-log row laid out exactly as json.dumps(..., indent=2) lays it out,
# led by the comma that separates it from the row before. Labels come quoted
# by json.dumps; floats render as float.__repr__, which is what json uses.
_EVENT_ROW = (
    ",\n    {\n"
    '      "sequence_id": %d,\n'
    '      "event_id": %d,\n'
    '      "kind": %s,\n'
    '      "target": %s,\n'
    '      "resource": %s,\n'
    '      "start_us": %r,\n'
    '      "duration_us": %r,\n'
    '      "energy_uj": %r\n'
    "    }"
)


def _emit_structured(report: Report, event_log: bool) -> str:
    doc: dict = {
        "schema": REPORT_SCHEMA,
        "command_count": report.command_count,
        "makespan_us": report.makespan_us,
        "total_energy_uj": report.total_energy_uj,
        "event_energy_uj": report.event_energy_uj,
        "idle_energy_uj": report.idle_energy_uj,
        "commands": [
            {
                "sequence_id": c.sequence_id,
                "kind": c.kind.value,
                "arrival_us": c.arrival_ns / 1000,
                "completion_us": c.completion_ns / 1000,
                "latency_us": c.latency_ns / 1000,
                "energy_uj": c.energy_uj,
                "warning_count": len(c.warnings),
            }
            for c in report.commands
        ],
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
        "warnings": [
            {
                "rule": w.rule.value,
                "severity": w.severity.value,
                "message": w.message,
                "sequence_id": w.sequence_id,
                "line": w.line,
            }
            for w in report.warnings
        ],
    }
    head = json.dumps(doc, indent=2)
    if not event_log:
        return head + "\n"
    # "events" is the last key: the rows go where the head's closing "\n}" was
    parts = [head[:-2], ',\n  "events": [']
    parts += [
        _EVENT_ROW
        % (
            e.sequence_id,
            e.event_id,
            kind,
            target,
            resource,
            e.start_ns / 1000,
            e.duration_ns / 1000,
            e.energy_uj,
        )
        for e, kind, target, resource in _labelled(report.events, json.dumps)
    ]
    if len(parts) == 2:
        parts.append("]\n}\n")
    else:
        parts[2] = parts[2][1:]  # the first row follows "[", not a comma
        parts.append("\n  ]\n}\n")
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
        for e, kind, target, resource in _labelled(report.events, lambda label: label or "-"):
            lines.append(
                f"{e.start_ns / 1000:>12.3f}{e.duration_ns / 1000:>12.3f}  {kind:<18}"
                f"{target:<16}{resource:<16}{e.energy_uj:>10.3f}"
            )
    return "\n".join(lines) + "\n"
