"""Deterministic discrete-event core.

Scheduling discipline: every event starts at the earliest instant that is
>= its command's arrival, >= the end of each dependency, and >= the busy
horizon of its resource. Resources (planes, channel buses) are served
strictly FIFO in (command sequence_id, event id) order, with no reordering
across commands, so independent resources overlap freely while contended
ones serialize. Events ready at the same instant therefore start in
(sequence_id, event id) order, a documented total order that makes two runs
on identical inputs byte-identical.

Time is integer nanoseconds internally (trace microseconds scaled by 1000)
so schedules never diverge through float accumulation; energy is carried
as double-precision microjoules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .commands import (
    Command,
    CommandKind,
    EventKind,
    decompose,
    erased_blocks,
    validate,
    written_pages,
)
from .errors import (
    ModelEvaluationError,
    Severity,
    TraceOrderError,
    ValidationFatal,
    Violation,
)
from .models import ModelSet
from .topology import (
    FlashAddress,
    Geometry,
    Resource,
    SubsystemState,
    validate_geometry,
)


@dataclass(frozen=True)
class Policy:
    """Run-wide switches, all defaulted to the permissive baseline."""

    strict: bool = False  # escalate warnings to fatal errors
    endurance_limit: int | None = None
    die_serialization: bool = False
    cmd_overhead_on_bus: bool = False
    initially_written: bool = False
    multi_plane_same_offsets: bool = True


class ScheduledEvent(NamedTuple):
    """One priced and placed event from the run's event log.

    A named tuple, not a dataclass: a run builds one per event, and a tuple
    is built without a per-field ``object.__setattr__``.
    """

    sequence_id: int
    event_id: int
    kind: EventKind
    target: FlashAddress
    resource: Resource | None
    start_ns: int
    duration_ns: int
    energy_uj: float

    @property
    def end_ns(self) -> int:
        return self.start_ns + self.duration_ns


@dataclass(frozen=True)
class CommandResult:
    sequence_id: int
    kind: CommandKind
    arrival_ns: int
    completion_ns: int
    energy_uj: float
    warnings: tuple[Violation, ...]

    @property
    def latency_ns(self) -> int:
        return self.completion_ns - self.arrival_ns


@dataclass
class RunResult:
    """Everything a run produced: per-command results, event log, busy time."""

    results: list[CommandResult]
    schedule: list[ScheduledEvent]
    busy_ns: dict[Resource, int]  # occupied nanoseconds per resource, exact
    first_arrival_ns: int
    last_end_ns: int

    @property
    def warnings(self) -> list[Violation]:
        """Every command's warnings, in result order."""
        return [w for r in self.results for w in r.warnings]

    @property
    def makespan_ns(self) -> int:
        # first arrival to last completion; zero for an empty run
        return max(0, self.last_end_ns - self.first_arrival_ns)


def effective_resource(resource: Resource | None, policy: Policy) -> Resource | None:
    """Map an event's natural resource to its scheduling unit.

    Die serialization coarsens every plane to its die, modeling chips that
    cannot run plane operations concurrently.
    """
    if resource is None:
        return None
    if policy.die_serialization and resource.kind == "plane":
        return Resource("die", resource.key[:3])
    return resource


def replay(
    trace: Iterable[Command],
    geometry: Geometry,
    supported: frozenset[CommandKind],
    policy: Policy = Policy(),
) -> Iterator[tuple[Command, list[Violation]]]:
    """Check each command against the device constraints, in trace order.

    Yields every command with its located violations: the structural checks
    of `validate`, then the erase-before-write and endurance warnings from
    applying its page writes and block erases to the subsystem state. A
    command with an error-severity violation changes no state.
    """
    state = SubsystemState(
        geometry,
        endurance_limit=policy.endurance_limit,
        initially_written=policy.initially_written,
    )
    for cmd in trace:
        violations = validate(
            cmd, geometry, supported, same_offsets=policy.multi_plane_same_offsets
        )
        if not any(v.severity is Severity.ERROR for v in violations):
            for addr in written_pages(cmd):
                violations.extend(
                    v.located(cmd.sequence_id, cmd.line) for v in state.write_page(addr)
                )
            for addr in erased_blocks(cmd):
                violations.extend(
                    v.located(cmd.sequence_id, cmd.line) for v in state.erase_block(addr)
                )
        yield cmd, violations


def run(
    trace: Sequence[Command],
    geometry: Geometry,
    supported: frozenset[CommandKind],
    models: ModelSet,
    policy: Policy = Policy(),
) -> RunResult:
    """Simulate a validated, arrival-sorted command stream.

    Commands are checked by `replay` in trace order and each one's event DAG
    is placed on the timeline per the module's scheduling discipline.
    Structural validation errors abort the run; warnings abort only under a
    strict policy. A model binding that fails on an event aborts the run
    with a ModelEvaluationError located at its command's trace line.
    """
    validate_geometry(geometry)
    _check_order(trace)
    price = models.pricer(geometry)

    busy_until: dict[Resource, int] = {}
    busy: dict[Resource, int] = {}
    results: list[CommandResult] = []
    schedule: list[ScheduledEvent] = []
    last_end = 0

    for cmd, warnings in replay(trace, geometry, supported, policy):
        fatal = [v for v in warnings if v.severity is Severity.ERROR]
        if fatal:
            raise ValidationFatal(fatal)
        if policy.strict and warnings:
            raise ValidationFatal(warnings)

        events = decompose(cmd, geometry, cmd_overhead_on_bus=policy.cmd_overhead_on_bus)
        ends: list[int] = []
        completion = cmd.arrival_ns
        energy_total = 0.0
        for event_id, event in enumerate(events):
            ready = cmd.arrival_ns
            for dep in event.depends_on:
                ready = max(ready, ends[dep])
            resource = effective_resource(event.resource, policy)
            if resource is None:
                start = ready
            else:
                start = max(ready, busy_until.get(resource, 0))
            try:
                duration, energy = price(event.kind, event.target, event.byte_count)
            except ModelEvaluationError as exc:
                raise exc.located(
                    cmd.line,
                    f"the {event.kind.value} event of {cmd.kind.value} command "
                    f"{cmd.sequence_id}",
                ) from exc
            end = start + duration
            if resource is not None:
                busy_until[resource] = end
                busy[resource] = busy.get(resource, 0) + duration
            ends.append(end)
            completion = max(completion, end)
            energy_total += energy
            schedule.append(
                ScheduledEvent(
                    cmd.sequence_id,
                    event_id,
                    event.kind,
                    event.target,
                    resource,
                    start,
                    duration,
                    energy,
                )
            )
        last_end = max(last_end, completion)
        results.append(
            CommandResult(
                cmd.sequence_id,
                cmd.kind,
                cmd.arrival_ns,
                completion,
                energy_total,
                tuple(warnings),
            )
        )

    first_arrival = trace[0].arrival_ns if trace else 0
    return RunResult(results, schedule, busy, first_arrival, last_end)


def all_resources(geometry: Geometry, policy: Policy = Policy()) -> list[Resource]:
    """Every scheduling resource the geometry defines, in sorted order."""
    out = [Resource("bus", (ch,)) for ch in range(geometry.channels)]
    for ch in range(geometry.channels):
        for chip in range(geometry.chips_per_channel):
            for die in range(geometry.dies_per_chip):
                if policy.die_serialization:
                    out.append(Resource("die", (ch, chip, die)))
                else:
                    out.extend(
                        Resource("plane", (ch, chip, die, plane))
                        for plane in range(geometry.planes_per_die)
                    )
    return sorted(out)


def idle_accounting(
    run_result: RunResult,
    geometry: Geometry,
    models: ModelSet,
    policy: Policy = Policy(),
) -> dict[Resource, float]:
    """Idle energy per resource: idle power x (makespan - busy time), uJ.

    Covers every resource the geometry defines, including ones the trace
    never touched; all zeros when no idle power is configured.
    """
    makespan_us = run_result.makespan_ns / 1000
    busy = run_result.busy_ns
    out: dict[Resource, float] = {}
    for resource in all_resources(geometry, policy):
        idle_us = makespan_us - busy.get(resource, 0) / 1000
        out[resource] = models.idle_power_mw(resource.kind) * idle_us / 1000
    return out


def _check_order(trace: Sequence[Command]) -> None:
    for prev, cur in zip(trace, trace[1:]):
        if cur.arrival_ns < prev.arrival_ns or (
            cur.arrival_ns == prev.arrival_ns and cur.sequence_id <= prev.sequence_id
        ):
            raise TraceOrderError(
                f"commands {prev.sequence_id} and {cur.sequence_id} are not in "
                "(arrival, sequence) order"
            )
