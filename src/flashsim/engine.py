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

from typing import Iterable, Iterator, NamedTuple, Sequence

from .commands import (
    ROLE_BUS,
    ROLE_NONE,
    Command,
    CommandKind,
    EventKind,
    decompose,  # noqa: F401 - unused here; perfbench's tracer hooks engine.decompose
    erased_blocks,
    event_bytes,
    event_targets,
    shape,
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
    bus_resource,
    plane_resource,
    validate_geometry,
)


class Policy(NamedTuple):
    """Run-wide switches, all defaulted to the permissive baseline."""

    strict: bool = False  # escalate warnings to fatal errors
    endurance_limit: int | None = None
    die_serialization: bool = False
    cmd_overhead_on_bus: bool = False
    initially_written: bool = False
    multi_plane_same_offsets: bool = True


class ScheduledEvent(NamedTuple):
    """One priced and placed event from the run's event log.

    A named tuple: a run builds one per event.
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


class CommandResult(NamedTuple):
    sequence_id: int
    kind: CommandKind
    arrival_ns: int
    completion_ns: int
    energy_uj: float
    warnings: tuple[Violation, ...]

    @property
    def latency_ns(self) -> int:
        return self.completion_ns - self.arrival_ns


class RunResult:
    """Everything a run produced: per-command results, event log, busy time."""

    def __init__(
        self,
        results: list[CommandResult],
        schedule: list[ScheduledEvent],
        busy_ns: dict[Resource, int],  # occupied nanoseconds per resource, exact
        first_arrival_ns: int,
        last_end_ns: int,
    ):
        self.results = results
        self.schedule = schedule
        self.busy_ns = busy_ns
        self.first_arrival_ns = first_arrival_ns
        self.last_end_ns = last_end_ns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def warnings(self) -> list[Violation]:
        """Every command's warnings, in result order."""
        return [w for r in self.results for w in r.warnings]

    @property
    def makespan_ns(self) -> int:
        # first arrival to last completion; zero for an empty run
        return max(0, self.last_end_ns - self.first_arrival_ns)


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
    write_page, erase_block = state.write_page, state.erase_block
    same_offsets = policy.multi_plane_same_offsets
    error = Severity.ERROR
    for cmd in trace:
        violations = validate(cmd, geometry, supported, same_offsets)
        if violations and any(v.severity is error for v in violations):
            yield cmd, violations
            continue
        for addr in written_pages(cmd):
            found = write_page(addr)
            if found:
                violations.extend(v.located(cmd.sequence_id, cmd.line) for v in found)
        for addr in erased_blocks(cmd):
            found = erase_block(addr)
            if found:
                violations.extend(v.located(cmd.sequence_id, cmd.line) for v in found)
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
    overhead_on_bus = policy.cmd_overhead_on_bus
    serialize_dies = policy.die_serialization
    chips, dies = geometry.chips_per_channel, geometry.dies_per_chip
    planes = geometry.planes_per_die

    # Each (command kind value, operand count, page count) shape with its
    # steps' byte counts and pricing entries, resolved once per run.
    compiled: dict[tuple[str, int, int], tuple] = {}
    # Resources are interned to dense slots the first time an event occupies
    # them, so memory follows the trace, not the geometry. A plane (or, under
    # die serialization, a die) is keyed by its mixed-radix index, a channel
    # bus by the bitwise complement of its channel.
    slot_of: dict[int, int] = {}
    resources: list[Resource] = []
    busy_until: list[int] = []
    busy: list[int] = []
    results: list[CommandResult] = []
    schedule: list[ScheduledEvent] = []
    last_end = 0

    for cmd, warnings in replay(trace, geometry, supported, policy):
        fatal = [v for v in warnings if v.severity is Severity.ERROR]
        if fatal:
            raise ValidationFatal(fatal)
        if policy.strict and warnings:
            raise ValidationFatal(warnings)

        n_operands, page_count = len(cmd.operands), cmd.page_count
        key = (cmd.kind._value_, n_operands, page_count)
        steps = compiled.get(key)
        if steps is None:
            steps = compiled[key] = tuple(
                (kind, index, deps, role, price.entry(kind, event_bytes(kind, geometry)))
                for kind, index, deps, role in shape(
                    cmd.kind, n_operands, page_count, overhead_on_bus
                )
            )
        targets = event_targets(cmd)
        arrival = cmd.arrival_ns
        sequence_id = cmd.sequence_id
        ends: list[int] = []
        completion = arrival
        energy_total = 0.0
        for event_id, (kind, index, deps, role, priced) in enumerate(steps):
            target = targets[index]
            ready = arrival
            for dep in deps:
                if ends[dep] > ready:
                    ready = ends[dep]
            try:
                duration, energy = priced(target)
            except ModelEvaluationError as exc:
                raise exc.located(
                    cmd.line,
                    f"the {kind.value} event of {cmd.kind.value} command {sequence_id}",
                ) from exc
            if role == ROLE_NONE:
                resource = None
                start = ready
            else:
                if role == ROLE_BUS:
                    resource_key = ~target.channel
                else:
                    channel, chip, die, plane, _, _ = target
                    resource_key = (channel * chips + chip) * dies + die
                    if not serialize_dies:
                        resource_key = resource_key * planes + plane
                slot = slot_of.get(resource_key)
                if slot is None:
                    slot = slot_of[resource_key] = len(resources)
                    resources.append(_resource(role, target, serialize_dies))
                    busy_until.append(0)
                    busy.append(0)
                resource = resources[slot]
                start = busy_until[slot]
                if start < ready:
                    start = ready
                busy_until[slot] = start + duration
                busy[slot] += duration
            end = start + duration
            ends.append(end)
            if end > completion:
                completion = end
            energy_total += energy
            schedule.append(
                ScheduledEvent(
                    sequence_id, event_id, kind, target, resource, start, duration, energy
                )
            )
        if completion > last_end:
            last_end = completion
        results.append(
            CommandResult(
                sequence_id,
                cmd.kind,
                arrival,
                completion,
                energy_total,
                tuple(warnings),
            )
        )

    first_arrival = trace[0].arrival_ns if trace else 0
    return RunResult(
        results, schedule, dict(zip(resources, busy)), first_arrival, last_end
    )


def _resource(role: int, target: FlashAddress, serialize_dies: bool) -> Resource:
    """The resource a step of `role` occupies at `target`; die serialization
    coarsens every plane to its die."""
    if role == ROLE_BUS:
        return bus_resource(target)
    if serialize_dies:
        return Resource("die", target.die_key())
    return plane_resource(target)


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
