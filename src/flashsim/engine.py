"""Deterministic discrete-event core.

Scheduling discipline: every event starts at the earliest instant that is
>= its command's arrival, >= the end of each dependency, and >= the busy
horizon of its resource. Resources (planes, channel buses) are served
strictly FIFO in (command sequence_id, event id) order, with no reordering
across commands, so independent resources overlap freely while contended
ones serialize. Events ready at the same instant therefore start in
(sequence_id, event id) order, a documented total order that makes two runs
on identical inputs byte-identical.

Time is whole nanoseconds below 2**63 (trace microseconds scaled by 1000),
so schedules never diverge through float accumulation; energy is carried
as double-precision microjoules.

A run's `RunResult` records the choices the later layers follow: whether it
kept an event log (`event_log`) and whether its plane events occupied whole
dies (`die_serialization`). `idle_accounting` and the report read them
there and take neither again. The event log is an `EventLog`: the columns
the run computed, which the report writes rows from, and which build a
`ScheduledEvent` only when one is asked for.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from itertools import islice
from operator import sub
from typing import Iterable, Iterator, MutableSequence, NamedTuple, Sequence

from .commands import (
    EXTENT,
    LAYOUT,
    ROLE_BUS,
    ROLE_NONE,
    ROLE_PLANE,
    Command,
    CommandKind,
    EventKind,
    Step,
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
from .models import ModelSet, Pricer
from .topology import FlashAddress, Geometry, Resource, SubsystemState, validate_geometry
from .units import TIME_LIMIT_NS


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

    A named tuple, built by the `EventLog` each time an event is read.
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


class EventLog:
    """A run's event log, kept as the columns the run computes.

    Per command: its sequence id, its compiled steps (a step's event kind
    at index 0 and the index of its target at 1; an event's id is its
    step's position), its targets and the position of its first event.
    A command's events are its first steps, as many as there are events
    up to the next command's first (see `counts`): a cache command of n
    pages keeps its kind's whole chain, which may be longer than its
    2n + 1 events.
    Per event: its start, the (duration_ns, energy_uj) pair its pricing
    returned and its resource's slot in `resources`, -1 for none. Starts
    are 64-bit integers: every time is below 2**63 ns.

    Read as a sequence, the log builds a `ScheduledEvent` for each event
    on access, in placement order. It supports `len`, iteration, indexing
    (negative indices too; a slice gives a list) and `==` with another log
    or a list of `ScheduledEvent`s.
    """

    __slots__ = (
        "sequence_ids", "steps", "targets", "firsts", "starts", "prices", "slots",
        "resources",
    )

    def __init__(self, resources: list[Resource]):
        self.sequence_ids: list[int] = []
        self.steps: list[Sequence[tuple]] = []
        self.targets: list[Sequence[FlashAddress]] = []
        self.firsts: MutableSequence[int] = array("q")
        self.starts: MutableSequence[int] = array("q")
        self.prices: list[tuple[int, float]] = []
        self.slots: MutableSequence[int] = array("i")
        self.resources = resources

    @classmethod
    def of(cls, events: Iterable[ScheduledEvent]) -> EventLog:
        """The log of `events`, which are numbered as a run numbers them:
        each command's events together, with ids 0, 1, 2, ... in order.
        Raises ValueError for an event that breaks that numbering, or that
        does not start and end within [0, 2**63) ns."""
        slot_of: dict[Resource, int] = {}
        log = cls([])
        for e in events:
            if not 0 <= e.start_ns <= e.end_ns < TIME_LIMIT_NS:
                raise ValueError(f"event {e.event_id} of command {e.sequence_id} "
                                 "does not start and end within [0, 2**63) ns")
            if e.event_id == 0:
                log.add_command(e.sequence_id, [], [])
            elif not log.steps or (e.sequence_id, e.event_id) != (
                log.sequence_ids[-1], len(log.steps[-1])
            ):
                raise ValueError(
                    f"event {e.event_id} of command {e.sequence_id} does not follow "
                    f"its event {e.event_id - 1}"
                )
            log.steps[-1].append((e.kind, e.event_id))
            log.targets[-1].append(e.target)
            log.starts.append(e.start_ns)
            log.prices.append((e.duration_ns, e.energy_uj))
            log.slots.append(
                -1 if e.resource is None else slot_of.setdefault(e.resource, len(slot_of))
            )
        log.resources = list(slot_of)
        return log

    def add_command(
        self, sequence_id: int, steps: Sequence[tuple], targets: Sequence[FlashAddress]
    ) -> None:
        """Start the next command's events."""
        self.sequence_ids.append(sequence_id)
        self.steps.append(steps)
        self.targets.append(targets)
        self.firsts.append(len(self.starts))

    def _event(self, command: int, event_id: int, i: int) -> ScheduledEvent:
        step = self.steps[command][event_id]
        slot = self.slots[i]
        return ScheduledEvent(
            self.sequence_ids[command],
            event_id,
            step[0],
            self.targets[command][step[1]],
            None if slot < 0 else self.resources[slot],
            self.starts[i],
            *self.prices[i],
        )

    def __len__(self) -> int:
        return len(self.starts)

    def counts(self) -> Iterator[int]:
        """Each command's number of events, in command order."""
        firsts = self.firsts
        yield from map(sub, islice(firsts, 1, None), firsts)
        if firsts:
            yield len(self.starts) - firsts[-1]

    def __iter__(self) -> Iterator[ScheduledEvent]:
        i = 0
        for command, count in enumerate(self.counts()):
            for event_id in range(count):
                yield self._event(command, event_id, i)
                i += 1

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = index + len(self) if index < 0 else index
        if not 0 <= i < len(self):
            raise IndexError("event log index out of range")
        command = bisect_right(self.firsts, i) - 1
        return self._event(command, i - self.firsts[command], i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventLog):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other


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
    """Everything a run produced: per-command results, per-kind energy, busy
    time and, when the run kept one, its event log.

    `schedule` is the event log, an `EventLog` read as a sequence of
    `ScheduledEvent`s in placement order; a run that kept no log
    (`event_log` false) has an empty one. `energy_by_kind` holds each event
    kind that some event of the run had, in `EventKind` declaration order,
    with its total `0.0 + e1 + e2 + ...` summed in schedule order.
    `die_serialization` is the policy the run scheduled under: true when
    its plane events occupied whole dies.
    """

    def __init__(
        self,
        results: list[CommandResult],
        schedule: EventLog,
        busy_ns: dict[Resource, int],  # occupied nanoseconds per resource, exact
        first_arrival_ns: int,
        last_end_ns: int,
        energy_by_kind: tuple[tuple[EventKind, float], ...],
        event_log: bool,
        die_serialization: bool,
    ):
        self.results = results
        self.schedule = schedule
        self.busy_ns = busy_ns
        self.first_arrival_ns = first_arrival_ns
        self.last_end_ns = last_end_ns
        self.energy_by_kind = energy_by_kind
        self.event_log = event_log
        self.die_serialization = die_serialization

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
        firsts, count = written_pages(cmd)
        for addr in firsts:
            found = write_page(addr, count)
            if found:
                violations.extend(v.located(cmd.sequence_id, cmd.line) for v in found)
        for addr in erased_blocks(cmd):
            found = erase_block(addr)
            if found:
                violations.extend(v.located(cmd.sequence_id, cmd.line) for v in found)
        yield cmd, violations


# each event kind's index into a run's per-kind energy totals, in
# declaration order
_KIND_SLOTS = {kind: slot for slot, kind in enumerate(EventKind)}


def run(
    trace: Sequence[Command],
    geometry: Geometry,
    supported: frozenset[CommandKind],
    models: ModelSet,
    policy: Policy = Policy(),
    event_log: bool = True,
) -> RunResult:
    """Simulate a validated, arrival-sorted command stream.

    Commands are checked by `replay` in trace order and each one's event DAG
    is placed on the timeline per the module's scheduling discipline.
    Structural validation errors abort the run; warnings abort only under a
    strict policy. A model binding that fails on an event, or an event that
    would end at 2**63 ns or later, aborts the run with a
    ModelEvaluationError located at its command's trace line.

    Every event's energy is added to its kind's total as it is placed. The
    result's `schedule` holds each event's start, price and resource slot
    with its command's steps and targets, and builds no `ScheduledEvent`
    until one is read; with `event_log` false it stays empty.
    """
    validate_geometry(geometry)
    _check_order(trace)
    price = models.pricer(geometry)
    overhead_on_bus = policy.cmd_overhead_on_bus
    serialize_dies = policy.die_serialization

    # Each (command kind value, operand count) shape, compiled once per run:
    # its steps, each with its kind slot, the position of its use in the
    # shape's list of distinct ones, its pricing function and its folded
    # price (see `_compile`), the pair the event loop takes without a call.
    # A use is the (resource kind, key length, operand) a step occupies: its
    # resource is keyed by the first `length` indices of the command's
    # operand, and a step that occupies none has length 0. A step's operand
    # is the index of its target, except in a cache command, whose extent
    # pages share its operand's plane and bus, so every step's operand is 0.
    # A cache kind has one chain per run, kept with the page count it was
    # built for: `shape` builds cache steps page by page, so a command of n
    # pages runs the first 2n + 1 steps of the chain of any longer extent,
    # and the chain is compiled again only when a longer extent arrives. Its
    # first three steps, which every cache command runs, have every kind and
    # every use of the chain. A kind's slot indexes its energy total, which
    # starts at 0.0 when a compiled shape first has the kind and stays None
    # otherwise. Every kind of a compiled shape is placed unless the run
    # aborts, so the kinds with a total are exactly the kinds some event had.
    compiled: dict[tuple[str, int], tuple[tuple, tuple, int]] = {}
    kind_energy: list[float | None] = [None] * len(_KIND_SLOTS)
    # Resources are interned to dense slots in the order the events occupy
    # them, so memory follows the trace, not the geometry: each command
    # resolves its shape's uses to slots before its events are placed, and
    # that list is in step order. A slot is keyed by the address prefix that
    # names its resource: (channel,) for a bus, the first three indices for
    # a die and the first four for a plane. The three lengths differ, so no
    # two kinds share a key.
    slot_of: dict[tuple[int, ...], int] = {}
    resources: list[Resource] = []
    busy_until: list[int] = []
    busy: list[int] = []
    results: list[CommandResult] = []
    schedule = EventLog(resources)
    log_start, log_price = schedule.starts.append, schedule.prices.append
    log_slot = schedule.slots.append
    last_end = 0

    for cmd, warnings in replay(trace, geometry, supported, policy):
        fatal = [v for v in warnings if v.severity is Severity.ERROR]
        if fatal:
            raise ValidationFatal(fatal)
        if policy.strict and warnings:
            raise ValidationFatal(warnings)

        operands = cmd.operands
        n_operands, page_count = len(operands), cmd.page_count
        key = (cmd.kind._value_, n_operands)
        found = compiled.get(key)
        if found is None or found[2] < page_count:
            chain, uses = _compile(
                shape(cmd.kind, n_operands, page_count, overhead_on_bus),
                LAYOUT[key[0]] == EXTENT,
                price,
                geometry,
                serialize_dies,
            )
            found = compiled[key] = (chain, uses, page_count)
            for step in chain:
                if kind_energy[step[6]] is None:
                    kind_energy[step[6]] = 0.0
        chain, uses, chain_pages = found
        # only a cache kind's chain can be longer than its command
        steps = chain if chain_pages == page_count else chain[: 2 * page_count + 1]
        cmd_slots: list[int] = []
        for resource_kind, length, operand in uses:
            if not length:
                cmd_slots.append(-1)
                continue
            resource_key = operands[operand][:length]
            slot = slot_of.get(resource_key)
            if slot is None:
                slot = slot_of[resource_key] = len(resources)
                resources.append(Resource(resource_kind, resource_key))
                busy_until.append(0)
                busy.append(0)
            cmd_slots.append(slot)
        targets = event_targets(cmd)
        arrival = cmd.arrival_ns
        sequence_id = cmd.sequence_id
        if event_log:
            schedule.add_command(sequence_id, chain, targets)
        ends: list[int] = []
        completion = arrival
        energy_total = 0.0
        try:
            for kind, index, deps, use, pair, priced, kind_slot in steps:
                ready = arrival
                for dep in deps:
                    if ends[dep] > ready:
                        ready = ends[dep]
                if pair is None:
                    pair = priced(targets[index])
                duration, energy = pair
                slot = cmd_slots[use]
                if slot < 0:
                    start = ready
                else:
                    start = busy_until[slot]
                    if start < ready:
                        start = ready
                    busy_until[slot] = start + duration
                    busy[slot] += duration
                end = start + duration
                ends.append(end)
                # every start is an arrival or an earlier end, so this bounds them
                if end > completion:
                    if end >= TIME_LIMIT_NS:
                        detail = f"ends at {end} ns, which is 2**63 ns or later"
                        raise ModelEvaluationError(models.latency_keys[kind], detail)
                    completion = end
                energy_total += energy
                kind_energy[kind_slot] += energy
                if event_log:
                    log_start(start)
                    log_price(pair)
                    log_slot(slot)
        except ModelEvaluationError as exc:
            raise exc.located(
                cmd.line, f"the {kind.value} event of {cmd.kind.value} command {sequence_id}"
            ) from exc
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
    energy_by_kind = tuple(
        (kind, kind_energy[slot])
        for kind, slot in _KIND_SLOTS.items()
        if kind_energy[slot] is not None
    )
    return RunResult(
        results,
        schedule,
        dict(zip(resources, busy)),
        first_arrival,
        last_end,
        energy_by_kind,
        event_log,
        serialize_dies,
    )


def _compile(
    steps: Sequence[Step],
    extent: bool,
    price: Pricer,
    geometry: Geometry,
    serialize_dies: bool,
) -> tuple[tuple, tuple[tuple[str | None, int, int], ...]]:
    """A shape's steps as the run places them, (kind, target index, deps,
    position of its use in uses, folded price, pricing function, kind
    slot), and those distinct uses, (resource kind, key length, operand),
    in first-step order; see `run`. Die serialization coarsens every plane
    to its die. The pricing function and folded price are the step's
    `Pricer.entry`: the folded price is the pair every event of the step
    costs, or None when the function prices each one."""
    occupies = {
        ROLE_NONE: (None, 0),
        ROLE_PLANE: ("die", 3) if serialize_dies else ("plane", 4),
        ROLE_BUS: ("bus", 1),
    }
    uses: dict[tuple[str | None, int, int], int] = {}
    compiled = []
    for kind, index, deps, role in steps:
        pricing, pair = price.entry(kind, event_bytes(kind, geometry))
        use = (*occupies[role], 0 if extent else index)
        compiled.append(
            (kind, index, deps, uses.setdefault(use, len(uses)), pair, pricing, _KIND_SLOTS[kind])
        )
    return tuple(compiled), tuple(uses)


def all_resources(geometry: Geometry, die_serialization: bool = False) -> list[Resource]:
    """Every scheduling resource the geometry defines, in sorted order: its
    buses and planes, or its buses and dies under die serialization."""
    out = [Resource("bus", (ch,)) for ch in range(geometry.channels)]
    for ch in range(geometry.channels):
        for chip in range(geometry.chips_per_channel):
            for die in range(geometry.dies_per_chip):
                if die_serialization:
                    out.append(Resource("die", (ch, chip, die)))
                else:
                    out.extend(
                        Resource("plane", (ch, chip, die, plane))
                        for plane in range(geometry.planes_per_die)
                    )
    return sorted(out)


def idle_accounting(
    run_result: RunResult, geometry: Geometry, models: ModelSet
) -> dict[Resource, float]:
    """Idle energy per resource: idle power x (makespan - busy time), uJ.

    Covers every resource the geometry defines at the granularity the run
    scheduled (dies under die serialization, else planes), including ones
    the trace never touched. Empty when both idle powers are +0.0: every
    entry would be 0.0, which `stats.build_report` reads for a resource
    missing here, so the work stays bounded by the trace, not the geometry.
    (An idle power of -0.0 makes its entries -0.0, which a report writes.)
    """
    if all(
        p == 0 and math.copysign(1.0, p) > 0
        for p in (models.power.p_idle_bus, models.power.p_idle_plane)
    ):
        return {}
    makespan_us = run_result.makespan_ns / 1000
    busy = run_result.busy_ns
    out: dict[Resource, float] = {}
    for resource in all_resources(geometry, run_result.die_serialization):
        idle_us = makespan_us - busy.get(resource, 0) / 1000
        out[resource] = models.idle_power_mw(resource.kind) * idle_us / 1000
    return out


def _check_order(trace: Sequence[Command]) -> None:
    for prev, cur in zip(trace, islice(trace, 1, None)):
        if cur.arrival_ns < prev.arrival_ns or (
            cur.arrival_ns == prev.arrival_ns and cur.sequence_id <= prev.sequence_id
        ):
            raise TraceOrderError(
                f"commands {prev.sequence_id} and {cur.sequence_id} are not in "
                "(arrival, sequence) order"
            )
