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

`run` reads its trace once, one command at a time: `replay` checks the
command against the device, `run` checks its (arrival, sequence) order and
applies the policy's strictness, and the private `_Placer`, the placement
core, places its events. The placer compiles each shape in one place,
interns the resources its events occupy and places every event in one
loop.

A run's `RunResult` records the choices the later layers follow: whether it
kept an event log (`event_log`) and whether its plane events occupied whole
dies (`die_serialization`). `idle_accounting` and the report read them
there and take neither again. The event log is an `EventLog`: what the
run cannot recompute, which the report writes rows from, and which builds
a `ScheduledEvent` only when one is asked for. Per event it keeps only the
start, and a price only for an event whose step is priced per event; the
rest comes from each command's compiled steps, operands and resources.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, MutableSequence, Sequence
from itertools import islice, product

from .commands import (
    EXTENT,
    LAYOUT,
    ROLE_BUS,
    ROLE_PLANE,
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
    Record,
    Severity,
    TraceOrderError,
    ValidationFatal,
    Violation,
)
from .models import ModelSet
from .topology import FlashAddress, Geometry, Resource, SubsystemState
from .units import TIME_LIMIT_NS


class Policy(Record):
    """Run-wide switches, all defaulted to the permissive baseline."""

    strict: bool = False  # escalate warnings to fatal errors
    endurance_limit: int | None = None
    die_serialization: bool = False
    cmd_overhead_on_bus: bool = False
    initially_written: bool = False
    multi_plane_same_offsets: bool = True


class ScheduledEvent(Record):
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
    """A run's event log, kept as what the run cannot recompute.

    Per command: its sequence id, its compiled steps, its targets, its
    resource slot per use and its number of events. A step is a tuple
    that starts (event kind, target index, use, folded pair): an event's
    id is its step's position, its target is the command's target at the
    step's index, its resource is the command's slot at the step's use,
    and its (duration_ns, energy_uj) pair is the step's folded pair.
    A step whose folded pair is None is priced per event, and each of its
    events keeps its own pair in `prices`, in placement order.
    A command's targets are its operands. A cache command keeps only its
    extent's first page, its one operand: a step index past the operands
    is the page that many pages after it.
    A command's events are its first steps, as many as its count in
    `counts`: a cache command of n pages keeps its kind's whole chain,
    which may be longer than its 2n + 1 events.
    Per event: its start, a 64-bit integer, as every time is below
    2**63 ns. A slot indexes `resources`, -1 for none. A run shares one
    tuple of slots between the commands that occupy the same resources,
    and one chain between the commands of a compiled shape.

    Read as a sequence, the log builds a `ScheduledEvent` for each event
    on access, in placement order. It supports `len`, iteration, indexing
    (negative indices too; a slice gives a list) and `==` with another log
    or a list of `ScheduledEvent`s. Indexing reads the log in order up to
    the index, and a slice reads all of it.
    """

    __slots__ = (
        "sequence_ids", "steps", "targets", "slots", "counts", "starts", "prices", "resources",
    )

    def __init__(self, resources: list[Resource]):
        self.sequence_ids: list[int] = []
        self.steps: list[Sequence[tuple]] = []
        self.targets: list[Sequence[FlashAddress]] = []
        self.slots: list[Sequence[int]] = []
        self.counts: MutableSequence[int] = array("q")
        self.starts: MutableSequence[int] = array("q")
        self.prices: list[tuple[int, float]] = []
        self.resources = resources

    @classmethod
    def of(cls, events: Iterable[ScheduledEvent]) -> EventLog:
        """The log of `events`, which are numbered as a run numbers them:
        each command's events together, with ids 0, 1, 2, ... in order.
        Raises ValueError for an event that breaks that numbering, or that
        does not start and end within [0, 2**63) ns. Each event has a step,
        a target and a use of its own, and its pair in `prices`."""
        slot_of: dict[Resource, int] = {}
        log = cls([])
        for e in events:
            if not 0 <= e.start_ns <= e.end_ns < TIME_LIMIT_NS:
                raise ValueError(f"event {e.event_id} of command {e.sequence_id} "
                                 "does not start and end within [0, 2**63) ns")
            if e.event_id == 0:  # the next command's first event
                log.sequence_ids.append(e.sequence_id)
                log.steps.append([])
                log.targets.append([])
                log.slots.append([])
            elif not log.steps or (e.sequence_id, e.event_id) != (
                log.sequence_ids[-1], len(log.steps[-1])
            ):
                raise ValueError(
                    f"event {e.event_id} of command {e.sequence_id} does not follow "
                    f"its event {e.event_id - 1}"
                )
            log.steps[-1].append((e.kind, e.event_id, e.event_id, None))
            log.targets[-1].append(e.target)
            log.slots[-1].append(
                -1 if e.resource is None else slot_of.setdefault(e.resource, len(slot_of))
            )
            log.starts.append(e.start_ns)
            log.prices.append((e.duration_ns, e.energy_uj))
        log.counts.extend(map(len, log.steps))
        log.resources = list(slot_of)
        return log

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self) -> Iterator[ScheduledEvent]:
        starts, prices, resources = iter(self.starts), iter(self.prices), self.resources
        for sequence_id, steps, targets, slots, count in zip(
            self.sequence_ids, self.steps, self.targets, self.slots, self.counts
        ):
            for event_id, step in enumerate(islice(steps, count)):
                kind, index, use, pair = step[:4]
                if index < len(targets):
                    target = targets[index]
                else:  # a page of a cache command's extent
                    target = targets[0]._replace(page=targets[0].page + index)
                slot = slots[use]
                yield ScheduledEvent(
                    sequence_id,
                    event_id,
                    kind,
                    target,
                    None if slot < 0 else resources[slot],
                    next(starts),
                    *(next(prices) if pair is None else pair),
                )

    def __getitem__(self, index: int | slice):
        if isinstance(index, slice):
            return list(self)[index]
        i = index + len(self) if index < 0 else index
        if not 0 <= i < len(self):
            raise IndexError("event log index out of range")
        return next(islice(self, i, None))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventLog):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other


class CommandResult(Record):
    sequence_id: int
    kind: CommandKind
    arrival_ns: int
    completion_ns: int
    energy_uj: float
    warnings: tuple[Violation, ...]

    @property
    def latency_ns(self) -> int:
        return self.completion_ns - self.arrival_ns


class RunResult(Record):
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

    results: list[CommandResult]
    schedule: EventLog
    busy_ns: dict[Resource, int]  # occupied nanoseconds per resource, exact
    first_arrival_ns: int
    last_end_ns: int
    energy_by_kind: tuple[tuple[EventKind, float], ...]
    event_log: bool
    die_serialization: bool

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

# What a step of each role occupies, by whether plane events occupy whole
# dies: (resource kind, key length), the resource being keyed by the first
# `length` indices of the step's operand. A step of a role without an entry
# (ROLE_NONE: the command overhead off the bus) occupies nothing.
# `_Placer._compile` reads each step's use here, and `all_resources`
# enumerates the keys of every kind.
_OCCUPIES = {
    dies: {ROLE_PLANE: ("die", 3) if dies else ("plane", 4), ROLE_BUS: ("bus", 1)}
    for dies in (False, True)
}


def run(
    trace: Iterable[Command],
    geometry: Geometry,
    supported: frozenset[CommandKind],
    models: ModelSet,
    policy: Policy = Policy(),
    event_log: bool = True,
) -> RunResult:
    """Simulate a validated command stream in (arrival, sequence) order.

    `trace` is read once, so any iterable in that order works. `replay`
    checks the geometry (an invalid one raises GeometryError before the
    trace is read) and then each command in turn, and a `_Placer` places
    its event DAG on the timeline per the module's scheduling discipline.
    A command out of order raises TraceOrderError before its own findings
    are acted on. Structural validation errors abort the run; warnings
    abort only under a strict policy. A model binding that fails on an
    event, or an event that would end at 2**63 ns or later, aborts the run
    with a ModelEvaluationError located at its command's trace line.

    Every event's energy is added to its kind's total as it is placed. The
    result's `schedule` holds each event's start, and its price when its
    step is priced per event, with its command's steps, operands and
    resource slots, and builds no `ScheduledEvent` until one is read; with
    `event_log` false it stays empty.
    """
    placer = _Placer(geometry, models, policy, event_log)
    results: list[CommandResult] = []
    arrival = sequence_id = -1
    for cmd, warnings in replay(trace, geometry, supported, policy):
        if cmd.arrival_ns < arrival or (
            cmd.arrival_ns == arrival and cmd.sequence_id <= sequence_id
        ):
            raise TraceOrderError(
                f"commands {sequence_id} and {cmd.sequence_id} are not in "
                "(arrival, sequence) order"
            )
        arrival, sequence_id = cmd.arrival_ns, cmd.sequence_id
        fatal = [v for v in warnings if v.severity is Severity.ERROR]
        if fatal:
            raise ValidationFatal(fatal)
        if policy.strict and warnings:
            raise ValidationFatal(warnings)
        results.append(placer.place(cmd, tuple(warnings)))

    kind_energy = placer.kind_energy
    return RunResult(
        results,
        placer.log if event_log else EventLog(placer.resources),
        dict(zip(placer.resources, placer.busy)),
        results[0].arrival_ns if results else 0,
        placer.last_end,
        tuple(
            (kind, kind_energy[slot])
            for kind, slot in _KIND_SLOTS.items()
            if kind_energy[slot] is not None
        ),
        event_log,
        policy.die_serialization,
    )


class _Placer:
    """A run's placement core: places one command at a time, each after
    every command placed before it, and keeps what placing needs across
    commands.

    Each (command kind value, operand count) shape is compiled once per run
    (see `_compile`): its steps, each with its kind slot, the position of
    its use in the shape's list of distinct ones, its pricing function and
    its folded price, the pair the event loop takes without a call. A use
    is the (resource kind, key length, operand) a step occupies: its
    resource is keyed by the first `length` indices of the command's
    operand, and a step that occupies none has length 0. A step's operand
    is the index of its target, except in a cache command, whose extent
    pages share its operand's plane and bus, so every step's operand is 0.
    A cache kind has one chain per run, kept with the page count it was
    built for: `shape` builds cache steps page by page, so a command of n
    pages runs the first 2n + 1 steps of the chain of any longer extent,
    and the chain is compiled again only when a longer extent arrives. Its
    first three steps, which every cache command runs, have every kind and
    every use of the chain. A kind's slot indexes its energy total, which
    starts at 0.0 when a compiled shape first has the kind and stays None
    otherwise. Every kind of a compiled shape is placed unless the run
    aborts, so the kinds with a total are exactly the kinds some event had.

    Resources are interned to dense slots in the order the events occupy
    them, so memory follows the trace, not the geometry: each command
    resolves its shape's uses to slots before its events are placed, and
    that list is in step order. A slot is keyed by the address prefix that
    names its resource: (channel,) for a bus, the first three indices for
    a die and the first four for a plane. The three lengths differ, so no
    two kinds share a key, and the empty prefix of a use that occupies no
    resource is slot -1. Each slot has its busy horizon and its busy time.
    `log` is the run's event log, or None when it keeps none. The log
    shares one tuple of slots (`slot_tuples`) between the commands that
    occupy the same resources. A command's targets are built only when its
    shape has a step priced per event, the only kind that reads one.
    """

    def __init__(self, geometry: Geometry, models: ModelSet, policy: Policy, event_log: bool):
        self.geometry = geometry
        self.price = models.pricer(geometry)
        self.latency_keys = models.latency_keys
        self.policy = policy
        self.compiled: dict[tuple[CommandKind, int], tuple[tuple, tuple, int, bool]] = {}
        self.kind_energy: list[float | None] = [None] * len(_KIND_SLOTS)
        self.slot_of: dict[tuple[int, ...], int] = {(): -1}
        self.resources: list[Resource] = []
        self.busy_until: list[int] = []
        self.busy: list[int] = []
        self.last_end = 0
        self.log = log = EventLog(self.resources) if event_log else None
        self.slot_tuples: dict[tuple[int, ...], tuple[int, ...]] = {}
        # the appends of the log's columns, bound once, as a call per
        # command to a method that appends them costs the run a few percent
        self.log_columns = None if log is None else (
            log.sequence_ids.append, log.steps.append, log.targets.append,
            log.slots.append, log.counts.append, log.starts.append, log.prices.append,
        )

    def place(self, cmd: Command, warnings: tuple[Violation, ...]) -> CommandResult:
        """Place `cmd`'s events and return its result, with `warnings`."""
        compiled, slot_of, resources = self.compiled, self.slot_of, self.resources
        kind_energy, busy_until, busy, log = self.kind_energy, self.busy_until, self.busy, self.log
        operands = cmd.operands
        n_operands, page_count = len(operands), cmd.page_count
        key = (cmd.kind, n_operands)
        found = compiled.get(key)
        if found is None or found[2] < page_count:
            found = compiled[key] = self._compile(cmd.kind, n_operands, page_count)
        chain, uses, chain_pages, per_event = found
        # only a cache kind's chain can be longer than its command
        steps = chain if chain_pages == page_count else chain[: 2 * page_count + 1]
        cmd_slots: list[int] = []
        for resource_kind, length, operand in uses:
            resource_key = operands[operand][:length]
            slot = slot_of.get(resource_key)
            if slot is None:
                slot = slot_of[resource_key] = len(resources)
                resources.append(Resource(resource_kind, resource_key))
                busy_until.append(0)
                busy.append(0)
            cmd_slots.append(slot)
        # only a step priced per event reads its target
        targets = event_targets(cmd) if per_event else None
        arrival = cmd.arrival_ns
        sequence_id = cmd.sequence_id
        if log is not None:
            add_id, add_steps, add_targets, add_slots, add_count, log_start, log_price = (
                self.log_columns
            )
            add_id(sequence_id)
            add_steps(chain)
            add_targets(operands)
            shared = tuple(cmd_slots)
            add_slots(self.slot_tuples.setdefault(shared, shared))
            add_count(len(steps))
        ends: list[int] = []
        completion = arrival
        energy_total = 0.0
        try:
            for kind, index, use, pair, deps, priced, kind_slot in steps:
                ready = arrival
                for dep in deps:
                    if ends[dep] > ready:
                        ready = ends[dep]
                if pair is None:
                    pair = priced(targets[index])
                    if log is not None:
                        log_price(pair)
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
                        raise ModelEvaluationError(self.latency_keys[kind], detail)
                    completion = end
                energy_total += energy
                kind_energy[kind_slot] += energy
                if log is not None:
                    log_start(start)
        except ModelEvaluationError as exc:
            raise exc.located(
                cmd.line, f"the {kind.value} event of {cmd.kind.value} command {sequence_id}"
            ) from exc
        if completion > self.last_end:
            self.last_end = completion
        return CommandResult(sequence_id, cmd.kind, arrival, completion, energy_total, warnings)

    def _compile(
        self, kind: CommandKind, n_operands: int, page_count: int
    ) -> tuple[tuple, tuple[tuple[str | None, int, int], ...], int, bool]:
        """The shape of `kind`, `n_operands` and `page_count` as `place`
        runs it: its steps, (kind, target index, position of its use in
        uses, folded price, deps, pricing function, kind slot), whose first
        four are what the event log reads of a step; those distinct uses,
        (resource kind, key length, operand), in first-step order;
        `page_count`; and whether some step is priced per event. Starts the
        energy total of each kind it has. A step's resource kind and key
        length are its role's in `_OCCUPIES`, under the run's die
        serialization. The pricing function and folded price are the
        step's `Pricer.entry`: the folded price is the pair every event of
        the step costs, or None when the function prices each one."""
        policy, kind_energy = self.policy, self.kind_energy
        occupies = _OCCUPIES[policy.die_serialization]
        extent = LAYOUT[kind] == EXTENT
        uses: dict[tuple[str | None, int, int], int] = {}
        chain = []
        for event_kind, index, deps, role in shape(
            kind, n_operands, page_count, policy.cmd_overhead_on_bus
        ):
            pricing, pair = self.price.entry(event_kind, event_bytes(event_kind, self.geometry))
            use = (*occupies.get(role, (None, 0)), 0 if extent else index)
            slot = _KIND_SLOTS[event_kind]
            if kind_energy[slot] is None:
                kind_energy[slot] = 0.0
            chain.append(
                (event_kind, index, uses.setdefault(use, len(uses)), pair, deps, pricing, slot)
            )
        per_event = any(step[3] is None for step in chain)
        return tuple(chain), tuple(uses), page_count, per_event


def all_resources(geometry: Geometry, die_serialization: bool = False) -> list[Resource]:
    """Every scheduling resource the geometry defines, in sorted order: its
    buses and planes, or its buses and dies under die serialization. Each
    kind of `_OCCUPIES`, by name, keyed by every prefix of its length in
    ascending order."""
    counts = geometry.counts()
    return [
        Resource(kind, key)
        for kind, length in sorted(_OCCUPIES[die_serialization].values())
        for key in product(*map(range, counts[:length]))
    ]


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
