"""Functional model: command taxonomy, validation, event decomposition.

Every command breaks down into a small DAG of primitive hardware events
(command issue overhead, array sense/program, block erase, bus transfers,
page-buffer copies). Events are the unit the timing and power models price
and the engine schedules. Everything here is pure: same command and
geometry in, same event DAG out.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .errors import IdentityEnum, Record, Rule, Severity, Violation
from .topology import FlashAddress, Geometry, Resource, new_address
from .units import TIME_LIMIT_NS


class CommandKind(IdentityEnum):
    READ = "read"
    WRITE = "write"
    ERASE = "erase"
    COPY_BACK = "copy_back"
    CACHE_READ = "cache_read"
    CACHE_WRITE = "cache_write"
    MULTI_PLANE_READ = "multi_plane_read"
    MULTI_PLANE_WRITE = "multi_plane_write"
    MULTI_PLANE_ERASE = "multi_plane_erase"
    INTERLEAVED_READ = "interleaved_read"
    INTERLEAVED_WRITE = "interleaved_write"
    INTERLEAVED_ERASE = "interleaved_erase"
    MULTI_PLANE_COPY_BACK = "multi_plane_copy_back"


class EventKind(IdentityEnum):
    CMD_OVERHEAD = "cmd_overhead"
    ARRAY_SENSE = "array_sense"
    ARRAY_PROGRAM = "array_program"
    BLOCK_ERASE = "block_erase"
    BUS_TRANSFER_IN = "bus_transfer_in"
    BUS_TRANSFER_OUT = "bus_transfer_out"
    BUFFER_COPY = "buffer_copy"


# Events that run inside a plane's array vs. on the shared channel bus.
PLANE_EVENTS = frozenset(
    {
        EventKind.ARRAY_SENSE,
        EventKind.ARRAY_PROGRAM,
        EventKind.BLOCK_ERASE,
        EventKind.BUFFER_COPY,
    }
)
BUS_EVENTS = frozenset({EventKind.BUS_TRANSFER_IN, EventKind.BUS_TRANSFER_OUT})

# How each kind lays out its operands.
ONE_ADDRESS = 0  # read, write, erase: one page (erase: its block)
EXTENT = 1  # cache kinds: a start page, plus `page_count` consecutive pages
PAIR = 2  # copy_back: source, destination
PAIRS = 3  # multi_plane_copy_back: alternating source/destination pairs
PLANE_LIST = 4  # multi-plane kinds: one address per plane
DIE_LIST = 5  # interleaved kinds: one address per die

# The stages each target runs through, in order (each source/destination
# pair, for the copy-back kinds).
_READ = (EventKind.ARRAY_SENSE, EventKind.BUS_TRANSFER_OUT)
_WRITE = (EventKind.BUS_TRANSFER_IN, EventKind.ARRAY_PROGRAM)
_ERASE = (EventKind.BLOCK_ERASE,)
_COPY_BACK = (EventKind.ARRAY_SENSE, EventKind.BUFFER_COPY, EventKind.ARRAY_PROGRAM)

# Each kind's operand layout and stages. `LAYOUT`, `_WRITING` and
# `_ERASING` are derived from this table, and `shape` reads it.
_KINDS: dict[CommandKind, tuple[int, tuple[EventKind, ...]]] = {
    CommandKind.READ: (ONE_ADDRESS, _READ),
    CommandKind.WRITE: (ONE_ADDRESS, _WRITE),
    CommandKind.ERASE: (ONE_ADDRESS, _ERASE),
    CommandKind.COPY_BACK: (PAIR, _COPY_BACK),
    CommandKind.CACHE_READ: (EXTENT, _READ),
    CommandKind.CACHE_WRITE: (EXTENT, _WRITE),
    CommandKind.MULTI_PLANE_READ: (PLANE_LIST, _READ),
    CommandKind.MULTI_PLANE_WRITE: (PLANE_LIST, _WRITE),
    CommandKind.MULTI_PLANE_ERASE: (PLANE_LIST, _ERASE),
    CommandKind.INTERLEAVED_READ: (DIE_LIST, _READ),
    CommandKind.INTERLEAVED_WRITE: (DIE_LIST, _WRITE),
    CommandKind.INTERLEAVED_ERASE: (DIE_LIST, _ERASE),
    CommandKind.MULTI_PLANE_COPY_BACK: (PAIRS, _COPY_BACK),
}
LAYOUT: dict[CommandKind, int] = {kind: layout for kind, (layout, _) in _KINDS.items()}
# Kinds whose stages program pages (see `written_pages`) and whose stages are
# one block erase (see `erased_blocks`).
_WRITING = frozenset(
    kind for kind, (_, stages) in _KINDS.items() if EventKind.ARRAY_PROGRAM in stages
)
_ERASING = frozenset(kind for kind, (_, stages) in _KINDS.items() if stages == _ERASE)


class Command(Record):
    """One trace entry.

    `operands` is interpreted per kind: a single page for read/write/erase
    and the cache ops (which add `page_count` consecutive pages), a
    (source, destination) pair for copy_back, alternating source/destination
    pairs for multi_plane_copy_back, and one address per plane (or die) for
    the multi-plane and interleaved families. `arrival_ns` is on the
    engine's integer-nanosecond timebase, in [0, 2**63).

    A checked record (see `errors.Record`) that rejects an arrival outside
    that range and an operand layout or page count its kind does not take.
    Equality and hash ignore `line`, the trace line a command was parsed from.
    """

    arrival_ns: int
    kind: CommandKind
    operands: tuple[FlashAddress, ...]
    page_count: int = 1
    sequence_id: int = 0
    line: int | None = None

    def _check(self) -> None:
        arrival_ns, kind, operands, page_count = self[:4]
        if arrival_ns < 0:
            raise ValueError("arrival time must be >= 0")
        if arrival_ns >= TIME_LIMIT_NS:
            raise ValueError("arrival time must be below 2**63 ns")
        n = len(operands)
        layout = LAYOUT[kind]
        if layout == ONE_ADDRESS or layout == EXTENT:
            if n != 1:
                raise ValueError(f"{kind.value} takes exactly 1 operand, got {n}")
        elif layout == PAIR:
            if n != 2:
                raise ValueError(f"copy_back takes exactly 2 operands, got {n}")
        elif layout == PAIRS:
            if n < 2 or n % 2 != 0:
                raise ValueError(
                    f"multi_plane_copy_back takes source/destination pairs, got {n} operands"
                )
        elif n < 1:
            raise ValueError(f"{kind.value} needs at least 1 operand")
        if layout == EXTENT:
            if page_count < 1:
                raise ValueError(f"page_count must be >= 1, got {page_count}")
        elif page_count != 1:
            raise ValueError(f"{kind.value} does not take a page count")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Command):
            return self[:5] == other[:5]
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, Command):
            return self[:5] != other[:5]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self[:5])


class FlashEvent(Record):
    """A primitive hardware activity within one command's decomposition.

    `depends_on` references earlier event ids (list positions) of the same
    command, so any decomposition is emitted in topological order. `resource`
    names the single unit the event occupies: the target's plane for array
    and buffer events, the target's channel bus for transfers, and nothing
    for command overhead unless the policy binds overhead to the bus.
    """

    kind: EventKind
    target: FlashAddress
    byte_count: int
    resource: Resource | None
    depends_on: frozenset[int]


def validate(
    cmd: Command,
    geometry: Geometry,
    supported: frozenset[CommandKind],
    same_offsets: bool = True,
) -> list[Violation]:
    """Check one command, returning every violation found.

    Checks run in a fixed order and stop at the first error-severity
    finding: supported kind, operand address ranges, then the kind-specific
    structural rules. Structural impossibilities (cross-plane copy-back,
    repeated planes or dies, cache extents past the block end) are errors;
    copy-back page parity is a warning that a strict policy may escalate.
    Erase-before-write and endurance depend on device state and are flagged
    by `SubsystemState` during the engine's replay. Die-interleaving
    requires only distinct dies of one chip; no offset rule is imposed
    across dies. `same_offsets` enforces identical (block, page) offsets
    across multi-plane operands and can be switched off for chips without
    that restriction.
    """
    _, kind, operands, page_count, sequence_id, line = cmd
    if kind not in supported:
        return [
            _error(
                Rule.UNSUPPORTED_COMMAND,
                f"command kind '{kind.value}' is not in the supported set",
                cmd,
            )
        ]
    # the six range comparisons, inlined per operand
    channels, chips, dies, planes, blocks, pages, _, _ = geometry
    for addr in operands:
        channel, chip, die, plane, block, page = addr
        if not (
            0 <= channel < channels
            and 0 <= chip < chips
            and 0 <= die < dies
            and 0 <= plane < planes
            and 0 <= block < blocks
            and 0 <= page < pages
        ):
            return [
                _error(
                    Rule.ADDRESS_RANGE,
                    f"address {addr} out of range for geometry {geometry.counts()}",
                    cmd,
                )
            ]
    layout = LAYOUT[kind]
    if layout == ONE_ADDRESS:
        return []
    if layout == PAIR:
        found = _copy_back_rules(operands)
    elif layout == PAIRS:
        found = _copy_back_rules(operands)
        found.extend(_multi_plane_rules(operands[0::2], same_offsets, "source"))
        if same_offsets:
            found.extend(_offset_rule(operands[1::2], "destination"))
    elif layout == PLANE_LIST:
        found = _multi_plane_rules(operands, same_offsets, "operand")
    elif layout == DIE_LIST:
        found = _fan_out_rules(operands, "operand", _INTERLEAVED)
    else:  # EXTENT: the cache kinds
        first = operands[0].page
        if first + page_count > pages:
            return [
                _error(
                    Rule.CACHE_EXTENT,
                    f"cache extent of {page_count} pages from page {first} "
                    f"runs past the block end ({pages} pages)",
                    cmd,
                )
            ]
        return []
    return [v.located(sequence_id, line) for v in found] if found else found


def _copy_back_rules(operands: Sequence[FlashAddress]) -> list[Violation]:
    """Each (source, destination) pair of alternating copy-back operands."""
    out = []
    for src, dst in zip(operands[0::2], operands[1::2]):
        if src[:4] != dst[:4]:
            out.append(
                Violation(
                    Rule.COPY_BACK_CROSS_PLANE,
                    Severity.ERROR,
                    f"copy-back source {src} and destination {dst} are in different planes",
                )
            )
        elif src.page % 2 != dst.page % 2:
            out.append(
                Violation(
                    Rule.COPY_BACK_PARITY,
                    Severity.WARNING,
                    f"copy-back page indices {src.page} and {dst.page} must be "
                    "both odd or both even",
                )
            )
    return out


# The fan-out rules of the multi-plane and interleaved families: the operands
# name one shared unit, and each names a distinct unit one level below it.
# `_CHIP`, `_DIE` and `_PLANE` key an address by the unit it names, its
# prefix. Each family's entry: (rule, family name, shared unit's key and
# name, own unit's key and name).
_CHIP, _DIE, _PLANE = itemgetter(slice(2)), itemgetter(slice(3)), itemgetter(slice(4))
_MULTI_PLANE = (Rule.MULTI_PLANE_SHAPE, "multi-plane", _DIE, "die", _PLANE, "plane")
_INTERLEAVED = (Rule.INTERLEAVE_SHAPE, "interleaved", _CHIP, "chip", _DIE, "die")


def _fan_out_rules(addrs: Sequence[FlashAddress], role: str, family: tuple) -> list[Violation]:
    """One family's fan-out findings on `addrs`, each named a `role`: more
    than one shared unit, then a repeated own unit."""
    rule, name, shared_of, shared, own_of, own = family
    out = []
    n_shared = len(set(map(shared_of, addrs)))
    if n_shared > 1:
        message = f"{name} {role}s span {n_shared} {shared}s; all must target one {shared}"
        out.append(Violation(rule, Severity.ERROR, message))
    if len(set(map(own_of, addrs))) != len(addrs):
        message = f"{name} {role}s repeat a {own}; {own}s must be distinct"
        out.append(Violation(rule, Severity.ERROR, message))
    return out


def _multi_plane_rules(
    addrs: Sequence[FlashAddress], same_offsets: bool, role: str
) -> list[Violation]:
    out = _fan_out_rules(addrs, role, _MULTI_PLANE)
    if same_offsets and not out:
        out = _offset_rule(addrs, role)
    return out


def _offset_rule(addrs: Sequence[FlashAddress], role: str) -> list[Violation]:
    offsets = {a[4:] for a in addrs}  # (block, page)
    if len(offsets) > 1:
        return [
            Violation(
                Rule.MULTI_PLANE_SHAPE,
                Severity.ERROR,
                f"multi-plane {role}s must share one (block, page) offset, "
                f"got {sorted(offsets)}",
            )
        ]
    return []


def written_pages(cmd: Command) -> tuple[tuple[FlashAddress, ...], int]:
    """The pages a command programs, as runs: (first pages, run length).

    Each first page starts a run of that many consecutive pages of its
    block, in operand order: a cache write is one run of its page count,
    every other writing kind writes single pages, and reads and erases
    write none."""
    kind = cmd.kind
    if kind not in _WRITING:
        return (), 1
    layout = LAYOUT[kind]
    if layout == EXTENT:
        return cmd.operands, cmd.page_count
    if layout == PAIR or layout == PAIRS:
        return cmd.operands[1::2], 1
    return cmd.operands, 1


def erased_blocks(cmd: Command) -> tuple[FlashAddress, ...]:
    """Block-identifying addresses a command erases (empty for the rest)."""
    return cmd.operands if cmd.kind in _ERASING else ()


# The resource a shape step occupies, resolved against its target address.
ROLE_NONE, ROLE_PLANE, ROLE_BUS = 0, 1, 2

# One step of a decomposition shape: (event kind, index into the command's
# targets, ids of the earlier steps it waits for, resource role).
Step = tuple[EventKind, int, tuple[int, ...], int]


def event_targets(cmd: Command) -> tuple[FlashAddress, ...]:
    """The addresses a command's shape steps index: the extent pages of a
    cache command, the operands of every other kind (a copy-back pair i is
    source 2i and destination 2i+1)."""
    if LAYOUT[cmd.kind] != EXTENT:
        return cmd.operands
    channel, chip, die, plane, block, first = cmd.operands[0]
    return tuple(
        map(
            new_address,
            [
                (channel, chip, die, plane, block, page)
                for page in range(first, first + cmd.page_count)
            ],
        )
    )


def event_bytes(kind: EventKind, geometry: Geometry) -> int:
    """Bytes an event of `kind` moves: a page for a bus transfer, else 0."""
    return geometry.page_size if kind in BUS_EVENTS else 0


def shape(
    kind: CommandKind, n_operands: int, page_count: int, cmd_overhead_on_bus: bool
) -> tuple[Step, ...]:
    """The event DAG of every command of this kind, operand count and page
    count; see `decompose` for the shapes. Nothing is cached here: the
    engine builds each shape once per run and drops it with the run."""
    layout, stages = _KINDS[kind]
    n_targets = page_count if layout == EXTENT else n_operands
    steps: list[Step] = [
        (EventKind.CMD_OVERHEAD, 0, (), ROLE_BUS if cmd_overhead_on_bus else ROLE_NONE)
    ]

    def add(event_kind: EventKind, target: int, *deps: int) -> int:
        role = ROLE_BUS if event_kind in BUS_EVENTS else ROLE_PLANE
        steps.append((event_kind, target, deps, role))
        return len(steps) - 1

    if layout == PAIR or layout == PAIRS:
        # each pair chains its source's sense to its destination's program
        sense_kind, copy_kind, program_kind = stages
        for src in range(0, n_targets, 2):
            sense = add(sense_kind, src, 0)
            copy = add(copy_kind, src, sense)
            add(program_kind, src + 1, copy)
    elif len(stages) == 1:
        for target in range(n_targets):
            add(stages[0], target, 0)
    else:
        # a cache command chains each stage to its own previous page, so the
        # array pipelines against the bus; the other kinds fan out per target
        first_kind, second_kind = stages
        chained = layout == EXTENT
        first = second = None
        for target in range(n_targets):
            if chained and first is not None:
                first = add(first_kind, target, first)
                second = add(second_kind, target, first, second)
            else:
                first = add(first_kind, target, 0)
                second = add(second_kind, target, first)
    return tuple(steps)


def decompose(
    cmd: Command, geometry: Geometry, cmd_overhead_on_bus: bool = False
) -> list[FlashEvent]:
    """Break a validated command into its ordered event DAG.

    Shapes:
      read        overhead -> sense -> transfer out
      write       overhead -> transfer in -> program
      erase       overhead -> block erase
      copy_back   overhead -> sense(src) -> buffer copy -> program(dst),
                  a linear chain with no bus transfer
      cache_read  one overhead, then per page i: sense(i+1) depends only on
                  sense(i), transfer(i) depends on sense(i) and transfer(i-1),
                  pipelining array access against the bus; cache_write is the
                  mirror image (transfer chain feeding programs)
      multi-plane / interleaved families: one shared overhead plus per-plane
                  (per-die) copies of the legacy shape; array events are
                  mutually independent, transfers contend on the channel bus
      multi_plane_copy_back: per-plane copy-back chains off one overhead

    Event ids are list positions; the dependency sets only reference earlier
    positions. Identical (cmd, geometry) always yields an identical list.
    This instantiates the command's `shape`, which the engine reads directly.
    """
    targets = event_targets(cmd)
    # by role: none, the target's plane, its channel bus
    resource_of = (
        lambda a: None,
        lambda a: Resource("plane", a[:4]),
        lambda a: Resource("bus", a[:1]),
    )
    return [
        FlashEvent(
            kind,
            targets[index],
            event_bytes(kind, geometry),
            resource=resource_of[role](targets[index]),
            depends_on=frozenset(deps),
        )
        for kind, index, deps, role in shape(
            cmd.kind, len(cmd.operands), cmd.page_count, cmd_overhead_on_bus
        )
    ]


def _error(rule: Rule, message: str, cmd: Command) -> Violation:
    return Violation(rule, Severity.ERROR, message, cmd.sequence_id, cmd.line)
