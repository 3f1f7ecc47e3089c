"""Functional model: command taxonomy, validation, event decomposition.

Every command breaks down into a small DAG of primitive hardware events
(command issue overhead, array sense/program, block erase, bus transfers,
page-buffer copies). Events are the unit the timing and power models price
and the engine schedules. Everything here is pure: same command and
geometry in, same event DAG out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .errors import Rule, Severity, Violation
from .topology import (
    FlashAddress,
    Geometry,
    Resource,
    bus_resource,
    plane_resource,
)


class CommandKind(Enum):
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


# How each kind lays out its operands. Code that branches on a command's
# kind looks it up here by `kind._value_`, a plain attribute: a frozenset of
# members would hash each one through Enum.__hash__, a Python-level function
# in 3.11, and `CommandKind.X` is a metaclass attribute lookup.
ONE_ADDRESS = 0  # read, write, erase: one page (erase: its block)
EXTENT = 1  # cache kinds: a start page, plus `page_count` consecutive pages
PAIR = 2  # copy_back: source, destination
PAIRS = 3  # multi_plane_copy_back: alternating source/destination pairs
PLANE_LIST = 4  # multi-plane kinds: one address per plane
DIE_LIST = 5  # interleaved kinds: one address per die

LAYOUT: dict[str, int] = {
    "read": ONE_ADDRESS,
    "write": ONE_ADDRESS,
    "erase": ONE_ADDRESS,
    "copy_back": PAIR,
    "cache_read": EXTENT,
    "cache_write": EXTENT,
    "multi_plane_read": PLANE_LIST,
    "multi_plane_write": PLANE_LIST,
    "multi_plane_erase": PLANE_LIST,
    "interleaved_read": DIE_LIST,
    "interleaved_write": DIE_LIST,
    "interleaved_erase": DIE_LIST,
    "multi_plane_copy_back": PAIRS,
}

# Kinds, by value, that program pages (see `written_pages`) and that erase
# blocks (see `erased_blocks`).
_WRITING = frozenset(
    {
        "write",
        "cache_write",
        "multi_plane_write",
        "interleaved_write",
        "copy_back",
        "multi_plane_copy_back",
    }
)
_ERASING = frozenset({"erase", "multi_plane_erase", "interleaved_erase"})


class EventKind(Enum):
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


@dataclass(frozen=True)
class Command:
    """One trace entry.

    `operands` is interpreted per kind: a single page for read/write/erase
    and the cache ops (which add `page_count` consecutive pages), a
    (source, destination) pair for copy_back, alternating source/destination
    pairs for multi_plane_copy_back, and one address per plane (or die) for
    the multi-plane and interleaved families. `arrival_ns` is on the
    engine's integer-nanosecond timebase.
    """

    arrival_ns: int
    kind: CommandKind
    operands: tuple[FlashAddress, ...]
    page_count: int = 1
    sequence_id: int = 0
    line: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.arrival_ns < 0:
            raise ValueError("arrival time must be >= 0")
        n = len(self.operands)
        layout = LAYOUT[self.kind._value_]
        if layout == ONE_ADDRESS or layout == EXTENT:
            if n != 1:
                raise ValueError(f"{self.kind.value} takes exactly 1 operand, got {n}")
        elif layout == PAIR:
            if n != 2:
                raise ValueError(f"copy_back takes exactly 2 operands, got {n}")
        elif layout == PAIRS:
            if n < 2 or n % 2 != 0:
                raise ValueError(
                    f"multi_plane_copy_back takes source/destination pairs, got {n} operands"
                )
        elif n < 1:
            raise ValueError(f"{self.kind.value} needs at least 1 operand")
        if layout == EXTENT:
            if self.page_count < 1:
                raise ValueError(f"page_count must be >= 1, got {self.page_count}")
        elif self.page_count != 1:
            raise ValueError(f"{self.kind.value} does not take a page count")

    def pairs(self) -> tuple[tuple[FlashAddress, FlashAddress], ...]:
        """(source, destination) pairs for the copy-back kinds."""
        ops = self.operands
        return tuple((ops[i], ops[i + 1]) for i in range(0, len(ops), 2))


@dataclass(frozen=True)
class FlashEvent:
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
    if cmd.kind not in supported:
        return [
            _error(
                Rule.UNSUPPORTED_COMMAND,
                f"command kind '{cmd.kind.value}' is not in the supported set",
                cmd,
            )
        ]
    for addr in cmd.operands:
        if not addr.in_bounds(geometry):
            return [
                _error(
                    Rule.ADDRESS_RANGE,
                    f"address {addr} out of range for geometry {geometry.counts()}",
                    cmd,
                )
            ]
    return [
        v.located(cmd.sequence_id, cmd.line)
        for v in _structural_rules(cmd, geometry, same_offsets)
    ]


def _structural_rules(
    cmd: Command, geometry: Geometry, same_offsets: bool
) -> list[Violation]:
    layout = LAYOUT[cmd.kind._value_]
    if layout == ONE_ADDRESS:
        return []
    if layout == PAIR:
        return _copy_back_rules(cmd.pairs())
    if layout == PAIRS:
        out = _copy_back_rules(cmd.pairs())
        out.extend(_multi_plane_rules(cmd.operands[0::2], same_offsets, "source"))
        if same_offsets:
            out.extend(_offset_rule(cmd.operands[1::2], "destination"))
        return out
    if layout == PLANE_LIST:
        return _multi_plane_rules(cmd.operands, same_offsets, "operand")
    if layout == DIE_LIST:
        return _interleave_rules(cmd.operands)
    # EXTENT: the cache kinds
    start = cmd.operands[0]
    if start.page + cmd.page_count > geometry.pages_per_block:
        return [
            Violation(
                Rule.CACHE_EXTENT,
                Severity.ERROR,
                f"cache extent of {cmd.page_count} pages from page {start.page} "
                f"runs past the block end ({geometry.pages_per_block} pages)",
            )
        ]
    return []


def _copy_back_rules(
    pairs: Iterable[tuple[FlashAddress, FlashAddress]]
) -> list[Violation]:
    out = []
    for src, dst in pairs:
        if src.plane_key() != dst.plane_key():
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


def _multi_plane_rules(
    addrs: Sequence[FlashAddress], same_offsets: bool, role: str
) -> list[Violation]:
    out = []
    dies = {a.die_key() for a in addrs}
    if len(dies) > 1:
        out.append(
            Violation(
                Rule.MULTI_PLANE_SHAPE,
                Severity.ERROR,
                f"multi-plane {role}s span {len(dies)} dies; all must target one die",
            )
        )
    planes = [a.plane_key() for a in addrs]
    if len(set(planes)) != len(planes):
        out.append(
            Violation(
                Rule.MULTI_PLANE_SHAPE,
                Severity.ERROR,
                f"multi-plane {role}s repeat a plane; planes must be distinct",
            )
        )
    if same_offsets and not out:
        out.extend(_offset_rule(addrs, role))
    return out


def _offset_rule(addrs: Sequence[FlashAddress], role: str) -> list[Violation]:
    offsets = {(a.block, a.page) for a in addrs}
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


def _interleave_rules(addrs: Sequence[FlashAddress]) -> list[Violation]:
    out = []
    chips = {a.chip_key() for a in addrs}
    if len(chips) > 1:
        out.append(
            Violation(
                Rule.INTERLEAVE_SHAPE,
                Severity.ERROR,
                f"interleaved operands span {len(chips)} chips; all must target one chip",
            )
        )
    dies = [a.die_key() for a in addrs]
    if len(set(dies)) != len(dies):
        out.append(
            Violation(
                Rule.INTERLEAVE_SHAPE,
                Severity.ERROR,
                "interleaved operands repeat a die; dies must be distinct",
            )
        )
    return out


def written_pages(cmd: Command) -> tuple[FlashAddress, ...]:
    """Pages a command programs, in operand order (empty for reads/erases)."""
    value = cmd.kind._value_
    if value not in _WRITING:
        return ()
    layout = LAYOUT[value]
    if layout == EXTENT:
        return _extent_pages(cmd)
    if layout == PAIR or layout == PAIRS:
        return cmd.operands[1::2]
    return cmd.operands


def erased_blocks(cmd: Command) -> tuple[FlashAddress, ...]:
    """Block-identifying addresses a command erases (empty for the rest)."""
    return cmd.operands if cmd.kind._value_ in _ERASING else ()


def _extent_pages(cmd: Command) -> tuple[FlashAddress, ...]:
    channel, chip, die, plane, block, first = cmd.operands[0].indices()
    return tuple(
        FlashAddress(channel, chip, die, plane, block, page)
        for page in range(first, first + cmd.page_count)
    )


# The resource a shape step occupies, resolved against its target address.
ROLE_NONE, ROLE_PLANE, ROLE_BUS = 0, 1, 2

# One step of a decomposition shape: (event kind, index into the command's
# targets, ids of the earlier steps it waits for, resource role).
Step = tuple[EventKind, int, tuple[int, ...], int]

# The stages each target of a non-copy-back kind runs through, in order.
_READ_STAGES = (EventKind.ARRAY_SENSE, EventKind.BUS_TRANSFER_OUT)
_WRITE_STAGES = (EventKind.BUS_TRANSFER_IN, EventKind.ARRAY_PROGRAM)
_STAGES = {
    CommandKind.READ: _READ_STAGES,
    CommandKind.MULTI_PLANE_READ: _READ_STAGES,
    CommandKind.INTERLEAVED_READ: _READ_STAGES,
    CommandKind.CACHE_READ: _READ_STAGES,
    CommandKind.WRITE: _WRITE_STAGES,
    CommandKind.MULTI_PLANE_WRITE: _WRITE_STAGES,
    CommandKind.INTERLEAVED_WRITE: _WRITE_STAGES,
    CommandKind.CACHE_WRITE: _WRITE_STAGES,
    CommandKind.ERASE: (EventKind.BLOCK_ERASE,),
    CommandKind.MULTI_PLANE_ERASE: (EventKind.BLOCK_ERASE,),
    CommandKind.INTERLEAVED_ERASE: (EventKind.BLOCK_ERASE,),
}

_SHAPES: dict[tuple[str, int, int, bool], tuple[Step, ...]] = {}


def event_targets(cmd: Command) -> tuple[FlashAddress, ...]:
    """The addresses a command's shape steps index: the extent pages of a
    cache command, the operands of every other kind (a copy-back pair i is
    source 2i and destination 2i+1)."""
    return _extent_pages(cmd) if LAYOUT[cmd.kind._value_] == EXTENT else cmd.operands


def event_bytes(kind: EventKind, geometry: Geometry) -> int:
    """Bytes an event of `kind` moves: a page for a bus transfer, else 0."""
    return geometry.page_size if kind in BUS_EVENTS else 0


def shape(
    kind: CommandKind, n_operands: int, page_count: int, cmd_overhead_on_bus: bool
) -> tuple[Step, ...]:
    """The event DAG of every command of this kind, operand count and page
    count, built once and shared; see `decompose` for the shapes."""
    key = (kind._value_, n_operands, page_count, cmd_overhead_on_bus)
    steps = _SHAPES.get(key)
    if steps is None:
        layout = LAYOUT[kind._value_]
        steps = _SHAPES[key] = _build_shape(
            kind, page_count if layout == EXTENT else n_operands, cmd_overhead_on_bus
        )
    return steps


def _build_shape(
    kind: CommandKind, n_targets: int, cmd_overhead_on_bus: bool
) -> tuple[Step, ...]:
    steps: list[Step] = [
        (EventKind.CMD_OVERHEAD, 0, (), ROLE_BUS if cmd_overhead_on_bus else ROLE_NONE)
    ]

    def add(event_kind: EventKind, target: int, *deps: int) -> int:
        role = ROLE_BUS if event_kind in BUS_EVENTS else ROLE_PLANE
        steps.append((event_kind, target, deps, role))
        return len(steps) - 1

    layout = LAYOUT[kind._value_]
    if layout == PAIR or layout == PAIRS:
        for src in range(0, n_targets, 2):
            sense = add(EventKind.ARRAY_SENSE, src, 0)
            copy = add(EventKind.BUFFER_COPY, src, sense)
            add(EventKind.ARRAY_PROGRAM, src + 1, copy)
    elif len(_STAGES[kind]) == 1:
        for target in range(n_targets):
            add(_STAGES[kind][0], target, 0)
    else:
        # a cache command chains each stage to its own previous page, so the
        # array pipelines against the bus; the other kinds fan out per target
        first_kind, second_kind = _STAGES[kind]
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
    resource_of = (lambda a: None, plane_resource, bus_resource)
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
