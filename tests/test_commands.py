from __future__ import annotations

import random

import pytest

from flashsim.commands import (
    BUS_EVENTS,
    Command,
    CommandKind,
    EventKind,
    decompose,
    erased_blocks,
    shape,
    validate,
    written_pages,
)
from flashsim.errors import Rule, Severity
from flashsim.topology import Resource

from conftest import A
from gen import random_trace


def cmd(kind, *operands, page_count=1, arrival=0):
    return Command(arrival, kind, tuple(operands), page_count)


def rules(violations):
    return [v.rule for v in violations]


MULTI_PLANE, INTERLEAVED = Rule.MULTI_PLANE_SHAPE, Rule.INTERLEAVE_SHAPE
SPAN_DIES = (MULTI_PLANE, "multi-plane operands span 2 dies; all must target one die")
REPEAT_PLANE = (MULTI_PLANE, "multi-plane operands repeat a plane; planes must be distinct")
SPAN_CHIPS = (INTERLEAVED, "interleaved operands span 2 chips; all must target one chip")
REPEAT_DIE = (INTERLEAVED, "interleaved operands repeat a die; dies must be distinct")
# (kind, operands, the (rule, message) of each finding in order); every
# finding of the multi-plane and interleaved shape rules is an error
FAN_OUT_CASES = [
    (CommandKind.MULTI_PLANE_READ, (A(die=0), A(die=1, plane=1)), [SPAN_DIES]),
    (CommandKind.MULTI_PLANE_WRITE, (A(plane=1), A(plane=1)), [REPEAT_PLANE]),
    (
        CommandKind.MULTI_PLANE_ERASE,
        (A(die=0), A(die=1), A(die=1, block=1)),
        [SPAN_DIES, REPEAT_PLANE],
    ),
    (
        CommandKind.MULTI_PLANE_WRITE,
        (A(plane=0, block=2), A(plane=1, block=1, page=3)),
        [
            (
                MULTI_PLANE,
                "multi-plane operands must share one (block, page) offset, "
                "got [(1, 3), (2, 0)]",
            )
        ],
    ),
    (CommandKind.INTERLEAVED_READ, (A(chip=0), A(chip=1, die=1)), [SPAN_CHIPS]),
    (CommandKind.INTERLEAVED_WRITE, (A(die=1), A(die=1, plane=1)), [REPEAT_DIE]),
    (
        CommandKind.INTERLEAVED_ERASE,
        (A(chip=0), A(chip=1), A(chip=1, plane=1)),
        [SPAN_CHIPS, REPEAT_DIE],
    ),
    (
        CommandKind.MULTI_PLANE_COPY_BACK,
        (
            A(die=0, page=1), A(die=0, block=1, page=3),
            A(die=1, plane=1, page=1), A(die=1, plane=1, block=2, page=3),
        ),
        [
            (MULTI_PLANE, "multi-plane sources span 2 dies; all must target one die"),
            (
                MULTI_PLANE,
                "multi-plane destinations must share one (block, page) offset, "
                "got [(1, 3), (2, 3)]",
            ),
        ],
    ),
]


class TestValidate:
    def test_copy_back_same_plane_both_odd_is_ok(self, geometry, supported):
        # pages 3 and 5: both odd, same plane
        c = cmd(CommandKind.COPY_BACK, A(page=3), A(block=1, page=5))
        assert validate(c, geometry, supported) == []

    def test_copy_back_parity_violation_flagged(self, geometry, supported):
        c = cmd(CommandKind.COPY_BACK, A(page=2), A(block=1, page=5))
        found = validate(c, geometry, supported)
        assert rules(found) == [Rule.COPY_BACK_PARITY]
        assert found[0].severity is Severity.WARNING

    def test_copy_back_cross_plane_is_an_error(self, geometry, supported):
        c = cmd(CommandKind.COPY_BACK, A(plane=0, page=3), A(plane=1, page=3))
        found = validate(c, geometry, supported)
        assert rules(found) == [Rule.COPY_BACK_CROSS_PLANE]
        assert found[0].severity is Severity.ERROR

    def test_parity_rule_completeness_one_plane(self, geometry, supported):
        # exhaustive over all ordered page pairs in one plane: accepted iff
        # the two indices are congruent mod 2 (32 of 64 pairs)
        accepted = 0
        for src_page in range(geometry.pages_per_block):
            for dst_page in range(geometry.pages_per_block):
                c = cmd(
                    CommandKind.COPY_BACK,
                    A(page=src_page),
                    A(block=2, page=dst_page),
                )
                found = validate(c, geometry, supported)
                if src_page % 2 == dst_page % 2:
                    assert found == []
                    accepted += 1
                else:
                    assert rules(found) == [Rule.COPY_BACK_PARITY]
        assert accepted == 32

    def test_all_cross_plane_pairs_rejected(self, geometry, supported):
        for src_page in range(geometry.pages_per_block):
            for dst_page in range(geometry.pages_per_block):
                c = cmd(
                    CommandKind.COPY_BACK,
                    A(plane=0, page=src_page),
                    A(plane=1, page=dst_page),
                )
                assert Rule.COPY_BACK_CROSS_PLANE in rules(
                    validate(c, geometry, supported)
                )

    def test_unsupported_kind_rejected(self, geometry):
        legacy = frozenset({CommandKind.READ, CommandKind.WRITE, CommandKind.ERASE})
        c = cmd(CommandKind.CACHE_READ, A(), page_count=2)
        found = validate(c, geometry, legacy)
        assert rules(found) == [Rule.UNSUPPORTED_COMMAND]

    def test_address_one_past_the_end_rejected(self, geometry, supported):
        c = cmd(CommandKind.READ, A(block=geometry.blocks_per_plane))
        found = validate(c, geometry, supported)
        assert rules(found) == [Rule.ADDRESS_RANGE]

    def test_multi_plane_repeats_a_plane(self, geometry, supported):
        c = cmd(CommandKind.MULTI_PLANE_READ, A(plane=1), A(plane=1))
        assert Rule.MULTI_PLANE_SHAPE in rules(validate(c, geometry, supported))

    def test_multi_plane_spanning_dies_rejected(self, geometry, supported):
        c = cmd(CommandKind.MULTI_PLANE_READ, A(die=0), A(die=1, plane=1))
        assert Rule.MULTI_PLANE_SHAPE in rules(validate(c, geometry, supported))

    def test_multi_plane_offset_rule_and_relaxation(self, geometry, supported):
        c = cmd(
            CommandKind.MULTI_PLANE_WRITE, A(plane=0, block=1), A(plane=1, block=2)
        )
        assert Rule.MULTI_PLANE_SHAPE in rules(validate(c, geometry, supported))
        assert validate(c, geometry, supported, same_offsets=False) == []
        aligned = cmd(
            CommandKind.MULTI_PLANE_WRITE, A(plane=0, block=1), A(plane=1, block=1)
        )
        assert validate(aligned, geometry, supported) == []

    def test_interleave_requires_distinct_dies_one_chip(self, geometry, supported):
        same_die = cmd(CommandKind.INTERLEAVED_READ, A(die=1), A(die=1, plane=1))
        assert Rule.INTERLEAVE_SHAPE in rules(validate(same_die, geometry, supported))
        cross_chip = cmd(CommandKind.INTERLEAVED_READ, A(chip=0), A(chip=1, die=1))
        assert Rule.INTERLEAVE_SHAPE in rules(validate(cross_chip, geometry, supported))
        # distinct dies may use arbitrary per-die plane/block/page offsets
        free = cmd(
            CommandKind.INTERLEAVED_READ,
            A(die=0, plane=1, block=3, page=7),
            A(die=1, plane=0, block=0, page=1),
        )
        assert validate(free, geometry, supported) == []

    def test_cache_extent_past_block_end(self, geometry, supported):
        fits = cmd(CommandKind.CACHE_READ, A(page=5), page_count=3)
        assert validate(fits, geometry, supported) == []
        runs_over = cmd(CommandKind.CACHE_READ, A(page=5), page_count=4)
        assert rules(validate(runs_over, geometry, supported)) == [Rule.CACHE_EXTENT]

    def test_multi_plane_copy_back_pairs_checked(self, geometry, supported):
        good = cmd(
            CommandKind.MULTI_PLANE_COPY_BACK,
            A(plane=0, page=1), A(plane=0, block=1, page=3),
            A(plane=1, page=1), A(plane=1, block=1, page=3),
        )
        assert validate(good, geometry, supported) == []
        bad_parity = cmd(
            CommandKind.MULTI_PLANE_COPY_BACK,
            A(plane=0, page=1), A(plane=0, block=1, page=2),
            A(plane=1, page=1), A(plane=1, block=1, page=3),
        )
        assert Rule.COPY_BACK_PARITY in rules(validate(bad_parity, geometry, supported))
        repeated_plane = cmd(
            CommandKind.MULTI_PLANE_COPY_BACK,
            A(plane=0, page=1), A(plane=0, block=1, page=3),
            A(plane=0, page=1), A(plane=0, block=2, page=3),
        )
        assert Rule.MULTI_PLANE_SHAPE in rules(
            validate(repeated_plane, geometry, supported)
        )

    @pytest.mark.parametrize("kind, operands, expected", FAN_OUT_CASES)
    def test_fan_out_finding_texts(self, geometry, supported, kind, operands, expected):
        c = Command(0, kind, operands, sequence_id=3, line=9)
        assert [tuple(v) for v in validate(c, geometry, supported)] == [
            (rule, Severity.ERROR, message, 3, 9) for rule, message in expected
        ]

    def test_checks_stop_at_first_error(self, geometry):
        c = cmd(CommandKind.COPY_BACK, A(block=99), A(plane=1))
        found = validate(c, geometry, frozenset({CommandKind.COPY_BACK}))
        assert rules(found) == [Rule.ADDRESS_RANGE]


class TestCommandArity:
    def test_wrong_operand_counts_rejected_at_construction(self):
        with pytest.raises(ValueError, match="^copy_back takes exactly 2 operands, got 1$"):
            cmd(CommandKind.COPY_BACK, A())
        with pytest.raises(ValueError, match="^read takes exactly 1 operand, got 2$"):
            cmd(CommandKind.READ, A(), A())
        with pytest.raises(ValueError, match="^cache_write takes exactly 1 operand, got 0$"):
            cmd(CommandKind.CACHE_WRITE)
        with pytest.raises(
            ValueError,
            match="^multi_plane_copy_back takes source/destination pairs, got 3 operands$",
        ):
            cmd(CommandKind.MULTI_PLANE_COPY_BACK, A(), A(), A())
        with pytest.raises(
            ValueError,
            match="^multi_plane_copy_back takes source/destination pairs, got 0 operands$",
        ):
            cmd(CommandKind.MULTI_PLANE_COPY_BACK)
        with pytest.raises(ValueError, match="^interleaved_read needs at least 1 operand$"):
            cmd(CommandKind.INTERLEAVED_READ)
        with pytest.raises(ValueError, match="^page_count must be >= 1, got 0$"):
            cmd(CommandKind.CACHE_READ, A(), page_count=0)
        with pytest.raises(ValueError, match="^read does not take a page count$"):
            cmd(CommandKind.READ, A(), page_count=2)
        with pytest.raises(ValueError, match="^arrival time must be >= 0$"):
            Command(-1, CommandKind.READ, (A(),))
        assert Command(2**63 - 1, CommandKind.READ, (A(),)).arrival_ns == 2**63 - 1
        with pytest.raises(ValueError, match=r"^arrival time must be below 2\*\*63 ns$"):
            Command(2**63, CommandKind.READ, (A(),))

    def test_replace_and_make_run_the_same_checks(self):
        read = cmd(CommandKind.READ, A())
        assert read._replace(arrival_ns=5) == cmd(CommandKind.READ, A(), arrival=5)
        with pytest.raises(ValueError, match="^read does not take a page count$"):
            read._replace(page_count=3)
        with pytest.raises(ValueError, match="^arrival time must be >= 0$"):
            Command._make((-1, CommandKind.READ, (A(),), 1, 0, None))
        with pytest.raises(ValueError, match="^read does not take a page count$"):
            Command._make((0, CommandKind.READ, (A(),), 3, 0, None))
        with pytest.raises(ValueError, match=r"^arrival time must be below 2\*\*63 ns$"):
            read._replace(arrival_ns=2**63)


class TestCommandRecord:
    def test_equality_and_hash_ignore_the_line(self):
        first = Command(10, CommandKind.WRITE, (A(page=1),), sequence_id=4, line=7)
        second = Command(10, CommandKind.WRITE, (A(page=1),), sequence_id=4, line=99)
        assert first == second
        assert not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert second.line == 99

    @pytest.mark.parametrize(
        "change",
        [
            {"arrival_ns": 11},
            {"kind": CommandKind.CACHE_READ},
            {"operands": (A(page=2),)},
            {"page_count": 3},
            {"sequence_id": 5},
        ],
    )
    def test_every_other_field_counts_for_equality(self, change):
        first = Command(10, CommandKind.CACHE_WRITE, (A(page=1),), 2, 4, line=7)
        second = first._replace(**change)
        assert first != second
        assert not first == second


# (command, the pages it programs, the blocks it erases), written out for
# every kind
STATE_EFFECTS = [
    (cmd(CommandKind.READ, A(page=3)), (), ()),
    (cmd(CommandKind.WRITE, A(page=3)), (A(page=3),), ()),
    (cmd(CommandKind.ERASE, A(block=2)), (), (A(block=2),)),
    (
        cmd(CommandKind.COPY_BACK, A(page=1), A(block=1, page=3)),
        (A(block=1, page=3),),
        (),
    ),
    (cmd(CommandKind.CACHE_READ, A(page=2), page_count=3), (), ()),
    (
        cmd(CommandKind.CACHE_WRITE, A(block=1, page=2), page_count=3),
        (A(block=1, page=2), A(block=1, page=3), A(block=1, page=4)),
        (),
    ),
    (cmd(CommandKind.MULTI_PLANE_READ, A(plane=0, page=4), A(plane=1, page=4)), (), ()),
    (
        cmd(CommandKind.MULTI_PLANE_WRITE, A(plane=0, page=4), A(plane=1, page=4)),
        (A(plane=0, page=4), A(plane=1, page=4)),
        (),
    ),
    (
        cmd(CommandKind.MULTI_PLANE_ERASE, A(plane=0, block=3), A(plane=1, block=3)),
        (),
        (A(plane=0, block=3), A(plane=1, block=3)),
    ),
    (cmd(CommandKind.INTERLEAVED_READ, A(die=0), A(die=1)), (), ()),
    (
        cmd(CommandKind.INTERLEAVED_WRITE, A(die=0, page=5), A(die=1, page=6)),
        (A(die=0, page=5), A(die=1, page=6)),
        (),
    ),
    (
        cmd(CommandKind.INTERLEAVED_ERASE, A(die=0, block=1), A(die=1, block=2)),
        (),
        (A(die=0, block=1), A(die=1, block=2)),
    ),
    (
        cmd(
            CommandKind.MULTI_PLANE_COPY_BACK,
            A(plane=0, page=1),
            A(plane=0, block=2, page=3),
            A(plane=1, page=1),
            A(plane=1, block=2, page=3),
        ),
        (A(plane=0, block=2, page=3), A(plane=1, block=2, page=3)),
        (),
    ),
]


class TestStateEffects:
    def test_every_kind_has_a_case(self):
        assert [c.kind for c, _, _ in STATE_EFFECTS] == list(CommandKind)

    @pytest.mark.parametrize(
        "command, pages, blocks",
        STATE_EFFECTS,
        ids=[c.kind.value for c, _, _ in STATE_EFFECTS],
    )
    def test_written_pages_and_erased_blocks(self, command, pages, blocks):
        firsts, count = written_pages(command)
        # a cache write is one run of its page count, the rest single pages
        assert count == (command.page_count if firsts else 1)
        assert tuple(
            first._replace(page=first.page + i) for first in firsts for i in range(count)
        ) == pages
        assert erased_blocks(command) == blocks


class TestDecompose:
    def test_read_shape(self, geometry):
        events = decompose(cmd(CommandKind.READ, A(page=2)), geometry)
        assert [e.kind for e in events] == [
            EventKind.CMD_OVERHEAD,
            EventKind.ARRAY_SENSE,
            EventKind.BUS_TRANSFER_OUT,
        ]
        assert [e.depends_on for e in events] == [
            frozenset(), frozenset({0}), frozenset({1}),
        ]
        assert events[2].byte_count == geometry.page_size

    def test_write_shape(self, geometry):
        events = decompose(cmd(CommandKind.WRITE, A()), geometry)
        assert [e.kind for e in events] == [
            EventKind.CMD_OVERHEAD,
            EventKind.BUS_TRANSFER_IN,
            EventKind.ARRAY_PROGRAM,
        ]

    def test_erase_shape(self, geometry):
        events = decompose(cmd(CommandKind.ERASE, A(block=3)), geometry)
        assert [e.kind for e in events] == [
            EventKind.CMD_OVERHEAD,
            EventKind.BLOCK_ERASE,
        ]

    def test_copy_back_is_a_linear_chain_with_no_bus_transfer(self, geometry):
        src, dst = A(page=3), A(block=1, page=5)
        events = decompose(cmd(CommandKind.COPY_BACK, src, dst), geometry)
        assert [e.kind for e in events] == [
            EventKind.CMD_OVERHEAD,
            EventKind.ARRAY_SENSE,
            EventKind.BUFFER_COPY,
            EventKind.ARRAY_PROGRAM,
        ]
        assert [e.depends_on for e in events] == [
            frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
        ]
        assert events[1].target == src and events[3].target == dst

    def test_cache_read_of_one_degenerates_to_read(self, geometry):
        single = decompose(cmd(CommandKind.CACHE_READ, A()), geometry)
        read = decompose(cmd(CommandKind.READ, A()), geometry)
        assert single == read

    def test_cache_read_pipeline_dependencies(self, geometry):
        events = decompose(
            cmd(CommandKind.CACHE_READ, A(page=2), page_count=3), geometry
        )
        kinds = [e.kind for e in events]
        assert kinds.count(EventKind.ARRAY_SENSE) == 3
        assert kinds.count(EventKind.BUS_TRANSFER_OUT) == 3
        # layout: overhead, s0, x0, s1, x1, s2, x2
        assert events[3].depends_on == frozenset({1})  # sense 1 on sense 0 only
        assert events[5].depends_on == frozenset({3})
        assert events[4].depends_on == frozenset({3, 2})  # xfer 1 on sense 1, xfer 0
        assert events[6].depends_on == frozenset({5, 4})
        pages = [e.target.page for e in events if e.kind is EventKind.ARRAY_SENSE]
        assert pages == [2, 3, 4]

    def test_cache_write_mirrors_cache_read(self, geometry):
        events = decompose(
            cmd(CommandKind.CACHE_WRITE, A(), page_count=2), geometry
        )
        assert [e.kind for e in events] == [
            EventKind.CMD_OVERHEAD,
            EventKind.BUS_TRANSFER_IN,
            EventKind.ARRAY_PROGRAM,
            EventKind.BUS_TRANSFER_IN,
            EventKind.ARRAY_PROGRAM,
        ]
        assert events[3].depends_on == frozenset({1})  # xfer chain
        assert events[4].depends_on == frozenset({3, 2})  # program needs data + order

    def test_multi_plane_erase_events_are_independent(self, geometry):
        events = decompose(
            cmd(CommandKind.MULTI_PLANE_ERASE, A(plane=0), A(plane=1)), geometry
        )
        assert [e.kind for e in events] == [
            EventKind.CMD_OVERHEAD,
            EventKind.BLOCK_ERASE,
            EventKind.BLOCK_ERASE,
        ]
        assert events[1].depends_on == events[2].depends_on == frozenset({0})
        assert events[1].resource != events[2].resource

    @pytest.mark.parametrize(
        "kind,array_kind",
        [
            (CommandKind.MULTI_PLANE_READ, EventKind.ARRAY_SENSE),
            (CommandKind.MULTI_PLANE_WRITE, EventKind.ARRAY_PROGRAM),
            (CommandKind.MULTI_PLANE_ERASE, EventKind.BLOCK_ERASE),
        ],
    )
    def test_event_count_law_multi_plane(self, geometry, kind, array_kind):
        for k in (1, 2):
            operands = tuple(A(plane=p) for p in range(k))
            events = decompose(cmd(kind, *operands), geometry)
            assert sum(1 for e in events if e.kind is array_kind) == k
            assert sum(1 for e in events if e.kind is EventKind.CMD_OVERHEAD) == 1

    def test_event_count_law_cache(self, geometry):
        for n in (1, 4, 8):
            events = decompose(
                cmd(CommandKind.CACHE_READ, A(), page_count=n), geometry
            )
            assert sum(1 for e in events if e.kind is EventKind.ARRAY_SENSE) == n
            assert sum(1 for e in events if e.kind is EventKind.BUS_TRANSFER_OUT) == n

    @pytest.mark.parametrize("kind", [CommandKind.CACHE_READ, CommandKind.CACHE_WRITE])
    @pytest.mark.parametrize("cmd_overhead_on_bus", [False, True])
    def test_a_cache_shape_is_a_prefix_of_every_longer_one(self, kind, cmd_overhead_on_bus):
        # the engine compiles one chain per cache kind and runs its first
        # 2n + 1 steps for a command of n pages
        for longest in range(1, 17):
            chain = shape(kind, 1, longest, cmd_overhead_on_bus)
            for n in range(1, longest + 1):
                assert shape(kind, 1, n, cmd_overhead_on_bus) == chain[: 2 * n + 1]

    def test_multi_plane_copy_back_per_plane_chains(self, geometry):
        events = decompose(
            cmd(
                CommandKind.MULTI_PLANE_COPY_BACK,
                A(plane=0, page=1), A(plane=0, block=1, page=3),
                A(plane=1, page=1), A(plane=1, block=1, page=3),
            ),
            geometry,
        )
        kinds = [e.kind for e in events]
        assert kinds == [
            EventKind.CMD_OVERHEAD,
            EventKind.ARRAY_SENSE, EventKind.BUFFER_COPY, EventKind.ARRAY_PROGRAM,
            EventKind.ARRAY_SENSE, EventKind.BUFFER_COPY, EventKind.ARRAY_PROGRAM,
        ]
        assert events[4].depends_on == frozenset({0})  # second chain off overhead

    def test_overhead_resource_binding(self, geometry):
        free = decompose(cmd(CommandKind.READ, A(channel=1)), geometry)
        assert free[0].resource is None
        bound = decompose(
            cmd(CommandKind.READ, A(channel=1)), geometry, cmd_overhead_on_bus=True
        )
        assert bound[0].resource == Resource("bus", (1,))

    def test_determinism_and_resource_assignment(self, geometry):
        trace = random_trace(random.Random(7), geometry, 40)
        for command in trace:
            once = decompose(command, geometry)
            again = decompose(command, geometry)
            assert once == again
            for event_id, event in enumerate(once):
                if event.kind is EventKind.CMD_OVERHEAD:
                    assert event.resource is None
                elif event.kind in BUS_EVENTS:
                    assert event.resource == Resource("bus", (event.target.channel,))
                else:
                    assert event.kind in {
                        EventKind.ARRAY_SENSE,
                        EventKind.ARRAY_PROGRAM,
                        EventKind.BLOCK_ERASE,
                        EventKind.BUFFER_COPY,
                    }
                    assert event.resource == Resource("plane", event.target[:4])
                # no invented resources: every key is inside the geometry
                assert all(
                    0 <= index < count
                    for index, count in zip(event.target, geometry.counts())
                )
                # dependency edges only point at earlier events: acyclic
                assert all(dep < event_id for dep in event.depends_on)

    def test_validated_random_commands_pass_validate(self, geometry, supported):
        trace = random_trace(random.Random(11), geometry, 60)
        for command in trace:
            assert validate(command, geometry, supported) == [], command
