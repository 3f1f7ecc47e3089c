from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flashsim.expr
from flashsim.commands import Command, CommandKind
from flashsim.engine import Policy
from flashsim.errors import ConfigError, TraceParseError
from flashsim.models import EventContext, EventKind
from flashsim.topology import Geometry, decode
from flashsim.trace_io import (
    TRACE_HEADER,
    emit_trace,
    parse_config,
    parse_trace,
)

from conftest import A
from gen import random_operands, random_trace

MINIMAL_CONFIG = """\
[geometry]
channels = 2
chips_per_channel = 2
dies_per_chip = 2
planes_per_die = 2
blocks_per_plane = 4
pages_per_block = 8
page_size = 4096
oob_size = 128

[commands]
supported = read, write, erase
"""


# the line boundaries `str.splitlines` knows besides \n and \r; text-mode
# reading ends no line at them
SPLITLINES_ONLY_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def trace_text(*lines: str) -> str:
    return "\n".join([TRACE_HEADER, *lines]) + "\n"


class TestParseTrace:
    def test_single_read_at_origin(self, geometry):
        commands = parse_trace(trace_text("0,read,0.0.0.0.0.0"), geometry)
        assert len(commands) == 1
        c = commands[0]
        assert c.kind is CommandKind.READ
        assert c.arrival_ns == 0
        assert c.operands == (A(),)
        assert c.sequence_id == 0 and c.line == 2

    def test_copy_back_operands(self, geometry):
        commands = parse_trace(
            trace_text("10,copy_back,0.0.0.0.0.3,0.0.0.0.1.5"), geometry
        )
        c = commands[0]
        assert c.kind is CommandKind.COPY_BACK
        assert c.operands == (A(page=3), A(block=1, page=5))

    def test_channel_out_of_range_reported_with_line(self, geometry):
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text("# comment", "", "5,read,9.0.0.0.0.0"), geometry)
        (diag,) = excinfo.value.diagnostics
        assert diag.line == 4
        assert "out of range" in diag.message

    def test_flat_and_dotted_addresses_agree(self, geometry):
        flat, dotted = parse_trace(
            trace_text("0,read,37", f"0,read,{decode(37, geometry)}"), geometry
        )
        assert flat.operands == dotted.operands

    # whitespace that does not end a line; `int` itself strips all of it but
    # \x1c-\x1f
    @pytest.mark.parametrize(
        "space",
        [
            " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
            "\x85", "\xa0", "\u2000", "\u3000",
        ],
    )
    def test_whitespace_around_fields_and_addresses_is_ignored(self, geometry, space):
        # the space before, then after, the digit of each dotted index
        indices = ["1", "1", "1", "1", "3", "7"]
        padded_indices = [
            ".".join(padded if i == position else x for i, x in enumerate(indices))
            for position, x in enumerate(indices)
            for padded in (f"{space}{x}", f"{x}{space}")
        ]
        padded = parse_trace(
            trace_text(
                f"1{space},{space}multi_plane_read{space},"
                f"{space}0.0.0.0.1.2{space};{space}0.0.0.1.1.2",
                f"2,{space}copy_back,0.0.0.0.0.3{space},0.0.0.0.1.5",
                f"3,read,{space}37",
                *(f"4,read,{address}" for address in padded_indices),
            ),
            geometry,
        )
        plain = parse_trace(
            trace_text(
                "1,multi_plane_read,0.0.0.0.1.2;0.0.0.1.1.2",
                "2,copy_back,0.0.0.0.0.3,0.0.0.0.1.5",
                "3,read,37",
                *["4,read,1.1.1.1.3.7"] * len(padded_indices),
            ),
            geometry,
        )
        assert padded == plain

    def test_a_form_feed_in_a_line_shifts_no_later_line_number(self, geometry):
        text = trace_text("0,read,0.0.0.0.0.0\f", "5,read,9.0.0.0.0.0")
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(text, geometry)
        (diag,) = excinfo.value.diagnostics
        assert diag.line == 3 == text.count("\n")

    @pytest.mark.parametrize("char", SPLITLINES_ONLY_BREAKS)
    def test_only_newlines_end_a_line(self, geometry, char):
        # the character around fields and in a comment, then a bad address
        # on the last line
        text = trace_text(
            f"0,read,0.0.0.0.0.0{char}",
            f"1,{char}write,0.0.0.0.0.1",
            f"# a comment{char}with the character",
            f"5,read,9.0.0.0.0.0{char}",
        )
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(text, geometry)
        assert [d.line for d in excinfo.value.diagnostics] == [text.count("\n")]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_end_at_each_newline_text_mode_reads(self, geometry, newline):
        text = trace_text("0,read,0", "5,read,9.0.0.0.0.0").replace("\n", newline)
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(text, geometry)
        assert [d.line for d in excinfo.value.diagnostics] == [3]

    @pytest.mark.parametrize(
        "text, line",
        [("", 1), ("\n", 2), ("# comment\n", 2), ("# comment", 2), ("\n\n", 3)],
    )
    def test_missing_header_is_reported_past_the_last_line(self, geometry, text, line):
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(text, geometry)
        (diag,) = excinfo.value.diagnostics
        assert (diag.line, "missing header" in diag.message) == (line, True)

    def test_every_character_strip_removes_is_a_space_or_unprintable(self):
        # parse_trace strips fields only when a line has a space or an
        # unprintable character; this is what makes that test sufficient
        stripped = [chr(c) for c in range(0x110000) if chr(c).strip() == ""]
        assert " " in stripped and "\u3000" in stripped
        assert [c for c in stripped if c != " " and c.isprintable()] == []

    def test_comments_blanks_and_header(self, geometry):
        text = f"# preamble\n\n{TRACE_HEADER}\n# more\n0,read,0\n"
        assert len(parse_trace(text, geometry)) == 1
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace("0,read,0\n", geometry)
        assert "header" in excinfo.value.diagnostics[0].message
        with pytest.raises(TraceParseError):
            parse_trace("", geometry)

    def test_sorted_by_arrival_then_line(self, geometry):
        commands = parse_trace(
            trace_text("20,read,1", "5,write,2", "5,read,3"), geometry
        )
        assert [c.arrival_ns for c in commands] == [5000, 5000, 20000]
        assert [c.line for c in commands] == [3, 4, 2]
        assert [c.sequence_id for c in commands] == [0, 1, 2]

    def test_every_bad_line_reported_once(self, geometry):
        bad = trace_text(
            "0,read,0",                    # fine
            "x,read,0",                    # bad arrival
            "1,frobnicate,0",              # unknown kind
            "2,read,0.0.0.0.0",            # wrong index count
            "3,read,0,1",                  # field count
            "4,copy_back,0.0.0.0.0.1",     # missing destination
            "-1,read,0",                   # negative arrival
            "5,cache_read,0,zero",         # bad page count
            "6,read,1.1.1.1.3.9",          # page out of range
            "7,cache_write,0",             # cache kind without a page count
            "8,multi_plane_copy_back,0.0.0.0.0.1",  # no destination list
            "9,multi_plane_read,0.0.0.0.1.2,0.0.0.1.1.2",  # two lists
            "10,erase",                    # no address
            "11,multi_plane_copy_back,0.0.0.0.0.1;0.0.0.1.0.1,0.0.0.0.1.3",
            "12,interleaved_read, ; ",     # empty address list
            "13,write,0.0.a.0.0.0",        # bad dotted index
            "14,read,512",                 # flat index out of range
            "15,cache_read,0,0",           # zero page count
            "16,read,zz",                  # bad flat index
            "17",                          # no kind
        )
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(bad, geometry)
        found = [(d.line, d.message) for d in excinfo.value.diagnostics]
        assert found == [
            (3, "bad arrival time 'x'"),
            (4, "unknown command kind 'frobnicate'"),
            (5, "address '0.0.0.0.0' needs 6 dot-separated indices, got 5"),
            (6, "read takes one address, got 2 fields"),
            (7, "copy_back takes source and destination, got 1 fields"),
            (8, "arrival time -1 is negative"),
            (9, "bad page count 'zero'"),
            (10, "address 1.1.1.1.3.9 out of range for geometry (2, 2, 2, 2, 4, 8)"),
            (11, "cache_write takes an address and a page count, got 1 fields"),
            (
                12,
                "multi_plane_copy_back takes a source list and a destination list, "
                "got 1 fields",
            ),
            (13, "multi_plane_read takes one ';'-separated address list, got 2 fields"),
            (14, "erase takes one address, got 0 fields"),
            (15, "2 sources but 1 destinations"),
            (16, "empty address list"),
            (17, "bad address index in '0.0.a.0.0.0'"),
            (18, "flat index 512 out of range [0, 512)"),
            (19, "page count must be >= 1, got 0"),
            (20, "bad address 'zz'"),
            (21, "need at least arrival time and kind"),
        ]

    # 1e306 us is finite, but not in nanoseconds
    @pytest.mark.parametrize("arrival", ["nan", "inf", "1e400", "1e306"])
    def test_non_finite_arrival_rejected_with_line(self, geometry, arrival):
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text("0,read,0", f"{arrival},read,1"), geometry)
        (diag,) = excinfo.value.diagnostics
        assert (diag.line, diag.message) == (3, f"bad arrival time '{arrival}'")

    def test_multi_plane_and_interleave_lists(self, geometry):
        commands = parse_trace(
            trace_text(
                "0,multi_plane_read,0.0.0.0.1.2;0.0.0.1.1.2",
                "1,interleaved_erase,0.1.0.0.2.0;0.1.1.0.3.0",
                "2,multi_plane_copy_back,0.0.0.0.0.1;0.0.0.1.0.1,0.0.0.0.1.3;0.0.0.1.1.3",
            ),
            geometry,
        )
        assert commands[0].operands == (A(block=1, page=2), A(plane=1, block=1, page=2))
        assert commands[1].kind is CommandKind.INTERLEAVED_ERASE
        # alternating source and destination
        assert commands[2].operands == (
            A(page=1),
            A(block=1, page=3),
            A(plane=1, page=1),
            A(plane=1, block=1, page=3),
        )

    def test_cache_extent_field(self, geometry):
        (c,) = parse_trace(trace_text("0,cache_write,0.0.0.0.0.0,4"), geometry)
        assert c.kind is CommandKind.CACHE_WRITE and c.page_count == 4

    def test_fractional_arrival_nanosecond_resolution(self, geometry):
        (c,) = parse_trace(trace_text("10.5,read,0"), geometry)
        assert c.arrival_ns == 10500
        (c,) = parse_trace(trace_text("0.0004,read,0"), geometry)
        assert c.arrival_ns == 0  # rounds below 1 ns

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, geometry, seed):
        trace = random_trace(random.Random(seed), geometry, 30)
        assert parse_trace(emit_trace(trace), geometry) == trace

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(CommandKind),
                st.integers(0, 10**15 - 1),
                st.randoms(use_true_random=False),
            ),
            max_size=30,
        )
    )
    def test_round_trip_any_kind_and_arrival(self, drafts):
        # every kind at any whole-nanosecond arrival below 10**15 ns; from
        # there up, an arrival may come back a nanosecond off (see README)
        geometry = Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
        drafts.sort(key=lambda draft: draft[1])
        trace = [
            Command(arrival_ns, kind, *random_operands(rng, geometry, kind), sequence_id=i)
            for i, (kind, arrival_ns, rng) in enumerate(drafts)
        ]
        assert parse_trace(emit_trace(trace), geometry) == trace

    def test_round_trip_fractional_times(self, geometry):
        original = parse_trace(
            trace_text("10.5,read,0", "0.25,write,1", "3,erase,0.0.0.0.1.0"),
            geometry,
        )
        assert parse_trace(emit_trace(original), geometry) == original


class TestParseConfig:
    def test_minimal_config(self):
        config = parse_config(MINIMAL_CONFIG)
        assert config.geometry == Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
        assert config.supported == frozenset(
            {CommandKind.READ, CommandKind.WRITE, CommandKind.ERASE}
        )
        assert config.policy == Policy()
        assert config.models.timing.t_sense == 25.0

    def test_missing_geometry_key(self):
        broken = MINIMAL_CONFIG.replace("pages_per_block = 8\n", "")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(broken)
        assert "pages_per_block" in str(excinfo.value)

    def test_missing_section(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("[geometry]\nchannels = 1\n")
        assert "commands" in str(excinfo.value) or "geometry" in str(excinfo.value)

    def test_unknown_section_and_keys_are_errors(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG + "[plumbing]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG.replace("oob_size", "oob_bytes"))
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG + "[performance]\nt_warp = 9\n")

    def test_block_dependent_latency_expression(self):
        config = parse_config(
            MINIMAL_CONFIG + "[performance]\narray_sense = 25 + 0.001 * block\n"
        )
        ctx = EventContext(EventKind.ARRAY_SENSE, 0, 4096, 128, 0, 0, 0, 0, 2, 0)
        assert config.models.latency_us(ctx) == 25 + 0.001 * 2

    def test_bindings_are_compiled_at_first_use_not_at_load(self, monkeypatch):
        compiled = []

        def counting_compile(*args):
            compiled.append(args)
            return compile(*args)

        monkeypatch.setattr(flashsim.expr, "compile", counting_compile, raising=False)
        config = parse_config(
            MINIMAL_CONFIG
            + "[performance]\narray_sense = 25 + 0.001 * block\n"
            + "[power]\narray_sense = 0.03 * duration\n"
        )
        assert compiled == []
        ctx = EventContext(EventKind.ARRAY_SENSE, 0, 4096, 128, 0, 0, 0, 0, 2, 0)
        assert config.models.latency_us(ctx) == 25 + 0.001 * 2
        assert len(compiled) == 1

    def test_expression_error_carries_key_path(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(MINIMAL_CONFIG + "[performance]\narray_sense = 25 +\n")
        assert "performance.array_sense" in str(excinfo.value)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(MINIMAL_CONFIG + "[power]\narray_sense = nonsense_var\n")
        assert "power.array_sense" in str(excinfo.value)

    def test_duration_only_valid_in_power_expressions(self):
        parse_config(MINIMAL_CONFIG + "[power]\narray_sense = 0.03 * duration\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG + "[performance]\narray_sense = duration\n")

    def test_policy_section(self):
        config = parse_config(
            MINIMAL_CONFIG
            + "[policy]\nviolation_severity = error\nendurance_limit = 5\n"
            + "die_serialization = true\ncmd_overhead_on_bus = yes\n"
            + "initially_written = on\nmulti_plane_same_offsets = false\n"
        )
        assert config.policy == Policy(
            strict=True,
            endurance_limit=5,
            die_serialization=True,
            cmd_overhead_on_bus=True,
            initially_written=True,
            multi_plane_same_offsets=False,
        )
        none_limit = parse_config(MINIMAL_CONFIG + "[policy]\nendurance_limit = none\n")
        assert none_limit.policy.endurance_limit is None
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG + "[policy]\nviolation_severity = loud\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG + "[policy]\ndie_serialization = maybe\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG.replace("channels = 2", "channels = two"))
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG.replace("channels = 2", "channels = 0"))
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_CONFIG + "[performance]\nt_sense = -4\n")
        with pytest.raises(ConfigError, match="finite"):
            parse_config(MINIMAL_CONFIG + "[performance]\nt_sense = nan\n")
        with pytest.raises(ConfigError, match="finite"):
            parse_config(MINIMAL_CONFIG + "[power]\np_idle_bus = inf\n")
        with pytest.raises(ConfigError):
            parse_config(
                MINIMAL_CONFIG.replace("supported = read, write, erase",
                                       "supported = read, warp")
            )
        with pytest.raises(ConfigError):
            parse_config(
                MINIMAL_CONFIG.replace("supported = read, write, erase", "supported =")
            )

    def test_timing_overrides(self):
        config = parse_config(
            MINIMAL_CONFIG + "[performance]\nt_sense = 30\nt_bus_per_byte = 0.05\n"
            + "[power]\np_sense = 45\np_idle_bus = 1\n"
        )
        assert config.models.timing.t_sense == 30.0
        assert config.models.timing.t_bus_per_byte == 0.05
        assert config.models.power.p_sense == 45.0
        assert config.models.idle_power_mw("bus") == 1.0
        assert config.models.idle_power_mw("plane") == 0.0
