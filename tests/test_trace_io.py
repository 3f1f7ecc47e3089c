from __future__ import annotations

import configparser
import decimal
import io
import math
import random
import re
import unicodedata
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flashsim.expr
from flashsim import trace_io
from flashsim.commands import Command, CommandKind
from flashsim.engine import Policy
from flashsim.errors import ConfigError, TraceParseError
from flashsim.models import EventContext, EventKind, PowerParams, TimingParams
from flashsim.topology import FlashAddress, Geometry, decode
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

# the boolean keys of [policy], each named as its Policy field
POLICY_FLAGS = (
    "die_serialization",
    "cmd_overhead_on_bus",
    "initially_written",
    "multi_plane_same_offsets",
)


def _edited(*replacements: tuple[str, str], tail: str = "") -> str:
    """MINIMAL_CONFIG with each (old, new) text replaced and `tail` appended."""
    text = MINIMAL_CONFIG
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    return text + tail


# (config text, the exact ConfigError text); where a config has two faults
# the case pins which one is reported
CONFIG_DIAGNOSTICS = [
    pytest.param(
        "no section\n",
        "malformed config: a line before the first section header",
        id="malformed",
    ),
    pytest.param(
        _edited(tail="[plumbing]\nx = 1\n"),
        "unknown section [plumbing]",
        id="unknown-section",
    ),
    pytest.param(
        "[geometry]\nchannels = 1\n",
        "missing required section [commands]",
        id="missing-section",
    ),
    pytest.param(
        _edited(("oob_size", "oob_bytes")),
        "unknown key geometry.oob_bytes",
        id="unknown-geometry-key",
    ),
    pytest.param(
        _edited(("supported", "extra = 1\nsupported")),
        "unknown key commands.extra",
        id="unknown-commands-key",
    ),
    pytest.param(
        _edited(tail="[performance]\nt_warp = 9\n"),
        "unknown key performance.t_warp",
        id="unknown-performance-key",
    ),
    pytest.param(
        _edited(tail="[power]\np_warp = 9\n"),
        "unknown key power.p_warp",
        id="unknown-power-key",
    ),
    pytest.param(
        _edited(tail="[policy]\nloud = yes\n"),
        "unknown key policy.loud",
        id="unknown-policy-key",
    ),
    pytest.param(
        _edited(("pages_per_block = 8\n", "")),
        "missing required key geometry.pages_per_block",
        id="missing-geometry-key",
    ),
    pytest.param(
        _edited(("pages_per_block = 8\n", ""), ("oob_size", "oob_bytes")),
        "unknown key geometry.oob_bytes",
        id="unknown-key-before-missing-key",
    ),
    pytest.param(
        _edited(("pages_per_block = 8\n", ""), ("channels = 2", "channels = two")),
        "geometry.channels: expected an integer, got 'two'",
        id="bad-value-before-a-later-missing-key",
    ),
    pytest.param(
        _edited(("chips_per_channel = 2\n", ""), ("page_size = 4096", "page_size = big")),
        "missing required key geometry.chips_per_channel",
        id="missing-key-before-a-later-bad-value",
    ),
    pytest.param(
        _edited(("page_size = 4096\n", ""), ("oob_size = 128", "oob_size = x")),
        "missing required key geometry.page_size",
        id="missing-key-before-a-bad-oob-size",
    ),
    pytest.param(
        _edited(("oob_size = 128", "oob_size = x")),
        "geometry.oob_size: expected an integer, got 'x'",
        id="bad-oob-size",
    ),
    pytest.param(
        _edited(("channels = 2", "channels = 0")),
        "geometry: channels must be >= 1, got 0",
        id="invalid-geometry",
    ),
    pytest.param(
        _edited(("supported = read, write, erase", "supported = ,")),
        "commands.supported must list at least one command kind",
        id="no-supported-kind",
    ),
    pytest.param(
        _edited(("supported = read, write, erase", "supported = read, warp")),
        "commands.supported: unknown command kind 'warp'",
        id="unknown-supported-kind",
    ),
    pytest.param(
        _edited(tail="[power]\np_sense = fast\n"),
        "power.p_sense: expected a number, got 'fast'",
        id="bad-float",
    ),
    pytest.param(
        _edited(tail="[policy]\ndie_serialization = Maybe\n"),
        "policy.die_serialization: expected a boolean, got 'Maybe'",
        id="bad-bool",
    ),
    pytest.param(
        _edited(tail="[policy]\nviolation_severity = LOUD \n"),
        "policy.violation_severity must be 'warn' or 'error', got 'LOUD'",
        id="bad-violation-severity",
    ),
    pytest.param(
        _edited(tail="[policy]\ndie_serialization = maybe\nviolation_severity = loud\n"),
        "policy.violation_severity must be 'warn' or 'error', got 'loud'",
        id="violation-severity-before-flags",
    ),
    pytest.param(
        _edited(tail="[policy]\nendurance_limit = -1\n"),
        "policy.endurance_limit must be >= 0 or 'none'",
        id="negative-endurance-limit",
    ),
    pytest.param(
        _edited(tail="[policy]\nendurance_limit = Nothing\n"),
        "policy.endurance_limit: expected an integer, got 'Nothing'",
        id="bad-endurance-limit",
    ),
    pytest.param(
        _edited(tail="[performance]\nt_sense = nan\n"),
        "t_sense must be finite and >= 0, got nan",
        id="nan-timing",
    ),
    pytest.param(
        _edited(tail="[performance]\nt_sense = -4\n"),
        "t_sense must be finite and >= 0, got -4.0",
        id="negative-timing",
    ),
    pytest.param(
        _edited(tail="[power]\np_idle_bus = inf\n"),
        "p_idle_bus must be finite and >= 0, got inf",
        id="infinite-power",
    ),
    pytest.param(
        _edited(tail="[performance]\nt_sense = -4\n[power]\np_sense = -1\n"),
        "t_sense must be finite and >= 0, got -4.0",
        id="timing-range-before-power-range",
    ),
    pytest.param(
        _edited(tail="[performance]\nt_sense = -4\n[power]\np_warp = 1\n"),
        "unknown key power.p_warp",
        id="power-key-before-timing-range",
    ),
    pytest.param(
        _edited(tail="[power]\np_sense = x\n[performance]\nt_warp = 1\n"),
        "unknown key performance.t_warp",
        id="performance-before-power",
    ),
    pytest.param(
        _edited(tail="[performance]\nt_sense = x\nt_warp = 1\n"),
        "performance.t_sense: expected a number, got 'x'",
        id="section-keys-in-file-order",
    ),
    pytest.param(
        _edited(tail="[performance]\narray_sense = 25 +\n"),
        "performance.array_sense: unexpected end of input (at offset 4)",
        id="performance-expression",
    ),
    pytest.param(
        _edited(tail="[power]\narray_sense = nonsense_var\n"),
        "power.array_sense: unknown identifier 'nonsense_var' (at offset 0)",
        id="power-expression",
    ),
    pytest.param(
        _edited(tail="[performance]\narray_sense = duration\n"),
        "performance.array_sense: unknown identifier 'duration' (at offset 0)",
        id="duration-in-performance",
    ),
    pytest.param(
        "[DEFAULT]\nt_sense = 30\n" + MINIMAL_CONFIG,
        "unknown section [DEFAULT]",
        id="default-key-in-geometry",
    ),
    pytest.param(
        "[DEFAULT]\nchannels = 2\n" + _edited(("channels = 2\n", "")),
        "unknown section [DEFAULT]",
        id="default-key-in-commands",
    ),
    pytest.param(
        "[DEFAULT]\nchannels = 2\n[commands]\nsupported = read\n",
        "unknown section [DEFAULT]",
        id="default-key-before-missing-geometry",
    ),
    pytest.param(
        "[DEFAULT]\n" + _edited(("channels = 2\n", "")),
        "missing required key geometry.channels",
        id="empty-default-is-no-section",
    ),
    pytest.param(
        "[DEFAULT]\nchannels = 2\n[warp]\n" + MINIMAL_CONFIG,
        "unknown section [warp]",
        id="named-section-before-default",
    ),
]


# the line boundaries `str.splitlines` knows besides \n and \r; text-mode
# reading ends no line at them
SPLITLINES_ONLY_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def trace_text(*lines: str) -> str:
    return "\n".join([TRACE_HEADER, *lines]) + "\n"


# Index spellings: whitespace of each class that ends no line (\x1c-\x1f are
# the ones `int` does not strip), decimal digits of three scripts, signs,
# underscores, and a superscript two, which is a digit but not a decimal one.
SPELLING_SPACES = [
    " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u2000", "\u2028", "\u3000",
]
SPELLING_DIGITS = [
    "0123456789",
    "".join(map(chr, range(0x660, 0x66A))),  # Arabic-Indic
    "".join(map(chr, range(0xFF10, 0xFF1A))),  # fullwidth
]
SPELLING_ALPHABET = [*SPELLING_SPACES, *"".join(SPELLING_DIGITS), "+", "-", "_", "\u00b2"]


@st.composite
def index_spellings(draw, below: int = 13, in_range: bool = False) -> str:
    """One dot-separated piece of an address: a number in [0, below),
    perhaps negated, spelled one of the ways `int` reads, or, one time in
    four, any short text over the alphabet, the empty string included. With
    `in_range`, always a spelling of a number in [0, below)."""
    if not in_range and draw(st.integers(0, 3)) == 0:
        return draw(st.text(st.sampled_from(SPELLING_ALPHABET), max_size=4))
    spaces = st.text(st.sampled_from(SPELLING_SPACES), max_size=2)
    value = draw(st.integers(0, below - 1))
    digits = "0" * draw(st.integers(0, 2)) + str(value)
    spelled = "".join(draw(st.sampled_from(SPELLING_DIGITS))[int(d)] for d in digits)
    if len(spelled) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(spelled) - 1))
        spelled = spelled[:cut] + "_" + spelled[cut:]
    signs = ["", "+"] if in_range and value else ["", "+", "-"]
    return draw(spaces) + draw(st.sampled_from(signs)) + spelled + draw(spaces)


@st.composite
def address_spellings(draw, counts: tuple[int, ...]) -> list[str]:
    """Six pieces. Half the time each piece is in range both at its own
    level and at the level before it (where a rotation by one puts it), so
    that whole lines are accepted too."""
    if draw(st.booleans()):
        return [
            draw(index_spellings(min(counts[i], counts[i - 1]), in_range=True))
            for i in range(6)
        ]
    return draw(st.lists(index_spellings(), min_size=6, max_size=6))


def reference_index(piece: str) -> int | None:
    """The index a piece spells under the trace rules, or None: any
    whitespace `str.strip` removes around it, an optional sign, then decimal
    digits of any script, with single underscores between digits."""
    body = piece.strip()
    sign = -1 if body[:1] == "-" else 1
    if body[:1] in ("+", "-"):
        body = body[1:]
    if not body or "" in body.split("_"):
        return None
    value = 0
    for char in body.replace("_", ""):
        digit = unicodedata.decimal(char, None)
        if digit is None:
            return None
        value = value * 10 + digit
    return sign * value


def reference_address(text: str, counts: tuple[int, ...]) -> FlashAddress | str:
    """A six-piece address field read by the same rules: the address, or
    the diagnostic `parse_trace` gives for it."""
    text = text.strip()
    indices = [reference_index(piece) for piece in text.split(".")]
    if None in indices:
        return f"bad address index in '{text}'"
    if all(0 <= index < count for index, count in zip(indices, counts)):
        return FlashAddress(*indices)
    return f"address {'.'.join(map(str, indices))} out of range for geometry {counts}"


# Arrival fields float reads, or does not: specials, NaN and infinities,
# hexadecimal, misplaced underscores, halves of a nanosecond and the edges of
# the time domain
ARRIVAL_SPECIALS = [
    "inf", "-inf", "Infinity", "nan", "-nan", "0x1", "1__0", "_1", "1_", "1_0",
    ".", "", "e5", "1e", "-0", "+0", "-1e-400", "1e-400", "1e305", "1e306",
    "1e400", "-1e306", "0.0005", "0.0015", "523.9395", "9223372036854775.807",
    "9223372036854775.8075", "9223372036854775.8085",
]
# digits past the third fraction digit: a half of a nanosecond, and either
# side of one beyond the 28 digits of decimal's default context
HALF_TAILS = ["", "5", "5" + "0" * 30, "5" + "0" * 29 + "1", "4" + "9" * 30]


@st.composite
def arrival_spellings(draw) -> str:
    """An arrival field: a special; a short text over float's alphabet; a
    decimal of whole nanoseconds with a tail near a half, near 0 or near
    2**63 ns; or a signed number of any magnitude in one of three digit
    scripts, with underscores, fraction digits and an exponent."""
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return draw(st.sampled_from(ARRIVAL_SPECIALS))
    if choice == 1:
        # short, so that an exponent stays small enough to compute with
        return draw(st.text(st.sampled_from([*"0123456789+-_.eEinf", "\u0661", "\uff11"]),
                            max_size=6))
    if choice == 2:
        ns = draw(st.integers(0, 10**4) | st.integers(2**63 - 10**4, 2**63 + 10**4)
                  | st.integers(0, 2**63))
        return f"{ns // 1000}.{ns % 1000:03d}{draw(st.sampled_from(HALF_TAILS))}"
    digits = draw(st.sampled_from(SPELLING_DIGITS))
    whole = draw(st.sampled_from(["", "0"]) | st.integers(0, 10**19).map(str))
    spelled = "".join(digits[int(d)] for d in whole)
    if len(spelled) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(spelled) - 1))
        spelled = spelled[:cut] + "_" + spelled[cut:]
    text = draw(st.sampled_from(["", "+", "-"])) + spelled
    if draw(st.booleans()):
        fraction = draw(st.text(st.sampled_from("0123456789"), max_size=32))
        text += "." + "".join(digits[int(d)] for d in fraction)
    if draw(st.booleans()):
        text += f"{draw(st.sampled_from('eE'))}{draw(st.integers(-25, 25))}"
    return text


def reference_arrival(text: str) -> int | str:
    """The arrival in nanoseconds that a field spells under the trace rules,
    or the diagnostic `parse_trace` gives for it: `float` decides the
    spelling and the sign, and the value is the text's exact one times 1000,
    rounded half-even, below 2**63."""
    try:
        us = float(text)
    except ValueError:
        return f"bad arrival time '{text}'"
    if math.isnan(us) or math.isinf(us):
        return f"bad arrival time '{text}'"
    if us < 0:
        return f"arrival time {text} is negative"
    ns = round(Fraction(text) * 1000)
    if ns < 2**63:
        return ns
    return f"arrival time {text} is 2**63 ns or later"


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

    SPELLING_GEOMETRY = Geometry(2, 3, 4, 5, 6, 7, 512, 16)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(address_spellings(SPELLING_GEOMETRY.counts()), min_size=1, max_size=4),
        st.sampled_from([";", " ; ", ";;", "\x1c;", "; ;"]),
    )
    def test_index_spellings_read_as_the_reference_reads_them(self, addresses, separator):
        # Each address is read on its own, then rotated by one level, then
        # both in one list; and the whole block twice, so that every text is
        # read at two levels, and again after its first reading was stored.
        g = self.SPELLING_GEOMETRY
        block = []
        for pieces in addresses:
            text = ".".join(pieces)
            rotated = ".".join(pieces[1:] + pieces[:1])
            block += [
                (CommandKind.READ, text),
                (CommandKind.WRITE, rotated),
                (CommandKind.INTERLEAVED_READ, f"{text}{separator}{rotated}"),
            ]
        lines = block + block

        def verdict(field: str) -> tuple[FlashAddress, ...] | str:
            """The line's operands, or the diagnostic of its first bad address."""
            read = [reference_address(p, g.counts()) for p in field.split(";") if p.strip()]
            return next((r for r in read if isinstance(r, str)), tuple(read))

        verdicts = [verdict(field) for _, field in lines]
        problems = [
            (lineno, v) for lineno, v in enumerate(verdicts, start=2) if isinstance(v, str)
        ]
        if problems:
            with pytest.raises(TraceParseError) as excinfo:
                parse_trace(trace_text(*(f"0,{k.value},{f}" for k, f in lines)), g)
            assert [tuple(d) for d in excinfo.value.diagnostics] == problems
        # the lines the reference accepts, as a trace of their own
        accepted = [
            (kind, field, v)
            for (kind, field), v in zip(lines, verdicts)
            if not isinstance(v, str)
        ]
        commands = parse_trace(trace_text(*(f"0,{k.value},{f}" for k, f, _ in accepted)), g)
        assert [(c.kind, c.operands) for c in commands] == [
            (kind, operands) for kind, _, operands in accepted
        ]

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

    @pytest.mark.parametrize("arrival", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_arrival_rejected_with_line(self, geometry, arrival):
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text("0,read,0", f"{arrival},read,1"), geometry)
        (diag,) = excinfo.value.diagnostics
        assert (diag.line, diag.message) == (3, f"bad arrival time '{arrival}'")

    # 2**63 ns exactly; a text that rounds up to it; the next whole
    # microsecond; and a finite number of microseconds far past it
    @pytest.mark.parametrize(
        "arrival",
        ["9223372036854775.808", "9223372036854775.8075", "9223372036854776", "1e306"],
    )
    def test_arrival_at_2_to_the_63_ns_rejected_with_line(self, geometry, arrival):
        with pytest.raises(TraceParseError) as excinfo:
            parse_trace(trace_text("0,read,0", f"{arrival},read,1"), geometry)
        (diag,) = excinfo.value.diagnostics
        assert (diag.line, diag.message) == (
            3, f"arrival time {arrival} is 2**63 ns or later"
        )

    @pytest.mark.parametrize(
        "arrival,arrival_ns",
        [
            ("9223372036854775.807", 2**63 - 1),
            ("523.9395", 523_940),  # the double nearest 523.9395 is below it
            ("0.0005", 0),  # half-even: a half rounds to the even neighbour
            ("0.0015", 2),
            ("0.00150000000000000000000000000000001", 2),
            ("-1e-400", 0),  # float reads -0.0, which is not negative
            ("1_0", 10_000),
            # exponents past what Decimal converts, on values float reads
            # as 0; Fraction cannot evaluate them either
            ("0e1000000000000000000", 0),
            ("0e-3000000000000000000", 0),
            ("1e-3000000000000000000", 0),
            ("-1e-3000000000000000000", 0),
        ],
    )
    def test_arrival_is_its_exact_decimal_rounded_half_even(
        self, geometry, arrival, arrival_ns
    ):
        (c,) = parse_trace(trace_text(f"{arrival},read,0"), geometry)
        assert c.arrival_ns == arrival_ns

    def test_arrival_does_not_depend_on_the_callers_decimal_context(self, geometry):
        text = trace_text("523.9395,read,0", "9223372036854775.807,read,1")
        with decimal.localcontext() as context:
            context.prec = 3
            context.traps[decimal.Inexact] = context.traps[decimal.Rounded] = True
            commands = parse_trace(text, geometry)
        assert [c.arrival_ns for c in commands] == [523_940, 2**63 - 1]

    @settings(max_examples=400, deadline=None)
    @given(arrival_spellings())
    def test_arrival_spellings_read_as_the_reference_reads_them(self, arrival):
        geometry = Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
        expected = reference_arrival(arrival)
        try:
            (c,) = parse_trace(trace_text(f"{arrival},read,0"), geometry)
        except TraceParseError as exc:
            assert [d.message for d in exc.diagnostics] == [expected]
        else:
            assert c.arrival_ns == expected

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
                st.integers(0, 2**63 - 1),
                st.randoms(use_true_random=False),
            ),
            max_size=30,
        )
    )
    @example([(kind, 2**63 - 1 - i, random.Random(i)) for i, kind in enumerate(CommandKind)])
    # arrivals that a double of microseconds would not hold: the second read
    # back 1 ns early, and the third 1 ns late, when one was read through it
    @example([
        (CommandKind.READ, 2**51, random.Random(0)),
        (CommandKind.WRITE, 4_494_576_694_523_227, random.Random(1)),
        (CommandKind.ERASE, 2**63 - 1, random.Random(2)),
    ])
    def test_round_trip_any_kind_and_arrival(self, drafts):
        # every kind at any whole-nanosecond arrival below 2**63 ns
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


# (config text, the line of its syntax error, the exact ConfigError text),
# one case for each malformed-config diagnostic
MALFORMED_CONFIGS = [
    pytest.param(
        "# no header yet\n\nno section\n",
        3,
        "malformed config: a line before the first section header",
        id="before-first-header",
    ),
    pytest.param(
        _edited(tail="[geometry]\n"),
        13,
        "malformed config: duplicate section [geometry]",
        id="duplicate-section",
    ),
    pytest.param(
        _edited(("channels = 2\n", "channels = 2\nCHANNELS : 3\n")),
        3,
        "malformed config: duplicate key geometry.channels",
        id="duplicate-key",
    ),
    pytest.param(
        "[DEFAULT]\nt_sense = 1\n" + MINIMAL_CONFIG + "[DEFAULT]\nt_sense = 2\n",
        16,
        "malformed config: duplicate key DEFAULT.t_sense",
        id="duplicate-default-key",
    ),
    pytest.param(
        _edited(("channels = 2", "channels 2")),
        2,
        "malformed config: expected '[section]' or 'key = value'",
        id="neither-header-nor-key",
    ),
    pytest.param(
        _edited(tail="[policy]\n: yes\n"),
        14,
        "malformed config: no key before ':'",
        id="no-key",
    ),
]

# pieces of INI text near the language configparser reads: every character
# that opens a header, a comment or a value, both delimiters, keys in both
# cases, and whitespace that `str.strip` removes but that ends no line
_INI_PIECES = (
    "[", "]", "=", ":", "#", ";", " ", "  ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x85",
    "\xa0", "\u3000", "\u2028", "a", "B", "key", "KeY", "\u00df", "\u0130", "\u01c4",
    "geometry", "DEFAULT", "1",
)


@st.composite
def ini_texts(draw) -> str:
    """INI text drawn as a few lines before any header, then sections of
    lines: headers, key lines with either delimiter, comments, blank lines,
    deeper-indented lines and junk, each line ended by \\n, by \\r\\n, by
    \\r (which ends no line) or, at the end, by nothing."""
    pieces = st.lists(st.sampled_from(_INI_PIECES), max_size=5).map("".join)
    indent = st.sampled_from(["", "", " ", "  ", "\t", "\u3000", "\x1c"])
    deeper = st.sampled_from([" ", "   ", "\t", "\u3000", "\x0c "])
    name = st.sampled_from(["geometry", "commands", "DEFAULT", "DEFAULT", "a", "A", "]", " x "])
    key = st.sampled_from(["k", "K", "key", "Key", "\u0130", "\u00df"])
    header = st.tuples(indent, name | name | pieces, pieces | st.just("")).map(
        lambda t: f"{t[0]}[{t[1]}]{t[2]}"
    )
    comment = st.tuples(indent, st.sampled_from(["#", ";"]), pieces).map("".join)
    blank = st.sampled_from(["", " ", "\t", "\x1c", "\u3000"])
    key_line = st.tuples(
        indent, key | key | pieces, st.sampled_from(["=", ":", " = ", " : ", "=:"]), pieces
    ).map("".join)
    body = st.one_of(
        key_line,
        key_line,
        st.tuples(deeper, pieces).map("".join),
        comment,
        blank,
        st.tuples(indent, pieces).map("".join),
    )
    lines = draw(st.lists(comment | blank | comment | blank | pieces, max_size=2))
    for first, rest in draw(st.lists(st.tuples(header, st.lists(body, max_size=6)), max_size=4)):
        lines += [first, *rest]
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


class TestParseConfig:
    def test_minimal_config(self):
        config = parse_config(MINIMAL_CONFIG)
        assert config.geometry == Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
        assert config.supported == frozenset(
            {CommandKind.READ, CommandKind.WRITE, CommandKind.ERASE}
        )
        assert config.policy == Policy()
        assert config.models.timing.t_sense == 25.0

    def test_readme_config_examples_parse(self):
        # the first ```ini block of README.md is a whole config; each later
        # block is read appended to it
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8"
        )
        first, *later = re.findall(r"^```ini\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
        configs = [parse_config(first)] + [parse_config(first + "\n" + b) for b in later]
        assert configs[0] == parse_config(MINIMAL_CONFIG)._replace(models=configs[0].models)
        bound = configs[1].models
        assert set(bound.latency_exprs) == set(bound.power_exprs) == {EventKind.ARRAY_SENSE}
        # the policy block spells out every default
        assert configs[2].policy == Policy()
        assert len(configs) == 3

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

    def test_empty_default_header_changes_nothing(self):
        headed, plain = parse_config("[DEFAULT]\n" + MINIMAL_CONFIG), parse_config(MINIMAL_CONFIG)
        assert headed._replace(models=None) == plain._replace(models=None)
        assert (headed.models.timing, headed.models.power) == (
            plain.models.timing, plain.models.power
        )

    @pytest.mark.parametrize("text, message", CONFIG_DIAGNOSTICS)
    def test_config_diagnostics_are_pinned(self, text, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert str(excinfo.value) == message
        # only a syntax error names its line
        assert (excinfo.value.line is None) == (not message.startswith("malformed config"))

    @pytest.mark.parametrize("text, line, message", MALFORMED_CONFIGS)
    def test_a_malformed_config_names_its_line(self, text, line, message):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert (excinfo.value.line, str(excinfo.value)) == (line, message)

    def test_keys_are_lower_cased_and_values_continue_on_deeper_lines(self):
        config = parse_config(
            MINIMAL_CONFIG.replace("channels = 2", "CHANNELS: 2").replace(
                "supported = read, write, erase",
                "Supported =\n  read,\n\n  # a comment, not a kind\n\twrite,\n erase\n\n",
            )
        )
        plain = parse_config(MINIMAL_CONFIG)
        assert config._replace(models=None) == plain._replace(models=None)

    @settings(max_examples=400, deadline=None)
    @given(ini_texts())
    @example("[a]\nk = 1\n  \n  more\n\n")
    @example("[a]\n  k = 1\n    deeper\n  next = 2\n")
    @example("[DEFAULT]\n[DEFAULT]\nk = 1\n[a]\n[DEFAULT]\n")
    @example("[a]]x\n[]\n")
    @example("[a]\nk = 1\n\u3000\u3000v\n")
    def test_the_reader_reads_what_configparser_reads(self, text):
        # the reader replaced `configparser.ConfigParser(interpolation=None)`:
        # it must reject exactly the texts that raised there, and read every
        # other text to the same sections, keys and values, in file order
        reference = configparser.ConfigParser(interpolation=None)
        try:
            reference.read_file(io.StringIO(text))
        except configparser.Error:
            with pytest.raises(ConfigError) as excinfo:
                trace_io._read_ini(text)
            assert 1 <= excinfo.value.line <= text.count("\n") + 1
            return
        sections = trace_io._read_ini(text)
        assert list(sections.pop("DEFAULT").items()) == list(reference.defaults().items())
        assert list(sections) == reference.sections()
        for name, keys in sections.items():
            # configparser's own store of a section, without [DEFAULT]'s
            # keys merged in as its public views do
            assert list(keys.items()) == list(reference._sections[name].items())

    def test_every_record_field_and_policy_flag_is_a_key_of_its_section(self):
        geometry = Geometry(3, 2, 2, 2, 4, 8, 2048, 64)
        timing = TimingParams(*(1.0 + i for i in range(len(TimingParams._fields))))
        power = PowerParams(*(2.0 + i for i in range(len(PowerParams._fields))))
        flags = {name: not getattr(Policy(), name) for name in POLICY_FLAGS}

        def lines(pairs):
            return "".join(f"{key} = {value}\n" for key, value in pairs)

        config = parse_config(
            "[geometry]\n" + lines(zip(Geometry._fields, geometry))
            + "[commands]\nsupported = read\n"
            + "[performance]\n" + lines(zip(TimingParams._fields, timing))
            + lines((kind.value, 7) for kind in EventKind)
            + "[power]\n" + lines(zip(PowerParams._fields, power))
            + lines((kind.value, 9) for kind in EventKind)
            + "[policy]\nviolation_severity = error\nendurance_limit = 7\n"
            + lines(flags.items())
        )
        assert config.geometry == geometry
        assert config.models.timing == timing
        assert config.models.power == power
        assert set(config.models.latency_exprs) == set(EventKind)
        assert set(config.models.power_exprs) == set(EventKind)
        assert config.policy == Policy(strict=True, endurance_limit=7, **flags)
        # oob_size is the one optional geometry key
        no_oob = parse_config(MINIMAL_CONFIG.replace("oob_size = 128\n", ""))
        assert no_oob.geometry == Geometry(2, 2, 2, 2, 4, 8, 4096, 0)
