"""Trace and configuration parsing.

Trace format (normative, version 1). The first significant line must be the
header ``flashsim-trace v1``. Records are one command per line, fields
comma-separated; blank lines and lines starting with ``#`` are skipped:

    arrival_us,kind,operands...

    0,read,0.0.0.0.0.0             # one address: read/write/erase
    10,copy_back,0.0.0.0.0.3,0.0.0.0.1.5        # source, destination
    20,cache_read,0.0.0.0.0.0,4                 # start address, page count
    30,multi_plane_read,0.0.0.0.1.2;0.0.0.1.1.2 # ';'-separated address list
    40,multi_plane_copy_back,SRC;SRC,DST;DST    # source list, destination list

Addresses are either six dot-separated indices channel.chip.die.plane.block
.page or a single flat page index (decoded against the geometry). Arrival
times are microseconds with nanosecond resolution. Records are returned
sorted by (arrival time, line order) and numbered by that order.

Configuration files are INI. Sections ``[geometry]`` and ``[commands]`` are
required; ``[performance]``, ``[power]`` and ``[policy]`` are optional and
default to the built-in model fixture and the permissive policy. Unknown
sections or keys are errors, never ignored. Model expressions are parsed
eagerly so a syntax error surfaces before any simulation starts.
"""

from __future__ import annotations

import configparser
import io
from functools import partial
from operator import itemgetter
from typing import Iterable, NamedTuple

from .commands import (
    DIE_LIST,
    EXTENT,
    LAYOUT,
    ONE_ADDRESS,
    PAIR,
    PAIRS,
    PLANE_LIST,
    Command,
    CommandKind,
)
from .engine import Policy
from .errors import (
    AddressRangeError,
    ConfigError,
    Diagnostic,
    FlashSimError,
    TraceParseError,
)
from .models import (
    EventKind,
    ModelSet,
    PowerParams,
    TimingParams,
    parse_latency_expression,
    parse_power_expression,
)
from .topology import FlashAddress, Geometry, decode, new_address, validate_geometry
from .units import us_to_ns

TRACE_HEADER = "flashsim-trace v1"

_KIND_BY_NAME = {kind.value: kind for kind in CommandKind}
_EVENT_BY_NAME = {kind.value: kind for kind in EventKind}


class Config(NamedTuple):
    geometry: Geometry
    supported: frozenset[CommandKind]
    models: ModelSet
    policy: Policy


def parse_trace(text: str, geometry: Geometry) -> list[Command]:
    """Parse a trace's text into commands sorted by (arrival, line order).

    Every malformed line is reported exactly once, with its line number, in
    a single TraceParseError; nothing simulates until the whole trace is
    clean. sequence_id is the command's rank in the sorted order.
    """
    # Lines end only where text-mode reading ends them (at \n, \r\n or \r),
    # so diagnostics count lines as the file's reader does; `str.splitlines`
    # would also split at \f, \x85, \u2028 and others.
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty remainder after a final newline
    problems: list[Diagnostic] = []
    records: list[tuple[int, int, CommandKind, tuple[FlashAddress, ...], int]] = []
    header_seen = False

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if not header_seen:
            if line != TRACE_HEADER:
                problems.append(
                    Diagnostic(lineno, f"expected header '{TRACE_HEADER}', got '{line}'")
                )
                break
            header_seen = True
            continue
        fields = line.split(",")
        # Every character `str.strip` removes is either a space or not
        # printable, so a line with neither has no field to strip.
        if " " in line or not line.isprintable():
            fields = [f.strip() for f in fields]
        if len(fields) < 2:
            problems.append(Diagnostic(lineno, "need at least arrival time and kind"))
            continue
        try:
            arrival_us = float(fields[0])
            arrival_ns = us_to_ns(arrival_us)  # NaN and infinities do not convert
        except (ValueError, OverflowError):
            problems.append(Diagnostic(lineno, f"bad arrival time '{fields[0]}'"))
            continue
        if arrival_us < 0:
            problems.append(Diagnostic(lineno, f"arrival time {fields[0]} is negative"))
            continue
        entry = _KIND_PARSERS.get(fields[1])
        if entry is None:
            problems.append(Diagnostic(lineno, f"unknown command kind '{fields[1]}'"))
            continue
        kind, parse_operands = entry
        try:
            operands, page_count = parse_operands(kind, fields[2:], geometry)
        except _LineError as exc:
            problems.append(Diagnostic(lineno, str(exc)))
            continue
        records.append((arrival_ns, lineno, kind, operands, page_count))

    if not header_seen and not problems:
        problems.append(Diagnostic(len(lines) + 1, f"missing header '{TRACE_HEADER}'"))
    if problems:
        raise TraceParseError(problems)

    records.sort(key=itemgetter(0))  # stable: equal arrivals keep line order
    # The operand parsers enforce every layout rule `Command.__new__` checks
    # (operand count, page count) and the loop above rejects a negative
    # arrival, so the commands are built in C, without checking them again.
    return [
        _new_command((arrival_ns, kind, operands, page_count, sequence_id, lineno))
        for sequence_id, (arrival_ns, lineno, kind, operands, page_count) in enumerate(
            records
        )
    ]


_new_command = partial(tuple.__new__, Command)


class _LineError(FlashSimError):
    pass


# The operand parsers, one per operand layout. Each takes the kind and the
# comma fields after arrival and kind, and returns (operands, page count).


def _one_address(
    kind: CommandKind, fields: list[str], geometry: Geometry
) -> tuple[tuple[FlashAddress, ...], int]:
    if len(fields) != 1:
        raise _LineError(f"{kind.value} takes one address, got {len(fields)} fields")
    return (_parse_address(fields[0], geometry),), 1


def _extent(
    kind: CommandKind, fields: list[str], geometry: Geometry
) -> tuple[tuple[FlashAddress, ...], int]:
    if len(fields) != 2:
        raise _LineError(
            f"{kind.value} takes an address and a page count, got {len(fields)} fields"
        )
    addr = _parse_address(fields[0], geometry)
    try:
        count = int(fields[1])
    except ValueError:
        raise _LineError(f"bad page count '{fields[1]}'")
    if count < 1:
        raise _LineError(f"page count must be >= 1, got {count}")
    return (addr,), count


def _pair(
    kind: CommandKind, fields: list[str], geometry: Geometry
) -> tuple[tuple[FlashAddress, ...], int]:
    if len(fields) != 2:
        raise _LineError(
            f"copy_back takes source and destination, got {len(fields)} fields"
        )
    return (
        _parse_address(fields[0], geometry),
        _parse_address(fields[1], geometry),
    ), 1


def _pairs(
    kind: CommandKind, fields: list[str], geometry: Geometry
) -> tuple[tuple[FlashAddress, ...], int]:
    if len(fields) != 2:
        raise _LineError(
            "multi_plane_copy_back takes a source list and a destination list, "
            f"got {len(fields)} fields"
        )
    sources = _parse_address_list(fields[0], geometry)
    dests = _parse_address_list(fields[1], geometry)
    if len(sources) != len(dests):
        raise _LineError(f"{len(sources)} sources but {len(dests)} destinations")
    operands = []
    for src, dst in zip(sources, dests):
        operands.extend((src, dst))
    return tuple(operands), 1


def _address_list(
    kind: CommandKind, fields: list[str], geometry: Geometry
) -> tuple[tuple[FlashAddress, ...], int]:
    if len(fields) != 1:
        raise _LineError(
            f"{kind.value} takes one ';'-separated address list, got {len(fields)} fields"
        )
    return _parse_address_list(fields[0], geometry), 1


_OPERAND_PARSERS = {
    ONE_ADDRESS: _one_address,
    EXTENT: _extent,
    PAIR: _pair,
    PAIRS: _pairs,
    PLANE_LIST: _address_list,
    DIE_LIST: _address_list,
}
# kind field text -> (kind, its operand parser)
_KIND_PARSERS = {
    name: (kind, _OPERAND_PARSERS[LAYOUT[name]]) for name, kind in _KIND_BY_NAME.items()
}


def _parse_address_list(text: str, geometry: Geometry) -> tuple[FlashAddress, ...]:
    parts = [p for p in map(str.strip, text.split(";")) if p]
    if not parts:
        raise _LineError("empty address list")
    return tuple([_parse_address(part, geometry) for part in parts])


def _parse_address(text: str, geometry: Geometry) -> FlashAddress:
    """Either six dot-separated indices or one flat page index."""
    pieces = text.split(".")
    if len(pieces) == 6:
        try:
            channel, chip, die, plane, block, page = map(int, pieces)
        except ValueError:
            # `int` strips most of what `str.strip` removes around a field,
            # but not \x1c-\x1f; an index accepts exactly what a field does
            try:
                channel, chip, die, plane, block, page = map(int, map(str.strip, pieces))
            except ValueError:
                raise _LineError(f"bad address index in '{text}'")
        # the six range comparisons, inlined
        channels, chips, dies, planes, blocks, pages, _, _ = geometry
        addr = new_address((channel, chip, die, plane, block, page))
        if (
            0 <= channel < channels
            and 0 <= chip < chips
            and 0 <= die < dies
            and 0 <= plane < planes
            and 0 <= block < blocks
            and 0 <= page < pages
        ):
            return addr
        raise _LineError(f"address {addr} out of range for geometry {geometry.counts()}")
    if len(pieces) > 1:
        raise _LineError(
            f"address '{text}' needs 6 dot-separated indices, got {len(pieces)}"
        )
    try:
        index = int(text)
    except ValueError:
        raise _LineError(f"bad address '{text}'")
    try:
        return decode(index, geometry)
    except AddressRangeError as exc:
        raise _LineError(str(exc))


def emit_trace(commands: Iterable[Command]) -> str:
    """Render commands back to trace text; reparsing yields equal commands."""
    out = [TRACE_HEADER]
    for cmd in commands:
        arrival_ns = cmd.arrival_ns
        if arrival_ns % 1000 == 0:
            arrival = str(arrival_ns // 1000)
        else:
            arrival = f"{arrival_ns / 1000:.3f}".rstrip("0")
        layout = LAYOUT[cmd.kind._value_]
        if layout == EXTENT:
            rest = f"{cmd.operands[0]},{cmd.page_count}"
        elif layout == PAIR:
            rest = f"{cmd.operands[0]},{cmd.operands[1]}"
        elif layout == PAIRS:
            rest = (
                ";".join(map(str, cmd.operands[0::2]))
                + ","
                + ";".join(map(str, cmd.operands[1::2]))
            )
        else:
            rest = ";".join(str(a) for a in cmd.operands)
        out.append(f"{arrival},{cmd.kind.value},{rest}")
    return "\n".join(out) + "\n"


_GEOMETRY_KEYS = (
    "channels",
    "chips_per_channel",
    "dies_per_chip",
    "planes_per_die",
    "blocks_per_plane",
    "pages_per_block",
    "page_size",
)
_TIMING_KEYS = frozenset(
    {"t_cmd", "t_sense", "t_prog", "t_erase", "t_bus_per_byte", "t_buf"}
)
_POWER_KEYS = frozenset(
    {"p_cmd", "p_sense", "p_prog", "p_erase", "p_bus", "p_buf", "p_idle_plane", "p_idle_bus"}
)
_POLICY_KEYS = frozenset(
    {
        "violation_severity",
        "endurance_limit",
        "die_serialization",
        "cmd_overhead_on_bus",
        "initially_written",
        "multi_plane_same_offsets",
    }
)
_SECTIONS = frozenset({"geometry", "commands", "performance", "power", "policy"})


def parse_config(text: str) -> Config:
    """Parse and fully validate an INI configuration."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}")

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    for required in ("geometry", "commands"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    geometry = _parse_geometry(parser["geometry"])
    supported = _parse_supported(parser["commands"])
    models = _parse_models(parser)
    policy = _parse_policy(parser)
    return Config(geometry, supported, models, policy)


def _parse_geometry(section: configparser.SectionProxy) -> Geometry:
    for key in section:
        if key not in _GEOMETRY_KEYS and key != "oob_size":
            raise ConfigError(f"unknown key geometry.{key}")
    values = {}
    for key in _GEOMETRY_KEYS:
        if key not in section:
            raise ConfigError(f"missing required key geometry.{key}")
        values[key] = _int_value("geometry", key, section[key])
    values["oob_size"] = (
        _int_value("geometry", "oob_size", section["oob_size"])
        if "oob_size" in section
        else 0
    )
    geometry = Geometry(**values)
    try:
        validate_geometry(geometry)
    except FlashSimError as exc:
        raise ConfigError(f"geometry: {exc}")
    return geometry


def _parse_supported(section: configparser.SectionProxy) -> frozenset[CommandKind]:
    for key in section:
        if key != "supported":
            raise ConfigError(f"unknown key commands.{key}")
    if "supported" not in section:
        raise ConfigError("missing required key commands.supported")
    names = [n.strip() for n in section["supported"].split(",") if n.strip()]
    if not names:
        raise ConfigError("commands.supported must list at least one command kind")
    kinds = set()
    for name in names:
        if name not in _KIND_BY_NAME:
            raise ConfigError(f"commands.supported: unknown command kind '{name}'")
        kinds.add(_KIND_BY_NAME[name])
    return frozenset(kinds)


def _parse_models(parser: configparser.ConfigParser) -> ModelSet:
    timing_kwargs: dict[str, float] = {}
    latency_exprs = {}
    if parser.has_section("performance"):
        for key, value in parser["performance"].items():
            if key in _TIMING_KEYS:
                timing_kwargs[key] = _float_value("performance", key, value)
            elif key in _EVENT_BY_NAME:
                try:
                    latency_exprs[_EVENT_BY_NAME[key]] = parse_latency_expression(value)
                except FlashSimError as exc:
                    raise ConfigError(f"performance.{key}: {exc}")
            else:
                raise ConfigError(f"unknown key performance.{key}")

    power_kwargs: dict[str, float] = {}
    power_exprs = {}
    if parser.has_section("power"):
        for key, value in parser["power"].items():
            if key in _POWER_KEYS:
                power_kwargs[key] = _float_value("power", key, value)
            elif key in _EVENT_BY_NAME:
                try:
                    power_exprs[_EVENT_BY_NAME[key]] = parse_power_expression(value)
                except FlashSimError as exc:
                    raise ConfigError(f"power.{key}: {exc}")
            else:
                raise ConfigError(f"unknown key power.{key}")

    try:
        timing = TimingParams(**timing_kwargs)
        power = PowerParams(**power_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return ModelSet(timing, power, latency_exprs, power_exprs)


def _parse_policy(parser: configparser.ConfigParser) -> Policy:
    if not parser.has_section("policy"):
        return Policy()
    section = parser["policy"]
    for key in section:
        if key not in _POLICY_KEYS:
            raise ConfigError(f"unknown key policy.{key}")
    kwargs: dict = {}
    if "violation_severity" in section:
        value = section["violation_severity"].strip().lower()
        if value not in ("warn", "error"):
            raise ConfigError(
                f"policy.violation_severity must be 'warn' or 'error', got '{value}'"
            )
        kwargs["strict"] = value == "error"
    if "endurance_limit" in section:
        raw = section["endurance_limit"].strip().lower()
        if raw != "none":
            limit = _int_value("policy", "endurance_limit", raw)
            if limit < 0:
                raise ConfigError("policy.endurance_limit must be >= 0 or 'none'")
            kwargs["endurance_limit"] = limit
    for key in (
        "die_serialization",
        "cmd_overhead_on_bus",
        "initially_written",
        "multi_plane_same_offsets",
    ):
        if key in section:
            kwargs[key] = _bool_value("policy", key, section[key])
    return Policy(**kwargs)


def _int_value(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected an integer, got '{raw}'")


def _float_value(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: expected a number, got '{raw}'")


def _bool_value(section: str, key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{section}.{key}: expected a boolean, got '{raw}'")
