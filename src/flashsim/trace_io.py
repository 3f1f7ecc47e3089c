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
times are microseconds, rounded half-even to whole nanoseconds below 2**63;
records are returned sorted and numbered by (arrival time, line order).

Configuration files are INI, in the language configparser reads (see
`_read_ini`); a syntax error names its line. Sections ``[geometry]`` and
``[commands]`` are required; ``[performance]``, ``[power]`` and
``[policy]`` are optional and default to the built-in model fixture and
the permissive policy. Unknown
sections or keys are errors, never ignored. Model expressions are parsed
eagerly so a syntax error surfaces before any simulation starts.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from functools import partial
from operator import itemgetter

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
    Record,
    TraceParseError,
)
from .models import (
    EventKind,
    Expression,
    ModelSet,
    PowerParams,
    TimingParams,
    parse_latency_expression,
    parse_power_expression,
)
from .topology import FlashAddress, Geometry, decode, new_address, validate_geometry
from .units import NS_PER_US, TIME_LIMIT_NS

TRACE_HEADER = "flashsim-trace v1"

_KIND_BY_NAME = {kind.value: kind for kind in CommandKind}
_EVENT_BY_NAME = {kind.value: kind for kind in EventKind}


class Config(Record):
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
    address = _address_reader(geometry)

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
        try:
            if len(fields) < 2:
                raise _LineError("need at least arrival time and kind")
            arrival_ns = _arrival_ns(fields[0])
            entry = _KIND_PARSERS.get(fields[1])
            if entry is None:
                raise _LineError(f"unknown command kind '{fields[1]}'")
            kind, count, takes, parse_operands = entry
            n = len(fields) - 2
            if n != count:
                raise _LineError(f"{kind.value} takes {takes}, got {n} fields")
            operands, page_count = parse_operands(fields[2:], address)
        except _LineError as exc:
            problems.append(Diagnostic(lineno, str(exc)))
            continue
        records.append((arrival_ns, lineno, kind, operands, page_count))

    if not header_seen and not problems:
        problems.append(Diagnostic(len(lines) + 1, f"missing header '{TRACE_HEADER}'"))
    if problems:
        raise TraceParseError(problems)

    records.sort(key=itemgetter(0))  # stable: equal arrivals keep line order
    # The field count and the operand parsers enforce every layout rule
    # `Command._check` checks (operand count, page count) and `_arrival_ns`
    # keeps every arrival in [0, 2**63) ns, so the commands are built in C,
    # unchecked again.
    return [
        _new_command((arrival_ns, kind, operands, page_count, sequence_id, lineno))
        for sequence_id, (arrival_ns, lineno, kind, operands, page_count) in enumerate(
            records
        )
    ]


_new_command = partial(tuple.__new__, Command)


def _arrival_ns(text: str) -> int:
    """The arrival time `text` spells: its exact decimal value in
    microseconds, times 1000 and rounded half-even once, below 2**63 ns.
    `float` decides which texts spell a number, and whether it is NaN,
    infinite or negative; `Decimal` alone would also accept `1__0`."""
    if len(text) < 16 and text.isdecimal():  # whole microseconds below 10**15
        return int(text) * NS_PER_US
    try:
        us = float(text)
    except ValueError:
        us = math.nan
    if not math.isfinite(us):
        raise _LineError(f"bad arrival time '{text}'")
    if us < 0:
        raise _LineError(f"arrival time {text} is negative")
    if not us:  # below 1e-323 us, so 0 ns; `Decimal` cannot convert some
        return 0  # such texts, as 0e1000000000000000000
    # Below 10**16 us the quantized value fits 28 digits, so scaling it is
    # exact. The context is this function's own, whatever the caller's is.
    # decimal is imported only here: it adds 2 ms and 0.4 MB to a start.
    if us < 1e16:
        from decimal import ROUND_HALF_EVEN, Context, Decimal, InvalidOperation
        exact = Context(prec=28, rounding=ROUND_HALF_EVEN, traps=[InvalidOperation])
        rounded_us = exact.quantize(Decimal(text), Decimal("0.001"))
        ns = int(exact.multiply(rounded_us, NS_PER_US))
        if ns < TIME_LIMIT_NS:
            return ns
    raise _LineError(f"arrival time {text} is 2**63 ns or later")


class _LineError(FlashSimError):
    pass


# The operand parsers, one per operand layout. Each takes the comma fields
# after arrival and kind, as many as its layout's entry in `_OPERAND_PARSERS`
# counts, and the call's address reader, and returns (operands, page count).


def _one_address(
    fields: list[str], address: Callable[[str], FlashAddress]
) -> tuple[tuple[FlashAddress, ...], int]:
    return (address(fields[0]),), 1


def _extent(
    fields: list[str], address: Callable[[str], FlashAddress]
) -> tuple[tuple[FlashAddress, ...], int]:
    addr = address(fields[0])
    try:
        count = int(fields[1])
    except ValueError:
        raise _LineError(f"bad page count '{fields[1]}'")
    if count < 1:
        raise _LineError(f"page count must be >= 1, got {count}")
    return (addr,), count


def _pair(
    fields: list[str], address: Callable[[str], FlashAddress]
) -> tuple[tuple[FlashAddress, ...], int]:
    return (address(fields[0]), address(fields[1])), 1


def _pairs(
    fields: list[str], address: Callable[[str], FlashAddress]
) -> tuple[tuple[FlashAddress, ...], int]:
    sources = _parse_address_list(fields[0], address)
    dests = _parse_address_list(fields[1], address)
    if len(sources) != len(dests):
        raise _LineError(f"{len(sources)} sources but {len(dests)} destinations")
    operands = []
    for src, dst in zip(sources, dests):
        operands.extend((src, dst))
    return tuple(operands), 1


def _address_list(
    fields: list[str], address: Callable[[str], FlashAddress]
) -> tuple[tuple[FlashAddress, ...], int]:
    return _parse_address_list(fields[0], address), 1


# layout -> (number of operand fields, what they are, as a diagnostic names
# them, operand parser)
_OPERAND_PARSERS = {
    ONE_ADDRESS: (1, "one address", _one_address),
    EXTENT: (2, "an address and a page count", _extent),
    PAIR: (2, "source and destination", _pair),
    PAIRS: (2, "a source list and a destination list", _pairs),
    PLANE_LIST: (1, "one ';'-separated address list", _address_list),
    DIE_LIST: (1, "one ';'-separated address list", _address_list),
}
# kind field text -> (kind, *its layout's entry)
_KIND_PARSERS = {kind.value: (kind, *_OPERAND_PARSERS[LAYOUT[kind]]) for kind in CommandKind}


def _parse_address_list(
    text: str, address: Callable[[str], FlashAddress]
) -> tuple[FlashAddress, ...]:
    parts = text.split(";")
    # as for a line's fields in `parse_trace`: a list with no space and no
    # unprintable character has no part to strip
    if " " in text or not text.isprintable():
        parts = [p.strip() for p in parts]
    if "" in parts:
        parts = [p for p in parts if p]
        if not parts:
            raise _LineError("empty address list")
    return tuple([address(part) for part in parts])


def _index(text: str) -> int:
    r"""The index one dot-separated piece of an address spells; raises
    ValueError when it spells none.

    `int` strips most of what `str.strip` removes around a field, but not
    \x1c-\x1f; an index accepts exactly what a field does.
    """
    try:
        return int(text)
    except ValueError:
        return int(text.strip())


class _LevelIndices(dict):
    """One address level's index texts, each mapped to the index it spells.

    It holds only texts whose index is in range for the level, so a hit
    stands for both the conversion and the range check. A miss runs both,
    stores the text when they pass and raises ValueError when they fail.
    """

    __slots__ = ("count",)

    def __init__(self, count: int):
        self.count = count

    def __missing__(self, text: str) -> int:
        index = _index(text)
        if not 0 <= index < self.count:
            raise ValueError(text)
        self[text] = index
        return index


def _address_reader(geometry: Geometry) -> Callable[[str], FlashAddress]:
    """The address parser of one `parse_trace` call.

    A six-piece address whose pieces all pass their level's lookup is built
    at once; every other address, and every failure, goes to
    `_parse_address`, the one writer of address diagnostics. The lookups
    live as long as the reader, so their memory follows the trace's distinct
    index texts, not the geometry.
    """
    levels = map(_LevelIndices, geometry.counts())
    channels, chips, dies, planes, blocks, pages = levels

    def address(text: str) -> FlashAddress:
        pieces = text.split(".")
        if len(pieces) == 6:
            channel, chip, die, plane, block, page = pieces
            try:
                return new_address(
                    (
                        channels[channel],
                        chips[chip],
                        dies[die],
                        planes[plane],
                        blocks[block],
                        pages[page],
                    )
                )
            except ValueError:
                pass
        return _parse_address(text, geometry)

    return address


def _parse_address(text: str, geometry: Geometry) -> FlashAddress:
    """Read one flat page index, or raise the diagnostic of an address the
    reader's lookups turned down.

    A six-piece address reaches here only when some piece spells no index or
    an index out of its level's range; the lookups have made the range check.
    """
    pieces = text.split(".")
    if len(pieces) == 6:
        try:
            indices = tuple(map(_index, pieces))
        except ValueError:
            raise _LineError(f"bad address index in '{text}'")
        raise _LineError(
            f"address {new_address(indices)} out of range for geometry {geometry.counts()}"
        )
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
    """Render commands back to trace text, each arrival as its exact decimal
    microseconds; reparsing yields equal commands."""
    out = [TRACE_HEADER]
    for cmd in commands:
        us, ns = divmod(cmd.arrival_ns, NS_PER_US)
        arrival = f"{us}.{ns:03d}".rstrip("0") if ns else str(us)
        layout = LAYOUT[cmd.kind]
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


# The keys of [geometry], [performance] and [power] are the fields of the
# records they build. [policy]'s boolean keys are Policy's boolean fields,
# in field order, but `strict`, which [policy] spells `violation_severity`.
_POLICY_FLAGS = tuple(
    field
    for field, default in Policy._field_defaults.items()
    if isinstance(default, bool) and field != "strict"
)
_POLICY_KEYS = frozenset(("violation_severity", "endurance_limit", *_POLICY_FLAGS))
_SECTIONS = frozenset({"geometry", "commands", "performance", "power", "policy"})


def parse_config(text: str) -> Config:
    """Parse and fully validate an INI configuration."""
    sections = _read_ini(text)
    defaults = sections.pop("DEFAULT")
    for name in sections:
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    # an empty [DEFAULT] header changes nothing and is accepted
    if defaults:
        raise ConfigError("unknown section [DEFAULT]")
    for required in ("geometry", "commands"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")

    geometry = _parse_geometry(sections["geometry"])
    supported = _parse_supported(sections["commands"])
    models = _parse_models(sections)
    policy = _parse_policy(sections.get("policy", {}))
    return Config(geometry, supported, models, policy)


def _read_ini(text: str) -> dict[str, dict[str, str]]:
    r"""Each section's keys and values, in file order, with the keys of
    every [DEFAULT] header under "DEFAULT", which is always there.

    This is the language `configparser.ConfigParser(interpolation=None)`
    reads. Lines end at \n only, and `str.strip` whitespace around a line
    is ignored. A line whose first other character is `#` or `;` is a
    comment. `[name]` opens a section (the name runs to the line's last
    `]`); any other line is `key = value` or `key : value`, split at its
    first `=` or `:`, the key lower-cased. A line indented deeper than the
    last header or key line continues that key's value on a line of its
    own, and so does a blank line; trailing blank lines are dropped. A
    repeated section or key, a line before the first header and a line that
    is neither raise ConfigError with the line's number.
    """
    sections: dict[str, dict[str, list[str]]] = {"DEFAULT": {}}
    section = None  # the open section's keys, once a header is read
    value = None  # the lines of the last key's value, until a header
    indent = 0  # the indent of the last header or key line
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            if not stripped and value is not None:
                value.append("")
            continue
        depth = len(line) - len(line.lstrip())
        if value is not None and depth > indent:
            value.append(stripped)
            continue
        indent = depth
        end = stripped.rfind("]")
        if stripped[0] == "[" and end > 1:
            name = stripped[1:end]
            if name in sections and name != "DEFAULT":
                raise ConfigError(f"malformed config: duplicate section [{name}]", lineno)
            section = sections.setdefault(name, {})
            value = None
            continue
        if section is None:
            raise ConfigError("malformed config: a line before the first section header", lineno)
        equals, colon = stripped.find("="), stripped.find(":")
        cut = equals if colon < 0 or 0 <= equals < colon else colon
        if cut < 0:
            raise ConfigError("malformed config: expected '[section]' or 'key = value'", lineno)
        if cut == 0:
            raise ConfigError(f"malformed config: no key before '{stripped[0]}'", lineno)
        key = stripped[:cut].rstrip().lower()
        if key in section:
            raise ConfigError(f"malformed config: duplicate key {name}.{key}", lineno)
        value = section[key] = [stripped[cut + 1 :].strip()]
    return {
        name: {key: "\n".join(lines).rstrip() for key, lines in keys.items()}
        for name, keys in sections.items()
    }


def _reject_unknown_keys(name: str, section: dict[str, str], known: Iterable[str]) -> None:
    """Raise on the first key of `section` that is not in `known`, before
    any value of the section is read. [performance] and [power] check their
    keys in `_model_section`'s loop instead, where a bad value before an
    unknown key is the one reported."""
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown key {name}.{key}")


def _parse_geometry(section: dict[str, str]) -> Geometry:
    _reject_unknown_keys("geometry", section, Geometry._fields)
    values = {}
    for key in Geometry._fields:  # a field with a default is optional
        if key in section:
            values[key] = _int_value("geometry", key, section[key])
        elif key not in Geometry._field_defaults:
            raise ConfigError(f"missing required key geometry.{key}")
    geometry = Geometry(**values)
    try:
        validate_geometry(geometry)
    except FlashSimError as exc:
        raise ConfigError(f"geometry: {exc}")
    return geometry


def _parse_supported(section: dict[str, str]) -> frozenset[CommandKind]:
    _reject_unknown_keys("commands", section, ("supported",))
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


def _parse_models(sections: dict[str, dict[str, str]]) -> ModelSet:
    timing_kwargs, latency_exprs = _model_section(
        sections, "performance", TimingParams._fields, parse_latency_expression
    )
    power_kwargs, power_exprs = _model_section(
        sections, "power", PowerParams._fields, parse_power_expression
    )
    try:
        timing = TimingParams(**timing_kwargs)
        power = PowerParams(**power_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return ModelSet(timing, power, latency_exprs, power_exprs)


def _model_section(
    sections: dict[str, dict[str, str]],
    name: str,
    params: tuple[str, ...],
    parse_expression: Callable[[str], Expression],
) -> tuple[dict[str, float], dict[EventKind, Expression]]:
    """A model section's parameter values by field and its expression
    bindings by event kind, in the section's key order; both empty when the
    section is absent."""
    values: dict[str, float] = {}
    exprs: dict[EventKind, Expression] = {}
    for key, value in sections.get(name, {}).items():
        if key in params:
            values[key] = _float_value(name, key, value)
        elif key in _EVENT_BY_NAME:
            try:
                exprs[_EVENT_BY_NAME[key]] = parse_expression(value)
            except FlashSimError as exc:
                raise ConfigError(f"{name}.{key}: {exc}")
        else:
            raise ConfigError(f"unknown key {name}.{key}")
    return values, exprs


def _parse_policy(section: dict[str, str]) -> Policy:
    _reject_unknown_keys("policy", section, _POLICY_KEYS)
    kwargs: dict = {}
    if "violation_severity" in section:
        raw = section["violation_severity"]
        value = raw.strip().lower()
        if value not in ("warn", "error"):
            raise ConfigError(
                f"policy.violation_severity must be 'warn' or 'error', got '{raw}'"
            )
        kwargs["strict"] = value == "error"
    if "endurance_limit" in section:
        raw = section["endurance_limit"]
        if raw.strip().lower() != "none":
            limit = _int_value("policy", "endurance_limit", raw)
            if limit < 0:
                raise ConfigError("policy.endurance_limit must be >= 0 or 'none'")
            kwargs["endurance_limit"] = limit
    for key in _POLICY_FLAGS:
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
