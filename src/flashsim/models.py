"""Timing and power meta-models: one equation per event kind.

Each event kind gets a latency binding (microseconds) and a power binding
(microjoules), either the built-in defaults below or a user expression over
the event's context variables. The built-in parameter values are an
illustrative fixture, not vendor data:

    latency (us)           power (mW)
    t_cmd          0.0     p_cmd          0.0
    t_sense       25.0     p_sense       30.0
    t_prog       200.0     p_prog        40.0
    t_erase     1500.0     p_erase       50.0
    t_bus_per_byte 0.025   p_bus         20.0
    t_buf          0.0     p_buf          0.0
                           p_idle_plane   0.0
                           p_idle_bus     0.0

Built-in equations: command overhead, sense, program, erase and buffer copy
cost their parameter directly; bus transfers cost byte_count *
t_bus_per_byte. Built-in energy is p_kind (mW) * duration (us) / 1000,
giving microjoules. Idle power parameters price the time a resource spends
unoccupied within the run's makespan.

Every binding, built-in or expression, is a parsed tree: the built-ins are
``t_x``, ``byte_count * t_bus_per_byte`` and ``p_x * duration / 1000``.
Pricing an event is one call of a function generated from its kind's two
trees and compiled once per (event kind, byte_count), the first time a run
needs it (see `Pricer`). That function remembers its results by the address
indices the two trees read, so an input already priced is not evaluated
again: every built-in, and every expression that reads no address
variable, is evaluated once per (event kind, byte_count), when the function
is compiled, and `Pricer.entry` returns that pair with the function, so
the engine places that kind's events without calling it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from functools import partial

from .commands import BUS_EVENTS, EventKind
from .errors import ModelEvaluationError, NegativeResultError, Record
from .expr import (
    DIVISION_BY_ZERO,
    Binary,
    Emitter,
    Expression,
    Node,
    Num,
    Var,
    parse_expression,
    variables_of,
)
from .topology import FlashAddress, Geometry
from .units import NS_PER_US, TIME_LIMIT_NS

# The variables a binding reads, in the order latency_us and energy_uj pass
# them: an `EventContext`'s fields 1 to 9, the target's six named as its
# `FlashAddress` fields, then its duration. Every expression may reference
# the first nine; power expressions additionally see the event's scheduled
# duration, which comes last.
VARIABLE_ORDER = ("byte_count", "page_size", "oob_size", *FlashAddress._fields, "duration")
_DURATION = VARIABLE_ORDER.index("duration")
PERF_VARIABLES = frozenset(VARIABLE_ORDER[:_DURATION])
POWER_VARIABLES = frozenset(VARIABLE_ORDER)
# The variables an event's target gives, named as its fields; variable i is
# index i of the target.
_ADDRESS_VARIABLES = FlashAddress._fields
# Each pricing function's memo is emptied when it holds this many results,
# so a run whose inputs rarely repeat keeps its memory flat.
_PRICES_KEPT = 256

# The tree of a binding's equation and the config key it comes from,
# "[section] key".
Binding = tuple[Node, str]


def _reject_out_of_range(params: tuple) -> None:
    for name, value in zip(params._fields, params):
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


class TimingParams(Record):
    """Built-in latency parameters, microseconds (per byte for the bus); a
    checked record (see `errors.Record`) that rejects a negative, NaN or
    infinite value."""

    t_cmd: float = 0.0
    t_sense: float = 25.0
    t_prog: float = 200.0
    t_erase: float = 1500.0
    t_bus_per_byte: float = 0.025
    t_buf: float = 0.0

    _check = _reject_out_of_range


class PowerParams(Record):
    """Built-in power parameters, milliwatts; a checked record (see
    `errors.Record`) that rejects a negative, NaN or infinite value."""

    p_cmd: float = 0.0
    p_sense: float = 30.0
    p_prog: float = 40.0
    p_erase: float = 50.0
    p_bus: float = 20.0
    p_buf: float = 0.0
    p_idle_plane: float = 0.0
    p_idle_bus: float = 0.0

    _check = _reject_out_of_range


class EventContext(Record):
    """The variables one event exposes to the model equations.

    `duration_us` must be set exactly when evaluating a power binding: the
    power model consumes the latency the timing model produced.
    """

    kind: EventKind
    byte_count: int
    page_size: int
    oob_size: int
    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int
    duration_us: float | None = None

    @classmethod
    def for_event(
        cls,
        kind: EventKind,
        target: FlashAddress,
        byte_count: int,
        geometry: Geometry,
        duration_us: float | None = None,
    ) -> EventContext:
        return cls(
            kind, byte_count, geometry.page_size, geometry.oob_size, *target, duration_us
        )


# Each event kind's built-in latency and power parameters. A bus transfer's
# latency parameter is per byte.
_PARAMS_FOR = {
    EventKind.CMD_OVERHEAD: ("t_cmd", "p_cmd"),
    EventKind.ARRAY_SENSE: ("t_sense", "p_sense"),
    EventKind.ARRAY_PROGRAM: ("t_prog", "p_prog"),
    EventKind.BLOCK_ERASE: ("t_erase", "p_erase"),
    EventKind.BUS_TRANSFER_IN: ("t_bus_per_byte", "p_bus"),
    EventKind.BUS_TRANSFER_OUT: ("t_bus_per_byte", "p_bus"),
    EventKind.BUFFER_COPY: ("t_buf", "p_buf"),
}


class ModelSet:
    """Latency and power bindings for every event kind.

    Defaults to the built-in equations; expression overrides replace the
    binding for their kind. Immutable after construction and therefore
    safe to share between runs.
    """

    def __init__(
        self,
        timing: TimingParams | None = None,
        power: PowerParams | None = None,
        latency_exprs: Mapping[EventKind, Expression] | None = None,
        power_exprs: Mapping[EventKind, Expression] | None = None,
    ):
        self.timing = timing or TimingParams()
        self.power = power or PowerParams()
        self.latency_exprs = dict(latency_exprs or {})
        self.power_exprs = dict(power_exprs or {})
        self._latency = {kind: self._latency_binding(kind) for kind in EventKind}
        self._energy = {kind: self._energy_binding(kind) for kind in EventKind}
        # the `[section] key` that names each kind's latency binding
        self.latency_keys = {kind: key for kind, (_, key) in self._latency.items()}
        # the single bindings behind latency_us and energy_uj, compiled on
        # first use and keyed by (kind, whether it is the power binding)
        self._functions: dict[tuple[EventKind, bool], Callable[..., float]] = {}

    def _latency_binding(self, kind: EventKind) -> Binding:
        expr = self.latency_exprs.get(kind)
        if expr is not None:
            return expr.root, f"[performance] {kind.value}"
        name = _PARAMS_FOR[kind][0]
        value = Num(getattr(self.timing, name))
        if kind in BUS_EVENTS:
            return Binary("*", Var("byte_count"), value), f"[performance] {name}"
        return value, f"[performance] {name}"

    def _energy_binding(self, kind: EventKind) -> Binding:
        expr = self.power_exprs.get(kind)
        if expr is not None:
            return expr.root, f"[power] {kind.value}"
        name = _PARAMS_FOR[kind][1]
        milliwatts = Num(getattr(self.power, name))
        return (
            Binary("/", Binary("*", milliwatts, Var("duration")), Num(1000)),
            f"[power] {name}",
        )

    def pricer(self, geometry: Geometry) -> Pricer:
        """The pricer of events on `geometry`; see `Pricer`."""
        return Pricer(self, geometry)

    def latency_us(self, ctx: EventContext) -> float:
        """Duration of one event in microseconds; always finite and >= 0."""
        if ctx.duration_us is not None:
            raise ValueError("latency context must not carry a duration")
        return self._function(ctx.kind, False)(*map(float, ctx[1:10]))

    def energy_uj(self, ctx: EventContext) -> float:
        """Energy of one event in microjoules; always finite and >= 0."""
        if ctx.duration_us is None:
            raise ValueError("energy context requires the event duration")
        return self._function(ctx.kind, True)(*map(float, ctx[1:10]), ctx.duration_us)

    def _function(self, kind: EventKind, power: bool) -> Callable[..., float]:
        found = self._functions.get((kind, power))
        if found is None:
            tree, key = (self._energy if power else self._latency)[kind]
            params = VARIABLE_ORDER if power else VARIABLE_ORDER[:_DURATION]
            emitter = Emitter()
            value = emitter.emit(tree, dict(zip(params, params)), _division_by_zero(key))
            _check_range(emitter, value, key)
            found = self._functions[kind, power] = emitter.function(params, value)
        return found

    def idle_power_mw(self, resource_kind: str) -> float:
        # die resources stand in for their planes under die serialization
        return self.power.p_idle_bus if resource_kind == "bus" else self.power.p_idle_plane


class Pricer:
    """Prices events on one geometry.

    `entry(kind, byte_count)` is the pair (pricing function, fixed pair).
    The pricing function maps an event's target to (duration_ns,
    energy_uj): the latency binding gives the duration, rounded to whole
    nanoseconds, and the power binding sees that rounded duration. It
    raises ModelEvaluationError, naming the binding, when either one
    divides by zero or yields a negative, NaN or infinite result, or when
    the latency reaches 2**63 ns.

    Each pricing function is generated from the kind's two trees and
    compiled when its entry is first asked for. It keeps a memo for as long
    as its pricer lives, keyed by the tuple of the target indices the two
    trees read (the empty tuple for a kind that reads none): a target whose
    key is stored gets the stored pair itself, and any other is evaluated
    and its pair stored. Only results are stored, so a failing binding
    raises at the first event that evaluates its key, and again at every
    later one, as it would if each event were evaluated on its own. The
    memo is emptied when it holds `_PRICES_KEPT` pairs.

    The fixed pair is the price of every event of a kind whose two trees
    read no address. The function computes it once, when it is compiled,
    so a caller that holds the pair need not call the function per event.
    It is None for a kind that reads an address, and for one whose
    evaluation fails; the function raises that failure again at the first
    event that calls it.
    """

    def __init__(self, models: ModelSet, geometry: Geometry):
        self._latency, self._energy = models._latency, models._energy
        self._page_size = float(geometry.page_size)
        self._oob_size = float(geometry.oob_size)
        self._entries: dict[
            tuple[EventKind, int],
            tuple[Callable[[FlashAddress], tuple[int, float]], tuple[int, float] | None],
        ] = {}

    def entry(
        self, kind: EventKind, byte_count: int
    ) -> tuple[Callable[[FlashAddress], tuple[int, float]], tuple[int, float] | None]:
        """The function that prices every `kind` event of `byte_count` bytes,
        given its target, and the pair it prices each one at when its
        bindings read no address and evaluate without error, else None.
        Callers resolve the entry once and call the function per event."""
        key = (kind, byte_count)
        found = self._entries.get(key)
        if found is None:
            found = self._entries[key] = self._kernel(kind, byte_count)
        return found

    def _kernel(
        self, kind: EventKind, byte_count: int
    ) -> tuple[Callable[[FlashAddress], tuple[int, float]], tuple[int, float] | None]:
        """Generate and compile the function that prices one event, with
        its memo, and its fixed pair."""
        (latency, latency_key), (energy, energy_key) = self._latency[kind], self._energy[kind]
        emitter = Emitter()
        names = {
            "byte_count": emitter.bind(float(byte_count)),
            "page_size": emitter.bind(self._page_size),
            "oob_size": emitter.bind(self._oob_size),
            "duration": "duration",
        }
        read = variables_of(latency) | variables_of(energy)
        memo: dict[tuple[int, ...], tuple[int, float]] = {}
        indices = [i for i, name in enumerate(_ADDRESS_VARIABLES) if name in read]
        key = emitter.assign("(" + "".join(f"target[{i}], " for i in indices) + ")")
        stored = emitter.assign(f"{emitter.bind(memo.get)}({key})")
        emitter.lines.append(f"if {stored} is not None: return {stored}")
        to_float = emitter.bind(float)
        for i in indices:
            names[_ADDRESS_VARIABLES[i]] = emitter.assign(f"{to_float}(target[{i}])")
        duration_us = emitter.emit(latency, names, _division_by_zero(latency_key))
        _check_range(emitter, duration_us, latency_key)
        # whole nanoseconds below 2**63, or an overflow named after the binding
        ns_per_us = emitter.bind(NS_PER_US)
        scaled = emitter.assign(f"{duration_us} * {ns_per_us}")
        emitter.lines.append(
            f"if not {scaled} < {emitter.bind(float(TIME_LIMIT_NS))}: "
            f"raise {emitter.bind(partial(_overflow, latency_key))}({duration_us})"
        )
        duration_ns = emitter.assign(f"{emitter.bind(round)}({scaled})")
        emitter.lines.append(f"duration = {duration_ns} / {ns_per_us}")
        energy_uj = emitter.emit(energy, names, _division_by_zero(energy_key))
        _check_range(emitter, energy_uj, energy_key)
        pair = emitter.assign(f"{duration_ns}, {energy_uj}")
        emitter.lines.append(
            f"if {emitter.bind(memo.__len__)}() == {_PRICES_KEPT}: "
            f"{emitter.bind(memo.clear)}()"
        )
        emitter.lines.append(f"{emitter.bind(memo)}[{key}] = {pair}")
        function = emitter.function(["target"], pair)
        if indices:
            return function, None
        try:
            return function, function(None)  # reads no target
        except ModelEvaluationError:
            return function, None


def _check_range(emitter: Emitter, value: str, key: str) -> None:
    """Append the check that the binding `key`'s result in `value` is
    finite and >= 0; the comparison is false for NaN as well."""
    emitter.lines.append(
        f"if not 0 <= {value} < {emitter.bind(math.inf)}: "
        f"raise {emitter.bind(partial(_out_of_range, key))}({value})"
    )


def _division_by_zero(key: str) -> Callable[[], ModelEvaluationError]:
    return partial(ModelEvaluationError, key, DIVISION_BY_ZERO)


def _out_of_range(key: str, value: float) -> NegativeResultError:
    return NegativeResultError(key, f"evaluated to {value}")


def _overflow(key: str, duration_us: float) -> ModelEvaluationError:
    return ModelEvaluationError(
        key, f"evaluated to {duration_us} us, which overflows in nanoseconds"
    )


def parse_latency_expression(text: str) -> Expression:
    return parse_expression(text, PERF_VARIABLES)


def parse_power_expression(text: str) -> Expression:
    return parse_expression(text, POWER_VARIABLES)
