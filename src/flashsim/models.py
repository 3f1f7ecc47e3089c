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

Every binding, built-in or expression, is compiled once into a function of
one positional tuple of floats, in ``VARIABLE_ORDER``; pricing an event is
one call of its kind's latency function and one of its energy function.
Every built-in, and every expression that reads no address variable, gives
one result per (event kind, byte_count), which a run evaluates once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping

from .commands import EventKind
from .errors import ModelEvaluationError, NegativeResultError
from .expr import Expression, parse_expression
from .topology import FlashAddress, Geometry
from .units import us_to_ns

# The tuple a compiled binding reads. Every expression may reference the
# first nine; power expressions additionally see the event's scheduled
# duration, which comes last.
VARIABLE_ORDER = (
    "byte_count",
    "page_size",
    "oob_size",
    "channel",
    "chip",
    "die",
    "plane",
    "block",
    "page",
    "duration",
)
_SLOTS = {name: index for index, name in enumerate(VARIABLE_ORDER)}
_BYTE_COUNT, _DURATION = _SLOTS["byte_count"], _SLOTS["duration"]
PERF_VARIABLES = frozenset(VARIABLE_ORDER[:_DURATION])
POWER_VARIABLES = frozenset(VARIABLE_ORDER)
# A binding that reads none of the address variables is constant per
# (event kind, byte_count) on one geometry.
ADDRESS_FREE_VARIABLES = frozenset({"byte_count", "page_size", "oob_size", "duration"})

# A compiled binding and the config key it comes from, "[section] key".
Binding = tuple[Callable[[tuple[float, ...]], float], str]


@dataclass(frozen=True)
class TimingParams:
    """Built-in latency parameters, microseconds (per byte for the bus)."""

    t_cmd: float = 0.0
    t_sense: float = 25.0
    t_prog: float = 200.0
    t_erase: float = 1500.0
    t_bus_per_byte: float = 0.025
    t_buf: float = 0.0

    def __post_init__(self) -> None:
        _reject_out_of_range(self)


@dataclass(frozen=True)
class PowerParams:
    """Built-in power parameters, milliwatts."""

    p_cmd: float = 0.0
    p_sense: float = 30.0
    p_prog: float = 40.0
    p_erase: float = 50.0
    p_bus: float = 20.0
    p_buf: float = 0.0
    p_idle_plane: float = 0.0
    p_idle_bus: float = 0.0

    def __post_init__(self) -> None:
        _reject_out_of_range(self)


def _reject_out_of_range(params) -> None:
    for f in fields(params):
        value = getattr(params, f.name)
        if not 0 <= value < math.inf:
            raise ValueError(f"{f.name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class EventContext:
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
            kind,
            byte_count,
            geometry.page_size,
            geometry.oob_size,
            target.channel,
            target.chip,
            target.die,
            target.plane,
            target.block,
            target.page,
            duration_us,
        )


_TIMING_PARAM_FOR = {
    EventKind.CMD_OVERHEAD: "t_cmd",
    EventKind.ARRAY_SENSE: "t_sense",
    EventKind.ARRAY_PROGRAM: "t_prog",
    EventKind.BLOCK_ERASE: "t_erase",
    EventKind.BUFFER_COPY: "t_buf",
}
_POWER_PARAM_FOR = {
    EventKind.CMD_OVERHEAD: "p_cmd",
    EventKind.ARRAY_SENSE: "p_sense",
    EventKind.ARRAY_PROGRAM: "p_prog",
    EventKind.BLOCK_ERASE: "p_erase",
    EventKind.BUS_TRANSFER_IN: "p_bus",
    EventKind.BUS_TRANSFER_OUT: "p_bus",
    EventKind.BUFFER_COPY: "p_buf",
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
        self._address_free = {
            kind: all(
                expr.variables <= ADDRESS_FREE_VARIABLES
                for expr in (self.latency_exprs.get(kind), self.power_exprs.get(kind))
                if expr is not None
            )
            for kind in EventKind
        }

    def _latency_binding(self, kind: EventKind) -> Binding:
        expr = self.latency_exprs.get(kind)
        if expr is not None:
            return expr.compile(_SLOTS), f"[performance] {kind.value}"
        if kind in (EventKind.BUS_TRANSFER_IN, EventKind.BUS_TRANSFER_OUT):
            per_byte = self.timing.t_bus_per_byte
            return (
                lambda values: values[_BYTE_COUNT] * per_byte,
                "[performance] t_bus_per_byte",
            )
        name = _TIMING_PARAM_FOR[kind]
        constant = getattr(self.timing, name)
        return (lambda values: constant), f"[performance] {name}"

    def _energy_binding(self, kind: EventKind) -> Binding:
        expr = self.power_exprs.get(kind)
        if expr is not None:
            return expr.compile(_SLOTS), f"[power] {kind.value}"
        name = _POWER_PARAM_FOR[kind]
        milliwatts = getattr(self.power, name)
        return (
            lambda values: milliwatts * values[_DURATION] / 1000,
            f"[power] {name}",
        )

    def pricer(self, geometry: Geometry) -> Pricer:
        """The pricer of events on `geometry`; see `Pricer`."""
        return Pricer(self, geometry)

    def latency_us(self, ctx: EventContext) -> float:
        """Duration of one event in microseconds; always finite and >= 0."""
        if ctx.duration_us is not None:
            raise ValueError("latency context must not carry a duration")
        return _evaluated(self._latency[ctx.kind], _values(ctx))

    def energy_uj(self, ctx: EventContext) -> float:
        """Energy of one event in microjoules; always finite and >= 0."""
        if ctx.duration_us is None:
            raise ValueError("energy context requires the event duration")
        return _evaluated(self._energy[ctx.kind], (*_values(ctx), ctx.duration_us))

    def idle_power_mw(self, resource_kind: str) -> float:
        # die resources stand in for their planes under die serialization
        return self.power.p_idle_bus if resource_kind == "bus" else self.power.p_idle_plane


class Pricer:
    """Prices events on one geometry.

    `entry(kind, byte_count)` is the function that maps an event's target
    to (duration_ns, energy_uj): the latency binding gives the duration,
    rounded to whole nanoseconds, and the power binding sees that rounded
    duration. It raises ModelEvaluationError, naming the binding, when
    either one divides by zero or yields a negative, NaN or infinite result,
    or when the latency is too large to count in nanoseconds.

    A kind whose two bindings read no address variable is evaluated once per
    byte_count, at the first event that needs it, and that result is reused;
    a failing binding therefore raises at its first event, as it would if
    evaluated per event. Bindings that read the address are evaluated per
    event.
    """

    def __init__(self, models: ModelSet, geometry: Geometry):
        self._latency, self._energy = models._latency, models._energy
        self._address_free = models._address_free
        self._page_size = float(geometry.page_size)
        self._oob_size = float(geometry.oob_size)
        self._entries: dict[
            tuple[EventKind, int], Callable[[FlashAddress], tuple[int, float]]
        ] = {}

    def entry(
        self, kind: EventKind, byte_count: int
    ) -> Callable[[FlashAddress], tuple[int, float]]:
        """The function that prices every `kind` event of `byte_count` bytes,
        given its target; callers resolve it once and call it per event."""
        key = (kind, byte_count)
        found = self._entries.get(key)
        if found is None:
            found = self._entries[key] = self._new_entry(kind, byte_count)
        return found

    def _new_entry(
        self, kind: EventKind, byte_count: int
    ) -> Callable[[FlashAddress], tuple[int, float]]:
        latency, energy = self._latency[kind], self._energy[kind]
        byte_count_f, page_size, oob_size = float(byte_count), self._page_size, self._oob_size

        def evaluate(target: FlashAddress) -> tuple[int, float]:
            values = (
                byte_count_f,
                page_size,
                oob_size,
                float(target.channel),
                float(target.chip),
                float(target.die),
                float(target.plane),
                float(target.block),
                float(target.page),
            )
            duration_us = _evaluated(latency, values)
            try:
                duration_ns = us_to_ns(duration_us)
            except OverflowError:
                raise ModelEvaluationError(
                    latency[1],
                    f"evaluated to {duration_us} us, which overflows in nanoseconds",
                ) from None
            return duration_ns, _evaluated(energy, (*values, duration_ns / 1000))

        if not self._address_free[kind]:
            return evaluate
        priced: list[tuple[int, float]] = []

        def table_entry(target: FlashAddress) -> tuple[int, float]:
            if not priced:
                priced.append(evaluate(target))
            return priced[0]

        return table_entry


def _values(ctx: EventContext) -> tuple[float, ...]:
    return (
        float(ctx.byte_count),
        float(ctx.page_size),
        float(ctx.oob_size),
        float(ctx.channel),
        float(ctx.chip),
        float(ctx.die),
        float(ctx.plane),
        float(ctx.block),
        float(ctx.page),
    )


def _evaluated(binding: Binding, values: tuple[float, ...]) -> float:
    function, key = binding
    try:
        value = function(values)
    except ZeroDivisionError as exc:
        raise ModelEvaluationError(key, str(exc)) from None
    if 0 <= value < math.inf:  # false for NaN as well
        return value
    raise NegativeResultError(key, f"evaluated to {value}")


def parse_latency_expression(text: str) -> Expression:
    return parse_expression(text, PERF_VARIABLES)


def parse_power_expression(text: str) -> Expression:
    return parse_expression(text, POWER_VARIABLES)
