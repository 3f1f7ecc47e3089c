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
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping

from .commands import EventKind
from .errors import NegativeResultError
from .expr import Expression, parse_expression
from .topology import FlashAddress, Geometry

# Variables every expression may reference; power expressions additionally
# see the event's scheduled duration.
PERF_VARIABLES = frozenset(
    {
        "byte_count",
        "page_size",
        "oob_size",
        "channel",
        "chip",
        "die",
        "plane",
        "block",
        "page",
    }
)
POWER_VARIABLES = PERF_VARIABLES | {"duration"}


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
        _reject_negatives(self)


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
        _reject_negatives(self)


def _reject_negatives(params) -> None:
    for f in fields(params):
        if getattr(params, f.name) < 0:
            raise ValueError(f"{f.name} must be >= 0, got {getattr(params, f.name)}")


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

    def variables(self) -> dict[str, float]:
        env = {
            "byte_count": float(self.byte_count),
            "page_size": float(self.page_size),
            "oob_size": float(self.oob_size),
            "channel": float(self.channel),
            "chip": float(self.chip),
            "die": float(self.die),
            "plane": float(self.plane),
            "block": float(self.block),
            "page": float(self.page),
        }
        if self.duration_us is not None:
            env["duration"] = self.duration_us
        return env


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

    def latency_us(self, ctx: EventContext) -> float:
        """Duration of one event in microseconds; always >= 0."""
        if ctx.duration_us is not None:
            raise ValueError("latency context must not carry a duration")
        expr = self.latency_exprs.get(ctx.kind)
        if expr is not None:
            return _checked(expr.evaluate(ctx.variables()), ctx.kind, "latency")
        if ctx.kind in (EventKind.BUS_TRANSFER_IN, EventKind.BUS_TRANSFER_OUT):
            return ctx.byte_count * self.timing.t_bus_per_byte
        return getattr(self.timing, _TIMING_PARAM_FOR[ctx.kind])

    def energy_uj(self, ctx: EventContext) -> float:
        """Energy of one event in microjoules; always >= 0."""
        if ctx.duration_us is None:
            raise ValueError("energy context requires the event duration")
        expr = self.power_exprs.get(ctx.kind)
        if expr is not None:
            return _checked(expr.evaluate(ctx.variables()), ctx.kind, "energy")
        milliwatts = getattr(self.power, _POWER_PARAM_FOR[ctx.kind])
        return milliwatts * ctx.duration_us / 1000

    def idle_power_mw(self, resource_kind: str) -> float:
        # die resources stand in for their planes under die serialization
        return self.power.p_idle_bus if resource_kind == "bus" else self.power.p_idle_plane


def _checked(value: float, kind: EventKind, what: str) -> float:
    if value < 0:
        raise NegativeResultError(
            f"{what} expression for {kind.value} evaluated to {value}"
        )
    return value


def parse_latency_expression(text: str) -> Expression:
    return parse_expression(text, PERF_VARIABLES)


def parse_power_expression(text: str) -> Expression:
    return parse_expression(text, POWER_VARIABLES)
