"""Brute-force oracles used only to cross-check the package.

The address oracle enumerates the hierarchy with six nested loops, and the
scheduling oracle discovers start times by advancing a clock in minimal
steps over per-resource FIFO queues instead of computing start = max(...)
directly. Those two share no logic with the implementation under test.

The scheduling oracle's inputs do share it. Its event DAGs come from
`commands.decompose`, which instantiates the same `commands.shape` the
engine reads, so a wrong shape (a missing dependency, a wrong resource) is
wrong in both and their agreement does not catch it. Its durations and
energies come from `ModelSet.latency_us`/`energy_uj`, whose functions are
compiled from the same binding trees through the same `expr.Emitter` as the
engine's `Pricer`. `closed_form.py` gives per-command latencies in closed
form, independent of both, and criterion 3 checks the engine against it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from flashsim.commands import Command, EventKind, decompose
from flashsim.engine import Policy, RunResult
from flashsim.models import EventContext, ModelSet
from flashsim.topology import FlashAddress, Geometry, Resource


def enumerated_addresses(geometry: Geometry) -> list[FlashAddress]:
    """All addresses in linearization order, by explicit nested loops."""
    out = []
    for channel in range(geometry.channels):
        for chip in range(geometry.chips_per_channel):
            for die in range(geometry.dies_per_chip):
                for plane in range(geometry.planes_per_die):
                    for block in range(geometry.blocks_per_plane):
                        for page in range(geometry.pages_per_block):
                            out.append(
                                FlashAddress(channel, chip, die, plane, block, page)
                            )
    return out


def enumerated_index_map(geometry: Geometry) -> dict[FlashAddress, int]:
    return {addr: i for i, addr in enumerate(enumerated_addresses(geometry))}


@dataclass
class _OracleEvent:
    seq: int
    event_id: int
    arrival: int
    deps: tuple[int, ...]
    kind: EventKind
    target: FlashAddress
    resource: Resource | None
    duration: int
    energy: float
    start: int | None = None
    end: int | None = None


def _scheduling_unit(resource: Resource | None, policy: Policy) -> Resource | None:
    # die serialization makes each plane's die the exclusive unit
    if resource is not None and policy.die_serialization and resource.kind == "plane":
        return Resource("die", resource.key[:3])
    return resource


def oracle_schedule(
    trace: list[Command],
    geometry: Geometry,
    models: ModelSet,
    policy: Policy = Policy(),
) -> dict[tuple[int, int], tuple[int, int]]:
    """Brute-force schedule: {(sequence_id, event_id): (start_ns, end_ns)}."""
    return {
        key: (start, start + duration)
        for key, (_, _, _, start, duration, _) in oracle_events(
            trace, geometry, models, policy
        ).items()
    }


def oracle_events(
    trace: list[Command],
    geometry: Geometry,
    models: ModelSet,
    policy: Policy = Policy(),
) -> dict[tuple[int, int], tuple]:
    """Brute-force event log: {(sequence_id, event_id): (kind, target,
    resource, start_ns, duration_ns, energy_uj)}, comparable to
    `engine_events` of a run.

    Durations and energies come from `ModelSet.latency_us`/`energy_uj`, one
    `EventContext` per binding. Advances time in minimal steps (next event
    end or command arrival); at each instant it starts, to a fixpoint, every
    ready resourceless event and every ready FIFO-queue head whose resource
    is free.
    """
    events: list[_OracleEvent] = []
    by_command: dict[int, list[_OracleEvent]] = {}
    for cmd in trace:
        decomposed = decompose(
            cmd, geometry, cmd_overhead_on_bus=policy.cmd_overhead_on_bus
        )
        command_events = []
        for event_id, ev in enumerate(decomposed):
            ctx = EventContext.for_event(ev.kind, ev.target, ev.byte_count, geometry)
            duration = round(models.latency_us(ctx) * 1000)
            energy = models.energy_uj(
                EventContext.for_event(
                    ev.kind, ev.target, ev.byte_count, geometry, duration / 1000
                )
            )
            oe = _OracleEvent(
                cmd.sequence_id,
                event_id,
                cmd.arrival_ns,
                tuple(sorted(ev.depends_on)),
                ev.kind,
                ev.target,
                _scheduling_unit(ev.resource, policy),
                duration,
                energy,
            )
            command_events.append(oe)
            events.append(oe)
        by_command[cmd.sequence_id] = command_events

    if not events:
        return {}

    queues: dict[object, deque[_OracleEvent]] = {}
    for oe in sorted(events, key=lambda e: (e.seq, e.event_id)):
        if oe.resource is not None:
            queues.setdefault(oe.resource, deque()).append(oe)
    resource_free_at: dict[object, int] = {}

    def ready(oe: _OracleEvent, now: int) -> bool:
        if oe.arrival > now:
            return False
        for dep in oe.deps:
            dep_event = by_command[oe.seq][dep]
            if dep_event.end is None or dep_event.end > now:
                return False
        return True

    now = min(oe.arrival for oe in events)
    while any(oe.start is None for oe in events):
        progress = True
        while progress:
            progress = False
            for oe in events:
                if oe.start is None and oe.resource is None and ready(oe, now):
                    oe.start, oe.end = now, now + oe.duration
                    progress = True
            for resource in sorted(queues, key=repr):
                queue = queues[resource]
                if not queue:
                    continue
                head = queue[0]
                if resource_free_at.get(resource, 0) <= now and ready(head, now):
                    queue.popleft()
                    head.start, head.end = now, now + head.duration
                    resource_free_at[resource] = head.end
                    progress = True
        horizon = [
            oe.end for oe in events if oe.end is not None and oe.end > now
        ] + [oe.arrival for oe in events if oe.start is None and oe.arrival > now]
        if not horizon:
            raise AssertionError("oracle stalled: no next instant with pending events")
        now = min(horizon)

    return {
        (oe.seq, oe.event_id): (
            oe.kind, oe.target, oe.resource, oe.start, oe.duration, oe.energy
        )
        for oe in events
    }


def engine_events(run: RunResult) -> dict[tuple[int, int], tuple]:
    """A run's event log in the form `oracle_events` returns."""
    return {
        (e.sequence_id, e.event_id): (
            e.kind, e.target, e.resource, e.start_ns, e.duration_ns, e.energy_uj
        )
        for e in run.schedule
    }
