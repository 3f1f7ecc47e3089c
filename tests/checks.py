"""Post-hoc schedule legality checks applied to every test run, and a
brute-force reference model of the device state."""

from __future__ import annotations

from flashsim.commands import Command, decompose
from flashsim.engine import Policy, RunResult
from flashsim.errors import Rule, Severity, Violation
from flashsim.topology import (
    FlashAddress,
    Geometry,
    PageState,
    encode,
    validate_geometry,
)


def assert_schedule_legal(
    run: RunResult, trace: list[Command], geometry: Geometry, policy: Policy = Policy()
) -> None:
    """Assert resource exclusivity and causality over a completed schedule."""
    by_resource: dict[object, list] = {}
    for ev in run.schedule:
        if ev.resource is not None:
            by_resource.setdefault(ev.resource, []).append(ev)
    for resource, events in by_resource.items():
        events.sort(key=lambda e: (e.start_ns, e.end_ns))
        for prev, cur in zip(events, events[1:]):
            assert cur.start_ns >= prev.end_ns, (
                f"overlap on {resource}: [{prev.start_ns},{prev.end_ns}) vs "
                f"[{cur.start_ns},{cur.end_ns})"
            )

    commands = {cmd.sequence_id: cmd for cmd in trace}
    ends: dict[tuple[int, int], int] = {
        (ev.sequence_id, ev.event_id): ev.end_ns for ev in run.schedule
    }
    for ev in run.schedule:
        cmd = commands[ev.sequence_id]
        assert ev.start_ns >= cmd.arrival_ns, "event starts before command arrival"
        decomposed = decompose(
            cmd, geometry, cmd_overhead_on_bus=policy.cmd_overhead_on_bus
        )
        for dep in decomposed[ev.event_id].depends_on:
            assert ev.start_ns >= ends[(ev.sequence_id, dep)], (
                f"event ({ev.sequence_id},{ev.event_id}) starts before dependency {dep} ends"
            )
        assert ev.duration_ns >= 0 and ev.energy_uj >= 0

    for result in run.results:
        durations = [
            ev.duration_ns for ev in run.schedule if ev.sequence_id == result.sequence_id
        ]
        assert result.latency_ns >= max(durations, default=0)


class ReferenceState:
    """`SubsystemState` by brute force: one written flag per flat page index,
    and an erase that flips every page of its block one by one.

    It has `SubsystemState`'s constructor, methods, warnings and messages, so
    a property can compare the two call for call, and `engine.replay` can be
    driven by either.
    """

    def __init__(
        self,
        geometry: Geometry,
        endurance_limit: int | None = None,
        initially_written: bool = False,
    ):
        validate_geometry(geometry)
        if endurance_limit is not None and endurance_limit < 0:
            raise ValueError(f"endurance_limit must be >= 0, got {endurance_limit}")
        self.geometry = geometry
        self.endurance_limit = endurance_limit
        self._default_written = initially_written
        self._written: dict[int, bool] = {}
        self._erase_counts: dict[int, int] = {}

    def page_state(self, addr: FlashAddress) -> PageState:
        written = self._written.get(encode(addr, self.geometry), self._default_written)
        return PageState.WRITTEN if written else PageState.ERASED

    def erase_count(self, addr: FlashAddress) -> int:
        return self._erase_counts.get(self._block_index(addr), 0)

    def write_page(self, addr: FlashAddress, count: int = 1) -> list[Violation]:
        """A run of `count` pages as that many single-page writes, once
        every page of the run is in range."""
        encode(addr, self.geometry)
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        run = [addr._replace(page=addr.page + i) for i in range(count)]
        for page in run:
            encode(page, self.geometry)
        return [warning for page in run for warning in self._write_one(page)]

    def _write_one(self, addr: FlashAddress) -> list[Violation]:
        index = encode(addr, self.geometry)
        warnings = []
        if self._written.get(index, self._default_written):
            warnings.append(
                Violation(
                    Rule.ERASE_BEFORE_WRITE,
                    Severity.WARNING,
                    f"page {addr} written again without an intervening erase",
                )
            )
        self._written[index] = True
        return warnings

    def erase_block(self, addr: FlashAddress) -> list[Violation]:
        block = self._block_index(addr)
        first_page = block * self.geometry.pages_per_block
        for index in range(first_page, first_page + self.geometry.pages_per_block):
            self._written[index] = False
        count = self._erase_counts.get(block, 0) + 1
        self._erase_counts[block] = count
        if self.endurance_limit is not None and count > self.endurance_limit:
            return [
                Violation(
                    Rule.ENDURANCE_EXCEEDED,
                    Severity.WARNING,
                    f"block {addr.channel}.{addr.chip}.{addr.die}.{addr.plane}."
                    f"{addr.block} erased {count} times, endurance limit is "
                    f"{self.endurance_limit}",
                )
            ]
        return []

    def _block_index(self, addr: FlashAddress) -> int:
        origin = FlashAddress(
            addr.channel, addr.chip, addr.die, addr.plane, addr.block, 0
        )
        return encode(origin, self.geometry) // self.geometry.pages_per_block
