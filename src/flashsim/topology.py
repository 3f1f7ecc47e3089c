"""Structural model: the channel/chip/die/plane/block/page hierarchy.

Provides the geometry description, the flat-index address codec, and the
mutable per-block state (written pages, erase counters) that the
constraint checks run against.

An address is range-checked in three places, each for its own caller:
`trace_io.parse_trace`, so that a bad trace address gets a diagnostic
located at its line; `commands.validate`, for commands built by hand rather
than parsed; and `SubsystemState`, for code that drives the device state
directly. `validate` and `SubsystemState.write_page`/`erase_block` write
their six comparisons inline, because a shared helper would cost a Python
call per address; `SubsystemState.page_state` and `erase_count` read their
block index through `encode`, which checks the same ranges. `parse_trace`
checks an index once per distinct text and level: it keeps, per level, the
texts whose index is in range, so finding a text there stands for the
conversion and the range check both, and a text not yet seen runs them. An
address that fails is read again by `trace_io._parse_address` only to write
its diagnostic. The three must accept and reject the same addresses with the
same message text (an erase and an erase count name a block, so
`SubsystemState` reads no page index for them), and the boundary table in
`tests/test_topology.py` checks that they do at every index's edges, at an
address's first and later readings.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from typing import NamedTuple

from .errors import (
    AddressRangeError,
    GeometryError,
    Rule,
    Severity,
    Violation,
)

# Flat page indices must stay inside a signed 64-bit domain so they remain
# portable and stable identifiers.
MAX_TOTAL_PAGES = 2**63 - 1


class Geometry(NamedTuple):
    """Dimensions of a flash subsystem, channel down to page.

    All six counts must be >= 1; `page_size` >= 1 bytes; `oob_size` >= 0
    bytes. `oob_size` is the per-page out-of-band metadata area; it carries
    no state of its own but is visible to model expressions.
    """

    channels: int
    chips_per_channel: int
    dies_per_chip: int
    planes_per_die: int
    blocks_per_plane: int
    pages_per_block: int
    page_size: int
    oob_size: int = 0

    @property
    def total_pages(self) -> int:
        channels, chips, dies, planes, blocks, pages = self[:6]
        return channels * chips * dies * planes * blocks * pages

    def counts(self) -> tuple[int, int, int, int, int, int]:
        """Per-level sizes in most-significant-first order (channel..page)."""
        return self[:6]


# The text of an address: its six indices, dotted.
ADDRESS_FORMAT = "%d.%d.%d.%d.%d.%d"


class FlashAddress(NamedTuple):
    """Hierarchical physical page coordinate; every index is zero-based.

    A tuple of the six indices, so it is built, hashed and compared in C.
    """

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    def __str__(self) -> str:
        return ADDRESS_FORMAT % self


# FlashAddress from a tuple of its six int indices, built in C: the named
# tuple's own constructor is a Python-level `__new__`. It checks nothing, so
# callers pass indices they have range-checked or derived from checked ones.
new_address = partial(tuple.__new__, FlashAddress)


class PageState(Enum):
    ERASED = "erased"
    WRITTEN = "written"


class Resource(NamedTuple):
    """An exclusively-occupied hardware unit: a plane or a channel bus.

    Planes serialize array operations; the channel bus serializes data
    transfers between every chip on the channel and the controller. With
    die serialization enabled the engine coarsens plane resources to whole
    dies ("die" kind). A resource's key is the address prefix that names
    it: (channel,) for a bus, the first three indices for a die and the
    first four for a plane. Resources order by (kind, key).
    """

    kind: str  # "plane" | "bus" | "die"
    key: tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.kind}/" + ".".join(str(i) for i in self.key)


def validate_geometry(geometry: Geometry) -> None:
    """Raise GeometryError unless every Geometry invariant holds."""
    for name, count in zip(Geometry._fields, geometry.counts()):
        if count < 1:
            raise GeometryError(f"{name} must be >= 1, got {count}")
    if geometry.page_size < 1:
        raise GeometryError(f"page_size must be >= 1, got {geometry.page_size}")
    if geometry.oob_size < 0:
        raise GeometryError(f"oob_size must be >= 0, got {geometry.oob_size}")
    if geometry.total_pages > MAX_TOTAL_PAGES:
        raise GeometryError(
            f"total_pages {geometry.total_pages} overflows the flat index domain"
        )


def encode(addr: FlashAddress, geometry: Geometry) -> int:
    """Linearize an address to its flat page index.

    Mixed-radix, most significant digit first: channel > chip > die > plane
    > block > page. The ordering is fixed so flat indices are stable across
    runs and across configurations with the same geometry.
    """
    index = 0
    for idx, count in zip(addr, geometry.counts()):
        if not 0 <= idx < count:
            raise AddressRangeError(
                f"address {addr} out of range for geometry {geometry.counts()}"
            )
        index = index * count + idx
    return index


def decode(index: int, geometry: Geometry) -> FlashAddress:
    """Inverse of encode(); raises AddressRangeError outside [0, total_pages)."""
    if not 0 <= index < geometry.total_pages:
        raise AddressRangeError(
            f"flat index {index} out of range [0, {geometry.total_pages})"
        )
    digits = []
    rest = index
    for count in reversed(geometry.counts()):
        rest, digit = divmod(rest, count)
        digits.append(digit)
    return FlashAddress(*reversed(digits))


class SubsystemState:
    """Mutable page and wear state, kept per block.

    A fresh device starts all-erased with zero wear; `initially_written`
    preloads every page as written to model a full device. Each block the
    trace touches has an entry keyed by its mixed-radix block index: the set
    of page offsets written since its last erase, and its erase count. A
    block without an entry is in the device's initial state, so memory
    follows the blocks a trace touches and the pages it writes, not the
    geometry, and an erase is O(1): it replaces the block's set with an
    empty one and bumps its count. Mutations happen exclusively from the
    engine's single-threaded event loop; no locking is provided.
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
        self._counts = geometry.counts()
        self.endurance_limit = endurance_limit
        self._default_written = initially_written
        self._written: dict[int, set[int]] = {}
        self._erase_counts: dict[int, int] = {}

    def page_state(self, addr: FlashAddress) -> PageState:
        block = encode(addr, self.geometry) // self.geometry.pages_per_block
        pages = self._written.get(block)
        written = self._default_written if pages is None else addr.page in pages
        return PageState.WRITTEN if written else PageState.ERASED

    def erase_count(self, addr: FlashAddress) -> int:
        # an erase count names a block, so the page index is neither checked
        # nor read
        page0 = new_address((*addr[:5], 0))
        block = encode(page0, self.geometry) // self.geometry.pages_per_block
        return self._erase_counts.get(block, 0)

    def write_page(self, addr: FlashAddress, count: int = 1) -> list[Violation]:
        """Mark `count` consecutive pages of one block written, from `addr`
        on; warn, in page order, for each one already written (no erase
        between).

        The run is checked whole before any page is written: a run that
        leaves the geometry or its block raises the AddressRangeError of its
        first page outside, and writes nothing. `count` must be >= 1.
        """
        # the range check and block index of `encode`, inlined: this runs
        # once per programmed page or run
        channel, chip, die, plane, block, page = addr
        channels, chips, dies, planes, blocks, pages = self._counts
        if not (
            0 <= channel < channels
            and 0 <= chip < chips
            and 0 <= die < dies
            and 0 <= plane < planes
            and 0 <= block < blocks
            and 0 <= page < pages
        ):
            raise AddressRangeError(
                f"address {addr} out of range for geometry {self._counts}"
            )
        key = (((channel * chips + chip) * dies + die) * planes + plane) * blocks + block
        written = self._written.get(key)
        if count != 1:
            return self._write_run(key, written, addr, count)
        if written is None:
            if self._default_written:
                # the block is still in its all-written initial state
                return [_rewrite_warning(addr)]
            self._written[key] = {page}
            return []
        if page in written:
            return [_rewrite_warning(addr)]
        written.add(page)
        return []

    def _write_run(
        self, key: int, written: set[int] | None, addr: FlashAddress, count: int
    ) -> list[Violation]:
        """`write_page` of `count` != 1 pages, once `addr` is checked and
        its block's `key` and `written` set are read."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        first = addr[5]
        pages = self._counts[5]
        if first + count > pages:
            raise AddressRangeError(
                f"address {new_address((*addr[:5], pages))} out of range for "
                f"geometry {self._counts}"
            )
        run = range(first, first + count)
        if written is None:
            if not self._default_written:
                self._written[key] = set(run)
                return []
            # the block is still in its all-written initial state
            again = list(run)
        else:
            again = sorted(written.intersection(run))
            written.update(run)
        head = addr[:5]
        return [_rewrite_warning(new_address((*head, page))) for page in again]

    def erase_block(self, addr: FlashAddress) -> list[Violation]:
        """Erase the whole block containing `addr`; bump its wear counter.

        All pages of the block flip to erased atomically. Warns once the
        erase count exceeds the configured endurance limit.
        """
        # the range check and block index of `encode` of the block's page 0,
        # inlined: this runs once per erased block
        channel, chip, die, plane, block, _ = addr
        channels, chips, dies, planes, blocks, _ = self._counts
        if not (
            0 <= channel < channels
            and 0 <= chip < chips
            and 0 <= die < dies
            and 0 <= plane < planes
            and 0 <= block < blocks
        ):
            raise AddressRangeError(
                f"address {channel}.{chip}.{die}.{plane}.{block}.0 out of range "
                f"for geometry {self._counts}"
            )
        key = (((channel * chips + chip) * dies + die) * planes + plane) * blocks + block
        self._written[key] = set()
        count = self._erase_counts.get(key, 0) + 1
        self._erase_counts[key] = count
        limit = self.endurance_limit
        if limit is not None and count > limit:
            return [
                Violation(
                    Rule.ENDURANCE_EXCEEDED,
                    Severity.WARNING,
                    f"block {channel}.{chip}.{die}.{plane}.{block} erased {count} "
                    f"times, endurance limit is {limit}",
                )
            ]
        return []


def _rewrite_warning(addr: FlashAddress) -> Violation:
    return Violation(
        Rule.ERASE_BEFORE_WRITE,
        Severity.WARNING,
        f"page {addr} written again without an intervening erase",
    )
