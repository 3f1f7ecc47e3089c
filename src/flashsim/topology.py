"""Structural model: the channel/chip/die/plane/block/page hierarchy.

Provides the geometry description, the flat-index address codec, and the
mutable per-block state (written pages, erase counters) that the
constraint checks run against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


@dataclass(frozen=True)
class Geometry:
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
        return (
            self.channels
            * self.chips_per_channel
            * self.dies_per_chip
            * self.planes_per_die
            * self.blocks_per_plane
            * self.pages_per_block
        )

    def counts(self) -> tuple[int, int, int, int, int, int]:
        """Per-level sizes in most-significant-first order (channel..page)."""
        return (
            self.channels,
            self.chips_per_channel,
            self.dies_per_chip,
            self.planes_per_die,
            self.blocks_per_plane,
            self.pages_per_block,
        )


@dataclass(frozen=True, slots=True)
class FlashAddress:
    """Hierarchical physical page coordinate; every index is zero-based."""

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    def indices(self) -> tuple[int, int, int, int, int, int]:
        return (self.channel, self.chip, self.die, self.plane, self.block, self.page)

    def in_bounds(self, geometry: Geometry) -> bool:
        return (
            0 <= self.channel < geometry.channels
            and 0 <= self.chip < geometry.chips_per_channel
            and 0 <= self.die < geometry.dies_per_chip
            and 0 <= self.plane < geometry.planes_per_die
            and 0 <= self.block < geometry.blocks_per_plane
            and 0 <= self.page < geometry.pages_per_block
        )

    def plane_key(self) -> tuple[int, int, int, int]:
        return (self.channel, self.chip, self.die, self.plane)

    def die_key(self) -> tuple[int, int, int]:
        return (self.channel, self.chip, self.die)

    def chip_key(self) -> tuple[int, int]:
        return (self.channel, self.chip)

    def __str__(self) -> str:
        return "%d.%d.%d.%d.%d.%d" % (
            self.channel, self.chip, self.die, self.plane, self.block, self.page
        )


class PageState(Enum):
    ERASED = "erased"
    WRITTEN = "written"


@dataclass(frozen=True, order=True)
class Resource:
    """An exclusively-occupied hardware unit: a plane or a channel bus.

    Planes serialize array operations; the channel bus serializes data
    transfers between every chip on the channel and the controller. With
    die serialization enabled the engine coarsens plane resources to whole
    dies ("die" kind).
    """

    kind: str  # "plane" | "bus" | "die"
    key: tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.kind}/" + ".".join(str(i) for i in self.key)


def plane_resource(addr: FlashAddress) -> Resource:
    return Resource("plane", addr.plane_key())


def bus_resource(addr: FlashAddress) -> Resource:
    return Resource("bus", (addr.channel,))


def validate_geometry(geometry: Geometry) -> None:
    """Raise GeometryError unless every Geometry invariant holds."""
    names = (
        "channels",
        "chips_per_channel",
        "dies_per_chip",
        "planes_per_die",
        "blocks_per_plane",
        "pages_per_block",
    )
    for name, count in zip(names, geometry.counts()):
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
    for idx, count in zip(addr.indices(), geometry.counts()):
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
        self.endurance_limit = endurance_limit
        self._default_written = initially_written
        self._written: dict[int, set[int]] = {}
        self._erase_counts: dict[int, int] = {}

    def page_state(self, addr: FlashAddress) -> PageState:
        pages = self._written.get(self._block_of_page(addr))
        written = self._default_written if pages is None else addr.page in pages
        return PageState.WRITTEN if written else PageState.ERASED

    def erase_count(self, addr: FlashAddress) -> int:
        return self._erase_counts.get(self._block_index(addr), 0)

    def write_page(self, addr: FlashAddress) -> list[Violation]:
        """Mark a page written; warn if it was already written (no erase between)."""
        block = self._block_of_page(addr)
        pages = self._written.get(block)
        if pages is None:
            if self._default_written:
                # the block is still in its all-written initial state
                return [_rewrite_warning(addr)]
            self._written[block] = {addr.page}
            return []
        if addr.page in pages:
            return [_rewrite_warning(addr)]
        pages.add(addr.page)
        return []

    def erase_block(self, addr: FlashAddress) -> list[Violation]:
        """Erase the whole block containing `addr`; bump its wear counter.

        All pages of the block flip to erased atomically. Warns once the
        erase count exceeds the configured endurance limit.
        """
        block = self._block_index(addr)
        self._written[block] = set()
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

    def _block_of_page(self, addr: FlashAddress) -> int:
        """The block index of a page address, after a range check of all six
        indices."""
        if not addr.in_bounds(self.geometry):
            raise AddressRangeError(
                f"address {addr} out of range for geometry {self.geometry.counts()}"
            )
        return self._index(addr)

    def _block_index(self, addr: FlashAddress) -> int:
        """The block index of a block address: an erase and an erase count
        name a block, so the page index is neither checked nor read."""
        g = self.geometry
        if not (
            0 <= addr.channel < g.channels
            and 0 <= addr.chip < g.chips_per_channel
            and 0 <= addr.die < g.dies_per_chip
            and 0 <= addr.plane < g.planes_per_die
            and 0 <= addr.block < g.blocks_per_plane
        ):
            raise AddressRangeError(
                f"address {addr.channel}.{addr.chip}.{addr.die}.{addr.plane}."
                f"{addr.block}.0 out of range for geometry {g.counts()}"
            )
        return self._index(addr)

    def _index(self, addr: FlashAddress) -> int:
        # mixed radix, channel most significant, as in `encode`
        g = self.geometry
        return (
            (
                ((addr.channel * g.chips_per_channel + addr.chip) * g.dies_per_chip + addr.die)
                * g.planes_per_die
                + addr.plane
            )
            * g.blocks_per_plane
            + addr.block
        )


def _rewrite_warning(addr: FlashAddress) -> Violation:
    return Violation(
        Rule.ERASE_BEFORE_WRITE,
        Severity.WARNING,
        f"page {addr} written again without an intervening erase",
    )
