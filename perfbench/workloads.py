"""The benchmark's workloads: their configs, seeded trace generators and argv.

The benchmark carries its own copies of the configs and its own generator so
that an edit to the repository's tests or samples cannot move a workload.
Only the generated files reach the program. Every generator draws from one
``random.Random`` seeded with the workload name and the seed, so the same
seed always yields byte-identical files. This module imports nothing from
flashsim: it writes trace text directly in the documented v1 format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

ALL_KINDS = (
    "read", "write", "erase", "copy_back", "cache_read", "cache_write",
    "multi_plane_read", "multi_plane_write", "multi_plane_erase",
    "interleaved_read", "interleaved_write", "interleaved_erase",
    "multi_plane_copy_back",
)

# The two-channel hierarchy of the repository's sample config, with larger
# blocks and pages so that cache extents are long (many events per command).
SSD_GEOMETRY = dict(
    channels=2, chips_per_channel=2, dies_per_chip=2, planes_per_die=2,
    blocks_per_plane=32, pages_per_block=64, page_size=8192, oob_size=256,
)

# A larger device for the FTL-validation workload.
CHECK_GEOMETRY = dict(
    channels=4, chips_per_channel=4, dies_per_chip=2, planes_per_die=4,
    blocks_per_plane=256, pages_per_block=128, page_size=16384, oob_size=1024,
)

_SUPPORTED = ",\n    ".join(
    ", ".join(ALL_KINDS[i:i + 4]) for i in range(0, len(ALL_KINDS), 4)
)

_BUILTIN_MODELS = """\
[performance]
t_cmd = 0
t_sense = 25
t_prog = 200
t_erase = 1500
t_bus_per_byte = 0.025
t_buf = 0

[power]
p_cmd = 0
p_sense = 30
p_prog = 40
p_erase = 50
p_bus = 20
p_buf = 0
p_idle_plane = 0.5
p_idle_bus = 0.25
"""

# One expression per event kind for latency and for power, over the address
# and size variables, so every event is priced by expression evaluation.
_EXPRESSION_MODELS = """\
[performance]
cmd_overhead = 0.5 + 0.01 * chip + 0.005 * die
array_sense = 25 + 0.001 * block + 0.002 * page + 0.5 * plane
array_program = max(200, 180 + 0.4 * page) + 0.01 * block
block_erase = 1500 + 0.5 * block + 3 * die
bus_transfer_in = byte_count * 0.025 + 0.1 * channel + oob_size / page_size
bus_transfer_out = byte_count * 0.02 + min(1, 0.05 * chip)
buffer_copy = 1 + 0.01 * page

[power]
cmd_overhead = 0.002 * duration
array_sense = 0.030 * duration + 0.0001 * block
array_program = 0.040 * duration * (1 + 0.001 * page)
block_erase = 0.050 * duration
bus_transfer_in = 0.020 * duration + 0.00001 * byte_count
bus_transfer_out = max(0.018 * duration, 0.1)
buffer_copy = 0.004 * duration
"""


def _geometry_section(g: dict) -> str:
    return "[geometry]\n" + "".join(f"{k} = {v}\n" for k, v in g.items())


def _config(geometry: dict, models: str, policy: dict) -> str:
    return (
        "# flashsim benchmark config; generated, do not edit by hand.\n"
        + _geometry_section(geometry)
        + f"\n[commands]\nsupported = {_SUPPORTED}\n\n"
        + models
        + "\n[policy]\n"
        + "".join(f"{k} = {v}\n" for k, v in policy.items())
    )


SSD_MIXED_CONFIG = _config(
    SSD_GEOMETRY,
    _BUILTIN_MODELS,
    dict(violation_severity="warn", endurance_limit="none",
         die_serialization="false", cmd_overhead_on_bus="false",
         initially_written="false", multi_plane_same_offsets="true"),
)

EXPR_SERIALIZED_CONFIG = _config(
    SSD_GEOMETRY,
    _EXPRESSION_MODELS,
    dict(violation_severity="warn", endurance_limit="none",
         die_serialization="true", cmd_overhead_on_bus="true",
         initially_written="false", multi_plane_same_offsets="true"),
)

CHECK_WRITES_CONFIG = _config(
    CHECK_GEOMETRY,
    _BUILTIN_MODELS,
    dict(violation_severity="warn", endurance_limit="3",
         die_serialization="false", cmd_overhead_on_bus="false",
         initially_written="false", multi_plane_same_offsets="true"),
)


class _Deck:
    """Draws from a multiset in seeded random order, refilled when spent.

    Shapes (command kind, plane and die fan-out, cache extent) come from
    decks, so every seed runs the same mix of work and only the addresses and
    arrival gaps differ. That keeps host time nearly independent of the seed.
    """

    def __init__(self, rng: random.Random, values):
        self.rng, self.values, self.left = rng, list(values), []

    def draw(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class _Gen:
    """Structurally valid operands for one geometry, drawn from one RNG."""

    def __init__(self, rng: random.Random, geometry: dict, extents: range,
                 hot_blocks: int | None = None):
        self.rng = rng
        g = geometry
        self.counts = (
            g["channels"], g["chips_per_channel"], g["dies_per_chip"],
            g["planes_per_die"], g["blocks_per_plane"], g["pages_per_block"],
        )
        # Restricting blocks to a hot set concentrates rewrites and erases so
        # that erase-before-write and endurance findings occur.
        self.blocks = hot_blocks or self.counts[4]
        self.planes = _Deck(rng, range(1, self.counts[3] + 1))
        self.dies = _Deck(rng, range(1, self.counts[2] + 1))
        self.extents = _Deck(rng, extents)

    def addr(self) -> list[int]:
        r = self.rng.randrange
        ch, chip, die, plane, _, pages = self.counts
        return [r(ch), r(chip), r(die), r(plane), r(self.blocks), r(pages)]

    def parity_page(self, page: int) -> int:
        return self.rng.randrange(page % 2, self.counts[5], 2)

    def operands(self, kind: str) -> str:
        rng = self.rng
        a = self.addr()
        if kind in ("read", "write", "erase"):
            return _fmt(a)
        if kind in ("cache_read", "cache_write"):
            count = self.extents.draw()
            a[5] = rng.randrange(self.counts[5] - count + 1)
            return f"{_fmt(a)},{count}"
        if kind == "copy_back":
            dst = a[:4] + [rng.randrange(self.blocks), self.parity_page(a[5])]
            return f"{_fmt(a)},{_fmt(dst)}"
        if kind.startswith("multi_plane"):
            planes = sorted(rng.sample(range(self.counts[3]), self.planes.draw()))
            srcs = [a[:3] + [p] + a[4:] for p in planes]
            if kind != "multi_plane_copy_back":
                return ";".join(_fmt(s) for s in srcs)
            block, page = rng.randrange(self.blocks), self.parity_page(a[5])
            dsts = [s[:4] + [block, page] for s in srcs]
            return ";".join(_fmt(s) for s in srcs) + "," + ";".join(_fmt(d) for d in dsts)
        if kind.startswith("interleaved"):
            dies = sorted(rng.sample(range(self.counts[2]), self.dies.draw()))
            return ";".join(_fmt(a[:2] + [d] + self.addr()[3:]) for d in dies)
        raise ValueError(f"unknown kind {kind}")


def _fmt(indices: list[int]) -> str:
    return ".".join(map(str, indices))


def _trace(rng: random.Random, gen: _Gen, n: int, weights: dict[str, int],
           gap_us: int) -> str:
    kinds = _Deck(rng, [k for k, w in weights.items() for _ in range(w)])
    lines = ["flashsim-trace v1"]
    t = 0
    for _ in range(n):
        kind = kinds.draw()
        lines.append(f"{t},{kind},{gen.operands(kind)}")
        t += rng.randrange(gap_us + 1)
    return "\n".join(lines) + "\n"


def ssd_mixed_trace(seed: int, n: int) -> str:
    rng = random.Random(f"ssd_mixed_events:{seed}")
    weights = {k: 2 for k in ALL_KINDS}
    weights.update(cache_read=5, cache_write=5)
    gen = _Gen(rng, SSD_GEOMETRY, extents=range(24, 49))
    return _trace(rng, gen, n, weights, gap_us=60)


def expr_serialized_trace(seed: int, n: int) -> str:
    rng = random.Random(f"expr_serialized:{seed}")
    weights = {k: 2 for k in ALL_KINDS}
    weights.update(cache_read=4, cache_write=4)
    gen = _Gen(rng, SSD_GEOMETRY, extents=range(16, 33))
    return _trace(rng, gen, n, weights, gap_us=60)


def check_writes_trace(seed: int, n: int) -> str:
    rng = random.Random(f"check_writes:{seed}")
    weights = dict(
        write=10, cache_write=4, multi_plane_write=6, interleaved_write=6,
        erase=4, multi_plane_erase=3, interleaved_erase=3,
        copy_back=6, multi_plane_copy_back=4, read=2,
    )
    gen = _Gen(rng, CHECK_GEOMETRY, extents=range(8, 17), hot_blocks=8)
    return _trace(rng, gen, n, weights, gap_us=20)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    make_trace: Callable[[int, int], str]
    commands: int  # trace size of a timed run
    flags: tuple[str, ...]  # cli flags after --config/--trace
    report: bool  # whether the run writes a report to --out

    def argv(self, config_path: str, trace_path: str, out_path: str) -> list[str]:
        argv = ["--config", config_path, "--trace", trace_path, *self.flags]
        return argv + ["--out", out_path] if self.report else argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ssd_mixed_events", SSD_MIXED_CONFIG, ssd_mixed_trace, 640,
                 ("--format", "structured", "--events"), True),
        Workload("expr_serialized", EXPR_SERIALIZED_CONFIG, expr_serialized_trace, 810,
                 ("--format", "table"), True),
        Workload("check_writes", CHECK_WRITES_CONFIG, check_writes_trace, 8016,
                 ("--check",), False),
    )
}
