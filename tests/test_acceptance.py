"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on the terminal (they are captured otherwise).
"""

from __future__ import annotations

import functools
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashsim.commands import Command, CommandKind, validate
from flashsim.engine import Policy, idle_accounting, run
from flashsim.errors import Rule
from flashsim.models import EventContext, EventKind, ModelSet, PowerParams, TimingParams
from flashsim.stats import build_report
from flashsim.topology import Geometry, Resource, encode, decode
from flashsim.trace_io import parse_config

from checks import assert_schedule_legal
from closed_form import (
    BUS_BUSY_NS,
    DIE_SERIALIZED_LATENCY_NS,
    ENERGY_UJ,
    LATENCY_NS,
    Power,
    Timing,
    __doc__ as CLOSED_FORM_DOC,
)
from conftest import ALL_KINDS, A
from gen import random_trace
from oracle import enumerated_addresses, oracle_schedule

DATA = Path(__file__).parent / "data"
REFERENCE_GEOMETRY = Geometry(2, 2, 2, 2, 4, 8, 4096, 128)

# every schedule produced here is re-checked post hoc by criterion 7
_RUNS: list[tuple] = []


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")
            return result

        return wrapper

    return decorate


def checked_run(trace, geometry, models=None, policy=Policy()):
    models = models or ModelSet()
    result = run(trace, geometry, ALL_KINDS, models, policy)
    _RUNS.append((result, trace, geometry, models, policy))
    return result


@criterion(1, "address-codec-bijection")
def test_criterion_1_codec():
    started = time.perf_counter()
    g = REFERENCE_GEOMETRY
    addresses = enumerated_addresses(g)
    assert len(addresses) == g.total_pages
    for index, addr in enumerate(addresses):
        assert encode(addr, g) == index  # agrees with the enumeration oracle
        assert decode(index, g) == addr  # encode(decode(i)) == i by the line above
        assert decode(encode(addr, g), g) == addr
    assert time.perf_counter() - started < 1.0


@criterion(2, "constraint-suite")
def test_criterion_2_constraints():
    started = time.perf_counter()
    g = REFERENCE_GEOMETRY

    accepted = 0
    for src_page in range(g.pages_per_block):
        for dst_page in range(g.pages_per_block):
            cmd = Command(
                0,
                CommandKind.COPY_BACK,
                (A(page=src_page), A(block=1, page=dst_page)),
            )
            if not validate(cmd, g, ALL_KINDS):
                accepted += 1
                assert src_page % 2 == dst_page % 2
            else:
                assert src_page % 2 != dst_page % 2
    assert accepted == 32  # same-parity ordered pairs out of 64

    for src_page in range(g.pages_per_block):
        for dst_page in range(g.pages_per_block):
            cross = Command(
                0,
                CommandKind.COPY_BACK,
                (A(plane=0, page=src_page), A(plane=1, page=dst_page)),
            )
            found = validate(cross, g, ALL_KINDS)
            assert any(v.rule is Rule.COPY_BACK_CROSS_PLANE for v in found)

    # erase-before-write over a randomized 1000-command trace, cross-checked
    # against an independent shadow state (a plain set of written pages)
    rng = random.Random(2024)
    trace = random_trace(
        rng,
        g,
        1000,
        kinds=(CommandKind.WRITE,) * 4 + (CommandKind.ERASE,),
        max_arrival_us=100000,
    )
    result = checked_run(trace, g)
    shadow: set[int] = set()
    double_writes = 0
    for cmd, res in zip(trace, result.results):
        flagged = any(w.rule is Rule.ERASE_BEFORE_WRITE for w in res.warnings)
        if cmd.kind is CommandKind.WRITE:
            page = encode(cmd.operands[0], g)
            expected = page in shadow
            double_writes += expected
            assert flagged == expected, f"command {cmd.sequence_id}"
            shadow.add(page)
        else:
            assert not flagged
            block = cmd.operands[0]
            first = encode(
                A(block.channel, block.chip, block.die, block.plane, block.block, 0), g
            )
            shadow.difference_update(range(first, first + g.pages_per_block))
    assert double_writes > 100  # the trace genuinely exercises the rule
    assert time.perf_counter() - started < 5.0


@criterion(3, "pipeline-math")
def test_criterion_3_pipeline_math():
    g = REFERENCE_GEOMETRY
    read = checked_run([Command(0, CommandKind.READ, (A(),))], g)
    read_ns = read.results[0].latency_ns
    assert read_ns == 127400

    cache3 = checked_run(
        [Command(0, CommandKind.CACHE_READ, (A(),), 3)], g
    )
    assert cache3.results[0].latency_ns == 332200  # 332.2 us at ns resolution
    assert cache3.results[0].latency_ns <= 3 * read_ns  # 382200

    multi = checked_run(
        [Command(0, CommandKind.MULTI_PLANE_READ, (A(plane=0), A(plane=1)))], g
    )
    assert multi.results[0].latency_ns == 229800  # 229.8 us

    cache1 = checked_run([Command(0, CommandKind.CACHE_READ, (A(),), 1)], g)
    assert cache1.results[0].latency_ns == read_ns

    closed_forms_hold()


CLOSED_FORM_GEOMETRY = Geometry(1, 1, 4, 4, 2, 16, 2048, 64)


@settings(max_examples=60, deadline=None)
@given(
    # TimingParams in field order, in whole nanoseconds (per byte for
    # t_bus_per_byte)
    # a page transfer of up to 2.048 ms, so that it is drawn both shorter
    # and longer than a sense or a program
    params_ns=st.tuples(
        *[st.integers(0, 2_000_000)] * 4, st.integers(0, 1000), st.integers(0, 2_000_000)
    ),
    # PowerParams p_cmd to p_buf, in milliwatts
    power_mw=st.tuples(*[st.integers(0, 100)] * 6),
    n=st.integers(1, CLOSED_FORM_GEOMETRY.pages_per_block),
    k=st.integers(1, CLOSED_FORM_GEOMETRY.planes_per_die),
    die_serialization=st.booleans(),
    cmd_overhead_on_bus=st.booleans(),
)
# the built-in parameters
@example(
    params_ns=(0, 25_000, 200_000, 1_500_000, 25, 0), power_mw=(0, 30, 40, 50, 20, 0),
    n=3, k=2, die_serialization=False, cmd_overhead_on_bus=False,
)
# a sense and a transfer as long as each other, at different powers
@example(
    params_ns=(1_000, 51_200, 200_000, 1_500_000, 25, 3_000), power_mw=(5, 30, 40, 50, 20, 7),
    n=4, k=3, die_serialization=False, cmd_overhead_on_bus=False,
)
# serialized dies with a sense longer than a transfer, then shorter, with
# and without the overhead on the bus
@example(
    params_ns=(1_000, 60_000, 30_000, 1_500_000, 25, 3_000), power_mw=(5, 30, 40, 50, 20, 7),
    n=4, k=3, die_serialization=True, cmd_overhead_on_bus=False,
)
@example(
    params_ns=(1_000, 20_000, 300_000, 1_500_000, 25, 3_000), power_mw=(5, 30, 40, 50, 20, 7),
    n=4, k=3, die_serialization=True, cmd_overhead_on_bus=True,
)
@example(
    params_ns=(1_000, 20_000, 300_000, 1_500_000, 25, 3_000), power_mw=(5, 30, 40, 50, 20, 7),
    n=4, k=3, die_serialization=False, cmd_overhead_on_bus=True,
)
def closed_forms_hold(params_ns, power_mw, n, k, die_serialization, cmd_overhead_on_bus):
    """Each command alone on an idle device takes the latency and the
    energy `closed_form.py` gives, a derivation that shares no code with
    `commands.shape`, and keeps its channel bus busy for the time it gives,
    under each policy."""
    g = CLOSED_FORM_GEOMETRY
    models = ModelSet(
        TimingParams(*(ns / 1000 for ns in params_ns)), PowerParams(*power_mw)
    )
    policy = Policy(die_serialization=die_serialization, cmd_overhead_on_bus=cmd_overhead_on_bus)
    latencies = {**LATENCY_NS, **DIE_SERIALIZED_LATENCY_NS} if die_serialization else LATENCY_NS
    t_cmd, t_sense, t_prog, t_erase, ns_per_byte, t_buf = params_ns
    timing = Timing(t_cmd, t_sense, t_prog, t_erase, t_buf, g.page_size * ns_per_byte)
    p_cmd, p_sense, p_prog, p_erase, p_bus, p_buf = power_mw
    power = Power(p_cmd, p_sense, p_prog, p_erase, p_buf, p_bus)
    planes = tuple(A(plane=i) for i in range(k))
    dies = tuple(A(die=i) for i in range(k))
    pairs = tuple(a for i in range(k) for a in (A(plane=i), A(plane=i, block=1)))
    # (kind, operands, page count, the count its formula takes)
    table = (
        (CommandKind.READ, (A(),), 1, 1),
        (CommandKind.WRITE, (A(),), 1, 1),
        (CommandKind.ERASE, (A(),), 1, 1),
        (CommandKind.COPY_BACK, (A(), A(block=1)), 1, 1),
        (CommandKind.CACHE_READ, (A(),), n, n),
        (CommandKind.CACHE_WRITE, (A(),), n, n),
        (CommandKind.MULTI_PLANE_READ, planes, 1, k),
        (CommandKind.MULTI_PLANE_WRITE, planes, 1, k),
        (CommandKind.MULTI_PLANE_ERASE, planes, 1, k),
        (CommandKind.INTERLEAVED_READ, dies, 1, k),
        (CommandKind.INTERLEAVED_WRITE, dies, 1, k),
        (CommandKind.INTERLEAVED_ERASE, dies, 1, k),
        (CommandKind.MULTI_PLANE_COPY_BACK, pairs, 1, k),
    )
    assert [row[0] for row in table] == list(LATENCY_NS) == list(CommandKind)
    assert list(ENERGY_UJ) == list(BUS_BUSY_NS) == list(CommandKind)
    for kind, operands, page_count, count in table:
        result = checked_run([Command(0, kind, operands, page_count)], g, models, policy)
        assert result.results[0].latency_ns == latencies[kind](timing, count), kind
        assert math.isclose(
            result.results[0].energy_uj, ENERGY_UJ[kind](timing, power, count), rel_tol=1e-9
        ), kind
        bus_ns = BUS_BUSY_NS[kind](timing, count) + (timing.c if cmd_overhead_on_bus else 0)
        assert result.busy_ns.get(Resource("bus", (0,)), 0) == bus_ns, kind


def latency_rows(text: str) -> list[tuple[str, str]]:
    """The (command, latency) rows of the first table in `text` headed
    `| command | latency |`, each cell stripped of spaces and backticks."""
    rows = []
    lines = iter(text.splitlines())
    for line in lines:
        if line.replace(" ", "") == "|command|latency|":
            break
    next(lines)  # the header's separator row
    for line in lines:
        if not line.startswith("|"):
            break
        command, latency = (cell.strip(" `") for cell in line.strip("|").split("|"))
        rows.append((" ".join(command.split()), latency))
    return rows


def test_readme_latency_table_is_the_closed_form_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    derived = latency_rows(CLOSED_FORM_DOC)
    assert len(derived) == len(CommandKind) + len(DIE_SERIALIZED_LATENCY_NS)
    assert latency_rows(readme) == derived


@criterion(4, "des-oracle-equivalence")
def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    geometries = (
        Geometry(2, 1, 1, 2, 2, 4, 512, 16),
        Geometry(1, 2, 2, 2, 2, 4, 1024, 32),
        Geometry(2, 2, 1, 1, 2, 8, 2048, 64),
        Geometry(1, 1, 2, 2, 4, 8, 4096, 128),
    )
    models = ModelSet()
    for seed in range(100):
        g = geometries[seed % len(geometries)]
        trace = random_trace(random.Random(seed), g, 1 + seed % 20)
        result = checked_run(trace, g, models)
        expected = oracle_schedule(trace, g, models)
        got = {
            (e.sequence_id, e.event_id): (e.start_ns, e.end_ns)
            for e in result.schedule
        }
        assert got == expected, f"seed {seed}"
    assert time.perf_counter() - started < 30.0


@criterion(5, "energy-conservation")
def test_criterion_5_energy_conservation():
    g = REFERENCE_GEOMETRY
    single = checked_run([Command(0, CommandKind.READ, (A(),))], g)
    assert single.results[0].energy_uj == 0.75 + 2.048  # 30mW*25us + 20mW*102.4us
    assert single.results[0].energy_uj == pytest.approx(2.798, rel=1e-12)

    # the conservation identity holds exactly on every run made so far
    assert _RUNS
    for result, _, geometry, models, _ in _RUNS:
        idle = idle_accounting(result, geometry, models)
        report = build_report(result, idle)
        recomputed = 0.0
        for _, kind_total in report.energy_by_kind:
            recomputed += kind_total
        recomputed += report.idle_energy_uj
        assert recomputed == report.total_energy_uj


@criterion(6, "cli-determinism")
def test_criterion_6_cli_determinism(tmp_path):
    outputs = []
    for attempt in range(2):
        out_file = tmp_path / f"report_{attempt}.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "flashsim",
                "--config", str(DATA / "fixture.ini"),
                "--trace", str(DATA / "single_read.trace"),
                "--events",
                "--out", str(out_file),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, proc.stderr, out_file.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][2])["events"]


@criterion(8, "expression-model-equivalence")
def test_criterion_8_expression_models():
    config = parse_config(
        (DATA / "fixture.ini").read_text()
        + """
[performance]
cmd_overhead = 0
array_sense = 25
array_program = 200
block_erase = 1500
bus_transfer_in = 0.025 * byte_count
bus_transfer_out = 0.025 * byte_count
buffer_copy = 0

[power]
cmd_overhead = 0.000 * duration
array_sense = 0.030 * duration
array_program = 0.040 * duration
block_erase = 0.050 * duration
bus_transfer_in = 0.020 * duration
bus_transfer_out = 0.020 * duration
buffer_copy = 0.000 * duration
"""
    )
    rebuilt = config.models
    builtin = ModelSet()
    kinds = list(EventKind)
    rng = random.Random(88)
    for _ in range(10000):
        kind = rng.choice(kinds)
        perf_ctx = EventContext(
            kind,
            rng.randrange(0, 1 << 16),
            rng.choice((512, 2048, 4096, 16384)),
            rng.choice((0, 16, 64, 128)),
            rng.randrange(16), rng.randrange(8), rng.randrange(4),
            rng.randrange(4), rng.randrange(4096), rng.randrange(256),
        )
        expected = builtin.latency_us(perf_ctx)
        got = rebuilt.latency_us(perf_ctx)
        assert got == pytest.approx(expected, rel=1e-9)
        power_ctx = EventContext(
            perf_ctx.kind, perf_ctx.byte_count, perf_ctx.page_size,
            perf_ctx.oob_size, perf_ctx.channel, perf_ctx.chip, perf_ctx.die,
            perf_ctx.plane, perf_ctx.block, perf_ctx.page,
            duration_us=rng.uniform(0, 1e4),
        )
        assert rebuilt.energy_uj(power_ctx) == pytest.approx(
            builtin.energy_uj(power_ctx), rel=1e-9
        )


# runs last in file order so the registry covers every schedule built above
@criterion(7, "schedule-legality")
def test_criterion_7_schedule_legality():
    assert _RUNS
    for result, trace, geometry, _, policy in _RUNS:
        assert_schedule_legal(result, trace, geometry, policy)
    # plus a fresh randomized batch under non-default policies
    for seed in range(5):
        for policy in (Policy(), Policy(die_serialization=True), Policy(cmd_overhead_on_bus=True)):
            g = REFERENCE_GEOMETRY
            trace = random_trace(random.Random(500 + seed), g, 30)
            result = run(trace, g, ALL_KINDS, ModelSet(), policy)
            assert_schedule_legal(result, trace, g, policy)
