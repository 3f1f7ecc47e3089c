"""The library as README's "Library use" section documents it.

Every test imports from `flashsim` only, as a library user would, and
exercises one documented name the command line does not reach on its own.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path

import pytest

import flashsim
from flashsim import (
    Command,
    CommandKind,
    FlashAddress,
    FlashSimError,
    Geometry,
    ModelSet,
    PageState,
    Policy,
    Rule,
    SubsystemState,
    TraceOrderError,
    build_report,
    decode,
    emit,
    emit_trace,
    encode,
    idle_accounting,
    parse_config,
    parse_trace,
    run,
    write_report,
)

ROOT = Path(__file__).resolve().parent.parent
G = Geometry(1, 1, 1, 2, 64, 128, page_size=4096, oob_size=128)
ALL = frozenset(CommandKind)
READ = Command(0, CommandKind.READ, (FlashAddress(0, 0, 0, 0, 3, 7),))
WRITE = Command(5, CommandKind.WRITE, (FlashAddress(0, 0, 0, 1, 3, 7),), sequence_id=1)


def readme_public_names() -> list[str]:
    """The names in the bullet list under README's "Public names" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    return [
        name
        for line in section.splitlines()
        if line.startswith(("- ", "  "))  # an item or its continuation
        for name in re.findall(r"`(\w+)`", line)
    ]


def test_the_package_exports_exactly_the_readme_public_names():
    names = readme_public_names()
    assert len(names) == len(set(names))
    assert sorted(flashsim.__all__) == sorted(names)
    star: dict = {}
    exec("from flashsim import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(names)


def test_run_results_are_equal_when_all_their_attributes_are():
    first = run([READ, WRITE], G, ALL, ModelSet(), Policy())
    assert first == run([READ, WRITE], G, ALL, ModelSet(), Policy())
    assert first != run([READ], G, ALL, ModelSet(), Policy())
    assert first != run([READ, WRITE], G, ALL, ModelSet(), Policy(), event_log=False)
    later = first._replace(last_end_ns=first.last_end_ns + 1)
    assert first != later
    assert first != first.results
    assert first.__eq__(first.results) is NotImplemented


def test_run_reads_a_generator_of_commands_in_order_once():
    listed = run([READ, WRITE], G, ALL, ModelSet(), Policy(), event_log=False)
    assert run((c for c in (READ, WRITE)), G, ALL, ModelSet(), Policy(), event_log=False) == listed
    with pytest.raises(
        TraceOrderError, match=r"^commands 1 and 0 are not in \(arrival, sequence\) order$"
    ):
        run(iter([WRITE, READ]), G, ALL, ModelSet(), Policy())


def test_a_scheduled_event_ends_at_its_start_plus_its_duration():
    result = run([READ, WRITE], G, ALL, ModelSet(), Policy())
    # the read: overhead (0 us), sense (25 us), a 4096-byte transfer (102.4 us)
    assert [ev.end_ns for ev in result.schedule if ev.sequence_id == 0] == [
        0,
        25_000,
        127_400,
    ]
    for ev in result.schedule:
        assert ev.end_ns == ev.start_ns + ev.duration_ns
    for command in result.results:
        ends = [ev.end_ns for ev in result.schedule if ev.sequence_id == command.sequence_id]
        assert command.completion_ns == max(ends)


def test_subsystem_state_tracks_each_page_and_each_block_s_wear():
    state = SubsystemState(G, endurance_limit=1)
    page = FlashAddress(0, 0, 0, 0, 3, 7)
    assert state.page_state(page) is PageState.ERASED
    assert state.write_page(page) == []
    assert state.page_state(page) is PageState.WRITTEN
    (again,) = state.write_page(page)
    assert again.rule is Rule.ERASE_BEFORE_WRITE
    # a run of pages 6, 7 and 8 warns for page 7, the one already written
    (again,) = state.write_page(FlashAddress(0, 0, 0, 0, 3, 6), 3)
    assert again.message == "page 0.0.0.0.3.7 written again without an intervening erase"
    assert state.page_state(FlashAddress(0, 0, 0, 0, 3, 8)) is PageState.WRITTEN
    # an erase and an erase count name a block: any page of it will do
    assert state.erase_block(FlashAddress(0, 0, 0, 0, 3, 0)) == []
    assert state.page_state(page) is PageState.ERASED
    assert state.erase_count(page) == 1
    (worn,) = state.erase_block(page)
    assert worn.rule is Rule.ENDURANCE_EXCEEDED
    assert worn.message == "block 0.0.0.0.3 erased 2 times, endurance limit is 1"
    assert state.erase_count(FlashAddress(0, 0, 0, 0, 3, 127)) == 2
    assert state.erase_count(FlashAddress(0, 0, 0, 1, 3, 7)) == 0
    with pytest.raises(FlashSimError) as excinfo:
        state.page_state(FlashAddress(0, 0, 0, 0, 64, 7))
    assert str(excinfo.value) == (
        "address 0.0.0.0.64.7 out of range for geometry (1, 1, 1, 2, 64, 128)"
    )
    with pytest.raises(FlashSimError) as excinfo:
        state.erase_count(FlashAddress(0, 0, 0, 2, 3, 7))
    assert str(excinfo.value) == (
        "address 0.0.0.2.3.0 out of range for geometry (1, 1, 1, 2, 64, 128)"
    )


def test_flat_page_indices_count_channel_first():
    g = Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
    assert encode(FlashAddress(0, 0, 0, 0, 0, 1), g) == 1
    assert encode(FlashAddress(0, 0, 0, 0, 1, 0), g) == 8
    assert encode(FlashAddress(1, 0, 0, 0, 0, 0), g) == 256
    assert decode(511, g) == FlashAddress(1, 1, 1, 1, 3, 7)
    assert all(encode(decode(index, g), g) == index for index in range(g.total_pages))
    (cmd,) = parse_trace("flashsim-trace v1\n0,read,37\n", g)
    assert cmd.operands == (decode(37, g),) == (FlashAddress(0, 0, 0, 1, 0, 5),)
    with pytest.raises(FlashSimError):
        decode(g.total_pages, g)
    with pytest.raises(FlashSimError):
        encode(FlashAddress(0, 0, 0, 0, 4, 0), g)


def test_emit_trace_writes_text_that_parses_back_to_the_same_commands():
    pairs = (
        FlashAddress(0, 0, 0, 0, 0, 1),
        FlashAddress(0, 0, 0, 0, 1, 3),
        FlashAddress(0, 0, 0, 1, 0, 1),
        FlashAddress(0, 0, 0, 1, 1, 3),
    )
    trace = [
        Command(10_500, CommandKind.CACHE_READ, (FlashAddress(0, 0, 0, 0, 3, 0),), 4),
        Command(20_000, CommandKind.MULTI_PLANE_COPY_BACK, pairs, sequence_id=1),
    ]
    text = emit_trace(trace)
    assert text == (
        "flashsim-trace v1\n"
        "10.5,cache_read,0.0.0.0.3.0,4\n"
        "20,multi_plane_copy_back,0.0.0.0.0.1;0.0.0.1.0.1,0.0.0.0.1.3;0.0.0.1.1.3\n"
    )
    assert parse_trace(text, G) == trace

    config = parse_config((ROOT / "sample" / "ssd.ini").read_text())
    sample = parse_trace((ROOT / "sample" / "mixed.trace").read_text(), config.geometry)
    assert parse_trace(emit_trace(sample), config.geometry) == sample


def test_emit_returns_the_text_write_report_writes():
    result = run([READ, WRITE], G, ALL, ModelSet(), Policy())
    report = build_report(result, idle_accounting(result, G, ModelSet()))
    for fmt in ("structured", "table"):
        for rendered in (report._replace(events=None), report):
            out = io.StringIO()
            write_report(rendered, out, fmt)
            assert out.getvalue() == emit(rendered, fmt)
    doc = json.loads(emit(report))
    assert [c["latency_us"] for c in doc["commands"]] == [
        r.latency_ns / 1000 for r in result.results
    ]
    assert len(doc["events"]) == len(result.schedule)
