from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flashsim
from flashsim import cli, engine
from flashsim.cli import main
from flashsim.commands import CommandKind
from flashsim.trace_io import TRACE_HEADER, emit_trace, parse_config

from gen import random_trace

DATA = Path(__file__).parent / "data"

PARITY_TRACE = f"""{TRACE_HEADER}
0,read,0.0.0.0.0.0
# source page even, destination odd: violates the copy-back parity rule
10,copy_back,0.0.0.0.0.2,0.0.0.0.1.5
"""


@pytest.fixture
def fixture_paths(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text((DATA / "fixture.ini").read_text())
    trace = tmp_path / "single_read.trace"
    trace.write_text((DATA / "single_read.trace").read_text())
    return config, trace


def invoke(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_clean_run_reports_latency(fixture_paths, capsys):
    config, trace = fixture_paths
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 0
    doc = json.loads(out)
    assert doc["commands"][0]["latency_us"] == 127.4
    assert err == ""


def test_table_format_and_out_file(fixture_paths, capsys, tmp_path):
    config, trace = fixture_paths
    out_file = tmp_path / "report.txt"
    code, out, _ = invoke(
        capsys, "--config", config, "--trace", trace,
        "--format", "table", "--out", out_file,
    )
    assert code == 0
    assert out == ""  # report went to the file
    assert "makespan: 127.400 us" in out_file.read_text()


def _long_read_trace(tmp_path) -> Path:
    """A trace whose --events report is far longer than one write buffer,
    with no constraint warnings."""
    geometry = parse_config((DATA / "fixture.ini").read_text()).geometry
    trace = tmp_path / "reads.trace"
    trace.write_text(
        emit_trace(random_trace(random.Random(2), geometry, 100, (CommandKind.READ,)))
    )
    return trace


FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(
    not os.path.exists(FULL), reason="needs /dev/full, whose writes fail with ENOSPC"
)


@needs_dev_full
def test_a_failed_write_to_out_exits_2_mid_report(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = _long_read_trace(tmp_path)
    code, out, err = invoke(
        capsys, "--config", config, "--trace", trace, "--events", "--out", FULL
    )
    assert code == 2
    assert out == ""
    assert err == f"{FULL}: cannot write report: No space left on device\n"


@needs_dev_full
@pytest.mark.parametrize("long", [False, True], ids=["at_flush", "mid_report"])
def test_a_failed_write_to_stdout_exits_2_without_a_traceback(
    fixture_paths, tmp_path, long
):
    # the short report fails only when stdout is flushed; the long one
    # fails while it is being written
    config, trace = fixture_paths
    if long:
        trace = _long_read_trace(tmp_path)
    src = str(Path(flashsim.__file__).resolve().parents[1])
    with open(FULL, "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "flashsim", "--config", str(config),
             "--trace", str(trace), "--events"],
            stdout=full, stderr=subprocess.PIPE, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
    assert proc.returncode == 2
    assert proc.stderr == b"<stdout>: cannot write report: No space left on device\n"


def test_events_flag_appends_event_log(fixture_paths, capsys):
    config, trace = fixture_paths
    code, out, _ = invoke(capsys, "--config", config, "--trace", trace, "--events")
    assert code == 0
    assert len(json.loads(out)["events"]) == 3


def test_check_mode_parity_strict_exit_1(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = tmp_path / "parity.trace"
    trace.write_text(PARITY_TRACE)
    code, out, err = invoke(
        capsys, "--config", config, "--trace", trace, "--check", "--strict"
    )
    assert code == 1
    assert out == ""  # validate-only emits no report
    assert f"{trace}:4:" in err  # diagnostic names the line
    assert "copy_back_parity" in err  # and the rule


def test_check_mode_parity_without_strict_exit_0(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = tmp_path / "parity.trace"
    trace.write_text(PARITY_TRACE)
    code, out, err = invoke(capsys, "--config", config, "--trace", trace, "--check")
    assert code == 0
    assert out == ""
    assert "copy_back_parity" in err
    assert "checked 2 commands: 0 errors, 1 warnings" in err


def test_check_mode_structural_error_exit_2(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = tmp_path / "cross.trace"
    trace.write_text(
        f"{TRACE_HEADER}\n0,copy_back,0.0.0.0.0.1,0.0.0.1.0.1\n"
    )
    code, _, err = invoke(capsys, "--config", config, "--trace", trace, "--check")
    assert code == 2
    assert "copy_back_cross_plane" in err


def test_check_mode_cache_extent_past_block_end_exit_2(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = tmp_path / "extent.trace"
    # pages 6..9 of an 8-page block: the extent runs past the block end
    trace.write_text(f"{TRACE_HEADER}\n0,cache_write,0.0.0.0.0.6,4\n")
    code, out, err = invoke(capsys, "--config", config, "--trace", trace, "--check")
    assert code == 2
    assert out == ""
    assert f"{trace}:2: error:" in err and "[cache_extent]" in err
    assert "checked 1 commands: 1 errors, 0 warnings" in err


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_and_simulation_print_the_same_violations(
    fixture_paths, capsys, tmp_path, seed
):
    config, _ = fixture_paths
    config.write_text(config.read_text() + "[policy]\nendurance_limit = 1\n")
    geometry = parse_config(config.read_text()).geometry
    trace = tmp_path / "random.trace"
    trace.write_text(emit_trace(random_trace(random.Random(seed), geometry, 120)))
    code, _, simulated = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 0
    assert "[erase_before_write]" in simulated and "[endurance_exceeded]" in simulated
    code, _, checked = invoke(capsys, "--config", config, "--trace", trace, "--check")
    assert code == 0
    *violations, summary = checked.splitlines()
    assert violations == simulated.splitlines()
    assert summary == f"checked 120 commands: 0 errors, {len(violations)} warnings"


def test_replay_findings_are_the_lines_check_prints(fixture_paths, capsys):
    """The library's `replay` yields the findings `--check` prints, in the
    same order, rendered as in the README's "Library use" example."""
    config, _ = fixture_paths
    config.write_text(config.read_text() + "[policy]\nendurance_limit = 1\n")
    trace = DATA / "findings.trace"
    code, out, err = invoke(capsys, "--config", config, "--trace", trace, "--check")
    assert "replay" in flashsim.__all__
    loaded = flashsim.parse_config(config.read_text())
    commands = flashsim.parse_trace(trace.read_text(), loaded.geometry)
    found = [
        v
        for _, violations in flashsim.replay(
            commands, loaded.geometry, loaded.supported, loaded.policy
        )
        for v in violations
    ]
    lines = [
        f"{trace}:{v.line}: {v.severity.value}: {v.message} [{v.rule.value}]"
        for v in found
    ]
    assert (code, out) == (2, "")
    assert err.splitlines() == [*lines, "checked 10 commands: 4 errors, 3 warnings"]
    # every rule but unsupported_command (the config supports every kind)
    # and address_range (parse rejects such an address first)
    assert {v.rule.value for v in found} == {
        "erase_before_write",
        "copy_back_parity",
        "copy_back_cross_plane",
        "endurance_exceeded",
        "cache_extent",
        "multi_plane_shape",
        "interleave_shape",
    }


def test_run_mode_strict_warning_exit_1(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = tmp_path / "double_write.trace"
    trace.write_text(f"{TRACE_HEADER}\n0,write,0\n10,write,0\n")
    code, out, err = invoke(
        capsys, "--config", config, "--trace", trace, "--strict"
    )
    assert code == 1
    assert out == ""
    assert "erase_before_write" in err
    # same trace without strict completes and reports the warning
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 0
    assert json.loads(out)["warning_counts"] == [
        {"rule": "erase_before_write", "count": 1}
    ]
    assert "erase_before_write" in err


def test_run_mode_structural_error_exit_2(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = tmp_path / "cross.trace"
    trace.write_text(f"{TRACE_HEADER}\n0,copy_back,0.0.0.0.0.1,0.0.0.1.0.1\n")
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert out == ""
    assert "copy_back_cross_plane" in err


def test_missing_trace_file_exit_2(fixture_paths, capsys):
    config, _ = fixture_paths
    code, _, err = invoke(capsys, "--config", config, "--trace", "no_such.trace")
    assert code == 2
    assert "no_such.trace" in err


def test_malformed_trace_diagnostics_with_lines(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = tmp_path / "broken.trace"
    trace.write_text(f"{TRACE_HEADER}\n0,read,9.0.0.0.0.0\nbogus\n")
    code, _, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert f"{trace}:2:" in err and f"{trace}:3:" in err


# the line boundaries `str.splitlines` knows besides \n and \r
@pytest.mark.parametrize(
    "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
@pytest.mark.parametrize(
    "last, code",
    [
        ("5,read,9.0.0.0.0.0", 2),  # a parse error
        ("10,copy_back,0.0.0.0.0.2,0.0.0.0.1.5", 0),  # a replay warning
    ],
    ids=["parse", "replay"],
)
def test_check_counts_lines_as_the_file_has_newlines(
    fixture_paths, capsys, tmp_path, char, last, code
):
    config, _ = fixture_paths
    trace = tmp_path / "odd_spaces.trace"
    text = f"{TRACE_HEADER}\n0,read,0.0.0.0.0.0{char}\n# a{char}comment\n{last}{char}\n"
    trace.write_text(text, encoding="utf-8")
    got, _, err = invoke(capsys, "--config", config, "--trace", trace, "--check")
    assert got == code
    assert err.startswith(f"{trace}:{text.count(chr(10))}: ")


def test_a_command_line_run_builds_no_event_records(
    fixture_paths, capsys, tmp_path, monkeypatch
):
    # with or without --events: the log is written from the run's columns
    config, _ = fixture_paths
    parsed = parse_config(config.read_text())
    trace = tmp_path / "random.trace"
    commands = random_trace(random.Random(8), parsed.geometry, 60)
    trace.write_text(emit_trace(commands))
    argvs = [
        ("--config", config, "--trace", trace, "--format", fmt, *events)
        for fmt in ("structured", "table")
        for events in ((), ("--events",))
    ]
    outputs = {argv: invoke(capsys, *argv) for argv in argvs}

    def refuse(*args):
        raise AssertionError("an event record was built")

    monkeypatch.setattr(engine, "ScheduledEvent", refuse)
    for argv, expected in outputs.items():
        assert expected[0] == 0
        assert invoke(capsys, *argv) == expected
    # the refusal takes effect: reading a library run's log builds records
    schedule = engine.run(
        commands, parsed.geometry, parsed.supported, parsed.models, parsed.policy
    ).schedule
    assert len(schedule) > 0
    with pytest.raises(AssertionError, match="event record"):
        next(iter(schedule))
    with pytest.raises(AssertionError, match="event record"):
        schedule[-1]


def test_bad_config_exit_2(fixture_paths, capsys, tmp_path):
    _, trace = fixture_paths
    config = tmp_path / "bad.ini"
    config.write_text("[geometry]\nchannels = 2\n")
    code, _, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert "bad.ini" in err


def test_unsupported_command_in_trace_exit_2(fixture_paths, capsys, tmp_path):
    _, trace_path = fixture_paths
    config = tmp_path / "legacy.ini"
    config.write_text(
        (DATA / "fixture.ini")
        .read_text()
        .replace(
            "supported = read, write, erase, copy_back, cache_read, cache_write,\n"
            "    multi_plane_read, multi_plane_write, multi_plane_erase,\n"
            "    interleaved_read, interleaved_write, interleaved_erase,\n"
            "    multi_plane_copy_back",
            "supported = write, erase",
        )
    )
    code, _, err = invoke(capsys, "--config", config, "--trace", trace_path)
    assert code == 2
    assert "unsupported_command" in err


def test_empty_trace_runs_clean(fixture_paths, capsys, tmp_path):
    config, _ = fixture_paths
    trace = tmp_path / "empty.trace"
    trace.write_text(f"{TRACE_HEADER}\n# nothing scheduled\n")
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 0
    doc = json.loads(out)
    assert doc["command_count"] == 0 and doc["total_energy_uj"] == 0.0


def test_model_division_by_zero_is_a_diagnostic(fixture_paths, capsys, tmp_path):
    _, trace = fixture_paths
    config = tmp_path / "divzero.ini"
    config.write_text(
        (DATA / "fixture.ini").read_text()
        + "[performance]\narray_sense = 25 / page\n"
    )
    # the single-read trace targets page 0, so the expression divides by zero
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert out == ""
    assert "division by zero" in err
    assert "Traceback" not in err


# finite in microseconds, but not as a whole number of nanoseconds
LATENCY_OVERFLOW = "[performance]\narray_sense = 1e306"


@pytest.mark.parametrize(
    "binding,diagnostic",
    [
        (
            "[performance]\narray_sense = 10 - 20 * block",
            "[performance] array_sense: evaluated to -10.0 for the array_sense event",
        ),
        (
            "[performance]\narray_sense = 25 / (block - 1)",
            "[performance] array_sense: division by zero in expression "
            "for the array_sense event",
        ),
        (
            "[performance]\narray_sense = 1e308 * 10 + byte_count",
            "[performance] array_sense: evaluated to inf for the array_sense event",
        ),
        (
            "[power]\narray_sense = 1e308 * duration * 1e10",
            "[power] array_sense: evaluated to inf for the array_sense event",
        ),
        (
            "[power]\narray_sense = 1e308 * 10 - 1e308 * 10",
            "[power] array_sense: evaluated to nan for the array_sense event",
        ),
        (
            "[performance]\nt_bus_per_byte = 1e308",
            "[performance] t_bus_per_byte: evaluated to inf "
            "for the bus_transfer_out event",
        ),
        (
            LATENCY_OVERFLOW,
            "[performance] array_sense: evaluated to 1e+306 us, which overflows "
            "in nanoseconds for the array_sense event",
        ),
    ],
    ids=["negative", "zero_divisor", "latency_inf", "energy_inf", "energy_nan",
         "builtin_inf", "latency_ns_overflow"],
)
def test_failing_model_binding_is_located_at_its_trace_line(
    fixture_paths, capsys, tmp_path, binding, diagnostic
):
    config, _ = fixture_paths
    config.write_text(config.read_text() + binding + "\n")
    trace = tmp_path / "one.trace"
    trace.write_text(f"{TRACE_HEADER}\n# block 1\n0,read,0.0.0.0.1.0\n")
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert out == ""
    assert err == f"{trace}:3: error: {diagnostic} of read command 0\n"


def test_address_free_failing_binding_fails_at_its_first_event(
    fixture_paths, capsys, tmp_path
):
    # the binding reads no address, so it is priced once per run; that must
    # happen at the first erase (the second command), not when pricing starts
    config, _ = fixture_paths
    config.write_text(config.read_text() + "[power]\nblock_erase = -duration\n")
    trace = tmp_path / "two.trace"
    trace.write_text(f"{TRACE_HEADER}\n0,read,0.0.0.0.1.0\n1,erase,0.0.0.0.1.0\n")
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert out == ""
    assert err == (
        f"{trace}:3: error: [power] block_erase: evaluated to -1500.0 "
        "for the block_erase event of erase command 1\n"
    )


def test_an_address_reading_binding_fails_before_a_later_address_free_one(
    fixture_paths, capsys, tmp_path
):
    # the read's transfer prices at -duration for every target, and its
    # sense divides by zero at block 2; the sense comes first, so its
    # binding is the one named, although the transfer's is evaluated when
    # the read's shape is compiled
    config, _ = fixture_paths
    config.write_text(
        config.read_text()
        + "[performance]\narray_sense = 25 / (2 - block)\n"
        + "[power]\nbus_transfer_out = -duration\n"
    )
    trace = tmp_path / "one.trace"
    trace.write_text(f"{TRACE_HEADER}\n0,read,0.0.0.0.2.0\n")
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert out == ""
    assert err == (
        f"{trace}:2: error: [performance] array_sense: division by zero in expression "
        "for the array_sense event of read command 0\n"
    )


def test_expression_past_the_depth_limit_exits_2_without_a_traceback(
    fixture_paths, capsys
):
    # the parser rejects it before any recursive pass could exhaust the stack
    config, trace = fixture_paths
    config.write_text(
        config.read_text() + "[performance]\ncmd_overhead = " + " + ".join(["page"] * 5000)
    )
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert out == ""
    assert err.startswith(
        f"{config}: performance.cmd_overhead: expression nested more than 200 levels deep"
    )
    assert "Traceback" not in err


def test_expression_models_event_log_matches_golden(capsys, tmp_path):
    # every event kind priced by a latency and a power expression; the golden
    # bytes were produced by the tree-walking evaluator this one replaced
    out_file = tmp_path / "report.json"
    code, _, err = invoke(
        capsys, "--config", DATA / "expr_models.ini",
        "--trace", DATA / "expr_models.trace", "--events", "--out", out_file,
    )
    assert (code, err) == (0, "")
    assert out_file.read_bytes() == (DATA / "golden_expr_events.json").read_bytes()


def test_expression_models_table_matches_golden(capsys, tmp_path):
    # the table report with its event log, pinned byte for byte
    out_file = tmp_path / "report.txt"
    code, _, err = invoke(
        capsys, "--config", DATA / "expr_models.ini",
        "--trace", DATA / "expr_models.trace",
        "--format", "table", "--events", "--out", out_file,
    )
    assert (code, err) == (0, "")
    assert out_file.read_bytes() == (DATA / "golden_expr_table.txt").read_bytes()


ERASE_OVERFLOW = "[power]\nblock_erase = 1.7e308\n"
# 1e300 mW idle over 10^12 us, a makespan well inside the time domain
IDLE_OVERFLOW = "[power]\np_idle_bus = 1e300\n"


@pytest.mark.parametrize(
    "tail,records,diagnostic",
    [
        (
            ERASE_OVERFLOW,
            "0,erase,0.0.0.0.0.0\n1,erase,0.0.0.0.1.0\n",
            "[power] energy of block_erase events: overflows to inf",
        ),
        (
            "[power]\nblock_erase = 1e308\narray_program = 1e308\n",
            "0,erase,0.0.0.0.0.0\n1,write,0.0.0.0.1.0\n",
            "[power] energy of all events: overflows to inf",
        ),
        (
            IDLE_OVERFLOW,
            "0,read,0.0.0.0.0.0\n1000000000000,read,0.0.0.0.0.0\n",
            "[power] idle energy of bus/0: overflows to inf",
        ),
    ],
    ids=["event_kind_total", "event_total", "idle"],
)
@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_energy_overflow_exits_2_without_a_report(
    fixture_paths, capsys, tmp_path, tail, records, diagnostic, fmt
):
    config, _ = fixture_paths
    config.write_text(config.read_text() + tail)
    trace = tmp_path / "big.trace"
    trace.write_text(f"{TRACE_HEADER}\n{records}")
    out_file = tmp_path / "report"
    code, out, err = invoke(
        capsys, "--config", config, "--trace", trace, "--format", fmt
    )
    assert (code, out, err) == (2, "", f"{trace}: error: {diagnostic}\n")
    code, _, _ = invoke(
        capsys, "--config", config, "--trace", trace, "--format", fmt,
        "--out", out_file,
    )
    assert code == 2 and not out_file.exists()


# Every time is a whole number of nanoseconds below 2**63: an arrival, a
# latency and an event's end at the limit each stop the run with exit 2 and
# one diagnostic, the same in both formats and with or without the log.
@pytest.mark.parametrize(
    "tail,records,diagnostic",
    [
        (
            "",
            "9223372036854775.807,read,0.0.0.0.0.0\n9223372036854775.808,read,0.0.0.0.0.0\n",
            ":3: arrival time 9223372036854775.808 is 2**63 ns or later",
        ),
        (
            "[performance]\narray_sense = 1e16\n",
            "0,read,0.0.0.0.0.0\n",
            ":2: error: [performance] array_sense: evaluated to 1e+16 us, which "
            "overflows in nanoseconds for the array_sense event of read command 0",
        ),
        (
            "",
            "9223372036854774.808,erase,0.0.0.0.0.0\n",
            ":2: error: [performance] t_erase: ends at 9223372036856274808 ns, which "
            "is 2**63 ns or later for the block_erase event of erase command 0",
        ),
    ],
    ids=["arrival", "latency", "end"],
)
@pytest.mark.parametrize("flags", [[], ["--events"]], ids=["bare", "events"])
@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_a_time_at_2_to_the_63_ns_exits_2_without_a_report(
    fixture_paths, capsys, tmp_path, tail, records, diagnostic, flags, fmt
):
    config, _ = fixture_paths
    config.write_text(config.read_text() + tail)
    trace = tmp_path / "late.trace"
    trace.write_text(f"{TRACE_HEADER}\n{records}")
    args = ["--config", config, "--trace", trace, "--format", fmt, *flags]
    code, out, err = invoke(capsys, *args)
    assert (code, out, err) == (2, "", f"{trace}{diagnostic}\n")
    out_file = tmp_path / "report"
    code, _, _ = invoke(capsys, *args, "--out", out_file)
    assert code == 2 and not out_file.exists()


@pytest.mark.parametrize("which", ["config", "trace"])
def test_undecodable_input_exits_2(fixture_paths, capsys, which):
    config, trace = fixture_paths
    bad = config if which == "config" else trace
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert (code, out) == (2, "")
    assert err == f"{bad}: cannot read {which}: not UTF-8 text\n"


@pytest.mark.parametrize("which", ["config", "trace"])
def test_an_input_path_is_opened_as_written(fixture_paths, capsys, which):
    # the path goes to open() as given: a trailing slash names a directory
    # and an empty path names no file
    paths = dict(zip(("config", "trace"), fixture_paths))
    for path, reason in (
        (f"{paths[which]}/", "Not a directory"),
        ("", "No such file or directory"),
    ):
        args = {**paths, which: path}
        code, out, err = invoke(capsys, "--config", args["config"], "--trace", args["trace"])
        assert (code, out, err) == (2, "", f"{path}: cannot read {which}: {reason}\n")


def test_duplicate_config_key_rejected(fixture_paths, capsys, tmp_path):
    _, trace = fixture_paths
    config = tmp_path / "dup.ini"
    config.write_text(
        (DATA / "fixture.ini").read_text().replace(
            "page_size = 4096", "page_size = 4096\npage_size = 2048"
        )
    )
    code, _, err = invoke(capsys, "--config", config, "--trace", trace)
    assert code == 2
    assert "dup.ini" in err


def test_a_malformed_config_is_reported_at_its_line(fixture_paths, capsys):
    config, trace = fixture_paths
    config.write_text(
        config.read_text().replace("page_size = 4096", "page_size = 4096\nPAGE_SIZE: 2048")
    )
    code, out, err = invoke(capsys, "--config", config, "--trace", trace)
    assert (code, out) == (2, "")
    assert err == f"{config}:10: malformed config: duplicate key geometry.page_size\n"


def test_identical_invocations_identical_bytes(fixture_paths, capsys):
    config, trace = fixture_paths
    code1, out1, err1 = invoke(
        capsys, "--config", config, "--trace", trace, "--events"
    )
    code2, out2, err2 = invoke(
        capsys, "--config", config, "--trace", trace, "--events"
    )
    assert (code1, out1, err1) == (code2, out2, err2)


@pytest.mark.parametrize(
    "flags",
    [("--check",), ("--events",), pytest.param(("--format", "table"), id="expr_models")],
)
def test_output_does_not_depend_on_the_hash_seed(fixture_paths, tmp_path, flags):
    # string and Enum hashes change with the seed; no set order may leak out.
    # The table case prices every event through generated expression code.
    config, _ = fixture_paths
    if flags == ("--format", "table"):
        config.write_text((DATA / "expr_models.ini").read_text())
    config.write_text(config.read_text() + "[policy]\nendurance_limit = 1\n")
    geometry = parse_config(config.read_text()).geometry
    trace = tmp_path / "random.trace"
    trace.write_text(emit_trace(random_trace(random.Random(5), geometry, 200)))
    src = str(Path(flashsim.__file__).resolve().parents[1])
    outcomes = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "flashsim", "--config", str(config),
             "--trace", str(trace), *flags],
            capture_output=True, env=env, timeout=120,
        )
        outcomes.append((proc.returncode, proc.stdout, proc.stderr))
    assert outcomes[0] == outcomes[1]
    code, out, err = outcomes[0]
    assert code == 0
    assert b"[erase_before_write]" in err and b"[endurance_exceeded]" in err
    assert (out == b"") == (flags == ("--check",))


def _argv_for(path: str, config: Path, trace: Path, tmp_path: Path) -> list[str]:
    """The arguments that take `main` down one exit path."""
    if path == "help":
        return ["--help"]
    if path == "missing_config":
        return ["--trace", str(trace)]
    flags = []
    if path == "check":
        flags = ["--check"]
    elif path == "simulate":
        flags = ["--events"]
    elif path == "strict":
        trace = tmp_path / "parity.trace"
        trace.write_text(PARITY_TRACE)
        flags = ["--strict"]
    elif path == "trace_parse_error":
        trace = tmp_path / "broken.trace"
        trace.write_text(f"{TRACE_HEADER}\n0,read,x.y\n")
    elif path == "model_error":
        config = tmp_path / "divzero.ini"
        config.write_text(
            (DATA / "fixture.ini").read_text() + "[performance]\narray_sense = 25 / page\n"
        )
    elif path == "unwritable_out":
        flags = ["--out", str(tmp_path / "no_such_dir" / "report.json")]
    return ["--config", str(config), "--trace", str(trace), *flags]


@pytest.fixture
def restore_collector():
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("collecting", [True, False], ids=["collector_on", "collector_off"])
@pytest.mark.parametrize(
    "path, outcome",
    [
        ("check", 0),
        ("simulate", 0),
        ("strict", 1),
        ("trace_parse_error", 2),
        ("model_error", 2),
        ("unwritable_out", 2),
        ("help", SystemExit),
        ("missing_config", SystemExit),
        ("unexpected_exception", RuntimeError),
    ],
)
def test_main_leaves_the_collector_as_it_found_it(
    fixture_paths, tmp_path, monkeypatch, restore_collector, path, outcome, collecting
):
    # main pauses the cyclic collector while it runs; every exit path must
    # hand the caller back the setting it had
    config, trace = fixture_paths
    argv = _argv_for(path, config, trace, tmp_path)
    if path == "unexpected_exception":
        def fail(*args, **kwargs):
            assert not gc.isenabled()  # raised inside the paused span
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "run", fail)
    if collecting:
        gc.enable()
    else:
        gc.disable()
    if isinstance(outcome, int):
        assert main(argv) == outcome
    else:
        with pytest.raises(outcome):
            main(argv)
    assert gc.isenabled() is collecting


@pytest.mark.parametrize(
    "flags",
    [["--check"], ["--events"], ["--format", "table"]],
    ids=["check", "events", "table"],
)
def test_cyclic_garbage_does_not_grow_with_the_trace(fixture_paths, tmp_path, flags):
    # what main leaves for the cyclic collector must not depend on the
    # trace, so that pausing the collector for a run costs bounded memory
    # (on these runs, which argparse does not read, it leaves none)
    config, _ = fixture_paths
    geometry = parse_config(config.read_text()).geometry
    traces = {}
    for n in (10, 2000):
        traces[n] = tmp_path / f"{n}.trace"
        traces[n].write_text(emit_trace(random_trace(random.Random(n), geometry, n)))

    def garbage(trace: Path) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(["--config", str(config), "--trace", str(trace), *flags])
        return gc.collect()

    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        garbage(traces[10])  # fills the caches a first run fills
        small, large = garbage(traces[10]), garbage(traces[2000])
    finally:
        if collecting:
            gc.enable()
    assert small == large


# the command line's options and the values an argv may give them: names,
# abbreviations, a choice and a non-choice of --format, and values that
# are empty, start with "-" or hold "=" or a space
_VALUED_OPTIONS = ("--config", "--trace", "--format", "--out")
_ARGV_FLAGS = ("--events", "--check", "--strict")
_ARGV_VALUES = ("c.ini", "t.trace", "table", "structured", "json", "", "-", "-x", "-1",
                "--check", "a=b", "=x", "a b")
_ARGV_OTHERS = ("--conf", "--tr", "--form", "-h", "--help", "--", "x", "", "--events=1")


@st.composite
def argvs(draw) -> list[str]:
    """An argv of the command line's options in any order, each value
    given as a separate word or after "=", most with --config and --trace,
    some with a word that is no option of its own."""
    options = draw(st.lists(st.sampled_from(_VALUED_OPTIONS + _ARGV_FLAGS), max_size=6))
    if draw(st.integers(0, 9)):
        options += ["--config", "--trace"]
    options = draw(st.permutations(options))
    argv = []
    for option in options:
        if option in _ARGV_FLAGS:
            argv.append(option)
            continue
        value = draw(st.sampled_from(_ARGV_VALUES))
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ARGV_OTHERS)))
    return argv


@settings(max_examples=500, deadline=None)
@given(argvs())
@example(["--config", "c.ini", "--trace", "t.trace", "--config=x", "--format", "table"])
def test_the_fast_argv_reader_reads_what_argparse_reads(argv):
    # whatever argv the fast path reads, argparse reads to the same options,
    # without printing a usage error and exiting
    fast = cli._read_argv(argv)
    if fast is not None:
        assert vars(fast) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "c.ini", "--trace", "t.trace"],
        ["--trace=t.trace", "--check", "--strict", "--config=-c.ini"],
        ["--config", "c", "--trace", "t", "--format", "table", "--events", "--out", "r"],
        ["--config", "c", "--trace", "t", "--format=structured", "--out="],
    ],
)
def test_a_canonical_argv_is_read_without_argparse(argv):
    assert cli._read_argv(argv) is not None


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h"],
        ["--conf", "c.ini", "--tr", "t.trace"],
        ["--config", "c.ini", "--trace", "t.trace", "--format", "json"],
        ["--config", "c.ini"],
        ["--config", "-x", "--trace", "t.trace"],
        ["--config", "", "--trace", "t.trace"],
        ["--config", "c.ini", "--trace", "t.trace", "--"],
        ["--config", "c.ini", "--trace", "t.trace", "--check=yes"],
        ["--config", "c.ini", "--trace", "t.trace", "extra"],
        ["--config", "c.ini", "--trace"],
    ],
)
def test_any_other_argv_is_left_to_argparse(argv):
    assert cli._read_argv(argv) is None


# closed input domain: traces from a small grammar of good and bad fields
_ARRIVALS = st.one_of(
    st.sampled_from(["0", "1.5", "-1", "nan", "1e305", "1000000000000", ""]),
    st.integers(0, 50).map(str),
)
_KINDS = st.sampled_from([kind.value for kind in CommandKind] + ["defragment"])
_DOTTED = st.tuples(
    st.integers(0, 2), st.integers(0, 1), st.integers(0, 1),
    st.integers(0, 2), st.integers(0, 4), st.integers(0, 8),
).map(lambda indices: ".".join(map(str, indices)))
_ADDRESS = _DOTTED | st.integers(0, 600).map(str)
_FIELD = st.one_of(
    _ADDRESS,
    st.lists(_ADDRESS, min_size=2, max_size=2).map(";".join),
    st.sampled_from(["x.y", "0.0.0", "-3", "0.0.0.0.0.0.0", ";", ""]),
    st.sampled_from(["0", "1", "3", "12"]),
)
_FREE_RECORD = st.builds(
    lambda arrival, kind, fields: ",".join([arrival, kind, *fields]),
    _ARRIVALS, _KINDS, st.lists(_FIELD, max_size=4),
)
_FIXTURE_GEOMETRY = parse_config((DATA / "fixture.ini").read_text()).geometry


def _well_formed(arrival: str, seed: int) -> str:
    """A structurally valid command of a random kind, at `arrival`."""
    trace = emit_trace(random_trace(random.Random(seed), _FIXTURE_GEOMETRY, 1))
    return f"{arrival},{trace.splitlines()[1].split(',', 1)[1]}"


_WELL_FORMED_RECORD = st.builds(_well_formed, _ARRIVALS, st.integers(0, 2**32))
# free-grammar lines alone rarely parse, so half the traces are well formed
_RECORDS = st.one_of(
    st.lists(_WELL_FORMED_RECORD, max_size=4),
    st.lists(_FREE_RECORD | _WELL_FORMED_RECORD, max_size=4),
)
_TAILS = [
    "",
    "[policy]\ndie_serialization = true\ncmd_overhead_on_bus = true\n"
    "initially_written = true\nendurance_limit = 1\n",
    "[policy]\nviolation_severity = error\n",
    "[performance]\narray_sense = 1 / (page - 3)\n",
    ERASE_OVERFLOW,
    IDLE_OVERFLOW,
    LATENCY_OVERFLOW + "\n",
]
_FLAGS = [[], ["--check"], ["--strict"], ["--events"], ["--events", "--format", "table"]]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the report")


@settings(max_examples=200, deadline=None)
@given(
    records=_RECORDS,
    tail=st.sampled_from(_TAILS),
    flags=st.sampled_from(_FLAGS),
)
@example(
    records=["0,erase,0.0.0.0.0.0", "1,erase,0.0.0.0.1.0"], tail=ERASE_OVERFLOW,
    flags=[],
)
@example(
    records=["0,read,0.0.0.0.0.0", "1000000000000,read,0.0.0.0.0.0"], tail=IDLE_OVERFLOW,
    flags=["--events", "--format", "table"],
)
def test_any_input_exits_0_1_or_2_with_a_finite_report(records, tail, flags):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.ini"
        config.write_text((DATA / "fixture.ini").read_text() + tail)
        trace = Path(tmp) / "fuzz.trace"
        trace.write_text("\n".join([TRACE_HEADER, *records]) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", str(config), "--trace", str(trace), *flags])
            assert gc.isenabled()
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert "--strict" in flags or "violation_severity = error" in tail
        assert "warning:" in err
    if code == 0 and "--check" not in flags:
        if "table" in flags:
            assert not re.search(r"\b(inf|nan)\b", out)
        else:
            json.loads(out, parse_constant=_reject_constant)
