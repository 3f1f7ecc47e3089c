from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashsim.commands import Command, CommandKind, EventKind
from flashsim.engine import CommandResult, Policy, idle_accounting, run
from flashsim.errors import Rule, Severity, Violation
from flashsim.models import (
    ModelSet,
    TimingParams,
    parse_latency_expression,
    parse_power_expression,
)
from flashsim.stats import (
    PERCENTILES,
    REPORT_SCHEMA,
    Report,
    build_report,
    emit,
    nearest_rank,
    us_repr,
)
from flashsim.topology import Geometry
from flashsim.trace_io import parse_config, parse_trace

from checks import assert_schedule_legal
from conftest import ALL_KINDS, A
from gen import random_trace

DATA = Path(__file__).parent / "data"


def fixture_run(trace_name="single_read.trace"):
    config = parse_config((DATA / "fixture.ini").read_text())
    trace = parse_trace((DATA / trace_name).read_text(), config.geometry)
    result = run(trace, config.geometry, config.supported, config.models, config.policy)
    assert_schedule_legal(result, trace, config.geometry, config.policy)
    idle = idle_accounting(result, config.geometry, config.models, config.policy)
    return build_report(result, idle)


def test_empty_run_report(geometry, models):
    result = run([], geometry, ALL_KINDS, models)
    report = build_report(result, idle_accounting(result, geometry, models))
    assert report.command_count == 0
    assert report.makespan_us == 0.0
    assert report.total_energy_uj == 0.0
    assert report.usage == () and report.kind_stats == ()


def test_single_read_report_numbers():
    report = fixture_run()
    (stats,) = report.kind_stats
    assert stats.kind is CommandKind.READ and stats.count == 1
    assert stats.mean_us == stats.min_us == stats.max_us == 127.4
    assert report.makespan_us == 127.4
    by_label = {u.resource.label: u for u in report.usage}
    assert by_label["plane/0.0.0.0"].utilization == pytest.approx(25 / 127.4)
    assert by_label["bus/0"].utilization == pytest.approx(102.4 / 127.4)
    energy = dict(report.energy_by_kind)
    assert energy[EventKind.ARRAY_SENSE] == 0.75
    assert energy[EventKind.BUS_TRANSFER_OUT] == 2.048
    assert report.total_energy_uj == pytest.approx(2.798, rel=1e-12)


def test_energy_conservation_identity(geometry, models):
    trace = random_trace(random.Random(5), geometry, 40)
    result = run(trace, geometry, ALL_KINDS, models)
    report = build_report(result, idle_accounting(result, geometry, models))
    # recompute per the documented accumulation discipline
    total = 0.0
    for _, kind_total in report.energy_by_kind:
        total += kind_total
    total += report.idle_energy_uj
    assert total == report.total_energy_uj


def test_utilization_bounded_per_resource(geometry, models):
    for seed in range(5):
        trace = random_trace(random.Random(seed), geometry, 30)
        result = run(trace, geometry, ALL_KINDS, models)
        report = build_report(result, idle_accounting(result, geometry, models))
        assert all(0.0 <= u.utilization <= 1.0 for u in report.usage)


def test_warning_summary_matches_warnings(geometry, models):
    trace = [
        Command(0, CommandKind.WRITE, (A(),), 1, 0),
        Command(1000, CommandKind.WRITE, (A(),), 1, 1),
        Command(2000, CommandKind.WRITE, (A(),), 1, 2),
    ]
    result = run(trace, geometry, ALL_KINDS, models)
    report = build_report(result)
    assert sum(count for _, count in report.warning_counts) == len(report.warnings) == 2


def test_latency_consistency_with_event_log():
    report = fixture_run()
    for row in report.commands:
        ends = [e.end_ns for e in report.events if e.sequence_id == row.sequence_id]
        assert row.completion_ns == max(ends)
        assert row.latency_ns == row.completion_ns - row.arrival_ns


def test_emit_is_deterministic():
    report = fixture_run()
    for fmt in ("structured", "table"):
        assert emit(report, fmt, True) == emit(report, fmt, True)
        assert emit(report, fmt, False) == emit(report, fmt, False)


def test_event_log_record_count(geometry, models):
    trace = [Command(0, CommandKind.READ, (A(),), 1, 0)]
    result = run(trace, geometry, ALL_KINDS, models)
    report = build_report(result)
    structured = json.loads(emit(report, "structured", event_log=True))
    assert len(structured["events"]) == 3  # overhead, sense, transfer
    assert "events" not in json.loads(emit(report, "structured", event_log=False))
    table = emit(report, "table", event_log=True)
    assert table.count("array_sense") >= 1


def test_structured_golden_single_read():
    report = fixture_run()
    rendered = emit(report, "structured", event_log=True)
    golden = (DATA / "golden_single_read.json").read_text()
    assert rendered == golden


def test_structured_schema_fields():
    report = fixture_run()
    doc = json.loads(emit(report, "structured", event_log=True))
    assert doc["schema"] == REPORT_SCHEMA
    assert doc["command_count"] == 1
    assert doc["commands"][0]["latency_us"] == 127.4
    assert doc["latency_by_kind"][0]["p50_us"] == 127.4
    assert {e["kind"] for e in doc["events"]} == {
        "cmd_overhead", "array_sense", "bus_transfer_out",
    }


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1, 11)]
    assert nearest_rank(values, 50) == 5.0
    assert nearest_rank(values, 95) == 10.0
    assert nearest_rank(values, 99) == 10.0
    assert nearest_rank([42.0], 50) == 42.0
    assert nearest_rank([1.0, 2.0, 3.0], 50) == 2.0


def test_table_formatting():
    report = fixture_run()
    table = emit(report, "table")
    assert "makespan: 127.400 us" in table
    assert "total energy: 2.798 uJ" in table
    assert "read" in table and "bus/0" in table


def test_unknown_format_rejected():
    report = fixture_run()
    with pytest.raises(ValueError):
        emit(report, "yaml")


def _reference_structured(report, event_log: bool) -> str:
    """The structured report built key by key from the report's own records,
    one dict per row, and rendered whole by json.dumps(doc, indent=2)."""
    doc = {
        "schema": REPORT_SCHEMA,
        "command_count": report.command_count,
        "makespan_us": report.makespan_us,
        "total_energy_uj": report.total_energy_uj,
        "event_energy_uj": report.event_energy_uj,
        "idle_energy_uj": report.idle_energy_uj,
        "commands": [
            {
                "sequence_id": c.sequence_id,
                "kind": c.kind.value,
                "arrival_us": c.arrival_ns / 1000,
                "completion_us": c.completion_ns / 1000,
                "latency_us": c.latency_ns / 1000,
                "energy_uj": c.energy_uj,
                "warning_count": len(c.warnings),
            }
            for c in report.commands
        ],
        "latency_by_kind": [
            {
                "kind": s.kind.value,
                "count": s.count,
                "mean_us": s.mean_us,
                "min_us": s.min_us,
                "max_us": s.max_us,
                **{f"p{p}_us": v for p, v in zip(PERCENTILES, s.percentiles_us)},
            }
            for s in report.kind_stats
        ],
        "energy_by_event_kind": [
            {"kind": kind.value, "energy_uj": value}
            for kind, value in report.energy_by_kind
        ],
        "resources": [
            {
                "resource": u.resource.label,
                "busy_us": u.busy_us,
                "utilization": u.utilization,
                "idle_energy_uj": u.idle_energy_uj,
            }
            for u in report.usage
        ],
        "warning_counts": [
            {"rule": rule.value, "count": count}
            for rule, count in report.warning_counts
        ],
        "warnings": [
            {
                "rule": w.rule.value,
                "severity": w.severity.value,
                "message": w.message,
                "sequence_id": w.sequence_id,
                "line": w.line,
            }
            for w in report.warnings
        ],
    }
    if event_log:
        doc["events"] = [
            {
                "sequence_id": e.sequence_id,
                "event_id": e.event_id,
                "kind": e.kind.value,
                "target": str(e.target),
                "resource": None if e.resource is None else e.resource.label,
                "start_us": e.start_ns / 1000,
                "duration_us": e.duration_ns / 1000,
                "energy_uj": e.energy_uj,
            }
            for e in report.events
        ]
    return json.dumps(doc, indent=2) + "\n"


_MODELS = {
    "builtin": ModelSet(),
    "expressions": ModelSet(
        latency_exprs={
            kind: parse_latency_expression("0.3 + page / 7 + block * 1.1 + byte_count / 3e4")
            for kind in EventKind
        },
        power_exprs={
            kind: parse_power_expression("duration * (channel + 0.1) / 3")
            for kind in EventKind
        },
    ),
    "huge_sense": ModelSet(TimingParams(t_sense=1e300)),
    "tiny_energy": ModelSet(
        power_exprs={kind: parse_power_expression("5e-324") for kind in EventKind}
    ),
    "negative_zero": ModelSet(
        power_exprs={kind: parse_power_expression("-0.0 * duration") for kind in EventKind}
    ),
    # -0.0 on channel 0 and 0.0 on channel 1: equal floats that render apart
    "signed_zeros": ModelSet(
        power_exprs={
            kind: parse_power_expression("(channel - 0.5) * 0.0 * duration")
            for kind in EventKind
        }
    ),
}
# Policy is a named tuple, and st.builds draws every field of one, defaults
# included; strict and multi_plane_same_offsets stay at their defaults
_POLICIES = st.builds(
    Policy,
    strict=st.just(False),
    multi_plane_same_offsets=st.just(True),
    endurance_limit=st.sampled_from([None, 1]),
    die_serialization=st.booleans(),
    cmd_overhead_on_bus=st.booleans(),
    initially_written=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_commands=st.integers(0, 12),
    policy=_POLICIES,
    models=st.sampled_from(sorted(_MODELS)),
    first_arrival_ns=st.sampled_from([None, 10**15 - 150_000, 10**19 + 1]),
    expected=st.just(""),
)
@example(seed=0, n_commands=0, policy=Policy(), models="builtin",
         first_arrival_ns=None, expected='"events": []')
@example(seed=1, n_commands=2, policy=Policy(cmd_overhead_on_bus=False),
         models="builtin", first_arrival_ns=None, expected='"resource": null')
@example(seed=2, n_commands=4, policy=Policy(), models="huge_sense",
         first_arrival_ns=None, expected='"duration_us": 1e+300,')
@example(seed=3, n_commands=2, policy=Policy(), models="tiny_energy",
         first_arrival_ns=None, expected='"energy_uj": 5e-324\n')
@example(seed=4, n_commands=3, policy=Policy(), models="negative_zero",
         first_arrival_ns=None, expected='"energy_uj": -0.0\n')
@example(seed=5, n_commands=8, policy=Policy(), models="signed_zeros",
         first_arrival_ns=None, expected='"energy_uj": 0.0\n')
@example(seed=5, n_commands=6, policy=Policy(), models="builtin",
         first_arrival_ns=10**15, expected='"start_us": 1000000000000.0,')
@example(seed=6, n_commands=6, policy=Policy(), models="expressions",
         first_arrival_ns=10**15 - 1, expected='"start_us": 999999999999.999,')
@example(seed=7, n_commands=4, policy=Policy(), models="builtin",
         first_arrival_ns=10**19, expected='"start_us": 1e+16,')
def test_event_log_has_the_bytes_of_json_dumps(
    seed, n_commands, policy, models, first_arrival_ns, expected
):
    geometry = Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
    trace = random_trace(random.Random(seed), geometry, n_commands)
    if first_arrival_ns is not None and trace:
        shift = first_arrival_ns - trace[0].arrival_ns
        trace = [c._replace(arrival_ns=c.arrival_ns + shift) for c in trace]
    model_set = _MODELS[models]
    result = run(trace, geometry, ALL_KINDS, model_set, policy)
    report = build_report(result, idle_accounting(result, geometry, model_set, policy))
    rendered = emit(report, "structured", True)
    assert rendered == _reference_structured(report, True)
    assert expected in rendered
    assert emit(report, "structured", False) == _reference_structured(report, False)


def _hand_built_report(commands, warnings) -> Report:
    return Report(
        command_count=len(commands),
        makespan_us=1.5,
        commands=commands,
        kind_stats=(),
        energy_by_kind=(),
        event_energy_uj=0.0,
        idle_energy_uj=0.0,
        total_energy_uj=0.0,
        usage=(),
        warning_counts=tuple(Counter(w.rule for w in warnings).items()),
        warnings=warnings,
        events=(),
    )


@pytest.mark.parametrize("present", [False, True], ids=["empty", "present"])
def test_structured_rows_escape_as_json_dumps_does(present):
    warnings = (
        Violation(Rule.ERASE_BEFORE_WRITE, Severity.WARNING,
                  'page "0.1" \\ was\nwritten \u00e9\u4e2d\U0001f600 again'),
        Violation(Rule.UNSUPPORTED_COMMAND, Severity.ERROR, "\t\x00", 3, 17),
    )
    commands = (
        CommandResult(0, CommandKind.READ, 0, 127_400, 2.798, warnings[:1]),
        CommandResult(1, CommandKind.CACHE_WRITE, 10**15 + 1, 10**15 + 3, -0.0, ()),
    )
    report = _hand_built_report(commands, warnings) if present else _hand_built_report((), ())
    for event_log in (False, True):
        assert emit(report, "structured", event_log) == _reference_structured(report, event_log)
    if present:
        assert '"sequence_id": null,\n      "line": null\n' in emit(report, "structured")


@settings(max_examples=300)
@given(ns=st.integers(0, 10**15 - 1))
@example(ns=0)
@example(ns=1)
@example(ns=999)
@example(ns=1000)
@example(ns=10**15 - 1)
@example(ns=10**15)
@example(ns=10**19)
def test_us_repr_is_repr_of_the_microseconds(ns):
    assert us_repr(ns) == repr(ns / 1000)
