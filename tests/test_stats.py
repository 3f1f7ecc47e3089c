from __future__ import annotations

import io
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashsim.commands import Command, CommandKind, EventKind
from flashsim.engine import CommandResult, Policy, ScheduledEvent, idle_accounting, run
from flashsim.errors import Rule, Severity, Violation
from flashsim.models import (
    ModelSet,
    PowerParams,
    TimingParams,
    parse_latency_expression,
    parse_power_expression,
)
from flashsim.stats import (
    PERCENTILES,
    REPORT_SCHEMA,
    Report,
    _json_float,
    _json_text,
    build_report,
    emit,
    nearest_rank,
    us_repr,
    write_report,
)
from flashsim.topology import Geometry, Resource
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
    idle = idle_accounting(result, config.geometry, config.models)
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
        for rendered in (report, report._replace(events=None)):
            assert emit(rendered, fmt) == emit(rendered, fmt)


def test_event_log_record_count(geometry, models):
    trace = [Command(0, CommandKind.READ, (A(),), 1, 0)]
    result = run(trace, geometry, ALL_KINDS, models)
    report = build_report(result)
    structured = json.loads(emit(report, "structured"))
    assert len(structured["events"]) == 3  # overhead, sense, transfer
    bare = report._replace(events=None)
    assert "events" not in json.loads(emit(bare, "structured"))
    table = emit(report, "table")
    assert table.count("array_sense") >= 1


def test_structured_golden_single_read():
    report = fixture_run()
    rendered = emit(report, "structured")
    golden = (DATA / "golden_single_read.json").read_text()
    assert rendered == golden


def test_structured_schema_fields():
    report = fixture_run()
    doc = json.loads(emit(report, "structured"))
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


@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_a_run_without_a_log_renders_as_a_logged_run_without_its_events(
    geometry, models, fmt
):
    trace = random_trace(random.Random(3), geometry, 20)
    logged = build_report(run(trace, geometry, ALL_KINDS, models))
    bare = build_report(run(trace, geometry, ALL_KINDS, models, event_log=False))
    assert bare.events is None and logged.events
    assert bare == logged._replace(events=None)
    out = io.StringIO()
    write_report(bare, out, fmt)
    assert out.getvalue() == emit(bare, fmt) == emit(logged._replace(events=None), fmt)
    assert emit(bare, fmt) != emit(logged, fmt)


@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_a_kept_empty_event_log_still_renders(geometry, models, fmt):
    report = build_report(run([], geometry, ALL_KINDS, models))
    assert report.events == []
    rendered = emit(report, fmt)
    if fmt == "structured":
        assert json.loads(rendered)["events"] == []
        assert rendered.endswith('\n  "events": []\n}\n')
    else:
        assert rendered.endswith(
            "\nevent log (start us, duration us, kind, target, resource, energy uJ)\n"
        )


def _reference_aggregates(result):
    """Per-kind latency statistics, per-kind energy and busy time per
    resource, each computed from its definition over the run's records."""
    latencies: dict[CommandKind, list[int]] = {}
    for r in result.results:
        latencies.setdefault(r.kind, []).append(r.latency_ns)
    kind_stats = {}
    for kind, ns in latencies.items():
        n = len(ns)
        # nearest rank: the smallest value with at least p% of the sample
        # at or below it
        percentiles = tuple(
            min(v for v in ns if 100 * sum(x <= v for x in ns) >= p * n) / 1000
            for p in PERCENTILES
        )
        mean_us = float(Fraction(sum(ns), 1000 * n))
        kind_stats[kind] = (n, mean_us, min(ns) / 1000, max(ns) / 1000, percentiles)
    energy: dict[EventKind, float] = {}
    busy_ns: dict = {}
    for e in result.schedule:  # schedule order
        energy[e.kind] = energy.get(e.kind, 0.0) + e.energy_uj
        if e.resource is not None:
            busy_ns[e.resource] = busy_ns.get(e.resource, 0) + e.duration_ns
    return kind_stats, energy, busy_ns


# whole nanoseconds, expressed in microseconds, from zero up to 3 us, so
# that sub-microsecond events occur often
_NS_AS_US = st.integers(0, 3000).map(lambda ns: ns / 1000)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n_commands=st.integers(1, 40),
    kinds=st.sampled_from(
        [
            tuple(CommandKind),
            (CommandKind.READ,),
            (CommandKind.READ, CommandKind.WRITE, CommandKind.CACHE_READ),
        ]
    ),
    timing=st.builds(
        TimingParams,
        t_cmd=_NS_AS_US,
        t_sense=_NS_AS_US,
        t_prog=_NS_AS_US,
        t_erase=_NS_AS_US,
        t_bus_per_byte=st.integers(0, 20).map(lambda ns: ns / 1000),
        t_buf=_NS_AS_US,
    ),
    power=st.builds(
        PowerParams,
        **{name: st.integers(0, 90).map(float) for name in PowerParams._fields},
    ),
    die_serialization=st.booleans(),
    cmd_overhead_on_bus=st.booleans(),
)
def test_build_report_matches_a_brute_force_reference(
    seed, n_commands, kinds, timing, power, die_serialization, cmd_overhead_on_bus
):
    g = Geometry(2, 1, 2, 2, 4, 8, 512, 16)
    trace = random_trace(random.Random(seed), g, n_commands, kinds, max_arrival_us=20)
    policy = Policy(
        die_serialization=die_serialization, cmd_overhead_on_bus=cmd_overhead_on_bus
    )
    result = run(trace, g, ALL_KINDS, ModelSet(timing, power), policy)
    report = build_report(result)
    kind_stats, energy, busy_ns = _reference_aggregates(result)

    assert [s.kind for s in report.kind_stats] == [k for k in CommandKind if k in kind_stats]
    for s in report.kind_stats:
        count, mean_us, min_us, max_us, percentiles = kind_stats[s.kind]
        assert (s.count, s.min_us, s.max_us) == (count, min_us, max_us)
        assert s.percentiles_us == percentiles, s.kind
        assert s.mean_us == pytest.approx(mean_us, rel=1e-12)
    # each kind's total bit for bit, in declaration order
    assert [(k, v.hex()) for k, v in report.energy_by_kind] == [
        (k, energy[k].hex()) for k in EventKind if k in energy
    ]
    assert {u.resource: u.busy_us for u in report.usage} == {
        resource: ns / 1000 for resource, ns in busy_ns.items() if ns
    }
    for u in report.usage:
        assert u.utilization == u.busy_us / report.makespan_us


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
    out = io.StringIO()
    with pytest.raises(ValueError, match="unknown report format"):
        write_report(report, out, "yaml")
    assert out.getvalue() == ""


def _reference_structured(report) -> str:
    """The structured report built key by key from the report's own records,
    one dict per row, and rendered whole by json.dumps(doc, indent=2); the
    event log is in it when the report has one."""
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
    if report.events is not None:
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
    # about 1.2 * 10**15 ns a sense, so that 96 senses in a row (12 cache
    # reads of 8 pages) after the latest first arrival drawn below still end
    # before 2**63 ns
    "huge_sense": ModelSet(TimingParams(t_sense=1234567890123.457)),
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
    first_arrival_ns=st.sampled_from([None, 10**15 - 150_000, 9 * 10**18 + 1]),
    expected=st.just(""),
)
@example(seed=0, n_commands=0, policy=Policy(), models="builtin",
         first_arrival_ns=None, expected='"events": []')
@example(seed=1, n_commands=2, policy=Policy(cmd_overhead_on_bus=False),
         models="builtin", first_arrival_ns=None, expected='"resource": null')
@example(seed=2, n_commands=4, policy=Policy(), models="huge_sense",
         first_arrival_ns=None, expected='"duration_us": 1234567890123.457,')
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
         first_arrival_ns=9 * 10**18, expected='"start_us": 9000000000000000.0,')
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
    report = build_report(result, idle_accounting(result, geometry, model_set))
    rendered = emit(report, "structured")
    assert rendered == _reference_structured(report)
    assert expected in rendered
    bare = report._replace(events=None)
    assert emit(bare, "structured") == _reference_structured(bare)


def _reference_table(report: Report) -> str:
    """The table report with its event log's lines rendered one by one from
    the log's `ScheduledEvent`s by the table's row formula; the lines before
    the log are the writer's own."""
    text = emit(report._replace(events=None), "table")
    if report.events is None:
        return text
    header = "\nevent log (start us, duration us, kind, target, resource, energy uJ)\n"
    return text + header + "".join(
        f"{e.start_ns / 1000:>12.3f}{e.duration_ns / 1000:>12.3f}  {e.kind.value:<18}"
        f"{str(e.target):<16}{'-' if e.resource is None else e.resource.label:<16}"
        f"{e.energy_uj:>10.3f}\n"
        for e in list(report.events)
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_commands=st.integers(0, 12),
    policy=_POLICIES,
    models=st.sampled_from(sorted(_MODELS)),
    first_arrival_ns=st.sampled_from([None, 10**15 - 150_000, 9 * 10**18 + 1]),
)
@example(seed=1, n_commands=2, policy=Policy(cmd_overhead_on_bus=False),
         models="builtin", first_arrival_ns=None)
@example(seed=2, n_commands=4, policy=Policy(), models="huge_sense", first_arrival_ns=None)
@example(seed=4, n_commands=3, policy=Policy(), models="negative_zero",
         first_arrival_ns=None)
@example(seed=5, n_commands=8, policy=Policy(), models="signed_zeros",
         first_arrival_ns=None)
@example(seed=7, n_commands=4, policy=Policy(die_serialization=True), models="expressions",
         first_arrival_ns=9 * 10**18 + 1)
def test_table_event_log_has_the_bytes_of_its_reference(
    seed, n_commands, policy, models, first_arrival_ns
):
    geometry = Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
    trace = random_trace(random.Random(seed), geometry, n_commands)
    if first_arrival_ns is not None and trace:
        shift = first_arrival_ns - trace[0].arrival_ns
        trace = [c._replace(arrival_ns=c.arrival_ns + shift) for c in trace]
    model_set = _MODELS[models]
    result = run(trace, geometry, ALL_KINDS, model_set, policy)
    report = build_report(result, idle_accounting(result, geometry, model_set))
    assert emit(report, "table") == _reference_table(report)
    # a hand-built report's list of records writes as the run's own log
    listed = report._replace(events=list(result.schedule))
    for fmt in ("structured", "table"):
        assert emit(listed, fmt) == emit(report, fmt)


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
    for rendered in (report._replace(events=None), report):
        assert emit(rendered, "structured") == _reference_structured(rendered)
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


# Floats that json.dumps spells in its own way or that sit at the ends of
# the range: a signed zero, the least subnormal, a huge one and the three
# non-finite values.
_JSON_FLOATS = (-0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan)

# Trees of the values a report's head and summaries hold, strings with
# quotes, backslashes, control and non-ASCII characters included.
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(_JSON_FLOATS)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300)
@given(value=_json_values)
@example(value={"a": [], "b": {}, "c": [[], {}], "d": [{"e": [1, True, None]}]})
@example(value=list(_JSON_FLOATS))
@example(value={'"key\\\n': '"\\\x00\x1f\x7f \u00e9\u4e2d\U0001f600'})
def test_json_text_has_the_bytes_of_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", _JSON_FLOATS, ids=repr)
def test_json_float_has_the_bytes_of_json_dumps(value):
    assert _json_float(value) == json.dumps(value)


def _report_with_rows(n: int) -> Report:
    """A report whose commands, warnings and events arrays have `n` rows
    each, told apart by their numbers, in order."""
    warnings = tuple(
        Violation(Rule.ERASE_BEFORE_WRITE, Severity.WARNING, f"warning {i}", i, i + 1)
        for i in range(n)
    )
    commands = tuple(
        CommandResult(i, CommandKind.READ, i * 1000, i * 1000 + 500, 0.5, warnings[i:i + 1])
        for i in range(n)
    )
    events = tuple(
        ScheduledEvent(i, 0, EventKind.ARRAY_SENSE, A(page=i % 8), Resource("plane", (0,)),
                       i * 1000, 500, 0.25)
        for i in range(n)
    )
    return _hand_built_report(commands, warnings)._replace(events=events)


@pytest.mark.parametrize(
    "n", [0, 1, 256, 257],
    ids=["empty", "one_row", "one_batch", "one_batch_and_one"],
)
@pytest.mark.parametrize("event_log", [False, True], ids=["bare", "events"])
@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_write_report_writes_what_emit_returns(n, event_log, fmt):
    report = _report_with_rows(n)
    if not event_log:
        report = report._replace(events=None)
    out = io.StringIO()
    write_report(report, out, fmt)
    written = out.getvalue()
    assert written == emit(report, fmt)
    if fmt == "structured":
        assert written == _reference_structured(report)
        return
    # every warning and event is on one line of its own, once and in order
    lines = written.splitlines()
    assert [line for line in lines if line.startswith("  line ")] == [
        f"  line {i + 1}: warning {i} [erase_before_write]" for i in range(n)
    ]
    if event_log:
        log = lines[lines.index(
            "event log (start us, duration us, kind, target, resource, energy uJ)") + 1:]
        assert [float(line.split()[0]) for line in log] == [float(i) for i in range(n)]
    else:
        assert "event log" not in written


class _CountingSink:
    """A text stream that keeps nothing but the number of characters written."""

    def __init__(self):
        self.length = 0

    def write(self, text: str) -> int:
        self.length += len(text)
        return len(text)


@pytest.mark.parametrize("fmt", ["structured", "table"])
def test_write_report_memory_does_not_grow_with_the_report(geometry, models, fmt):
    # a report rendered whole would hold all of its text, and its rows too
    trace = random_trace(random.Random(4), geometry, 2500)
    report = build_report(run(trace, geometry, ALL_KINDS, models))
    assert len(report.events) > 8000
    sink = _CountingSink()
    tracemalloc.start()
    try:
        write_report(report, sink, fmt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.length == len(emit(report, fmt))
    assert peak < 0.06 * sink.length
