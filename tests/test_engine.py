from __future__ import annotations

import io
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashsim import engine
from flashsim import models as models_module
from flashsim.commands import Command, CommandKind, EventKind
from flashsim.engine import (
    Policy,
    idle_accounting,
    replay,
    run,
)
from flashsim.errors import (
    ModelEvaluationError,
    Rule,
    Severity,
    TraceOrderError,
    ValidationFatal,
)
from flashsim.models import (
    ModelSet,
    PowerParams,
    TimingParams,
    parse_latency_expression,
    parse_power_expression,
)
from flashsim.stats import build_report, write_report
from flashsim.topology import FlashAddress, Geometry, Resource

from checks import ReferenceState, assert_schedule_legal
from conftest import ALL_KINDS, A
from gen import random_trace
from oracle import engine_events, oracle_events, oracle_schedule


def cmd(kind, *operands, page_count=1, arrival_us=0, seq=0):
    return Command(arrival_us * 1000, kind, tuple(operands), page_count, seq)


def run_checked(trace, geometry, models=None, policy=Policy(), supported=ALL_KINDS):
    models = models or ModelSet()
    result = run(trace, geometry, supported, models, policy)
    assert_schedule_legal(result, trace, geometry, policy)
    return result


class TestFixtureLatencies:
    # fixture model: t_cmd=0, t_sense=25, t_prog=200, t_erase=1500,
    # bus 0.025 us/B, page 4096 B => transfer 102.4 us

    def test_single_read_latency(self, geometry):
        result = run_checked([cmd(CommandKind.READ, A())], geometry)
        assert result.results[0].latency_ns == 127400  # 25 + 102.4 us
        assert result.makespan_ns == 127400

    def test_cache_read_3_pipeline(self, geometry):
        result = run_checked(
            [cmd(CommandKind.CACHE_READ, A(), page_count=3)], geometry
        )
        # 25 + 2*max(25, 102.4) + 102.4, and cheaper than three serial reads
        assert result.results[0].latency_ns == 332200
        assert result.results[0].latency_ns <= 3 * 127400

    def test_cache_read_1_equals_read(self, geometry):
        cache = run_checked([cmd(CommandKind.CACHE_READ, A())], geometry)
        read = run_checked([cmd(CommandKind.READ, A())], geometry)
        assert cache.results[0].latency_ns == read.results[0].latency_ns == 127400

    def test_multi_plane_read_two_planes_one_channel(self, geometry):
        result = run_checked(
            [cmd(CommandKind.MULTI_PLANE_READ, A(plane=0), A(plane=1))], geometry
        )
        # senses overlap, the two transfers serialize on the shared bus
        assert result.results[0].latency_ns == 229800
        senses = [
            e for e in result.schedule if e.kind is EventKind.ARRAY_SENSE
        ]
        assert [s.start_ns for s in senses] == [0, 0]
        transfers = [
            e for e in result.schedule if e.kind is EventKind.BUS_TRANSFER_OUT
        ]
        assert [(t.start_ns, t.end_ns) for t in transfers] == [
            (25000, 127400),
            (127400, 229800),
        ]

    def test_empty_trace(self, geometry, models):
        result = run_checked([], geometry)
        assert result.results == [] and result.schedule == []
        assert result.makespan_ns == 0
        idle = idle_accounting(result, geometry, models)
        assert all(v == 0.0 for v in idle.values())

    def test_copy_back_stays_off_the_bus(self, geometry):
        result = run_checked(
            [cmd(CommandKind.COPY_BACK, A(page=3), A(block=1, page=5))], geometry
        )
        assert all(e.resource.kind != "bus" for e in result.schedule if e.resource)
        # 0 + 25 (sense) + 0 (buffer) + 200 (program)
        assert result.results[0].latency_ns == 225000


class TestEnergy:
    def test_single_read_energy(self, geometry):
        result = run_checked([cmd(CommandKind.READ, A())], geometry)
        # 30 mW * 25 us + 20 mW * 102.4 us = 0.75 + 2.048 uJ
        assert result.results[0].energy_uj == pytest.approx(2.798, rel=1e-12)
        assert result.results[0].energy_uj == 0.75 + 2.048

    def test_energy_additivity(self, geometry):
        trace = random_trace(random.Random(3), geometry, 30)
        result = run_checked(trace, geometry)
        per_event = sum(e.energy_uj for e in result.schedule)
        per_command = sum(r.energy_uj for r in result.results)
        assert per_event == pytest.approx(per_command, rel=1e-12)

    def test_idle_energy_on_unused_channel(self, geometry):
        models = ModelSet(power=PowerParams(p_idle_bus=1.0))
        result = run_checked([cmd(CommandKind.READ, A())], geometry, models=models)
        idle = idle_accounting(result, geometry, models)
        # unused second channel idles for the whole 127.4 us makespan at 1 mW
        assert idle[Resource("bus", (1,))] == pytest.approx(0.1274, rel=1e-12)
        assert idle[Resource("bus", (0,))] == pytest.approx(
            (127.4 - 102.4) / 1000, rel=1e-12
        )

    def test_idle_zero_without_idle_power(self, geometry, models):
        result = run_checked([cmd(CommandKind.READ, A())], geometry)
        idle = idle_accounting(result, geometry, models)
        # every entry would be 0.0, which the report reads for a missing one
        assert idle == {}

    def test_idle_accounting_without_idle_power_is_bounded_by_the_trace(self):
        # 200 buses and 200,000 planes, of which one read touches two
        g = Geometry(200, 1000, 1, 1, 4, 8, 4096)
        result = run_checked([cmd(CommandKind.READ, A())], g)
        tracemalloc.start()
        try:
            report = build_report(result, idle_accounting(result, g, ModelSet()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [u.resource.label for u in report.usage] == ["bus/0", "plane/0.0.0.0"]
        assert report.idle_energy_uj == 0.0
        assert peak < 1_000_000

    def test_negative_zero_idle_power_keeps_its_sign(self, geometry):
        models = ModelSet(power=PowerParams(p_idle_plane=-0.0))
        result = run_checked([cmd(CommandKind.READ, A())], geometry, models=models)
        report = build_report(result, idle_accounting(result, geometry, models))
        plane = next(u for u in report.usage if u.resource.kind == "plane")
        assert str(plane.idle_energy_uj) == "-0.0"

    def test_saturated_resource_has_zero_idle(self):
        g = Geometry(1, 1, 1, 1, 2, 4, 512, 0)
        models = ModelSet(power=PowerParams(p_idle_plane=5.0))
        result = run_checked([cmd(CommandKind.ERASE, A())], g, models=models)
        idle = idle_accounting(result, g, models)
        # the erase occupies the only plane for the entire makespan
        assert idle[Resource("plane", (0, 0, 0, 0))] == 0.0

    def test_idle_accounting_counts_the_resources_the_run_scheduled(self):
        g = Geometry(1, 1, 2, 2, 4, 4, 4096)
        models = ModelSet(power=PowerParams(p_idle_plane=1.0))
        trace = [
            cmd(CommandKind.READ, A(die=0), seq=0),
            cmd(CommandKind.READ, A(die=1), seq=1),
        ]
        result = run_checked(trace, g, models=models, policy=Policy(die_serialization=True))
        report = build_report(result, idle_accounting(result, g, models))
        # the run placed its senses on dies, so the dies, not their planes,
        # idle for the 229.8 us makespan less each one's 25 us sense
        labels = [u.resource.label for u in report.usage]
        assert labels == ["bus/0", "die/0.0.0", "die/0.0.1"]
        assert [u.idle_energy_uj for u in report.usage[1:]] == pytest.approx(
            [0.2048, 0.2048], rel=1e-12
        )
        assert report.total_energy_uj == pytest.approx(6.0056, rel=1e-12)


class TestScheduleProperties:
    def test_determinism(self, geometry):
        trace = random_trace(random.Random(17), geometry, 40)
        first = run_checked(trace, geometry)
        second = run_checked(trace, geometry)
        assert first.schedule == second.schedule
        assert first.results == second.results

    def test_legality_over_random_traces(self, geometry):
        for seed in range(10):
            trace = random_trace(random.Random(seed), geometry, 25)
            run_checked(trace, geometry)

    def test_commands_fifo_per_resource(self, geometry):
        # two reads of the same page: stages pipeline but never reorder
        trace = [
            cmd(CommandKind.READ, A(), seq=0),
            cmd(CommandKind.READ, A(), seq=1),
        ]
        result = run_checked(trace, geometry)
        by_resource = {}
        for e in result.schedule:
            if e.resource:
                by_resource.setdefault(e.resource, []).append(e.sequence_id)
        for order in by_resource.values():
            assert order == sorted(order)

    def test_causality_with_late_arrival(self, geometry):
        result = run_checked([cmd(CommandKind.READ, A(), arrival_us=50)], geometry)
        assert all(e.start_ns >= 50000 for e in result.schedule)
        assert result.results[0].latency_ns == 127400
        assert result.makespan_ns == 127400  # measured from first arrival

    def test_channels_run_in_parallel(self, geometry):
        # simultaneous commands on distinct channels never contend
        trace = [
            cmd(CommandKind.READ, A(channel=0), seq=0),
            cmd(CommandKind.READ, A(channel=1), seq=1),
        ]
        result = run_checked(trace, geometry)
        assert [r.latency_ns for r in result.results] == [127400, 127400]
        assert result.makespan_ns == 127400

    def test_chips_share_their_channel_bus(self, geometry):
        # two chips on one channel: senses overlap, transfers serialize
        trace = [
            cmd(CommandKind.READ, A(chip=0), seq=0),
            cmd(CommandKind.READ, A(chip=1), seq=1),
        ]
        result = run_checked(trace, geometry)
        senses = [e for e in result.schedule if e.kind is EventKind.ARRAY_SENSE]
        assert [s.start_ns for s in senses] == [0, 0]
        assert [r.latency_ns for r in result.results] == [127400, 229800]


class TestOracleEquivalence:
    GEOMETRIES = (
        Geometry(2, 1, 1, 2, 2, 4, 512, 16),
        Geometry(1, 2, 2, 2, 2, 4, 1024, 32),
        Geometry(2, 2, 1, 1, 2, 8, 2048, 64),
    )

    def test_fixture_examples_match_oracle(self, geometry, models):
        for trace in (
            [cmd(CommandKind.CACHE_READ, A(), page_count=3)],
            [cmd(CommandKind.MULTI_PLANE_READ, A(plane=0), A(plane=1))],
        ):
            result = run_checked(trace, geometry)
            expected = oracle_schedule(trace, geometry, models)
            got = {
                (e.sequence_id, e.event_id): (e.start_ns, e.end_ns)
                for e in result.schedule
            }
            assert got == expected

    def test_engine_matches_brute_force_scheduler(self):
        for seed in range(20):
            g = self.GEOMETRIES[seed % len(self.GEOMETRIES)]
            trace = random_trace(random.Random(100 + seed), g, 20)
            result = run_checked(trace, g)
            expected = oracle_schedule(trace, g, ModelSet())
            got = {
                (e.sequence_id, e.event_id): (e.start_ns, e.end_ns)
                for e in result.schedule
            }
            assert got == expected

    def test_oracle_agreement_under_randomized_models(self, geometry):
        for seed in range(10):
            rng = random.Random(900 + seed)
            models = ModelSet(
                timing=TimingParams(
                    t_cmd=rng.choice((0.0, 3.0, 7.5)),
                    t_sense=rng.uniform(5, 60),
                    t_prog=rng.uniform(100, 400),
                    t_erase=rng.uniform(800, 2500),
                    t_bus_per_byte=rng.choice((0.01, 0.025, 0.0333)),
                    t_buf=rng.choice((0.0, 1.5)),
                )
            )
            trace = random_trace(rng, geometry, 15)
            result = run_checked(trace, geometry, models=models)
            expected = oracle_schedule(trace, geometry, models)
            got = {
                (e.sequence_id, e.event_id): (e.start_ns, e.end_ns)
                for e in result.schedule
            }
            assert got == expected, f"seed {seed}"

    MODEL_SETS = {
        "builtin": ModelSet(),
        # reads the address: priced per event
        "address": ModelSet(
            latency_exprs={
                EventKind.ARRAY_SENSE: parse_latency_expression("20 + 3 * plane + die"),
                EventKind.BUS_TRANSFER_OUT: parse_latency_expression(
                    "byte_count / 40 + channel"
                ),
            },
            power_exprs={
                EventKind.ARRAY_PROGRAM: parse_power_expression(
                    "duration * (0.04 + 0.001 * block)"
                ),
            },
        ),
        # reads no address: priced once per (kind, byte_count)
        "address_free": ModelSet(
            latency_exprs={
                EventKind.ARRAY_SENSE: parse_latency_expression("page_size / 160"),
                EventKind.BUS_TRANSFER_IN: parse_latency_expression(
                    "(byte_count + oob_size) / 40"
                ),
            },
            power_exprs={
                EventKind.BLOCK_ERASE: parse_power_expression("0.05 * duration + 1"),
            },
        ),
    }
    POLICIES = (
        Policy(),
        Policy(cmd_overhead_on_bus=True),
        Policy(die_serialization=True),
        Policy(cmd_overhead_on_bus=True, die_serialization=True),
    )

    def test_oracle_agreement_under_policies(self, geometry):
        # the whole event, not only its timing: kind, target, resource,
        # start, duration and energy
        for name, models in self.MODEL_SETS.items():
            for seed in range(4):
                trace = random_trace(random.Random(42 + seed), geometry, 20)
                for policy in self.POLICIES:
                    result = run_checked(trace, geometry, models=models, policy=policy)
                    expected = oracle_events(trace, geometry, models, policy)
                    assert engine_events(result) == expected, (name, seed, policy)


class TestMetamorphic:
    """Relations between runs that hold whatever the scheduling discipline
    computes for one of them, so they check the engine without sharing a
    reading of that discipline with the brute-force oracle."""

    GEOMETRY = Geometry(2, 1, 2, 2, 2, 4, 512, 16)
    POLICY_STRATEGY = st.sampled_from(TestOracleEquivalence.POLICIES)
    MODELS_STRATEGY = st.sampled_from(sorted(TestOracleEquivalence.MODEL_SETS))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_commands=st.integers(1, 30),
        # a spread of 0 puts every command at instant 0
        spread_us=st.sampled_from([0, 3, 300]),
        delta_ns=st.integers(1, 10**12),
        models=MODELS_STRATEGY,
        policy=POLICY_STRATEGY,
    )
    def test_shifting_every_arrival_shifts_every_instant(
        self, seed, n_commands, spread_us, delta_ns, models, policy
    ):
        g = self.GEOMETRY
        models = TestOracleEquivalence.MODEL_SETS[models]
        trace = random_trace(
            random.Random(seed), g, n_commands, max_arrival_us=spread_us
        )
        shifted = [c._replace(arrival_ns=c.arrival_ns + delta_ns) for c in trace]
        base = run(trace, g, ALL_KINDS, models, policy)
        moved = run(shifted, g, ALL_KINDS, models, policy)
        # durations, energies and warnings ride along unchanged
        assert moved.results == [
            r._replace(
                arrival_ns=r.arrival_ns + delta_ns,
                completion_ns=r.completion_ns + delta_ns,
            )
            for r in base.results
        ]
        assert moved.schedule == [
            e._replace(start_ns=e.start_ns + delta_ns) for e in base.schedule
        ]
        assert moved.first_arrival_ns == base.first_arrival_ns + delta_ns
        assert moved.last_end_ns == base.last_end_ns + delta_ns
        assert moved.busy_ns == base.busy_ns
        assert moved.energy_by_kind == base.energy_by_kind

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_commands=st.integers(0, 20),
        n_appended=st.integers(1, 20),
        # a spread of 0 appends every command at the last arrival
        spread_us=st.sampled_from([0, 3, 300]),
        models=MODELS_STRATEGY,
        policy=POLICY_STRATEGY,
    )
    def test_appending_commands_leaves_earlier_ones_unchanged(
        self, seed, n_commands, n_appended, spread_us, models, policy
    ):
        g = self.GEOMETRY
        models = TestOracleEquivalence.MODEL_SETS[models]
        rng = random.Random(seed)
        trace = random_trace(rng, g, n_commands)
        last = trace[-1].arrival_ns if trace else 0
        appended = [
            c._replace(
                arrival_ns=last + c.arrival_ns, sequence_id=n_commands + c.sequence_id
            )
            for c in random_trace(rng, g, n_appended, max_arrival_us=spread_us)
        ]
        before = run(trace, g, ALL_KINDS, models, policy)
        after = run(trace + appended, g, ALL_KINDS, models, policy)
        assert after.results[:n_commands] == before.results
        kept = len(before.schedule)
        assert after.schedule[:kept] == before.schedule
        assert all(e.sequence_id >= n_commands for e in after.schedule[kept:])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_commands=st.integers(1, 30),
        spread_us=st.sampled_from([0, 3, 300]),
        models=MODELS_STRATEGY,
        cmd_overhead_on_bus=st.booleans(),
    )
    def test_die_serialization_makes_no_command_complete_earlier(
        self, seed, n_commands, spread_us, models, cmd_overhead_on_bus
    ):
        # A die's busy horizon is at least that of each of its planes, and
        # every event placed before it ends no earlier, so by induction over
        # the FIFO placement order no event starts or ends earlier.
        g = self.GEOMETRY
        models = TestOracleEquivalence.MODEL_SETS[models]
        trace = random_trace(
            random.Random(seed), g, n_commands, max_arrival_us=spread_us
        )
        apart, serialized = (
            run(
                trace,
                g,
                ALL_KINDS,
                models,
                Policy(die_serialization=dies, cmd_overhead_on_bus=cmd_overhead_on_bus),
            )
            for dies in (False, True)
        )
        assert [r.sequence_id for r in serialized.results] == [
            r.sequence_id for r in apart.results
        ]
        for before, after in zip(apart.results, serialized.results):
            assert after.completion_ns >= before.completion_ns
        assert serialized.last_end_ns >= apart.last_end_ns

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_commands=st.integers(1, 30),
        spread_us=st.sampled_from([0, 3, 300]),
        # TimingParams in field order, in whole nanoseconds (per byte for
        # t_bus_per_byte)
        params_ns=st.tuples(
            *[st.integers(0, 2_000_000)] * 4, st.integers(0, 50), st.integers(0, 2_000_000)
        ),
        k=st.integers(2, 9),
        policy=POLICY_STRATEGY,
    )
    # 1.001 us reads back as 1000.9999999999999 ns and 2.002 us as
    # 2001.9999999999998 ns, so a duration truncated, not rounded, breaks it
    @example(
        seed=0,
        n_commands=5,
        spread_us=0,
        params_ns=(0, 1001, 200_000, 1_500_000, 25, 0),
        k=2,
        policy=Policy(),
    )
    def test_scaling_every_latency_and_arrival_scales_every_instant(
        self, seed, n_commands, spread_us, params_ns, k, policy
    ):
        g = self.GEOMETRY

        def timing(scale):
            return TimingParams(*(scale * ns / 1000 for ns in params_ns))

        trace = random_trace(
            random.Random(seed), g, n_commands, max_arrival_us=spread_us
        )
        scaled = [c._replace(arrival_ns=k * c.arrival_ns) for c in trace]
        base = run(trace, g, ALL_KINDS, ModelSet(timing(1)), policy)
        large = run(scaled, g, ALL_KINDS, ModelSet(timing(k)), policy)
        # energy is left out: it is a float product of power and duration
        assert [
            (r.sequence_id, r.arrival_ns, r.completion_ns, r.latency_ns)
            for r in large.results
        ] == [
            (r.sequence_id, k * r.arrival_ns, k * r.completion_ns, k * r.latency_ns)
            for r in base.results
        ]
        assert [
            (e.sequence_id, e.event_id, e.resource, e.start_ns, e.duration_ns, e.end_ns)
            for e in large.schedule
        ] == [
            (e.sequence_id, e.event_id, e.resource, k * e.start_ns, k * e.duration_ns,
             k * e.end_ns)
            for e in base.schedule
        ]
        assert large.busy_ns == {r: k * ns for r, ns in base.busy_ns.items()}
        assert large.makespan_ns == k * base.makespan_ns

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 4),
        n=st.integers(1, 8),
        # TimingParams in field order, in whole nanoseconds (per byte for
        # t_bus_per_byte)
        params_ns=st.tuples(
            *[st.integers(0, 2_000_000)] * 4, st.integers(0, 50), st.integers(0, 2_000_000)
        ),
        cmd_overhead_on_bus=st.booleans(),
    )
    # the built-in parameters
    @example(
        k=4, n=8, params_ns=(0, 25_000, 200_000, 1_500_000, 25, 0), cmd_overhead_on_bus=False
    )
    def test_parallel_and_pipeline_bounds(self, k, n, params_ns, cmd_overhead_on_bus):
        g = Geometry(1, 1, 1, 4, 4, 8, 2048, 64)
        models = ModelSet(TimingParams(*(ns / 1000 for ns in params_ns)))
        policy = Policy(cmd_overhead_on_bus=cmd_overhead_on_bus)

        def makespan(*commands):
            trace = [c._replace(sequence_id=i) for i, c in enumerate(commands)]
            return run_checked(trace, g, models, policy).makespan_ns

        one = makespan(cmd(CommandKind.READ, A()))
        multi = makespan(
            cmd(CommandKind.MULTI_PLANE_READ, *(A(plane=p) for p in range(k)))
        )
        assert one <= multi <= k * one
        # never slower than k separate reads of its planes, queued together
        assert multi <= makespan(*(cmd(CommandKind.READ, A(plane=p)) for p in range(k)))
        cache = makespan(cmd(CommandKind.CACHE_READ, A(), page_count=n))
        assert cache <= n * one
        # never slower than n reads of its pages, queued together
        assert cache <= makespan(*(cmd(CommandKind.READ, A(page=i)) for i in range(n)))

    PERMUTED_GEOMETRY = Geometry(3, 3, 2, 2, 2, 4, 512, 16)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_commands=st.integers(1, 30),
        spread_us=st.sampled_from([0, 3, 300]),
        channels=st.permutations(range(3)),
        chips=st.tuples(*[st.permutations(range(3))] * 3),
        # models that read no address, so a command's place cannot price it
        models=st.sampled_from(["builtin", "address_free"]),
        policy=POLICY_STRATEGY,
    )
    def test_permuting_channels_and_chips_permutes_resources_only(
        self, seed, n_commands, spread_us, channels, chips, models, policy
    ):
        g = self.PERMUTED_GEOMETRY
        models = TestOracleEquivalence.MODEL_SETS[models]

        def moved(key):
            # channel c goes to channels[c], and chip i of channel c to
            # chips[c][i] of that channel; the rest of the key stays
            channel, *rest = key
            if rest:
                rest[0] = chips[channel][rest[0]]
            return (channels[channel], *rest)

        trace = random_trace(
            random.Random(seed), g, n_commands, max_arrival_us=spread_us
        )
        permuted = [
            c._replace(operands=tuple(FlashAddress(*moved(a)) for a in c.operands))
            for c in trace
        ]
        base = run(trace, g, ALL_KINDS, models, policy)
        other = run(permuted, g, ALL_KINDS, models, policy)
        # every field but the warnings, whose messages name addresses
        assert [r[:5] for r in other.results] == [r[:5] for r in base.results]
        assert [
            [(w.rule, w.severity) for w in r.warnings] for r in other.results
        ] == [[(w.rule, w.severity) for w in r.warnings] for r in base.results]
        assert other.schedule == [
            e._replace(
                target=FlashAddress(*moved(e.target)),
                resource=e.resource and e.resource._replace(key=moved(e.resource.key)),
            )
            for e in base.schedule
        ]
        assert other.busy_ns == {
            r._replace(key=moved(r.key)): ns for r, ns in base.busy_ns.items()
        }


class TestPolicies:
    def test_die_serialization_serializes_planes(self, geometry):
        trace = [cmd(CommandKind.MULTI_PLANE_READ, A(plane=0), A(plane=1))]
        free = run_checked(trace, geometry)
        serialized = run_checked(trace, geometry, policy=Policy(die_serialization=True))
        free_senses = sorted(
            e.start_ns for e in free.schedule if e.kind is EventKind.ARRAY_SENSE
        )
        locked_senses = sorted(
            e.start_ns for e in serialized.schedule if e.kind is EventKind.ARRAY_SENSE
        )
        assert free_senses == [0, 0]
        assert locked_senses == [0, 25000]

    def test_cmd_overhead_on_bus_occupies_the_bus(self, geometry):
        models = ModelSet()
        trace = [cmd(CommandKind.ERASE, A(), seq=0), cmd(CommandKind.ERASE, A(block=1), seq=1)]
        policy = Policy(cmd_overhead_on_bus=True)
        result = run_checked(trace, geometry, models=models, policy=policy)
        overheads = [e for e in result.schedule if e.kind is EventKind.CMD_OVERHEAD]
        assert all(e.resource == Resource("bus", (0,)) for e in overheads)

    def test_strict_policy_escalates_warnings(self, geometry):
        trace = [
            cmd(CommandKind.WRITE, A(), seq=0),
            Command(1000, CommandKind.WRITE, (A(),), 1, 1),
        ]
        relaxed = run_checked(trace, geometry)
        assert [w.rule for w in relaxed.warnings] == [Rule.ERASE_BEFORE_WRITE]
        assert relaxed.results[1].warnings[0].rule is Rule.ERASE_BEFORE_WRITE
        with pytest.raises(ValidationFatal) as excinfo:
            run(trace, geometry, ALL_KINDS, ModelSet(), Policy(strict=True))
        assert all(v.severity is Severity.WARNING for v in excinfo.value.violations)

    def test_structural_error_always_fatal(self, geometry, models):
        trace = [cmd(CommandKind.COPY_BACK, A(plane=0), A(plane=1))]
        with pytest.raises(ValidationFatal) as excinfo:
            run(trace, geometry, ALL_KINDS, models)
        assert excinfo.value.violations[0].rule is Rule.COPY_BACK_CROSS_PLANE

    def test_endurance_limit_flows_from_policy(self, geometry):
        trace = [
            cmd(CommandKind.ERASE, A(), arrival_us=i, seq=i) for i in range(3)
        ]
        result = run_checked(
            trace, geometry, policy=Policy(endurance_limit=2)
        )
        assert [w.rule for w in result.warnings] == [Rule.ENDURANCE_EXCEEDED]

    def test_unsorted_trace_rejected(self, geometry, models):
        trace = [
            cmd(CommandKind.READ, A(), arrival_us=10, seq=0),
            cmd(CommandKind.READ, A(), arrival_us=5, seq=1),
        ]
        with pytest.raises(TraceOrderError):
            run(trace, geometry, ALL_KINDS, models)

    def test_address_dependent_model_reorders_readiness(self, geometry):
        # plane 1's sense finishes first, but the bus still serves FIFO by
        # event id, so plane 0's transfer goes first
        slow_plane0 = ModelSet(
            latency_exprs={
                EventKind.ARRAY_SENSE: parse_latency_expression("25 + 100 * (1 - plane)")
            }
        )
        trace = [cmd(CommandKind.MULTI_PLANE_READ, A(plane=0), A(plane=1))]
        result = run_checked(trace, geometry, models=slow_plane0)
        expected = oracle_schedule(trace, geometry, slow_plane0)
        got = {
            (e.sequence_id, e.event_id): (e.start_ns, e.end_ns)
            for e in result.schedule
        }
        assert got == expected

    def test_busy_time_accounting(self, geometry):
        result = run_checked([cmd(CommandKind.READ, A())], geometry)
        busy = result.busy_ns
        assert busy[Resource("plane", (0, 0, 0, 0))] == 25000
        assert busy[Resource("bus", (0,))] == 102400


class ReadOnce:
    """An iterable over `items` that fails when it is iterated a second time."""

    def __init__(self, items):
        self.items = items
        self.iterated = False

    def __iter__(self):
        assert not self.iterated, "the trace was iterated twice"
        self.iterated = True
        yield from self.items


class TestOnePass:
    """`run` reads its trace once and checks each command's order as the
    command arrives."""

    @pytest.mark.parametrize("policy", TestOracleEquivalence.POLICIES)
    def test_a_trace_read_once_runs_as_its_list(self, geometry, policy):
        for seed in range(3):
            trace = random_trace(random.Random(70 + seed), geometry, 25)
            listed = run(trace, geometry, ALL_KINDS, ModelSet(), policy)
            assert run(ReadOnce(trace), geometry, ALL_KINDS, ModelSet(), policy) == listed
            assert run(iter(trace), geometry, ALL_KINDS, ModelSet(), policy) == listed
            assert run(
                (c for c in trace), geometry, ALL_KINDS, ModelSet(), policy, event_log=False
            ) == run(trace, geometry, ALL_KINDS, ModelSet(), policy, event_log=False)

    def test_an_empty_iterator_runs_as_an_empty_list(self, geometry, models):
        assert run(iter([]), geometry, ALL_KINDS, models) == run([], geometry, ALL_KINDS, models)

    @pytest.mark.parametrize(
        "first, second",
        [
            ((10, 0), (5, 1)),  # an earlier arrival
            ((10, 3), (10, 3)),  # an equal arrival and an equal sequence id
            ((10, 3), (10, 2)),  # an equal arrival and a lower sequence id
        ],
    )
    def test_a_command_out_of_order_is_refused(self, geometry, models, first, second):
        trace = [cmd(CommandKind.READ, A(), arrival_us=t, seq=seq) for t, seq in (first, second)]
        text = f"commands {first[1]} and {second[1]} are not in (arrival, sequence) order"
        with pytest.raises(TraceOrderError) as excinfo:
            run(trace, geometry, ALL_KINDS, models)
        assert str(excinfo.value) == text

    def test_an_equal_arrival_with_a_higher_sequence_id_is_in_order(self, geometry):
        trace = [cmd(CommandKind.READ, A(), arrival_us=10, seq=seq) for seq in (3, 4)]
        assert [r.sequence_id for r in run_checked(trace, geometry).results] == [3, 4]

    def test_an_out_of_order_command_is_refused_before_its_own_findings(self, geometry, models):
        trace = [
            cmd(CommandKind.READ, A(), arrival_us=10, seq=0),
            cmd(CommandKind.COPY_BACK, A(plane=0), A(plane=1), arrival_us=5, seq=1),
        ]
        with pytest.raises(TraceOrderError):
            run(trace, geometry, ALL_KINDS, models)

    def test_an_earlier_fatal_finding_is_raised_before_a_later_order_error(
        self, geometry, models
    ):
        trace = [
            cmd(CommandKind.COPY_BACK, A(plane=0), A(plane=1), arrival_us=0, seq=0),
            cmd(CommandKind.READ, A(), arrival_us=10, seq=1),
            cmd(CommandKind.READ, A(), arrival_us=5, seq=2),
        ]
        with pytest.raises(ValidationFatal) as excinfo:
            run(trace, geometry, ALL_KINDS, models)
        assert excinfo.value.violations[0].rule is Rule.COPY_BACK_CROSS_PLANE


class TestScale:
    def test_run_memory_follows_the_trace_not_the_geometry(self):
        # 2**40 planes: state sized by the geometry would not fit in memory
        planes = 2**40
        g = Geometry(1, 1, 1, planes, 1, 2, 512, 0)
        trace = [
            cmd(CommandKind.READ, A(plane=planes - 1), seq=0),
            cmd(CommandKind.WRITE, A(plane=7), arrival_us=1, seq=1),
        ]
        for policy in (Policy(), Policy(die_serialization=True)):
            result = run(trace, g, ALL_KINDS, ModelSet(), policy)
            assert len(result.results) == 2
        assert set(result.busy_ns) == {Resource("bus", (0,)), Resource("die", (0, 0, 0))}


class TestReplay:
    def test_erase_before_write_flagged_once_at_its_line(self, geometry):
        trace = [
            Command(0, CommandKind.WRITE, (A(page=1),), sequence_id=0, line=2),
            Command(0, CommandKind.WRITE, (A(page=1),), sequence_id=1, line=3),
        ]
        found = [v for _, vs in replay(trace, geometry, ALL_KINDS) for v in vs]
        assert [(v.rule, v.sequence_id, v.line) for v in found] == [
            (Rule.ERASE_BEFORE_WRITE, 1, 3)
        ]

    def test_command_with_an_error_changes_no_state(self, geometry):
        # the cross-plane copy-back is rejected, so its destination stays erased
        trace = [
            cmd(CommandKind.COPY_BACK, A(plane=0), A(plane=1, page=2), seq=0),
            cmd(CommandKind.WRITE, A(plane=1, page=2), seq=1),
        ]
        found = [
            (c.sequence_id, v.rule)
            for c, vs in replay(trace, geometry, ALL_KINDS)
            for v in vs
        ]
        assert found == [(0, Rule.COPY_BACK_CROSS_PLANE)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.sampled_from([None, 0, 2]),
        st.booleans(),
        st.sets(st.sampled_from(list(CommandKind)), min_size=1),
    )
    def test_replay_matches_a_replay_on_the_per_page_reference(
        self, seed, endurance_limit, initially_written, supported
    ):
        # two blocks of four pages per plane, so pages and blocks repeat;
        # kinds outside `supported` are errors and must change no state
        g = Geometry(2, 1, 2, 2, 2, 4, 512, 0)
        trace = random_trace(random.Random(seed), g, 60)
        policy = Policy(endurance_limit=endurance_limit, initially_written=initially_written)
        supported = frozenset(supported)

        def findings():
            return [
                (c.sequence_id, v)
                for c, vs in replay(trace, g, supported, policy)
                for v in vs
            ]

        found = findings()
        with mock.patch.object(engine, "SubsystemState", ReferenceState):
            assert found == findings()


class TestWithoutEventLog:
    MODEL_SETS = {
        "builtin": ModelSet(),
        # every kind priced by expression, some per event and some once per
        # (kind, byte count)
        "expression": ModelSet(
            latency_exprs={
                EventKind.CMD_OVERHEAD: parse_latency_expression("0.25 + die / 8"),
                EventKind.ARRAY_SENSE: parse_latency_expression("20 + 3 * plane + die"),
                EventKind.ARRAY_PROGRAM: parse_latency_expression("180 + page / 3"),
                EventKind.BLOCK_ERASE: parse_latency_expression("page_size / 3"),
                EventKind.BUS_TRANSFER_IN: parse_latency_expression(
                    "(byte_count + oob_size) / 40"
                ),
                EventKind.BUS_TRANSFER_OUT: parse_latency_expression(
                    "byte_count / 40 + channel"
                ),
                EventKind.BUFFER_COPY: parse_latency_expression("0.7"),
            },
            power_exprs={
                EventKind.ARRAY_SENSE: parse_power_expression("duration * 0.03"),
                EventKind.ARRAY_PROGRAM: parse_power_expression(
                    "duration * (0.04 + 0.001 * block)"
                ),
                EventKind.BUS_TRANSFER_OUT: parse_power_expression("0.1 / 3 * duration"),
            },
        ),
        # fails on the first event of a command that reads block 1
        "failing": ModelSet(
            latency_exprs={
                EventKind.ARRAY_SENSE: parse_latency_expression("25 / (block - 1)")
            }
        ),
    }

    @staticmethod
    def _outcome(trace, geometry, supported, models, policy, **kwargs):
        try:
            result = run(trace, geometry, supported, models, policy, **kwargs)
        except ValidationFatal as exc:
            return "fatal", str(exc), exc.violations
        except ModelEvaluationError as exc:
            return "model", str(exc), exc.line
        return result

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_commands=st.integers(0, 30),
        models=st.sampled_from(sorted(MODEL_SETS)),
        die_serialization=st.booleans(),
        cmd_overhead_on_bus=st.booleans(),
        strict=st.booleans(),
        supported=st.sampled_from(
            [ALL_KINDS, ALL_KINDS - {CommandKind.CACHE_WRITE, CommandKind.COPY_BACK}]
        ),
    )
    def test_a_run_without_its_event_log_computes_the_same_run(
        self,
        seed,
        n_commands,
        models,
        die_serialization,
        cmd_overhead_on_bus,
        strict,
        supported,
    ):
        g = Geometry(2, 1, 2, 2, 2, 4, 512, 16)
        trace = random_trace(random.Random(seed), g, n_commands)
        policy = Policy(
            strict=strict,
            die_serialization=die_serialization,
            cmd_overhead_on_bus=cmd_overhead_on_bus,
        )
        args = (trace, g, supported, self.MODEL_SETS[models], policy)
        logged = self._outcome(*args)
        bare = self._outcome(*args, event_log=False)
        if isinstance(logged, tuple):  # the same error, with the same message
            assert bare == logged
            return
        assert logged.event_log and len(logged.schedule) >= len(logged.results)
        assert not bare.event_log and bare.schedule == []
        assert bare.results == logged.results
        assert bare.busy_ns == logged.busy_ns
        assert bare.first_arrival_ns == logged.first_arrival_ns
        assert bare.last_end_ns == logged.last_end_ns
        # floats compared bit for bit
        assert [(k, v.hex()) for k, v in bare.energy_by_kind] == [
            (k, v.hex()) for k, v in logged.energy_by_kind
        ]


class TestEventLog:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_commands=st.integers(0, 20),
        models=TestMetamorphic.MODELS_STRATEGY,
        policy=TestMetamorphic.POLICY_STRATEGY,
    )
    def test_a_run_s_log_reads_as_the_list_of_its_events(
        self, seed, n_commands, models, policy
    ):
        g = TestMetamorphic.GEOMETRY
        trace = random_trace(random.Random(seed), g, n_commands)
        models = TestOracleEquivalence.MODEL_SETS[models]
        result = run(trace, g, ALL_KINDS, models, policy)
        log = result.schedule
        events = list(log)
        assert len(log) == len(events) >= n_commands
        assert log == events and events == log
        assert log == run(trace, g, ALL_KINDS, models, policy).schedule
        assert [log[i] for i in range(len(log))] == events
        assert [log[i] for i in range(-len(log), 0)] == events
        assert log[1:-1] == events[1:-1] and log[::-3] == events[::-3]
        for past_the_end in (len(log), -len(log) - 1):
            with pytest.raises(IndexError):
                log[past_the_end]
        if events:
            assert log[-1] == events[-1]
            assert log != events[:-1]
        assert log.__eq__(tuple(events)) is NotImplemented
        # a list of records reads back into the same columns
        listed = engine.EventLog.of(events)
        assert listed == log
        # and both write the same report: the run's log from its folded
        # steps, its priced pairs and its commands' operands, the listed
        # one from each event's own fields
        report = build_report(result)
        for fmt in ("structured", "table"):
            written, expected = io.StringIO(), io.StringIO()
            write_report(report, written, fmt)
            write_report(report._replace(events=listed), expected, fmt)
            assert written.getvalue() == expected.getvalue(), fmt

    @pytest.mark.parametrize("policy", TestOracleEquivalence.POLICIES)
    def test_resources_are_in_the_order_events_first_occupy_them(self, geometry, policy):
        # each command resolves its resources before placing its events;
        # the order must still be the order the schedule occupies them
        for seed in range(10):
            trace = random_trace(random.Random(seed), geometry, 30)
            result = run_checked(trace, geometry, policy=policy)
            first_use = list(
                dict.fromkeys(e.resource for e in result.schedule if e.resource is not None)
            )
            assert list(result.busy_ns) == first_use, seed
            assert result.schedule.resources == first_use, seed

    def test_a_log_that_was_not_kept_is_empty(self, geometry):
        trace = random_trace(random.Random(2), geometry, 5)
        for log in (
            run([], geometry, ALL_KINDS, ModelSet()).schedule,
            run(trace, geometry, ALL_KINDS, ModelSet(), event_log=False).schedule,
        ):
            assert log == [] and not log and list(log) == []
            for index in (0, -1):
                with pytest.raises(IndexError):
                    log[index]

    @pytest.mark.parametrize(
        "ids", [[(0, 1)], [(0, 0), (0, 2)], [(0, 0), (1, 1)]],
        ids=["no-first", "gap", "other-command"],
    )
    def test_records_numbered_as_no_run_numbers_them_are_refused(self, ids):
        events = [
            engine.ScheduledEvent(seq, event_id, EventKind.CMD_OVERHEAD, A(), None, 0, 0, 0.0)
            for seq, event_id in ids
        ]
        with pytest.raises(ValueError, match="does not follow"):
            engine.EventLog.of(events)

    # a start below 0, an end at 2**63 ns and a start there
    @pytest.mark.parametrize("start,duration", [(-1, 1), (2**63 - 1, 1), (2**63, 0)])
    def test_records_outside_the_time_domain_are_refused(self, start, duration):
        inside = engine.ScheduledEvent(0, 0, EventKind.CMD_OVERHEAD, A(), None, 0, 0, 0.0)
        last = engine.ScheduledEvent(0, 1, EventKind.CMD_OVERHEAD, A(), None, start,
                                     duration, 0.0)
        assert len(engine.EventLog.of([inside, last._replace(start_ns=2**63 - 2)])) == 2
        with pytest.raises(
            ValueError, match=r"^event 1 of command 0 does not start and end within "
        ):
            engine.EventLog.of([inside, last])


class TestCacheChain:
    """A cache kind is compiled as one chain per run, and a cache command of
    n pages runs its first 2n + 1 steps."""

    GEOMETRY = Geometry(2, 1, 2, 2, 2, 16, 512, 16)
    # rise, fall and repeat, so that shorter commands run prefixes of a
    # chain that has already grown
    EXTENTS = (8, 3, 8, 12, 5, 12, 1)

    def chain_trace(self):
        trace = []
        for i, n in enumerate(self.EXTENTS):
            for j, kind in enumerate((CommandKind.CACHE_READ, CommandKind.CACHE_WRITE)):
                # a first page that keeps the extent inside its 16-page block
                start = A(channel=i % 2, die=j, plane=i % 2, block=j, page=i % (17 - n))
                trace.append(
                    Command(i * 40_000, kind, (start,), n, sequence_id=len(trace))
                )
        return trace

    @pytest.mark.parametrize("policy", TestOracleEquivalence.POLICIES)
    @pytest.mark.parametrize("models", sorted(TestOracleEquivalence.MODEL_SETS))
    def test_rising_and_falling_extents_match_the_oracle(self, models, policy):
        g, trace = self.GEOMETRY, self.chain_trace()
        models = TestOracleEquivalence.MODEL_SETS[models]
        result = run_checked(trace, g, models=models, policy=policy)
        assert engine_events(result) == oracle_events(trace, g, models, policy)
        log = result.schedule
        assert list(log.counts()) == [2 * n + 1 for n in self.EXTENTS for _ in range(2)]
        # the first three cache reads keep the 8-page chain, the later ones
        # the 12-page chain
        assert log.steps[0] is log.steps[2] is log.steps[4]
        assert len(log.steps[0]) == 17 and len(log.steps[-2]) == 25
        assert log.steps[6] is log.steps[-2]
        listed = engine.EventLog.of(list(log))
        assert listed == log
        report = build_report(result)
        for fmt in ("structured", "table"):
            written, expected = io.StringIO(), io.StringIO()
            write_report(report, written, fmt)
            write_report(report._replace(events=listed), expected, fmt)
            assert written.getvalue() == expected.getvalue(), fmt

    @pytest.mark.parametrize("cmd_overhead_on_bus", [False, True])
    def test_each_shape_is_built_once_and_each_chain_once_per_longer_extent(
        self, cmd_overhead_on_bus
    ):
        g = self.GEOMETRY
        trace = self.chain_trace()[:4] + random_trace(random.Random(5), g, 200)[4:]
        trace = [c._replace(arrival_ns=i, sequence_id=i) for i, c in enumerate(trace)]
        expected = []
        built: dict[tuple, int] = {}
        for c in trace:
            key = (c.kind, len(c.operands))
            if built.get(key, 0) < c.page_count:
                built[key] = c.page_count
                expected.append(
                    mock.call(c.kind, len(c.operands), c.page_count, cmd_overhead_on_bus)
                )
        policy = Policy(cmd_overhead_on_bus=cmd_overhead_on_bus)
        with mock.patch.object(engine, "shape", wraps=engine.shape) as spy:
            run(trace, g, ALL_KINDS, ModelSet(), policy)
        assert spy.call_args_list == expected
        assert len(expected) < len(trace)


class TestFoldedPrices:
    def test_built_in_pricing_runs_once_per_kind_and_byte_count(self, geometry, monkeypatch):
        # every built-in binding reads no address, so each generated
        # function is called once, when its shape is compiled
        calls: list[int] = []

        class CountingEmitter(models_module.Emitter):
            def function(self, params, result):
                function = super().function(params, result)

                def counted(*args):
                    calls.append(1)
                    return function(*args)

                return counted

        monkeypatch.setattr(models_module, "Emitter", CountingEmitter)
        trace = random_trace(random.Random(3), geometry, 300)
        result = run(trace, geometry, ALL_KINDS, ModelSet())
        # a built-in kind has one byte count: a page for a bus transfer, else 0
        assert len(result.schedule) > 600
        assert len(calls) == len({e.kind for e in result.schedule}) == len(EventKind)

    @pytest.mark.parametrize("models", sorted(TestOracleEquivalence.MODEL_SETS))
    def test_the_log_keeps_a_price_only_for_an_event_priced_on_its_own(
        self, geometry, models
    ):
        # a folded step's events keep no pair and need no target, so a
        # command whose steps are all folded builds no page address of its
        # extent; only the "address" models price events by their target
        trace = random_trace(random.Random(3), geometry, 300)
        assert sum(c.page_count > 1 for c in trace) > 10
        model_set = TestOracleEquivalence.MODEL_SETS[models]
        with mock.patch.object(engine, "event_targets", wraps=engine.event_targets) as spy:
            log = run(trace, geometry, ALL_KINDS, model_set).schedule
        priced = {EventKind.ARRAY_SENSE, EventKind.BUS_TRANSFER_OUT, EventKind.ARRAY_PROGRAM}
        erasing = {CommandKind.ERASE, CommandKind.MULTI_PLANE_ERASE, CommandKind.INTERLEAVED_ERASE}
        if models == "address":  # an erase's steps are all folded
            assert spy.call_count == sum(c.kind not in erasing for c in trace)
            assert len(log.prices) == sum(e.kind in priced for e in log) > 300
        else:
            assert spy.call_count == 0
            assert log.prices == [] and len(log) > 600
