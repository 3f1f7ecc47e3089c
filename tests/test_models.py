from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashsim.commands import EventKind
from flashsim.topology import FlashAddress, Geometry
from flashsim.units import us_to_ns
from flashsim.errors import NegativeResultError
from flashsim.models import (
    EventContext,
    ModelSet,
    PowerParams,
    TimingParams,
    parse_latency_expression,
    parse_power_expression,
)


def ctx(kind, byte_count=0, duration_us=None, **addr):
    fields = dict(channel=0, chip=0, die=0, plane=0, block=0, page=0)
    fields.update(addr)
    return EventContext(
        kind, byte_count, 4096, 128,
        fields["channel"], fields["chip"], fields["die"],
        fields["plane"], fields["block"], fields["page"],
        duration_us,
    )


def test_builtin_latency_defaults(models):
    assert models.latency_us(ctx(EventKind.ARRAY_SENSE)) == 25.0
    assert models.latency_us(ctx(EventKind.ARRAY_PROGRAM)) == 200.0
    assert models.latency_us(ctx(EventKind.BLOCK_ERASE)) == 1500.0
    assert models.latency_us(ctx(EventKind.CMD_OVERHEAD)) == 0.0
    assert models.latency_us(ctx(EventKind.BUFFER_COPY)) == 0.0
    got = models.latency_us(ctx(EventKind.BUS_TRANSFER_OUT, byte_count=4096))
    assert got == 4096 * 0.025
    assert got == pytest.approx(102.4)


def test_builtin_energy_defaults(models):
    # 30 mW for 25 us is 0.75 uJ
    assert models.energy_uj(ctx(EventKind.ARRAY_SENSE, duration_us=25.0)) == 0.75
    assert (
        models.energy_uj(ctx(EventKind.BUS_TRANSFER_OUT, 4096, duration_us=102.4))
        == 20 * 102.4 / 1000
    )
    zeroed = ModelSet(power=PowerParams(p_sense=0.0))
    assert zeroed.energy_uj(ctx(EventKind.ARRAY_SENSE, duration_us=25.0)) == 0.0


def test_power_expression_matches_builtin(models):
    expr = parse_power_expression("0.030 * duration")
    custom = ModelSet(power_exprs={EventKind.ARRAY_SENSE: expr})
    context = ctx(EventKind.ARRAY_SENSE, duration_us=25.0)
    assert custom.energy_uj(context) == models.energy_uj(context) == 0.75


def test_duration_presence_is_enforced(models):
    with pytest.raises(ValueError):
        models.energy_uj(ctx(EventKind.ARRAY_SENSE))
    with pytest.raises(ValueError):
        models.latency_us(ctx(EventKind.ARRAY_SENSE, duration_us=25.0))


def test_negative_parameters_rejected():
    with pytest.raises(ValueError):
        TimingParams(t_sense=-1.0)
    with pytest.raises(ValueError):
        PowerParams(p_bus=-0.5)


def test_negative_expression_result_rejected_not_clamped():
    expr = parse_latency_expression("page - 10")
    custom = ModelSet(latency_exprs={EventKind.ARRAY_SENSE: expr})
    assert custom.latency_us(ctx(EventKind.ARRAY_SENSE, page=10)) == 0.0
    with pytest.raises(NegativeResultError):
        custom.latency_us(ctx(EventKind.ARRAY_SENSE, page=3))


def test_address_dependent_expression():
    expr = parse_latency_expression("25 + 0.001 * block")
    custom = ModelSet(latency_exprs={EventKind.ARRAY_SENSE: expr})
    assert custom.latency_us(ctx(EventKind.ARRAY_SENSE, block=2)) == 25 + 0.001 * 2


# expressions spelling out the built-in equations, one per event kind
BUILTIN_LATENCY_EXPRS = {
    EventKind.CMD_OVERHEAD: "0",
    EventKind.ARRAY_SENSE: "25",
    EventKind.ARRAY_PROGRAM: "200",
    EventKind.BLOCK_ERASE: "1500",
    EventKind.BUS_TRANSFER_IN: "0.025 * byte_count",
    EventKind.BUS_TRANSFER_OUT: "0.025 * byte_count",
    EventKind.BUFFER_COPY: "0",
}
BUILTIN_POWER_EXPRS = {
    EventKind.CMD_OVERHEAD: "0.000 * duration",
    EventKind.ARRAY_SENSE: "0.030 * duration",
    EventKind.ARRAY_PROGRAM: "0.040 * duration",
    EventKind.BLOCK_ERASE: "0.050 * duration",
    EventKind.BUS_TRANSFER_IN: "0.020 * duration",
    EventKind.BUS_TRANSFER_OUT: "0.020 * duration",
    EventKind.BUFFER_COPY: "0.000 * duration",
}

contexts = st.builds(
    ctx,
    st.sampled_from(list(EventKind)),
    byte_count=st.integers(0, 1 << 16),
    duration_us=st.floats(0, 1e5, allow_nan=False),
    channel=st.integers(0, 15),
    chip=st.integers(0, 15),
    die=st.integers(0, 7),
    plane=st.integers(0, 7),
    block=st.integers(0, 4095),
    page=st.integers(0, 255),
)


@settings(max_examples=300, deadline=None)
@given(contexts)
def test_builtin_and_expression_models_agree(context):
    builtin = ModelSet()
    rebuilt = ModelSet(
        latency_exprs={
            k: parse_latency_expression(t) for k, t in BUILTIN_LATENCY_EXPRS.items()
        },
        power_exprs={
            k: parse_power_expression(t) for k, t in BUILTIN_POWER_EXPRS.items()
        },
    )
    perf_ctx = ctx(
        context.kind, context.byte_count,
        channel=context.channel, chip=context.chip, die=context.die,
        plane=context.plane, block=context.block, page=context.page,
    )
    a, b = builtin.latency_us(perf_ctx), rebuilt.latency_us(perf_ctx)
    assert a == pytest.approx(b, rel=1e-9)
    assert a >= 0 and b >= 0
    ea, eb = builtin.energy_uj(context), rebuilt.energy_uj(context)
    assert ea == pytest.approx(eb, rel=1e-9)
    assert ea >= 0 and eb >= 0


@given(st.integers(0, 1 << 20))
def test_transfer_latency_is_linear_in_bytes(byte_count):
    models = ModelSet()
    one = models.latency_us(ctx(EventKind.BUS_TRANSFER_IN, byte_count=byte_count))
    two = models.latency_us(ctx(EventKind.BUS_TRANSFER_IN, byte_count=2 * byte_count))
    assert two == 2 * one


def test_purity(models):
    context = ctx(EventKind.BUS_TRANSFER_OUT, 4096)
    assert models.latency_us(context) == models.latency_us(context)


@pytest.mark.parametrize(
    "models",
    [
        ModelSet(),
        ModelSet(
            latency_exprs={
                EventKind.BUS_TRANSFER_OUT: parse_latency_expression("byte_count / 50")
            },
            power_exprs={
                EventKind.BUS_TRANSFER_OUT: parse_power_expression("duration + page_size")
            },
        ),
    ],
    ids=["builtin", "address_free_expression"],
)
def test_pricer_prices_each_byte_count_on_its_own(models):
    # address-free bindings are priced once per (kind, byte_count), and the
    # result must still follow the byte count
    g = Geometry(1, 1, 1, 1, 2, 4, 4096, 128)
    price = models.pricer(g)
    target = FlashAddress(0, 0, 0, 0, 1, 2)
    for byte_count in (4096, 512, 4096, 0):
        context = EventContext.for_event(
            EventKind.BUS_TRANSFER_OUT, target, byte_count, g
        )
        duration_ns = us_to_ns(models.latency_us(context))
        energy = models.energy_uj(
            EventContext.for_event(
                EventKind.BUS_TRANSFER_OUT, target, byte_count, g, duration_ns / 1000
            )
        )
        got = price.entry(EventKind.BUS_TRANSFER_OUT, byte_count)(target)
        assert got == (duration_ns, energy), byte_count
