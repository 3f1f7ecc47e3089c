from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flashsim.commands import EventKind
from flashsim.topology import FlashAddress, Geometry
from flashsim.errors import ModelEvaluationError, NegativeResultError
from flashsim.models import (
    _PRICES_KEPT,
    VARIABLE_ORDER,
    EventContext,
    ModelSet,
    PowerParams,
    TimingParams,
    parse_latency_expression,
    parse_power_expression,
)

from test_expr import SOURCES


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
    # every parameter, when built and through _replace and _make, with the
    # same text
    for params in (TimingParams, PowerParams):
        for value in (-1.0, -0.5, math.nan, math.inf, -math.inf):
            for name in params._fields:
                expected = f"{name} must be finite and >= 0, got {value}"
                with pytest.raises(ValueError) as caught:
                    params(**{name: value})
                assert str(caught.value) == expected
                with pytest.raises(ValueError) as caught:
                    params()._replace(**{name: value})
                assert str(caught.value) == expected
                with pytest.raises(ValueError) as caught:
                    params._make(value if field == name else default
                                 for field, default in params._field_defaults.items())
                assert str(caught.value) == expected


def test_parameters_keep_their_defaults_and_keywords():
    assert TimingParams() == (0.0, 25.0, 200.0, 1500.0, 0.025, 0.0)
    assert TimingParams(t_bus_per_byte=0.5).t_bus_per_byte == 0.5
    assert PowerParams(1.0, p_idle_bus=2.0) == (1.0, 30.0, 40.0, 50.0, 20.0, 0.0, 0.0, 2.0)
    with pytest.raises(TypeError):
        TimingParams(t_bogus=1.0)


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


def test_a_context_passes_its_variables_in_binding_order():
    # latency_us and energy_uj pass a context's fields 1..9 as the first
    # nine variables, so the record's fields must keep that order
    assert EventContext._fields[1:10] == VARIABLE_ORDER[:9]


def test_the_config_variables_are_named_as_written():
    # VARIABLE_ORDER takes the address's names from FlashAddress, so renaming
    # one of its fields would rename a variable every config may read
    assert VARIABLE_ORDER == (
        "byte_count", "page_size", "oob_size",
        "channel", "chip", "die", "plane", "block", "page",
        "duration",
    )


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
        duration_ns = round(models.latency_us(context) * 1000)
        energy = models.energy_uj(
            EventContext.for_event(
                EventKind.BUS_TRANSFER_OUT, target, byte_count, g, duration_ns / 1000
            )
        )
        got = price.entry(EventKind.BUS_TRANSFER_OUT, byte_count)[0](target)
        assert got == (duration_ns, energy), byte_count


# two targets that differ in every address index
ENTRY_GEOMETRY = Geometry(2, 2, 2, 2, 4, 8, 4096, 128)
ENTRY_TARGETS = (FlashAddress(0, 0, 0, 0, 1, 2), FlashAddress(1, 1, 1, 1, 3, 5))


@pytest.mark.parametrize(
    "latency_exprs, power_exprs, kind, byte_count",
    [
        ({}, {}, EventKind.BUS_TRANSFER_IN, 4096),
        ({}, {}, EventKind.ARRAY_PROGRAM, 0),
        (
            {EventKind.ARRAY_SENSE: "25 + byte_count / page_size + oob_size"},
            {EventKind.ARRAY_SENSE: "duration * 0.03"},
            EventKind.ARRAY_SENSE,
            512,
        ),
    ],
    ids=["builtin_bus", "builtin_array", "address_free_expression"],
)
def test_pricer_entry_folds_the_price_of_a_kind_that_reads_no_address(
    latency_exprs, power_exprs, kind, byte_count
):
    models = ModelSet(
        latency_exprs={k: parse_latency_expression(t) for k, t in latency_exprs.items()},
        power_exprs={k: parse_power_expression(t) for k, t in power_exprs.items()},
    )
    function, pair = models.pricer(ENTRY_GEOMETRY).entry(kind, byte_count)
    assert pair is not None
    assert [function(target) for target in ENTRY_TARGETS] == [pair, pair]


def test_pricer_entry_folds_no_price_for_a_binding_that_reads_an_address():
    kind = EventKind.ARRAY_SENSE
    models = ModelSet(latency_exprs={kind: parse_latency_expression("25 + page")})
    function, pair = models.pricer(ENTRY_GEOMETRY).entry(kind, 0)
    assert pair is None
    assert [function(target)[0] for target in ENTRY_TARGETS] == [27_000, 30_000]


def test_pricer_entry_folds_no_price_for_a_failing_binding_and_raises_per_call():
    kind = EventKind.BLOCK_ERASE
    models = ModelSet(power_exprs={kind: parse_power_expression("-duration")})
    function, pair = models.pricer(ENTRY_GEOMETRY).entry(kind, 0)
    assert pair is None
    for target in ENTRY_TARGETS + ENTRY_TARGETS:
        with pytest.raises(ModelEvaluationError) as raised:
            function(target)
        assert raised.value.key == "[power] block_erase"


ADDRESS = ("channel", "chip", "die", "plane", "block", "page")

# Latency sources may not read duration; the same grammar with duration
# spelled page_size instead.
LATENCY_SOURCES = SOURCES.map(lambda source: source.replace("duration", "page_size"))


@st.composite
def pricing_cases(draw):
    """A kind, a geometry, a byte count and targets inside the geometry: two
    drawn ones, each again with one index redrawn (the same memo key when
    the bindings do not read that index), and the first once more."""
    counts = [draw(st.integers(1, 4)) for _ in range(6)]
    geometry = Geometry(*counts, draw(st.integers(1, 8192)), draw(st.integers(0, 256)))
    targets = [
        FlashAddress(*(draw(st.integers(0, count - 1)) for count in counts))
        for _ in range(2)
    ]
    for target in targets[:2]:
        level = draw(st.integers(0, 5))
        index = draw(st.integers(0, counts[level] - 1))
        indices = [index if i == level else x for i, x in enumerate(target)]
        targets.append(FlashAddress(*indices))
    targets.append(targets[0])
    kind = draw(st.sampled_from(list(EventKind)))
    return kind, geometry, draw(st.integers(0, 1 << 16)), targets


def _reference(latency, power, kind, geometry, byte_count, target):
    """What pricing one event must give: Python's own float arithmetic on
    the two sources, checked and rounded as the pricing contract says."""
    env = {
        "byte_count": float(byte_count),
        "page_size": float(geometry.page_size),
        "oob_size": float(geometry.oob_size),
        **{name: float(getattr(target, name)) for name in ADDRESS},
    }
    space = {"__builtins__": {}, "min": min, "max": max}
    latency_key, power_key = f"[performance] {kind.value}", f"[power] {kind.value}"
    try:
        duration_us = eval(latency, space, env)
    except ZeroDivisionError:
        return ModelEvaluationError, f"{latency_key}: division by zero in expression"
    if not 0 <= duration_us < math.inf:
        return NegativeResultError, f"{latency_key}: evaluated to {duration_us}"
    if not duration_us * 1000 < 2**63:
        return ModelEvaluationError, (
            f"{latency_key}: evaluated to {duration_us} us, which overflows in nanoseconds"
        )
    duration_ns = round(duration_us * 1000)
    try:
        energy = eval(power, space, {**env, "duration": duration_ns / 1000})
    except ZeroDivisionError:
        return ModelEvaluationError, f"{power_key}: division by zero in expression"
    if not 0 <= energy < math.inf:
        return NegativeResultError, f"{power_key}: evaluated to {energy}"
    return duration_ns, float.hex(energy)


def _outcome(entry, target):
    # float.hex tells the two zeros apart and rejects an int
    try:
        duration_ns, energy = entry(target)
    except ModelEvaluationError as exc:
        return type(exc), str(exc)
    assert type(duration_ns) is int
    return duration_ns, float.hex(energy)


# (block, page) 1.2, 0.3, then 0.2 and 1.3, which repeat a bindings' key
# that reads only the page, and 1.2 again
_CASE = (EventKind.ARRAY_SENSE, Geometry(1, 1, 1, 1, 2, 4, 4096, 128), 4096,
         [FlashAddress(0, 0, 0, 0, *offsets) for offsets in
          ((1, 2), (0, 3), (0, 2), (1, 3), (1, 2))])


@settings(max_examples=300, deadline=None)
@given(LATENCY_SOURCES, SOURCES, pricing_cases())
# an infinite literal times zero is NaN, which the check names
@example("1e400 * 0 + 1", "duration", _CASE)
@example("25.0", "1e400 * 0 + 1", _CASE)
# signed zeros: -0.0 passes the range check, so the energy keeps its sign,
# also when a repeated key reads it from the memo
@example("-0.0 * page", "max(-0.0, 0.0) * duration", _CASE)
# an address read by one tree only still makes the kind priced per event
@example("25.0 + block", "duration * 0.03", _CASE)
@example("25.0", "duration * page / 1000.0", _CASE)
# each failure, named after its binding: a division by zero, a negative
# and an infinite result, and latencies that reach 2**63 ns; a failing key
# raises again each time it repeats
@example("page_size / (3.0 - page)", "duration", _CASE)
@example("1.0", "duration / (page - 2.0)", _CASE)
@example("10.0 - 4.0 * page", "duration", _CASE)
@example("25.0", "1.0 - duration", _CASE)
@example("1e308 * 10.0", "duration", _CASE)
@example("25.0", "1e308 * duration", _CASE)
@example("1e306", "duration", _CASE)
@example("1e16", "duration", _CASE)
# the largest latency below 2**63 ns, and the next double, which reaches it
@example("9223372036854774.0", "duration", _CASE)
@example("9223372036854776.0", "duration", _CASE)
def test_pricing_kernel_is_python_float_arithmetic_bit_for_bit(latency, power, case):
    kind, geometry, byte_count, targets = case
    models = ModelSet(
        latency_exprs={kind: parse_latency_expression(latency)},
        power_exprs={kind: parse_power_expression(power)},
    )
    entry, _ = models.pricer(geometry).entry(kind, byte_count)
    read = models.latency_exprs[kind].variables | models.power_exprs[kind].variables
    stored: dict[tuple[int, ...], tuple[int, float]] = {}
    for target in targets:
        expected = _reference(latency, power, kind, geometry, byte_count, target)
        assert _outcome(entry, target) == expected, target
        if type(expected[0]) is int:
            # a key priced before gets the pair it was priced to
            key = tuple(i for name, i in zip(ADDRESS, target) if name in read)
            pair = entry(target)
            assert stored.setdefault(key, pair) is pair, target


def test_pricing_memo_is_emptied_at_its_cap_and_stays_exact():
    kind, cap = EventKind.ARRAY_PROGRAM, _PRICES_KEPT
    geometry = Geometry(1, 1, 1, 1, 1, 2 * cap + 3, 4096, 0)
    latency, power = "25.0 + page / 7.0", "duration * 0.03 + page"
    models = ModelSet(
        latency_exprs={kind: parse_latency_expression(latency)},
        power_exprs={kind: parse_power_expression(power)},
    )
    entry, _ = models.pricer(geometry).entry(kind, 0)
    targets = [FlashAddress(0, 0, 0, 0, 0, page) for page in range(2 * cap + 3)]
    first = entry(targets[0])
    for target in targets[1:cap]:
        entry(target)
    # the memo holds `cap` pairs: the first key's is still stored
    assert entry(targets[0]) is first
    # one key more empties it, so the first key is evaluated anew
    entry(targets[cap])
    again = entry(targets[0])
    assert again == first and again is not first
    for target in targets + targets[::-1]:
        expected = _reference(latency, power, kind, geometry, 0, target)
        assert _outcome(entry, target) == expected, target
