from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashsim.commands import Command, CommandKind, validate
from flashsim.errors import (
    AddressRangeError,
    GeometryError,
    Rule,
    Severity,
    TraceParseError,
    Violation,
)
from flashsim.topology import (
    FlashAddress,
    Geometry,
    PageState,
    Resource,
    SubsystemState,
    decode,
    encode,
    validate_geometry,
)
from flashsim.trace_io import TRACE_HEADER, parse_trace

from checks import ReferenceState
from conftest import A
from oracle import enumerated_addresses, enumerated_index_map


def test_address_renders_dotted_and_is_a_tuple_of_its_indices():
    addr = FlashAddress(1, 0, 3, 2, 1023, 2**40)
    assert str(addr) == f"{addr}" == "1.0.3.2.1023.1099511627776"
    assert addr == (1, 0, 3, 2, 1023, 2**40)
    assert addr[4] == addr.block == 1023
    assert tuple(addr) == (1, 0, 3, 2, 1023, 2**40)
    assert addr[:4] == (1, 0, 3, 2)
    assert hash(addr) == hash(FlashAddress(1, 0, 3, 2, 1023, 2**40))


def test_resources_order_by_kind_then_key_and_keep_their_labels():
    resources = [
        Resource("plane", (1, 0, 0, 0)),
        Resource("die", (0, 1, 0)),
        Resource("plane", (0, 1, 1, 1)),
        Resource("bus", (10,)),
        Resource("bus", (2,)),
        Resource("plane", (0, 1, 1, 0)),
    ]
    assert [r.label for r in sorted(resources)] == [
        "bus/2",
        "bus/10",
        "die/0.1.0",
        "plane/0.1.1.0",
        "plane/0.1.1.1",
        "plane/1.0.0.0",
    ]
    assert Resource("bus", (2,)) < Resource("bus", (10,))
    assert Resource(kind="die", key=(0, 0, 0)) == Resource("die", (0, 0, 0))


def test_minimal_geometry_is_legal():
    validate_geometry(Geometry(1, 1, 1, 1, 1, 1, 4096, 128))


def test_reference_geometry_total_pages(geometry):
    validate_geometry(geometry)
    # product of the six counts, cross-checked against the enumeration oracle
    assert geometry.total_pages == 2 * 2 * 2 * 2 * 4 * 8 == 512
    assert geometry.total_pages == len(enumerated_addresses(geometry))


@pytest.mark.parametrize("zeroed", range(6))
def test_zero_dimension_rejected(zeroed):
    counts = [2, 2, 2, 2, 4, 8]
    counts[zeroed] = 0
    with pytest.raises(GeometryError):
        validate_geometry(Geometry(*counts, 4096, 128))


def test_bad_page_and_oob_sizes_rejected():
    with pytest.raises(GeometryError):
        validate_geometry(Geometry(1, 1, 1, 1, 1, 1, 0, 0))
    with pytest.raises(GeometryError):
        validate_geometry(Geometry(1, 1, 1, 1, 1, 1, 4096, -1))


def test_index_domain_overflow_rejected():
    huge = 2**22
    with pytest.raises(GeometryError):
        validate_geometry(Geometry(huge, huge, huge, 1, 1, 1, 4096, 0))


def test_encode_origin_and_all_max(geometry):
    assert encode(A(), geometry) == 0
    top = A(1, 1, 1, 1, 3, 7)
    assert encode(top, geometry) == geometry.total_pages - 1
    assert decode(0, geometry) == A()
    assert decode(geometry.total_pages - 1, geometry) == top


def test_encode_matches_enumeration_oracle(geometry):
    # frozen from the oracle: channel-major mixed radix puts 1.0.1.0.2.5 at 341
    addr = A(1, 0, 1, 0, 2, 5)
    oracle = enumerated_index_map(geometry)
    assert oracle[addr] == 341
    assert encode(addr, geometry) == 341
    for address, index in oracle.items():
        assert encode(address, geometry) == index


def test_decode_matches_enumeration_oracle(geometry):
    addresses = enumerated_addresses(geometry)
    for index in range(geometry.total_pages):
        assert decode(index, geometry) == addresses[index]


def test_codec_out_of_range(geometry):
    with pytest.raises(AddressRangeError):
        encode(A(channel=2), geometry)
    with pytest.raises(AddressRangeError):
        encode(A(block=4), geometry)
    with pytest.raises(AddressRangeError):
        decode(-1, geometry)
    with pytest.raises(AddressRangeError):
        decode(geometry.total_pages, geometry)


# The boundary table. Parse, `validate` and `SubsystemState` each range-check
# an address (see the `topology` module docstring), and `encode` checks it
# too; they must agree. `parse_trace` checks an index the first time its text
# appears at a level and afterwards looks the text up, so each address is
# parsed twice in one trace: its first line runs the checks, and its second
# finds whatever the first line stored.
# Every index position is tried at -1, 0, count - 1 and count, with the other
# five at 0, on a geometry whose six counts all differ, so a comparison that
# reads the wrong index or the wrong count flips at least one case.
BOUNDARY_GEOMETRY = Geometry(2, 3, 4, 5, 6, 7, 512, 16)
_LEVELS = ("channel", "chip", "die", "plane", "block", "page")


def _range_outcomes(text: str, addr: FlashAddress) -> dict[str, str | None]:
    """Each range check's verdict on one address: None when it accepts, else
    its message. `text` is the address as the trace line spells it."""
    g = BOUNDARY_GEOMETRY
    out: dict[str, str | None] = {}
    try:
        commands = parse_trace(f"{TRACE_HEADER}\n0,write,{text}\n1,write,{text}\n", g)
    except TraceParseError as exc:
        first, again = exc.diagnostics
        assert (first.line, again.line) == (2, 3)
        assert again.message == first.message
        out["parse_trace"] = first.message
    else:
        assert [cmd.operands for cmd in commands] == [(addr,), (addr,)]
        out["parse_trace"] = None
    found = validate(Command(0, CommandKind.WRITE, (addr,)), g, frozenset(CommandKind))
    if found:
        (violation,) = found
        assert violation == Violation(
            Rule.ADDRESS_RANGE, Severity.ERROR, violation.message, 0, None
        )
        out["validate"] = violation.message
    else:
        out["validate"] = None
    state = SubsystemState(g)
    calls = {
        "write_page": state.write_page,
        "page_state": state.page_state,
        "erase_block": state.erase_block,
        "erase_count": state.erase_count,
        "encode": lambda a: encode(a, g),
    }
    for name, call in calls.items():
        try:
            call(addr)
        except AddressRangeError as exc:
            out[name] = str(exc)
        else:
            out[name] = None
    return out


@pytest.mark.parametrize(
    ("position", "value"),
    [
        pytest.param(position, value, id=f"{_LEVELS[position]}={value}")
        for position, count in enumerate(BOUNDARY_GEOMETRY.counts())
        for value in (-1, 0, count - 1, count)
    ],
)
def test_range_checks_agree_at_every_index_boundary(position, value):
    indices = [0, 0, 0, 0, 0, 0]
    indices[position] = value
    addr = FlashAddress(*indices)
    text = ".".join(map(str, indices))
    count = BOUNDARY_GEOMETRY.counts()[position]
    verdict = (
        None
        if 0 <= value < count
        else f"address {text} out of range for geometry (2, 3, 4, 5, 6, 7)"
    )
    # an erase and an erase count name a block and read no page index
    block_verdict = None if position == 5 else verdict
    assert _range_outcomes(text, addr) == {
        "parse_trace": verdict,
        "validate": verdict,
        "write_page": verdict,
        "page_state": verdict,
        "erase_block": block_verdict,
        "erase_count": block_verdict,
        "encode": verdict,
    }


@pytest.mark.parametrize("index", [-1, 0, 2 * 3 * 4 * 5 * 6 * 7 - 1, 2 * 3 * 4 * 5 * 6 * 7])
def test_range_checks_agree_at_the_flat_index_boundaries(index):
    g = BOUNDARY_GEOMETRY
    if 0 <= index < g.total_pages:
        addr = decode(index, g)
        assert encode(addr, g) == index
        assert set(_range_outcomes(str(index), addr).values()) == {None}
        return
    message = f"flat index {index} out of range [0, 5040)"
    with pytest.raises(AddressRangeError) as excinfo:
        decode(index, g)
    assert str(excinfo.value) == message
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(f"{TRACE_HEADER}\n0,write,{index}\n", g)
    assert [tuple(d) for d in excinfo.value.diagnostics] == [(2, message)]


@pytest.mark.parametrize(
    ("stored", "checked"),
    [
        pytest.param(stored, checked, id=f"{_LEVELS[stored]}-then-{_LEVELS[checked]}")
        for checked in range(6)
        for stored in range(checked + 1, 6)
    ],
)
def test_an_index_text_accepted_at_one_level_is_checked_again_at_another(
    stored, checked
):
    # the counts rise from channel to page, so the count of the `checked`
    # level is in range at the deeper `stored` level and out of range at its
    # own; 0.0.0.0.4.0, then 0.0.4.0.0.0, is one of the cases
    g = BOUNDARY_GEOMETRY
    value = g.counts()[checked]
    accepted, rejected = [0] * 6, [0] * 6
    accepted[stored] = rejected[checked] = value
    accepted_text = ".".join(map(str, accepted))
    rejected_text = ".".join(map(str, rejected))
    trace = (
        f"{TRACE_HEADER}\n0,write,{accepted_text}\n1,write,{rejected_text}\n"
        f"2,write,{accepted_text}\n"
    )
    with pytest.raises(TraceParseError) as excinfo:
        parse_trace(trace, g)
    assert [tuple(d) for d in excinfo.value.diagnostics] == [
        (3, f"address {rejected_text} out of range for geometry (2, 3, 4, 5, 6, 7)")
    ]
    (good,) = parse_trace(f"{TRACE_HEADER}\n0,write,{accepted_text}\n", g)
    assert good.operands == (FlashAddress(*accepted),)


small_geometries = st.builds(
    Geometry,
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 8),
    st.just(512),
    st.just(16),
)


@settings(max_examples=60, deadline=None)
@given(small_geometries)
def test_codec_bijection_exhaustive(g):
    # total_pages <= 4096 for every drawn geometry
    addresses = enumerated_addresses(g)
    for index, addr in enumerate(addresses):
        assert encode(addr, g) == index
        assert decode(index, g) == addr


def test_initial_state_all_erased_zero_wear(geometry):
    state = SubsystemState(geometry)
    for addr in enumerated_addresses(geometry):
        assert state.page_state(addr) is PageState.ERASED
        assert state.erase_count(addr) == 0


def test_write_then_erase_cycle(geometry):
    state = SubsystemState(geometry)
    page = A(block=1, page=3)
    assert state.write_page(page) == []
    assert state.page_state(page) is PageState.WRITTEN

    again = state.write_page(page)
    assert [w.rule for w in again] == [Rule.ERASE_BEFORE_WRITE]
    assert all(w.severity is Severity.WARNING for w in again)

    assert state.erase_block(A(block=1)) == []
    assert state.page_state(page) is PageState.ERASED
    assert state.write_page(page) == []


def test_erase_is_atomic_over_the_block(geometry):
    state = SubsystemState(geometry)
    for page in range(geometry.pages_per_block):
        state.write_page(A(block=2, page=page))
    state.erase_block(A(block=2, page=5))
    for page in range(geometry.pages_per_block):
        assert state.page_state(A(block=2, page=page)) is PageState.ERASED
    # the neighbouring block is untouched
    state.write_page(A(block=3, page=0))
    state.erase_block(A(block=2))
    assert state.page_state(A(block=3, page=0)) is PageState.WRITTEN


def test_endurance_warning_after_limit(geometry):
    state = SubsystemState(geometry, endurance_limit=3)
    block = A(block=0)
    for _ in range(3):
        assert state.erase_block(block) == []
    fourth = state.erase_block(block)
    assert [w.rule for w in fourth] == [Rule.ENDURANCE_EXCEEDED]
    assert state.erase_count(block) == 4


def test_run_write_past_the_block_end_raises_and_writes_nothing(geometry):
    # the first page outside the run's block is the one the error names
    state = SubsystemState(geometry)
    with pytest.raises(AddressRangeError) as excinfo:
        state.write_page(A(block=1, page=6), 3)
    assert str(excinfo.value) == (
        "address 0.0.0.0.1.8 out of range for geometry (2, 2, 2, 2, 4, 8)"
    )
    assert state.page_state(A(block=1, page=6)) is PageState.ERASED
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        state.write_page(A(block=1), 0)


def test_initially_written_preload(geometry):
    state = SubsystemState(geometry, initially_written=True)
    page = A(block=0, page=0)
    assert state.page_state(page) is PageState.WRITTEN
    warned = state.write_page(page)
    assert [w.rule for w in warned] == [Rule.ERASE_BEFORE_WRITE]
    state.erase_block(page)
    assert state.page_state(page) is PageState.ERASED


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 7)),
        max_size=60,
    )
)
def test_wear_monotone_and_counts_erases(ops):
    g = Geometry(1, 1, 1, 1, 4, 8, 512, 0)
    state = SubsystemState(g)
    erases_per_block = [0, 0, 0, 0]
    last_counts = [0, 0, 0, 0]
    for is_erase, block, page in ops:
        addr = FlashAddress(0, 0, 0, 0, block, page)
        if is_erase:
            state.erase_block(addr)
            erases_per_block[block] += 1
        else:
            state.write_page(addr)
        for b in range(4):
            count = state.erase_count(FlashAddress(0, 0, 0, 0, b, 0))
            assert count >= last_counts[b]
            last_counts[b] = count
    for b in range(4):
        assert state.erase_count(FlashAddress(0, 0, 0, 0, b, 0)) == erases_per_block[b]


def _outcome(call, addr):
    """What one state call returns or raises, in comparable form."""
    try:
        result = call(addr)
    except AddressRangeError as exc:
        return ("raises", str(exc))
    if isinstance(result, list):
        return [(v.rule, v.severity, v.message) for v in result]
    return result


@st.composite
def _state_scripts(draw):
    g = draw(
        st.builds(
            Geometry,
            st.integers(1, 2), st.integers(1, 2), st.integers(1, 2),
            st.integers(1, 2), st.integers(1, 3), st.integers(1, 4),
            st.just(512), st.just(0),
        )
    )
    counts = g.counts()
    in_range = st.builds(FlashAddress, *(st.integers(0, n - 1) for n in counts))
    # one index pushed to its count: out of range by one
    out_of_range = st.tuples(in_range, st.integers(0, 5)).map(
        lambda pair: FlashAddress(
            *(n if i == pair[1] else x for i, (x, n) in enumerate(zip(pair[0], counts)))
        )
    )
    # most addresses fall in a few blocks, so that writes, runs and erases
    # meet on them
    blocks = draw(st.lists(in_range, min_size=1, max_size=3))
    in_a_block = st.builds(
        lambda addr, page: FlashAddress(*addr[:5], page),
        st.sampled_from(blocks),
        st.integers(0, counts[5] - 1),
    )
    addresses = st.one_of(in_a_block, in_a_block, in_a_block, in_range, out_of_range)
    ops = st.sampled_from(
        ["write_page", "write_run", "erase_block", "page_state", "erase_count"]
    )
    # a run write's length, up to one page more than a block holds
    run_lengths = st.integers(1, g.pages_per_block + 1)
    script = draw(
        st.lists(st.tuples(ops, addresses, run_lengths), min_size=20, max_size=30)
    )
    return g, draw(st.sampled_from([None, 0, 2])), draw(st.booleans()), script


def _call(state, op: str, count: int):
    """The state's method `op`; a "write_run" writes `count` pages."""
    if op == "write_run":
        return lambda addr: state.write_page(addr, count)
    return getattr(state, op)


@settings(max_examples=200, deadline=None)
@given(_state_scripts())
def test_state_matches_the_per_page_reference(case):
    g, endurance_limit, initially_written, script = case
    state = SubsystemState(g, endurance_limit, initially_written)
    reference = ReferenceState(g, endurance_limit, initially_written)
    for op, addr, count in script:
        assert _outcome(_call(state, op, count), addr) == _outcome(
            _call(reference, op, count), addr
        )
    for addr in enumerated_addresses(g):
        assert state.page_state(addr) is reference.page_state(addr)
        assert state.erase_count(addr) == reference.erase_count(addr)


def test_erase_costs_memory_in_proportion_to_the_input():
    # a million pages per block: per-page erase state would take about 80 MB
    g = Geometry(1, 1, 1, 1, 4, 10**6, 4096, 0)
    state = SubsystemState(g, endurance_limit=0)
    page = A(block=1, page=5)
    tracemalloc.start()
    try:
        found = [state.write_page(page), state.erase_block(page), state.write_page(page)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [[v.rule for v in vs] for vs in found] == [[], [Rule.ENDURANCE_EXCEEDED], []]
    assert found[1][0].message == "block 0.0.0.0.1 erased 1 times, endurance limit is 0"
    assert state.page_state(page) is PageState.WRITTEN
    assert state.page_state(A(block=1, page=10**6 - 1)) is PageState.ERASED
    assert peak < 2**20
