from __future__ import annotations

import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flashsim.commands import EventKind
from flashsim.errors import ExpressionSyntaxError, UnknownIdentifierError
from flashsim.expr import MAX_DEPTH, parse_expression
from flashsim.models import PERF_VARIABLES, POWER_VARIABLES, ModelSet
from flashsim.topology import FlashAddress, Geometry

ENV = {name: 0.0 for name in POWER_VARIABLES}


def evaluate(text, variables=POWER_VARIABLES, **env):
    return parse_expression(text, variables).evaluate({**ENV, **env})


def test_bus_latency_example():
    got = evaluate("25 + 0.025 * byte_count", byte_count=4096)
    assert got == 25 + 0.025 * 4096
    assert got == pytest.approx(127.4)


def test_bare_variable_echoes_context():
    assert evaluate("page", page=6) == 6.0


def test_dangling_operator_is_rejected_at_end():
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("25 +", PERF_VARIABLES)
    assert excinfo.value.position == len("25 +")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2 + 3 * 4", 14.0),
        ("(2 + 3) * 4", 20.0),
        ("8 - 3 - 2", 3.0),
        ("16 / 4 / 2", 2.0),
        ("2 * 3 + 4 * 5", 26.0),
        ("-3 + 5", 2.0),
        ("--2", 2.0),
        ("+4", 4.0),
        ("min(3, 4)", 3.0),
        ("max(2 * 3, 4)", 6.0),
        ("min(5, 2, 9)", 2.0),
        ("max(1, min(7, 3))", 3.0),
        ("1.5e2 + 1", 151.0),
    ],
)
def test_precedence_associativity_and_functions(text, expected):
    assert evaluate(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "()", "1 2", "min(1)", "foo(1, 2)", "(1 + 2", "1 +* 2", "25 $ 3", ","],
)
def test_malformed_expressions_rejected(text):
    with pytest.raises(ExpressionSyntaxError):
        parse_expression(text, POWER_VARIABLES)


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression("1 + $", POWER_VARIABLES)
    assert excinfo.value.position == 4


def test_unknown_identifier_rejected_at_parse_time():
    with pytest.raises(UnknownIdentifierError) as excinfo:
        parse_expression("t_sense + 1", PERF_VARIABLES)
    assert excinfo.value.name == "t_sense"
    # duration is a power-model variable only
    with pytest.raises(UnknownIdentifierError):
        parse_expression("duration * 2", PERF_VARIABLES)
    parse_expression("duration * 2", POWER_VARIABLES)


def test_division_by_zero_raises_at_evaluation():
    expr = parse_expression("1 / page", POWER_VARIABLES)
    assert expr.evaluate({**ENV, "page": 2.0}) == 0.5
    with pytest.raises(ZeroDivisionError):
        expr.evaluate({**ENV, "page": 0.0})


def test_referenced_variables_tracked():
    expr = parse_expression("min(byte_count, page_size) + duration", POWER_VARIABLES)
    assert expr.variables == {"byte_count", "page_size", "duration"}


@given(
    st.integers(0, 10**6),
    st.integers(1, 10**6),
    st.floats(0, 1e6, allow_nan=False),
)
def test_arithmetic_agrees_with_python(byte_count, page_size, duration):
    got = evaluate(
        "byte_count * duration / page_size + max(byte_count, page_size)",
        byte_count=byte_count,
        page_size=page_size,
        duration=duration,
    )
    assert got == byte_count * duration / page_size + max(byte_count, page_size)


# Grammar-valid sources that Python parses with the same precedence and
# associativity. Every literal is written as a Python float (repr always has
# a '.' or an exponent), so Python computes in floats as the evaluator does.
_LEAVES = st.floats(0, 1e3).map(repr) | st.sampled_from(sorted(POWER_VARIABLES))


def _extend(children):
    return st.one_of(
        st.builds("{} {} {}".format, children, st.sampled_from("+-*/"), children),
        st.builds("{}{}".format, st.sampled_from("+-"), children),
        st.builds("({})".format, children),
        st.builds(
            lambda func, args: f"{func}({', '.join(args)})",
            st.sampled_from(("min", "max")),
            st.lists(children, min_size=2, max_size=3),
        ),
    )


SOURCES = st.recursive(_LEAVES, _extend, max_leaves=12)
ENVIRONMENTS = st.fixed_dictionaries(
    {name: st.floats(-1e3, 1e3) for name in sorted(POWER_VARIABLES)}
)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@given(SOURCES, ENVIRONMENTS, st.sampled_from(sorted(POWER_VARIABLES)))
# signed zeros tell apart negation from subtraction and pin min/max argument order
@example("-page", ENV, "page")
@example("min(0.0, -0.0) + max(-0.0, 0.0) * -1.0", ENV, "block")
def test_evaluation_is_python_float_arithmetic_bit_for_bit(source, env, divisor):
    expr = parse_expression(source, POWER_VARIABLES)
    try:
        expected = eval(source, {"__builtins__": {}, "min": min, "max": max}, env)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError, match="^division by zero in expression$"):
            expr.evaluate(env)
    else:
        got = expr.evaluate(env)
        assert _bits(got) == _bits(expected) or math.isnan(got) and math.isnan(expected)
    # the same source over a divisor that is exactly zero
    zero = parse_expression(f"({source}) / {divisor}", POWER_VARIABLES)
    with pytest.raises(ZeroDivisionError, match="^division by zero in expression$"):
        zero.evaluate({**env, divisor: 0.0})


# One shape per recursive rule of the grammar: each builds a tree `depth`
# levels deep over the variable page, and gives the tree's value at page 1.
DEEP = {
    "sum": (lambda depth: " + ".join(["page"] * depth), lambda depth: float(depth)),
    # an even number of minus signs, led by one plus sign when that is odd
    "signs": (
        lambda depth: "+" * ((depth - 1) % 2) + "--" * ((depth - 1) // 2) + "page",
        lambda depth: 1.0,
    ),
    "parentheses": (
        lambda depth: "(" * (depth - 1) + "page" + ")" * (depth - 1),
        lambda depth: 1.0,
    ),
    "calls": (
        lambda depth: "min(" * (depth - 1) + "page" + ", 2)" * (depth - 1),
        lambda depth: 1.0,
    ),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_a_tree_at_the_depth_limit_parses_and_prices(shape):
    text, value = DEEP[shape]
    expr = parse_expression(text(MAX_DEPTH), PERF_VARIABLES)
    assert expr.evaluate({**ENV, "page": 1.0}) == value(MAX_DEPTH)
    models = ModelSet(latency_exprs={EventKind.ARRAY_SENSE: expr})
    price = models.pricer(Geometry(1, 1, 1, 1, 1, 2, 4096, 128))
    duration_ns, _ = price.entry(EventKind.ARRAY_SENSE, 0)[0](FlashAddress(0, 0, 0, 0, 0, 1))
    assert duration_ns == round(value(MAX_DEPTH) * 1000)


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_a_tree_past_the_depth_limit_is_rejected_at_its_offset(shape):
    text = DEEP[shape][0](MAX_DEPTH + 1)
    with pytest.raises(ExpressionSyntaxError) as excinfo:
        parse_expression(text, PERF_VARIABLES)
    assert str(excinfo.value).startswith(
        f"expression nested more than {MAX_DEPTH} levels deep (at offset "
    )
    # the offset is that of the operator, sign, parenthesis or call that
    # would have been the level too many
    assert text[excinfo.value.position] in "+-(m"
