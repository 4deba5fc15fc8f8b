import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbcheck import Q, as_rational, format_rational, parse_rational
from arbcheck.errors import InputError
from arbcheck.rationals import (
    dot,
    format_vector,
    is_zero_vector,
    parse_vector,
    rational_vector,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vector,
)


def test_parse_basic():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-7/2") == Q(-7, 2)
    assert parse_rational("0") == Q(0)
    assert parse_rational("-0") == Q(0)
    assert parse_rational("17") == Q(17)


def test_parse_normalizes():
    assert parse_rational("6/8") == Q(3, 4)
    assert format_rational(parse_rational("6/8")) == "3/4"
    assert format_rational(Q(-10, 4)) == "-5/2"
    assert format_rational(Q(4, 2)) == "2"


@pytest.mark.parametrize("bad", [
    "", "1/0", "0/0", "1.5", "1e3", "a", "1/-2", "+3",
    " 1", "1 ", "2/4/8", "--1", "1/", "/2",
    "\u0663/\u0664", "3\n", " 3",  # Arabic-Indic digits, trailing newline
])
def test_parse_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_as_rational():
    assert as_rational(5) == Q(5)
    assert as_rational("5/3") == Q(5, 3)
    assert as_rational(Q(2, 7)) == Q(2, 7)
    with pytest.raises(InputError):
        as_rational(0.5)
    with pytest.raises(InputError):
        as_rational("0.5")


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_format_parse_roundtrip(num, den):
    q = Q(num, den)
    assert parse_rational(format_rational(q)) == q


def test_vector_ops():
    u = rational_vector([1, "1/2", -3])
    v = rational_vector(["1/3", 2, 0])
    assert vec_add(u, v) == rational_vector(["4/3", "5/2", -3])
    assert vec_sub(u, v) == rational_vector(["2/3", "-3/2", -3])
    assert vec_scale(Q(-2), u) == rational_vector([-2, -1, 6])
    assert dot(u, v) == Q(4, 3)
    assert zero_vector(3) == (Q(0),) * 3
    assert is_zero_vector(zero_vector(4))
    assert not is_zero_vector(u)


def test_parse_vector():
    assert parse_vector(["1/2", "-3"]) == (Q(1, 2), Q(-3))
    assert format_vector((Q(1, 2), Q(-3))) == ["1/2", "-3"]
    with pytest.raises(InputError):
        parse_vector(["1", "2"], dim=3)


@given(st.lists(st.fractions(max_denominator=50), min_size=1, max_size=5))
def test_scale_distributes_over_add(vals):
    u = rational_vector([Q(v.numerator, v.denominator) for v in vals])
    v = vec_scale(Q(3), u)
    assert vec_add(u, vec_add(u, u)) == v
    assert vec_sub(v, u) == vec_scale(Q(2), u)
