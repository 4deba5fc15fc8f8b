import pytest
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

from arbcheck import Q, format_rational, parse_rational
from arbcheck.errors import InputError
from arbcheck.rationals import ZERO, int_row, lowest_terms, rational_row
from helpers import vec


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
    # past the int-str digit limit
    pytest.param("1" * 5001, id="5001-digit-integer"),
    pytest.param("1/" + "1" * 5001, id="5001-digit-denominator"),
])
def test_parse_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def _unlimited_str():
    """A Rational whose str() ignores the digit limit, as gmpy2's mpq's
    does (format_rational refuses anything but a Rational), where the
    scalar type makes subclasses; on an mpq backend, whose own str() has
    no limit, Q(1, 10**4300 + 1) is one already."""
    try:
        class UnlimitedStr(Q):
            def __str__(self):
                return "1/" + "3" * 5000

        value = UnlimitedStr(1, 3)
    except TypeError:  # gmpy2's mpq is no base class
        return ()
    return (value,) if type(value) is UnlimitedStr else ()


def test_format_rejects_past_digit_limit():
    # each part may use the whole limit (4300 digits by default)
    edge = Q(-(10**4300 - 1), 10**4299)
    assert parse_rational(format_rational(edge)) == edge
    for value in (Q(10**4300), Q(1, 10**4300 + 1), *_unlimited_str()):
        with pytest.raises(InputError, match="digit limit"):
            format_rational(value)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_format_parse_roundtrip(num, den):
    q = Q(num, den)
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("bad", [0.5, "1/2", 1, None], ids=["float", "str", "int", "None"])
def test_int_row_refuses_entries_that_are_not_rational(bad):
    with pytest.raises(InputError, match="is not a Rational"):
        int_row((Q(1, 2), bad))


def test_int_row_and_rational_row_worked():
    assert int_row(vec(["1/2", 0, "-2/3", 5])) == ((3, 0, -4, 30), 6)
    assert int_row(()) == ((), 1)
    assert rational_row((3, 0, -4), 6) == (Q(1, 2), ZERO, Q(-2, 3))


_rationals = st.builds(Q, st.integers(-10**6, 10**6), st.integers(1, 10**4))


@given(st.lists(_rationals | st.just(ZERO), max_size=8))
def test_rational_row_inverts_int_row(values):
    nums, den = int_row(values)
    assert den > 0 and all(type(p) is int for p in nums)
    assert rational_row(nums, den) == tuple(values)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8), st.data())
def test_lowest_terms_keeps_the_ratios(row, data):
    col = data.draw(st.integers(0, len(row) - 1))
    row[col] = row[col] or 1
    out = lowest_terms(list(row), col)
    assert out[col] > 0 and gcd(*out) == 1
    # a nonzero rational scale: out[col] * row == row[col] * out entry by entry
    assert all(out[col] * a == row[col] * b for a, b in zip(row, out))
