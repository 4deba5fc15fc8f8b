import random
from math import gcd

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from arbcheck import Q, in_span, span_basis
from arbcheck.errors import InputError
from arbcheck.geometry import max_norm_normalize
from arbcheck.linalg import kernel_line, unit_gain_direction
from arbcheck.rationals import int_row, rational_row
from helpers import assert_in_span_matches_reference, kernel_line_rows, support_from_atoms, vec
from linalg_oracle import kernel_line_reference, rref_basis, rref_in_span, unit_gain_reference


def V(*rows):
    return [vec(r) for r in rows]


def int_points(points):
    """Rational points of one dimension in ``span_basis``'s integer
    form: their numerators over one common denominator, as (rows, den)."""
    d = len(points[0]) if points else 0
    nums, den = int_row([c for p in points for c in p])
    return tuple(nums[i * d:(i + 1) * d] for i in range(len(points))), den


def basis_of(points):
    """``span_basis`` of Rational points, by way of their integer form."""
    return span_basis(int_points(points))


def rational_basis(points):
    """The Rational view of ``basis_of(points)``: each row divided by
    its pivot entry."""
    return tuple(rational_row(row, row[piv]) for piv, row in basis_of(points))


def test_span_basis_examples():
    assert rational_basis(V((1, 2), (2, 4))) == (vec((1, 2)),)
    assert rational_basis(V((0, 0))) == ()
    assert span_basis(((), 1)) == ()
    basis = rational_basis(V((1, 1, 0), (0, 1, 1), (1, 0, -1)))
    assert basis == tuple(V((1, 0, -1), (0, 1, 1))) == rref_basis(V((1, 1, 0), (0, 1, 1)))


def test_rank():
    assert len(basis_of(V((1, 2), (2, 4)))) == 1
    assert len(basis_of(V((1, 0), (0, 1)))) == 2
    assert len(basis_of(V((0, 0), (0, 0)))) == 0
    assert len(span_basis(((), 1))) == 0


def test_in_span():
    basis = basis_of(V((1, 1, 0), (0, 1, 1)))
    assert in_span(vec((1, 2, 1)), basis)
    assert in_span(vec((0, 0, 0)), basis)
    assert not in_span(vec((1, 0, 0)), basis)
    assert in_span(vec((0, 0)), ())


def test_in_span_against_an_integer_basis():
    """``span_basis``'s integer form is reduced against as it stands."""
    basis = span_basis((((2, 2, 0), (0, 3, 3)), 1))
    assert basis == ((0, (1, 0, -1)), (1, (0, 1, 1)))
    assert in_span(vec((1, 2, 1)), basis)
    assert in_span(vec(("1/2", "-1/3", "-5/6")), basis)
    assert not in_span(vec((1, 0, 0)), basis)


def test_in_span_against_the_empty_integer_basis():
    """A support whose atoms are all 0 spans {0}: its integer basis is
    empty and accepts only the zero vector."""
    cs = support_from_atoms(0, ((vec((0, 0)), Q(1, 2)), (vec((0, 0)), Q(1, 2))))
    assert cs.int_basis == ()
    assert in_span(vec((0, 0)), cs.int_basis)
    assert not in_span(vec((1, 0)), cs.int_basis)
    assert not in_span(vec((0, "1/3")), cs.int_basis)
    assert_in_span_matches_reference(cs)


@pytest.mark.parametrize("basis, message", [
    (((0, (1, 0)), (1, (0, Q(1)))), "not a basis of nonzero int rows"),
    (((0, (1, 0)), (1, (0, 0))), "not a basis of nonzero int rows"),
    (((0, (1, 0, 0)),), "mixed dimensions"),
    # (0, 1) is in the span of these rows, but not of an echelon
    # reduction that takes both to pivot at column 0
    (((0, (1, 1)), (0, (1, 0))), "not strictly rising"),
    # a nonzero entry before the row's pivot column
    (((1, (2, 2)),), "not in reduced echelon form"),
    (((0, (1, 1)), (1, (0, 1))), "not in reduced echelon form"),
    (((0, (-1, 0)),), "not in reduced echelon form"),
    (((1, (0, 1)), (0, (1, 0))), "not strictly rising"),
    (((2, (1, 0)),), "not strictly rising in 0..1"),
    (((True, (1, 0)),), "not strictly rising"),
])
def test_malformed_integer_basis_is_refused(basis, message):
    """A basis not in ``span_basis``'s form raises InputError before
    any reduction, whatever the query."""
    for v in (vec((1, 0)), vec((0, 1))):
        with pytest.raises(InputError, match=message):
            in_span(v, basis)


ONE_BASIS = ((0, (1,)),)


@pytest.mark.parametrize("call, message", [
    (lambda: span_basis((((0.5,),), 1)), "not int rows over an int denominator"),
    (lambda: in_span((0.5,), ONE_BASIS), "entry 0.5 is not a Rational"),
    (lambda: in_span(("1",), ONE_BASIS), "entry '1' is not a Rational"),
], ids=["span_basis-float", "in_span-float", "in_span-string"])
def test_entries_that_are_not_rational_are_refused(call, message):
    """A point's entry is an int numerator, and a query's a Rational."""
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: span_basis(([1, 2], 1)), "1 is not a vector"),
    (lambda: span_basis(None), "None is not a \\(rows, den\\) pair"),
    (lambda: in_span((Q(1),), 5), "5 is not a basis of \\(pivot, row\\) pairs"),
    (lambda: in_span(None, ONE_BASIS), "None is not a vector"),
    # a generator would be used up by the dimension check, leaving no rows
    (lambda: span_basis(((x for x in ((1,),)), 1)), "generator .* is not a sequence of vectors"),
    (lambda: in_span(vec((1,)), (x for x in V((1,)))), "not a basis of \\(pivot, row\\) pairs"),
], ids=["span_basis-ints", "span_basis-None", "in_span-int", "in_span-None",
        "span_basis-generator", "in_span-generator"])
def test_vectors_of_the_wrong_shape_are_refused(call, message):
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("call", [
    lambda: span_basis(V((1, 2), (2, 4))),
    lambda: span_basis([vec((1,))]),
    lambda: in_span(vec((1, 2)), V((1, 0), (0, 1))),
    lambda: in_span(vec((1, 2, 3)), V((1, 0, 0))),
], ids=["span_basis-two-points", "span_basis-one-point", "in_span-two-vectors",
        "in_span-one-vector"])
def test_the_rational_form_is_refused(call):
    """``span_basis`` takes only (rows, den) of int rows, and ``in_span``
    only a basis of (pivot, int row) pairs: Rational points or a
    Rational basis raise InputError, whatever their shape."""
    with pytest.raises(InputError):
        call()


def test_basis_is_canonical_under_presentation():
    """Same subspace, different generating sets: identical basis tuple."""
    rng = random.Random(99)
    for _ in range(40):
        d = rng.randint(1, 4)
        k = rng.randint(1, 4)
        vecs = [tuple(Q(rng.randint(-5, 5)) for _ in range(d)) for _ in range(k)]
        basis = basis_of(vecs)

        shuffled = list(vecs)
        rng.shuffle(shuffled)
        scaled = []
        for v in shuffled:
            factor = Q(rng.randint(1, 7))
            scaled.append(tuple(c * factor for c in v))
        # throw in a dependent vector: a sum of two generators
        if len(scaled) >= 2:
            extra = tuple(a + b for a, b in zip(scaled[0], scaled[1]))
            scaled.append(extra)
        assert basis_of(scaled) == basis

        for b in rational_basis(vecs):
            assert in_span(b, basis) and rref_in_span(b, vecs)
        for v in vecs:
            assert in_span(v, basis)


# entries: zero often, small and large numerators of either sign, small
# and large denominators
_numerators = st.just(0) | st.integers(-9, 9) | st.integers(-10**30, 10**30)
_denominators = st.integers(1, 16) | st.integers(1, 10**30)
_entries = st.builds(Q, _numerators, _denominators)


@st.composite
def _points_and_queries(draw):
    """0-6 points in dimension 1-4 drawn from a small pool that holds the
    zero vector, so zero and repeated points are common; and two
    queries, a free vector and a combination of the points."""
    d = draw(st.integers(1, 4))
    vector = st.tuples(*[_entries] * d)
    pool = draw(st.lists(vector, min_size=1, max_size=3)) + [(Q(0),) * d]
    points = draw(st.lists(st.sampled_from(pool) | vector, max_size=6))
    combination = tuple(Q(0) for _ in range(d))
    for p in points:
        c = draw(_entries)
        combination = tuple(a + c * b for a, b in zip(combination, p))
    return points, draw(vector), combination


# without the explain phase, which on a failure traces every line of
# every elimination and can take minutes to do so
@settings(max_examples=300, derandomize=True, deadline=None,
          phases=[phase for phase in Phase if phase.name != "explain"])
@given(_points_and_queries())
def test_integer_kernel_matches_rational_oracle(case):
    points, free, combination = case
    basis = basis_of(points)
    assert rational_basis(points) == rref_basis(points)
    assert in_span(free, basis) == rref_in_span(free, points)
    assert in_span(combination, basis) and rref_in_span(combination, points)


@settings(max_examples=300, derandomize=True, deadline=None,
          phases=[phase for phase in Phase if phase.name != "explain"])
@given(_points_and_queries())
def test_integer_form_in_gives_the_basis_in_integer_form(case):
    """The points' numerators over one denominator give each basis row
    as (pivot column, integer row): an int row in lowest terms whose
    first nonzero is positive and at its pivot, where every other row
    is zero, and whose Rational view, divided by that entry, is the
    reference basis."""
    points, _, _ = case
    int_basis = span_basis(int_points(points))
    assert tuple(rational_row(row, row[piv]) for piv, row in int_basis) == rref_basis(points)
    for piv, row in int_basis:
        assert all(type(a) is int for a in row) and gcd(*row) == 1
        assert piv == next(j for j, a in enumerate(row) if a) and row[piv] > 0
        assert not any(other[piv] for q, other in int_basis if q != piv)


_ints = st.integers(-9, 9) | st.integers(-10**30, 10**30)


@st.composite
def _independent_rows(draw):
    """1 <= n <= d <= 4 linearly independent int rows, small and large
    entries of either sign."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, d))
    rows = draw(st.lists(st.tuples(*[_ints] * d), min_size=n, max_size=n))
    assume(len(span_basis((rows, 1))) == n)
    return rows


@settings(max_examples=300, derandomize=True, deadline=None,
          phases=[phase for phase in Phase if phase.name != "explain"])
@given(_independent_rows())
def test_unit_gain_direction_matches_the_rational_reference(rows):
    """The direction gains exactly 1 on every row, lies in their span,
    and, max-norm normalised, is the Gram solve in rational arithmetic."""
    h = unit_gain_direction(rows)
    assert all(sum((a * b for a, b in zip(h, x)), Q(0)) == 1 for x in rows)
    assert in_span(h, span_basis((rows, 1))) and rref_in_span(h, rows)
    assert max_norm_normalize(h) == unit_gain_reference(rows)


def test_unit_gain_direction_refuses_dependent_rows():
    for rows in ([(1, 2), (2, 4)], [(0, 0)], [(1, 0, 0), (0, 1, 0), (1, 1, 0)]):
        with pytest.raises(InputError, match="not linearly independent"):
            unit_gain_direction(rows)


@settings(max_examples=300, derandomize=True, deadline=None,
          phases=[phase for phase in Phase if phase.name != "explain"])
@given(kernel_line_rows(st.integers(0, 4), _ints))
@example([(0, 0)])
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])
@example([(2, 0), (3, 0)])
@example([(2, 3), (4, -1), (-3, 5)])
def test_kernel_line_matches_the_rational_reference(rows):
    """The integer lambda has gcd 1, combines the rows to zero, and is
    the rational reference, 1 at its free column, scaled by the
    positive lambda there."""
    lam = kernel_line(rows)
    assert all(type(v) is int for v in lam) and gcd(*lam) == 1
    assert not any(sum(v * x[j] for v, x in zip(lam, rows)) for j in range(len(rows[0])))
    ref = kernel_line_reference(rows)
    free = ref.index(1)
    assert lam[free] > 0 and tuple(Q(v, lam[free]) for v in lam) == ref


def test_kernel_line_refuses_rows_not_of_rank_n_minus_1():
    for rows in ([(1, 0), (0, 1)], [(1, 2)], [(1, 0), (2, 0), (3, 0)], [(0, 0), (0, 0)]):
        with pytest.raises(InputError, match=f"not rows of rank {len(rows) - 1}"):
            kernel_line(rows)


@pytest.mark.parametrize("points, message", [
    ((((1, 2), (2, 4)), 0), "not int rows over an int denominator > 0"),
    ((((1, 2), (Q(2), 4)), 3), "not int rows over an int denominator > 0"),
    ((((1, True),), 3), "not int rows over an int denominator > 0"),
    ((((1, 2), (1,)), 3), "mixed dimensions"),
])
def test_malformed_integer_form_is_refused(points, message):
    with pytest.raises(InputError, match=message):
        span_basis(points)
