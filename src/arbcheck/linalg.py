"""Exact linear algebra: span bases and membership tests.

Rows are reduced as Python ints, as in the simplex tableau: each
elimination is an integer multiply-and-subtract plus one gcd
(fraction-free elimination, Bareiss 1968). A span is scale-invariant,
so rows carry no denominator. ``span_basis`` takes points in integer
form, ``(rows, den)`` as a support's ``int_values`` holds them, and
returns each basis row as ``(row, pivot entry)``; ``in_span`` reduces a
Rational vector, by way of ``int_row``, against such a basis, and
``unit_gain_direction`` solves the Gram system of independent rows for
the direction in their span that gains 1 on each. The vector
conversions (``int_row``, ``rational_row``) and the row normalisation
(``lowest_terms``) belong to ``rationals``; this module owns the
elimination and ``combination``, which sums integer basis rows with
rational coordinates. The leftmost-pivot rule with back-elimination
gives an integer reduced row-echelon form; dividing each row by its
pivot yields a basis that is canonical for the subspace spanned
(independent of input order).
"""

from __future__ import annotations

from collections import abc
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import InputError
from .rationals import Rational, Vector, int_row, lowest_terms, rational_row

# (pivot column, integer row): the pivot entry is positive and the only
# nonzero entry of its column among the rows of one echelon form
_Echelon = list


def _common_dim(vectors: Sequence[Sequence[Rational]], *more: Sequence[Rational]) -> int:
    """The one length of the vectors in ``vectors`` and of ``more``;
    InputError unless ``vectors`` is a sequence of sequences."""
    if not isinstance(vectors, abc.Sequence):
        raise InputError(f"{vectors!r} is not a sequence of vectors")
    vectors = (*vectors, *more)
    try:
        dims = {len(v) for v in vectors}
    except TypeError:  # the first vector without a length is named
        bad = next(v for v in vectors if not isinstance(v, abc.Sequence))
        raise InputError(f"{bad!r} is not a vector") from None
    if len(dims) > 1:
        raise InputError(f"vectors of mixed dimensions: {sorted(dims)}")
    return dims.pop() if dims else 0


def _eliminate(row: Sequence[int], prow: Sequence[int], col: int) -> list[int]:
    """``row * p - row[col] * prow`` for the pivot ``p = prow[col] > 0``,
    in lowest terms: column ``col`` cleared, and the scale of ``row``
    multiplied by a positive factor."""
    p, f = prow[col], row[col]
    new = [a * p - f * b for a, b in zip(row, prow)]
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


def _reduce(row: Sequence[int], rows: _Echelon) -> Sequence[int]:
    for piv, prow in rows:
        if row[piv]:
            row = _eliminate(row, prow, piv)
    return row


def _echelon(rows: Sequence[Sequence[int]]) -> _Echelon:
    """Reduced integer echelon rows of the span of integer rows, sorted
    by pivot column: the one reduction every basis and membership test
    runs."""
    out: _Echelon = []
    for row in rows:
        row = _reduce(row, out)
        piv = next((j for j, a in enumerate(row) if a), None)
        if piv is None:
            continue
        row = lowest_terms(row, piv)
        for k, (q, other) in enumerate(out):
            if other[piv]:
                out[k] = (q, _eliminate(other, row, piv))
        out.append((piv, row))
        out.sort(key=lambda item: item[0])
    return out


def span_basis(points: tuple[Sequence[Sequence[int]], int]
               ) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Reduced row-echelon basis of the linear span of the given points.

    ``points`` is their integer form, a pair (rows, den) of int rows
    over an int den > 0, as in ``ConditionalSupport.int_values``. Each
    basis row comes back as (numerators, pivot entry): its Rational
    view ``rational_row(row, pivot)`` has 1 at the pivot. Zero rows
    contribute nothing; no rows, or only zero rows, give the empty
    basis.
    """
    try:
        rows, den = points
    except (TypeError, ValueError):
        raise InputError(f"{points!r} is not a (rows, den) pair") from None
    _common_dim(rows)
    if type(den) is not int or den <= 0 or any(type(a) is not int for row in rows for a in row):
        raise InputError(f"{points!r} is not int rows over an int denominator > 0")
    return tuple([(tuple(row), row[piv]) for piv, row in _echelon(rows)])


def in_span(v: Sequence[Rational], basis: Sequence[tuple[Sequence[int], int]]) -> bool:
    """True iff the Rational vector v is an exact rational combination
    of the rows of ``basis``, a basis in ``span_basis``'s integer form
    (as ``ConditionalSupport.int_basis``), which is not reduced again."""
    try:
        rows = [row for row, _ in basis]
    except (TypeError, ValueError):
        raise InputError(f"{basis!r} is not a basis of (row, pivot) pairs") from None
    _common_dim(rows, v)
    if any(type(a) is not int for row in rows for a in row) or not all(map(any, rows)):
        raise InputError(f"{basis!r} is not a basis of nonzero int rows")
    echelon = [(next(j for j, a in enumerate(row) if a), row) for row in rows]
    return not any(_reduce(int_row(v)[0], echelon))


def combination(basis: Sequence[tuple[Sequence[int], int]], coords: Sequence[Rational]) -> Vector:
    """``sum_k coords[k] * basis[k]`` over a non-empty basis of integer
    rows, each (numerators, denominator), as integer sums over one
    denominator and one Rational per entry; coordinates past the basis
    are ignored."""
    nums, den = int_row(coords[:len(basis)])
    row_den = lcm(*(q for _, q in basis))
    scaled = [c * (row_den // q) for c, (_, q) in zip(nums, basis)]
    columns = zip(*(row for row, _ in basis))
    return rational_row([sum(map(mul, scaled, column)) for column in columns], den * row_den)


def unit_gain_direction(rows: Sequence[Sequence[int]]) -> Vector:
    """The h in the span of the linearly independent integer rows x_i
    with (h, x_i) = 1 for every i: h = sum_i w_i x_i, where w solves the
    Gram system, whose augmented rows [(x_i, x_k)... | 1] ``_echelon``
    reduces. InputError if the rows are dependent."""
    n = len(rows)
    gram = [[sum(map(mul, x, y)) for y in rows] + [1] for x in rows]
    echelon = _echelon(gram)
    if [piv for piv, _ in echelon] != list(range(n)):
        raise InputError(f"{rows!r} are not linearly independent rows")
    # reduced row i is (p_i at column i, c_i last), so w_i = c_i / p_i
    big = lcm(*(row[i] for i, row in echelon))
    w = [row[n] * (big // row[i]) for i, row in echelon]
    return rational_row([sum(map(mul, w, column)) for column in zip(*rows)], big)
