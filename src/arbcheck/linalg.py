"""Exact linear algebra: span bases and membership tests.

Rows are reduced as Python ints, as in the simplex tableau: a vector is
scaled by the lcm of its denominators, and each elimination is an
integer multiply-and-subtract plus one gcd (fraction-free elimination,
Bareiss 1968). A span is scale-invariant, so rows carry no denominator.
The leftmost-pivot rule with back-elimination gives an integer reduced
row-echelon form; dividing each row by its pivot yields a basis that is
canonical for the subspace spanned (independent of input order).
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import InputError
from .rationals import Q, Rational, Vector, ZERO, int_row

# (pivot column, integer row): the pivot entry is positive and the only
# nonzero entry of its column among the rows of one echelon form
_Echelon = list


def _common_dim(vectors: Sequence[Sequence[Rational]]) -> int:
    """The one length of ``vectors``, whose entries must be Rationals."""
    dims = set()
    for v in vectors:
        dims.add(len(v))
        for a in v:
            if not isinstance(a, Rational):
                raise InputError(f"vector entry {a!r} is not a Rational")
    if len(dims) > 1:
        raise InputError(f"vectors of mixed dimensions: {sorted(dims)}")
    return dims.pop() if dims else 0


def _eliminate(row: list[int], prow: list[int], col: int) -> list[int]:
    """``row * p - row[col] * prow`` for the pivot ``p = prow[col] > 0``,
    in lowest terms: column ``col`` cleared, and the scale of ``row``
    multiplied by a positive factor."""
    p, f = prow[col], row[col]
    new = [a * p - f * b for a, b in zip(row, prow)]
    g = gcd(*new)
    return [a // g for a in new] if g > 1 else new


def _reduce(row: list[int], rows: _Echelon) -> list[int]:
    for piv, prow in rows:
        if row[piv]:
            row = _eliminate(row, prow, piv)
    return row


def _echelon(vectors: Sequence[Sequence[Rational]]) -> _Echelon:
    """Reduced integer echelon rows of the span, sorted by pivot column."""
    rows: _Echelon = []
    for v in vectors:
        row = _reduce(int_row(v)[0], rows)
        piv = next((j for j, a in enumerate(row) if a), None)
        if piv is None:
            continue
        if row[piv] < 0:
            row = [-a for a in row]
        g = gcd(*row)
        if g > 1:
            row = [a // g for a in row]
        for k, (q, other) in enumerate(rows):
            if other[piv]:
                rows[k] = (q, _eliminate(other, row, piv))
        rows.append((piv, row))
        rows.sort(key=lambda item: item[0])
    return rows


def span_basis(points: Sequence[Sequence[Rational]]) -> tuple[Vector, ...]:
    """Reduced row-echelon basis of the linear span of the given points.

    Zero vectors contribute nothing; an empty input (or all-zero input)
    yields the empty basis.
    """
    _common_dim(points)
    return tuple(
        tuple(Q(a, row[piv]) if a else ZERO for a in row) for piv, row in _echelon(points)
    )


def in_span(v: Sequence[Rational], vectors: Sequence[Sequence[Rational]]) -> bool:
    """True iff v is an exact rational combination of the given vectors."""
    _common_dim((v, *vectors))
    return not any(_reduce(int_row(v)[0], _echelon(vectors)))
