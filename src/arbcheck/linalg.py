"""Rational linear algebra: span bases and membership tests.

Row reduction uses the leftmost-pivot rule and normalizes to reduced
row-echelon form, so the basis returned for a set of vectors is
canonical for the subspace they span (independent of input order).
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .rationals import Rational, Vector

_Row = list


def _common_dim(vectors: Sequence[Sequence[Rational]]) -> int:
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise InputError(f"vectors of mixed dimensions: {sorted(dims)}")
    return dims.pop() if dims else 0


def _reduce(v: _Row, rows: list) -> _Row:
    # rows: list of (pivot_col, unit-leading row), sorted by pivot_col
    for piv, row in rows:
        c = v[piv]
        if c:
            for j in range(piv, len(v)):
                if row[j]:
                    v[j] -= c * row[j]
    return v


def span_basis(points: Sequence[Sequence[Rational]]) -> tuple[Vector, ...]:
    """Reduced row-echelon basis of the linear span of the given points.

    Zero vectors contribute nothing; an empty input (or all-zero input)
    yields the empty basis.
    """
    dim = _common_dim(points)
    rows: list = []
    for p in points:
        v = _reduce(list(p), rows)
        piv = next((j for j in range(dim) if v[j]), None)
        if piv is None:
            continue
        lead = v[piv]
        if lead != 1:
            inv = 1 / lead
            v = [c * inv for c in v]
        for _, row in rows:
            c = row[piv]
            if c:
                for j in range(piv, dim):
                    if v[j]:
                        row[j] -= c * v[j]
        rows.append((piv, v))
        rows.sort(key=lambda item: item[0])
    return tuple(tuple(row) for _, row in rows)


def in_span(v: Sequence[Rational], vectors: Sequence[Sequence[Rational]]) -> bool:
    """True iff v is an exact rational combination of the given vectors."""
    if vectors and len(v) != _common_dim(vectors):
        raise InputError(f"dimension mismatch: {len(v)} vs {_common_dim(vectors)}")
    basis = span_basis(vectors) if vectors else ()
    rows = [(next(j for j in range(len(b)) if b[j]), list(b)) for b in basis]
    residue = _reduce(list(v), rows)
    return all(not c for c in residue)
