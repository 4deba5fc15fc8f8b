"""Reference row reduction for the tests.

Gauss-Jordan elimination over the rational scalar type itself: each
new vector is reduced against the basis so far, divided by its leading
entry, and then cleared from the earlier rows. ``arbcheck.linalg``
reduces integer rows instead; tests compare the two.
"""

from arbcheck.rationals import Q


def _reduce(v, rows):
    # rows: list of (pivot_col, unit-leading row), sorted by pivot_col
    for piv, row in rows:
        c = v[piv]
        if c:
            for j in range(piv, len(v)):
                if row[j]:
                    v[j] -= c * row[j]
    return v


def rref_basis(points):
    """Reduced row-echelon basis of the span of ``points``."""
    rows = []
    for p in points:
        v = _reduce([Q(c) for c in p], rows)
        piv = next((j for j in range(len(v)) if v[j]), None)
        if piv is None:
            continue
        lead = v[piv]
        if lead != 1:
            v = [c / lead for c in v]
        for _, row in rows:
            c = row[piv]
            if c:
                for j in range(piv, len(v)):
                    if v[j]:
                        row[j] -= c * v[j]
        rows.append((piv, v))
        rows.sort(key=lambda item: item[0])
    return tuple(tuple(row) for _, row in rows)


def rref_in_span(v, vectors):
    """True iff ``v`` reduces to zero against the basis of ``vectors``."""
    basis = rref_basis(vectors)
    rows = [(next(j for j in range(len(b)) if b[j]), list(b)) for b in basis]
    return not any(_reduce([Q(c) for c in v], rows))
