"""Reference row reduction for the tests.

Gauss-Jordan elimination over the rational scalar type itself: each
new vector is reduced against the basis so far, divided by its leading
entry, and then cleared from the earlier rows. ``arbcheck.linalg``
reduces integer rows instead; tests compare the two. The same
elimination solves the Gram system behind ``unit_gain_reference`` and
reads the kernel behind ``kernel_line_reference``.
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


def unit_gain_reference(points):
    """The direction h in the span of linearly independent ``points``
    with (h, x_i) equal on every point, max-norm normalised: the Gram
    system sum_k (x_i, x_k) w_k = 1 solved by Gauss-Jordan elimination,
    then h = sum_i w_i x_i."""
    xs = [[Q(c) for c in p] for p in points]
    n = len(xs)
    m = [[sum((a * b for a, b in zip(x, y)), Q(0)) for y in xs] + [Q(1)] for x in xs]
    for i in range(n):  # the Gram matrix is positive definite: m[i][i] != 0
        lead = m[i][i]
        m[i] = [c / lead for c in m[i]]
        for r in range(n):
            c = m[r][i]
            if r != i and c:
                m[r] = [a - c * b for a, b in zip(m[r], m[i])]
    w = [row[n] for row in m]
    h = [sum((wi * x[j] for wi, x in zip(w, xs)), Q(0)) for j in range(len(xs[0]))]
    top = max(abs(c) for c in h)
    return tuple(c / top for c in h)


def kernel_line_reference(points):
    """The combinations lambda with sum_i lambda_i x_i = 0 of ``points``
    x_i, when they form one line: the rational lambda with 1 at the one
    column f of ``rref_basis`` of the transposed points that holds no
    pivot, and -row[f] at each row's pivot. None when the points are
    independent or their kernel is wider than a line."""
    n = len(points)
    rows = rref_basis(list(zip(*points)))
    pivots = [next(j for j, c in enumerate(row) if c) for row in rows]
    free = [j for j in range(n) if j not in pivots]
    if len(free) != 1:
        return None
    (f,) = free
    lam = [Q(0)] * n
    lam[f] = Q(1)
    for piv, row in zip(pivots, rows):
        lam[piv] = -row[f]
    return tuple(lam)
