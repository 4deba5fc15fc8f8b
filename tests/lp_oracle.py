"""Brute-force reference solver for small exact LPs.

Candidate vertices are solutions of square subsystems drawn from the
extended row system (declared rows plus lower-bound rows); candidate
extreme rays come from nullspaces of (n-1)-row subsystems.  This is
sound only when every variable has a finite lower bound: the feasible
region then contains no line, so if no enumerated ray improves the
objective the maximum is attained at an enumerated vertex.  Free
variables are therefore split into x+ - x- (both >= 0) inside the
oracle only; the split program has the same outcome kind and optimum,
and the solver's certificates are checked against the original LP.
"""

from collections.abc import Sequence
from itertools import combinations

from arbcheck import Q
from arbcheck.lp import (
    Infeasible,
    Optimal,
    Unbounded,
    make_lp,
    solve_lp,
)
from arbcheck.rationals import Rational, int_row, rational_row
from helpers import dot, rational

ZERO = Q(0)


def _integer(coeffs, *rest):
    """A {column: coefficient} map and the numbers after it, Rational-
    like, in ``make_lp``'s integer form: the map's numerators, then the
    numbers', then their one denominator, from ``int_row``."""
    nums, den = int_row([rational(c) for c in (*coeffs.values(), *rest)])
    return dict(zip(coeffs, nums)), *nums[len(coeffs):], den


def rational_lp(n_vars, objective, rows, lower=None):
    """``make_lp`` from Rational-like numbers (Rationals, ints or "p/q"
    strings): the objective as one {column: coefficient} map and each
    row as a (coefficients, rhs, is_equality) triple. Each map and row
    is brought to the integer form by ``int_row``; the flags pass as
    they stand, and the bounds are coerced to Rationals."""
    int_rows = []
    for coeffs, b, eq in rows:
        int_coeffs, int_b, den = _integer(coeffs, b)
        int_rows.append((int_coeffs, int_b, eq, den))
    if lower is not None:
        lower = [None if lo is None else rational(lo) for lo in lower]
    return make_lp(n_vars, _integer(objective), int_rows, lower)


def dense_lp(objective, rows, rhs, equalities=None, lower=None):
    """``rational_lp`` over dense rows: one coefficient per variable in
    the objective and in each row, the right-hand sides and equality
    flags as separate sequences (every row an inequality when omitted)."""
    if equalities is None:
        equalities = [False] * len(rows)
    return rational_lp(len(objective), dict(enumerate(objective)),
                       [(dict(enumerate(row)), b, eq) for row, b, eq in zip(rows, rhs, equalities)],
                       lower)


def rational_objective(lp):
    """The objective of ``lp`` as Rationals, one per variable."""
    return rational_row(*lp.int_objective)


def rational_rhs(lp):
    """The right-hand sides of ``lp`` as Rationals, one per row."""
    return tuple(Q(b, den) for _, b, den in lp.int_rows)


def dense_rows(lp):
    """Each row of ``lp`` as Rationals, its absent columns ZERO."""
    dense = []
    for pairs, _, den in lp.int_rows:
        row = [ZERO] * lp.n_vars
        for j, a in pairs:
            row[j] = Q(a, den)
        dense.append(tuple(row))
    return tuple(dense)


def farkas_row_system(lp):
    """The dense row system Farkas certificates refer to: the declared
    rows, then one row -x_j <= -lower_j per bounded variable in
    increasing j.

    Returns (rows, rhs, equalities).
    """
    rows, rhs, eqs = list(dense_rows(lp)), list(rational_rhs(lp)), list(lp.equalities)
    for j, lo in enumerate(lp.lower):
        if lo is not None:
            rows.append(tuple(Q(-1) if k == j else ZERO for k in range(lp.n_vars)))
            rhs.append(-lo)
            eqs.append(False)
    return tuple(rows), tuple(rhs), tuple(eqs)


def _solve_square(rows, rhs):
    """Unique solution of a square rational system, or None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != ZERO), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Q(1) / aug[col][col]
        aug[col] = [c * inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != ZERO:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _nullspace_ray(rows, n):
    """Generator of the nullspace when it is one-dimensional, else None."""
    mat = [list(r) for r in rows]
    pivots = []
    filled = 0
    for col in range(n):
        piv = next((i for i in range(filled, len(mat)) if mat[i][col] != ZERO), None)
        if piv is None:
            continue
        mat[filled], mat[piv] = mat[piv], mat[filled]
        inv = Q(1) / mat[filled][col]
        mat[filled] = [c * inv for c in mat[filled]]
        for i in range(len(mat)):
            if i != filled and mat[i][col] != ZERO:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[filled])]
        pivots.append(col)
        filled += 1
    if filled != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    vec = [ZERO] * n
    vec[free] = Q(1)
    for i, col in enumerate(pivots):
        vec[col] = -mat[i][free]
    return vec


def _satisfies(rows, rhs, eqs, x):
    for row, b, eq in zip(rows, rhs, eqs):
        v = dot(row, x)
        if eq:
            if v != b:
                return False
        elif v > b:
            return False
    return True


def _recedes(rows, eqs, ray):
    if all(c == ZERO for c in ray):
        return False
    for row, eq in zip(rows, eqs):
        v = dot(row, ray)
        if eq:
            if v != ZERO:
                return False
        elif v > ZERO:
            return False
    return True


def _split_free(lp):
    """The same program with each free variable x_j replaced by
    x_j+ - x_j-, both bounded below by 0, so that it is pointed."""
    cols = [[(j, 1)] if lo is not None else [(j, 1), (j, -1)]
            for j, lo in enumerate(lp.lower)]
    cols = [c for group in cols for c in group]
    lower = [ZERO if lp.lower[j] is None else lp.lower[j] for j, _ in cols]
    c = rational_objective(lp)
    return dense_lp([s * c[j] for j, s in cols],
                    [[s * row[j] for j, s in cols] for row in dense_rows(lp)],
                    rational_rhs(lp), lp.equalities, lower)


def enumerate_lp(lp):
    """Return ("infeasible", None), ("unbounded", None) or ("optimal", value)."""
    lp = _split_free(lp)
    rows, rhs, eqs = farkas_row_system(lp)
    c = rational_objective(lp)
    n = lp.n_vars
    m = len(rows)

    best = None
    for idx in combinations(range(m), n):
        x = _solve_square([rows[i] for i in idx], [rhs[i] for i in idx])
        if x is None or not _satisfies(rows, rhs, eqs, x):
            continue
        v = dot(c, x)
        if best is None or v > best:
            best = v
    if best is None:
        return ("infeasible", None)

    for idx in combinations(range(m), n - 1):
        ray = _nullspace_ray([rows[i] for i in idx], n)
        if ray is None:
            continue
        for cand in (ray, [-c for c in ray]):
            if _recedes(rows, eqs, cand) and dot(c, cand) > ZERO:
                return ("unbounded", None)
    return ("optimal", best)


def random_lp(rng, free=0.0, max_vars=4):
    """Small random LP; each variable is free with probability ``free``
    and otherwise bounded below."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, 6)
    coef = lambda: Q(rng.randint(-3, 3))
    rows = [[coef() for _ in range(n)] for _ in range(m)]
    rhs = [Q(rng.randint(-4, 4)) for _ in range(m)]
    eqs = [rng.random() < 0.25 for _ in range(m)]
    obj = [coef() for _ in range(n)]
    lower = [None if free and rng.random() < free else Q(rng.randint(-3, 0)) for _ in range(n)]
    return dense_lp(obj, rows, rhs, eqs, lower)


def random_fractional_lp(rng, max_vars=4):
    """Small random LP with fractional coefficients, right-hand sides and
    lower bounds. Half of them floor every variable at one fraction, as
    the density program floors every ratio at f; in the other half each
    variable is free with probability 3/10 or has its own bound."""
    n = rng.randint(1, max_vars)
    m = rng.randint(1, 6)
    frac = lambda lo, hi: Q(rng.randint(lo, hi), rng.randint(1, 6))
    rows = [[frac(-3, 3) for _ in range(n)] for _ in range(m)]
    rhs = [frac(-4, 4) for _ in range(m)]
    eqs = [rng.random() < 0.25 for _ in range(m)]
    obj = [frac(-3, 3) for _ in range(n)]
    if rng.random() < 0.5:
        lower = [Q(1, rng.randint(2, 7))] * n
    else:
        lower = [None if rng.random() < 0.3 else frac(-3, 1) for _ in range(n)]
    return dense_lp(obj, rows, rhs, eqs, lower)


# Reference re-checks: the dense rational forms of the integer cores
# that solve_lp runs on each outcome (_holds, _is_ray, _is_farkas), kept
# here so the shipped integer forms can be held against them.

def exact_vector(vector, length):
    return (isinstance(vector, Sequence) and len(vector) == length
            and all(isinstance(v, Rational) for v in vector))


def reference_check_feasible(lp, point):
    if not exact_vector(point, lp.n_vars):
        return False
    for j, lo in enumerate(lp.lower):
        if lo is not None and point[j] < lo:
            return False
    for row, b, eq in zip(dense_rows(lp), rational_rhs(lp), lp.equalities):
        lhs = dot(row, point)
        if eq:
            if lhs != b:
                return False
        elif lhs > b:
            return False
    return True


def reference_check_ray(lp, ray):
    if not exact_vector(ray, lp.n_vars) or not any(ray):
        return False
    for j, lo in enumerate(lp.lower):
        if lo is not None and ray[j] < 0:
            return False
    for row, eq in zip(dense_rows(lp), lp.equalities):
        lhs = dot(row, ray)
        if eq:
            if lhs != 0:
                return False
        elif lhs > 0:
            return False
    return dot(rational_objective(lp), ray) > 0


def reference_check_farkas(lp, certificate):
    rows, rhs, eqs = farkas_row_system(lp)
    if not exact_vector(certificate, len(rows)):
        return False
    for y, eq in zip(certificate, eqs):
        if not eq and y < 0:
            return False
    for j in range(lp.n_vars):
        if sum((y * row[j] for y, row in zip(certificate, rows)), ZERO) != 0:
            return False
    return dot(certificate, rhs) < 0


def oracle_check(lp):
    """Solve lp both ways; return (agrees, solver_outcome, oracle_status)."""
    got = solve_lp(lp)
    status, value = enumerate_lp(lp)
    if isinstance(got, Optimal):
        ok = (status == "optimal"
              and got.value == value
              and dot(rational_objective(lp), got.point) == got.value
              and reference_check_feasible(lp, got.point))
    elif isinstance(got, Unbounded):
        ok = status == "unbounded" and reference_check_ray(lp, got.ray)
    elif isinstance(got, Infeasible):
        ok = status == "infeasible" and reference_check_farkas(lp, got.certificate)
    else:
        ok = False
    return ok, got, (status, value)
