"""Single-node geometric no-arbitrage test.

A node admits a one-step riskless profit exactly when the origin lies
outside the relative interior of the convex hull of its support atoms.
Both branches come with an exact certificate: strictly positive convex
weights writing the origin, or a separating direction h in the span
with (h, x) >= 0 on every atom and > 0 on at least one.

The relative interior is always taken within the linear span of the
atoms. Directions are normalized in the max-norm (exact arithmetic has
no square roots; every property used downstream is scale-invariant).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import InputError, InternalError
from .linalg import in_span, span_basis
from .lp import Optimal, Unbounded, make_lp, solve_lp
from .rationals import ONE, Q, Rational, Vector, ZERO, dot, zero_vector


@dataclass(frozen=True)
class InRi:
    """Origin in the relative interior: all-positive convex weights with
    zero barycenter."""

    weights: tuple[Rational, ...]


@dataclass(frozen=True)
class NotInRi:
    """Separating direction: in the span, nonnegative against every
    atom, positive against some, max-norm 1."""

    direction: Vector


RiCertificate = Union[InRi, NotInRi]


def _checked_points(points: Sequence[Vector]) -> tuple[Vector, ...]:
    pts = tuple(tuple(p) for p in points)
    if not pts:
        raise InputError("empty atom list")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise InputError(f"atoms of mixed dimensions: {sorted(dims)}")
    return pts


def separation_optimum(points: Sequence[Vector]) -> tuple[Rational, Vector]:
    """Maximize sum_i (h, x_i) over directions h in span(points) with
    (h, x_i) >= 0 and |h_j| <= 1 componentwise.

    Returns the exact optimum and an optimizer. The optimum is 0 exactly
    when the origin is in the relative interior (and then the optimizer
    is the zero vector); any positive optimum exhibits a separating
    direction.
    """
    pts = _checked_points(points)
    d = len(pts[0])
    basis = span_basis(pts)
    r = len(basis)
    if r == 0:
        return ZERO, zero_vector(d)
    # variables: y_1..y_r, h = sum_k y_k basis_k
    inner = [[dot(b, x) for b in basis] for x in pts]  # (h, x_i) row coefficients
    rows = []
    rhs = []
    for coeffs in inner:
        rows.append([-c for c in coeffs])  # (h, x_i) >= 0
        rhs.append(ZERO)
    for j in range(d):
        col = [basis[k][j] for k in range(r)]
        rows.append(col)  # h_j <= 1
        rhs.append(ONE)
        rows.append([-c for c in col])  # -h_j <= 1
        rhs.append(ONE)
    objective = [sum((inner[i][k] for i in range(len(pts))), ZERO) for k in range(r)]
    outcome = solve_lp(make_lp(objective, rows, rhs))
    if not isinstance(outcome, Optimal):
        raise InternalError("separation program must be feasible and bounded")
    y = outcome.point
    h = tuple(
        sum((y[k] * basis[k][j] for k in range(r)), ZERO) for j in range(d)
    )
    return outcome.value, h


def max_norm_normalize(h: Vector) -> Vector:
    m = max(abs(c) for c in h)
    if not m:
        raise InputError("cannot normalize the zero vector")
    return tuple(c / m for c in h)


def arbitrage_direction(points: Sequence[Vector]) -> Optional[Vector]:
    """The separating direction when one exists, max-norm normalized;
    None when the origin is in the relative interior."""
    pts = _checked_points(points)
    value, h = separation_optimum(pts)
    if value == 0:
        if any(h):
            raise InternalError("zero separation value with a nonzero optimizer")
        return None
    direction = max_norm_normalize(h)
    cert = NotInRi(direction)
    if not check_ri_certificate(pts, cert):
        raise InternalError("separating direction failed exact re-check")
    return direction


def ri_conv_contains_origin(points: Sequence[Vector]) -> RiCertificate:
    """Exact dichotomy with certificates.

    The origin is in the relative interior of conv(points) iff it is a
    convex combination with all-positive weights, i.e. iff the LP
    maximize t s.t. lambda_i >= t, sum lambda = 1, sum lambda_i x_i = 0
    has a positive optimum. Its weights are re-checked here; otherwise
    the separating direction comes from ``arbitrage_direction``, which
    re-checks it.
    """
    pts = _checked_points(points)
    n = len(pts)
    d = len(pts[0])
    # variables: lambda_1..lambda_n, then t; all free
    rows = []
    rhs = []
    eqs = []
    for i in range(n):
        row = [ZERO] * (n + 1)
        row[i] = Q(-1)
        row[n] = ONE
        rows.append(row)  # t - lambda_i <= 0
        rhs.append(ZERO)
        eqs.append(False)
    rows.append([ONE] * n + [ZERO])
    rhs.append(ONE)
    eqs.append(True)
    for j in range(d):
        rows.append([pts[i][j] for i in range(n)] + [ZERO])
        rhs.append(ZERO)
        eqs.append(True)
    objective = [ZERO] * n + [ONE]
    outcome = solve_lp(make_lp(objective, rows, rhs, eqs))
    if isinstance(outcome, Unbounded):
        raise InternalError("interiority program cannot be unbounded")
    if isinstance(outcome, Optimal) and outcome.value > 0:
        cert = InRi(tuple(outcome.point[:n]))
        if not check_ri_certificate(pts, cert):
            raise InternalError("interiority certificate failed exact re-check")
        return cert
    direction = arbitrage_direction(pts)
    if direction is None:
        raise InternalError("certificate branches disagree on interiority")
    return NotInRi(direction)


def check_ri_certificate(points: Sequence[Vector], cert: RiCertificate) -> bool:
    """Exact re-verification of either certificate against its invariants."""
    pts = _checked_points(points)
    d = len(pts[0])
    if isinstance(cert, InRi):
        lam = cert.weights
        if len(lam) != len(pts):
            return False
        if any(w <= 0 for w in lam):
            return False
        if sum(lam, ZERO) != 1:
            return False
        for j in range(d):
            if sum((w * x[j] for w, x in zip(lam, pts)), ZERO) != 0:
                return False
        return True
    if isinstance(cert, NotInRi):
        h = cert.direction
        if len(h) != d:
            return False
        if max(abs(c) for c in h) != 1:
            return False
        if not in_span(h, pts):
            return False
        strict = False
        for x in pts:
            v = dot(h, x)
            if v < 0:
                return False
            if v > 0:
                strict = True
        return strict
    return False
