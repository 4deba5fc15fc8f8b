"""Single-node geometric no-arbitrage test.

A node admits a one-step riskless profit exactly when the origin lies
outside the relative interior of the convex hull of its support atoms.
Both branches come with an exact certificate: strictly positive convex
weights writing the origin, or a separating direction h in the span
with (h, x) >= 0 on every atom and > 0 on at least one.

Every function takes the node's ConditionalSupport, whose constructor
has checked its integer form and reduced the span of its values once;
the programs and the re-check are built from those integers. Two
kinds of support need no program in the node test. Linearly
independent atoms (one atom x != 0 among them) have no vanishing
positive combination, so the origin is outside, and the direction that
gains 1 on every atom, from one Gram solve, separates it. n atoms of
rank n - 1 (one atom x = 0 among them) have one line of vanishing
combinations, lambda t; when lambda > 0 the origin is interior with the
weights lambda / sum(lambda), the one vertex lambda / min(lambda) of the
program's feasible ray, scaled. Either certificate is re-checked like a
program's.
The relative interior is always taken within that span. Directions are
normalized in the max-norm (exact arithmetic has no square roots;
every property used downstream is scale-invariant).
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Optional, Union

from .errors import InputError, InternalError, Record
from .linalg import combination, in_span, kernel_line, unit_gain_direction
from .lp import Optimal, make_lp, solve_lp
from .rationals import ONE, Rational, Vector, ZERO, int_row, is_exact_vector, rational_row
from .tree import ConditionalSupport, ensure_support


class InRi(Record):
    """Origin in the relative interior: all-positive convex weights with
    zero barycenter."""

    __slots__ = ("weights",)

    weights: tuple[Rational, ...]


class NotInRi(Record):
    """Separating direction: in the span, nonnegative against every
    atom, positive against some, max-norm 1."""

    __slots__ = ("direction",)

    direction: Vector


RiCertificate = Union[InRi, NotInRi]


def separation_optimum(support: ConditionalSupport) -> tuple[Rational, Vector]:
    """Maximize sum_i (h, x_i) over h in the support's span, with
    (h, x_i) >= 0 on its atoms x_i and |h_j| <= 1 componentwise.

    Returns the exact optimum and an optimizer. The optimum is 0 exactly
    when the origin is in the relative interior (and then the optimizer
    is the zero vector); any positive optimum exhibits a separating
    direction.
    """
    rows_int, den = ensure_support(support).int_values
    basis = support.int_basis
    r = len(basis)
    if r == 0:
        return ZERO, (ZERO,) * support.d
    # variables: y_1..y_r, h = sum_k y_k basis_k; over the lcm L of the
    # basis rows' denominators, basis row k is scale[k] * b_k / L, and
    # (b_k, x_i) is inner[i][k] / (L * den), an integer sum
    big = lcm(*(q for _, q in basis))
    scale = [big // q for _, q in basis]
    inner = [[s * sum(map(mul, b, x)) for (b, _), s in zip(basis, scale)] for x in rows_int]
    rows = [({k: -v for k, v in enumerate(coeffs) if v}, 0, False, big * den)
            for coeffs in inner]  # (h, x_i) >= 0
    for j in range(support.d):
        col = {k: s * b[j] for k, ((b, _), s) in enumerate(zip(basis, scale)) if b[j]}
        rows.append((col, big, False, big))  # h_j <= 1
        rows.append(({k: -c for k, c in col.items()}, big, False, big))  # -h_j <= 1
    objective = ({k: v for k, v in enumerate(map(sum, zip(*inner))) if v}, big * den)
    outcome = solve_lp(make_lp(r, objective, rows))  # maximize sum_i (h, x_i)
    if not isinstance(outcome, Optimal):
        raise InternalError(f"node {support.node}: separation program must be feasible "
                            "and bounded")
    return outcome.value, combination(basis, outcome.point)


def max_norm_normalize(h: Vector) -> Vector:
    """``h`` over its largest absolute entry, from one ``int_row``;
    InputError on the zero vector or on an entry that is not a
    Rational."""
    nums, _ = int_row(h)
    m = max(map(abs, nums), default=0)
    if not m:
        raise InputError("cannot normalize the zero vector")
    return rational_row(nums, m)


def arbitrage_direction(support: ConditionalSupport) -> Optional[Vector]:
    """The support's separating direction when one exists, max-norm
    normalized; None when the origin is in the relative interior."""
    value, h = separation_optimum(support)
    if value == 0:
        if any(h):
            raise InternalError(f"node {support.node}: zero separation value with a nonzero "
                                "optimizer")
        return None
    return separating_certificate(support, h).direction


def separating_certificate(support: ConditionalSupport, h: Vector) -> NotInRi:
    """``h``, max-norm normalized, as a NotInRi that has passed
    ``check_ri_certificate``; InternalError naming the node if not."""
    cert = NotInRi(max_norm_normalize(h))
    if not check_ri_certificate(support, cert):
        raise InternalError(f"node {support.node}: separating direction failed exact re-check")
    return cert


def ri_conv_contains_origin(support: ConditionalSupport) -> RiCertificate:
    """Exact dichotomy with certificates for the support's atoms x_i.

    The origin is in the relative interior of their convex hull iff it
    is a convex combination with all-positive weights, i.e. (scaling
    them onto lambda >= 1) iff the feasibility program lambda_i >= 1,
    sum lambda_i x_i = 0 has a point. Its weights, divided by their
    sum, are re-checked here; otherwise the separating direction comes
    from ``arbitrage_direction``, which re-checks it. Two cases solve
    no program. Atoms that are linearly independent (as many as the
    span's rank) get ``unit_gain_direction`` through
    ``separating_certificate``. n atoms of rank n - 1 whose
    ``kernel_line`` lambda, positive at its free entry, is positive
    throughout (one atom x = 0 has lambda = (1,)) get lambda /
    sum(lambda): the program's feasible set is then the ray lambda t,
    t >= 1 / min(lambda), whose one vertex phase 1 returns, so the
    weights are the program's, re-checked the same way. Any other
    lambda, mixed in sign or with a zero entry, reaches the infeasible
    program and then ``arbitrage_direction``.
    """
    rows_int, den = ensure_support(support).int_values
    n = len(rows_int)
    rank = len(support.int_basis)
    if rank == n:
        return separating_certificate(support, unit_gain_direction(rows_int))
    weights = kernel_line(rows_int) if rank == n - 1 else None
    if weights is None or min(weights) <= 0:
        rows = [({i: x[j] for i, x in enumerate(rows_int) if x[j]}, 0, True, den)
                for j in range(support.d)]  # sum lambda_i x_i = 0
        outcome = solve_lp(make_lp(n, ({}, 1), rows, [ONE] * n))
        if not isinstance(outcome, Optimal):
            direction = arbitrage_direction(support)
            if direction is None:
                raise InternalError(f"node {support.node}: certificate branches disagree "
                                    "on interiority")
            return NotInRi(direction)
        weights, _ = int_row(outcome.point)
    cert = InRi(rational_row(weights, sum(weights)))
    if not check_ri_certificate(support, cert):
        raise InternalError(f"node {support.node}: interiority certificate failed exact re-check")
    return cert


def check_ri_certificate(support: ConditionalSupport, cert: RiCertificate) -> bool:
    """Exact re-verification of either certificate against the support's
    atoms and, for a direction, its span basis, in integer sums over the
    support's integer atoms: the weights' numerators over one
    denominator against each coordinate's column, or the direction's
    numerators against each atom. A certificate with an entry that is
    not a Rational fails it."""
    rows, _ = ensure_support(support).int_values
    if isinstance(cert, InRi):
        lam = cert.weights
        if not is_exact_vector(lam, len(rows)):
            return False
        w, den = int_row(lam)
        if any(v <= 0 for v in w) or sum(w) != den:
            return False
        return not any(sum(map(mul, w, column)) for column in zip(*rows))
    if isinstance(cert, NotInRi):
        h = cert.direction
        if not is_exact_vector(h, support.d):
            return False
        nums, den = int_row(h)
        if max(map(abs, nums), default=0) != den or not in_span(h, support.int_basis):
            return False
        dots = [sum(map(mul, nums, x)) for x in rows]
        return all(v >= 0 for v in dots) and any(dots)
    return False
