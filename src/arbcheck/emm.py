"""Construction of an equivalent martingale measure with a bounded
density, one node at a time.

At each non-leaf node the one-step change of measure is a density g over
the support atoms with g >= f > 0 and E[g * increment] = 0, where the
floor f = 1 / (1 + s(mean | T)) comes from the support function of the
set T of directions whose expected one-step loss is at most 1. Gluing
the conditionally normalized one-step densities multiplicatively along
root-to-leaf paths yields a strictly positive, exactly normalized leaf
density whose reweighted tree is a martingale.

Everything here presupposes (and verifies, via certificates) that every
node passes the geometric interiority test; GeometryError carries the
separating certificate otherwise. Two kinds of node solve no program.
A support of linearly independent atoms (one atom x != 0 among them)
has the origin outside, and ``one_step_scale`` raises GeometryError
there with the direction that gains 1 on every atom, normalized and
re-checked as a program's would be. One atom x = 0 gets g = f = 1,
which build_emm re-checks in the pasted density.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .errors import GeometryError, InputError, InternalError, Record
from .geometry import separating_certificate
from .linalg import combination, in_span, unit_gain_direction
from .lp import Infeasible, Optimal, Unbounded, make_lp, solve_lp
from .rationals import ONE, Rational, Vector, ZERO, int_row, rational_row
from .tree import (
    ConditionalSupport,
    LeafDensity,
    ScenarioTree,
    _integer_form,
    conditional_mean,
    conditional_support,
    density_process,
    ensure_support,
)


def support_function(support: ConditionalSupport, a: Vector) -> Rational:
    """s(a | T) where T = {h in span(atoms) : expected one-step loss of
    h <= 1}: the largest (a, h) over T.

    T is compact exactly when the origin is in the relative interior of
    the atoms' hull; an unbounded program therefore signals a violated
    precondition and raises GeometryError for the owning node. The
    directions are combinations of the support's span basis, and each
    coefficient is an integer sum over the support's integer atoms.
    """
    if not in_span(a, ensure_support(support).int_basis):
        raise InputError("query vector outside the span of the atoms")
    basis = support.int_basis
    r = len(basis)
    if r == 0:
        return ZERO  # span {0}: T = {0}
    rows_int, den = support.int_values
    n = len(rows_int)
    # variables: y_1..y_r free (h = sum y_k b_k), then t_1..t_n >= 0; over
    # the lcm L of the basis rows' denominators, basis row k is
    # scale[k] * b_k / L
    big = lcm(*(q for _, q in basis))
    scale = [big // q for _, q in basis]
    rows = []
    for i, x in enumerate(rows_int):
        row = {k: -s * v for k, ((b, _), s) in enumerate(zip(basis, scale))
               if (v := sum(map(mul, b, x)))}
        row[r + i] = -big * den
        rows.append((row, 0, False, big * den))  # t_i >= -(h, x_i)
    probs, prob_den = support.int_probs
    budget = {r + i: p for i, p in enumerate(probs)}
    rows.append((budget, prob_den, False, prob_den))  # expected lifted loss <= 1
    a_nums, a_den = int_row(a)
    objective = ({k: s * v for k, ((b, _), s) in enumerate(zip(basis, scale))
                  if (v := sum(map(mul, b, a_nums)))}, big * a_den)
    outcome = solve_lp(make_lp(r + n, objective, rows, [None] * r + [ZERO] * n))
    if isinstance(outcome, Unbounded):
        # the ray's direction part certifies the origin outside the
        # relative interior: every (h, x_i) >= 0 and (a, h) > 0
        h = combination(basis, outcome.ray)
        raise GeometryError(support.node, separating_certificate(support, h))
    if isinstance(outcome, Infeasible):
        raise InternalError(f"node {support.node}: support program is never infeasible "
                            "(0 is feasible)")
    assert isinstance(outcome, Optimal)
    if outcome.value < 0:
        raise InternalError(f"node {support.node}: support function came out negative "
                            "with 0 in T")
    return outcome.value


def one_step_scale(support: ConditionalSupport) -> Rational:
    """The floor 1 / (1 + s(mean | T)); always in (0, 1]. Linearly
    independent atoms make T unbounded: they raise GeometryError with
    ``unit_gain_direction`` through ``separating_certificate``, before
    any program."""
    rows_int, _ = ensure_support(support).int_values
    if len(support.int_basis) == len(rows_int):
        raise GeometryError(support.node,
                            separating_certificate(support, unit_gain_direction(rows_int)))
    s = support_function(support, conditional_mean(support))
    return 1 / (1 + s)


class OneStepDensity(Record):
    """One-step change of measure at a node, one value per row of its
    ConditionalSupport's ``int_values`` (children sharing an increment
    share a value)."""

    __slots__ = ("node", "scale", "raw", "normalized")

    node: int
    scale: Rational  # the floor f
    raw: tuple[Rational, ...]  # g, with g_i >= scale and E[g * x] = 0
    normalized: tuple[Rational, ...]  # g / E[g], a conditional probability change


def one_step_density(support: ConditionalSupport) -> OneStepDensity:
    """Min-max selection: the feasible density with the smallest largest
    component, so the reported global bound is the tightest this
    construction yields. A node without the origin in the relative
    interior of its support raises GeometryError from ``one_step_scale``
    before any program of its own, so an infeasible program is an
    internal error. One atom x = 0 solves no program and gets the only
    density there, g = f = 1, which ``build_emm`` re-checks with the
    rest. The martingale rows and the mass are integer sums over the
    support's integer atoms.

    The program is solved at floor 1 and its vertex g^1 scaled to
    g = f * g^1. After the bound shift the floor-f tableau differs from
    the floor-1 one only in its right-hand side, which is f times
    larger, so every ratio test and zero test, and hence every pivot,
    is the same, and the floor-f vertex is f times the floor-1 one.
    """
    rows_int, den = ensure_support(support).int_values
    if len(rows_int) == 1 and not any(rows_int[0]):
        return OneStepDensity(support.node, ONE, (ONE,), (ONE,))
    f = one_step_scale(support)
    probs, prob_den = support.int_probs
    n = len(rows_int)
    den *= prob_den
    # variables: g_1..g_n, then the max bound u; all floored at 1
    rows = [({i: 1, n: -1}, 0, False, 1) for i in range(n)]  # g_i <= u
    rows += [({i: p * x[j] for i, (x, p) in enumerate(zip(rows_int, probs)) if x[j]},
              0, True, den) for j in range(support.d)]  # E[g * increment_j] = 0
    # minimize u; solve_lp re-checks the optimal point against the floors
    # and the martingale rows; build_emm re-checks the pasted density
    outcome = solve_lp(make_lp(n + 1, ({n: -1}, 1), rows, [ONE] * (n + 1)))
    if isinstance(outcome, Infeasible):
        raise InternalError(f"node {support.node}: one-step density infeasible although "
                            "the origin is interior")
    if isinstance(outcome, Unbounded):
        raise InternalError(f"node {support.node}: one-step density program is bounded "
                            "below by the floor")
    assert isinstance(outcome, Optimal)
    g_nums, g_den = int_row(outcome.point[:n])
    mass = sum(map(mul, probs, g_nums))  # E[g^1], over prob_den * g_den
    if mass <= 0:
        raise InternalError(f"node {support.node}: one-step density has non-positive "
                            "conditional mass")
    f_num, f_den = int(f.numerator), int(f.denominator)
    g = rational_row([f_num * v for v in g_nums], f_den * g_den)
    return OneStepDensity(support.node, f, g, rational_row([v * prob_den for v in g_nums], mass))


class MartingaleConstruction(Record):
    __slots__ = ("density", "per_node", "bound")

    density: LeafDensity
    per_node: tuple[OneStepDensity, ...]  # node-id order over non-leaves
    bound: Rational  # max leaf density


def build_emm(tree: ScenarioTree) -> MartingaleConstruction:
    """Equivalent martingale density for the whole tree, or GeometryError
    carrying the first failing node's separating certificate.

    The leaf density is the path product of the normalized one-step
    densities, each child taking the value at its atom's index; its
    largest value is reported as the bound.
    """
    _, _, atom = _integer_form(tree)  # which validates the tree first
    per_node = []
    steps: dict[int, tuple[Rational, ...]] = {}
    for nid in tree.non_leaves():
        ds = one_step_density(conditional_support(tree, nid))
        per_node.append(ds)
        steps[nid] = ds.normalized

    path = {tree.root: ONE}
    for nd in tree.order[1:]:
        path[nd.id] = path[nd.parent] * steps[nd.parent][atom[nd.id]]
    z = {leaf: path[leaf] for leaf in tree.leaves()}

    density = LeafDensity.from_mapping(z)
    try:
        ok, residuals = verify_martingale(tree, density)
    except InputError as exc:  # check_density: positive, unit mass, on the leaves
        raise InternalError(f"martingale route: pasted density failed its re-check: "
                            f"{exc}") from exc
    if not ok:
        bad = {n: r for n, r in residuals.items() if any(r)}
        raise InternalError(f"martingale route: constructed measure is not a martingale: "
                            f"{bad}")
    return MartingaleConstruction(density, tuple(per_node), max(z.values()))


def verify_martingale(
    tree: ScenarioTree, density: LeafDensity
) -> tuple[bool, dict[int, Vector]]:
    """Exact martingale check of the reweighted tree.

    Returns (all residuals zero, per-node residual vectors), where the
    residual at a node is the reweighted conditional expectation of the
    one-step price increment. Each residual is an integer sum of the
    children's weights q * Z over one denominator against the tree's
    integer increments; a Rational is made only for a nonzero entry.
    """
    den, increment, _ = _integer_form(tree)  # which validates the tree first
    zproc = density_process(tree, density)
    zero = (ZERO,) * tree.d
    residuals: dict[int, Vector] = {}
    ok = True
    for nid in tree.non_leaves():
        kids = tree.children(nid)
        weights, w_den = int_row([tree.node(c).prob * zproc[c] for c in kids])
        sums = [sum(map(mul, weights, column)) for column in zip(*(increment[c] for c in kids))]
        if any(sums):
            ok = False
            z = zproc[nid]  # the weights' total, > 0
            scale = w_den * den * int(z.numerator)
            residuals[nid] = rational_row([v * int(z.denominator) for v in sums], scale)
        else:
            residuals[nid] = zero
    return ok, residuals
