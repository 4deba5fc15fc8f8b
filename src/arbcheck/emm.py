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
separating certificate otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeometryError, InputError, InternalError
from .geometry import NotInRi, check_ri_certificate, max_norm_normalize
from .linalg import in_span, span_basis
from .lp import Infeasible, Optimal, Unbounded, make_lp, solve_lp
from .rationals import ONE, Q, Rational, Vector, ZERO, dot, vec_sub
from .tree import (
    ConditionalSupport,
    LeafDensity,
    ScenarioTree,
    conditional_mean,
    conditional_support,
    density_process,
    ensure_valid,
)


def expected_negative_part(support: ConditionalSupport, h: Vector) -> Rational:
    """Expected one-step loss of direction h at the node:
    sum_i q_i * max(-(h, x_i), 0). Convex and positively homogeneous."""
    total = ZERO
    for x, q in support.atoms:
        v = dot(h, x)
        if v < 0:
            total -= q * v
    return total


def support_function(support: ConditionalSupport, a: Vector) -> Rational:
    """s(a | T) where T = {h in span(atoms) : expected one-step loss of
    h <= 1}: the largest (a, h) over T.

    T is compact exactly when the origin is in the relative interior of
    the atoms' hull; an unbounded program therefore signals a violated
    precondition and raises GeometryError for the owning node.
    """
    values = support.values()
    if not in_span(a, values):
        raise InputError("query vector outside the span of the atoms")
    basis = span_basis(values)
    r = len(basis)
    if r == 0:
        return ZERO  # span {0}: T = {0}
    n = len(support.atoms)
    d = support.d
    # variables: y_1..y_r free (h = sum y_k b_k), then t_1..t_n >= 0
    nvars = r + n
    rows = []
    rhs = []
    for i, (x, _) in enumerate(support.atoms):
        row = [ZERO] * nvars
        for k in range(r):
            c = dot(basis[k], x)
            if c:
                row[k] = -c
        row[r + i] = Q(-1)
        rows.append(row)  # t_i >= -(h, x_i)
        rhs.append(ZERO)
    budget = [ZERO] * nvars
    for i, (_, q) in enumerate(support.atoms):
        budget[r + i] = q
    rows.append(budget)  # expected lifted loss <= 1
    rhs.append(ONE)
    objective = [dot(basis[k], a) for k in range(r)] + [ZERO] * n
    lower = [None] * r + [ZERO] * n
    outcome = solve_lp(make_lp(objective, rows, rhs, lower=lower))
    if isinstance(outcome, Unbounded):
        # the ray's direction part certifies the origin outside the
        # relative interior: every (h, x_i) >= 0 and (a, h) > 0
        y = outcome.ray
        h = tuple(
            sum((y[k] * basis[k][j] for k in range(r)), ZERO) for j in range(d)
        )
        cert = NotInRi(max_norm_normalize(h))
        if not check_ri_certificate(values, cert):
            raise InternalError("unbounded support program gave a bad certificate")
        raise GeometryError(support.node, cert)
    if isinstance(outcome, Infeasible):
        raise InternalError("support program is never infeasible (0 is feasible)")
    assert isinstance(outcome, Optimal)
    if outcome.value < 0:
        raise InternalError("support function came out negative with 0 in T")
    return outcome.value


def one_step_scale(support: ConditionalSupport) -> Rational:
    """The floor 1 / (1 + s(mean | T)); always in (0, 1]."""
    s = support_function(support, conditional_mean(support))
    return 1 / (1 + s)


@dataclass(frozen=True)
class OneStepDensity:
    """One-step change of measure at a node, aligned with the atoms of
    its ConditionalSupport (children sharing an increment share a
    value)."""

    node: int
    scale: Rational  # the floor f
    raw: tuple[Rational, ...]  # g, with g_i >= scale and E[g * x] = 0
    normalized: tuple[Rational, ...]  # g / E[g], a conditional probability change

    def atom_map(self, support: ConditionalSupport) -> dict[Vector, Rational]:
        return {x: gh for (x, _), gh in zip(support.atoms, self.normalized)}


def one_step_density(support: ConditionalSupport) -> OneStepDensity:
    """Min-max selection: the feasible density with the smallest largest
    component, so the reported global bound is the tightest this
    construction yields. A node without the origin in the relative
    interior of its support never gets here (``one_step_scale`` raises
    GeometryError first), so an infeasible program is an internal error.
    """
    f = one_step_scale(support)
    n = len(support.atoms)
    d = support.d
    # variables: g_1..g_n, then the max bound u; all floored at f
    nvars = n + 1
    rows = []
    rhs = []
    eqs = []
    for i in range(n):
        row = [ZERO] * nvars
        row[i] = ONE
        row[n] = Q(-1)
        rows.append(row)  # g_i <= u
        rhs.append(ZERO)
        eqs.append(False)
    for j in range(d):
        row = [ZERO] * nvars
        for i, (x, q) in enumerate(support.atoms):
            if x[j]:
                row[i] = q * x[j]
        rows.append(row)  # E[g * increment_j] = 0
        rhs.append(ZERO)
        eqs.append(True)
    objective = [ZERO] * n + [Q(-1)]  # minimize u
    lower = [f] * nvars
    outcome = solve_lp(make_lp(objective, rows, rhs, eqs, lower))
    if isinstance(outcome, Infeasible):
        raise InternalError("one-step density infeasible although the origin is interior")
    if isinstance(outcome, Unbounded):
        raise InternalError("one-step density program is bounded below by the floor")
    assert isinstance(outcome, Optimal)
    g = outcome.point[:n]
    mass = sum((q * gi for (_, q), gi in zip(support.atoms, g)), ZERO)
    if mass <= 0:
        raise InternalError("one-step density has non-positive conditional mass")
    g_hat = tuple(gi / mass for gi in g)
    result = OneStepDensity(support.node, f, g, g_hat)
    _check_one_step(support, result)
    return result


def _check_one_step(support: ConditionalSupport, ds: OneStepDensity) -> None:
    if ds.scale <= 0 or ds.scale > 1:
        raise InternalError(f"scale {ds.scale} outside (0, 1]")
    if any(gi < ds.scale for gi in ds.raw):
        raise InternalError("raw one-step density dips below its floor")
    for j in range(support.d):
        total = sum((q * gi * x[j] for (x, q), gi in zip(support.atoms, ds.raw)), ZERO)
        if total != 0:
            raise InternalError("one-step martingale equation violated")
    mass = sum((q * gh for (_, q), gh in zip(support.atoms, ds.normalized)), ZERO)
    if mass != 1:
        raise InternalError("normalized one-step density mass != 1")


@dataclass(frozen=True)
class MartingaleConstruction:
    density: LeafDensity
    per_node: tuple[OneStepDensity, ...]  # node-id order over non-leaves
    bound: Rational  # max leaf density


def build_emm(tree: ScenarioTree) -> MartingaleConstruction:
    """Equivalent martingale density for the whole tree, or GeometryError
    carrying the first failing node's separating certificate.

    The leaf density is the path product of the normalized one-step
    densities; its largest value is reported as the bound.
    """
    ensure_valid(tree)
    steps: dict[int, dict[Vector, Rational]] = {}
    per_node = []
    for nid in tree.non_leaves():
        support = conditional_support(tree, nid)
        ds = one_step_density(support)
        per_node.append(ds)
        steps[nid] = ds.atom_map(support)

    z: dict[int, Rational] = {}
    stack: list[tuple[int, Rational]] = [(tree.root, ONE)]
    while stack:
        nid, acc = stack.pop()
        kids = tree.children(nid)
        if not kids:
            z[nid] = acc
            continue
        base = tree.node(nid).price
        table = steps[nid]
        for c in kids:
            increment = vec_sub(tree.node(c).price, base)
            stack.append((c, acc * table[increment]))

    density = LeafDensity.from_mapping(z)
    try:
        ok, residuals = verify_martingale(tree, density)
    except InputError as exc:  # check_density: positive, unit mass, on the leaves
        raise InternalError(f"pasted density failed its re-check: {exc}") from exc
    if not ok:
        bad = {n: r for n, r in residuals.items() if any(r)}
        raise InternalError(f"constructed measure is not a martingale: {bad}")
    return MartingaleConstruction(density, tuple(per_node), max(z.values()))


def verify_martingale(
    tree: ScenarioTree, density: LeafDensity
) -> tuple[bool, dict[int, Vector]]:
    """Exact martingale check of the reweighted tree.

    Returns (all residuals zero, per-node residual vectors), where the
    residual at a node is the reweighted conditional expectation of the
    one-step price increment.
    """
    zproc = density_process(tree, density)
    residuals: dict[int, Vector] = {}
    ok = True
    for nid in tree.non_leaves():
        base = tree.node(nid).price
        acc = [ZERO] * tree.d
        for c in tree.children(nid):
            child = tree.node(c)
            w = child.prob * zproc[c] / zproc[nid]
            for j in range(tree.d):
                diff = child.price[j] - base[j]
                if diff:
                    acc[j] += w * diff
        vec = tuple(acc)
        residuals[nid] = vec
        if any(vec):
            ok = False
    return ok, residuals
