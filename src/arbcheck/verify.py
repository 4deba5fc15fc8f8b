"""The strategy-space arbitrage search, the scaled-gain optimum, a
seeded model generator, and the three-way equivalence harness.

The three routes are deliberately separate computations sharing only
the exact LP core: a strategy-space program that searches for an
arbitrage directly, a per-node geometric test, and the constructive
martingale route from the emm module. On every input all three must
agree; the harness reports rather than assumes this. Each route
re-checks its own certificates, so the harness only compares verdicts.
Every tree entry point rejects an invalid tree with InputError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .emm import MartingaleConstruction, build_emm, one_step_scale
from .errors import GeometryError, InputError, InternalError
from .geometry import InRi, NotInRi, RiCertificate, ri_conv_contains_origin
from .linalg import span_basis
from .lp import Infeasible, Optimal, Unbounded, make_lp, solve_lp
from .rationals import (
    ONE,
    Q,
    Rational,
    Vector,
    ZERO,
    dot,
    format_rational,
    vec_sub,
)
from .tree import (
    LeafDensity,
    Node,
    ScenarioTree,
    Strategy,
    conditional_mean,
    conditional_support,
    ensure_valid,
    gains,
    path_probabilities,
)


def find_arbitrage(tree: ScenarioTree) -> Optional[dict[int, Vector]]:
    """Strategy-space search: maximize the expected terminal gain over
    predictable strategies with componentwise |gamma| <= 1 and
    nonnegative terminal gain on every leaf.

    A positive optimum is an arbitrage (returned after an exact gains
    re-check); optimum zero means none exists, since any arbitrage
    scales into the feasible box without losing its sign pattern.
    """
    ensure_valid(tree)
    non_leaves = tree.non_leaves()
    col: dict[tuple[int, int], int] = {}
    for nid in non_leaves:
        for j in range(tree.d):
            col[(nid, j)] = len(col)
    nvars = len(col)
    if nvars == 0:
        return None  # horizon-zero tree: no strategies at all
    reach = path_probabilities(tree)

    objective = [ZERO] * nvars
    for nid in non_leaves:
        base = tree.node(nid).price
        for c in tree.children(nid):
            pc = reach[c]
            delta = vec_sub(tree.node(c).price, base)
            for j in range(tree.d):
                if delta[j]:
                    objective[col[(nid, j)]] += pc * delta[j]

    rows = []
    rhs = []
    for idx in range(nvars):
        row = [ZERO] * nvars
        row[idx] = ONE
        rows.append(row)  # gamma <= 1 (the floor -1 is a variable bound)
        rhs.append(ONE)
    for leaf in tree.leaves():
        row = [ZERO] * nvars
        nid = leaf
        while True:
            nd = tree.node(nid)
            if nd.parent is None:
                break
            base = tree.node(nd.parent).price
            for j in range(tree.d):
                diff = nd.price[j] - base[j]
                if diff:
                    row[col[(nd.parent, j)]] -= diff
            nid = nd.parent
        rows.append(row)  # terminal gain >= 0
        rhs.append(ZERO)

    outcome = solve_lp(make_lp(objective, rows, rhs, lower=[Q(-1)] * nvars))
    if not isinstance(outcome, Optimal):
        raise InternalError("arbitrage search must be feasible and bounded")
    if outcome.value < 0:
        raise InternalError("arbitrage search undercut the zero strategy")
    if outcome.value == 0:
        return None
    strategy = {
        nid: tuple(outcome.point[col[(nid, j)]] for j in range(tree.d))
        for nid in non_leaves
    }
    g = gains(tree, strategy)
    if any(v < 0 for v in g.values()) or not any(v > 0 for v in g.values()):
        raise InternalError("arbitrage witness failed the exact gains re-check")
    return strategy


def scaled_gain_optimum(tree: ScenarioTree) -> Rational:
    """Exact optimum of the budgeted scaled-gain program.

    Variables are a direction in the span of each node's support atoms
    plus per-atom loss lifts; the objective is the reach-weighted,
    floor-scaled expected one-step gain, and a single budget caps the
    reach-weighted expected loss at 1. The optimum never exceeds 1 when
    every node passes the interiority test (which defines the floors).
    """
    ensure_valid(tree)
    reach = path_probabilities(tree)
    blocks = []  # (node, support, basis, floor)
    for nid in tree.non_leaves():
        support = conditional_support(tree, nid)
        basis = span_basis(support.values())
        if not basis:
            # a deterministic zero step contributes nothing anywhere
            one_step_scale(support)  # still enforce the precondition
            continue
        blocks.append((nid, support, basis, one_step_scale(support)))

    nvars = 0
    ycol = {}
    wcol = {}
    for nid, support, basis, _ in blocks:
        ycol[nid] = nvars
        nvars += len(basis)
        wcol[nid] = nvars
        nvars += len(support.atoms)
    if nvars == 0:
        return ZERO

    rows = []
    rhs = []
    lower: list[Optional[Rational]] = [None] * nvars
    budget = [ZERO] * nvars
    objective = [ZERO] * nvars
    for nid, support, basis, floor in blocks:
        y0, w0 = ycol[nid], wcol[nid]
        r = len(basis)
        mean = conditional_mean(support)
        pnu = reach[nid]
        for k in range(r):
            objective[y0 + k] = pnu * floor * dot(basis[k], mean)
        for i, (x, q) in enumerate(support.atoms):
            lower[w0 + i] = ZERO
            budget[w0 + i] = pnu * q
            row = [ZERO] * nvars
            for k in range(r):
                c = dot(basis[k], x)
                if c:
                    row[y0 + k] = -c
            row[w0 + i] = Q(-1)
            rows.append(row)  # w_i >= -(direction, x_i)
            rhs.append(ZERO)
    rows.append(budget)
    rhs.append(ONE)

    outcome = solve_lp(make_lp(objective, rows, rhs, lower=lower))
    if isinstance(outcome, Unbounded):
        raise InternalError("scaled-gain program unbounded: the floor bound failed")
    if isinstance(outcome, Infeasible):
        raise InternalError("scaled-gain program rejects the zero point")
    assert isinstance(outcome, Optimal)
    if outcome.value < 0:
        raise InternalError("scaled-gain optimum undercut the zero point")
    return outcome.value


# --- random model generator -------------------------------------------------

MODES = ("generic", "martingale_perturbed")


@dataclass(frozen=True)
class TreeParams:
    """Ranges are deliberately small: exact pivots stay fast on
    single-digit numerators and denominators up to 16."""

    assets: int = 1
    steps: int = 1
    max_branching: int = 2
    value_range: tuple[int, int] = (-8, 8)
    max_denominator: int = 16
    mode: str = "generic"


def _check_params(params: TreeParams) -> None:
    if not 1 <= params.assets <= 4:
        raise InputError(f"assets must be in 1..4, got {params.assets}")
    if not 1 <= params.steps <= 5:
        raise InputError(f"steps must be in 1..5, got {params.steps}")
    if not 1 <= params.max_branching <= 5:
        raise InputError(f"max_branching must be in 1..5, got {params.max_branching}")
    if params.mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {params.mode!r}")
    lo, hi = params.value_range
    if not (isinstance(lo, int) and isinstance(hi, int) and lo < hi):
        raise InputError(f"value_range must be integers lo < hi, got {params.value_range}")
    if not 1 <= params.max_denominator <= 16:
        raise InputError(
            f"max_denominator must be in 1..16, got {params.max_denominator}"
        )


def _draw_rational(rng: random.Random, lo: int, hi: int, max_den: int) -> Rational:
    den = rng.randint(1, max_den)
    return Q(rng.randint(lo * den, hi * den), den)


def _draw_probs(rng: random.Random, k: int, max_den: int) -> list[Rational]:
    if k == 1:
        return [ONE]
    den = rng.randint(k, max(k, max_den))
    cuts = sorted(rng.sample(range(1, den), k - 1))
    parts = []
    prev = 0
    for c in cuts:
        parts.append(Q(c - prev, den))
        prev = c
    parts.append(Q(den - prev, den))
    return parts


def random_tree(params: TreeParams, seed: int) -> ScenarioTree:
    """Deterministic for a fixed (params, seed): a single Mersenne
    Twister stream (random.Random(seed)) is consumed in a fixed order:
    tree shape breadth-first, then mode-specific draws in node-id order.

    generic: prices for every node, then child probabilities per
    non-leaf. martingale_perturbed: reference child probabilities per
    non-leaf, leaf prices, interior prices as reference-weighted child
    averages bottom-up (so a martingale measure exists by construction),
    then fresh actual probabilities per non-leaf.
    """
    _check_params(params)
    rng = random.Random(seed)
    lo, hi = params.value_range

    parent: list[Optional[int]] = [None]
    depth = [0]
    frontier = [0]
    for level in range(params.steps):
        nxt = []
        for nid in frontier:
            k = rng.randint(1, params.max_branching)
            for _ in range(k):
                parent.append(nid)
                depth.append(level + 1)
                nxt.append(len(parent) - 1)
        frontier = nxt
    count = len(parent)
    children: list[list[int]] = [[] for _ in range(count)]
    for nid in range(1, count):
        children[parent[nid]].append(nid)

    prices: list[Optional[Vector]] = [None] * count
    probs: list[Rational] = [ONE] * count

    if params.mode == "generic":
        for nid in range(count):
            prices[nid] = tuple(
                _draw_rational(rng, lo, hi, params.max_denominator)
                for _ in range(params.assets)
            )
        for nid in range(count):
            if children[nid]:
                for c, q in zip(children[nid], _draw_probs(rng, len(children[nid]), params.max_denominator)):
                    probs[c] = q
    else:  # martingale_perturbed
        reference: dict[int, list[Rational]] = {}
        for nid in range(count):
            if children[nid]:
                reference[nid] = _draw_probs(rng, len(children[nid]), params.max_denominator)
        for nid in range(count):
            if not children[nid]:
                prices[nid] = tuple(
                    _draw_rational(rng, lo, hi, params.max_denominator)
                    for _ in range(params.assets)
                )
        for nid in sorted(range(count), key=lambda i: -depth[i]):
            if children[nid]:
                acc = [ZERO] * params.assets
                for c, q in zip(children[nid], reference[nid]):
                    cp = prices[c]
                    assert cp is not None
                    for j in range(params.assets):
                        acc[j] += q * cp[j]
                prices[nid] = tuple(acc)
        for nid in range(count):
            if children[nid]:
                for c, q in zip(children[nid], _draw_probs(rng, len(children[nid]), params.max_denominator)):
                    probs[c] = q

    nodes = [
        Node(nid, parent[nid], probs[nid], prices[nid])  # type: ignore[arg-type]
        for nid in range(count)
    ]
    return ScenarioTree(params.assets, params.steps, nodes)


# --- three-way equivalence harness ------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    verdict_na_strategy: bool  # no arbitrage found by the strategy-space LP
    verdict_geometry: bool  # origin interior at every node
    verdict_emm: bool  # martingale construction succeeded and verified
    arbitrage: Optional[dict[int, Vector]]
    construction: Optional[MartingaleConstruction]
    certificates: dict[int, RiCertificate]
    consistent: bool
    seed: Optional[int] = None


def equivalence_report(tree: ScenarioTree, seed: Optional[int] = None) -> EquivalenceReport:
    """Run all three routes and report whether they agree.

    Disagreement is never raised from here: the report carries every
    witness so an inconsistency (which must never happen) stays
    diagnosable. Callers treat consistent=False as an alarm.
    """
    ensure_valid(tree)
    arbitrage = find_arbitrage(tree)

    certificates: dict[int, RiCertificate] = {}
    all_interior = True
    for nid in tree.non_leaves():
        support = conditional_support(tree, nid)
        cert = ri_conv_contains_origin(support.values())
        certificates[nid] = cert
        if isinstance(cert, NotInRi):
            all_interior = False

    construction: Optional[MartingaleConstruction] = None
    emm_ok = False
    try:
        construction = build_emm(tree)
        emm_ok = True
    except GeometryError:
        emm_ok = False

    na = arbitrage is None
    consistent = na == all_interior == emm_ok
    return EquivalenceReport(
        verdict_na_strategy=na,
        verdict_geometry=all_interior,
        verdict_emm=emm_ok,
        arbitrage=arbitrage,
        construction=construction,
        certificates=certificates,
        consistent=consistent,
        seed=seed,
    )


# --- JSON forms -------------------------------------------------------------


def certificate_to_json(node: int, cert: RiCertificate) -> dict:
    if isinstance(cert, InRi):
        return {
            "node": node,
            "verdict": "in_ri",
            "weights": [format_rational(w) for w in cert.weights],
        }
    return {
        "node": node,
        "verdict": "not_in_ri",
        "direction": [format_rational(c) for c in cert.direction],
    }


def strategy_to_json(strategy: Strategy) -> dict:
    return {
        str(nid): [format_rational(c) for c in vec]
        for nid, vec in sorted(strategy.items())
    }


def density_to_json(density: LeafDensity) -> dict:
    return {str(leaf): format_rational(z) for leaf, z in density.values}


def construction_to_json(construction: MartingaleConstruction) -> dict:
    return {
        "leaf_density": density_to_json(construction.density),
        "bound": format_rational(construction.bound),
        "per_node": [
            {
                "node": ds.node,
                "f": format_rational(ds.scale),
                "g": [format_rational(v) for v in ds.raw],
                "g_hat": [format_rational(v) for v in ds.normalized],
            }
            for ds in construction.per_node
        ],
    }


def report_to_json(report: EquivalenceReport) -> dict:
    return {
        "verdict_na_strategy": report.verdict_na_strategy,
        "verdict_geometry": report.verdict_geometry,
        "verdict_emm": report.verdict_emm,
        "consistent": report.consistent,
        "seed": report.seed,
        "witnesses": {
            "arbitrage": None
            if report.arbitrage is None
            else strategy_to_json(report.arbitrage),
            "density": None
            if report.construction is None
            else density_to_json(report.construction.density),
            "bound": None
            if report.construction is None
            else format_rational(report.construction.bound),
        },
        "certificates": [
            certificate_to_json(nid, cert)
            for nid, cert in sorted(report.certificates.items())
        ],
    }
