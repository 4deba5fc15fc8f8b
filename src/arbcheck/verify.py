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

from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Optional

from .emm import MartingaleConstruction, build_emm, one_step_scale
from .errors import GeometryError, InputError, InternalError, Record
from .geometry import InRi, NotInRi, RiCertificate, ri_conv_contains_origin
from .lp import Optimal, make_lp, solve_lp
from .rationals import (
    ONE,
    Q,
    Rational,
    Vector,
    ZERO,
    format_rational,
    int_row,
    rational_row,
)
from .tree import (
    LeafDensity,
    Node,
    ScenarioTree,
    Strategy,
    _check_int,
    _integer_form,
    conditional_support,
    ensure_valid,
    int_gains,
    path_probabilities,
)

if TYPE_CHECKING:
    import random


def find_arbitrage(tree: ScenarioTree) -> Optional[dict[int, Vector]]:
    """Strategy-space search: maximize the expected terminal gain over
    free predictable strategies with nonnegative terminal gain on every
    leaf, under the single budget E[gain] <= 1.

    Every leaf has positive probability, so an arbitrage has a positive
    expected gain and scales onto the budget: the optimum is exactly 1
    when an arbitrage exists and 0 when none does. The zero strategy is
    the starting vertex, so the solve needs no phase 1. The optimizer,
    divided by its max-norm, is returned after an exact gains re-check
    on all d coordinates.

    A node's gain depends on its strategy only through the span of its
    increments, so each node gets a column only at the pivot coordinate
    of each row of its support's ``int_basis`` (the row's first
    nonzero), and the witness is ZERO at its other coordinates. Those
    are the only columns the full program would ever enter: in the
    leftmost-pivot echelon form, each other coordinate's column of the
    node's increments is a combination of pivot columns to its left, and
    so are its objective and budget entries; its reduced cost is then
    that combination of reduced costs at smaller columns, so Bland's
    rule enters one of those first and the column stays nonbasic at 0.
    A tree with no increment at all has no column and no program.

    The nodes' columns come before their parents' (reversed
    ``tree.order``), so Bland's rule enters the sparse columns near the
    leaves first: the leaf rows hold their paths' columns, and such
    rows eliminated children-first take no fill-in (Parter 1961).

    The program is built from the tree's integer increments over their
    denominator D, in ``make_lp``'s integer form: each objective entry
    is one integer sum of the children's reach numerators times an
    increment coordinate, all over one denominator, and each leaf row
    holds the increments' numerators over D, negated. The witness is
    normalized and re-checked in integers.
    """
    ensure_valid(tree)
    pivots, first, nvars = {}, {}, 0  # node -> its pivot coordinates, its first column
    for nd in reversed(tree.order):
        if tree._children[nd.id]:
            basis = conditional_support(tree, nd.id).int_basis
            pivots[nd.id] = [next(j for j, a in enumerate(row) if a) for row, _ in basis]
            first[nd.id] = nvars
            nvars += len(basis)
    if nvars == 0:
        return None  # horizon zero, or no increment anywhere: no strategy gains
    den, increment, _ = _integer_form(tree)
    reach = path_probabilities(tree)

    # the expected gain: node by node, the children's reach over one
    # denominator against each pivot coordinate of their increments,
    # then every entry over the lcm of those denominators
    gain = []  # (column, numerator, denominator) of each nonzero entry
    for nid, coords in pivots.items():
        kids = tree.children(nid)
        weights, reach_den = int_row([reach[c] for c in kids])
        columns = list(zip(*(increment[c] for c in kids)))
        for k, j in enumerate(coords, first[nid]):
            if v := sum(map(mul, weights, columns[j])):
                gain.append((k, v, reach_den))
    common = lcm(*(q for _, _, q in gain))
    objective = {k: v * (common // q) for k, v, q in gain}
    # one pass from the root: each node's gain numerators over D negated
    loss: dict[int, dict[int, int]] = {tree.root: {}}
    for nd in tree.order[1:]:
        row = dict(loss[nd.parent])
        x = increment[nd.id]
        for k, j in enumerate(pivots[nd.parent], first[nd.parent]):
            if x[j]:
                row[k] = -x[j]
        loss[nd.id] = row

    rows = [(loss[leaf], 0, False, den) for leaf in tree.leaves()]  # terminal gain >= 0
    rows.append((objective, common * den, False, common * den))  # the budget E[gain] <= 1
    outcome = solve_lp(make_lp(nvars, (objective, common * den), rows))
    if not isinstance(outcome, Optimal) or outcome.value not in (0, 1):
        raise InternalError("strategy route: arbitrage search must end at optimum 0 or 1")
    if outcome.value == 0:
        return None
    nums, _ = int_row(outcome.point)
    point = rational_row(nums, max(map(abs, nums)))  # max-norm 1
    strategy = {}
    for nid, coords in pivots.items():
        h = [ZERO] * tree.d
        for k, j in enumerate(coords, first[nid]):
            h[j] = point[k]
        strategy[nid] = tuple(h)
    g, _ = int_gains(tree, strategy)
    if any(v < 0 for v in g.values()) or not any(g.values()):
        raise InternalError("strategy route: arbitrage witness failed the exact gains re-check")
    return strategy


def scaled_gain_optimum(tree: ScenarioTree) -> Rational:
    """Exact optimum of the budgeted scaled-gain program.

    Variables are a direction h_nu in the span of each node's support
    atoms; the objective is the reach-weighted, floor-scaled expected
    one-step gain, sum of p_nu * f_nu * (h_nu, mean_nu), and a single
    budget caps the reach-weighted expected one-step loss,
    sum of p_nu * E[(h_nu, x)^-], at 1. The nodes share only that
    budget, and node nu turns a budget share t into at most
    f_nu * s_nu * t, where s_nu = s(mean_nu | T_nu) is its support
    function, so the best node takes the whole budget. The optimum is
    therefore the largest f * s = s / (1 + s) = 1 - f over the
    non-leaves, and 0 for a horizon-zero tree. It lies in [0, 1) when
    every node passes the interiority test; otherwise the first failing
    node's GeometryError propagates. ``tests/scaled_gain_oracle.py``
    solves the program itself as one LP.
    """
    ensure_valid(tree)
    return max(
        (ONE - one_step_scale(conditional_support(tree, nid))
         for nid in tree.non_leaves()),
        default=ZERO,
    )


# --- random model generator -------------------------------------------------

MODES = ("generic", "martingale_perturbed")


class TreeParams(Record):
    """Ranges are deliberately small: exact pivots stay fast on
    single-digit numerators and denominators up to 16."""

    __slots__ = ("assets", "steps", "max_branching", "value_range", "max_denominator", "mode")

    assets: int
    steps: int
    max_branching: int
    value_range: tuple[int, int]
    max_denominator: int
    mode: str

    def __init__(self, assets=1, steps=1, max_branching=2, value_range=(-8, 8),
                 max_denominator=16, mode="generic") -> None:
        super().__init__(assets, steps, max_branching, value_range, max_denominator, mode)


def _check_params(params: TreeParams) -> None:
    if not isinstance(params, TreeParams):
        raise InputError(f"expected TreeParams, got {type(params).__name__}")
    for name, hi in (("assets", 4), ("steps", 5), ("max_branching", 5), ("max_denominator", 16)):
        value = getattr(params, name)
        _check_int(value, name)
        if not 1 <= value <= hi:
            raise InputError(f"{name} must be in 1..{hi}, got {value}")
    if params.mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {params.mode!r}")
    bounds = params.value_range
    if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2):
        raise InputError(f"value_range must be a pair (lo, hi), got {bounds!r}")
    lo, hi = bounds
    _check_int(lo, "value_range lo")
    _check_int(hi, "value_range hi")
    if lo >= hi:
        raise InputError(f"value_range must have lo < hi, got {bounds!r}")


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
    import random  # only the generator needs it; the CLI's check path does not

    _check_params(params)
    rng = random.Random(seed)
    lo, hi = params.value_range

    parent: list[Optional[int]] = [None]
    frontier = [0]
    for _ in range(params.steps):
        nxt = []
        for nid in frontier:
            k = rng.randint(1, params.max_branching)
            for _ in range(k):
                parent.append(nid)
                nxt.append(len(parent) - 1)
        frontier = nxt
    count = len(parent)
    children: list[list[int]] = [[] for _ in range(count)]
    for nid in range(1, count):
        children[parent[nid]].append(nid)

    max_den = params.max_denominator

    def draw_price() -> Vector:
        return tuple(_draw_rational(rng, lo, hi, max_den) for _ in range(params.assets))

    if params.mode == "generic":
        prices: list[Optional[Vector]] = [draw_price() for _ in range(count)]
    else:  # martingale_perturbed
        reference = {nid: _draw_probs(rng, len(kids), max_den)
                     for nid, kids in enumerate(children) if kids}
        prices = [None if kids else draw_price() for kids in children]
        for nid in reversed(range(count)):  # ids are breadth-first: children first
            if children[nid]:
                acc = [ZERO] * params.assets
                for c, q in zip(children[nid], reference[nid]):
                    cp = prices[c]
                    assert cp is not None
                    for j in range(params.assets):
                        acc[j] += q * cp[j]
                prices[nid] = tuple(acc)
    probs: list[Rational] = [ONE] * count
    for kids in children:
        if kids:
            for c, q in zip(kids, _draw_probs(rng, len(kids), max_den)):
                probs[c] = q

    nodes = [
        Node(nid, parent[nid], probs[nid], prices[nid])  # type: ignore[arg-type]
        for nid in range(count)
    ]
    return ScenarioTree(params.assets, params.steps, nodes)


# --- three-way equivalence harness ------------------------------------------


class EquivalenceReport(Record):
    __slots__ = ("verdict_na_strategy", "verdict_geometry", "verdict_emm", "arbitrage",
                 "construction", "certificates", "consistent", "seed")

    verdict_na_strategy: bool  # no arbitrage found by the strategy-space LP
    verdict_geometry: bool  # origin interior at every node
    verdict_emm: bool  # martingale construction succeeded and verified
    arbitrage: Optional[dict[int, Vector]]
    construction: Optional[MartingaleConstruction]
    certificates: dict[int, RiCertificate]
    consistent: bool
    seed: Optional[int]


def equivalence_report(tree: ScenarioTree, seed: Optional[int] = None) -> EquivalenceReport:
    """Run all three routes and report whether they agree.

    Disagreement is never raised from here: the report carries every
    witness so an inconsistency (which must never happen) stays
    diagnosable. Callers treat consistent=False as an alarm.
    """
    arbitrage = find_arbitrage(tree)  # validates the tree first

    certificates: dict[int, RiCertificate] = {}
    all_interior = True
    for nid in tree.non_leaves():
        cert = ri_conv_contains_origin(conditional_support(tree, nid))
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
    """The report's JSON form; InputError on anything but an
    EquivalenceReport."""
    if not isinstance(report, EquivalenceReport):
        raise InputError(f"expected an EquivalenceReport, got {type(report).__name__}")
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
