"""The per-tree loops built in rational arithmetic, for the tests.

The strategy program of ``find_arbitrage``, the grouping of a node's
children into support atoms, ``gains`` and the martingale residuals of
``verify_martingale`` are built here as ``arbcheck`` once built them:
every increment a difference of prices and every sum a sum of
``Fraction``-style products, read from the nodes alone. The strategy
program has a column at each pivot coordinate of each node's atoms, by
rational row reduction; ``full_strategy_program`` keeps all d columns
per node, and ``assert_full_strategy_program_matches`` holds its
optimum, point and witness to the shipped ones.
``assert_tree_loops_match`` holds the package equal to them on one
tree: the strategy program field by field (as recorded by
``shipped_strategy_program``), each support's atoms in order, ``int_gains``
on a seeded strategy and ``verify_martingale`` on densities whose
residuals are mostly nonzero. ``assert_support_matches_constructor``
holds one support equal to the one built from its reference atoms.
"""

import random

import pytest

import arbcheck.verify
from arbcheck import Q, conditional_support, find_arbitrage, verify_martingale
from arbcheck.lp import solve_lp
from arbcheck.tree import LeafDensity, int_gains
from helpers import dot, rational_atoms, support_from_atoms, vec_sub
from linalg_oracle import rref_basis
from lp_oracle import rational_lp

ZERO = Q(0)
ONE = Q(1)


def _increment(tree, nid):
    nd = tree.node(nid)
    return vec_sub(nd.price, tree.node(nd.parent).price)


def _reach(tree):
    prob = {tree.root: tree.node(tree.root).prob}
    for nd in tree.order[1:]:
        prob[nd.id] = prob[nd.parent] * nd.prob
    return prob


def pivot_coordinates(tree, nid):
    """The coordinates of ``nid``'s increments that head a row of their
    rational reduced row-echelon basis."""
    basis = rref_basis([x for x, _ in support_atoms(tree, nid)])
    return [next(j for j, c in enumerate(row) if c) for row in basis]


def _columns(tree, coordinates):
    """{(node, coordinate): column} over ``coordinates(node)`` at each
    non-leaf, each node's columns numbered before its parent's."""
    col = {}
    for nid in reversed([nd.id for nd in tree.order]):
        if tree.children(nid):
            for j in coordinates(nid):
                col[(nid, j)] = len(col)
    return col


def _strategy_program(tree, col):
    """Maximize the expected gain over leaf gains >= 0 and the budget
    E[gain] <= 1, with a strategy column at each key of ``col``. The
    expected gain is summed edge by edge, each child's reach times its
    increment, not as the package sums it, from the leaf rows."""
    reach = _reach(tree)
    objective = {}
    loss = {tree.root: {}}
    for nd in tree.order[1:]:
        row = dict(loss[nd.parent])
        for j, diff in enumerate(_increment(tree, nd.id)):
            k = col.get((nd.parent, j))
            if diff and k is not None:
                objective[k] = objective.get(k, ZERO) + reach[nd.id] * diff
                row[k] = -diff
        loss[nd.id] = row
    rows = [(loss[leaf], ZERO, False) for leaf in tree.leaves()]
    rows.append((objective, ONE, False))
    return rational_lp(len(col), objective, rows)


def strategy_columns(tree):
    """``find_arbitrage``'s columns: one per pivot coordinate of each
    non-leaf."""
    return _columns(tree, lambda nid: pivot_coordinates(tree, nid))


def strategy_program(tree):
    """``find_arbitrage``'s program over ``strategy_columns``, or None
    when the tree has no column and so no program."""
    col = strategy_columns(tree)
    return _strategy_program(tree, col) if col else None


def full_strategy_program(tree):
    """The program with all d columns at each non-leaf, as
    ``find_arbitrage`` once built it, and its column map."""
    col = _columns(tree, lambda nid: range(tree.d))
    return _strategy_program(tree, col), col


class _Stop(Exception):
    pass


def shipped_strategy_program(tree):
    """The program ``find_arbitrage`` hands to ``solve_lp``, recorded
    and not solved; None when it solves none."""
    programs = []

    def record(lp):
        programs.append(lp)
        raise _Stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arbcheck.verify, "solve_lp", record)
        try:
            arbcheck.verify.find_arbitrage(tree)
        except _Stop:
            pass
    return programs[0] if programs else None


def assert_full_strategy_program_matches(tree):
    """The full-column program reaches the shipped program's optimum at
    the shipped point, with 0 at every column the shipped program
    drops, and its point over its max-norm is ``find_arbitrage``'s
    witness (None at optimum 0)."""
    full, col = full_strategy_program(tree)
    outcome = solve_lp(full)
    shipped = shipped_strategy_program(tree)
    spread = [ZERO] * full.n_vars
    if shipped is not None:
        reduced = solve_lp(shipped)
        assert outcome.value == reduced.value
        for key, k in strategy_columns(tree).items():
            spread[col[key]] = reduced.point[k]
    assert outcome.point == tuple(spread)
    witness = None
    if outcome.value:
        top = max(abs(c) for c in outcome.point)
        witness = {nid: tuple(outcome.point[col[(nid, j)]] / top for j in range(tree.d))
                   for nid in tree.non_leaves()}
    assert find_arbitrage(tree) == witness


def support_atoms(tree, nid):
    """The distinct increments into ``nid``'s children in order of first
    appearance, each with its summed transition probability."""
    weight = {}
    for c in tree.children(nid):
        delta = _increment(tree, c)
        weight[delta] = weight.get(delta, ZERO) + tree.node(c).prob
    return tuple(weight.items())


def assert_support_matches_constructor(tree, nid):
    """The support ``conditional_support`` builds at ``nid`` from the
    tree's integer form, equal to the one ``support_from_atoms`` builds
    from ``support_atoms``, and so is the basis the constructor derives."""
    cs = conditional_support(tree, nid)
    twin = support_from_atoms(nid, support_atoms(tree, nid))
    assert cs == twin, nid
    assert cs.int_basis == twin.int_basis, nid


def gains(tree, strategy):
    """Terminal gain per leaf: the sum over the path of (strategy at the
    parent, increment)."""
    gain = {tree.root: ZERO}
    for nd in tree.order[1:]:
        gain[nd.id] = gain[nd.parent] + dot(strategy[nd.parent], _increment(tree, nd.id))
    return {leaf: gain[leaf] for leaf in tree.leaves()}


def martingale_residuals(tree, density):
    """``verify_martingale``'s (all zero, residual per non-leaf), where
    a residual is the reweighted conditional mean of the increment."""
    z = density.as_dict()
    for nd in reversed(tree.order[1:]):
        z[nd.parent] = z.get(nd.parent, ZERO) + nd.prob * z[nd.id]
    residuals = {}
    for nid in tree.non_leaves():
        acc = [ZERO] * tree.d
        for c in tree.children(nid):
            w = tree.node(c).prob * z[c] / z[nid]
            for j, diff in enumerate(_increment(tree, c)):
                acc[j] += w * diff
        residuals[nid] = tuple(acc)
    return not any(any(r) for r in residuals.values()), residuals


def arbitrary_strategy(tree, seed):
    """A seeded strategy of small rationals, zero entries included."""
    rng = random.Random(seed)
    return {nid: tuple(Q(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(tree.d))
            for nid in tree.non_leaves()}


def densities(tree, base=None):
    """``base`` (or the identity density), and copies of it with mass
    moved between leaves: each keeps unit mass and positivity, and most
    have nonzero residuals."""
    leaf_prob = {leaf: p for leaf, p in _reach(tree).items() if not tree.children(leaf)}
    z = {leaf: ONE for leaf in leaf_prob} if base is None else base.as_dict()
    out = [LeafDensity.from_mapping(z)]
    leaves = sorted(leaf_prob)
    for a, b in zip(leaves, leaves[1:] + leaves[:1]):
        if a == b:
            continue
        shift = leaf_prob[b] * z[b] / 3  # z_b loses a third, z_a gains the same mass
        moved = dict(z)
        moved[a] += shift / leaf_prob[a]
        moved[b] -= shift / leaf_prob[b]
        out.append(LeafDensity.from_mapping(moved))
        if len(out) > 3:
            break
    return out


def assert_tree_loops_match(tree, seed, witness=None, density=None):
    """The package's strategy program, supports, ``int_gains`` and
    ``verify_martingale`` on ``tree``, each equal to the reference: the
    gains on a seeded strategy and on ``witness`` when given, the
    residuals on ``densities(tree, density)``."""
    assert shipped_strategy_program(tree) == strategy_program(tree)
    for nid in tree.non_leaves():
        assert rational_atoms(conditional_support(tree, nid)) == support_atoms(tree, nid), nid
    for strategy in [arbitrary_strategy(tree, seed)] + ([witness] if witness else []):
        nums, den = int_gains(tree, strategy)
        assert {leaf: Q(v, den) for leaf, v in nums.items()} == gains(tree, strategy), strategy
    for z in densities(tree, density):
        assert verify_martingale(tree, z) == martingale_residuals(tree, z), z
