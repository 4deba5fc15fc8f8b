"""Reference martingale-density oracle for the tests.

One LP over the leaf densities of the whole tree, independent of the
node-by-node construction in ``arbcheck.emm``; tests compare the two.
"""

from typing import Optional

from arbcheck import Q, verify_martingale
from arbcheck.errors import InternalError
from arbcheck.lp import Infeasible, Optimal, Unbounded, solve_lp
from arbcheck.tree import LeafDensity, ScenarioTree, leaf_probabilities
from lp_oracle import dense_lp

ZERO = Q(0)
ONE = Q(1)


def _leaves_under(tree: ScenarioTree) -> dict[int, tuple[int, ...]]:
    out: dict[int, tuple[int, ...]] = {}
    for nid in sorted((n.id for n in tree.nodes), key=lambda i: -tree.depth(i)):
        kids = tree.children(nid)
        if not kids:
            out[nid] = (nid,)
        else:
            acc: list[int] = []
            for c in kids:
                acc.extend(out[c])
            out[nid] = tuple(acc)
    return out


def find_martingale_density(tree: ScenarioTree) -> Optional[LeafDensity]:
    """Independent martingale-measure oracle, one LP over leaf densities:
    maximize the smallest density value subject to total mass 1 and the
    per-node martingale equations. A positive optimum is an equivalent
    martingale density; otherwise there is none."""
    leaves = tree.leaves()
    n = len(leaves)
    idx = {leaf: i for i, leaf in enumerate(leaves)}
    t = n  # index of the auxiliary floor variable
    p = leaf_probabilities(tree)
    under = _leaves_under(tree)

    rows = []
    rhs = []
    eqs = []
    for leaf in leaves:
        row = [ZERO] * (n + 1)
        row[t] = ONE
        row[idx[leaf]] = Q(-1)
        rows.append(row)  # t <= z_l
        rhs.append(ZERO)
        eqs.append(False)
    norm = [p[leaf] for leaf in leaves] + [ZERO]
    rows.append(norm)
    rhs.append(ONE)
    eqs.append(True)
    for nid in tree.non_leaves():
        base = tree.node(nid).price
        for j in range(tree.d):
            row = [ZERO] * (n + 1)
            touched = False
            for c in tree.children(nid):
                diff = tree.node(c).price[j] - base[j]
                if not diff:
                    continue
                touched = True
                for leaf in under[c]:
                    row[idx[leaf]] += p[leaf] * diff
            if touched:
                rows.append(row)
                rhs.append(ZERO)
                eqs.append(True)

    objective = [ZERO] * n + [ONE]
    outcome = solve_lp(dense_lp(objective, rows, rhs, eqs))
    if isinstance(outcome, Infeasible):
        return None  # no signed normalized solution at all, let alone positive
    if isinstance(outcome, Unbounded):
        raise InternalError("density search is bounded (the floor is at most 1)")
    assert isinstance(outcome, Optimal)
    if outcome.value <= 0:
        return None
    density = LeafDensity.from_mapping(
        {leaf: outcome.point[idx[leaf]] for leaf in leaves}
    )
    ok, residuals = verify_martingale(tree, density)
    if not ok:
        raise InternalError(f"density witness failed the martingale re-check: {residuals}")
    return density
