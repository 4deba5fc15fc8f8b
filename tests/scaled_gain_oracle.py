"""Reference scaled-gain oracle for the tests.

The budgeted program of ``arbcheck.scaled_gain_optimum`` solved as one
LP over the whole tree: a block of variables per node, joined only by
the budget row. The library returns the closed form of its optimum;
tests compare the two.
"""

from typing import Optional

from arbcheck.emm import one_step_scale
from arbcheck.errors import InternalError
from arbcheck.lp import Infeasible, Optimal, Unbounded, solve_lp
from arbcheck.rationals import ONE, Q, Rational, ZERO
from arbcheck.tree import (
    ScenarioTree,
    conditional_mean,
    conditional_support,
    ensure_valid,
    path_probabilities,
)
from helpers import dot, integer_basis, rational_atoms
from lp_oracle import dense_lp


def scaled_gain_lp(tree: ScenarioTree) -> Rational:
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
        basis = integer_basis(support)
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
        nvars += len(support.int_probs[0])
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
        for i, (x, q) in enumerate(rational_atoms(support)):
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

    outcome = solve_lp(dense_lp(objective, rows, rhs, lower=lower))
    if isinstance(outcome, Unbounded):
        raise InternalError("scaled-gain program unbounded: the floor bound failed")
    if isinstance(outcome, Infeasible):
        raise InternalError("scaled-gain program rejects the zero point")
    assert isinstance(outcome, Optimal)
    if outcome.value < 0:
        raise InternalError("scaled-gain optimum undercut the zero point")
    return outcome.value
