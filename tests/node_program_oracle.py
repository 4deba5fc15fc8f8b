"""The node programs built in rational arithmetic, for the tests.

Each of the four per-node formulations (``ri``, ``separation``,
``support``, ``density``) is built here as ``arbcheck`` once built it:
every coefficient a sum of ``Fraction``-style products over the
support's atoms and basis. ``reference_node`` replays one node's
geometry and martingale routes from these builders, and
``shipped_node`` records the programs the package itself hands to
``solve_lp`` on the same routes, so a test can hold the two equal
program by program, and the outcomes read off them as well. Two kinds
of node are the exception: the package answers them without a program,
and ``expected_node`` is the oracle's tuple with none there. At one
atom x = 0 its answers are the oracle's. At linearly independent atoms
(one atom x != 0 among them) the oracle's own ``ri`` program must be
infeasible and its ``support`` program unbounded, and both certificates
are ``unit_gain_reference``, the direction from the Gram system.
"""

import pytest

import arbcheck.emm
import arbcheck.geometry
from arbcheck import Q
from arbcheck.emm import one_step_density
from arbcheck.errors import GeometryError
from arbcheck.geometry import InRi, NotInRi, max_norm_normalize, ri_conv_contains_origin
from arbcheck.lp import Infeasible, Optimal, Unbounded, solve_lp
from arbcheck.tree import conditional_mean
from helpers import atom_values, dot, rational_atoms, rational_basis
from linalg_oracle import unit_gain_reference
from lp_oracle import rational_lp

ZERO = Q(0)
ONE = Q(1)


def mean(support):
    """sum_i q_i x_i."""
    acc = [ZERO] * support.d
    for x, q in rational_atoms(support):
        for j, xj in enumerate(x):
            acc[j] += q * xj
    return tuple(acc)


def combination(basis, coords):
    """sum_k coords[k] * basis[k]."""
    return tuple(sum((c * b for c, b in zip(coords, column)), ZERO) for column in zip(*basis))


def ri_program(support):
    pts = atom_values(support)
    n = len(pts)
    rows = [({i: x[j] for i, x in enumerate(pts)}, ZERO, True) for j in range(support.d)]
    return rational_lp(n, {}, rows, [ONE] * n)


def separation_program(support):
    basis = rational_basis(support)
    inner = [[dot(b, x) for b in basis] for x in atom_values(support)]
    rows = [(dict(enumerate(-c for c in coeffs)), ZERO, False) for coeffs in inner]
    for j in range(support.d):
        col = {k: b[j] for k, b in enumerate(basis)}
        rows.append((col, ONE, False))
        rows.append(({k: -c for k, c in col.items()}, ONE, False))
    objective = dict(enumerate(sum(column, ZERO) for column in zip(*inner)))
    return rational_lp(len(basis), objective, rows)


def support_program(support, a):
    basis = rational_basis(support)
    atoms = rational_atoms(support)
    r, n = len(basis), len(atoms)
    rows = []
    for i, (x, _) in enumerate(atoms):
        row = {k: -dot(b, x) for k, b in enumerate(basis)}
        row[r + i] = Q(-1)
        rows.append((row, ZERO, False))
    rows.append(({r + i: q for i, (_, q) in enumerate(atoms)}, ONE, False))
    objective = {k: dot(b, a) for k, b in enumerate(basis)}
    return rational_lp(r + n, objective, rows, [None] * r + [ZERO] * n)


def density_program(support, f):
    atoms = rational_atoms(support)
    n = len(atoms)
    rows = [({i: ONE, n: Q(-1)}, ZERO, False) for i in range(n)]
    rows += [({i: q * x[j] for i, (x, q) in enumerate(atoms) if x[j]}, ZERO, True)
             for j in range(support.d)]
    return rational_lp(n + 1, {n: Q(-1)}, rows, [f] * (n + 1))


def reference_node(support, solved):
    """(programs in solve order, conditional mean, ri certificate,
    the one-step density or the GeometryError certificate). Each
    program's outcome is kept in ``solved``, and a program already a
    key there is not solved again: the solver is deterministic."""

    def solve(lp):
        if lp not in solved:
            solved[lp] = solve_lp(lp)
        return solved[lp]

    programs = [ri_program(support)]
    outcome = solve(programs[0])
    if isinstance(outcome, Optimal):
        total = sum(outcome.point, ZERO)
        cert = InRi(tuple(w / total for w in outcome.point))
    else:  # the origin is never outside the hull of zero atoms alone
        programs.append(separation_program(support))
        point = solve(programs[-1]).point
        cert = NotInRi(max_norm_normalize(combination(rational_basis(support), point)))
    a = mean(support)
    f = ONE  # s(a | T) = 0 when the span is {0}: no support program
    if support.int_basis:
        programs.append(support_program(support, a))
        outcome = solve(programs[-1])
        if isinstance(outcome, Unbounded):
            h = combination(rational_basis(support), outcome.ray)
            return programs, a, cert, NotInRi(max_norm_normalize(h))
        f = 1 / (1 + outcome.value)
    programs.append(density_program(support, f))
    g = solve(programs[-1]).point[:-1]
    mass = sum((q * gi for (_, q), gi in zip(rational_atoms(support), g)), ZERO)
    return programs, a, cert, (support.node, f, g, tuple(gi / mass for gi in g))


def shipped_node(support, solved):
    """``reference_node``'s tuple from the package's own routes, with
    every program it solves recorded on the way and its outcome put in
    ``solved``."""
    programs = []

    def record(lp):
        programs.append(lp)
        solved[lp] = outcome = solve_lp(lp)
        return outcome

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arbcheck.geometry, "solve_lp", record)
        patch.setattr(arbcheck.emm, "solve_lp", record)
        cert = ri_conv_contains_origin(support)
        try:
            ds = one_step_density(support)
            density = (ds.node, ds.scale, ds.raw, ds.normalized)
        except GeometryError as exc:
            density = exc.certificate
    return programs, conditional_mean(support), cert, density


def expected_node(support, solved):
    """``reference_node``'s tuple as ``shipped_node`` must give it: no
    programs at one atom x = 0, with the oracle's answers; no programs
    at linearly independent atoms, where the oracle's ``ri`` program is
    infeasible, its ``support`` program unbounded, and both
    certificates are ``unit_gain_reference``; the oracle's programs and
    answers everywhere else."""
    programs, mean_, cert, density = reference_node(support, solved)
    n = len(support.int_values[0])
    if len(support.int_basis) == n:
        assert isinstance(solved[programs[0]], Infeasible), support
        assert isinstance(solved[programs[-1]], Unbounded), support
        h = NotInRi(unit_gain_reference(atom_values(support)))
        return [], mean_, h, h
    return ([] if n == 1 else programs, mean_, cert, density)
