"""The node programs built in rational arithmetic, for the tests.

Each of the four per-node formulations (``ri``, ``separation``,
``support``, ``density``) is built here as ``arbcheck`` once built it:
every coefficient a sum of ``Fraction``-style products over the
support's atoms and basis. ``reference_node`` replays one node's
geometry and martingale routes from these builders, and
``shipped_node`` records the programs the package itself hands to
``solve_lp`` on the same routes, so a test can hold the two equal
program by program, and the outcomes read off them as well. Three
kinds of node are the exception, and ``expected_node`` is the oracle's
tuple without the programs the package does not solve there. At
linearly independent atoms (one atom x != 0 among them) it solves none:
the oracle's own ``ri`` program must be infeasible and its ``support``
program unbounded, and both certificates are ``unit_gain_reference``,
the direction from the Gram system. At atoms whose vanishing
combinations form one line of positive lambda (``kernel_line_reference``)
the geometry route solves none, and the oracle's ``ri`` program must be
optimal; its weights stay the certificate. At one atom x = 0, such a
line, the martingale route solves none either. The ``density``
program is solved at floor 1 and its vertex scaled by the floor f;
``assert_floor_f_density_matches`` holds the floor-f program of
``density_program_at_floor`` to that. The ``separation`` and
``support`` programs combine the support's integer basis rows
(``integer_basis``); over ``rational_basis``, 1 at each pivot, they are
the lifted programs, and ``assert_lifted_programs_match`` holds those
to the shipped answers.
"""

import pytest

import arbcheck.emm
import arbcheck.geometry
from arbcheck import Q
from arbcheck.emm import one_step_density, support_function
from arbcheck.errors import GeometryError
from arbcheck.geometry import (InRi, NotInRi, max_norm_normalize, ri_conv_contains_origin,
                               separation_optimum)
from arbcheck.lp import Infeasible, Optimal, Unbounded, solve_lp
from arbcheck.tree import conditional_mean
from helpers import atom_values, dot, integer_basis, rational_atoms, rational_basis
from linalg_oracle import kernel_line_reference, unit_gain_reference
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


def separation_program(support, basis=None):
    """The separation program over ``basis``, by default the support's
    integer rows as ``separation_optimum`` builds it; over
    ``rational_basis`` it is the lifted program, each column divided by
    its row's pivot entry."""
    basis = integer_basis(support) if basis is None else basis
    inner = [[dot(b, x) for b in basis] for x in atom_values(support)]
    rows = [(dict(enumerate(-c for c in coeffs)), ZERO, False) for coeffs in inner]
    for j in range(support.d):
        col = {k: b[j] for k, b in enumerate(basis)}
        rows.append((col, ONE, False))
        rows.append(({k: -c for k, c in col.items()}, ONE, False))
    objective = dict(enumerate(sum(column, ZERO) for column in zip(*inner)))
    return rational_lp(len(basis), objective, rows)


def support_program(support, a, basis=None):
    """The support program for ``a`` over ``basis``, by default the
    support's integer rows as ``support_function`` builds it."""
    basis = integer_basis(support) if basis is None else basis
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


def density_program_at_floor(support, f):
    """The min-max density program with every variable floored at
    ``f``, as ``one_step_density`` once built it."""
    atoms = rational_atoms(support)
    n = len(atoms)
    rows = [({i: ONE, n: Q(-1)}, ZERO, False) for i in range(n)]
    rows += [({i: q * x[j] for i, (x, q) in enumerate(atoms) if x[j]}, ZERO, True)
             for j in range(support.d)]
    return rational_lp(n + 1, {n: Q(-1)}, rows, [f] * (n + 1))


def density_program(support):
    """``one_step_density``'s program: the min-max density at floor 1."""
    return density_program_at_floor(support, ONE)


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
        cert = NotInRi(max_norm_normalize(combination(integer_basis(support), point)))
    a = mean(support)
    f = ONE  # s(a | T) = 0 when the span is {0}: no support program
    if support.int_basis:
        programs.append(support_program(support, a))
        outcome = solve(programs[-1])
        if isinstance(outcome, Unbounded):
            h = combination(integer_basis(support), outcome.ray)
            return programs, a, cert, NotInRi(max_norm_normalize(h))
        f = 1 / (1 + outcome.value)
    programs.append(density_program(support))
    g = tuple(f * gi for gi in solve(programs[-1]).point[:-1])
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
    programs at linearly independent atoms, where the oracle's ``ri``
    program is infeasible, its ``support`` program unbounded, and both
    certificates are ``unit_gain_reference``; no ``ri`` program where
    the atoms' vanishing combinations are one line of positive lambda,
    where the oracle's is optimal, and none at all at one atom x = 0;
    the oracle's programs and answers everywhere else."""
    programs, mean_, cert, density = reference_node(support, solved)
    n = len(support.int_values[0])
    if len(support.int_basis) == n:
        assert isinstance(solved[programs[0]], Infeasible), support
        assert isinstance(solved[programs[-1]], Unbounded), support
        h = NotInRi(unit_gain_reference(atom_values(support)))
        return [], mean_, h, h
    lam = kernel_line_reference(atom_values(support))
    if lam is not None and min(lam) > 0:
        assert isinstance(solved[programs[0]], Optimal), support
        programs = [] if n == 1 else programs[1:]
    return programs, mean_, cert, density


def assert_floor_f_density_matches(support):
    """Where ``one_step_density`` solves a program, the floor-f
    program's vertex is its density g, and f times the floor-1 vertex:
    the optimum u scales by f too."""
    rows_int, _ = support.int_values
    if len(rows_int) == 1 and not any(rows_int[0]):
        return  # g = f = 1, no program
    try:
        ds = one_step_density(support)
    except GeometryError:
        return
    at_floor = solve_lp(density_program_at_floor(support, ds.scale))
    at_one = solve_lp(density_program(support))
    assert at_floor.point == tuple(ds.scale * v for v in at_one.point), support
    assert at_floor.point[:-1] == ds.raw, support
    assert at_floor.value == ds.scale * at_one.value, support


def assert_lifted_programs_match(support):
    """The lifted ``separation`` and ``support`` programs, over the
    basis rows divided by their pivot entries, give the shipped optimum
    value and optimizer h, and an unbounded ``support`` program the
    shipped max-norm ray direction: each shipped column is a lifted one
    times that pivot entry, which Bland's rule does not see."""
    if not support.int_basis:
        return  # span {0}: neither program is built
    lifted = rational_basis(support)
    outcome = solve_lp(separation_program(support, lifted))
    assert (outcome.value, combination(lifted, outcome.point)) == separation_optimum(support), \
        support
    a = mean(support)
    outcome = solve_lp(support_program(support, a, lifted))
    shipped = solve_lp(support_program(support, a))
    if isinstance(outcome, Unbounded):
        h = max_norm_normalize(combination(lifted, outcome.ray))
        assert isinstance(shipped, Unbounded), support
        assert h == max_norm_normalize(combination(integer_basis(support), shipped.ray)), support
        with pytest.raises(GeometryError) as exc:
            support_function(support, a)
        assert exc.value.certificate.direction == h, support
    else:
        assert isinstance(shipped, Optimal) and outcome.value == shipped.value, support
        assert combination(lifted, outcome.point) \
            == combination(integer_basis(support), shipped.point), support
        assert outcome.value == support_function(support, a), support
