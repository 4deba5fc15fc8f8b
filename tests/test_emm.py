import copy
import pickle

import pytest

import arbcheck.emm
import arbcheck.geometry
from arbcheck import (
    Q,
    build_emm,
    conditional_mean,
    conditional_support,
    equivalence_report,
    leaf_probabilities,
    verify_martingale,
)
from arbcheck.emm import (
    OneStepDensity,
    one_step_density,
    one_step_scale,
    support_function,
)
from arbcheck.errors import GeometryError, InputError, InternalError
from arbcheck.geometry import (
    InRi,
    NotInRi,
    arbitrage_direction,
    check_ri_certificate,
    ri_conv_contains_origin,
)
from arbcheck.lp import Infeasible, Optimal, Unbounded, solve_lp
from arbcheck.tree import LeafDensity, check_density
from helpers import (
    atom_values,
    binomial,
    dot,
    localized_arbitrage,
    one_step,
    rational_atoms,
    reweight,
    single_chain,
    skewed_coin,
    skewed_coin_two_period,
    support,
    support_from_atoms,
    sure_win,
    vec,
)

ZERO = Q(0)
ONE = Q(1)


def coin_support():
    return conditional_support(skewed_coin(), 0)


class TestSupportFunction:
    def test_worked_value(self):
        assert support_function(coin_support(), (Q(1, 2),)) == Q(2)

    def test_at_origin(self):
        assert support_function(coin_support(), (ZERO,)) == ZERO

    def test_scales(self):
        cs = coin_support()
        assert support_function(cs, (Q(1),)) == 2 * support_function(cs, (Q(1, 2),))

    def test_outside_span_rejected(self):
        t = one_step([(1, 0), (-1, 0)], ["1/2", "1/2"])
        cs = conditional_support(t, 0)
        with pytest.raises(InputError):
            support_function(cs, (ZERO, Q(1)))

    def test_inexact_query_rejected(self):
        with pytest.raises(InputError, match="not a Rational"):
            support_function(coin_support(), (0.5,))

    def test_unbounded_when_origin_not_interior(self):
        cs = conditional_support(sure_win(), 0)
        with pytest.raises(GeometryError) as exc:
            support_function(cs, conditional_mean(cs))
        cert = exc.value.certificate
        assert isinstance(cert, NotInRi)
        assert check_ri_certificate(cs, cert)


class TestOneStepDensity:
    def test_worked_scale(self):
        assert one_step_scale(coin_support()) == Q(1, 3)

    def test_worked_density(self):
        out = one_step_density(coin_support())
        assert out.scale == Q(1, 3)
        assert out.raw == (Q(1, 3), Q(1))
        assert out.normalized == (Q(2, 3), Q(2))

    def test_invariants(self):
        cs = coin_support()
        out = one_step_density(cs)
        # floor respected, unit mass, exact one-step martingale identity
        assert all(g >= out.scale for g in out.raw)
        atoms = rational_atoms(cs)
        mass = sum((q * g for (_, q), g in zip(atoms, out.normalized)), ZERO)
        assert mass == Q(1)
        drift = sum((q * g * x[0] for (x, q), g in zip(atoms, out.normalized)), ZERO)
        assert drift == ZERO

    def test_deterministic_step(self):
        cs = conditional_support(single_chain(1), 0)
        out = one_step_density(cs)
        assert out.scale == Q(1)
        assert out.normalized == (Q(1),)

    def test_symmetric_coin(self):
        cs = conditional_support(binomial(1), 0)
        out = one_step_density(cs)
        assert out.scale == Q(1)
        assert out.normalized == (Q(1), Q(1))

    def test_arbitrage_step_rejected(self):
        with pytest.raises(GeometryError) as exc:
            one_step_density(conditional_support(sure_win(), 0))
        assert exc.value.node == 0
        assert isinstance(exc.value.certificate, NotInRi)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("moves", [False, True], ids=["x=0", "x!=0"])
@pytest.mark.parametrize("children", [1, 3])
def test_one_atom_support_solves_no_program(d, moves, children, monkeypatch):
    """A node whose children all share one increment x: the geometry
    and martingale routes answer it without a program, with the
    certificate and density the LP paths give, and the three routes
    agree on the tree."""
    x = ("3/2", -2, "1/3", 5)[:d] if moves else (0,) * d
    tree = one_step([x] * children, [Q(1, children)] * children)
    cs = conditional_support(tree, 0)
    assert len(cs.int_values[0]) == 1
    programs = []

    def counted(lp):
        programs.append(lp)
        return solve_lp(lp)

    with monkeypatch.context() as patch:
        patch.setattr(arbcheck.geometry, "solve_lp", counted)
        patch.setattr(arbcheck.emm, "solve_lp", counted)
        cert = ri_conv_contains_origin(cs)
        if moves:
            with pytest.raises(GeometryError) as exc:
                one_step_density(cs)
        else:
            density = one_step_density(cs)
    assert programs == []
    assert check_ri_certificate(cs, cert)
    if moves:
        assert cert == NotInRi(arbitrage_direction(cs))
        with pytest.raises(GeometryError) as scale_exc:
            one_step_scale(cs)
        assert exc.value.node == scale_exc.value.node == 0
        assert exc.value.certificate == scale_exc.value.certificate == cert
    else:
        assert cert == InRi((Q(1),)) and arbitrage_direction(cs) is None
        assert density == OneStepDensity(0, one_step_scale(cs), (Q(1),), (Q(1),))
    assert equivalence_report(tree).consistent


class _Solved(Exception):
    """Raised in place of a solve, to show that none happens."""


def _refuse(lp):
    raise _Solved(lp)


@pytest.mark.parametrize("points", [
    [(1, 0, 0), (0, 2, 0), ("1/2", 1, -3)],
    [(1, -1), (2, 5)],
    [("3/2", -2, "1/3")],
], ids=["d=3 three atoms", "two atoms", "one atom x!=0"])
def test_independent_atoms_solve_no_program(points, monkeypatch):
    """Linearly independent atoms: both routes answer without a program,
    with the direction that gains 1 on every atom, re-checked."""
    cs = support([vec(p) for p in points])
    assert len(cs.int_basis) == len(cs.int_values[0])
    monkeypatch.setattr(arbcheck.geometry, "solve_lp", _refuse)
    monkeypatch.setattr(arbcheck.emm, "solve_lp", _refuse)
    cert = ri_conv_contains_origin(cs)
    assert isinstance(cert, NotInRi) and check_ri_certificate(cs, cert)
    gains = {dot(cert.direction, x) for x in atom_values(cs)}
    assert len(gains) == 1 and gains.pop() > 0
    for route in (one_step_density, one_step_scale):
        with pytest.raises(GeometryError) as exc:
            route(cs)
        assert exc.value.node == cs.node and exc.value.certificate == cert


@pytest.mark.parametrize("points, weights", [
    ([(1, 0), (-1, 0)], ("1/2", "1/2")),
    ([(1, 1, 0), (-1, 0, 0), (0, -1, 0)], ("1/3", "1/3", "1/3")),
], ids=["a line", "d=3 interior plane"])
def test_interior_kernel_line_atoms_solve_no_geometry_program(points, weights, monkeypatch):
    """Atoms of rank n - 1 whose one vanishing combination is positive:
    the geometry route answers with it, normalised, without a program;
    the martingale route still solves its programs."""
    cs = support([vec(p) for p in points])
    assert len(cs.int_basis) == len(cs.int_values[0]) - 1
    monkeypatch.setattr(arbcheck.geometry, "solve_lp", _refuse)
    monkeypatch.setattr(arbcheck.emm, "solve_lp", _refuse)
    assert ri_conv_contains_origin(cs) == InRi(vec(weights))
    for route in (one_step_density, one_step_scale):
        with pytest.raises(_Solved):
            route(cs)


@pytest.mark.parametrize("points", [
    [(1, 0), (2, 0)],
    [(1, 0, 0), (0, 1, 0), (1, 1, 0)],
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0)],
], ids=["one ray", "d=3 arbitrage plane", "a line and a zero weight"])
def test_dependent_atoms_still_solve_their_programs(points, monkeypatch):
    """Atoms of rank n - 1 whose one vanishing combination is mixed in
    sign or has a zero entry are not answered in closed form: the
    geometry and martingale routes each reach a program."""
    cs = support([vec(p) for p in points])
    assert len(cs.int_basis) == len(cs.int_values[0]) - 1
    monkeypatch.setattr(arbcheck.geometry, "solve_lp", _refuse)
    monkeypatch.setattr(arbcheck.emm, "solve_lp", _refuse)
    for route in (ri_conv_contains_origin, one_step_density, one_step_scale):
        with pytest.raises(_Solved):
            route(cs)


@pytest.mark.parametrize("outcomes, message", [
    ([Infeasible((ONE,))], "support program is never infeasible"),
    ([Optimal((ZERO,) * 3, -ONE)], "support function came out negative"),
    ([Optimal((ZERO,) * 3, ZERO), Infeasible((ONE,))], "one-step density infeasible"),
    ([Optimal((ZERO,) * 3, ZERO), Unbounded((ONE,) * 3)], "one-step density program is bounded"),
    ([Optimal((ZERO,) * 3, ZERO), Optimal((ZERO,) * 3, ZERO)], "one-step density has non-pos"),
], ids=["support-infeasible", "support-negative", "density-infeasible", "density-unbounded",
        "density-no-mass"])
def test_a_failed_program_in_the_martingale_route_is_an_alarm_naming_the_node(
        outcomes, message, monkeypatch):
    """Each impossible outcome of the support and density programs,
    handed back in solve order, raises InternalError naming the node."""
    script = iter(outcomes)
    monkeypatch.setattr(arbcheck.emm, "solve_lp", lambda lp: next(script))
    cs = support_from_atoms(5, ((vec((1,)), Q(1, 2)), (vec((-1,)), Q(1, 2))))
    with pytest.raises(InternalError, match=f"node 5: {message}"):
        one_step_density(cs)


def test_geometry_error_copies_and_pickles():
    """Copy and pickle rebuild the error from its node and certificate."""
    err = GeometryError(3, NotInRi((Q(1),)))
    for twin in (copy.copy(err), copy.deepcopy(err), pickle.loads(pickle.dumps(err))):
        assert type(twin) is GeometryError and str(twin) == str(err)
        assert twin.node == err.node and twin.certificate == err.certificate


class TestBuildEmm:
    def test_one_step_worked(self):
        c = build_emm(skewed_coin())
        assert c.density.as_dict() == {1: Q(2, 3), 2: Q(2)}
        assert c.bound == Q(2)
        assert len(c.per_node) == 1 and c.per_node[0].node == 0

    def test_two_period_products(self):
        c = build_emm(skewed_coin_two_period())
        assert c.density.as_dict() == {3: Q(4, 9), 4: Q(4, 3), 5: Q(4, 3), 6: Q(4)}
        assert c.bound == Q(4)

    def test_symmetric_binomial_identity(self):
        c = build_emm(binomial(2))
        assert set(c.density.as_dict().values()) == {Q(1)}
        assert c.bound == Q(1)
        assert all(step.scale == Q(1) for step in c.per_node)

    def test_density_is_valid_and_martingale(self):
        for t in (skewed_coin(), skewed_coin_two_period(), binomial(3)):
            c = build_emm(t)
            check_density(t, c.density)
            ok, residuals = verify_martingale(t, c.density)
            assert ok
            assert all(r == (ZERO,) * t.d for r in residuals.values())
            assert max(c.density.as_dict().values()) == c.bound

    def test_reweighted_tree_is_martingale(self):
        t = skewed_coin_two_period()
        rw = reweight(t, build_emm(t).density)
        for nid in rw.non_leaves():
            cs = conditional_support(rw, nid)
            assert conditional_mean(cs) == (ZERO,) * rw.d

    def test_two_assets(self):
        t = one_step([(2, 0), (-1, 1), (-1, -1)], ["1/2", "1/4", "1/4"])
        c = build_emm(t)
        check_density(t, c.density)
        ok, _ = verify_martingale(t, c.density)
        assert ok

    def test_arbitrage_rejected_with_certificate(self):
        with pytest.raises(GeometryError) as exc:
            build_emm(sure_win())
        assert exc.value.node == 0
        cert = exc.value.certificate
        cs = conditional_support(sure_win(), 0)
        assert check_ri_certificate(cs, cert)

    def test_localized_arbitrage_flags_inner_node(self):
        with pytest.raises(GeometryError) as exc:
            build_emm(localized_arbitrage())
        assert exc.value.node == 1


class TestVerifyMartingale:
    def test_true_density(self):
        t = skewed_coin()
        ok, residuals = verify_martingale(t, LeafDensity.from_mapping({1: Q(2, 3), 2: Q(2)}))
        assert ok and residuals == {0: (ZERO,)}

    def test_identity_density_fails_on_drift(self):
        t = skewed_coin()
        ok, residuals = verify_martingale(t, LeafDensity.from_mapping({1: Q(1), 2: Q(1)}))
        assert not ok
        assert residuals[0] == (Q(1, 2),)

    def test_rejects_invalid_density(self):
        with pytest.raises(InputError):
            verify_martingale(skewed_coin(), LeafDensity.from_mapping({1: Q(2), 2: Q(2)}))
        fair = one_step([1, -1], ["1/2", "1/2"])
        for inexact in ({1: 1.0, 2: 1.0}, {1: "1", 2: "1"}):
            with pytest.raises(InputError):
                verify_martingale(fair, LeafDensity.from_mapping(inexact))
        for not_a_density in ({1: Q(1), 2: Q(1)}, [Q(1), Q(1)], None):
            with pytest.raises(InputError, match="not a LeafDensity"):
                verify_martingale(fair, not_a_density)
