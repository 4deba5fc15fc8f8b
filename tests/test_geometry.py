import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import arbcheck.geometry
from arbcheck import Q, equivalence_report
from arbcheck.emm import support_function
from arbcheck.errors import InputError, InternalError
from arbcheck.geometry import (
    InRi,
    NotInRi,
    arbitrage_direction,
    check_ri_certificate,
    max_norm_normalize,
    ri_conv_contains_origin,
    separation_optimum,
)
from arbcheck.lp import Infeasible, Optimal, solve_lp
from arbcheck.tree import conditional_mean, conditional_support
from helpers import (assert_in_span_matches_reference, atom_values, dot, kernel_line_rows,
                     one_step, support, support_from_atoms, vec)
from linalg_oracle import rref_in_span
from lp_oracle import exact_vector
from node_program_oracle import (assert_floor_f_density_matches, expected_node, reference_node,
                                 ri_program, separation_program, shipped_node)
from tree_oracle import (assert_full_strategy_program_matches, assert_support_matches_constructor,
                         assert_tree_loops_match)

ZERO = Q(0)
ONE = Q(1)


def pts(*rows):
    return [vec(r) for r in rows]


class TestNormalize:
    def test_examples(self):
        assert max_norm_normalize((Q(2), Q(-4))) == (Q(1, 2), Q(-1))
        assert max_norm_normalize((Q(-3),)) == (Q(-1),)
        assert max_norm_normalize((Q(1, 7), Q(0))) == (Q(1), Q(0))

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            max_norm_normalize((ZERO, ZERO))

    def test_zero_dimensional_rejected(self):
        with pytest.raises(InputError, match="zero vector"):
            max_norm_normalize(())

    @pytest.mark.parametrize("h", [(0.5, -2.0), ("1", "2"), "12", (Q(1), 2), (Q(1), True)])
    def test_entry_that_is_not_a_rational_rejected(self, h):
        with pytest.raises(InputError, match="is not a Rational"):
            max_norm_normalize(h)

    def test_result_is_rational(self):
        out = max_norm_normalize((Q(-3, 4), Q(1, 6), ZERO))
        assert out == (Q(-1), Q(2, 9), ZERO)
        assert all(type(c) is type(ZERO) for c in out)


class TestVerdicts:
    def test_two_sided_segment(self):
        out = ri_conv_contains_origin(support(pts((1,), (-1,))))
        assert isinstance(out, InRi)
        assert sum(out.weights, ZERO) == Q(1)
        assert all(w > 0 for w in out.weights)

    def test_one_sided_pair(self):
        out = ri_conv_contains_origin(support(pts((1,), (2,))))
        assert out == NotInRi(direction=(Q(1),))

    def test_single_zero_atom(self):
        assert ri_conv_contains_origin(support(pts((0, 0)))) == InRi(weights=(Q(1),))

    def test_single_nonzero_atom(self):
        out = ri_conv_contains_origin(support(pts((0, 5))))
        assert isinstance(out, NotInRi)
        assert out.direction == (ZERO, Q(1))

    def test_surrounding_triangle(self):
        out = ri_conv_contains_origin(support(pts((1, 0), (0, 1), (-1, -1))))
        assert isinstance(out, InRi)
        assert check_ri_certificate(support(pts((1, 0), (0, 1), (-1, -1))), out)

    def test_quadrant_pair(self):
        points = support(pts((1, 0), (0, 1)))
        out = ri_conv_contains_origin(points)
        assert isinstance(out, NotInRi)
        assert check_ri_certificate(points, out)

    def test_origin_on_boundary(self):
        # origin is a vertex of the hull: in conv but not in its
        # relative interior
        points = support(pts((0, 0), (1, 0), (0, 1)))
        out = ri_conv_contains_origin(points)
        assert isinstance(out, NotInRi)

    def test_lower_dimensional_interior(self):
        # a segment through the origin inside R^3: relative interior
        # is taken within the affine hull, so this is a yes
        points = support(pts((1, 1, 0), (-2, -2, 0)))
        out = ri_conv_contains_origin(points)
        assert isinstance(out, InRi)

    def test_input_errors(self):
        with pytest.raises(InputError):
            ri_conv_contains_origin(support([]))
        with pytest.raises(InputError):
            ri_conv_contains_origin(support(pts((1,), (1, 2))))


class TestSeparation:
    def test_zero_when_interior(self):
        value, h = separation_optimum(support(pts((1,), (-1,))))
        assert value == ZERO
        assert h == (ZERO,)

    def test_positive_when_separated(self):
        value, h = separation_optimum(support(pts((1,), (2,))))
        assert value > 0
        assert all(dot(h, x) >= 0 for x in pts((1,), (2,)))

    def test_degenerate_all_zero(self):
        assert separation_optimum(support([(ZERO,)])) == (ZERO, (ZERO,))


class TestDirection:
    def test_none_under_interior(self):
        assert arbitrage_direction(support(pts((1,), (-1,)))) is None
        assert arbitrage_direction(support(pts((1, 0), (0, 1), (-1, -1)))) is None

    def test_direction_invariants(self):
        points = pts((1, 2), (2, 1), (1, 1))
        h = arbitrage_direction(support(points))
        assert h is not None
        assert max(abs(c) for c in h) == Q(1)
        assert rref_in_span(h, points)
        dots = [dot(h, x) for x in points]
        assert all(v >= 0 for v in dots) and any(v > 0 for v in dots)

    def test_a_direction_failing_its_re_check_is_an_alarm_naming_the_node(self, monkeypatch):
        """The geometry and martingale routes re-check a separating
        direction in one place."""
        monkeypatch.setattr(arbcheck.geometry, "check_ri_certificate", lambda cs, cert: False)
        cs = support_from_atoms(5, ((vec((1,)), Q(1, 2)), (vec((2,)), Q(1, 2))))
        for find in (arbitrage_direction, lambda cs: support_function(cs, conditional_mean(cs))):
            with pytest.raises(InternalError, match="node 5: separating direction failed"):
                find(cs)

    @pytest.mark.parametrize("points, outcomes, message", [
        ((1, -1), [], "interiority certificate failed exact re-check"),
        ((1, 2), [Infeasible((ONE,)), Infeasible((ONE,))], "separation program must be"),
        ((1, 2), [Infeasible((ONE,)), Optimal((ONE,), ZERO)], "zero separation value"),
        ((1, 2), [Infeasible((ONE,)), Optimal((ZERO,), ZERO)], "certificate branches disagree"),
    ], ids=["re-check", "separation-infeasible", "separation-nonzero", "disagree"])
    def test_a_failure_in_the_node_test_is_an_alarm_naming_the_node(
            self, points, outcomes, message, monkeypatch):
        """A failed weights re-check, or programs handed back in solve
        order with impossible outcomes, raise InternalError naming the
        node."""
        script = iter(outcomes)
        monkeypatch.setattr(arbcheck.geometry, "solve_lp", lambda lp: next(script))
        monkeypatch.setattr(arbcheck.geometry, "check_ri_certificate", lambda cs, cert: False)
        cs = support_from_atoms(5, tuple((vec((x,)), Q(1, 2)) for x in points))
        with pytest.raises(InternalError, match=f"node 5: {message}"):
            ri_conv_contains_origin(cs)


class TestCertificateCheck:
    def test_rejects_tampered_weights(self):
        points = support(pts((1,), (-1,)))
        assert check_ri_certificate(points, InRi(weights=(Q(1, 2), Q(1, 2))))
        assert not check_ri_certificate(points, InRi(weights=(Q(1, 4), Q(1, 4))))
        assert not check_ri_certificate(points, InRi(weights=(Q(3, 4), Q(1, 4))))
        assert not check_ri_certificate(points, InRi(weights=(Q(1), ZERO)))
        assert not check_ri_certificate(points, InRi(weights=(Q(1, 2),)))

    def test_rejects_tampered_direction(self):
        points = support(pts((1,), (2,)))
        assert check_ri_certificate(points, NotInRi(direction=(Q(1),)))
        assert not check_ri_certificate(points, NotInRi(direction=(Q(2),)))
        assert not check_ri_certificate(points, NotInRi(direction=(Q(-1),)))
        assert not check_ri_certificate(points, NotInRi(direction=(ZERO,)))

    def test_rejects_direction_outside_span(self):
        points = support(pts((1, 0), (2, 0)))
        assert not check_ri_certificate(points, NotInRi(direction=(ZERO, Q(1))))
        assert check_ri_certificate(points, NotInRi(direction=(Q(1), ZERO)))

    @pytest.mark.parametrize("cert", [InRi((0.5, 0.5)), InRi(("1/2", "1/2")),
                                      NotInRi((1.0,)), NotInRi(("1",))])
    def test_rejects_entries_that_are_not_rational(self, cert):
        # on the +-1 coin the float weights would sum to 1 and balance
        assert not check_ri_certificate(support(pts((1,), (-1,))), cert)

    def test_rejects_zero_dimensional_direction(self):
        # an empty direction has no component of absolute value 1
        assert not check_ri_certificate(support([()]), NotInRi(()))


def _dichotomy_points():
    rng = random.Random(5150)
    for _ in range(300):
        d = rng.randint(1, 3)
        k = rng.randint(1, 5)
        yield [tuple(Q(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(d)) for _ in range(k)]


def test_dichotomy_sample():
    """Random atom sets: exactly one verdict kind, certificates check,
    and the separation optimum is zero precisely in the interior case."""
    kinds = {InRi: 0, NotInRi: 0}
    for points in _dichotomy_points():
        out = ri_conv_contains_origin(support(points))
        kinds[type(out)] += 1
        assert check_ri_certificate(support(points), out)
        value, _ = separation_optimum(support(points))
        if isinstance(out, InRi):
            assert value == ZERO
            assert arbitrage_direction(support(points)) is None
        else:
            assert value > 0
    assert kinds[InRi] > 0 and kinds[NotInRi] > 0


def test_scaling_preserves_verdict():
    rng = random.Random(61)
    for _ in range(40):
        d = rng.randint(1, 3)
        k = rng.randint(1, 4)
        points = [tuple(Q(rng.randint(-3, 3)) for _ in range(d))
                  for _ in range(k)]
        c = Q(rng.randint(1, 9), rng.randint(1, 9))
        scaled = [tuple(c * x for x in p) for p in points]
        assert type(ri_conv_contains_origin(support(points))) \
            is type(ri_conv_contains_origin(support(scaled)))


_entries = st.builds(Q, st.integers(-9, 9) | st.integers(-10**12, 10**12),
                     st.integers(1, 10**12))
# every phase but explain, which on a failure traces every line of every
# solve and takes minutes and over a gigabyte of memory to do so
_NO_EXPLAIN = [phase for phase in Phase if phase.name != "explain"]


@st.composite
def _degenerate_one_step(draw):
    """A one-step tree in dimension 1-4 whose increments are small
    integer combinations of 0..d generators, so a span of rank below d,
    zero increments and repeated increments are common; sometimes each
    increment is reflected into x[0] >= 0, which puts the origin on the
    relative boundary of the hull or outside it."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[_entries] * d), max_size=d))
    n = draw(st.integers(1, 6))
    deltas = []
    for _ in range(n):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
        deltas.append(tuple(sum((c * g[j] for c, g in zip(coeffs, gens)), ZERO)
                            for j in range(d)))
    if draw(st.booleans()):
        deltas = [x if x[0] >= 0 else tuple(-c for c in x) for x in deltas]
    masses = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return one_step(deltas, [Q(m, sum(masses)) for m in masses])


@settings(max_examples=200, derandomize=True, deadline=None, phases=_NO_EXPLAIN)
@given(_degenerate_one_step())
def test_degenerate_nodes(tree):
    """On supports with repeated increments merged (as
    conditional_support merges them), a span of rank below d, zero atoms
    and the origin on the relative boundary: the certificate re-checks,
    its kind matches the separation optimum, and the routes agree."""
    cs = conditional_support(tree, 0)
    cert = ri_conv_contains_origin(cs)
    assert check_ri_certificate(cs, cert)
    assert isinstance(cert, InRi) == (separation_optimum(cs)[0] == 0)
    assert equivalence_report(tree).consistent


def reference_check_ri_certificate(support, cert):
    """The rational form of ``check_ri_certificate``, with sums of
    rational products, kept here to hold the shipped integer form to."""
    pts = atom_values(support)
    d = support.d
    if isinstance(cert, InRi):
        lam = cert.weights
        if not exact_vector(lam, len(pts)) or any(w <= 0 for w in lam):
            return False
        if sum(lam, ZERO) != 1:
            return False
        for j in range(d):
            if sum((w * x[j] for w, x in zip(lam, pts)), ZERO) != 0:
                return False
        return True
    if isinstance(cert, NotInRi):
        h = cert.direction
        if not exact_vector(h, d):
            return False
        if max((abs(c) for c in h), default=ZERO) != 1:
            return False
        if not rref_in_span(h, pts):
            return False
        strict = False
        for x in pts:
            v = dot(h, x)
            if v < 0:
                return False
            if v > 0:
                strict = True
        return strict
    return False


def _near_misses(cert):
    """Copies of a certificate with one entry moved by +-1/7, one sign
    flipped or one entry zeroed, and the whole vector scaled by 2; for
    weights, also one zeroed with the rest rescaled to sum 1, which
    still balances when the zeroed atom is the origin."""
    kind = type(cert)
    v = cert.weights if kind is InRi else cert.direction
    yield kind(tuple(2 * c for c in v))
    for k, c in enumerate(v):
        for new in (c + Q(1, 7), c - Q(1, 7), -c, ZERO):
            yield kind(v[:k] + (new,) + v[k + 1:])
        rest = v[:k] + (ZERO,) + v[k + 1:]
        if kind is InRi and sum(rest, ZERO):
            yield InRi(tuple(w / sum(rest, ZERO) for w in rest))


def _assert_ri_checks_agree(cs):
    cert = ri_conv_contains_origin(cs)
    assert check_ri_certificate(cs, cert) and reference_check_ri_certificate(cs, cert)
    for miss in _near_misses(cert):
        assert check_ri_certificate(cs, miss) == reference_check_ri_certificate(cs, miss), miss


class TestRiCheckAgreesWithReference:
    """The shipped ``check_ri_certificate`` gives the verdicts of the
    rational reference on every certificate and on its near misses."""

    def test_dichotomy_supports(self):
        for points in _dichotomy_points():
            _assert_ri_checks_agree(support(points))

    @settings(max_examples=200, derandomize=True, deadline=None, phases=_NO_EXPLAIN)
    @given(_degenerate_one_step())
    def test_degenerate_supports(self, tree):
        _assert_ri_checks_agree(conditional_support(tree, 0))


@settings(max_examples=200, derandomize=True, deadline=None, phases=_NO_EXPLAIN)
@given(_degenerate_one_step())
def test_degenerate_node_programs_match_the_rational_reference(tree):
    """The node's mean, certificates and density, equal to the ones
    read off the programs built in rational arithmetic; so are the
    programs, field by field, unless the node has one atom and builds
    none."""
    cs = conditional_support(tree, 0)
    solved = {}
    assert shipped_node(cs, solved) == expected_node(cs, solved)


@settings(max_examples=200, derandomize=True, deadline=None, phases=_NO_EXPLAIN)
@given(kernel_line_rows(st.integers(1, 4), st.integers(-4, 4) | st.integers(-10**12, 10**12)))
@example([(0, 0, 0)])
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])
@example([(0, 0), (1, 0)])
@example([(1, 2), (2, 4)])
@example([(1, 2), (-2, -4)])
def test_kernel_line_nodes_solve_the_ri_program_only_when_it_is_infeasible(points):
    """At n atoms of rank n - 1, ``ri_conv_contains_origin`` solves no
    program exactly when the oracle's ``ri`` program is optimal, and its
    weights are then the oracle's point over its sum; otherwise it
    solves the oracle's ``ri`` and ``separation`` programs and returns
    the direction read off the latter."""
    cs = support([vec(p) for p in points])
    solved = {}
    _, _, expected, _ = reference_node(cs, solved)
    ri = ri_program(cs)
    programs = []

    def record(lp):
        programs.append(lp)
        return solve_lp(lp)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arbcheck.geometry, "solve_lp", record)
        cert = ri_conv_contains_origin(cs)
    if isinstance(solved[ri], Optimal):
        point = solved[ri].point
        assert programs == [] and cert == InRi(tuple(w / sum(point, ZERO) for w in point))
    else:
        assert programs == [ri, separation_program(cs)]
        assert isinstance(cert, NotInRi)
    assert cert == expected


@settings(max_examples=200, derandomize=True, deadline=None, phases=_NO_EXPLAIN)
@given(_degenerate_one_step())
def test_degenerate_supports_match_the_constructor(tree):
    """With zero, repeated and reflected increments and spans of low
    rank, the support built from the tree's integer form equals the one
    the constructor builds from the atoms grouped in rational arithmetic."""
    assert_support_matches_constructor(tree, 0)


@settings(max_examples=200, derandomize=True, deadline=None, phases=_NO_EXPLAIN)
@given(_degenerate_one_step())
def test_degenerate_supports_answer_in_span_in_both_forms(tree):
    """With zero atoms and spans of low rank, ``in_span`` against the
    integer basis answers as the rational reference does against the
    atom values."""
    assert_in_span_matches_reference(conditional_support(tree, 0))


@settings(max_examples=200, derandomize=True, deadline=None, phases=_NO_EXPLAIN)
@given(_degenerate_one_step(), st.integers(0, 2**16))
def test_degenerate_tree_loops_match_the_rational_reference(tree, seed):
    """The tree's strategy program, support, gains and martingale
    residuals, equal to the ones built in rational arithmetic."""
    assert_tree_loops_match(tree, seed)


@settings(max_examples=200, derandomize=True, deadline=None, phases=_NO_EXPLAIN)
@given(_degenerate_one_step())
def test_degenerate_reduced_programs_match_the_full_ones(tree):
    """With zero, repeated and dependent increments, the strategy
    program with all d columns gives the shipped optimum, point and
    witness, and the density program floored at f gives f times the
    floor-1 vertex, the shipped density."""
    assert_full_strategy_program_matches(tree)
    assert_floor_f_density_matches(conditional_support(tree, 0))
