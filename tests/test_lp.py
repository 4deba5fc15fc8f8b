import random

import pytest

from arbcheck import Q
from arbcheck.errors import InputError
from arbcheck.lp import (
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    check_farkas,
    check_feasible,
    check_ray,
    farkas_row_system,
    _Simplex,
    make_lp,
    solve_lp,
)
from lp_oracle import oracle_check, random_lp


class TestWorkedExamples:
    def test_two_variable_optimum(self):
        # max x+y  s.t.  x+2y <= 4, 3x+y <= 6, x,y >= 0
        lp = make_lp([1, 1], [[1, 2], [3, 1]], [4, 6], lower=[0, 0])
        out = solve_lp(lp)
        assert isinstance(out, Optimal)
        assert out.value == Q(14, 5)
        assert out.point == (Q(8, 5), Q(6, 5))

    def test_infeasible_with_farkas(self):
        # x <= 1 and -x <= -2 cannot both hold
        lp = make_lp([1], [[1], [-1]], [1, -2], lower=[None])
        out = solve_lp(lp)
        assert isinstance(out, Infeasible)
        assert out.certificate == (Q(1), Q(1))
        assert check_farkas(lp, out.certificate)

    def test_unbounded_ray(self):
        lp = make_lp([1], [[-1]], [0], lower=[None])
        out = solve_lp(lp)
        assert isinstance(out, Unbounded)
        assert out.ray == (Q(1),)
        assert check_ray(lp, out.ray)

    def test_degenerate_cycling_instance(self):
        """A classic instance that cycles under naive pivoting; the
        least-index rule must terminate at the exact optimum."""
        lp = make_lp(
            [Q(3, 4), -150, Q(1, 50), -6],
            [
                [Q(1, 4), -60, Q(-1, 25), 9],
                [Q(1, 2), -90, Q(-1, 50), 3],
                [0, 0, 1, 0],
            ],
            [0, 0, 1],
            lower=[0, 0, 0, 0],
        )
        out = solve_lp(lp)
        assert isinstance(out, Optimal)
        assert out.value == Q(1, 20)

    def test_equality_rows(self):
        # max t  s.t.  l1+l2 == 1, l1-l2 == 0, t <= l1, t <= l2
        lp = make_lp(
            [0, 0, 1],
            [[1, 1, 0], [1, -1, 0], [-1, 0, 1], [0, -1, 1]],
            [1, 0, 0, 0],
            equalities=[True, True, False, False],
            lower=[0, 0, None],
        )
        out = solve_lp(lp)
        assert isinstance(out, Optimal)
        assert out.value == Q(1, 2)
        assert out.point[0] == out.point[1] == Q(1, 2)

    def test_free_variables(self):
        # max z1 subject to z1+z2 == 0 and z2 <= 3, both free
        lp = make_lp([1, 0], [[1, 1], [0, 1]], [0, 3],
                     equalities=[True, False], lower=[None, None])
        out = solve_lp(lp)
        assert isinstance(out, Unbounded)
        assert check_ray(lp, out.ray)


class TestTableauEdgeCases:
    """Exact outcomes on the paths where an integer tableau can go wrong:
    sign-flipped rows, slack columns, redundant equalities and negative
    pivots while artificials are expelled."""

    def test_unbounded_ray_enters_on_a_slack(self, monkeypatch):
        # max x - 2y  s.t.  -x + y == 0, 2x + y <= -1, both free. The
        # second row is flipped (rhs < 0) and the ray enters on its slack.
        lp = make_lp([1, -2], [[-1, 1], [2, 1]], [0, -1],
                     equalities=[True, False], lower=[None, None])
        seen = []
        extract = _Simplex._extract_ray

        def spy(self, enter):
            seen.append(enter >= self.n_struct)
            return extract(self, enter)

        monkeypatch.setattr(_Simplex, "_extract_ray", spy)
        out = solve_lp(lp)
        assert isinstance(out, Unbounded)
        assert out.ray == (Q(-1, 3), Q(-1, 3))
        assert seen == [True]

    def test_redundant_equality_row_is_dropped(self):
        # the second equality is three times the first
        lp = make_lp([1, 0], [[Q(1, 3), Q(2, 3)], [1, 2]], [Q(1, 3), 1],
                     equalities=[True, True], lower=[0, 0])
        simplex = _Simplex(lp)
        out = simplex.run()
        assert simplex.active == [True, False]
        assert out == Optimal((Q(1), Q(0)), Q(1))

    def test_negative_pivot_when_expelling_artificials(self):
        # phase 1 ends with the artificial of row 2 basic at zero, and it
        # is expelled by a pivot on that row's coefficient -2 for y
        lp = make_lp([2, -1], [[0, -1], [2, -2], [0, -2]], [0, 0, 0],
                     equalities=[False, True, True], lower=[None, 0])
        simplex = _Simplex(lp)
        out = simplex.run()
        assert all(simplex.active)
        assert out == Optimal((Q(0), Q(0)), Q(0))

    def test_farkas_certificate_on_sign_flipped_rows(self):
        # x/2 + y == -1 with x, y >= 0: the equality is flipped
        lp = make_lp([1, 1], [[Q(1, 2), 1], [1, -2]], [-1, 3],
                     equalities=[True, False], lower=[0, 0])
        out = solve_lp(lp)
        assert isinstance(out, Infeasible)
        assert out.certificate == (Q(1), Q(0), Q(1, 2), Q(1))
        assert check_farkas(lp, out.certificate)


class TestCertificateChecks:
    def test_extended_row_system_appends_bounds(self):
        lp = make_lp([1, 1], [[1, 0]], [2], lower=[None, Q(-1)])
        rows, rhs, eqs = farkas_row_system(lp)
        assert rows == ((Q(1), Q(0)), (Q(0), Q(-1)))
        assert rhs == (Q(2), Q(1))
        assert eqs == (False, False)

    def test_check_feasible(self):
        lp = make_lp([1], [[1]], [1], equalities=[True], lower=[0])
        assert check_feasible(lp, (Q(1),))
        assert not check_feasible(lp, (Q(1, 2),))
        assert not check_feasible(lp, (Q(-1),))

    def test_check_ray(self):
        lp = make_lp([1, 0], [[1, 1]], [5], equalities=[True], lower=[None, None])
        assert check_ray(lp, (Q(1), Q(-1)))
        assert not check_ray(lp, (Q(1), Q(0)))   # violates the equality row
        assert not check_ray(lp, (Q(0), Q(0)))
        assert not check_ray(lp, (Q(-1), Q(1)))  # objective does not grow

    def test_check_farkas_rejects_wrong_sign(self):
        lp = make_lp([1], [[1], [-1]], [1, -2], lower=[None])
        assert not check_farkas(lp, (Q(-1), Q(-1)))
        assert not check_farkas(lp, (Q(1), Q(0)))


class TestInputValidation:
    def test_dimension_mismatches(self):
        with pytest.raises(InputError):
            make_lp([1, 2], [[1]], [0])
        with pytest.raises(InputError):
            make_lp([1], [[1]], [0, 1])
        with pytest.raises(InputError):
            make_lp([1], [[1]], [0], equalities=[True, False])
        with pytest.raises(InputError):
            make_lp([1], [[1]], [0], lower=[0, 0])
        with pytest.raises(InputError):  # built directly, without make_lp
            LinearProgram((Q(1),), ((Q(1), Q(1)),), (Q(0),), (False,), (None,))

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            make_lp([0.5], [[1]], [0])


def test_oracle_agreement_batch():
    """Exhaustive vertex/ray enumeration agrees with the simplex on a
    batch of small random LPs, including every returned certificate."""
    rng = random.Random(20240)
    seen = set()
    for i in range(150):
        lp = random_lp(rng)
        ok, got, oracle = oracle_check(lp)
        assert ok, f"case {i}: solver {got!r} vs oracle {oracle!r}"
        seen.add(oracle[0])
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_deterministic_resolve():
    rng = random.Random(7)
    for _ in range(25):
        lp = random_lp(rng)
        assert solve_lp(lp) == solve_lp(lp)
