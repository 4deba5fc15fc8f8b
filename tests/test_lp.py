import copy
import hashlib
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbcheck import Q, format_rational
from arbcheck.errors import InputError, InternalError
from arbcheck.lp import (
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    _Simplex,
    _check_new_basis,
    _holds,
    _is_farkas,
    _is_ray,
    make_lp,
    solve_lp,
)
from arbcheck.rationals import int_row
from lp_oracle import (
    dense_lp,
    dense_rows,
    farkas_row_system,
    oracle_check,
    random_fractional_lp,
    random_lp,
    rational_lp,
    reference_check_farkas,
    reference_check_feasible,
    reference_check_ray,
)


def core_feasible(lp, point):
    """``_holds``, the re-check of an optimal point, on the numerators
    of ``point`` over their denominator; False on a wrong length."""
    nums, den = int_row(point)
    return len(nums) == lp.n_vars and _holds(lp, nums, den)


def core_ray(lp, ray):
    """``_is_ray`` on the numerators of ``ray``; False on a wrong length."""
    nums, _ = int_row(ray)
    return len(nums) == lp.n_vars and _is_ray(lp, nums)


def core_farkas(lp, certificate):
    """``_is_farkas`` on the numerators of ``certificate``, over the
    declared rows and then one bound row per bounded column; False on
    a wrong length."""
    nums, _ = int_row(certificate)
    n_bounds = sum(lo is not None for lo in lp.lower)
    return len(nums) == lp.n_rows + n_bounds and _is_farkas(lp, nums)


class TestWorkedExamples:
    def test_two_variable_optimum(self):
        # max x+y  s.t.  x+2y <= 4, 3x+y <= 6, x,y >= 0
        lp = dense_lp([1, 1], [[1, 2], [3, 1]], [4, 6], lower=[0, 0])
        out = solve_lp(lp)
        assert isinstance(out, Optimal)
        assert out.value == Q(14, 5)
        assert out.point == (Q(8, 5), Q(6, 5))

    def test_infeasible_with_farkas(self):
        # x <= 1 and -x <= -2 cannot both hold
        lp = dense_lp([1], [[1], [-1]], [1, -2], lower=[None])
        out = solve_lp(lp)
        assert isinstance(out, Infeasible)
        assert out.certificate == (Q(1), Q(1))
        assert reference_check_farkas(lp, out.certificate)

    def test_unbounded_ray(self):
        lp = dense_lp([1], [[-1]], [0], lower=[None])
        out = solve_lp(lp)
        assert isinstance(out, Unbounded)
        assert out.ray == (Q(1),)
        assert reference_check_ray(lp, out.ray)

    def test_degenerate_cycling_instance(self):
        """A classic instance that cycles under naive pivoting; the
        least-index rule must terminate at the exact optimum."""
        lp = dense_lp(
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

    def test_klee_minty_cube_reaches_its_optimum(self):
        """Bland's rule takes 57,313 pivots on the n=22 Klee-Minty cube;
        no pivot budget may cut a valid, bounded program short."""
        n = 22
        lp = dense_lp(
            [2 ** (n - j) for j in range(1, n + 1)],
            [[2 ** (i - j + 1) if j < i else int(j == i) for j in range(1, n + 1)]
             for i in range(1, n + 1)],
            [5 ** i for i in range(1, n + 1)],
            lower=[0] * n,
        )
        out = solve_lp(lp)
        assert isinstance(out, Optimal)
        assert out.value == 5 ** n
        assert out.point == (0,) * (n - 1) + (5 ** n,)

    def test_repeated_basis_is_an_alarm(self):
        seen = set()
        for basis in ([3, 4], [0, 4], [0, 1], [4, 1]):
            _check_new_basis(seen, basis)
        with pytest.raises(InternalError, match="revisited a basis"):
            _check_new_basis(seen, [4, 0])  # {0, 4} again, rows permuted

    def test_equality_rows(self):
        # max t  s.t.  l1+l2 == 1, l1-l2 == 0, t <= l1, t <= l2
        lp = dense_lp(
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
        lp = dense_lp([1, 0], [[1, 1], [0, 1]], [0, 3],
                      equalities=[True, False], lower=[None, None])
        out = solve_lp(lp)
        assert isinstance(out, Unbounded)
        assert reference_check_ray(lp, out.ray)


class TestTableauEdgeCases:
    """Exact outcomes on the paths where an integer tableau can go wrong:
    sign-flipped rows, slack columns, redundant equalities and negative
    pivots while artificials are expelled."""

    def test_unbounded_ray_enters_on_a_slack(self, monkeypatch):
        # max x - 2y  s.t.  -x + y == 0, 2x + y <= -1, both free. The
        # second row is flipped (rhs < 0) and the ray enters on its slack.
        lp = dense_lp([1, -2], [[-1, 1], [2, 1]], [0, -1],
                      equalities=[True, False], lower=[None, None])
        seen = []
        extract = _Simplex._extract_ray

        def spy(self, enter):
            seen.append(enter >= self.lp.n_vars)
            return extract(self, enter)

        monkeypatch.setattr(_Simplex, "_extract_ray", spy)
        out = solve_lp(lp)
        assert isinstance(out, Unbounded)
        assert out.ray == (Q(-1, 3), Q(-1, 3))
        assert seen == [True]

    def test_redundant_equality_row_is_dropped(self):
        # the second equality is three times the first
        lp = dense_lp([1, 0], [[Q(1, 3), Q(2, 3)], [1, 2]], [Q(1, 3), 1],
                      equalities=[True, True], lower=[0, 0])
        simplex = _Simplex(lp)
        out = simplex.run()
        assert len(simplex.T) == 1
        assert out == Optimal((Q(1), Q(0)), Q(1))

    def test_negative_pivot_when_expelling_artificials(self):
        # phase 1 ends with the artificial of row 2 basic at zero, and it
        # is expelled by a pivot on that row's coefficient -2 for y
        lp = dense_lp([2, -1], [[0, -1], [2, -2], [0, -2]], [0, 0, 0],
                      equalities=[False, True, True], lower=[None, 0])
        simplex = _Simplex(lp)
        out = simplex.run()
        assert len(simplex.T) == 3
        assert out == Optimal((Q(0), Q(0)), Q(0))

    def test_free_column_enters_with_negative_reduced_cost(self):
        # max -x + y  s.t.  -x <= 2, y <= 1, x free: x enters first and
        # must move down, so its column is negated before the pivot
        lp = dense_lp([-1, 1], [[-1, 0], [0, 1]], [2, 1], lower=[None, 0])
        assert solve_lp(lp) == Optimal((Q(-2), Q(1)), Q(3))

    def test_ratio_test_skips_a_negative_free_basic(self):
        # max x + 2y + 3z  s.t.  x + y + z <= 0, y <= 3, z <= 2, x free:
        # x turns basic at 0, then y and z each have coefficient +1 in
        # its row (rhs 0, then -3); that row must never be chosen
        lp = dense_lp([1, 2, 3], [[1, 1, 1], [0, 1, 0], [0, 0, 1]], [0, 3, 2],
                      lower=[None, 0, 0])
        assert solve_lp(lp) == Optimal((Q(-5), Q(3), Q(2)), Q(7))

    def test_unbounded_ray_along_a_negated_free_column(self):
        # max -x + y  s.t.  y <= 1, x + y <= 4, x free: x decreases forever
        lp = dense_lp([-1, 1], [[0, 1], [1, 1]], [1, 4], lower=[None, 0])
        assert solve_lp(lp) == Unbounded((Q(-1), Q(0)))

    def test_farkas_certificate_on_sign_flipped_rows(self):
        # x/2 + y == -1 with x, y >= 0: the equality is flipped
        lp = dense_lp([1, 1], [[Q(1, 2), 1], [1, -2]], [-1, 3],
                      equalities=[True, False], lower=[0, 0])
        out = solve_lp(lp)
        assert isinstance(out, Infeasible)
        assert out.certificate == (Q(1), Q(0), Q(1, 2), Q(1))
        assert reference_check_farkas(lp, out.certificate)


def _first_structural_row(simplex):
    return next(i for i, b in enumerate(simplex.basis) if b < simplex.lp.n_vars)


def _bump_point(simplex):
    i = _first_structural_row(simplex)  # a basic x_j moves by 1
    simplex.T[i][-1] += simplex.den[i]


def _bump_ray(simplex, enter):
    i = _first_structural_row(simplex)  # a basic ray entry moves by 1
    simplex.T[i][enter] += simplex.den[i]


def _bump_farkas(simplex):
    # the first row's multiplier moves by 1
    simplex.obj[simplex.init_basis[0]] += simplex.obj_den


class TestExtractionsAreReChecked:
    """A tableau value that an extraction reads, moved by one, must be
    caught by that outcome's exact re-check before it is returned."""

    @pytest.mark.parametrize("extract, corrupt, lp, message", [
        ("_extract_optimal", _bump_point,
         dense_lp([1, 1], [[1, 2], [3, 1]], [4, 6], lower=[0, 0]), "optimal point"),
        ("_extract_ray", _bump_ray,
         dense_lp([1, -2], [[-1, 1], [2, 1]], [0, -1], equalities=[True, False],
                  lower=[None, None]), "unbounded ray"),
        ("_extract_infeasible", _bump_farkas,
         dense_lp([1], [[1], [-1]], [1, -2], lower=[None]), "Farkas certificate"),
    ])
    def test_a_corrupted_tableau_value_raises(self, monkeypatch, extract, corrupt, lp, message):
        original = getattr(_Simplex, extract)

        def corrupted(self, *args):
            corrupt(self, *args)
            return original(self, *args)

        monkeypatch.setattr(_Simplex, extract, corrupted)
        with pytest.raises(InternalError, match=message):
            solve_lp(lp)


class TestCertificateChecks:
    def test_extended_row_system_appends_bounds(self):
        lp = dense_lp([1, 1], [[1, 0]], [2], lower=[None, Q(-1)])
        rows, rhs, eqs = farkas_row_system(lp)
        assert rows == ((Q(1), Q(0)), (Q(0), Q(-1)))
        assert rhs == (Q(2), Q(1))
        assert eqs == (False, False)

    def test_check_feasible(self):
        lp = dense_lp([1], [[1]], [1], equalities=[True], lower=[0])
        assert core_feasible(lp, (Q(1),))
        assert not core_feasible(lp, (Q(1, 2),))
        assert not core_feasible(lp, (Q(-1),))

    def test_check_ray(self):
        lp = dense_lp([1, 0], [[1, 1]], [5], equalities=[True], lower=[None, None])
        assert core_ray(lp, (Q(1), Q(-1)))
        assert not core_ray(lp, (Q(1), Q(0)))   # violates the equality row
        assert not core_ray(lp, (Q(0), Q(0)))
        assert not core_ray(lp, (Q(-1), Q(1)))  # objective does not grow

    def test_check_farkas_rejects_wrong_sign(self):
        lp = dense_lp([1], [[1], [-1]], [1, -2], lower=[None])
        assert core_farkas(lp, (Q(1), Q(1)))
        assert not core_farkas(lp, (Q(-1), Q(-1)))
        assert not core_farkas(lp, (Q(1), Q(0)))

    def test_check_farkas_rejects_a_negative_bound_multiplier(self):
        # x >= 1 with x >= 0 is feasible, yet (1, -1) balances the columns
        # and has y^T b = -1 < 0; only its sign on the bound row is wrong
        lp = dense_lp([0], [[-1]], [-1], lower=[0])
        assert not core_farkas(lp, (Q(1), Q(-1)))
        assert not reference_check_farkas(lp, (Q(1), Q(-1)))


class TestInputValidation:
    def test_dimension_mismatches(self):
        with pytest.raises(InputError, match="outside 0..0"):
            make_lp(1, ({}, 1), [({1: 1}, 0, False, 1)])
        with pytest.raises(InputError, match="1 equality flags for 2 rows"):
            LinearProgram(((1,), 1), ((((0, 1),), 0, 1), ((), 1, 1)), (False,), (None,))
        with pytest.raises(InputError, match="2 equality flags for 1 rows"):
            LinearProgram(((1,), 1), ((((0, 1),), 0, 1),), (True, False), (None,))
        with pytest.raises(InputError, match="2 bounds for 1 variables"):
            make_lp(1, ({0: 1}, 1), [({0: 1}, 0, False, 1)], lower=[Q(0), Q(0)])
        with pytest.raises(InputError, match="outside 0..0"):  # built directly, without make_lp
            LinearProgram(((1,), 1), ((((0, 1), (1, 1)), 0, 1),), (False,), (None,))

    @pytest.mark.parametrize("objective, rows, message", [
        (({0: 1, "a": 1}, 1), [], "column 'a', not an int"),
        (({}, 1), [({0: 1, "a": 1}, 0, False, 1)], "row 0 has column 'a', not an int"),
        (({}, 1), [({0: 1}, 0, False)], "row 0 is .*, not a .*den\\) row"),
        (({}, 1), [None], "row 0 is None, not a .*den\\) row"),
        ([1], [], "the objective is \\[1\\], not a \\(\\{column: numerator\\}, den\\) pair"),
        (({}, 1), [([1, 2], 0, False, 1)],
         "row 0 is \\[1, 2\\], not a \\{column: numerator\\} map"),
        # the Rational form, a {column: coefficient} objective map and a
        # (coefficients, rhs, is_equality) triple, whatever its numbers
        ({0: Q(1, 2)}, [], "the objective is .*, not a \\(\\{column: numerator\\}, den\\) pair"),
        ({0: 1, 1: 2}, [], "the objective is .*, not a \\(\\{column: numerator\\}, den\\) pair"),
        (({}, 1), [({0: Q(1, 2)}, Q(1), False)],
         "row 0 is .*, not a \\(\\{column: numerator\\}, rhs, is_equality, den\\) row"),
        (({}, 1), [({0: 1}, 2, True)],
         "row 0 is .*, not a \\(\\{column: numerator\\}, rhs, is_equality, den\\) row"),
    ])
    def test_make_lp_refuses_maps_and_rows_of_the_wrong_shape(
            self, objective, rows, message):
        with pytest.raises(InputError, match=message):
            make_lp(2, objective, rows)

    @pytest.mark.parametrize("args, message", [
        (("3", ({}, 1), []), "variable count '3'"),
        ((2.0, ({}, 1), []), "variable count 2.0"),
        ((-1, ({}, 1), []), "variable count -1"),
        ((True, ({0: 1}, 1), []), "variable count True"),
        ((1, ({}, 1), None), "rows None are not a sequence"),
        ((1, ({}, 1), [], 5), "bounds 5 are not a sequence"),
    ], ids=["str-count", "float-count", "negative-count", "bool-count", "rows-None", "bounds-int"])
    def test_make_lp_refuses_counts_rows_and_bounds_of_the_wrong_shape(self, args, message):
        with pytest.raises(InputError, match=message):
            make_lp(*args)

    def test_floats_rejected(self):
        with pytest.raises(InputError, match="the objective holds 0.5, not an int numerator"):
            make_lp(1, ({0: 0.5}, 1), [])
        with pytest.raises(InputError, match="row 0 holds 0.5, not an int numerator"):
            make_lp(1, ({}, 1), [({0: 0.5}, 0, False, 1)])
        with pytest.raises(InputError, match="the bounds: entry 0.5 is not a Rational"):
            make_lp(1, ({}, 1), [], lower=[0.5])
        with pytest.raises(InputError, match="inexact float 0.5"):
            dense_lp([0.5], [[1]], [0])

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_equality_flag_must_be_a_bool(self, flag):
        with pytest.raises(InputError, match="equality flag 0"):
            dense_lp([1], [[1]], [1], equalities=[flag])

    @pytest.mark.parametrize("fields", [
        # (the error, which names the field; the program's four fields)
        ("the objective holds 0.5, not an int numerator",
         (((0.5,), 2), ((((0, 1),), 2, 1),), (False,), (Q(0),))),
        ("row 0 holds 0.5, not an int numerator",
         (((1,), 2), ((((0, 0.5),), 2, 1),), (False,), (Q(0),))),
        ("right-hand side 0 holds 1.0, not an int numerator",
         (((1,), 2), (((), 1.0, 1),), (False,), (Q(0),))),
        ("row 0 holds '1', not an int numerator",
         (((1,), 2), ((((0, "1"),), 2, 1),), (False,), (Q(0),))),
        ("the bounds: entry 0.0 is not a Rational",
         (((1,), 2), ((((0, 1),), 2, 1),), (False,), (0.0,))),
        ("the bounds: entry 1 is not a Rational",
         (((1,), 2), ((((0, 1),), 2, 1),), (False,), (1,))),
        ("row 0 holds .*, not an int numerator",
         (((1,), 2), ((((0, Q(1, 2)),), 2, 1),), (False,), (Q(0),))),
        ("the objective holds .*, not an int numerator",
         (((Q(1, 2),), 1), (), (), (Q(0),))),
        ("row 0 has denominator 0, not an int > 0",
         (((1,), 2), ((((0, 1),), 2, 0),), (False,), (Q(0),))),
        ("row 0 has denominator -2, not an int > 0",
         (((1,), 2), ((((0, 1),), 2, -2),), (False,), (Q(0),))),
        ("row 0 has denominator True, not an int > 0",
         (((1,), 2), ((((0, 1),), 2, True),), (False,), (Q(0),))),
        ("the objective has denominator 0, not an int > 0",
         (((1,), 0), ((((0, 1),), 2, 1),), (False,), (Q(0),))),
        ("the objective has denominator 1.0, not an int > 0",
         (((1,), 1.0), ((((0, 1),), 2, 1),), (False,), (Q(0),))),
    ])
    def test_built_directly_every_number_must_be_rational(self, fields):
        """Every number is exact in its one form: an int numerator over
        an int den > 0, or a Rational bound. A Rational where a numerator
        is due is refused too, and the error names the field."""
        message, args = fields
        with pytest.raises(InputError, match=f"^{message}$"):
            LinearProgram(*args)

    def test_built_directly_every_flag_must_be_a_bool(self):
        with pytest.raises(InputError, match="equality flag 0 is 'no', not a bool"):
            LinearProgram(((1,), 2), ((((0, 1),), 2, 1),), ("no",), (Q(0),))

    @pytest.mark.parametrize("row, message", [
        (((1.0, 1),), "not an int"),
        ((("0", 1),), "not an int"),
        (((True, 1),), "not an int"),
        (((-1, 1),), "outside 0..2"),
        (((3, 1),), "outside 0..2"),
        (((1, 1), (1, 2)), "not rising"),
        (((2, 1), (0, 1)), "not rising"),
        (((0, 0),), "zero coefficient in column 0"),
        ((1,), "not a \\(column, numerator\\) pair"),
        (((0, True),), "holds True, not an int numerator"),
        (([0, 1],), "not a \\(column, numerator\\) pair"),
    ])
    def test_built_directly_every_row_pair_is_checked(self, row, message):
        """A bad column must not reach the tableau, where one outside
        0..n-1 would write into a slack column."""
        with pytest.raises(InputError, match=message):
            LinearProgram(((0, 0, 0), 1), ((row, 1, 1),), (False,), (None,) * 3)

    @pytest.mark.parametrize("fields", [
        ("x", (), (), (None,)),
        (((1,), 1), None, (), (None,)),
        (((1,), 1), (), None, (None,)),
        (((1,), 1), (), (), None),
        (((1,), 1), (((), 0),), (False,), (None,)),
    ], ids=["objective-str", "rows-None", "flags-None", "bounds-None", "row-pair"])
    def test_built_directly_every_field_has_its_shape(self, fields):
        with pytest.raises(InputError):
            LinearProgram(*fields)


class TestDerivedIntegerRows:
    """The integer form is the program's state: programs compare, hash,
    print and pickle by it, and ``int_lower`` is derived from it."""

    def _lp(self):
        return dense_lp([1, 0, Q(-1, 3)], [[Q(1, 2), 0, Q(3, 4)], [0, -2, 0]], [1, Q(5, 6)],
                        equalities=[False, True], lower=[None, 0, Q(1, 2)])

    def test_integer_form(self):
        lp = self._lp()
        assert lp.int_rows == ((((0, 2), (2, 3)), 4, 4), (((1, -12),), 5, 6))
        assert lp.int_lower == ((0, 0, 1), 2)

    def test_make_lp_and_sparse_lp_forms_are_equal(self):
        sparse = make_lp(3, ({0: 3, 2: -1}, 3),
                         [({0: 2, 2: 3}, 4, False, 4), ({1: -12}, 5, True, 6)],
                         lower=[None, Q(0), Q(1, 2)])
        dense = self._lp()
        assert sparse == dense and hash(sparse) == hash(dense)
        assert (sparse.int_rows, sparse.int_lower) == (dense.int_rows, dense.int_lower)

    def test_copy_and_pickle_round_trips_are_equal(self):
        lp = self._lp()
        for clone in (copy.copy(lp), copy.deepcopy(lp), pickle.loads(pickle.dumps(lp))):
            assert clone == lp and hash(clone) == hash(lp)
            assert (clone.int_rows, clone.int_lower) == (lp.int_rows, lp.int_lower)

    def test_repr_names_only_the_declared_fields(self):
        names = re.findall(r"(\w+)=", repr(self._lp()))
        assert names == ["int_objective", "int_rows", "equalities", "lower"]


@st.composite
def _integer_program(draw):
    """``make_lp`` arguments in integer form, and the same numbers as
    Rational maps and triples for ``rational_lp``. Each den and
    numerator is a multiple of one drawn factor, so they often share
    it; zero entries, zero and negative right-hand sides and empty rows
    are common."""
    n = draw(st.integers(0, 4))
    factor = draw(st.sampled_from([1, 2, 3, 6, 10**9 + 7]))
    dens = st.integers(1, 12).map(lambda q: q * factor)
    nums = st.integers(-6, 6).map(lambda a: a * factor)
    maps = st.dictionaries(st.integers(0, n - 1), nums, max_size=n) if n else st.just({})

    def rational(coeffs, den):
        return {j: Q(a, den) for j, a in coeffs.items()}

    coeffs, den = draw(maps), draw(dens)
    objective = ((coeffs, den), rational(coeffs, den))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs, b, eq, den = draw(maps), draw(nums), draw(st.booleans()), draw(dens)
        rows.append(((coeffs, b, eq, den), (rational(coeffs, den), Q(b, den), eq)))
    lower = draw(st.lists(st.none() | st.builds(Q, st.integers(-3, 3), st.integers(1, 4)),
                          min_size=n, max_size=n))
    return n, objective, rows, lower


class TestIntegerForm:
    """``make_lp``'s integer rows and objective give the program that
    the tests' Rational adapter ``rational_lp`` builds from the same
    numbers, and malformed ones are refused."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_integer_program())
    def test_equals_the_rational_form(self, program):
        n, (int_obj, obj), rows, lower = program
        ints = make_lp(n, int_obj, [row for row, _ in rows], lower)
        rats = rational_lp(n, obj, [row for _, row in rows], lower)
        assert ints == rats and hash(ints) == hash(rats)
        assert ints.int_rows == rats.int_rows
        assert ints.int_objective == rats.int_objective
        assert ints.int_lower == rats.int_lower

    def test_reduced_by_one_gcd(self):
        lp = make_lp(3, ({0: 4, 1: 0, 2: -6}, 8),
                     [({0: 6, 2: 0}, -9, False, 12), ({}, 0, True, 5), ({1: 2}, 4, False, 2)])
        assert lp.int_objective == ((2, 0, -3), 4)
        assert lp.int_rows == ((((0, 2),), -3, 4), ((), 0, 1), (((1, 1),), 2, 1))

    @pytest.mark.parametrize("objective, rows, message", [
        (({}, 1), [({0: 1}, 0, False, 0)], "row 0 has denominator 0, not an int > 0"),
        (({}, 1), [({0: 1}, 0, False, -3)], "row 0 has denominator -3"),
        (({}, 1), [({0: 1}, 0, False, True)], "row 0 has denominator True"),
        (({}, 1), [({0: 1}, 0, False, 2.0)], "row 0 has denominator 2.0"),
        (({}, 1), [({0: True}, 0, False, 1)], "row 0 holds True, not an int numerator"),
        (({}, 1), [({0: Q(1, 2)}, 0, False, 1)], "row 0 holds .*, not an int numerator"),
        (({}, 1), [({0: 0.5}, 0, False, 1)], "row 0 holds 0.5, not an int numerator"),
        (({}, 1), [({0: "1"}, 0, False, 1)], "row 0 holds '1', not an int numerator"),
        (({}, 1), [({0: 1}, True, False, 1)], "right-hand side 0 holds True, not an int numerator"),
        (({}, 1), [({0: 1}, Q(1), False, 1)], "right-hand side 0 holds .*, not an int numerator"),
        (({}, 1), [({0: 1}, 0, 1, 1)], "equality flag 0 is 1, not a bool"),
        (({}, 1), [({2: 1}, 0, False, 1)], "row 0 has column 2: outside 0..1"),
        (({}, 1), [({-1: 1, 1: 1}, 0, False, 1)], "row 0 has column -1: outside 0..1"),
        (({}, 1), [({True: 1}, 0, False, 1)], "row 0 has column True, not an int"),
        (({}, 1), [({"a": 0}, 0, False, 1)], "row 0 has column 'a', not an int"),
        (({}, 1), [([1], 0, False, 1)], "row 0 is \\[1\\], not a \\{column: numerator\\} map"),
        (({}, 1), [({0: 1}, 0, False, 1, 1)], "row 0 is .*, not a .*den\\) row"),
        (({0: 1}, 0), [], "the objective has denominator 0"),
        (({0: 1.0}, 1), [], "the objective holds 1.0, not an int numerator"),
        (({5: 1}, 1), [], "the objective has column 5: outside 0..1"),
        (({0: 1},), [], "the objective is .*, not a \\(\\{column: numerator\\}, den\\) pair"),
    ])
    def test_malformed_integer_rows_are_refused(self, objective, rows, message):
        with pytest.raises(InputError, match=message):
            make_lp(2, objective, rows)


class TestProgramGuard:
    """The solver refuses anything but a program."""

    @pytest.mark.parametrize("call", [solve_lp], ids=["solve_lp"])
    @pytest.mark.parametrize("bad", ["x", None, ((Q(1),), ())])
    def test_anything_but_a_program_is_refused(self, call, bad):
        with pytest.raises(InputError, match="expected a LinearProgram"):
            call(bad)


class TestSparseLp:
    def test_equals_make_lp_on_the_dense_form(self):
        # free x0, x1 >= 0, x2 >= 1/2; two inequality rows, one equality
        sparse = make_lp(
            3,
            ({0: 3, 2: -1}, 3),
            [({0: 1, 1: 2}, 4, False, 1), ({1: -2, 2: 3}, -2, False, 2),
             ({0: 1, 2: 1}, 2, True, 1)],
            lower=[None, Q(0), Q(1, 2)],
        )
        dense = dense_lp(
            [1, 0, Q(-1, 3)],
            [[1, 2, 0], [0, -1, Q(3, 2)], [1, 0, 1]],
            [4, -1, 2],
            equalities=[False, False, True],
            lower=[None, 0, Q(1, 2)],
        )
        assert sparse == dense
        assert solve_lp(sparse) == solve_lp(dense)

    def test_absent_columns_are_zero(self):
        lp = make_lp(4, ({}, 1), [({2: 5}, 1, False, 1)])
        assert lp.int_objective == ((0, 0, 0, 0), 1)
        assert lp.int_rows == ((((2, 5),), 1, 1),)
        assert dense_rows(lp) == ((Q(0), Q(0), Q(5), Q(0)),)
        assert lp.equalities == (False,)
        assert lp.lower == (None,) * 4

    def test_key_order_and_explicit_zeros_change_nothing(self):
        lp = make_lp(3, ({2: 1, 0: -1}, 1), [({2: 3, 0: 2}, 8, False, 2), ({1: 2}, 0, True, 1)],
                     lower=[None, Q(0), Q(0)])
        same = make_lp(3, ({1: 0, 0: -1, 2: 1}, 1),
                       [({0: 2, 1: 0, 2: 3}, 8, False, 2), ({2: 0, 1: 2, 0: 0}, 0, True, 1)],
                       lower=[None, Q(0), Q(0)])
        assert lp.int_rows == ((((0, 2), (2, 3)), 8, 2), (((1, 2),), 0, 1))
        assert same == lp and hash(same) == hash(lp)
        assert (same.int_rows, same.int_lower) == (lp.int_rows, lp.int_lower)

    @pytest.mark.parametrize("col", [-1, 3])
    def test_column_outside_the_program_rejected(self, col):
        with pytest.raises(InputError, match="outside 0..2"):
            make_lp(3, ({col: 1}, 1), [])
        with pytest.raises(InputError, match="outside 0..2"):
            make_lp(3, ({}, 1), [({0: 1, col: 1}, 0, False, 1)])


def _agree_with_oracle(rng, **kinds):
    seen = set()
    for i in range(150):
        lp = random_lp(rng, **kinds)
        ok, got, oracle = oracle_check(lp)
        assert ok, f"case {i}: solver {got!r} vs oracle {oracle!r}"
        seen.add(oracle[0])
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_oracle_agreement_batch():
    """Exhaustive vertex/ray enumeration agrees with the simplex on a
    batch of small random LPs, including every returned certificate."""
    _agree_with_oracle(random.Random(20240))


def test_oracle_agreement_batch_with_free_variables():
    """The same when about half the variables are free; the oracle
    enumerates the split program x = x+ - x-."""
    _agree_with_oracle(random.Random(61), free=0.5, max_vars=3)


def test_deterministic_resolve():
    rng = random.Random(7)
    for _ in range(25):
        lp = random_lp(rng)
        assert solve_lp(lp) == solve_lp(lp)


OUTCOMES_SHA256 = "89e4ed3d8cb94e643ebe410909fbc4dc0941a331043d96b389d48001cdbe1074"


def test_outcomes_are_pinned():
    """Every outcome of 800 small programs (233 optimal, 379 infeasible,
    188 unbounded) is pinned byte for byte: its kind and each entry of
    its point and value, ray, or Farkas vector with bound multipliers."""
    digest = hashlib.sha256()
    for seed in range(400):
        for free in (0.0, 0.5):
            out = solve_lp(random_lp(random.Random(seed), free=free))
            if isinstance(out, Optimal):
                entries = (*out.point, out.value)
            elif isinstance(out, Unbounded):
                entries = out.ray
            else:
                entries = out.certificate
            line = " ".join([type(out).__name__, *map(format_rational, entries)])
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == OUTCOMES_SHA256


def _vector(out):
    if isinstance(out, Optimal):
        return out.point
    return out.ray if isinstance(out, Unbounded) else out.certificate


def _perturbed(lp, out):
    """Copies of an outcome's vector with one entry moved by +-1/7, one
    sign flipped, or, in a Farkas vector, one bound multiplier zeroed."""
    v = _vector(out)
    for k, y in enumerate(v):
        for new in (y + Q(1, 7), y - Q(1, 7), -y):
            yield v[:k] + (new,) + v[k + 1:]
    if isinstance(out, Infeasible):
        for k in range(lp.n_rows, len(v)):
            if v[k]:
                yield v[:k] + (Q(0),) + v[k + 1:]


def _verdicts(lp, vector):
    """(shipped, reference) verdicts of all three re-checks on one vector."""
    return ((core_feasible(lp, vector), core_ray(lp, vector), core_farkas(lp, vector)),
            (reference_check_feasible(lp, vector), reference_check_ray(lp, vector),
             reference_check_farkas(lp, vector)))


def _assert_checks_agree(lp, out):
    shipped, reference = _verdicts(lp, _vector(out))
    assert shipped == reference and True in shipped, (lp, out)
    for vector in _perturbed(lp, out):
        shipped, reference = _verdicts(lp, vector)
        assert shipped == reference, (lp, out, vector)


FRACTIONAL_OUTCOMES_SHA256 = "b6b800d6a37ad0656c409913131c43b8a4bcfa051fe0f0b1941276cfa100ee7a"


class TestReChecksAgreeWithReference:
    """The shipped re-checks give the verdicts of the dense rational
    references in ``lp_oracle`` on every outcome and on near misses."""

    @pytest.mark.parametrize("free", [0.0, 0.5])
    def test_pinned_programs(self, free):
        for seed in range(400):
            lp = random_lp(random.Random(seed), free=free)
            _assert_checks_agree(lp, solve_lp(lp))

    def test_fractional_coefficients_rhs_and_bounds(self):
        """Here the simplex shifts fractional lower bounds out of the
        right-hand sides; the outcomes (59 optimal, 201 infeasible, 40
        unbounded) are pinned byte for byte as well."""
        rng = random.Random(1607)
        digest = hashlib.sha256()
        for case in range(300):
            lp = random_fractional_lp(rng, max_vars=3)
            ok, out, oracle = oracle_check(lp)
            assert ok, f"case {case}: solver {out!r} vs oracle {oracle!r}"
            _assert_checks_agree(lp, out)
            line = " ".join([type(out).__name__, *map(format_rational, _vector(out))])
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == FRACTIONAL_OUTCOMES_SHA256
