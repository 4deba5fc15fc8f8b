"""Exact linear programming over the rationals.

Problems are maximizations subject to rows ``A x <= b`` (equality rows
flagged) and per-variable bounds: each variable is either free or
bounded below. A program is built by ``make_lp`` from a
``{column: coefficient}`` map for the objective and one such map per
row, or from the integer form of either: int numerators over one
positive int denominator, which is how the routes hand it their rows,
so that no Rational is made on the way in. The program keeps that
integer form as its state, each row as its nonzero ``(column,
numerator)`` pairs in column order over one row denominator, in lowest
terms; its ``objective``, ``rows`` and ``rhs`` are Rational views made
when read. The solver is a two-phase primal simplex with Bland's
anti-cycling rule and exact pivots, so it terminates on every input and
its certificates are bit-exact. Every variable has one tableau column;
a free one enters with either sign of reduced cost and, once basic,
never leaves. The tableau is filled from the integer rows, with lower
bounds shifted out in integers, and keeps each row as Python ints over
one positive row denominator (fraction-free pivoting: an integer
multiply-and-subtract by multipliers divided by their gcd, and one gcd
per touched row), so set-up and pivots never touch the rational scalar
type. The vector conversions
(``int_row``, ``rational_row``) and the row normalisation
(``lowest_terms``) belong to ``rationals``; this module owns the one
pass over each sparse row, the tableau and its elimination. Each
outcome is read off the tableau as integer numerators over one
denominator and re-checked in integers; a Rational is made only for
each nonzero entry returned, and for an optimum's value, from the
objective's integer row. No pivot budget cuts a solve short: a basis
revisited between two moves of the objective, which Bland's rule rules
out, raises InternalError instead.

Every outcome is re-verified before it leaves ``solve_lp``:

* an Optimal point is substituted into every row and bound;
* an Unbounded ray is checked to be a feasible direction with strictly
  positive objective growth;
* an Infeasible certificate is a Farkas vector over the *extended* row
  system: the declared rows, then one row ``-x_j <= -lower_j`` for each
  bounded variable j in increasing j, kept implicit here. Over that
  system the certificate y satisfies y >= 0 on inequality rows,
  y^T A = 0 componentwise and y^T b < 0, which is a self-contained
  proof of infeasibility.

Each re-check reads only the program and the vector. The public
``check_feasible``, ``check_ray`` and ``check_farkas``, like
``solve_lp``, raise InputError on anything but a LinearProgram
(``ensure_program``); they answer False on a vector that is not exact,
and otherwise bring it to one common denominator and hand its
numerators to a private integer core, which compares integer sums over
the rows' nonzeros; ``solve_lp`` runs the same cores on the numerators
it read off.

A failed re-verification raises InternalError; it signals a solver bug,
never bad input.
"""

from __future__ import annotations

from collections import abc
from math import gcd, lcm
from operator import mul
from typing import Mapping, Optional, Sequence, Union

from .errors import InputError, InternalError, Record
from .rationals import (ZERO, Q, Rational, RationalLike, Vector, as_rational, int_row,
                        is_exact_vector, lowest_terms, rational_row)


class LinearProgram(Record):
    """maximize objective . x  s.t.  rows[i] . x (<= or ==) rhs[i],
    x_j >= lower[j] where lower[j] is not None. The constructor takes
    those five fields: row i is a tuple of (column, coefficient) pairs,
    int columns rising inside 0..n_vars-1, each with a nonzero
    coefficient; an absent column is zero. Every number must be a
    Rational and every flag a bool.

    The program keeps its integer form, derived in the one pass that
    checks each number: ``int_objective``, the objective's numerators
    over their common denominator; ``int_rows[i]``, row i's ((column,
    numerator) pairs, rhs numerator, positive denominator) in lowest
    terms; ``equalities``; ``lower``; and ``int_lower``, the bound
    numerators (0 where free) over their common denominator.
    ``objective``, ``rows`` and ``rhs`` are Rational views of it, made
    each time they are read; the program compares, hashes, prints and
    pickles by them, ``equalities`` and ``lower``."""

    __slots__ = ("int_objective", "int_rows", "equalities", "lower", "int_lower")
    _fields = ("objective", "rows", "rhs", "equalities", "lower")

    int_objective: tuple[tuple[int, ...], int]
    int_rows: tuple[tuple[tuple[tuple[int, int], ...], int, int], ...]
    equalities: tuple[bool, ...]
    lower: tuple[Optional[Rational], ...]
    int_lower: tuple[tuple[int, ...], int]

    def __init__(self, objective, rows, rhs, equalities, lower) -> None:
        n, m = len(objective), len(rows)
        if len(rhs) != m:
            raise InputError(f"{len(rhs)} right-hand sides for {m} rows")
        if len(equalities) != m:
            raise InputError(f"{len(equalities)} equality flags for {m} rows")
        if len(lower) != n:
            raise InputError(f"{len(lower)} bounds for {n} variables")
        int_objective = _int_field("the objective", objective)
        int_lower = _int_lower(lower)
        int_rows = tuple([_rational_row(i, row, b, eq, n)
                          for i, (row, b, eq) in enumerate(zip(rows, rhs, equalities))])
        super().__init__(int_objective, int_rows, tuple(equalities), tuple(lower), int_lower)

    @classmethod
    def _of(cls, int_objective, int_rows, equalities, lower) -> "LinearProgram":
        """The program with this integer form, built without the
        constructor's pass over Rational fields."""
        n = len(int_objective[0])
        if len(lower) != n:
            raise InputError(f"{len(lower)} bounds for {n} variables")
        lp = cls.__new__(cls)
        Record.__init__(lp, int_objective, int_rows, equalities, lower, _int_lower(lower))
        return lp

    @property
    def objective(self) -> Vector:
        return rational_row(*self.int_objective)

    @property
    def rows(self) -> tuple[tuple[tuple[int, Rational], ...], ...]:
        return tuple([tuple([(j, Q(a, den)) for j, a in nz]) for nz, _, den in self.int_rows])

    @property
    def rhs(self) -> Vector:
        return tuple([Q(b, den) if b else ZERO for _, b, den in self.int_rows])

    @property
    def n_vars(self) -> int:
        return len(self.int_objective[0])

    @property
    def n_rows(self) -> int:
        return len(self.int_rows)


def ensure_program(lp: LinearProgram) -> LinearProgram:
    """The program, or InputError naming the type of anything else."""
    if not isinstance(lp, LinearProgram):
        raise InputError(f"expected a LinearProgram, got {type(lp).__name__}")
    return lp


def _int_field(what: str, values: Sequence[Rational]) -> tuple[tuple[int, ...], int]:
    """``int_row`` of a program's objective or bounds, with an
    InputError that names the field."""
    try:
        return int_row(values)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None


def _int_lower(lower: Sequence[Optional[Rational]]) -> tuple[tuple[int, ...], int]:
    """``int_row`` of the bounds, 0 where free, reading no ZERO."""
    nums, den = _int_field("the bounds", [lo for lo in lower if lo is not None])
    bounded = iter(nums)
    return tuple([0 if lo is None else next(bounded) for lo in lower]), den


def _check_flag(i: int, eq) -> None:
    if type(eq) is not bool:
        raise InputError(f"equality flag {i} is {eq!r}, not a bool")


def _rational_row(i: int, pairs, b: Rational, eq: bool, n: int):
    """Row ``i`` of an ``n``-variable program in integer form, from its
    Rational (column, coefficient) pairs and right-hand side ``b``: the
    numerators over the lcm of their denominators, each read once. The
    constructor and ``make_lp``'s triples share it, so they refuse the
    same rows with the same InputError."""
    _check_flag(i, eq)
    if not isinstance(b, Rational):
        raise InputError(f"right-hand side {i} holds {b!r}, not a Rational")
    parts, dens, last = [], [int(b.denominator)], -1
    for pair in pairs:
        try:
            j, a = pair
        except (TypeError, ValueError):
            raise InputError(f"row {i} holds {pair!r}, not a (column, coefficient) "
                             "pair") from None
        if type(j) is not int:
            raise InputError(f"row {i} has column {j!r}, not an int")
        if not last < j < n:
            after = f" after column {last}" if last >= 0 else ""
            raise InputError(f"row {i} has column {j}{after}: not rising, or outside "
                             f"0..{n - 1}")
        if not isinstance(a, Rational):
            raise InputError(f"row {i} holds {a!r}, not a Rational")
        p = int(a.numerator)
        if not p:
            raise InputError(f"row {i} has a zero coefficient in column {j}")
        q = int(a.denominator)
        parts.append((j, p, q))
        dens.append(q)
        last = j
    den = lcm(*dens)
    return (tuple([(j, p * (den // q)) for j, p, q in parts]),
            int(b.numerator) * (den // dens[0]), den)


def _integer_row(i: int, coeffs, b: int, eq: bool, den: int, n: int):
    """Row ``i`` from its integer form, ``{column: numerator}`` and
    ``b`` over ``den``, divided by the gcd of its numerators and
    ``den``: what ``_rational_row`` gives for the same numbers."""
    _check_flag(i, eq)
    _check_den(f"row {i}", den)
    if type(b) is not int:
        raise InputError(f"right-hand side {i} holds {b!r}, not an int numerator")
    pairs = _int_pairs(coeffs, n, i)
    g = gcd(b, den, *[a for _, a in pairs])
    if g > 1:
        return tuple([(j, a // g) for j, a in pairs]), b // g, den // g
    return pairs, b, den


def _check_den(what: str, den) -> None:
    if type(den) is not int or den <= 0:
        raise InputError(f"{what} has denominator {den!r}, not an int > 0")


def _int_pairs(coeffs: Mapping[int, int], n: int, row: Optional[int]
               ) -> tuple[tuple[int, int], ...]:
    """The nonzero (column, numerator) pairs of an integer map, by
    column; InputError on anything but a map of int numerators whose
    int columns lie inside 0..n-1, naming ``row``, or the objective when
    that is None."""
    try:
        items = coeffs.items()
    except AttributeError:
        raise InputError(f"{_name(row)} is {coeffs!r}, not a {{column: numerator}} "
                         "map") from None
    pairs = []
    for j, a in items:
        if type(a) is not int:
            raise InputError(f"{_name(row)} holds {a!r}, not an int numerator")
        if type(j) is not int:
            raise InputError(f"{_name(row)} has column {j!r}, not an int")
        if a:
            pairs.append((j, a))
    pairs.sort()
    if pairs and not (0 <= pairs[0][0] and pairs[-1][0] < n):
        bad = pairs[0][0] if pairs[0][0] < 0 else pairs[-1][0]
        raise InputError(f"{_name(row)} has column {bad}: outside 0..{n - 1}")
    return tuple(pairs)


def _pairs(coeffs: Mapping[int, RationalLike], row: Optional[int] = None
           ) -> tuple[tuple[int, Rational], ...]:
    """The coerced nonzero (column, coefficient) pairs of a map, by
    column; InputError on anything but a map whose columns can be
    ordered, naming ``row``, or the objective when that is None."""
    try:
        items = coeffs.items()
    except AttributeError:
        raise InputError(f"{_name(row)} is {coeffs!r}, not a {{column: coefficient}} "
                         "map") from None
    pairs = [(j, a) for j, c in items if (a := as_rational(c))]
    try:
        pairs.sort()
    except TypeError:
        bad = next(j for j in coeffs if type(j) is not int)
        raise InputError(f"{_name(row)} has column {bad!r}, not an int") from None
    return tuple(pairs)


def _name(row: Optional[int]) -> str:
    """How an error names ``row``, or the objective when that is None."""
    return "the objective" if row is None else f"row {row}"


IntObjective = tuple[Mapping[int, int], int]
IntRow = tuple[Mapping[int, int], int, bool, int]


def make_lp(
    n_vars: int,
    objective: Union[Mapping[int, RationalLike], IntObjective],
    rows: Sequence[Union[tuple[Mapping[int, RationalLike], RationalLike, bool], IntRow]],
    lower: Optional[Sequence[Optional[RationalLike]]] = None,
) -> LinearProgram:
    """Build a LinearProgram from sparse rows. The objective is one
    {column: coefficient} map, or its integer form ({column: numerator},
    den); each row is a (coefficients, rhs, is_equality) triple, or its
    integer form ({column: numerator}, rhs numerator, is_equality, den);
    ``lower``, when given, is a sequence. Numbers in a map or triple are
    coerced to Rationals; an integer form holds ints over an int den > 0
    and makes none, and gives the program that the same numbers as
    Rationals give. An absent column or a zero entry is zero; a count
    that is not an int >= 0, a column outside 0..n_vars-1 or that is not
    an int, a map that is not a mapping, or rows or bounds of another
    shape, raises InputError."""
    if type(n_vars) is not int or n_vars < 0:
        raise InputError(f"variable count {n_vars!r} is not an int >= 0")
    if not isinstance(rows, abc.Sequence):
        raise InputError(f"rows {rows!r} are not a sequence of triples")
    if not (lower is None or isinstance(lower, abc.Sequence)):
        raise InputError(f"bounds {lower!r} are not a sequence")
    if type(objective) is tuple:
        try:
            coeffs, den = objective
        except ValueError:
            raise InputError(f"the objective is {objective!r}, not a ({{column: numerator}}, "
                             "den) pair") from None
        _check_den("the objective", den)
        nums = [0] * n_vars
        for j, a in _int_pairs(coeffs, n_vars, None):
            nums[j] = a
        g = gcd(den, *nums)
        int_objective = tuple([a // g for a in nums]), den // g
    else:
        obj = [ZERO] * n_vars
        for j, a in _pairs(objective):
            if type(j) is not int or not 0 <= j < n_vars:
                raise InputError(f"the objective has column {j!r}: not an int, or outside "
                                 f"0..{n_vars - 1}")
            obj[j] = a
        int_objective = _int_field("the objective", obj)
    int_rows, eqs = [], []
    for i, row in enumerate(rows):
        try:
            coeffs, b, eq, *den = row
            if len(den) > 1:
                raise ValueError
        except (TypeError, ValueError):
            raise InputError(f"row {i} is {row!r}, not a (coefficients, rhs, is_equality) "
                             "triple or its integer form with a den") from None
        if den:
            int_rows.append(_integer_row(i, coeffs, b, eq, den[0], n_vars))
        else:
            int_rows.append(_rational_row(i, _pairs(coeffs, i), as_rational(b), eq, n_vars))
        eqs.append(eq)
    lo = ([None] * n_vars if lower is None
          else [None if v is None else as_rational(v) for v in lower])
    return LinearProgram._of(int_objective, tuple(int_rows), tuple(eqs), tuple(lo))


class Optimal(Record):
    __slots__ = ("point", "value")

    point: Vector
    value: Rational


class Infeasible(Record):
    __slots__ = ("certificate",)

    certificate: Vector  # over the declared rows, then -x_j <= -lower_j per bounded j


class Unbounded(Record):
    __slots__ = ("ray",)

    ray: Vector


LpOutcome = Union[Optimal, Infeasible, Unbounded]


def _holds(lp: LinearProgram, x: list[int], d: int) -> bool:
    """``x / d`` meets every row and bound of ``lp``; with ``d = 0``,
    ``x`` meets them with every right-hand side and bound set to 0."""
    low, low_den = lp.int_lower
    if any(xj * low_den < l * d for xj, lo, l in zip(x, lp.lower, low) if lo is not None):
        return False
    for (nz, b, _), eq in zip(lp.int_rows, lp.equalities):
        lhs = sum([a * x[j] for j, a in nz])
        if lhs != b * d if eq else lhs > b * d:
            return False
    return True


def _is_ray(lp: LinearProgram, r: list[int]) -> bool:
    """The direction ``r`` (any positive scale) recedes from every row
    and bound and strictly raises the objective."""
    return any(r) and _holds(lp, r, 0) and sum(map(mul, lp.int_objective[0], r)) > 0


def _is_farkas(lp: LinearProgram, y: list[int]) -> bool:
    """The multipliers ``y`` (any positive scale) over the extended row
    system prove ``lp`` infeasible."""
    m = lp.n_rows
    if any(v < 0 for v in y[m:]) or any(v < 0 and not eq for v, eq in zip(y, lp.equalities)):
        return False
    # y^T A and the declared rows' share of y^T b, over y's denominator times scale
    scale = lcm(*(den for _, _, den in lp.int_rows))
    col, rhs = [0] * lp.n_vars, 0
    for (nz, b, den), v in zip(lp.int_rows, y):
        if v:
            v *= scale // den
            rhs += v * b
            for j, a in nz:
                col[j] += v * a
    low, low_den = lp.int_lower
    bound_rhs = 0  # minus the bound rows' share, over y's denominator times low_den
    for j, z in zip(_bounded(lp), y[m:]):
        col[j] -= z * scale
        bound_rhs += z * low[j]
    return not any(col) and rhs * low_den < bound_rhs * scale


def _bounded(lp: LinearProgram) -> list[int]:
    return [j for j, lo in enumerate(lp.lower) if lo is not None]


def check_feasible(lp: LinearProgram, point: Sequence[Rational]) -> bool:
    """``point`` meets every row and bound; InputError on anything but a
    LinearProgram, False on a vector that is not exact."""
    return is_exact_vector(point, ensure_program(lp).n_vars) and _holds(lp, *int_row(point))


def check_ray(lp: LinearProgram, ray: Sequence[Rational]) -> bool:
    """Feasible recession direction with strictly positive objective growth."""
    return is_exact_vector(ray, ensure_program(lp).n_vars) and _is_ray(lp, int_row(ray)[0])


def check_farkas(lp: LinearProgram, certificate: Sequence[Rational]) -> bool:
    """Over the extended row system: the declared rows, then, kept
    implicit here, the row -x_j <= -lower_j of each bounded column j in
    increasing j."""
    return (is_exact_vector(certificate, ensure_program(lp).n_rows + len(_bounded(lp)))
            and _is_farkas(lp, int_row(certificate)[0]))


def _eliminate(row: list[int], den: int, prow: list[int], p: int, col: int):
    """Subtract the multiple of ``prow / p`` (pivot ``p > 0`` in column
    ``col``) that clears ``row / den`` in that column; returns the new
    (numerators, denominator) reduced to lowest terms."""
    f = row[col]
    g = gcd(f, p)  # the same new row, from smaller multipliers
    if g > 1:
        f //= g
        p //= g
    new = [a * p - f * b for a, b in zip(row, prow)]
    den *= p
    g = gcd(*new, den)
    if g > 1:
        new = [a // g for a in new]
        den //= g
    return new, den


def _check_new_basis(seen: set[frozenset[int]], basis: Sequence[int]) -> None:
    """Record a basis reached since the objective last moved. Bland's
    rule never returns to one, so a repeat is a solver bug and raises
    rather than cycling."""
    key = frozenset(basis)
    if key in seen:
        raise InternalError("simplex revisited a basis; anti-cycling rule violated")
    seen.add(key)


class _Simplex:
    """Dense exact tableau of integer rows. Columns: one structural
    column per variable, then one slack per inequality row (from
    ``n_vars``), then one artificial per equality or sign-flipped row
    (from ``art_start`` to ``n_cols``); each row also carries its
    right-hand side in the last slot. Structural column j holds y_j
    with x_j = sign[j] * y_j + shift[j]: shift is the lower bound, or 0
    for a free variable, and a free column that enters with negative
    reduced cost is negated first and its sign flipped. A free basic
    variable is never a leaving candidate. Row i stands for
    ``T[i] / den[i]``: Python ints over one positive denominator, put
    in lowest terms by each pivot that touches it, so a pivot is integer
    multiply-and-subtract plus one gcd per touched row. The reduced-cost row ``obj / obj_den`` has
    the same form; ``_price`` sets it before each phase."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.n_vars
        self.sign = [1] * n
        self.free_cols = [j for j, lo in enumerate(lp.lower) if lo is None]

        # x_j = y_j + lower_j over each row's denominator times low_den
        low, low_den = lp.int_lower
        rhs = [b * low_den - sum(a * low[j] for j, a in nz) for nz, b, _ in lp.int_rows]
        # flip rows with negative transformed rhs so phase 1 starts basic-feasible
        self.sigma = [-1 if b < 0 else 1 for b in rhs]
        needs_art = [eq or s < 0 for eq, s in zip(lp.equalities, self.sigma)]
        self.art_start = n + lp.equalities.count(False)
        self.n_cols = self.art_start + sum(needs_art)
        self.free = [lo is None for lo in lp.lower] + [False] * (self.n_cols - n)

        self.T, self.den, self.basis = [], [], []  # int rows, denominators, basic columns
        slack, art = n, self.art_start
        for (nz, _, den), b, eq, s, needs in zip(lp.int_rows, rhs, lp.equalities,
                                                  self.sigma, needs_art):
            full = [0] * (self.n_cols + 1)
            for j, a in nz:
                full[j] = s * low_den * a
            full[-1] = s * b
            den *= low_den
            if not eq:
                full[slack] = s * den
                basic, slack = slack, slack + 1
            if needs:
                full[art] = den
                basic, art = art, art + 1
            self.T.append(full)
            self.den.append(den)
            self.basis.append(basic)
        self.init_basis = list(self.basis)

    # --- pivoting -------------------------------------------------------

    def _price(self, cost: list[int], cost_den: int) -> None:
        """Set the reduced-cost row to cost - c_B B^-1 A for the current
        basis by clearing each basic column in turn."""
        self.obj, self.obj_den = cost, cost_den
        for row, den, bi in zip(self.T, self.den, self.basis):
            if self.obj[bi]:
                self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, row, den, bi)

    def _pivot(self, i: int, enter: int) -> None:
        T, den = self.T, self.den
        prow = T[i] = lowest_terms(T[i], enter)
        p = den[i] = prow[enter]
        for r in range(len(T)):
            if r != i and T[r][enter]:
                T[r], den[r] = _eliminate(T[r], den[r], prow, p, enter)
        if self.obj[enter]:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, prow, p, enter)
        self.basis[i] = enter

    def _optimize(self, ncols: int) -> Optional[int]:
        """Bland's rule over the first ``ncols`` columns: entering =
        smallest column with positive reduced cost, or smallest free
        column with a nonzero one, negated first if that is negative;
        leaving = smallest ratio rhs/a over a > 0 among rows whose basic
        variable is bounded (a free basic variable never leaves, so at
        most one entry per free column adds to Bland's finite count; row
        denominators cancel, so ratios are compared by
        cross-multiplying), ties by smallest basis column.
        Returns None at an optimum, or the entering column that no row
        bounds when the program is unbounded along it."""
        T, free, basis = self.T, self.free, self.basis
        seen: set[frozenset[int]] = set()
        _check_new_basis(seen, basis)
        while True:
            obj = self.obj
            enter = next((j for j in range(ncols) if obj[j] > 0), ncols)
            for j in self.free_cols:
                if j >= enter:
                    break
                if obj[j]:  # negative, as every positive one is >= enter
                    for row in T:
                        row[j] = -row[j]
                    obj[j] = -obj[j]
                    self.sign[j] = -self.sign[j]
                    enter = j
                    break
            if enter == ncols:
                return None
            leave = -1
            best_b = best_a = 0
            for i, row in enumerate(T):
                a = row[enter]
                if a > 0 and not free[basis[i]]:
                    b = row[-1]
                    if leave < 0 or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[i] < basis[leave]
                    ):
                        best_b, best_a = b, a
                        leave = i
            if leave < 0:
                return enter
            self._pivot(leave, enter)
            if T[leave][-1]:  # the objective moved
                seen.clear()
            _check_new_basis(seen, basis)

    # --- phases ---------------------------------------------------------

    def run(self) -> LpOutcome:
        n_art = self.n_cols - self.art_start
        if n_art:
            self._price([0] * self.art_start + [-1] * n_art + [0], 1)
            if self._optimize(self.n_cols) is not None:
                raise InternalError("phase 1 cannot be unbounded")
            if any(row[-1] for row, bi in zip(self.T, self.basis) if bi >= self.art_start):
                return self._extract_infeasible()
            self._expel_artificials()

        cost, cost_den = self.lp.int_objective
        cost = [s * c for s, c in zip(self.sign, cost)] + [0] * (self.art_start + 1 - len(cost))
        self._price(cost, cost_den)
        enter = self._optimize(self.art_start)
        if enter is not None:
            return self._extract_ray(enter)
        return self._extract_optimal()

    def _expel_artificials(self) -> None:
        """After a zero-value phase 1, pivot artificials out of the basis.
        A row with no structural or slack coefficient left is redundant:
        no later pivot touches it, as its entry in every entering column
        is 0, so it is deleted. Artificials never re-enter, so their
        columns are deleted too."""
        # phase-1 costs are spent; phase 2 prices its costs after these pivots
        self.obj = [0] * (self.n_cols + 1)
        redundant = []
        for i, row in enumerate(self.T):
            if self.basis[i] < self.art_start:
                continue
            enter = next((j for j in range(self.art_start) if row[j]), None)
            if enter is None:
                redundant.append(i)
            else:
                # rhs here is exactly 0, so any nonzero pivot keeps feasibility
                self._pivot(i, enter)
        for i in reversed(redundant):
            del self.T[i], self.den[i], self.basis[i]
        for row in self.T:
            del row[self.art_start:self.n_cols]

    # --- outcome extraction ----------------------------------------------

    def _structural(self, col: int) -> tuple[list[tuple[int, int]], int]:
        """Column ``col`` at each row with a structural basic variable j,
        as (j, numerator) pairs over one denominator: the basic x-part of
        the solution for the rhs column, and minus the ray's basic
        entries for an entering column."""
        n = self.lp.n_vars
        rows = [(bi, row[col], den) for row, den, bi in zip(self.T, self.den, self.basis) if bi < n]
        common = lcm(*(den for _, _, den in rows))
        return [(j, v * (common // den)) for j, v, den in rows], common

    def _extract_optimal(self) -> Optimal:
        lp, sign = self.lp, self.sign
        basic, den = self._structural(-1)
        low, low_den = lp.int_lower
        x = [lo * den for lo in low]  # x_j = sign[j] * y_j + lower_j over den * low_den
        for j, v in basic:
            x[j] += sign[j] * v * low_den
        den *= low_den
        if not _holds(lp, x, den):
            raise InternalError("optimal point failed exact feasibility re-check")
        cost, cost_den = lp.int_objective
        return Optimal(rational_row(x, den), Q(sum(map(mul, cost, x)), cost_den * den))

    def _extract_ray(self, enter: int) -> Unbounded:
        lp, sign = self.lp, self.sign
        basic, den = self._structural(enter)
        r = [0] * lp.n_vars  # r_j = -sign[j] * y_j, with y_enter = -1
        for j, v in basic:
            r[j] = -sign[j] * v
        if enter < lp.n_vars:
            r[enter] = sign[enter] * den
        if not _is_ray(lp, r):
            raise InternalError("unbounded ray failed exact re-check")
        return Unbounded(rational_row(r, den))

    def _extract_infeasible(self) -> Infeasible:
        """Multipliers from the final phase-1 reduced costs d = obj /
        obj_den. For tableau row k with initial basis column c (slack or
        artificial), pi_k equals the phase-1 cost of c minus d_c; undoing
        the row flip gives the multiplier u_k of declared row k. A
        bounded column j has phase-1 cost 0 and is never negated, so
        d_j = -u^T A_j and its bound row's multiplier is z_j = -d_j. All
        are read off as numerators over obj_den."""
        obj, den = self.obj, self.obj_den
        y = []
        for c, s in zip(self.init_basis, self.sigma):
            pi = (-den if c >= self.art_start else 0) - obj[c]
            y.append(pi if s > 0 else -pi)
        y += [-obj[j] for j in _bounded(self.lp)]
        if not _is_farkas(self.lp, y):
            raise InternalError("Farkas certificate failed exact re-check")
        return Infeasible(rational_row(y, den))


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; outcome is deterministic for a fixed input.
    InputError on anything but a LinearProgram."""
    return _Simplex(ensure_program(lp)).run()
