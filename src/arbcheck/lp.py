"""Exact linear programming over the rationals.

Problems are maximizations subject to rows ``A x <= b`` (equality rows
flagged) and per-variable bounds: each variable is either free or
bounded below. ``make_lp`` builds a program from the integer form the
routes write, int numerators over one positive int denominator for the
objective and for each row, so no Rational is made on the way in; each
bound is a Rational or None. The program keeps each row as its nonzero
``(column, numerator)`` pairs in column order over its denominator, in
lowest terms. The solver is a two-phase primal simplex with Bland's
anti-cycling rule and exact pivots, so it terminates on every input and
its certificates are bit-exact. Every variable has one
tableau column; a free one enters with either sign of reduced cost and,
once basic, never leaves. The tableau is filled from the integer rows,
with lower bounds shifted out in integers, and keeps each row as Python
ints over one positive row denominator (fraction-free pivoting: an
integer multiply-and-subtract by multipliers divided by their gcd, the
subtraction at the pivot row's nonzeros only, and one gcd per touched
row), so set-up and pivots never touch the rational scalar type. The
vector conversions (``int_row``, ``rational_row``) and the row
normalisation (``lowest_terms``) belong to ``rationals``; this
module owns the one pass over each sparse row, the tableau and its
elimination. Each outcome is read off the tableau as integer numerators
over one denominator and re-checked in integers; a Rational is made
only for each nonzero entry returned, and for an optimum's value, from
the objective's integer row. No pivot budget cuts a solve short: a
basis revisited between two moves of the objective, which Bland's rule
rules out, raises InternalError instead.

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

Each re-check is a private integer core that reads only the program
and the numerators ``solve_lp`` read off the tableau: it compares
integer sums over the rows' nonzeros, so no Rational is made to check
an outcome. The tests hold the cores to dense rational references.

A failed re-verification raises InternalError; it signals a solver bug,
never bad input.
"""

from __future__ import annotations

from collections import abc
from math import gcd, lcm
from operator import mul
from typing import Mapping, Optional, Sequence, Union

from .errors import InputError, InternalError, Record
from .rationals import Q, Rational, Vector, int_row, lowest_terms, rational_row


class LinearProgram(Record):
    """maximize objective . x  s.t.  rows[i] . x (<= or ==) rhs[i],
    x_j >= lower[j] where lower[j] is not None, held in integer form.
    The constructor takes its four fields: ``int_objective``, one int
    numerator per variable over one den, as (numerators, den);
    ``int_rows``, row i as ((column, numerator) pairs, rhs numerator,
    den), int columns rising inside 0..n_vars-1 with nonzero int
    numerators; ``equalities``, one bool per row; and ``lower``, one
    Rational or None per variable. Each den is an int > 0. Anything
    else raises InputError. It puts the objective and each row in
    lowest terms, so programs of the same numbers compare, hash, print
    and pickle alike, and derives ``int_lower``, the bound numerators
    (0 where free) over their common denominator."""

    __slots__ = ("int_objective", "int_rows", "equalities", "lower", "int_lower")
    _fields = ("int_objective", "int_rows", "equalities", "lower")

    int_objective: tuple[tuple[int, ...], int]
    int_rows: tuple[tuple[tuple[tuple[int, int], ...], int, int], ...]
    equalities: tuple[bool, ...]
    lower: tuple[Optional[Rational], ...]
    int_lower: tuple[tuple[int, ...], int]

    def __init__(self, int_objective, int_rows, equalities, lower) -> None:
        try:
            nums, den = int_objective
            n, m, n_flags, n_bounds = len(nums), len(int_rows), len(equalities), len(lower)
        except (TypeError, ValueError):
            raise InputError("a program takes (numerators, den) and sequences of rows, "
                             "equality flags and bounds") from None
        if n_flags != m:
            raise InputError(f"{n_flags} equality flags for {m} rows")
        if n_bounds != n:
            raise InputError(f"{n_bounds} bounds for {n} variables")
        super().__init__(_objective(nums, den),
                         tuple([_row(i, row, eq, n)
                                for i, (row, eq) in enumerate(zip(int_rows, equalities))]),
                         tuple(equalities), tuple(lower), _int_lower(lower))

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


def _check_den(what: str, den) -> None:
    if type(den) is not int or den <= 0:
        raise InputError(f"{what} has denominator {den!r}, not an int > 0")


def _objective(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The objective's numerators over ``den``, checked and in lowest terms."""
    _check_den("the objective", den)
    for a in nums:
        if type(a) is not int:
            raise InputError(f"the objective holds {a!r}, not an int numerator")
    g = gcd(den, *nums)
    return (tuple([a // g for a in nums]), den // g) if g > 1 else (tuple(nums), den)


def _int_lower(lower: Sequence[Optional[Rational]]) -> tuple[tuple[int, ...], int]:
    """``int_row`` of the bounds, 0 where free, reading no ZERO."""
    try:
        nums, den = int_row([lo for lo in lower if lo is not None])
    except InputError as exc:
        raise InputError(f"the bounds: {exc}") from None
    bounded = iter(nums)
    return tuple([0 if lo is None else next(bounded) for lo in lower]), den


def _row(i: int, row, eq, n: int):
    """Row ``i`` of an ``n``-variable program, ((column, numerator)
    pairs, rhs numerator, den), checked in one pass over its pairs and
    divided by the gcd of its numerators and den."""
    try:
        pairs, b, den = row
        pairs = tuple(pairs)
    except (TypeError, ValueError):
        raise InputError(f"row {i} is {row!r}, not a ((column, numerator) pairs, rhs, den) "
                         "triple") from None
    if type(eq) is not bool:
        raise InputError(f"equality flag {i} is {eq!r}, not a bool")
    _check_den(f"row {i}", den)
    if type(b) is not int:
        raise InputError(f"right-hand side {i} holds {b!r}, not an int numerator")
    g, last = gcd(b, den), -1
    for pair in pairs:
        if type(pair) is not tuple or len(pair) != 2:
            raise InputError(f"row {i} holds {pair!r}, not a (column, numerator) pair")
        j, a = pair
        if type(j) is not int or not last < j < n or type(a) is not int or not a:
            raise _bad_entry(f"row {i}", j, a, last, n)
        last = j
        if g > 1:
            g = gcd(g, a)
    if g > 1:
        return tuple([(j, a // g) for j, a in pairs]), b // g, den // g
    return pairs, b, den


def _bad_entry(where: str, j, a, last: int, n: int) -> InputError:
    """The InputError for the entry ``a`` in column ``j`` of a row
    whose previous column is ``last``."""
    if type(j) is not int:
        return InputError(f"{where} has column {j!r}, not an int")
    if not 0 <= j < n:
        return InputError(f"{where} has column {j}: outside 0..{n - 1}")
    if j <= last:
        return InputError(f"{where} has column {j} after column {last}: not rising")
    if type(a) is not int:
        return InputError(f"{where} holds {a!r}, not an int numerator")
    return InputError(f"{where} has a zero coefficient in column {j}")


def _pairs(coeffs: Mapping[int, int], where: str) -> list[tuple[int, int]]:
    """The nonzero (column, numerator) items of a map, by column, for
    the program to check. A zero entry reaches no program, so its column
    and numerator are checked here."""
    try:
        items = coeffs.items()
    except AttributeError:
        raise InputError(f"{where} is {coeffs!r}, not a {{column: numerator}} map") from None
    pairs = [item for item in items if item[1]]
    if len(pairs) < len(coeffs):
        for j, a in items:
            if not a and type(a) is not int:
                raise InputError(f"{where} holds {a!r}, not an int numerator")
            if not a and type(j) is not int:
                raise InputError(f"{where} has column {j!r}, not an int")
    try:
        pairs.sort()
    except TypeError:
        bad = next(j for j, _ in pairs if type(j) is not int)
        raise InputError(f"{where} has column {bad!r}, not an int") from None
    return pairs


def make_lp(n_vars: int, objective: tuple[Mapping[int, int], int],
            rows: Sequence[tuple[Mapping[int, int], int, bool, int]],
            lower: Optional[Sequence[Optional[Rational]]] = None) -> LinearProgram:
    """Build a LinearProgram from sparse integer rows: the objective as
    ({column: numerator}, den), each row as ({column: numerator}, rhs
    numerator, is_equality, den), int numerators over an int den > 0,
    and ``lower``, when given, as one Rational or None per variable. An
    absent column or a zero entry is zero. Any other count, column,
    numerator or shape (a Rational map, a row without its den) raises
    InputError."""
    if type(n_vars) is not int or n_vars < 0:
        raise InputError(f"variable count {n_vars!r} is not an int >= 0")
    if not isinstance(rows, abc.Sequence):
        raise InputError(f"rows {rows!r} are not a sequence of integer rows")
    if not (lower is None or isinstance(lower, abc.Sequence)):
        raise InputError(f"bounds {lower!r} are not a sequence")
    if type(objective) is not tuple or len(objective) != 2:
        raise InputError(f"the objective is {objective!r}, not a ({{column: numerator}}, den) "
                         "pair")
    coeffs, den = objective
    nums = [0] * n_vars
    for j, a in _pairs(coeffs, "the objective"):
        if type(j) is not int or not 0 <= j < n_vars:
            raise _bad_entry("the objective", j, a, -1, n_vars)
        nums[j] = a
    int_rows, eqs = [], []
    for i, row in enumerate(rows):
        try:
            coeffs, b, eq, row_den = row
        except (TypeError, ValueError):
            raise InputError(f"row {i} is {row!r}, not a ({{column: numerator}}, rhs, "
                             "is_equality, den) row") from None
        int_rows.append((_pairs(coeffs, f"row {i}"), b, row_den))
        eqs.append(eq)
    return LinearProgram((nums, den), int_rows, eqs, [None] * n_vars if lower is None else lower)


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


def _eliminate(row: list[int], den: int, nz: Sequence[tuple[int, int]], p: int, col: int):
    """Subtract the multiple of the pivot row over ``p`` (pivot ``p > 0``
    in column ``col``) that clears ``row / den`` in that column; returns
    the new (numerators, denominator) reduced to lowest terms. ``nz``
    lists the pivot row's nonzero (column, entry) pairs, so the
    subtraction runs over those slots only: ``row`` is first scaled by
    its reduced multiplier, or copied when that is 1."""
    f = row[col]
    g = gcd(f, p)  # the same new row, from smaller multipliers
    if g > 1:
        f //= g
        p //= g
    if p == 1:
        new = row[:]
    else:
        new = [a * p for a in row]
        den *= p
    for j, b in nz:
        new[j] -= f * b
    g = gcd(*new, den)
    if g > 1:
        new = [a // g for a in new]
        den //= g
    return new, den


def _nonzeros(row: list[int]) -> list[tuple[int, int]]:
    """The (column, entry) pairs of ``row``'s nonzero slots, rhs included."""
    return [(j, a) for j, a in enumerate(row) if a]


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
    multiply-and-subtract plus one gcd per touched row. The reduced-cost
    row ``obj / obj_den`` has the same form; ``_price`` sets it before
    each phase."""

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
                self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, _nonzeros(row),
                                                    den, bi)

    def _pivot(self, i: int, enter: int) -> None:
        """Make ``enter`` basic in row ``i``: that row is put in lowest
        terms with a positive pivot, its nonzero slots are listed once,
        and every other row with a nonzero in ``enter``, and the
        reduced-cost row, is cleared there by ``_eliminate``."""
        T, den = self.T, self.den
        prow = T[i] = lowest_terms(T[i], enter)
        p = den[i] = prow[enter]
        nz = _nonzeros(prow)
        for r in range(len(T)):
            if r != i and T[r][enter]:
                T[r], den[r] = _eliminate(T[r], den[r], nz, p, enter)
        if self.obj[enter]:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, nz, p, enter)
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
