"""Exact linear programming over the rationals.

Problems are maximizations subject to rows ``A x <= b`` (equality rows
flagged) and per-variable bounds: each variable is either free or
bounded below. The solver is a two-phase primal simplex with Bland's
anti-cycling rule and exact pivots, so it terminates on every input and
its certificates are bit-exact. Its tableau keeps each row as Python
ints over one positive row denominator (fraction-free pivoting: an
integer multiply-and-subtract and one gcd per touched row), so pivots
never touch the rational scalar type; values become rationals again
only when an outcome is read off.

Every outcome is re-verified before it leaves ``solve_lp``:

* an Optimal point is substituted into every row and bound;
* an Unbounded ray is checked to be a feasible direction with strictly
  positive objective growth;
* an Infeasible certificate is a Farkas vector over the *extended* row
  system of ``farkas_row_system`` -- the declared rows followed by one
  materialized row ``-x_j <= -lower_j`` per bounded variable. Over that
  system the certificate y satisfies y >= 0 on inequality rows,
  y^T A = 0 componentwise and y^T b < 0, which is a self-contained
  proof of infeasibility.

A failed re-verification raises InternalError; it signals a solver bug,
never bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence, Union

from .errors import InputError, InternalError
from .rationals import ONE, ZERO, Q, Rational, RationalLike, Vector, as_rational, dot


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  s.t.  rows[i] . x (<= or ==) rhs[i],
    x_j >= lower[j] where lower[j] is not None."""

    objective: Vector
    rows: tuple[Vector, ...]
    rhs: Vector
    equalities: tuple[bool, ...]
    lower: tuple[Optional[Rational], ...]

    def __post_init__(self) -> None:
        n, m = len(self.objective), len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise InputError(f"row {i} has {len(row)} coefficients, expected {n}")
        if len(self.rhs) != m:
            raise InputError(f"{len(self.rhs)} right-hand sides for {m} rows")
        if len(self.equalities) != m:
            raise InputError(f"{len(self.equalities)} equality flags for {m} rows")
        if len(self.lower) != n:
            raise InputError(f"{len(self.lower)} bounds for {n} variables")

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def make_lp(
    objective: Sequence[RationalLike],
    rows: Sequence[Sequence[RationalLike]],
    rhs: Sequence[RationalLike],
    equalities: Optional[Sequence[bool]] = None,
    lower: Optional[Sequence[Optional[RationalLike]]] = None,
) -> LinearProgram:
    """Coerce raw data into a LinearProgram, which checks its shape."""
    obj = tuple(as_rational(c) for c in objective)
    mat = tuple(tuple(as_rational(a) for a in row) for row in rows)
    b = tuple(as_rational(v) for v in rhs)
    if equalities is None:
        eq = (False,) * len(mat)
    else:
        eq = tuple(bool(e) for e in equalities)
    if lower is None:
        lo: tuple[Optional[Rational], ...] = (None,) * len(obj)
    else:
        lo = tuple(None if v is None else as_rational(v) for v in lower)
    return LinearProgram(obj, mat, b, eq, lo)


@dataclass(frozen=True)
class Optimal:
    point: Vector
    value: Rational


@dataclass(frozen=True)
class Infeasible:
    certificate: Vector  # multipliers over farkas_row_system(lp)


@dataclass(frozen=True)
class Unbounded:
    ray: Vector


LpOutcome = Union[Optimal, Infeasible, Unbounded]


def farkas_row_system(lp: LinearProgram):
    """The row system Farkas certificates refer to: the declared rows,
    then one row -x_j <= -lower_j per bounded variable in increasing j.

    Returns (rows, rhs, equalities).
    """
    rows = list(lp.rows)
    rhs = list(lp.rhs)
    eqs = list(lp.equalities)
    n = lp.n_vars
    for j, lo in enumerate(lp.lower):
        if lo is None:
            continue
        row = [ZERO] * n
        row[j] = Q(-1)
        rows.append(tuple(row))
        rhs.append(-lo)
        eqs.append(False)
    return tuple(rows), tuple(rhs), tuple(eqs)


def check_feasible(lp: LinearProgram, point: Sequence[Rational]) -> bool:
    if len(point) != lp.n_vars:
        return False
    for j, lo in enumerate(lp.lower):
        if lo is not None and point[j] < lo:
            return False
    for row, b, eq in zip(lp.rows, lp.rhs, lp.equalities):
        lhs = dot(row, point)
        if eq:
            if lhs != b:
                return False
        elif lhs > b:
            return False
    return True


def check_ray(lp: LinearProgram, ray: Sequence[Rational]) -> bool:
    """Feasible recession direction with strictly positive objective growth."""
    if len(ray) != lp.n_vars:
        return False
    if all(not c for c in ray):
        return False
    for j, lo in enumerate(lp.lower):
        if lo is not None and ray[j] < 0:
            return False
    for row, eq in zip(lp.rows, lp.equalities):
        lhs = dot(row, ray)
        if eq:
            if lhs != 0:
                return False
        elif lhs > 0:
            return False
    return dot(lp.objective, ray) > 0


def check_farkas(lp: LinearProgram, certificate: Sequence[Rational]) -> bool:
    rows, rhs, eqs = farkas_row_system(lp)
    if len(certificate) != len(rows):
        return False
    for y, eq in zip(certificate, eqs):
        if not eq and y < 0:
            return False
    n = lp.n_vars
    for j in range(n):
        if sum((y * row[j] for y, row in zip(certificate, rows)), ZERO) != 0:
            return False
    return dot(certificate, rhs) < 0


def _int_row(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Numerators of ``values`` over the lcm of their denominators."""
    den = lcm(*(int(v.denominator) for v in values if v))
    return [int(v.numerator) * (den // int(v.denominator)) if v else 0 for v in values], den


def _eliminate(row: list[int], den: int, prow: list[int], p: int, col: int):
    """Subtract the multiple of ``prow / p`` (pivot ``p > 0`` in column
    ``col``) that clears ``row / den`` in that column; returns the new
    (numerators, denominator) reduced to lowest terms."""
    f = row[col]
    new = [a * p - f * b for a, b in zip(row, prow)]
    den *= p
    g = gcd(*new, den)
    if g > 1:
        new = [a // g for a in new]
        den //= g
    return new, den


class _Simplex:
    """Dense exact tableau of integer rows. Columns: structural (one per
    free-variable half or shifted bounded variable), then one slack per
    inequality row, then artificials; each row also carries its
    right-hand side in the last slot. Row i stands for ``T[i] / den[i]``:
    Python ints over one positive denominator, kept in lowest terms, so
    a pivot is integer multiply-and-subtract plus one gcd per touched
    row. The reduced-cost row ``obj / obj_den`` has the same form."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n, m = lp.n_vars, lp.n_rows

        # x_j = y[plus_col] - y[minus_col] + shift   (minus_col None when bounded)
        self.plus_col: list[int] = []
        self.minus_col: list[Optional[int]] = []
        self.shift: list[Rational] = []
        ncols = 0
        for j in range(n):
            lo = lp.lower[j]
            self.plus_col.append(ncols)
            ncols += 1
            if lo is None:
                self.minus_col.append(ncols)
                ncols += 1
                self.shift.append(ZERO)
            else:
                self.minus_col.append(None)
                self.shift.append(lo)
        self.n_struct = ncols

        shifted = [(j, lo) for j, lo in enumerate(self.shift) if lo]
        rhs = [b - sum((row[j] * lo for j, lo in shifted if row[j]), ZERO)
               for row, b in zip(lp.rows, lp.rhs)]

        self.slack_col: list[Optional[int]] = [None] * m
        for k in range(m):
            if not lp.equalities[k]:
                self.slack_col[k] = ncols
                ncols += 1

        # flip rows with negative transformed rhs so phase 1 starts basic-feasible
        self.sigma: list[int] = []
        for k in range(m):
            self.sigma.append(-1 if rhs[k] < 0 else 1)

        self.art_col: list[Optional[int]] = [None] * m
        for k in range(m):
            if self.slack_col[k] is None or self.sigma[k] < 0:
                self.art_col[k] = ncols
                ncols += 1
        self.n_cols = ncols
        self.n_art = sum(1 for c in self.art_col if c is not None)

        self.T: list[list[int]] = []
        self.den: list[int] = []
        self.basis: list[int] = []
        self.active: list[bool] = [True] * m
        for k in range(m):
            nums, den = _int_row((*lp.rows[k], rhs[k]))
            s = self.sigma[k]
            full = [0] * (ncols + 1)
            for j, a in enumerate(nums[:-1]):
                if a:
                    full[self.plus_col[j]] = s * a
                    mc = self.minus_col[j]
                    if mc is not None:
                        full[mc] = -s * a
            full[-1] = s * nums[-1]
            sc = self.slack_col[k]
            if sc is not None:
                full[sc] = s * den
            ac = self.art_col[k]
            if ac is not None:
                full[ac] = den
            self.T.append(full)
            self.den.append(den)
            self.basis.append(ac if ac is not None else sc)  # type: ignore[arg-type]
        self.init_basis = list(self.basis)
        self.art_start = ncols - self.n_art if self.n_art else ncols
        self.obj: list[int] = [0] * (ncols + 1)
        self.obj_den = 1
        # generous cap; Bland's rule guarantees no cycling long before this
        self.max_pivots = 2000 + 50 * (m + 1) * (ncols + 1)
        self.pivots = 0

    # --- pivoting -------------------------------------------------------

    def _price(self, cost: list[int], cost_den: int) -> None:
        """Set the reduced-cost row to cost - c_B B^-1 A for the current
        basis by clearing each basic column in turn."""
        self.obj, self.obj_den = cost, cost_den
        for i, bi in enumerate(self.basis):
            if self.active[i] and self.obj[bi]:
                self.obj, self.obj_den = _eliminate(
                    self.obj, self.obj_den, self.T[i], self.den[i], bi)

    def _pivot(self, i: int, enter: int) -> None:
        T, den = self.T, self.den
        prow = T[i]
        p = prow[enter]
        if p < 0:
            prow = [-a for a in prow]
            p = -p
        g = gcd(*prow)
        if g > 1:
            prow = [a // g for a in prow]
            p //= g
        T[i] = prow
        den[i] = p
        for r in range(len(T)):
            if r != i and self.active[r] and T[r][enter]:
                T[r], den[r] = _eliminate(T[r], den[r], prow, p, enter)
        if self.obj[enter]:
            self.obj, self.obj_den = _eliminate(self.obj, self.obj_den, prow, p, enter)
        self.basis[i] = enter
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise InternalError("pivot budget exhausted; anti-cycling rule violated")

    def _optimize(self, ncols: int):
        """Bland's rule over the first ``ncols`` columns: entering =
        smallest column with positive reduced cost; leaving = smallest
        ratio rhs/a over a > 0 (row denominators cancel, so ratios are
        compared by cross-multiplying), ties by smallest basis column.
        Returns ('optimal', None) or ('unbounded', enter)."""
        T = self.T
        while True:
            obj = self.obj
            enter = next((j for j in range(ncols) if obj[j] > 0), -1)
            if enter < 0:
                return "optimal", None
            leave = -1
            best_b = best_a = 0
            for i, row in enumerate(T):
                a = row[enter]
                if a > 0 and self.active[i]:
                    b = row[-1]
                    if leave < 0 or b * best_a < best_b * a or (
                        b * best_a == best_b * a and self.basis[i] < self.basis[leave]
                    ):
                        best_b, best_a = b, a
                        leave = i
            if leave < 0:
                return "unbounded", enter
            self._pivot(leave, enter)

    # --- phases ---------------------------------------------------------

    def run(self) -> LpOutcome:
        lp = self.lp
        m = lp.n_rows

        if self.n_art:
            cost = [0] * (self.n_cols + 1)
            for c in self.art_col:
                if c is not None:
                    cost[c] = -1
            self._price(cost, 1)
            status, _ = self._optimize(self.n_cols)
            if status != "optimal":
                raise InternalError("phase 1 cannot be unbounded")
            if any(self.T[i][-1] for i in range(m) if self.basis[i] >= self.art_start):
                return self._extract_infeasible()
            self._expel_artificials()
            # artificials never re-enter, so their columns are dropped
            for row in self.T:
                del row[self.art_start:self.n_cols]

        cost_q = [ZERO] * (self.art_start + 1)
        for j, c in enumerate(lp.objective):
            if c:
                cost_q[self.plus_col[j]] = c
                mc = self.minus_col[j]
                if mc is not None:
                    cost_q[mc] = -c
        self._price(*_int_row(cost_q))
        status, enter = self._optimize(self.art_start)
        if status == "unbounded":
            return self._extract_ray(enter)  # type: ignore[arg-type]
        return self._extract_optimal()

    def _expel_artificials(self) -> None:
        """After a zero-value phase 1, pivot artificials out of the basis;
        rows where no structural or slack coefficient remains are
        redundant and dropped."""
        # phase-1 costs are spent; phase 2 prices its costs after these pivots
        self.obj = [0] * (self.n_cols + 1)
        for i in range(len(self.T)):
            if not self.active[i] or self.basis[i] < self.art_start:
                continue
            row = self.T[i]
            enter = next((j for j in range(self.art_start) if row[j]), None)
            if enter is None:
                self.active[i] = False
                continue
            # rhs here is exactly 0, so any nonzero pivot keeps feasibility
            self._pivot(i, enter)

    # --- outcome extraction ----------------------------------------------

    def _extract_optimal(self) -> Optimal:
        y = [ZERO] * self.n_cols
        for i, bi in enumerate(self.basis):
            if self.active[i]:
                y[bi] = Q(self.T[i][-1], self.den[i])
        point = []
        for j in range(self.lp.n_vars):
            v = y[self.plus_col[j]]
            mc = self.minus_col[j]
            if mc is not None:
                v = v - y[mc]
            point.append(v + self.shift[j])
        x = tuple(point)
        if not check_feasible(self.lp, x):
            raise InternalError("optimal point failed exact feasibility re-check")
        return Optimal(x, dot(self.lp.objective, x))

    def _extract_ray(self, enter: int) -> Unbounded:
        y = [ZERO] * self.n_cols
        y[enter] = ONE
        for i, bi in enumerate(self.basis):
            if self.active[i]:
                y[bi] = Q(-self.T[i][enter], self.den[i])
        ray = []
        for j in range(self.lp.n_vars):
            v = y[self.plus_col[j]]
            mc = self.minus_col[j]
            if mc is not None:
                v = v - y[mc]
            ray.append(v)
        r = tuple(ray)
        if not check_ray(self.lp, r):
            raise InternalError("unbounded ray failed exact re-check")
        return Unbounded(r)

    def _extract_infeasible(self) -> Infeasible:
        """Multipliers from the phase-1 duals. For tableau row i with
        initial basis column c (slack or artificial), pi_i equals the
        phase-1 cost of c minus its final reduced cost; undoing the row
        flips gives multipliers u for the declared rows, and
        z_j = u^T A_j >= 0 closes each bound row."""
        lp = self.lp
        cert: list[Rational] = []
        u: list[Rational] = []
        for k in range(lp.n_rows):
            c = self.init_basis[k]
            c1 = Q(-1) if c >= self.art_start else ZERO
            pi = c1 - Q(self.obj[c], self.obj_den)
            u.append(pi if self.sigma[k] > 0 else -pi)
        cert.extend(u)
        for j in range(lp.n_vars):
            if lp.lower[j] is None:
                continue
            zj = sum((u[k] * lp.rows[k][j] for k in range(lp.n_rows)), ZERO)
            cert.append(zj)
        certificate = tuple(cert)
        if not check_farkas(lp, certificate):
            raise InternalError("Farkas certificate failed exact re-check")
        return Infeasible(certificate)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; outcome is deterministic for a fixed input."""
    return _Simplex(lp).run()
