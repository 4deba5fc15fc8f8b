"""Exact rational scalars and fixed-dimension vectors.

The scalar type is gmpy2's mpq when available (the optional ``fast``
extra), with fractions.Fraction as a drop-in fallback. The simplex
pivots on plain ints, so the scalar type does not set the cost of a
pivot. Both keep values canonical: lowest terms, positive denominator.
str() on either already yields the "p/q" wire format (denominator
omitted when 1), e.g. "3/4", "-2", "0".
"""

from __future__ import annotations

import re
import sys
from typing import Sequence, Tuple, Union

from .errors import InputError

try:
    from gmpy2 import mpq as Rational

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

    HAVE_GMPY2 = False

Q = Rational
Vector = Tuple[Rational, ...]
RationalLike = Union[Rational, int, str]

ZERO = Q(0)
ONE = Q(1)

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Rational:
    """Parse the strict "p/q" wire format. Non-canonical inputs like
    "2/4" are accepted and reduced; anything else is rejected, and so is
    a number longer than the interpreter's int-str digit limit."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError:  # past the regex, only the digit limit is left to fail
        limit = sys.get_int_max_str_digits()
        raise InputError(f"rational literal over the {limit}-digit limit") from None
    if q == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Q(p, q)


def format_rational(value: Rational) -> str:
    return str(value)


def as_rational(value: RationalLike) -> Rational:
    """Coerce to an exact rational. Floats are rejected: silently
    accepting them would smuggle binary rounding into exact checks."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, float):
        raise InputError(f"refusing inexact float {value!r}; pass int, str or Rational")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        return parse_rational(value)
    try:
        return Q(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot interpret {value!r} as a rational") from exc


def parse_vector(items: Sequence[str]) -> Vector:
    return tuple(parse_rational(s) for s in items)


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    if len(u) != len(v):
        raise InputError(f"dimension mismatch in dot product: {len(u)} vs {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def vec_sub(u: Sequence[Rational], v: Sequence[Rational]) -> Vector:
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def zero_vector(dim: int) -> Vector:
    return (ZERO,) * dim
