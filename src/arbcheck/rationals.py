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
from typing import Iterable, Optional, Sequence, Tuple, Union

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
    "2/4" are accepted and reduced; anything else is rejected."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"not a rational literal: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise InputError(f"zero denominator: {text!r}")
        return Q(int(num), int(den))
    return Q(int(text))


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


def rational_vector(values: Iterable[RationalLike]) -> Vector:
    return tuple(as_rational(v) for v in values)


def parse_vector(items: Sequence[str], dim: Optional[int] = None) -> Vector:
    vec = tuple(parse_rational(s) for s in items)
    if dim is not None and len(vec) != dim:
        raise InputError(f"expected vector of dimension {dim}, got {len(vec)}")
    return vec


def format_vector(vec: Sequence[Rational]) -> list:
    return [str(v) for v in vec]


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    if len(u) != len(v):
        raise InputError(f"dimension mismatch in dot product: {len(u)} vs {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def vec_add(u: Sequence[Rational], v: Sequence[Rational]) -> Vector:
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Rational], v: Sequence[Rational]) -> Vector:
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Rational, u: Sequence[Rational]) -> Vector:
    return tuple(c * a for a in u)


def zero_vector(dim: int) -> Vector:
    return (ZERO,) * dim


def is_zero_vector(u: Sequence[Rational]) -> bool:
    return all(not a for a in u)
