"""Exact rational scalars and fixed-dimension vectors.

The scalar type is gmpy2's mpq when available (the optional ``fast``
extra), with fractions.Fraction as a drop-in fallback. The simplex
pivots on plain ints, so the scalar type does not set the cost of a
pivot. Both keep values canonical: lowest terms, positive denominator.
str() on either yields the "p/q" wire format (denominator omitted when
1), e.g. "3/4", "-2", "0"; parse_rational and format_rational hold
both backends to the interpreter's int-str digit limit.

This module owns the integer-row form that the LP core, the span
kernel and the geometry re-check work in: ``int_row`` turns a vector
of Rationals into Python-int numerators over one denominator,
``rational_row`` turns such a row back, and ``lowest_terms`` scales a
row so that a pivot entry is positive and the gcd is 1.
"""

from __future__ import annotations

import re
import sys
from collections import abc
from math import gcd, lcm
from typing import Sequence, Tuple

from .errors import InputError

try:
    from gmpy2 import mpq as Rational

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

    HAVE_GMPY2 = False

Q = Rational
Vector = Tuple[Rational, ...]

ZERO = Q(0)
ONE = Q(1)

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
# no digit limit other than 0 (none) can be set below this
_SHORTEST_LIMIT = sys.int_info.str_digits_check_threshold


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
    """The "p/q" wire format of a Rational; InputError on anything else,
    an int or a float included. A numerator or denominator longer than
    the int-str digit limit, which parse_rational would refuse to read
    back, is an InputError on either backend (mpq's str() has no
    limit)."""
    if not isinstance(value, Rational):
        raise InputError(f"{value!r} is not a Rational")
    try:
        text = str(value)
    except ValueError:  # Fraction: int.__str__ past the limit
        text = None
    if text is None or len(text) > _SHORTEST_LIMIT:
        limit = sys.get_int_max_str_digits()
        if text is None or (limit and max(map(len, text.lstrip("-").split("/"))) > limit):
            raise InputError(f"rational result over the {limit}-digit limit")
    return text


def is_exact_vector(vector: Sequence[Rational], length: int) -> bool:
    """``vector`` is a sequence of ``length`` Rationals, so an exact
    re-check never compares a float or a string."""
    if not (isinstance(vector, abc.Sequence) and len(vector) == length):
        return False
    for v in vector:  # faster than all() over a generator on short vectors
        if not isinstance(v, Rational):
            return False
    return True


def int_row(values: Sequence[Rational]) -> tuple[tuple[int, ...], int]:
    """Numerators of ``values`` over the lcm of their denominators, as
    Python ints (``int()`` also converts mpq's mpz parts); InputError on
    an entry that is not a Rational, an int included."""
    nums, dens = [], []
    for v in values:
        if not isinstance(v, Rational):
            raise InputError(f"entry {v!r} is not a Rational")
        nums.append(int(v.numerator))
        dens.append(int(v.denominator))
    den = lcm(*dens)
    return tuple([p * (den // q) for p, q in zip(nums, dens)]), den


def rational_row(nums: Sequence[int], den: int) -> Vector:
    """``nums / den`` entry by entry, ZERO where a numerator is 0."""
    return tuple([Q(p, den) if p else ZERO for p in nums])


def lowest_terms(row: Sequence[int], col: int) -> Sequence[int]:
    """``row`` scaled so that its entry in ``col``, which must be
    nonzero, is positive and its entries have gcd 1: a new list, or
    ``row`` itself when it already is."""
    g = gcd(*row) if row[col] > 0 else -gcd(*row)
    return row if g == 1 else [a // g for a in row]
