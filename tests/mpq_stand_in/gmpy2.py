"""A stand-in for gmpy2 with the members ``mpz`` and ``mpq``, for running
the suite on a scalar type other than ``fractions.Fraction``.

Put this directory on ``PYTHONPATH`` and ``arbcheck.rationals`` takes
``mpq`` as its ``Rational``, with ``HAVE_GMPY2`` true:

    PYTHONPATH=tests/mpq_stand_in:src python -m pytest -q

It models the parts of real gmpy2 that the package's integer reads and
its output boundary depend on:

* ``mpz`` is not an ``int``. It has ``__index__``, ``__int__``,
  integer arithmetic with ints and other mpz, comparisons, hashing and
  ``bit_length()``, so an ``int()`` left out around a numerator or a
  denominator shows as a failure rather than passing silently;
* ``mpq.numerator`` and ``mpq.denominator`` return ``mpz``;
* ``str()`` of either has no int-str digit limit, as gmpy2's does not.

``mpq`` subclasses ``Fraction`` so that the suite can run on it at all:
every arithmetic operation and comparison is done on plain Fraction
copies of the operands, and an arithmetic result is an ``mpq`` again, so
a plain ``Fraction`` is never a ``Rational`` on this path. A run shows
that the code does not depend on the scalar's type identity or on int
parts. It says nothing about real gmpy2 beyond that: not its speed,
not its mixed-type arithmetic (with floats, or an mpz with an mpq), and
not how ``mpq(str)`` parses, which here is ``Fraction``'s parser.
"""

from fractions import Fraction

_CHUNK_DIGITS = 500  # below the smallest nonzero int-str digit limit (640)
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n):
    """``str(n)`` for an int, without the int-str digit limit."""
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


class mpz:
    """An integer that is not an ``int``."""

    __slots__ = ("_value",)

    def __init__(self, value=0):
        self._value = int(value)

    def __int__(self):
        return self._value

    __index__ = __int__

    def bit_length(self):
        return self._value.bit_length()

    def __hash__(self):
        return hash(self._value)

    def __bool__(self):
        return bool(self._value)

    def __str__(self):
        return _decimal(self._value)

    def __repr__(self):
        return f"mpz({self})"


def _int_operand(x):
    if isinstance(x, mpz):
        return x._value
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    return None


def _mpz_method(name):
    op = getattr(int, name)
    returns_int = name not in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__")

    def method(self, *others):
        args = [_int_operand(x) for x in others]
        if None in args:
            return NotImplemented
        out = op(self._value, *args)
        if not returns_int or type(out) not in (int, tuple):
            return out  # a bool, NotImplemented, or a float from a negative power
        if isinstance(out, tuple):  # divmod
            return tuple(mpz(v) for v in out)
        return mpz(out)

    method.__name__ = name
    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__divmod__",
              "__rdivmod__", "__pow__", "__rpow__", "__lshift__", "__rshift__", "__neg__",
              "__pos__", "__abs__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
    setattr(mpz, _name, _mpz_method(_name))


def _plain(x):
    """A plain Fraction copy of an mpq, an int for an mpz, else ``x``."""
    if isinstance(x, mpq):
        out = object.__new__(Fraction)
        out._numerator, out._denominator = x._numerator, x._denominator
        return out
    if isinstance(x, mpz):
        return x._value
    return x


def _wrap(f):
    """The mpq with the value of the Fraction ``f``."""
    out = object.__new__(mpq)
    out._numerator, out._denominator = f._numerator, f._denominator
    return out


class mpq(Fraction):
    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        return _wrap(Fraction(_plain(numerator), _plain(denominator)))

    @property
    def numerator(self):
        return mpz(self._numerator)

    @property
    def denominator(self):
        return mpz(self._denominator)

    def __str__(self):
        if self._denominator == 1:
            return _decimal(self._numerator)
        return f"{_decimal(self._numerator)}/{_decimal(self._denominator)}"

    def __repr__(self):
        return f"mpq({_decimal(self._numerator)},{_decimal(self._denominator)})"

    def __reduce__(self):
        return type(self), (self._numerator, self._denominator)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def _mpq_method(name):
    op = getattr(Fraction, name)

    def method(*args):
        out = op(*[_plain(a) for a in args])
        return _wrap(out) if type(out) is Fraction else out

    method.__name__ = name
    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
              "__rmod__", "__pow__", "__rpow__", "__pos__", "__neg__", "__abs__", "__eq__",
              "__lt__", "__le__", "__gt__", "__ge__", "__hash__", "__bool__", "__trunc__",
              "__floor__", "__ceil__", "__round__", "__float__"):
    setattr(mpq, _name, _mpq_method(_name))
