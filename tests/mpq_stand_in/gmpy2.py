"""A stand-in for gmpy2 whose only member is ``mpq``, for running the
suite on a scalar type other than ``fractions.Fraction``.

Put this directory on ``PYTHONPATH`` and ``arbcheck.rationals`` takes
``mpq`` as its ``Rational``, with ``HAVE_GMPY2`` true:

    PYTHONPATH=tests/mpq_stand_in:src python -m pytest -q

``mpq`` subclasses ``Fraction`` and every arithmetic operation returns
an ``mpq`` again, so a plain ``Fraction`` is never a ``Rational`` on
this path. A run shows that the code does not depend on the scalar's
type identity. It says nothing about real gmpy2: its mpz numerators
and denominators, its str() without a digit limit, or its speed.
"""

from fractions import Fraction


class mpq(Fraction):
    __slots__ = ()


def _closed(name):
    op = getattr(Fraction, name)

    def method(*args):
        out = op(*args)
        return mpq(out) if type(out) is Fraction else out

    method.__name__ = name
    return method


for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
              "__pos__", "__neg__", "__abs__"):
    setattr(mpq, _name, _closed(_name))
