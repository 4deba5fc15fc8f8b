"""Exception types and the immutable record base shared across the package."""

from __future__ import annotations


class Record:
    """Immutable value object whose fields are its ``__slots__``.

    A subclass lists its fields in ``__slots__`` in constructor order and
    sets them in its own ``__init__`` through ``object.__setattr__``.
    Records are equal only to records of the same type with equal fields,
    so two outcome kinds that carry the same vector never compare equal.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through setattr
        return type(self), self._fields()


class InputError(ValueError):
    """Malformed external input or a violated operation precondition."""


class GeometryError(RuntimeError):
    """Raised when a construction needs the origin inside the relative
    interior of a node's support and it is not there.

    Carries the offending node id and the separating certificate so
    callers can report or serialize it.
    """

    def __init__(self, node: int, certificate, message: str | None = None):
        self.node = node
        self.certificate = certificate
        super().__init__(
            message
            or f"origin outside the relative interior of the support at node {node}"
        )


class InternalError(RuntimeError):
    """An exact self-verification failed.

    Every solver outcome and every constructed witness is re-checked
    before being returned; this error firing means a bug, never bad
    input. The CLI maps it to the alarm exit code.
    """
