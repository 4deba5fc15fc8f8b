"""Exception types and the immutable record base shared across the package."""

from __future__ import annotations


class Record:
    """Immutable value object.

    The one constructor takes a value for each of ``__slots__``,
    positionally or by name; a subclass with checks or defaults ends its
    ``__init__`` with ``super().__init__(...)``. Records of one type
    compare, hash and pickle by their ``_fields``: all slots unless the
    subclass names fewer, from which its ``__init__`` derives the rest.
    Two outcome kinds that carry the same vector never compare equal."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a slot's descriptor sets it without going through __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for set_slot, value in zip(self._setters, args):
            set_slot(self, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """One value per slot from positional and keyword arguments."""
        names = self.__slots__
        rest = names[len(args):]
        if len(args) > len(names) or set(kwargs) != set(rest):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}; "
                            f"got {len(args)} positional and keywords {sorted(kwargs)}")
        return args + tuple(kwargs[name] for name in rest)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through setattr
        return type(self), self._values()


class InputError(ValueError):
    """Malformed external input or a violated operation precondition."""


class GeometryError(RuntimeError):
    """Raised when a construction needs the origin inside the relative
    interior of a node's support and it is not there.

    Carries the offending node id and the separating certificate so
    callers can report or serialize it.
    """

    def __init__(self, node: int, certificate):
        self.node = node
        self.certificate = certificate
        super().__init__(f"origin outside the relative interior of the support at node {node}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as for a Record
        return type(self), (self.node, self.certificate)


class InternalError(RuntimeError):
    """An exact self-verification failed.

    Every solver outcome and every constructed witness is re-checked
    before being returned; this error firing means a bug, never bad
    input. The CLI maps it to the alarm exit code.
    """
