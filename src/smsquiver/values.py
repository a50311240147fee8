"""Immutable value classes with `__slots__`.

A subclass lists its fields, in order, in `__slots__`.  It gets a
constructor taking them by position or keyword, equality only with
instances of its own class, the hash of its field tuple, `repr` as
`Name(field=value, ...)` and fields that cannot be assigned or deleted.
A subclass may define `__post_init__` to validate the fields once they are
set.  Nothing is generated when a subclass is defined, so it costs no more
to import than any other class.  Hot types write their own `__init__`,
`__eq__` and `__hash__` with the same meaning (see `SerialModule`).
"""

from __future__ import annotations

_set = object.__setattr__  # how __init__ writes a field past __setattr__


class Value:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if len(args) + len(kwargs) != len(fields) or (
            kwargs and not kwargs.keys() <= set(fields[len(args):])
        ):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name, value in kwargs.items():
            _set(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since fields are read-only
        return self.__class__, self._values()
