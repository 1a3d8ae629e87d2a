"""Small value classes without the `dataclasses` import.

`Record` derives `__eq__`, `__repr__` and pickling from the class's `_fields`
(dataclass style: equal only to the same class, `Name(a=1, b=2)` repr) and
is unhashable, like a mutable dataclass.  `FrozenRecord` adds a field-tuple
`__hash__` and refuses assignment, like `@dataclass(frozen=True)`; its
`__init__` sets the fields, in order, from its arguments.  Subclasses declare
`__slots__` (the fields plus any private caches) and an `__init__` that
validates its arguments before setting them.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    __slots__ = ()

    def __init__(self, *values):
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
