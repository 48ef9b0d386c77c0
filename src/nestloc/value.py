"""The immutable record base of specs, factors, partitions, surfaces and scenarios.

A record class names its fields in `_fields`, in the order its `__init__`
takes them, and stores them in `__slots__`.  Its own `__init__` checks its
inputs and passes them to `_init`, which sets the fields and computes the
hash once; a record that keeps derived values or hashes otherwise sets
them after it with `_set`.  From `_fields`, and `_compare` where equality and
the hash read fewer fields, `Value` gives what a frozen dataclass gives:
equality with an instance of the same class, the hash of the tuple of
compared fields, a `Name(field=value, ...)` repr, pickling by calling the
class on the fields again and an `AttributeError` on assignment.  Records
do not order.

Records do not use `dataclasses`: importing it loads `inspect`, `ast`,
`dis` and `tokenize`, and each decorated class execs generated source,
a cost every one-shot `nestloc` process would pay.
"""

from __future__ import annotations

import operator

#: sets a field of a record, whose own `__setattr__` refuses
_set = object.__setattr__


class Value:
    __slots__ = ("_hash",)
    #: the fields, in `__init__` order: repr and pickling read them all
    _fields: tuple[str, ...] = ()
    #: the fields equality and the hash read; None for all
    _compare: tuple[str, ...] | None = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        compared = cls._compare or cls._fields
        # one field reads as the bare value, which compares as its 1-tuple
        cls._key = staticmethod(operator.attrgetter(*compared))
        cls._one_field = len(compared) == 1
        # the slots set beside the fields, which pickling carries as state
        slots = (name for klass in cls.__mro__ for name in klass.__dict__.get("__slots__", ()))
        cls._state = tuple(name for name in slots if name not in (*cls._fields, "_hash"))

    def _init(self, *values) -> None:
        """Set the fields to `values`, in `_fields` order, and the hash."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        key = self._key(self)
        _set(self, "_hash", hash((key,) if self._one_field else key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        state = {name: getattr(self, name) for name in self._state if hasattr(self, name)}
        return type(self), tuple(getattr(self, name) for name in self._fields), state or None

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            _set(self, name, value)
