"""Plain records: equality, hash and repr over the fields in ``__slots__``.

A record class lists its fields in ``__slots__``, in the order of its
``__init__`` parameters, and writes that ``__init__`` by hand; it stores
the fields with one ``_set`` call, in the same order.  (A subclass that
declared ``__slots__`` of its own would hide that list.)  Nothing is
generated at import, so the package's value types cost no more to define
than any other class.
"""


class Record:
    """Mutable record, equal to a record of its own class with equal
    fields; unhashable, as a class that defines __eq__ and no __hash__ is."""

    __slots__ = ()

    def _set(self, *values):
        for k, v in zip(self.__slots__, values):
            object.__setattr__(self, k, v)

    def _values(self):
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """Immutable, hashable record: assignment after ``__init__`` raises
    AttributeError."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
