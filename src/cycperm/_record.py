"""Record classes with hand-written methods. Generating them at import time
would cost each command milliseconds before any work: the standard library's
generator imports ``inspect`` and executes the code it writes for each class.
"""

#: Sets a field of a frozen record; called only from the record's __init__.
set_field = object.__setattr__


class Record:
    """Shown as ``Name(field=value, ...)`` over ``_fields``; equal to a
    record of the same class whose fields are equal; unhashable unless frozen."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"


class FrozenRecord(Record):
    """A record whose fields are its ``__slots__``, set once by ``set_field``.
    It hashes as the tuple of its fields; assigning or deleting raises
    AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # pickle and copy rebuild through __init__, not setattr
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
