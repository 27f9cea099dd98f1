"""Frozen value records without `dataclasses`, whose import (with
`inspect`) would be most of boolfrac's import time.

A record class lists its fields in `_fields` (and in `__slots__` when
every field is a plain attribute) and sets each in its own `__init__`
with `_set`. repr, == and hash are those of a frozen dataclass: ==
compares the field tuples of two instances of one class and returns
NotImplemented for anything else. Assigning or deleting an attribute
raises AttributeError.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), self._values()
