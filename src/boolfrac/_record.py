"""Frozen value records without `dataclasses`, whose import (with
`inspect`) would be most of boolfrac's import time.

A record class lists its fields in `_fields` (and in `__slots__` when
every field is a plain attribute). `Record.__init__` stores their
values, given by position or by name, with no defaults: too many values
or a field missing, given twice or unknown is a TypeError. A class that
does more writes its own `__init__` and sets each field with `_set`.
repr, == and hash are those of a frozen dataclass: == compares the field
tuples of two instances of one class and returns NotImplemented for
anything else. Assigning or deleting an attribute raises AttributeError.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            values = self._bound(values, named)
        for name, value in zip(fields, values):
            _set(self, name, value)

    def _bound(self, values, named):
        """The field values given by position, then by name, in field order."""
        fields, rest = self._fields, self._fields[len(values):]
        if len(values) > len(fields) or named.keys() ^ set(rest):
            raise TypeError("%s() takes the fields %r, each once, by position or by name"
                            % (type(self).__qualname__, fields))
        return values + tuple([named[name] for name in rest])

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
