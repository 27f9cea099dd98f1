"""Finite sample spaces and their events.

A sample space is an ordered tuple of named atoms (at most 64). An event
is a subset of those atoms, stored as a bitmask: atom ``i`` in declaration
order corresponds to bit ``1 << i``. Meet, join, complement and the
subset order are plain bit arithmetic, so events over the same space form
a Boolean algebra.
"""

import re

from .errors import SpaceMismatch, TooLarge, UnknownAtom

# Characters that can never appear in an atom name. Everything else that
# is printable and non-whitespace is allowed, including digits.
RESERVED_CHARS = frozenset("{},|()~#=")

MAX_ATOMS = 64
MAX_ENUMERATION_ATOMS = 16


# A name is one or more characters, none reserved and none whitespace
# (`\s` in a str pattern is exactly str.isspace). _BAD_CHAR finds a
# character that no name may hold.
_NAME_CLASS = r"\s%s" % re.escape("".join(sorted(RESERVED_CHARS)))
_ATOM_NAME = re.compile("[^%s]+" % _NAME_CLASS)
_BAD_CHAR = re.compile("[%s]" % _NAME_CLASS)


def valid_atom_name(name):
    return _ATOM_NAME.fullmatch(name) is not None


class SampleSpace:
    """An ordered collection of distinct atom names. Every name is tested
    in one scan; only a failed scan walks the names to word the first
    bad one."""

    __slots__ = ("atoms", "_index", "full_bits")

    def __init__(self, atoms):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("a sample space needs at least one atom")
        if len(atoms) > MAX_ATOMS:
            raise TooLarge("at most %d atoms are supported, got %d" % (MAX_ATOMS, len(atoms)))
        index = dict(zip(atoms, range(len(atoms))))
        if len(index) < len(atoms) or "" in index or _BAD_CHAR.search("".join(atoms)):
            seen = set()
            for name in atoms:
                if not valid_atom_name(name):
                    raise ValueError("invalid atom name: %r" % (name,))
                if name in seen:
                    raise ValueError("duplicate atom name: %r" % (name,))
                seen.add(name)
        self.atoms = atoms
        self._index = index
        self.full_bits = (1 << len(atoms)) - 1

    @property
    def n(self):
        return len(self.atoms)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtom("unknown atom: %r" % (name,)) from None

    def event(self, names=()):
        """The event containing exactly the given atoms."""
        index = self._index
        bits = 0
        for name in names:
            i = index.get(name)
            if i is None:
                self.index(name)  # raises UnknownAtom
            bits |= 1 << i
        return Event(self, bits)

    def event_from_bits(self, bits):
        return Event(self, bits)

    def atom(self, name):
        return Event(self, 1 << self.index(name))

    @property
    def empty(self):
        return Event(self, 0)

    @property
    def full(self):
        return Event(self, self.full_bits)

    def __eq__(self, other):
        return isinstance(other, SampleSpace) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        return "SampleSpace(%r)" % (list(self.atoms),)


def same_space(x, y):
    """Return the common space of two carriers, or raise SpaceMismatch."""
    if x.space is not y.space and x.space != y.space:
        raise SpaceMismatch("operands belong to different sample spaces")
    return x.space


class Event:
    """A subset of a sample space's atoms, stored as a bitmask."""

    __slots__ = ("space", "bits")

    def __init__(self, space, bits):
        if not 0 <= bits <= space.full_bits:
            raise ValueError("event bits 0x%x out of range for %d atoms" % (bits, space.n))
        self.space = space
        self.bits = bits

    def members(self):
        """Atom names of this event, in declaration order."""
        return tuple(name for i, name in enumerate(self.space.atoms) if self.bits >> i & 1)

    def meet(self, other):
        return Event(same_space(self, other), self.bits & other.bits)

    def join(self, other):
        return Event(same_space(self, other), self.bits | other.bits)

    def complement(self):
        return Event(self.space, self.space.full_bits & ~self.bits)

    def leq(self, other):
        """Subset order."""
        same_space(self, other)
        return self.bits & ~other.bits == 0

    __and__ = meet
    __or__ = join
    __invert__ = complement
    __le__ = leq

    def __contains__(self, name):
        return self.bits >> self.space.index(name) & 1 == 1

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return (
            isinstance(other, Event)
            and (self.space is other.space or self.space == other.space)
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.space, self.bits))

    def __str__(self):
        return "{%s}" % ",".join(self.members())

    def __repr__(self):
        return "Event(%s)" % (self,)


def enumerate_events(space):
    """All events of the space in ascending bitmask order.

    Guarded because the output has 2**n entries.
    """
    if space.n > MAX_ENUMERATION_ATOMS:
        raise TooLarge("refusing to enumerate events over %d atoms" % space.n)
    return [Event(space, bits) for bits in range(space.full_bits + 1)]
