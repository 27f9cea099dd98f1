"""Conditional events over a finite sample space.

A conditional event ``(a|b)`` ("a given b") pairs a consequent event
``a`` with a condition event ``b``. Two pairs describe the same
conditional exactly when their conditions agree and their consequents
agree inside the condition:

    (a|b) == (c|d)  iff  b == d and a&b == c&d

so every conditional is stored in normal form as the pair
``(a&b, b)``. There are 3**n conditionals over n atoms: each atom is
either inside the consequent, inside the condition but not the
consequent, or outside the condition. The conditional with an empty
condition is written U ("undefined"); it is the common value of every
``(x|0)``.

The operations are closed forms on normal-form pairs. Writing the first
operand ``(a|b)`` and the second ``(c|d)``:

    not:    (a|b)'            = (a'b | b)
    or:     (a|b) v (c|d)     = (ab v cd | b v d)
    and:    (a|b) ^ (c|d)     = (abd' v abcd v b'cd | b v d)
    given:  (a|b) | (c|d)     = (a | b(c v d'))
    osum:   (a|b) + (c|d)     = (abc'd v a'bcd | b v d)
    sasaki: (a|b) o (c|d)     = (cd(b' v a) | b v d)

``and`` and ``or`` agree with pointwise three-valued truth tables: where
both operands are defined they act Boolean, and where only one is
defined its value passes through. ``osum`` is the exclusive-or-like sum
under which ``(a'|b)`` is the unique complement of ``(a|b)`` among
conditionals with condition ``b``. ``sasaki(x, y)`` projects ``y``
through ``x``; it coincides with ``and_(x, or_(negate(x), y))``.

The bit-level kernels (`or_bits`, `and_bits`, ...) take and return
normal-form ``(consequent_bits, condition_bits)`` pairs. They are the
single source of truth for the algebra: the Conditional-level operations
and the exhaustive law checker both dispatch through these module
globals.
"""

from .errors import SpaceMismatch
from .space import Event, same_space


def or_bits(q1, c1, q2, c2):
    return q1 | q2, c1 | c2


def and_bits(q1, c1, q2, c2):
    # abd' v abcd v b'cd, written on stored bits (q = a&b, c = b).
    return (q1 & ~c2) | (q1 & q2) | (~c1 & q2), c1 | c2


def not_bits(q, c):
    return c & ~q, c


def given_bits(q1, c1, q2, c2):
    cond = c1 & (q2 | ~c2)
    return q1 & cond, cond


def osum_bits(q1, c1, q2, c2):
    return (q1 & c2 & ~q2) | (c1 & ~q1 & q2), c1 | c2


def sasaki_bits(q1, c1, q2, c2):
    return q2 & (q1 | ~c1), c1 | c2


class Conditional:
    """A conditional event in normal form.

    ``q`` holds the consequent bits restricted to the condition and ``c``
    the condition bits, so ``q & ~c == 0`` always.
    """

    __slots__ = ("space", "q", "c")

    def __init__(self, space, q, c):
        if q & ~c:
            raise ValueError("consequent bits 0x%x stick out of condition 0x%x" % (q, c))
        if not 0 <= c <= space.full_bits:
            raise ValueError("condition bits 0x%x out of range" % (c,))
        self.space = space
        self.q = q
        self.c = c

    @property
    def consequent(self):
        return Event(self.space, self.q)

    @property
    def condition(self):
        return Event(self.space, self.c)

    @property
    def is_undefined(self):
        return self.c == 0

    def __eq__(self, other):
        return (
            isinstance(other, Conditional)
            and (self.space is other.space or self.space == other.space)
            and self.q == other.q
            and self.c == other.c
        )

    def __hash__(self):
        return hash((self.space, self.q, self.c))

    def __str__(self):
        return "(%s|%s)" % (self.consequent, self.condition)

    def __repr__(self):
        return "Conditional%s" % (self,)


def make(a, b):
    """The conditional (a|b), normalized."""
    if not isinstance(a, Event) or not isinstance(b, Event):
        raise TypeError("make expects two events")
    space = same_space(a, b)
    return Conditional(space, a.bits & b.bits, b.bits)


def undefined(space):
    """U, the conditional with empty condition."""
    return Conditional(space, 0, 0)


def _binary(kernel, x, y):
    if x.space is not y.space and x.space != y.space:
        raise SpaceMismatch("operands belong to different sample spaces")
    q, c = kernel(x.q, x.c, y.q, y.c)
    return Conditional(x.space, q, c)


def negate(x):
    q, c = not_bits(x.q, x.c)
    return Conditional(x.space, q, c)


def or_(x, y):
    return _binary(or_bits, x, y)


def and_(x, y):
    return _binary(and_bits, x, y)


def given(x, y):
    """Iterated conditioning: the conditional (x given y)."""
    return _binary(given_bits, x, y)


def osum(x, y):
    """Exclusive sum. Total here, though only same-condition sums obey
    the complement laws."""
    return _binary(osum_bits, x, y)


def sasaki(x, y):
    """Project y through x: and_(x, or_(negate(x), y)) in closed form."""
    return _binary(sasaki_bits, x, y)


def enumerate_conditionals_bits(full_bits):
    """All normal-form (q, c) pairs over the given atom mask.

    Conditions ascend in bitmask order and, within a condition, the
    consequents ascend too. The list has 3**n entries.
    """
    pairs = []
    for c in range(full_bits + 1):
        for q in range(c + 1):
            if q & ~c == 0:
                pairs.append((q, c))
    return pairs
