"""Exact conditional probability over weighted sample spaces.

A measure assigns a nonnegative rational weight to every atom, with a
positive total. The probability of a conditional (a|b) is the weight of
a&b over the weight of b, undefined (ZeroCondition) when b has weight
zero.

Every probability here is a quotient of subset weights, so the work is
done in integers: a Measure scales its atom weights to their common
denominator when it is made (its `weights` Fractions only when first
read). Up to 8 atoms it builds one table of subset weights, and a
lookup is that list's own __getitem__; above that a lookup sums the
scaled weights of the set bits, and no table is built. Sums and
comparisons are exact integer arithmetic, and each function
builds a single fractions.Fraction for the value it returns.
additive_law_check builds none: it decides holds by integer
cross-multiplication, w(q)·wx·wy == (w(xq)·wy + w(yq)·wx)·w(c) for the
disjunction (q|c), and its report keeps each side as a numerator and
denominator until the side is first read. Nothing is rounded anywhere.
The functions the laws call per instance test operand spaces inline.

Besides the direct quotient, this module carries three expansions of a
probability into weighted parts, and the additivity report:

  * p_or_formula: inclusion-exclusion for (a|b) v (c|d) through the
    chain rule, conditioning on b v d.
  * p_superposition: a three-term decomposition of the same disjunction
    (or of the conjunction) into disjoint contexts b&d', b'&d, b&d.
  * partition_expansion: the law of total probability over a partition
    of the condition.
  * additive_law_check: P(x v y) = P(x) + P(y) holds exactly in four
    degenerate situations; the report lists which apply.
"""

from fractions import Fraction
from functools import partial
from itertools import compress
from math import lcm

from . import conditional as cnd
from ._record import Record, _set
from .errors import (
    BadWeight,
    NotAPartition,
    SpaceMismatch,
    ZeroCondition,
    ZeroTotalWeight,
)
from .space import Event

# The most atoms a Measure builds its table of 2**n subset weights for.
CHUNK_ATOMS = 8
# bin()'s digits as the 0 and 1 bytes itertools.compress selects by.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class Measure:
    """Nonnegative rational atom weights with a positive total.

    Construction works in integers, from each weight's own numerator and
    denominator: an int or a Fraction is used as it is, and any other
    weight (a float, a bool, a "p/q" string, a Decimal) goes through
    Fraction once. The weights are scaled by the least common multiple
    of their denominators, the scaled weights are tested for a negative
    entry and a zero sum, and they are kept with the scale; `total` is
    their sum over the scale. No Fraction is made per weight here:
    `weights`, the tuple of exact Fractions, is built from the scaled
    weights on its first read. `weights` and `total` are exact
    Fractions.

    `_iw(bits)` is the integer weight of the atoms in `bits`, in units
    of 1/_scale. Up to CHUNK_ATOMS atoms it is the `__getitem__` of a
    table of the scaled weight of every subset, built here, so a lookup
    runs no Python code. Above that it is `_sparse_weight` bound to the
    scaled weights, which sums those of the set bits in C: a measure
    that wide is read for a few weights. weight and weight_bits still
    return the exact Fraction.
    """

    __slots__ = ("space", "total", "_weights", "_scale", "_scaled", "_iw")

    def __init__(self, space, weights):
        weights = [w if type(w) is int or type(w) is Fraction else Fraction(w) for w in weights]
        if len(weights) != space.n:
            raise ValueError(
                "expected %d weights, got %d" % (space.n, len(weights))
            )
        dens = [w.denominator for w in weights]
        scale = lcm(*dens)
        scaled = [w.numerator * (scale // d) for w, d in zip(weights, dens)]
        for w, s in zip(weights, scaled):
            if s < 0:
                raise BadWeight("negative weight %s" % (w,))
        total = sum(scaled)
        if total == 0:
            raise ZeroTotalWeight("all atom weights are zero")
        self.space = space
        self.total = Fraction(total, scale)
        self._weights = None
        self._scale = scale
        self._scaled = scaled
        if len(scaled) > CHUNK_ATOMS:
            self._iw = partial(_sparse_weight, scaled)
            return
        # Adding atom i appends the subsets that contain it, which are
        # exactly the indices with bit i set.
        table = [0]
        for w in scaled:
            table += [t + w for t in table]
        self._iw = table.__getitem__

    @property
    def weights(self):
        if self._weights is None:
            scale = self._scale
            self._weights = tuple(Fraction(s, scale) for s in self._scaled)
        return self._weights

    def weight_bits(self, bits):
        if not 0 <= bits <= self.space.full_bits:
            raise ValueError("event bits 0x%x out of range for %d atoms" % (bits, self.space.n))
        return Fraction(self._iw(bits), self._scale)

    def weight(self, event):
        if event.space != self.space:
            raise SpaceMismatch("event belongs to a different sample space")
        return self.weight_bits(event.bits)

    def __repr__(self):
        return "Measure(%r)" % (list(self.weights),)


def _sparse_weight(scaled, bits):
    """`_iw` without a table: the sum of the scaled weights of the set
    bits, lowest bit first, selected by compress from bin()'s digits."""
    return sum(compress(scaled, bin(bits)[:1:-1].encode().translate(_BIT_BYTES)))


def _check(m, x):
    if m.space is not x.space and m.space != x.space:
        raise SpaceMismatch("measure and operand disagree on the sample space")


def p_event(m, a):
    """Unconditional probability of an event."""
    return m.weight(a) / m.total


def p_cond(m, x):
    """Probability of a conditional: weight of consequent over condition."""
    if m.space is not x.space and m.space != x.space:
        raise SpaceMismatch("measure and operand disagree on the sample space")
    w = m._iw
    wc = w(x.c)
    if wc == 0:
        raise ZeroCondition("condition %s has weight zero" % (x.condition,))
    return Fraction(w(x.q), wc)


def p_or_formula(m, x, y):
    """P((a|b) v (c|d)) by inclusion-exclusion on the context b v d:

        P(a|b)P(b|bvd) + P(c|d)P(d|bvd) - P(abcd|bd)P(bd|bvd)

    Each product collapses to a single quotient over w(b v d). A product
    whose inner condition has weight zero contributes zero; its numerator
    weighs a subset of that condition (ab <= b in normal form), so it is
    zero already and needs no guard. The three numerators are summed as
    integers over the one denominator. Always equals p_cond(or_(x, y)).
    """
    space = m.space
    if space is not x.space and space != x.space or space is not y.space and space != y.space:
        raise SpaceMismatch("measure and operand disagree on the sample space")
    w = m._iw
    wu = w(x.c | y.c)
    if wu == 0:
        raise ZeroCondition("condition %s has weight zero" % (x.condition | y.condition,))
    return Fraction(w(x.q) + w(y.q) - w(x.q & y.q), wu)


def p_superposition(m, x, y, mode="or"):
    """Three-term expansion of (a|b) v (c|d) or (a|b) ^ (c|d).

    The context b v d splits into b&d' (only x defined), b'&d (only y
    defined) and b&d (both defined). On the one-sided parts the operand
    passes through; on the overlap the consequents combine by v or ^:

        P(a|bd')P(bd'|bvd) + P(c|b'd)P(b'd|bvd) + P((a op c)bd|bvd)

    A product whose inner condition has weight zero contributes zero; its
    numerator weighs a subset of that condition, so it needs no guard.
    The numerators are summed as integers over w(b v d). Always equals
    p_cond of or_(x, y) / and_(x, y).
    """
    space = m.space
    if space is not x.space and space != x.space or space is not y.space and space != y.space:
        raise SpaceMismatch("measure and operand disagree on the sample space")
    if mode not in ("or", "and"):
        raise ValueError("mode must be 'or' or 'and', got %r" % (mode,))
    w = m._iw
    wu = w(x.c | y.c)
    if wu == 0:
        raise ZeroCondition("condition %s has weight zero" % (x.condition | y.condition,))
    only_x = x.c & ~y.c
    only_y = y.c & ~x.c
    both = x.c & y.c
    if mode == "or":
        num = w((x.q | y.q) & both)
    else:
        num = w(x.q & y.q)
    return Fraction(num + w(x.q & only_x) + w(y.q & only_y), wu)


def partition_expansion(m, a, parts):
    """Law of total probability: P(a|u) as sum of P(a|u_i)P(u_i|u).

    The parts must be pairwise disjoint events; their join is the
    condition u. A weight-zero part contributes zero: a & part weighs no
    more than the part, so it needs no guard.
    """
    parts = list(parts)
    if not parts:
        raise NotAPartition("no parts given")
    union = 0
    for part in parts:
        if part.space != a.space:
            raise SpaceMismatch("part belongs to a different sample space")
        if part.bits & union:
            raise NotAPartition("parts overlap at %s" % (part,))
        union |= part.bits
    _check(m, a)
    w = m._iw
    wu = w(union)
    if wu == 0:
        raise ZeroCondition("partition union has weight zero")
    return Fraction(sum(w(a.bits & part.bits) for part in parts), wu)


class AdditiveReport(Record):
    """Outcome of the additivity probe for one instance. lhs and rhs are
    Fractions; additive_law_check passes (numerator, denominator) pairs
    instead, each made a Fraction on its first read and kept."""

    __slots__ = ("_lhs", "_rhs", "holds", "cases")
    _fields = ("lhs", "rhs", "holds", "cases")

    def __init__(self, lhs, rhs, holds, cases):
        _set(self, "_lhs", lhs)
        _set(self, "_rhs", rhs)
        _set(self, "holds", holds)
        _set(self, "cases", cases)

    @property
    def lhs(self):
        if type(self._lhs) is tuple:
            _set(self, "_lhs", Fraction(*self._lhs))
        return self._lhs

    @property
    def rhs(self):
        if type(self._rhs) is tuple:
            _set(self, "_rhs", Fraction(*self._rhs))
        return self._rhs


def additive_law_check(m, a, c1, b, c2):
    """Does P((A|C1) v (B|C2)) equal P(A|C1) + P(B|C2) here?

    Exact additivity is rare; it holds precisely when one of four
    degeneracies does, all read relative to the measure (an event is
    null when its weight is zero):

      1. A&C1 and B&C2 are both null.
      2. A&C1 is null and C1 <= C2 almost surely.
      3. B&C2 is null and C2 <= C1 almost surely.
      4. C1 = C2 almost surely and A&B&C1 is null.

    The report carries both sides and the list of case numbers that
    apply; holds is true exactly when the list is nonempty.

    The operands are checked as cnd.make and p_cond would check them,
    in their order and with their exceptions, but no Conditional is
    built: the pair from cnd.or_bits, read at call time, is passed to
    the constructor only if it fails the constructor's tests, and its
    condition becomes an Event only to word a ZeroCondition. holds
    compares the two sides by integer cross-multiplication.
    """
    if not isinstance(a, Event) or not isinstance(c1, Event):
        raise TypeError("make expects two events")
    if a.space is not c1.space and a.space != c1.space:
        raise SpaceMismatch("operands belong to different sample spaces")
    if not isinstance(b, Event) or not isinstance(c2, Event):
        raise TypeError("make expects two events")
    if b.space is not c2.space and b.space != c2.space:
        raise SpaceMismatch("operands belong to different sample spaces")
    space = m.space
    if space is not a.space and space != a.space or space is not b.space and space != b.space:
        raise SpaceMismatch("measure and operand disagree on the sample space")
    w = m._iw
    xc, yc = c1.bits, c2.bits
    xq, yq = a.bits & xc, b.bits & yc
    wx = w(xc)
    wy = w(yc)
    if wx == 0 or wy == 0:
        raise ZeroCondition("both conditions need positive weight")
    wxq = w(xq)
    wyq = w(yq)
    q, c = cnd.or_bits(xq, xc, yq, yc)
    if q & ~c or not 0 <= c <= space.full_bits:
        cnd.Conditional(space, q, c)
    wu = w(c)
    if wu == 0:
        raise ZeroCondition("condition %s has weight zero" % (Event(space, c),))
    wuq = w(q)
    num = wxq * wy + wyq * wx

    ac1_null = wxq == 0
    bc2_null = wyq == 0
    c1_in_c2 = w(xc & ~yc) == 0
    c2_in_c1 = w(yc & ~xc) == 0
    cases = []
    if ac1_null and bc2_null:
        cases.append(1)
    if ac1_null and c1_in_c2:
        cases.append(2)
    if bc2_null and c2_in_c1:
        cases.append(3)
    if c1_in_c2 and c2_in_c1 and w(xq & yq) == 0:
        cases.append(4)
    return AdditiveReport((wuq, wu), (num, wx * wy), wuq * wx * wy == num * wu, tuple(cases))
