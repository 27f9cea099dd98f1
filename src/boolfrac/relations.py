"""Order relations, orthogonality, and joint verifiability of conditionals.

Conditionals carry several distinct order-like relations at once, all
reducible to bit inequalities on normal forms (x = (a|b), y = (c|d)):

    tr     truth order           ab <= cd
    nf     non-falsity order     c'd <= a'b
    ap     applicability order   b <= d
    pm     probability order     tr and nf (monotone for every measure)
    vee    join order            or_(x, y) == y, i.e. ap and tr
    wedge  meet order            and_(x, y) == x, i.e. d <= b and c'd <= a'b
    bo     Boolean order         b == d and ab <= cd

Five more relations say how compatible two conditionals are as
experiments:

    orth     orthogonality                ab <= c'd and cd <= a'b
    simver   simultaneous verifiability   ab <= d and cd <= b
    simfals  simultaneous falsifiability  a'b <= d and c'd <= b
    compat   compatibility                b == d
    subalg   common Boolean subalgebra    b == d != 0

`holds` accepts all twelve tags, listed in this order in RELATION_TAGS,
and `profile` bundles the seven standard verifiability flags. The
generated subalgebra closes a pair under and/or/not and reports whether
the result is a Boolean algebra, which happens exactly for equal,
nonempty conditions. The closure calls `not_bits` once per member and
`or_bits` and `and_bits` once per ordered pair of members, keeping each
result in a table; the Boolean sweep reads every value it compares from
those tables, calls no kernel, and drops a candidate unit or zero at its
first failing member. `subalgebra_bits` does the closing and the sweep
on raw (q, c) pairs; `generated_subalgebra` adds the member
Conditionals, which the laws `t3.7` and `c3.8` do not need. `_pair`
tests the operands' spaces inline, not through `same_space`.
"""

from . import conditional as cnd
from ._record import Record, _set
from .errors import SpaceMismatch, TooLarge
from .space import same_space

MAX_SUBALGEBRA_ATOMS = 5


def _pair(x, y):
    if x.space is not y.space and x.space != y.space:
        raise SpaceMismatch("operands belong to different sample spaces")
    return x.q, x.c, y.q, y.c


def _tr(q1, c1, q2, c2):
    return q1 & ~q2 == 0


def _nf(q1, c1, q2, c2):
    return (c2 & ~q2) & ~(c1 & ~q1) == 0


def _ap(q1, c1, q2, c2):
    return c1 & ~c2 == 0


def _pm(q1, c1, q2, c2):
    return _tr(q1, c1, q2, c2) and _nf(q1, c1, q2, c2)


def _vee(q1, c1, q2, c2):
    return _ap(q1, c1, q2, c2) and _tr(q1, c1, q2, c2)


def _wedge(q1, c1, q2, c2):
    return c2 & ~c1 == 0 and (c2 & ~q2) & ~(c1 & ~q1) == 0


def _bo(q1, c1, q2, c2):
    return c1 == c2 and q1 & ~q2 == 0


def orthogonal_bits(q1, c1, q2, c2):
    return q1 & ~(c2 & ~q2) == 0 and q2 & ~(c1 & ~q1) == 0


def orthogonal(x, y):
    """Each side's truth region lies in the other's falsity region:
    ab <= c'd and cd <= a'b. Equivalent to and_(x, y) == (0 | b v d)."""
    return orthogonal_bits(*_pair(x, y))


def ortho_family_member(c, x, y):
    """The conditional (a'b & x | ab v y) for events x, y.

    As x and y range over all events, these are exactly the conditionals
    orthogonal to c. It is computed on bits, and checks and raises as the
    Event spelling ``cnd.make(c.consequent.complement() & c.condition & x, c.consequent | y)`` would.
    """
    same_space(x, y)
    if not isinstance(c, cnd.Conditional):
        c.consequent  # the Event spelling's AttributeError
    same_space(c, x)
    q, cond = c.c & ~c.q & x.bits, c.q | y.bits
    return cnd.Conditional(c.space, q & cond, cond)


def sim_verifiable_bits(q1, c1, q2, c2):
    return q1 & ~c2 == 0 and q2 & ~c1 == 0


def sim_verifiable(x, y):
    """Can one outcome verify both? Holds iff ab <= d and cd <= b, i.e.
    wherever one is verified the other at least applies."""
    return sim_verifiable_bits(*_pair(x, y))


def sim_falsifiable_bits(q1, c1, q2, c2):
    return (c1 & ~q1) & ~c2 == 0 and (c2 & ~q2) & ~c1 == 0


def sim_falsifiable(x, y):
    """Can one outcome falsify both? Same shape on the falsity regions:
    a'b <= d and c'd <= b."""
    return sim_falsifiable_bits(*_pair(x, y))


def _compat(q1, c1, q2, c2):
    return c1 == c2


def compatible(x, y):
    """Equal conditions."""
    return _compat(*_pair(x, y))


def _subalg(q1, c1, q2, c2):
    return c1 == c2 != 0


def in_common_subalgebra(x, y):
    """Do x and y live in a common Boolean subalgebra? Exactly when their
    conditions are equal and nonempty."""
    return _subalg(*_pair(x, y))


_RELATIONS = {
    "tr": _tr,
    "nf": _nf,
    "ap": _ap,
    "pm": _pm,
    "vee": _vee,
    "wedge": _wedge,
    "bo": _bo,
    "orth": orthogonal_bits,
    "simver": sim_verifiable_bits,
    "simfals": sim_falsifiable_bits,
    "compat": _compat,
    "subalg": _subalg,
}
RELATION_TAGS = tuple(_RELATIONS)


def holds(tag, x, y):
    """Does relation `tag` hold between x and y (in that order)?"""
    try:
        rel = _RELATIONS[tag]
    except KeyError:
        raise ValueError("unknown relation tag: %r" % (tag,)) from None
    return rel(*_pair(x, y))


def decomposition_witness(x, y):
    """Split x and y into orthogonal private and shared parts, if possible.

    Looks for pairwise-orthogonal u, v, w with x == or_(u, w) and
    y == or_(v, w). Returns the triple (u, v, w) or None. A valid triple
    exists exactly when x and y are simultaneously verifiable, and then

        u = (ab & (cd)' | b),  v = (cd & (ab)' | d),  w = (ab & cd | b & d)

    works; the triple below is that candidate, verified before returning.
    """
    q1, c1, q2, c2 = _pair(x, y)
    space = x.space
    u = cnd.Conditional(space, q1 & ~q2, c1)
    v = cnd.Conditional(space, q2 & ~q1, c2)
    w = cnd.Conditional(space, q1 & q2, c1 & c2)
    ok = (
        cnd.or_(u, w) == x
        and cnd.or_(v, w) == y
        and orthogonal(u, v)
        and orthogonal(u, w)
        and orthogonal(v, w)
    )
    return (u, v, w) if ok else None


class VerifiabilityProfile(Record):
    """The seven standard joint-testability flags for an ordered pair
    x = (a1|a2), y = (b1|b2).

    1. truth_applicable       a1 a2 <= b2   (verifying x makes y applicable)
    2. falsity_applicable     a1' a2 <= b2  (falsifying x makes y applicable)
    3. verifiable             x and y simultaneously verifiable
    4. falsifiable            x and y simultaneously falsifiable
    5. complement_verifiable  x' and y simultaneously verifiable
    6. applicable             a2 <= b2      (same as 1 and 2 together)
    7. same_condition         a2 == b2      (same as 3 and 4 together)
    """

    __slots__ = _fields = ("truth_applicable", "falsity_applicable", "verifiable",
                           "falsifiable", "complement_verifiable", "applicable",
                           "same_condition")

    def __init__(self, truth_applicable, falsity_applicable, verifiable, falsifiable,
                 complement_verifiable, applicable, same_condition):
        _set(self, "truth_applicable", truth_applicable)
        _set(self, "falsity_applicable", falsity_applicable)
        _set(self, "verifiable", verifiable)
        _set(self, "falsifiable", falsifiable)
        _set(self, "complement_verifiable", complement_verifiable)
        _set(self, "applicable", applicable)
        _set(self, "same_condition", same_condition)

    def flags(self):
        return self._values()


def profile(x, y):
    q1, c1, q2, c2 = _pair(x, y)
    return VerifiabilityProfile(
        truth_applicable=q1 & ~c2 == 0,
        falsity_applicable=(c1 & ~q1) & ~c2 == 0,
        verifiable=sim_verifiable_bits(q1, c1, q2, c2),
        falsifiable=sim_falsifiable_bits(q1, c1, q2, c2),
        complement_verifiable=(c1 & ~q1) & ~c2 == 0 and q2 & ~c1 == 0,
        applicable=c1 & ~c2 == 0,
        same_condition=c1 == c2,
    )


class Subalgebra(Record):
    __slots__ = _fields = ("members", "is_boolean")

    def __init__(self, members, is_boolean):
        _set(self, "members", members)
        _set(self, "is_boolean", is_boolean)


def _close(seeds):
    """Close a set of raw (q, c) pairs under not, or and and, recording
    each result.

    Round by round as a naive fixpoint would go, but a round evaluates
    only the negations of members added in the round before and the
    ordered pairs that involve one; every other result is already a
    member. The adds happen in the naive order, so the set has the
    naive iteration order, and the first kernel call that raises is the
    naive one. Returns the set and its tables: ``neg[a]``, and rows
    ``join[a][b]`` and ``meet[a][b]`` for every ordered pair of members.
    """
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits
    members = set(seeds)
    fresh = members
    neg, join, meet = {}, {}, {}
    while True:
        new = set()
        for m in members:
            if m in fresh:
                join[m], meet[m] = {}, {}
                r = neg[m] = not_b(*m)
                if r not in members:
                    new.add(r)
        fresh_order = [b for b in members if b in fresh]
        for a in members:
            a0, a1 = a[0], a[1]
            join_row, meet_row = join[a], meet[a]
            for b in members if a in fresh else fresh_order:
                b0, b1 = b[0], b[1]
                r = join_row[b] = or_b(a0, a1, b0, b1)
                if r not in members:
                    new.add(r)
                r = meet_row[b] = and_b(a0, a1, b0, b1)
                if r not in members:
                    new.add(r)
        if not new:
            return members, neg, join, meet
        members |= new
        fresh = new


def closure_bits(seeds):
    """Close a set of raw (q, c) pairs under not, or and and."""
    return _close(seeds)[0]


def _boolean_sweep(members, neg, join, meet):
    """Check the Boolean algebra axioms over a closed set of (q, c) pairs.

    Commutativity and associativity of or/and hold on all conditionals,
    so only the parts that can fail are swept: a two-sided unit and zero
    (distinct, so the one-element closure of U does not count), not as
    complement against them, absorption, and both distributive laws.

    No kernel runs here: every operand is a member, so every value is
    read from the tables `_close` filled, each the kernel's own output
    from one call per member or ordered pair. The unit and zero are
    sought in the rows by nested loops that drop a candidate at its
    first failing member; once both exist, the rest runs on index tables.
    """
    for unit in members:
        for m in members:
            if meet[m][unit] != m or join[m][unit] != unit:
                break
        else:
            break
    else:
        return False
    for zero in members:
        for m in members:
            if join[m][zero] != m or meet[m][zero] != zero:
                break
        else:
            break
    else:
        return False
    if zero == unit:
        return False
    mem = list(members)
    index = {m: i for i, m in enumerate(mem)}
    joins = [[index[join[a][b]] for b in mem] for a in mem]
    meets = [[index[meet[a][b]] for b in mem] for a in mem]
    one, nil = index[unit], index[zero]
    for a, m in enumerate(mem):
        n = index[neg[m]]
        if meets[a][n] != nil or joins[a][n] != one:
            return False
    for a, (ja, ma) in enumerate(zip(joins, meets)):
        for jab, mab in zip(ja, ma):
            if ma[jab] != a or ja[mab] != a:
                return False
    for ja, ma in zip(joins, meets):
        for jb, mb, jab, mab in zip(joins, meets, ja, ma):
            j_mab, m_jab = joins[mab], meets[jab]
            for jbd, mbd, jad, mad in zip(jb, mb, ja, ma):
                if ma[jbd] != j_mab[mad] or ja[mbd] != m_jab[jad]:
                    return False
    return True


def subalgebra_bits(space, seeds):
    """Close raw (q, c) seeds over `space` under and/or/not and test the
    closure for Booleanness; returns (the set of members, is_boolean).

    No Conditional is built for a member that is one: the members are
    tested in the set's order with the Conditional constructor's own
    tests, and only the first that fails is passed to it, to raise its
    ValueError. So a law that needs only is_boolean raises what
    generated_subalgebra would, without m constructions and hashes."""
    if space.n > MAX_SUBALGEBRA_ATOMS:
        raise TooLarge("refusing to close a subalgebra over %d atoms" % space.n)
    closed = _close(seeds)
    full = space.full_bits
    for q, c in closed[0]:
        if q & ~c or not 0 <= c <= full:
            cnd.Conditional(space, q, c)
    return closed[0], _boolean_sweep(*closed)


def generated_subalgebra(x, y):
    """Close {x, y} under and/or/not and test Booleanness axiomatically."""
    _pair(x, y)
    space = x.space
    members, is_boolean = subalgebra_bits(space, {(x.q, x.c), (y.q, y.c)})
    return Subalgebra(
        members=frozenset(cnd.Conditional(space, q, c) for q, c in members),
        is_boolean=is_boolean,
    )
