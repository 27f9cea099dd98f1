"""An alternative operation family on conditionals.

These four binary operations predate the ones in `conditional` and are
defined directly on representative pairs; writing the operands (a|b) and
(c|d):

    cap_s: (a&c | b&d)
    cup_s: (ab v cd | b v d)
    and_s: (abcd v abd' v b'cd | b v d)
    vee_s: (a v c | b&d)

Both ({cap_s, cup_s}, not) and ({and_s, vee_s}, not) make the
conditionals a distributive lattice, unlike the `conditional` pair
and/or, which sacrifices absorption for pointwise three-valued
soundness. The families overlap with the main algebra: cup_s coincides
with or_ and and_s coincides with and_; the two here are kept as
independent implementations so the law checker can compare the code
paths.
"""

from .conditional import _binary, given, make
from .errors import NotDisjoint
from .space import same_space


def cap_bits(q1, c1, q2, c2):
    return q1 & q2, c1 & c2


def cup_bits(q1, c1, q2, c2):
    return q1 | q2, c1 | c2


def sand_bits(q1, c1, q2, c2):
    # abcd v abd' v b'cd on stored bits; same three terms as
    # conditional.and_bits but written and maintained separately.
    return (q1 & q2) | (q1 & ~c2) | (~c1 & q2), c1 | c2


def vee_bits(q1, c1, q2, c2):
    cond = c1 & c2
    return (q1 | q2) & cond, cond


def cap_s(x, y):
    return _binary(cap_bits, x, y)


def cup_s(x, y):
    return _binary(cup_bits, x, y)


def and_s(x, y):
    return _binary(sand_bits, x, y)


def vee_s(x, y):
    return _binary(vee_bits, x, y)


def schay_iteration_example(a, b):
    """The conditional ((B | A v B) | B') for disjoint events A, B.

    Iterated conditioning collapses it to (0 | A): given that B failed,
    "B given A or B" is a bet that loses exactly when A happens.
    """
    space = same_space(a, b)
    if a.bits & b.bits:
        raise NotDisjoint("events %s and %s overlap" % (a, b))
    inner = make(b, a | b)
    return given(inner, make(~b, space.full))
