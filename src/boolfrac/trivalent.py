"""Three-valued evaluation of conditionals at single outcomes.

A conditional (a|b) evaluated at an outcome w is

    T  when w is in a&b        (condition met, consequent too)
    F  when w is in b and not a (condition met, consequent missed)
    U  when w is outside b      (condition not met: no verdict)

The connectives act pointwise through the tables below: the first
operand picks the row. They are exactly the truth tables under which
evaluation commutes with the algebra, i.e. eval(op(x, y), w) equals
table[eval(x, w), eval(y, w)] for every outcome and every pair.
"""

from enum import Enum


class TruthValue(Enum):
    T = "T"
    F = "F"
    U = "U"

    # Members are singletons and compare by identity, so they hash by it
    # too: Enum's own __hash__ is Python code, run twice per table lookup.
    __hash__ = object.__hash__

    def __str__(self):
        return self.value


T, F, U = TruthValue.T, TruthValue.F, TruthValue.U

AND_TABLE = {
    (T, T): T, (T, F): F, (T, U): T,
    (F, T): F, (F, F): F, (F, U): F,
    (U, T): T, (U, F): F, (U, U): U,
}

OR_TABLE = {
    (T, T): T, (T, F): T, (T, U): T,
    (F, T): T, (F, F): F, (F, U): F,
    (U, T): T, (U, F): F, (U, U): U,
}

GIVEN_TABLE = {
    (T, T): T, (T, F): U, (T, U): T,
    (F, T): F, (F, F): U, (F, U): F,
    (U, T): U, (U, F): U, (U, U): U,
}

NOT_TABLE = {T: F, F: T, U: U}


def tt_and(p, q):
    return AND_TABLE[p, q]


def tt_or(p, q):
    return OR_TABLE[p, q]


def tt_given(p, q):
    return GIVEN_TABLE[p, q]


def tt_not(p):
    return NOT_TABLE[p]


def eval_at(cond, atom_name):
    """Truth value of a conditional at one outcome, named by its atom."""
    return eval_at_bit(cond.q, cond.c, 1 << cond.space.index(atom_name))


def eval_at_bit(q, c, bit):
    """Same as eval_at for raw normal-form bits; bit must be a single atom."""
    if q & bit:
        return T
    if c & bit:
        return F
    return U
