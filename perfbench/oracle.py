"""An independent per-atom evaluator for conditional events.

The benchmark checks boolfrac's answers against this module, so it
never imports boolfrac. Everything is rebuilt atom by atom from the
closed forms documented in `boolfrac.conditional`, `boolfrac.schay`
and `boolfrac.relations`. A conditional (a|b) is seen at one atom as
its truth value:

    T  the atom is in a&b
    F  the atom is in b but not in a
    U  the atom is outside b

and each binary operation is the documented closed form applied to the
two operands' membership bits at that atom. Probabilities are `Fraction`
sums of atom weights.
"""

from fractions import Fraction

T, F, U = "T", "F", "U"
VALUES = (T, F, U)


def _bits(v):
    """(consequent, condition) membership of one atom."""
    return v == T, v != U


def _value(cons, cond):
    if not cond:
        return U
    return T if cons else F


def op_not(x):
    a, b = _bits(x)
    return _value(not a and b, b)


def op_or(x, y):
    # (ab v cd | b v d)
    a, b = _bits(x)
    c, d = _bits(y)
    return _value((a and b) or (c and d), b or d)


def op_and(x, y):
    # (abd' v abcd v b'cd | b v d)
    a, b = _bits(x)
    c, d = _bits(y)
    return _value((a and b and not d) or (a and b and c and d) or (not b and c and d), b or d)


def op_given(x, y):
    # (a | b(c v d'))
    a, b = _bits(x)
    c, d = _bits(y)
    return _value(a, b and (c or not d))


def op_osum(x, y):
    # (abc'd v a'bcd | b v d)
    a, b = _bits(x)
    c, d = _bits(y)
    return _value((a and b and not c and d) or (not a and b and c and d), b or d)


def op_sasaki(x, y):
    # (cd(b' v a) | b v d)
    a, b = _bits(x)
    c, d = _bits(y)
    return _value(c and d and (not b or a), b or d)


def op_cap_s(x, y):
    # (a&c | b&d)
    a, b = _bits(x)
    c, d = _bits(y)
    return _value(a and c, b and d)


def op_cup_s(x, y):
    # (ab v cd | b v d)
    a, b = _bits(x)
    c, d = _bits(y)
    return _value((a and b) or (c and d), b or d)


def op_and_s(x, y):
    # (abcd v abd' v b'cd | b v d)
    a, b = _bits(x)
    c, d = _bits(y)
    return _value((a and b and c and d) or (a and b and not d) or (not b and c and d), b or d)


def op_vee_s(x, y):
    # (a v c | b&d)
    a, b = _bits(x)
    c, d = _bits(y)
    return _value(a or c, b and d)


# Binary operations by the name the expression language gives them.
BINARY = {
    "or": op_or,
    "and": op_and,
    "given": op_given,
    "osum": op_osum,
    "proj": op_sasaki,
    "s_and": op_and_s,
    "s_or": op_vee_s,
    "s_cap": op_cap_s,
    "s_cup": op_cup_s,
}

# The 3x3 tables of the five binary kernels the mutants workload
# perturbs, keyed by the kernel's name in boolfrac.conditional.
KERNEL_OPS = {
    "and_bits": op_and,
    "or_bits": op_or,
    "given_bits": op_given,
    "osum_bits": op_osum,
    "sasaki_bits": op_sasaki,
}


def table(op):
    return {(p, q): op(p, q) for p in VALUES for q in VALUES}


# ------------------------------------------------------------ expressions
#
# An expression is a nested tuple:
#   ("ref", name) | ("set", (atom, ...)) | ("not", e) | (op, e1, e2)
# with op one of the BINARY keys.

_PREC = {"given": 0, "or": 1, "and": 2}
_INFIX = {"given": "|", "or": "or", "and": "and"}


def render(expr):
    """Expression text with the fewest parentheses the grammar needs."""
    kind = expr[0]
    if kind == "ref":
        return expr[1]
    if kind == "set":
        return "{%s}" % ",".join(expr[1])
    if kind == "not":
        arg = expr[1]
        text = render(arg)
        return "~" + ("(%s)" % text if arg[0] in _PREC else text)
    if kind in _PREC:
        prec = _PREC[kind]
        left, right = expr[1], expr[2]
        lt, rt = render(left), render(right)
        if left[0] in _PREC and _PREC[left[0]] < prec:
            lt = "(%s)" % lt
        if right[0] in _PREC and _PREC[right[0]] <= prec:
            rt = "(%s)" % rt
        return "%s %s %s" % (lt, _INFIX[kind], rt)
    return "%s(%s, %s)" % (kind, render(expr[1]), render(expr[2]))


def dump(expr):
    """The s-expression `boolfrac parse` prints for this tree."""
    kind = expr[0]
    if kind == "ref":
        return "(ref %s)" % expr[1]
    if kind == "set":
        return "(set%s)" % "".join(" " + name for name in expr[1])
    if kind == "not":
        return "(not %s)" % dump(expr[1])
    return "(%s %s %s)" % (kind, dump(expr[1]), dump(expr[2]))


class Space:
    """Atom names, named events (as atom sets) and measures."""

    def __init__(self, atoms, events, measures):
        self.atoms = tuple(atoms)
        self.events = dict(events)
        self.measures = dict(measures)

    def leaf_set(self, name):
        """The atoms a bare name denotes: an event if one has that name,
        else the atom itself."""
        if name in self.events:
            return self.events[name]
        return frozenset((name,))

    def row(self, expr):
        """The expression's truth value at every atom, in atom order."""
        kind = expr[0]
        if kind in ("ref", "set"):
            members = self.leaf_set(expr[1]) if kind == "ref" else frozenset(expr[1])
            return tuple(T if atom in members else F for atom in self.atoms)
        if kind == "not":
            return tuple(op_not(v) for v in self.row(expr[1]))
        op = BINARY[kind]
        return tuple(op(p, q) for p, q in zip(self.row(expr[1]), self.row(expr[2])))

    def event_set(self, expr):
        """An event-level expression (refs, sets, ~, and, or) as an atom set."""
        return frozenset(a for a, v in zip(self.atoms, self.row(expr)) if v == T)

    def text(self, row):
        """`eval` output: the normal form, or UNDEFINED for an empty condition."""
        if all(v == U for v in row):
            return "UNDEFINED"
        cons = ",".join(a for a, v in zip(self.atoms, row) if v == T)
        cond = ",".join(a for a, v in zip(self.atoms, row) if v != U)
        return "({%s}|{%s})" % (cons, cond)

    def prob(self, measure, row):
        """P(row) under a measure, or None when the condition weighs zero."""
        weights = self.measures[measure]
        num = sum((w for w, v in zip(weights, row) if v == T), Fraction(0))
        den = sum((w for w, v in zip(weights, row) if v != U), Fraction(0))
        if den == 0:
            return None
        return num / den


def _leq(xs, ys):
    return all(not x or y for x, y in zip(xs, ys))


def relation(tag, row_x, row_y):
    """A relation between two conditionals, from the relations docstring,
    with x = (a|b) and y = (c|d) read off atom by atom."""
    ab = [v == T for v in row_x]          # a&b
    nab = [v == F for v in row_x]         # a'b
    b = [v != U for v in row_x]
    cd = [v == T for v in row_y]
    ncd = [v == F for v in row_y]
    d = [v != U for v in row_y]
    if tag == "tr":
        return _leq(ab, cd)
    if tag == "nf":
        return _leq(ncd, nab)
    if tag == "ap":
        return _leq(b, d)
    if tag == "pm":
        return _leq(ab, cd) and _leq(ncd, nab)
    if tag == "vee":
        return _leq(b, d) and _leq(ab, cd)
    if tag == "wedge":
        return _leq(d, b) and _leq(ncd, nab)
    if tag == "bo":
        return b == d and _leq(ab, cd)
    if tag == "orth":
        return _leq(ab, ncd) and _leq(cd, nab)
    if tag == "simver":
        return _leq(ab, d) and _leq(cd, b)
    if tag == "simfals":
        return _leq(nab, d) and _leq(ncd, b)
    if tag == "compat":
        return b == d
    if tag == "subalg":
        return b == d and any(b)
    raise ValueError("unknown relation tag: %r" % (tag,))


RELATION_TAGS = (
    "tr", "nf", "ap", "pm", "vee", "wedge", "bo",
    "orth", "simver", "simfals", "compat", "subalg",
)


def profile(row_x, row_y):
    """The seven verifiability flags of an ordered pair."""
    ab = [v == T for v in row_x]
    nab = [v == F for v in row_x]
    b = [v != U for v in row_x]
    cd = [v == T for v in row_y]
    d = [v != U for v in row_y]
    return (
        _leq(ab, d),
        _leq(nab, d),
        relation("simver", row_x, row_y),
        relation("simfals", row_x, row_y),
        _leq(nab, d) and _leq(cd, b),
        _leq(b, d),
        b == d,
    )
