"""Exhaustive verification of the algebra's laws over small spaces.

Every law in the catalog is checked by brute force: all conditionals
(all pairs, all triples, ...) over a space of `atoms` atoms named
"1", "2", ..., and for measure-sensitive laws all weight vectors with
entries in 0..max_weight except the all-zero one. A LawReport records
how many instances were evaluated and, when the law fails, the first
counterexample in enumeration order: conditions ascend as bitmasks and
consequents ascend within each condition, so reruns are byte-identical.

The checks deliberately take two routes to each fact. Equations are
evaluated through the bit kernels in `conditional` (and the independent
ones in `schay`), while the side conditions characterizing them are
spelled out as direct bit inequalities here. A mutation in a kernel
therefore shows up as a mismatch against the independent
characterization rather than being silently replicated on both sides.

`check` owns the instance count. It hands each law a counter, a
one-element list, and the law advances counter[0] by one for each
instance before it evaluates the instance. A law returns None on PASS
and `(template, fields)` at its first failure, a template that names its
fields (%(x)s) and a dict of them; `check` renders every field a
template names the same way: a (q, c) pair or a Conditional through
`format_conditional`, a bool as true/false, anything else with %s. Only
t3.11 passes with a note, which it returns as a string. A law body that
raises (a mutated kernel can make a probability undefined) is a FAIL
whose counterexample reads "raised <Type>: <message>"; instances_checked
is the counter at the raise, the raising instance included.

Every check whose body calls only bit kernels and raw bit inequalities
goes through one driver, `_sweep`: a law gives it the counter, an arity
(singles, pairs or triples), its kernels, its clauses (lhs and rhs,
optionally with a side condition) and its templates, and chains its
sweeps with `or`. The driver bit-slices after Biham, "A fast new DES
implementation in software" (FSE 1997). Over n atoms a block packs
instances into one int per operand component, one instance per n-bit
lane: singles pack all 3**n conditionals into one block, pairs all 9**n
pairs (pairs[i], pairs[j]) into one block with the pair at bit
n*(3**n*i + j), and triples keep one such pair block per outer x, which
is broadcast to every lane by multiplying with the repunit
R = sum of 1 << n*k. The counter advances by the whole block before its
clauses run. A check ORs the bits of each lane of `lhs ^ rhs` (and of
its side condition) into the lane's lowest bit and masks with R, leaving
one flag per lane. The lowest flagged lane k is the first failure in
enumeration order: the counter is set back to the count before the
block plus k + 1, and the failure's operands and results are read back
from lane k. A later clause is evaluated only while lane 0 passes the
earlier ones. A lead kernel on the outer operands (not x, say) runs
before a block is counted, where a plain loop took it once per outer
operand. Driver templates name the fields %(x)s, %(y)s, %(z)s, %(lhs)s,
%(rhs)s, %(holds)s (lhs == rhs) and %(side)s (the side condition
holds). Only the fields a template names are rendered, so an unnamed
result out of normal form never reaches a Conditional.

A block is sliced only when every kernel it calls is lane-local: one
call on 16-row truth tables, one per operand component (q1, c1, q2,
c2), which support only &, | and ~ and the constants 0 and -1, returns
two tables that keep q inside c on the 9 normal-form rows and are 0 on
the all-zero row, so nothing lands outside the space. Such a kernel
computes one Boolean function at every bit position, so the
certificate holds at every atom count and lane width. (A kernel that
branched on the type of its operands could fool it; none here does.) A
kernel that fails it (a per-atom loop, one that compares, branches,
shifts, adds, masks with the space or leaves normal form) gets blocks
of one instance each: the kernels then see the pairs themselves and
results compare as Python values, exactly as in a plain loop, so
counts at a raise and out-of-normal-form results are reported as
before. A raise inside a sliced block leaves the whole block counted.

Two laws slice outside the driver, under the same certificate, and
keep their loops for uncertified kernels. truth-tables counts one
instance per (pair, atom, op): with and_, or_, given and not certified
it calls each op once on the pair block, and not once on the single
block, and compares where a result is T (q), F (c & ~q) and U (~c
within the block) with the masks the `trivalent` tables give, read at
check time. Op j at atom i of pair lane k is instance 3n*k + 3i + j,
and not at atom i of lane k is n*k + i: the lowest bit set in any
difference gives k and i, and the first difference that has it gives
j. t3.17's folded families, with or_ and and_ certified, take one block
per condition c and family size, the multisets of 1 to 3 conditionals
jointly verifiable with c in byte lanes in combinations_with_replacement
order, folded with one or_ and one and_ call per position; the lowest
failing lane is the first failing family. Only their packed operands,
which no kernel computed, are cached.

Laws whose bodies are more than bit kernels keep their own loops:
t2.13 and superposition's grid part sum probabilities over measure
grids (they are the only laws that import `prob`), t2.18, t2.19, t3.2,
t3.7, c3.8 and c3.16 call `relations`, and schay-2.12 builds
Conditionals.

Budgets: the triple-quantified laws run up to 4 atoms; laws that sweep
measure grids, search for decompositions, or close subalgebras stop at
3 (their instance spaces grow much faster). check_all clamps each law
to its own budget.
"""

import operator
from functools import lru_cache, reduce
from itertools import chain, combinations_with_replacement, islice, product

from . import conditional as cnd
from . import relations as rel
from . import schay
from . import trivalent as tv
from ._record import Record, _set
from .errors import TooLarge, UnknownLaw
from .lang import format_conditional
from .space import Event, SampleSpace


class LawReport(Record):
    __slots__ = _fields = ("law", "atom_count", "instances_checked", "passed",
                           "counterexample", "note")

    def __init__(self, law, atom_count, instances_checked, passed, counterexample=None,
                 note=None):
        _set(self, "law", law)
        _set(self, "atom_count", atom_count)
        _set(self, "instances_checked", instances_checked)
        _set(self, "passed", passed)
        _set(self, "counterexample", counterexample)
        _set(self, "note", note)


MAX_ENUMERATION_ATOMS = 5


def law_space(atoms):
    """The standard checking space: atoms "1" .. str(atoms), valid by construction."""
    return SampleSpace((str(i + 1) for i in range(atoms)), _checked=True)


@lru_cache(maxsize=16)
def _checking_space(atoms):
    """law_space(atoms) and its 3**n normal-form pairs, built once per
    atom count; the pairs are a tuple, so no law can change them."""
    space = law_space(atoms)
    return space, tuple(cnd.enumerate_conditionals_bits(space.full_bits))


def enumerate_conditionals(space):
    """All 3**n conditionals of a space, in canonical enumeration order."""
    if space.n > MAX_ENUMERATION_ATOMS:
        raise TooLarge("refusing to enumerate conditionals over %d atoms" % space.n)
    return [cnd.Conditional(space, q, c)
            for q, c in cnd.enumerate_conditionals_bits(space.full_bits)]


def _grids(space, max_weight):
    """All usable weight vectors, ascending lexicographically."""
    for weights in product(range(max_weight + 1), repeat=space.n):
        if any(weights):
            yield weights


# ------------------------------------------------------- lane blocks


def _pack(values, width):
    """One int holding values[k] in the width-bit lane at bit width*k."""
    packed = 0
    for value in reversed(values):
        packed = packed << width | value
    return packed


def _rows(value):
    """The rows of a truth table, or of the constant 0 or -1."""
    if isinstance(value, _Table):
        return value.rows
    if type(value) is int and value in (0, -1):
        return value & 0xFFFF
    raise TypeError("not a lane-local operand: %r" % (value,))


class _Table:
    """A Boolean function of (q1, c1, q2, c2) as a 16-row truth table:
    row r holds q1, c1, q2 and c2 in its bits 0 to 3. It combines by &,
    | and ~ with another table or the constants 0 and -1; anything else
    (a truth test, ==, hashing, a shift, arithmetic, another constant)
    raises."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __and__(self, other):
        return _Table(self.rows & _rows(other))

    def __or__(self, other):
        return _Table(self.rows | _rows(other))

    def __invert__(self):
        return _Table(self.rows ^ 0xFFFF)

    def __eq__(self, other):  # defining __eq__ also makes the table unhashable
        raise TypeError("a truth table has no value to compare")

    def __bool__(self):
        raise TypeError("a truth table has no truth value")

    __rand__ = __and__
    __ror__ = __or__
    __ne__ = __eq__


_OPERANDS = tuple(sum(1 << r for r in range(16) if r >> i & 1) for i in range(4))
_NORMAL_ROWS = sum(1 << r for r in range(16) if r & 0b0101 & ~(r >> 1) == 0)


def _lane_local(kernel, arity=2):
    """Whether a kernel of `arity` conditionals computes the same Boolean
    function at every bit position of its operands, and so at every width
    and lane.

    The kernel runs once on truth tables of (q1, c1, q2, c2), the first
    2 * arity of them. It is certified when nothing raises and it returns
    two tables (or 0) with q inside c on the 9 rows of normal-form
    operands, both 0 on the all-zero row: bits outside every operand's
    condition stay 0.
    """
    try:
        result = kernel(*map(_Table, _OPERANDS[:2 * arity]))
        if type(result) is not tuple or len(result) != 2:
            return False
        q, c = map(_rows, result)
    except Exception:  # a kernel that leaves the table operations is not certified
        return False
    return q & ~c & _NORMAL_ROWS == 0 and (q | c) & 1 == 0


def _diff(lhs, rhs):
    """The bits where two results, ints or nested tuples of ints, differ."""
    if isinstance(lhs, tuple):
        return reduce(operator.or_, map(_diff, lhs, rhs))
    return lhs ^ rhs


@lru_cache(maxsize=16)
def _block(n, pairs, inner):
    """The repunit of a block over `pairs` in n-bit lanes, which has a 1
    at the low bit of every lane, and the block's packed operand
    components: with one operand, pairs[i] sits in the lane at bit n*i;
    with two, (pairs[i], pairs[j]) sits in the lane at bit
    n*(len(pairs)*i + j)."""
    size = len(pairs)
    row = _pack([1] * size, n)
    components = list(zip(*pairs))
    if inner == 1:
        return row, tuple(_pack(v, n) for v in components)
    column = _pack([1] * size, n * size)
    return row * column, (*(_pack(v, n * size) * row for v in components),
                          *(_pack(v, n) * column for v in components))


def _sweep(space, pairs, counter, arity, kernels, clauses, templates, lead=None, constants=()):
    """Check `clauses` on every `arity`-tuple of `pairs`, first operand
    outermost, advancing counter[0] by one per instance.

    `kernels` maps every kernel the clauses and the lead call to its
    number of operands. A clause maps q1, c1, q2, c2, ... (then the
    lead's result on the first max(1, arity - 1) operands, when a lead is
    given, then `constants`, ints broadcast to every lane like an outer
    operand) to (lhs, rhs), failing where they differ, or
    to (lhs, rhs, side), failing where they differ and side is empty or
    agree and side is not; lhs and rhs are ints or tuples of them, which
    may nest. The lead runs before a block's instances are counted, so
    an instance is not counted when its lead raises. A clause runs only
    while lane 0 passes the ones before it. Returns None when every
    clause holds, or at the first failure `(templates[i], fields)` for
    its clause i, with counter[0] at the failing instance: the fields are
    the operands x, y, z, lhs, rhs, holds (whether they are equal) and,
    for a side clause, side (whether it is empty).
    """
    n = space.n
    size = len(pairs)
    if all(_lane_local(kernel, operands) for kernel, operands in kernels.items()):
        # The last min(arity, 2) operands are packed into the block; the
        # ones before them are broadcast to every lane.
        inner = min(arity, 2)
        lanes, packed = _block(n, tuple(pairs), inner)
        blocks = (((*(v * lanes for v in sum(prefix, ())), *packed), prefix)
                  for prefix in product(pairs, repeat=arity - inner))
        constants = tuple(v * lanes for v in constants)
        mask = (1 << n) - 1

        def flag(bits):
            """One bit per lane, set where the lane has any bit set."""
            folded = bits
            for shift in range(1, n):
                folded |= bits >> shift
            return folded & lanes

        def differ(lhs, rhs):
            return flag(_diff(lhs, rhs))

        def lane(value, k):
            if isinstance(value, tuple):
                return tuple(lane(v, k) for v in value)
            return value >> n * k & mask
    else:
        # One instance per block: the kernels see the pairs themselves and
        # results compare as Python values, as in a plain loop.
        inner = 0
        blocks = ((sum(prefix, ()), prefix) for prefix in product(pairs, repeat=arity))
        flag = bool
        differ = operator.ne

        def lane(value, k):
            return value
    block = size ** inner
    leading = 2 * max(1, arity - 1)
    for operands, prefix in blocks:
        if lead is not None:
            operands += (lead(*operands[:leading]),)
        operands += constants
        counter[0] += block
        checked = []
        failed = 0
        for clause in clauses:
            result = clause(*operands)
            bits = differ(result[0], result[1])
            if len(result) == 3:
                bits ^= flag(result[2])
            checked.append((bits, result))
            failed |= bits
            if failed & 1:
                break
        if failed:
            k = ((failed & -failed).bit_length() - 1) // n
            check = next(i for i, (bits, _) in enumerate(checked) if bits >> n * k & 1)
            lhs, rhs, *side = (lane(v, k) for v in checked[check][1])
            instance = prefix + tuple(pairs[k // size ** e % size] for e in reversed(range(inner)))
            fields = dict(zip("xyz", instance), lhs=lhs, rhs=rhs, holds=lhs == rhs)
            if side:
                fields["side"] = not side[0]
            counter[0] += k + 1 - block
            return templates[check], fields
    return None


# Counterexample templates shared by laws with the same message.
_EQUATION_SIDE = "x=%(x)s y=%(y)s z=%(z)s lhs=%(lhs)s rhs=%(rhs)s side=%(side)s"
_ABSORPTION_SIDE = "x=%(x)s z=%(y)s lhs=%(lhs)s side=%(side)s"
_LATTICE_PAIRS = ("meet not commutative", "join not commutative",
                  "absorption meet-join fails", "absorption join-meet fails")
_LATTICE_TRIPLES = ("meet not associative", "join not associative",
                    "meet does not distribute", "join does not distribute")


# ---------------------------------------------------------------- laws


def _law_t2_4(space, pairs, max_weight, counter):
    """and_(x, or_(y, z)) == or_(and_(x, y), and_(x, z)) iff
    ab & e'f <= d and ab & c'd <= f."""
    or_b, and_b = cnd.or_bits, cnd.and_bits

    def clause(q1, c1, q2, c2, q3, c3):
        return (and_b(q1, c1, *or_b(q2, c2, q3, c3)),
                or_b(*and_b(q1, c1, q2, c2), *and_b(q1, c1, q3, c3)),
                (q1 & c3 & ~q3 & ~c2) | (q1 & c2 & ~q2 & ~c3))

    return _sweep(space, pairs, counter, 3, {or_b: 2, and_b: 2}, [clause], [_EQUATION_SIDE])


def _law_c2_5(space, pairs, max_weight, counter):
    """or_(x, and_(y, z)) == and_(or_(x, y), or_(x, z)) iff
    a'b & ef <= d and a'b & cd <= f."""
    or_b, and_b = cnd.or_bits, cnd.and_bits

    def clause(q1, c1, q2, c2, q3, c3):
        nay = c1 & ~q1
        return (or_b(q1, c1, *and_b(q2, c2, q3, c3)),
                and_b(*or_b(q1, c1, q2, c2), *or_b(q1, c1, q3, c3)),
                (nay & q3 & ~c2) | (nay & q2 & ~c3))

    return _sweep(space, pairs, counter, 3, {or_b: 2, and_b: 2}, [clause], [_EQUATION_SIDE])


def _law_t2_6(space, pairs, max_weight, counter):
    """or_(x, and_(y, z)) == and_(or_(x, y), z) iff
    ab & e'f == 0 and a'b & ef <= d."""
    or_b, and_b = cnd.or_bits, cnd.and_bits

    def clause(q1, c1, q2, c2, q3, c3):
        return (or_b(q1, c1, *and_b(q2, c2, q3, c3)),
                and_b(*or_b(q1, c1, q2, c2), q3, c3),
                (q1 & c3 & ~q3) | (c1 & ~q1 & q3 & ~c2))

    return _sweep(space, pairs, counter, 3, {or_b: 2, and_b: 2}, [clause], [_EQUATION_SIDE])


def _law_c2_7(space, pairs, max_weight, counter):
    """and_(x, or_(y, z)) == or_(and_(x, y), z) iff
    a'b & ef == 0 and ab & e'f <= d."""
    or_b, and_b = cnd.or_bits, cnd.and_bits

    def clause(q1, c1, q2, c2, q3, c3):
        return (and_b(q1, c1, *or_b(q2, c2, q3, c3)),
                or_b(*and_b(q1, c1, q2, c2), q3, c3),
                (c1 & ~q1 & q3) | (q1 & c3 & ~q3 & ~c2))

    return _sweep(space, pairs, counter, 3, {or_b: 2, and_b: 2}, [clause], [_EQUATION_SIDE])


def _law_c2_8(space, pairs, max_weight, counter):
    """and_(x, or_(not x, z)) == z iff b <= f and a'b <= e'f."""
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits

    def clause(q1, c1, q3, c3, neg):
        return (and_b(q1, c1, *or_b(*neg, q3, c3)), (q3, c3),
                (c1 & ~c3) | ((c1 & ~q1) & ~(c3 & ~q3)))

    return _sweep(space, pairs, counter, 2, {or_b: 2, and_b: 2, not_b: 1}, [clause],
                  [_ABSORPTION_SIDE], lead=not_b)


def _law_c2_9(space, pairs, max_weight, counter):
    """or_(x, and_(not x, z)) == z iff b <= f and ab <= ef."""
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits

    def clause(q1, c1, q3, c3, neg):
        return or_b(q1, c1, *and_b(*neg, q3, c3)), (q3, c3), (c1 & ~c3) | (q1 & ~q3)

    return _sweep(space, pairs, counter, 2, {or_b: 2, and_b: 2, not_b: 1}, [clause],
                  [_ABSORPTION_SIDE], lead=not_b)


def _law_props2_3(space, pairs, max_weight, counter):
    """Basic identities: idempotence, commutativity, associativity,
    double negation, De Morgan, U as pass-through, (0|1) and (1|1) as
    absolutes, and the conditioned absorption
    and_(x, y) == and_(y, given(x, y))."""
    or_b, and_b, not_b, giv_b = cnd.or_bits, cnd.and_bits, cnd.not_bits, cnd.given_bits
    singles = {  # full, the space's atoms, is a constant of the sweep
        "not(not x) == x": lambda q1, c1, full: (not_b(*not_b(q1, c1)), (q1, c1)),
        "or_(x, x) == x": lambda q1, c1, full: (or_b(q1, c1, q1, c1), (q1, c1)),
        "and_(x, x) == x": lambda q1, c1, full: (and_b(q1, c1, q1, c1), (q1, c1)),
        "or_(x, U) == x": lambda q1, c1, full: (or_b(q1, c1, 0, 0), (q1, c1)),
        "and_(x, U) == x": lambda q1, c1, full: (and_b(q1, c1, 0, 0), (q1, c1)),
        "or_(x, (0|1)) == (ab|1)": lambda q1, c1, full: (or_b(q1, c1, 0, full), (q1, full)),
        "and_(x, (0|1)) == (0|1)": lambda q1, c1, full: (and_b(q1, c1, 0, full), (0, full)),
        "or_(x, (1|1)) == (1|1)": lambda q1, c1, full: (or_b(q1, c1, full, full), (full, full)),
        "and_(x, (1|1)) == (a v b'|1)":
            lambda q1, c1, full: (and_b(q1, c1, full, full), (q1 | (full & ~c1), full)),
    }
    doubles = {
        "or_ not commutative": lambda q1, c1, q2, c2: (or_b(q1, c1, q2, c2), or_b(q2, c2, q1, c1)),
        "and_ not commutative":
            lambda q1, c1, q2, c2: (and_b(q1, c1, q2, c2), and_b(q2, c2, q1, c1)),
        "De Morgan (or) fails": lambda q1, c1, q2, c2: (
            not_b(*or_b(q1, c1, q2, c2)), and_b(*not_b(q1, c1), *not_b(q2, c2))),
        "De Morgan (and) fails": lambda q1, c1, q2, c2: (
            not_b(*and_b(q1, c1, q2, c2)), or_b(*not_b(q1, c1), *not_b(q2, c2))),
        "and_(x, y) != and_(y, given(x, y))": lambda q1, c1, q2, c2: (
            and_b(q1, c1, q2, c2), and_b(q2, c2, *giv_b(q1, c1, q2, c2))),
    }
    failure = _sweep(space, pairs, counter, 1, {or_b: 2, and_b: 2, not_b: 1},
                     list(singles.values()), ["%s fails at x=%%(x)s" % label for label in singles],
                     constants=(space.full_bits,))
    failure = failure or _sweep(space, pairs, counter, 2, {or_b: 2, and_b: 2, not_b: 1, giv_b: 2},
                                list(doubles.values()),
                                ["%s at x=%%(x)s y=%%(y)s" % label for label in doubles])
    return failure or _sweep(space, pairs, counter, 3, {or_b: 2, and_b: 2}, [
        lambda q1, c1, q2, c2, q3, c3: (or_b(*or_b(q1, c1, q2, c2), q3, c3),
                                        or_b(q1, c1, *or_b(q2, c2, q3, c3))),
        lambda q1, c1, q2, c2, q3, c3: (and_b(*and_b(q1, c1, q2, c2), q3, c3),
                                        and_b(q1, c1, *and_b(q2, c2, q3, c3))),
    ], [op + " not associative at x=%(x)s y=%(y)s z=%(z)s" for op in ("or_", "and_")])


def _law_t2_13(space, pairs, max_weight, counter):
    """P(x v y) == P(x) + P(y) exactly when one of the four degenerate
    cases applies: additive_law_check.holds iff its case list is
    nonempty, over every measure on the grid."""
    from . import prob

    events = [Event(space, bits) for bits in range(space.full_bits + 1)]
    for weights in _grids(space, max_weight):
        m = prob.Measure(space, weights)
        wb = m.weight_bits
        conds = [e for e in events if wb(e.bits) != 0]
        for e_c1 in conds:
            for e_c2 in conds:
                for e_a in events:
                    for e_b in events:
                        counter[0] += 1
                        rep = prob.additive_law_check(m, e_a, e_c1, e_b, e_c2)
                        if rep.holds != bool(rep.cases):
                            return ("weights=%(weights)s A=%(A)s C1=%(C1)s B=%(B)s C2=%(C2)s "
                                    "lhs=%(lhs)s rhs=%(rhs)s cases=%(cases)s",
                                    dict(weights=list(weights), A=e_a, C1=e_c1, B=e_b, C2=e_c2,
                                         lhs=rep.lhs, rhs=rep.rhs, cases=list(rep.cases)))
    return None


def _law_t2_18(space, pairs, max_weight, counter):
    """The conditionals orthogonal to c are exactly the family
    (a'b & x | ab v y) over all event pairs (x, y); and the inequality
    form of orthogonality coincides with and_(c, z) == (0 | b v d)."""
    and_b = cnd.and_bits
    all_bits = range(space.full_bits + 1)
    for p in pairs:
        q1, c1 = p
        cond_obj = cnd.Conditional(space, q1, c1)
        orth_set = set()
        for s in pairs:
            q2, c2 = s
            counter[0] += 1
            by_op = and_b(q1, c1, q2, c2) == (0, c1 | c2)
            by_ineq = rel.orthogonal_bits(q1, c1, q2, c2)
            if by_op != by_ineq:
                return ("orthogonality routes disagree at c=%(c)s z=%(z)s: op=%(op)s ineq=%(ineq)s",
                        dict(c=p, z=s, op=by_op, ineq=by_ineq))
            if by_ineq:
                orth_set.add(s)
        family = set()
        for xbits in all_bits:
            for ybits in all_bits:
                counter[0] += 1
                member = rel.ortho_family_member(cond_obj, Event(space, xbits),
                                                 Event(space, ybits))
                family.add((member.q, member.c))
        if family != orth_set:
            return ("family and orthogonality set differ at c=%(c)s, e.g. %(example)s",
                    dict(c=p, example=sorted(family ^ orth_set)[0]))
    return None


def _law_t2_19(space, pairs, max_weight, counter):
    """The set of conditionals orthogonal to c is closed under or_ and
    and_."""
    or_b, and_b = cnd.or_bits, cnd.and_bits
    template = "%s of orthogonals leaves the set at c=%%(c)s u=%%(u)s v=%%(v)s"
    for p in pairs:
        q1, c1 = p
        members = [s for s in pairs if rel.orthogonal_bits(q1, c1, *s)]
        member_set = set(members)
        for u in members:
            for v in members:
                counter[0] += 1
                if or_b(*u, *v) not in member_set:
                    return template % "or_", dict(c=p, u=u, v=v)
                if and_b(*u, *v) not in member_set:
                    return template % "and_", dict(c=p, u=u, v=v)
    return None


def _law_p2_20(space, pairs, max_weight, counter):
    """Negation is an involution (hence a bijection), reverses the pm
    order, and meets its relative complement laws:
    and_(x, not x) == (0|b), or_(x, not x) == (1|b)."""
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits

    def reverses(q1, c1, q2, c2):
        # pm(not y, not x) spelled on the negated pairs:
        nq1, nc1 = not_b(q2, c2)
        nq2, nc2 = not_b(q1, c1)
        return ((q1 & ~q2) | ((c2 & ~q2) & ~(c1 & ~q1)), 0,
                (nq1 & ~nq2) | ((nc2 & ~nq2) & ~(nc1 & ~nq1)))

    failure = _sweep(space, pairs, counter, 1, {or_b: 2, and_b: 2, not_b: 1}, [
        lambda q1, c1, neg: (not_b(*neg), (q1, c1)),
        lambda q1, c1, neg: (and_b(q1, c1, *neg), (0, c1)),
        lambda q1, c1, neg: (or_b(q1, c1, *neg), (c1, c1)),
    ], ["negation is not an involution at x=%(x)s", "and_(x, not x) != (0|b) at x=%(x)s",
        "or_(x, not x) != (1|b) at x=%(x)s"], lead=not_b)
    return failure or _sweep(space, pairs, counter, 2, {not_b: 1}, [reverses],
                             ["pm does not reverse under negation at x=%(x)s y=%(y)s"])


_TRUTH_VALUES = (tv.T, tv.F, tv.U)
_BINARY_TABLE = "%(op)s disagrees with its table at x=%(x)s y=%(y)s atom=%(atom)s"
_NOT_TABLE = "not disagrees with its table at x=%(x)s atom=%(atom)s"


def _truth_masks(q, c, full):
    """The bits where a (q, c) value evaluates to T, to F and to U, as
    eval_at_bit reads them; `full` has every bit of the block set."""
    return q, c & ~q, full & ~c


def _table_masks(table, *operands):
    """The bits where `table`, applied bit by bit to operands given by
    their T, F and U masks, gives T, F and U. An entry that is none of
    the three lands in no mask, so every result mismatches it."""
    masks = [0, 0, 0]
    for entry in product(range(3), repeat=len(operands)):
        value = table(*(_TRUTH_VALUES[v] for v in entry))
        if value in _TRUTH_VALUES:
            masks[_TRUTH_VALUES.index(value)] |= reduce(
                operator.and_, map(operator.getitem, operands, entry))
    return tuple(masks)


def _first_mismatch(diffs, n):
    """(lane, atom, j) for the lowest bit set in any of `diffs`, where
    lanes are n bits wide and diffs[j] is the first that has the bit;
    None when every diff is 0."""
    failed = reduce(operator.or_, diffs)
    if not failed:
        return None
    bit = (failed & -failed).bit_length() - 1
    return (*divmod(bit, n), next(j for j, d in enumerate(diffs) if d >> bit & 1))


def _law_truth_tables(space, pairs, max_weight, counter):
    """Pointwise soundness: evaluating op(x, y) at an outcome equals the
    three-valued table applied to the evaluations of x and y, for and_,
    or_, given and not. Over every pair this pins all thirty table
    entries."""
    ops = (
        ("and", cnd.and_bits, tv.tt_and),
        ("or", cnd.or_bits, tv.tt_or),
        ("given", cnd.given_bits, tv.tt_given),
    )
    if all(_lane_local(op) for _, op, _ in ops) and _lane_local(cnd.not_bits, 1):
        # The pair block and the single block: an atom is a bit of a lane,
        # so the loop's instance (pair lane k, atom i, op j) is number
        # 3n*k + 3i + j, and (lane k, atom i) of the negations is n*k + i.
        n, size = space.n, len(pairs)
        lanes, (q1, c1, q2, c2) = _block(n, tuple(pairs), 2)
        full = lanes * space.full_bits
        xs, ys = _truth_masks(q1, c1, full), _truth_masks(q2, c2, full)
        miss = _first_mismatch([_diff(_truth_masks(*op(q1, c1, q2, c2), full),
                                      _table_masks(table, xs, ys)) for _, op, table in ops], n)
        if miss:
            k, i, j = miss
            counter[0] += 3 * n * k + 3 * i + j + 1
            return _BINARY_TABLE, dict(op=ops[j][0], x=pairs[k // size], y=pairs[k % size],
                                       atom=space.atoms[i])
        counter[0] += 3 * n * size * size
        lanes, (q1, c1) = _block(n, tuple(pairs), 1)
        full = lanes * space.full_bits
        miss = _first_mismatch([_diff(_truth_masks(*cnd.not_bits(q1, c1), full),
                                      _table_masks(tv.tt_not, _truth_masks(q1, c1, full)))], n)
        if miss:
            k, i, _ = miss
            counter[0] += n * k + i + 1
            return _NOT_TABLE, dict(x=pairs[k], atom=space.atoms[i])
        counter[0] += n * size
        return None
    bits = [1 << i for i in range(space.n)]
    ev = tv.eval_at_bit
    for q1, c1 in pairs:
        for q2, c2 in pairs:
            results = [(name, op(q1, c1, q2, c2), table) for name, op, table in ops]
            for bit in bits:
                p_val = ev(q1, c1, bit)
                s_val = ev(q2, c2, bit)
                for name, (rq, rc), table in results:
                    counter[0] += 1
                    if ev(rq, rc, bit) != table(p_val, s_val):
                        return _BINARY_TABLE, dict(op=name, x=(q1, c1), y=(q2, c2),
                                                   atom=space.atoms[bit.bit_length() - 1])
    for q1, c1 in pairs:
        nq, nc = cnd.not_bits(q1, c1)
        for bit in bits:
            counter[0] += 1
            if ev(nq, nc, bit) != tv.tt_not(ev(q1, c1, bit)):
                return _NOT_TABLE, dict(x=(q1, c1), atom=space.atoms[bit.bit_length() - 1])
    return None


def _law_superposition(space, pairs, max_weight, counter):
    """The context split b&d' / b'&d / b&d: the three-term conditional
    identities for or_ and and_, the or==and criterion
    (ab & c'd == 0 == a'b & cd), and the probability expansions
    p_or_formula / p_superposition agreeing with p_cond on every grid
    measure."""
    from . import prob

    or_b, and_b = cnd.or_bits, cnd.and_bits

    def two_term(q1, c1, q2, c2):
        union = c1 | c2
        return or_b(q1, c1, q2, c2), or_b(*and_b(q1, c1, c1, union), *and_b(q2, c2, c2, union))

    def three_term(q1, c1, q2, c2, shared):
        """The parts of x and y on the contexts b&d' and b'&d, joined with
        `shared` on b&d."""
        union = c1 | c2
        return or_b(*or_b(*and_b(q1, c1, c1 & ~c2, union), *and_b(q2, c2, c2 & ~c1, union)),
                    shared & c1 & c2, union)

    failure = _sweep(space, pairs, counter, 2, {or_b: 2, and_b: 2}, [
        two_term,
        lambda q1, c1, q2, c2: (or_b(q1, c1, q2, c2), three_term(q1, c1, q2, c2, q1 | q2)),
        lambda q1, c1, q2, c2: (and_b(q1, c1, q2, c2), three_term(q1, c1, q2, c2, q1 & q2)),
        lambda q1, c1, q2, c2: (or_b(q1, c1, q2, c2), and_b(q1, c1, q2, c2),
                                (q1 & c2 & ~q2) | (c1 & ~q1 & q2)),
    ], ["two-term split fails at x=%(x)s y=%(y)s lhs=%(lhs)s rhs=%(rhs)s",
        "three-term or split fails at x=%(x)s y=%(y)s lhs=%(lhs)s rhs=%(rhs)s",
        "three-term and split fails at x=%(x)s y=%(y)s lhs=%(lhs)s rhs=%(rhs)s",
        "or==and criterion fails at x=%(x)s y=%(y)s"])
    if failure:
        return failure
    conds = [cnd.Conditional(space, q, c) for q, c in pairs]
    for weights in _grids(space, max_weight):
        m = prob.Measure(space, weights)
        wb = m._iw
        for x in conds:
            for y in conds:
                if wb(x.c | y.c) == 0:
                    continue
                counter[0] += 1
                direct_or = prob.p_cond(m, cnd.or_(x, y))
                direct_and = prob.p_cond(m, cnd.and_(x, y))
                ok = (
                    prob.p_or_formula(m, x, y) == direct_or
                    and prob.p_superposition(m, x, y, "or") == direct_or
                    and prob.p_superposition(m, x, y, "and") == direct_and
                )
                if not ok:
                    return ("probability expansions disagree at weights=%(weights)s x=%(x)s "
                            "y=%(y)s", dict(weights=list(weights), x=x, y=y))
    return None


def _decomposition_index(pairs):
    """For every conditional j: the orthogonal splittings or_(p, r) == j,
    grouped by the shared part r."""
    or_b = cnd.or_bits
    orth = rel.orthogonal_bits
    index = {}
    for p in pairs:
        for r in pairs:
            if orth(*p, *r):
                j = or_b(*p, *r)
                index.setdefault(j, {}).setdefault(r, []).append(p)
    return index


def _law_t3_2(space, pairs, max_weight, counter):
    """Simultaneous verifiability (ab <= d and cd <= b) holds exactly
    when x and y split into pairwise-orthogonal private parts plus a
    shared part: x == or_(u, w), y == or_(v, w). The search is a full
    enumeration of all splittings."""
    orth = rel.orthogonal_bits
    index = _decomposition_index(pairs)
    for x in pairs:
        q1, c1 = x
        by_r_x = index.get(x, {})
        for y in pairs:
            q2, c2 = y
            counter[0] += 1
            expected = (q1 & ~c2) == 0 and (q2 & ~c1) == 0
            by_r_y = index.get(y, {})
            found = any(
                orth(*u, *v)
                for r, us in by_r_x.items() if r in by_r_y
                for u in us for v in by_r_y[r]
            )
            if found != expected:
                return ("decomposition search disagrees with the inequality at "
                        "x=%(x)s y=%(y)s: search=%(search)s inequality=%(inequality)s",
                        dict(x=x, y=y, search=found, inequality=expected))
    return None


def _law_c3_3(space, pairs, max_weight, counter):
    """and_(x, y) == (abcd | b v d) exactly when x and y are
    simultaneously verifiable."""
    and_b = cnd.and_bits
    return _sweep(space, pairs, counter, 2, {and_b: 2}, [
        lambda q1, c1, q2, c2: (and_b(q1, c1, q2, c2), (q1 & q2, c1 | c2),
                                (q1 & ~c2) | (q2 & ~c1)),
    ], ["x=%(x)s y=%(y)s collapse=%(holds)s simver=%(side)s"])


def _law_c3_5(space, pairs, max_weight, counter):
    """Simultaneous falsifiability (a'b <= d and c'd <= b) is
    simultaneous verifiability of the negations."""
    not_b = cnd.not_bits

    def clause(q1, c1, q2, c2):
        nx, ny = not_b(q1, c1), not_b(q2, c2)
        return (((c1 & ~q1) & ~c2) | ((c2 & ~q2) & ~c1), 0,
                (nx[0] & ~ny[1]) | (ny[0] & ~nx[1]))

    return _sweep(space, pairs, counter, 2, {not_b: 1}, [clause],
                  ["x=%(x)s y=%(y)s direct=%(holds)s negated=%(side)s"])


def _law_c3_6(space, pairs, max_weight, counter):
    """Simultaneously verifiable and falsifiable == equal conditions."""
    return _sweep(space, pairs, counter, 2, {}, [
        lambda q1, c1, q2, c2: ((q1 & ~c2) | (q2 & ~c1) | ((c1 & ~q1) & ~c2) | ((c2 & ~q2) & ~c1),
                                0, c1 ^ c2),
    ], ["x=%(x)s y=%(y)s simver_and_simfals=%(holds)s same_condition=%(side)s"])


def _law_t3_7(space, pairs, max_weight, counter):
    """The subalgebra generated by x and y is Boolean exactly when their
    conditions are equal and nonempty."""
    for x in pairs:
        q1, c1 = x
        for y in pairs:
            q2, c2 = y
            counter[0] += 1
            is_boolean = rel.subalgebra_bits(space, {x, y})[1]
            if is_boolean != (c1 == c2 != 0):
                return ("x=%(x)s y=%(y)s is_boolean=%(is_boolean)s "
                        "same_nonempty_condition=%(same)s",
                        dict(x=x, y=y, is_boolean=is_boolean, same=c1 == c2 != 0))
    return None


def _law_c3_8(space, pairs, max_weight, counter):
    """Jointly verifiable and falsifiable == equal conditions; with a
    nonempty shared condition that is exactly membership in a common
    Boolean subalgebra."""
    for x in pairs:
        q1, c1 = x
        for y in pairs:
            q2, c2 = y
            counter[0] += 1
            simver = (q1 & ~c2) == 0 and (q2 & ~c1) == 0
            simfals = ((c1 & ~q1) & ~c2) == 0 and ((c2 & ~q2) & ~c1) == 0
            if (simver and simfals) != (c1 == c2):
                return ("x=%(x)s y=%(y)s simver=%(simver)s simfals=%(simfals)s",
                        dict(x=x, y=y, simver=simver, simfals=simfals))
            if c1 == c2 != 0:
                if not rel.subalgebra_bits(space, {x, y})[1]:
                    return ("x=%(x)s y=%(y)s share a nonempty condition but generate a "
                            "non-Boolean subalgebra", dict(x=x, y=y))
    return None


def _law_t3_9(space, pairs, max_weight, counter):
    """and_(x, z) == (0 | b v f) and or_(x, z) == (1 | b v f) together
    happen exactly when b == f and z == not x."""
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits

    def clause(q1, c1, q3, c3, neg):
        union = c1 | c3
        return ((and_b(q1, c1, q3, c3), or_b(q1, c1, q3, c3)), ((0, union), (union, union)),
                (c1 ^ c3) | (q3 ^ neg[0]) | (c3 ^ neg[1]))

    return _sweep(space, pairs, counter, 2, {or_b: 2, and_b: 2, not_b: 1}, [clause],
                  ["x=%(x)s z=%(y)s complement_pair=%(holds)s right=%(side)s"], lead=not_b)


def _law_t3_11(space, pairs, max_weight, counter):
    """osum is commutative with (0|b) as same-condition neutral,
    osum(x, x) == (0|b), and not x as the unique z with
    osum(x, z) == (1|b). Associativity of the total operation is not a
    law; its status is reported in the note."""
    osum_b, not_b = cnd.osum_bits, cnd.not_bits
    failure = _sweep(space, pairs, counter, 1, {osum_b: 2, not_b: 1}, [
        lambda q1, c1: (osum_b(q1, c1, 0, c1), (q1, c1)),
        lambda q1, c1: (osum_b(q1, c1, q1, c1), (0, c1)),
        lambda q1, c1: (osum_b(q1, c1, *not_b(q1, c1)), (c1, c1)),
    ], ["osum(x, (0|b)) != x at x=%(x)s", "osum(x, x) != (0|b) at x=%(x)s",
        "osum(x, not x) != (1|b) at x=%(x)s"])
    # The side clause fails where osum(x, z) == (1|b) and z != not x; at
    # z == not x, osum(x, z) == (1|b) passed among the singles.
    failure = failure or _sweep(space, pairs, counter, 2, {osum_b: 2, not_b: 1}, [
        lambda q1, c1, q2, c2, neg: (osum_b(q1, c1, q2, c2), osum_b(q2, c2, q1, c1)),
        lambda q1, c1, q2, c2, neg: (osum_b(q1, c1, q2, c2), (c1, c1),
                                     (q2 ^ neg[0]) | (c2 ^ neg[1])),
    ], ["osum not commutative at x=%(x)s z=%(y)s",
        "complement not unique: osum(x, z) == (1|b) at x=%(x)s z=%(y)s"], lead=not_b)
    if failure:
        return failure
    # Not a law: a triple where osum does not associate is the note.
    example = _sweep(space, pairs, counter, 3, {osum_b: 2}, [
        lambda q1, c1, q2, c2, q3, c3: (osum_b(*osum_b(q1, c1, q2, c2), q3, c3),
                                        osum_b(q1, c1, *osum_b(q2, c2, q3, c3))),
    ], ["informative: the total osum is not associative, e.g. x=%(x)s y=%(y)s z=%(z)s"])
    return _render(space, *example) if example else "osum associativity holds over this space"


def _law_t3_15(space, pairs, max_weight, counter):
    """sasaki(b, a): fixes a iff cond(b) <= cond(a) and the falsity
    region of b lies inside that of a; annihilates to (0 | a2 v b2) iff
    the consequent of a lies in the falsity region of b; is idempotent
    in its second argument; composes via and_ of the projectors; and
    two projections onto the same target commute."""
    and_b, sas_b = cnd.and_bits, cnd.sasaki_bits

    def idempotent(qb, cb, qa, ca):
        proj = sas_b(qb, cb, qa, ca)
        return sas_b(qb, cb, *proj), proj

    failure = _sweep(space, pairs, counter, 2, {sas_b: 2}, [
        lambda qb, cb, qa, ca: (sas_b(qb, cb, qa, ca), (qa, ca),
                                (cb & ~ca) | ((cb & ~qb) & ~(ca & ~qa))),
        lambda qb, cb, qa, ca: (sas_b(qb, cb, qa, ca), (0, ca | cb), qa & ~(cb & ~qb)),
        idempotent,
    ], ["fixed-point criterion fails at b=%(x)s a=%(y)s",
        "annihilation criterion fails at b=%(x)s a=%(y)s",
        "projection not idempotent at b=%(x)s a=%(y)s"])

    # Triples (b, c, a); the lead is meet = and_(b, c).
    def nested(qb, cb, qc, cc, qa, ca):
        return sas_b(qc, cc, *sas_b(qb, cb, qa, ca))

    return failure or _sweep(space, pairs, counter, 3, {and_b: 2, sas_b: 2}, [
        lambda qb, cb, qc, cc, qa, ca, meet: (nested(qb, cb, qc, cc, qa, ca),
                                              sas_b(*meet, qa, ca)),
        lambda qb, cb, qc, cc, qa, ca, meet: (nested(qb, cb, qc, cc, qa, ca),
                                              sas_b(qb, cb, *sas_b(qc, cc, qa, ca))),
    ], ["composition via and_ fails at b=%(x)s c=%(y)s a=%(z)s",
        "projections do not commute at b=%(x)s c=%(y)s a=%(z)s"], lead=and_b)


def _law_c3_16(space, pairs, max_weight, counter):
    """sasaki(b, a) == a exactly when and_(a, b) == a; it annihilates
    exactly when tr(a, not b); and sasaki(c, c) == c."""
    conds = [cnd.Conditional(space, q, c) for q, c in pairs]
    for c in conds:
        counter[0] += 1
        if cnd.sasaki(c, c) != c:
            return "sasaki(c, c) != c at c=%(c)s", dict(c=c)
    for b in conds:
        nb = cnd.negate(b)
        for a in conds:
            counter[0] += 1
            proj = cnd.sasaki(b, a)
            if (proj == a) != rel.holds("wedge", a, b):
                return ("fixed point does not match the wedge order at b=%(b)s a=%(a)s",
                        dict(b=b, a=a))
            zero = cnd.Conditional(space, 0, a.c | b.c)
            if (proj == zero) != rel.holds("tr", a, nb):
                return ("annihilation does not match tr(a, not b) at b=%(b)s a=%(a)s",
                        dict(b=b, a=a))
    return None


def _law_t3_17(space, pairs, max_weight, counter):
    """Sasaki projection interplay with or_: absorbing a projection
    through the complement, distribution over or_, the commutation /
    coincidence criteria, the two-sided verifiability criterion, and
    closure of joint verifiability under folded or_ and and_."""
    or_b, and_b, not_b, sas_b = cnd.or_bits, cnd.and_bits, cnd.not_bits, cnd.sasaki_bits

    def bounded(qb, cb, qa, ca, nb):
        pq, pc = sas_b(qb, cb, qa, ca)
        return (pq & ~qa, pc), (0, ca), cb & ~ca

    # Pairs (b, a); the lead is nb = not b.
    failure = _sweep(space, pairs, counter, 2, {or_b: 2, and_b: 2, not_b: 1, sas_b: 2}, [
        lambda qb, cb, qa, ca, nb: (or_b(qb, cb, qa, ca), or_b(qb, cb, *sas_b(*nb, qa, ca))),
        lambda qb, cb, qa, ca, nb: (sas_b(qb, cb, qa, ca), sas_b(qa, ca, qb, cb),
                                    (qb & ~ca) | (qa & ~cb)),
        lambda qb, cb, qa, ca, nb: (sas_b(qb, cb, qa, ca), and_b(qb, cb, qa, ca), qb & ~ca),
        bounded,
        lambda qb, cb, qa, ca, nb: ((qb & ~ca) | (qa & ~cb) | (nb[0] & ~ca) | (qa & ~nb[1]), 0,
                                    (qa & ~cb) | (cb & ~ca)),
    ], ["or_(b, a) != or_(b, sasaki(not b, a)) at b=%(x)s a=%(y)s",
        "commutation criterion fails at b=%(x)s a=%(y)s",
        "coincidence-with-and_ criterion fails at b=%(x)s a=%(y)s",
        "bounded-order criterion fails at b=%(x)s a=%(y)s",
        "two-sided verifiability criterion fails at b=%(x)s a=%(y)s"], lead=not_b)
    # Triples (c, b, a); the lead is proj_b = sasaki(c, b).
    failure = failure or _sweep(space, pairs, counter, 3, {or_b: 2, sas_b: 2}, [
        lambda qc, cc, qb, cb, qa, ca, proj_b: (sas_b(qc, cc, *or_b(qb, cb, qa, ca)),
                                                or_b(*proj_b, *sas_b(qc, cc, qa, ca))),
    ], ["projection does not distribute over or_ at c=%(x)s b=%(y)s a=%(z)s"], lead=sas_b)
    if failure:
        return failure
    # Folded families stay on 3 atoms; their pairs render alike on a larger law space.
    return _folded_families(min(space.n, 3), counter)


def _folding_failure(c, family):
    names = "xyz"[:len(family)]
    return ("joint verifiability not preserved by folding at c=%%(c)s family=[%s]"
            % " ".join("%%(%s)s" % name for name in names), dict(zip(names, family), c=c))


@lru_cache(maxsize=4)
def _family_blocks(atoms):
    """For every c over `atoms` atoms (at most 7 bits, so one byte per
    lane), the conditionals jointly verifiable with it and, for each
    family size 1 to 3, a block of the size-multisets of them in
    combinations_with_replacement order, one family per byte lane:
    (c, compatible, size, lanes, R, packed), where R has a 1 at the low
    bit of every lane and packed holds one (q, c) int per position."""
    pairs = cnd.enumerate_conditionals_bits((1 << atoms) - 1)
    blocks = []
    for qc, cc in pairs:
        compatible = [a for a in pairs if (qc & ~a[1]) == 0 and (a[0] & ~cc) == 0]
        # Bytes that map a member's index in compatible to its q and to its c.
        tables = [bytes(a[v] for a in compatible).ljust(256, b"\0") for v in (0, 1)]
        for size in (1, 2, 3):
            # The families' member indices, a byte each: position p of
            # every family is every size-th byte from byte p.
            members = bytes(chain.from_iterable(
                combinations_with_replacement(range(len(compatible)), size)))
            lanes = len(members) // size
            packed = tuple(tuple(int.from_bytes(members[p::size].translate(table), "little")
                                 for table in tables) for p in range(size))
            blocks.append(((qc, cc), compatible, size, lanes,
                           int.from_bytes(b"\x01" * lanes, "little"), packed))
    return tuple(blocks)


def _folded_families(atoms, counter):
    """t3.17's closure step: for every c over `atoms` atoms and every
    multiset of 1 to 3 conditionals jointly verifiable with c, the or_
    fold and the and_ fold of the family, left to right, stay jointly
    verifiable with c. Families count in the order c, size, then
    combinations_with_replacement order.

    With certified kernels each (c, size) block folds all its families
    at once, one or_ and one and_ call per position after the first, and
    the lowest failing byte lane is the first failing family."""
    or_b, and_b = cnd.or_bits, cnd.and_bits
    if _lane_local(or_b) and _lane_local(and_b):
        for (qc, cc), compatible, size, lanes, repunit, packed in _family_blocks(atoms):
            counter[0] += lanes
            (oq, oc), *rest = packed
            aq, ac = oq, oc
            for q2, c2 in rest:
                oq, oc = or_b(oq, oc, q2, c2)
                aq, ac = and_b(aq, ac, q2, c2)
            failed = (qc * repunit & ~(oc & ac)) | ((oq | aq) & ~(cc * repunit))
            if failed:
                k = ((failed & -failed).bit_length() - 1) // 8
                counter[0] += k + 1 - lanes
                family = next(islice(combinations_with_replacement(compatible, size), k, None))
                return _folding_failure((qc, cc), family)
        return None
    pairs = cnd.enumerate_conditionals_bits((1 << atoms) - 1)
    for c in pairs:
        qc, cc = c
        compatible = [a for a in pairs if (qc & ~a[1]) == 0 and (a[0] & ~cc) == 0]
        for size in (1, 2, 3):
            for family in combinations_with_replacement(compatible, size):
                counter[0] += 1
                oq, oc = family[0]
                aq, ac = family[0]
                for q2, c2 in family[1:]:
                    oq, oc = or_b(oq, oc, q2, c2)
                    aq, ac = and_b(aq, ac, q2, c2)
                or_ok = (qc & ~oc) == 0 and (oq & ~cc) == 0
                and_ok = (qc & ~ac) == 0 and (aq & ~cc) == 0
                if not (or_ok and and_ok):
                    return _folding_failure(c, family)
    return None


def _law_schay_lattice(space, pairs, max_weight, counter):
    """Both alternative operation pairs form distributive lattices:
    cap_s with cup_s, and and_s with vee_s. Idempotence, commutativity,
    associativity, the two absorption laws and both distributivities
    are swept for each pair."""
    systems = (
        ("cap_s/cup_s", schay.cap_bits, schay.cup_bits),
        ("and_s/vee_s", schay.sand_bits, schay.vee_bits),
    )
    for name, meet, join in systems:
        kernels = {meet: 2, join: 2}
        failure = _sweep(space, pairs, counter, 1, kernels, [
            lambda q1, c1: ((meet(q1, c1, q1, c1), join(q1, c1, q1, c1)), ((q1, c1), (q1, c1))),
        ], ["%s: idempotence fails at x=%%(x)s" % name])
        failure = failure or _sweep(space, pairs, counter, 2, kernels, [
            lambda q1, c1, q2, c2: (meet(q1, c1, q2, c2), meet(q2, c2, q1, c1)),
            lambda q1, c1, q2, c2: (join(q1, c1, q2, c2), join(q2, c2, q1, c1)),
            lambda q1, c1, q2, c2: (meet(q1, c1, *join(q1, c1, q2, c2)), (q1, c1)),
            lambda q1, c1, q2, c2: (join(q1, c1, *meet(q1, c1, q2, c2)), (q1, c1)),
        ], ["%s: %s at x=%%(x)s y=%%(y)s" % (name, check) for check in _LATTICE_PAIRS])
        failure = failure or _sweep(space, pairs, counter, 3, kernels, [
            lambda q1, c1, q2, c2, q3, c3: (meet(*meet(q1, c1, q2, c2), q3, c3),
                                            meet(q1, c1, *meet(q2, c2, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (join(*join(q1, c1, q2, c2), q3, c3),
                                            join(q1, c1, *join(q2, c2, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (meet(q1, c1, *join(q2, c2, q3, c3)),
                                            join(*meet(q1, c1, q2, c2), *meet(q1, c1, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (join(q1, c1, *meet(q2, c2, q3, c3)),
                                            meet(*join(q1, c1, q2, c2), *join(q1, c1, q3, c3))),
        ], ["%s: %s at x=%%(x)s y=%%(y)s z=%%(z)s" % (name, check) for check in _LATTICE_TRIPLES])
        if failure:
            return failure
    return None


def _law_schay_coincide(space, pairs, max_weight, counter):
    """cup_s is or_, and_s is and_, and the four-term expanded form of
    the consequent of cup_s reduces to the same operation."""
    cup, sand, or_b, and_b = schay.cup_bits, schay.sand_bits, cnd.or_bits, cnd.and_bits

    def expanded(q1, c1, q2, c2):
        long_cons = (q1 & c2) | (q2 & c1) | (q1 & ~c2) | (~c1 & q2)
        return (long_cons & (c1 | c2), c1 | c2), cup(q1, c1, q2, c2)

    return _sweep(space, pairs, counter, 2, {cup: 2, sand: 2, or_b: 2, and_b: 2}, [
        lambda q1, c1, q2, c2: (cup(q1, c1, q2, c2), or_b(q1, c1, q2, c2)),
        lambda q1, c1, q2, c2: (sand(q1, c1, q2, c2), and_b(q1, c1, q2, c2)),
        expanded,
    ], ["cup_s != or_ at x=%(x)s y=%(y)s", "and_s != and_ at x=%(x)s y=%(y)s",
        "expanded union form differs from cup_s at x=%(x)s y=%(y)s"])


def _law_schay_2_12(space, pairs, max_weight, counter):
    """For disjoint events a and b, conditioning (b | a v b) on the
    complement of b collapses to the impossible conditional (0 | a)."""
    events = [Event(space, bits) for bits in range(space.full_bits + 1)]
    for ea in events:
        for eb in events:
            if ea.bits & eb.bits:
                continue
            counter[0] += 1
            got = schay.schay_iteration_example(ea, eb)
            want = cnd.make(Event(space, 0), ea)
            if got != want:
                return ("iteration example fails at a=%(a)s b=%(b)s: got %(got)s want %(want)s",
                        dict(a=ea, b=eb, got=got, want=want))
    return None


# ------------------------------------------------------------- catalog


_CATALOG = (
    ("t2.4", 4, _law_t2_4),
    ("c2.5", 4, _law_c2_5),
    ("t2.6", 4, _law_t2_6),
    ("c2.7", 4, _law_c2_7),
    ("c2.8", 4, _law_c2_8),
    ("c2.9", 4, _law_c2_9),
    ("props2.3", 4, _law_props2_3),
    ("t2.13", 3, _law_t2_13),
    ("t2.18", 3, _law_t2_18),
    ("t2.19", 3, _law_t2_19),
    ("p2.20", 4, _law_p2_20),
    ("truth-tables", 4, _law_truth_tables),
    ("superposition", 3, _law_superposition),
    ("t3.2", 3, _law_t3_2),
    ("c3.3", 4, _law_c3_3),
    ("c3.5", 4, _law_c3_5),
    ("c3.6", 4, _law_c3_6),
    ("t3.7", 3, _law_t3_7),
    ("c3.8", 3, _law_c3_8),
    ("t3.9", 4, _law_t3_9),
    ("t3.11", 4, _law_t3_11),
    ("t3.15", 4, _law_t3_15),
    ("c3.16", 4, _law_c3_16),
    ("t3.17", 4, _law_t3_17),
    ("schay-lattice", 3, _law_schay_lattice),
    ("schay-coincide", 4, _law_schay_coincide),
    ("schay-2.12", 4, _law_schay_2_12),
)

_BY_ID = {law: (budget, fn) for law, budget, fn in _CATALOG}

LAW_IDS = tuple(law for law, _, _ in _CATALOG)


def law_budget(law):
    """Largest atom count a law accepts."""
    if law not in _BY_ID:
        raise UnknownLaw("unknown law id: %r" % (law,))
    return _BY_ID[law][0]


def _check_sizes(atoms, max_weight):
    if atoms < 1:
        raise ValueError("atoms must be at least 1, got %d" % atoms)
    if max_weight < 1:
        raise ValueError("the largest grid weight must be at least 1, got %d" % max_weight)


def _render(space, template, fields):
    """Fill a law's template by name, rendering only the fields it names:
    (q, c) pairs and Conditionals through format_conditional, bools as
    true/false, the rest as %s does."""
    def text(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, tuple):
            value = cnd.Conditional(space, *value)
        return format_conditional(value) if isinstance(value, cnd.Conditional) else value

    return template % {name: text(value) for name, value in fields.items()
                       if "%%(%s)s" % name in template}


def check(law, atoms, max_weight=3):
    """Exhaustively check one law over `atoms` atoms.

    Raises UnknownLaw for ids outside the catalog ("all" is a
    check_all spelling, not a single law), TooLarge when `atoms`
    exceeds the law's budget, and ValueError when `atoms` or
    `max_weight` is below 1 (a grid of all-zero weights has no
    measure to check). An exception inside the law itself is a FAIL
    whose counterexample names it.
    """
    if law not in _BY_ID:
        if law == "all":
            raise UnknownLaw("'all' is the whole catalog; use check_all")
        raise UnknownLaw("unknown law id: %r" % (law,))
    budget, fn = _BY_ID[law]
    _check_sizes(atoms, max_weight)
    if atoms > budget:
        raise TooLarge("law %s runs on at most %d atoms, got %d" % (law, budget, atoms))
    space, pairs = _checking_space(atoms)
    counter = [0]
    try:
        result = fn(space, pairs, max_weight, counter)
        if result is None or isinstance(result, str):  # a string is t3.11's note
            return LawReport(law, atoms, counter[0], passed=True, note=result)
        return LawReport(law, atoms, counter[0], passed=False,
                         counterexample=_render(space, *result))
    except Exception as exc:  # a law meeting a broken kernel reports, never crashes
        return LawReport(law, atoms, counter[0], passed=False,
                         counterexample="raised %s: %s" % (type(exc).__name__, exc))


def check_all(atoms, max_weight=3):
    """Check the whole catalog, clamping each law to its own budget."""
    _check_sizes(atoms, max_weight)
    return [check(law, min(atoms, budget), max_weight) for law, budget, _ in _CATALOG]
