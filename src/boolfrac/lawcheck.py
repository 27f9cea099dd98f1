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

A law runs its own instance loops, counting each instance before it
evaluates it. It returns its count on PASS and `count, template,
*operands` on failure. `check` renders every operand the same way: a
(q, c) pair or a Conditional through `format_conditional`, a bool as
true/false, anything else with %s. Only t3.11 passes with a note; it
returns `count, None, template, *operands`. A law body that raises (a
mutated kernel can make a probability undefined) is a FAIL whose
counterexample reads "raised <Type>: <message>"; instances_checked is
the law's count at the raise, the raising instance included.

The triple-quantified checks (t2.4, c2.5, t2.6, c2.7, and the triple
parts of props2.3, t3.15, t3.17 and schay-lattice) go through one
driver, `_triples`; a law gives it only its kernels, its clauses (lhs
and rhs, with a side condition for the four equations) and its
templates. The driver bit-slices after Biham, "A fast new DES
implementation in software" (FSE 1997). Over n atoms, one block per
outer x packs all 9**n pairs (y, z) into one int per component: the
pair (pairs[i], pairs[j]) sits in the n-bit lane at bit n*(3**n*i + j).
x is broadcast to every lane by multiplying with the repunit R = sum of
1 << n*k, so one kernel call per x evaluates every (y, z) at once. A
check ORs the bits of each lane of `lhs ^ rhs` (and of its side
condition) into the lane's lowest bit and masks with R, leaving one flag
per lane. The lowest flagged lane k is the first failure in enumeration
order: its count is the count before the block plus k + 1, and its
operands and results are read back from lane k. A later clause is
evaluated only while lane 0 passes the earlier ones.

A block is sliced only when every kernel it calls is lane-local: one
call on four 16-row truth tables, one per operand component (q1, c1,
q2, c2), which support only &, | and ~ and the constants 0 and -1,
returns two tables that keep q inside c on the 9 normal-form rows and
are 0 on the all-zero row, so nothing lands outside the space. Such a
kernel computes one Boolean function at every bit position, so the
certificate holds at every atom count and lane width and needs no
cache. (A kernel that branched on the type of its operands could fool
it; none here does.) A kernel that fails it (a per-atom loop, one that
compares, branches, shifts, adds, masks with the space or leaves
normal form) gets blocks of one instance each, stepping through (y, z)
one pair at a time: the kernels then see the pairs themselves and
results compare as tuples, exactly as in a plain loop, so counts at a
raise and out-of-normal-form results are reported as before. A raise
inside the driver is counted from the driver's own count.

Budgets: the triple-quantified laws run up to 4 atoms; laws that sweep
measure grids, search for decompositions, or close subalgebras stop at
3 (their instance spaces grow much faster). check_all clamps each law
to its own budget.
"""

import operator
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from . import conditional as cnd
from . import prob
from . import relations as rel
from . import schay
from . import trivalent as tv
from .errors import TooLarge, UnknownLaw
from .lang import format_conditional
from .space import Event, SampleSpace


@dataclass(frozen=True)
class LawReport:
    law: str
    atom_count: int
    instances_checked: int
    passed: bool
    counterexample: str = None
    note: str = None


MAX_ENUMERATION_ATOMS = 5


def law_space(atoms):
    """The standard checking space: atoms named "1" .. str(atoms)."""
    return SampleSpace(str(i + 1) for i in range(atoms))


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
    return int("".join(format(v, "0%db" % width) for v in reversed(values)), 2)


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


def _lane_local(kernel):
    """Whether a binary kernel computes the same Boolean function at every
    bit position of its operands, and so at every width and lane.

    The kernel runs once on truth tables of (q1, c1, q2, c2). It is
    certified when nothing raises and it returns two tables (or 0) with
    q inside c on the 9 rows of normal-form operands, both 0 on the
    all-zero row: bits outside every operand's condition stay 0.
    """
    try:
        result = kernel(*map(_Table, _OPERANDS))
        if type(result) is not tuple or len(result) != 2:
            return False
        q, c = map(_rows, result)
    except Exception:  # a kernel that leaves the table operations is not certified
        return False
    return q & ~c & _NORMAL_ROWS == 0 and (q | c) & 1 == 0


def _triples(space, pairs, count, kernels, clauses, templates, lead=None):
    """Check `clauses` on every triple (x, y, z) of `pairs`, x outermost,
    continuing from `count`.

    A clause maps q1, c1, q2, c2, q3, c3 (and lead(q1, c1, q2, c2) when a
    lead kernel is given) to (lhs, rhs), failing where they differ, or
    to (lhs, rhs, side), failing where they differ and side is empty or
    agree and side is not. The lead runs before a block's instances are
    counted, so an instance is not counted when its lead raises. A
    clause runs only while lane 0 passes the ones before it. Returns the
    count after the last triple, or at the first failure `count,
    templates[i], x, y, z` for its clause i, plus lhs, rhs and `not
    side` for a side clause.
    """
    n = space.n
    size = len(pairs)
    if all(map(_lane_local, kernels)):
        # One block per x: (y, z) in the n-bit lane at bit n*(size*i + j).
        block = size * size
        run = n * size
        row = _pack([1] * size, n)
        column = _pack([1] * size, run)
        lanes = row * column
        mask = (1 << n) - 1
        blocks = [(tuple(_pack(v, run) * row for v in zip(*pairs)),
                   tuple(_pack(v, n) * column for v in zip(*pairs)))]

        def spread(x):
            return x[0] * lanes, x[1] * lanes

        def flag(bits):
            """One bit per lane, set where the lane has any bit set."""
            folded = bits
            for shift in range(1, n):
                folded |= bits >> shift
            return folded & lanes

        def differ(lhs, rhs):
            return flag((lhs[0] ^ rhs[0]) | (lhs[1] ^ rhs[1]))

        def lane(value, k):
            if isinstance(value, tuple):
                return tuple(lane(v, k) for v in value)
            return value >> n * k & mask
    else:
        # One instance per block: the kernels see the pairs themselves and
        # results compare as tuples, as in a plain loop.
        block = 1
        blocks = list(product(pairs, repeat=2))
        flag = bool
        differ = operator.ne

        def spread(x):
            return x

        def lane(value, k):
            return value
    for x in pairs:
        xs = spread(x)
        for j, (ys, zs) in enumerate(blocks):
            operands = (*xs, *ys, *zs) if lead is None else (*xs, *ys, *zs, lead(*xs, *ys))
            count += block
            results = []
            flags = []
            failed = 0
            for clause in clauses:
                result = clause(*operands)
                bits = differ(result[0], result[1])
                if len(result) == 3:
                    bits ^= flag(result[2])
                results.append(result)
                flags.append(bits)
                failed |= bits
                if failed & 1:
                    break
            if failed:
                k = ((failed & -failed).bit_length() - 1) // n
                check = next(i for i, f in enumerate(flags) if f >> n * k & 1)
                index = j * block + k
                lhs, rhs, *side = results[check]
                failure = (count - block + k + 1, templates[check], x,
                           pairs[index // size], pairs[index % size])
                if side:
                    failure += (lane(lhs, k), lane(rhs, k), not lane(side[0], k))
                return failure
    return count


# Counterexample templates shared by laws with the same message.
_EQUATION_SIDE = "x=%s y=%s z=%s lhs=%s rhs=%s side=%s"
_ABSORPTION_SIDE = "x=%s z=%s lhs=%s side=%s"
_SIMVER_SIMFALS = "x=%s y=%s simver=%s simfals=%s"
_LATTICE_TRIPLES = ("meet not associative", "join not associative",
                    "meet does not distribute", "join does not distribute")


# ---------------------------------------------------------------- laws


def _law_t2_4(space, pairs, max_weight):
    """and_(x, or_(y, z)) == or_(and_(x, y), and_(x, z)) iff
    ab & e'f <= d and ab & c'd <= f."""
    or_b, and_b = cnd.or_bits, cnd.and_bits

    def clause(q1, c1, q2, c2, q3, c3):
        return (and_b(q1, c1, *or_b(q2, c2, q3, c3)),
                or_b(*and_b(q1, c1, q2, c2), *and_b(q1, c1, q3, c3)),
                (q1 & c3 & ~q3 & ~c2) | (q1 & c2 & ~q2 & ~c3))

    return _triples(space, pairs, 0, (or_b, and_b), [clause], [_EQUATION_SIDE])


def _law_c2_5(space, pairs, max_weight):
    """or_(x, and_(y, z)) == and_(or_(x, y), or_(x, z)) iff
    a'b & ef <= d and a'b & cd <= f."""
    or_b, and_b = cnd.or_bits, cnd.and_bits

    def clause(q1, c1, q2, c2, q3, c3):
        nay = c1 & ~q1
        return (or_b(q1, c1, *and_b(q2, c2, q3, c3)),
                and_b(*or_b(q1, c1, q2, c2), *or_b(q1, c1, q3, c3)),
                (nay & q3 & ~c2) | (nay & q2 & ~c3))

    return _triples(space, pairs, 0, (or_b, and_b), [clause], [_EQUATION_SIDE])


def _law_t2_6(space, pairs, max_weight):
    """or_(x, and_(y, z)) == and_(or_(x, y), z) iff
    ab & e'f == 0 and a'b & ef <= d."""
    or_b, and_b = cnd.or_bits, cnd.and_bits

    def clause(q1, c1, q2, c2, q3, c3):
        return (or_b(q1, c1, *and_b(q2, c2, q3, c3)),
                and_b(*or_b(q1, c1, q2, c2), q3, c3),
                (q1 & c3 & ~q3) | (c1 & ~q1 & q3 & ~c2))

    return _triples(space, pairs, 0, (or_b, and_b), [clause], [_EQUATION_SIDE])


def _law_c2_7(space, pairs, max_weight):
    """and_(x, or_(y, z)) == or_(and_(x, y), z) iff
    a'b & ef == 0 and ab & e'f <= d."""
    or_b, and_b = cnd.or_bits, cnd.and_bits

    def clause(q1, c1, q2, c2, q3, c3):
        return (and_b(q1, c1, *or_b(q2, c2, q3, c3)),
                or_b(*and_b(q1, c1, q2, c2), q3, c3),
                (c1 & ~q1 & q3) | (q1 & c3 & ~q3 & ~c2))

    return _triples(space, pairs, 0, (or_b, and_b), [clause], [_EQUATION_SIDE])


def _law_c2_8(space, pairs, max_weight):
    """and_(x, or_(not x, z)) == z iff b <= f and a'b <= e'f."""
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits
    count = 0
    for q1, c1 in pairs:
        neg = not_b(q1, c1)
        for q3, c3 in pairs:
            count += 1
            lhs = and_b(q1, c1, *or_b(*neg, q3, c3))
            side = (c1 & ~c3) == 0 and ((c1 & ~q1) & ~(c3 & ~q3)) == 0
            if (lhs == (q3, c3)) != side:
                return count, _ABSORPTION_SIDE, (q1, c1), (q3, c3), lhs, side
    return count


def _law_c2_9(space, pairs, max_weight):
    """or_(x, and_(not x, z)) == z iff b <= f and ab <= ef."""
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits
    count = 0
    for q1, c1 in pairs:
        neg = not_b(q1, c1)
        for q3, c3 in pairs:
            count += 1
            lhs = or_b(q1, c1, *and_b(*neg, q3, c3))
            side = (c1 & ~c3) == 0 and (q1 & ~q3) == 0
            if (lhs == (q3, c3)) != side:
                return count, _ABSORPTION_SIDE, (q1, c1), (q3, c3), lhs, side
    return count


def _law_props2_3(space, pairs, max_weight):
    """Basic identities: idempotence, commutativity, associativity,
    double negation, De Morgan, U as pass-through, (0|1) and (1|1) as
    absolutes, and the conditioned absorption
    and_(x, y) == and_(y, given(x, y))."""
    or_b, and_b, not_b, giv_b = cnd.or_bits, cnd.and_bits, cnd.not_bits, cnd.given_bits
    full = space.full_bits
    count = 0
    for p in pairs:
        q1, c1 = p
        count += 1
        checks = (
            ("not(not x) == x", not_b(*not_b(q1, c1)) == p),
            ("or_(x, x) == x", or_b(q1, c1, q1, c1) == p),
            ("and_(x, x) == x", and_b(q1, c1, q1, c1) == p),
            ("or_(x, U) == x", or_b(q1, c1, 0, 0) == p),
            ("and_(x, U) == x", and_b(q1, c1, 0, 0) == p),
            ("or_(x, (0|1)) == (ab|1)", or_b(q1, c1, 0, full) == (q1, full)),
            ("and_(x, (0|1)) == (0|1)", and_b(q1, c1, 0, full) == (0, full)),
            ("or_(x, (1|1)) == (1|1)", or_b(q1, c1, full, full) == (full, full)),
            ("and_(x, (1|1)) == (a v b'|1)",
             and_b(q1, c1, full, full) == (q1 | (full & ~c1), full)),
        )
        for label, ok in checks:
            if not ok:
                return count, "%s fails at x=%s", label, p
    for p in pairs:
        q1, c1 = p
        for s in pairs:
            q2, c2 = s
            count += 1
            if or_b(q1, c1, q2, c2) != or_b(q2, c2, q1, c1):
                return count, "or_ not commutative at x=%s y=%s", p, s
            if and_b(q1, c1, q2, c2) != and_b(q2, c2, q1, c1):
                return count, "and_ not commutative at x=%s y=%s", p, s
            if not_b(*or_b(q1, c1, q2, c2)) != and_b(*not_b(q1, c1), *not_b(q2, c2)):
                return count, "De Morgan (or) fails at x=%s y=%s", p, s
            if not_b(*and_b(q1, c1, q2, c2)) != or_b(*not_b(q1, c1), *not_b(q2, c2)):
                return count, "De Morgan (and) fails at x=%s y=%s", p, s
            if and_b(q1, c1, q2, c2) != and_b(q2, c2, *giv_b(q1, c1, q2, c2)):
                return count, "and_(x, y) != and_(y, given(x, y)) at x=%s y=%s", p, s
    return _triples(space, pairs, count, (or_b, and_b), [
        lambda q1, c1, q2, c2, q3, c3: (or_b(*or_b(q1, c1, q2, c2), q3, c3),
                                        or_b(q1, c1, *or_b(q2, c2, q3, c3))),
        lambda q1, c1, q2, c2, q3, c3: (and_b(*and_b(q1, c1, q2, c2), q3, c3),
                                        and_b(q1, c1, *and_b(q2, c2, q3, c3))),
    ], [op + " not associative at x=%s y=%s z=%s" for op in ("or_", "and_")])


def _law_t2_13(space, pairs, max_weight):
    """P(x v y) == P(x) + P(y) exactly when one of the four degenerate
    cases applies: additive_law_check.holds iff its case list is
    nonempty, over every measure on the grid."""
    events = [Event(space, bits) for bits in range(space.full_bits + 1)]
    count = 0
    for weights in _grids(space, max_weight):
        m = prob.Measure(space, weights)
        wb = m.weight_bits
        conds = [e for e in events if wb(e.bits) != 0]
        for e_c1 in conds:
            for e_c2 in conds:
                for e_a in events:
                    for e_b in events:
                        count += 1
                        rep = prob.additive_law_check(m, e_a, e_c1, e_b, e_c2)
                        if rep.holds != bool(rep.cases):
                            return (count,
                                    "weights=%s A=%s C1=%s B=%s C2=%s lhs=%s rhs=%s cases=%s",
                                    list(weights), e_a, e_c1, e_b, e_c2, rep.lhs, rep.rhs,
                                    list(rep.cases))
    return count


def _law_t2_18(space, pairs, max_weight):
    """The conditionals orthogonal to c are exactly the family
    (a'b & x | ab v y) over all event pairs (x, y); and the inequality
    form of orthogonality coincides with and_(c, z) == (0 | b v d)."""
    and_b = cnd.and_bits
    count = 0
    all_bits = range(space.full_bits + 1)
    for p in pairs:
        q1, c1 = p
        cond_obj = cnd.Conditional(space, q1, c1)
        orth_set = set()
        for s in pairs:
            q2, c2 = s
            count += 1
            by_op = and_b(q1, c1, q2, c2) == (0, c1 | c2)
            by_ineq = rel.orthogonal_bits(q1, c1, q2, c2)
            if by_op != by_ineq:
                return (count, "orthogonality routes disagree at c=%s z=%s: op=%s ineq=%s",
                        p, s, by_op, by_ineq)
            if by_ineq:
                orth_set.add(s)
        family = set()
        for xbits in all_bits:
            for ybits in all_bits:
                count += 1
                member = rel.ortho_family_member(cond_obj, Event(space, xbits),
                                                 Event(space, ybits))
                family.add((member.q, member.c))
        if family != orth_set:
            return (count, "family and orthogonality set differ at c=%s, e.g. %s",
                    p, sorted(family ^ orth_set)[0])
    return count


def _law_t2_19(space, pairs, max_weight):
    """The set of conditionals orthogonal to c is closed under or_ and
    and_."""
    or_b, and_b = cnd.or_bits, cnd.and_bits
    count = 0
    for p in pairs:
        q1, c1 = p
        members = [s for s in pairs if rel.orthogonal_bits(q1, c1, *s)]
        member_set = set(members)
        for u in members:
            for v in members:
                count += 1
                if or_b(*u, *v) not in member_set:
                    return count, "or_ of orthogonals leaves the set at c=%s u=%s v=%s", p, u, v
                if and_b(*u, *v) not in member_set:
                    return count, "and_ of orthogonals leaves the set at c=%s u=%s v=%s", p, u, v
    return count


def _law_p2_20(space, pairs, max_weight):
    """Negation is an involution (hence a bijection), reverses the pm
    order, and meets its relative complement laws:
    and_(x, not x) == (0|b), or_(x, not x) == (1|b)."""
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits
    count = 0
    for p in pairs:
        q1, c1 = p
        neg = not_b(q1, c1)
        count += 1
        if not_b(*neg) != p:
            return count, "negation is not an involution at x=%s", p
        if and_b(q1, c1, *neg) != (0, c1):
            return count, "and_(x, not x) != (0|b) at x=%s", p
        if or_b(q1, c1, *neg) != (c1, c1):
            return count, "or_(x, not x) != (1|b) at x=%s", p
    for p in pairs:
        q1, c1 = p
        for s in pairs:
            q2, c2 = s
            count += 1
            fwd = (q1 & ~q2) == 0 and ((c2 & ~q2) & ~(c1 & ~q1)) == 0
            bwd = ((c2 & ~q2) & ~(c1 & ~q1)) == 0 and (q1 & ~q2) == 0
            # pm(not y, not x) spelled on the negated pairs:
            nq1, nc1 = not_b(q2, c2)
            nq2, nc2 = not_b(q1, c1)
            neg_pm = (nq1 & ~nq2) == 0 and ((nc2 & ~nq2) & ~(nc1 & ~nq1)) == 0
            if fwd != neg_pm or bwd != neg_pm:
                return count, "pm does not reverse under negation at x=%s y=%s", p, s
    return count


def _law_truth_tables(space, pairs, max_weight):
    """Pointwise soundness: evaluating op(x, y) at an outcome equals the
    three-valued table applied to the evaluations of x and y, for and_,
    or_, given and not. Over every pair this pins all thirty table
    entries."""
    bits = [1 << i for i in range(space.n)]
    ops = (
        ("and", cnd.and_bits, tv.tt_and),
        ("or", cnd.or_bits, tv.tt_or),
        ("given", cnd.given_bits, tv.tt_given),
    )
    ev = tv.eval_at_bit
    count = 0
    for q1, c1 in pairs:
        for q2, c2 in pairs:
            results = [(name, op(q1, c1, q2, c2), table) for name, op, table in ops]
            for bit in bits:
                p_val = ev(q1, c1, bit)
                s_val = ev(q2, c2, bit)
                for name, (rq, rc), table in results:
                    count += 1
                    if ev(rq, rc, bit) != table(p_val, s_val):
                        return (count, "%s disagrees with its table at x=%s y=%s atom=%s",
                                name, (q1, c1), (q2, c2), space.atoms[bit.bit_length() - 1])
    for q1, c1 in pairs:
        nq, nc = cnd.not_bits(q1, c1)
        for bit in bits:
            count += 1
            if ev(nq, nc, bit) != tv.tt_not(ev(q1, c1, bit)):
                return (count, "not disagrees with its table at x=%s atom=%s",
                        (q1, c1), space.atoms[bit.bit_length() - 1])
    return count


def _law_superposition(space, pairs, max_weight):
    """The context split b&d' / b'&d / b&d: the three-term conditional
    identities for or_ and and_, the or==and criterion
    (ab & c'd == 0 == a'b & cd), and the probability expansions
    p_or_formula / p_superposition agreeing with p_cond on every grid
    measure."""
    or_b, and_b = cnd.or_bits, cnd.and_bits
    count = 0
    for p in pairs:
        q1, c1 = p
        for s in pairs:
            q2, c2 = s
            count += 1
            union = c1 | c2
            both = c1 & c2
            lhs_or = or_b(q1, c1, q2, c2)
            lhs_and = and_b(q1, c1, q2, c2)
            two = or_b(*and_b(q1, c1, c1, union), *and_b(q2, c2, c2, union))
            if lhs_or != two:
                return count, "two-term split fails at x=%s y=%s lhs=%s rhs=%s", p, s, lhs_or, two
            only_x = and_b(q1, c1, c1 & ~c2, union)
            only_y = and_b(q2, c2, c2 & ~c1, union)
            three_or = or_b(*or_b(*only_x, *only_y), (q1 | q2) & both, union)
            if lhs_or != three_or:
                return (count, "three-term or split fails at x=%s y=%s lhs=%s rhs=%s",
                        p, s, lhs_or, three_or)
            three_and = or_b(*or_b(*only_x, *only_y), q1 & q2, union)
            if lhs_and != three_and:
                return (count, "three-term and split fails at x=%s y=%s lhs=%s rhs=%s",
                        p, s, lhs_and, three_and)
            coincide = (q1 & (c2 & ~q2)) == 0 and ((c1 & ~q1) & q2) == 0
            if (lhs_or == lhs_and) != coincide:
                return count, "or==and criterion fails at x=%s y=%s", p, s
    conds = [cnd.Conditional(space, q, c) for q, c in pairs]
    for weights in _grids(space, max_weight):
        m = prob.Measure(space, weights)
        wb = m._iw or m._build_tables()
        for x in conds:
            for y in conds:
                if wb(x.c | y.c) == 0:
                    continue
                count += 1
                direct_or = prob.p_cond(m, cnd.or_(x, y))
                direct_and = prob.p_cond(m, cnd.and_(x, y))
                ok = (
                    prob.p_or_formula(m, x, y) == direct_or
                    and prob.p_superposition(m, x, y, "or") == direct_or
                    and prob.p_superposition(m, x, y, "and") == direct_and
                )
                if not ok:
                    return (count, "probability expansions disagree at weights=%s x=%s y=%s",
                            list(weights), x, y)
    return count


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


def _law_t3_2(space, pairs, max_weight):
    """Simultaneous verifiability (ab <= d and cd <= b) holds exactly
    when x and y split into pairwise-orthogonal private parts plus a
    shared part: x == or_(u, w), y == or_(v, w). The search is a full
    enumeration of all splittings."""
    orth = rel.orthogonal_bits
    index = _decomposition_index(pairs)
    count = 0
    for x in pairs:
        q1, c1 = x
        by_r_x = index.get(x, {})
        for y in pairs:
            q2, c2 = y
            count += 1
            expected = (q1 & ~c2) == 0 and (q2 & ~c1) == 0
            by_r_y = index.get(y, {})
            found = any(
                orth(*u, *v)
                for r, us in by_r_x.items() if r in by_r_y
                for u in us for v in by_r_y[r]
            )
            if found != expected:
                return (count, "decomposition search disagrees with the inequality at "
                        "x=%s y=%s: search=%s inequality=%s", x, y, found, expected)
    return count


def _law_c3_3(space, pairs, max_weight):
    """and_(x, y) == (abcd | b v d) exactly when x and y are
    simultaneously verifiable."""
    and_b = cnd.and_bits
    count = 0
    for x in pairs:
        q1, c1 = x
        for y in pairs:
            q2, c2 = y
            count += 1
            collapses = and_b(q1, c1, q2, c2) == (q1 & q2, c1 | c2)
            simver = (q1 & ~c2) == 0 and (q2 & ~c1) == 0
            if collapses != simver:
                return count, "x=%s y=%s collapse=%s simver=%s", x, y, collapses, simver
    return count


def _law_c3_5(space, pairs, max_weight):
    """Simultaneous falsifiability (a'b <= d and c'd <= b) is
    simultaneous verifiability of the negations."""
    not_b = cnd.not_bits
    count = 0
    for x in pairs:
        q1, c1 = x
        for y in pairs:
            q2, c2 = y
            count += 1
            direct = ((c1 & ~q1) & ~c2) == 0 and ((c2 & ~q2) & ~c1) == 0
            nx = not_b(q1, c1)
            ny = not_b(q2, c2)
            via_neg = (nx[0] & ~ny[1]) == 0 and (ny[0] & ~nx[1]) == 0
            if direct != via_neg:
                return count, "x=%s y=%s direct=%s negated=%s", x, y, direct, via_neg
    return count


def _law_c3_6(space, pairs, max_weight):
    """Simultaneously verifiable and falsifiable == equal conditions."""
    count = 0
    for x in pairs:
        q1, c1 = x
        for y in pairs:
            q2, c2 = y
            count += 1
            simver = (q1 & ~c2) == 0 and (q2 & ~c1) == 0
            simfals = ((c1 & ~q1) & ~c2) == 0 and ((c2 & ~q2) & ~c1) == 0
            if (simver and simfals) != (c1 == c2):
                return count, _SIMVER_SIMFALS, x, y, simver, simfals
    return count


def _law_t3_7(space, pairs, max_weight):
    """The subalgebra generated by x and y is Boolean exactly when their
    conditions are equal and nonempty."""
    count = 0
    for x in pairs:
        q1, c1 = x
        for y in pairs:
            q2, c2 = y
            count += 1
            is_boolean = rel.subalgebra_bits(space, {x, y})[1]
            if is_boolean != (c1 == c2 != 0):
                return (count, "x=%s y=%s is_boolean=%s same_nonempty_condition=%s",
                        x, y, is_boolean, c1 == c2 != 0)
    return count


def _law_c3_8(space, pairs, max_weight):
    """Jointly verifiable and falsifiable == equal conditions; with a
    nonempty shared condition that is exactly membership in a common
    Boolean subalgebra."""
    count = 0
    for x in pairs:
        q1, c1 = x
        for y in pairs:
            q2, c2 = y
            count += 1
            simver = (q1 & ~c2) == 0 and (q2 & ~c1) == 0
            simfals = ((c1 & ~q1) & ~c2) == 0 and ((c2 & ~q2) & ~c1) == 0
            if (simver and simfals) != (c1 == c2):
                return count, _SIMVER_SIMFALS, x, y, simver, simfals
            if c1 == c2 != 0:
                if not rel.subalgebra_bits(space, {x, y})[1]:
                    return (count, "x=%s y=%s share a nonempty condition but generate a "
                            "non-Boolean subalgebra", x, y)
    return count


def _law_t3_9(space, pairs, max_weight):
    """and_(x, z) == (0 | b v f) and or_(x, z) == (1 | b v f) together
    happen exactly when b == f and z == not x."""
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits
    count = 0
    for x in pairs:
        q1, c1 = x
        neg = not_b(q1, c1)
        for z in pairs:
            q3, c3 = z
            count += 1
            union = c1 | c3
            left = and_b(q1, c1, q3, c3) == (0, union) and or_b(q1, c1, q3, c3) == (union, union)
            right = c1 == c3 and z == neg
            if left != right:
                return count, "x=%s z=%s complement_pair=%s right=%s", x, z, left, right
    return count


def _law_t3_11(space, pairs, max_weight):
    """osum is commutative with (0|b) as same-condition neutral,
    osum(x, x) == (0|b), and not x as the unique z with
    osum(x, z) == (1|b). Associativity of the total operation is not a
    law; its status is reported in the note."""
    osum_b, not_b = cnd.osum_bits, cnd.not_bits
    count = 0
    for x in pairs:
        q1, c1 = x
        count += 1
        if osum_b(q1, c1, 0, c1) != x:
            return count, "osum(x, (0|b)) != x at x=%s", x
        if osum_b(q1, c1, q1, c1) != (0, c1):
            return count, "osum(x, x) != (0|b) at x=%s", x
        if osum_b(q1, c1, *not_b(q1, c1)) != (c1, c1):
            return count, "osum(x, not x) != (1|b) at x=%s", x
    for x in pairs:
        q1, c1 = x
        neg = not_b(q1, c1)
        for z in pairs:
            q2, c2 = z
            count += 1
            if osum_b(q1, c1, q2, c2) != osum_b(q2, c2, q1, c1):
                return count, "osum not commutative at x=%s z=%s", x, z
            if osum_b(q1, c1, q2, c2) == (c1, c1) and z != neg:
                return count, "complement not unique: osum(x, z) == (1|b) at x=%s z=%s", x, z
    for x in pairs:
        for y in pairs:
            for z in pairs:
                count += 1
                if osum_b(*osum_b(*x, *y), *z) != osum_b(*x, *osum_b(*y, *z)):
                    return (count, None, "informative: the total osum is not associative, e.g. "
                            "x=%s y=%s z=%s", x, y, z)
    return count, None, "osum associativity holds over this space"


def _law_t3_15(space, pairs, max_weight):
    """sasaki(b, a): fixes a iff cond(b) <= cond(a) and the falsity
    region of b lies inside that of a; annihilates to (0 | a2 v b2) iff
    the consequent of a lies in the falsity region of b; is idempotent
    in its second argument; composes via and_ of the projectors; and
    two projections onto the same target commute."""
    and_b, sas_b = cnd.and_bits, cnd.sasaki_bits
    count = 0
    for b in pairs:
        qb, cb = b
        for a in pairs:
            qa, ca = a
            count += 1
            proj = sas_b(qb, cb, qa, ca)
            fixes = proj == a
            fix_side = (cb & ~ca) == 0 and ((cb & ~qb) & ~(ca & ~qa)) == 0
            if fixes != fix_side:
                return count, "fixed-point criterion fails at b=%s a=%s", b, a
            kills = proj == (0, ca | cb)
            kill_side = (qa & ~(cb & ~qb)) == 0
            if kills != kill_side:
                return count, "annihilation criterion fails at b=%s a=%s", b, a
            if sas_b(qb, cb, *proj) != proj:
                return count, "projection not idempotent at b=%s a=%s", b, a
    # Triples (b, c, a); the lead is meet = and_(b, c).
    def nested(qb, cb, qc, cc, qa, ca):
        return sas_b(qc, cc, *sas_b(qb, cb, qa, ca))

    return _triples(space, pairs, count, (and_b, sas_b), [
        lambda qb, cb, qc, cc, qa, ca, meet: (nested(qb, cb, qc, cc, qa, ca),
                                              sas_b(*meet, qa, ca)),
        lambda qb, cb, qc, cc, qa, ca, meet: (nested(qb, cb, qc, cc, qa, ca),
                                              sas_b(qb, cb, *sas_b(qc, cc, qa, ca))),
    ], ["composition via and_ fails at b=%s c=%s a=%s",
        "projections do not commute at b=%s c=%s a=%s"], lead=and_b)


def _law_c3_16(space, pairs, max_weight):
    """sasaki(b, a) == a exactly when and_(a, b) == a; it annihilates
    exactly when tr(a, not b); and sasaki(c, c) == c."""
    conds = [cnd.Conditional(space, q, c) for q, c in pairs]
    count = 0
    for c in conds:
        count += 1
        if cnd.sasaki(c, c) != c:
            return count, "sasaki(c, c) != c at c=%s", c
    for b in conds:
        nb = cnd.negate(b)
        for a in conds:
            count += 1
            proj = cnd.sasaki(b, a)
            if (proj == a) != rel.holds("wedge", a, b):
                return count, "fixed point does not match the wedge order at b=%s a=%s", b, a
            zero = cnd.Conditional(space, 0, a.c | b.c)
            if (proj == zero) != rel.holds("tr", a, nb):
                return count, "annihilation does not match tr(a, not b) at b=%s a=%s", b, a
    return count


def _law_t3_17(space, pairs, max_weight):
    """Sasaki projection interplay with or_: absorbing a projection
    through the complement, distribution over or_, the commutation /
    coincidence criteria, the two-sided verifiability criterion, and
    closure of joint verifiability under folded or_ and and_."""
    or_b, and_b, not_b, sas_b = cnd.or_bits, cnd.and_bits, cnd.not_bits, cnd.sasaki_bits
    count = 0
    for b in pairs:
        qb, cb = b
        nb = not_b(qb, cb)
        for a in pairs:
            qa, ca = a
            count += 1
            if or_b(qb, cb, qa, ca) != or_b(qb, cb, *sas_b(*nb, qa, ca)):
                return count, "or_(b, a) != or_(b, sasaki(not b, a)) at b=%s a=%s", b, a
            commutes = sas_b(qb, cb, qa, ca) == sas_b(qa, ca, qb, cb)
            simver = (qb & ~ca) == 0 and (qa & ~cb) == 0
            if commutes != simver:
                return count, "commutation criterion fails at b=%s a=%s", b, a
            as_and = sas_b(qb, cb, qa, ca) == and_b(qb, cb, qa, ca)
            if as_and != ((qb & ~ca) == 0):
                return count, "coincidence-with-and_ criterion fails at b=%s a=%s", b, a
            pq, pc = sas_b(qb, cb, qa, ca)
            same_cond_below = pc == ca and (pq & ~qa) == 0
            if same_cond_below != ((cb & ~ca) == 0):
                return count, "bounded-order criterion fails at b=%s a=%s", b, a
            two_sided = ((qb & ~ca) == 0 and (qa & ~cb) == 0
                         and (nb[0] & ~ca) == 0 and (qa & ~nb[1]) == 0)
            if two_sided != ((qa & ~cb) == 0 and (cb & ~ca) == 0):
                return count, "two-sided verifiability criterion fails at b=%s a=%s", b, a
    # Triples (c, b, a); the lead is proj_b = sasaki(c, b).
    count = _triples(space, pairs, count, (or_b, sas_b), [
        lambda qc, cc, qb, cb, qa, ca, proj_b: (sas_b(qc, cc, *or_b(qb, cb, qa, ca)),
                                                or_b(*proj_b, *sas_b(qc, cc, qa, ca))),
    ], ["projection does not distribute over or_ at c=%s b=%s a=%s"], lead=sas_b)
    if not isinstance(count, int):
        return count
    # Folded families stay on 3 atoms; their pairs render alike on a larger law space.
    family_pairs = pairs if space.n <= 3 else cnd.enumerate_conditionals_bits(0b111)
    for c in family_pairs:
        qc, cc = c
        compatible = [a for a in family_pairs if (qc & ~a[1]) == 0 and (a[0] & ~cc) == 0]
        for size in (1, 2, 3):
            for family in combinations_with_replacement(compatible, size):
                count += 1
                oq, oc = family[0]
                aq, ac = family[0]
                for q2, c2 in family[1:]:
                    oq, oc = cnd.or_bits(oq, oc, q2, c2)
                    aq, ac = cnd.and_bits(aq, ac, q2, c2)
                or_ok = (qc & ~oc) == 0 and (oq & ~cc) == 0
                and_ok = (qc & ~ac) == 0 and (aq & ~cc) == 0
                if not (or_ok and and_ok):
                    return (count, "joint verifiability not preserved by folding at c=%s "
                            "family=[" + " ".join(["%s"] * size) + "]", c, *family)
    return count


def _law_schay_lattice(space, pairs, max_weight):
    """Both alternative operation pairs form distributive lattices:
    cap_s with cup_s, and and_s with vee_s. Idempotence, commutativity,
    associativity, the two absorption laws and both distributivities
    are swept for each pair."""
    systems = (
        ("cap_s/cup_s", schay.cap_bits, schay.cup_bits),
        ("and_s/vee_s", schay.sand_bits, schay.vee_bits),
    )
    count = 0
    for name, meet, join in systems:
        for x in pairs:
            count += 1
            if meet(*x, *x) != x or join(*x, *x) != x:
                return count, "%s: idempotence fails at x=%s", name, x
        for x in pairs:
            for y in pairs:
                count += 1
                if meet(*x, *y) != meet(*y, *x):
                    return count, "%s: meet not commutative at x=%s y=%s", name, x, y
                if join(*x, *y) != join(*y, *x):
                    return count, "%s: join not commutative at x=%s y=%s", name, x, y
                if meet(*x, *join(*x, *y)) != x:
                    return count, "%s: absorption meet-join fails at x=%s y=%s", name, x, y
                if join(*x, *meet(*x, *y)) != x:
                    return count, "%s: absorption join-meet fails at x=%s y=%s", name, x, y
        count = _triples(space, pairs, count, (meet, join), [
            lambda q1, c1, q2, c2, q3, c3: (meet(*meet(q1, c1, q2, c2), q3, c3),
                                            meet(q1, c1, *meet(q2, c2, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (join(*join(q1, c1, q2, c2), q3, c3),
                                            join(q1, c1, *join(q2, c2, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (meet(q1, c1, *join(q2, c2, q3, c3)),
                                            join(*meet(q1, c1, q2, c2), *meet(q1, c1, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (join(q1, c1, *meet(q2, c2, q3, c3)),
                                            meet(*join(q1, c1, q2, c2), *join(q1, c1, q3, c3))),
        ], ["%s: %s at x=%%s y=%%s z=%%s" % (name, check) for check in _LATTICE_TRIPLES])
        if not isinstance(count, int):
            return count
    return count


def _law_schay_coincide(space, pairs, max_weight):
    """cup_s is or_, and_s is and_, and the four-term expanded form of
    the consequent of cup_s reduces to the same operation."""
    count = 0
    for x in pairs:
        q1, c1 = x
        for y in pairs:
            q2, c2 = y
            count += 1
            if schay.cup_bits(q1, c1, q2, c2) != cnd.or_bits(q1, c1, q2, c2):
                return count, "cup_s != or_ at x=%s y=%s", x, y
            if schay.sand_bits(q1, c1, q2, c2) != cnd.and_bits(q1, c1, q2, c2):
                return count, "and_s != and_ at x=%s y=%s", x, y
            long_cons = (q1 & c2) | (q2 & c1) | (q1 & ~c2) | (~c1 & q2)
            long_form = (long_cons & (c1 | c2), c1 | c2)
            if long_form != schay.cup_bits(q1, c1, q2, c2):
                return count, "expanded union form differs from cup_s at x=%s y=%s", x, y
    return count


def _law_schay_2_12(space, pairs, max_weight):
    """For disjoint events a and b, conditioning (b | a v b) on the
    complement of b collapses to the impossible conditional (0 | a)."""
    count = 0
    events = [Event(space, bits) for bits in range(space.full_bits + 1)]
    for ea in events:
        for eb in events:
            if ea.bits & eb.bits:
                continue
            count += 1
            got = schay.schay_iteration_example(ea, eb)
            want = cnd.make(Event(space, 0), ea)
            if got != want:
                return (count, "iteration example fails at a=%s b=%s: got %s want %s",
                        ea, eb, got, want)
    return count


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


def _render(space, template, *operands):
    """Fill a law's template: (q, c) pairs and Conditionals through
    format_conditional, bools as true/false, the rest as %s does."""
    def text(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, tuple):
            value = cnd.Conditional(space, *value)
        return format_conditional(value) if isinstance(value, cnd.Conditional) else value

    return template % tuple(map(text, operands))


def _count_at_raise(exc, fn, default):
    """The instance count when the law raised: `count` in the deepest
    frame of the law or of the triple driver it called."""
    codes = (fn.__code__, _triples.__code__)
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code in codes:
            default = tb.tb_frame.f_locals.get("count", 0)
        tb = tb.tb_next
    return default


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
    space = law_space(atoms)
    pairs = cnd.enumerate_conditionals_bits(space.full_bits)
    count = 0
    try:
        result = fn(space, pairs, max_weight)
        if isinstance(result, int):
            return LawReport(law, atoms, result, passed=True)
        count, template, *operands = result
        if template is None:
            return LawReport(law, atoms, count, passed=True, note=_render(space, *operands))
        return LawReport(law, atoms, count, passed=False,
                         counterexample=_render(space, template, *operands))
    except Exception as exc:  # a law meeting a broken kernel reports, never crashes
        return LawReport(law, atoms, _count_at_raise(exc, fn, count), passed=False,
                         counterexample="raised %s: %s" % (type(exc).__name__, exc))


def check_all(atoms, max_weight=3):
    """Check the whole catalog, clamping each law to its own budget."""
    _check_sizes(atoms, max_weight)
    return [check(law, min(atoms, budget), max_weight) for law, budget, _ in _CATALOG]
