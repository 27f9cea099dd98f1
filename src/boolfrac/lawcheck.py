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

A catalog record holds a law's id, its atom budget, the names of every
kernel it calls, its sweeps and, for a law that is more than sweeps, a
function for the rest. `check` hands each one `_Run` (the law space,
its pairs, max_weight, the instance count and the block route): it runs
the sweeps in order and calls the function only when all pass. Each
advances run.count by one for each instance before it evaluates the
instance (a hand loop draws its instances from `_counted`, which does)
and returns None on PASS, `(template, fields)` at its first failure,
or, t3.11's function only, a note. `check` renders only the fields a
template names, so an unnamed result out of normal form never reaches
a Conditional. A law that raises (a mutated kernel can make a
probability undefined) is a FAIL reading "raised <Type>: <message>",
counted up to the raising instance included; so is one with a part (a
sweep or the function, numbered from 1) that checks nothing, reading
"part N checked no instance", or "no instance was checked" when the
law counted none.

A sweep checks clauses of bit kernels and raw bit inequalities with
`_sweep`, which bit-slices after Biham, "A fast new DES implementation
in software" (FSE 1997): a block packs instances into one int per
operand component, one instance per n-bit lane, and one kernel call
evaluates every lane. The lowest failing lane is the first failure in
enumeration order, so counts and counterexamples are those of a plain
loop. Most laws are sweeps alone; t3.11, t3.17 and superposition add
a function for their note, folded families and grid part.

The route is chosen per law, once per check. The first time a block
route asks, the run certifies every kernel the law's record names with
`_lane_local`: one call on truth tables shows that the kernel computes
one Boolean function at every bit position and stays in normal form (a
kernel that branched on the type of its operands could fool it; none
here does). Blocks are sliced only when every kernel passes; otherwise
every block of the law holds one instance, the kernels see the pairs
themselves and the driver compares results as Python values, as in a
plain loop. A test runs every law under recording kernels, so a record
names exactly the kernels its law calls and a sliced block never meets
an uncertified one. A raise inside a sliced sweep counts the whole block.

The other laws are a function alone. truth-tables runs blocks of its own
on the same route, one instance per (pair, atom, op), as do t3.17's
folded families, one byte lane per family; unsliced, a block holds one
pair, single or family, counted as a plain loop counts it. Only operand
packings, which no kernel computed, are cached. The rest are more
than bit kernels: t2.13 sums probabilities over measure grids
(with superposition's grid part, the only code that imports `prob`),
t2.18, t2.19, t3.2, t3.7, c3.8 and orders call `relations`, and
schay-2.12 builds Conditionals. orders is the catalog's only caller
of `relations.holds` and of the Conditional-level `sasaki`.

Budgets: most laws, the triple-quantified sweeps among them, run up to
4 atoms. Laws that sweep measure grids (t2.13, superposition), search
for decompositions (t3.2), close subalgebras (t3.7, c3.8), compare
orthogonal families (t2.18, t2.19), route every relation through
Conditionals (orders) or sweep schay-lattice's triples stop at 3, as
their instance spaces grow much faster. check_all clamps each law to
its own budget.
"""

import operator
from functools import cached_property, lru_cache, partial, reduce
from itertools import chain, combinations_with_replacement, count, islice, product
from time import perf_counter

from . import conditional as cnd
from . import relations as rel
from . import schay
from . import trivalent as tv
from ._record import Record, _set
from .errors import TooLarge, UnknownLaw
from .lang import format_conditional
from .space import SampleSpace, enumerate_events


class LawReport(Record):
    """One law's verdict. `elapsed_s` is not a field: `check` sets it to
    the seconds the check took, and repr, ==, hash and pickling leave it
    out, so a report's value does not depend on the machine's speed."""

    _fields = ("law", "atom_count", "instances_checked", "passed", "counterexample", "note")
    __slots__ = _fields + ("elapsed_s",)

    def __init__(self, law, atom_count, instances_checked, passed, counterexample=None,
                 note=None):
        _set(self, "law", law)
        _set(self, "atom_count", atom_count)
        _set(self, "instances_checked", instances_checked)
        _set(self, "passed", passed)
        _set(self, "counterexample", counterexample)
        _set(self, "note", note)
        _set(self, "elapsed_s", None)


MAX_ENUMERATION_ATOMS = 5


def law_space(atoms):
    """The standard checking space: atoms "1" .. str(atoms), valid by construction."""
    return SampleSpace(str(i + 1) for i in range(atoms))


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


def _counted(run, instances):
    """Each of `instances` in order, counted in run.count before it is
    yielded, so before the hand loop that draws it evaluates it."""
    for instance in instances:
        run.count += 1
        yield instance


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


def _lane_reads(masks, width):
    """Lane k of every block mask in `masks` (lists of ints), in the same
    lists, for k = 0, 1, ...: lazily and in linear time. The first 64
    lanes are shifted out of the masks themselves, as a single read
    would be; then each mask is turned into bytes once, and each run of
    64 lanes (8*width bytes) is read back from them when it is reached."""
    full = (1 << width) - 1
    runs = masks
    for start in count(8 * width, 8 * width):
        for shift in range(0, 64 * width, width):
            yield [[m >> shift & full for m in row] for row in runs]
        if runs is masks:
            data = [[m.to_bytes((m.bit_length() + 7) // 8, "little") for m in row]
                    for row in masks]
        runs = [[int.from_bytes(b[start:start + 8 * width], "little") for b in row]
                for row in data]


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
def _block(n, inner):
    """The repunit of a block over the `pairs` of `_checking_space(n)` in
    n-bit lanes, which has a 1 at the low bit of every lane, and the
    block's packed operand components: with one operand, pairs[i] sits in
    the lane at bit n*i; with two, (pairs[i], pairs[j]) at bit n*(3**n*i + j)."""
    pairs = _checking_space(n)[1]
    size = len(pairs)
    row = _pack([1] * size, n)
    components = list(zip(*pairs))
    if inner == 1:
        return row, tuple(_pack(v, n) for v in components)
    column = _pack([1] * size, n * size)
    return row * column, (*(_pack(v, n * size) * row for v in components),
                          *(_pack(v, n) * column for v in components))


class _Run:
    """One check of one law: the law space, its 3**n pairs, max_weight,
    the count the law advances, and each kernel it calls with its arity."""

    def __init__(self, atoms, max_weight, kernels):
        self.space, self.pairs = _checking_space(atoms)
        self.max_weight, self.kernels, self.count = max_weight, kernels, 0

    @cached_property
    def sliced(self):
        """Whether blocks are sliced: every kernel of the law is lane-local,
        certified on the first read and kept for the rest of the check."""
        return all(_lane_local(kernel, operands) for kernel, operands in self.kernels.items())


def _sweep(run, arity, clauses, templates, lead=None, constants=()):
    """Check `clauses` on every `arity`-tuple of the run's pairs, first
    operand outermost, advancing run.count by one per instance.

    A clause maps q1, c1, q2, c2, ... (then the lead's result on the
    first max(1, arity - 1) operands, when a lead is given, then
    `constants`, ints broadcast to every lane like an outer operand) to
    (lhs, rhs), failing where they differ, or to (lhs, rhs, side),
    failing where they differ and side is empty or agree and side is
    not; lhs and rhs are ints or tuples of them, which may nest. The lead
    runs before a block's instances are counted, so an instance is not
    counted when its lead raises. A clause runs only while lane 0 passes
    the ones before it. Returns None when every clause holds, or at the
    first failure `(templates[i], fields)` for its clause i, with
    run.count at the failing instance: the fields are the operands x, y,
    z, lhs, rhs, holds (whether they are equal) and, for a side clause,
    side (whether it is empty).
    """
    n, pairs = run.space.n, run.pairs
    size = len(pairs)
    if run.sliced:
        # The last min(arity, 2) operands are packed into the block; the
        # ones before them are broadcast to every lane.
        inner = min(arity, 2)
        lanes, packed = _block(n, inner)
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
        run.count += block
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
            run.count += k + 1 - block
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


def _law_t2_13(run):
    """P(x v y) == P(x) + P(y) exactly when one of the four degenerate
    cases applies: additive_law_check.holds iff its case list is
    nonempty, over every measure on the grid."""
    from . import prob

    events = enumerate_events(run.space)
    for weights in _grids(run.space, run.max_weight):
        m = prob.Measure(run.space, weights)
        wb = m.weight_bits
        conds = [e for e in events if wb(e.bits) != 0]
        for e_c1, e_c2, e_a, e_b in _counted(run, product(conds, conds, events, events)):
            rep = prob.additive_law_check(m, e_a, e_c1, e_b, e_c2)
            if rep.holds != bool(rep.cases):
                return ("weights=%(weights)s A=%(A)s C1=%(C1)s B=%(B)s C2=%(C2)s "
                        "lhs=%(lhs)s rhs=%(rhs)s cases=%(cases)s",
                        dict(weights=list(weights), A=e_a, C1=e_c1, B=e_b, C2=e_c2,
                             lhs=rep.lhs, rhs=rep.rhs, cases=list(rep.cases)))
    return None


def _law_t2_18(run):
    """The conditionals orthogonal to c are exactly the family
    (a'b & x | ab v y) over all event pairs (x, y); and the inequality
    form of orthogonality coincides with and_(c, z) == (0 | b v d)."""
    and_b = cnd.and_bits
    events = enumerate_events(run.space)
    for p in run.pairs:
        q1, c1 = p
        cond_obj = cnd.Conditional(run.space, q1, c1)
        orth_set = set()
        for s in _counted(run, run.pairs):
            q2, c2 = s
            by_op = and_b(q1, c1, q2, c2) == (0, c1 | c2)
            by_ineq = rel.orthogonal_bits(q1, c1, q2, c2)
            if by_op != by_ineq:
                return ("orthogonality routes disagree at c=%(c)s z=%(z)s: op=%(op)s ineq=%(ineq)s",
                        dict(c=p, z=s, op=by_op, ineq=by_ineq))
            if by_ineq:
                orth_set.add(s)
        family = set()
        for x, y in _counted(run, product(events, repeat=2)):
            member = rel.ortho_family_member(cond_obj, x, y)
            family.add((member.q, member.c))
        if family != orth_set:
            return ("family and orthogonality set differ at c=%(c)s, e.g. %(example)s",
                    dict(c=p, example=sorted(family ^ orth_set)[0]))
    return None


def _law_t2_19(run):
    """The set of conditionals orthogonal to c is closed under or_ and
    and_."""
    or_b, and_b = cnd.or_bits, cnd.and_bits
    template = "%s of orthogonals leaves the set at c=%%(c)s u=%%(u)s v=%%(v)s"
    for p in run.pairs:
        q1, c1 = p
        members = [s for s in run.pairs if rel.orthogonal_bits(q1, c1, *s)]
        member_set = set(members)
        for qu, cu in members:
            for qv, cv in _counted(run, members):
                if or_b(qu, cu, qv, cv) not in member_set:
                    return template % "or_", dict(c=p, u=(qu, cu), v=(qv, cv))
                if and_b(qu, cu, qv, cv) not in member_set:
                    return template % "and_", dict(c=p, u=(qu, cu), v=(qv, cv))
    return None


def _reverses(q1, c1, q2, c2):
    """p2.20's pair clause: pm(not y, not x) spelled on the negated pairs."""
    nq1, nc1 = cnd.not_bits(q2, c2)
    nq2, nc2 = cnd.not_bits(q1, c1)
    return ((q1 & ~q2) | ((c2 & ~q2) & ~(c1 & ~q1)), 0,
            (nq1 & ~nq2) | ((nc2 & ~nq2) & ~(nc1 & ~nq1)))


_TRUTH_VALUES = (tv.T, tv.F, tv.U)
_BINARY_TABLE = "%(op)s disagrees with its table at x=%(x)s y=%(y)s atom=%(atom)s"
_NOT_TABLE = "not disagrees with its table at x=%(x)s atom=%(atom)s"


def _truth_masks(result, block):
    """The bits of `block` where a (q, c) result evaluates to T, to F and
    to U, read as eval_at_bit reads them, in normal form or not."""
    q, c = result
    return q & block, c & ~q & block, block & ~(q | c)


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


def _law_truth_tables(run):
    """Pointwise soundness: evaluating op(x, y) at an outcome equals the
    three-valued table applied to the evaluations of x and y, for and_,
    or_, given and not. Over every pair this pins all thirty table
    entries.

    The binary ops run on the pair block, negation on the single block.
    An atom is a bit of a lane, so op j of a part's m ops at atom i of
    lane k is the part's instance m*(n*k + i) + j: 3n*k + 3i + j for the
    binary ops, n*k + i for negation. The expected masks come from the
    kernel-free block; unsliced, each block is one pair or single and
    reads its lane of them."""
    space, pairs = run.space, run.pairs
    n, full = space.n, space.full_bits
    parts = (
        (2, _BINARY_TABLE, (("and", cnd.and_bits, tv.tt_and), ("or", cnd.or_bits, tv.tt_or),
                            ("given", cnd.given_bits, tv.tt_given))),
        (1, _NOT_TABLE, (("not", cnd.not_bits, tv.tt_not),)),
    )
    for inner, template, ops in parts:
        lanes, packed = _block(n, inner)
        inputs = [_truth_masks(qc, lanes * full) for qc in zip(packed[::2], packed[1::2])]
        expected = [_table_masks(table, *inputs) for _, _, table in ops]
        if run.sliced:
            blocks = [(0, len(pairs) ** inner, packed, lanes * full, expected)]
        else:
            blocks = ((k, 1, sum(instance, ()), full, want) for k, (instance, want) in
                      enumerate(zip(product(pairs, repeat=inner), _lane_reads(expected, n))))
        for first, count, operands, block, want in blocks:
            results = [op(*operands) for _, op, _ in ops]
            diffs = [_diff(_truth_masks(result, block), masks)
                     for result, masks in zip(results, want)]
            failed = reduce(operator.or_, diffs)
            if failed:
                bit = (failed & -failed).bit_length() - 1
                (k, i), j = divmod(bit, n), next(o for o, d in enumerate(diffs) if d >> bit & 1)
                run.count += len(ops) * (n * k + i) + j + 1
                instance = next(islice(product(pairs, repeat=inner), first + k, None))
                return template, dict(zip("xy", instance), op=ops[j][0], atom=space.atoms[i])
            run.count += len(ops) * n * count
    return None


def _three_term(q1, c1, q2, c2, shared):
    """The parts of x and y on the contexts b&d' and b'&d, joined with
    `shared` on b&d."""
    union = c1 | c2
    return cnd.or_bits(*cnd.or_bits(*cnd.and_bits(q1, c1, c1 & ~c2, union),
                                    *cnd.and_bits(q2, c2, c2 & ~c1, union)),
                       shared & c1 & c2, union)


def _superposition_grid(run):
    """superposition's probability expansions, p_or_formula and
    p_superposition, agree with p_cond on every grid measure."""
    from . import prob

    conds = [cnd.Conditional(run.space, q, c) for q, c in run.pairs]
    for weights in _grids(run.space, run.max_weight):
        m = prob.Measure(run.space, weights)
        wb = m._iw
        weighted = ((x, y) for x, y in product(conds, repeat=2) if wb(x.c | y.c) != 0)
        for x, y in _counted(run, weighted):
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


def _law_t3_2(run):
    """Simultaneous verifiability (ab <= d and cd <= b) holds exactly
    when x and y split into pairwise-orthogonal private parts plus a
    shared part: x == or_(u, w), y == or_(v, w). The search is a full
    enumeration of all splittings."""
    orth = rel.orthogonal_bits
    index = _decomposition_index(run.pairs)
    for x in run.pairs:
        q1, c1 = x
        by_r_x = index.get(x, {})
        for y in _counted(run, run.pairs):
            q2, c2 = y
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


def _simver(q1, c1, q2, c2):
    """The bits where simultaneous verifiability, ab <= d and cd <= b, fails."""
    return (q1 & ~c2) | (q2 & ~c1)


def _law_t3_7(run):
    """The subalgebra generated by x and y is Boolean exactly when their
    conditions are equal and nonempty."""
    for x, y in _counted(run, product(run.pairs, repeat=2)):
        same = x[1] == y[1] != 0
        is_boolean = rel.subalgebra_bits(run.space, {x, y})[1]
        if is_boolean != same:
            return ("x=%(x)s y=%(y)s is_boolean=%(is_boolean)s "
                    "same_nonempty_condition=%(same)s",
                    dict(x=x, y=y, is_boolean=is_boolean, same=same))
    return None


def _law_c3_8(run):
    """Jointly verifiable and falsifiable == equal conditions; with a
    nonempty shared condition that is exactly membership in a common
    Boolean subalgebra."""
    for x, y in _counted(run, product(run.pairs, repeat=2)):
        (q1, c1), (q2, c2) = x, y
        simver = (q1 & ~c2) == 0 and (q2 & ~c1) == 0
        simfals = ((c1 & ~q1) & ~c2) == 0 and ((c2 & ~q2) & ~c1) == 0
        if (simver and simfals) != (c1 == c2):
            return ("x=%(x)s y=%(y)s simver=%(simver)s simfals=%(simfals)s",
                    dict(x=x, y=y, simver=simver, simfals=simfals))
        if c1 == c2 != 0 and not rel.subalgebra_bits(run.space, {x, y})[1]:
            return ("x=%(x)s y=%(y)s share a nonempty condition but generate a "
                    "non-Boolean subalgebra", dict(x=x, y=y))
    return None


def _complement_pair(q1, c1, q3, c3, nx):
    """t3.9's clause on (x, z), whose lead is nx = not x."""
    union = c1 | c3
    return ((cnd.and_bits(q1, c1, q3, c3), cnd.or_bits(q1, c1, q3, c3)),
            ((0, union), (union, union)), (c1 ^ c3) | (q3 ^ nx[0]) | (c3 ^ nx[1]))


def _osum_note(run):
    """t3.11's note: a triple where the total osum does not associate,
    which is not a law."""
    example = _sweep(run, 3, [
        lambda q1, c1, q2, c2, q3, c3: (cnd.osum_bits(*cnd.osum_bits(q1, c1, q2, c2), q3, c3),
                                        cnd.osum_bits(q1, c1, *cnd.osum_bits(q2, c2, q3, c3))),
    ], ["informative: the total osum is not associative, e.g. x=%(x)s y=%(y)s z=%(z)s"])
    return _render(run.space, *example) if example else "osum associativity holds over this space"


def _fixed_point(qb, cb, qa, ca, *_):
    """t3.15 and c3.16 (its not_bits lead unused): sasaki(b, a) == a, in the wedge order."""
    return cnd.sasaki_bits(qb, cb, qa, ca), (qa, ca), (cb & ~ca) | ((cb & ~qb) & ~(ca & ~qa))


def _idempotent(qb, cb, qa, ca):
    """t3.15: sasaki(b, a) projected onto b again, and the projection."""
    proj = cnd.sasaki_bits(qb, cb, qa, ca)
    return cnd.sasaki_bits(qb, cb, *proj), proj


def _nested(qb, cb, qc, cc, qa, ca):
    """t3.15: sasaki(c, sasaki(b, a))."""
    return cnd.sasaki_bits(qc, cc, *cnd.sasaki_bits(qb, cb, qa, ca))


def _bounded(qb, cb, qa, ca, nb):
    """t3.17's bounded-order clause on the pair (b, a)."""
    pq, pc = cnd.sasaki_bits(qb, cb, qa, ca)
    return (pq & ~qa, pc), (0, ca), cb & ~ca


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
    pairs = _checking_space(atoms)[1]
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


def _folded_families(run, atoms):
    """t3.17's closure step: for every c over `atoms` atoms and every
    multiset of 1 to 3 conditionals jointly verifiable with c, the or_
    fold and the and_ fold of the family, left to right, stay jointly
    verifiable with c. Families count in the order c, size, then
    combinations_with_replacement order.

    Sliced, each (c, size) block folds all its families at once, one or_
    and one and_ call per position after the first, and the lowest
    failing byte lane is the first failing family; unsliced, each family
    is a block of its own."""
    or_b, and_b = cnd.or_bits, cnd.and_bits
    for (qc, cc), compatible, size, lanes, repunit, packed in _family_blocks(atoms):
        families = combinations_with_replacement(compatible, size)
        if run.sliced:
            blocks = [(0, lanes, repunit, packed)]
        else:
            blocks = ((k, 1, 1, family) for k, family in enumerate(families))
        for first, count, ones, ((oq, oc), *rest) in blocks:
            run.count += count
            aq, ac = oq, oc
            for q2, c2 in rest:
                oq, oc = or_b(oq, oc, q2, c2)
                aq, ac = and_b(aq, ac, q2, c2)
            failed = (qc * ones & ~(oc & ac)) | ((oq | aq) & ~(cc * ones))
            if failed:
                # A block of one family fails at that family, whichever bit differs.
                k = min(((failed & -failed).bit_length() - 1) // 8, count - 1)
                run.count += k + 1 - count
                family = next(islice(combinations_with_replacement(compatible, size), first + k,
                                     None))
                return _folding_failure((qc, cc), family)
    return None


def _lattice_sweeps(name, meet, join):
    """schay-lattice's sweeps of the operation pair whose kernels are
    named meet and join; a clause reads them from `schay` when it runs."""
    op = vars(schay)
    return [
        (1, {"%s: idempotence fails at x=%%(x)s" % name: lambda q1, c1: (
            (op[meet](q1, c1, q1, c1), op[join](q1, c1, q1, c1)), ((q1, c1), (q1, c1)))}, None),
        (2, dict(zip(["%s: %s at x=%%(x)s y=%%(y)s" % (name, check) for check in _LATTICE_PAIRS], [
            lambda q1, c1, q2, c2: (op[meet](q1, c1, q2, c2), op[meet](q2, c2, q1, c1)),
            lambda q1, c1, q2, c2: (op[join](q1, c1, q2, c2), op[join](q2, c2, q1, c1)),
            lambda q1, c1, q2, c2: (op[meet](q1, c1, *op[join](q1, c1, q2, c2)), (q1, c1)),
            lambda q1, c1, q2, c2: (op[join](q1, c1, *op[meet](q1, c1, q2, c2)), (q1, c1)),
        ])), None),
        (3, dict(zip(["%s: %s at x=%%(x)s y=%%(y)s z=%%(z)s" % (name, check)
                      for check in _LATTICE_TRIPLES], [
            lambda q1, c1, q2, c2, q3, c3: (op[meet](*op[meet](q1, c1, q2, c2), q3, c3),
                                            op[meet](q1, c1, *op[meet](q2, c2, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (op[join](*op[join](q1, c1, q2, c2), q3, c3),
                                            op[join](q1, c1, *op[join](q2, c2, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (
                op[meet](q1, c1, *op[join](q2, c2, q3, c3)),
                op[join](*op[meet](q1, c1, q2, c2), *op[meet](q1, c1, q3, c3))),
            lambda q1, c1, q2, c2, q3, c3: (
                op[join](q1, c1, *op[meet](q2, c2, q3, c3)),
                op[meet](*op[join](q1, c1, q2, c2), *op[join](q1, c1, q3, c3))),
        ])), None),
    ]


def _law_schay_2_12(run):
    """For disjoint events a and b, conditioning (b | a v b) on the
    complement of b collapses to the impossible conditional (0 | a)."""
    events = enumerate_events(run.space)
    disjoint = ((ea, eb) for ea, eb in product(events, repeat=2) if not ea.bits & eb.bits)
    for ea, eb in _counted(run, disjoint):
        got = schay.schay_iteration_example(ea, eb)
        want = cnd.make(run.space.empty, ea)
        if got != want:
            return ("iteration example fails at a=%(a)s b=%(b)s: got %(got)s want %(want)s",
                    dict(a=ea, b=eb, got=got, want=want))
    return None


def _order_routes(x, y):
    """Each relate tag's verdict on (x, y) = ((a|b), (c|d)) through the
    `conditional` operations alone, none of which reads
    `relations._RELATIONS`. "No true region" means q == 0, "no false
    region" q == c."""
    nx, ny = cnd.negate(x), cnd.negate(y)
    unit_x, unit_y = cnd.or_(x, nx), cnd.or_(y, ny)
    ap = cnd.or_(x, unit_y) == unit_y
    compat = ap and cnd.or_(y, unit_x) == unit_x
    tr = cnd.given(x, ny).q == 0
    meet, falsity, material = cnd.and_(x, y), cnd.and_(nx, ny), cnd.or_(nx, y)
    return {
        "tr": tr,
        "nf": cnd.sasaki(x, ny).q == 0,
        "ap": ap,
        "pm": material.q == material.c,
        "vee": cnd.or_(x, y) == y,
        "wedge": meet == x,
        "bo": compat and tr,
        "orth": (meet.q, meet.c) == (0, x.c | y.c),
        "simver": (meet.q, meet.c) == (x.q & y.q, x.c | y.c),
        "simfals": (falsity.q, falsity.c) == (nx.q & ny.q, nx.c | ny.c),
        "compat": compat,
        "subalg": compat and not x.is_undefined,
    }


# Each tag's route, as orders' counterexample names it.
_ORDER_TEMPLATES = {tag: "%s(x, y) disagrees with %s at x=%%(x)s y=%%(y)s: holds=%%(holds)s"
                    % (tag, route) for tag, route in {
    "tr": "the implication given(x, not y) having no true region",
    "nf": "the implication sasaki(x, not y) having no true region",
    "ap": "or_(x, or_(y, not y)) == or_(y, not y)",
    "pm": "the implication or_(not x, y) having no false region",
    "vee": "or_(x, y) == y",
    "wedge": "and_(x, y) == x",
    "bo": "ap both ways and tr",
    "orth": "and_(x, y) == (0|b v d)",
    "simver": "and_(x, y) == (abcd|b v d)",
    "simfals": "and_(not x, not y) == (a'bc'd|b v d)",
    "compat": "ap both ways",
    "subalg": "ap both ways with a nonempty condition",
}.items()}


def _law_orders(run):
    """Every relate tag, through rel.holds, agrees on every ordered pair
    with its route through the operations."""
    conds = [cnd.Conditional(run.space, q, c) for q, c in run.pairs]
    for x, y in _counted(run, product(conds, repeat=2)):
        routes = _order_routes(x, y)
        for tag in rel.RELATION_TAGS:
            holds = rel.holds(tag, x, y)
            if holds != routes[tag]:
                return _ORDER_TEMPLATES[tag], dict(x=x, y=y, holds=holds)
    return None


# ------------------------------------------------------------- catalog


class _Law(Record):
    """A catalog record: the law's id, its atom budget, the names of
    every kernel it calls, its sweeps and the function for the rest of
    the law, or None. A sweep is what `_sweep` takes: (arity, {template:
    clause}, lead kernel name or None, then the names of law-space
    attributes broadcast as constants)."""

    __slots__ = _fields = ("id", "budget", "kernels", "sweeps", "fn")

    def __init__(self, law_id, budget, kernels, sweeps=(), fn=None):
        _set(self, "id", law_id)
        _set(self, "budget", budget)
        _set(self, "kernels", tuple(kernels.split()))
        _set(self, "sweeps", tuple(sweeps))
        _set(self, "fn", fn)


# Every kernel a record may name, with its module and operand count.
# `check` and every clause read it from the module when they run: a
# mutant replaces it there.
_KERNELS = dict.fromkeys(("or_bits", "and_bits", "given_bits", "osum_bits", "sasaki_bits"),
                         (cnd, 2))
_KERNELS.update(dict.fromkeys(("cap_bits", "cup_bits", "sand_bits", "vee_bits"), (schay, 2)),
                not_bits=(cnd, 1))


def _kernel(name):
    """The kernel a record names, as its module holds it now."""
    return getattr(_KERNELS[name][0], name)


# Each law's statement is the comment on its record.
_CATALOG = (
    # and_(x, or_(y, z)) == or_(and_(x, y), and_(x, z)) iff
    # ab & e'f <= d and ab & c'd <= f.
    _Law("t2.4", 4, "or_bits and_bits", [(3, {_EQUATION_SIDE: lambda q1, c1, q2, c2, q3, c3: (
        cnd.and_bits(q1, c1, *cnd.or_bits(q2, c2, q3, c3)),
        cnd.or_bits(*cnd.and_bits(q1, c1, q2, c2), *cnd.and_bits(q1, c1, q3, c3)),
        (q1 & c3 & ~q3 & ~c2) | (q1 & c2 & ~q2 & ~c3))}, None)]),
    # or_(x, and_(y, z)) == and_(or_(x, y), or_(x, z)) iff
    # a'b & ef <= d and a'b & cd <= f.
    _Law("c2.5", 4, "or_bits and_bits", [(3, {_EQUATION_SIDE: lambda q1, c1, q2, c2, q3, c3: (
        cnd.or_bits(q1, c1, *cnd.and_bits(q2, c2, q3, c3)),
        cnd.and_bits(*cnd.or_bits(q1, c1, q2, c2), *cnd.or_bits(q1, c1, q3, c3)),
        c1 & ~q1 & ((q3 & ~c2) | (q2 & ~c3)))}, None)]),
    # or_(x, and_(y, z)) == and_(or_(x, y), z) iff
    # ab & e'f == 0 and a'b & ef <= d.
    _Law("t2.6", 4, "or_bits and_bits", [(3, {_EQUATION_SIDE: lambda q1, c1, q2, c2, q3, c3: (
        cnd.or_bits(q1, c1, *cnd.and_bits(q2, c2, q3, c3)),
        cnd.and_bits(*cnd.or_bits(q1, c1, q2, c2), q3, c3),
        (q1 & c3 & ~q3) | (c1 & ~q1 & q3 & ~c2))}, None)]),
    # and_(x, or_(y, z)) == or_(and_(x, y), z) iff
    # a'b & ef == 0 and ab & e'f <= d.
    _Law("c2.7", 4, "or_bits and_bits", [(3, {_EQUATION_SIDE: lambda q1, c1, q2, c2, q3, c3: (
        cnd.and_bits(q1, c1, *cnd.or_bits(q2, c2, q3, c3)),
        cnd.or_bits(*cnd.and_bits(q1, c1, q2, c2), q3, c3),
        (c1 & ~q1 & q3) | (q1 & c3 & ~q3 & ~c2))}, None)]),
    # and_(x, or_(not x, z)) == z iff b <= f and a'b <= e'f.
    _Law("c2.8", 4, "or_bits and_bits not_bits", [(2, {_ABSORPTION_SIDE: lambda q1, c1, q3, c3, nx:
        (cnd.and_bits(q1, c1, *cnd.or_bits(*nx, q3, c3)), (q3, c3),
         (c1 & ~c3) | ((c1 & ~q1) & ~(c3 & ~q3)))}, "not_bits")]),
    # or_(x, and_(not x, z)) == z iff b <= f and ab <= ef.
    _Law("c2.9", 4, "or_bits and_bits not_bits", [(2, {_ABSORPTION_SIDE: lambda q1, c1, q3, c3, nx:
        (cnd.or_bits(q1, c1, *cnd.and_bits(*nx, q3, c3)), (q3, c3), (c1 & ~c3) | (q1 & ~q3))},
        "not_bits")]),
    # Basic identities: idempotence, commutativity, associativity, double
    # negation, De Morgan, U as pass-through, (0|1) and (1|1) as absolutes, and
    # the conditioned absorption and_(x, y) == and_(y, given(x, y)). The
    # singles take full, the space's atoms, as a constant of their sweep.
    _Law("props2.3", 4, "or_bits and_bits not_bits given_bits", [
        (1, {"%s fails at x=%%(x)s" % label: clause for label, clause in {
            "not(not x) == x":
                lambda q1, c1, full: (cnd.not_bits(*cnd.not_bits(q1, c1)), (q1, c1)),
            "or_(x, x) == x": lambda q1, c1, full: (cnd.or_bits(q1, c1, q1, c1), (q1, c1)),
            "and_(x, x) == x": lambda q1, c1, full: (cnd.and_bits(q1, c1, q1, c1), (q1, c1)),
            "or_(x, U) == x": lambda q1, c1, full: (cnd.or_bits(q1, c1, 0, 0), (q1, c1)),
            "and_(x, U) == x": lambda q1, c1, full: (cnd.and_bits(q1, c1, 0, 0), (q1, c1)),
            "or_(x, (0|1)) == (ab|1)":
                lambda q1, c1, full: (cnd.or_bits(q1, c1, 0, full), (q1, full)),
            "and_(x, (0|1)) == (0|1)":
                lambda q1, c1, full: (cnd.and_bits(q1, c1, 0, full), (0, full)),
            "or_(x, (1|1)) == (1|1)":
                lambda q1, c1, full: (cnd.or_bits(q1, c1, full, full), (full, full)),
            "and_(x, (1|1)) == (a v b'|1)": lambda q1, c1, full: (
                cnd.and_bits(q1, c1, full, full), (q1 | (full & ~c1), full)),
        }.items()}, None, "full_bits"),
        (2, {"%s at x=%%(x)s y=%%(y)s" % label: clause for label, clause in {
            "or_ not commutative": lambda q1, c1, q2, c2: (
                cnd.or_bits(q1, c1, q2, c2), cnd.or_bits(q2, c2, q1, c1)),
            "and_ not commutative": lambda q1, c1, q2, c2: (
                cnd.and_bits(q1, c1, q2, c2), cnd.and_bits(q2, c2, q1, c1)),
            "De Morgan (or) fails": lambda q1, c1, q2, c2: (
                cnd.not_bits(*cnd.or_bits(q1, c1, q2, c2)),
                cnd.and_bits(*cnd.not_bits(q1, c1), *cnd.not_bits(q2, c2))),
            "De Morgan (and) fails": lambda q1, c1, q2, c2: (
                cnd.not_bits(*cnd.and_bits(q1, c1, q2, c2)),
                cnd.or_bits(*cnd.not_bits(q1, c1), *cnd.not_bits(q2, c2))),
            "and_(x, y) != and_(y, given(x, y))": lambda q1, c1, q2, c2: (
                cnd.and_bits(q1, c1, q2, c2),
                cnd.and_bits(q2, c2, *cnd.given_bits(q1, c1, q2, c2))),
        }.items()}, None),
        (3, {"or_ not associative at x=%(x)s y=%(y)s z=%(z)s": lambda q1, c1, q2, c2, q3, c3: (
                 cnd.or_bits(*cnd.or_bits(q1, c1, q2, c2), q3, c3),
                 cnd.or_bits(q1, c1, *cnd.or_bits(q2, c2, q3, c3))),
             "and_ not associative at x=%(x)s y=%(y)s z=%(z)s": lambda q1, c1, q2, c2, q3, c3: (
                 cnd.and_bits(*cnd.and_bits(q1, c1, q2, c2), q3, c3),
                 cnd.and_bits(q1, c1, *cnd.and_bits(q2, c2, q3, c3)))}, None),
    ]),
    _Law("t2.13", 3, "or_bits", fn=_law_t2_13),
    _Law("t2.18", 3, "and_bits", fn=_law_t2_18),
    _Law("t2.19", 3, "or_bits and_bits", fn=_law_t2_19),
    # Negation is an involution (hence a bijection), reverses the pm order, and
    # meets its relative complement laws: and_(x, not x) == (0|b),
    # or_(x, not x) == (1|b).
    _Law("p2.20", 4, "or_bits and_bits not_bits", [
        (1, {"negation is not an involution at x=%(x)s":
                 lambda q1, c1, nx: (cnd.not_bits(*nx), (q1, c1)),
             "and_(x, not x) != (0|b) at x=%(x)s":
                 lambda q1, c1, nx: (cnd.and_bits(q1, c1, *nx), (0, c1)),
             "or_(x, not x) != (1|b) at x=%(x)s":
                 lambda q1, c1, nx: (cnd.or_bits(q1, c1, *nx), (c1, c1))}, "not_bits"),
        (2, {"pm does not reverse under negation at x=%(x)s y=%(y)s": _reverses}, None),
    ]),
    _Law("truth-tables", 4, "and_bits or_bits given_bits not_bits", fn=_law_truth_tables),
    # The context split b&d' / b'&d / b&d: the three-term conditional
    # identities for or_ and and_, the or==and criterion
    # (ab & c'd == 0 == a'b & cd), and the probability expansions
    # p_or_formula / p_superposition agreeing with p_cond on every grid measure.
    _Law("superposition", 3, "or_bits and_bits", [(2, {
        "two-term split fails at x=%(x)s y=%(y)s lhs=%(lhs)s rhs=%(rhs)s":
            lambda q1, c1, q2, c2: (cnd.or_bits(q1, c1, q2, c2), cnd.or_bits(
                *cnd.and_bits(q1, c1, c1, c1 | c2), *cnd.and_bits(q2, c2, c2, c1 | c2))),
        "three-term or split fails at x=%(x)s y=%(y)s lhs=%(lhs)s rhs=%(rhs)s":
            lambda q1, c1, q2, c2: (cnd.or_bits(q1, c1, q2, c2),
                                    _three_term(q1, c1, q2, c2, q1 | q2)),
        "three-term and split fails at x=%(x)s y=%(y)s lhs=%(lhs)s rhs=%(rhs)s":
            lambda q1, c1, q2, c2: (cnd.and_bits(q1, c1, q2, c2),
                                    _three_term(q1, c1, q2, c2, q1 & q2)),
        "or==and criterion fails at x=%(x)s y=%(y)s":
            lambda q1, c1, q2, c2: (cnd.or_bits(q1, c1, q2, c2), cnd.and_bits(q1, c1, q2, c2),
                                    (q1 & c2 & ~q2) | (c1 & ~q1 & q2)),
    }, None)], _superposition_grid),
    _Law("t3.2", 3, "or_bits", fn=_law_t3_2),
    # and_(x, y) == (abcd | b v d) exactly when x and y are simultaneously
    # verifiable.
    _Law("c3.3", 4, "and_bits", [(2, {"x=%(x)s y=%(y)s collapse=%(holds)s simver=%(side)s":
        lambda q1, c1, q2, c2: (cnd.and_bits(q1, c1, q2, c2), (q1 & q2, c1 | c2),
                                (q1 & ~c2) | (q2 & ~c1))}, None)]),
    # Simultaneous falsifiability (a'b <= d and c'd <= b) is simultaneous
    # verifiability of the negations.
    _Law("c3.5", 4, "not_bits", [(2, {"x=%(x)s y=%(y)s direct=%(holds)s negated=%(side)s":
        lambda q1, c1, q2, c2: (((c1 & ~q1) & ~c2) | ((c2 & ~q2) & ~c1), 0,
                                _simver(*cnd.not_bits(q1, c1), *cnd.not_bits(q2, c2)))}, None)]),
    # Simultaneously verifiable and falsifiable == equal conditions.
    _Law("c3.6", 4, "", [(2, {"x=%(x)s y=%(y)s simver_and_simfals=%(holds)s "
                              "same_condition=%(side)s": lambda q1, c1, q2, c2: (
        (q1 & ~c2) | (q2 & ~c1) | ((c1 & ~q1) & ~c2) | ((c2 & ~q2) & ~c1), 0, c1 ^ c2)}, None)]),
    _Law("t3.7", 3, "or_bits and_bits not_bits", fn=_law_t3_7),
    _Law("c3.8", 3, "or_bits and_bits not_bits", fn=_law_c3_8),
    # and_(x, z) == (0 | b v f) and or_(x, z) == (1 | b v f) together happen
    # exactly when b == f and z == not x.
    _Law("t3.9", 4, "or_bits and_bits not_bits", [(2, {
        "x=%(x)s z=%(y)s complement_pair=%(holds)s right=%(side)s": _complement_pair}, "not_bits")]),
    # osum is commutative with (0|b) as same-condition neutral,
    # osum(x, x) == (0|b), and not x as the unique z with osum(x, z) == (1|b).
    # Associativity of the total operation is not a law; its status is reported
    # in the note. The side clause fails where osum(x, z) == (1|b) and
    # z != not x; at z == not x, osum(x, z) == (1|b) passed among the singles.
    _Law("t3.11", 4, "osum_bits not_bits", [
        (1, {"osum(x, (0|b)) != x at x=%(x)s":
                 lambda q1, c1: (cnd.osum_bits(q1, c1, 0, c1), (q1, c1)),
             "osum(x, x) != (0|b) at x=%(x)s":
                 lambda q1, c1: (cnd.osum_bits(q1, c1, q1, c1), (0, c1)),
             "osum(x, not x) != (1|b) at x=%(x)s":
                 lambda q1, c1: (cnd.osum_bits(q1, c1, *cnd.not_bits(q1, c1)), (c1, c1))}, None),
        (2, {"osum not commutative at x=%(x)s z=%(y)s": lambda q1, c1, q2, c2, nx: (
                 cnd.osum_bits(q1, c1, q2, c2), cnd.osum_bits(q2, c2, q1, c1)),
             "complement not unique: osum(x, z) == (1|b) at x=%(x)s z=%(y)s":
                 lambda q1, c1, q2, c2, nx: (cnd.osum_bits(q1, c1, q2, c2), (c1, c1),
                                             (q2 ^ nx[0]) | (c2 ^ nx[1]))}, "not_bits"),
    ], _osum_note),
    # sasaki(b, a): fixes a iff cond(b) <= cond(a) and the falsity region of b
    # lies inside that of a; annihilates to (0 | a2 v b2) iff the consequent of
    # a lies in the falsity region of b; is idempotent in its second argument;
    # composes via and_ of the projectors; and two projections onto the same
    # target commute. Triples are (b, c, a), with the lead meet = and_(b, c).
    _Law("t3.15", 4, "and_bits sasaki_bits", [
        (2, {"fixed-point criterion fails at b=%(x)s a=%(y)s": _fixed_point,
             "annihilation criterion fails at b=%(x)s a=%(y)s":
                 lambda qb, cb, qa, ca: (cnd.sasaki_bits(qb, cb, qa, ca), (0, ca | cb),
                                         qa & ~(cb & ~qb)),
             "projection not idempotent at b=%(x)s a=%(y)s": _idempotent}, None),
        (3, {"composition via and_ fails at b=%(x)s c=%(y)s a=%(z)s":
                 lambda qb, cb, qc, cc, qa, ca, meet: (_nested(qb, cb, qc, cc, qa, ca),
                                                       cnd.sasaki_bits(*meet, qa, ca)),
             "projections do not commute at b=%(x)s c=%(y)s a=%(z)s":
                 lambda qb, cb, qc, cc, qa, ca, meet: (
                     _nested(qb, cb, qc, cc, qa, ca),
                     cnd.sasaki_bits(qb, cb, *cnd.sasaki_bits(qc, cc, qa, ca)))}, "and_bits"),
    ]),
    # sasaki(c, c) == c; sasaki(b, a) == a exactly when and_(a, b) == a (the
    # wedge order); and sasaki(b, a) annihilates to (0 | a2 v b2) exactly when
    # tr(a, not b). Pairs are (b, a) with the lead nb = not b.
    _Law("c3.16", 4, "not_bits sasaki_bits", [
        (1, {"sasaki(c, c) != c at c=%(x)s":
                 lambda q1, c1: (cnd.sasaki_bits(q1, c1, q1, c1), (q1, c1))}, None),
        (2, {"fixed point does not match the wedge order at b=%(x)s a=%(y)s": _fixed_point,
             "annihilation does not match tr(a, not b) at b=%(x)s a=%(y)s":
                 lambda qb, cb, qa, ca, nb: (cnd.sasaki_bits(qb, cb, qa, ca), (0, ca | cb),
                                             qa & ~nb[0])}, "not_bits"),
    ]),
    # Sasaki projection interplay with or_: absorbing a projection through the
    # complement, distribution over or_, the commutation / coincidence
    # criteria, the two-sided verifiability criterion, and closure of joint
    # verifiability under folded or_ and and_. Pairs are (b, a) with the lead
    # nb = not b; triples are (c, b, a) with the lead proj_b = sasaki(c, b).
    # The folded families stay on 3 atoms; their pairs render alike on a larger
    # law space.
    _Law("t3.17", 4, "or_bits and_bits not_bits sasaki_bits", [
        (2, {"or_(b, a) != or_(b, sasaki(not b, a)) at b=%(x)s a=%(y)s":
                 lambda qb, cb, qa, ca, nb: (cnd.or_bits(qb, cb, qa, ca),
                                             cnd.or_bits(qb, cb, *cnd.sasaki_bits(*nb, qa, ca))),
             "commutation criterion fails at b=%(x)s a=%(y)s":
                 lambda qb, cb, qa, ca, nb: (cnd.sasaki_bits(qb, cb, qa, ca),
                                             cnd.sasaki_bits(qa, ca, qb, cb),
                                             (qb & ~ca) | (qa & ~cb)),
             "coincidence-with-and_ criterion fails at b=%(x)s a=%(y)s":
                 lambda qb, cb, qa, ca, nb: (cnd.sasaki_bits(qb, cb, qa, ca),
                                             cnd.and_bits(qb, cb, qa, ca), qb & ~ca),
             "bounded-order criterion fails at b=%(x)s a=%(y)s": _bounded,
             "two-sided verifiability criterion fails at b=%(x)s a=%(y)s":
                 lambda qb, cb, qa, ca, nb: (
                     (qb & ~ca) | (qa & ~cb) | (nb[0] & ~ca) | (qa & ~nb[1]), 0,
                     (qa & ~cb) | (cb & ~ca))}, "not_bits"),
        (3, {"projection does not distribute over or_ at c=%(x)s b=%(y)s a=%(z)s":
                 lambda qc, cc, qb, cb, qa, ca, proj_b: (
                     cnd.sasaki_bits(qc, cc, *cnd.or_bits(qb, cb, qa, ca)),
                     cnd.or_bits(*proj_b, *cnd.sasaki_bits(qc, cc, qa, ca)))}, "sasaki_bits"),
    ], lambda run: _folded_families(run, min(run.space.n, 3))),
    # Both alternative operation pairs form distributive lattices: cap_s with
    # cup_s, and and_s with vee_s. Idempotence, commutativity, associativity,
    # the two absorption laws and both distributivities are swept for each
    # pair.
    _Law("schay-lattice", 3, "cap_bits cup_bits sand_bits vee_bits",
         _lattice_sweeps("cap_s/cup_s", "cap_bits", "cup_bits")
         + _lattice_sweeps("and_s/vee_s", "sand_bits", "vee_bits")),
    # cup_s is or_, and_s is and_, and the four-term expanded form of the
    # consequent of cup_s reduces to the same operation.
    _Law("schay-coincide", 4, "cup_bits sand_bits or_bits and_bits", [(2, {
        "cup_s != or_ at x=%(x)s y=%(y)s": lambda q1, c1, q2, c2: (
            schay.cup_bits(q1, c1, q2, c2), cnd.or_bits(q1, c1, q2, c2)),
        "and_s != and_ at x=%(x)s y=%(y)s": lambda q1, c1, q2, c2: (
            schay.sand_bits(q1, c1, q2, c2), cnd.and_bits(q1, c1, q2, c2)),
        "expanded union form differs from cup_s at x=%(x)s y=%(y)s": lambda q1, c1, q2, c2: (
            (((q1 & c2) | (q2 & c1) | (q1 & ~c2) | (~c1 & q2)) & (c1 | c2), c1 | c2),
            schay.cup_bits(q1, c1, q2, c2)),
    }, None)]),
    _Law("schay-2.12", 4, "given_bits", fn=_law_schay_2_12),
    # Every relate tag holds exactly where its route through the operations
    # says. Three routes are implications, so the quantum implications
    # correspond to deductive orders: pm to the material or_(not x, y), nf to
    # the Sasaki hook, whose negation is sasaki(x, not y), and tr to
    # given(x, not y).
    _Law("orders", 3, "or_bits and_bits not_bits given_bits sasaki_bits", fn=_law_orders),
)

_BY_ID = {law.id: law for law in _CATALOG}

LAW_IDS = tuple(_BY_ID)


def _lookup(law):
    """The catalog record of a law id; UnknownLaw for any other id."""
    if law not in _BY_ID:
        if law == "all":
            raise UnknownLaw("'all' is the whole catalog; use check_all")
        raise UnknownLaw("unknown law id: %r" % (law,))
    return _BY_ID[law]


def law_budget(law):
    """Largest atom count a law accepts."""
    return _lookup(law).budget


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
    measure to check). A law that raises, or has a part that checks
    no instance, is a FAIL whose counterexample says so. The report's
    `elapsed_s` is the time the check took, in seconds.
    """
    start = perf_counter()
    record = _lookup(law)
    _check_sizes(atoms, max_weight)
    if atoms > record.budget:
        raise TooLarge("law %s runs on at most %d atoms, got %d" % (law, record.budget, atoms))
    run = _Run(atoms, max_weight, {_kernel(name): _KERNELS[name][1] for name in record.kernels})
    parts = [partial(_sweep, run, arity, [*clauses.values()], [*clauses], lead and _kernel(lead),
                     tuple([getattr(run.space, name) for name in constants]))
             for arity, clauses, lead, *constants in record.sweeps]
    if record.fn:
        parts.append(partial(record.fn, run))
    try:
        for part, check_part in enumerate(parts, 1):
            before = run.count
            result = check_part()
            if run.count == before:  # a part that checked nothing shows nothing
                result = ("part %d checked no instance" % part if before
                          else "no instance was checked"), {}
            if isinstance(result, tuple):
                report = LawReport(law, atoms, run.count, passed=False,
                                   counterexample=_render(run.space, *result))
                break
        else:
            report = LawReport(law, atoms, run.count, passed=True, note=result)  # t3.11's note
    except Exception as exc:  # a law meeting a broken kernel reports, never crashes
        report = LawReport(law, atoms, run.count, passed=False,
                           counterexample="raised %s: %s" % (type(exc).__name__, exc))
    _set(report, "elapsed_s", perf_counter() - start)
    return report


def check_all(atoms, max_weight=3):
    """Check the whole catalog, clamping each law to its own budget."""
    _check_sizes(atoms, max_weight)
    return [check(law.id, min(atoms, law.budget), max_weight) for law in _CATALOG]
