"""Exact conditional probability.

P(a|b) is weight(ab)/weight(b) as a Fraction; conditions of weight zero
raise instead of returning a junk value. The or-expansion and the
context-split superposition are pinned factor by factor on the die bet,
and the additivity check reports exactly when P(x or y) == P(x) + P(y).
Measures compute with integer subset weights, from a table up to 8 atoms
and as a sum over the set bits above; hypothesis pins every function to
a per-atom Fraction reference on both sides of that boundary. Every
result is a Fraction in lowest terms, built without Fraction.__new__.
"""

import copy
import pickle
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from boolfrac import conditional as cnd
from boolfrac import lawcheck
from boolfrac import prob
from boolfrac import trivalent as tv
from boolfrac.errors import (
    BadWeight,
    NotAPartition,
    SpaceMismatch,
    ZeroCondition,
    ZeroTotalWeight,
)
from boolfrac.space import SampleSpace


def frac(num, den=1):
    return Fraction(num, den)


@pytest.fixture(scope="module")
def bet(die):
    ev = die.events
    return cnd.make(ev["two"], ev["even"]), cnd.make(ev["lt4"], ev["lt5"])


def test_measure_validates_weights(die):
    space = die.space
    with pytest.raises(ValueError):
        prob.Measure(space, [1, 1])
    with pytest.raises(BadWeight):
        prob.Measure(space, [1, 1, 1, 1, 1, -1])
    with pytest.raises(ZeroTotalWeight):
        prob.Measure(space, [0] * 6)


def test_weights_accept_fractions():
    space = SampleSpace(["a", "b"])
    m = prob.Measure(space, [Fraction(1, 3), Fraction(2, 3)])
    assert m.weight(space.atom("b")) == frac(2, 3)


def test_p_event_and_p_cond_on_the_die(die, uniform, bet):
    x, y = bet
    assert prob.p_event(uniform, die.events["even"]) == frac(1, 2)
    assert prob.p_cond(uniform, x) == frac(1, 3)
    assert prob.p_cond(uniform, y) == frac(3, 4)


def test_p_cond_of_the_bet_is_three_fifths(die, uniform, bet):
    x, y = bet
    assert prob.p_cond(uniform, cnd.or_(x, y)) == frac(3, 5)


def test_p_cond_rejects_zero_weight_conditions(die, uniform):
    with pytest.raises(ZeroCondition):
        prob.p_cond(uniform, cnd.undefined(die.space))


def test_p_cond_rejects_foreign_spaces(uniform):
    other = SampleSpace(["a"])
    with pytest.raises(SpaceMismatch):
        prob.p_cond(uniform, cnd.undefined(other))


def test_or_formula_reproduces_the_term_decomposition(die, uniform, bet):
    """P(x v y) == P(a|b)P(b|bvd) + P(c|d)P(d|bvd) - P(abcd|bd)P(bd|bvd),
    here (1/3)(3/5) + (3/4)(4/5) - (1/2)(2/5) == 3/5."""
    x, y = bet
    ev = die.events
    union = ev["even"] | ev["lt5"]
    both = ev["even"] & ev["lt5"]
    p_x = prob.p_cond(uniform, x)
    p_b = prob.p_cond(uniform, cnd.make(ev["even"], union))
    p_y = prob.p_cond(uniform, y)
    p_d = prob.p_cond(uniform, cnd.make(ev["lt5"], union))
    p_all = prob.p_cond(uniform, cnd.make(ev["two"] & ev["lt4"], both))
    p_both = prob.p_cond(uniform, cnd.make(both, union))
    assert (p_x, p_b) == (frac(1, 3), frac(3, 5))
    assert (p_y, p_d) == (frac(3, 4), frac(4, 5))
    assert (p_all, p_both) == (frac(1, 2), frac(2, 5))
    expected = p_x * p_b + p_y * p_d - p_all * p_both
    assert expected == frac(3, 5)
    assert prob.p_or_formula(uniform, x, y) == expected


def test_or_formula_handles_zero_weight_contexts():
    """Any product conditioned on a zero-weight context contributes 0."""
    space = SampleSpace(["1", "2", "3"])
    m = prob.Measure(space, [1, 1, 0])
    x = cnd.make(space.atom("1"), space.event(["1", "3"]))
    y = cnd.make(space.atom("2"), space.event(["2", "3"]))
    # direct: or_(x, y) == ({1,2}|{1,2,3}) with weight 2/2
    assert prob.p_or_formula(m, x, y) == prob.p_cond(m, cnd.or_(x, y)) == frac(1)


def test_superposition_splits_the_context(die, uniform, bet):
    """or-mode: 0 + (1)(2/5) + 1/5 == 3/5 on the die bet; and-mode
    agrees because the cross terms vanish."""
    x, y = bet
    assert prob.p_superposition(uniform, x, y, mode="or") == frac(3, 5)
    assert prob.p_superposition(uniform, x, y, mode="and") == frac(3, 5)
    assert prob.p_superposition(uniform, x, y) == frac(3, 5)
    with pytest.raises(ValueError):
        prob.p_superposition(uniform, x, y, mode="xor")


def test_superposition_matches_direct_for_every_pair_at_two_atoms():
    space = SampleSpace(["1", "2"])
    m = prob.Measure(space, [2, 1])
    pairs = cnd.enumerate_conditionals_bits(space.full_bits)
    for q1, c1 in pairs:
        for q2, c2 in pairs:
            if (c1 | c2) == 0:
                continue
            x = cnd.Conditional(space, q1, c1)
            y = cnd.Conditional(space, q2, c2)
            assert prob.p_or_formula(m, x, y) == prob.p_cond(m, cnd.or_(x, y))
            assert prob.p_superposition(m, x, y, "or") == prob.p_cond(m, cnd.or_(x, y))
            assert prob.p_superposition(m, x, y, "and") == prob.p_cond(m, cnd.and_(x, y))


def test_additivity_fails_for_the_two_bets(die, uniform):
    """P(1-given-odd or 2-given-even) is 2/6, not 1/3 + 1/3."""
    space = die.space
    report = prob.additive_law_check(
        uniform, space.event(["1"]), die.events["odd"],
        space.event(["2"]), die.events["even"],
    )
    assert report.lhs == frac(1, 3)
    assert report.rhs == frac(2, 3)
    assert report.holds is False
    assert report.cases == ()


def test_additivity_holds_with_disjoint_consequents_on_one_condition(die, uniform):
    space = die.space
    report = prob.additive_law_check(
        uniform, space.event(["1"]), die.events["odd"],
        space.event(["3"]), die.events["odd"],
    )
    assert report.holds is True
    assert report.lhs == report.rhs == frac(2, 3)
    assert 4 in report.cases


def test_additivity_requires_positive_weight_conditions(die, uniform):
    with pytest.raises(ZeroCondition):
        prob.additive_law_check(
            uniform, die.events["two"], die.space.empty,
            die.events["two"], die.events["even"],
        )


def test_partition_expansion_totals_the_pieces(die, uniform):
    parts = [die.events["even"], die.events["odd"]]
    assert prob.partition_expansion(uniform, die.events["lt4"], parts) == frac(1, 2)


def test_partition_expansion_condition_is_the_join_of_the_parts(die, uniform):
    got = prob.partition_expansion(uniform, die.events["lt4"], [die.events["even"]])
    assert got == frac(1, 3)


def test_partition_expansion_rejects_non_partitions(die, uniform):
    with pytest.raises(NotAPartition):
        prob.partition_expansion(uniform, die.events["lt4"], [])
    with pytest.raises(NotAPartition):
        prob.partition_expansion(
            uniform, die.events["lt4"], [die.events["even"], die.events["lt5"]]
        )


def test_partition_expansion_skips_zero_weight_parts():
    space = SampleSpace(["1", "2", "3"])
    m = prob.Measure(space, [1, 1, 0])
    parts = [space.event(["1", "2"]), space.event(["3"])]
    assert prob.partition_expansion(m, space.atom("1"), parts) == frac(1, 2)


def test_additive_report_is_frozen(die, uniform):
    report = prob.additive_law_check(
        uniform, die.events["two"], die.events["even"],
        die.events["two"], die.events["even"],
    )
    with pytest.raises(AttributeError):
        report.holds = False


@pytest.mark.parametrize("n", [8, 9, 64])
def test_a_measure_survives_pickle_and_deepcopy_after_a_lookup(n):
    """One subset table up to 8 atoms, a sum over the set bits above;
    the masks straddle bit 8 where the space has one."""
    space = SampleSpace("a%d" % i for i in range(n))
    m = prob.Measure(space, [Fraction(i % 5, i % 3 + 1) if i % 4 else i + 1 for i in range(n)])
    masks = [0, 1, space.full_bits, 0b11 << 7 & space.full_bits, 0x1FF & space.full_bits,
             0x5A5 << (n - 11) if n > 11 else 0b1010]
    want = [m.weight_bits(bits) for bits in masks]
    for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert type(twin) is prob.Measure and twin.space == space
        assert (twin.weights, twin.total, repr(twin)) == (m.weights, m.total, repr(m))
        assert [twin.weight_bits(bits) for bits in masks] == want


@pytest.mark.parametrize("n, bits", [(3, 1 << 3), (8, 1 << 8), (9, 1 << 9), (3, -1)])
def test_weight_bits_rejects_bits_outside_the_space(n, bits):
    m = prob.Measure(SampleSpace(str(i) for i in range(n)), [1] * n)
    with pytest.raises(ValueError):
        m.weight_bits(bits)


# ------------------------------------ integer subset weights vs per-atom sums

ATOM_COUNTS = (1, 7, 8, 9, 16, 17, 64)

atom_weights = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=4, max_denominator=12),
)


@st.composite
def measures(draw, counts=ATOM_COUNTS):
    n = draw(st.sampled_from(counts))
    space = SampleSpace(str(i + 1) for i in range(n))
    weights = draw(st.lists(atom_weights, min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(min_value=0, max_value=n - 1))] = 1
    return prob.Measure(space, weights)


def events(draw, space, count):
    bits = st.one_of(
        st.sampled_from((0, space.full_bits)),
        st.integers(min_value=0, max_value=space.full_bits),
    )
    return [space.event_from_bits(draw(bits)) for _ in range(count)]


@st.composite
def measure_and_events(draw, count, counts=ATOM_COUNTS):
    m = draw(measures(counts))
    return m, events(draw, m.space, count)


def ref_weight(m, bits):
    """Per-atom Fraction sum, the definition of a subset weight."""
    return sum((w for i, w in enumerate(m.weights) if bits >> i & 1), Fraction(0))


def ref_p(m, q, c):
    wc = ref_weight(m, c)
    return None if wc == 0 else ref_weight(m, q & c) / wc


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroCondition:
        return None


@given(measure_and_events(2))
def test_weight_bits_and_p_cond_match_per_atom_sums(case):
    m, (a, b) = case
    assert m.weight_bits(a.bits) == ref_weight(m, a.bits)
    assert m.weight(b) == ref_weight(m, b.bits)
    assert m.weight_bits(m.space.full_bits) == m.total
    assert outcome(prob.p_cond, m, cnd.make(a, b)) == ref_p(m, a.bits, b.bits)


@given(measure_and_events(4))
def test_expansions_match_per_atom_products(case):
    m, (a, b, c, d) = case
    x, y = cnd.make(a, b), cnd.make(c, d)
    u = b.bits | d.bits
    both = b.bits & d.bits
    only_b = b.bits & ~d.bits
    only_d = d.bits & ~b.bits

    def term(q, mid):
        p_mid = ref_p(m, mid, u)
        return 0 if not p_mid else ref_p(m, q, mid) * p_mid

    if ref_weight(m, u) == 0:
        want_or = want_sup_or = want_sup_and = None
    else:
        want_or = term(x.q, b.bits) + term(y.q, d.bits) - term(x.q & y.q, both)
        sides = term(x.q, only_b) + term(y.q, only_d)
        want_sup_or = sides + ref_p(m, (x.q | y.q) & both, u)
        want_sup_and = sides + ref_p(m, x.q & y.q, u)
    assert outcome(prob.p_or_formula, m, x, y) == want_or
    assert outcome(prob.p_superposition, m, x, y, "or") == want_sup_or
    assert outcome(prob.p_superposition, m, x, y, "and") == want_sup_and


@given(measure_and_events(1), st.data())
def test_partition_expansion_matches_per_atom_sums(case, data):
    m, (a,) = case
    n = m.space.n
    labels = data.draw(st.lists(st.integers(min_value=-1, max_value=3), min_size=n, max_size=n))
    blocks = [sum(1 << i for i, label in enumerate(labels) if label == k) for k in range(4)]
    parts = [m.space.event_from_bits(bits) for bits in blocks if bits]
    if not parts:
        return
    union = sum(blocks)
    if ref_weight(m, union) == 0:
        want = None
    else:
        want = sum(
            (ref_p(m, a.bits, bits) * ref_p(m, bits, union) for bits in blocks
             if ref_weight(m, bits)),
            Fraction(0),
        )
    assert outcome(prob.partition_expansion, m, a, parts) == want


@given(measure_and_events(4))
def test_additive_law_check_matches_per_atom_sums(case):
    m, (a, c1, b, c2) = case

    def w(bits):
        return ref_weight(m, bits)

    if w(c1.bits) == 0 or w(c2.bits) == 0:
        with pytest.raises(ZeroCondition):
            prob.additive_law_check(m, a, c1, b, c2)
        return
    report = prob.additive_law_check(m, a, c1, b, c2)
    xq, yq = a.bits & c1.bits, b.bits & c2.bits
    lhs = ref_p(m, xq | yq, c1.bits | c2.bits)
    rhs = ref_p(m, xq, c1.bits) + ref_p(m, yq, c2.bits)
    ac1_null, bc2_null = w(xq) == 0, w(yq) == 0
    c1_in_c2, c2_in_c1 = w(c1.bits & ~c2.bits) == 0, w(c2.bits & ~c1.bits) == 0
    cases = tuple(
        number for number, applies in (
            (1, ac1_null and bc2_null),
            (2, ac1_null and c1_in_c2),
            (3, bc2_null and c2_in_c1),
            (4, c1_in_c2 and c2_in_c1 and w(xq & yq) == 0),
        ) if applies
    )
    assert (report.lhs, report.rhs, report.holds, report.cases) == (lhs, rhs, lhs == rhs, cases)
    assert report.holds == bool(report.cases)


# ------------------------------- additive_law_check against its object form


def reference_additive_law_check(m, a, c1, b, c2):
    """additive_law_check as it was written on Conditionals and Fractions:
    both operands through cnd.make, the disjunction through cnd.or_ and
    p_cond, and holds as a Fraction comparison. Only the way it reaches
    the measure's integer lookup is today's."""
    x = cnd.make(a, c1)
    y = cnd.make(b, c2)
    prob._check(m, x)
    prob._check(m, y)
    w = m._iw
    wx = w(x.c)
    wy = w(y.c)
    if wx == 0 or wy == 0:
        raise ZeroCondition("both conditions need positive weight")
    wxq = w(x.q)
    wyq = w(y.q)
    lhs = prob.p_cond(m, cnd.or_(x, y))
    rhs = Fraction(wxq * wy + wyq * wx, wx * wy)

    ac1_null = wxq == 0
    bc2_null = wyq == 0
    c1_in_c2 = w(x.c & ~y.c) == 0
    c2_in_c1 = w(y.c & ~x.c) == 0
    cases = []
    if ac1_null and bc2_null:
        cases.append(1)
    if ac1_null and c1_in_c2:
        cases.append(2)
    if bc2_null and c2_in_c1:
        cases.append(3)
    if c1_in_c2 and c2_in_c1 and w(x.q & y.q) == 0:
        cases.append(4)
    return prob.AdditiveReport(lhs=lhs, rhs=rhs, holds=lhs == rhs, cases=tuple(cases))


def assert_same_as_reference(m, a, c1, b, c2):
    """An equal report with the same repr, or the same exception type
    and message."""
    def run(fn):
        try:
            return fn(m, a, c1, b, c2)
        except Exception as exc:
            return type(exc), str(exc)

    got = run(prob.additive_law_check)
    want = run(reference_additive_law_check)
    assert got == want and repr(got) == repr(want), (a, c1, b, c2)


def check_every_instance_at_two_atoms():
    """Every (a, c1, b, c2) at 2 atoms; the weights (0, 1) make events
    null and conditions weigh zero."""
    space = SampleSpace(["1", "2"])
    events = [space.event_from_bits(bits) for bits in range(4)]
    for weights in ((0, 1), (1, 2)):
        m = prob.Measure(space, weights)
        for a in events:
            for c1 in events:
                for b in events:
                    for c2 in events:
                        assert_same_as_reference(m, a, c1, b, c2)


def test_additive_law_check_matches_the_object_form_at_two_atoms():
    check_every_instance_at_two_atoms()


@given(measure_and_events(4, counts=(1, 8, 9, 16)))
def test_additive_law_check_matches_the_object_form_across_the_table_boundary(case):
    m, (a, c1, b, c2) = case
    assert_same_as_reference(m, a, c1, b, c2)


def per_atom_or_with(entry, value):
    """or_bits from its truth table with one entry changed, atom by atom."""
    table = {**tv.OR_TABLE, entry: value}

    def kernel(q1, c1, q2, c2):
        q = c = 0
        for bit in (0b01, 0b10):
            out = table[tv.eval_at_bit(q1, c1, bit), tv.eval_at_bit(q2, c2, bit)]
            if out is not tv.U:
                c |= bit
                if out is tv.T:
                    q |= bit
        return q, c

    return kernel


OR_BITS = cnd.or_bits  # the shipped kernel, for the ones that replace it


def _or_leaving_normal_form(q1, c1, q2, c2):
    q, c = OR_BITS(q1, c1, q2, c2)
    return q | 1, c


def _or_raising_on_some_pair(q1, c1, q2, c2):
    if q1 == 0b01 and c2 == 0b11:
        raise RuntimeError("boom")
    return OR_BITS(q1, c1, q2, c2)


@pytest.mark.parametrize("kernel", [
    pytest.param(per_atom_or_with((tv.T, tv.T), tv.U), id="TT_to_U"),
    pytest.param(_or_leaving_normal_form, id="leaving_normal_form"),
    pytest.param(_or_raising_on_some_pair, id="raising"),
])
def test_additive_law_check_sees_an_installed_or_kernel(monkeypatch, kernel):
    """The kernel is read at call time: its zero-weight conditions, its
    results out of normal form and its exceptions surface as they did
    through cnd.or_ and p_cond."""
    monkeypatch.setattr(cnd, "or_bits", kernel)
    check_every_instance_at_two_atoms()


def test_additive_law_check_validates_its_operands_in_the_old_order():
    """Every mix of events of the space, events of another space and
    non-events in the four operand positions, under a measure on either
    space."""
    space = SampleSpace(["1", "2"])
    other = SampleSpace(["a"])
    operands = [space.atom("1"), space.full, other.full, cnd.make(space.full, space.full), None]
    for m in (prob.Measure(space, [1, 2]), prob.Measure(other, [1])):
        for a in operands:
            for c1 in operands:
                for b in operands:
                    for c2 in operands:
                        assert_same_as_reference(m, a, c1, b, c2)


@pytest.mark.parametrize("position", range(4))
def test_additive_law_check_rejects_a_non_event_in_any_position(die, uniform, position):
    operands = [die.events["two"], die.events["even"], die.events["lt4"], die.events["lt5"]]
    operands[position] = die.space.full.bits
    with pytest.raises(TypeError, match="^make expects two events$"):
        prob.additive_law_check(uniform, *operands)


def test_additive_law_check_rejects_operands_and_measures_of_other_spaces(die, uniform):
    other = SampleSpace(["a"])
    ev = die.events
    with pytest.raises(SpaceMismatch, match="^operands belong to different sample spaces$"):
        prob.additive_law_check(uniform, ev["two"], other.full, ev["lt4"], ev["lt5"])
    with pytest.raises(SpaceMismatch, match="^operands belong to different sample spaces$"):
        prob.additive_law_check(uniform, ev["two"], ev["even"], other.full, ev["lt5"])
    with pytest.raises(SpaceMismatch, match="^measure and operand disagree on the sample space$"):
        prob.additive_law_check(prob.Measure(other, [1]), ev["two"], ev["even"], ev["lt4"],
                                ev["lt5"])


# ------------------------------------ operand checks of the law-loop functions


def raised(fn, *args):
    """The type and message of what fn raises, or None if it returns."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def conditional_functions():
    """(name, fn) for the functions over conditionals, each taking a
    measure and a tuple of its operands."""
    return [
        ("p_cond", lambda m, ops: prob.p_cond(m, ops[0])),
        ("p_or_formula", lambda m, ops: prob.p_or_formula(m, *ops)),
        ("p_superposition or", lambda m, ops: prob.p_superposition(m, *ops, "or")),
        ("p_superposition and", lambda m, ops: prob.p_superposition(m, *ops, "and")),
    ]


DISAGREE = (SpaceMismatch, "measure and operand disagree on the sample space")


def test_law_loop_functions_reject_an_operand_of_another_space(die, uniform, bet):
    other = SampleSpace(["a"])
    foreign = cnd.make(other.full, other.full)
    x, y = bet
    for name, fn in conditional_functions():
        for ops in ((foreign, y), (x, foreign), (foreign, foreign)):
            if name == "p_cond" and ops[0] is x:
                continue
            assert raised(fn, uniform, ops) == DISAGREE, (name, ops)
    ev = die.events
    for a, c1, b, c2 in ((other.full,) * 4,
                         (ev["two"], ev["even"], other.full, other.full),
                         (other.full, other.full, ev["lt4"], ev["lt5"])):
        assert raised(prob.additive_law_check, uniform, a, c1, b, c2) == DISAGREE


def test_law_loop_functions_take_an_equal_space_that_is_another_object(die, uniform, bet):
    twin = SampleSpace(die.space.atoms)
    assert twin == die.space and twin is not die.space
    x, y = bet
    tx, ty = (cnd.Conditional(twin, z.q, z.c) for z in bet)
    for name, fn in conditional_functions():
        for ops in ((tx, ty), (x, ty), (tx, y)):
            assert fn(uniform, ops) == fn(uniform, (x, y)), (name, ops)
    ev = die.events
    names = ("two", "even", "lt4", "lt5")
    events = [ev[name] for name in names]
    twins = [twin.event_from_bits(e.bits) for e in events]
    want = prob.additive_law_check(uniform, *events)
    for operands in (twins, twins[:2] + events[2:], events[:2] + twins[2:]):
        got = prob.additive_law_check(uniform, *operands)
        assert (repr(got), got.lhs, got.rhs) == (repr(want), want.lhs, want.rhs)


def test_additive_law_check_words_both_zero_conditions(monkeypatch):
    space = SampleSpace(["1", "2"])
    m = prob.Measure(space, [0, 1])
    one, two = space.atom("1"), space.atom("2")
    assert raised(prob.additive_law_check, m, two, one, two, two) == (
        ZeroCondition, "both conditions need positive weight")
    monkeypatch.setattr(cnd, "or_bits", lambda q1, c1, q2, c2: (0, 0b01))
    assert raised(prob.additive_law_check, m, two, two, two, two) == (
        ZeroCondition, "condition {1} has weight zero")


@pytest.mark.parametrize("pair, message", [
    ((0b10, 0b01), "consequent bits 0x2 stick out of condition 0x1"),
    ((0b100, 0b100), "condition bits 0x4 out of range"),
    ((0, -1), "condition bits 0x-1 out of range"),
])
def test_additive_law_check_raises_the_constructors_error_for_a_bad_or_pair(
        monkeypatch, pair, message):
    space = SampleSpace(["1", "2"])
    m = prob.Measure(space, [1, 1])
    monkeypatch.setattr(cnd, "or_bits", lambda q1, c1, q2, c2: pair)
    assert raised(prob.additive_law_check, m, space.atom("1"), space.full,
                  space.atom("2"), space.full) == (ValueError, message)


# ---------------------------------- Measure set-up against its Fraction form


def reference_measure(space, weights):
    """Measure.__init__ as it was written on Fractions: (weights, total),
    or the exception it raised."""
    weights = tuple(Fraction(w) for w in weights)
    if len(weights) != space.n:
        raise ValueError(
            "expected %d weights, got %d" % (space.n, len(weights))
        )
    for w in weights:
        if w < 0:
            raise BadWeight("negative weight %s" % (w,))
    total = sum(weights)
    if total == 0:
        raise ZeroTotalWeight("all atom weights are zero")
    return weights, total


ZEROS = st.sampled_from([0, 0.0, -0.0, Fraction(0), "0", Decimal(0), False])
CLEAN_WEIGHTS = st.one_of(
    ZEROS,
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2**70),
    st.fractions(min_value=0, max_value=9, max_denominator=60),
    st.floats(min_value=0, max_value=1e6),
    st.sampled_from([True, "3/7", "2.5", Decimal("0.1")]),
)
ODD_WEIGHTS = st.one_of(
    st.integers(min_value=-5, max_value=-1),
    st.fractions(max_value=Fraction(-1, 60), max_denominator=60),
    st.floats(max_value=-1e-300),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), None, "abc", "1/0", "", [1],
                     1j, Decimal("NaN")]),
)


@st.composite
def measure_inputs(draw):
    """A space of 1, 6, 8, 9, 16 or 64 atoms and a weight list of one of
    five shapes: clean; clean with one or two odd entries (negative, not
    finite, not a number); all zero; zero but for a negative weight that a
    positive one cancels; a length off by one."""
    n = draw(st.sampled_from((1, 6, 8, 9, 16, 64)))
    space = SampleSpace(str(i) for i in range(n))
    shape = draw(st.sampled_from(("clean", "clean", "odd", "zero", "cancel", "length")))
    length = draw(st.sampled_from((n - 1, n + 1))) if shape == "length" else n
    entries = ZEROS if shape in ("zero", "cancel") else CLEAN_WEIGHTS
    weights = draw(st.lists(entries, min_size=length, max_size=length))
    if shape == "cancel" and length >= 2:
        i, j = draw(st.permutations(range(length)))[:2]
        v = draw(st.fractions(min_value=Fraction(1, 60), max_value=9, max_denominator=60))
        weights[i], weights[j] = v, -v
    if shape in ("odd", "length") and weights:
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            weights[draw(st.integers(min_value=0, max_value=length - 1))] = draw(ODD_WEIGHTS)
    return space, weights


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(measure_inputs(), st.data())
def test_measure_matches_its_fraction_form(case, data):
    space, weights = case
    got = outcome_of(prob.Measure, space, weights)
    want = outcome_of(reference_measure, space, weights)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    ref_weights, ref_total = want
    assert type(got.weights) is tuple
    assert [type(w) for w in got.weights] == [Fraction] * space.n
    assert (got.weights, got.total, type(got.total)) == (ref_weights, ref_total, Fraction)
    assert repr(got) == "Measure(%r)" % (list(ref_weights),)
    bits = st.integers(min_value=0, max_value=space.full_bits)
    for _ in range(4):
        q, c = data.draw(bits), data.draw(bits)
        wc = sum((w for i, w in enumerate(ref_weights) if c >> i & 1), Fraction(0))
        wq = sum((w for i, w in enumerate(ref_weights) if (q & c) >> i & 1), Fraction(0))
        x = cnd.Conditional(space, q & c, c)
        assert outcome_of(prob.p_cond, got, x) == (
            (ZeroCondition, "condition %s has weight zero" % (x.condition,)) if wc == 0
            else wq / wc
        )


@pytest.mark.parametrize("weights, error, message", [
    ([1, 2], ValueError, "expected 6 weights, got 2"),
    ([1, -1, 1, 1, 1, -2], BadWeight, "negative weight -1"),
    ([0, Fraction(-1, 3), 0, 0, 0, 0], BadWeight, "negative weight -1/3"),
    ([0, 2, 0, -1, -1, 0], BadWeight, "negative weight -1"),
    ([0, 0, 0.0, Fraction(0), "0", 0], ZeroTotalWeight, "all atom weights are zero"),
    ([1, -1, 1], ValueError, "expected 6 weights, got 3"),
    ([1, None, 1, 1, 1, -1], TypeError, None),
    ([-1, "x", 1, 1, 1, 1], ValueError, "Invalid literal for Fraction: 'x'"),
])
def test_measure_raises_in_the_old_order(die, weights, error, message):
    """Conversion first, then the length, the first negative weight and
    the zero total."""
    with pytest.raises(error) as err:
        prob.Measure(die.space, weights)
    assert message is None or str(err.value) == message
    assert (type(err.value), str(err.value)) == outcome_of(reference_measure, die.space, weights)


@pytest.mark.parametrize("weights, shown", [
    ([1, 2], [Fraction(1), Fraction(2)]),
    ([True, False], [Fraction(1), Fraction(0)]),
    ([Fraction(1, 3), 2], [Fraction(1, 3), Fraction(2)]),
    ([0.5, 1], [Fraction(1, 2), Fraction(1)]),
    (["1/3", "2"], [Fraction(1, 3), Fraction(2)]),
    ([Fraction(4, 6), "0/5"], [Fraction(2, 3), Fraction(0)]),
])
def test_measure_accepts_every_weight_type(weights, shown):
    """int, bool, Fraction, float and "p/q" weights, as they always were:
    `weights` a tuple of Fractions, read twice as the same tuple, `total`
    a Fraction, and the repr of the Fraction list."""
    m = prob.Measure(SampleSpace(["a", "b"]), weights)
    assert m.weights == tuple(shown)
    assert [type(w) for w in m.weights] == [Fraction, Fraction]
    assert m.weights is m.weights
    assert (m.total, type(m.total)) == (sum(shown), Fraction)
    assert repr(m) == "Measure(%r)" % (shown,)


def test_a_negative_float_weight_is_named_as_a_fraction():
    with pytest.raises(BadWeight) as err:
        prob.Measure(SampleSpace(["a", "b"]), [-0.5, 1])
    assert str(err.value) == "negative weight -1/2"


# ----------------------------------------- results built without the constructor

QUOTIENTS = [
    (0, 1), (0, 12), (0, 3 ** 50),
    (1, 1), (12, 12), (2 ** 70, 2 ** 70),
    (1, 3), (7, 4), (2 ** 64 + 1, 2 ** 64 + 2), (3 ** 41, 2 ** 65),
    (6, 4), (30, 12), (3 * 2 ** 66, 9 * 2 ** 65), (10 ** 30, 4 * 10 ** 20),
]


@pytest.mark.parametrize("num, den", QUOTIENTS)
def test_a_quotient_is_the_fraction_the_constructor_builds(num, den):
    got, want = prob._quotient(num, den), Fraction(num, den)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert (hash(got), str(got), repr(got)) == (hash(want), str(want), repr(want))
    back = pickle.loads(pickle.dumps(got))
    assert (type(back), back.numerator, back.denominator) == (
        Fraction, want.numerator, want.denominator)
    for other in (want, Fraction(1, 2), Fraction(2 ** 65, 3), 0, 1, 2 ** 65):
        assert (got == other, other == got, got < other, other < got) == (
            want == other, other == want, want < other, other < want)


def probability_results(m, a, b, c, d):
    """Every public probability result for the operands (a|b), (c|d),
    the partition {b, d & ~b} and the events themselves; ZeroCondition
    answers are left out."""
    x, y = cnd.make(a, b), cnd.make(c, d)
    calls = [
        (prob.p_event, m, a), (prob.p_cond, m, x), (prob.p_cond, m, y),
        (prob.p_or_formula, m, x, y),
        (prob.p_superposition, m, x, y, "or"), (prob.p_superposition, m, x, y, "and"),
        (prob.partition_expansion, m, a, [b, d & ~b]),
    ]
    found = [outcome(fn, *args) for fn, *args in calls]
    found += [m.weight(e) for e in (a, b, c, d)]
    found += [m.weight_bits(m.space.full_bits), m.total, *m.weights]
    return [value for value in found if value is not None]


def assert_lowest_terms(values):
    for value in values:
        assert type(value) is Fraction
        assert value.denominator > 0
        assert gcd(value.numerator, value.denominator) == 1


def test_die_results_are_fractions_in_lowest_terms(die):
    ev = die.events
    halves = prob.Measure(die.space, [Fraction(1, 2), 1, Fraction(3, 2), 2, 0, 3])
    names = ("two", "even", "odd", "lt4", "lt5", "five")
    for m in (die.measures["uniform"], halves):
        for a, b, c, d in product(names, repeat=4):
            assert_lowest_terms(probability_results(m, ev[a], ev[b], ev[c], ev[d]))
    assert prob.p_cond(die.measures["uniform"], cnd.make(ev["even"], ev["lt5"])).denominator == 2


@given(measure_and_events(4))
def test_results_are_fractions_in_lowest_terms(case):
    m, events4 = case
    assert_lowest_terms(probability_results(m, *events4))


@pytest.mark.parametrize("law, instances", [("superposition", 5561), ("t2.13", 13120)])
def test_the_grid_laws_build_no_fraction_through_the_constructor(monkeypatch, law, instances):
    """The grid laws' per-instance path builds its Fractions by _quotient:
    Fraction.__new__ is never called, not even once per measure."""
    calls = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    report = lawcheck.check(law, 3, 1)
    assert (report.passed, report.instances_checked) == (True, instances)
    assert calls == []
    assert Fraction(6, 4) == Fraction(3, 2) and len(calls) == 2
