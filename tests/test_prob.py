"""Exact conditional probability.

P(a|b) is weight(ab)/weight(b) as a Fraction; conditions of weight zero
raise instead of returning a junk value. The or-expansion and the
context-split superposition are pinned factor by factor on the die bet,
and the additivity check reports exactly when P(x or y) == P(x) + P(y).
Measures compute with integer subset-weight tables; hypothesis pins every
function to a per-atom Fraction reference on both sides of the 8-atom
table chunks.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from boolfrac import conditional as cnd
from boolfrac import prob
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


def test_tables_are_built_on_the_first_lookup():
    space = SampleSpace(["a", "b"])
    m = prob.Measure(space, [Fraction(1, 3), Fraction(1, 2)])
    assert m._tables is None
    assert m.weight_bits(0b11) == frac(5, 6)
    assert m._tables is not None


@pytest.mark.parametrize("n, bits", [(3, 1 << 3), (8, 1 << 8), (9, 1 << 9), (3, -1)])
def test_weight_bits_rejects_bits_outside_the_space(n, bits):
    m = prob.Measure(SampleSpace(str(i) for i in range(n)), [1] * n)
    with pytest.raises(ValueError):
        m.weight_bits(bits)


# -------------------------------------------- integer tables vs per-atom sums

ATOM_COUNTS = (1, 7, 8, 9, 16, 17, 64)

atom_weights = st.one_of(
    st.just(0),
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=0, max_value=4, max_denominator=12),
)


@st.composite
def measures(draw):
    n = draw(st.sampled_from(ATOM_COUNTS))
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
def measure_and_events(draw, count):
    m = draw(measures())
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
