"""Relations between conditionals.

The named order relations reduce to bit inequalities; vee and wedge are
also characterized through the operations (or_(x,y) == y, and_(x,y) == x),
orthogonality through and_ collapsing to (0|bvd), and simultaneous
verifiability through the existence of an orthogonal decomposition.
"""

import pytest

from boolfrac import conditional as cnd
from boolfrac import relations as rel
from boolfrac.errors import TooLarge
from boolfrac.space import SampleSpace


def space_of(n):
    return SampleSpace(str(i + 1) for i in range(n))


def all_pairs(n):
    space = space_of(n)
    conds = [
        cnd.Conditional(space, q, c)
        for q, c in cnd.enumerate_conditionals_bits(space.full_bits)
    ]
    return space, conds


@pytest.fixture(scope="module")
def die_pair(die):
    ev = die.events
    return cnd.make(ev["two"], ev["even"]), cnd.make(ev["lt4"], ev["lt5"])


def test_relation_goldens_on_the_die(die, die_pair):
    x, y = die_pair
    assert rel.holds("tr", x, y) is True
    assert rel.holds("ap", x, y) is False
    assert rel.compatible(x, y) is False
    assert rel.sim_verifiable(x, cnd.make(die.events["even"], die.space.full))
    assert not rel.sim_falsifiable(x, cnd.make(die.events["even"], die.space.full))


def test_unknown_tag_is_rejected(die_pair):
    with pytest.raises(ValueError):
        rel.holds("bogus", *die_pair)


@pytest.mark.parametrize(
    "tag,relation",
    [
        ("orth", rel.orthogonal),
        ("simver", rel.sim_verifiable),
        ("simfals", rel.sim_falsifiable),
        ("compat", rel.compatible),
        ("subalg", rel.in_common_subalgebra),
    ],
)
def test_holds_accepts_the_pair_relations_by_tag(tag, relation):
    """Exhaustive at two atoms."""
    assert tag in rel.RELATION_TAGS
    _, conds = all_pairs(2)
    for x in conds:
        for y in conds:
            assert rel.holds(tag, x, y) == relation(x, y)


def test_vee_and_wedge_match_their_operation_forms():
    """vee(x,y) iff or_(x,y) == y; wedge(x,y) iff and_(x,y) == x;
    pm == tr and nf; exhaustive at two atoms."""
    _, conds = all_pairs(2)
    for x in conds:
        for y in conds:
            assert rel.holds("vee", x, y) == (cnd.or_(x, y) == y)
            assert rel.holds("wedge", x, y) == (cnd.and_(x, y) == x)
            assert rel.holds("pm", x, y) == (
                rel.holds("tr", x, y) and rel.holds("nf", x, y)
            )
            assert rel.orthogonal(x, y) == (
                cnd.and_(x, y) == cnd.Conditional(x.space, 0, x.c | y.c)
            )


def test_orthogonality_golden(die, die_pair):
    x, _ = die_pair
    other = cnd.make(die.space.event(["4"]), die.space.event(["2", "4", "5"]))
    assert rel.orthogonal(x, other) is True
    assert rel.orthogonal(x, x) is False


def test_ortho_family_member_golden(die, die_pair):
    x, _ = die_pair
    member = rel.ortho_family_member(x, die.space.full, die.space.event(["4", "5"]))
    assert str(member) == "({4}|{2,4,5})"
    assert rel.orthogonal(x, member)


def test_family_members_are_always_orthogonal_to_their_seed():
    space, conds = all_pairs(2)
    from boolfrac.space import enumerate_events

    events = enumerate_events(space)
    for c in conds:
        for x in events:
            for y in events:
                assert rel.orthogonal(c, rel.ortho_family_member(c, x, y))


def test_decomposition_witness_exists_exactly_for_sim_verifiable():
    _, conds = all_pairs(2)
    for x in conds:
        for y in conds:
            witness = rel.decomposition_witness(x, y)
            if rel.sim_verifiable(x, y):
                u, v, w = witness
                assert cnd.or_(u, w) == x
                assert cnd.or_(v, w) == y
                assert rel.orthogonal(u, v)
                assert rel.orthogonal(u, w)
                assert rel.orthogonal(v, w)
            else:
                assert witness is None


def test_profile_golden_flags(die, die_pair):
    x, y = die_pair
    assert rel.profile(x, y).flags() == (True, False, False, False, False, False, False)
    assert rel.profile(x, x).flags() == (True,) * 7
    same_cond = cnd.make(die.events["even"], die.events["even"])
    assert rel.profile(x, same_cond).flags() == (True,) * 7


def test_profile_flag_implications_exhaustively():
    """applicable == truth_applicable and falsity_applicable;
    same_condition == verifiable and falsifiable."""
    _, conds = all_pairs(2)
    for x in conds:
        for y in conds:
            p = rel.profile(x, y)
            assert p.applicable == (p.truth_applicable and p.falsity_applicable)
            assert p.same_condition == (p.verifiable and p.falsifiable)


def test_generated_subalgebra_boolean_exactly_for_shared_conditions():
    space = space_of(3)
    same = rel.generated_subalgebra(
        cnd.Conditional(space, 0b001, 0b011), cnd.Conditional(space, 0b010, 0b011)
    )
    assert same.is_boolean is True
    mixed = rel.generated_subalgebra(
        cnd.Conditional(space, 0b001, 0b011), cnd.Conditional(space, 0b001, 0b101)
    )
    assert mixed.is_boolean is False
    assert all(isinstance(m, cnd.Conditional) for m in mixed.members)


def test_generated_subalgebra_with_undefined_is_never_boolean():
    space, _ = all_pairs(2)
    u = cnd.undefined(space)
    sub = rel.generated_subalgebra(u, u)
    assert sub.is_boolean is False
    assert u in sub.members


def test_generated_subalgebra_guards_size():
    space = space_of(6)
    u = cnd.undefined(space)
    with pytest.raises(TooLarge):
        rel.generated_subalgebra(u, u)


def test_in_common_subalgebra_requires_nonempty_shared_condition(die, die_pair):
    x, _ = die_pair
    same_cond = cnd.make(die.events["even"], die.events["even"])
    assert rel.in_common_subalgebra(x, same_cond) is True
    u = cnd.undefined(die.space)
    assert rel.in_common_subalgebra(u, u) is False
    assert rel.compatible(u, u) is True
