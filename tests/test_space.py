"""Sample spaces and events.

Events over a finite space form a Boolean algebra; the tests sweep the
axioms exhaustively on small spaces and spot-check the bitmask plumbing
(ordering, membership, validation) on the die space.
"""

import pytest
from hypothesis import given, strategies as st

from boolfrac import conditional as cnd
from boolfrac.errors import SpaceMismatch, TooLarge, UnknownAtom
from boolfrac.space import (
    RESERVED_CHARS,
    Event,
    SampleSpace,
    enumerate_events,
    same_space,
    valid_atom_name,
)


def space_of(n):
    return SampleSpace(str(i + 1) for i in range(n))


def test_atoms_keep_declaration_order():
    space = SampleSpace(["c", "a", "b"])
    assert space.atoms == ("c", "a", "b")
    assert space.n == 3
    assert space.full_bits == 0b111


def test_empty_and_full_events():
    space = space_of(3)
    assert space.empty.bits == 0
    assert space.full.bits == 0b111
    assert not space.empty
    assert space.full


GOOD_64 = ["a%d" % i for i in range(64)]


@pytest.mark.parametrize("atoms, error, message", [
    ([], ValueError, "a sample space needs at least one atom"),
    (["a", "a"], ValueError, "duplicate atom name: 'a'"),
    (["a", "b|c"], ValueError, "invalid atom name: 'b|c'"),
    (["a", ""], ValueError, "invalid atom name: ''"),
    (["a b"], ValueError, "invalid atom name: 'a b'"),
    (["a", "a", "b|"], ValueError, "duplicate atom name: 'a'"),
    (["a", "b|", "a"], ValueError, "invalid atom name: 'b|'"),
    (GOOD_64 + ["a64"], TooLarge, "at most 64 atoms are supported, got 65"),
    (GOOD_64 + ["b|"], TooLarge, "at most 64 atoms are supported, got 65"),
])
def test_space_rejects_bad_atom_lists(atoms, error, message):
    """The first bad name in order is worded, and a count over 64 is
    reported before any name."""
    with pytest.raises(error) as err:
        SampleSpace(atoms)
    assert str(err.value) == message


@pytest.mark.parametrize("atoms", [[1], ["a", 1], [["a"]]])
def test_a_name_that_is_not_a_str_raises_type_error(atoms):
    with pytest.raises(TypeError):
        SampleSpace(atoms)


def test_event_lookup_and_membership():
    space = space_of(4)
    event = space.event(["2", "4"])
    assert event.bits == 0b1010
    assert event.members() == ("2", "4")
    assert "2" in event and "3" not in event
    assert str(event) == "{2,4}"
    with pytest.raises(UnknownAtom):
        space.event(["2", "9"])
    with pytest.raises(UnknownAtom):
        "9" in event


def test_atom_singleton():
    space = space_of(3)
    assert space.atom("3").bits == 0b100


def test_event_operations_are_bitwise():
    space = space_of(4)
    a = space.event(["1", "2"])
    b = space.event(["2", "3"])
    assert (a & b).members() == ("2",)
    assert (a | b).members() == ("1", "2", "3")
    assert (~a).members() == ("3", "4")
    assert a & b <= a <= a | b


def test_enumerate_events_counts_and_order():
    space = space_of(3)
    events = enumerate_events(space)
    assert len(events) == 8
    assert [e.bits for e in events] == list(range(8))
    with pytest.raises(TooLarge):
        enumerate_events(space_of(17))


def test_same_space_guards_mixing():
    a = space_of(2)
    b = space_of(2)
    assert a == b
    with pytest.raises(SpaceMismatch):
        same_space(Event(a, 1), Event(space_of(3), 1))


def test_equal_but_distinct_spaces_still_combine(monkeypatch):
    a, b = space_of(2), space_of(2)
    assert a is not b
    x, y = Event(a, 0b01), Event(b, 0b11)
    assert same_space(x, y) is a
    assert (x & y) == Event(a, 0b01) and x <= y
    assert cnd.or_(cnd.make(x, a.full), cnd.make(y, b.full)) == cnd.make(Event(a, 0b11), a.full)
    for other in (space_of(3), SampleSpace(["1", "x"])):
        with pytest.raises(SpaceMismatch, match="^operands belong to different sample spaces$"):
            same_space(x, Event(other, 1))
        with pytest.raises(SpaceMismatch, match="^operands belong to different sample spaces$"):
            cnd.and_(cnd.make(x, a.full), cnd.undefined(other))

    # Operands that carry one space object never compare the spaces.
    def no_eq(self, other):
        raise AssertionError("SampleSpace.__eq__ called")

    monkeypatch.setattr(SampleSpace, "__eq__", no_eq)
    z = cnd.make(x, a.full)
    assert same_space(x, x) is a
    for op in (cnd.or_, cnd.and_, cnd.given, cnd.osum, cnd.sasaki):
        op(z, z)


def four_events(space):
    return [Event(space, bits) for bits in range(4)]


def four_by_four_conditionals(space):
    return [cnd.make(x, y) for x in four_events(space) for y in four_events(space)]


def test_equality_compares_one_shared_space_by_identity(monkeypatch):
    a, b, c = space_of(2), space_of(2), space_of(3)
    for make in (four_events, four_by_four_conditionals):
        # Equal but distinct spaces compare equal; unequal ones do not.
        assert make(a) == make(b)
        assert not any(x == y for x, y in zip(make(a), make(c)))
        # A value of another type is never equal.
        for x in make(a):
            assert not x == x.space and not x == (x.space, 0) and x != None  # noqa: E711
    assert Event(a, 1) != cnd.make(Event(a, 1), a.full)
    assert cnd.make(Event(a, 1), a.full) != Event(a, 1)

    # Operands that carry one space object never compare the spaces.
    def no_eq(self, other):
        raise AssertionError("SampleSpace.__eq__ called")

    monkeypatch.setattr(SampleSpace, "__eq__", no_eq)
    for make, key in ((four_events, lambda x: x.bits),
                      (four_by_four_conditionals, lambda x: (x.q, x.c))):
        values = make(a)
        assert [[x == y for y in values] for x in values] == [
            [key(x) == key(y) for y in values] for x in values]


def old_valid_atom_name(name):
    """valid_atom_name as it was first written, one character at a time."""
    if not name:
        return False
    return all(ch not in RESERVED_CHARS and not ch.isspace() for ch in name)


def test_valid_atom_name_matches_its_old_definition_on_every_code_point():
    assert valid_atom_name("") is old_valid_atom_name("") is False
    for names in (
        [chr(cp) for cp in range(0x110000)],
        ["a%sb" % chr(cp) for cp in range(0x110000)],
    ):
        got = list(map(valid_atom_name, names))
        want = list(map(old_valid_atom_name, names))
        assert got == want, [name for name, g, w in zip(names, got, want) if g != w][:5]


def test_the_one_scan_rejects_every_character_a_name_may_not_hold():
    bad = [chr(cp) for cp in range(0x110000) if not old_valid_atom_name(chr(cp))]
    assert set(RESERVED_CHARS) < set(bad)
    for ch in bad:
        for name in (ch, "x" + ch, ch + "x", "x%sy" % ch):
            with pytest.raises(ValueError) as err:
                SampleSpace(["a", name, "b"])
            assert str(err.value) == "invalid atom name: %r" % (name,)


def test_boolean_axioms_exhaustively_at_three_atoms():
    """meet/join/complement satisfy the Boolean algebra axioms."""
    space = space_of(3)
    events = enumerate_events(space)
    for x in events:
        assert (x & x) == x and (x | x) == x
        assert (x & ~x) == space.empty
        assert (x | ~x) == space.full
        assert ~~x == x
    for x in events:
        for y in events:
            assert x & y == y & x
            assert x | y == y | x
            assert x & (x | y) == x
            assert x | (x & y) == x
            assert ~(x & y) == ~x | ~y
    for x in events:
        for y in events:
            for z in events:
                assert x & (y | z) == (x & y) | (x & z)
                assert x | (y & z) == (x | y) & (x | z)


@st.composite
def nested_events(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    space = space_of(n)
    outer = draw(st.integers(min_value=0, max_value=space.full_bits))
    inner = draw(st.integers(min_value=0, max_value=space.full_bits)) & outer
    return Event(space, inner), Event(space, outer)


@given(nested_events())
def test_relative_complement_within_an_interval(pair):
    """For a <= b, the complement of a relative to b splits b exactly:
    a meets it in nothing and joins it back to b."""
    a, b = pair
    rc = ~a & b
    assert a & rc == a.space.empty
    assert a | rc == b
    assert ~rc & b == a
