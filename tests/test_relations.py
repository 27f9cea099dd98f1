"""Relations between conditionals.

The named order relations reduce to bit inequalities; vee and wedge are
also characterized through the operations (or_(x,y) == y, and_(x,y) == x),
orthogonality through and_ collapsing to (0|bvd), and simultaneous
verifiability through the existence of an orthogonal decomposition.
"""

import functools
import json
import pathlib
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from benchinputs import perfbench_module
from boolfrac import conditional as cnd
from boolfrac import lawcheck
from boolfrac import relations as rel
from boolfrac.errors import SpaceMismatch, TooLarge
from boolfrac.space import SampleSpace, enumerate_events, same_space


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


# Every `relate` tag against a route through the `conditional`
# operations, none of which reads `relations._RELATIONS`. "No true
# region" means q == 0, "no false region" q == c.
def _ap_route(x, y):
    unit = cnd.or_(y, cnd.negate(y))
    return cnd.or_(x, unit) == unit


def _collapse_route(x, y):
    return cnd.and_(x, y) == cnd.Conditional(x.space, x.q & y.q, x.c | y.c)


def _no_false_region(z):
    return z.q == z.c


RELATION_ROUTES = {
    "tr": lambda x, y: cnd.given(x, cnd.negate(y)).q == 0,
    "nf": lambda x, y: _no_false_region(cnd.given(y, x)),
    "ap": _ap_route,
    "pm": lambda x, y: _no_false_region(cnd.or_(cnd.negate(x), y)),
    "vee": lambda x, y: cnd.or_(x, y) == y,
    "wedge": lambda x, y: cnd.and_(x, y) == x,
    "bo": lambda x, y: (_ap_route(x, y) and _ap_route(y, x)
                        and cnd.given(x, cnd.negate(y)).q == 0),
    "orth": lambda x, y: cnd.and_(x, y) == cnd.Conditional(x.space, 0, x.c | y.c),
    "simver": _collapse_route,
    "simfals": lambda x, y: _collapse_route(cnd.negate(x), cnd.negate(y)),
    "compat": lambda x, y: _ap_route(x, y) and _ap_route(y, x),
    "subalg": lambda x, y: rel.generated_subalgebra(x, y).is_boolean,
}
ROUTE_ATOMS = (1, 2, 3)


@functools.lru_cache(maxsize=None)
def route_table():
    """(x, y, {tag: route verdict}) for every pair at 1, 2 and 3 atoms."""
    table = []
    for n in ROUTE_ATOMS:
        _, conds = all_pairs(n)
        for x in conds:
            for y in conds:
                table.append((x, y, {tag: route(x, y) for tag, route in RELATION_ROUTES.items()}))
    return table


def first_route_mismatch(tag):
    """The first pair where rel.holds(tag) and the tag's route disagree."""
    for x, y, want in route_table():
        if rel.holds(tag, x, y) != want[tag]:
            return x, y
    return None


def test_every_relation_tag_matches_its_kernel_route():
    assert set(RELATION_ROUTES) == set(rel.RELATION_TAGS)
    assert len(route_table()) == sum(9 ** n for n in ROUTE_ATOMS)
    for tag in rel.RELATION_TAGS:
        assert first_route_mismatch(tag) is None, tag


SYMMETRIC_TAGS = ("orth", "simver", "simfals", "compat", "subalg")


# The two conjuncts of each relation that is a conjunction, each as a
# kernel of its own.
CONJUNCTS = {
    "pm": (rel._tr, rel._nf),
    "vee": (rel._ap, rel._tr),
    "wedge": (lambda q1, c1, q2, c2: c2 & ~c1 == 0,
              lambda q1, c1, q2, c2: (c2 & ~q2) & ~(c1 & ~q1) == 0),
    "bo": (lambda q1, c1, q2, c2: c1 == c2,
           lambda q1, c1, q2, c2: q1 & ~q2 == 0),
    "orth": (lambda q1, c1, q2, c2: q1 & ~(c2 & ~q2) == 0,
             lambda q1, c1, q2, c2: q2 & ~(c1 & ~q1) == 0),
    "simver": (lambda q1, c1, q2, c2: q1 & ~c2 == 0,
               lambda q1, c1, q2, c2: q2 & ~c1 == 0),
    "simfals": (lambda q1, c1, q2, c2: (c1 & ~q1) & ~c2 == 0,
                lambda q1, c1, q2, c2: (c2 & ~q2) & ~c1 == 0),
}


def relation_mutants():
    """Swapped, always-true and always-false for the asymmetric tags;
    always-true and always-false for the symmetric ones, where a swap
    changes nothing; and each conjunct alone of a conjunction."""
    for tag, kernel in rel._RELATIONS.items():
        if tag not in SYMMETRIC_TAGS:
            yield tag, "swapped", (lambda k: lambda q1, c1, q2, c2: k(q2, c2, q1, c1))(kernel)
        yield tag, "true", lambda q1, c1, q2, c2: True
        yield tag, "false", lambda q1, c1, q2, c2: False
    for tag, conjuncts in CONJUNCTS.items():
        for number, conjunct in enumerate(conjuncts, 1):
            yield tag, "conjunct %d alone" % number, conjunct


def test_each_conjunction_is_its_two_conjuncts():
    for tag, (first, second) in CONJUNCTS.items():
        for bits in product(range(8), repeat=4):
            assert rel._RELATIONS[tag](*bits) == (first(*bits) and second(*bits)), (tag, bits)


def test_the_route_check_kills_every_relation_mutant(monkeypatch):
    mutants = list(relation_mutants())
    assert len(mutants) == 45
    for tag, kind, mutant in mutants:
        with monkeypatch.context() as patch:
            patch.setitem(rel._RELATIONS, tag, mutant)
            assert first_route_mismatch(tag) is not None, (tag, kind)


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
    events = enumerate_events(space)
    for c in conds:
        for x in events:
            for y in events:
                assert rel.orthogonal(c, rel.ortho_family_member(c, x, y))


def ortho_family_member_by_events(c, x, y):
    """The Event spelling of the family member, kept as the oracle."""
    same_space(x, y)
    return cnd.make(c.consequent.complement() & c.condition & x, c.consequent | y)


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_ortho_family_member_equals_its_event_spelling(atoms):
    space, conds = all_pairs(atoms)
    events = enumerate_events(space)
    for c in conds:
        for x in events:
            for y in events:
                member = rel.ortho_family_member(c, x, y)
                want = ortho_family_member_by_events(c, x, y)
                assert member == want and member.space is want.space, (c, x, y)


def test_ortho_family_member_takes_an_equal_space_that_is_another_object():
    space, conds = all_pairs(2)
    twin = space_of(2)
    for c in conds:
        for x, y in product(enumerate_events(twin), repeat=2):
            assert rel.ortho_family_member(c, x, y) == ortho_family_member_by_events(c, x, y)


def test_ortho_family_member_raises_what_the_event_spelling_raised():
    """Each malformed call raises the type and text it raised when the
    member was built from Events and `make`."""
    space = space_of(2)
    other = space_of(3)
    c = cnd.Conditional(space, 0b01, 0b11)
    x, y = space.atom("1"), space.full
    mismatch = (SpaceMismatch, "operands belong to different sample spaces")
    cases = [
        ((c, x, other.full), mismatch),
        ((c, other.full, y), mismatch),
        ((cnd.Conditional(other, 0b01, 0b11), x, y), mismatch),
        ((c, 3, y), (AttributeError, "'int' object has no attribute 'space'")),
        ((c, x, None), (AttributeError, "'NoneType' object has no attribute 'space'")),
        ((c, c, y), (AttributeError, "'Conditional' object has no attribute 'bits'")),
        ((c, x, c), (AttributeError, "'Conditional' object has no attribute 'bits'")),
        ((x, x, y), (AttributeError, "'Event' object has no attribute 'consequent'")),
        ((None, x, y), (AttributeError, "'NoneType' object has no attribute 'consequent'")),
        ((0b01, x, y), (AttributeError, "'int' object has no attribute 'consequent'")),
    ]
    for args, raised in cases:
        assert outcome(rel.ortho_family_member, *args) == raised, args
        assert outcome(ortho_family_member_by_events, *args) == raised, args


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


def test_pair_relations_reject_operands_of_different_spaces():
    x = cnd.Conditional(space_of(2), 0b01, 0b11)
    y = cnd.Conditional(space_of(3), 0b01, 0b11)
    for relation in (rel.orthogonal, rel.compatible, rel.profile, rel.generated_subalgebra):
        with pytest.raises(SpaceMismatch, match="^operands belong to different sample spaces$"):
            relation(x, y)


def test_pair_relations_take_an_equal_space_that_is_another_object():
    _, conds = all_pairs(2)
    twin = space_of(2)
    for x in conds:
        y = cnd.Conditional(twin, x.q, x.c)
        for tag in rel.RELATION_TAGS:
            assert rel.holds(tag, x, y) == rel.holds(tag, x, x), (tag, x)


# The closure and the Boolean sweep against a naive reference: a
# fixpoint that calls the kernels on every member and member pair in
# every round, and a sweep that calls them again for every value it
# compares. The closure must add members in the same order (so the sets
# iterate alike), the sweep must reach the same verdict, and with a
# kernel that raises, the same exception must escape.


def naive_closure(seeds):
    ops = (cnd.or_bits, cnd.and_bits)
    members = set(seeds)
    while True:
        new = set()
        for m in members:
            neg = cnd.not_bits(*m)
            if neg not in members:
                new.add(neg)
        for a in members:
            for b in members:
                for op in ops:
                    r = op(a[0], a[1], b[0], b[1])
                    if r not in members:
                        new.add(r)
        if not new:
            return members
        members |= new


def naive_sweep(members):
    or_b, and_b, not_b = cnd.or_bits, cnd.and_bits, cnd.not_bits
    unit = None
    zero = None
    for u in members:
        uq, uc = u
        if all(and_b(q, c, uq, uc) == (q, c) and or_b(q, c, uq, uc) == u for q, c in members):
            unit = u
            break
    if unit is None:
        return False
    for z in members:
        zq, zc = z
        if all(or_b(q, c, zq, zc) == (q, c) and and_b(q, c, zq, zc) == z for q, c in members):
            zero = z
            break
    if zero is None or zero == unit:
        return False
    for q, c in members:
        nq, nc = not_b(q, c)
        if and_b(q, c, nq, nc) != zero or or_b(q, c, nq, nc) != unit:
            return False
    mem = list(members)
    for a in mem:
        for b in mem:
            if and_b(*a, *or_b(*a, *b)) != a:
                return False
            if or_b(*a, *and_b(*a, *b)) != a:
                return False
    for a in mem:
        for b in mem:
            for d in mem:
                bd_and = and_b(*b, *d)
                bd_or = or_b(*b, *d)
                if and_b(*a, *bd_or) != or_b(*and_b(*a, *b), *and_b(*a, *d)):
                    return False
                if or_b(*a, *bd_and) != and_b(*or_b(*a, *b), *or_b(*a, *d)):
                    return False
    return True


def outcome(run, *args):
    """What `run` returns, or the type and message of what it raises."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


def closed_now(seeds):
    return list(rel.closure_bits(seeds)), rel._boolean_sweep(*rel._close(seeds))


def closed_naively(seeds):
    members = naive_closure(seeds)
    return list(members), naive_sweep(members)


def subalgebra_now(x, y):
    sub = rel.generated_subalgebra(x, y)
    return sub.members, sub.is_boolean


def subalgebra_naively(x, y):
    members = naive_closure({(x.q, x.c), (y.q, y.c)})
    return frozenset(cnd.Conditional(x.space, q, c) for q, c in members), naive_sweep(members)


def pair_outcomes(atoms):
    """(current, naive) outcomes of closing and of generating the
    subalgebra, for every ordered pair at `atoms` atoms."""
    _, conds = all_pairs(atoms)
    for x in conds:
        for y in conds:
            seeds = {(x.q, x.c), (y.q, y.c)}
            yield (x, y), outcome(closed_now, seeds), outcome(closed_naively, seeds)
            yield (x, y), outcome(subalgebra_now, x, y), outcome(subalgebra_naively, x, y)


def assert_pairs_match_the_reference(atoms, label=""):
    """Checks every pair; returns how many outcomes were exceptions."""
    raised = 0
    for (x, y), now, naive in pair_outcomes(atoms):
        assert now == naive, (label, str(x), str(y))
        raised += isinstance(now[0], type)
    return raised


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_closure_and_sweep_match_the_naive_reference_on_every_pair(atoms):
    assert assert_pairs_match_the_reference(atoms) == 0


def test_closure_makes_the_naive_kernel_calls_once_each_in_the_naive_order(monkeypatch):
    """The naive closure's calls, each repeat dropped, are the closure's
    calls, for every pair at one to three atoms."""
    calls = []
    for name in ("or_bits", "and_bits", "not_bits"):
        def recorded(*args, name=name, kernel=getattr(cnd, name)):
            calls.append((name, args))
            return kernel(*args)

        monkeypatch.setattr(cnd, name, recorded)
    for atoms in (1, 2, 3):
        pairs = cnd.enumerate_conditionals_bits((1 << atoms) - 1)
        for x in pairs:
            for y in pairs:
                naive_closure({x, y})
                naive = list(dict.fromkeys(calls))
                calls.clear()
                rel.closure_bits({x, y})
                assert calls == naive, (x, y)
                calls.clear()


PAIRS_AT_3 = cnd.enumerate_conditionals_bits(0b111)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(PAIRS_AT_3), min_size=1, max_size=4))
def test_closure_and_sweep_match_the_naive_reference_on_seed_sets(seeds):
    assert outcome(closed_now, seeds) == outcome(closed_naively, seeds)


def test_closure_and_sweep_match_the_naive_reference_under_table_mutants(monkeypatch):
    """The 90 per-atom table mutants of the binary kernels and the 6 of
    not_bits, each installed as its kernel, at two atoms."""
    from test_lawcheck import not_mutants, table_mutants

    mutants = list(table_mutants()) + list(not_mutants())
    assert len(mutants) == 96
    for name, entry, new, kernel in mutants:
        monkeypatch.setattr(cnd, name, kernel)
        assert_pairs_match_the_reference(2, (name, entry, new))
        monkeypatch.undo()


def test_each_check_of_the_sweep_matches_the_naive_reference(monkeypatch):
    """The conditionals (q|{1,2}) form a four-element Boolean algebra.
    Changing one entry of or_bits, and_bits or not_bits on them breaks
    some of the sweep's checks and not others; the verdict must be the
    naive one for each change, and Boolean only for none."""
    full = 0b11
    seeds = {(q, full) for q in range(4)}
    assert closed_now(seeds) == closed_naively(seeds) == (list(rel.closure_bits(seeds)), True)
    verdicts = []
    for name, arity in (("or_bits", 4), ("and_bits", 4), ("not_bits", 2)):
        shipped = getattr(cnd, name)
        for operands in product(range(4), repeat=arity // 2):
            args = tuple(arg for q in operands for arg in (q, full))
            for value in range(4):
                if (value, full) == shipped(*args):
                    continue

                def kernel(*xs, args=args, value=value, shipped=shipped):
                    return (value, full) if xs == args else shipped(*xs)

                with monkeypatch.context() as patch:
                    patch.setattr(cnd, name, kernel)
                    now = closed_now(seeds)
                    assert now == closed_naively(seeds), (name, args, value)
                    verdicts.append(now[1])
    assert len(verdicts) == 2 * 16 * 3 + 4 * 3
    assert not any(verdicts)


# Kernels that misbehave on some operands: where two conditions differ
# (for not_bits: where the condition is the first atom alone) the result is replaced by an exception, a list, a 3-tuple
# or a pair outside normal form. Elsewhere they are the shipped kernel.


class OddKernelError(ArithmeticError):
    pass


def _raise(operands, q, c):
    raise OddKernelError("odd kernel at %r" % (operands,))


ODD_RESULTS = {
    "raises": _raise,
    "list": lambda operands, q, c: [q, c],
    "3-tuple": lambda operands, q, c: (q, c, 0),
    "outside normal form": lambda operands, q, c: (q | 1, c & ~1),
}


def odd_kernel(name, odd):
    base = getattr(cnd, name)
    if name == "not_bits":
        def kernel(q, c):
            return odd((q, c), *base(q, c)) if c == 1 else base(q, c)
    else:
        def kernel(q1, c1, q2, c2):
            if c1 != c2:
                return odd((q1, c1, q2, c2), *base(q1, c1, q2, c2))
            return base(q1, c1, q2, c2)
    return kernel


ODD_KERNELS = [(name, odd) for name in ("and_bits", "or_bits", "not_bits") for odd in ODD_RESULTS]


@pytest.mark.parametrize("name, odd", ODD_KERNELS)
def test_closure_and_sweep_match_the_naive_reference_under_odd_kernels(monkeypatch, name, odd):
    """Some pairs close normally and some do not."""
    monkeypatch.setattr(cnd, name, odd_kernel(name, ODD_RESULTS[odd]))
    raised = assert_pairs_match_the_reference(2)
    assert 0 < raised < 2 * 81


def subalgebra_bits_of(x, y):
    members, is_boolean = rel.subalgebra_bits(x.space, {(x.q, x.c), (y.q, y.c)})
    return frozenset(cnd.Conditional(x.space, q, c) for q, c in members), is_boolean


@pytest.mark.parametrize("name, odd", [(None, None)] + ODD_KERNELS)
def test_subalgebra_bits_raises_and_returns_what_the_naive_subalgebra_does(monkeypatch,
                                                                           name, odd):
    """The raw route of t3.7 and c3.8: the same members, is_boolean, or
    exception (a member outside normal form included) as building the
    member Conditionals first, for every pair at two atoms."""
    if name is not None:
        monkeypatch.setattr(cnd, name, odd_kernel(name, ODD_RESULTS[odd]))
    _, conds = all_pairs(2)
    for x in conds:
        for y in conds:
            assert outcome(subalgebra_bits_of, x, y) == outcome(subalgebra_naively, x, y)


KERNEL_NAMES = ("or_bits", "and_bits", "not_bits", "given_bits", "osum_bits", "sasaki_bits")


def counted_kernels(monkeypatch):
    """Wrap every conditional kernel to count its calls."""
    calls = dict.fromkeys(KERNEL_NAMES, 0)
    for name in KERNEL_NAMES:
        def counted(*args, name=name, kernel=getattr(cnd, name)):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(cnd, name, counted)
    return calls


def test_generating_a_subalgebra_calls_each_kernel_once_per_member_or_pair(monkeypatch):
    space = space_of(3)
    x, y = cnd.Conditional(space, 0b001, 0b011), cnd.Conditional(space, 0b001, 0b101)
    calls = counted_kernels(monkeypatch)
    sub = rel.generated_subalgebra(x, y)
    m = len(sub.members)
    assert m == 16
    assert calls == {**dict.fromkeys(KERNEL_NAMES, 0),
                     "or_bits": m * m, "and_bits": m * m, "not_bits": m}


def test_the_boolean_sweep_calls_no_kernel(monkeypatch):
    """Every pair at two atoms closed with the shipped kernels, then
    swept with kernels that raise: the verdicts are the shipped ones."""
    pairs = cnd.enumerate_conditionals_bits(0b11)
    closures = [rel._close({x, y}) for x in pairs for y in pairs]
    shipped = [rel._boolean_sweep(*closed) for closed in closures]
    assert 0 < sum(shipped) < len(shipped)

    def raising(*args):
        raise AssertionError("the sweep called a kernel")

    for name in ("or_bits", "and_bits", "not_bits"):
        monkeypatch.setattr(cnd, name, raising)
    assert [rel._boolean_sweep(*closed) for closed in closures] == shipped


@pytest.mark.parametrize("law, kernel_calls", [("t3.7", 127615), ("c3.8", 6136)])
def test_subalgebra_laws_make_the_pinned_number_of_kernel_calls(monkeypatch, law, kernel_calls):
    calls = counted_kernels(monkeypatch)
    assert lawcheck.check(law, 3).passed
    assert sum(calls.values()) == kernel_calls


# Golden reports of the two subalgebra laws, recorded with the naive
# closure and sweep above: at two and three atoms, with the shipped
# kernels, with each of the 90 table mutants that the benchmark compiles
# (perfbench/mutants.py, built for the law space's atom mask) and with
# each odd kernel.

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_SUBALGEBRA_REPORTS = ROOT / "fixtures" / "subalgebra_reports.json"


def subalgebra_law_reports():
    """Every report as [kernel, law, atoms, instances, passed,
    counterexample, note]."""
    mutants = perfbench_module("mutants")
    cases = [("shipped", None, None)]
    cases += [("%s %s%s -> %s" % (spec[0], *spec[1], spec[2]), spec[0],
               lambda full, spec=spec: mutants.build(spec, full)) for spec in mutants.specs()]
    cases += [("%s %s" % (name, odd), name,
               lambda full, name=name, odd=odd: odd_kernel(name, ODD_RESULTS[odd]))
              for name, odd in ODD_KERNELS]
    reports = []
    for label, name, build in cases:
        for atoms in (2, 3):
            if name is not None:
                shipped = getattr(cnd, name)
                setattr(cnd, name, build((1 << atoms) - 1))
            try:
                for law in ("t3.7", "c3.8"):
                    r = lawcheck.check(law, atoms)
                    reports.append([label, r.law, r.atom_count, r.instances_checked, r.passed,
                                    r.counterexample, r.note])
            finally:
                if name is not None:
                    setattr(cnd, name, shipped)
    return reports


def test_subalgebra_law_reports_match_the_golden_reports():
    golden = json.loads(GOLDEN_SUBALGEBRA_REPORTS.read_text(encoding="utf-8"))
    assert len(golden) == (1 + 90 + len(ODD_KERNELS)) * 2 * 2
    assert subalgebra_law_reports() == golden
