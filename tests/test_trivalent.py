"""Three-valued evaluation.

A conditional is true at an outcome in its consequent, false elsewhere
in its condition, and undefined outside the condition. The four
operation tables are pinned entry by entry, and a small pointwise sweep
confirms they agree with the operations themselves (the full-size sweep
lives in the acceptance suite).
"""

import copy
import pickle

import pytest

from boolfrac import conditional as cnd
from boolfrac import trivalent as tv
from boolfrac.errors import UnknownAtom
from boolfrac.space import SampleSpace

T, F, U = tv.T, tv.F, tv.U

AND_ENTRIES = [
    (T, T, T), (T, F, F), (T, U, T),
    (F, T, F), (F, F, F), (F, U, F),
    (U, T, T), (U, F, F), (U, U, U),
]

OR_ENTRIES = [
    (T, T, T), (T, F, T), (T, U, T),
    (F, T, T), (F, F, F), (F, U, F),
    (U, T, T), (U, F, F), (U, U, U),
]

GIVEN_ENTRIES = [
    (T, T, T), (T, F, U), (T, U, T),
    (F, T, F), (F, F, U), (F, U, F),
    (U, T, U), (U, F, U), (U, U, U),
]

NOT_ENTRIES = [(T, F), (F, T), (U, U)]


def test_and_table():
    for left, right, want in AND_ENTRIES:
        assert tv.tt_and(left, right) is want


def test_or_table():
    for left, right, want in OR_ENTRIES:
        assert tv.tt_or(left, right) is want


def test_given_table():
    for left, right, want in GIVEN_ENTRIES:
        assert tv.tt_given(left, right) is want


def test_not_table():
    for value, want in NOT_ENTRIES:
        assert tv.tt_not(value) is want


def test_the_tables_hold_exactly_their_entries():
    """The dicts themselves, looked up by key: a truth value's hash must
    find its entry, not only equal one."""
    assert tv.AND_TABLE == {(left, right): want for left, right, want in AND_ENTRIES}
    assert tv.OR_TABLE == {(left, right): want for left, right, want in OR_ENTRIES}
    assert tv.GIVEN_TABLE == {(left, right): want for left, right, want in GIVEN_ENTRIES}
    assert tv.NOT_TABLE == dict(NOT_ENTRIES)


@pytest.mark.parametrize("value", [T, F, U])
def test_truth_values_hash_and_compare_by_identity(value):
    assert hash(value) == object.__hash__(value)
    assert value == value and not value != value
    assert [other for other in (T, F, U) if other == value] == [value]
    assert value != value.value and value != str(value)
    assert {value: 1}[value] == 1 and len({T, F, U, value}) == 3
    assert tv.TruthValue(value.value) is value and tv.TruthValue[value.name] is value


@pytest.mark.parametrize("value", [T, F, U])
def test_truth_values_survive_pickle_and_copy_as_themselves(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) is value
    assert copy.copy(value) is value and copy.deepcopy(value) is value
    assert copy.deepcopy({(value, value): [value]}) == {(value, value): [value]}


def test_truth_values_print_as_single_letters():
    assert str(T) == "T" and str(F) == "F" and str(U) == "U"


def test_eval_at_splits_the_space_into_three_regions(die):
    x = cnd.make(die.events["two"], die.events["even"])
    assert tv.eval_at(x, "2") is T
    assert tv.eval_at(x, "4") is F
    assert tv.eval_at(x, "5") is U
    with pytest.raises(UnknownAtom):
        tv.eval_at(x, "7")


def test_tables_are_sound_for_the_operations_at_two_atoms():
    """eval_at(op(x, y)) == table(eval_at(x), eval_at(y)) pointwise."""
    space = SampleSpace(["1", "2"])
    pairs = cnd.enumerate_conditionals_bits(space.full_bits)
    ops = (
        (cnd.and_bits, tv.tt_and),
        (cnd.or_bits, tv.tt_or),
        (cnd.given_bits, tv.tt_given),
    )
    for q1, c1 in pairs:
        for q2, c2 in pairs:
            for bit in (1, 2):
                left = tv.eval_at_bit(q1, c1, bit)
                right = tv.eval_at_bit(q2, c2, bit)
                for op, table in ops:
                    rq, rc = op(q1, c1, q2, c2)
                    assert tv.eval_at_bit(rq, rc, bit) is table(left, right)
                nq, nc = cnd.not_bits(q1, c1)
                assert tv.eval_at_bit(nq, nc, bit) is tv.tt_not(left)
