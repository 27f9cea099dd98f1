"""The exhaustive law checker.

Each catalog law sweeps every conditional tuple of a small space and
reports the first counterexample in a fixed enumeration order, so runs
are deterministic. The side conditions are spelled as independent bit
inequalities, which is what makes the checker sensitive to mutations in
the operation kernels.
"""

import json
import pathlib
import pickle
import subprocess
import sys
from itertools import combinations_with_replacement, product

import pytest

from benchinputs import perfbench_module
from boolfrac import cli
from boolfrac import conditional as cnd
from boolfrac import lawcheck
from boolfrac import prob
from boolfrac import relations as rel
from boolfrac import schay
from boolfrac import trivalent as tv
from boolfrac.errors import TooLarge, UnknownLaw


def test_law_space_names_atoms_by_position():
    assert lawcheck.law_space(3).atoms == ("1", "2", "3")


def test_check_builds_each_atom_count_space_once(monkeypatch):
    made = []
    law_space = lawcheck.law_space
    monkeypatch.setattr(lawcheck, "law_space", lambda atoms: made.append(atoms) or law_space(atoms))
    lawcheck._checking_space.cache_clear()
    try:
        reports = [lawcheck.check(law, atoms) for law, atoms in
                   (("c3.3", 2), ("c3.3", 2), ("t2.4", 2), ("c3.3", 1))]
    finally:
        lawcheck._checking_space.cache_clear()
    assert made == [2, 1] and reports[0] == reports[1]
    assert all(r.passed for r in reports)


def test_enumerate_conditionals_counts():
    assert len(lawcheck.enumerate_conditionals(lawcheck.law_space(1))) == 3
    assert len(lawcheck.enumerate_conditionals(lawcheck.law_space(2))) == 9
    assert len(lawcheck.enumerate_conditionals(lawcheck.law_space(3))) == 27
    with pytest.raises(TooLarge):
        lawcheck.enumerate_conditionals(lawcheck.law_space(6))


def test_enumeration_is_condition_major():
    conds = lawcheck.enumerate_conditionals(lawcheck.law_space(2))
    assert conds[0].is_undefined
    keys = [(x.c, x.q) for x in conds]
    assert keys == sorted(keys)


def test_left_distribution_side_condition_at_two_atoms():
    """The x=({1,2}|{1,2}), y=({1}|{1}), z=({}|{2}) instance: the two
    sides differ and the side condition correctly reports that."""
    space = lawcheck.law_space(2)
    x = cnd.Conditional(space, 0b11, 0b11)
    y = cnd.Conditional(space, 0b01, 0b01)
    z = cnd.Conditional(space, 0b00, 0b10)
    lhs = cnd.and_(x, cnd.or_(y, z))
    rhs = cnd.or_(cnd.and_(x, y), cnd.and_(x, z))
    assert lhs == cnd.Conditional(space, 0b01, 0b11)
    assert rhs == cnd.Conditional(space, 0b11, 0b11)
    side = (x.q & (z.c & ~z.q) & ~y.c) == 0 and (x.q & (y.c & ~y.q) & ~z.c) == 0
    assert lhs != rhs and side is False
    report = lawcheck.check("t2.4", 2)
    assert report.passed


def test_catalog_has_28_distinct_laws():
    assert len(lawcheck.LAW_IDS) == 28
    assert len(set(lawcheck.LAW_IDS)) == 28


def test_check_reports_are_deterministic():
    a = lawcheck.check("t3.9", 2)
    b = lawcheck.check("t3.9", 2)
    assert a == b
    assert a.passed and a.counterexample is None


def test_check_rejects_unknown_and_oversized_requests():
    with pytest.raises(UnknownLaw):
        lawcheck.check("t9.99", 2)
    with pytest.raises(UnknownLaw):
        lawcheck.check("all", 2)
    with pytest.raises(TooLarge):
        lawcheck.check("t2.13", 4)
    with pytest.raises(ValueError):
        lawcheck.check("t2.4", 0)


def test_check_rejects_weight_grids_below_one():
    """A grid with largest weight 0 holds no measure, so a PASS would
    mean nothing."""
    with pytest.raises(ValueError):
        lawcheck.check("t2.13", 2, 0)
    with pytest.raises(ValueError):
        lawcheck.check("superposition", 2, -1)
    with pytest.raises(ValueError):
        lawcheck.check_all(2, max_weight=0)


def test_law_budget_lookup():
    assert lawcheck.law_budget("t2.4") == 4
    assert lawcheck.law_budget("t2.13") == 3
    with pytest.raises(UnknownLaw):
        lawcheck.law_budget("nope")


def test_check_all_clamps_to_each_budget():
    reports = lawcheck.check_all(2)
    assert [r.law for r in reports] == list(lawcheck.LAW_IDS)
    assert all(r.passed for r in reports)
    assert all(r.atom_count == 2 for r in reports)
    big = {r.law: r for r in lawcheck.check_all(4, max_weight=1)}
    assert big["t2.13"].atom_count == 3
    assert big["t2.4"].atom_count == 4


def test_osum_associativity_is_reported_as_a_note_not_a_failure():
    report = lawcheck.check("t3.11", 2)
    assert report.passed
    assert report.note is not None
    assert "not associative" in report.note


def test_passed_mirrors_counterexample():
    for report in lawcheck.check_all(1):
        assert report.passed == (report.counterexample is None)


def test_mutated_and_kernel_is_caught(monkeypatch):
    """Dropping the ab&d' term from the conjunction breaks the
    distribution law with a printed counterexample."""

    def broken(q1, c1, q2, c2):
        return (q1 & q2) | (~c1 & q2), c1 | c2

    monkeypatch.setattr(cnd, "and_bits", broken)
    report = lawcheck.check("t2.4", 2)
    assert not report.passed
    assert report.counterexample is not None
    assert "x=" in report.counterexample


def test_mutated_or_kernel_is_caught(monkeypatch):
    def broken(q1, c1, q2, c2):
        return (q1 | q2) & c1, c1 | c2

    monkeypatch.setattr(cnd, "or_bits", broken)
    failed = [r.law for r in lawcheck.check_all(2) if not r.passed]
    assert failed


# Golden reports: every instance count and counterexample text is
# pinned, so a change to how laws report cannot alter one unnoticed.

GOLDEN_INSTANCES = {  # law: instances_checked at n=2, 3 and 4, weight grid 1;
    # at n=4 the laws with budget 3 are clamped to n=3
    "t2.4": (729, 19683, 531441),
    "c2.5": (729, 19683, 531441),
    "t2.6": (729, 19683, 531441),
    "c2.7": (729, 19683, 531441),
    "c2.8": (81, 729, 6561),
    "c2.9": (81, 729, 6561),
    "props2.3": (819, 20439, 538083),
    "t2.13": (272, 13120, 13120),
    "t2.18": (225, 2457, 2457),
    "t2.19": (196, 2744, 2744),
    "p2.20": (90, 756, 6642),
    "truth-tables": (504, 6642, 79056),
    "superposition": (305, 5561, 5561),
    "t3.2": (81, 729, 729),
    "c3.3": (81, 729, 6561),
    "c3.5": (81, 729, 6561),
    "c3.6": (81, 729, 6561),
    "t3.7": (81, 729, 729),
    "c3.8": (81, 729, 729),
    "t3.9": (81, 729, 6561),
    "t3.11": (102, 786, 6726),
    "t3.15": (810, 20412, 538002),
    "c3.16": (90, 756, 6642),
    "t3.17": (1497, 39205, 556795),
    "schay-lattice": (1638, 40878, 40878),
    "schay-coincide": (81, 729, 6561),
    "schay-2.12": (9, 27, 81),
    "orders": (81, 729, 729),
}


@pytest.mark.parametrize("atoms", [2, 3, 4])
def test_instance_counts_match_the_golden_counts(atoms):
    reports = lawcheck.check_all(atoms, max_weight=1)
    assert all(r.passed for r in reports)
    assert {r.law: r.instances_checked for r in reports} == {
        law: counts[atoms - 2] for law, counts in GOLDEN_INSTANCES.items()
    }


def _report(law, count, counterexample=None, note=None):
    return lawcheck.LawReport(law, 2, count, counterexample is None, counterexample, note)


GOLDEN_CRITERION_10 = [
    _report("t2.4", 164, "x=({1}|{1}) y=UNDEFINED z=({}|{1}) lhs=({}|{1}) rhs=({}|{1}) side=false"),
    _report("c2.5", 100, "x=({}|{1}) y=({1}|{1}) z=UNDEFINED lhs=({}|{1}) rhs=({}|{1}) side=false"),
    _report("t2.6", 163, "x=({1}|{1}) y=UNDEFINED z=UNDEFINED lhs=({1}|{1}) rhs=({}|{1}) side=true"),
    _report("c2.7", 164, "x=({1}|{1}) y=UNDEFINED z=({}|{1}) lhs=({}|{1}) rhs=({}|{1}) side=false"),
    _report("c2.8", 81),
    _report("c2.9", 81),
    _report("props2.3", 3, "and_(x, U) == x fails at x=({1}|{1})"),
    _report("t2.13", 1680),
    _report("t2.18", 51, "orthogonality routes disagree at c=({1}|{1}) z=UNDEFINED: "
                         "op=true ineq=false"),
    _report("t2.19", 196),
    _report("p2.20", 90),
    _report("truth-tables", 109, "and disagrees with its table at x=({1}|{1}) y=UNDEFINED atom=1"),
    _report("superposition", 19, "three-term and split fails at x=({1}|{1}) y=UNDEFINED "
                                 "lhs=({}|{1}) rhs=({1}|{1})"),
    _report("t3.2", 81),
    _report("c3.3", 19, "x=({1}|{1}) y=UNDEFINED collapse=true simver=false"),
    _report("c3.5", 81),
    _report("c3.6", 81),
    _report("t3.7", 81),
    _report("c3.8", 81),
    _report("t3.9", 19, "x=({1}|{1}) z=UNDEFINED complement_pair=true right=false"),
    _report("t3.11", 102, note="informative: the total osum is not associative, e.g. "
                               "x=UNDEFINED y=({}|{1}) z=({1}|{1})"),
    _report("t3.15", 246, "composition via and_ fails at b=({1}|{1}) c=UNDEFINED a=({1}|{1})"),
    _report("c3.16", 90),
    _report("t3.17", 19, "coincidence-with-and_ criterion fails at b=({1}|{1}) a=UNDEFINED"),
    _report("schay-lattice", 1638),
    _report("schay-coincide", 19, "and_s != and_ at x=({1}|{1}) y=UNDEFINED"),
    _report("schay-2.12", 9),
    _report("orders", 10, "simfals(x, y) disagrees with and_(not x, not y) == (a'bc'd|b v d) "
                          "at x=({}|{1}) y=UNDEFINED: holds=false"),
]


def test_criterion_10_mutant_reports_match_the_golden_reports(monkeypatch):
    def broken(q1, c1, q2, c2):
        return (q1 & q2) | (~c1 & q2), c1 | c2

    monkeypatch.setattr(cnd, "and_bits", broken)
    assert lawcheck.check_all(2) == GOLDEN_CRITERION_10


GOLDEN_CRITERION_10_AT_4 = [
    lawcheck.LawReport(law, 4, count, False, counterexample) for law, count, counterexample in (
        ("t2.4", 13124, "x=({1}|{1}) y=UNDEFINED z=({}|{1}) lhs=({}|{1}) rhs=({}|{1}) side=false"),
        ("c2.5", 6724, "x=({}|{1}) y=({1}|{1}) z=UNDEFINED lhs=({}|{1}) rhs=({}|{1}) side=false"),
        ("t2.6", 13123, "x=({1}|{1}) y=UNDEFINED z=UNDEFINED lhs=({1}|{1}) rhs=({}|{1}) side=true"),
        ("c2.7", 13124, "x=({1}|{1}) y=UNDEFINED z=({}|{1}) lhs=({}|{1}) rhs=({}|{1}) side=false"),
    )
]


def test_criterion_10_mutant_reports_at_four_atoms_match_the_golden_reports(monkeypatch):
    """The mutant is a closed form, so these laws run bit-sliced; the
    reports are the ones a plain loop over every triple gave."""
    def broken(q1, c1, q2, c2):
        return (q1 & q2) | (~c1 & q2), c1 | c2

    monkeypatch.setattr(cnd, "and_bits", broken)
    assert lawcheck._lane_local(broken)
    assert [lawcheck.check(law, 4) for law in ("t2.4", "c2.5", "t2.6", "c2.7")] == (
        GOLDEN_CRITERION_10_AT_4
    )


# Single-entry table mutants. Each binary kernel acts atom by atom
# through a 3x3 table; a mutant changes one entry to one of the two
# other values and applies the table with a per-atom loop.

T, F, U = tv.T, tv.F, tv.U

TABLES = {
    "and_bits": tv.AND_TABLE,
    "or_bits": tv.OR_TABLE,
    "given_bits": tv.GIVEN_TABLE,
    # (abc'd v a'bcd | b v d) and (cd(b' v a) | b v d), atom by atom.
    "osum_bits": {
        (T, T): F, (T, F): T, (T, U): F,
        (F, T): T, (F, F): F, (F, U): F,
        (U, T): F, (U, F): F, (U, U): U,
    },
    "sasaki_bits": {
        (T, T): T, (T, F): F, (T, U): F,
        (F, T): F, (F, F): F, (F, U): F,
        (U, T): T, (U, F): F, (U, U): U,
    },
}

ATOM_BITS = (0b01, 0b10)  # the mutants act on the 2-atom law space


def per_atom_kernel(table, atom_bits=ATOM_BITS):
    def kernel(q1, c1, q2, c2):
        q = c = 0
        for bit in atom_bits:
            value = table[tv.eval_at_bit(q1, c1, bit), tv.eval_at_bit(q2, c2, bit)]
            if value is not U:
                c |= bit
                if value is T:
                    q |= bit
        return q, c

    return kernel


def table_mutants():
    """All 90 mutants as (kernel name, entry, new value, kernel)."""
    for name, table in TABLES.items():
        for entry, old in table.items():
            for new in (T, F, U):
                if new is not old:
                    yield name, entry, new, per_atom_kernel({**table, entry: new})


def per_atom_not(table, atom_bits=ATOM_BITS):
    def kernel(q, c):
        nq = nc = 0
        for bit in atom_bits:
            value = table[tv.eval_at_bit(q, c, bit)]
            if value is not U:
                nc |= bit
                if value is T:
                    nq |= bit
        return nq, nc

    return kernel


def not_mutants():
    """The 6 single-entry mutants of the negation table."""
    for entry, old in tv.NOT_TABLE.items():
        for new in (T, F, U):
            if new is not old:
                yield "not_bits", entry, new, per_atom_not({**tv.NOT_TABLE, entry: new})


def test_per_atom_tables_reproduce_the_kernels():
    pairs = cnd.enumerate_conditionals_bits(0b11)
    for name, table in TABLES.items():
        kernel, reference = per_atom_kernel(table), getattr(cnd, name)
        assert all(kernel(*x, *y) == reference(*x, *y) for x in pairs for y in pairs), name
    assert all(per_atom_not(tv.NOT_TABLE)(*x) == cnd.not_bits(*x) for x in pairs)


def _survivors(monkeypatch, mutants, module=cnd):
    """The mutants under which every law passes; check_all must not raise."""
    survivors = []
    for name, entry, new, kernel in mutants:
        monkeypatch.setattr(module, name, kernel)
        if all(r.passed for r in lawcheck.check_all(2, max_weight=1)):
            survivors.append((name, entry, new))
        monkeypatch.undo()
    return survivors


def test_every_table_mutant_is_killed_without_a_crash(monkeypatch):
    """check_all raises for no mutant, and some law fails under each."""
    mutants = list(table_mutants())
    assert len(mutants) == 90
    assert _survivors(monkeypatch, mutants) == []


def test_every_not_mutant_is_killed_without_a_crash(monkeypatch):
    mutants = list(not_mutants())
    assert len(mutants) == 6
    assert _survivors(monkeypatch, mutants) == []


@pytest.mark.parametrize(
    "entry, count", [((T, T), 11), ((T, F), 9), ((F, T), 3), ((F, F), 1)]
)
def test_a_law_that_raises_reports_fail(monkeypatch, entry, count):
    """An or_ that leaves a defined operand undefined makes a weighted
    condition weigh zero; t2.13 reports the exception as its failure,
    counted at the instance that raised."""
    monkeypatch.setattr(cnd, "or_bits", per_atom_kernel({**tv.OR_TABLE, entry: U}))
    report = lawcheck.check("t2.13", 2, 1)
    assert not report.passed
    assert report.instances_checked == count
    assert report.counterexample == "raised ZeroCondition: condition {} has weight zero"


@pytest.mark.parametrize("entry, new, count, counterexample", [
    ((T, U), F, 361, "weights=[1, 1] A={2} C1={1,2} B={} C2={1} lhs=0 rhs=1/2 cases=[3]"),
    ((F, U), U, 275, "weights=[1, 1] A={} C1={1} B={2} C2={2} lhs=1 rhs=1 cases=[]"),
    ((U, U), F, 258, "weights=[1, 1] A={} C1={1} B={1} C2={1} lhs=1/2 rhs=1 cases=[2, 4]"),
])
def test_t2_13_renders_its_failing_instance(monkeypatch, entry, new, count, counterexample):
    """An or_ table mutant that keeps every condition weighted: t2.13's
    template prints the measure, the operands and both sides, read from
    the additivity report. Recorded when the report still built its
    sides eagerly."""
    monkeypatch.setattr(cnd, "or_bits", per_atom_kernel({**tv.OR_TABLE, entry: new}))
    assert lawcheck.check("t2.13", 2) == lawcheck.LawReport("t2.13", 2, count, False,
                                                            counterexample)


def test_a_kernel_leaving_normal_form_reports_fail(monkeypatch):
    """Bits outside normal form cannot become a Conditional. t3.7 builds
    one inside its body; c2.8 compares bits and meets them only when its
    counterexample is rendered. Both report FAIL at the first instance."""
    and_bits = cnd.and_bits

    def broken(q1, c1, q2, c2):
        q, c = and_bits(q1, c1, q2, c2)
        return q | 1, c

    monkeypatch.setattr(cnd, "and_bits", broken)
    reports = {r.law: r for r in lawcheck.check_all(2)}
    for law in ("t3.7", "c2.8"):
        assert reports[law] == _report(
            law, 1, "raised ValueError: consequent bits 0x1 stick out of condition 0x0"
        )


# Lane certificates and bit-sliced evaluation.

SHIPPED_KERNELS = [getattr(cnd, name) for name in TABLES] + [
    schay.cap_bits, schay.cup_bits, schay.sand_bits, schay.vee_bits,
]


def _pack(values, width):
    return int("".join(format(v, "0%db" % width) for v in reversed(values)), 2)


def lane_certificate(kernel, n):
    """A pairwise lane certificate at n atoms, the reference for
    `_lane_local`: on all 3**n x 3**n normal-form operand pairs, one at a
    time and packed as lanes, each result is a normal-form (q, c) pair
    of ints inside the space, the packed call returns exactly the packed
    results, and nothing raises. Call j has (pairs[i], pairs[i + j]) in
    lane i, indices mod 3**n."""
    full = (1 << n) - 1
    pairs = cnd.enumerate_conditionals_bits(full)
    size = len(pairs)
    try:
        for j in range(size):
            operands = [x + pairs[(i + j) % size] for i, x in enumerate(pairs)]
            results = [kernel(*args) for args in operands]
            for result in results:
                if not (type(result) is tuple and len(result) == 2
                        and type(result[0]) is int and type(result[1]) is int):
                    return False
                q, c = result
                if not 0 <= c <= full or q & ~c:
                    return False
            packed = [_pack(column, n) for column in zip(*operands)]
            if kernel(*packed) != tuple(_pack(column, n) for column in zip(*results)):
                return False
    except Exception:
        return False
    return True


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_lane_certificate_accepts_every_shipped_kernel(atoms):
    """The truth-table certificate, which takes no atom count, and the
    pairwise certificate at each size both accept the 9 shipped kernels."""
    for kernel in SHIPPED_KERNELS:
        assert lawcheck._lane_local(kernel), kernel.__name__
        assert lane_certificate(kernel, atoms), kernel.__name__


def _masking(q1, c1, q2, c2):
    # or_ with (U, U) -> F: the atoms outside both conditions, bounded by
    # the 2-atom space.
    return q1 | q2, c1 | c2 | (~c1 & ~c2 & 0b11)


def _shifting(q1, c1, q2, c2):
    c = c1 | c2
    return (q1 | q2 | q2 >> 1) & c, c


def _adding(q1, c1, q2, c2):
    c = c1 | c2
    return (q1 + q2) & c, c


def _leaving_normal_form(q1, c1, q2, c2):
    # cap_s without restricting the consequent to the condition
    return q1 | q2, c1 & c2


def _raising_on_some_pair(q1, c1, q2, c2):
    if q1 == c2 == 0b10:
        raise ZeroDivisionError("pair")
    return cnd.or_bits(q1, c1, q2, c2)


def _raising_on_lanes(q1, c1, q2, c2):
    if c1 > 0b11:
        raise OverflowError("wide operand")
    return cnd.or_bits(q1, c1, q2, c2)


REJECTED = [
    pytest.param(per_atom_kernel(tv.AND_TABLE), id="per_atom"),
    *(pytest.param(k, id=k.__name__.strip("_")) for k in (
        _masking, _shifting, _adding, _leaving_normal_form, _raising_on_some_pair,
        _raising_on_lanes)),
]


@pytest.mark.parametrize("kernel", REJECTED)
def test_lane_certificate_rejects_kernels_that_are_not_lane_local(kernel):
    assert not lawcheck._lane_local(kernel)


# Kernels only the truth-table call rejects or rejects for its own
# reason: each is or_ (or close to it) written with an operation that
# means something else on a truth table than on the bits of an int.


def _comparing(q1, c1, q2, c2):
    if q1 == q2 and c1 == c2:
        return q1, c1
    return q1 | q2, c1 | c2


def _truth_testing(q1, c1, q2, c2):
    if q1:
        return q1 | q2, c1 | c2
    return q2, c1 | c2


def _memoising():
    seen = {}

    def memoising(q1, c1, q2, c2):
        key = q1, c1, q2, c2
        if key not in seen:
            seen[key] = q1 | q2, c1 | c2
        return seen[key]

    return memoising


def _masking_with_a_constant(q1, c1, q2, c2):
    return (q1 | q2) & 3, (c1 | c2) & 3


def _returning_a_list(q1, c1, q2, c2):
    return [q1 | q2, c1 | c2]


def _defining_outside_both_conditions(q1, c1, q2, c2):
    return q1 | q2, c1 | c2 | (~c1 & ~c2)


def _subtracting(q1, c1, q2, c2):
    c = c1 | c2
    return c - (c & ~(q1 | q2)), c


@pytest.mark.parametrize("kernel", [
    pytest.param(k, id=k.__name__.strip("_")) for k in (
        _comparing, _truth_testing, _memoising(), _masking_with_a_constant, _returning_a_list,
        _defining_outside_both_conditions, _subtracting)
])
def test_lane_local_rejects_kernels_a_truth_table_cannot_run(kernel):
    assert not lawcheck._lane_local(kernel)


AND_BITS = cnd.and_bits  # the shipped kernel, for the ones that replace it


def _and_leaving_normal_form(q1, c1, q2, c2):
    q, c = AND_BITS(q1, c1, q2, c2)
    return q | 1, c


def _and_raising_on_some_pair(q1, c1, q2, c2):
    if q1 == 0b01 and c2 == 0b11:
        raise RuntimeError("boom")
    return AND_BITS(q1, c1, q2, c2)


@pytest.mark.parametrize("kernel, law, count, counterexample", [
    (_and_leaving_normal_form, "t2.4", 164,
     "x=({1}|{1}) y=UNDEFINED z=({}|{1}) lhs=({1}|{1}) rhs=({1}|{1}) side=false"),
    (_and_leaving_normal_form, "c2.5", 84,
     "x=({}|{1}) y=UNDEFINED z=({1}|{1}) lhs=({1}|{1}) rhs=({1}|{1}) side=false"),
    (_and_leaving_normal_form, "t3.15", 93,
     "composition via and_ fails at b=UNDEFINED c=({}|{1}) a=({1}|{1})"),
    (_and_raising_on_some_pair, "t2.4", 168, "raised RuntimeError: boom"),
    (_and_raising_on_some_pair, "t3.15", 288, "raised RuntimeError: boom"),
    # Single and pair sweeps. c3.3 names only the operands and two
    # truth values, so the lhs left out of normal form is never rendered.
    (_and_leaving_normal_form, "c3.3", 1, "x=UNDEFINED y=UNDEFINED collapse=false simver=true"),
    (_and_leaving_normal_form, "t3.9", 1,
     "x=UNDEFINED z=UNDEFINED complement_pair=false right=true"),
    (_and_leaving_normal_form, "props2.3", 1, "and_(x, x) == x fails at x=UNDEFINED"),
    (_and_leaving_normal_form, "schay-coincide", 1, "and_s != and_ at x=UNDEFINED y=UNDEFINED"),
    (_and_raising_on_some_pair, "c2.8", 22, "raised RuntimeError: boom"),
    (_and_raising_on_some_pair, "c3.3", 24, "raised RuntimeError: boom"),
    (_and_raising_on_some_pair, "p2.20", 7, "raised RuntimeError: boom"),
    (_and_raising_on_some_pair, "t3.17", 24, "raised RuntimeError: boom"),
])
def test_uncertified_kernels_report_as_a_plain_loop_did(monkeypatch, kernel, law, count,
                                                         counterexample):
    """Reports recorded from plain loops over every single, pair and
    triple: one-instance blocks compare results as Python values and
    count an instance before evaluating it."""
    monkeypatch.setattr(cnd, "and_bits", kernel)
    assert not lawcheck._lane_local(kernel)
    assert lawcheck.check(law, 2) == lawcheck.LawReport(law, 2, count, False, counterexample)


def test_every_report_carries_its_time_outside_its_value(monkeypatch):
    """PASS, FAIL and `raised` reports each say how long their check
    took, and that time is no part of the report's repr, == or pickle."""
    reports = lawcheck.check_all(2, 1)
    for kernel in (_and_leaving_normal_form, _and_raising_on_some_pair):
        monkeypatch.setattr(cnd, "and_bits", kernel)
        reports.append(lawcheck.check("t2.4", 2))
    assert [report.counterexample[:7] for report in reports[-2:]] == ["x=({1}|", "raised "]
    for report in reports:
        assert type(report.elapsed_s) is float and report.elapsed_s >= 0
        value = lawcheck.LawReport(*[getattr(report, name) for name in report._fields])
        assert value.elapsed_s is None
        assert report == value and repr(report) == repr(value) and hash(report) == hash(value)
        assert pickle.loads(pickle.dumps(report)) == report


NOT_BITS = cnd.not_bits


def _not_raising_on_one_pair(q, c):
    if (q, c) == (0b01, 0b11):
        raise RuntimeError("not boom")
    return NOT_BITS(q, c)


@pytest.mark.parametrize("law, count", [
    ("c2.8", 54), ("c2.9", 54), ("p2.20", 6), ("t3.9", 54), ("t3.11", 7), ("t3.17", 54),
    ("props2.3", 7), ("c3.5", 7),
])
def test_a_lead_that_raises_is_counted_where_a_plain_loop_counted_it(monkeypatch, law, count):
    """Counts recorded from plain loops, with x = ({1}|{1,2}) the 7th
    conditional. Where not x was taken once per outer x before its
    instances were counted, it is the sweep's lead and the count stops
    at the 6 singles or 54 pairs before x; where it was taken inside an
    instance, the count includes that instance."""
    monkeypatch.setattr(cnd, "not_bits", _not_raising_on_one_pair)
    assert lawcheck.check(law, 2) == lawcheck.LawReport(law, 2, count, False,
                                                        "raised RuntimeError: not boom")


OR_BITS = cnd.or_bits


def _or_leaving_normal_form(q1, c1, q2, c2):
    q, c = OR_BITS(q1, c1, q2, c2)
    return q | 1, c


@pytest.mark.parametrize("name, kernel, law, counterexample", [
    ("or_bits", _or_leaving_normal_form, "t2.13",
     "raised ValueError: consequent bits 0x1 stick out of condition 0x2"),
    ("or_bits", _or_leaving_normal_form, "superposition",
     "raised ValueError: consequent bits 0x1 stick out of condition 0x0"),
    ("and_bits", _and_leaving_normal_form, "superposition",
     "raised ValueError: consequent bits 0x1 stick out of condition 0x0"),
])
def test_grid_laws_report_kernels_leaving_normal_form(monkeypatch, name, kernel, law,
                                                      counterexample):
    """Reports recorded from the grid laws when every instance built its
    Conditionals: a result out of normal form raises where it is
    validated, and the report counts the instance that raised."""
    monkeypatch.setattr(cnd, name, kernel)
    assert lawcheck.check(law, 2) == lawcheck.LawReport(law, 2, 1, False, counterexample)


DRIVER_LAWS = ("t2.4", "c2.5", "t2.6", "c2.7", "c2.8", "c2.9", "props2.3", "p2.20", "c3.3", "c3.5",
               "c3.6", "t3.9", "t3.11", "t3.15", "t3.17", "schay-lattice", "schay-coincide")


def reference_truth_tables(atoms, counter):
    """truth-tables as the plain loop over every pair, atom and op that
    the law ran before its blocks were sliced: the reference for
    `lawcheck._law_truth_tables`."""
    space = lawcheck.law_space(atoms)
    pairs = cnd.enumerate_conditionals_bits(space.full_bits)
    ops = (("and", cnd.and_bits, tv.tt_and), ("or", cnd.or_bits, tv.tt_or),
           ("given", cnd.given_bits, tv.tt_given))
    bits = [1 << i for i in range(atoms)]
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
                        return ("%(op)s disagrees with its table at x=%(x)s y=%(y)s atom=%(atom)s",
                                dict(op=name, x=(q1, c1), y=(q2, c2),
                                     atom=space.atoms[bit.bit_length() - 1]))
    for q1, c1 in pairs:
        nq, nc = cnd.not_bits(q1, c1)
        for bit in bits:
            counter[0] += 1
            if ev(nq, nc, bit) != tv.tt_not(ev(q1, c1, bit)):
                return ("not disagrees with its table at x=%(x)s atom=%(atom)s",
                        dict(x=(q1, c1), atom=space.atoms[bit.bit_length() - 1]))
    return None


def reference_outcome(reference, atoms):
    """(count, failure) of a reference loop; a raise is its failure,
    rendered as `check` renders it."""
    counter = [0]
    try:
        failure = reference(atoms, counter)
    except Exception as exc:
        failure = "raised %s: %s" % (type(exc).__name__, exc)
    return counter[0], failure


def reference_truth_tables_report(atoms):
    count, failure = reference_outcome(reference_truth_tables, atoms)
    if isinstance(failure, tuple):
        failure = lawcheck._render(lawcheck.law_space(atoms), *failure)
    return lawcheck.LawReport("truth-tables", atoms, count, failure is None, failure)


def assert_forms_report_as_the_reference(monkeypatch, name, kernels, atoms, laws):
    """Under each of the two kernels, truth-tables reports as its
    reference loop does under the first, and the laws that call the
    sweep report alike."""
    monkeypatch.setattr(cnd, name, kernels[0])
    reference = reference_truth_tables_report(atoms)
    monkeypatch.undo()
    reports = []
    for kernel in kernels:
        monkeypatch.setattr(cnd, name, kernel)
        assert lawcheck.check("truth-tables", atoms) == reference, name
        reports.append([lawcheck.check(law, atoms) for law in laws])
        monkeypatch.undo()
    assert reports[0] == reports[1], name


def closed_form_kernel(table, full=0b11):
    """A table as bit operations: the atoms giving a value are the union,
    over the entries giving it, of the operands' masks for the entry.
    Only an entry (U, U) needs the space, 2 atoms unless `full` says
    otherwise, to bound it."""
    true = [entry for entry, value in table.items() if value is T]
    defined = [entry for entry, value in table.items() if value is not U]

    def atoms(entries, m1, m2):
        out = 0
        for a, b in entries:
            out |= m1[a] & m2[b] & (full if a is b is U else -1)
        return out

    def kernel(q1, c1, q2, c2):
        m1 = {T: q1, F: c1 & ~q1, U: ~c1}
        m2 = {T: q2, F: c2 & ~q2, U: ~c2}
        return atoms(true, m1, m2), atoms(defined, m1, m2)

    return kernel


def test_the_truth_table_and_pairwise_certificates_agree():
    """The reject list and the 90 closed-form and 90 per-atom table
    mutants at 2 atoms; the shipped kernels at 1 to 4 atoms are checked
    in test_lane_certificate_accepts_every_shipped_kernel."""
    for param in REJECTED:
        kernel, = param.values
        assert not lawcheck._lane_local(kernel) and not lane_certificate(kernel, 2)
    for name, entry, new, per_atom in table_mutants():
        closed = closed_form_kernel({**TABLES[name], entry: new})
        for kernel in (closed, per_atom):
            assert lawcheck._lane_local(kernel) == lane_certificate(kernel, 2), (name, entry, new)


def test_both_kernel_forms_report_as_the_reference_under_every_table_mutant(monkeypatch):
    """One table, two kernels: the closed form is certified (unless its
    (U, U) entry is defined, which needs the space mask) and runs
    sliced; the per-atom loop is not and runs one instance per block.
    truth-tables is compared with its reference loop, and every law that
    calls the sweep with itself under the other kernel."""
    certified = 0
    for name, entry, new, per_atom in table_mutants():
        table = {**TABLES[name], entry: new}
        closed = closed_form_kernel(table)
        assert lawcheck._lane_local(closed) == (table[U, U] is U)
        assert not lawcheck._lane_local(per_atom)
        certified += lawcheck._lane_local(closed)
        assert_forms_report_as_the_reference(monkeypatch, name, (closed, per_atom), 2, DRIVER_LAWS)
    assert certified == 80


def closed_form_not(table, full=0b11):
    """The negation table as bit operations; an entry U -> T or F needs
    the space, 2 atoms unless `full` says otherwise, to bound it."""
    true = [a for a, value in table.items() if value is T]
    defined = [a for a, value in table.items() if value is not U]

    def atoms(entries, masks):
        out = 0
        for a in entries:
            out |= masks[a] & (full if a is U else -1)
        return out

    def kernel(q, c):
        masks = {T: q, F: c & ~q, U: ~c}
        return atoms(true, masks), atoms(defined, masks)

    return kernel


def test_both_kernel_forms_report_as_the_reference_under_every_not_mutant(monkeypatch):
    """The 6 negation mutants as a closed form and as a per-atom loop,
    compared as the table mutants are: the closed form is certified
    unless its U entry is defined."""
    assert lawcheck._lane_local(closed_form_not(tv.NOT_TABLE), 1)
    assert lawcheck._lane_local(cnd.not_bits, 1)
    certified = 0
    for name, entry, new, per_atom in not_mutants():
        table = {**tv.NOT_TABLE, entry: new}
        closed = closed_form_not(table)
        assert lawcheck._lane_local(closed, 1) == (table[U] is U)
        assert not lawcheck._lane_local(per_atom, 1)
        certified += lawcheck._lane_local(closed, 1)
        assert_forms_report_as_the_reference(monkeypatch, name, (closed, per_atom), 2, DRIVER_LAWS)
    assert certified == 4


# The two laws whose hand loops became lane blocks, on 3 atoms: a pair
# lane then holds three atoms, and the folded families of t3.17 fill
# whole blocks of byte lanes.

THREE_ATOM_BITS = (0b001, 0b010, 0b100)


def mutant_forms(atoms):
    """Every table and negation mutant as (kernel name, closed form,
    per-atom loop), both over the space of `atoms` atoms."""
    full, atom_bits = (1 << atoms) - 1, tuple(1 << i for i in range(atoms))
    for name, entry, new, _ in table_mutants():
        table = {**TABLES[name], entry: new}
        yield name, closed_form_kernel(table, full), per_atom_kernel(table, atom_bits)
    for name, entry, new, _ in not_mutants():
        table = {**tv.NOT_TABLE, entry: new}
        yield name, closed_form_not(table, full), per_atom_not(table, atom_bits)


def test_both_kernel_forms_report_as_the_reference_at_three_atoms(monkeypatch):
    """The unmutated 3-atom closed forms and loops reproduce the kernels;
    under each of the 96 mutants, truth-tables reports as its reference
    loop does through the closed form and through the per-atom loop, and
    t3.17 reports alike through both."""
    pairs = cnd.enumerate_conditionals_bits(0b111)
    for name, table in TABLES.items():
        reference = getattr(cnd, name)
        for kernel in (closed_form_kernel(table, 0b111), per_atom_kernel(table, THREE_ATOM_BITS)):
            assert all(kernel(*x, *y) == reference(*x, *y) for x in pairs for y in pairs), name
    for kernel in (closed_form_not(tv.NOT_TABLE, 0b111),
                   per_atom_not(tv.NOT_TABLE, THREE_ATOM_BITS)):
        assert all(kernel(*x) == cnd.not_bits(*x) for x in pairs)
    mutants = list(mutant_forms(3))
    assert len(mutants) == 96
    for name, closed, per_atom in mutants:
        assert_forms_report_as_the_reference(monkeypatch, name, (closed, per_atom), 3, ["t3.17"])


def flipping_bit_1(kernel, certified):
    """The kernel on the certificate's truth tables (or a TypeError there,
    when not `certified`); on ints its result with bit 1 of q flipped. A
    kernel that acts alike at every atom fails truth-tables first at atom
    0 of some lane; this one fails at atom 1 of lane 0 alone."""
    def flipping(*operands):
        if isinstance(operands[0], lawcheck._Table):
            if not certified:
                raise TypeError("not certified")
            return kernel(*operands)
        q, c = kernel(*operands)
        return q ^ 0b10, c

    return flipping


@pytest.mark.parametrize("name, count, counterexample", [
    ("and_bits", 4, "and disagrees with its table at x=UNDEFINED y=UNDEFINED atom=2"),
    ("or_bits", 5, "or disagrees with its table at x=UNDEFINED y=UNDEFINED atom=2"),
    ("given_bits", 6, "given disagrees with its table at x=UNDEFINED y=UNDEFINED atom=2"),
    ("not_bits", 3 * 3 * 27 * 27 + 2, "not disagrees with its table at x=UNDEFINED atom=2"),
], ids=["and", "or", "given", "not"])
def test_truth_tables_number_a_failure_past_the_first_atom_as_the_loop_does(monkeypatch, name,
                                                                            count,
                                                                            counterexample):
    """Lane 0 holds x = y = UNDEFINED; its atom 1 comes after the three
    ops (or the one negation) at atom 0, sliced as in the loop."""
    reports = []
    for certified in (True, False):
        monkeypatch.setattr(cnd, name, flipping_bit_1(getattr(cnd, name), certified))
        reports.append(lawcheck.check("truth-tables", 3))
        monkeypatch.undo()
    assert reports[0] == reports[1] == lawcheck.LawReport("truth-tables", 3, count, False,
                                                          counterexample)


def reference_folded_families(atoms, counter):
    """t3.17's folded families as the plain loop over every family that
    the law ran before its blocks were sliced: the reference for
    `lawcheck._folded_families`."""
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
                    oq, oc = cnd.or_bits(oq, oc, q2, c2)
                    aq, ac = cnd.and_bits(aq, ac, q2, c2)
                or_ok = (qc & ~oc) == 0 and (oq & ~cc) == 0
                and_ok = (qc & ~ac) == 0 and (aq & ~cc) == 0
                if not (or_ok and and_ok):
                    names = "xyz"[:size]
                    return ("joint verifiability not preserved by folding at c=%%(c)s "
                            "family=[%s]" % " ".join("%%(%s)s" % name for name in names),
                            dict(zip(names, family), c=c))
    return None


def folded_families(atoms):
    """`lawcheck._folded_families` on a run whose route or_ and and_
    decide, as (count, failure), rendered as reference_outcome renders
    them."""
    run = lawcheck._Run(atoms, 1, {cnd.or_bits: 2, cnd.and_bits: 2})
    try:
        failure = lawcheck._folded_families(run, atoms)
    except Exception as exc:
        failure = "raised %s: %s" % (type(exc).__name__, exc)
    return run.count, failure


@pytest.mark.parametrize("atoms, families", [(2, 687), (3, 18793)])
def test_folded_families_match_the_plain_loop_under_every_or_and_mutant(monkeypatch, atoms,
                                                                         families):
    """The families step, called directly: check("t3.17") never reaches
    a failing family, because its sweeps kill those mutants first. With
    the shipped kernels every family passes; under each of the 36 or_
    and and_ table mutants, as a closed form over the space and as a
    per-atom loop, the step and the plain loop reach the same count and
    the same failure. The 32 closed forms with an undefined (U, U) entry
    are certified and run sliced; 14 of those fail inside the families.
    The rest run one family per block."""
    assert reference_outcome(reference_folded_families, atoms) == (families, None)
    assert folded_families(atoms) == (families, None)
    atom_bits = tuple(1 << i for i in range(atoms))
    certified = failing = 0
    for name, entry, new, _ in table_mutants():
        if name not in ("or_bits", "and_bits"):
            continue
        table = {**TABLES[name], entry: new}
        closed = closed_form_kernel(table, (1 << atoms) - 1)
        monkeypatch.setattr(cnd, name, closed)
        want = reference_outcome(reference_folded_families, atoms)
        for kernel in (closed, per_atom_kernel(table, atom_bits)):
            monkeypatch.setattr(cnd, name, kernel)
            assert folded_families(atoms) == want, (name, entry, new)
        monkeypatch.undo()
        if lawcheck._lane_local(closed):
            certified += 1
            failing += want[1] is not None
    assert (certified, failing) == (32, 14)


# Kernels whose results a truth table can read in more than one way, or
# not at all: the shipped kernel with bits set above the space, a result
# out of normal form, a negated condition, and so on. None is certified,
# so every block holds one instance.


def _raising_at_q_1(q, c):
    if q == 1:
        raise ArithmeticError("result q=1")
    return q, c


ODD_RESULTS = {
    "above the space": lambda q, c: (q | 64, c | 64),
    "out of normal form": lambda q, c: (q | 1, c),
    "negated condition": lambda q, c: (q, ~c),
    "above the first byte": lambda q, c: (q | 256, c | 256),
    "masked with the space": lambda q, c: (q & 7, c & 7),
    "a list": lambda q, c: [q, c],
    "a 3-tuple": lambda q, c: (q, c, 0),
    "raising": _raising_at_q_1,
}


def odd_kernel(kernel, odd):
    def odd_result(*operands):
        return ODD_RESULTS[odd](*kernel(*operands))

    return odd_result


# truth-tables reports recorded from the plain loop, at 2 and 3 atoms: a
# result above the space passes, and a result out of normal form or with
# a negated condition fails at atom 1 of x = y = U.
ODD_TRUTH_TABLES = {
    "and_bits": (1, 1, "and disagrees with its table at x=UNDEFINED y=UNDEFINED atom=1"),
    "or_bits": (2, 2, "or disagrees with its table at x=UNDEFINED y=UNDEFINED atom=1"),
    "given_bits": (3, 3, "given disagrees with its table at x=UNDEFINED y=UNDEFINED atom=1"),
    "not_bits": (487, 6562, "not disagrees with its table at x=UNDEFINED atom=1"),
}


@pytest.mark.parametrize("atoms", [2, 3])
@pytest.mark.parametrize("odd", ["above the space", "out of normal form", "negated condition"])
@pytest.mark.parametrize("name", list(ODD_TRUTH_TABLES))
def test_truth_tables_read_odd_results_as_the_loop_did(monkeypatch, name, odd, atoms):
    """T where q, F where c & ~q, U where neither, and only inside the
    block: the bits above the space are not read."""
    monkeypatch.setattr(cnd, name, odd_kernel(getattr(cnd, name), odd))
    report = lawcheck.check("truth-tables", atoms)
    assert report == reference_truth_tables_report(atoms)
    if odd == "above the space":
        assert report == lawcheck.LawReport("truth-tables", atoms, (504, 6642)[atoms - 2], True)
    else:
        *counts, counterexample = ODD_TRUTH_TABLES[name]
        assert report == lawcheck.LawReport("truth-tables", atoms, counts[atoms - 2], False,
                                             counterexample)


def three_tuple_where_conditions_differ(kernel):
    """The kernel with a 0 appended to its result where its operands'
    conditions differ (for negation, where the condition is atom 1
    alone), as in the odd kernels of test_relations."""
    def odd(*operands):
        q, c = kernel(*operands)
        differ = operands[1] != operands[3] if len(operands) == 4 else operands[1] == 1
        return (q, c, 0) if differ else (q, c)

    return odd


@pytest.mark.parametrize("atoms", [2, 3])
@pytest.mark.parametrize("name, everywhere, where_conditions_differ", [
    ("and_bits", (0, 0), (6, 9)), ("or_bits", (0, 0), (6, 9)), ("given_bits", (0, 0), (6, 9)),
    ("not_bits", (486, 6561), (488, 6564)),
])
def test_truth_tables_count_a_result_that_does_not_unpack_at_its_pair(
        monkeypatch, name, everywhere, where_conditions_differ, atoms):
    """A 3-tuple result raises where it is unpacked, after every op of
    its pair (or single) ran and before any of its instances counts, as
    a raise inside a kernel does. The plain loop unpacked each op's
    result after counting the ops before it at the first atom, so it
    counted 1 and 2 more under or_ and given: 1, 7 and 10 for or_, and
    2, 8 and 11 for given."""
    kernel = getattr(cnd, name)
    for odd, counts in ((odd_kernel(kernel, "a 3-tuple"), everywhere),
                        (three_tuple_where_conditions_differ(kernel), where_conditions_differ)):
        monkeypatch.setattr(cnd, name, odd)
        assert lawcheck.check("truth-tables", atoms) == lawcheck.LawReport(
            "truth-tables", atoms, counts[atoms - 2], False,
            "raised ValueError: too many values to unpack (expected 2)")


@pytest.mark.parametrize("atoms", [2, 3])
@pytest.mark.parametrize("odd", list(ODD_RESULTS))
@pytest.mark.parametrize("name", ["or_bits", "and_bits"])
def test_folded_families_match_the_plain_loop_under_odd_kernels(monkeypatch, name, odd, atoms):
    """A family is its own block, and it fails at itself whichever bit
    of its result differs, the ones above its byte included."""
    monkeypatch.setattr(cnd, name, odd_kernel(getattr(cnd, name), odd))
    assert not lawcheck._lane_local(getattr(cnd, name))
    assert folded_families(atoms) == reference_outcome(reference_folded_families, atoms)


# Single-entry table mutants of the four schay kernels. Each table is
# read off its kernel on the three one-atom values T = (1|1), F = (0|1)
# and U = (0|0).

ONE_ATOM = {T: (0b1, 0b1), F: (0b0, 0b1), U: (0b0, 0b0)}
SCHAY_KERNELS = ("cap_bits", "cup_bits", "sand_bits", "vee_bits")


def one_atom_table(kernel):
    value = {pair: v for v, pair in ONE_ATOM.items()}
    return {(a, b): value[kernel(*ONE_ATOM[a], *ONE_ATOM[b])] for a in ONE_ATOM for b in ONE_ATOM}


def schay_table_mutants():
    """All 72 mutants as (kernel name, entry, new value, mutated table)."""
    for name in SCHAY_KERNELS:
        table = one_atom_table(getattr(schay, name))
        for entry, old in table.items():
            for new in (T, F, U):
                if new is not old:
                    yield name, entry, new, {**table, entry: new}


def test_one_atom_tables_reproduce_the_schay_kernels():
    pairs = cnd.enumerate_conditionals_bits(0b11)
    for name in SCHAY_KERNELS:
        reference = getattr(schay, name)
        kernel = per_atom_kernel(one_atom_table(reference))
        assert all(kernel(*x, *y) == reference(*x, *y) for x in pairs for y in pairs), name


def test_every_schay_table_mutant_is_killed_without_a_crash(monkeypatch):
    mutants = [(name, entry, new, per_atom_kernel(table))
               for name, entry, new, table in schay_table_mutants()]
    assert len(mutants) == 72
    assert _survivors(monkeypatch, mutants, schay) == []


def test_schay_closed_forms_and_per_atom_loops_report_alike(monkeypatch):
    """Closed forms are certified unless their (U, U) entry is defined."""
    certified = 0
    for name, entry, new, table in schay_table_mutants():
        closed = closed_form_kernel(table)
        assert lawcheck._lane_local(closed) == (table[U, U] is U)
        certified += lawcheck._lane_local(closed)
        reports = []
        for kernel in (closed, per_atom_kernel(table)):
            monkeypatch.setattr(schay, name, kernel)
            reports.append([lawcheck.check(law, 2) for law in DRIVER_LAWS])
            monkeypatch.undo()
        assert reports[0] == reports[1], (name, entry, new)
    assert certified == 64


# The sweep, called directly: a certified clause set runs sliced, and
# the same clauses over per-atom kernels run one instance at a time.

DRIVER_TEMPLATES = ["clause 1 at x=%(x)s y=%(y)s z=%(z)s", "clause 2 at x=%(x)s y=%(y)s z=%(z)s"]
SLICED_AND_PER_ATOM = [
    (cnd.or_bits, cnd.and_bits),
    (per_atom_kernel(tv.OR_TABLE), per_atom_kernel(tv.AND_TABLE)),
]


def _drive(arity, kernels, clauses):
    """The count at the failure, then the sweep's template and fields."""
    run = lawcheck._Run(2, 1, dict.fromkeys(kernels, 2))
    failure = lawcheck._sweep(run, arity, clauses, DRIVER_TEMPLATES)
    return (run.count, *failure)


def test_shift_loop_pack_matches_the_string_reference():
    for width in (1, 2, 3, 4, 5, 18):
        values = [(7 * k + 3) % (1 << width) for k in range(40)]
        assert lawcheck._pack(values, width) == _pack(values, width)


def _two_branch_block(n, inner):
    """The single and pair blocks as two formulas, the reference for
    `_block` at inner 1 and 2: repunits of n-bit lanes and of
    n*3**n-bit lanes, multiplied into one another's components."""
    pairs = lawcheck._checking_space(n)[1]
    size = len(pairs)
    row = _pack([1] * size, n)
    components = list(zip(*pairs))
    if inner == 1:
        return row, tuple(_pack(v, n) for v in components)
    column = _pack([1] * size, n * size)
    return row * column, (*(_pack(v, n * size) * row for v in components),
                          *(_pack(v, n) * column for v in components))


@pytest.mark.parametrize("n, inner", [(n, inner) for n in (1, 2, 3) for inner in (1, 2, 3)]
                         + [(4, 1), (4, 2)])
def test_block_packs_the_inner_tuples_of_the_pairs_in_enumeration_order(n, inner):
    """Lane L of each packed component holds that component of the L-th
    tuple of product(pairs, repeat=inner), and the repunit has a 1 in
    every lane; the single and pair blocks equal the two formulas."""
    tuples = [sum(t, ()) for t in product(lawcheck._checking_space(n)[1], repeat=inner)]
    lanes, packed = lawcheck._block(n, inner)
    assert lanes == _pack([1] * len(tuples), n)
    assert packed == tuple(_pack(component, n) for component in zip(*tuples))
    if inner < 3:
        assert (lanes, packed) == _two_branch_block(n, inner)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_lane_reads_give_every_lane_past_the_first_runs(width):
    """Lane k of each mask, as a shift reads it, across the first run of
    64 lanes and the byte runs after it, and zero past the highest bit."""
    masks = [[_pack([(5 * k + i) % (1 << width) for k in range(200)], width) for i in (0, 1)],
             [_pack([(3 * k) % (1 << width) for k in range(150)], width)]]
    full = (1 << width) - 1
    reads = lawcheck._lane_reads(masks, width)
    for k in range(260):
        assert next(reads) == [[m >> width * k & full for m in row] for row in masks]


@pytest.mark.parametrize("law, atoms, kernels, calls", [
    # five calls (lhs and rhs) in one block of all 9**3 triples at two atoms,
    # of all 27**3 at three
    ("t2.4", 2, ("or_bits", "and_bits"), 2 + 5),
    ("t2.4", 3, ("or_bits", "and_bits"), 2 + 5),
    # past 3**9 triples, five calls per outer x, all 81 x 81 pairs (y, z) at once
    ("t2.4", 4, ("or_bits", "and_bits"), 2 + 81 * 5),
    ("c3.3", 3, ("or_bits", "and_bits"), 1 + 1),  # one and_ call for all 27 x 27 pairs (x, y)
    # one certificate per check, 3 calls for the singles, 3 for the pairs, 4 for the
    # one block of triples, which holds the non-associative triple of the note
    ("t3.11", 3, ("osum_bits",), 1 + 3 + 3 + 4),
    ("superposition", 2, ("or_bits", "and_bits"), 2 + 8 + 8),  # its pairs only: no grid
    # a certificate and one call per kernel: and_, or_ and given on all 81 x 81
    # pairs at once, not on all 81 conditionals
    ("truth-tables", 4, ("and_bits", "or_bits", "given_bits", "not_bits"), 4 + 4),
])
def test_certified_kernels_run_one_sliced_block_per_sweep_up_to_3_to_the_9(monkeypatch, law,
                                                                           atoms, kernels, calls):
    """One certificate call per kernel the law names, then one block for
    a sweep of at most 3**9 instances (every single and pair up to four
    atoms, every triple up to three) and one block per outer x for
    triples at four atoms. With no weight vectors, superposition runs
    only its pair part, and its grid part, part 2, fails for checking no
    instance."""
    made = []

    def counted(kernel):
        def wrapper(*operands):
            made.append(kernel)
            return kernel(*operands)

        return wrapper

    for name in kernels:
        monkeypatch.setattr(cnd, name, counted(getattr(cnd, name)))
    monkeypatch.setattr(lawcheck, "_grids", lambda space, max_weight: iter(()))
    report = lawcheck.check(law, atoms, 1)
    if law == "superposition":
        assert report == lawcheck.LawReport(law, atoms, 81, False, "part 2 checked no instance")
    else:
        assert report.passed
    assert len(made) == calls


def test_driver_finds_a_later_clause_failing_past_lane_zero():
    """Clause 1 (commutativity of or_) passes everywhere; clause 2 (or_
    distributing over and_ without its side condition) first fails past
    the first lane of its block. Both routes report the triple a plain
    loop finds first."""
    pairs = cnd.enumerate_conditionals_bits(0b11)
    or_b, and_b = cnd.or_bits, cnd.and_bits
    first = next((i + 1, x, y, z) for i, (x, y, z) in enumerate(product(pairs, repeat=3))
                 if or_b(*x, *and_b(*y, *z)) != and_b(*or_b(*x, *y), *or_b(*x, *z)))
    count, x, y, z = first
    assert (y, z) != (pairs[0], pairs[0])  # lane k > 0 of x's sliced block
    fields = dict(x=x, y=y, z=z, lhs=or_b(*x, *and_b(*y, *z)),
                  rhs=and_b(*or_b(*x, *y), *or_b(*x, *z)), holds=False)
    assert lawcheck._lane_local(or_b) and lawcheck._lane_local(and_b)
    for or_k, and_k in SLICED_AND_PER_ATOM:
        clauses = [
            lambda q1, c1, q2, c2, q3, c3: (or_k(q1, c1, q2, c2), or_k(q2, c2, q1, c1)),
            lambda q1, c1, q2, c2, q3, c3: (or_k(q1, c1, *and_k(q2, c2, q3, c3)),
                                            and_k(*or_k(q1, c1, q2, c2), *or_k(q1, c1, q3, c3))),
        ]
        assert _drive(3, (or_k, and_k), clauses) == (count, DRIVER_TEMPLATES[1], fields)


def test_driver_finds_a_pair_failing_past_lane_zero():
    """Arity 2 packs every pair (x, y) into one block. or_ and and_
    first differ past its first lane; both routes report the pair, the
    count and the results a plain loop finds first."""
    pairs = cnd.enumerate_conditionals_bits(0b11)
    or_b, and_b = cnd.or_bits, cnd.and_bits
    count, x, y = next((i + 1, x, y) for i, (x, y) in enumerate(product(pairs, repeat=2))
                       if or_b(*x, *y) != and_b(*x, *y))
    assert count > 1
    fields = dict(x=x, y=y, lhs=or_b(*x, *y), rhs=and_b(*x, *y), holds=False)
    for or_k, and_k in SLICED_AND_PER_ATOM:
        clauses = [
            lambda q1, c1, q2, c2: (or_k(q1, c1, q2, c2), or_k(q2, c2, q1, c1)),
            lambda q1, c1, q2, c2: (or_k(q1, c1, q2, c2), and_k(q1, c1, q2, c2)),
        ]
        assert _drive(2, (or_k, and_k), clauses) == (count, DRIVER_TEMPLATES[1], fields)


def test_driver_skips_later_clauses_once_lane_zero_fails():
    """Clause 1 fails at the very first triple through a side condition
    that is never empty, so clause 2, which raises, must not run."""
    def clause_2(*operands):
        raise AssertionError("clause 2 ran after clause 1 failed at lane 0")

    undefined = (0, 0)
    fields = dict(x=undefined, y=undefined, z=undefined, lhs=undefined, rhs=undefined, holds=True,
                  side=False)
    for or_k, and_k in SLICED_AND_PER_ATOM:
        clauses = [
            lambda q1, c1, q2, c2, q3, c3: (or_k(q1, c1, q2, c2), or_k(q2, c2, q1, c1), ~q1),
            clause_2,
        ]
        assert _drive(3, (or_k, and_k), clauses) == (1, DRIVER_TEMPLATES[0], fields)


# Golden raise reports. Each kernel in turn raises on one operand tuple.
# It compares its operands before it computes, so the truth-table
# certificate rejects it and every sweep that calls it runs one instance
# at a time: the count at a raise is the instance that raised, in every
# law, hand loop or sweep. Recorded when each law kept its own count.

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_RAISE_REPORTS = ROOT / "fixtures" / "raise_reports.json"
RAISING_KERNELS = [(cnd, name) for name in ("or_bits", "and_bits", "not_bits", "given_bits",
                                            "osum_bits", "sasaki_bits")]
RAISING_KERNELS += [(schay, name) for name in ("cap_bits", "cup_bits", "sand_bits", "vee_bits")]
_PAIRS_2 = cnd.enumerate_conditionals_bits(0b11)
RAISING_OPERANDS = {  # six operand tuples per operand count, spread over the 9 conditionals
    1: [_PAIRS_2[i] for i in (0, 1, 2, 4, 6, 8)],
    2: [_PAIRS_2[i] + _PAIRS_2[j] for i, j in ((0, 0), (1, 2), (2, 1), (4, 6), (6, 3), (8, 8))],
}


def raising_on(kernel, operands):
    label = "%s%r" % (kernel.__name__, operands)

    def raising(*args):
        if args == operands:
            raise RuntimeError(label)
        return kernel(*args)

    return label, raising


def raise_reports():
    """Every report as [kernel and operands, law, instances, passed,
    counterexample, note], at 2 atoms and weight grid 1."""
    reports = []
    for module, name in RAISING_KERNELS:
        shipped = getattr(module, name)
        for operands in RAISING_OPERANDS[1 if name == "not_bits" else 2]:
            label, kernel = raising_on(shipped, operands)
            setattr(module, name, kernel)
            try:
                assert not lawcheck._lane_local(kernel, len(operands) // 2)
                reports += [[label, r.law, r.instances_checked, r.passed, r.counterexample, r.note]
                            for r in lawcheck.check_all(2, 1)]
            finally:
                setattr(module, name, shipped)
    return reports


def test_raise_reports_match_the_golden_reports():
    golden = json.loads(GOLDEN_RAISE_REPORTS.read_text(encoding="utf-8"))
    assert len(golden) == 10 * 6 * 28
    assert raise_reports() == golden


# Golden table-mutant reports: every law under each of the 90
# single-entry table mutants that the benchmark compiles
# (perfbench/mutants.py, built for the 2-atom law space), labelled as the
# subalgebra goldens label them. Recorded before the sweep-only laws
# became catalog records.

GOLDEN_MUTANT_REPORTS = ROOT / "fixtures" / "mutant_reports.json"


def installed_mutants(full):
    """Each of the 90 table mutants, built for the law space whose atom
    mask is `full`, installed in turn while its label is yielded."""
    mutants = perfbench_module("mutants")
    for spec in mutants.specs():
        name = spec[0]
        shipped = getattr(cnd, name)
        setattr(cnd, name, mutants.build(spec, full))
        try:
            yield "%s %s%s -> %s" % (name, *spec[1], spec[2])
        finally:
            setattr(cnd, name, shipped)


def mutant_reports():
    """Every report as [mutant, law, instances, passed, counterexample,
    note], at 2 atoms and weight grid 1."""
    return [[label, r.law, r.instances_checked, r.passed, r.counterexample, r.note]
            for label in installed_mutants(0b11) for r in lawcheck.check_all(2, 1)]


def test_mutant_reports_match_the_golden_reports():
    golden = json.loads(GOLDEN_MUTANT_REPORTS.read_text(encoding="utf-8"))
    assert len(golden) == 90 * 28
    assert mutant_reports() == golden


# Golden triple-sweep reports at three atoms, where every triple sweep
# is one block: the nine laws that sweep triples, under each of the 90
# table mutants built for the 3-atom law space, at weight grid 1, as the
# repr of each LawReport. Recorded while each triple sweep ran one block
# per outer operand.

GOLDEN_TRIPLE_MUTANT_REPORTS = ROOT / "fixtures" / "triple_mutant_reports.json"
TRIPLE_SWEEP_LAWS = ("t2.4", "c2.5", "t2.6", "c2.7", "props2.3", "t3.11", "t3.15", "t3.17",
                     "schay-lattice")


def test_triple_sweep_mutant_reports_at_three_atoms_match_the_golden_reports():
    golden = json.loads(GOLDEN_TRIPLE_MUTANT_REPORTS.read_text(encoding="utf-8"))
    assert len(golden) == 90 * len(TRIPLE_SWEEP_LAWS)
    assert [[label, repr(lawcheck.check(law, 3, 1))]
            for label in installed_mutants(0b111) for law in TRIPLE_SWEEP_LAWS] == golden


# A law that checks nothing has shown nothing: with no weight vector,
# t2.13 counts no instance and fails, while superposition still counts
# its pairs and passes.


def test_a_law_that_checks_no_instance_reports_fail(monkeypatch):
    """A law that counts nothing fails as a whole; a law whose sweeps
    count but whose function (part 2 of superposition) counts nothing
    fails naming that part."""
    monkeypatch.setattr(lawcheck, "_grids", lambda space, max_weight: iter(()))
    assert lawcheck.check("t2.13", 2, 1) == lawcheck.LawReport("t2.13", 2, 0, False,
                                                               "no instance was checked")
    assert lawcheck.check("superposition", 2, 1) == lawcheck.LawReport(
        "superposition", 2, 81, False, "part 2 checked no instance")


# The hand loops' set comparisons and probability expansions fail only
# under a broken relation or formula; these pin what they then report.

def test_t2_18_reports_a_family_that_differs_from_the_orthogonality_set(monkeypatch):
    monkeypatch.setattr(rel, "ortho_family_member", lambda c, x, y: cnd.undefined(c.space))
    assert lawcheck.check("t2.18", 2, 1) == lawcheck.LawReport(
        "t2.18", 2, 25, False, "family and orthogonality set differ at c=UNDEFINED, e.g. ({}|{1})")


def test_superposition_reports_probability_expansions_that_disagree(monkeypatch):
    p_or_formula = prob.p_or_formula
    monkeypatch.setattr(prob, "p_or_formula",
                        lambda m, x, y: p_or_formula(m, x, y) + (x.c != y.c))
    assert lawcheck.check("superposition", 2, 1) == lawcheck.LawReport(
        "superposition", 2, 82, False,
        "probability expansions disagree at weights=[0, 1] x=UNDEFINED y=({}|{2})")


# Law records. `check` picks a law's route once, from the kernels its
# record names, so a record must name every kernel the law calls: a
# sliced block must never meet a kernel the certificate did not see.

BLOCKLESS_LAWS = {"t2.13", "t2.18", "t2.19", "t3.2", "t3.7", "c3.8", "schay-2.12", "orders"}


def test_every_law_record_names_exactly_the_kernels_its_law_calls(monkeypatch):
    """Each of the ten kernels (RAISING_KERNELS lists them) records the
    laws that call it on ints, at 2 atoms and grid 1; the certificate's
    calls on truth tables do not count."""
    called = {law: set() for law in lawcheck.LAW_IDS}
    running = [None]

    def recording(name, kernel):
        def recorded(*operands):
            if type(operands[0]) is int:
                called[running[0]].add(name)
            return kernel(*operands)

        return recorded

    for module, name in RAISING_KERNELS:
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    for record in lawcheck._CATALOG:
        running[0] = record.id
        assert lawcheck.check(record.id, 2, 1).passed
        assert len(set(record.kernels)) == len(record.kernels), record.id
    assert called == {record.id: set(record.kernels) for record in lawcheck._CATALOG}
    assert called["orders"] == {"or_bits", "and_bits", "not_bits", "given_bits", "sasaki_bits"}


def test_check_all_certifies_each_kernel_of_a_law_once(monkeypatch):
    """check_all(2, 1) runs the lane certificate once per kernel a law's
    record names, 50 times in all, when a block route first asks. c3.6
    names no kernel, and the laws without a block route never ask."""
    certified = []
    running = [None]
    check, lane_local = lawcheck.check, lawcheck._lane_local

    def checking(law, *sizes):
        running[0] = law
        return check(law, *sizes)

    def certifying(kernel, arity=2):
        certified.append((running[0], kernel))
        return lane_local(kernel, arity)

    monkeypatch.setattr(lawcheck, "check", checking)
    monkeypatch.setattr(lawcheck, "_lane_local", certifying)
    assert all(report.passed for report in lawcheck.check_all(2, 1))
    assert len(certified) == len(set(certified)) == 50
    assert set(lawcheck.LAW_IDS) - {law for law, _ in certified} == BLOCKLESS_LAWS | {"c3.6"}


# A cache may hold operand packings, never a kernel result. Run with the
# shipped kernels, under an or_ mutant ((F, F) -> T) that fails inside
# the folded families, then with the shipped kernels again: each run
# prints what a fresh interpreter prints.

FOLD_MUTANT = "lambda q1, c1, q2, c2: (q1 | q2 | (c1 & ~q1 & c2 & ~q2), c1 | c2)"
KERNEL_RESULTS = (
    "run = lawcheck._Run(3, 1, {cnd.or_bits: 2, cnd.and_bits: 2})\n"
    "family = lawcheck._folded_families(run, 3)\n"
    "print(repr(([lawcheck.check(law, atoms) for law, atoms in"
    " (('truth-tables', 3), ('t3.17', 3), ('t3.17', 4))], family, run.count)))\n")


def _fresh_kernel_results(install):
    code = ("import sys\nsys.path.insert(0, %r)\n"
            "from boolfrac import conditional as cnd, lawcheck\n%s\n%s"
            % (str(pathlib.Path(lawcheck.__file__).resolve().parents[1]), install, KERNEL_RESULTS))
    return subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          check=True).stdout


def test_every_report_matches_a_fresh_interpreter_across_a_mutant(monkeypatch, capsys):
    shipped = _fresh_kernel_results("")
    mutated = _fresh_kernel_results("cnd.or_bits = " + FOLD_MUTANT)
    assert shipped != mutated and "folding" in mutated
    runs = ((cnd.or_bits, shipped), (eval(FOLD_MUTANT), mutated), (cnd.or_bits, shipped))
    for kernel, fresh in runs:
        monkeypatch.setattr(cnd, "or_bits", kernel)
        exec(KERNEL_RESULTS, {"lawcheck": lawcheck, "cnd": cnd})
        monkeypatch.undo()
        assert capsys.readouterr().out == fresh


# c3.16 is two sweeps. Its hand loop over Conditionals, as the law ran
# before its record held sweeps, is the reference: both give the same
# report under every table and negation mutant, as a closed form (which
# runs sliced) and as a per-atom loop, and under every raising kernel
# of the raise goldens.

def reference_c3_16(run):
    conds = [cnd.Conditional(run.space, q, c) for q, c in run.pairs]
    for c in lawcheck._counted(run, conds):
        if cnd.sasaki(c, c) != c:
            return "sasaki(c, c) != c at c=%(c)s", dict(c=c)
    for b in conds:
        nb = cnd.negate(b)
        for a in lawcheck._counted(run, conds):
            proj = cnd.sasaki(b, a)
            if (proj == a) != rel.holds("wedge", a, b):
                return ("fixed point does not match the wedge order at b=%(b)s a=%(a)s",
                        dict(b=b, a=a))
            zero = cnd.Conditional(run.space, 0, a.c | b.c)
            if (proj == zero) != rel.holds("tr", a, nb):
                return ("annihilation does not match tr(a, not b) at b=%(b)s a=%(a)s",
                        dict(b=b, a=a))
    return None


REFERENCE_C3_16 = lawcheck._Law("c3.16", 4, "not_bits sasaki_bits", fn=reference_c3_16)


@pytest.mark.parametrize("atoms", [2, 3])
def test_c3_16_reports_as_its_hand_loop_did(monkeypatch, atoms):
    kernels = [(cnd, name, kernel) for name, closed, per_atom in mutant_forms(atoms)
               for kernel in (closed, per_atom)]
    kernels += [(module, name, raising_on(getattr(module, name), operands)[1])
                for module, name in RAISING_KERNELS
                for operands in RAISING_OPERANDS[1 if name == "not_bits" else 2]]
    assert len(kernels) == 2 * 96 + 60
    failed = 0
    for module, name, kernel in kernels:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, kernel)
            record = lawcheck.check("c3.16", atoms)
            patch.setitem(lawcheck._BY_ID, "c3.16", REFERENCE_C3_16)
            assert repr(record) == repr(lawcheck.check("c3.16", atoms)), (name, kernel)
        failed += not record.passed
    assert failed == 56


# orders: every relate tag against its route through the operations.
# The relation mutants are in test_relations.

def test_orders_reports_without_raising_under_every_table_mutant(monkeypatch):
    """Under each of the 90 table mutants the routes build only
    Conditionals in normal form, so orders gives a verdict, never a
    raise; 58 of the mutants fail it, as the mutant goldens record."""
    failing = 0
    for name, entry, new, kernel in table_mutants():
        with monkeypatch.context() as patch:
            patch.setattr(cnd, name, kernel)
            report = lawcheck.check("orders", 2, 1)
        assert not (report.counterexample or "").startswith("raised"), (name, entry, new)
        failing += not report.passed
    assert failing == 58
    golden = json.loads(GOLDEN_MUTANT_REPORTS.read_text(encoding="utf-8"))
    rows = [row for row in golden if row[1] == "orders"]
    assert len(rows) == 90 and sum(not row[3] for row in rows) == 58
    assert not any((row[4] or "").startswith("raised") for row in rows)


@pytest.mark.parametrize("name, entry, new, lines", [
    ("given_bits", (T, T), F, [
        "orders n=2 instances=20 FAIL",
        "  counterexample: tr(x, y) disagrees with the implication given(x, not y) having no "
        "true region at x=({1}|{1}) y=({}|{1}): holds=false"]),
    ("sasaki_bits", (T, U), T, [
        "orders n=2 instances=19 FAIL",
        "  counterexample: nf(x, y) disagrees with the implication sasaki(x, not y) having no "
        "true region at x=({1}|{1}) y=UNDEFINED: holds=true"]),
    ("or_bits", (F, U), T, [
        "orders n=2 instances=19 FAIL",
        "  counterexample: pm(x, y) disagrees with the implication or_(not x, y) having no "
        "false region at x=({1}|{1}) y=UNDEFINED: holds=false"]),
    ("and_bits", (U, F), T, [
        "orders n=2 instances=2 FAIL",
        "  counterexample: orth(x, y) disagrees with and_(x, y) == (0|b v d) at x=UNDEFINED "
        "y=({}|{1}): holds=true"]),
], ids=["tr", "nf", "pm", "orth"])
def test_orders_fail_lines_under_table_mutants(monkeypatch, capsys, name, entry, new, lines):
    """One mutant for each implication clause and one for orth; the CLI
    prints the report and exits 1."""
    monkeypatch.setattr(cnd, name, per_atom_kernel({**TABLES[name], entry: new}))
    assert cli.main(["check", "--law", "orders", "--atoms", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == lines
