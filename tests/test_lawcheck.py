"""The exhaustive law checker.

Each catalog law sweeps every conditional tuple of a small space and
reports the first counterexample in a fixed enumeration order, so runs
are deterministic. The side conditions are spelled as independent bit
inequalities, which is what makes the checker sensitive to mutations in
the operation kernels.
"""

import pytest

from boolfrac import conditional as cnd
from boolfrac import lawcheck
from boolfrac.errors import TooLarge, UnknownLaw


def test_law_space_names_atoms_by_position():
    assert lawcheck.law_space(3).atoms == ("1", "2", "3")


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


def test_catalog_has_27_distinct_laws():
    assert len(lawcheck.LAW_IDS) == 27
    assert len(set(lawcheck.LAW_IDS)) == 27


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
