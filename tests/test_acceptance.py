"""Acceptance gate: ten end-to-end criteria, each with a time bound.

Every probability comparison is exact (rationals, zero tolerance); the
time bounds are generous ceilings for a single-threaded run. Each test
prints one ``criterion N: PASS`` line with its measured time so a
verbose run reads as a checklist.
"""

import time

from fractions import Fraction as frac

from boolfrac import cli
from boolfrac import conditional as cnd
from boolfrac import lang
from boolfrac import lawcheck
from boolfrac import prob
from boolfrac import trivalent as tv

T, F, U = tv.T, tv.F, tv.U


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number, timer, bound):
    assert timer.elapsed < bound, (
        "criterion %d took %.2fs, bound %ds" % (number, timer.elapsed, bound)
    )
    print("criterion %d: PASS (%.2fs)" % (number, timer.elapsed))


def test_criterion_01_die_bet_golden(die, uniform):
    """The bet (two|even) or (lt4|lt5) lowers to ({1,2,3}|{1,2,3,4,6})
    and wins with probability exactly 3/5."""
    with Timer() as timer:
        bet = die.lower("(two|even) or (lt4|lt5)")
        space = die.space
        want = cnd.make(
            space.event(["1", "2", "3"]), space.event(["1", "2", "3", "4", "6"])
        )
        assert bet == want
        assert lang.format_conditional(bet) == "({1,2,3}|{1,2,3,4,6})"
        assert prob.p_cond(uniform, bet) == frac(3, 5)
    _report(1, timer, 1)


def test_criterion_02_expanded_context_golden(die, uniform):
    """Disjoining a sure thing with (five|odd) drags its context in:
    the probability drops from 1 to exactly 2/3."""
    with Timer() as timer:
        sure = die.lower("even|even")
        assert prob.p_cond(uniform, sure) == 1
        combined = die.lower("(even|even) or (five|odd)")
        assert prob.p_cond(uniform, combined) == frac(2, 3)
    _report(2, timer, 1)


def test_criterion_03_or_formula_factor_decomposition(die, uniform):
    """The inclusion-exclusion expansion of the die bet:

        (1/3)(3/5) + (3/4)(4/5) - (1/2)(2/5) = 3/5

    with every factor individually exact."""
    with Timer() as timer:
        x = die.lower("two|even")
        y = die.lower("lt4|lt5")
        union = x.condition | y.condition
        overlap_num = x.consequent & y.consequent
        overlap_ctx = x.condition & y.condition

        def given(a, b):
            return prob.p_cond(uniform, cnd.make(a, b))

        assert prob.p_cond(uniform, x) == frac(1, 3)
        assert given(x.condition, union) == frac(3, 5)
        assert prob.p_cond(uniform, y) == frac(3, 4)
        assert given(y.condition, union) == frac(4, 5)
        assert given(overlap_num, overlap_ctx) == frac(1, 2)
        assert given(overlap_ctx, union) == frac(2, 5)
        total = (
            frac(1, 3) * frac(3, 5)
            + frac(3, 4) * frac(4, 5)
            - frac(1, 2) * frac(2, 5)
        )
        assert total == frac(3, 5)
        assert prob.p_or_formula(uniform, x, y) == frac(3, 5)
        assert prob.p_cond(uniform, cnd.or_(x, y)) == frac(3, 5)
    _report(3, timer, 1)


def test_criterion_04_additivity_fails_for_disjoint_conditionals(die, uniform):
    """P((1|odd) v (2|even)) is 1/3, not 1/3 + 1/3: the disjunction is
    not additive here and no degeneracy case applies."""
    with Timer() as timer:
        space = die.space
        report = prob.additive_law_check(
            uniform, space.event(["1"]), die.events["odd"],
            space.event(["2"]), die.events["even"],
        )
        assert report.lhs == frac(1, 3)
        assert report.rhs == frac(2, 3)
        assert report.holds is False
        assert report.cases == ()
    _report(4, timer, 1)


def test_criterion_05_truth_tables_and_pointwise_soundness():
    """All thirty table entries are pinned literally, and evaluating
    op(x, y) pointwise agrees with the tables over every pair of
    conditionals, every atom and every operation at four atoms."""
    entries = {
        "and": {
            (T, T): T, (T, F): F, (T, U): T,
            (F, T): F, (F, F): F, (F, U): F,
            (U, T): T, (U, F): F, (U, U): U,
        },
        "or": {
            (T, T): T, (T, F): T, (T, U): T,
            (F, T): T, (F, F): F, (F, U): F,
            (U, T): T, (U, F): F, (U, U): U,
        },
        "given": {
            (T, T): T, (T, F): U, (T, U): T,
            (F, T): F, (F, F): U, (F, U): F,
            (U, T): U, (U, F): U, (U, U): U,
        },
    }
    negation = {T: F, F: T, U: U}
    with Timer() as timer:
        for pair, want in entries["and"].items():
            assert tv.tt_and(*pair) is want
        for pair, want in entries["or"].items():
            assert tv.tt_or(*pair) is want
        for pair, want in entries["given"].items():
            assert tv.tt_given(*pair) is want
        for value, want in negation.items():
            assert tv.tt_not(value) is want

        space = lawcheck.law_space(4)
        pairs = cnd.enumerate_conditionals_bits(space.full_bits)
        assert len(pairs) == 81
        bits = [1 << i for i in range(4)]
        kernels = (
            ("and", cnd.and_bits, tv.tt_and),
            ("or", cnd.or_bits, tv.tt_or),
            ("given", cnd.given_bits, tv.tt_given),
        )
        ev = tv.eval_at_bit
        checked = 0
        for q1, c1 in pairs:
            nq, nc = cnd.not_bits(q1, c1)
            for q2, c2 in pairs:
                results = [
                    (kernel(q1, c1, q2, c2), table) for _, kernel, table in kernels
                ]
                for bit in bits:
                    left = ev(q1, c1, bit)
                    right = ev(q2, c2, bit)
                    for (rq, rc), table in results:
                        assert ev(rq, rc, bit) is table(left, right)
                    assert ev(nq, nc, bit) is negation[left]
                    checked += 4
        assert checked == 81 * 81 * 4 * 4

        report = lawcheck.check("truth-tables", 4)
        assert report.passed
    _report(5, timer, 30)


def test_criterion_06_full_law_catalog_at_three_atoms(capsys):
    """`check --law all --atoms 3` prints 28 PASS lines and exits 0."""
    with Timer() as timer:
        code = cli.main(["check", "--law", "all", "--atoms", "3"])
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        lines = [line for line in out.splitlines() if not line.startswith("  ")]
        assert len(lines) == 28
        assert all(line.endswith(" PASS") for line in lines)
        assert sorted(line.split()[0] for line in lines) == sorted(lawcheck.LAW_IDS)
        assert all(" n=3 " in line for line in lines)
        _report(6, timer, 120)


def test_criterion_07_triple_quantified_laws_at_four_atoms():
    """The distribution and projection laws hold over all 81**3 triples
    of conditionals on four atoms."""
    with Timer() as timer:
        reports = {
            law: lawcheck.check(law, 4)
            for law in ("t2.4", "c2.5", "t2.6", "c2.7", "t3.15", "t3.17")
        }
        assert all(report.passed for report in reports.values())
        for law in ("t2.4", "c2.5", "t2.6", "c2.7"):
            assert reports[law].instances_checked == 81 ** 3
    _report(7, timer, 120)


def test_criterion_08_probabilistic_equivalences_on_the_weight_grid():
    """The order/probability characterization holds in both directions
    over every event 4-tuple and every weight vector in {0..3}**3 with
    positive total, and the expansion formulas match direct probability
    over every conditional pair on the same grid."""
    with Timer() as timer:
        iff = lawcheck.check("t2.13", 3)
        formulas = lawcheck.check("superposition", 3)
        assert iff.passed, iff.counterexample
        assert formulas.passed, formulas.counterexample
    _report(8, timer, 300)


def test_criterion_09_decomposition_search_oracle():
    """The two-sided inequality test for simultaneous verifiability
    agrees with a brute-force search for an orthogonal decomposition on
    every pair at three atoms."""
    with Timer() as timer:
        report = lawcheck.check("t3.2", 3)
        assert report.passed, report.counterexample
        assert report.instances_checked == 729
    _report(9, timer, 300)


def test_criterion_10_mutation_sensitivity(capsys, monkeypatch):
    """Dropping the one-sided pass-through term from the conjunction
    kernel makes the catalog fail loudly: at least one law reports FAIL
    with a printed counterexample."""

    def mutant(q1, c1, q2, c2):
        # Original: (q1 & ~c2) | (q1 & q2) | (~c1 & q2); first term dropped.
        return (q1 & q2) | (~c1 & q2), c1 | c2

    with Timer() as timer:
        monkeypatch.setattr(cnd, "and_bits", mutant)
        code = cli.main(["check", "--law", "all", "--atoms", "3"])
        monkeypatch.undo()
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 1
        failed = [line for line in out.splitlines() if line.endswith(" FAIL")]
        assert failed, "the mutated kernel went unnoticed"
        assert "  counterexample: " in out
        assert lawcheck.check("t2.4", 2).passed, "kernel was not restored"
        _report(10, timer, 120)
