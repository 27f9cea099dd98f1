"""The command-line surface.

Every command is exercised through ``main(argv)`` so the tests see the
same argument parsing, printing and exit codes a shell user does. Exit
codes: 0 success (for ``check``: every law passed), 1 domain error or a
failed law, 2 usage or parse error.
"""

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from benchinputs import perfbench_module
from boolfrac import cli
from boolfrac import conditional as cnd
from boolfrac import lang
from boolfrac.errors import ParseError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# eval


def test_eval_prints_the_lowered_normal_form(capsys, die_path):
    code, out, err = run(
        capsys, "eval", "--space", die_path, "--expr", "(two|even) or (lt4|lt5)"
    )
    assert (code, err) == (0, "")
    assert out == "({1,2,3}|{1,2,3,4,6})\n"


def test_eval_osum_self_is_the_empty_consequent(capsys, die_path):
    code, out, err = run(
        capsys, "eval", "--space", die_path, "--expr", "osum(two|even, two|even)"
    )
    assert code == 0
    assert out == "({}|{2,4,6})\n"


@pytest.mark.parametrize("state, expected", [("2", "T"), ("4", "F"), ("5", "U")])
def test_eval_state_prints_a_truth_value(capsys, die_path, state, expected):
    code, out, err = run(
        capsys, "eval", "--space", die_path, "--expr", "two|even", "--state", state
    )
    assert code == 0
    assert out == expected + "\n"


def test_eval_undefined_prints_undefined(capsys, die_path):
    code, out, err = run(capsys, "eval", "--space", die_path, "--expr", "UNDEFINED")
    assert (code, out, err) == (0, "UNDEFINED\n", "")


def test_criterion_10_counterexample_operands_paste_back(capsys, monkeypatch, tmp_path):
    """Each operand of a FAIL line, U included, evaluates to itself on
    the law's space."""

    def mutant(q1, c1, q2, c2):
        return (q1 & q2) | (~c1 & q2), c1 | c2

    monkeypatch.setattr(cnd, "and_bits", mutant)
    code, out, err = run(capsys, "check", "--law", "t2.4", "--atoms", "2")
    monkeypatch.undo()
    assert code == 1
    line = out.splitlines()[1]
    assert line == ("  counterexample: x=({1}|{1}) y=UNDEFINED z=({}|{1}) "
                    "lhs=({}|{1}) rhs=({}|{1}) side=false")
    path = tmp_path / "law.cs"
    path.write_text("space law\natoms 1 2\n", encoding="utf-8")
    operands = [field.split("=", 1)[1] for field in line.split()[1:4]]
    assert "UNDEFINED" in operands
    for text in operands:
        assert run(capsys, "eval", "--space", str(path), "--expr", text) == (0, text + "\n", "")


def test_eval_unknown_name_is_a_domain_error(capsys, die_path):
    code, out, err = run(capsys, "eval", "--space", die_path, "--expr", "nope")
    assert code == 1
    assert err.startswith("boolfrac: error: ")


def test_eval_parse_error_is_a_usage_error(capsys, die_path):
    code, out, err = run(capsys, "eval", "--space", die_path, "--expr", "two or")
    assert code == 2
    assert "line 1" in err


def test_missing_space_file(capsys):
    code, out, err = run(capsys, "eval", "--space", "/no/such/file.cs", "--expr", "a")
    assert code == 2
    assert err.startswith("boolfrac: error: ")


# prob


def test_prob_die_bet(capsys, die_path):
    code, out, err = run(
        capsys,
        "prob", "--space", die_path, "--measure", "uniform",
        "--expr", "(two|even) or (lt4|lt5)",
    )
    assert (code, err) == (0, "")
    assert out == "3/5 (0.600000)\n"


def test_prob_expanded_context(capsys, die_path):
    code, out, err = run(
        capsys,
        "prob", "--space", die_path, "--measure", "uniform",
        "--expr", "(even|even) or (five|odd)",
    )
    assert code == 0
    assert out == "2/3 (0.666667)\n"


def test_prob_conditioning_on_a_disjoint_event_is_zero(capsys, die_path):
    """two|five lowers to ({}|{5}); the condition still has weight 1/6,
    so the probability is a defined 0."""
    code, out, err = run(
        capsys,
        "prob", "--space", die_path, "--measure", "uniform", "--expr", "two | five",
    )
    assert (code, err) == (0, "")
    assert out == "0 (0.000000)\n"


def test_prob_zero_weight_condition_is_undefined(capsys, die_path):
    code, out, err = run(
        capsys,
        "prob", "--space", die_path, "--measure", "uniform", "--expr", "two | {}",
    )
    assert code == 1
    assert err == "boolfrac: error: undefined: condition has probability 0\n"
    assert out == ""


def test_prob_or_formula_route_agrees_with_direct(capsys, die_path):
    code, out, err = run(
        capsys,
        "prob", "--space", die_path, "--measure", "uniform",
        "--expr", "(two|even) or (lt4|lt5)", "--formula", "or",
    )
    assert code == 0
    assert out == "3/5 (0.600000)\n"


def test_prob_and_formula_route(capsys, die_path):
    code, out, err = run(
        capsys,
        "prob", "--space", die_path, "--measure", "uniform",
        "--expr", "(two|even) and (even|lt5)", "--formula", "and",
    )
    assert code == 0
    assert out == "1/5 (0.200000)\n"


def test_prob_formula_needs_matching_top_level_operator(capsys, die_path):
    code, out, err = run(
        capsys,
        "prob", "--space", die_path, "--measure", "uniform",
        "--expr", "two|even", "--formula", "or",
    )
    assert code == 2
    assert "top-level" in err


def test_prob_unknown_measure(capsys, die_path):
    code, out, err = run(
        capsys,
        "prob", "--space", die_path, "--measure", "nope", "--expr", "two|even",
    )
    assert code == 1
    assert "unknown measure" in err


WIDE = """space wide
atoms %s
measure m = %s
measure odd = %s
""" % (" ".join("a%d" % i for i in range(1, 65)),
       " ".join(str(i) for i in range(1, 65)),
       " ".join("0" if i % 2 else "1/%d" % i for i in range(1, 65)))


def w(*atoms):
    """Weight of atoms a<i> under m: atom a<i> weighs i."""
    return sum(Fraction(i) for i in atoms)


def w_odd(*atoms):
    """Weight under odd: atom a<i> weighs 0 when i is odd, 1/i when even."""
    return sum(Fraction(0) if i % 2 else Fraction(1, i) for i in atoms)


ALL = range(1, 65)


@pytest.mark.parametrize("measure, expr, formula, value", [
    ("m", "a64|{a1,a64}", "direct", w(64) / w(1, 64)),
    ("m", "a64", "direct", w(64) / w(*ALL)),
    ("m", "{a1,a2,a3}", "direct", w(1, 2, 3) / w(*ALL)),
    ("m", "~a64 | ~{a1}", "direct", w(*range(2, 64)) / w(*range(2, 65))),
    ("m", "(a1|{a1,a2}) or (a64|{a63,a64})", "or", w(1, 64) / w(1, 2, 63, 64)),
    ("m", "(a1|{a1,a2}) or (a64|{a63,a64})", "direct", w(1, 64) / w(1, 2, 63, 64)),
    ("m", "({a1,a3}|{a1,a2,a3}) and ({a3,a64}|{a3,a64})", "and", w(1, 3, 64) / w(1, 2, 3, 64)),
    ("m", "({a1,a3}|{a1,a2,a3}) and ({a3,a64}|{a3,a64})", "direct",
     w(1, 3, 64) / w(1, 2, 3, 64)),
    ("odd", "a64|{a9,a63,a64}", "direct", w_odd(64) / w_odd(9, 63, 64)),
    ("odd", "{a2,a64}", "direct", w_odd(2, 64) / w_odd(*ALL)),
    ("odd", "(a2|{a1,a2}) or (a63|{a63,a64})", "or", w_odd(2) / w_odd(1, 2, 63, 64)),
    ("odd", "(a2|{a1,a2}) and (a64|{a63,a64})", "and", w_odd(2, 64) / w_odd(1, 2, 63, 64)),
    ("odd", "a64|{a1,a63}", "direct", None),
    ("odd", "(a2|{a1,a3}) or (a64|{a63})", "or", None),
    ("odd", "(a2|{a1,a3}) and (a64|{a63})", "and", None),
])
def test_prob_on_64_atoms_sums_the_atom_weights(capsys, tmp_path, measure, expr, formula,
                                                value):
    """Above 8 atoms a measure has no subset table; a lookup sums the
    weights of the set bits, up to atom a64 at bit 63. None is a
    condition of weight zero."""
    path = tmp_path / "wide.cs"
    path.write_text(WIDE, encoding="utf-8")
    answer = run(capsys, "prob", "--space", str(path), "--measure", measure, "--expr", expr,
                 "--formula", formula)
    if value is None:
        assert answer == (1, "", "boolfrac: error: undefined: condition has probability 0\n")
    else:
        assert answer == (0, "%s (%.6f)\n" % (value, float(value)), "")


# The interpreter's limit on int/str conversion, 0 where it has none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int/str digit limit")


@needs_digit_limit
def test_a_weight_past_the_digit_limit_is_a_bad_weight(capsys, tmp_path):
    """A weight of one digit more than the interpreter converts is a bad
    weight at parse time, so `eval`, which reads no measure, fails too;
    one at the limit is read."""
    path = tmp_path / "big.cs"
    path.write_text("space big\natoms a b c\nmeasure m = 1 1%s 1\n" % ("0" * DIGIT_LIMIT))
    for command in (["prob", "--measure", "m"], ["eval"]):
        assert run(capsys, *command, "--space", str(path), "--expr", "a") == (
            2, "", "boolfrac: error: line 3: weight 2 has too many digits\n")
    path.write_text("space big\natoms a b c\nmeasure m = 1 1%s 1\n" % ("0" * (DIGIT_LIMIT - 1)))
    value = Fraction(10 ** (DIGIT_LIMIT - 1), 10 ** (DIGIT_LIMIT - 1) + 2)
    assert run(capsys, "prob", "--space", str(path), "--measure", "m", "--expr", "b") == (
        0, "%s (%.6f)\n" % (value, float(value)), "")


@needs_digit_limit
def test_a_probability_past_the_digit_limit_is_a_domain_error(capsys, tmp_path):
    """Three weights whose denominators are at the limit give an answer
    whose terms are past it: one error line, not a traceback."""
    zeros = "0" * (DIGIT_LIMIT - 2)
    path = tmp_path / "big.cs"
    path.write_text("space big\natoms a b c\nmeasure m = 1/1%s1 1/1%s3 1/1%s7\n"
                    % (zeros, zeros, zeros))
    assert run(capsys, "prob", "--space", str(path), "--measure", "m", "--expr", "a") == (
        1, "", "boolfrac: error: the probability's numerator or denominator has more than "
        "%d digits\n" % DIGIT_LIMIT)


# relate


@pytest.mark.parametrize(
    "tag, lhs, rhs, expected",
    [
        ("simver", "two|even", "even", "true"),
        ("compat", "two|even", "lt4|lt5", "false"),
        ("orth", "two|even", "{4}|{2,4,5}", "true"),
        ("tr", "two|even", "even|even", "true"),
        ("vee", "two|even", "lt4|lt5", "false"),
    ],
)
def test_relate_prints_true_or_false(capsys, die_path, tag, lhs, rhs, expected):
    code, out, err = run(
        capsys, "relate", "--space", die_path, "--rel", tag, "--lhs", lhs, "--rhs", rhs
    )
    assert (code, err) == (0, "")
    assert out == expected + "\n"


def test_relate_unknown_tag_is_a_usage_error(capsys, die_path):
    code, out, err = run(
        capsys,
        "relate", "--space", die_path, "--rel", "near", "--lhs", "two", "--rhs", "even",
    )
    assert code == 2
    assert "unknown relation tag" in err


def test_relate_checks_its_tag_before_it_reads_the_space_file(capsys):
    assert run(capsys, "relate", "--space", "/no/such/file.cs", "--rel", "near",
               "--lhs", "two", "--rhs", "even") == (
        2, "", "boolfrac: error: unknown relation tag: near\n")


# profile


def test_profile_die_pair_only_flag_one_holds(capsys, die_path):
    code, out, err = run(
        capsys,
        "profile", "--space", die_path, "--lhs", "two|even", "--rhs", "lt4|lt5",
    )
    assert code == 0
    assert out.splitlines() == [
        "1=true", "2=false", "3=false", "4=false", "5=false", "6=false", "7=false",
    ]


def test_profile_equal_conditions_turn_every_flag_on(capsys, die_path):
    code, out, err = run(
        capsys,
        "profile", "--space", die_path, "--lhs", "two|even", "--rhs", "even|even",
    )
    assert code == 0
    assert out.splitlines() == ["%d=true" % k for k in range(1, 8)]


# check


def test_check_single_law_line(capsys):
    code, out, err = run(capsys, "check", "--law", "t3.2", "--atoms", "3")
    assert (code, err) == (0, "")
    assert out == "t3.2 n=3 instances=729 PASS\n"


def test_check_all_prints_28_pass_lines(capsys):
    code, out, err = run(capsys, "check", "--law", "all", "--atoms", "2")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("  ")]
    assert len(lines) == 28
    assert all(line.endswith("PASS") for line in lines)


def test_check_prints_informative_notes(capsys):
    code, out, err = run(capsys, "check", "--law", "t3.11", "--atoms", "2")
    assert code == 0
    assert "\n  note: " in out


def test_check_unknown_law(capsys):
    code, out, err = run(capsys, "check", "--law", "t9.99", "--atoms", "2")
    assert code == 2
    assert err.startswith("boolfrac: error: ")


def test_check_over_budget_is_a_domain_error(capsys):
    code, out, err = run(capsys, "check", "--law", "t2.13", "--atoms", "4")
    assert code == 1
    assert err.startswith("boolfrac: error: ")


@pytest.mark.parametrize(
    "law, flag, value",
    [
        ("t2.4", "--atoms", "0"),
        ("all", "--atoms", "-1"),
        ("t2.13", "--grid", "0"),
        ("superposition", "--grid", "-1"),
        ("all", "--grid", "0"),
    ],
)
def test_check_sizes_below_one_are_usage_errors(capsys, law, flag, value):
    code, out, err = run(capsys, "check", "--law", law, flag, value)
    assert (code, out) == (2, "")
    assert err == "boolfrac: error: %s must be at least 1, got %s\n" % (flag, value)


def test_check_reports_failures_with_counterexamples(capsys, monkeypatch):
    def broken(q1, c1, q2, c2):
        return (q1 & q2) | (~c1 & q2), c1 | c2

    monkeypatch.setattr(cnd, "and_bits", broken)
    code, out, err = run(capsys, "check", "--law", "t2.4", "--atoms", "2")
    assert code == 1
    first = out.splitlines()[0]
    assert first.startswith("t2.4 n=2") and first.endswith("FAIL")
    assert "  counterexample: " in out


# parse


def test_parse_dumps_the_tree(capsys):
    code, out, err = run(capsys, "parse", "--expr", "a or b and ~c")
    assert code == 0
    assert out == "(or (ref a) (and (ref b) (not (ref c))))\n"


def test_parse_reports_position_on_error(capsys):
    code, out, err = run(capsys, "parse", "--expr", "osum(a")
    assert code == 2
    assert "line 1, column 7" in err


# malformed input


def test_deeply_nested_expression_is_a_parse_error(capsys):
    code, out, err = run(capsys, "parse", "--expr", "~" * 5000 + "a")
    assert (code, out) == (2, "")
    assert err == "boolfrac: error: expression nests too deeply\n"


@pytest.mark.parametrize("command", ["parse", "eval"])
def test_long_flat_chain_is_a_parse_error(capsys, die_path, command):
    """3,000 operands parse in a loop, but the tree nests to the left."""
    chain = " or ".join(["two"] * 3000)
    space = ["--space", die_path] if command == "eval" else []
    code, out, err = run(capsys, command, *space, "--expr", chain)
    assert (code, out) == (2, "")
    assert err == "boolfrac: error: expression nests too deeply\n"


def test_a_long_request_expression_is_scanned_once(capsys, monkeypatch, die_path):
    """An expression past the token bound is parsed to a tree from the
    scan that counted its tokens; the space file's lines are scanned
    apart."""
    expr = "two | even" + " or ~lt4" * 45 + " or five"
    scan, scanned = lang._scan, []
    monkeypatch.setattr(lang, "_scan", lambda text: scanned.append(text) or scan(text))
    assert run(capsys, "eval", "--space", die_path, "--expr", expr) == (
        0, "({2}|{2,4,5,6})\n", "")
    assert scanned.count(expr) == 1 and len(scan(expr)[0]) == 140 + 1  # and eof


# Four ways to nest an expression n levels deep, each with its own deepest
# n under the interpreter's recursion limit.
NESTINGS = {
    "parens": lambda n: "(" * n + "two" + ")" * n,
    "tildes": lambda n: "~" * n + "two",
    "negated parens": lambda n: "~(" * n + "two" + ")" * n,
    "right-nested or": lambda n: "(two or " * n + "two" + ")" * n,
}
TOO_DEEP = "boolfrac: error: expression nests too deeply\n"


def deepest_parse(nest):
    """The largest n whose nesting parse_expr accepts; every deeper one
    is a 'nests too deeply' ParseError."""
    def parses(n):
        try:
            lang.parse_expr(nest(n))
        except ParseError as e:
            assert str(e) == "expression nests too deeply"
            return False
        return True

    lo, hi = 0, 4096
    assert parses(lo) and not parses(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if parses(mid):
            lo = mid
        else:
            hi = mid
    return lo


def deeper(frames, fn, *args):
    """fn(*args), called `frames` frames further down the stack."""
    if frames:
        return deeper(frames - 1, fn, *args)
    return fn(*args)


def test_the_deepest_parsed_nestings_lower_dump_and_run_without_a_recursion_error(
        capsys, die, die_path):
    depths = {}
    for form, nest in NESTINGS.items():
        depths[form] = n = deepest_parse(nest)
        node = lang.parse_expr(nest(n))
        # Also from 50 frames further down, where the deepest trees run
        # out of stack while they are lowered or dumped.
        for frames in (0, 50):
            for step in (lang.dump, lambda node: lang.lower(node, die.space, die.events)):
                try:
                    deeper(frames, step, node)
                except ParseError as e:
                    assert str(e) == "expression nests too deeply"
        for command in ("parse", "eval"):
            space = ["--space", die_path] if command == "eval" else []
            code, out, err = run(capsys, command, *space, "--expr", nest(n))
            if code == 0:
                assert err == "" and out.count("\n") == 1
            else:
                assert (code, out, err) == (2, "", TOO_DEEP)
    # Frames per level: one for a `~`, two for a parenthesis and three
    # for a parenthesis with a `~` or an infix operator before it.
    assert abs(depths["tildes"] - 2 * depths["parens"]) <= 4
    assert abs(depths["tildes"] - 3 * depths["negated parens"]) <= 4
    assert depths["right-nested or"] == depths["negated parens"]


NOT_UTF8 = "boolfrac: error: {} is not UTF-8 text: 'utf-8' codec can't decode "


@pytest.mark.parametrize("data, message", [
    (b"\xff\xfe", NOT_UTF8 + "byte 0xff in position 0: invalid start byte\n"),
    # The position counts raw bytes, each \r\n two of them.
    (b"space s\r\natoms a b\r\n\xff\r\n",
     NOT_UTF8 + "byte 0xff in position 20: invalid start byte\n"),
    (b"space s\natoms a b\n\xe2\x82",
     NOT_UTF8 + "bytes in position 18-19: unexpected end of data\n"),
    (b"space s\natoms a \xed\xa0\x80\n",
     NOT_UTF8 + "byte 0xed in position 16: invalid continuation byte\n"),
    # A byte order mark is read as part of the first line.
    (b"\xef\xbb\xbfspace s\natoms a b\n",
     "boolfrac: error: line 1, column 1: unknown directive '\\ufeffspace'\n"),
    ("directory", "boolfrac: error: [Errno 21] Is a directory: '{}'\n"),
    ("missing", "boolfrac: error: [Errno 2] No such file or directory: '{}'\n"),
])
def test_space_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, data, message):
    """A space file that is not UTF-8 text, or that cannot be opened, is
    one exact diagnostic line and exit code 2."""
    path = tmp_path / "bad.cs"
    if data == "directory":
        path.mkdir()
    elif data != "missing":
        path.write_bytes(data)
    code, out, err = run(capsys, "eval", "--space", str(path), "--expr", "a")
    assert (code, out, err) == (2, "", message.format(path))


def test_reserved_word_as_atom_name_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "reserved.cs"
    path.write_text("space s\natoms or b\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--space", str(path), "--expr", "b")
    assert (code, out) == (2, "")
    assert err == (
        "boolfrac: error: line 2, column 1: 'or' is a reserved word and cannot name an atom\n"
    )


@pytest.mark.parametrize("text", [
    "space s\natoms UNDEFINED b\n",
    "space s\natoms a b\nevent UNDEFINED = {a}\n",
    "space s\natoms a b\nmeasure UNDEFINED = 1 1\n",
])
def test_undefined_as_a_name_is_a_usage_error(capsys, tmp_path, text):
    path = tmp_path / "reserved.cs"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "eval", "--space", str(path), "--expr", "b")
    assert (code, out) == (2, "")
    assert err.startswith("boolfrac: error: ") and "'UNDEFINED' is a reserved word" in err
    assert err.count("\n") == 1


# measures: checked at parse time, built when a request reads one

THREE_MEASURES = """space coin
atoms h t e
event side = {h, t}
measure flat = 1 1 1
measure m = 1/2 2/6 1/6
measure edge = 0 0 1
"""


@pytest.mark.parametrize("argv, out, count", [
    (["prob", "--measure", "m", "--expr", "h|side"], "3/5 (0.600000)\n", 1),
    (["prob", "--measure", "m", "--expr", "(h|side) or (e|~side)", "--formula", "or"],
     "2/3 (0.666667)\n", 1),
    (["prob", "--measure", "nope", "--expr", "h"], "", 0),
    (["eval", "--expr", "h|side"], "({h}|{h,t})\n", 0),
    (["relate", "--rel", "tr", "--lhs", "h|side", "--rhs", "side"], "true\n", 0),
    (["profile", "--lhs", "h|side", "--rhs", "e"],
     "".join("%d=%s\n" % (k, flag) for k, flag in enumerate(
         ("true", "true", "false", "true", "false", "true", "false"), 1)), 0),
])
def test_a_request_builds_only_the_measure_it_reads(capsys, tmp_path, built, argv, out,
                                                    count):
    path = tmp_path / "coin.cs"
    path.write_text(THREE_MEASURES, encoding="utf-8")
    code, got, err = run(capsys, argv[0], "--space", str(path), *argv[1:])
    assert (code, got) == ((0, out) if out else (1, ""))
    assert len(built) == count
    if count:
        assert built[0].weights == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))


@pytest.mark.parametrize("lines, code, message", [
    (["event e = {a}", "measure m = 1 x"], 2, "line 4: bad weight 'x'"),
    (["event e = {a}", "measure m = 1 2/0"], 2, "line 4: zero denominator in '2/0'"),
    (["event e = {a}", "measure m = 0 0/3"], 2, "line 4: all atom weights are zero"),
    (["measure m = 1 0", "measure z = 0 0"], 2, "line 4: all atom weights are zero"),
    (["event e = {a}", "measure m = 1"], 2, "line 4, column 1: expected 2 weights, got 1"),
    (["measure m = 1 x", "event e = f"], 2, "line 3: bad weight 'x'"),
    (["event e = f", "measure m = 1 x"], 1, "line 3: 'f' names neither an event nor an atom"),
])
def test_a_bad_measure_line_fails_every_request_at_parse_time_in_line_order(
        capsys, tmp_path, built, lines, code, message):
    path = tmp_path / "bad.cs"
    path.write_text("space x\natoms a b\n%s\n" % "\n".join(lines), encoding="utf-8")
    assert run(capsys, "eval", "--space", str(path), "--expr", "a") == (
        code, "", "boolfrac: error: %s\n" % message)
    assert built == []


def test_the_benchmark_tracer_counts_a_space_file_measure(capsys, die_path):
    """`perfbench`'s per-layer tracer wraps `Measure.__init__`, the one
    route a Measure is built by, so it sees the measure a request reads."""
    tracer = perfbench_module("tracer").Tracer()
    tracer.install()
    try:
        got = run(capsys, "prob", "--space", die_path, "--measure", "uniform", "--expr", "two|even")
    finally:
        tracer.restore()
    assert got == (0, "1/3 (0.333333)\n", "")
    assert tracer.calls("prob.Measure") == 1


# argument handling


def test_no_arguments_is_a_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "eval" in out and "check" in out


HELP_GOLDENS = json.loads((pathlib.Path(__file__).resolve().parent.parent / "fixtures"
                           / "help.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(HELP_GOLDENS))
def test_help_matches_its_golden_at_80_columns(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv.split()) == (0, HELP_GOLDENS[argv], "")


def test_missing_required_flag(capsys):
    assert cli.main(["eval", "--expr", "two"]) == 2
    capsys.readouterr()


# one parser per request that is not plain


def reuse_sequence(die_path):
    """Usage errors, help, domain usage errors, then one valid request of
    each read-only command."""
    return [
        [],
        ["--help"],
        ["prob", "-h"],
        ["eval", "--space", die_path],
        ["relate", "--space", die_path, "--rel", "near", "--lhs", "two", "--rhs", "even"],
        ["prob", "--space", die_path, "--measure", "uniform", "--formula", "or",
         "--expr", "two|even"],
        ["eval", "--space", "/no/such/file.cs", "--expr", "a"],
        ["eval", "--space", die_path, "--expr", "(two|even) or (lt4|lt5)"],
        ["prob", "--space", die_path, "--measure", "uniform", "--expr", "(two|even) or (lt4|lt5)"],
        ["relate", "--space", die_path, "--rel", "tr", "--lhs", "two|even", "--rhs", "lt4|lt5"],
        ["profile", "--space", die_path, "--lhs", "two|even", "--rhs", "lt4|lt5"],
        ["parse", "--expr", "osum(a, b|c) or ~{x,y}"],
        ["check", "--law", "nope"],
    ]


@pytest.fixture
def parsers_built(monkeypatch):
    """Every tree the module-level `cli.build_parser` returns while the
    test runs, in order."""
    built = []
    build_parser = cli.build_parser

    def recording():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording)
    return built


def test_each_request_that_is_not_plain_builds_its_own_parser(capsys, parsers_built,
                                                              die_path):
    """Plain requests build no parser; every other request builds one
    from the module-level build_parser, and a second pass prints the
    same."""
    argvs = reuse_sequence(die_path)
    first, calls = [], []
    for argv in argvs:
        before = len(parsers_built)
        first.append(run(capsys, *argv))
        calls.append(len(parsers_built) - before)
    assert calls == [1, 1, 1, 1] + [0] * (len(argvs) - 4)
    assert [code for code, _, _ in first] == [2, 0, 0, 2, 2, 2, 2, 0, 0, 0, 0, 0, 2]
    assert [run(capsys, *argv) for argv in argvs] == first
    assert len({id(parser) for parser in parsers_built}) == len(parsers_built) == 8
    assert list(subparsers(parsers_built[0])) == list(cli._COMMANDS)


def test_help_follows_the_terminal_width_of_each_request(capsys, monkeypatch, die_path):
    """argparse reads COLUMNS when it prints."""
    argvs = [["-h"], ["prob", "-h"], [], ["eval", "--space", die_path]]
    outputs = []
    for columns in ("40", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        outputs.append([run(capsys, *argv) for argv in argvs])
    assert outputs[0] == outputs[2] != outputs[1]


def test_build_parser_returns_a_new_parser_each_call():
    parsers = [cli.build_parser() for _ in range(3)]
    assert len({id(parser) for parser in parsers}) == 3


# one argparse pass per request


def edge_argvs(die_path):
    """Requests that are not plain, which argparse parses in full: no
    subcommand name first, help, an abbreviated, `=`-joined or repeated
    option, `--`, a value that starts with '-' or that a type or choices
    rejects, a missing option, and arguments left over."""
    request = ["eval", "--space", die_path, "--expr", "two"]
    return [
        [], ["-h"], ["--help"], ["bogus"], ["ev"], ["-x", "eval"],
        ["eval"], ["eval", "-h"], ["eval", "-h", "--bogus"], ["eval", "--bogus"],
        ["eval", "--sp", die_path, "--ex", "two"],
        ["eval", "--space=" + die_path, "--expr", "two"],
        ["eval", "--space", die_path, "--", "--expr", "two"],
        ["eval", "--space", "/no/such/file.cs", "--space", die_path, "--expr", "two"],
        ["eval", "--space", die_path, "--expr=-x"],
        ["eval", "--space", die_path, "--expr", "--"],
        ["check", "--atoms", "x"],
        ["prob", "--space", die_path, "--measure", "uniform", "--expr", "two",
         "--formula", "bad"],
        ["parse"],
        request + ["extra"], request + ["x", "y"],
    ]


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("columns", ["40", "200"])
def test_main_prints_what_a_full_parse_of_every_request_prints(capsys, monkeypatch,
                                                               die_path, columns):
    monkeypatch.setenv("COLUMNS", columns)
    argvs = reuse_sequence(die_path) + edge_argvs(die_path)
    routed = [run(capsys, *argv) for argv in argvs]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", full_parse)
        reference = [run(capsys, *argv) for argv in argvs]
    assert routed == reference
    assert {code for code, _, _ in routed} == {0, 1, 2}


@pytest.fixture
def parse_calls(monkeypatch):
    """(prog, args) of every ArgumentParser.parse_known_args call, in order."""
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, args=None, namespace=None):
        calls.append((self.prog, None if args is None else list(args)))
        return parse_known_args(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    return calls


def test_a_plain_subcommand_request_makes_no_argparse_call(capsys, parse_calls, die_path):
    """Whole `--option value` pairs after a subcommand name are read
    without argparse."""
    for argv in reuse_sequence(die_path)[5:]:
        parse_calls.clear()
        cli.main(argv)
        assert parse_calls == []
    capsys.readouterr()


def test_other_requests_make_the_calls_of_the_full_parse(capsys, monkeypatch, parse_calls,
                                                        die_path):
    """A request that is not plain is parsed in full, once."""
    for argv in edge_argvs(die_path):
        parse_calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse", full_parse)
            cli.main(argv)
        full = list(parse_calls)
        parse_calls.clear()
        cli.main(argv)
        assert parse_calls == full
        assert full[0] == ("boolfrac", argv)
    capsys.readouterr()


# the plain route against argparse


def subparsers(parser):
    """The subcommand names of a built argparse tree, each mapped to its
    subparser: read from the tree itself, not from the table it was
    built from."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices


OPTIONS = {
    name: [option for action in sub._actions for option in action.option_strings
           if option != "--help" and option.startswith("--")]
    for name, sub in subparsers(cli.build_parser()).items()
}
PLAIN_VALUES = ["", "3", "\u0663", "x"]
DASHED_VALUES = ["-x", "--"]
FORMULAS = ["direct", "or", "and", "bad"]


@st.composite
def requests(draw):
    """A subcommand name, then each of its options in any order: in full
    with a value, left out, given twice, with a value that starts with
    '-', abbreviated, joined to its value by '=' or with no value; and
    perhaps '--', '-h' or a stray value first or last."""
    name = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [name]
    for option in draw(st.permutations(OPTIONS[name])):
        value = draw(st.sampled_from(PLAIN_VALUES + FORMULAS if option == "--formula"
                                     else PLAIN_VALUES))
        form = draw(st.sampled_from(["full"] * 10 + ["out", "twice", "dashed", "short",
                                                     "joined", "bare"]))
        if form == "full":
            argv += [option, value]
        elif form == "twice":
            argv += [option, value, option, draw(st.sampled_from(PLAIN_VALUES))]
        elif form == "dashed":
            argv += [option, draw(st.sampled_from(DASHED_VALUES))]
        elif form == "short":
            argv += [option[:draw(st.integers(3, len(option) - 1))], value]
        elif form == "joined":
            argv.append(option + "=" + draw(st.sampled_from(PLAIN_VALUES + DASHED_VALUES)))
        elif form == "bare":
            argv.append(option)
    extra = draw(st.sampled_from([None] * 4 + ["--", "-h", "x"]))
    if extra is not None:
        argv.insert(draw(st.sampled_from([1, len(argv)])), extra)
    return argv


def outcome(parse, argv):
    """vars of the namespace, or the exit code, with what was printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@given(requests())
def test_the_plain_route_parses_what_argparse_parses(argv):
    assert outcome(cli._parse, argv) == outcome(full_parse, argv)


def typed_outcome(parse, argv):
    """outcome, with the type of every namespace value."""
    result, out, err = outcome(parse, argv)
    if isinstance(result, dict):
        result = {dest: (type(value), value) for dest, value in result.items()}
    return result, out, err


def test_the_plain_route_reads_every_query_request_as_argparse_does(die_path, query_inputs):
    argvs = reuse_sequence(die_path)
    for seed in (1, 7):
        argvs += [argv for argv, _ in query_inputs(seed)["requests"]]
    full = cli.build_parser().parse_args
    for argv in argvs:
        assert typed_outcome(cli._parse, argv) == typed_outcome(full, argv), argv


def test_no_query_request_builds_a_parser(capsys, parsers_built, query_inputs):
    """Every request of the benchmark's `query` streams is plain, so
    running it builds no argparse tree."""
    for seed in (1, 7):
        for argv, _ in query_inputs(seed)["requests"]:
            cli.main(argv)
            capsys.readouterr()
    assert parsers_built == []


# a fresh process


def run_fresh(*argv):
    """`python -m boolfrac.cli` in a new interpreter, on this package."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "boolfrac.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_a_fresh_process_answers_the_die_bet(die_path):
    assert run_fresh("eval", "--space", die_path, "--expr", "(two|even) or (lt4|lt5)") == (
        0, "({1,2,3}|{1,2,3,4,6})\n", "")
    assert run_fresh(
        "prob", "--space", die_path, "--measure", "uniform", "--expr", "(two|even) or (lt4|lt5)",
    ) == (0, "3/5 (0.600000)\n", "")
    assert run_fresh(
        "relate", "--space", die_path, "--rel", "near", "--lhs", "two", "--rhs", "even",
    ) == (2, "", "boolfrac: error: unknown relation tag: near\n")


def test_a_plain_request_leaves_argparse_unloaded(die_path):
    """In a fresh isolated interpreter, a plain request of each
    subcommand answers without importing argparse; a request that is
    not plain imports it and gives the same answer."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    argvs = [
        ["eval", "--space", die_path, "--expr", "two"],
        ["prob", "--space", die_path, "--measure", "uniform", "--expr", "two|even"],
        ["relate", "--space", die_path, "--rel", "orth", "--lhs", "two|even",
         "--rhs", "lt4|lt5"],
        ["profile", "--space", die_path, "--lhs", "two|even", "--rhs", "lt4|lt5"],
        ["parse", "--expr", "two|even"],
        ["check", "--law", "t3.7", "--atoms", "2"],
        ["eval", "--sp", die_path, "--ex", "two"],
    ]
    code = ("import sys\nsys.path.insert(0, %r)\nfrom boolfrac import cli\n"
            "for argv in %r:\n"
            "    print(cli.main(argv), 'argparse' in sys.modules)\n" % (src, argvs))
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "({2}|{1,2,3,4,5,6})\n0 False\n"
        "1/3 (0.333333)\n0 False\n"
        "false\n0 False\n"
        "1=true\n2=false\n3=false\n4=false\n5=false\n6=false\n7=false\n0 False\n"
        "(given (ref two) (ref even))\n0 False\n"
        "t3.7 n=2 instances=81 PASS\n0 False\n"
        "({2}|{1,2,3,4,5,6})\n0 True\n"
    )
