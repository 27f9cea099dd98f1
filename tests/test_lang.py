"""The expression language and the space-file format.

Precedence, loosest first: `|` (conditioning), `or`, `and`, `~`, with
explicit parentheses and the six named binary functions. Every leaf
lowers to (event | whole space), so `a | b` is ordinary conditioning.
Space files are line-oriented: a `space` line, an `atoms` line, then
`event` and `measure` definitions.
"""

import copy
import json
import operator
import pathlib
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from benchinputs import perfbench_module
from boolfrac import conditional as cnd
from boolfrac import lang
from boolfrac import prob
from boolfrac import schay
from boolfrac.errors import (
    BadWeight,
    DuplicateName,
    Error,
    ParseError,
    UnknownAtom,
    UnknownName,
    ZeroTotalWeight,
)
from boolfrac.space import RESERVED_CHARS, Event, SampleSpace


def space_of(n):
    return SampleSpace(str(i + 1) for i in range(n))


def test_precedence_given_binds_loosest():
    assert lang.dump(lang.parse_expr("a | b or c")) == "(given (ref a) (or (ref b) (ref c)))"
    assert lang.dump(lang.parse_expr("a or b and c")) == "(or (ref a) (and (ref b) (ref c)))"
    assert lang.dump(lang.parse_expr("~a and b")) == "(and (not (ref a)) (ref b))"


def test_operators_associate_left():
    assert lang.dump(lang.parse_expr("a | b | c")) == "(given (given (ref a) (ref b)) (ref c))"
    assert lang.dump(lang.parse_expr("a or b or c")) == "(or (or (ref a) (ref b)) (ref c))"


def test_set_literals_and_functions():
    assert lang.dump(lang.parse_expr("{2,4} or {}")) == "(or (set 2 4) (set))"
    assert (
        lang.dump(lang.parse_expr("osum(a|b, proj(c, d))"))
        == "(osum (given (ref a) (ref b)) (proj (ref c) (ref d)))"
    )


def test_parentheses_override_precedence():
    assert lang.dump(lang.parse_expr("(a or b) and c")) == "(and (or (ref a) (ref b)) (ref c))"


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("", 1, 1),
        ("a or", 1, 5),
        ("(a", 1, 3),
        ("{2 4}", 1, 4),
        ("a b", 1, 3),
        ("osum(a)", 1, 7),
        ("a |", 1, 4),
    ],
)
def test_parse_errors_carry_positions(text, line, col):
    with pytest.raises(ParseError) as err:
        lang.parse_expr(text)
    assert err.value.line == line
    assert err.value.col == col
    assert "line %d, column %d" % (line, col) in str(err.value)


def test_parse_error_lists_what_was_expected():
    with pytest.raises(ParseError) as err:
        lang.parse_expr("a b")
    assert "expected" in str(err.value)
    assert err.value.expected


def test_lowering_resolves_events_before_atoms():
    doc = lang.parse_space(
        "space s\natoms 1 2 3\nevent 1 = {2}\n"
    )
    cond = doc.lower("1")
    assert cond.consequent == doc.space.event(["2"])
    bare = lang.lower(lang.parse_expr("1"), doc.space)
    assert bare.consequent == doc.space.atom("1")


def test_lowering_unknown_name(die):
    with pytest.raises(UnknownName):
        die.lower("sixes")


def test_every_operator_lowers_to_its_operation(die):
    ev = die.events
    x = cnd.make(ev["two"], ev["even"])
    y = cnd.make(ev["lt4"], ev["lt5"])
    assert die.lower("(two|even) or (lt4|lt5)") == cnd.or_(x, y)
    assert die.lower("(two|even) and (lt4|lt5)") == cnd.and_(x, y)
    assert die.lower("~(two|even)") == cnd.negate(x)
    assert die.lower("osum(two|even, lt4|lt5)") == cnd.osum(x, y)
    assert die.lower("proj(two|even, lt4|lt5)") == cnd.sasaki(x, y)
    assert die.lower("s_and(two|even, lt4|lt5)") == schay.and_s(x, y)
    assert die.lower("s_or(two|even, lt4|lt5)") == schay.vee_s(x, y)
    assert die.lower("s_cap(two|even, lt4|lt5)") == schay.cap_s(x, y)
    assert die.lower("s_cup(two|even, lt4|lt5)") == schay.cup_s(x, y)


def test_conditioning_on_events_is_simple_conditioning(die):
    got = die.lower("two | even")
    assert got == cnd.make(die.events["two"], die.events["even"])


def test_lower_event_rejects_conditional_operators(die):
    with pytest.raises(ParseError):
        lang.lower_event(lang.parse_expr("two | even"), die.space, die.events)
    with pytest.raises(ParseError):
        lang.lower_event(lang.parse_expr("osum(two, even)"), die.space, die.events)


def test_format_conditional_round_trips_every_conditional_at_three_atoms():
    """str(x) parses and lowers back to x for all 27 conditionals."""
    space = space_of(3)
    for q, c in cnd.enumerate_conditionals_bits(space.full_bits):
        x = cnd.Conditional(space, q, c)
        again = lang.lower(lang.parse_expr(str(x)), space)
        assert again == x


def test_format_conditional_names_the_undefined_element():
    space = space_of(2)
    assert lang.format_conditional(cnd.undefined(space)) == "UNDEFINED"
    assert lang.format_conditional(cnd.Conditional(space, 1, 3)) == "({1}|{1,2})"


def test_undefined_is_the_literal_u(die):
    assert lang.dump(lang.parse_expr("~UNDEFINED | two")) == "(given (not (undefined)) (ref two))"
    assert die.lower("UNDEFINED") == cnd.undefined(die.space)
    two = die.lower("two")
    assert die.lower("UNDEFINED or two") == cnd.or_(cnd.undefined(die.space), two) == two
    with pytest.raises(ParseError):
        lang.lower_event(lang.parse_expr("UNDEFINED"), die.space, die.events)
    with pytest.raises(ParseError):
        lang.parse_expr("{UNDEFINED}")


def test_parse_space_reads_the_die_file(die):
    assert die.name == "die"
    assert die.space.atoms == ("1", "2", "3", "4", "5", "6")
    assert sorted(die.events) == ["even", "five", "lt4", "lt5", "odd", "two"]
    assert die.events["odd"] == ~die.events["even"]
    assert list(die.measures) == ["uniform"]


def test_space_files_allow_comments_and_later_references():
    doc = lang.parse_space(
        """# comment
space s
atoms 1 2 3
event one = {1}
event big = one or {2}   # trailing comment
measure w = 1/2 1/4 1/4
"""
    )
    assert doc.events["big"] == doc.space.event(["1", "2"])
    assert doc.measures["w"].weight(doc.space.atom("1")) * 2 == 1


@pytest.mark.parametrize(
    "text,error",
    [
        ("atoms a b\n", ParseError),
        ("space x\nspace y\natoms a\n", ParseError),
        ("space x\n", ParseError),
        ("space x\natoms a b|c\n", ParseError),
        ("space x\natoms a a\n", DuplicateName),
        ("space x\natoms a\nfrobnicate\n", ParseError),
        ("space x\natoms a b\nevent e = {a}\nevent e = {b}\n", DuplicateName),
        ("space x\natoms a b\nevent e = f or a\n", UnknownName),
        ("space x\natoms a b\nevent e = a | b\n", ParseError),
        ("space x\natoms a b\nevent and = {a}\n", ParseError),
        ("space x\natoms or b\n", ParseError),
        ("space x\natoms a s_cup\n", ParseError),
        ("space x\natoms a UNDEFINED\n", ParseError),
        ("space x\natoms a b\nevent UNDEFINED = {a}\n", ParseError),
        ("space x\natoms a b\nmeasure UNDEFINED = 1 1\n", ParseError),
        ("space x\natoms a b\nevent e = UNDEFINED\n", ParseError),
        ("space x\natoms a b\nmeasure m = 1 x\n", BadWeight),
        ("space x\natoms a b\nmeasure m = 1 1/0\n", BadWeight),
        ("space x\natoms a b\nmeasure m = 1\n", ParseError),
        ("space x\natoms a b\nmeasure m = 0 0\n", ZeroTotalWeight),
    ],
)
def test_space_file_errors(text, error):
    with pytest.raises(error):
        lang.parse_space(text)


def test_nesting_past_the_recursion_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="nests too deeply"):
        lang.parse_expr("(" * 3000 + "a" + ")" * 3000)
    with pytest.raises(ParseError, match="nests too deeply"):
        lang.parse_expr("~" * 5000 + "a")


def test_space_file_error_positions_point_at_the_line():
    with pytest.raises(ParseError) as err:
        lang.parse_space("space x\natoms a b\nevent e = a |\n")
    assert err.value.line == 3


ATOM_PIECES = ("a", "b", "é", "1", "or", "and", "UNDEFINED", "s_cup", "a{", "b)", "x=y", "~", ",")


@given(st.lists(st.sampled_from(ATOM_PIECES), min_size=1, max_size=6))
def test_an_atoms_line_reports_its_first_bad_name(names):
    """Each name in turn is checked for a reserved character, then for a
    reserved word, then for a repeat."""
    want = None
    seen = set()
    for atom in names:
        if any(ch in "{},|()~=" for ch in atom):
            want = (ParseError, "line 2, column 1: invalid atom name %r" % (atom,))
        elif atom in lang.RESERVED_WORDS:
            want = (ParseError,
                    "line 2, column 1: %r is a reserved word and cannot name an atom" % (atom,))
        elif atom in seen:
            want = (DuplicateName, "line 2: duplicate atom %r" % (atom,))
        if want is not None:
            break
        seen.add(atom)
    text = "space x\natoms %s\n" % " ".join(names)
    if want is None:
        assert lang.parse_space(text).space.atoms == tuple(names)
    else:
        with pytest.raises(Error) as err:
            lang.parse_space(text)
        assert (type(err.value), str(err.value)) == want


def atoms_outcome(line):
    """The atoms of `space s` with this `atoms` line, or the error's type
    and text."""
    try:
        return lang.parse_space("space s\n%s\n" % line).space.atoms
    except Error as exc:
        return type(exc), str(exc)


def old_atoms_outcome(line):
    """atoms_outcome as it was when one isdisjoint test over the joined
    names decided whether `_check_atoms` looked at the line."""
    names = line.partition("#")[0].split()[1:]
    if (len(set(names)) != len(names) or not lang.RESERVED_WORDS.isdisjoint(names)
            or not RESERVED_CHARS.isdisjoint("".join(names))):
        try:
            lang._check_atoms(names, 2)
        except Error as exc:
            return type(exc), str(exc)
    return tuple(names)


@pytest.mark.parametrize("char", sorted(RESERVED_CHARS) + [" ", "\uff11", "\u00b2"])
def test_the_reserved_character_search_fails_an_atoms_line_as_before(char):
    for name in ("x%sy" % char, char + "x", "x" + char, char):
        for line in ("atoms a %s" % name, "atoms a %s b" % name, "atoms a b %s a" % name,
                     "atoms a %s # c" % name, "atoms or %s" % name):
            assert atoms_outcome(line) == old_atoms_outcome(line), line


# Whitespace that str.splitlines breaks at but a space file does not.
EXOTIC_SPACE = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("ch", EXOTIC_SPACE)
def test_space_file_lines_break_only_at_line_feeds_and_returns(ch):
    text = "space x{0}\natoms a{0}b\nevent e = {{a,{0}b}}{0}\nevent f = ~{0}(e\n".format(ch)
    with pytest.raises(ParseError) as err:
        lang.parse_space(text)
    assert (err.value.line, err.value.col) == (4, 15)
    doc = lang.parse_space(text.replace("(e", "e"))
    assert doc.events["e"] == doc.space.event(["a", "b"])
    assert doc.lower("{a,%sb}" % ch) == cnd.make(doc.events["e"], doc.space.full)
    assert doc.events["f"] == doc.space.empty


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_space_file_lines_break_at_each_line_break(newline):
    text = newline.join(["space x", "atoms a b", "", "event e = {a,"]) + newline
    with pytest.raises(ParseError) as err:
        lang.parse_space(text)
    assert (err.value.line, err.value.col) == (4, 14)
    with pytest.raises(ParseError, match="^line 3, column 1: file never declares atoms$"):
        lang.parse_space("space x" + newline + newline)


# Property tests. A tree is a tuple: ("ref", name), ("set", names),
# ("not", arg) or (op, left, right) for the nine binary operators.

DIE_NAMES = ("two", "even", "odd", "lt4", "lt5", "five", "1", "2", "3", "4", "5", "6")
DIE_ATOMS = ("1", "2", "3", "4", "5", "6")
INFIX_LEVEL = {"given": 0, "or": 1, "and": 2}
INFIX_SYMBOL = {"given": "|", "or": "or", "and": "and"}
NOT_LEVEL = 3
BINARY_OPS = {
    "given": cnd.given,
    "or": cnd.or_,
    "and": cnd.and_,
    "osum": cnd.osum,
    "proj": cnd.sasaki,
    "s_and": schay.and_s,
    "s_or": schay.vee_s,
    "s_cap": schay.cap_s,
    "s_cup": schay.cup_s,
}


def trees(depth):
    leaves = st.one_of(
        st.sampled_from(DIE_NAMES).map(lambda name: ("ref", name)),
        st.lists(st.sampled_from(DIE_ATOMS), unique=True).map(lambda names: ("set", tuple(names))),
    )
    if depth == 0:
        return leaves
    sub = trees(depth - 1)
    return st.one_of(
        leaves,
        sub.map(lambda arg: ("not", arg)),
        st.tuples(st.sampled_from(sorted(BINARY_OPS)), sub, sub),
    )


def render(tree, need=0):
    """Source text with the fewest parentheses: a subterm is wrapped only
    when it binds more loosely than its position requires."""
    kind = tree[0]
    if kind == "ref":
        return tree[1]
    if kind == "set":
        return "{%s}" % ",".join(tree[1])
    if kind == "not":
        level, text = NOT_LEVEL, "~" + render(tree[1], NOT_LEVEL)
    elif kind in INFIX_LEVEL:
        level = INFIX_LEVEL[kind]
        text = "%s %s %s" % (
            render(tree[1], level), INFIX_SYMBOL[kind], render(tree[2], level + 1)
        )
    else:
        return "%s(%s, %s)" % (kind, render(tree[1]), render(tree[2]))
    return "(%s)" % text if level < need else text


def sexpr(tree):
    kind = tree[0]
    if kind == "ref":
        return "(ref %s)" % tree[1]
    if kind == "set":
        return "(set%s)" % "".join(" " + name for name in tree[1])
    return "(%s %s)" % (kind, " ".join(sexpr(arg) for arg in tree[1:]))


def evaluate(tree, die):
    kind = tree[0]
    full = die.space.full
    if kind == "ref":
        name = tree[1]
        event = die.events[name] if name in die.events else die.space.atom(name)
        return cnd.make(event, full)
    if kind == "set":
        return cnd.make(die.space.event(tree[1]), full)
    if kind == "not":
        return cnd.negate(evaluate(tree[1], die))
    return BINARY_OPS[kind](evaluate(tree[1], die), evaluate(tree[2], die))


@given(trees(4))
def test_minimally_parenthesized_trees_parse_back_and_lower_to_their_operations(die, tree):
    text = render(tree)
    assert lang.dump(lang.parse_expr(text)) == sexpr(tree)
    assert die.lower(text) == evaluate(tree, die)


HOSTILE_ATOM_NAMES = st.text(
    st.characters(exclude_categories=("C", "Z"), exclude_characters="{},|()~#="),
    min_size=1,
    max_size=4,
).filter(lambda name: name not in lang.RESERVED_WORDS)


@given(st.lists(HOSTILE_ATOM_NAMES, min_size=1, max_size=5, unique=True))
def test_format_parse_lower_is_the_identity_on_hostile_atom_names(names):
    """Every conditional, U included, prints to text that parses and
    lowers back to it, whatever characters outside the grammar's own the
    atom names use."""
    doc = lang.parse_space("space s\natoms %s\n" % " ".join(names))
    for q, c in cnd.enumerate_conditionals_bits(doc.space.full_bits):
        x = cnd.Conditional(doc.space, q, c)
        assert doc.lower(lang.format_conditional(x)) == x


# ------------------------------------------- the scan against its old loop


def old_tokenize(text):
    """tokenize as it was first written, one character at a time; the
    tokens are (kind, text, line, col) tuples."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in lang._SPECIALS:
            tokens.append((lang._SPECIALS[ch], ch, line, col))
            i += 1
            col += 1
            continue
        start = i
        start_col = col
        while i < n and not text[i].isspace() and text[i] not in lang._SPECIALS and text[i] != "#":
            i += 1
            col += 1
        word = text[start:i]
        tokens.append((lang._WORD_KINDS.get(word, "ident"), word, line, start_col))
    tokens.append(("eof", "", line, col))
    return tokens


def scan(text):
    return [(tok.kind, tok.text, tok.line, tok.col) for tok in lang.tokenize(text)]


TOKEN_CHARS = "{},|()~#=ab1_éλ中 \n\r\t\x0b\x0c\x1c\x85\xa0\u2028\u3000"
TOKEN_PIECES = (
    "or", "and", "osum", "s_cup", "UNDEFINED", "undefined", "orb", "# note", "#",
    "\n", "\r\n", " ", "\t", "\u2028", "\u3000", "\x85", "t63", "été",
)


@pytest.mark.parametrize(
    "text",
    [
        "", "#", "a # b", "a # b\n", "a # b\nc", "a#b", "# only\n", "a\n#", "\n\n  x",
        "a\rb", "a\r\nb", "a\tb", "a\x85b", "a\u2028b", "a\u3000b", "éλ or 中",
        "osum(a, b)|{x,y}", "~UNDEFINED and or", "a=b", "((a|b) or (c|d))",
    ],
)
def test_tokenize_matches_its_old_loop(text):
    assert scan(text) == old_tokenize(text)


@given(st.one_of(
    st.text(st.sampled_from(TOKEN_CHARS), max_size=30),
    st.lists(st.sampled_from(TOKEN_PIECES + tuple(TOKEN_CHARS)), max_size=15).map("".join),
))
def test_tokenize_matches_its_old_loop_on_generated_text(text):
    assert scan(text) == old_tokenize(text)


# --------------------------------- positions against a reference scanner

# A reference scanner of its own: line by line (only \n breaks a line),
# each line up to its `#`, one finditer match per token.
ORACLE_TOKEN = re.compile(r"[{},|()~]|[^\s#{},|()~]+")


def oracle_tokens(text):
    """(kind, text, line, col) of every token of `text`, then eof."""
    tokens = []
    lines = text.split("\n")
    for line_no, line in enumerate(lines, 1):
        code = line.split("#", 1)[0]
        for m in ORACLE_TOKEN.finditer(code):
            word = m.group()
            kind = lang._SPECIALS.get(word) or lang._WORD_KINDS.get(word, "ident")
            tokens.append((kind, word, line_no, m.start() + 1))
    tokens.append(("eof", "", len(lines), len(code) + 1))
    return tokens


def oracle_error(text):
    """The (message, line, col, expected) of the ParseError parse_expr
    must raise on `text`, or None if it must parse. The parser sees only
    the token sequence, so it stops at the same token of the one-line
    respelling (the token texts one space apart), where a column names
    one token plainly; the error then sits at that token of `text`."""
    tokens = oracle_tokens(text)
    flat = " ".join(word for _, word, _, _ in tokens[:-1])
    starts = []
    col = 1
    for _, word, _, _ in tokens[:-1]:
        starts.append(col)
        col += len(word) + 1
    starts.append(len(flat) + 1)
    try:
        lang.parse_expr(flat)
    except ParseError as e:
        assert e.line == 1
        kind, word, line, col = tokens[starts.index(e.col)]
        what = "end of input" if kind == "eof" else "'%s'" % word
        assert e.bare_message == "unexpected " + what
        return (e.bare_message, line, col, e.expected)
    return None


SOUP_PIECES = (
    "two", "even", "a", "x1", "éλ", "or", "and", "|", "~", "(", ")", "{", "}", ",",
    "osum", "proj", "s_cup", "UNDEFINED", "orb",
)
SOUP_GAPS = ("", " ", "  ", "\t", "\n", "\n\t ", " # note\n", "#", "\t#{,\n", "\x0c", "\u3000")


@st.composite
def respaced(draw, tree):
    """A valid expression, maybe with one token dropped or one piece put
    in, and random gaps, comments and line breaks between its tokens."""
    words = [word for _, word, _, _ in oracle_tokens(render(tree))[:-1]]
    at = draw(st.integers(min_value=0, max_value=len(words)))
    edit = draw(st.sampled_from(["keep", "drop", "insert"]))
    if edit == "drop":
        del words[at:at + 1]
    elif edit == "insert":
        words.insert(at, draw(st.sampled_from(SOUP_PIECES)))
    gap = st.sampled_from([g for g in SOUP_GAPS if g and g != "#"])
    return draw(gap) + "".join(word + draw(gap) for word in words)


@given(st.one_of(
    st.lists(st.tuples(st.sampled_from(SOUP_PIECES), st.sampled_from(SOUP_GAPS)),
             min_size=1, max_size=20).map(lambda pairs: "".join(p + g for p, g in pairs)),
    trees(3).flatmap(respaced),
))
def test_tokens_and_parse_errors_sit_where_a_reference_scanner_puts_them(text):
    assert scan(text) == oracle_tokens(text)
    want = oracle_error(text)
    try:
        node = lang.parse_expr(text)
    except ParseError as e:
        assert (e.bare_message, e.line, e.col, e.expected) == want
    else:
        assert want is None
        flat = " ".join(word for _, word, _, _ in oracle_tokens(text)[:-1])
        assert node == lang.parse_expr(flat)


# ------------------------------------------------------- the weight alphabet


def measure_line(weight):
    return "space x\natoms a b\nmeasure m = 1 %s\n" % weight


@pytest.mark.parametrize("weight, message", [
    ("１", "line 3: bad weight '１'"),
    ("١", "line 3: bad weight '١'"),
    ("²", "line 3: bad weight '²'"),
    ("1/²", "line 3: bad weight '1/²'"),
    ("１/2", "line 3: bad weight '１/2'"),
    ("+1", "line 3: bad weight '+1'"),
    ("-0", "line 3: bad weight '-0'"),
    ("1_0", "line 3: bad weight '1_0'"),
    ("1.5", "line 3: bad weight '1.5'"),
    ("1/", "line 3: bad weight '1/'"),
    ("1//2", "line 3: bad weight '1//2'"),
    ("3/0", "line 3: zero denominator in '3/0'"),
])
def test_weights_outside_the_ascii_digits_stay_bad(weight, message):
    """str.isdigit is true for `１`, `١` and `²`, and int() reads the
    first two; a weight is still ASCII digits or nothing."""
    with pytest.raises(BadWeight) as err:
        lang.parse_space(measure_line(weight))
    assert str(err.value) == message


@pytest.mark.parametrize("weight, value", [
    ("01", 1), ("3/6", Fraction(1, 2)), ("0/5", 0), ("007/014", Fraction(1, 2)),
])
def test_weights_read_as_exact_values(weight, value):
    m = lang.parse_space(measure_line(weight)).measures["m"]
    assert m.weights == (1, value)
    assert [type(w) for w in m.weights] == [Fraction, Fraction]


def test_integer_weights_are_read_as_ints_and_fractions_once():
    weights = lang._parse_weights(["0", "01", "3/6", "0/5", "12"], 1)
    assert weights == [0, 1, Fraction(1, 2), 0, 12]
    assert [type(w) for w in weights] == [int, int, Fraction, Fraction, int]


def build_measure(texts, line_no=1):
    """The Measure a measure line's weight texts build, or the error
    building it raises."""
    try:
        return prob.Measure(space_of(len(texts)), lang._parse_weights(texts, line_no))
    except Error as exc:
        return exc


@given(st.lists(st.one_of(
    st.sampled_from(["0", "00", "1", "07", "3/6", "0/5", "2/0", "0/00", "1/", "/2", "1//2",
                     "1/2/3", "１", "²", "+1", "1.5", "-0", "1_0"]),
    st.text(st.sampled_from("0123456789/"), min_size=1, max_size=6),
), min_size=1, max_size=8))
def test_checking_weights_raises_what_building_their_measure_raised(texts):
    """The flat scans at parse time reject exactly the weight lists
    that building a Measure rejected, with the same error (a zero total
    naming its line), and reads no value."""
    built = build_measure(texts, 7)
    if isinstance(built, Error):
        with pytest.raises(type(built)) as err:
            lang._check_weights(texts, 7)
        line = "line 7: " if type(built) is ZeroTotalWeight else ""
        assert str(err.value) == line + str(built)
    else:
        assert lang._check_weights(texts, 7) is None


# The pattern a joined weight list had to match in full before the flat scans.
OLD_WEIGHT = r"[0-9]+(?:/0*[1-9][0-9]*)?"
OLD_WEIGHTS_RE = re.compile(r"%s(?: %s)*" % (OLD_WEIGHT, OLD_WEIGHT))


def weight_lists(max_len):
    """Every string of 1 to max_len characters from `0`, `1`, `/`, `x`
    and single inner spaces."""
    texts = [""]
    for _ in range(max_len):
        texts = [t + c for t in texts for c in "01/x " if c != " " or t[-1:] not in ("", " ")]
        yield from (t for t in texts if t[-1] != " ")


def test_the_flat_weight_scans_accept_what_the_old_pattern_matched(monkeypatch):
    def reject(texts, line_no):
        raise LookupError

    def scanned(joined):
        try:
            lang._check_weights(joined.split(" "), 1)
        except ZeroTotalWeight:
            pass
        except LookupError:
            return False
        return True

    monkeypatch.setattr(lang, "_parse_weights", reject)
    mismatches = [joined for joined in weight_lists(7)
                  if scanned(joined) != (OLD_WEIGHTS_RE.fullmatch(joined) is not None)]
    assert mismatches == []


DIE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "die.cs"

# 64 atoms and four measures of integer, `p/q` and zero weights.
G64 = "space g\natoms %s\n%s" % (
    " ".join("a%d" % i for i in range(64)),
    "".join("measure m%d = %s\n" % (k, " ".join(
        ("0", str(i + k), "%d/%d" % (i, k + 7))[(i + k) % 3] for i in range(64)))
        for k in range(4)),
)


def eager_measures(text):
    """The measures of a space file, each built at once from its line's
    weight texts, in file order."""
    return {words[1]: build_measure(words[3:])
            for words in (line.split("#")[0].split() for line in text.splitlines())
            if words[:1] == ["measure"]}


@pytest.mark.parametrize("name", ["die", "g64"])
def test_parse_space_builds_no_measure_and_a_read_builds_one(built, name):
    text = DIE.read_text(encoding="utf-8") if name == "die" else G64
    names = [line.split()[1] for line in text.splitlines() if line.startswith("measure")]
    doc = lang.parse_space(text)
    assert built == []
    assert list(doc.measures) == names and len(doc.measures) == len(names)
    assert names[-1] in doc.measures and "nope" not in doc.measures
    assert doc.measures.get("nope") is None and built == []
    m = doc.measures[names[-1]]
    assert built == [m] and doc.measures.get(names[-1]) is m
    assert dict(doc.measures.items())[names[-1]] is m
    assert len(built) == len(names)


def test_an_unread_space_doc_reprs_as_one_built_eagerly():
    doc = lang.parse_space(G64)
    eager = lang.SpaceDoc(doc.name, doc.space, doc.events, eager_measures(G64))
    assert repr(doc) == repr(eager)
    assert repr(doc.measures) == repr(eager.measures)


def test_an_unread_space_doc_survives_copy_deepcopy_and_pickle(built):
    doc = lang.parse_space(G64)
    twins = [copy.copy(doc), copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))]
    assert built == []
    for twin in twins:
        assert list(twin.measures) == list(doc.measures)
        for name, want in eager_measures(G64).items():
            assert twin.measures[name].weights == want.weights
            assert twin.measures[name].total == want.total


def test_a_read_space_doc_survives_pickle_and_deepcopy():
    doc = lang.parse_space(G64)
    m0 = doc.measures["m0"]
    want = m0.weight_bits(5), m0.weight_bits(0x1FF), m0.weight_bits(doc.space.full_bits)
    for twin in (pickle.loads(pickle.dumps(doc)), copy.deepcopy(doc)):
        assert list(twin.measures) == list(doc.measures)
        t0 = twin.measures["m0"]
        assert (t0.weights, t0.total, repr(t0)) == (m0.weights, m0.total, repr(m0))
        assert (t0.weight_bits(5), t0.weight_bits(0x1FF),
                t0.weight_bits(doc.space.full_bits)) == want


def test_a_copy_of_the_measures_is_a_mapping_of_its_own(built):
    doc = lang.parse_space(G64)
    for twin in (copy.copy(doc.measures), doc.measures.copy()):
        twin["extra"] = twin["m0"]
        del twin["m1"]
        assert list(twin) == ["m0", "m2", "m3", "extra"]
    assert list(doc.measures) == ["m0", "m1", "m2", "m3"]
    assert len(built) == 2
    assert doc.measures["m0"] not in built[:2] and len(built) == 3


# --------------------------------------- parse errors against a golden table

# Every row is [kind, text, exception type, message, line, col, expected]
# for a malformed expression ("expr") or space file ("space"), recorded
# when the parser still called a method per token and built a Token per
# token. The last five rows, recorded before event lines were lowered
# straight to bits, are event lines whose first error is not the first
# met: a set literal and then more, a reserved word in braces, a syntax
# error after an unknown name, and `|` after one. The three rows of an
# unknown name or atom on an event line, and the all-zero measure line's
# row, were changed to name their line.
GOLDEN_PARSE_ERRORS = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "parse_errors.json"


def parse_error_row(kind, text):
    parse = lang.parse_expr if kind == "expr" else lang.parse_space
    with pytest.raises(Error) as err:
        parse(text)
    e = err.value
    return [kind, text, type(e).__name__, str(e), getattr(e, "line", None),
            getattr(e, "col", None), list(getattr(e, "expected", ()))]


def test_parse_errors_match_the_golden_table():
    golden = json.loads(GOLDEN_PARSE_ERRORS.read_text(encoding="utf-8"))
    assert len(golden) == 85
    assert [parse_error_row(kind, text) for kind, text, *_ in golden] == golden


# ------------------------------- generated space files against a reference


@st.composite
def space_files(draw):
    """A space file of 1-64 atoms with set-literal and compound events and
    measures of integer, `p/q` and zero weights, spaced (with any
    whitespace that does not break a line) and commented at random, its
    lines ended by one of the three line breaks. Returns the text, {event: bits} and {measure: weight
    texts}."""
    n = draw(st.integers(min_value=1, max_value=64))
    atoms = ["a%d" % i for i in range(n)]
    gap = st.sampled_from([" ", "  ", "\t", " \t "] + list(EXOTIC_SPACE))
    comment = st.sampled_from(["", " # note", "#", "\t# { , }", " #\x0c\u2028"])
    lines = ["space s" + draw(comment), "atoms" + "".join(draw(gap) + a for a in atoms)]
    events = {}
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        name = "e%d" % i
        if not events or draw(st.booleans()):
            members = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n))
            text = "{%s}" % ("," + draw(gap)).join(atoms[j] for j in members)
            bits = sum(1 << j for j in set(members))
        else:
            refs = draw(st.lists(st.sampled_from(sorted(events) + atoms), min_size=3, max_size=3))
            bits_of = [events[r] if r in events else 1 << atoms.index(r) for r in refs]
            text = "(%s or %s) and ~%s" % tuple(refs)
            bits = (bits_of[0] | bits_of[1]) & ~bits_of[2] & ((1 << n) - 1)
        events[name] = bits
        lines.append("event %s =%s%s%s" % (name, draw(gap), text, draw(comment)))
    weight = st.one_of(
        st.just("0"),
        st.integers(min_value=0, max_value=10**20).map(str),
        st.tuples(st.integers(min_value=0, max_value=99), st.integers(min_value=1, max_value=99))
        .map("%d/%d".__mod__),
    )
    measures = {}
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        texts = draw(st.lists(weight, min_size=n, max_size=n))
        if all(Fraction(t) == 0 for t in texts):
            texts[0] = "1"
        measures["m%d" % i] = texts
        lines.append("measure m%d =%s%s" % (i, "".join(draw(gap) + t for t in texts),
                                             draw(comment)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline, events, measures


@given(space_files())
def test_generated_space_files_parse_to_their_events_and_weights(case):
    text, events, measures = case
    doc = lang.parse_space(text)
    assert {name: e.bits for name, e in doc.events.items()} == events
    assert list(doc.measures) == list(measures)
    every = dict(doc.measures.items())
    for name, texts in measures.items():
        want = tuple(Fraction(t) for t in texts)
        # The measure read from a fresh parse, with every other one unread.
        alone = lang.parse_space(text).measures[name]
        for m in (every[name], alone):
            assert m.weights == want
            assert m.total == sum(want)


# ------------------------------------ one lowering path, and its reference

# Atom `c` is shadowed by an event of that name; `zz` names nothing and
# `z` is no atom, so a tree that uses either is an error.
SHADOW_SPACE = (
    "space s\natoms a b c d e f\nevent even = {b, d, f}\nevent c = {a}\nevent odd = ~even\n")
# The line of an event line put after SHADOW_SPACE.
SHADOW_LINE = SHADOW_SPACE.count("\n") + 1
BODY_NAMES = ("a", "b", "c", "d", "e", "f", "even", "odd", "c", "zz")
SET_NAMES = ("a", "b", "c", "d", "e", "f", "a", "z", "even")
BODY_GAPS = ("", " ", "  ", "\t", "\x0c", "\u3000", "\xa0", " \t\x0c ")
WORD_GAPS = BODY_GAPS[1:]
EVENT_INFIX = {"or": 1, "and": 2, "|": 0}
CONDITIONAL_FUNCS = ("osum", "proj", "s_and", "s_or", "s_cap", "s_cup")
# Stray text put into a body: tokens that break the grammar, and a `#`
# that cuts the rest.
STRAYS = ("(", ")", ",", "{", "}", "|", "or", "and", "~", "s_cup", "UNDEFINED", "zz", "#")


# The tree walkers that `lower_event` and `lower` were before lowering had
# one path, kept as the reference the one path must answer as.

def reference_lower_event(expr, space, events):
    try:
        if isinstance(expr, lang.EventRef):
            if expr.name in events:
                return events[expr.name]
            try:
                return space.atom(expr.name)
            except UnknownAtom:
                raise UnknownName(
                    "%r names neither an event nor an atom" % (expr.name,)) from None
        if isinstance(expr, lang.Binary):
            op = {"or": operator.or_, "and": operator.and_}.get(expr.op)
            if op is not None:
                return op(reference_lower_event(expr.left, space, events),
                          reference_lower_event(expr.right, space, events))
        elif isinstance(expr, lang.SetLiteral):
            return space.event(expr.names)
        elif isinstance(expr, lang.Not):
            return reference_lower_event(expr.arg, space, events).complement()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None
    raise ParseError("conditional operators are not allowed here")


REFERENCE_FUNCS = {"osum": cnd.osum, "proj": cnd.sasaki, "s_and": schay.and_s,
                   "s_or": schay.vee_s, "s_cap": schay.cap_s, "s_cup": schay.cup_s}
REFERENCE_OPS = {"given": "given", "or": "or_", "and": "and_"}


def reference_lower(expr, space, events):
    try:
        if isinstance(expr, (lang.EventRef, lang.SetLiteral)):
            return cnd.make(reference_lower_event(expr, space, events), space.full)
        if isinstance(expr, lang.Undefined):
            return cnd.undefined(space)
        if isinstance(expr, lang.Not):
            return cnd.negate(reference_lower(expr.arg, space, events))
        if isinstance(expr, lang.Binary):
            op = REFERENCE_FUNCS.get(expr.op) or getattr(cnd, REFERENCE_OPS[expr.op])
            return op(reference_lower(expr.left, space, events),
                      reference_lower(expr.right, space, events))
    except RecursionError:
        raise ParseError("expression nests too deeply") from None
    raise TypeError("not an expression node: %r" % (expr,))


def reference_path(doc, text):
    """A request expression parsed to a tree and lowered by the reference."""
    return reference_lower(lang.parse_expr(text), doc.space, doc.events)


def reference_event_line(doc, body):
    """The event of `event x = body` after doc's lines, or its error, as
    parse_space made it by parsing the body to a tree and lowering it
    with the reference: a syntax error keeps its column in the line, a
    ParseError of the lowering is placed at the line's start, and any
    other error is prefixed with the line's number."""
    body = (" " + body).split("#")[0]
    if not body.split():
        raise ParseError("usage: event NAME = ...", SHADOW_LINE, 1)
    try:
        node = lang.parse_expr(body)
    except ParseError as e:
        col = (e.col or 1) + len("event x =")
        raise ParseError(e.bare_message, SHADOW_LINE, col, e.expected) from None
    try:
        return reference_lower_event(node, doc.space, doc.events)
    except ParseError as e:
        raise ParseError(e.bare_message, SHADOW_LINE, 1) from None
    except Error as e:
        raise type(e)("line %d: %s" % (SHADOW_LINE, e)) from None


def outcome(fn):
    """What fn returns, with its space and the types of its bits, or the
    type and text of what it raises."""
    try:
        x = fn()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(x, Event):
        return type(x), x.space, type(x.bits), x.bits
    return type(x), x.space, type(x.q), x.q, type(x.c), x.c


def event_trees(depth):
    leaves = st.one_of(
        st.sampled_from(BODY_NAMES).map(lambda name: ("ref", name)),
        st.lists(st.sampled_from(SET_NAMES), max_size=6).map(lambda names: ("set", tuple(names))),
        st.just(("UNDEFINED",)),
    )
    if depth == 0:
        return leaves
    sub = event_trees(depth - 1)
    return st.one_of(
        leaves,
        sub.map(lambda arg: ("not", arg)),
        st.tuples(st.sampled_from(("or", "and", "or", "and", "|", "osum")), sub, sub),
    )


def lowers_as_an_event(tree):
    """Whether the reference lowers the tree to an event without error."""
    kind = tree[0]
    if kind == "ref":
        return tree[1] != "zz"
    if kind == "set":
        return "z" not in tree[1] and "even" not in tree[1]
    if kind == "not":
        return lowers_as_an_event(tree[1])
    if kind in ("or", "and"):
        return lowers_as_an_event(tree[1]) and lowers_as_an_event(tree[2])
    return False


@st.composite
def bodies(draw, trees):
    """A body drawn from `trees` and its tree: minimally parenthesized,
    with whitespace of every kind between tokens and around set-literal
    names."""
    tree = draw(trees)

    def gap(gaps=BODY_GAPS):
        return draw(st.sampled_from(gaps))

    def text(tree, need=0):
        kind = tree[0]
        if kind in ("ref", "UNDEFINED"):
            return tree[-1]
        if kind == "set":
            return "{%s}" % (",".join(gap() + name + gap() for name in tree[1]) or gap())
        if kind == "not":
            level, body = 3, "~" + gap() + text(tree[1], 3)
        elif kind in EVENT_INFIX:
            level = EVENT_INFIX[kind]
            body = text(tree[1], level) + gap(WORD_GAPS) + kind + gap(WORD_GAPS) + text(
                tree[2], level + 1)
        else:
            return "%s(%s,%s%s)" % (kind, text(tree[1]), gap(), text(tree[2]))
        return "(" + gap() + body + gap() + ")" if level < need else body

    return gap() + text(tree) + gap(), tree


@st.composite
def with_strays(draw, bodies):
    """A body drawn from `bodies`, at times with stray text put in
    anywhere, and its tree, or None for a body with strays."""
    body, tree = draw(bodies)
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(body)))
        body = body[:at] + draw(st.sampled_from(BODY_GAPS)) + draw(
            st.sampled_from(STRAYS)) + body[at:]
        tree = None
    return body, tree


def event_bodies():
    return bodies(event_trees(3))


@given(with_strays(event_bodies()))
def test_event_lines_lower_as_the_reference(case):
    """An event line defines the reference's event or raises its error,
    type and text included; `lower_event` folds a tree to the reference's
    event or error."""
    body, tree = case
    doc = lang.parse_space(SHADOW_SPACE)
    want = outcome(lambda: reference_event_line(doc, body))
    line = SHADOW_SPACE + "event x = %s\n" % body
    assert outcome(lambda: lang.parse_space(line).events["x"]) == want
    if tree is not None:
        assert (want[0] is Event) == lowers_as_an_event(tree)
    try:
        node = lang.parse_expr(body)
    except ParseError:
        return
    assert outcome(lambda: lang.lower_event(node, doc.space, doc.events)) == outcome(
        lambda: reference_lower_event(node, doc.space, doc.events))


@pytest.mark.parametrize("seed", [1, 7])
def test_every_event_line_of_the_query_space_files_lowers_with_no_tree(
        seed, query_inputs, monkeypatch):
    lowered = 0
    for path in query_inputs(seed)["spaces"]:
        text = pathlib.Path(path).read_text(encoding="utf-8")
        doc = lang.parse_space(text)
        events = {}
        for line in text.splitlines():
            line = line.split("#")[0]
            if line.split()[:1] != ["event"]:
                continue
            name, body = line.split()[1], line.split("=", 1)[1]
            events[name] = reference_lower_event(lang.parse_expr(body), doc.space, events)
            assert doc.events[name] == events[name]
            lowered += 1
        # Not one event line of these files is parsed to a tree.
        calls = []
        monkeypatch.setattr(lang, "parse_expr", lambda text: calls.append(text))
        assert lang.parse_space(text).events == doc.events
        assert calls == []
        monkeypatch.undo()
    assert lowered == 6 + 8 + 12


def test_a_long_flat_chain_on_an_event_line_still_nests_too_deeply():
    """The builders would read the chain in a loop; its left-deep tree is
    too deep to fold, and that error stands."""
    text = "space x\natoms a b\nevent e = %s\n" % " or ".join(["a"] * 1200)
    with pytest.raises(ParseError) as err:
        lang.parse_space(text)
    assert str(err.value) == "line 3, column 1: expression nests too deeply"


@pytest.mark.parametrize("body, error", [
    ("a or zzz )", "ParseError: line 3, column 20: unexpected ')' "
                   "(expected an operator, end of input)"),
    ("{zzz} | a", "ParseError: line 3, column 1: conditional operators are not allowed here"),
    ("zzz or (a | b)", "UnknownName: line 3: 'zzz' names neither an event nor an atom"),
    ("zzz or {z}", "UnknownName: line 3: 'zzz' names neither an event nor an atom"),
    ("{z} or zzz", "UnknownAtom: line 3: unknown atom: 'z'"),
])
def test_an_event_line_reports_its_first_error_in_pre_order(body, error):
    """A syntax error anywhere wins; then an operator's own check, then
    its left operand's error, then its right operand's."""
    with pytest.raises(Error) as err:
        lang.parse_space("space x\natoms a b\nevent e = %s\n" % body)
    assert "%s: %s" % (type(err.value).__name__, err.value) == error


def conditional_trees(depth):
    """Trees over SHADOW_SPACE's names with all nine binary operators."""
    if depth == 0:
        return event_trees(0)
    sub = conditional_trees(depth - 1)
    return st.one_of(
        sub,
        sub.map(lambda arg: ("not", arg)),
        st.tuples(st.sampled_from(tuple(EVENT_INFIX) + CONDITIONAL_FUNCS), sub, sub),
    )


@given(with_strays(bodies(conditional_trees(3))))
def test_request_expressions_lower_as_the_reference(case):
    """SpaceDoc.lower gives the reference's Conditional, with its space
    and operand types, or raises its error, type and text included, and
    `lower` folds the tree to the same."""
    body, _ = case
    doc = lang.parse_space(SHADOW_SPACE)
    want = outcome(lambda: reference_path(doc, body))
    assert outcome(lambda: doc.lower(body)) == want
    try:
        node = lang.parse_expr(body)
    except ParseError:
        return
    assert outcome(lambda: lang.lower(node, doc.space, doc.events)) == want


def test_foreign_events_and_long_texts_lower_as_the_reference(monkeypatch):
    """Events of another space, equal or not, a value that is not an
    event, and texts on both sides of the token bound. A leaf keeps its
    event's space, and an operator its left operand's. A text past the
    bound is parsed to a tree; one at it is not."""
    doc = lang.parse_space(SHADOW_SPACE)
    other = lang.parse_space(SHADOW_SPACE)
    doc.events["alien"] = other.events["even"]
    doc.events["cond"] = doc.lower("a | b")
    doc.events["far"] = lang.parse_space("space t\natoms x\nevent e = {x}\n").events["e"]
    at_bound, past_bound = "a" + " or a" * 63, "a" + " or a" * 64
    assert len(lang._scan(at_bound)[0]) == lang._Events.most_tokens
    for text in ("alien", "alien or a", "a or alien", "~alien", "cond or a", "far", "a and far",
                 at_bound, past_bound, "alien" + " or a" * 64):
        assert outcome(lambda: doc.lower(text)) == outcome(lambda: reference_path(doc, text))
    assert doc.lower("alien or a").space is other.space
    assert doc.lower("a or alien").space is doc.space
    for text, trees in ((at_bound, []), (past_bound, [lang._Parser])):
        read, reads = lang._Parser.read, []
        monkeypatch.setattr(lang._Parser, "read",
                            lambda self, *args: reads.append(type(self)) or read(self, *args))
        assert doc.lower(text) == cnd.Conditional(doc.space, 1, doc.space.full_bits)
        assert reads == [lang._Conditionals] + trees
        monkeypatch.undo()


# Operands whose conditions differ from each other's, and one, `~(b|a)`,
# that negates a conditional whose condition is the first atom alone:
# where the odd kernels misbehave.
ODD_OPERANDS = ("a | a", "b | {a, b}", "~(b | a)", "UNDEFINED", "even", "c | odd")
ODD_TEXTS = [
    text
    for left in ODD_OPERANDS for right in ODD_OPERANDS
    for text in ["(%s) %s (%s)" % (left, op, right) for op in EVENT_INFIX]
    + ["%s(%s, %s)" % (op, left, right) for op in CONDITIONAL_FUNCS]
] + ["~(%s)" % text for text in ODD_OPERANDS] + [
    "s_cup(~(b | a), osum(a | c, even) | proj(UNDEFINED, odd)) and ~(c | a)",
    "zz or (a | b)", "(a | b) or (", "s_and(a | b, {a, z})",
]
# The kernel each operator of a tree calls.
KERNEL_OF = {"given": "given_bits", "or": "or_bits", "and": "and_bits", "osum": "osum_bits",
             "proj": "sasaki_bits", "s_and": "sand_bits", "s_or": "vee_bits",
             "s_cap": "cap_bits", "s_cup": "cup_bits"}


def odd_kernel_cases():
    """(module, kernel name, kernel) for each odd result in each of the
    ten kernels, and for each of the 90 table mutants."""
    from test_relations import ODD_RESULTS

    def odd(module, name, result):
        base = getattr(module, name)
        if name == "not_bits":
            return lambda q, c: result((q, c), *base(q, c)) if c == 1 else base(q, c)
        return lambda q1, c1, q2, c2: (result((q1, c1, q2, c2), *base(q1, c1, q2, c2))
                                       if c1 != c2 else base(q1, c1, q2, c2))

    kernels = [(cnd, name) for name in ("given_bits", "or_bits", "and_bits", "not_bits",
                                        "osum_bits", "sasaki_bits")]
    kernels += [(schay, name) for name in ("sand_bits", "vee_bits", "cap_bits", "cup_bits")]
    cases = [(module, name, odd(module, name, result))
             for module, name in kernels for result in ODD_RESULTS.values()]
    mutants = perfbench_module("mutants")
    full = lang.parse_space(SHADOW_SPACE).space.full_bits
    return cases + [(cnd, spec[0], mutants.build(spec, full)) for spec in mutants.specs()]


def operands_by_kernel(node):
    """(kernel name, operands) of every operator node of a tree."""
    if isinstance(node, lang.Not):
        yield "not_bits", (node.arg,)
        yield from operands_by_kernel(node.arg)
    elif isinstance(node, lang.Binary):
        yield KERNEL_OF[node.op], (node.left, node.right)
        yield from operands_by_kernel(node.left)
        yield from operands_by_kernel(node.right)


def test_request_expressions_answer_as_the_reference_under_odd_kernels(monkeypatch):
    """Under a kernel that raises or returns a list, a 3-tuple or a pair
    outside normal form where conditions differ, and under each table
    mutant, SpaceDoc.lower returns or raises what the reference does,
    with the same type and message. It calls the kernel once for each of
    its operator nodes whose operands lower, and for no other."""
    doc = lang.parse_space(SHADOW_SPACE)
    cases = odd_kernel_cases()
    assert len(cases) == 4 * 10 + 90
    trees = {}
    for text in ODD_TEXTS:
        try:
            trees[text] = lang.parse_expr(text)
        except ParseError:
            pass
    faults = 0
    for module, name, kernel in cases:
        calls = []
        monkeypatch.setattr(module, name, lambda *bits: calls.append(bits) or kernel(*bits))
        for text in ODD_TEXTS:
            want = outcome(lambda: reference_path(doc, text))
            del calls[:]
            assert outcome(lambda: doc.lower(text)) == want, (name, text)
            faults += want[0] is not cnd.Conditional
            if text not in trees:
                continue
            made = len(calls)
            nodes = [operands for kernel_name, operands in operands_by_kernel(trees[text])
                     if kernel_name == name]
            assert made == sum(
                all(outcome(lambda: reference_lower(o, doc.space, doc.events))[0]
                    is cnd.Conditional for o in operands) for operands in nodes), (name, text)
        monkeypatch.undo()
    # The kernels answer most texts and make some fail.
    assert 0 < faults < len(cases) * len(ODD_TEXTS) / 2


@pytest.mark.parametrize("seed", [1, 7])
def test_no_request_expression_of_the_query_streams_goes_through_the_tree(
        seed, query_inputs, monkeypatch, capsys):
    """No `eval`, `relate`, `profile` or `prob --formula direct` request
    of the benchmark's `query` stream that succeeds calls parse_expr."""
    from boolfrac import cli

    parse_expr, calls = lang.parse_expr, []
    monkeypatch.setattr(lang, "parse_expr", lambda text: calls.append(text) or parse_expr(text))
    lowered = 0
    for argv, answer in query_inputs(seed)["requests"]:
        del calls[:]
        code = cli.main(argv)
        capsys.readouterr()
        assert code == answer["code"]
        options = dict(zip(argv[1::2], argv[2::2]))
        if code == 0 and (argv[0] in ("eval", "relate", "profile")
                          or argv[0] == "prob" and options.get("--formula") in (None, "direct")):
            assert calls == [], argv
            lowered += 1
    assert lowered > 800


# -------------------------- file measures against Fractions of their texts

def measure_fields(m):
    full = m.space.full_bits
    bits = (0, 1, 5 & full, full >> 1, full)
    return (type(m), m.space, m._scale, m._scaled, m.total, repr(m), m.weights,
            [m.weight_bits(b) for b in bits])


def assert_built_as_the_constructor_builds(space, texts):
    """The Measure of a measure line's weight texts equals the one the
    public constructor builds from `Fraction` of each text, which shares
    no code with `_parse_weights`: field by field, in pickle and after a
    pickle round trip."""
    got = lang._Measures(space, {"m": (texts, 1)})["m"]
    want = prob.Measure(space, [Fraction(text) for text in texts])
    assert pickle.dumps(got) == pickle.dumps(want)
    assert [type(s) for s in got._scaled] == [int] * space.n and type(got._scale) is int
    assert measure_fields(got) == measure_fields(want)
    assert pickle.dumps(got) == pickle.dumps(want)
    assert measure_fields(pickle.loads(pickle.dumps(got))) == measure_fields(want)


@pytest.mark.parametrize("seed", [1, 7])
def test_every_measure_line_of_the_query_files_builds_as_the_constructor(seed, query_inputs):
    lines = 0
    for path in query_inputs(seed)["spaces"]:
        doc = lang.parse_space(pathlib.Path(path).read_text(encoding="utf-8"))
        for texts, _ in doc.measures._entries.values():
            assert_built_as_the_constructor_builds(doc.space, texts)
            lines += 1
    assert lines >= 4


WEIGHT_TEXTS = st.one_of(
    st.sampled_from(["0", "01", "3/6", "0/5", "007/014", "1", "0" * 30, "9" * 30]),
    st.integers(min_value=0, max_value=10**30).map(str),
    st.tuples(st.integers(min_value=0, max_value=10**30),
              st.integers(min_value=1, max_value=10**30)).map("%d/%d".__mod__),
    st.tuples(st.sampled_from(["", "0", "000"]), st.integers(min_value=0, max_value=99),
              st.sampled_from(["", "/", "/0", "/00"]), st.integers(min_value=1, max_value=99))
    .map(lambda t: t[0] + str(t[1]) + (t[2] + str(t[3]) if t[2] else "")),
)


@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(WEIGHT_TEXTS, min_size=n, max_size=n)))
def test_weight_texts_build_as_the_constructor(texts):
    if all(Fraction(text) == 0 for text in texts):
        texts = ["1"] + texts[1:]
    assert_built_as_the_constructor_builds(space_of(len(texts)), texts)
