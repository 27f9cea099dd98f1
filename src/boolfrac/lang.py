"""A small expression language for conditionals, plus space files.

Expression grammar, loosest binding first (all binary operators are
left-associative):

    expr   := or_ ("|" or_)*          conditioning
    or_    := and_ ("or" and_)*
    and_   := not_ ("and" not_)*
    not_   := "~" not_ | primary
    primary:= NAME | "UNDEFINED" | setlit | "(" expr ")"
            | FUNC "(" expr "," expr ")"
    setlit := "{" [NAME ("," NAME)*] "}"

The three infix levels are the rows of `_INFIX`, and FUNC is one of
`FUNC_NAMES` (osum, proj, s_and, s_or, s_cap, s_cup); each of the nine
parses to one `Binary` node. `UNDEFINED` is the literal U, the text
`format_conditional` prints for it, so every conditional it prints
parses back; it lowers to U and is not an event. The words `and`, `or`,
`UNDEFINED` and the function names are reserved: an expression cannot
refer to them, so a space file rejects them as atom, event and measure
names. An expression nested deeper than the interpreter's recursion
limit is a ParseError, not a crash, and so is a tree too deep to lower
or dump (a long flat chain such as `a or a or ... or a` parses in a
loop but nests to the left).
A bare NAME refers to a named event if the space defines one,
otherwise to the atom of that name. Every leaf lowers to the conditional
(event | whole space), so plain Boolean formulas come out with the full
space as condition and `a | b` produces the ordinary conditional event.

Space files are line-oriented UTF-8 with `#` comments. A line ends at
\\n, \\r\\n or \\r; any other whitespace, such as \\x0c or \\u2028,
separates words within a line, as it does in an expression:

    space die
    atoms 1 2 3 4 5 6
    event even = {2,4,6}
    event boost = even or {1}     # may use earlier event names
    measure uniform = 1 1 1 1 1 1

Weights are nonnegative integers or fractions `p/q`, written in ASCII
digits, one per atom, not all zero, and none with more digits than the
interpreter reads. parse_space checks every measure line when it reads
it, so a bad weight, a zero denominator, a wrong weight count, a
duplicate name or an all-zero line is an error at parse time that names
its line, in line order with the other lines. The weights are checked
by flat scans over the joined list, and read one by one only to word an
error or if one has over 640 digits; an `atoms` line is searched once
for a reserved character. Of a measure line parse_space keeps only the
weight texts and number: a Measure, with its weight table if it has
one, is built from them the first time its name is read from
`SpaceDoc.measures`, which is a dict of Measures to its readers, and
kept there: `_parse_weights` reads each text as an int or one Fraction,
and the Measure constructor takes the list, as it takes any caller's.
That first read is also where `prob`, with `fractions` and `decimal`,
is imported: parsing a space file and lowering, evaluating or relating
its expressions import neither, so the CLI's `eval`, `relate` and
`profile` never load them.

Text is read by one scan, `_scan`: comments cut, then one
`_TOKEN_RE.findall` and one `map` over the words for their kinds, all
in C. It yields two parallel lists, the kinds and the texts, with no
positions; `_Parser` walks them by index, with no method call and no
object per token. Positions are needed only by an error, so
`_Parser.fail` scans the text again with `_located`, line by line, and
takes its position and its "unexpected ..." text from the token it
stopped at. `tokenize`, the public view
of the scan, wraps `_located`'s tuples in `Token`s.

Lowering has one set of rules: the builders of `_Events`, which make an
event's bits, and of `_Conditionals`, which make a conditional with the
bit kernels. `_Parser` reads a text with either set, as it reads it with
the tree nodes for parse_expr, and lower_event and lower fold a tree
through them. A builder returns an error as its value, a fault, and a
node passes up the first fault of its own check, its operands and its
kernel, in the tree's pre-order. A syntax error raises at once, a fault
once the whole text has parsed. A text of more than 128 tokens is
folded from its tree, so a flat chain too deep to fold stays an error.
"""

import operator
import re
from collections.abc import MutableMapping
from itertools import repeat

from . import conditional as cnd
from . import schay
from ._record import Record
from .errors import (
    BadWeight,
    DuplicateName,
    ParseError,
    SpaceMismatch,
    TooLarge,
    UnknownAtom,
    UnknownName,
    ZeroTotalWeight,
)
from .space import RESERVED_CHARS, Event, SampleSpace, valid_atom_name

_SPECIALS = {
    "{": "lbrace",
    "}": "rbrace",
    ",": "comma",
    "|": "pipe",
    "(": "lparen",
    ")": "rparen",
    "~": "tilde",
}

# Infix operators, loosest first: token kind, the word `dump` prints and
# its meaning in an event definition, if it has one.
_INFIX = (
    ("pipe", "given", None),
    ("or", "or", operator.or_),
    ("and", "and", operator.and_),
)
_INFIX_LEVEL = {kind: level for level, (kind, *_) in enumerate(_INFIX)}
# The floor of `expr` past every infix level: an operand alone.
_OPERAND = len(_INFIX)
_EVENT_OPS = {op: fn for _, op, fn in _INFIX if fn is not None}

# The bit kernel of each function and, in `_KERNELS`, of every operator,
# as (module, name): the lowering builders look it up when they call it,
# as the `conditional` and `schay` operations do, so a replaced kernel
# (a mutant, a tracer) is seen.
_FUNC_OPS = {
    "osum": (cnd, "osum_bits"), "proj": (cnd, "sasaki_bits"),
    "s_and": (schay, "sand_bits"), "s_or": (schay, "vee_bits"),
    "s_cap": (schay, "cap_bits"), "s_cup": (schay, "cup_bits"),
}
FUNC_NAMES = tuple(_FUNC_OPS)
_KERNELS = {**_FUNC_OPS, "not": (cnd, "not_bits"), "given": (cnd, "given_bits"),
            "or": (cnd, "or_bits"), "and": (cnd, "and_bits")}

# The reserved words and the token kind each one lexes to.
_UNDEFINED = "UNDEFINED"
_WORD_KINDS = dict.fromkeys(FUNC_NAMES, "func")
_WORD_KINDS.update((kind, kind) for kind, *_ in _INFIX if kind not in _SPECIALS.values())
_WORD_KINDS[_UNDEFINED] = "undefined"
RESERVED_WORDS = frozenset(_WORD_KINDS)


class Token(Record):
    __slots__ = _fields = ("kind", "text", "line", "col")

    def describe(self):
        return "end of input" if self.kind == "eof" else "'%s'" % self.text


# A token is a special character or a word: a run of characters that are
# none of those, not `#` and not whitespace. A comment runs from `#` to
# the end of its line. findall skips the whitespace.
_SPECIAL_CLASS = re.escape("".join(_SPECIALS))
_TOKEN_RE = re.compile(r"[%s]|[^\s#%s]+" % (_SPECIAL_CLASS, _SPECIAL_CLASS))
_COMMENT_RE = re.compile(r"#[^\n]*")
_TOKEN_KINDS = {**_SPECIALS, **_WORD_KINDS}


def _scan(text):
    """The kinds and the texts of the tokens of `text`, as two lists of
    one length, each ending with eof: the form the parser walks. It
    keeps no positions; `_located` finds them when an error needs them."""
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    words = _TOKEN_RE.findall(text)
    kinds = list(map(_TOKEN_KINDS.get, words, repeat("ident")))
    kinds.append("eof")
    words.append("")
    return kinds, words


def _located(text):
    """The tokens of `_scan(text)`, in the same order, as (kind, text,
    line, col) tuples: line by line, each line up to its `#`."""
    tokens = []
    kind_of = _TOKEN_KINDS.get
    for line_no, line in enumerate(text.split("\n"), 1):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        tokens += [(kind_of(m[0], "ident"), m[0], line_no, m.start() + 1)
                   for m in _TOKEN_RE.finditer(line)]
    tokens.append(("eof", "", line_no, len(line) + 1))
    return tokens


def tokenize(text):
    """Tokens with 1-based line and column; a column counts code points.
    Only \\n starts a line. The eof token sits at the end of the text or,
    after a trailing comment, where the comment starts."""
    return [Token(*tok) for tok in _located(text)]


# Abstract syntax. Leaves name events; the operators mirror the algebra.
# A Binary node's `op` is the word `dump` prints: given (for `|`), or,
# and, or the function name.

class EventRef(Record):
    __slots__ = _fields = ("name",)


class SetLiteral(Record):
    __slots__ = _fields = ("names",)


class Undefined(Record):
    """The literal U."""

    __slots__ = ()


class Not(Record):
    __slots__ = _fields = ("arg",)


class Binary(Record):
    __slots__ = _fields = ("op", "left", "right")


class _Parser:
    """Recursive descent over the scan's kinds and texts; `pos` indexes
    the next token, and `text` is kept to locate an error. The five
    builders are attributes: here the tree nodes, and in `_Events` and
    `_Conditionals` the lowering builders, which `fold` also applies to
    a tree."""

    EventRef, Not, Binary, Undefined, SetLiteral = EventRef, Not, Binary, Undefined, SetLiteral
    most_tokens = float("inf")

    def read(self, text, scan=None):
        """The builders' value of the whole text, which may be a fault; a
        text of more than `most_tokens` tokens is folded from its tree,
        which is read from the same `scan`."""
        self.text = text
        self.kinds, self.words = scan = scan or _scan(text)
        self.pos = 0
        if len(self.kinds) > self.most_tokens:
            return self.fold(_Parser().read(text, scan))
        try:
            value = self.expr()
        except RecursionError:
            raise ParseError(_TOO_DEEP) from None
        if self.kinds[self.pos] != "eof":
            self.fail({"end of input", "an operator"})
        return value

    def fold(self, node):
        """The builders' value of a tree, in `read`'s order. A level that
        runs out of stack is a fault, in pre-order with the others."""
        try:
            if isinstance(node, Binary):
                return self.Binary(node.op, self.fold(node.left), self.fold(node.right))
            if isinstance(node, Not):
                return self.Not(self.fold(node.arg))
            if isinstance(node, EventRef):
                return self.EventRef(node.name)
            if isinstance(node, SetLiteral):
                return self.SetLiteral(node.names)
            if isinstance(node, Undefined):
                return self.Undefined()
        except RecursionError:
            return ParseError(_TOO_DEEP)
        raise TypeError("not an expression node: %r" % (node,))

    def fail(self, expected):
        tok = Token(*_located(self.text)[self.pos])
        raise ParseError("unexpected %s" % tok.describe(), tok.line, tok.col, expected)

    def expect(self, kind, what):
        if self.kinds[self.pos] != kind:
            self.fail({what})
        self.pos += 1

    def expr(self, floor=0):
        """An operand, then every infix operator of level `floor` or
        tighter (the rows of `_INFIX` from `floor` on), each
        left-associative: one precedence-climbing loop. An operand is a
        name, prefix `~` applied to an operand, or `primary`. A nesting
        level costs frames: a `~` one, a parenthesis two (this and
        `primary`) and the right operand of an infix operator one; the
        depth at which parse_expr reports nesting depends on that."""
        kinds = self.kinds
        kind = kinds[self.pos]
        if kind == "ident":
            node = self.EventRef(self.words[self.pos])
            self.pos += 1
        elif kind == "tilde":
            self.pos += 1
            node = self.Not(self.expr(_OPERAND))
        else:
            node = self.primary()
        while True:
            level = _INFIX_LEVEL.get(kinds[self.pos], -1)
            if level < floor:
                return node
            self.pos += 1
            node = self.Binary(_INFIX[level][1], node, self.expr(level + 1))

    def primary(self):
        """Any operand but a name or `~`, which `expr` reads itself."""
        kind = self.kinds[self.pos]
        if kind == "lbrace":
            return self.set_literal()
        if kind == "undefined":
            self.pos += 1
            return self.Undefined()
        if kind == "lparen":
            self.pos += 1
            node = self.expr()
            self.expect("rparen", "')'")
            return node
        if kind == "func":
            func = self.words[self.pos]
            self.pos += 1
            self.expect("lparen", "'('")
            left = self.expr()
            self.expect("comma", "','")
            right = self.expr()
            self.expect("rparen", "')'")
            return self.Binary(func, left, right)
        self.fail({"a name", "'{'", "'('", "'~'", "a function name"})

    def set_literal(self):
        """`{` NAME (`,` NAME)* `}` or `{}`."""
        kinds = self.kinds
        start = pos = self.pos + 1
        if kinds[pos] != "rbrace":
            while True:
                if kinds[pos] != "ident":
                    self.pos = pos
                    self.fail({"an atom name"})
                pos += 1
                if kinds[pos] != "comma":
                    break
                pos += 1
        self.pos = pos
        self.expect("rbrace", "'}'")
        return self.SetLiteral(tuple(self.words[start:pos:2]))


# dump and the lowering builders' fold catch RecursionError inside their own
# bodies rather than through a wrapper, which would double the frames per level.
_TOO_DEEP = "expression nests too deeply"
_NOT_HERE = "conditional operators are not allowed here"


def _fault(error):
    """A caught error as a fault, without the traceback and context whose frames hold it."""
    error.__traceback__ = error.__context__ = None
    return error


def _lowered(value):
    """A lowering builders' value, or the fault it is raised."""
    if isinstance(value, Exception):
        try:
            raise value
        finally:
            del value  # the fault's new traceback holds this frame
    return value


class _Events(_Parser):
    """The builders that lower an event: its bits. UNDEFINED, `|` and
    the functions are faults before their operands', and so is a name
    or a set that names nothing. A named event is read by its bits."""

    most_tokens = 128

    def __init__(self, space, events):
        self.space, self.full, self.events = space, space.full_bits, events

    def EventRef(self, name):
        event = self.events.get(name)
        if event is not None:
            return event.bits
        value = self.SetLiteral((name,))
        if isinstance(value, Exception):
            return UnknownName("%r names neither an event nor an atom" % (name,))
        return value

    def SetLiteral(self, names):
        try:
            return self.space.event(names).bits
        except UnknownAtom as exc:
            return _fault(exc)

    def Undefined(self):
        return ParseError(_NOT_HERE)

    def Not(self, arg):
        return arg if isinstance(arg, Exception) else self.full & ~arg

    def Binary(self, op, left, right):
        if op not in _EVENT_OPS:
            return ParseError(_NOT_HERE)
        try:
            return _EVENT_OPS[op](left, right)
        except TypeError:  # an operand is a fault; the left one's comes first
            return left if isinstance(left, Exception) else right


class _Conditionals(_Events):
    """The builders that lower a conditional to its (space, q, c): a leaf
    as `conditional.make` makes (event | whole space), an operator as its
    `conditional` or `schay` operation applies its kernel, whose error,
    or the Conditional constructor's on its result, is a fault."""

    def EventRef(self, name):
        event = self.events.get(name)
        if type(event) is Event and event.space is self.space:
            return self.space, event.bits, self.full
        if event is None:
            return _Events.EventRef(self, name)
        try:
            c = cnd.make(event, self.space.full)
        except (SpaceMismatch, TypeError) as exc:
            return _fault(exc)
        return c.space, c.q, c.c

    def SetLiteral(self, names):
        bits = _Events.SetLiteral(self, names)
        return bits if isinstance(bits, Exception) else (self.space, bits, self.full)

    def Undefined(self):
        return self.space, 0, 0

    def Not(self, arg):
        return arg if isinstance(arg, Exception) else self.apply("not", *arg)

    def Binary(self, op, left, right):
        try:
            return self.apply(op, *left, *right[1:])
        except TypeError:  # an operand is a fault; the left one's comes first
            return left if isinstance(left, Exception) else right

    def apply(self, op, space, *bits):
        module, name = _KERNELS[op]
        try:
            q, c = getattr(module, name)(*bits)
            if q & ~c or not 0 <= c <= self.full:
                cnd.Conditional(space, q, c)  # raises what the constructor raises
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            return _fault(exc)  # what bit arithmetic, unpacking or the checks raise
        return space, q, c


def parse_expr(text):
    return _Parser().read(text)


def lower_event(expr, space, events=None):
    """Lower an expression that must stay at the event level."""
    return Event(space, _lowered(_Events(space, events or {}).fold(expr)))


def lower(expr, space, events=None):
    """Lower an expression to a Conditional over the given space."""
    return cnd.Conditional(*_lowered(_Conditionals(space, events or {}).fold(expr)))


def dump(expr):
    """Deterministic s-expression rendering of a parse tree."""
    try:
        if isinstance(expr, EventRef):
            return "(ref %s)" % expr.name
        if isinstance(expr, SetLiteral):
            return "(set%s)" % "".join(" " + name for name in expr.names)
        if isinstance(expr, Undefined):
            return "(undefined)"
        if isinstance(expr, Not):
            return "(not %s)" % dump(expr.arg)
        if isinstance(expr, Binary):
            return "(%s %s %s)" % (expr.op, dump(expr.left), dump(expr.right))
    except RecursionError:
        raise ParseError(_TOO_DEEP) from None
    raise TypeError("not an expression node: %r" % (expr,))


def format_conditional(c):
    """Canonical text for a conditional; it parses back to c (U as the
    literal UNDEFINED)."""
    if c.is_undefined:
        return _UNDEFINED
    return str(c)


class SpaceDoc(Record):
    """A parsed space file; unlike the syntax nodes, mutable and unhashable."""

    _fields = ("name", "space", "events", "measures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __reduce__ = object.__reduce__
    __hash__ = None

    def lower(self, text):
        return cnd.Conditional(*_lowered(_Conditionals(self.space, self.events).read(text)))


class _Measures(MutableMapping):
    """The measures of a parsed space file by name, in file order: a dict
    of Measures to its readers. parse_space stores each name as the tuple
    (weight texts, line number) of its checked line; the first read of
    the name builds its Measure with the public constructor, from the
    weights `_parse_weights` reads, and it stays in the tuple's place."""

    __slots__ = ("_space", "_entries")

    def __init__(self, space, entries):
        self._space = space
        self._entries = entries

    def __getitem__(self, name):
        entry = self._entries[name]
        if type(entry) is tuple:
            from .prob import Measure

            entry = Measure(self._space, _parse_weights(*entry))
            self._entries[name] = entry
        return entry

    def __setitem__(self, name, measure):
        self._entries[name] = measure

    def __delitem__(self, name):
        del self._entries[name]

    def __contains__(self, name):
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return repr(dict(self.items()))

    def copy(self):
        return _Measures(self._space, dict(self._entries))

    __copy__ = copy


_FRACTION_RE = re.compile(r"([0-9]+)/([0-9]+)")
# A weight list of ASCII integers and `p/q` with a nonzero denominator, one
# space apart, is these characters, with no weight starting with `/` and no
# `/` before a second `/` or an empty or all-zero denominator; a weight whose
# numerator is not zero.
_WEIGHT_CHARS_RE = re.compile(r"[0-9/ ]*")
_BAD_DENOMINATOR_RE = re.compile(r"/(?:[0-9]*/|0*(?: |$))")
_NONZERO_RE = re.compile(r"(?:^| )0*[1-9]")
# More digits than the least int/str conversion limit an interpreter may set.
_LONG_RE = re.compile(r"[0-9]{641}")


def _parse_weights(texts, line_no):
    """The weights of a measure line: an ASCII integer as an int, and
    `p/q` as one Fraction. `str.isdigit` alone would also pass digits
    such as `１`, `١` and `²`, which stay bad weights."""
    from fractions import Fraction

    weights = []
    try:
        for text in texts:
            if text.isascii() and text.isdigit():
                weights.append(int(text))
                continue
            m = _FRACTION_RE.fullmatch(text)
            if m is None:
                raise BadWeight("line %d: bad weight %r" % (line_no, text))
            den = int(m.group(2))
            if den == 0:
                raise BadWeight("line %d: zero denominator in %r" % (line_no, text))
            weights.append(Fraction(int(m.group(1)), den))
    except ValueError:  # more digits than the interpreter's int/str limit
        raise BadWeight("line %d: weight %d has too many digits" % (line_no, len(weights) + 1)) \
            from None
    return weights


def _check_weights(texts, line_no):
    """Raise what building a Measure from a measure line's weight texts
    would raise, without building it, with the line number in a zero
    total's message too: flat scans over the whole list, and
    `_parse_weights` only to word a bad weight or to read a long one."""
    joined = " ".join(texts)
    if (_WEIGHT_CHARS_RE.fullmatch(joined) is None or joined[:1] == "/" or " /" in joined
            or _BAD_DENOMINATOR_RE.search(joined) is not None
            or len(joined) > 640 and _LONG_RE.search(joined) is not None):
        _parse_weights(texts, line_no)
    if _NONZERO_RE.search(joined) is None:
        raise ZeroTotalWeight("line %d: all atom weights are zero" % (line_no,))


def _event_of(body, prefix_cols, line_no, space, events):
    """The event an event line's body, after the line's first prefix_cols
    columns, defines: read by one split at its commas if it is `{...}` of
    atom names, else by the event builders."""
    names = body.strip()
    if names[:1] == "{" and names[-1:] == "}":
        try:
            return space.event(map(str.strip, names[1:-1].split(",")))
        except UnknownAtom:
            pass
    try:
        value = _Events(space, events).read(body)
    except ParseError as e:
        raise ParseError(e.bare_message, line_no, (e.col or 1) + prefix_cols, e.expected) from None
    if isinstance(value, Exception):
        if type(value) is ParseError:
            raise ParseError(value.bare_message, line_no, 1)
        raise type(value)("line %d: %s" % (line_no, value))
    return Event(space, value)


def _lines(text):
    """The lines of a space file. It breaks only at \\n, \\r\\n and \\r,
    so other whitespace (\\x0c, \\x85, \\u2028, ...) stays in its line,
    and a break at the very end starts no line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _check_atoms(atom_names, line_no):
    """Raise the error for the first bad name on an `atoms` line: the
    name is invalid, a reserved word or a repeat."""
    seen = set()
    for atom in atom_names:
        if not valid_atom_name(atom):
            raise ParseError("invalid atom name %r" % (atom,), line_no, 1)
        if atom in RESERVED_WORDS:
            raise ParseError(
                "%r is a reserved word and cannot name an atom" % (atom,), line_no, 1
            )
        if atom in seen:
            raise DuplicateName("line %d: duplicate atom %r" % (line_no, atom))
        seen.add(atom)


def parse_space(text):
    """Parse a space file into a SpaceDoc."""
    name = None
    space = None
    events = {}
    measures = {}
    lines = _lines(text)
    for line_no, raw in enumerate(lines, start=1):
        cut = raw.find("#")
        line = raw if cut < 0 else raw[:cut]
        tokens = line.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "space":
            if name is not None:
                raise ParseError("duplicate 'space' line", line_no, 1)
            if len(tokens) != 2:
                raise ParseError("usage: space NAME", line_no, 1)
            name = tokens[1]
        elif directive == "atoms":
            if name is None:
                raise ParseError("'space NAME' must come before 'atoms'", line_no, 1)
            if space is not None:
                raise ParseError("duplicate 'atoms' line", line_no, 1)
            atom_names = tokens[1:]
            if not atom_names:
                raise ParseError("'atoms' needs at least one name", line_no, 1)
            # SampleSpace tests every name in one scan; _check_atoms words
            # the first error in line order.
            if not RESERVED_WORDS.isdisjoint(atom_names):
                _check_atoms(atom_names, line_no)
            try:
                space = SampleSpace(atom_names)
            except (ValueError, TooLarge):
                _check_atoms(atom_names, line_no)
                raise
        elif directive in ("event", "measure"):
            if space is None:
                raise ParseError("'atoms' must come before %r" % (directive,), line_no, 1)
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("usage: %s NAME = ..." % directive, line_no, 1)
            entry_name = tokens[1]
            if not RESERVED_CHARS.isdisjoint(entry_name):
                raise ParseError("invalid name %r" % (entry_name,), line_no, 1)
            if entry_name in RESERVED_WORDS:
                raise ParseError(
                    "%r is a reserved word and cannot name an entry" % (entry_name,),
                    line_no,
                    1,
                )
            if directive == "event":
                if entry_name in events:
                    raise DuplicateName("line %d: duplicate event %r" % (line_no, entry_name))
                eq = line.find("=") + 1
                events[entry_name] = _event_of(line[eq:], eq, line_no, space, events)
            else:
                if entry_name in measures:
                    raise DuplicateName("line %d: duplicate measure %r" % (line_no, entry_name))
                weight_tokens = tokens[3:]
                if len(weight_tokens) != space.n:
                    raise ParseError(
                        "expected %d weights, got %d" % (space.n, len(weight_tokens)),
                        line_no,
                        1,
                    )
                _check_weights(weight_tokens, line_no)
                measures[entry_name] = (weight_tokens, line_no)
        else:
            raise ParseError("unknown directive %r" % (directive,), line_no, 1)
    if space is None:
        raise ParseError("file never declares atoms", len(lines) + 1, 1)
    return SpaceDoc(name, space, events, _Measures(space, measures))
