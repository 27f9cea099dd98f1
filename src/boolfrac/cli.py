"""Command-line interface.

Subcommands: eval, prob, relate, profile, check, parse. Exit codes:
0 success (for check: every law passed), 1 domain error or a law
failed, 2 usage or parse error. Output is byte-deterministic for fixed
inputs; every error path prints a single diagnostic line to stderr.
A space file is read as bytes and decoded once; `lang` splits its lines.

`_COMMANDS` names each subcommand once, with its help, its handler and
its options; an option is its flag, its help and the argparse keywords
it is declared with. `build_parser` imports argparse and builds a new
argparse tree from the table on every call.

A request whose first argument is exactly a subcommand name, followed
by whole `--option value` pairs, is read from the table with no argparse
tree when each option is one of that subcommand's flags in full, given
once, with a value that does not start with '-', that the option's own
type converts and that is one of its choices (a value is taken as given
when its option has neither), and every required option is given. Any
other request is parsed in full by argparse, which reads help,
abbreviations, `--opt=value`, `--` and repeats, and words every usage,
error and help text, with a parser built for that request. So only a
request that is not plain imports argparse.
"""

import sys
from types import SimpleNamespace

from . import lang
from . import lawcheck
from . import relations as rel
from . import trivalent
from .errors import (
    BadWeight,
    DuplicateName,
    Error,
    ParseError,
    UnknownLaw,
    ZeroCondition,
    ZeroTotalWeight,
)


def _fail(message):
    sys.stderr.write("boolfrac: error: %s\n" % message)


def _load_doc(path):
    with open(path, "rb", buffering=0) as handle:
        data = handle.readall()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (path, exc)) from None
    return lang.parse_space(text)


def _cmd_eval(args):
    doc = _load_doc(args.space)
    cond = doc.lower(args.expr)
    if args.state is not None:
        print(trivalent.eval_at(cond, args.state))
    else:
        print(lang.format_conditional(cond))
    return 0


def _cmd_prob(args):
    from . import prob

    doc = _load_doc(args.space)
    measure = doc.measures.get(args.measure)
    if measure is None:
        _fail("unknown measure: %s" % args.measure)
        return 1
    if args.formula == "direct":
        value = prob.p_cond(measure, doc.lower(args.expr))
    else:
        node = lang.parse_expr(args.expr)
        if not (isinstance(node, lang.Binary) and node.op == args.formula):
            _fail("--formula %s needs a top-level '%s'" % (args.formula, args.formula))
            return 2
        x = lang.lower(node.left, doc.space, doc.events)
        y = lang.lower(node.right, doc.space, doc.events)
        if args.formula == "or":
            value = prob.p_or_formula(measure, x, y)
        else:
            value = prob.p_superposition(measure, x, y, mode="and")
    try:
        text = str(value)
    except ValueError:  # more digits than the interpreter's int/str limit
        _fail("the probability's numerator or denominator has more than %d digits"
              % sys.get_int_max_str_digits())
        return 1
    print("%s (%.6f)" % (text, float(value)))
    return 0


def _cmd_relate(args):
    if args.rel not in rel.RELATION_TAGS:
        _fail("unknown relation tag: %s" % args.rel)
        return 2
    doc = _load_doc(args.space)
    flag = rel.holds(args.rel, doc.lower(args.lhs), doc.lower(args.rhs))
    print("true" if flag else "false")
    return 0


def _cmd_profile(args):
    doc = _load_doc(args.space)
    x = doc.lower(args.lhs)
    y = doc.lower(args.rhs)
    for number, flag in enumerate(rel.profile(x, y).flags(), 1):
        print("%d=%s" % (number, "true" if flag else "false"))
    return 0


def _print_report(report):
    verdict = "PASS" if report.passed else "FAIL"
    print(
        "%s n=%d instances=%d %s"
        % (report.law, report.atom_count, report.instances_checked, verdict)
    )
    if report.counterexample is not None:
        print("  counterexample: %s" % report.counterexample)
    if report.note is not None:
        print("  note: %s" % report.note)


def _cmd_check(args):
    for flag, value in (("--atoms", args.atoms), ("--grid", args.grid)):
        if value < 1:
            _fail("%s must be at least 1, got %d" % (flag, value))
            return 2
    if args.law == "all":
        reports = lawcheck.check_all(args.atoms, args.grid)
    else:
        reports = [lawcheck.check(args.law, args.atoms, args.grid)]
    for report in reports:
        _print_report(report)
    return 0 if all(report.passed for report in reports) else 1


def _cmd_parse(args):
    print(lang.dump(lang.parse_expr(args.expr)))
    return 0


_REQUIRED = {"required": True}
_SPACE = ("--space", "space file", _REQUIRED)
_LHS = ("--lhs", "left expression", _REQUIRED)
_RHS = ("--rhs", "right expression", _REQUIRED)

# Each subcommand once: (help, handler, options), and each option as
# (flag, help, the argparse keywords it is declared with).
_COMMANDS = {
    "eval": ("lower an expression, or evaluate it at an outcome", _cmd_eval, [
        _SPACE,
        ("--expr", "expression to lower", _REQUIRED),
        ("--state", "atom name; print T, F or U at that outcome", {}),
    ]),
    "prob": ("exact conditional probability of an expression", _cmd_prob, [
        _SPACE,
        ("--measure", "measure name from the space file", _REQUIRED),
        ("--expr", "expression to measure", _REQUIRED),
        ("--formula", "route a top-level or/and through its expansion formula",
         {"choices": ("direct", "or", "and"), "default": "direct"}),
    ]),
    "relate": ("test a binary relation between two expressions", _cmd_relate, [
        _SPACE, ("--rel", "one of %s" % ", ".join(rel.RELATION_TAGS), _REQUIRED), _LHS, _RHS,
    ]),
    "profile": ("the seven verifiability flags of a pair", _cmd_profile, [_SPACE, _LHS, _RHS]),
    "check": ("exhaustively check a law (or 'all')", _cmd_check, [
        ("--law", "law id or 'all'", _REQUIRED),
        ("--atoms", "atom count (default 3)", {"type": int, "default": 3}),
        ("--grid", "largest weight in measure grids (default 3)", {"type": int, "default": 3}),
    ]),
    "parse": ("dump the parse tree of an expression", _cmd_parse, [
        ("--expr", "expression to parse", _REQUIRED),
    ]),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="boolfrac",
        description="Evaluate, measure and law-check conditional events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (about, func, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=about)
        for flag, text, keywords in options:
            command.add_argument(flag, help=text, **keywords)
        command.set_defaults(func=func)
    return parser


def _lookup(func, options):
    """A subcommand's flags mapped to their dests, types and choices, the
    namespace argparse would start from, and the dests it requires."""
    flags, defaults, required = {}, {"func": func}, set()
    for flag, _, keywords in options:
        dest = flag[2:]
        flags[flag] = dest, keywords.get("type"), keywords.get("choices")
        defaults[dest] = keywords.get("default")
        if keywords.get("required"):
            required.add(dest)
    return flags, defaults, required


_PLAIN = {name: _lookup(func, options) for name, (_, func, options) in _COMMANDS.items()}
_NO_FLAG = None, None, None


def _parse(argv):
    """What `build_parser().parse_args(argv)` returns: a plain request
    read from the table, or any other parsed in full by a new parser."""
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) % 2 and argv[0] in _PLAIN:
        flags, defaults, required = _PLAIN[argv[0]]
        values = {}
        for flag, value in zip(argv[1::2], argv[2::2]):
            dest, convert, choices = flags.get(flag, _NO_FLAG)
            if dest is None or dest in values or value[:1] == "-":
                break
            if convert is not None:
                try:
                    value = convert(value)
                except ValueError:
                    break
            if choices is not None and value not in choices:
                break
            values[dest] = value
        else:
            if values.keys() >= required:
                return SimpleNamespace(command=argv[0], **dict(defaults, **values))
    return build_parser().parse_args(argv)


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (ParseError, DuplicateName, BadWeight, ZeroTotalWeight, UnknownLaw) as exc:
        _fail(str(exc))
        return 2
    except ZeroCondition:
        _fail("undefined: condition has probability 0")
        return 1
    except Error as exc:
        _fail(str(exc))
        return 1
    except OSError as exc:
        _fail(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
