"""Command-line interface.

Subcommands: eval, prob, relate, profile, check, parse. Exit codes:
0 success (for check: every law passed), 1 domain error or a law
failed, 2 usage or parse error. Output is byte-deterministic for fixed
inputs; every error path prints a single diagnostic line to stderr.
A space file is read as bytes and decoded once; `lang` splits its lines.

`main` builds its argument parser on its first call and reuses it for
every later call in the process. argparse keeps no per-call state in the
tree, and it reads sys.stdout, sys.stderr and the terminal width when it
prints, so a reused parser prints what a fresh one would.
`build_parser` still returns a new parser on every call.

A request whose first argument is exactly a subcommand name, followed
by whole `--option value` pairs, is read with no argparse parse when each
option is one of that subcommand's own option strings in full, given
once, with a value that does not start with '-' and that argparse's
own type and choices check takes (a value is taken as given when its
option has neither), and every required option is given. Any other
request is parsed in full by argparse, which reads help, abbreviations,
`--opt=value`, `--` and repeats, and words every usage, error and help
text. The routing table of each subcommand's options is built from the
kept parser, so it is rebuilt whenever the parser is.
"""

import argparse
import sys

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
    print("%s (%.6f)" % (value, float(value)))
    return 0


def _cmd_relate(args):
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="boolfrac",
        description="Evaluate, measure and law-check conditional events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="lower an expression, or evaluate it at an outcome")
    p_eval.add_argument("--space", required=True, help="space file")
    p_eval.add_argument("--expr", required=True, help="expression to lower")
    p_eval.add_argument("--state", help="atom name; print T, F or U at that outcome")
    p_eval.set_defaults(func=_cmd_eval)

    p_prob = sub.add_parser("prob", help="exact conditional probability of an expression")
    p_prob.add_argument("--space", required=True, help="space file")
    p_prob.add_argument("--measure", required=True, help="measure name from the space file")
    p_prob.add_argument("--expr", required=True, help="expression to measure")
    p_prob.add_argument(
        "--formula",
        choices=("direct", "or", "and"),
        default="direct",
        help="route a top-level or/and through its expansion formula",
    )
    p_prob.set_defaults(func=_cmd_prob)

    p_relate = sub.add_parser("relate", help="test a binary relation between two expressions")
    p_relate.add_argument("--space", required=True, help="space file")
    p_relate.add_argument("--rel", required=True, help="one of %s" % ", ".join(rel.RELATION_TAGS))
    p_relate.add_argument("--lhs", required=True, help="left expression")
    p_relate.add_argument("--rhs", required=True, help="right expression")
    p_relate.set_defaults(func=_cmd_relate)

    p_profile = sub.add_parser("profile", help="the seven verifiability flags of a pair")
    p_profile.add_argument("--space", required=True, help="space file")
    p_profile.add_argument("--lhs", required=True, help="left expression")
    p_profile.add_argument("--rhs", required=True, help="right expression")
    p_profile.set_defaults(func=_cmd_profile)

    p_check = sub.add_parser("check", help="exhaustively check a law (or 'all')")
    p_check.add_argument("--law", required=True, help="law id or 'all'")
    p_check.add_argument("--atoms", type=int, default=3, help="atom count (default 3)")
    p_check.add_argument(
        "--grid", type=int, default=3,
        help="largest weight in measure grids (default 3)",
    )
    p_check.set_defaults(func=_cmd_check)

    p_parse = sub.add_parser("parse", help="dump the parse tree of an expression")
    p_parse.add_argument("--expr", required=True, help="expression to parse")
    p_parse.set_defaults(func=_cmd_parse)

    return parser


_parser = None
_routes = None


def _subcommands(parser):
    """The parser's subcommand names, each mapped to its subparser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices


def _route(subparser):
    """A subparser, its own option strings mapped to their dests and store
    actions (None for one with no type or choices), the defaults argparse
    starts its namespace with, and the dests it requires."""
    actions = [a for a in subparser._actions if a.dest is not argparse.SUPPRESS]
    options = {s: (a.dest, None if a.type is None and a.choices is None else a)
               for a in actions if type(a) is argparse._StoreAction for s in a.option_strings}
    defaults = dict(subparser._defaults)
    defaults.update((a.dest, a.default) for a in actions if a.default is not argparse.SUPPRESS)
    return subparser, options, defaults, {a.dest for a in actions if a.required}


def _parse(argv):
    """What `_parser.parse_args(argv)` returns: a plain request read into
    its namespace with no argparse parse, or any other parsed in full."""
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) % 2 and argv[0] in _routes:
        subparser, options, defaults, required = _routes[argv[0]]
        values = {}
        for option, value in zip(argv[1::2], argv[2::2]):
            dest, action = options.get(option, (None, None))
            if dest is None or dest in values or value[:1] == "-":
                break
            if action is not None:
                try:
                    value = subparser._get_values(action, [value])
                except argparse.ArgumentError:
                    break
            values[dest] = value
        else:
            if values.keys() >= required:
                return argparse.Namespace(command=argv[0], **dict(defaults, **values))
    return _parser.parse_args(argv)


def main(argv=None):
    global _parser, _routes
    if _parser is None:
        _parser = build_parser()
        _routes = {name: _route(sub) for name, sub in _subcommands(_parser).items()}
    try:
        args = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    if args.command == "relate" and args.rel not in rel.RELATION_TAGS:
        _fail("unknown relation tag: %s" % args.rel)
        return 2
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
