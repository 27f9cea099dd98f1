"""Seeded CLI request stream for the `query` workload.

The stream mixes every read-only subcommand over three space files: the
die fixture (`fixtures/die.cs`, 6 atoms) and two generated spaces of 16
and 64 atoms with named events and several measures, whose weights mix
integers, fractions and zeros. Each request carries its known answer,
computed by `oracle`: the exit code and the exact stdout, or, for an
error, the exit code and a single stderr line.

The mix is uniform by design. The repository holds no usage data, and
its only examples (the README and `tests/test_cli.py`) use every
read-only subcommand on the one die space. So no subcommand and no space
size is weighted by a guess:

- 1 request in 10 is malformed, split evenly between a syntax error
  (exit 2), an unknown name (exit 1), an unknown measure (exit 1) and an
  unknown relation tag (exit 2). This puts about 150 error requests in
  every pass.
- The rest are split evenly between the five subcommands `eval`,
  `prob`, `relate`, `profile` and `parse`. Within a subcommand its forms
  are split evenly: `eval` plain or with `--state`; `prob` with
  `--formula direct`, `or` or `and`, or conditioned on an event of zero
  weight (exit 1).
- The space is one of the three, each with the same share. `parse`
  reads no space; its expression is drawn over the chosen space's names.

Expressions are random trees of depth up to 3 over named events, atoms
and set literals, with every binary operator of the language equally
likely. Requests that hit a zero-weight condition by chance keep their
documented answer (exit 1); nothing the generator produces is filtered
out.
"""

import random
from fractions import Fraction

import oracle

# Subcommands and their forms; see the module docstring for the split.
SUBCOMMANDS = (
    ("eval", "eval_state"),
    ("prob_direct", "prob_or", "prob_and", "prob_zero"),
    ("relate",),
    ("profile",),
    ("parse",),
)
MALFORMED = ("bad_syntax", "bad_name", "bad_measure", "bad_tag")
MALFORMED_SHARE = 0.1
SPACES = ("die", "g16", "g64")

_BINARY_OPS = ("or", "and", "given", "osum", "proj", "s_and", "s_or", "s_cap", "s_cup")


# ------------------------------------------------------------ space files


def _tokens(text):
    out = []
    word = ""
    for ch in text:
        if ch in "{},()~" or ch.isspace():
            if word:
                out.append(word)
                word = ""
            if not ch.isspace():
                out.append(ch)
        else:
            word += ch
    if word:
        out.append(word)
    return out


def _event_expr(tokens):
    """Parse an event-level expression (names, {..}, ~, and, or, parens)."""
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take():
        pos[0] += 1
        return tokens[pos[0] - 1]

    def or_level():
        node = and_level()
        while peek() == "or":
            take()
            node = ("or", node, and_level())
        return node

    def and_level():
        node = not_level()
        while peek() == "and":
            take()
            node = ("and", node, not_level())
        return node

    def not_level():
        if peek() == "~":
            take()
            return ("not", not_level())
        tok = take()
        if tok == "(":
            node = or_level()
            take()
            return node
        if tok == "{":
            names = []
            while peek() != "}":
                tok = take()
                if tok != ",":
                    names.append(tok)
            take()
            return ("set", tuple(names))
        return ("ref", tok)

    node = or_level()
    if peek() is not None:
        raise ValueError("trailing tokens in %r" % (tokens,))
    return node


def read_space(text):
    """An oracle Space from space-file text (the subset the fixtures use)."""
    space = oracle.Space((), {}, {})
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        words = line.split()
        if not words:
            continue
        if words[0] == "atoms":
            space = oracle.Space(words[1:], {}, {})
        elif words[0] == "event":
            body = line.split("=", 1)[1]
            space.events[words[1]] = space.event_set(_event_expr(_tokens(body)))
        elif words[0] == "measure":
            space.measures[words[1]] = tuple(Fraction(w) for w in words[3:])
    return space


def _weight(rng):
    r = rng.random()
    if r < 0.25:
        return "0"
    if r < 0.6:
        return str(rng.randint(1, 9))
    return "%d/%d" % (rng.randint(1, 9), rng.randint(2, 7))


def generate_space(rng, name, prefix, n_atoms, n_events, n_measures):
    """Space-file text and its oracle Space."""
    atoms = ["%s%d" % (prefix, i) for i in range(n_atoms)]
    space = oracle.Space(atoms, {}, {})
    lines = ["# generated: %d atoms" % n_atoms, "space %s" % name, "atoms " + " ".join(atoms)]
    for i in range(n_events):
        event_name = "e%d" % i
        if i < n_events // 2:
            members = sorted(rng.sample(range(n_atoms), n_atoms // 4))
            expr = ("set", tuple(atoms[j] for j in members))
        else:
            earlier = sorted(space.events)
            expr = ("and", ("or", ("ref", rng.choice(earlier)), ("ref", rng.choice(earlier))),
                    ("not", ("ref", rng.choice(earlier))))
        space.events[event_name] = space.event_set(expr)
        lines.append("event %s = %s" % (event_name, oracle.render(expr)))
    for i in range(n_measures):
        weights = [_weight(rng) for _ in atoms]
        weights[rng.randrange(n_atoms)] = "0"
        if all(w == "0" for w in weights):
            weights[0] = "1"
        measure_name = "m%d" % i
        space.measures[measure_name] = tuple(Fraction(w) for w in weights)
        lines.append("measure %s = %s" % (measure_name, " ".join(weights)))
    return "\n".join(lines) + "\n", space


# ------------------------------------------------------------ expressions


def _leaf(rng, space):
    r = rng.random()
    if space.events and r < 0.5:
        return ("ref", rng.choice(sorted(space.events)))
    if r < 0.75:
        return ("ref", rng.choice(space.atoms))
    members = rng.sample(space.atoms, rng.randint(1, 3))
    return ("set", tuple(sorted(members, key=space.atoms.index)))


def _expr(rng, space, depth):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng, space)
    if rng.random() < 0.15:
        return ("not", _expr(rng, space, depth - 1))
    op = rng.choice(_BINARY_OPS)
    return (op, _expr(rng, space, depth - 1), _expr(rng, space, depth - 1))


def _zero_condition(rng, space, measure):
    """A condition event whose atoms all weigh zero under the measure."""
    zeros = [a for a, w in zip(space.atoms, space.measures[measure]) if w == 0]
    if not zeros:
        return ("set", ())
    members = rng.sample(zeros, rng.randint(1, min(3, len(zeros))))
    return ("set", tuple(sorted(members, key=space.atoms.index)))


_SYNTAX_BREAKS = (
    lambda t: t + " or",
    lambda t: "(" + t,
    lambda t: t + ")",
    lambda t: "and " + t,
    lambda t: t + " | {",
)


def _answer(code, out=None):
    """Known answer: exit code plus exact stdout, or None for an error,
    which must print nothing to stdout and one line to stderr."""
    return {"code": code, "out": out}


def _prob_answer(value):
    if value is None:
        return _answer(1)
    return _answer(0, "%s (%.6f)\n" % (value, float(value)))


def _request(rng, kind, path, space):
    expr = _expr(rng, space, 3)
    measure = rng.choice(sorted(space.measures))
    base = ["--space", path]
    if kind == "eval":
        return ["eval"] + base + ["--expr", oracle.render(expr)], _answer(
            0, space.text(space.row(expr)) + "\n"
        )
    if kind == "eval_state":
        i = rng.randrange(len(space.atoms))
        argv = ["eval"] + base + ["--expr", oracle.render(expr), "--state", space.atoms[i]]
        return argv, _answer(0, space.row(expr)[i] + "\n")
    if kind in ("prob_direct", "prob_zero"):
        if kind == "prob_zero":
            expr = ("given", expr, _zero_condition(rng, space, measure))
        argv = ["prob"] + base + ["--measure", measure, "--expr", oracle.render(expr)]
        return argv, _prob_answer(space.prob(measure, space.row(expr)))
    if kind in ("prob_or", "prob_and"):
        op = kind[5:]
        expr = (op, _expr(rng, space, 2), _expr(rng, space, 2))
        argv = ["prob"] + base + [
            "--measure", measure, "--expr", oracle.render(expr), "--formula", op,
        ]
        return argv, _prob_answer(space.prob(measure, space.row(expr)))
    other = _expr(rng, space, 3)
    if kind == "relate":
        tag = rng.choice(oracle.RELATION_TAGS)
        argv = ["relate"] + base + [
            "--rel", tag, "--lhs", oracle.render(expr), "--rhs", oracle.render(other),
        ]
        flag = oracle.relation(tag, space.row(expr), space.row(other))
        return argv, _answer(0, "true\n" if flag else "false\n")
    if kind == "profile":
        argv = ["profile"] + base + ["--lhs", oracle.render(expr), "--rhs", oracle.render(other)]
        flags = oracle.profile(space.row(expr), space.row(other))
        out = "".join("%d=%s\n" % (i, "true" if f else "false") for i, f in enumerate(flags, 1))
        return argv, _answer(0, out)
    if kind == "parse":
        return ["parse", "--expr", oracle.render(expr)], _answer(0, oracle.dump(expr) + "\n")
    if kind == "bad_syntax":
        text = rng.choice(_SYNTAX_BREAKS)(oracle.render(expr))
        if rng.random() < 0.5:
            return ["parse", "--expr", text], _answer(2)
        return ["eval"] + base + ["--expr", text], _answer(2)
    if kind == "bad_name":
        return ["eval"] + base + [
            "--expr", oracle.render(("and", expr, ("ref", "nosuch%d" % rng.randrange(100)))),
        ], _answer(1)
    if kind == "bad_measure":
        return ["prob"] + base + [
            "--measure", "nosuch", "--expr", oracle.render(expr),
        ], _answer(1)
    if kind == "bad_tag":
        return ["relate"] + base + [
            "--rel", "nosuch", "--lhs", oracle.render(expr), "--rhs", oracle.render(other),
        ], _answer(2)
    raise ValueError("unknown request kind: %r" % (kind,))


def generate(seed, die_text, die_path, g16_path, g64_path, count):
    """Space-file texts for the generated spaces and the request list.

    Returns ({path: text}, [(argv, answer), ...]).
    """
    rng = random.Random(seed)
    g16_text, g16 = generate_space(rng, "g16", "s", 16, 8, 3)
    g64_text, g64 = generate_space(rng, "g64", "t", 64, 12, 4)
    spaces = {
        "die": (die_path, read_space(die_text)),
        "g16": (g16_path, g16),
        "g64": (g64_path, g64),
    }
    requests = []
    for _ in range(count):
        if rng.random() < MALFORMED_SHARE:
            kind = rng.choice(MALFORMED)
        else:
            kind = rng.choice(rng.choice(SUBCOMMANDS))
        path, space = spaces[rng.choice(SPACES)]
        requests.append(_request(rng, kind, path, space))
    return {g16_path: g16_text, g64_path: g64_text}, requests
