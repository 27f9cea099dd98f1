"""Single-entry truth-table mutants of the binary conditional kernels.

Each of the five binary kernels `and_bits`, `or_bits`, `given_bits`,
`osum_bits` and `sasaki_bits` acts atom by atom through a 3x3 table
over T, F and U. A mutant changes one entry of one table to one of the
two other values: 5 kernels x 9 entries x 2 values = 90 mutants. The
tables come from `oracle`, not from boolfrac.

A mutant is compiled to a bitwise closed form rather than a per-atom
loop. The atoms where a table yields a value are a union of terms, each
a set of the first operand's values crossed with a set of the second's;
of a few such groupings the shortest is kept. So the kernel is a few bit
operations, like the one it replaces, and its output is always in normal
form. ``full`` is the atom mask of the
law space. It bounds only the terms that can reach outside both
operands' conditions, and the condition is ``full`` minus the atoms
that yield U when that is shorter.
"""

import oracle

# Atom masks where operand {i} takes a value in the set. The sets
# without U lie inside the operand's condition.
_MASKS = {
    "T": "q{i}",
    "F": "(c{i} & ~q{i})",
    "U": "~c{i}",
    "TF": "c{i}",
    "TU": "(q{i} | ~c{i})",
    "FU": "~q{i}",
}


def _terms(table, values, first, cover):
    """(source, bounded) terms of the mask where `table` yields one of
    `values`. Each term pairs a set of values of operand `first` (1 or 2)
    with a set of the other operand's. Row by row, the other operand's
    values that yield `values` form a set S; each S gets one term, with
    the rows whose set equals S, or with the rows whose set contains S
    when `cover` is true (terms then overlap but can be shorter)."""
    rows = {p: "".join(q for q in oracle.VALUES
                       if (table[p, q] if first == 1 else table[q, p]) in values)
            for p in oracle.VALUES}
    terms = []
    for qs in dict.fromkeys(rows.values()):
        if not qs:
            continue
        ps = "".join(p for p in oracle.VALUES
                     if (set(rows[p]) >= set(qs) if cover else rows[p] == qs))
        parts = [_MASKS[s].format(i=i) for s, i in ((ps, first), (qs, 3 - first)) if s != "TFU"]
        terms.append((" & ".join(parts) or "-1", "U" not in ps or "U" not in qs))
    return terms


_GROUPINGS = ((1, False), (1, True), (2, False), (2, True))


def _cost(src):
    return sum(src.count(op) for op in "&|~")


def _mask(table, values, full):
    """Shortest source of the mask where `table` yields one of `values`,
    bounded by `full`."""
    candidates = []
    for first, cover in _GROUPINGS:
        terms = _terms(table, values, first, cover)
        parts = [s for s, bounded in terms if bounded]
        loose = [s for s, bounded in terms if not bounded]
        if loose:
            parts.append("(%s) & %d" % (" | ".join(loose), full))
        candidates.append(" | ".join(parts) or "0")
    return min(candidates, key=_cost)


def source(table, full):
    """Python source of a kernel that applies `table` atom by atom."""
    undefined = min((" | ".join(s for s, _ in _terms(table, "U", *grouping))
                     for grouping in _GROUPINGS), key=_cost)
    condition = min(_mask(table, "TF", full),
                    "%d & ~(%s)" % (full, undefined) if undefined else str(full), key=_cost)
    return "def kernel(q1, c1, q2, c2):\n    return %s, %s\n" % (
        _mask(table, "T", full), condition)


def compile_table(table, full):
    namespace = {}
    exec(compile(source(table, full), "<mutant>", "exec"), namespace)
    return namespace["kernel"]


def specs():
    """All 90 mutants as (kernel name, (first, second), new value)."""
    out = []
    for name, op in oracle.KERNEL_OPS.items():
        base = oracle.table(op)
        for entry in sorted(base):
            for value in oracle.VALUES:
                if value != base[entry]:
                    out.append((name, entry, value))
    return out


def build(spec, full):
    name, entry, value = spec
    table = oracle.table(oracle.KERNEL_OPS[name])
    table[tuple(entry)] = value
    return compile_table(table, full)
