"""Workload execution inside the worker interpreter.

Each workload offers `setup()`, the program calls a run needs before
its timed phase, and `run_pass(tracer, between)`, one pass over all of
its operations, calling `between()` before each one. An operation is
one `lawcheck.check` call or one CLI request; `run_pass` returns one
`Op` per operation with its latency and whether its answer matched the
known answer.
"""

import contextlib
import io
from itertools import product
from time import perf_counter

from boolfrac import cli, lang, lawcheck, prob
from boolfrac import conditional as cnd

import mutants
import oracle

GRID_LAWS = ("t2.13", "superposition")


class Op:
    __slots__ = ("key", "seconds", "ok", "error")

    def __init__(self, key, seconds, ok, error=None):
        self.key = key
        self.seconds = seconds
        self.ok = ok
        self.error = error


def _timed_check(tracer, op_id, law, atoms, grid):
    """One check call: (report or None, seconds, error text or None)."""
    if tracer is not None:
        tracer.op_id = op_id
    t0 = perf_counter()
    try:
        report = lawcheck.check(law, atoms, grid)
    except Exception as exc:  # a crash is one failed operation, not the end of the run
        return None, perf_counter() - t0, "%s: %s" % (type(exc).__name__, exc)
    return report, perf_counter() - t0, None


class LawList:
    """catalog and grid: each law once; PASS with the recorded count."""

    def __init__(self, inputs):
        self.ops = [tuple(op) for op in inputs["ops"]]
        self.instances = {}

    def setup(self):
        """The law spaces and their conditionals; for the grid laws, every
        measure on their weight grid."""
        for law, atoms, grid, _ in self.ops:
            space = lawcheck.law_space(atoms)
            cnd.enumerate_conditionals_bits(space.full_bits)
            if law in GRID_LAWS:
                for weights in product(range(grid + 1), repeat=atoms):
                    if any(weights):
                        prob.Measure(space, weights)

    def run_pass(self, tracer, between):
        results = []
        for i, (law, atoms, grid, expected) in enumerate(self.ops):
            between()
            report, seconds, error = _timed_check(tracer, i, law, atoms, grid)
            ok = error is None and report.passed and report.instances_checked == expected
            if error is None and not ok:
                error = "%s n=%d: passed=%s instances=%d, expected PASS with %d" % (
                    law, atoms, report.passed, report.instances_checked, expected)
            key = "%s.n%d" % (law, atoms)
            results.append(Op(key, seconds, ok, error))
            if report is not None:
                self.instances[key] = report.instances_checked
        return results

    def check_pass(self, results):
        return [op.error for op in results if not op.ok]


class Mutants:
    """Every mutant installed in turn as the `conditional` kernel global
    and run against every law; each must be killed by some law."""

    def __init__(self, inputs):
        self.specs = [(name, tuple(entry), value) for name, entry, value in inputs["mutants"]]
        self.laws = inputs["laws"]
        self.atoms = inputs["atoms"]
        self.grid = inputs["grid"]
        full = (1 << self.atoms) - 1
        self.kernels = [mutants.build(spec, full) for spec in self.specs]
        self.unkilled = []
        self.left_installed = []

    def setup(self):
        space = lawcheck.law_space(self.atoms)
        cnd.enumerate_conditionals_bits(space.full_bits)

    def run_pass(self, tracer, between):
        results = []
        self.unkilled = []
        installed = {name: getattr(cnd, name) for name in oracle.KERNEL_OPS}
        op_id = 0
        for spec, kernel in zip(self.specs, self.kernels):
            name = spec[0]
            original = getattr(cnd, name)
            setattr(cnd, name, kernel if tracer is None else tracer.wrap_kernel(name, kernel))
            killed = False
            try:
                for law in self.laws:
                    between()
                    report, seconds, error = _timed_check(tracer, op_id, law, self.atoms, self.grid)
                    op_id += 1
                    if error is not None:
                        error = "mutant %s %s->%s, law %s: %s" % (
                            name, "".join(spec[1]), spec[2], law, error)
                    else:
                        killed = killed or not report.passed
                    results.append(Op(name, seconds, error is None, error))
            finally:
                setattr(cnd, name, original)
            if not killed:
                self.unkilled.append(spec)
        self.left_installed = [name for name, fn in installed.items()
                               if getattr(cnd, name) is not fn]
        return results

    def check_pass(self, results):
        """Wrong answers: a surviving mutant, a kernel left installed, or
        an unmutated oracle table that disagrees with its kernel. Crashes
        are failed operations but not wrong answers."""
        wrong = ["mutant %s %s->%s survived every law" % (n, "".join(e), v)
                 for n, e, v in self.unkilled]
        wrong += ["%s was not restored" % name for name in self.left_installed]
        full = (1 << self.atoms) - 1
        pairs = cnd.enumerate_conditionals_bits(full)
        for name, op in oracle.KERNEL_OPS.items():
            table_kernel = mutants.compile_table(oracle.table(op), full)
            kernel = getattr(cnd, name)
            if any(table_kernel(*x, *y) != kernel(*x, *y) for x in pairs for y in pairs):
                wrong.append("%s disagrees with its documented table" % name)
        return wrong


class Query:
    """The CLI request stream, run in process through `cli.main`."""

    def __init__(self, inputs):
        self.spaces = inputs["spaces"]
        self.requests = [(argv, answer) for argv, answer in inputs["requests"]]

    def setup(self):
        cli.build_parser()
        for path in self.spaces:
            with open(path, encoding="utf-8") as handle:
                lang.parse_space(handle.read())

    def run_pass(self, tracer, between):
        results = []
        for i, (argv, answer) in enumerate(self.requests):
            between()
            if tracer is not None:
                tracer.op_id = i
            out, err = io.StringIO(), io.StringIO()
            error = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # an escaped exception is one failed request
                    code = None
                    error = "%s: %s" % (type(exc).__name__, exc)
                seconds = perf_counter() - t0
            if error is None:
                error = _query_mismatch(code, out.getvalue(), err.getvalue(), answer)
            if error is not None:
                error = "%s: %s" % (" ".join(argv), error)
            results.append(Op(argv[0], seconds, error is None, error))
        return results

    def check_pass(self, results):
        return [op.error for op in results if not op.ok]


def _query_mismatch(code, out, err, answer):
    if code != answer["code"]:
        return "exit %r, expected %d (stderr %r)" % (code, answer["code"], err)
    if answer["out"] is not None:
        if out != answer["out"] or err:
            return "printed %r / %r, expected %r" % (out, err, answer["out"])
        return None
    if out or err.count("\n") != 1 or not err.startswith("boolfrac: error: "):
        return "error output %r / %r is not one diagnostic line" % (out, err)
    return None


def load(workload, inputs):
    if workload in ("catalog", "grid"):
        return LawList(inputs)
    if workload == "mutants":
        return Mutants(inputs)
    if workload == "query":
        return Query(inputs)
    raise ValueError("unknown workload: %r" % (workload,))
