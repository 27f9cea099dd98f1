"""Run one workload in a fresh interpreter and print its numbers as JSON.

usage: python3 worker.py ROOT WORKLOAD INPUTS SECONDS TRACE MODE [TRACE_OUT]

The first thing timed is `import boolfrac.cli` from ROOT/src, and this
file imports nothing the program needs before it, so the import is paid
in full. MODE `setup` stops after the timed set-up; MODE `run` then
repeats whole passes over the workload until SECONDS would be exceeded
(at least one pass). With TRACE 1 half of SECONDS goes to plain passes
and the rest to passes under the tracer, whose spans and counters are
written to TRACE_OUT.
"""

import os
import sys
import time
from array import array


def _median(values):
    # A module-level `import statistics` would load fractions and decimal
    # before the timed boolfrac import.
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _reference_loop():
    """Fixed stdlib work of the kinds boolfrac's own work is made of:
    integer bit operations, dict and tuple traffic, Fraction sums. It
    never calls boolfrac, so no change to the program moves its time."""
    from fractions import Fraction

    total = 0
    table = {}
    for i in range(24000):
        q, c = i & 255, (i * 7) & 1023
        total += (q | c) & ~(q ^ c)
        table[q] = (q, c)
    f = Fraction(0)
    for i in range(1, 1000):
        f += Fraction(1, i % 17 + 1)
    return total, f


class Reference:
    """The reference loop, timed between operations: once for each
    `every` seconds passed since it last ran, so that its samples spread
    over a pass as its time does. The machine this benchmark was built
    on changes speed by a fifth or more for tens of seconds at a time; a
    pass timed against this loop, run in the same interpreter during the
    pass, is steady where the bare pass time is not."""

    every = 0.1

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def __call__(self):
        due = int((time.perf_counter() - self._last) / self.every)
        for _ in range(min(due, 25)):  # at most ~0.25 s after a long operation
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        _reference_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1


class Pass:
    """One pass reduced to what the metrics need, so that the worker's
    memory does not grow with the number of passes. `reference` is the
    mean reference-loop time during the pass."""

    __slots__ = ("seconds", "latencies", "key_seconds", "failures", "reference")

    def __init__(self, seconds, ops, reference):
        self.seconds = seconds
        self.latencies = array("d", (op.seconds for op in ops))
        self.key_seconds = {}
        for op in ops:
            self.key_seconds[op.key] = self.key_seconds.get(op.key, 0.0) + op.seconds
        self.failures = [op.error for op in ops if not op.ok]
        self.reference = reference


def _passes(workload, budget, tracer=None):
    """Whole passes until the next one is predicted to overrun `budget`.
    The reference loop runs between operations; a pass's time leaves it
    out."""
    reference = Reference()
    runs = []
    wrong = []
    start = time.perf_counter()
    while True:
        first, spent = len(reference.samples), reference.spent
        t0 = time.perf_counter()
        ops = workload.run_pass(tracer, reference)
        seconds = time.perf_counter() - t0 - (reference.spent - spent)
        reference.sample()  # so that every pass has at least one
        during = reference.samples[first:]
        runs.append(Pass(seconds, ops, sum(during) / len(during)))
        wrong.extend(w for w in workload.check_pass(ops) if w not in wrong)
        del ops  # so the next pass does not run with two passes' ops alive
        elapsed = time.perf_counter() - start
        if elapsed + _median([r.seconds for r in runs]) > budget:
            return runs, wrong


def _end_to_end(runs):
    """run_s is the median wall time of a pass, and run_ratio the median
    over passes of a pass's time over the reference loop's time during
    it. Every pass runs the same operations in the same order; an
    operation's latency is its median over the passes, and the
    percentiles are taken over operations. The medians keep a short slow
    moment of the machine from moving the result; the reference loop
    also takes longer ones out of run_ratio."""
    import statistics

    latencies = [_median(samples) for samples in zip(*(run.latencies for run in runs))]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "run_s": _median([run.seconds for run in runs]),
        "run_ratio": _median([run.seconds / run.reference for run in runs]),
        "reference_ms": _median([run.reference for run in runs]) * 1e3,
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_p90_ms": deciles[8] * 1e3,
    }


def _per_layer(workload, tracer, plain, traced, import_s):
    import inputs
    from workloads import LawList, Mutants

    k = len(traced)
    layer = {
        "cli.import_s": import_s,
        "cli.build_parser.s": tracer.seconds("cli.build_parser") / k,
        "cli.main.self_s": tracer.stats["cli.main"].self_time / k,
        "conditional.kernel_calls": tracer.calls("conditional.kernel.") / k,
        "conditional.kernel_s": tracer.seconds("conditional.kernel.") / k,
        "conditional.op_calls": tracer.calls("conditional.op.") / k,
        "conditional.self_s": tracer.layer_self("conditional") / k,
        "schay.kernel_calls": tracer.calls("schay.kernel.") / k,
        "schay.self_s": tracer.layer_self("schay") / k,
        "prob.Measure.calls": tracer.calls("prob.Measure") / k,
        "prob.Measure.s": tracer.seconds("prob.Measure") / k,
        "prob.weight_bits.calls": tracer.calls("prob.weight_bits") / k,
        "prob.weight_bits.s": tracer.seconds("prob.weight_bits") / k,
        "prob.p_cond.calls": tracer.calls("prob.p_cond") / k,
        "prob.p_cond.s": tracer.seconds("prob.p_cond") / k,
        "prob.additive_law_check.calls": tracer.calls("prob.additive_law_check") / k,
        "prob.additive_law_check.s": tracer.seconds("prob.additive_law_check") / k,
        "prob.expansions.calls": (tracer.calls("prob.p_or_formula")
                                  + tracer.calls("prob.p_superposition")) / k,
        "prob.expansions.s": (tracer.seconds("prob.p_or_formula")
                              + tracer.seconds("prob.p_superposition")) / k,
        "prob.self_s": tracer.layer_self("prob") / k,
    }
    for name in ("parse_space", "parse_expr", "lower", "format_conditional"):
        layer["lang.%s.calls" % name] = tracer.calls("lang." + name) / k
        layer["lang.%s.s" % name] = tracer.seconds("lang." + name) / k
    layer["lang.self_s"] = tracer.layer_self("lang") / k
    layer["relations.calls"] = tracer.calls("relations.") / k
    layer["relations.s"] = tracer.layer_total.get("relations", 0.0) / k
    layer["relations.self_s"] = tracer.layer_self("relations") / k
    layer["lawcheck.self_s"] = tracer.layer_self("lawcheck") / k

    # Per-law and per-kernel times come from the plain passes.
    per_key = {}
    for run in plain:
        for key, seconds in run.key_seconds.items():
            per_key.setdefault(key, []).append(seconds)
    for key in inputs.BUDGET_KEYS:
        measured = isinstance(workload, LawList) and key in per_key
        layer["lawcheck.%s.s" % key] = _median(per_key[key]) if measured else 0.0
        layer["lawcheck.%s.instances" % key] = workload.instances.get(key, 0) if measured else 0
    for kernel in inputs.MUTANT_KERNELS:
        measured = isinstance(workload, Mutants) and kernel in per_key
        layer["lawcheck.mutants.%s.s" % kernel] = _median(per_key[kernel]) if measured else 0.0
    # Each pass over its reference loop, so the machine's speed cancels.
    layer["trace.overhead"] = (_median([run.seconds / run.reference for run in traced])
                               / _median([run.seconds / run.reference for run in plain]))
    return layer


def main(argv):
    root, name, inputs_path, seconds, trace, mode = argv[1:7]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

    t0 = time.perf_counter()
    import boolfrac.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(boolfrac.cli.__file__).startswith(src + os.sep):
        sys.exit("boolfrac was imported from outside %s" % src)

    import json
    import resource

    import workloads

    with open(inputs_path, encoding="utf-8") as handle:
        workload = workloads.load(name, json.load(handle))
    t1 = time.perf_counter()
    workload.setup()
    result = {"setup_s": import_s + time.perf_counter() - t1}
    if mode == "run":
        traced = trace == "1"
        budget = float(seconds)
        plain, wrong = _passes(workload, budget / 2 if traced else budget)
        result["attempted"] = sum(len(run.latencies) for run in plain)
        result["failures"] = [failure for run in plain for failure in run.failures]
        result["wrong"] = wrong
        result["passes"] = len(plain)
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                spent = sum(run.seconds for run in plain)
                traced_runs, traced_wrong = _passes(workload, budget - spent, tracer)
            finally:
                tracer.restore()
            result["wrong"] += [w for w in traced_wrong if w not in wrong]
            result["metrics"] = _per_layer(workload, tracer, plain, traced_runs, import_s)
            with open(argv[7], "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
        else:
            result["metrics"] = _end_to_end(plain)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
