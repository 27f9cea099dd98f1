"""The boolfrac benchmark: one command, four workloads, exact answers.

usage: python3 perfbench/run.py --workload {catalog,grid,mutants,query,all}
                                --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports boolfrac from `src/`. Each
workload runs in its own fresh interpreter (`worker.py`), one at a time,
as a closed loop with one client: an operation starts only after the
previous one returned. The inputs are made from the seed first
(`inputs.py`); the program sees only them.

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` the
per-layer ones, from a run that spends half its time on plain passes and
half on passes under `tracer.py`. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. The
exit code is 0 when every answer matched its known answer, 1 when one
did not, and 2 when the benchmark could not run at all.

`setup_s` is the median of 30 fresh interpreters that each import
`boolfrac.cli` and make the workload's set-up calls, after one warm-up
that fills the bytecode cache; half run before the timed run and half
after it. `--workload all` runs every workload in turn and prints one
table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 30
TIME_LIMIT = 175.0

sys.path.insert(0, HERE)
import inputs  # noqa: E402  (after the path insert)

# Printed by every --trace 0 run but not declared in BENCHMARK.json.
# The bare times move with the speed of the machine: on the 2-core VM
# this benchmark was built on, by more than any allowed bound between
# runs. `run_ratio`, the pass time over a fixed reference loop timed in
# the same interpreter, is declared instead. `failed_ratio` is printed
# too.
PRINTED_ONLY = {"run_s": "s", "reference_ms": "ms", "request_p50_ms": "ms",
                "request_p90_ms": "ms"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _declared(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _worker(args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    command = [sys.executable, "-I", os.path.join(HERE, "worker.py")] + args
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=remaining,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit: %s" % " ".join(args)) from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise BenchError("worker failed with exit %d: %s" % (proc.returncode, tail[0]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "boolfrac", "__init__.py")):
        raise BenchError("no boolfrac sources under %s" % os.path.join(ROOT, "src"))
    run_dir = os.path.join(OUT, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        inputs_path = inputs.generate(workload, seed, ROOT, run_dir)
        common = [ROOT, workload, inputs_path, str(seconds), str(trace)]
        _worker(common + ["setup"], deadline)  # warm-up: fills the bytecode cache
        # Half the set-up samples come before the timed run and half after,
        # so they span the run rather than one moment of the machine.
        setups = [_worker(common + ["setup"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES // 2)]
        trace_path = os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed))
        main = _worker(common + ["run", trace_path], deadline)
        setups += [_worker(common + ["setup"], deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if trace:
        values = main["metrics"]
    else:
        values = dict(main["metrics"])
        values["setup_s"] = statistics.median(setups + [main["setup_s"]])
        values["peak_rss_mb"] = main["peak_rss_mb"]
    declared = _declared(trace)
    printed = {} if trace else PRINTED_ONLY
    if set(values) != set(declared) | set(printed):
        raise BenchError("metrics %s differ from BENCHMARK.json"
                         % sorted(set(values) ^ set(declared) ^ set(printed)))
    return {
        "correct": not main["wrong"],
        "attempted": main["attempted"],
        "failed": len(main["failures"]),
        "metrics": {name: {"value": values[name], "unit": declared[name]} for name in declared},
        "printed": {name: {"value": values[name], "unit": printed[name]} for name in printed},
        "wrong": main["wrong"],
        "failures": main["failures"],
        "passes": main["passes"],
    }


def _report(workload, result):
    """Human-readable lines for one workload."""
    print("== %s: %d passes, %d operations attempted" % (
        workload, result["passes"], result["attempted"]))
    for name, metric in list(result["metrics"].items()) + list(result["printed"].items()):
        print("  %-40s %14.6f %s" % (name, metric["value"], metric["unit"]))
    print("  %-40s %14.6f ratio" % ("failed_ratio", result["failed"] / result["attempted"]))
    for failure in sorted(set(result["failures"]))[:10]:
        print("  failed: %s" % failure)
    for wrong in result["wrong"][:10]:
        print("  WRONG: %s" % wrong)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (BenchError, OSError) as exc:
        sys.stderr.write("perfbench: error: %s\n" % exc)
        return 2
    for name, result in results.items():
        _report(name, result)
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {"%s.%s" % (name, m): v for name, r in results.items()
                   for m, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
