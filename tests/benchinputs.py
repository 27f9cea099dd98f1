"""The benchmark's own modules and inputs, for tests that check the
program against what `perfbench/` runs. `perfbench/` imports its modules
by their bare names, so its directory is on `sys.path` for the import
alone."""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def perfbench_module(name):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def query_inputs(seed, run_dir):
    """The benchmark's `query` inputs, written under run_dir: the paths of
    its three space files ("spaces") and its requests, each (argv, known
    answer)."""
    path = perfbench_module("inputs").generate("query", seed, str(ROOT), str(run_dir))
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
