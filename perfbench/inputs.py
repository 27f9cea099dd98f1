"""Workload inputs, made from the seed before the program is started.

Nothing here imports boolfrac. The law lists and instance counts are the
known answers recorded from the seed's catalog, so a later change to a
law's budget does not change what the benchmark runs.

Why each workload:

  catalog  every law but the two measure-grid ones, at its atom budget
           and one atom fewer. Kernel-bound (`conditional` kernels and the
           `lawcheck` loops); `prob` and `lang` do almost nothing. This
           is where laws-as-data and bit-sliced evaluation show.
  grid     `t2.13` and `superposition` at 3 atoms over the weight grid
           0..1. `prob`-bound: most of the time is Fraction sums in
           `Measure.weight_bits`, with few kernel calls, so integer
           weight tables show here and bit-slicing should not move it.
  mutants  the 90 single-entry table mutants of the binary kernels,
           each against all 27 laws at 2 atoms. Verdicts are FAIL, so
           early exit and counterexample formatting decide the time; a
           change that helps the PASS path but slows the FAIL path shows.
  query    a seeded stream of CLI requests over 6-, 16- and 64-atom
           spaces, each re-reading its space file as a fresh process
           does. Drives `cli`, `lang`, `relations` and per-request
           `Measure` set-up; a per-measure 2^n structure cannot pay off
           at 64 atoms.
"""

import json
import os
import random

import mutants
import oracle
import querygen

# (law, instances_checked at 1, 2, ... atoms up to the law's budget).
# catalog checks each law at its budget and at one atom fewer. With the
# budget alone the median check is a single 10 ms law next to a gap in
# the times, and it swung by half between runs; the extra size puts
# several checks of about 6 ms around the median and keeps the 90th
# percentile inside the cluster of seven triple-quantified laws.
CATALOG = (
    ("t2.4", (27, 729, 19683, 531441)),
    ("c2.5", (27, 729, 19683, 531441)),
    ("t2.6", (27, 729, 19683, 531441)),
    ("c2.7", (27, 729, 19683, 531441)),
    ("c2.8", (9, 81, 729, 6561)),
    ("c2.9", (9, 81, 729, 6561)),
    ("props2.3", (39, 819, 20439, 538083)),
    ("t2.18", (21, 225, 2457)),
    ("t2.19", (14, 196, 2744)),
    ("p2.20", (12, 90, 756, 6642)),
    ("truth-tables", (30, 504, 6642, 79056)),
    ("t3.2", (9, 81, 729)),
    ("c3.3", (9, 81, 729, 6561)),
    ("c3.5", (9, 81, 729, 6561)),
    ("c3.6", (9, 81, 729, 6561)),
    ("t3.7", (9, 81, 729)),
    ("c3.8", (9, 81, 729)),
    ("t3.9", (9, 81, 729, 6561)),
    ("t3.11", (18, 102, 786, 6726)),
    ("t3.15", (36, 810, 20412, 538002)),
    ("c3.16", (12, 90, 756, 6642)),
    ("t3.17", (73, 1497, 39205, 556795)),
    ("schay-lattice", (78, 1638, 40878)),
    ("schay-coincide", (9, 81, 729, 6561)),
    ("schay-2.12", (3, 9, 27, 81)),
)

# The measure-grid laws at 3 atoms. At the CLI's default grid of 3 the
# counts are 156,096 and 45,657 and a pass takes about 15 s. Grid 1
# keeps a pass near 1.6 s, with the same share of time in
# `Measure.weight_bits` (57% under cProfile at grids 1 and 2), so that
# the reference loop runs between checks often enough to track the
# machine's speed. Grid 2 (58,880 and 19,081 instances) made 6-s passes;
# over five seeds their `run_ratio` spread 0.08 of its median, grid 1's
# 0.01.
GRID_WEIGHT = 1
GRID = (
    ("t2.13", 3, 13120),
    ("superposition", 3, 5561),
)

# Every law id, checked at min(2, budget) = 2 atoms under each mutant.
# The weight grid is 1: at grid 3 the PASS runs of the two grid laws
# take 70% of the pass and bury the FAIL path this workload is for. The
# four ZeroCondition crashes under or_bits mutants occur at every grid.
MUTANT_LAWS = (
    "t2.4", "c2.5", "t2.6", "c2.7", "c2.8", "c2.9", "props2.3", "t2.13",
    "t2.18", "t2.19", "p2.20", "truth-tables", "superposition", "t3.2",
    "c3.3", "c3.5", "c3.6", "t3.7", "c3.8", "t3.9", "t3.11", "t3.15",
    "c3.16", "t3.17", "schay-lattice", "schay-coincide", "schay-2.12",
)
MUTANT_KERNELS = tuple(oracle.KERNEL_OPS)
MUTANT_ATOMS = 2
MUTANT_WEIGHT = 1

# Requests in one pass of the query stream.
QUERY_REQUESTS = 1500

WORKLOADS = ("catalog", "grid", "mutants", "query")

# "<law>.n<atoms>" of each law at its budget in catalog and grid: the
# checks that get per-layer time and instance metrics.
BUDGET_KEYS = tuple("%s.n%d" % (law, len(counts)) for law, counts in CATALOG) + tuple(
    "%s.n%d" % (law, atoms) for law, atoms, _ in GRID)


def generate(workload, seed, root, run_dir):
    """Write the workload's inputs under run_dir; return the inputs file."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "catalog":
        ops = [[law, n, 3, counts[n - 1]] for law, counts in CATALOG
               for n in (len(counts) - 1, len(counts))]
        rng.shuffle(ops)
        inputs = {"ops": ops}
    elif workload == "grid":
        ops = [[law, n, GRID_WEIGHT, count] for law, n, count in GRID]
        rng.shuffle(ops)
        inputs = {"ops": ops}
    elif workload == "mutants":
        specs = mutants.specs()
        rng.shuffle(specs)
        laws = list(MUTANT_LAWS)
        rng.shuffle(laws)
        inputs = {
            "mutants": specs,
            "laws": laws,
            "atoms": MUTANT_ATOMS,
            "grid": MUTANT_WEIGHT,
        }
    elif workload == "query":
        die_path = os.path.join(root, "fixtures", "die.cs")
        with open(die_path, encoding="utf-8") as handle:
            die_text = handle.read()
        g16 = os.path.join(run_dir, "g16.cs")
        g64 = os.path.join(run_dir, "g64.cs")
        files, requests = querygen.generate(
            rng.randrange(2**32), die_text, die_path, g16, g64, QUERY_REQUESTS
        )
        for path, text in files.items():
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        inputs = {"spaces": [die_path, g16, g64], "requests": requests}
    else:
        raise ValueError("unknown workload: %r" % (workload,))
    path = os.path.join(run_dir, "inputs.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(inputs, handle)
    return path
