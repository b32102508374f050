#!/usr/bin/env python3
"""Profile the pipeline on the random corpus, on scaling300 and on k
elevator towers.

Usage: python scripts/profile_corpus.py [random|scaling300|all|towers K]

`random` runs `fibs` on `random_task` seeds 0-299 (`max_vars=8`,
`max_steps=12`) under the random-corpus configuration: gj reduction, 3
plans and 1,500 expansions per subtask, no wall-clock budget.
`scaling300` runs it once on the 300-step scaling task under the
criterion-8 configuration (no reduction, 3 plans, 2,000 expansions).
`towers K` runs it once on K renamed-apart copies of the two-lift elevator,
built by `perfbench/workloads.py`'s `towers_sas` and `towers_plan` (towers
in index order), with gj reduction, 2,000 expansions per subtask and no
wall-clock budget.  `all` runs `random` and `scaling300`.
Each runs under cProfile and prints the 25 functions with the largest
cumulative time, the call counts of `BdpoPlan.rebuild_closure`,
`BdpoPlan.threats`, `BdpoPlan.validate`, `BdpoPlan.flex`, `solve_subtask`,
`substitute`, the subplanner's `_h_add` and
`_SuccessorGenerator.applicable` (recursive calls included), and a sha1
over each run's plan JSON and phase reports.  The random digest is the one
`tests/test_golden.py` pins as RANDOM_DIGEST, so a change that moves the
cost can be seen to keep the outputs.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import os
import pstats
import sys
import time
from pathlib import Path

from popflex.corpus import random_task, scaling_task
from popflex.fibs import FibsConfig, fibs
from popflex.task import parse_plan, parse_sas

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (module file, function, printed name)
COUNTED = (("bdpo.py", "rebuild_closure", "BdpoPlan.rebuild_closure"),
           ("bdpo.py", "threats", "BdpoPlan.threats"),
           ("bdpo.py", "validate", "BdpoPlan.validate"),
           ("bdpo.py", "flex", "BdpoPlan.flex"),
           ("subplanner.py", "solve_subtask", "solve_subtask"),
           ("substitution.py", "substitute", "substitute"),
           ("subplanner.py", "_h_add", "_h_add"),
           ("subplanner.py", "applicable", "_SuccessorGenerator.applicable"))


def random_corpus():
    config = FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                        subtask_time=math.inf, time_limit=math.inf)
    return [(*random_task(seed, max_vars=8, max_steps=12), config)
            for seed in range(300)]


def scaling300():
    config = FibsConfig(reduce="none", max_plans=3, max_expansions=2000)
    return [(*scaling_task(), config)]


def towers(k: int):
    """The benchmark's tower generator, imported without writing bytecode
    under perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from workloads import towers_plan, towers_sas
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    task = parse_sas(towers_sas(k))
    seq = parse_plan(towers_plan(list(range(k))), task)
    config = FibsConfig(reduce="gj", max_expansions=2000,
                        subtask_time=math.inf, time_limit=math.inf)
    return [(task, seq, config)]


CORPORA = {"random": random_corpus, "scaling300": scaling300}


def profile(name: str, runs) -> None:
    digest = hashlib.sha1()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    outputs = [fibs(task, seq, config) for task, seq, config in runs]
    profiler.disable()
    elapsed = time.perf_counter() - t0
    for plan, reports in outputs:
        digest.update(json.dumps([plan.to_json(),
                                  [r.to_dict() for r in reports]],
                                 sort_keys=True).encode())
    print(f"== {name}: {len(runs)} runs, {elapsed:.2f} s under the profiler")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(25)
    calls = {(module, func): 0 for module, func, _ in COUNTED}
    for (path, _, func), (_, ncalls, *_) in stats.stats.items():
        module = os.path.basename(path)
        if (module, func) in calls:
            calls[module, func] += ncalls
    for module, func, printed in COUNTED:
        print(f"{name} {printed} calls: {calls[module, func]}")
    print(f"{name} output digest: {digest.hexdigest()}")


def main(argv: list[str]) -> int:
    which = argv[0] if argv else "all"
    if which == "towers" and len(argv) == 2 and argv[1].isdigit():
        profile(f"towers {argv[1]}", towers(int(argv[1])))
        return 0
    if which not in (*CORPORA, "all") or len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for name in CORPORA if which == "all" else (which,):
        profile(name, CORPORA[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
