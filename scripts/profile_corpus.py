#!/usr/bin/env python3
"""Profile the pipeline on the random corpus and on scaling300.

Usage: python scripts/profile_corpus.py [random|scaling300|all]

`random` runs `fibs` on `random_task` seeds 0-299 (`max_vars=8`,
`max_steps=12`) under the random-corpus configuration: gj reduction, 3
plans and 1,500 expansions per subtask, no wall-clock budget.
`scaling300` runs it once on the 300-step scaling task under the
criterion-8 configuration (no reduction, 3 plans, 2,000 expansions).
Each runs under cProfile and prints the 25 functions with the largest
cumulative time, the call counts of `BdpoPlan.rebuild_closure`,
`BdpoPlan.threats`, `BdpoPlan.validate`, `BdpoPlan.flex`, `solve_subtask`
and `substitute` (recursive calls included), and a sha1 over each run's
plan JSON and phase reports.  The random digest is the one
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

from popflex.corpus import random_task, scaling_task
from popflex.fibs import FibsConfig, fibs

# (module file, function, printed name)
COUNTED = (("bdpo.py", "rebuild_closure", "BdpoPlan.rebuild_closure"),
           ("bdpo.py", "threats", "BdpoPlan.threats"),
           ("bdpo.py", "validate", "BdpoPlan.validate"),
           ("bdpo.py", "flex", "BdpoPlan.flex"),
           ("subplanner.py", "solve_subtask", "solve_subtask"),
           ("substitution.py", "substitute", "substitute"))


def random_corpus():
    config = FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                        subtask_time=math.inf, time_limit=math.inf)
    return [(*random_task(seed, max_vars=8, max_steps=12), config)
            for seed in range(300)]


def scaling300():
    config = FibsConfig(reduce="none", max_plans=3, max_expansions=2000)
    return [(*scaling_task(), config)]


CORPORA = {"random": random_corpus, "scaling300": scaling300}


def profile(name: str) -> None:
    runs = CORPORA[name]()
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
    if which not in (*CORPORA, "all"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for name in CORPORA if which == "all" else (which,):
        profile(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
