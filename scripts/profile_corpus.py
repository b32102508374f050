#!/usr/bin/env python3
"""Profile the pipeline on the random corpus, on scaling300 and on k
elevator towers, and the MaxSAT layer on the benchmark's instances.

Usage: python scripts/profile_corpus.py
           [random|scaling300|all|towers K|time towers K|maxsat|maxsat-cap]

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
`BdpoPlan.reasons`, `BdpoPlan.threats`, `BdpoPlan.refresh`,
`BdpoPlan.validate_current` (one per substitution that meets its
acceptance test, and one per removal that gj or bj builds),
`BdpoPlan.flex`, `BdpoPlan.clone` (one per trial edit that substitution,
removal or block deordering builds),
`solve_subtask`, `substitute`, `remove_blocks` (one per
removal that gj or bj builds), the subplanner's `_search` (one call per
search, two where the expansion cap makes it search again),
`_proved_empty` (one per proof of emptiness), `_h_add` and
`_SuccessorGenerator.applicable` (recursive calls included) with their
cumulative times, and a sha1 over each run's plan JSON and phase reports.
Each counted function is imported and found by its code object, so one
that is renamed stops the script at import instead of reading 0 calls.
The random digest is the one `tests/test_golden.py` pins as RANDOM_DIGEST,
so a change that moves the cost can be seen to keep the outputs.
`time towers K` makes the `towers K` run without the profiler and prints
its wall time, each phase's elapsed time and the same output digest.

`maxsat` profiles one round of the `maxsat-reorder` workload: the
`MaxsatReorder` class of `perfbench/workloads.py`, imported the same way,
builds its seed-1 instances and runs each of them once.  It prints the
calls and cumulative time of `encode_mr`, `Wcnf.to_dimacs`, `check_model`,
`optimal_model`, `decode_model`, `BdpoPlan.refresh` and
`BdpoPlan.rebuild_closure` (with these two a decoded plan records its
threat resolutions and rebuilds its order; `eog` rebuilds one too), and a
sha1 over the workload's digest of each output.
`maxsat-cap` encodes the 200-step `eog(scaling_task(50, 4))`, the CLI's
cap, writes its DIMACS text to a temporary file with `Wcnf.write`, as the
CLI's `encode-mr` does, and prints the wall time of both, the process's
peak resident set (`ru_maxrss`) and a sha1 of the file.  Run it in a
process of its own, since the peak covers the whole process.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import pstats
import resource
import sys
import tempfile
import time
from pathlib import Path

from popflex import maxsat, subplanner, substitution
from popflex.bdpo import BdpoPlan
from popflex.corpus import random_task, scaling_task
from popflex.eog import eog
from popflex.fibs import FibsConfig, fibs
from popflex.task import parse_plan, parse_sas

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (function, printed name); `profile` finds each by its code object, so a
# counted function that is renamed fails here, at import
COUNTED = ((BdpoPlan.rebuild_closure, "BdpoPlan.rebuild_closure"),
           (BdpoPlan.reasons, "BdpoPlan.reasons"),
           (BdpoPlan.threats, "BdpoPlan.threats"),
           (BdpoPlan.refresh, "BdpoPlan.refresh"),
           (BdpoPlan.validate_current, "BdpoPlan.validate_current"),
           (BdpoPlan.flex, "BdpoPlan.flex"),
           (BdpoPlan.clone, "BdpoPlan.clone"),
           (subplanner.solve_subtask, "solve_subtask"),
           (substitution.substitute, "substitute"),
           (substitution.remove_blocks, "remove_blocks"),
           (subplanner._search, "_search"),
           (subplanner._proved_empty, "_proved_empty"),
           (subplanner._h_add, "_h_add"),
           (subplanner._SuccessorGenerator.applicable,
            "_SuccessorGenerator.applicable"))
MAXSAT_COUNTED = ((maxsat.encode_mr, "encode_mr"),
                  (maxsat.Wcnf.to_dimacs, "Wcnf.to_dimacs"),
                  (maxsat.check_model, "check_model"),
                  (maxsat.optimal_model, "optimal_model"),
                  (maxsat.decode_model, "decode_model"),
                  (BdpoPlan.refresh, "BdpoPlan.refresh"),
                  (BdpoPlan.rebuild_closure, "BdpoPlan.rebuild_closure"))


def random_corpus():
    config = FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                        subtask_time=math.inf, time_limit=math.inf)
    return [(*random_task(seed, max_vars=8, max_steps=12), config)
            for seed in range(300)]


def scaling300():
    config = FibsConfig(reduce="none", max_plans=3, max_expansions=2000)
    return [(*scaling_task(), config)]


def perfbench_workloads():
    """The benchmark's `workloads` module, imported without writing bytecode
    under perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads


def towers(k: int):
    workloads = perfbench_workloads()
    task = parse_sas(workloads.towers_sas(k))
    seq = parse_plan(workloads.towers_plan(list(range(k))), task)
    config = FibsConfig(reduce="gj", max_expansions=2000,
                        subtask_time=math.inf, time_limit=math.inf)
    return [(task, seq, config)]


CORPORA = {"random": random_corpus, "scaling300": scaling300}


def maxsat_round():
    """One round of the `maxsat-reorder` workload on its seed-1 instances,
    each output reduced to the workload's own digest."""
    workload = perfbench_workloads().MaxsatReorder()
    instances = workload.setup(1)
    return lambda: [workload.digest(workload.run(inst))
                    for inst in instances]


def profile(name: str, work, counted=COUNTED) -> None:
    """Run `work` under cProfile; it returns a list of output strings."""
    digest = hashlib.sha1()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    outputs = work()
    profiler.disable()
    elapsed = time.perf_counter() - t0
    for output in outputs:
        digest.update(output.encode())
    print(f"== {name}: {len(outputs)} outputs, {elapsed:.2f} s under the "
          f"profiler")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(25)
    for func, printed in counted:
        code = func.__code__
        _, ncalls, _, cumtime, _ = stats.stats.get(
            (code.co_filename, code.co_firstlineno, code.co_name),
            (0, 0, 0, 0.0, None))
        print(f"{name} {printed} calls: {ncalls}, {cumtime:.3f} s cumulative")
    print(f"{name} output digest: {digest.hexdigest()}")


def fibs_runs(runs):
    """Each run's plan JSON and phase reports, as one JSON string."""
    def work():
        outputs = []
        for task, seq, config in runs:
            plan, reports = fibs(task, seq, config)
            outputs.append(json.dumps([plan.to_json(),
                                       [r.to_dict() for r in reports]],
                                      sort_keys=True))
        return outputs
    return work


def time_towers(k: int) -> None:
    """Wall time, per-phase time and output digest of the `towers K` run."""
    (task, seq, config), = towers(k)
    t0 = time.perf_counter()
    plan, reports = fibs(task, seq, config)
    elapsed = time.perf_counter() - t0
    text = json.dumps([plan.to_json(), [r.to_dict() for r in reports]],
                      sort_keys=True)
    print(f"towers {k}: {len(seq.steps)} -> {len(plan.real_steps())} steps, "
          f"{elapsed:.2f} s")
    for r in reports:
        print(f"towers {k} {r.phase}: {r.elapsed:.2f} s, "
              f"{r.attempted} attempted, {r.accepted} accepted")
    print(f"towers {k} output digest: "
          f"{hashlib.sha1(text.encode()).hexdigest()}")


def maxsat_cap() -> None:
    """Wall time and peak memory of the largest encoding the CLI accepts,
    written as the CLI writes it."""
    task, plan = scaling_task(50, 4)
    pop = eog(task, plan)
    with tempfile.TemporaryDirectory(prefix="popflex-maxsat-cap-") as tmp:
        path = Path(tmp) / "cap.wcnf"
        t0 = time.perf_counter()
        wcnf, _ = maxsat.encode_mr(task, pop)
        t1 = time.perf_counter()
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            wcnf.write(fh)
        t2 = time.perf_counter()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digest = hashlib.sha1()
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
        size = path.stat().st_size
    print(f"maxsat-cap: {len(plan.steps)} steps, "
          f"{wcnf.n_hard + len(wcnf.soft)} clauses, {size} bytes")
    print(f"maxsat-cap encode_mr {t1 - t0:.2f} s, write {t2 - t1:.2f} s, "
          f"total {t2 - t0:.2f} s, peak RSS {peak_mb:.0f} MB")
    print(f"maxsat-cap output digest: {digest.hexdigest()}")


def main(argv: list[str]) -> int:
    which = argv[0] if argv else "all"
    if which == "towers" and len(argv) == 2 and argv[1].isdigit():
        profile(f"towers {argv[1]}", fibs_runs(towers(int(argv[1]))))
        return 0
    if argv[:2] == ["time", "towers"] and len(argv) == 3 \
            and argv[2].isdigit():
        time_towers(int(argv[2]))
        return 0
    if which == "maxsat" and len(argv) == 1:
        profile("maxsat", maxsat_round(), MAXSAT_COUNTED)
        return 0
    if which == "maxsat-cap" and len(argv) == 1:
        maxsat_cap()
        return 0
    if which not in (*CORPORA, "all") or len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for name in CORPORA if which == "all" else (which,):
        profile(name, fibs_runs(CORPORA[name]()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
