#!/usr/bin/env python3
"""Run the popflex benchmark.

    python3 perfbench/run.py --workload random-small --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory; it exits with a non-zero status when there is none.  With
`--workload all` (the default) each workload runs in a process of its own,
one after another.

A run generates its inputs from the seed (set-up, repeated and timed), then
repeats whole rounds over every instance until `--seconds` have passed, and
checks every output.  Call times are given in multiples of a fixed reference
workload timed in the same run (see README.md).  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
untraced and traced rounds alternate, and the metrics are the per-layer
ones, the traced round time and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS, SETUP_BATCH_S = 5, 0.02
REFERENCE_EVERY_S = 0.1

UNITS = {"setup_s": "s", "run_ref": "ref", "instance_p50_ref": "ref",
         "instance_p90_ref": "ref", "peak_rss_mb": "MB", "flex_final": "ratio",
         "cost_final": "cost"}


def unit(name: str) -> str:
    """Units follow the per-layer naming: .s seconds, .bytes, .clauses,
    *ratio, and counts otherwise."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    suffix = name.rsplit(".", 1)[-1]
    return {"bytes": "bytes", "clauses": "clauses"}.get(
        suffix, "ratio" if suffix.endswith("ratio") else "count")


def import_program():
    src = ROOT / "src"
    if not (src / "popflex" / "__init__.py").is_file():
        sys.exit(f"no popflex sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import popflex
    if Path(popflex.__file__).resolve().parent != src / "popflex":
        sys.exit(f"imported popflex from {popflex.__file__}, not {src}")


def reference_work() -> None:
    """A fixed piece of pure-Python work: dict, set and tuple operations like
    the planner's own, about 15 ms long."""
    counts: dict = {}
    for i in range(20000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        found = {i, i + 1, i % 7}
        found &= {1, 2, 3, i}
    sorted(counts.items())


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def time_setups(workload, seed: int, batch: int, repeats: int) -> list[float]:
    """Per-set-up seconds of `repeats` batches of `batch` back-to-back
    set-ups.  A batch of about SETUP_BATCH_S is long enough for the clock."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            workload.setup(seed)
        samples.append((time.perf_counter() - t0) / batch)
    return samples


def run_round(workload, instances, tracer):
    """One timed call per instance.  Returns the outputs (None where a call
    raised), the call times, the reference work's time last measured before
    each call (at most REFERENCE_EVERY_S earlier), and the errors."""
    outputs, times, refs, errors = [], [], [], []
    ref_at = -math.inf
    if tracer:
        tracer.install()
        round_span = tracer.open("round")
    try:
        for inst in instances:
            if time.perf_counter() - ref_at >= REFERENCE_EVERY_S:
                ref = reference_seconds()
                ref_at = time.perf_counter()
            span = tracer.open("instance") if tracer else None
            t0 = time.perf_counter()
            try:
                outputs.append(workload.run(inst))
            except Exception as exc:          # counted as a failed instance
                outputs.append(None)
                errors.append(repr(exc))
            times.append(time.perf_counter() - t0)
            refs.append(ref)
            if tracer:
                tracer.close(span)
    finally:
        if tracer:
            tracer.close(round_span)
            tracer.uninstall()
    return outputs, times, refs, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    os.environ.pop("POPFLEX_PLANNER_CMD", None)
    workload = WORKLOADS[name]()
    tracer = Tracer() if trace else None

    # The first set-up is cold and untimed.  Timed batches follow it and
    # every round, so the median set-up time samples the whole run.
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    instances = workload.setup(seed)
    batch = max(1, math.ceil(SETUP_BATCH_S / (time.perf_counter() - t0)))
    setup_times = time_setups(workload, seed, batch, SETUP_REPEATS)
    setups = 1 + batch * SETUP_REPEATS
    if tracer:
        tracer.uninstall()

    rng = random.Random(seed)
    checked: list[str | None] = [None] * len(instances)
    attempted = failed = 0
    plain, traced, quality = [], [], []
    all_refs, relative = [], [[] for _ in instances]
    layer_rounds = []
    problems = []
    start = time.perf_counter()
    while True:
        use_tracer = tracer if (tracer and len(plain) > len(traced)) else None
        outputs, times, refs, errors = run_round(workload, instances,
                                                 use_tracer)
        (traced if use_tracer else plain).append(sum(times))
        all_refs += refs
        if not use_tracer:
            for calls, t, ref in zip(relative, times, refs):
                calls.append(t / ref)
        problems += errors
        attempted += len(instances)
        ok = []
        for i, (inst, out) in enumerate(zip(instances, outputs)):
            if out is None:
                failed += 1
                continue
            digest = workload.digest(out)
            if digest != checked[i]:
                found = workload.check(inst, out, rng)
                if found:
                    failed += 1
                    problems.append(f"instance {i}: {'; '.join(found)}")
                    continue
                checked[i] = digest
            ok.append(out)
        setup_times += time_setups(workload, seed, batch, 1)
        if ok:
            quality.append(workload.quality(ok))
        if use_tracer:
            layer_rounds.append(workload.layer_counts(ok))
        if time.perf_counter() - start >= seconds and (
                not tracer or traced):
            break

    for p in problems[:5]:
        print(f"FAILED {name}: {p}", file=sys.stderr)
    print(f"{name} wall time of an untraced round: median "
          f"{statistics.median(plain):.6g} s; reference work: median "
          f"{statistics.median(all_refs):.6g} s")
    result = {"correct": failed == 0 and bool(quality),
              "attempted": attempted, "failed": failed}
    if not trace:
        per_instance = [statistics.median(calls) for calls in relative]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_ref": sum(per_instance),
            "instance_p50_ref": statistics.median(per_instance),
            "instance_p90_ref": statistics.quantiles(
                per_instance, n=10, method="inclusive")[-1]
            if len(per_instance) > 1 else per_instance[0],
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for key in ("flex_final", "cost_final"):
            metrics[key] = statistics.median(q[key] for q in quality) \
                if quality else 0.0
    else:
        metrics = layer_metrics(tracer.summary(), len(traced), setups)
        for key in layer_rounds[0]:
            metrics[key] = statistics.mean(r[key] for r in layer_rounds)
        metrics["trace.run_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"trace-{name}-seed{seed}.csv")
        if tracer.absent:
            print(f"absent: {' '.join(tracer.absent)}")
    result["metrics"] = {k: {"value": v, "unit": unit(k)}
                         for k, v in metrics.items()}
    return result


def run_all(args) -> int:
    """Each workload in a process of its own, one after another."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    import_program()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {result['attempted']} "
          f"failed {result['failed']} correct {result['correct']}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
