"""The benchmark's workloads: input generation, the timed call, output checks.

Each workload's set-up generates its tasks and plans, writes them as SAS+
and plan text, and parses the text back, so the program only ever receives
the generated inputs through its own parsers.  The seed changes the inputs
but not what a correct program must output for them: it shuffles the order
of the instances, interleaves the chains, and orders the towers.  Quality
figures are therefore comparable across seeds.

The program's modules are looked up at call time (`fibs_mod.fibs`, not a
name imported once), so the traced run can patch them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from importlib import import_module
from statistics import mean

import checks

# The package re-exports functions under its submodules' names (popflex.fibs
# is the function), so the modules are taken from the import system.
corpus = import_module("popflex.corpus")
eog_mod = import_module("popflex.eog")
fibs_mod = import_module("popflex.fibs")
maxsat_mod = import_module("popflex.maxsat")
task_mod = import_module("popflex.task")

# Wall-clock budgets that can never bind, so only expansion caps shape the
# outputs and the outputs do not depend on machine speed.
NO_CLOCK = dict(subtask_time=math.inf, time_limit=math.inf)


@dataclass
class Instance:
    task: object
    plan: object


def round_trip(task_text: str, plan_text: str) -> Instance:
    task = task_mod.parse_sas(task_text)
    return Instance(task, task_mod.parse_plan(plan_text, task))


def as_text(task, plan) -> tuple[str, str]:
    return task_mod.emit_sas(task), task_mod.emit_plan(task, plan)


def _digest(*parts) -> str:
    return hashlib.sha1(json.dumps(parts, sort_keys=True).encode()).hexdigest()


# -- the pipeline workloads ---------------------------------------------------

# Per-layer figures read from the outputs, not from spans.
OUTPUT_COUNTS = ("bdpo.compound_blocks", "fibs.reduce.removed_steps",
                 "fibs.sd1.s", "fibs.bd.s", "fibs.sd2.s", "fibs.reduce.s")


class FibsWorkload:
    """One `fibs` run per instance under the flex-first criteria."""

    def __init__(self, config):
        self.config = config

    def run(self, inst):
        return fibs_mod.fibs(inst.task, inst.plan, self.config)

    def check(self, inst, output, rng) -> list[str]:
        out, reports = output
        input_ops = [inst.task.operators[i] for i in inst.plan.steps]
        return checks.fibs_output(inst.task, input_ops, out, reports, rng)

    def digest(self, output) -> str:
        out, reports = output
        return _digest(out.to_json(), [r.to_dict() for r in reports])

    def quality(self, outputs) -> dict:
        return {"flex_final": mean(out.flex().value for out, _ in outputs),
                "cost_final": sum(out.cost() for out, _ in outputs)}

    def layer_counts(self, outputs) -> dict:
        """OUTPUT_COUNTS summed over the outputs and their phase reports."""
        counts = dict.fromkeys(OUTPUT_COUNTS, 0)
        for out, reports in outputs:
            counts["bdpo.compound_blocks"] += sum(
                1 for b in out.live_blocks() if out.blocks[b].step is None)
            for r in reports:
                key = f"fibs.{r.phase.lower()}.s"
                if key in counts:
                    counts[key] += r.elapsed
                if r.phase == "REDUCE":
                    counts["fibs.reduce.removed_steps"] += (
                        r.steps_before - r.steps_after)
        return counts


class RandomSmall(FibsWorkload):
    """random_task seeds 0..299, the corpus of the acceptance criteria."""

    PLANS = 300

    def __init__(self):
        super().__init__(fibs_mod.FibsConfig(
            reduce="gj", max_plans=3, max_expansions=1500, **NO_CLOCK))

    def setup(self, seed: int) -> list[Instance]:
        texts = [as_text(*corpus.random_task(s, max_vars=8, max_steps=12))
                 for s in range(self.PLANS)]
        random.Random(seed).shuffle(texts)
        return [round_trip(*t) for t in texts]


class ChainsWide(FibsWorkload):
    """10 independent chains of depth 4; every substitution is rejected."""

    CHAINS, DEPTH = 10, 4

    def __init__(self):
        super().__init__(fibs_mod.FibsConfig(
            reduce="gj", max_plans=3, max_expansions=2000, **NO_CLOCK))

    def setup(self, seed: int) -> list[Instance]:
        task, _ = corpus.scaling_task(self.CHAINS, self.DEPTH)
        # a seeded interleaving: each chain's steps stay in chain order
        turns = [c for c in range(self.CHAINS) for _ in range(self.DEPTH)]
        random.Random(seed).shuffle(turns)
        done = [0] * self.CHAINS
        steps = []
        for c in turns:
            steps.append(c * self.DEPTH + done[c])
            done[c] += 1
        return [round_trip(*as_text(task, task_mod.SequentialPlan(steps)))]

    def check(self, inst, output, rng) -> list[str]:
        return (super().check(inst, output, rng)
                + checks.chains_output(output[0], self.CHAINS))


class ElevatorTowers(FibsWorkload):
    """k disjoint copies of the two-lift elevator, FibsConfig defaults."""

    TOWERS = 2

    def __init__(self):
        super().__init__(fibs_mod.FibsConfig(reduce="gj", **NO_CLOCK))

    def setup(self, seed: int) -> list[Instance]:
        order = list(range(self.TOWERS))
        random.Random(seed).shuffle(order)
        return [round_trip(towers_sas(self.TOWERS), towers_plan(order))]

    def check(self, inst, output, rng) -> list[str]:
        return (super().check(inst, output, rng)
                + checks.towers_output(output[0], self.TOWERS))


# -- elevator towers ----------------------------------------------------------
# The paper's walkthrough: floors n1..n3, lift e1 serves all of them, lift e2
# only n1 and n2; p1 goes from n2 to n3 and p2 from n1 to n2; e1 starts at n3
# and e2 at n1.  Tower t renames every object o to "o-t".

FLOORS = ("n1", "n2", "n3")
LIFTS = {"e1": FLOORS, "e2": FLOORS[:2]}
PASSENGERS = {"p1": ("n2", "n3"), "p2": ("n1", "n2")}    # from, to
LIFT_START = {"e1": "n3", "e2": "n1"}
WALKTHROUGH_PLAN = [
    "move_down e1 n3 n2", "board p1 n2 e1", "move_up e1 n2 n3",
    "leave p1 n3 e1", "move_down e1 n3 n2", "move_down e1 n2 n1",
    "board p2 n1 e1", "move_up e1 n1 n2", "leave p2 n2 e1"]


def _rename(name: str, tower: int) -> str:
    verb, *objects = name.split()
    return " ".join([verb] + [f"{o}-{tower}" for o in objects])


def towers_sas(k: int) -> str:
    """SAS+ v3 text of k renamed-apart copies of the elevator task."""
    places = [f"at-{f}" for f in FLOORS] + [f"in-{lift}" for lift in LIFTS]
    variables, init, goal, ops = [], [], [], []
    for t in range(k):
        var = {}
        for lift, floors in LIFTS.items():
            var[lift] = len(variables)
            variables.append((f"lift-{lift}-{t}", [f"at-{f}" for f in floors]))
            init.append(floors.index(LIFT_START[lift]))
        for p, (src, dst) in PASSENGERS.items():
            var[p] = len(variables)
            variables.append((f"pos-{p}-{t}", places))
            init.append(places.index(f"at-{src}"))
            goal.append((var[p], places.index(f"at-{dst}")))
        for lift, floors in LIFTS.items():
            for lo, hi in zip(floors, floors[1:]):
                i, j = floors.index(lo), floors.index(hi)
                ops.append((f"move_up {lift} {lo} {hi}", t, [], [(var[lift], i, j)]))
                ops.append((f"move_down {lift} {hi} {lo}", t, [], [(var[lift], j, i)]))
        for p in PASSENGERS:
            for lift, floors in LIFTS.items():
                inside = places.index(f"in-{lift}")
                for f in floors:
                    at = places.index(f"at-{f}")
                    prevail = [(var[lift], floors.index(f))]
                    ops.append((f"board {p} {f} {lift}", t, prevail,
                                [(var[p], at, inside)]))
                    ops.append((f"leave {p} {f} {lift}", t, prevail,
                                [(var[p], inside, at)]))
    out = ["begin_version", "3", "end_version", "begin_metric", "1",
           "end_metric", str(len(variables))]
    for name, values in variables:
        out += ["begin_variable", name, "-1", str(len(values)), *values,
                "end_variable"]
    out += ["0", "begin_state", *map(str, init), "end_state",
            "begin_goal", str(len(goal)), *(f"{v} {d}" for v, d in goal),
            "end_goal", str(len(ops))]
    for name, t, prevail, effects in ops:
        out += ["begin_operator", _rename(name, t), str(len(prevail)),
                *(f"{v} {d}" for v, d in prevail), str(len(effects)),
                *(f"0 {v} {pre} {post}" for v, pre, post in effects),
                "1", "end_operator"]
    out.append("0")
    return "\n".join(out) + "\n"


def towers_plan(order: list[int]) -> str:
    """The serial single-lift walkthrough plan of each tower, concatenated."""
    return "".join(f"({_rename(step, t)})\n"
                   for t in order for step in WALKTHROUGH_PLAN)


# -- the MaxSAT layer ---------------------------------------------------------

class MaxsatReorder:
    """Exact optima on tiny tasks, and emit-only encodings of larger plans."""

    TINY = 100              # random_task seeds 1..100, at most 5 steps
    EMIT = 3                # the first seeds whose plans have 40..50 steps

    def setup(self, seed: int) -> list[Instance]:
        tiny = [as_text(*corpus.random_task(s, max_vars=4, max_steps=5,
                                            unit_costs=True))
                for s in range(1, self.TINY + 1)]
        emit, s = [], 0
        while len(emit) < self.EMIT:
            task, plan = corpus.random_task(s, max_vars=8, max_steps=80)
            if 40 <= len(plan.steps) <= 50:
                emit.append(as_text(task, plan))
            s += 1
        # The emit-only encodings run first, so the memory they leave behind
        # is the same for every tiny instance and every seed.
        rng = random.Random(seed)
        rng.shuffle(emit)
        rng.shuffle(tiny)
        return [round_trip(*t) for t in emit + tiny]

    def run(self, inst):
        pop = eog_mod.eog(inst.task, inst.plan)
        if len(inst.plan.steps) >= 40:
            wcnf, cat = maxsat_mod.encode_mr(inst.task, pop)
            return ("emit", pop, cat, wcnf.to_dimacs())
        optima = []
        for mclcp in (False, True):
            wcnf, cat = maxsat_mod.encode_mr(inst.task, pop, mclcp)
            model, _ = maxsat_mod.optimal_model(inst.task, pop, mclcp)
            decoded = maxsat_mod.decode_model(model, cat, inst.task, pop, wcnf)
            optima.append((wcnf.hard, model, decoded))
        return ("optimum", optima)

    def check(self, inst, output, rng) -> list[str]:
        if output[0] == "emit":
            _, pop, cat, text = output
            model = checks.total_order_model(cat, pop, pop.real_steps())
            return checks.hard_clauses(checks.parse_wcnf_hard(text), model)
        failures = []
        for mclcp, (hard, model, decoded) in zip((False, True), output[1]):
            failures += checks.hard_clauses(hard, model)
            oracle = maxsat_mod.brute_force_mr(inst.task, inst.plan, mclcp)
            if (maxsat_mod.ordering_count(decoded)
                    != maxsat_mod.ordering_count(oracle)):
                failures.append(f"ordering count differs from the oracle "
                                f"(mclcp={mclcp})")
            if mclcp and decoded.cost() != oracle.cost():
                failures.append("MCLCP cost differs from the oracle")
        return failures

    def digest(self, output) -> str:
        if output[0] == "emit":
            return hashlib.sha1(output[3].encode()).hexdigest()
        return _digest([(sorted(model), decoded.to_json())
                        for _, model, decoded in output[1]])

    def quality(self, outputs) -> dict:
        decoded = [d for out in outputs if out[0] == "optimum"
                   for _, _, d in out[1]]
        return {"flex_final": mean(d.flex().value for d in decoded),
                "cost_final": sum(d.cost() for d in decoded)}

    def layer_counts(self, outputs) -> dict:
        return dict.fromkeys(OUTPUT_COUNTS, 0)


WORKLOADS = {
    "random-small": RandomSmall,
    "chains-wide": ChainsWide,
    "elevator-towers": ElevatorTowers,
    "maxsat-reorder": MaxsatReorder,
}
