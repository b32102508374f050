"""Hand-built micro instances shared between the unit and acceptance suites,
the deordered plans of the golden removal corpus, and the benchmark's
elevator towers."""

import importlib
import math
import sys
from pathlib import Path

from popflex.bdpo import block_deorder
from popflex.corpus import random_task
from popflex.eog import eog
from popflex.fibs import FibsConfig
from popflex.substitution import CandidateBlock
from popflex.task import (PlanningTask, SequentialPlan, Variable,
                          make_operator, parse_plan, parse_sas)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def single_op_candidate(op) -> CandidateBlock:
    return CandidateBlock(ops=(op,), links=(), resolutions=(), cost=op.cost)


def blocks_by_name(plan) -> dict[str, int]:
    out = {}
    for b in plan.real_roots():
        blk = plan.blocks[b]
        if blk.primitive:
            out[plan.steps[blk.step].name] = b
    return out


def relink_scenario():
    """Replacement consumes an earlier fact and keeps the downstream link."""
    variables = [Variable(f"v{i}", ("0", "1")) for i in range(1, 6)]
    variables.append(Variable("v6", ("0", "1", "2")))   # value 2 unreachable
    ops = [
        make_operator("b_r", [(0, 0)], [(0, 1)]),
        make_operator("b_i", [(0, 1)], [(1, 1)]),
        make_operator("b_x", [(1, 1)], [(2, 1)]),
        make_operator("b_t", [(2, 1)], [(3, 1)]),
        make_operator("b_s", [], [(0, 0), (4, 1)]),
        make_operator("b_x_hat", [(0, 1)], [(2, 1)]),
    ]
    task = PlanningTask(variables, ops, {i: 0 for i in range(6)},
                        {3: 1, 4: 1})
    return task, SequentialPlan([0, 1, 2, 3, 4])


def between_scenario(substitutable: bool):
    """The substitute lands strictly between a link's endpoints while
    deleting the linked fact; resolvable only by absorbing the consumer."""
    variables = [Variable("v1", ("0", "1", "2")), Variable("v2", ("0", "1")),
                 Variable("v3", ("0", "1")), Variable("v4", ("0", "1"))]
    eff_hat = [(0, 2), (2, 1)] + ([(3, 1)] if substitutable else [])
    ops = [
        make_operator("b_i", [], [(0, 1), (1, 1)]),
        make_operator("b_x", [], [(2, 1)]),
        make_operator("b_j", [(0, 1), (2, 1)], [(3, 1)]),
        make_operator("b_x_hat", [(1, 1)], eff_hat),
    ]
    task = PlanningTask(variables, ops, {i: 0 for i in range(4)}, {3: 1})
    return task, SequentialPlan([0, 1, 2])


def mutual_threat_scenario(substitutable: bool):
    """A shared producer feeds a fact to two blocks that both delete it."""
    variables = [Variable("v1", ("0", "1")), Variable("v2", ("0", "1")),
                 Variable("v3", ("0", "1"))]
    eff_hat = [(0, 0), (2, 1)] + ([(1, 1)] if substitutable else [])
    ops = [
        make_operator("b_i", [], [(0, 1)]),
        make_operator("b_j", [(0, 1)], [(0, 0), (1, 1)]),
        make_operator("b_x", [], [(2, 1)]),
        make_operator("b_x_hat", [(0, 1)], eff_hat),
    ]
    task = PlanningTask(variables, ops, {0: 0, 1: 0, 2: 0}, {1: 1, 2: 1})
    return task, SequentialPlan([0, 1, 2])


def witness_scenario():
    """Two producers in a chain; committing to the earlier one runs into the
    mutual-threat trap although binding the later one works."""
    variables = [Variable("v1", ("0", "1", "2")), Variable("v2", ("0", "1")),
                 Variable("v3", ("0", "1")), Variable("v4", ("0", "1")),
                 Variable("v5", ("0", "1"))]
    ops = [
        make_operator("b1", [], [(0, 1), (1, 1)]),
        make_operator("b2", [(1, 1)], [(0, 1), (2, 1)]),
        make_operator("bt", [(0, 1)], [(0, 0), (4, 1)]),
        make_operator("bx", [(2, 1)], [(3, 1)]),
        make_operator("bx_hat", [(0, 1)], [(0, 2), (3, 1)]),
    ]
    task = PlanningTask(variables, ops, {i: 0 for i in range(5)},
                        {3: 1, 4: 1})
    return task, SequentialPlan([0, 1, 2, 3])


def removal_corpus():
    """The 40 deordered plans of `random_task(seed, max_vars=8,
    max_steps=30)` with 15 steps or more, seeds in order; their blocks
    nest up to seven deep."""
    plans = seed = 0
    while plans < 40:
        task, seq = random_task(seed, max_vars=8, max_steps=30)
        seed += 1
        if len(seq.steps) >= 15:
            plans += 1
            yield block_deorder(eog(task, seq))


def perfbench_workloads():
    """The benchmark's `workloads` module, imported without writing bytecode
    under perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


def towers(k: int):
    """K renamed-apart copies of the two-lift elevator, built by the
    benchmark's `towers_sas` and `towers_plan` (towers in index order), and
    the towers configuration: gj reduction, 2,000 expansions per subtask, no
    wall-clock budget."""
    workloads = perfbench_workloads()
    task = parse_sas(workloads.towers_sas(k))
    seq = parse_plan(workloads.towers_plan(list(range(k))), task)
    config = FibsConfig(reduce="gj", max_expansions=2000,
                        subtask_time=math.inf, time_limit=math.inf)
    return task, seq, config
