import itertools

import pytest

from popflex.corpus import (chain_task, elevator_plan, elevator_task,
                            independent_task)
from popflex.bdpo import CD, GOAL_ID, INIT_ID, PC, BdpoPlan, CycleDetected
from popflex.cli import _pop_dot, _pop_json
from popflex.eog import eog
from popflex.task import Fact, SequentialPlan, validate_sequential

from references import all_linearizations, closure_from_edges


def test_closure_chain():
    succ = closure_from_edges([1, 2, 3], [(1, 2), (2, 3)])
    assert succ[1] == {2, 3}
    assert succ[2] == {3}
    assert succ[3] == set()


def test_closure_unordered_pair():
    succ = closure_from_edges([1, 2], [])
    assert succ[1] == set() and succ[2] == set()


def test_closure_cycle_detected():
    with pytest.raises(CycleDetected):
        closure_from_edges([1, 2], [(1, 2), (2, 1)])


def test_flex_totally_ordered_elevator():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    score = pop.flex()
    assert score.value == 0.0
    assert score.total_pairs == 36


def test_flex_single_step_plan():
    task, _ = chain_task(1)
    pop = eog(task, SequentialPlan([0]))
    assert pop.flex().value == 1.0
    assert pop.flex().total_pairs == 0


def test_validate_pop_eog_output():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    assert pop.validate()


def test_validate_pop_missing_producer():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    victim = next(k for k in sorted(pop.links) if k[0] not in (INIT_ID, GOAL_ID))
    del pop.links[victim]
    report = pop.validate()
    assert not report
    assert "no producer" in report.reason


def test_validate_pop_unordered_deleter_is_threat():
    # producer -> consumer link with a deleter left unordered on purpose
    task, _ = chain_task(2)
    pop = BdpoPlan(task)
    pop.install_synthetics()
    a = pop.add_step(task.operators[0])   # 0 -> 1
    b = pop.add_step(task.operators[1])   # 1 -> 2
    # b consumes stage=1 from a; a second occurrence of op0 would delete
    c = pop.add_step(task.operators[0])
    pop.links[(b, Fact(0, 1))] = a
    pop.links[(a, Fact(0, 0))] = INIT_ID
    pop.links[(c, Fact(0, 0))] = INIT_ID
    pop.links[(GOAL_ID, Fact(0, 2))] = b
    report = pop.validate()
    assert not report
    assert "threatens" in report.reason


def test_linearize_total_order_unique():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    first = pop.linearize(0).steps
    for seed in range(5):
        assert pop.linearize(seed).steps == first


def test_linearize_samples_are_valid():
    task, plan = independent_task(4)
    pop = eog(task, plan)
    for seed in range(10):
        assert validate_sequential(task, pop.linearize(seed))


def test_linearize_reaches_all_permutations():
    task, plan = independent_task(3)
    pop = eog(task, plan)
    seen = {tuple(pop.linearize(seed).steps) for seed in range(200)}
    assert seen == {p for p in map(tuple, itertools.permutations(range(3)))}
    assert len(list(all_linearizations(pop))) == 6


def test_removing_implied_resolution_keeps_closure():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    pop.rebuild_closure()
    implied = None
    for (a, b) in sorted(pop.resolutions):
        if any(pop.ordered(a, z) and pop.ordered(z, b)
               for z in pop.steps if z not in (a, b)):
            implied = (a, b)
            break
    assert implied is not None
    before = dict(pop.closure)
    del pop.resolutions[implied]
    pop.rebuild_closure()
    assert pop.closure == before


def test_flex_antitone_in_orderings():
    task, plan = independent_task(4)
    pop = eog(task, plan)
    base = pop.flex().value
    steps = pop.real_steps()
    pop.add_ordering(steps[0], steps[1])
    assert pop.flex().value < base


def test_reasons_map_shape():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    reasons = pop.reasons()
    kinds = {r.kind for rs in reasons.values() for r in rs}
    assert kinds == {PC, CD, "DP"}
    for (a, b), rs in reasons.items():
        assert rs, f"empty reason set on {(a, b)}"


def test_json_and_dot_exports():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    data = _pop_json(pop)
    assert set(data) == {"steps", "links", "orderings"}
    dot = _pop_dot(pop)
    assert dot.startswith("digraph") and "PC(" in dot
