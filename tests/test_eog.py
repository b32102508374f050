import pytest

from popflex.corpus import (chain_task, elevator_plan, elevator_task,
                            independent_task, produce_consume_task,
                            random_task)
from popflex.bdpo import GOAL_ID, INIT_ID, PC, Reason
from popflex.eog import InvalidInput, eog
from popflex.task import Fact, SequentialPlan


def test_elevator_stays_totally_ordered():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    real = pop.real_steps()
    for i, a in enumerate(real):
        for b in real[i + 1:]:
            assert pop.ordered(a, b) or pop.ordered(b, a)
    assert pop.flex().value == 0.0


def test_disjoint_steps_unordered():
    task, plan = independent_task(2)
    pop = eog(task, plan)
    a, b = pop.real_steps()
    assert not pop.ordered(a, b) and not pop.ordered(b, a)
    assert pop.flex().value == 1.0


def test_produce_consume_single_pc_reason():
    task, plan = produce_consume_task()
    pop = eog(task, plan)
    a, b = pop.real_steps()
    reasons = pop.reasons()[(a, b)]
    assert reasons == {Reason(PC, Fact(0, 1))}


def test_invalid_plan_rejected():
    task, _ = chain_task(3)
    with pytest.raises(InvalidInput):
        eog(task, SequentialPlan([1]))


def test_orderings_subset_of_input_order():
    for seed in range(30):
        task, plan = random_task(seed)
        pop = eog(task, plan)
        real = pop.real_steps()  # ids ascend with plan position
        for i, a in enumerate(real):
            for j, b in enumerate(real):
                if pop.ordered(a, b):
                    assert i < j, "ordering contradicts the input sequence"


def test_every_precondition_has_minimal_producer():
    for seed in range(20):
        task, plan = random_task(seed)
        pop = eog(task, plan)
        seq = [INIT_ID] + pop.real_steps() + [GOAL_ID]
        idx = {s: i for i, s in enumerate(seq)}
        for s in seq:
            if s == INIT_ID:
                continue
            cons = pop.blocks[s].cons
            for fact in cons:
                producer = pop.links.get((s, fact))
                assert producer is not None
                # no earlier step could also supply the fact threat-free
                for k in seq[:idx[producer]]:
                    if fact not in pop.blocks[k].prod:
                        continue
                    between = seq[idx[k] + 1:idx[s]]
                    assert any(fact in pop.blocks[j].dels for j in between), \
                        f"{k} would have been an earlier producer for {fact}"


def test_validity_level_idempotence():
    for seed in range(20):
        task, plan = random_task(seed)
        pop = eog(task, plan)
        for lin_seed in range(3):
            linearized = pop.linearize(lin_seed)
            again = eog(task, linearized)
            assert again.validate()
