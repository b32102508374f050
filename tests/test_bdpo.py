import pytest

from popflex.bdpo import (DP, GOAL_BLOCK, INIT_BLOCK, PC, Reason,
                          _reason_candidates, block_deorder,
                          candidate_producers, init_bdpo, wrap_blocks)
from popflex.corpus import (chain_task, elevator_plan, elevator_task,
                            independent_task, random_task)
from popflex.eog import eog
from popflex.task import (Fact, PlanningTask, SequentialPlan, Variable,
                          make_operator, validate_sequential)


def elevator_bdpo():
    task = elevator_task()
    return task, init_bdpo(eog(task, elevator_plan(task)))


def test_init_bdpo_primitive_blocks():
    _, plan = elevator_bdpo()
    assert len(plan.real_roots()) == 9
    assert all(plan.blocks[b].primitive for b in plan.real_roots())
    assert INIT_BLOCK in plan.roots and GOAL_BLOCK in plan.roots


def test_init_bdpo_empty_plan():
    task = PlanningTask([Variable("v", ("a", "b"))],
                        [make_operator("set", [(0, 0)], [(0, 1)])],
                        {0: 0}, {0: 0})
    plan = init_bdpo(eog(task, SequentialPlan([])))
    assert plan.real_roots() == []
    assert plan.validate()


def test_init_bdpo_preserves_flex():
    task = elevator_task()
    pop = eog(task, elevator_plan(task))
    plan = init_bdpo(pop)
    assert plan.flex().unordered_pairs == pop.flex().unordered_pairs
    assert plan.flex().total_pairs == pop.flex().total_pairs


def test_primitive_profile_equals_operator_sets():
    from popflex.task import cons_prod_del
    task, plan = elevator_bdpo()
    for bid in plan.real_roots():
        blk = plan.blocks[bid]
        cons, prod, dels = cons_prod_del(plan.steps[blk.step],
                                         task.domain_sizes())
        assert blk.pre == cons and blk.prod == prod and blk.dels == dels


def test_compound_profile_of_walkthrough_block():
    # block over board p1 / move_up / leave p1 / trailing move_down
    task, plan = elevator_bdpo()
    by_step = {plan.blocks[b].step: b for b in plan.real_roots()}
    span = {by_step[s] for s in (3, 4, 5, 6)}   # steps 2..5 of the plan
    bid = wrap_blocks(plan, span)
    blk = plan.blocks[bid]

    def fact(var_name: str, val_name: str) -> Fact:
        v = next(i for i, v in enumerate(task.variables) if v.name == var_name)
        return Fact(v, task.variables[v].values.index(val_name))

    lift_n2 = fact("lift-e1", "at-n2")
    p1_n2 = fact("pos-p1", "at-n2")
    p1_n3 = fact("pos-p1", "at-n3")
    assert blk.pre == {lift_n2, p1_n2}
    assert lift_n2 in blk.eff and p1_n3 in blk.eff
    # the lift comes back to where the block found it, so nothing is deleted
    assert blk.dels == {fact("pos-p1", "at-n2"), fact("pos-p1", "in-e1")} \
        or blk.dels == {fact("pos-p1", "at-n2")}
    assert lift_n2 not in blk.dels


def test_multi_writer_block_has_two_effects_and_no_product():
    task = PlanningTask(
        [Variable("v", ("a", "b", "c")), Variable("w", ("x", "y"))],
        [make_operator("write-b", [], [(0, 1)]),
         make_operator("write-c", [], [(0, 2)])],
        {0: 0, 1: 0}, {})
    plan = init_bdpo(eog(task, SequentialPlan([0, 1])))
    blocks = [b for b in plan.real_roots()]
    assert len(blocks) == 2
    a, b = blocks
    assert not plan.ordered(a, b) and not plan.ordered(b, a)
    bid = wrap_blocks(plan, {a, b})
    blk = plan.blocks[bid]
    assert Fact(0, 1) in blk.eff and Fact(0, 2) in blk.eff
    assert Fact(0, 1) not in blk.prod and Fact(0, 2) not in blk.prod


def _producer_chain_task(with_deleter: bool):
    ops = [make_operator("p1", [(0, 0)], [(0, 1)])]
    if with_deleter:
        ops.append(make_operator("wipe", [(0, 1)], [(0, 0)]))
        ops.append(make_operator("p2", [(0, 0)], [(0, 1)]))
    ops.append(make_operator("use", [(0, 1)], [(1, 1)]))
    task = PlanningTask([Variable("v", ("no", "yes")),
                         Variable("done", ("no", "yes"))],
                        ops, {0: 0, 1: 0}, {1: 1})
    return task, SequentialPlan(list(range(len(ops))))


def test_earliest_candidate_producer_blocked_by_deleter():
    task, plan = _producer_chain_task(with_deleter=True)
    bdp = init_bdpo(eog(task, plan))
    consumer = max(bdp.real_roots(), key=bdp.pos_key)
    fact = Fact(0, 1)
    producer = candidate_producers(bdp, fact, consumer)[0]
    assert bdp.steps[bdp.blocks[producer].step].name == "p2"


def test_earliest_candidate_producer_prefers_earliest():
    task, plan = _producer_chain_task(with_deleter=False)
    bdp = init_bdpo(eog(task, plan))
    consumer = max(bdp.real_roots(), key=bdp.pos_key)
    producer = candidate_producers(bdp, Fact(0, 1), consumer)[0]
    assert bdp.steps[bdp.blocks[producer].step].name == "p1"


def test_init_block_is_producer_of_initial_facts():
    task, plan = elevator_bdpo()
    p1_var = next(i for i, v in enumerate(task.variables)
                  if v.name == "pos-p1")
    fact = Fact(p1_var, task.variables[p1_var].values.index("at-n2"))
    consumer = next(b for b in plan.real_roots()
                    if plan.steps[plan.blocks[b].step].name == "board p1 n2 e1")
    assert candidate_producers(plan, fact, consumer)[0] == INIT_BLOCK


def test_candidate_producer_absent():
    task, plan = elevator_bdpo()
    first = min(plan.real_roots(), key=plan.pos_key)
    lift2 = next(i for i, v in enumerate(task.variables)
                 if v.name == "lift-e2")
    assert candidate_producers(plan, Fact(lift2, 1), first) == []


def _dp_micro():
    task = PlanningTask(
        [Variable("v", ("a", "b", "c")), Variable("done", ("no", "yes"))],
        [make_operator("clobber", [], [(0, 2)]),
         make_operator("make", [(0, 2)], [(0, 1)]),
         make_operator("use", [(0, 1)], [(1, 1)])],
        {0: 0, 1: 0}, {1: 1})
    return task, SequentialPlan([0, 1, 2])


def test_dp_rule_wraps_producer_and_consumer():
    task, seq = _dp_micro()
    plan = init_bdpo(eog(task, seq))
    by_name = {plan.steps[plan.blocks[b].step].name: b
               for b in plan.real_roots()}
    edge = (by_name["clobber"], by_name["make"])
    reason = Reason(DP, Fact(0, 1))
    assert reason in plan.reasons()[edge]
    work = next(_reason_candidates(plan, edge, reason))
    wrapped = work.block_of_step(plan.blocks[by_name["make"]].step)
    assert work.blocks[wrapped].size() == 2
    assert reason not in work.reasons().get(
        (by_name["clobber"], wrapped), set())
    assert work.validate()


def test_init_pc_reason_is_not_removed_and_plan_is_intact():
    task, plan = elevator_bdpo()
    edge = next((a, b) for (a, b) in sorted(plan.reasons())
                if a == INIT_BLOCK)
    reason = next(iter(plan.reasons()[edge]))
    snap = plan.snapshot()
    assert reason.kind == PC
    si, sj = (min(plan.blocks[b].members) for b in edge)
    for work in _reason_candidates(plan, edge, reason):
        remapped = (work.block_of_step(si), work.block_of_step(sj))
        assert (reason in work.reasons().get(remapped, set())
                or not work.validate())
    assert plan.snapshot() == snap


def test_block_deorder_elevator_reaches_walkthrough_flex():
    task, plan = elevator_bdpo()
    out = block_deorder(plan)
    score = out.flex()
    assert (score.unordered_pairs, score.total_pairs) == (16, 36)
    assert out.validate()
    assert out.check_laminar() and out.check_contiguity()
    members = sorted(tuple(sorted(out.steps[s].name
                                  for s in out.blocks[b].members))
                     for b in out.real_roots())
    assert ('board p2 n1 e1', 'leave p2 n2 e1', 'move_down e1 n2 n1',
            'move_up e1 n1 n2') in members


def test_block_deorder_identity_on_unordered_plan():
    task, seq = independent_task(2)
    plan = init_bdpo(eog(task, seq))
    out = block_deorder(plan)
    assert out.flex().value == 1.0
    assert len(out.real_roots()) == 2


def test_block_deorder_identity_on_dependent_chain():
    task, seq = chain_task(5)
    plan = init_bdpo(eog(task, seq))
    out = block_deorder(plan)
    assert out.flex().value == 0.0
    assert all(out.blocks[b].primitive for b in out.real_roots())


def test_block_deorder_never_decreases_flex_and_stays_valid():
    for seed in range(25):
        task, seq = random_task(seed)
        plan = init_bdpo(eog(task, seq))
        before = plan.flex()
        out = block_deorder(plan)
        after = out.flex()
        assert after.unordered_pairs >= before.unordered_pairs
        assert out.validate()
        assert out.check_laminar() and out.check_contiguity()
        n = len(out.real_steps())
        lins = (list(out.all_linearizations()) if n <= 6
                else [out.linearize(s) for s in range(20)])
        for lin in lins:
            assert validate_sequential(task, lin)


def test_validate_judges_hand_edits():
    """`validate()` rebuilds the closure before judging a plan, so an edit
    made by hand, with the closure left as it was, is judged as it stands."""
    def edited(edit):
        task = elevator_task()
        pop = eog(task, elevator_plan(task))
        assert pop.validate()
        edit(pop)
        return pop.validate()

    def add_reverse(pop):
        pop.resolutions[(4, 2)] = set(pop.resolutions[(2, 4)])

    report = edited(add_reverse)
    assert not report and report.reason == "ordering cycle: 2 < 3 < 4 < 2"
    report = edited(lambda pop: pop.resolutions.pop((3, 4)))
    assert not report and report.reason == "block 4 threatens 2-(0=1)->3"
    report = edited(lambda pop: pop.resolutions.pop((5, 6)))
    assert not report and report.reason == "block 6 threatens 4-(0=2)->5"
