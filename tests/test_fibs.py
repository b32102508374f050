import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import popflex.fibs as fibs_mod
from popflex.bdpo import block_deorder, init_bdpo
from popflex.corpus import (chain_task, elevator_plan, elevator_task,
                            independent_task, inverse_pair_task, random_task)
from popflex.eog import eog
from popflex.fibs import (AcceptanceCriteria, FibsConfig,
                          _scan_basic_edges, backward_justify,
                          build_subtask, fibs, greedy_justify, reduce_plan,
                          resolve, remove_blocks, substitution_deorder)
from popflex.substitution import CandidateBlock
from popflex.task import SequentialPlan, validate_sequential

CFG = FibsConfig(max_plans=5, max_expansions=4000)


def elevator_bd():
    task = elevator_task()
    return task, block_deorder(init_bdpo(eog(task, elevator_plan(task))))


def var_of(task, name):
    return next(i for i, v in enumerate(task.variables) if v.name == name)


def val_of(task, var, value_name):
    return task.variables[var].values.index(value_name)


def test_build_subtask_for_p2_block():
    task, plan = elevator_bd()
    first = next(b for b in plan.real_roots()
                 if plan.blocks[b].primitive
                 and plan.steps[plan.blocks[b].step].name == "move_down e1 n3 n2")
    p2_block = next(b for b in plan.real_roots()
                    if any(plan.steps[s].name == "board p2 n1 e1"
                           for s in plan.blocks[b].members))
    st = build_subtask(task, plan, first, p2_block, CFG)
    lift1 = var_of(task, "lift-e1")
    lift2 = var_of(task, "lift-e2")
    p2 = var_of(task, "pos-p2")
    assert st.init[lift1] == val_of(task, lift1, "at-n3")
    assert st.init[lift2] == val_of(task, lift2, "at-n1")
    assert st.init[p2] == val_of(task, p2, "at-n1")
    assert st.goal == {p2: val_of(task, p2, "at-n2")}
    assert st.cost_bound == 4


@pytest.mark.parametrize("seed", [0, 7])
def test_build_subtask_draws_from_config_seed(seed, monkeypatch):
    task, plan = elevator_bd()
    states = []
    original = plan._linearize_context

    def recording(blocks, before, rng):
        states.append(rng.getstate())
        return original(blocks, before, rng)

    monkeypatch.setattr(plan, "_linearize_context", recording)
    first, second = plan.real_roots()[:2]
    build_subtask(task, plan, first, second, FibsConfig(seed=seed))
    assert states == [random.Random(seed).getstate()]


def test_build_subtask_goal_of_goal_feeder():
    task, plan = elevator_bd()
    p1_block = next(b for b in plan.real_roots()
                    if any(plan.steps[s].name == "leave p1 n3 e1"
                           for s in plan.blocks[b].members))
    board = next(b for b in plan.real_roots()
                 if plan.blocks[b].primitive
                 and plan.steps[plan.blocks[b].step].name == "board p1 n2 e1")
    st = build_subtask(task, plan, board, p1_block, CFG)
    p1 = var_of(task, "pos-p1")
    assert st.goal[p1] == val_of(task, p1, "at-n3")


def test_resolve_replaces_p2_block_with_second_lift():
    task, plan = elevator_bd()
    first = next(b for b in plan.real_roots()
                 if plan.blocks[b].primitive
                 and plan.steps[plan.blocks[b].step].name == "move_down e1 n3 n2")
    p2_block = next(b for b in plan.real_roots()
                    if any(plan.steps[s].name == "board p2 n1 e1"
                           for s in plan.blocks[b].members))
    out, ok = resolve(task, plan, first, p2_block, CFG)
    assert ok
    assert out.flex().frac > plan.flex().frac
    assert out.cost() <= plan.cost()
    names = {out.steps[s].name for s in out.real_steps()}
    assert "board p2 n1 e2" in names


def test_resolve_fails_on_flat_flex():
    task, seq = independent_task(3)
    plan = init_bdpo(eog(task, seq))
    a, b = plan.real_roots()[:2]
    # no ordering between any pair: resolve must refuse (nothing to gain)
    out, ok = resolve(task, plan, a, b, CFG)
    assert not ok


def test_resolve_fails_on_unsolvable_subtask():
    task, seq = chain_task(4)
    plan = init_bdpo(eog(task, seq))
    roots = plan.real_roots()
    out, ok = resolve(task, plan, roots[0], roots[1], CFG)
    assert not ok and out is plan


def test_substitution_deorder_identity_when_nothing_improvable():
    task, seq = chain_task(4)
    plan = init_bdpo(eog(task, seq))
    out, attempted, accepted = substitution_deorder(task, plan, CFG)
    assert accepted == 0
    assert out.flex().value == plan.flex().value


def test_fibs_single_step_plan():
    task, _ = chain_task(1)
    out, reports = fibs(task, SequentialPlan([0]), CFG)
    assert out.flex().value == 1.0
    assert [r.phase for r in reports] == ["EOG", "SD1", "BD", "SD2"]


def test_fibs_independent_plan_flat_from_the_start():
    task, seq = independent_task(3)
    out, reports = fibs(task, seq, CFG)
    assert reports[0].flex_after == 1.0
    assert all(r.flex_after == 1.0 for r in reports)


def test_fibs_rfo_monotone_on_randoms():
    cfg = FibsConfig(max_plans=3, max_expansions=2000, reduce="gj")
    for seed in range(25):
        task, seq = random_task(seed)
        out, reports = fibs(task, seq, cfg)
        assert out.validate()
        flexes = [r.flex_after for r in reports
                  if r.phase in ("EOG", "SD1", "BD", "SD2")]
        assert all(b >= a - 1e-12 for a, b in zip(flexes, flexes[1:]))
        costs = [r.cost_after for r in reports]
        assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_fibs_rco_accepts_only_cost_improvements():
    crit = AcceptanceCriteria("rco")
    assert crit.accepts(Fraction(1, 2), 5, Fraction(1, 4), 4)
    assert crit.accepts(Fraction(1, 2), 5, Fraction(3, 4), 5)
    assert not crit.accepts(Fraction(1, 2), 5, Fraction(3, 4), 6)
    assert not crit.accepts(Fraction(1, 2), 5, Fraction(1, 2), 5)


def test_acceptance_criteria_reject_an_unknown_mode():
    with pytest.raises(ValueError, match="flex-first"):
        AcceptanceCriteria("flex-first")


def test_fibs_config_rejects_an_unknown_reduction_mode():
    with pytest.raises(ValueError, match="gjj"):
        FibsConfig(reduce="gjj")


def test_rfo_criteria():
    crit = AcceptanceCriteria("rfo")
    assert crit.accepts(Fraction(1, 2), 5, Fraction(3, 4), 5)
    assert not crit.accepts(Fraction(1, 2), 5, Fraction(3, 4), 6)
    assert not crit.accepts(Fraction(1, 2), 5, Fraction(1, 2), 4)


# ---------------------------------------------------------------------------
# justification


def test_backward_justify_all_goal_chains():
    task, plan = elevator_bd()
    assert backward_justify(plan) == set()


def test_backward_justify_misses_internal_blocks():
    # the trailing move_down sits inside a compound block, so the outer-block
    # marking cannot see it
    task, plan = elevator_bd()
    inner_names = set()
    for b in plan.real_roots():
        blk = plan.blocks[b]
        if not blk.primitive:
            inner_names |= {plan.steps[s].name for s in blk.members}
    assert "move_down e1 n3 n2" in inner_names
    assert backward_justify(plan) == set()


def test_backward_justify_catches_dangling_root():
    task, seq = inverse_pair_task()
    pop = eog(task, seq)
    plan = init_bdpo(pop)
    redundant = backward_justify(plan)
    names = {task.operators[plan.blocks[b].step and 0].name
             for b in redundant} if False else \
        {plan.steps[plan.blocks[b].step].name for b in redundant}
    assert names == {"toggle-on", "toggle-off"}


def test_reduce_bj_removes_danglers():
    task, seq = inverse_pair_task()
    plan = init_bdpo(eog(task, seq))
    out = reduce_plan(plan, "bj")
    names = {out.steps[s].name for s in out.real_steps()}
    assert names == {"work-a", "work-b"}
    assert out.validate()


def _elevator_after_second_lift_substitution():
    """The walkthrough state in which the trailing lift move turns redundant:
    the p2 pipeline has been moved onto the second lift."""
    from popflex.substitution import candidate_block, substitute

    task, plan = elevator_bd()
    target = next(b for b in plan.real_roots()
                  if any(plan.steps[s].name == "board p2 n1 e1"
                         for s in plan.blocks[b].members))
    p2 = var_of(task, "pos-p2")
    sub_plan = SequentialPlan([task.operator_index(n) for n in
                               ("board p2 n1 e2", "move_up e2 n1 n2",
                                "leave p2 n2 e2")])
    cand = candidate_block(task, task.init, {p2: val_of(task, p2, "at-n2")},
                           sub_plan)
    outcome = substitute(plan, target, cand)
    assert outcome.success
    return task, outcome.plan


def test_trailing_move_down_not_redundant_before_substitution():
    # the p2 pipeline still runs on lift e1 and needs the lift back down
    task, plan = elevator_bd()
    redundant_steps = set()
    for b in greedy_justify(plan):
        redundant_steps |= {plan.steps[s].name
                            for s in plan.blocks[b].members}
    assert "move_down e1 n3 n2" not in redundant_steps


def test_greedy_justify_finds_trailing_move_down_after_substitution():
    task, plan = _elevator_after_second_lift_substitution()
    redundant_steps = set()
    for b in greedy_justify(plan):
        redundant_steps |= {plan.steps[s].name
                            for s in plan.blocks[b].members}
    assert "move_down e1 n3 n2" in redundant_steps


def test_reduce_gj_on_substituted_elevator():
    task, plan = _elevator_after_second_lift_substitution()
    assert plan.cost() == 8
    out = reduce_plan(plan, "gj")
    assert out.cost() == 7
    assert out.validate()
    counts = [out.steps[s].name for s in out.real_steps()]
    assert counts.count("move_down e1 n3 n2") == 1
    score = out.flex()
    assert (score.total_pairs - score.unordered_pairs,
            score.total_pairs) == (9, 21)
    for lin in out.all_linearizations():
        assert validate_sequential(task, lin)


def test_greedy_justify_empty_on_perfectly_justified_plan():
    task, seq = chain_task(4)
    plan = init_bdpo(eog(task, seq))
    assert greedy_justify(plan) == set()


def test_greedy_justify_removes_inverse_block():
    task, seq = inverse_pair_task()
    plan = block_deorder(init_bdpo(eog(task, seq)))
    out = reduce_plan(plan, "gj")
    names = {out.steps[s].name for s in out.real_steps()}
    assert names == {"work-a", "work-b"}
    assert out.validate()


def test_try_remove_block_keeps_needed_blocks():
    task, seq = chain_task(3)
    plan = init_bdpo(eog(task, seq))
    for b in plan.real_roots():
        assert remove_blocks(plan, {b}) is None


def test_remove_blocks_rejects_a_root_link_left_unsupplied():
    """Nested removals can leave a root link whose consumer no longer needs
    its fact.  A later removal that rebuilds the producer without that fact
    is rejected all the same, as any unsupplied root link is."""
    task, seq = random_task(47, max_vars=6, max_steps=40)
    plan = block_deorder(init_bdpo(eog(task, seq)))
    for bid in (46, 11, 2, 13, 15, 16, 18):      # the first gj removals
        plan = remove_blocks(plan, {bid})
    producer = next(p for (c, f), p in plan.links.items()
                    if f not in plan.blocks[c].pre)
    assert 9 in plan.blocks[producer].children
    assert remove_blocks(plan, {9}) is None


def test_time_limit_stops_substitution_phases_cleanly():
    task = elevator_task()
    seq = elevator_plan(task)
    cfg = FibsConfig(time_limit=0.0, reduce="gj")
    out, reports = fibs(task, seq, cfg)
    # substitution phases give up immediately, deordering still runs
    by_phase = {r.phase: r for r in reports}
    assert by_phase["SD1"].accepted == 0
    assert by_phase["SD2"].accepted == 0
    assert abs(by_phase["BD"].flex_after - 16 / 36) < 1e-9
    assert out.validate()


def test_fibs_rco_pipeline_on_randoms():
    cfg = FibsConfig(criteria=AcceptanceCriteria("rco"), reduce="gj",
                     max_plans=3, max_expansions=1500)
    for seed in range(15):
        task, seq = random_task(seed)
        out, reports = fibs(task, seq, cfg)
        assert out.validate()
        costs = [r.cost_after for r in reports]
        assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_deadline_is_checked_before_every_resolve(monkeypatch):
    task = elevator_task()
    seq = elevator_plan(task)
    cfg = FibsConfig(max_plans=3, max_expansions=2000, reduce="gj",
                     subtask_time=math.inf, time_limit=1.0)
    _, unbounded = fibs(task, seq, FibsConfig(
        max_plans=3, max_expansions=2000, reduce="gj",
        subtask_time=math.inf, time_limit=math.inf))
    assert unbounded[1].attempted > 1
    calls = []
    original = fibs_mod.resolve

    def counting(*args, **kwargs):
        calls.append(args[2:4])
        return original(*args, **kwargs)

    # the clock passes the deadline once the first attempt has started
    clock = SimpleNamespace(monotonic=lambda: 2.0 if calls else 0.0)
    monkeypatch.setattr(fibs_mod, "resolve", counting)
    monkeypatch.setattr(fibs_mod, "time", clock)
    out, reports = fibs(task, seq, cfg)
    by_phase = {r.phase: r for r in reports}
    assert len(calls) == 1
    assert by_phase["SD1"].attempted == 1
    assert by_phase["SD2"].attempted == 0
    assert out.validate()


SMALL = FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                   subtask_time=math.inf, time_limit=math.inf)


def small_random(seed):
    return random_task(seed, max_vars=8, max_steps=12)


def test_a_phase_solves_each_subtask_once(monkeypatch):
    phase = [0]
    solved = Counter()
    original_phase = fibs_mod.substitution_deorder
    original_solve = fibs_mod.solve_subtask

    def counting_phase(*args, **kwargs):
        phase[0] += 1
        return original_phase(*args, **kwargs)

    def counting_solve(st):
        key = (tuple(sorted(st.init.items())), tuple(sorted(st.goal.items())),
               st.cost_bound, st.max_len)
        solved[phase[0], key] += 1
        return original_solve(st)

    monkeypatch.setattr(fibs_mod, "substitution_deorder", counting_phase)
    monkeypatch.setattr(fibs_mod, "solve_subtask", counting_solve)
    for seed in range(30):
        fibs(*small_random(seed), SMALL)
    assert phase[0] == 60
    assert solved and max(solved.values()) == 1


def test_no_candidate_is_substituted_twice_into_one_plan(monkeypatch):
    tried = Counter()
    plans = {}          # keeps each plan alive, so that no id is reused
    original = fibs_mod.substitute

    def recording(plan, old, new, *args, **kwargs):
        if isinstance(new, CandidateBlock):
            plans[id(plan)] = plan
            tried[id(plan), old, new] += 1
        return original(plan, old, new, *args, **kwargs)

    monkeypatch.setattr(fibs_mod, "substitute", recording)
    for seed in range(30):
        fibs(*small_random(seed), SMALL)
    assert tried and max(tried.values()) == 1


def memo_free_phase(task, plan, config, primitive_only):
    """The substitution phase's loop, with direct resolve calls that share
    no phase state."""
    attempted = accepted = 0
    override = 1 if primitive_only else None
    while accepted < fibs_mod.MAX_ACCEPTS_PER_PHASE:
        for a, b in _scan_basic_edges(plan):
            attempted += 1
            plan2, ok = resolve(task, plan, a, b, config,
                                max_len_override=override)
            if not ok:
                attempted += 1
                plan2, ok = resolve(task, plan, b, a, config,
                                    max_len_override=override)
            if ok:
                plan = plan2
                accepted += 1
                break
        else:
            break
    return plan, attempted, accepted


def test_phase_counts_equal_memo_free_resolve_calls():
    total_accepted = 0
    for seed in range(30):
        task, seq = small_random(seed)
        plan = init_bdpo(eog(task, seq))
        for primitive_only in (True, False):
            ref, ref_att, ref_acc = memo_free_phase(task, plan, SMALL,
                                                    primitive_only)
            out, att, acc = substitution_deorder(
                task, plan, SMALL,
                primitive_only=primitive_only)
            assert (att, acc) == (ref_att, ref_acc)
            assert out.to_json() == ref.to_json()
            total_accepted += acc
            plan = block_deorder(out)
    assert total_accepted > 0
