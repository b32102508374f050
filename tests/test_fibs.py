import dataclasses
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import popflex.fibs as fibs_mod
import popflex.subplanner as subplanner_mod
from popflex.bdpo import BdpoPlan, block_deorder
from popflex.corpus import (chain_task, elevator_plan, elevator_task,
                            independent_task, inverse_pair_task, random_task,
                            scaling_task)
from popflex.eog import eog
from popflex.fibs import (AcceptanceCriteria, FibsConfig, Run,
                          _scan_basic_edges, backward_justify, build_subtask,
                          fibs, reduce_plan, resolve, remove_blocks,
                          substitution_deorder)
from popflex.subplanner import (PLANNER_CMD_ENV, _SuccessorGenerator,
                                capped_length)
from popflex.substitution import CRITERIA_REJECT, CandidateBlock, substitute
from popflex.task import (NotApplicable, SequentialPlan, apply_op,
                          validate_sequential)

from references import all_linearizations, greedy_justify, reduce_gj
from scenarios import towers

CFG = FibsConfig(max_plans=5, max_expansions=4000)


def elevator_bd():
    task = elevator_task()
    return task, block_deorder(eog(task, elevator_plan(task)))


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


def _two_pass_subtask(task, plan, excluded, target, config):
    """What `build_subtask` gives, as it was computed before it read the
    closure rows as bitmasks: the real roots sorted, then the links read
    twice, once for the target's facts and once for the crossing facts.
    The init items, the goal items, the cost bound and the length bound,
    or the reason the subtask is infeasible."""
    before_blocks = [b for b in plan.real_roots()
                     if b not in (excluded, target) and plan.ordered(b, target)]
    state = dict(task.init)
    rng = random.Random(config.seed)
    for sid in plan._linearize_context(before_blocks, plan.closure, rng):
        try:
            state = apply_op(plan.steps[sid], state)
        except NotApplicable as exc:
            return str(exc)
    goal = {}

    def add_goal(fact):
        if goal.get(fact.var, fact.val) != fact.val:
            return False
        goal[fact.var] = fact.val
        return True

    for (c, f), p in sorted(plan.links.items()):
        if p == target and not add_goal(f):
            return f"conflicting goal fact {f}"
    for (c, f), p in sorted(plan.links.items()):
        if p in (excluded, target):
            continue
        if plan.ordered(p, target) and plan.ordered(target, c):
            if not add_goal(f):
                return f"conflicting crossing fact {f}"
    bound = plan.blocks[target].cost
    max_len = capped_length(
        task, bound, max(1, fibs_mod.LENGTH_FACTOR * plan.blocks[target].size()))
    return list(state.items()), list(goal.items()), bound, max_len


def test_build_subtask_matches_the_two_pass_formula():
    """On every pair of real roots of random plans, after EOG and after BD,
    which takes in every basic edge in both directions: the same initial
    state, the same goal in the same order, the same bounds, and on a pair
    with no subtask the same failure, NotApplicable from the progression
    or ValueError for a conflicting goal fact."""
    infeasible = feasible = 0
    for seed in range(60):
        task, seq = small_random(seed)
        flat = eog(task, seq)
        for plan in (flat, block_deorder(flat)):
            for excluded, target in itertools.permutations(
                    plan.real_roots(), 2):
                expected = _two_pass_subtask(task, plan, excluded, target,
                                             SMALL)
                try:
                    st = build_subtask(task, plan, excluded, target, SMALL)
                except (NotApplicable, ValueError) as exc:
                    infeasible += 1
                    assert (isinstance(exc, NotApplicable)
                            != expected.startswith("conflicting "))
                    assert str(exc) == expected
                    continue
                feasible += 1
                assert (list(st.init.items()), list(st.goal.items()),
                        st.cost_bound, st.max_len) == expected
    assert feasible > 1000 and infeasible > 0


def test_resolve_replaces_p2_block_with_second_lift():
    task, plan = elevator_bd()
    first = next(b for b in plan.real_roots()
                 if plan.blocks[b].primitive
                 and plan.steps[plan.blocks[b].step].name == "move_down e1 n3 n2")
    p2_block = next(b for b in plan.real_roots()
                    if any(plan.steps[s].name == "board p2 n1 e1"
                           for s in plan.blocks[b].members))
    out, ok = resolve(Run(task, CFG), plan, first, p2_block)
    assert ok
    assert out.flex().frac > plan.flex().frac
    assert out.cost() <= plan.cost()
    names = {out.steps[s].name for s in out.real_steps()}
    assert "board p2 n1 e2" in names


def test_resolve_fails_on_flat_flex():
    task, seq = independent_task(3)
    plan = eog(task, seq)
    a, b = plan.real_roots()[:2]
    # no ordering between any pair: resolve must refuse (nothing to gain)
    out, ok = resolve(Run(task, CFG), plan, a, b)
    assert not ok


def test_resolve_never_validates_a_rejected_candidate(monkeypatch):
    """With no ordering to attack, every candidate fails the flex test, and
    is rejected before it is validated."""
    task, seq = independent_task(3)
    plan = eog(task, seq)
    a, b = plan.real_roots()[:2]
    outcomes = []

    def traced(*args):
        outcomes.append(substitute(*args))
        return outcomes[-1]

    def never(self, threats=None):
        raise AssertionError("a rejected candidate was validated")

    monkeypatch.setattr(fibs_mod, "substitute", traced)
    monkeypatch.setattr(BdpoPlan, "validate_current", never)
    out, ok = resolve(Run(task, CFG), plan, a, b)
    assert not ok and out is plan
    assert outcomes
    assert all(o.reason == CRITERIA_REJECT for o in outcomes)


def test_resolve_fails_on_unsolvable_subtask():
    task, seq = chain_task(4)
    plan = eog(task, seq)
    roots = plan.real_roots()
    out, ok = resolve(Run(task, CFG), plan, roots[0], roots[1])
    assert not ok and out is plan


def test_substitution_deorder_identity_when_nothing_improvable():
    task, seq = chain_task(4)
    plan = eog(task, seq)
    out, attempted, accepted = substitution_deorder(Run(task, CFG), plan)
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


@pytest.mark.parametrize("criteria", ["rco", None, "rfo"])
def test_fibs_config_rejects_criteria_that_are_not_acceptance_criteria(
        criteria):
    """A mode string where the criteria object belongs fails at once, not
    on the first acceptance test of the run."""
    with pytest.raises(ValueError, match="criteria must be an "
                                         "AcceptanceCriteria"):
        FibsConfig(criteria=criteria)


def test_fibs_rejects_a_planner_cmd_field_before_starting_a_process(
        monkeypatch):
    """A library caller gets the same typed error as the CLI for a planner
    command with a stray field, and no planner process is started."""
    def no_process(*args, **kwargs):
        raise AssertionError("a planner process was started")

    monkeypatch.setattr(subplanner_mod.subprocess, "Popen", no_process)
    monkeypatch.setenv(PLANNER_CMD_ENV, "awk '{print}' {sas}")
    task, plan = chain_task(2)
    with pytest.raises(ValueError, match=r"field \{print\}"):
        fibs(task, plan)


@pytest.mark.parametrize("setting", [
    {"max_plans": 0}, {"max_plans": -3}, {"max_expansions": 0},
    {"subtask_time": -1.0}, {"subtask_time": math.nan},
    {"time_limit": -0.5}, {"time_limit": math.nan}])
def test_fibs_config_rejects_a_setting_that_turns_substitution_off(setting):
    name, = setting
    with pytest.raises(ValueError, match=name):
        FibsConfig(**setting)


def test_fibs_config_takes_the_bounds_of_what_it_accepts():
    FibsConfig(max_plans=1, max_expansions=1, subtask_time=0.0,
               time_limit=0.0)
    FibsConfig(subtask_time=math.inf, time_limit=math.inf)


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
    plan = eog(task, seq)
    redundant = backward_justify(plan)
    names = {task.operators[plan.blocks[b].step and 0].name
             for b in redundant} if False else \
        {plan.steps[plan.blocks[b].step].name for b in redundant}
    assert names == {"toggle-on", "toggle-off"}


def test_reduce_bj_removes_danglers():
    task, seq = inverse_pair_task()
    plan = eog(task, seq)
    out = reduce_plan(plan, "bj")
    names = {out.steps[s].name for s in out.real_steps()}
    assert names == {"work-a", "work-b"}
    assert out.validate()


def test_reduce_bj_leaves_a_valid_remainder_of_every_golden_plan():
    """bj's remainder of a valid plan at its refresh fixpoint is valid, as
    `reduce_plan` proves: on the golden random corpus, after EOG and after
    block deordering, `remove_blocks` never refuses it.  A plan with a
    threat left unordered is refused with a ValueError."""
    reduced = 0
    for seed in range(300):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        flat = eog(task, seq)
        for plan in (flat, block_deorder(flat)):
            redundant = backward_justify(plan)
            if redundant:
                assert remove_blocks(plan, redundant) is not None
                reduced += 1
    assert reduced > 500
    task, seq = random_task(1, max_vars=8, max_steps=12)
    plan = eog(task, seq)
    del plan.resolutions[2, 3]
    plan.rebuild_closure()
    assert backward_justify(plan) and not plan.validate()
    with pytest.raises(ValueError):
        reduce_plan(plan, "bj")


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
    for lin in all_linearizations(out):
        assert validate_sequential(task, lin)


def test_reduce_gj_matches_building_every_removal():
    """gj on the golden random corpus and on 4 towers, each after EOG and
    BD, and on the plan that SD2 hands gj in the 4-tower run, picks what
    building every removal of each pass picks; the corpus has compound
    roots and passes that remove a nested block."""
    plans = []
    for seed in range(300):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        plans.append(block_deorder(eog(task, seq)))
    task, seq, config = towers(4)
    plans.append(block_deorder(eog(task, seq)))
    plans.append(fibs(task, seq, dataclasses.replace(config,
                                                     reduce="none"))[0])
    compound = nested = 0
    for plan in plans:
        expected, picks = reduce_gj(plan)
        assert reduce_plan(plan, "gj").to_json() == expected.to_json()
        compound += any(not plan.blocks[b].primitive for b in plan.roots)
        nested += any(not root for _, root in picks)
    assert compound > 50 and nested > 50


def test_greedy_justify_empty_on_perfectly_justified_plan():
    task, seq = chain_task(4)
    plan = eog(task, seq)
    assert greedy_justify(plan) == set()


def test_greedy_justify_removes_inverse_block():
    task, seq = inverse_pair_task()
    plan = block_deorder(eog(task, seq))
    out = reduce_plan(plan, "gj")
    names = {out.steps[s].name for s in out.real_steps()}
    assert names == {"work-a", "work-b"}
    assert out.validate()


def test_try_remove_block_keeps_needed_blocks():
    task, seq = chain_task(3)
    plan = eog(task, seq)
    for b in plan.real_roots():
        assert remove_blocks(plan, {b}) is None


def test_remove_blocks_rejects_a_root_link_left_unsupplied():
    """Nested removals can leave a root link whose consumer no longer needs
    its fact.  A later removal that rebuilds the producer without that fact
    is rejected all the same, as any unsupplied root link is."""
    task, seq = random_task(47, max_vars=6, max_steps=40)
    plan = block_deorder(eog(task, seq))
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


def test_a_direct_phase_call_honours_the_runs_time_limit(monkeypatch):
    """A run's deadline is set when the run is built, so a phase called
    outside `fibs` stops at it too."""
    task = elevator_task()
    plan = eog(task, elevator_plan(task))
    cfg = FibsConfig(max_plans=3, max_expansions=2000, time_limit=1.0)
    assert _scan_basic_edges(plan)      # there is an ordering to attack
    now = [0.0]
    monkeypatch.setattr(fibs_mod, "time",
                        SimpleNamespace(monotonic=lambda: now[0]))
    run = Run(task, cfg)
    now[0] = cfg.time_limit + 1.0
    out, attempted, accepted = substitution_deorder(run, plan)
    assert (attempted, accepted) == (0, 0)
    assert out is plan


SMALL = FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                   subtask_time=math.inf, time_limit=math.inf)


# the chains-wide benchmark workload's configuration
CHAINS = FibsConfig(reduce="gj", max_plans=3, max_expansions=2000,
                    subtask_time=math.inf, time_limit=math.inf)


def small_random(seed):
    return random_task(seed, max_vars=8, max_steps=12)


def test_basic_edges_match_their_definition():
    """A basic edge is a committed ordering between real roots with no
    third real root ordered between them."""
    for seed in range(60):
        task, seq = small_random(seed)
        flat = eog(task, seq)
        for plan in (flat, block_deorder(flat)):
            real = plan.real_roots()
            expected = {(a, b) for (a, b), rs in plan.reasons().items()
                        if rs and a in real and b in real
                        and not any(plan.ordered(a, z) and plan.ordered(z, b)
                                    for z in real if z not in (a, b))}
            assert set(_scan_basic_edges(plan)) == expected


def test_a_phase_solves_each_subtask_once(monkeypatch):
    phase = [0]
    solved = Counter()
    original_phase = fibs_mod.substitution_deorder
    original_solve = fibs_mod.solve_subtask

    def counting_phase(*args, **kwargs):
        phase[0] += 1
        return original_phase(*args, **kwargs)

    def counting_solve(st, *args):
        key = (tuple(sorted(st.init.items())), tuple(sorted(st.goal.items())),
               st.cost_bound, st.max_len)
        solved[phase[0], key] += 1
        return original_solve(st, *args)

    monkeypatch.setattr(fibs_mod, "substitution_deorder", counting_phase)
    monkeypatch.setattr(fibs_mod, "solve_subtask", counting_solve)
    for seed in range(30):
        fibs(*small_random(seed), SMALL)
    assert phase[0] == 60
    assert solved and max(solved.values()) == 1


def test_a_run_finds_each_states_successors_once(monkeypatch):
    """Within one run no state reaches the successor generator twice, and
    nothing carries over from one run to the next on the same task."""
    original = _SuccessorGenerator.applicable
    seen = []

    def recording(self, state):
        seen.append(state)
        return original(self, state)

    monkeypatch.setattr(_SuccessorGenerator, "applicable", recording)
    elevator = elevator_task()
    runs = [(elevator, elevator_plan(elevator), CFG)]
    runs += [(*small_random(seed), SMALL) for seed in range(10)]
    total = 0
    for task, seq, config in runs:
        counts = []
        for _ in range(2):
            seen.clear()
            fibs(task, seq, config)
            assert len(set(seen)) == len(seen)
            counts.append(len(seen))
        assert counts[0] == counts[1]
        total += counts[0]
    assert total


def test_no_candidate_is_substituted_twice_into_one_plan(monkeypatch):
    """Not into one plan object, nor into two equal plans of one run: SD2
    starts from SD1's plan when block deordering commits nothing."""
    tried = Counter()
    original = fibs_mod.substitute

    def recording(plan, old, new, *args, **kwargs):
        if isinstance(new, CandidateBlock):
            key = json.dumps(plan.to_json(), sort_keys=True)
            tried[run[0], key, old, new] += 1
        return original(plan, old, new, *args, **kwargs)

    monkeypatch.setattr(fibs_mod, "substitute", recording)
    runs = [(*small_random(seed), SMALL) for seed in range(30)]
    runs.append((*scaling_task(10, 4), CHAINS))
    run = [0]
    for run[0], (task, seq, config) in enumerate(runs):
        fibs(task, seq, config)
    assert tried and max(tried.values()) == 1


def test_sd2_repeats_no_search_of_sd1_on_the_plan_sd1_left(monkeypatch):
    """Ten chains: block deordering commits nothing, and every subtask of
    SD2 is one SD1 built and solved already."""
    calls = Counter()

    def counting(name):
        original = getattr(fibs_mod, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("build_subtask", "solve_subtask", "resolve"):
        monkeypatch.setattr(fibs_mod, name, counting(name))
    task, seq = scaling_task(10, 4)
    _, reports = fibs(task, seq, CHAINS)
    assert [r.attempted for r in reports if r.phase.startswith("SD")] \
        == [60, 60]
    assert calls == {"resolve": 120, "build_subtask": 60, "solve_subtask": 60}


def memo_free_phase(task, plan, config, primitive_only):
    """The substitution phase's loop, with direct resolve calls that share
    no phase state."""
    attempted = accepted = 0
    max_len = 1 if primitive_only else None
    while accepted < fibs_mod.MAX_ACCEPTS_PER_PHASE:
        for a, b in _scan_basic_edges(plan):
            attempted += 1
            plan2, ok = resolve(Run(task, config), plan, a, b, max_len)
            if not ok:
                attempted += 1
                plan2, ok = resolve(Run(task, config), plan, b, a, max_len)
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
        plan = eog(task, seq)
        for primitive_only in (True, False):
            ref, ref_att, ref_acc = memo_free_phase(task, plan, SMALL,
                                                    primitive_only)
            out, att, acc = substitution_deorder(
                Run(task, SMALL), plan, primitive_only=primitive_only)
            assert (att, acc) == (ref_att, ref_acc)
            assert out.to_json() == ref.to_json()
            total_accepted += acc
            plan = block_deorder(out)
    assert total_accepted > 0
