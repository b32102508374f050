"""Block replacement: the worked scenarios, the incompleteness witness, and
the success/failure contracts."""

import math
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import popflex.fibs as fibs_module
import popflex.substitution as substitution_module
from popflex.fibs import (RCO, RFO, AcceptanceCriteria, FibsConfig, Run,
                          _scan_basic_edges, resolve)
from popflex.bdpo import (CD, DP, BdpoPlan, Reason, block_deorder,
                          earliest_producer_for_insert)
from popflex.corpus import elevator_plan, elevator_task, random_task
from popflex.eog import eog, generalize
from popflex.substitution import (CRITERIA_REJECT, MISSING_PRODUCT,
                                  UNBOUND_PRECONDITION, UNRESOLVABLE_THREAT,
                                  CandidateBlock,
                                  candidate_block, removal_saving,
                                  remove_blocks, substitute)
from popflex.task import (Fact, PlanningTask, SequentialPlan, Variable,
                          apply_op, make_operator, validate_sequential)

from references import all_linearizations, snapshot
from scenarios import (between_scenario as _between_scenario,
                       blocks_by_name, mutual_threat_scenario
                       as _mutual_threat_scenario,
                       relink_scenario as _relink_scenario,
                       perfbench_workloads, single_op_candidate, towers,
                       witness_scenario as _witness)




# ---------------------------------------------------------------------------
# the five-block replacement scenario: the substitute consumes an earlier
# fact and keeps supplying the downstream consumer



def test_relink_scenario_keeps_substitute_unordered_with_consumer():
    task, seq = _relink_scenario()
    bdp = eog(task, seq)
    names = blocks_by_name(bdp)
    cand = single_op_candidate(task.operators[5])
    outcome = substitute(bdp, names["b_x"], cand)
    assert outcome.success
    out = outcome.plan
    new = outcome.new_block
    v1, v3 = Fact(0, 1), Fact(2, 1)
    assert out.links[(new, v1)] == names["b_r"]
    assert out.links[(names["b_t"], v3)] == new
    assert Reason(CD, v1) in out.reasons()[(new, names["b_s"])]
    assert not out.ordered(names["b_i"], new)
    assert not out.ordered(new, names["b_i"])
    assert out.validate()
    for lin in all_linearizations(out):
        assert validate_sequential(task, lin)


def test_failed_substitution_returns_untouched_plan():
    task, seq = _relink_scenario()
    bdp = eog(task, seq)
    names = blocks_by_name(bdp)
    snap = snapshot(bdp)
    # replacement that cannot supply what b_x supplied
    bad = single_op_candidate(make_operator("noop", [(0, 1)], [(4, 1)]))
    outcome = substitute(bdp, names["b_x"], bad)
    assert not outcome.success
    assert outcome.reason == MISSING_PRODUCT
    assert outcome.plan is bdp and snapshot(bdp) == snap


def test_unbound_precondition_fails():
    task, seq = _relink_scenario()
    bdp = eog(task, seq)
    names = blocks_by_name(bdp)
    # no step (synthetic or real) ever writes v6=2
    impossible = single_op_candidate(
        make_operator("needs-missing", [(5, 2)], [(2, 1)]))
    outcome = substitute(bdp, names["b_x"], impossible)
    assert not outcome.success
    assert outcome.reason == UNBOUND_PRECONDITION


# ---------------------------------------------------------------------------
# elevator: replacing the whole p2 pipeline with the second lift


def test_elevator_block_substitution_raises_flex():
    task = elevator_task()
    bdp = block_deorder(eog(task, elevator_plan(task)))
    assert bdp.flex().unordered_pairs == 16
    target = next(b for b in bdp.real_roots()
                  if bdp.blocks[b].size() == 4
                  and any(bdp.steps[s].name == "board p2 n1 e1"
                          for s in bdp.blocks[b].members))
    sub_ops = [task.operators[task.operator_index(n)]
               for n in ("board p2 n1 e2", "move_up e2 n1 n2",
                         "leave p2 n2 e2")]
    goal = {next(i for i, v in enumerate(task.variables)
                 if v.name == "pos-p2"):
            task.variables[3].values.index("at-n2")}
    sub_plan = SequentialPlan([task.operator_index(o.name) for o in sub_ops])
    cand = candidate_block(task, task.init, goal, sub_plan)
    outcome = substitute(bdp, target, cand)
    assert outcome.success
    score = outcome.plan.flex()
    assert (score.total_pairs - score.unordered_pairs, score.total_pairs) \
        == (13, 28)
    assert outcome.plan.validate()


# ---------------------------------------------------------------------------
# threat shapes



@pytest.mark.parametrize("substitutable", [False, True])
def test_deleter_between_link_endpoints(substitutable):
    task, seq = _between_scenario(substitutable)
    bdp = eog(task, seq)
    names = blocks_by_name(bdp)
    snap = snapshot(bdp)
    cand = single_op_candidate(task.operators[3])
    outcome = substitute(bdp, names["b_x"], cand)
    if substitutable:
        assert outcome.success
        assert outcome.plan.validate()
        remaining = {outcome.plan.steps[s].name
                     for s in outcome.plan.real_steps()}
        assert remaining == {"b_i", "b_x_hat"}
        for lin in all_linearizations(outcome.plan):
            assert validate_sequential(task, lin)
    else:
        assert not outcome.success
        assert outcome.reason == UNRESOLVABLE_THREAT
        assert snapshot(bdp) == snap



@pytest.mark.parametrize("substitutable", [False, True])
def test_mutual_deleters_of_shared_producer(substitutable):
    task, seq = _mutual_threat_scenario(substitutable)
    bdp = eog(task, seq)
    names = blocks_by_name(bdp)
    cand = single_op_candidate(task.operators[3])
    outcome = substitute(bdp, names["b_x"], cand)
    if substitutable:
        assert outcome.success
        assert outcome.plan.validate()
        remaining = {outcome.plan.steps[s].name
                     for s in outcome.plan.real_steps()}
        assert remaining == {"b_i", "b_x_hat"}
    else:
        assert not outcome.success
        assert outcome.reason == UNRESOLVABLE_THREAT


def test_mutual_threats_are_both_detected():
    task, seq = _mutual_threat_scenario(False)
    bdp = eog(task, seq)
    names = blocks_by_name(bdp)
    # wire the half-substituted shape by hand: both consumers linked to b_i
    work = bdp.clone()
    sid = work.fresh_step_id()
    work.steps[sid] = task.operators[3]
    hat = work.make_primitive(sid)
    work.roots.add(hat)
    work.links[(hat, Fact(0, 1))] = names["b_i"]
    work.delete_block(names["b_x"])
    work.rebuild_closure()
    threats = work.unresolved_threats()
    pairs = {(t, link[2]) for t, link in threats}
    assert (hat, names["b_j"]) in pairs
    assert (names["b_j"], hat) in pairs


def test_detect_threats_empty_on_valid_plan():
    task = elevator_task()
    bdp = block_deorder(eog(task, elevator_plan(task)))
    assert bdp.unresolved_threats() == []


# ---------------------------------------------------------------------------
# incompleteness witness: earliest-producer commitment walks into the
# mutual-threat trap although a later producer would have worked



def test_witness_substitution_fails_on_earliest_producer():
    task, seq = _witness()
    bdp = eog(task, seq)
    names = blocks_by_name(bdp)
    # shape check: both producers ordered, deleter hangs off the first
    assert bdp.ordered(names["b1"], names["b2"])
    assert bdp.ordered(names["b2"], names["bx"])
    assert bdp.ordered(names["b1"], names["bt"])
    assert not bdp.ordered(names["b2"], names["bt"])
    assert not bdp.ordered(names["bt"], names["b2"])
    snap = snapshot(bdp)
    cand = single_op_candidate(task.operators[4])
    outcome = substitute(bdp, names["bx"], cand)
    assert not outcome.success
    assert outcome.reason in (UNRESOLVABLE_THREAT, MISSING_PRODUCT)
    assert snapshot(bdp) == snap


def test_witness_alternate_binding_found_by_exhaustive_search():
    """Enumerating producer bindings and resolution directions finds the
    valid substitution the committed algorithm forgoes."""
    task, seq = _witness()
    bdp = eog(task, seq)
    names = blocks_by_name(bdp)
    f = Fact(0, 1)

    solutions = []
    for producer in (names["b1"], names["b2"]):
        work = bdp.clone()
        sid = work.fresh_step_id()
        work.steps[sid] = task.operators[4]
        hat = work.make_primitive(sid)
        work.roots.add(hat)
        work.links[(hat, f)] = producer
        for (c, fact), p in sorted(bdp.links.items()):
            if p == names["bx"]:
                work.links[(c, fact)] = hat
        work.delete_block(names["bx"])
        work.rebuild_closure()

        def close(plan, depth=0):
            threats = plan.unresolved_threats()
            if not threats:
                plan.refresh()
                return plan if plan.validate() else None
            if depth > 8:
                return None
            t, (p, fct, c) = threats[0]
            for edge, kind in (((c, t), CD), ((t, p), DP)):
                if plan.ordered(edge[1], edge[0]):
                    continue
                trial = plan.clone()
                trial.resolutions.setdefault(edge, set()).add(
                    Reason(kind, fct))
                trial.rebuild_closure()
                found = close(trial, depth + 1)
                if found is not None:
                    return found
            return None

        solved = close(work)
        if solved is not None:
            solutions.append((producer, solved))

    assert solutions, "brute-force search should find a valid substitution"
    producers = {p for p, _ in solutions}
    assert producers == {names["b2"]}
    for _, plan in solutions:
        for lin in all_linearizations(plan):
            assert validate_sequential(task, lin)


# ---------------------------------------------------------------------------
# contract properties on random inputs


def test_substitution_contract_on_random_plans():
    accepted = 0
    for seed in range(60):
        task, seq = random_task(seed, max_vars=5, max_steps=8)
        bdp = block_deorder(eog(task, seq))
        roots = bdp.real_roots()
        if not roots:
            continue
        target = roots[seed % len(roots)]
        # candidates: other operators of the task as single-step blocks
        for op in task.operators[:4]:
            snap = snapshot(bdp)
            outcome = substitute(bdp, target, single_op_candidate(op))
            if outcome.success:
                accepted += 1
                assert outcome.plan.validate()
                n = len(outcome.plan.real_steps())
                lins = (list(all_linearizations(outcome.plan))
                        if n <= 6 else
                        [outcome.plan.linearize(s) for s in range(20)])
                for lin in lins:
                    assert validate_sequential(task, lin)
            else:
                assert outcome.plan is bdp
                assert snapshot(bdp) == snap
    assert accepted > 0, "the random corpus never exercised a success"


# fibs runs on random plans (the golden random corpus's) in each of which a
# successful substitution resolves a threat whose commitment goes stale
# before the last one is resolved
STALE_COMMITMENT_SEEDS = (34, 43, 49, 160, 211)


def test_substitution_ends_at_its_refresh_fixpoint(monkeypatch):
    """Each successful substitution of a `fibs` run leaves the commitments
    that a refresh of its result would derive: none stale, none missing."""
    outcomes = []

    def recorded(plan, *args, **kwargs):
        outcome = substitute(plan, *args, **kwargs)
        if outcome.success:
            outcomes.append(outcome.plan)
        return outcome

    monkeypatch.setattr(fibs_module, "substitute", recorded)
    config = fibs_module.FibsConfig(reduce="gj", max_plans=3,
                                    max_expansions=1500,
                                    subtask_time=math.inf,
                                    time_limit=math.inf)
    for seed in STALE_COMMITMENT_SEEDS:
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        fibs_module.fibs(task, seq, config)
    assert outcomes
    for plan in outcomes + [plan for _, plan in _renaming_inputs()]:
        fresh = plan.clone()
        fresh.refresh()
        assert plan.resolutions == fresh.resolutions


def _with_unneeded_link(plan):
    """A copy of the plan with one more link into a primitive root, for a
    fact the root does not consume, as gj's removals can leave at the
    root, from a block not yet ordered before it that a fresh block would
    take the fact from; None when no such copy is valid at its refresh
    fixpoint."""
    for b in plan.real_roots():
        for p in plan.real_roots():
            if p == b or plan.ordered(p, b) or plan.ordered(b, p):
                continue
            for f in sorted(plan.blocks[p].prod - plan.blocks[b].pre):
                work = plan.clone()
                work.links[(b, f)] = p
                work.add_ordering(p, b)
                if earliest_producer_for_insert(
                        work, f, b, exclude=frozenset([b])) != p:
                    continue
                work.refresh()
                fresh = work.clone()
                fresh.refresh()
                if work.validate_current() \
                        and fresh.resolutions == work.resolutions:
                    return work
    return None


def _renaming_inputs():
    """The golden random corpus's plans, a `chains-wide` plan and two
    elevator towers, each after EOG and after block deordering, and the
    corpus's EOG plans with an unneeded link."""
    inputs = [random_task(seed, max_vars=8, max_steps=12)
              for seed in range(300)]
    chains, = perfbench_workloads().ChainsWide().setup(1)
    inputs += [(chains.task, chains.plan), towers(2)[:2]]
    for task, seq in inputs:
        plan = eog(task, seq)
        yield task, plan
        yield task, block_deorder(plan)
        if (linked := _with_unneeded_link(plan)) is not None:
            yield task, linked


def _only_renames(plan, b):
    """Whether a one-step candidate with the profile and cost of the
    primitive root `b` would only rename it: `b`'s links, one per
    precondition, come from the producers a fresh block gets, and no
    commitment pair that touches `b` carries a DP reason."""
    blk = plan.blocks[b]
    linked = {f: p for (c, f), p in plan.links.items() if c == b}
    return (linked.keys() == blk.pre
            and all(earliest_producer_for_insert(
                plan, f, b, exclude=frozenset([b])) == p
                for f, p in linked.items())
            and not any(r.kind == DP for pair, rs in plan.resolutions.items()
                        if b in pair for r in rs))


def _renamed(plan, new, old):
    """The plan's links and commitments with block `new` called `old`."""
    def name(x):
        return old if x == new else x
    return ({(name(c), f): name(p) for (c, f), p in plan.links.items()},
            {(name(a), name(b)): rs
             for (a, b), rs in plan.resolutions.items() if rs})


@contextmanager
def _nothing_built_or_counted():
    """Fail on any clone of a plan, and on any count of its flex or cost."""
    with mock.patch.object(BdpoPlan, "clone", side_effect=AssertionError), \
            mock.patch.object(BdpoPlan, "flex", side_effect=AssertionError), \
            mock.patch.object(BdpoPlan, "cost", side_effect=AssertionError):
        yield


def test_a_renaming_edit_is_judged_without_being_built():
    """A one-step candidate with its target's profile and cost, whose
    links and CD-only commitments a fresh block would get back, rebuilds
    the plan as it stands under a new id.  Both criteria reject it from
    the score the caller hands in, without a clone or a count of the
    input's flex or cost.  Every other such candidate is built and judged
    as before."""
    criteria = (AcceptanceCriteria(RFO), AcceptanceCriteria(RCO))
    renamings = gains = 0
    for task, plan in _renaming_inputs():
        assert plan.validate_current()
        score = (plan.flex().frac, plan.cost())
        for b in plan.real_roots():
            blk = plan.blocks[b]
            if not blk.primitive:
                continue
            for op in task.operators:
                if op.cost != blk.cost or task.profile(op) != (
                        blk.pre, blk.prod, blk.dels):
                    continue
                cand = single_op_candidate(op)
                free = substitute(plan, b, cand)
                after = (free.success
                         and (free.plan.flex().frac, free.plan.cost()))
                if not _only_renames(plan, b):
                    for crit in criteria:
                        judged = substitute(plan, b, cand, crit.accepts,
                                            score)
                        assert judged.success == (
                            free.success and crit.accepts(*score, *after))
                    gains += free.success and after[0] > score[0]
                    continue
                renamings += 1
                assert after == score
                assert _renamed(free.plan, free.new_block, b) == \
                    _renamed(plan, None, None)
                with _nothing_built_or_counted():
                    for crit in criteria:
                        judged = substitute(plan, b, cand, crit.accepts,
                                            score)
                        assert judged.reason == CRITERIA_REJECT
                        assert judged.plan is plan
    # candidates of each kind, some of the others with a flex gain
    assert renamings > 1000 and gains > 0


def test_an_acceptance_test_judges_the_edit_before_it_is_validated():
    """Taking every plan, the acceptance test changes no outcome and
    reports the plan's flex and cost; refusing every plan, it leaves an
    empty candidate's removal unvalidated."""
    empty = CandidateBlock((), (), (), 0)
    rejected = 0
    for seed in range(60):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        bdp = block_deorder(eog(task, seq))
        score = (bdp.flex().frac, bdp.cost())
        for b in bdp.real_roots():
            for new in (empty, single_op_candidate(task.operators[0])):
                free = substitute(bdp, b, new)
                taken = substitute(bdp, b, new, lambda *scores: True, score)
                assert (taken.success, taken.reason, taken.trace) == \
                    (free.success, free.reason, free.trace)
                if free.success:
                    assert taken.plan.to_json() == free.plan.to_json()
                    assert taken.score == (free.plan.flex().frac,
                                           free.plan.cost())
            with mock.patch.object(BdpoPlan, "validate_current",
                                   side_effect=AssertionError):
                refused = substitute(bdp, b, empty, lambda *scores: False,
                                     score)
            assert not refused.success and refused.plan is bdp
            rejected += refused.reason == CRITERIA_REJECT
            with pytest.raises(ValueError):
                substitute(bdp, b, empty, lambda *scores: True)
    assert rejected > 0


def test_a_block_that_lacks_a_supplied_fact_is_refused_before_a_clone():
    """An internal substitution of the post-accept sweep's shape, whose
    block supplies the first of its target's two linked facts but not the
    second, fails with MISSING_PRODUCT without building anything, and its
    trace names the relink it got to first."""
    variables = [Variable(f"v{i}", ("0", "1")) for i in range(1, 6)]
    ops = [make_operator("a", [], [(0, 1), (1, 1)]),
           make_operator("c1", [(0, 1)], [(2, 1)]),
           make_operator("c2", [(1, 1)], [(3, 1)]),
           make_operator("n", [], [(0, 1), (4, 1)])]
    task = PlanningTask(variables, ops, {i: 0 for i in range(5)},
                        {2: 1, 3: 1, 4: 1})
    plan = eog(task, SequentialPlan([0, 1, 2, 3]))
    names = blocks_by_name(plan)
    score = (plan.flex().frac, plan.cost())
    snap = snapshot(plan)
    with _nothing_built_or_counted():
        outcome = substitute(plan, names["a"], names["n"],
                             AcceptanceCriteria(RFO).sweep_accepts, score)
    assert outcome.reason == MISSING_PRODUCT
    assert outcome.trace == ["relink 5 -(0=1)-> 3",
                             "5 cannot produce (1=1)"]
    assert outcome.plan is plan and snapshot(plan) == snap


# ---------------------------------------------------------------------------
# the UnresolvableThreat returns that the pipeline reaches, each pinned on
# the golden random corpus (`random_task(seed, 8, 12)`, 3 plans, 1,500
# expansions) at an SD1 attack that the phase makes before its first accept


GOLDEN_CONFIGS = {
    RFO: FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                    subtask_time=math.inf, time_limit=math.inf),
    RCO: FibsConfig(criteria=AcceptanceCriteria(RCO), reduce="bj",
                    max_plans=3, max_expansions=1500,
                    subtask_time=math.inf, time_limit=math.inf),
}


def _sd1_attack(monkeypatch, seed, mode, excluded, target):
    """SD1's attack on the basic edge (excluded, target) of EOG's plan of
    golden seed `seed`, under the golden config of `mode`.  Returns whether
    it was accepted, and every `substitute` call it made, the post-accept
    sweep's and threat resolution's included, as (depth, plan, old, new,
    outcome), in the order the calls returned."""
    task, seq = random_task(seed, max_vars=8, max_steps=12)
    plan = eog(task, seq)
    assert {(excluded, target), (target, excluded)} & set(
        _scan_basic_edges(plan))
    calls = []

    def recorded(work, old, new, *args, _depth=0, **kwargs):
        outcome = substitute(work, old, new, *args, _depth=_depth, **kwargs)
        calls.append((_depth, work, old, new, outcome))
        return outcome

    monkeypatch.setattr(fibs_module, "substitute", recorded)
    monkeypatch.setattr(substitution_module, "substitute", recorded)
    _, accepted = resolve(Run(task, GOLDEN_CONFIGS[mode]), plan, excluded,
                          target, max_len=1)
    return accepted, calls


def _unresolvable(calls):
    return [(depth, old, new, outcome.trace[-1])
            for depth, _, old, new, outcome in calls
            if outcome.reason == UNRESOLVABLE_THREAT]


def test_a_sweep_substitution_fails_on_a_cycle_after_relinking(monkeypatch):
    """Seed 160 under rfo/gj: the attack on (7, 8) puts a candidate in as
    block 12, and the sweep tries block 12 for block 5.  Re-pointing block
    5's links to block 12 closes a cycle."""
    accepted, calls = _sd1_attack(monkeypatch, 160, RFO, 7, 8)
    assert accepted
    assert _unresolvable(calls) == [(0, 5, 12, "cycle after relinking")]


@pytest.mark.parametrize("mode", [RFO, RCO])
def test_a_sweep_substitution_fails_validation(monkeypatch, mode):
    """Seed 117: the attack on (2, 4) puts a candidate in as block 14,
    which consumes (2=0) from block 2, and every sweep pass tries block 14
    for block 2.  The edit leaves block 14 with no producer for (2=0), and
    only `validate_current` finds it."""
    accepted, calls = _sd1_attack(monkeypatch, 117, mode, 2, 4)
    assert accepted
    failed = _unresolvable(calls)
    assert len(failed) > 1
    assert set(failed) == {(0, 2, 14, "block 14: no producer for (2=0)")}
    work = next(work for _, work, old, _, _ in calls if old == 2)
    assert work.links[14, Fact(2, 0)] == 2


@pytest.mark.parametrize("mode", [RFO, RCO])
def test_a_threat_between_two_old_blocks_is_unresolvable(monkeypatch, mode):
    """Seed 93: the one candidate for block 6 on the attack on (5, 6)
    leaves a threat that neither ordering resolves, between two blocks
    neither of which is the substitute block, so nothing is substituted
    for it."""
    accepted, calls = _sd1_attack(monkeypatch, 93, mode, 5, 6)
    assert not accepted
    assert [(depth, old) for depth, _, old, _, _ in calls] == [(0, 6)]
    assert _unresolvable(calls) == [
        (0, 6, calls[0][3], "resolved 5 vs 9-(1=0)->8 via CD(1=0)")]


@pytest.mark.parametrize("mode", [RFO, RCO])
def test_a_failed_internal_substitution_fails_its_caller(monkeypatch, mode):
    """Seed 3: the first candidate for block 8 on the attack on (3, 8),
    inserted as block 12, leaves a threat between block 12 and block 5
    that neither ordering resolves.  Substituting block 12 for block 5
    fails, and so does the candidate."""
    accepted, calls = _sd1_attack(monkeypatch, 3, mode, 3, 8)
    assert not accepted
    cand = calls[1][3]
    assert _unresolvable(calls) == [
        (1, 5, 12, "resolved 6 vs 12-(2=1)->10 via CD(2=1)"),
        (0, 8, cand, "resolved 9 vs 0-(2=0)->12 via CD(2=0)")]


def test_substitution_work_scales_quadratically():
    """Threat-scan effort on a chain grows no worse than quadratically."""
    from popflex.corpus import chain_task

    counts = {}
    for n in (16, 32, 64):
        task, seq = chain_task(n)
        bdp = eog(task, seq)
        target = bdp.real_roots()[n // 2]
        calls = 0
        original = BdpoPlan.threats

        def counting(self, _orig=original):
            nonlocal calls
            result = _orig(self)
            calls += len(result) + len(self.roots)
            return calls and result
        BdpoPlan.threats = counting
        try:
            substitute(bdp, target, single_op_candidate(task.operators[n // 2]))
        finally:
            BdpoPlan.threats = original
        counts[n] = calls
    assert counts[32] <= 8 * max(counts[16], 1)
    assert counts[64] <= 8 * max(counts[32], 1)


def _whole_init_block(task, init, goal, plan):
    """`candidate_block` as it was computed from the profile of the whole
    initial state."""
    ops = tuple(task.operators[i] for i in plan.steps)
    empty = frozenset()
    init_prof = (empty, frozenset(Fact(v, d) for v, d in init.items()), empty)
    goal_prof = (frozenset(Fact(v, d) for v, d in goal.items()), empty, empty)
    links, resolutions = generalize(
        init_prof, [task.profile(op) for op in ops], goal_prof)
    return CandidateBlock(
        ops=ops,
        links=tuple(sorted((p - 1, f, c - 1) for (c, f), p in links.items()
                           if p != 0 and c != len(ops) + 1)),
        resolutions=tuple(sorted((a - 1, b - 1, r)
                                 for (a, b), rs in resolutions.items()
                                 for r in rs)),
        cost=sum(op.cost for op in ops))


@hst.composite
def plan_windows(draw):
    """A stretch of a random task's plan, from the state that the steps
    before it reach, to a goal of some of the facts that it ends in."""
    task, seq = random_task(draw(hst.integers(0, 10_000)), max_vars=8,
                            max_steps=12)
    n = len(seq.steps)
    start = draw(hst.integers(0, n))
    end = draw(hst.integers(start, n))
    states = [dict(task.init)]
    for i in seq.steps[:end]:
        states.append(apply_op(task.operators[i], states[-1]))
    final = states[end]
    goal_vars = draw(hst.lists(hst.sampled_from(sorted(final)), unique=True))
    return (task, states[start], {v: final[v] for v in goal_vars},
            SequentialPlan(seq.steps[start:end]))


@settings(max_examples=300, deadline=None)
@given(plan_windows())
def test_candidate_block_matches_the_whole_init_formula(window):
    task, init, goal, plan = window
    assert validate_sequential(PlanningTask(task.variables, task.operators,
                                            dict(init), dict(goal)), plan)
    assert candidate_block(task, init, goal, plan) == \
        _whole_init_block(task, init, goal, plan)


@hst.composite
def removals(draw):
    """A deordered random plan, whose blocks nest, and the blocks to remove
    from it: one block id of any kind, live, gone, unknown or synthetic,
    or some root blocks, synthetic ones included."""
    task, seq = random_task(draw(hst.integers(0, 10_000)), max_vars=8,
                            max_steps=30)
    plan = block_deorder(eog(task, seq))
    if draw(hst.booleans()):
        return plan, {draw(hst.integers(0, plan.next_block_id))}
    return plan, set(draw(hst.lists(hst.sampled_from(sorted(plan.roots)),
                                    min_size=1, unique=True)))


@settings(max_examples=300, deadline=None)
@given(removals())
def test_removal_saving_is_the_cost_a_removal_takes_off(removal):
    """The saving is what `remove_blocks` takes off wherever it succeeds,
    and None exactly where it refuses before copying the plan to edit."""
    plan, blocks = removal
    with mock.patch.object(BdpoPlan, "clone", autospec=True,
                           side_effect=BdpoPlan.clone) as clone:
        result = remove_blocks(plan, blocks)
    saving = removal_saving(plan, blocks)
    assert (saving is None) == (not clone.called)
    if result is not None:
        assert saving == plan.cost() - result.cost()
