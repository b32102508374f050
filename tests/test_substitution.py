"""Block replacement: the worked scenarios, the incompleteness witness, and
the success/failure contracts."""

import pytest

from popflex.bdpo import CD, DP, BdpoPlan, Reason, block_deorder, init_bdpo
from popflex.corpus import elevator_plan, elevator_task, random_task
from popflex.eog import eog
from popflex.substitution import (MISSING_PRODUCT, UNBOUND_PRECONDITION,
                                  UNRESOLVABLE_THREAT, candidate_block,
                                  substitute)
from popflex.task import (Fact, SequentialPlan, make_operator,
                          validate_sequential)

from scenarios import (between_scenario as _between_scenario,
                       blocks_by_name, mutual_threat_scenario
                       as _mutual_threat_scenario,
                       relink_scenario as _relink_scenario,
                       single_op_candidate, witness_scenario as _witness)




# ---------------------------------------------------------------------------
# the five-block replacement scenario: the substitute consumes an earlier
# fact and keeps supplying the downstream consumer



def test_relink_scenario_keeps_substitute_unordered_with_consumer():
    task, seq = _relink_scenario()
    bdp = init_bdpo(eog(task, seq))
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
    for lin in out.all_linearizations():
        assert validate_sequential(task, lin)


def test_failed_substitution_returns_untouched_plan():
    task, seq = _relink_scenario()
    bdp = init_bdpo(eog(task, seq))
    names = blocks_by_name(bdp)
    snap = bdp.snapshot()
    # replacement that cannot supply what b_x supplied
    bad = single_op_candidate(make_operator("noop", [(0, 1)], [(4, 1)]))
    outcome = substitute(bdp, names["b_x"], bad)
    assert not outcome.success
    assert outcome.reason == MISSING_PRODUCT
    assert outcome.plan is bdp and bdp.snapshot() == snap


def test_unbound_precondition_fails():
    task, seq = _relink_scenario()
    bdp = init_bdpo(eog(task, seq))
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
    bdp = block_deorder(init_bdpo(eog(task, elevator_plan(task))))
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
    bdp = init_bdpo(eog(task, seq))
    names = blocks_by_name(bdp)
    snap = bdp.snapshot()
    cand = single_op_candidate(task.operators[3])
    outcome = substitute(bdp, names["b_x"], cand)
    if substitutable:
        assert outcome.success
        assert outcome.plan.validate()
        remaining = {outcome.plan.steps[s].name
                     for s in outcome.plan.real_steps()}
        assert remaining == {"b_i", "b_x_hat"}
        for lin in outcome.plan.all_linearizations():
            assert validate_sequential(task, lin)
    else:
        assert not outcome.success
        assert outcome.reason == UNRESOLVABLE_THREAT
        assert bdp.snapshot() == snap



@pytest.mark.parametrize("substitutable", [False, True])
def test_mutual_deleters_of_shared_producer(substitutable):
    task, seq = _mutual_threat_scenario(substitutable)
    bdp = init_bdpo(eog(task, seq))
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
    bdp = init_bdpo(eog(task, seq))
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
    bdp = block_deorder(init_bdpo(eog(task, elevator_plan(task))))
    assert bdp.unresolved_threats() == []


# ---------------------------------------------------------------------------
# incompleteness witness: earliest-producer commitment walks into the
# mutual-threat trap although a later producer would have worked



def test_witness_substitution_fails_on_earliest_producer():
    task, seq = _witness()
    bdp = init_bdpo(eog(task, seq))
    names = blocks_by_name(bdp)
    # shape check: both producers ordered, deleter hangs off the first
    assert bdp.ordered(names["b1"], names["b2"])
    assert bdp.ordered(names["b2"], names["bx"])
    assert bdp.ordered(names["b1"], names["bt"])
    assert not bdp.ordered(names["b2"], names["bt"])
    assert not bdp.ordered(names["bt"], names["b2"])
    snap = bdp.snapshot()
    cand = single_op_candidate(task.operators[4])
    outcome = substitute(bdp, names["bx"], cand)
    assert not outcome.success
    assert outcome.reason in (UNRESOLVABLE_THREAT, MISSING_PRODUCT)
    assert bdp.snapshot() == snap


def test_witness_alternate_binding_found_by_exhaustive_search():
    """Enumerating producer bindings and resolution directions finds the
    valid substitution the committed algorithm forgoes."""
    task, seq = _witness()
    bdp = init_bdpo(eog(task, seq))
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
        for lin in plan.all_linearizations():
            assert validate_sequential(task, lin)


# ---------------------------------------------------------------------------
# contract properties on random inputs


def test_substitution_contract_on_random_plans():
    accepted = 0
    for seed in range(60):
        task, seq = random_task(seed, max_vars=5, max_steps=8)
        bdp = block_deorder(init_bdpo(eog(task, seq)))
        roots = bdp.real_roots()
        if not roots:
            continue
        target = roots[seed % len(roots)]
        # candidates: other operators of the task as single-step blocks
        for op in task.operators[:4]:
            snap = bdp.snapshot()
            outcome = substitute(bdp, target, single_op_candidate(op))
            if outcome.success:
                accepted += 1
                assert outcome.plan.validate()
                n = len(outcome.plan.real_steps())
                lins = (list(outcome.plan.all_linearizations())
                        if n <= 6 else
                        [outcome.plan.linearize(s) for s in range(20)])
                for lin in lins:
                    assert validate_sequential(task, lin)
            else:
                assert outcome.plan is bdp
                assert bdp.snapshot() == snap
    assert accepted > 0, "the random corpus never exercised a success"


def test_substitution_work_scales_quadratically():
    """Threat-scan effort on a chain grows no worse than quadratically."""
    from popflex.corpus import chain_task

    counts = {}
    for n in (16, 32, 64):
        task, seq = chain_task(n)
        bdp = init_bdpo(eog(task, seq))
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
