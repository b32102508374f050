"""BdpoPlan's ordering core against naive references.

The closure, the threat list, the step-level order and the ordered-pair
count are checked on the plans that `eog`, `wrap_blocks`,
`substitute` (success and failure) and `remove_blocks` produce, both on
direct calls and on every call that a whole `fibs` run makes, and so are
the closure after each incremental update and the threat list each of
those calls reuses.  `between_closure` is checked against its fixpoint
definition.  None of those plans, nor any plan `refresh` leaves, holds an
empty reason set or a link or commitment from a block to itself.  Each
block's stored interior pair count, and the plan's ordered-pair count
built from the roots' counts, are checked against a walk over every
compound block on deordered plans, on the remainders of removals at every
nesting depth and on a towers-4 run.
"""

import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import popflex.bdpo as bdpo_module
import popflex.fibs as fibs_module
import popflex.substitution as substitution_module
from popflex.bdpo import (CD, GOAL_BLOCK, GOAL_ID, INIT_BLOCK, INIT_ID,
                          BdpoPlan, CycleDetected, Reason, between_closure,
                          wrap_blocks)
from popflex.corpus import chain_task, random_task
from popflex.eog import eog
from popflex.fibs import FibsConfig, fibs, reduce_plan, remove_blocks
from popflex.substitution import substitute
from popflex.task import Fact
from references import (closure_from_edges, flat_closure,
                        interior_pairs_by_walk, ordered_step_pairs_by_walk,
                        snapshot)
from scenarios import removal_corpus, single_op_candidate, towers


def reference_closure(plan) -> dict[int, set[int]]:
    edges = [(p, c) for (c, _), p in plan.links.items() if p != c]
    edges += [pair for pair, rs in plan.resolutions.items() if rs]
    for b in plan.roots:
        if b != INIT_BLOCK:
            edges.append((INIT_BLOCK, b))
        if b != GOAL_BLOCK:
            edges.append((b, GOAL_BLOCK))
    return closure_from_edges(plan.roots, edges)


def decoded_closure(plan) -> dict[int, set[int]]:
    return {a: {b for b in range(mask.bit_length()) if mask >> b & 1}
            for a, mask in plan.closure.items()}


def reference_threats(plan) -> list:
    out = []
    for (c, f), p in sorted(plan.links.items()):
        for t in sorted(plan.roots):
            if t in (p, c, INIT_BLOCK, GOAL_BLOCK):
                continue
            if f in plan.blocks[t].dels:
                out.append((t, (p, f, c)))
    return out


def reference_step_order(plan) -> dict[int, set[int]]:
    """Step-level strict descendants from the commitments alone: the root
    links and resolutions, each live compound block's internal links and
    resolutions, and init-first/goal-last."""
    contexts = [(plan.links, plan.resolutions)]
    contexts += [(plan.blocks[b].ilinks, plan.blocks[b].iresolutions)
                 for b in plan.live_blocks() if not plan.blocks[b].primitive]
    edges = []
    for links, resolutions in contexts:
        pairs = [(p, c) for (c, _), p in links.items() if p != c]
        pairs += [pair for pair, rs in resolutions.items() if rs]
        for a, b in pairs:
            edges += [(sa, sb) for sa in plan.blocks[a].members
                      for sb in plan.blocks[b].members]
    for s in plan.steps:
        if s != INIT_ID:
            edges.append((INIT_ID, s))
        if s != GOAL_ID:
            edges.append((s, GOAL_ID))
    return closure_from_edges(plan.steps, edges)


def reference_ordered_step_pairs(plan) -> int:
    order = reference_step_order(plan)
    real = plan.real_steps()
    return sum(1 for i, s in enumerate(real) for t in real[i + 1:]
               if t in order[s] or s in order[t])


def reference_between_closure(plan, seed: set[int]) -> set[int]:
    """The least superset of `seed` that holds every root block ordered
    after one of its members and before another."""
    span = set(seed)
    while True:
        extra = {x for x in plan.roots - span - {INIT_BLOCK, GOAL_BLOCK}
                 if any(plan.ordered(a, x) for a in span)
                 and any(plan.ordered(x, b) for b in span)}
        if not extra:
            return span
        span |= extra


def check_core(plan) -> None:
    assert decoded_closure(plan) == reference_closure(plan)
    assert plan.threats() == reference_threats(plan)
    assert flat_closure(plan) == reference_step_order(plan)
    assert plan.ordered_step_pairs() == reference_ordered_step_pairs(plan)
    check_no_empty_reasons_or_loops(plan)


def check_no_empty_reasons_or_loops(plan) -> None:
    """What `bdpo`'s module docstring promises in place of guards: no reason
    set is empty, and no link or commitment joins a block to itself, at
    the root or inside any live compound block."""
    contexts = [(plan.links, plan.resolutions)]
    contexts += [(plan.blocks[b].ilinks, plan.blocks[b].iresolutions)
                 for b in plan.live_blocks() if not plan.blocks[b].primitive]
    for links, resolutions in contexts:
        assert all(c != p for (c, _), p in links.items())
        assert all(rs and a != b for (a, b), rs in resolutions.items())


@contextmanager
def core_checked_after_each_update():
    """Check the closure after every incremental update (a new root, a new
    edge, removed or renamed roots, refreshed commitments), where a stale bit would
    steer threat resolution before any rebuild could repair it, and check
    a reused threat list against a fresh scan wherever it is read."""
    add_ordering, refresh = BdpoPlan.add_ordering, BdpoPlan.refresh
    remove_from_closure = BdpoPlan.remove_from_closure
    rename_in_closure = BdpoPlan.rename_in_closure
    unresolved_threats = BdpoPlan.unresolved_threats
    materialize = substitution_module._materialize

    def check_closure(plan):
        assert decoded_closure(plan) == reference_closure(plan)

    def check_threats(plan, threats):
        if threats is not None:
            assert threats == reference_threats(plan)

    def checked_materialize(plan, cand):
        bid = materialize(plan, cand)
        check_closure(plan)
        return bid

    def checked_add_ordering(plan, a, b):
        add_ordering(plan, a, b)
        check_closure(plan)

    def checked_remove_from_closure(plan, gone):
        remove_from_closure(plan, gone)
        check_closure(plan)

    def checked_rename_in_closure(plan, old, new):
        rename_in_closure(plan, old, new)
        check_closure(plan)

    def checked_unresolved_threats(plan, threats=None):
        check_threats(plan, threats)
        return unresolved_threats(plan, threats)

    def checked_refresh(plan, threats=None):
        check_threats(plan, threats)
        refresh(plan, threats)
        check_closure(plan)
        check_no_empty_reasons_or_loops(plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(substitution_module, "_materialize", checked_materialize)
        mp.setattr(BdpoPlan, "add_ordering", checked_add_ordering)
        mp.setattr(BdpoPlan, "remove_from_closure",
                   checked_remove_from_closure)
        mp.setattr(BdpoPlan, "rename_in_closure", checked_rename_in_closure)
        mp.setattr(BdpoPlan, "unresolved_threats", checked_unresolved_threats)
        mp.setattr(BdpoPlan, "refresh", checked_refresh)
        yield mp


@given(st.integers(0, 299), st.data())
@settings(max_examples=60, deadline=None)
def test_core_after_direct_operations(seed, data):
    task, seq = random_task(seed, max_vars=8, max_steps=12)
    plan = eog(task, seq)
    check_core(plan)
    roots = plan.real_roots()
    if not roots:
        return

    if len(roots) >= 2:
        pair = data.draw(st.lists(st.sampled_from(roots), min_size=2,
                                  max_size=2, unique=True))
        span = between_closure(plan, set(pair))
        assert span == reference_between_closure(plan, set(pair))
        work = plan.clone()
        wrap_blocks(work, span)     # a betweenness-closed span closes no cycle
        check_core(work)
        if work.validate():
            plan = work
            roots = plan.real_roots()

    old = data.draw(st.sampled_from(roots))
    before = snapshot(plan)
    replacements = [single_op_candidate(data.draw(st.sampled_from(task.operators)))]
    replacements += [b for b in roots if b != old][:1]
    for new in replacements:
        with core_checked_after_each_update():
            outcome = substitute(plan, old, new)
        assert snapshot(plan) == before
        check_core(plan)
        check_core(outcome.plan)
        if not outcome.success:
            assert outcome.plan is plan

    victim = data.draw(st.sampled_from(
        sorted(plan.live_blocks() - {INIT_BLOCK, GOAL_BLOCK})))
    reduced = remove_blocks(plan, {victim})
    if reduced is not None:
        check_core(reduced)


@given(st.integers(0, 299))
@settings(max_examples=30, deadline=None)
def test_core_on_every_step_of_a_fibs_run(seed):
    task, seq = random_task(seed, max_vars=8, max_steps=12)

    def checked_substitute(plan, *args, **kwargs):
        outcome = substitute(plan, *args, **kwargs)
        check_core(plan)
        check_core(outcome.plan)
        return outcome

    def checked_wrap(plan, span):
        bid = wrap_blocks(plan, span)
        check_core(plan)
        return bid

    def checked_remove(plan, blocks):
        result = remove_blocks(plan, blocks)
        if result is not None:
            check_core(result)
        return result

    config = FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                        subtask_time=math.inf, time_limit=math.inf)
    with core_checked_after_each_update() as mp:
        mp.setattr(fibs_module, "substitute", checked_substitute)
        mp.setattr(fibs_module, "remove_blocks", checked_remove)
        mp.setattr(bdpo_module, "wrap_blocks", checked_wrap)
        plan, _ = fibs(task, seq, config)
    check_core(plan)


def _checked_pair_counts(plan) -> int:
    """Check every live block's interior pair count and the plan's
    ordered-pair count against the walks; returns the compound blocks
    checked."""
    compound = 0
    for bid in plan.live_blocks():
        assert plan.blocks[bid].ipairs == interior_pairs_by_walk(plan, bid)
        compound += not plan.blocks[bid].primitive
    assert plan.ordered_step_pairs() == ordered_step_pairs_by_walk(plan)
    return compound


def test_interior_pair_counts_match_the_walk(monkeypatch):
    """On the golden random corpus after block deordering, on every
    remainder of the golden removal corpus, whose nested rebuilds go
    through `make_compound`, and on each plan of a towers-4 run that a
    substitution or the run returns."""
    deordered = sum(_checked_pair_counts(bdpo_module.block_deorder(
        eog(*random_task(seed, max_vars=8, max_steps=12))))
        for seed in range(300))
    remainders = 0
    for plan in removal_corpus():
        for bid in sorted(plan.live_blocks() - {INIT_BLOCK, GOAL_BLOCK}):
            if (result := remove_blocks(plan, {bid})) is not None:
                remainders += _checked_pair_counts(result)
        remainders += _checked_pair_counts(reduce_plan(plan, "bj"))
    assert deordered > 0 and remainders > 0

    substituted = []

    def recorded(plan, *args, **kwargs):
        outcome = substitute(plan, *args, **kwargs)
        if outcome.success:
            substituted.append(outcome.plan)
        return outcome

    monkeypatch.setattr(fibs_module, "substitute", recorded)
    plan, _ = fibs(*towers(4))
    assert sum(map(_checked_pair_counts, substituted + [plan])) > 0


def test_add_ordering_matches_a_rebuild():
    task, seq = chain_task(4)
    plan = eog(task, seq)
    first, *_, last = plan.real_roots()
    plan.links.clear()
    plan.rebuild_closure()
    assert not plan.ordered(first, last)
    plan.resolutions[(first, last)] = {Reason(CD, Fact(0, 1))}
    plan.add_ordering(first, last)
    assert plan.ordered(first, last)
    assert decoded_closure(plan) == reference_closure(plan)


def test_add_ordering_rejects_cycles():
    task, seq = chain_task(3)
    plan = eog(task, seq)
    first, _, last = plan.real_roots()
    image = dict(plan.closure)
    with pytest.raises(CycleDetected):
        plan.add_ordering(first, first)
    with pytest.raises(CycleDetected):
        plan.add_ordering(last, first)
    assert plan.closure == image
