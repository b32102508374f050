"""The four-phase flexibility pipeline plus redundant-block elimination.

Phases: order generalization, substitution over primitive blocks, block
deordering, substitution over all outermost blocks, then an optional
reduction pass (backward or greedy justification).  Substitutions are
accepted under one of two criteria: flex-first (strict flex gain, cost not
worsened) or cost-first (strict cost drop, or equal cost with a flex gain).
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bdpo import (BdpoPlan, GOAL_BLOCK, INIT_BLOCK, block_deorder, init_bdpo)
from .eog import eog
from .pop import CycleDetected
from .subplanner import Subtask, solve_subtask
from .substitution import candidate_from_pop, substitute
from .task import (Fact, NotApplicable, PlanningTask, SequentialPlan,
                   apply_op)

logger = logging.getLogger(__name__)

RFO = "rfo"
RCO = "rco"


@dataclass(frozen=True)
class AcceptanceCriteria:
    mode: str = RFO

    def accepts(self, flex_before: Fraction, cost_before: int,
                flex_after: Fraction, cost_after: int) -> bool:
        if self.mode == RFO:
            return flex_after > flex_before and cost_after <= cost_before
        return cost_after < cost_before or (
            cost_after == cost_before and flex_after > flex_before)

    def sweep_accepts(self, flex_before: Fraction, cost_before: int,
                      flex_after: Fraction, cost_after: int) -> bool:
        # removals always reduce cost; under the flex-first regime they must
        # additionally not lose flexibility
        if self.mode == RFO:
            return flex_after >= flex_before and cost_after <= cost_before
        return cost_after <= cost_before


@dataclass
class FibsConfig:
    criteria: AcceptanceCriteria = field(default_factory=AcceptanceCriteria)
    reduce: str = "none"                # none | bj | gj
    subtask_time: float = 5.0
    max_plans: int = 10
    max_expansions: int = 20000
    length_factor: int = 4
    max_accepts_per_phase: int = 1000
    time_limit: float = 1800.0          # whole-run budget in seconds
    seed: int = 0


@dataclass
class PhaseReport:
    phase: str
    steps_before: int
    steps_after: int
    cost_before: int
    cost_after: int
    ordered_before: int
    ordered_after: int
    flex_before: float
    flex_after: float
    flex_vs_input: float
    attempted: int = 0
    accepted: int = 0
    elapsed: float = 0.0

    def to_dict(self, with_timings: bool = False) -> dict:
        data = {
            "phase": self.phase,
            "steps_before": self.steps_before,
            "steps_after": self.steps_after,
            "cost_before": self.cost_before,
            "cost_after": self.cost_after,
            "ordered_before": self.ordered_before,
            "ordered_after": self.ordered_after,
            "flex_before": f"{self.flex_before:.6f}",
            "flex_after": f"{self.flex_after:.6f}",
            "flex_vs_input": f"{self.flex_vs_input:.6f}",
            "attempted": self.attempted,
            "accepted": self.accepted,
        }
        if with_timings:
            data["elapsed"] = round(self.elapsed, 3)
        return data


class SubtaskInfeasible(Exception):
    """Excluding the edge's source broke the progression used for the
    subtask's initial state."""


def build_subtask(task: PlanningTask, plan: BdpoPlan, excluded: int,
                  target: int, config: FibsConfig) -> Subtask:
    """Initial state from progressing every block before the target except
    the excluded one; goal from the facts the target supplies plus the facts
    its other predecessors feed across it."""
    before_blocks = [b for b in plan.real_roots()
                     if b not in (excluded, target) and plan.ordered(b, target)]
    state = dict(task.init)
    rng = random.Random(config.seed)
    order = plan._linearize_context(before_blocks,
                                    lambda a, b: plan.ordered(a, b), rng)
    for sid in order:
        op = plan.steps[sid]
        try:
            state = apply_op(op, state)
        except NotApplicable as exc:
            raise SubtaskInfeasible(str(exc)) from exc

    goal: dict[int, int] = {}

    def add_goal(fact: Fact) -> bool:
        if goal.get(fact.var, fact.val) != fact.val:
            return False
        goal[fact.var] = fact.val
        return True

    for (c, f), p in sorted(plan.links.items()):
        if p == target:
            if not add_goal(f):
                raise SubtaskInfeasible(f"conflicting goal fact {f}")
    for (c, f), p in sorted(plan.links.items()):
        if p in (excluded, target):
            continue
        if plan.ordered(p, target) and plan.ordered(target, c):
            if not add_goal(f):
                raise SubtaskInfeasible(f"conflicting crossing fact {f}")

    bound = plan.blocks[target].cost
    max_len = max(1, config.length_factor * plan.blocks[target].size())
    return Subtask(base=task, init=state, goal=goal, cost_bound=bound,
                   max_len=max_len, time_bound=config.subtask_time,
                   max_plans=config.max_plans,
                   max_expansions=config.max_expansions)


def _post_accept_sweep(plan: BdpoPlan, new_block: Optional[int],
                       criteria: AcceptanceCriteria) -> BdpoPlan:
    """Remove blocks the freshly substituted block can itself substitute."""
    if new_block is None or new_block not in plan.roots:
        return plan
    changed = True
    while changed:
        changed = False
        for b in plan.real_roots():
            if b == new_block:
                continue
            outcome = substitute(plan, b, new_block)
            if not outcome.success:
                continue
            if criteria.sweep_accepts(plan.flex().frac, plan.cost(),
                                      outcome.plan.flex().frac,
                                      outcome.plan.cost()):
                plan = outcome.plan
                changed = True
                break
    return plan


def resolve(task: PlanningTask, plan: BdpoPlan, excluded: int, target: int,
            criteria: AcceptanceCriteria, config: FibsConfig,
            max_len_override: Optional[int] = None
            ) -> tuple[BdpoPlan, bool]:
    """Try to improve the plan by substituting `target`, assuming the basic
    ordering between `excluded` and `target` is the one under attack."""
    try:
        subtask = build_subtask(task, plan, excluded, target, config)
    except SubtaskInfeasible as exc:
        logger.debug("subtask infeasible for target %s: %s", target, exc)
        return plan, False
    if max_len_override is not None:
        subtask.max_len = max_len_override
    flex_before = plan.flex().frac
    cost_before = plan.cost()
    sub_task = subtask.as_task()
    for seq in solve_subtask(subtask):
        if seq.cost(task) > subtask.cost_bound:
            raise AssertionError("subplanner exceeded the cost bound")
        pop = eog(sub_task, seq)
        cand = candidate_from_pop(pop)
        outcome = substitute(plan, target, cand)
        if not outcome.success:
            continue
        flex_after = outcome.plan.flex().frac
        cost_after = outcome.plan.cost()
        if criteria.accepts(flex_before, cost_before, flex_after, cost_after):
            new_plan = _post_accept_sweep(outcome.plan, outcome.new_block,
                                          criteria)
            return new_plan, True
    return plan, False


def _scan_basic_edges(plan: BdpoPlan) -> list[tuple[int, int]]:
    """Committed orderings between real root blocks that are not implied by
    a chain through a third block."""
    out = []
    reasons = plan.reasons()
    for (a, b), rs in reasons.items():
        if not rs or a in (INIT_BLOCK, GOAL_BLOCK) or b in (INIT_BLOCK, GOAL_BLOCK):
            continue
        implied = any(z not in (a, b, INIT_BLOCK, GOAL_BLOCK)
                      and plan.ordered(a, z) and plan.ordered(z, b)
                      for z in plan.roots)
        if not implied:
            out.append((a, b))
    return sorted(out, key=lambda e: (plan.pos_key(e[0]), plan.pos_key(e[1])))


def substitution_deorder(task: PlanningTask, plan: BdpoPlan,
                         criteria: AcceptanceCriteria, config: FibsConfig,
                         primitive_only: bool = False,
                         deadline: Optional[float] = None
                         ) -> tuple[BdpoPlan, int, int]:
    """Attack each basic ordering by substituting its target, then its
    source; restart on success.  Returns (plan, attempted, accepted)."""
    attempted = 0
    accepted = 0
    while accepted < config.max_accepts_per_phase:
        if deadline is not None and time.monotonic() > deadline:
            logger.warning("substitution phase stopped at the time limit")
            break
        progress = False
        for a, b in _scan_basic_edges(plan):
            override = 1 if primitive_only else None
            attempted += 1
            plan2, ok = resolve(task, plan, a, b, criteria, config,
                                max_len_override=override)
            if not ok:
                attempted += 1
                plan2, ok = resolve(task, plan, b, a, criteria, config,
                                    max_len_override=override)
            if ok:
                plan = plan2
                accepted += 1
                progress = True
                break
        if not progress:
            break
    return plan, attempted, accepted


def backward_justify(plan: BdpoPlan) -> set[int]:
    """Outermost blocks that feed neither the goal nor a justified block."""
    justified: set[int] = set()
    changed = True
    while changed:
        changed = False
        for (c, f), p in sorted(plan.links.items()):
            if p in (INIT_BLOCK, GOAL_BLOCK) or p in justified:
                continue
            if c == GOAL_BLOCK or c in justified:
                justified.add(p)
                changed = True
    return {b for b in plan.real_roots() if b not in justified}


def _root_dependents(plan: BdpoPlan, bid: int) -> set[int]:
    doomed = {bid}
    changed = True
    while changed:
        changed = False
        for (c, f), p in plan.links.items():
            if p in doomed and c not in doomed:
                doomed.add(c)
                changed = True
    return doomed


def _block_path(plan: BdpoPlan, bid: int) -> Optional[list[int]]:
    """Root-to-block chain of block ids, or None if the block is not live."""

    def search(cur: int, path: list[int]) -> Optional[list[int]]:
        path = path + [cur]
        if cur == bid:
            return path
        for c in plan.blocks[cur].children:
            found = search(c, path)
            if found:
                return found
        return None

    for r in sorted(plan.roots, key=plan.pos_key):
        found = search(r, [])
        if found:
            return found
    return None


def _context_dependents(blk, bid: int) -> set[int]:
    doomed = {bid}
    changed = True
    while changed:
        changed = False
        for (c, f), p in blk.ilinks.items():
            if p in doomed and c not in doomed:
                doomed.add(c)
                changed = True
    return doomed


def try_remove_block(plan: BdpoPlan, bid: int) -> Optional[BdpoPlan]:
    """Delete a block (at any nesting level) together with the blocks that
    depend on it through causal links; None when the remainder is invalid."""
    path = _block_path(plan, bid)
    if path is None or bid in (INIT_BLOCK, GOAL_BLOCK):
        return None
    work = plan.clone()
    if len(path) == 1:
        doomed = _root_dependents(work, bid)
        if INIT_BLOCK in doomed or GOAL_BLOCK in doomed:
            return None
        from .substitution import _delete_block
        for b in sorted(doomed):
            _delete_block(work, b)
    else:
        parent_id = path[-2]
        parent = work.blocks[parent_id]
        doomed = _context_dependents(parent, bid)
        doomed_steps = set()
        for d in doomed:
            doomed_steps |= work.blocks[d].members
        survivors = [c for c in parent.children if c not in doomed]
        replacement: Optional[int]
        if not survivors:
            replacement = None
        elif len(survivors) == 1:
            replacement = survivors[0]
        else:
            ilinks = {(c, f): p for (c, f), p in parent.ilinks.items()
                      if c in survivors and p in survivors}
            ires = {(x, y): set(rs)
                    for (x, y), rs in parent.iresolutions.items()
                    if x in survivors and y in survivors}
            replacement = work.make_compound(survivors, ilinks, ires)
        for d in sorted(doomed):
            for sub in sorted(work._descendant_blocks(d)):
                work.blocks.pop(sub, None)
        for s in doomed_steps:
            work.steps.pop(s, None)
        # splice the rebuilt block up the ancestor chain
        child_old = parent_id
        for anc_id in reversed(path[:-2]):
            anc = work.blocks[anc_id]
            if replacement is None:
                kids = [c for c in anc.children if c != child_old]
            else:
                kids = [replacement if c == child_old else c
                        for c in anc.children]
            ilinks = {(c, f): p for (c, f), p in anc.ilinks.items()
                      if c != child_old and p != child_old}
            if replacement is not None:
                for (c, f), p in anc.ilinks.items():
                    nc = replacement if c == child_old else c
                    np = replacement if p == child_old else p
                    if nc != np and (c == child_old or p == child_old):
                        if f in work.blocks[np].eff:
                            ilinks[(nc, f)] = np
            ires = {}
            for (x, y), rs in anc.iresolutions.items():
                if replacement is None and child_old in (x, y):
                    continue
                nx = replacement if x == child_old else x
                ny = replacement if y == child_old else y
                if nx != ny and (nx in kids or nx == replacement) \
                        and (ny in kids or ny == replacement):
                    ires.setdefault((nx, ny), set()).update(rs)
            if not kids:
                replacement = None
            elif len(kids) == 1:
                replacement = kids[0]
            else:
                replacement = work.make_compound(kids, ilinks, ires)
            work.blocks.pop(anc_id, None)
            child_old = anc_id
        old_root = path[0]
        work.roots.discard(old_root)
        work.blocks.pop(parent_id, None)
        if replacement is None:
            work.links = {(c, f): p for (c, f), p in work.links.items()
                          if c != old_root and p != old_root}
            work.resolutions = {pair: rs
                                for pair, rs in work.resolutions.items()
                                if old_root not in pair}
        else:
            work.roots.add(replacement)
            new_links = {}
            for (c, f), p in work.links.items():
                nc = replacement if c == old_root else c
                np = replacement if p == old_root else p
                if nc == np:
                    continue
                if np == replacement and f not in work.blocks[replacement].eff:
                    return None
                new_links[(nc, f)] = np
            work.links = new_links
            new_res = {}
            for (x, y), rs in work.resolutions.items():
                nx = replacement if x == old_root else x
                ny = replacement if y == old_root else y
                if nx != ny:
                    new_res.setdefault((nx, ny), set()).update(rs)
            work.resolutions = new_res
    try:
        work.rebuild_closure()
    except CycleDetected:
        return None
    work.refresh()
    if not work.validate():
        return None
    return work


def _removal_candidates(plan: BdpoPlan) -> list[tuple[int, int, BdpoPlan]]:
    """(cost saved, block, resulting plan) for every greedily removable block."""
    out = []
    live = sorted(plan.live_blocks() - {INIT_BLOCK, GOAL_BLOCK},
                  key=lambda b: (plan.blocks[b].size(), plan.pos_key(b)))
    for bid in live:
        result = try_remove_block(plan, bid)
        if result is not None:
            out.append((plan.cost() - result.cost(), bid, result))
    return out


def greedy_justify(plan: BdpoPlan) -> set[int]:
    """Blocks (any nesting level) whose removal with dependents keeps the
    plan valid."""
    return {bid for _, bid, _ in _removal_candidates(plan)}


def reduce_plan(plan: BdpoPlan, mode: str) -> BdpoPlan:
    """Strip redundant blocks; `mode` picks the justification notion."""
    if mode == "none":
        return plan
    if mode == "bj":
        redundant = backward_justify(plan)
        if not redundant:
            return plan
        work = plan.clone()
        from .substitution import _delete_block
        doomed = set()
        for b in sorted(redundant):
            doomed |= _root_dependents(work, b)
        if INIT_BLOCK in doomed or GOAL_BLOCK in doomed:
            return plan
        for b in sorted(doomed):
            _delete_block(work, b)
        work.rebuild_closure()
        work.refresh()
        if not work.validate():
            logger.warning("backward justification produced an invalid "
                           "remainder; keeping the input plan")
            return plan
        return work
    if mode != "gj":
        raise ValueError(f"unknown reduction mode {mode!r}")
    while True:
        candidates = _removal_candidates(plan)
        if not candidates:
            return plan
        candidates.sort(key=lambda t: (-t[0], plan.pos_key(t[1])))
        plan = candidates[0][2]


def fibs(task: PlanningTask, seq_plan: SequentialPlan,
         config: Optional[FibsConfig] = None
         ) -> tuple[BdpoPlan, list[PhaseReport]]:
    """Run the full pipeline on a valid sequential plan."""
    config = config or FibsConfig()
    reports: list[PhaseReport] = []
    n_input = len(seq_plan.steps)
    total_input_pairs = n_input * (n_input - 1) // 2

    def report(phase: str, before: BdpoPlan, after: BdpoPlan,
               attempted: int, accepted: int, t0: float) -> None:
        fb, fa = before.flex(), after.flex()
        vs_input = (1.0 if total_input_pairs == 0
                    else 1.0 - after.ordered_step_pairs() / total_input_pairs)
        reports.append(PhaseReport(
            phase=phase,
            steps_before=len(before.real_step_ids()),
            steps_after=len(after.real_step_ids()),
            cost_before=before.cost(), cost_after=after.cost(),
            ordered_before=fb.total_pairs - fb.unordered_pairs,
            ordered_after=fa.total_pairs - fa.unordered_pairs,
            flex_before=fb.value, flex_after=fa.value,
            flex_vs_input=vs_input,
            attempted=attempted, accepted=accepted,
            elapsed=time.monotonic() - t0))

    deadline = time.monotonic() + config.time_limit
    t0 = time.monotonic()
    pop = eog(task, seq_plan)
    plan = init_bdpo(pop)
    report("EOG", plan, plan, 0, 0, t0)

    t0 = time.monotonic()
    plan2, att, acc = substitution_deorder(task, plan, config.criteria,
                                           config, primitive_only=True,
                                           deadline=deadline)
    report("SD1", plan, plan2, att, acc, t0)
    plan = plan2

    t0 = time.monotonic()
    plan2 = block_deorder(plan)
    report("BD", plan, plan2, 0, 0, t0)
    plan = plan2

    t0 = time.monotonic()
    plan2, att, acc = substitution_deorder(task, plan, config.criteria,
                                           config, deadline=deadline)
    report("SD2", plan, plan2, att, acc, t0)
    plan = plan2

    if config.reduce != "none":
        t0 = time.monotonic()
        plan2 = reduce_plan(plan, config.reduce)
        report("REDUCE", plan, plan2, 0, 0, t0)
        plan = plan2

    return plan, reports
