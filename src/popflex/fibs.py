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

from .bdpo import (GOAL_BLOCK, INIT_BLOCK, BdpoPlan, block_deorder,
                   init_bdpo)
from .eog import eog
from .subplanner import Subtask, solve_subtask
from .substitution import (CandidateBlock, candidate_block, remove_blocks,
                           substitute)
from .task import (Fact, NotApplicable, PlanningTask, SequentialPlan,
                   apply_op)

logger = logging.getLogger(__name__)

RFO = "rfo"
RCO = "rco"
REDUCE_MODES = ("none", "bj", "gj")
LENGTH_FACTOR = 4               # a subplan's step bound per replaced step
MAX_ACCEPTS_PER_PHASE = 1000


@dataclass(frozen=True)
class AcceptanceCriteria:
    mode: str = RFO

    def __post_init__(self) -> None:
        if self.mode not in (RFO, RCO):
            raise ValueError(f"unknown acceptance mode {self.mode!r}")

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
    time_limit: float = 1800.0          # whole-run budget in seconds
    seed: int = 0

    def __post_init__(self) -> None:
        if self.reduce not in REDUCE_MODES:
            raise ValueError(f"unknown reduction mode {self.reduce!r}")


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
    order = plan._linearize_context(before_blocks, plan.closure, rng)
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
    max_len = max(1, LENGTH_FACTOR * plan.blocks[target].size())
    return Subtask(base=task, init=state, goal=goal, cost_bound=bound,
                   max_len=max_len, time_bound=config.subtask_time,
                   max_plans=config.max_plans,
                   max_expansions=config.max_expansions)


@dataclass
class PhaseMemo:
    """What one substitution phase has learnt, so that `resolve` does no
    work twice.  `candidates` maps a subtask key to the subtask's candidate
    blocks; they depend on the subtask and the task only, so the map holds
    for the whole phase.  `tried` holds the (target, candidate) pairs
    already substituted into the current plan, and `score` is that plan's
    (flex, cost).  Both hold until an accept changes the plan: a pair tried
    again on the same plan can only be rejected again."""
    candidates: dict[tuple, list[CandidateBlock]] = field(default_factory=dict)
    tried: set[tuple[int, CandidateBlock]] = field(default_factory=set)
    score: Optional[tuple[Fraction, int]] = None


def _candidates(task: PlanningTask, subtask: Subtask,
                memo: PhaseMemo) -> list[CandidateBlock]:
    """The subtask's candidate blocks, cheapest plan first, solved once."""
    key = (tuple(sorted(subtask.init.items())),
           tuple(sorted(subtask.goal.items())),
           subtask.cost_bound, subtask.max_len)
    cands = memo.candidates.get(key)
    if cands is None:
        cands = []
        for seq in solve_subtask(subtask):
            if seq.cost(task) > subtask.cost_bound:
                raise AssertionError("subplanner exceeded the cost bound")
            cands.append(candidate_block(task, subtask.init, subtask.goal,
                                         seq))
        memo.candidates[key] = cands
    return cands


def _post_accept_sweep(plan: BdpoPlan, new_block: Optional[int],
                       criteria: AcceptanceCriteria,
                       current: tuple[Fraction, int]
                       ) -> tuple[BdpoPlan, tuple[Fraction, int]]:
    """Remove blocks the freshly substituted block can itself substitute;
    `current` is the plan's flex and cost.  Returns the plan with its flex
    and cost."""
    if new_block is None or new_block not in plan.roots:
        return plan, current
    changed = True
    while changed:
        changed = False
        for b in plan.real_roots():
            if b == new_block:
                continue
            outcome = substitute(plan, b, new_block)
            if not outcome.success:
                continue
            after = (outcome.plan.flex().frac, outcome.plan.cost())
            if criteria.sweep_accepts(*current, *after):
                plan, current = outcome.plan, after
                changed = True
                break
    return plan, current


def resolve(task: PlanningTask, plan: BdpoPlan, excluded: int, target: int,
            config: FibsConfig, max_len_override: Optional[int] = None,
            memo: Optional[PhaseMemo] = None) -> tuple[BdpoPlan, bool]:
    """Try to improve the plan by substituting `target`, assuming the basic
    ordering between `excluded` and `target` is the one under attack.

    `memo`, when given, is the phase's memo for this plan; on an accept it
    moves on to the returned plan."""
    try:
        subtask = build_subtask(task, plan, excluded, target, config)
    except SubtaskInfeasible as exc:
        logger.debug("subtask infeasible for target %s: %s", target, exc)
        return plan, False
    if max_len_override is not None:
        subtask.max_len = max_len_override
    if memo is None:
        memo = PhaseMemo()
    if memo.score is None:
        memo.score = (plan.flex().frac, plan.cost())
    for cand in _candidates(task, subtask, memo):
        if (target, cand) in memo.tried:
            continue
        memo.tried.add((target, cand))
        outcome = substitute(plan, target, cand)
        if not outcome.success:
            continue
        after = (outcome.plan.flex().frac, outcome.plan.cost())
        if config.criteria.accepts(*memo.score, *after):
            new_plan, memo.score = _post_accept_sweep(
                outcome.plan, outcome.new_block, config.criteria, after)
            memo.tried.clear()
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
                         config: FibsConfig, primitive_only: bool = False,
                         deadline: Optional[float] = None
                         ) -> tuple[BdpoPlan, int, int]:
    """Attack each basic ordering by substituting its target, then its
    source; restart on success.  Stops before any attempt that would start
    past the deadline.  Returns (plan, attempted, accepted)."""
    attempted = 0
    accepted = 0
    override = 1 if primitive_only else None
    memo = PhaseMemo()
    while accepted < MAX_ACCEPTS_PER_PHASE:
        progress = False
        for a, b in _scan_basic_edges(plan):
            for excluded, target in ((a, b), (b, a)):
                if deadline is not None and time.monotonic() > deadline:
                    logger.warning("substitution phase stopped at the time "
                                   "limit")
                    return plan, attempted, accepted
                attempted += 1
                plan2, progress = resolve(task, plan, excluded, target,
                                          config, max_len_override=override,
                                          memo=memo)
                if progress:
                    break
            if progress:
                plan = plan2
                accepted += 1
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


def _removal_candidates(plan: BdpoPlan) -> list[tuple[int, int, BdpoPlan]]:
    """(cost saved, block, resulting plan) for every greedily removable block."""
    out = []
    live = sorted(plan.live_blocks() - {INIT_BLOCK, GOAL_BLOCK},
                  key=lambda b: (plan.blocks[b].size(), plan.pos_key(b)))
    for bid in live:
        result = remove_blocks(plan, {bid})
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
        reduced = remove_blocks(plan, redundant)
        if reduced is None:
            logger.warning("backward justification produced an invalid "
                           "remainder; keeping the input plan")
            return plan
        return reduced
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

    def report(phase: str, plan: BdpoPlan, attempted: int, accepted: int,
               t0: float) -> None:
        """Report a phase's output plan; its input is the previous phase's
        output, or the plan itself for the first phase."""
        score = plan.flex()
        ordered = score.total_pairs - score.unordered_pairs
        steps, cost = len(plan.real_steps()), plan.cost()
        prev = reports[-1] if reports else None
        reports.append(PhaseReport(
            phase=phase,
            steps_before=prev.steps_after if prev else steps,
            steps_after=steps,
            cost_before=prev.cost_after if prev else cost, cost_after=cost,
            ordered_before=prev.ordered_after if prev else ordered,
            ordered_after=ordered,
            flex_before=prev.flex_after if prev else score.value,
            flex_after=score.value,
            flex_vs_input=(1.0 if total_input_pairs == 0
                           else 1.0 - ordered / total_input_pairs),
            attempted=attempted, accepted=accepted,
            elapsed=time.monotonic() - t0))

    deadline = time.monotonic() + config.time_limit
    t0 = time.monotonic()
    pop = eog(task, seq_plan)
    plan = init_bdpo(pop)
    report("EOG", plan, 0, 0, t0)

    t0 = time.monotonic()
    plan, att, acc = substitution_deorder(task, plan, config,
                                          primitive_only=True,
                                          deadline=deadline)
    report("SD1", plan, att, acc, t0)

    t0 = time.monotonic()
    plan = block_deorder(plan)
    report("BD", plan, 0, 0, t0)

    t0 = time.monotonic()
    plan, att, acc = substitution_deorder(task, plan, config,
                                          deadline=deadline)
    report("SD2", plan, att, acc, t0)

    if config.reduce != "none":
        t0 = time.monotonic()
        plan = reduce_plan(plan, config.reduce)
        report("REDUCE", plan, 0, 0, t0)

    return plan, reports
