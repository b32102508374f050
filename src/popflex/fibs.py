"""The four-phase flexibility pipeline plus redundant-block elimination.

Phases: order generalization, substitution over primitive blocks, block
deordering, substitution over all outermost blocks, then an optional
reduction pass (backward or greedy justification).  Substitutions are
accepted under one of two criteria: flex-first (strict flex gain, cost not
worsened) or cost-first (strict cost drop, or equal cost with a flex gain).
"""

from __future__ import annotations

import dataclasses
import logging
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bdpo import GOAL_BLOCK, INIT_BLOCK, BdpoPlan, block_deorder
from .eog import eog
from .subplanner import Subtask, capped_length, solve_subtask
from .substitution import (CandidateBlock, candidate_block, remove_blocks,
                           removal_saving, substitute)
from .task import Fact, PlanningTask, SequentialPlan, apply_op

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


@dataclass(frozen=True)
class FibsConfig:
    criteria: AcceptanceCriteria = field(default_factory=AcceptanceCriteria)
    reduce: str = "none"                # none | bj | gj
    subtask_time: float = 5.0
    max_plans: int = 10
    max_expansions: int = 20000
    time_limit: float = 1800.0          # whole-run budget in seconds
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.criteria, AcceptanceCriteria):
            raise ValueError(f"criteria must be an AcceptanceCriteria, "
                             f"not {self.criteria!r}")
        if self.reduce not in REDUCE_MODES:
            raise ValueError(f"unknown reduction mode {self.reduce!r}")
        # a cap below 1 would let no subtask find a plan, so the run would
        # substitute nothing and say nothing
        for name in ("max_plans", "max_expansions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, "
                                 f"not {getattr(self, name)!r}")
        for name in ("subtask_time", "time_limit"):
            value = getattr(self, name)
            if not value >= 0:      # also rejects NaN
                raise ValueError(f"{name} must be a nonnegative number of "
                                 f"seconds, not {value!r}")


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


def build_subtask(task: PlanningTask, plan: BdpoPlan, excluded: int,
                  target: int, config: FibsConfig) -> Subtask:
    """Initial state from progressing every block before the target except
    the excluded one; goal from the facts the target supplies plus the facts
    its other predecessors feed across it.

    It reads the closure rows once, for the blocks before the target, and
    the links once, for the target's facts and the crossing facts, and
    sorts only the links it keeps; the goal lists the target's facts
    first, each part in link order.

    The pair must be a basic edge of a valid plan whose closure is
    current, in either direction: a committed ordering a < b between real
    roots with no real root between them, as `substitution_deorder`
    attacks it.  On such a pair the subtask always exists:
    - The progressed blocks and init are closed under predecessors.  A
      predecessor y of a progressed block x precedes the target.  When the
      excluded block is b it follows the target a, so y is not it; when it
      is a, y = a would put the real root x between a and b.
    - So the progressed blocks, then the excluded block if it precedes the
      target, then the target, then the rest, is a linearization of the
      plan.  Every linearization of a valid plan executes, so no
      `apply_op` of the progression fails.
    - In that linearization a link's fact holds at every block boundary
      from its producer's end to its consumer's start: a block between
      them that left it false would be a deleter of it, and a valid plan
      orders every deleter outside the link.  Each goal fact is carried by
      a link from the target or from a block before it to a block after
      it, so all of them hold when the target ends, and no two disagree on
      a variable.

    On a pair that breaks the precondition, `apply_op`'s NotApplicable
    propagates, and a conflicting goal fact raises ValueError."""
    closure = plan.closure
    before, after = 0, closure[target]
    context = []                # the blocks progressed, in any order
    for b, row in closure.items():
        if row >> target & 1:
            before |= 1 << b
            if b not in (INIT_BLOCK, excluded):
                context.append(b)
    state = dict(task.init)
    rng = random.Random(config.seed)
    for sid in plan._linearize_context(context, closure, rng):
        state = apply_op(plan.steps[sid], state)

    supplied: list[tuple[int, Fact]] = []
    crossing: list[tuple[int, Fact]] = []
    for (c, f), p in plan.links.items():
        if p == target:
            supplied.append((c, f))
        elif p != excluded and before >> p & 1 and after >> c & 1:
            crossing.append((c, f))
    goal: dict[int, int] = {}
    for links, kind in ((supplied, "goal"), (crossing, "crossing")):
        for _, f in sorted(links):
            if goal.setdefault(f.var, f.val) != f.val:
                raise ValueError(f"conflicting {kind} fact {f}")

    bound = plan.blocks[target].cost
    max_len = capped_length(
        task, bound, max(1, LENGTH_FACTOR * plan.blocks[target].size()))
    return Subtask(base=task, init=state, goal=goal, cost_bound=bound,
                   max_len=max_len, time_bound=config.subtask_time,
                   max_plans=config.max_plans,
                   max_expansions=config.max_expansions)


class Run:
    """One `fibs` run: the task, the config, the deadline and what the run
    has learnt, so that `resolve` does no work twice.  Every phase that
    reads or writes run state takes the run; a phase called directly is
    handed a run of its own, `Run(task, config)`.

    `deadline` is `config.time_limit` seconds after the run is built, on
    the monotonic clock; the substitution phases start no attempt past it.

    Kept for the run: `candidates` maps a subtask key to the subtask's
    candidate blocks, and `successors` maps a search state to its
    applicable operators.  Neither depends on the plan, so both hold for
    both substitution phases; they are never kept on the task, so nothing
    outlives the run.

    Kept for one plan, the object `plan`: `subtasks` maps (excluded,
    target) to the subtask `build_subtask` gives; `tried` holds the
    (target, candidate) pairs already substituted into the plan; `score`
    is the plan's (flex, cost), counted once per plan and handed to every
    `substitute` call with the acceptance test, so no attempt counts it
    again.  A pair tried again on the same plan can only be rejected
    again.  `bind` drops all three when `resolve` is given another plan
    object, and only then, so they survive from SD1 into SD2 when block
    deordering commits nothing and hands SD1's plan on.  Plans are never
    edited in place, so the same object is the same plan."""

    def __init__(self, task: PlanningTask,
                 config: FibsConfig = FibsConfig()) -> None:
        self.task, self.config = task, config
        self.deadline = time.monotonic() + config.time_limit
        self.candidates: dict[tuple, list[CandidateBlock]] = {}
        self.successors: dict[tuple, list[int]] = {}
        self.plan: Optional[BdpoPlan] = None
        self.subtasks: dict[tuple[int, int], Subtask] = {}
        self.tried: set[tuple[int, CandidateBlock]] = set()
        self.score: Optional[tuple[Fraction, int]] = None

    def bind(self, plan: BdpoPlan,
             score: Optional[tuple[Fraction, int]] = None) -> None:
        """Describe `plan`, whose (flex, cost) is `score` when known: forget
        what was kept for any other plan."""
        if plan is not self.plan:
            self.plan, self.subtasks, self.tried = plan, {}, set()
            self.score = score


def _candidates(run: Run, subtask: Subtask) -> list[CandidateBlock]:
    """The subtask's candidate blocks, cheapest plan first, solved once."""
    key = (tuple(sorted(subtask.init.items())),
           tuple(sorted(subtask.goal.items())),
           subtask.cost_bound, subtask.max_len)
    cands = run.candidates.get(key)
    if cands is None:
        cands = []
        for seq in solve_subtask(subtask, run.successors):
            if seq.cost(run.task) > subtask.cost_bound:
                raise AssertionError("subplanner exceeded the cost bound")
            cands.append(candidate_block(run.task, subtask.init,
                                         subtask.goal, seq))
        run.candidates[key] = cands
    return cands


def _post_accept_sweep(plan: BdpoPlan, new_block: Optional[int],
                       criteria: AcceptanceCriteria,
                       current: tuple[Fraction, int]
                       ) -> tuple[BdpoPlan, tuple[Fraction, int]]:
    """Remove blocks the freshly substituted block can itself substitute;
    `current` is the plan's flex and cost.  Returns the plan with its flex
    and cost.  `new_block` is a successful `substitute`'s, so it is None
    (an empty candidate) or a root of `plan`: the internal substitutions
    of threat resolution replace other blocks with it, never it."""
    if new_block is None:
        return plan, current
    changed = True
    while changed:
        changed = False
        for b in plan.real_roots():
            if b == new_block:
                continue
            outcome = substitute(plan, b, new_block, criteria.sweep_accepts,
                                 current)
            if outcome.success:
                plan, current = outcome.plan, outcome.score
                changed = True
                break
    return plan, current


def resolve(run: Run, plan: BdpoPlan, excluded: int, target: int,
            max_len: Optional[int] = None) -> tuple[BdpoPlan, bool]:
    """Try to improve the plan by substituting `target`, assuming the basic
    ordering between `excluded` and `target` is the one under attack; on
    any other pair `build_subtask` raises.  `max_len`, when given, caps the
    subplans' length.  On an accept the run's per-plan state moves on to
    the returned plan."""
    run.bind(plan)
    subtask = run.subtasks.get((excluded, target))
    if subtask is None:
        subtask = run.subtasks[excluded, target] = build_subtask(
            run.task, plan, excluded, target, run.config)
    if max_len is not None:
        subtask = dataclasses.replace(subtask, max_len=capped_length(
            run.task, subtask.cost_bound, max_len))
    if run.score is None:
        run.score = (plan.flex().frac, plan.cost())
    criteria = run.config.criteria
    for cand in _candidates(run, subtask):
        if (target, cand) in run.tried:
            continue
        run.tried.add((target, cand))
        outcome = substitute(plan, target, cand, criteria.accepts, run.score)
        if outcome.success:
            new_plan, score = _post_accept_sweep(
                outcome.plan, outcome.new_block, criteria, outcome.score)
            run.bind(new_plan, score)
            return new_plan, True
    return plan, False


def _scan_basic_edges(plan: BdpoPlan) -> list[tuple[int, int]]:
    """Committed orderings between real root blocks that are not implied by
    a chain through a third block, by the positions of their ends."""
    out = []
    closure = plan.closure
    ends = 1 << INIT_BLOCK | 1 << GOAL_BLOCK
    for a, b, _ in plan.committed_edges():
        # a third block z with a < z < b: a successor of a that precedes b
        between = closure[a] & ~(ends | 1 << b)
        while between:
            low = between & -between
            if closure[low.bit_length() - 1] >> b & 1:
                break
            between ^= low
        else:
            out.append((a, b))
    return out


def substitution_deorder(run: Run, plan: BdpoPlan,
                         primitive_only: bool = False
                         ) -> tuple[BdpoPlan, int, int]:
    """Attack each basic ordering by substituting its target, then its
    source; restart on success.  Stops before any attempt that would start
    past the run's deadline.  Returns (plan, attempted, accepted)."""
    attempted = 0
    accepted = 0
    max_len = 1 if primitive_only else None
    while accepted < MAX_ACCEPTS_PER_PHASE:
        progress = False
        for a, b in _scan_basic_edges(plan):
            for excluded, target in ((a, b), (b, a)):
                if time.monotonic() > run.deadline:
                    logger.warning("substitution phase stopped at the time "
                                   "limit")
                    return plan, attempted, accepted
                attempted += 1
                plan2, progress = resolve(run, plan, excluded, target,
                                          max_len)
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


def reduce_plan(plan: BdpoPlan, mode: str) -> BdpoPlan:
    """Strip redundant blocks; `mode` picks the justification notion.  The
    plan must be valid and at its `refresh` fixpoint, as every plan of
    `fibs`' phases is.

    bj removes every block that `backward_justify` leaves unjustified, and
    on such a plan the remainder is always valid.  A consumer of an
    unjustified block is unjustified itself, or would justify its
    producer; so the set is closed under `_dependents` and holds no
    synthetic block, and `remove_blocks` takes out exactly it.  Every link
    left has both ends kept, so it is still ordered, and every
    precondition left keeps its link.  A threat left was a threat of the
    input, which orders it by a commitment of its own between three kept
    blocks; that commitment stays, so the threat stays ordered."""
    if mode == "none":
        return plan
    if mode == "bj":
        redundant = backward_justify(plan)
        if not redundant:
            return plan
        reduced = remove_blocks(plan, redundant)
        if reduced is None:
            raise ValueError("bj reduction needs a valid plan at its "
                             "refresh fixpoint")
        return reduced
    if mode != "gj":
        raise ValueError(f"unknown reduction mode {mode!r}")
    # each pass keeps the valid removal that saves the most, the earliest
    # on a tie; ranked by saving first, only the removals up to it are built
    while True:
        live = sorted(plan.live_blocks() - {INIT_BLOCK, GOAL_BLOCK},
                      key=lambda b: (plan.blocks[b].size(), plan.pos_key(b)))
        ranked = [(saving, b) for b in live
                  if (saving := removal_saving(plan, {b})) is not None]
        ranked.sort(key=lambda t: (-t[0], plan.pos_key(t[1])))
        for _, bid in ranked:
            reduced = remove_blocks(plan, {bid})
            if reduced is not None:
                plan = reduced
                break
        else:
            return plan


def fibs(task: PlanningTask, seq_plan: SequentialPlan,
         config: FibsConfig = FibsConfig()
         ) -> tuple[BdpoPlan, list[PhaseReport]]:
    """Run the full pipeline on a valid sequential plan.  Each phase's
    report compares its output with the previous phase's, or with itself
    for the first phase."""
    run = Run(task, config)
    phases = [
        ("EOG", lambda _: (eog(task, seq_plan), 0, 0)),
        ("SD1", lambda plan: substitution_deorder(run, plan,
                                                  primitive_only=True)),
        ("BD", lambda plan: (block_deorder(plan), 0, 0)),
        ("SD2", lambda plan: substitution_deorder(run, plan)),
    ]
    if config.reduce != "none":
        phases.append(("REDUCE", lambda plan: (
            reduce_plan(plan, config.reduce), 0, 0)))
    n_input = len(seq_plan.steps)
    total_input_pairs = n_input * (n_input - 1) // 2
    reports: list[PhaseReport] = []
    plan = None
    for phase, step in phases:
        t0 = time.monotonic()
        plan, attempted, accepted = step(plan)
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
    return plan, reports
