"""Replacing a block of a BDPO plan with another subplan.

The substituting block may come from outside the plan (a candidate subplan,
inserted and wired to the earliest producers of its preconditions) or from
inside it.  Causal links previously supported by the replaced block are
re-pointed to the substitute, which must produce the corresponding facts.
Threats raised by the exchange are resolved by demotion, promotion, or, when
either would close a cycle and the conflicting pair involves the substitute,
by substituting the conflicting block away as well.  Failure leaves the
input plan untouched.

The caller's acceptance test, when given, comes with the input's flex and
cost, which the caller already holds, and judges the edited plan's flex
and cost against them before the plan is validated, so a plan it rejects
is never validated; it fails with the reason CRITERIA_REJECT.  An edit
that would only rebuild the plan as it stands under a new block id
(`_renames`) is judged before it is built: its flex and cost are the
input's, so when the test rejects the input's own score the edit fails
with CRITERIA_REJECT, and nothing is cloned or counted.  That needs the
input plan valid and at its `refresh` fixpoint, as every plan that `eog`,
`substitute`, `remove_blocks` and block deordering return is.

An empty substitute removes the block by the steps of `remove_blocks`, the
one removal primitive, which does every other removal of blocks with their
dependents; the acceptance test comes between its edit and its
validation.  `removal_saving` gives the cost a removal would take off
without building it, from the same checks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .bdpo import (CD, DP, GOAL_BLOCK, INIT_BLOCK, BdpoPlan, CycleDetected,
                   Reason, earliest_producer_for_insert)
from .eog import generalize
from .task import (Fact, OperatorDef, PartialState, PlanningTask,
                   SequentialPlan, State)

logger = logging.getLogger(__name__)

UNBOUND_PRECONDITION = "UnboundPrecondition"
MISSING_PRODUCT = "MissingProduct"
UNRESOLVABLE_THREAT = "UnresolvableThreat"
EMPTY_CANDIDATE = "EmptyCandidate"
CRITERIA_REJECT = "CriteriaReject"


@dataclass(frozen=True)
class CandidateBlock:
    """A partial-order subplan offered as a replacement block."""
    ops: tuple[OperatorDef, ...]
    links: tuple[tuple[int, Fact, int], ...]      # (producer idx, fact, consumer idx)
    resolutions: tuple[tuple[int, int, Reason], ...]
    cost: int

    def __len__(self) -> int:
        return len(self.ops)


def candidate_block(task: PlanningTask, init: State, goal: PartialState,
                    plan: SequentialPlan) -> CandidateBlock:
    """A plan of `task` from `init` to `goal` as a candidate block, with the
    links and commitments `eog` gives it there, steps numbered from 0.

    Links from the init step and to the goal step are left out; the facts
    they carry surface in the block's precondition and effect.

    Of `init` it reads only the facts that a step or the goal consumes: no
    other init fact can be linked, and the commitments read only linked
    facts.  So the cost follows the plan and the goal, not the state.
    """
    ops = tuple(task.operators[i] for i in plan.steps)
    profiles = [task.profile(op) for op in ops]
    empty: frozenset[Fact] = frozenset()
    goal_facts = frozenset(Fact(v, d) for v, d in goal.items())
    consumed = goal_facts.union(*(cons for cons, _, _ in profiles))
    init_prof = (empty, frozenset(f for f in consumed
                                  if init.get(f.var) == f.val), empty)
    links, resolutions = generalize(init_prof, profiles,
                                    (goal_facts, empty, empty))
    return CandidateBlock(
        ops=ops,
        links=tuple(sorted((p - 1, f, c - 1) for (c, f), p in links.items()
                           if p != 0 and c != len(ops) + 1)),
        resolutions=tuple(sorted((a - 1, b - 1, r)
                                 for (a, b), rs in resolutions.items()
                                 for r in rs)),
        cost=sum(op.cost for op in ops))


@dataclass
class SubstitutionOutcome:
    plan: BdpoPlan
    success: bool
    reason: str = ""
    trace: list[str] = field(default_factory=list)
    new_block: Optional[int] = None
    score: Optional[tuple[Fraction, int]] = None    # (flex, cost) accepted


def _materialize(plan: BdpoPlan, cand: CandidateBlock) -> int:
    """Install the candidate as a fresh root block with fresh step ids,
    ordered only after init and before goal."""
    step_ids = []
    child_ids = []
    for op in cand.ops:
        sid = plan.fresh_step_id()
        plan.steps[sid] = op
        step_ids.append(sid)
    for sid in step_ids:
        child_ids.append(plan.make_primitive(sid))
    if len(child_ids) == 1:
        bid = child_ids[0]
    else:
        ilinks = {(child_ids[c], f): child_ids[p] for p, f, c in cand.links}
        iresolutions: dict[tuple[int, int], set[Reason]] = {}
        for a, b, r in cand.resolutions:
            iresolutions.setdefault((child_ids[a], child_ids[b]),
                                    set()).add(r)
        bid = plan.make_compound(child_ids, ilinks, iresolutions)
    plan.roots.add(bid)
    plan.closure[bid] = 1 << GOAL_BLOCK
    plan.closure[INIT_BLOCK] |= 1 << bid
    return bid


def _renames(plan: BdpoPlan, old: int, cand: CandidateBlock) -> bool:
    """Whether substituting `cand` for the root `old` of a valid plan at
    its `refresh` fixpoint rebuilds the plan as it stands, with `old`
    renamed to the fresh block.

    It does when `old` is primitive and `cand` is one step with its
    profile and cost, and `old`'s links, one per precondition, come from
    the producers `substitute` would pick, and every commitment pair
    that touches `old` carries only CD reasons.  The fresh block precedes
    only the goal, so those producers can be found on the input: the
    blocks after `old` that it skips there follow `old`'s own producer,
    so none of them is the earliest.  Then the links are the input's,
    renamed.  Dropping `old` and its commitments leaves a closure inside
    the input's.  So a threat that the input resolves by a DP commitment,
    which does not touch `old`, stays ordered as in the input, and the
    refresh keeps every commitment that does not touch `old`.  A threat
    left unordered is one of the dropped CD pairs, which the demotion
    that threat resolution tries first adds back: the input has the
    consumer before the deleter, so the closure cannot hold the reverse.
    The commitments and closure come out as the input's, and so do flex
    and cost."""
    blk = plan.blocks[old]
    if len(cand) != 1 or not blk.primitive or cand.cost != blk.cost \
            or plan.task.profile(cand.ops[0]) != (blk.pre, blk.prod,
                                                   blk.dels):
        return False
    linked = {f: p for (c, f), p in plan.links.items() if c == old}
    if linked.keys() != blk.pre:
        return False
    exclude = frozenset([old])
    if any(earliest_producer_for_insert(plan, f, old, exclude) != p
           for f, p in linked.items()):
        return False
    return all(r.kind == CD for pair, rs in plan.resolutions.items()
               if old in pair for r in rs)


def substitute(plan: BdpoPlan, old: int,
               new: CandidateBlock | int,
               accept: Optional[Callable[[Fraction, int, Fraction, int],
                                         bool]] = None,
               before: Optional[tuple[Fraction, int]] = None,
               _depth: int = 0) -> SubstitutionOutcome:
    """Replace block `old` with `new`, preserving plan validity.

    `new` is either a CandidateBlock (external) or the id of a block already
    in the plan (internal).  `accept`, when given, comes with `before`, the
    input plan's (flex, cost), which the caller already holds: `accept(
    *before, flex, cost)` judges the edited plan's flex and cost before it
    is validated.  A plan it rejects fails with CRITERIA_REJECT, and one it
    accepts carries its (flex, cost) as the outcome's `score`.  The plan's
    closure must be current; the result keeps it current, and a successful
    result is valid and at its `refresh` fixpoint.  On failure the returned
    plan is the input, untouched.

    A successful outcome's `new_block` is the substitute block (None for
    an empty candidate), and it is a root of the result.  Threat
    resolution may substitute a block that conflicts with it by the
    substitute block itself; that internal call has the same substitute
    block, and replaces another block, never it.

    A candidate block that `_renames` the target would give back `before`,
    so when `accept` rejects `before` against itself it fails with
    CRITERIA_REJECT before anything is built.  This needs the input valid
    and at its `refresh` fixpoint, as the plans of `fibs`' phases are; only
    the internal substitutions of threat resolution, which never take this
    path, see a plan mid-edit.  An internal substitution whose block lacks
    a fact that `old` supplies fails with MISSING_PRODUCT before anything
    is built, too.
    """
    if (accept is None) != (before is None):
        raise ValueError("an acceptance test comes with the input's score")
    if _depth > 8:
        return SubstitutionOutcome(plan, False, UNRESOLVABLE_THREAT,
                                   ["recursion limit"])
    if old not in plan.roots or old in (INIT_BLOCK, GOAL_BLOCK):
        raise ValueError(f"block {old} is not a replaceable root block")

    trace: list[str] = []
    external = not isinstance(new, int)
    if external and len(new) == 0:
        # empty replacement: a pure deletion, allowed when the old block
        # supplies nothing
        if any(p == old for p in plan.links.values()):
            return SubstitutionOutcome(plan, False, MISSING_PRODUCT, trace)
        # `_removal_scope` gives ([], {old}) for a live root supplying none
        work, threats = _removed(plan, [], {old})
        score = None if accept is None else (work.flex().frac, work.cost())
        if score is not None and not accept(*before, *score):
            return SubstitutionOutcome(plan, False, CRITERIA_REJECT, trace)
        if not work.validate_current(threats):
            return SubstitutionOutcome(plan, False, UNRESOLVABLE_THREAT, trace)
        trace.append(f"deleted block {old}")
        return SubstitutionOutcome(work, True, EMPTY_CANDIDATE, trace,
                                   score=score)
    if external and accept is not None and _renames(plan, old, new) \
            and not accept(*before, *before):
        trace.append(f"candidate only renames block {old}")
        return SubstitutionOutcome(plan, False, CRITERIA_REJECT, trace)

    if external:
        work = plan.clone()
        b_new = _materialize(work, new)
        trace.append(f"inserted candidate as block {b_new}")
        for fact in sorted(work.blocks[b_new].pre):
            producer = earliest_producer_for_insert(
                work, fact, b_new, exclude=frozenset([old]))
            if producer is None:
                return SubstitutionOutcome(plan, False, UNBOUND_PRECONDITION,
                                           trace + [f"no producer for {fact}"])
            work.links[(b_new, fact)] = producer
            work.add_ordering(producer, b_new)
            trace.append(f"link {producer} -{fact}-> {b_new}")
        prod = work.blocks[b_new].prod
    else:
        b_new = new
        if b_new not in plan.roots:
            raise ValueError(f"block {b_new} is not in the plan")
        prod = plan.blocks[b_new].prod

    # every causal link the old block supports, to be re-pointed once the
    # old block and its commitments are gone from the closure; the input's
    # links are the edit's so far, less the fresh block's own
    supported = sorted((c, f) for (c, f), p in plan.links.items()
                       if p == old and c != b_new)
    for c, f in supported:
        if f not in prod:
            return SubstitutionOutcome(plan, False, MISSING_PRODUCT,
                                       trace + [f"{b_new} cannot produce {f}"])
        trace.append(f"relink {b_new} -{f}-> {c}")
    if not external:
        work = plan.clone()
    work.delete_block(old)
    work.remove_from_closure([old])
    try:
        for c, f in supported:
            work.links[(c, f)] = b_new
            work.add_ordering(b_new, c)
    except CycleDetected:
        return SubstitutionOutcome(plan, False, UNRESOLVABLE_THREAT,
                                   trace + ["cycle after relinking"])
    threats = work.threats()
    work.refresh(threats)

    work, threats, failure = _resolve_all_threats(work, threats, b_new,
                                                  trace, _depth)
    if failure is not None:
        return SubstitutionOutcome(plan, False, failure, trace)

    score = None if accept is None else (work.flex().frac, work.cost())
    if score is not None and not accept(*before, *score):
        return SubstitutionOutcome(plan, False, CRITERIA_REJECT, trace)
    report = work.validate_current(threats)
    if not report:
        logger.debug("substitution left an invalid plan: %s", report.reason)
        return SubstitutionOutcome(plan, False, UNRESOLVABLE_THREAT,
                                   trace + [report.reason])
    return SubstitutionOutcome(work, True, "", trace, new_block=b_new,
                               score=score)


def _resolve_all_threats(work: BdpoPlan, threats: list, b_new: int,
                         trace: list[str], depth: int
                         ) -> tuple[BdpoPlan, list, Optional[str]]:
    """Demotion first, promotion second, internal substitution last.

    `threats` is the plan's `threats()` list, and `work` has been
    refreshed with it.  Resolutions only order blocks, which leaves the
    list as it is; an internal substitution changes the blocks and links,
    and its plan, with its own threat list, is carried on instead.  Once
    every threat is resolved, the plan is refreshed again if anything was
    recorded; with nothing recorded, that refresh would re-derive the same
    commitments from the same threats and closure.  `b_new` is the
    substitute block.  Edits `work`; returns the plan and threat list it
    ends with, and a failure code, or None when every threat is resolved.
    """
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            return work, threats, UNRESOLVABLE_THREAT
        unresolved = work.unresolved_threats(threats)
        if not unresolved:
            if guard > 1:       # each earlier pass recorded something
                work.refresh(threats)
            return work, threats, None
        unresolved.sort(key=lambda item: (work.pos_key(item[1][0]),
                                          work.pos_key(item[1][2]),
                                          work.pos_key(item[0])))
        t, (p, f, c) = unresolved[0]
        if not work.ordered(t, c):
            edge, reason = (c, t), Reason(CD, f)
        else:
            edge, reason = (t, p), Reason(DP, f)
        if not work.ordered(edge[1], edge[0]):
            work.resolutions.setdefault(edge, set()).add(reason)
            work.add_ordering(*edge)
            trace.append(f"resolved {t} vs {p}-{f}->{c} via {reason}")
            continue
        # both orderings would close a cycle: internal substitution, only
        # when the conflicting pair involves the substitute block and the
        # victim is an ordinary block.  `threats()` lists no synthetic
        # deleter, and init consumes nothing, so only the goal needs a test
        if t == b_new and c != GOAL_BLOCK:
            inner = substitute(work, c, t, _depth=depth + 1)
        elif c == b_new:
            inner = substitute(work, t, c, _depth=depth + 1)
        else:
            return work, threats, UNRESOLVABLE_THREAT
        if not inner.success:
            return work, threats, UNRESOLVABLE_THREAT
        trace.extend(inner.trace)
        work = inner.plan
        threats = work.threats()


def _dependents(links: dict[tuple[int, Fact], int],
                seeds: set[int]) -> set[int]:
    """The seeds and every block that consumes from them, transitively."""
    doomed = set(seeds)
    changed = True
    while changed:
        changed = False
        for (c, f), p in links.items():
            if p in doomed and c not in doomed:
                doomed.add(c)
                changed = True
    return doomed


def _block_path(plan: BdpoPlan, bid: int) -> Optional[list[int]]:
    """Root-to-block chain of block ids, or None if the block is not live."""
    if bid in plan.roots:
        return [bid]

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


def _removal_scope(plan: BdpoPlan, blocks: Iterable[int]
                   ) -> Optional[tuple[list[int], set[int]]]:
    """The blocks enclosing `blocks`, root first, and the blocks that go
    with them; None when `remove_blocks` refuses without editing: a block
    is not live or a synthetic endpoint would go."""
    blocks = set(blocks)
    path = _block_path(plan, min(blocks))
    if path is None or blocks & {INIT_BLOCK, GOAL_BLOCK}:
        return None
    enclosing = path[:-1]
    links = plan.blocks[enclosing[-1]].ilinks if enclosing else plan.links
    doomed = _dependents(links, blocks)
    if doomed & {INIT_BLOCK, GOAL_BLOCK}:
        return None
    return enclosing, doomed


def removal_saving(plan: BdpoPlan, blocks: Iterable[int]) -> Optional[int]:
    """The cost `remove_blocks(plan, blocks)` takes off the plan when it
    succeeds, found without building it; None when it refuses without
    editing.  The blocks that go are siblings, so their costs add up."""
    scope = _removal_scope(plan, blocks)
    if scope is None:
        return None
    return sum(plan.blocks[b].cost for b in scope[1])


def remove_blocks(plan: BdpoPlan, blocks: Iterable[int]) -> Optional[BdpoPlan]:
    """Delete blocks of one context (the root or one compound block) with
    the blocks of that context that depend on them through causal links,
    and rebuild each enclosing block up to the root.  None when a synthetic
    endpoint would go or the remainder is invalid.  The plan's closure must
    be current; the result keeps it current.

    A link re-pointed to a rebuilt block that no longer supplies its fact
    drops out inside a block, where the consumer then needs the fact from
    outside it, and stays at the root, where `validate_current` rejects it."""
    scope = _removal_scope(plan, blocks)
    if scope is None:
        return None
    work, threats = _removed(plan, *scope)
    return work if work.validate_current(threats) else None


def _removed(plan: BdpoPlan, enclosing: list[int], doomed: set[int]
             ) -> tuple[BdpoPlan, list]:
    """`remove_blocks`' remainder of `_removal_scope`'s blocks, refreshed
    with its current closure but not validated, and its threats."""
    work = plan.clone()
    for b in sorted(doomed):
        work.delete_block(b)
    swap: dict[int, Optional[int]] = dict.fromkeys(doomed)
    for anc in reversed(enclosing):
        blk = work.blocks.pop(anc)
        kids = [k for k in (swap.get(c, c) for c in blk.children)
                if k is not None]
        ilinks, ires = work.relinked(blk.ilinks, blk.iresolutions, swap)
        ilinks = {(c, f): p for (c, f), p in ilinks.items()
                  if f in work.blocks[p].eff}
        if len(kids) > 1:
            swap = {anc: work.make_compound(kids, ilinks, ires)}
        else:
            swap = {anc: kids[0] if kids else None}
    if not enclosing:
        work.remove_from_closure(doomed)
    else:
        # the root that held the blocks keeps its commitments under a new
        # id, or loses them when nothing of it is left
        top, new = enclosing[0], swap[enclosing[0]]
        work.links, work.resolutions = work.relinked(work.links,
                                                     work.resolutions, swap)
        work.roots.discard(top)
        if new is None:
            work.remove_from_closure([top])
        else:
            work.roots.add(new)
            work.rename_in_closure(top, new)
    threats = work.threats()
    work.refresh(threats)
    return work, threats
