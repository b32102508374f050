"""Replacing a block of a BDPO plan with another subplan.

The substituting block may come from outside the plan (a candidate subplan,
inserted and wired to the earliest producers of its preconditions) or from
inside it.  Causal links previously supported by the replaced block are
re-pointed to the substitute, which must produce the corresponding facts.
Threats raised by the exchange are resolved by demotion, promotion, or, when
either would close a cycle and the conflicting pair involves the substitute,
by substituting the conflicting block away as well.  Failure leaves the
input plan untouched.

An empty substitute removes the block; `remove_blocks`, the one removal
primitive, does that and every other removal of blocks with their
dependents.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Optional

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
    """
    ops = tuple(task.operators[i] for i in plan.steps)
    empty: frozenset[Fact] = frozenset()
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


@dataclass
class SubstitutionOutcome:
    plan: BdpoPlan
    success: bool
    reason: str = ""
    trace: list[str] = field(default_factory=list)
    new_block: Optional[int] = None


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


def substitute(plan: BdpoPlan, old: int,
               new: CandidateBlock | int,
               _new_marker: Optional[int] = None,
               _depth: int = 0) -> SubstitutionOutcome:
    """Replace block `old` with `new`, preserving plan validity.

    `new` is either a CandidateBlock (external) or the id of a block already
    in the plan (internal).  The plan's closure must be current; the result
    keeps it current.  On failure the returned plan is the input, untouched.
    """
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
        work = remove_blocks(plan, {old})
        if work is None:
            return SubstitutionOutcome(plan, False, UNRESOLVABLE_THREAT, trace)
        trace.append(f"deleted block {old}")
        return SubstitutionOutcome(work, True, EMPTY_CANDIDATE, trace)

    work = plan.clone()
    if external:
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
    else:
        b_new = new
        if b_new not in work.roots:
            raise ValueError(f"block {b_new} is not in the plan")

    marker = b_new if _new_marker is None else _new_marker

    # re-point every causal link the old block supports, once the old block
    # and its commitments are gone from the closure
    supported = sorted((c, f) for (c, f), p in work.links.items()
                       if p == old and c != b_new)
    for c, f in supported:
        if f not in work.blocks[b_new].prod:
            return SubstitutionOutcome(plan, False, MISSING_PRODUCT,
                                       trace + [f"{b_new} cannot produce {f}"])
        trace.append(f"relink {b_new} -{f}-> {c}")
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

    failure = _resolve_all_threats(work, threats, marker, trace, _depth)
    if failure is not None:
        return SubstitutionOutcome(plan, False, failure, trace)

    work.refresh(threats)
    report = work.validate_current(threats)
    if not report:
        logger.debug("substitution left an invalid plan: %s", report.reason)
        return SubstitutionOutcome(plan, False, UNRESOLVABLE_THREAT,
                                   trace + [report.reason])
    return SubstitutionOutcome(work, True, "", trace, new_block=marker)


def _resolve_all_threats(work: BdpoPlan, threats: list, marker: int,
                         trace: list[str], depth: int) -> Optional[str]:
    """Demotion first, promotion second, internal substitution last.

    `threats` is the plan's `threats()` list.  Resolutions only order
    blocks, which leaves it as it is; an internal substitution changes the
    blocks and links, and the list is recomputed in place.  Mutates `work`;
    returns a failure code or None when every threat is resolved.
    """
    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            return UNRESOLVABLE_THREAT
        unresolved = work.unresolved_threats(threats)
        if not unresolved:
            return None
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
        # victim is an ordinary block
        if t == marker and c not in (INIT_BLOCK, GOAL_BLOCK):
            inner = substitute(work, c, t, _new_marker=marker,
                               _depth=depth + 1)
        elif c == marker and t not in (INIT_BLOCK, GOAL_BLOCK):
            inner = substitute(work, t, c, _new_marker=marker,
                               _depth=depth + 1)
        else:
            return UNRESOLVABLE_THREAT
        if not inner.success:
            return UNRESOLVABLE_THREAT
        trace.extend(inner.trace)
        work.adopt(inner.plan)
        threats[:] = work.threats()


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


def remove_blocks(plan: BdpoPlan, blocks: Iterable[int]) -> Optional[BdpoPlan]:
    """Delete blocks of one context (the root or one compound block) with
    the blocks of that context that depend on them through causal links,
    and rebuild each enclosing block up to the root.  None when a synthetic
    endpoint would go or the remainder is invalid.  The plan's closure must
    be current; the result keeps it current.

    A link re-pointed to a rebuilt block that no longer supplies its fact
    drops out inside a block, where the consumer then needs the fact from
    outside it, and stays at the root, where `validate_current` rejects it."""
    blocks = set(blocks)
    path = _block_path(plan, min(blocks))
    if path is None or blocks & {INIT_BLOCK, GOAL_BLOCK}:
        return None
    enclosing = path[:-1]           # root first
    links = plan.blocks[enclosing[-1]].ilinks if enclosing else plan.links
    doomed = _dependents(links, blocks)
    if doomed & {INIT_BLOCK, GOAL_BLOCK}:
        return None
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
    return work if work.validate_current(threats) else None
