"""Block-decomposed partial-order plans and greedy block deordering.

A plan holds operator instances keyed by step id (including the synthetic
init and goal steps), a laminar family of blocks over them, and causal-link
and demotion/promotion commitments between its outermost blocks (the root
context).  The ordering relation is the transitive closure of those
commitments plus init-first/goal-last; ordering reasons (PC, CD, DP) are
derived from the commitments rather than stored separately.  A flat
partial-order plan is the case whose roots are all primitive blocks.

The closure is current when it is the transitive closure of the plan's
commitments.  `rebuild_closure` makes it so from scratch; given a current
closure, `add_ordering` keeps it current across one recorded edge,
`remove_from_closure` and `rename_in_closure` across root blocks removed
or renamed with their commitments, and `refresh` across re-derived
commitments (it rebuilds only when a stale one drops out).

Program edits follow one contract.  Commitments move with renamed or
removed blocks by one rule, `relinked`, in every context; `delete_block`
and `wrap_blocks` use it.  Blocks with their dependents leave a plan
through one primitive, `substitution.remove_blocks`, which also serves
`substitute` with an empty candidate.  Each edit keeps the closure
current, so `substitute`, `remove_blocks` and the deordering rules judge
their result with `validate_current`, which trusts the closure.
`validate()` rebuilds the closure first, so a plan whose commitments were
edited by hand is judged as it stands.

Blocks are frozen once created: a compound block carries its own internal
causal links, demotion/promotion commitments, and closure over its children,
plus precondition/effect/consumed/produced/deleted fact sets computed from
the children.  The plan mutates only its root context.  Every context, the
root or a compound block, is a set of blocks plus one successor-bitmask row
per block, so ordered pairs, linearizations and minimal blocks are computed
the same way in each.

Deordering scans the committed orderings and tries to strip each one of all
its reasons by encapsulating spans of blocks, following the four removal
rules (producer rebinding for PC, producer-side and restorer-side wrapping
for CD, and consumer bundling for DP).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Iterator, NamedTuple, Optional

from .task import (Fact, OperatorDef, PlanningTask, SequentialPlan,
                   ValidationReport)

logger = logging.getLogger(__name__)

PC = "PC"
CD = "CD"
DP = "DP"

INIT_ID = 0
GOAL_ID = 1
INIT_BLOCK = 0
GOAL_BLOCK = 1

_KIND_ORDER = {PC: 0, CD: 1, DP: 2}


class Reason(NamedTuple):
    kind: str
    fact: Fact

    def __repr__(self) -> str:
        return f"{self.kind}{self.fact!r}"


def reason_sort_key(r: Reason) -> tuple:
    return (_KIND_ORDER[r.kind], r.fact)


class CycleDetected(Exception):
    def __init__(self, path: list):
        super().__init__(f"ordering cycle: {' < '.join(map(str, path))}")
        self.path = path


@dataclass
class FlexScore:
    unordered_pairs: int
    total_pairs: int

    @property
    def value(self) -> float:
        if self.total_pairs == 0:
            return 1.0
        return self.unordered_pairs / self.total_pairs

    @property
    def frac(self) -> Fraction:
        if self.total_pairs == 0:
            return Fraction(1)
        return Fraction(self.unordered_pairs, self.total_pairs)


def closure_from_edges(nodes: Iterable[int], edges: Iterable[tuple[int, int]]
                       ) -> dict[int, set[int]]:
    """Strict descendants per node, as sets: the plain reference for the
    bitmask rows of `closure_rows`; raises CycleDetected on a cycle."""
    direct: dict[int, set[int]] = {n: set() for n in nodes}
    for a, b in edges:
        direct[a].add(b)
    succ: dict[int, set[int]] = {n: set() for n in direct}
    for n in reversed(topological_order(direct)):
        acc = succ[n]
        for m in direct[n]:
            acc.add(m)
            acc |= succ[m]
    return succ


def closure_rows(direct: dict[int, set[int]]) -> dict[int, int]:
    """Successor bitmask per node of a successor map that has every node
    as a key: bit `b` of row `a` is set when `b` is a strict descendant of
    `a`; raises CycleDetected on a cycle."""
    rows: dict[int, int] = {}
    for a in reversed(topological_order(direct)):
        acc = 0
        for b in direct[a]:
            acc |= rows[b] | 1 << b
        rows[a] = acc
    return rows


def topological_order(direct: dict[int, set[int]]) -> list[int]:
    """Kahn's pass over a successor map that has every node as a key;
    raises CycleDetected on a cycle."""
    indeg = dict.fromkeys(direct, 0)
    for succs in direct.values():
        for m in succs:
            indeg[m] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    order: list[int] = []
    while ready:
        n = ready.pop()
        order.append(n)
        for m in direct[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if len(order) != len(direct):
        cyclic = [n for n, d in indeg.items() if d > 0]
        raise CycleDetected(_find_cycle(direct, cyclic))
    return order


def _find_cycle(direct: dict[int, set[int]], candidates: list[int]) -> list[int]:
    seen: dict[int, int] = {}
    path: list[int] = []

    def dfs(n: int) -> Optional[list[int]]:
        seen[n] = 1
        path.append(n)
        for m in sorted(direct.get(n, ())):
            if seen.get(m) == 1:
                return path[path.index(m):] + [m]
            if m not in seen:
                found = dfs(m)
                if found:
                    return found
        seen[n] = 2
        path.pop()
        return None

    for n in sorted(candidates):
        if n not in seen:
            found = dfs(n)
            if found:
                return found
    return candidates[:1]


@dataclass(frozen=True)
class Block:
    """Immutable node of the block forest."""
    id: int
    members: frozenset[int]            # step ids, all nesting levels
    step: Optional[int] = None         # set iff primitive
    children: tuple[int, ...] = ()     # block ids, compound only
    ilinks: dict = field(default_factory=dict)        # (child, Fact) -> child
    iresolutions: dict = field(default_factory=dict)  # (child, child) -> frozenset
    # child -> successor bitmask, the format of BdpoPlan.closure
    iclosure: dict = field(default_factory=dict)
    pre: frozenset[Fact] = frozenset()
    eff: frozenset[Fact] = frozenset()
    prod: frozenset[Fact] = frozenset()
    dels: frozenset[Fact] = frozenset()
    cost: int = 0
    pos: int = 0

    @property
    def primitive(self) -> bool:
        return self.step is not None

    def size(self) -> int:
        return len(self.members)


class BdpoPlan:
    """POP plus a laminar block family; orderings live between root blocks.

    `closure[a]` is a successor bitmask keyed by root block id: bit `b` is
    set when block `a` is ordered before block `b`.  `extra_orderings` are
    bare root orderings with no recorded reason (decoded MaxSAT models).
    """

    def __init__(self, task: PlanningTask):
        self.task = task
        self.steps: dict[int, OperatorDef] = {}
        self.blocks: dict[int, Block] = {}      # every block, any level
        self.roots: set[int] = set()
        self.links: dict[tuple[int, Fact], int] = {}   # (consumer, fact) -> producer
        self.resolutions: dict[tuple[int, int], set[Reason]] = {}
        self.extra_orderings: set[tuple[int, int]] = set()
        self.closure: dict[int, int] = {}
        self.next_step_id = 2
        self.next_block_id = 2

    # -- bookkeeping ---------------------------------------------------------

    def clone(self) -> "BdpoPlan":
        """A copy as a BdpoPlan; a flat plan's copy is its block view."""
        other = BdpoPlan(self.task)
        other.steps = dict(self.steps)
        other.blocks = dict(self.blocks)
        other.roots = set(self.roots)
        other.links = dict(self.links)
        other.resolutions = {k: set(v) for k, v in self.resolutions.items()}
        other.extra_orderings = set(self.extra_orderings)
        other.closure = dict(self.closure)
        other.next_step_id = self.next_step_id
        other.next_block_id = self.next_block_id
        return other

    def adopt(self, other: "BdpoPlan") -> None:
        self.steps = other.steps
        self.blocks = other.blocks
        self.roots = other.roots
        self.links = other.links
        self.resolutions = other.resolutions
        self.extra_orderings = other.extra_orderings
        self.closure = other.closure
        self.next_step_id = other.next_step_id
        self.next_block_id = other.next_block_id

    def fresh_step_id(self) -> int:
        sid = self.next_step_id
        self.next_step_id += 1
        return sid

    def fresh_block_id(self) -> int:
        bid = self.next_block_id
        self.next_block_id += 1
        return bid

    def snapshot(self) -> tuple:
        """Hashable deep image, used to assert failure paths change nothing."""
        return (
            tuple(sorted((s, op.name) for s, op in self.steps.items())),
            tuple(sorted((b, blk.members) for b, blk in self.blocks.items())),
            tuple(sorted(self.roots)),
            tuple(sorted(self.links.items())),
            tuple(sorted((pair, tuple(sorted(rs)))
                         for pair, rs in self.resolutions.items() if rs)),
        )

    def real_roots(self) -> list[int]:
        return sorted((b for b in self.roots if b not in (INIT_BLOCK, GOAL_BLOCK)),
                      key=self.pos_key)

    def real_steps(self) -> list[int]:
        return sorted(s for s in self.steps if s not in (INIT_ID, GOAL_ID))

    real_step_ids = real_steps      # the name perfbench/test_checks.py calls

    def pos_key(self, bid: int) -> tuple[int, int]:
        return (1 if bid == GOAL_BLOCK else 0, self.blocks[bid].pos)

    def block_of_step(self, step_id: int) -> int:
        for b in self.roots:
            if step_id in self.blocks[b].members:
                return b
        raise KeyError(step_id)

    # -- block construction --------------------------------------------------

    def make_primitive(self, step_id: int, bid: Optional[int] = None) -> int:
        if bid is None:
            bid = self.fresh_block_id()
        op = self.steps[step_id]
        pre, prod, dels = self.task.profile(op)
        self.blocks[bid] = Block(
            id=bid, members=frozenset([step_id]), step=step_id,
            pre=pre, eff=prod, prod=prod, dels=dels,
            cost=op.cost, pos=step_id)
        return bid

    def make_compound(self, children: Iterable[int],
                      ilinks: dict, iresolutions: dict) -> int:
        """Freeze a set of existing blocks into a new compound block."""
        children = tuple(sorted(children, key=self.pos_key))
        bid = self.fresh_block_id()
        direct: dict[int, set[int]] = {c: set() for c in children}
        for (c, _), p in ilinks.items():
            direct[p].add(c)
        for a, b in iresolutions:
            direct[a].add(b)
        iclosure = closure_rows(direct)
        members = frozenset().union(*(self.blocks[c].members for c in children))
        pre, eff = self._compound_pre_eff(children, ilinks, iclosure)
        by_var: dict[int, set[int]] = {}
        for f in eff:
            by_var.setdefault(f.var, set()).add(f.val)
        prod = frozenset(f for f in eff
                         if len(by_var[f.var]) == 1 and f not in pre)
        pre_vars: dict[int, set[int]] = {}
        for f in pre:
            pre_vars.setdefault(f.var, set()).add(f.val)
        dels = set()
        for var, vals in sorted(by_var.items()):
            sizes = self.task.domain_size(var)
            for d in range(sizes):
                if d in vals and len(vals) == 1:
                    continue
                if var in pre_vars and d not in pre_vars[var]:
                    continue
                if any(d2 != d for d2 in vals):
                    dels.add(Fact(var, d))
        self.blocks[bid] = Block(
            id=bid, members=members, children=children,
            ilinks=dict(ilinks),
            iresolutions={k: frozenset(v) for k, v in iresolutions.items() if v},
            iclosure=iclosure,
            pre=pre, eff=eff, prod=prod, dels=frozenset(dels),
            cost=sum(self.blocks[c].cost for c in children),
            pos=min(self.blocks[c].pos for c in children))
        return bid

    def _compound_pre_eff(self, children, ilinks, iclosure):
        pre = set()
        for c in children:
            for f in self.blocks[c].pre:
                if (c, f) not in ilinks:
                    pre.add(f)
        eff = set()
        for c in children:
            for f in self.blocks[c].eff:
                killed = any(
                    iclosure[c] >> c2 & 1 and any(
                        g.var == f.var and g.val != f.val
                        for g in self.blocks[c2].eff)
                    for c2 in children)
                if not killed:
                    eff.add(f)
        return frozenset(pre), frozenset(eff)

    # -- edits ---------------------------------------------------------------

    def relinked(self, links: dict, resolutions: dict,
                 swap: dict[int, Optional[int]]) -> tuple[dict, dict]:
        """One context's links and resolutions after each block `b` in
        `swap` became `swap[b]` (None: gone).  Those that touch a gone block
        or now join a block to itself drop out; when two links now carry
        one fact into one consumer, the earliest producer keeps it."""
        new_links: dict[tuple[int, Fact], int] = {}
        for (c, f), p in links.items():
            nc, np = swap.get(c, c), swap.get(p, p)
            if nc is None or np is None or nc == np:
                continue
            prev = new_links.setdefault((nc, f), np)
            if prev != np:
                new_links[(nc, f)] = min(prev, np, key=self.pos_key)
        new_res: dict[tuple[int, int], set[Reason]] = {}
        for (x, y), rs in resolutions.items():
            nx, ny = swap.get(x, x), swap.get(y, y)
            if rs and nx is not None and ny is not None and nx != ny:
                new_res.setdefault((nx, ny), set()).update(rs)
        return new_links, new_res

    def delete_block(self, bid: int) -> None:
        """Remove a block, its descendants and steps, and the root
        commitments that touch it; the closure is left for the caller to
        update."""
        for s in self.blocks[bid].members:
            self.steps.pop(s, None)
        for sub in self._descendant_blocks(bid):
            self.blocks.pop(sub, None)
        self.roots.discard(bid)
        self.links, self.resolutions = self.relinked(
            self.links, self.resolutions, {bid: None})

    # -- ordering ------------------------------------------------------------

    def _direct_successors(self) -> dict[int, set[int]]:
        """Direct successors of each root block: its links, resolutions and
        extra orderings, and init-first/goal-last."""
        direct: dict[int, set[int]] = {a: set() for a in self.roots}
        for (c, _), p in self.links.items():
            if p != c:
                direct[p].add(c)
        for (a, b), rs in self.resolutions.items():
            if rs:
                direct[a].add(b)
        for a, b in self.extra_orderings:
            direct[a].add(b)
        for b in self.roots:
            if b != INIT_BLOCK:
                direct[INIT_BLOCK].add(b)
            if b != GOAL_BLOCK:
                direct[b].add(GOAL_BLOCK)
        return direct

    def rebuild_closure(self) -> None:
        """Closure of the links, the resolutions, the extra orderings and
        init-first/goal-last."""
        self.closure = closure_rows(self._direct_successors())

    def remove_from_closure(self, gone: Iterable[int]) -> None:
        """Bring the closure up to date after the root blocks `gone` and
        every commitment that touches them were removed.

        Only the rows that held a bit of `gone` can change.  They are
        recomputed from their direct successors, fewest successors first:
        a block ordered before another has strictly more successors, so
        each row is recomputed after the rows it reads."""
        closure = self.closure
        mask = 0
        for b in gone:
            del closure[b]
            mask |= 1 << b
        stale = sorted((succ.bit_count(), a) for a, succ in closure.items()
                       if succ & mask)
        direct = self._direct_successors()
        for _, a in stale:
            acc = 0
            for b in direct[a]:
                acc |= closure[b] | 1 << b
            closure[a] = acc

    def rename_in_closure(self, old: int, new: int) -> None:
        """Bring the closure up to date after root `old` became root `new`,
        a block that was not a root, with the same commitments."""
        old_bit, new_bit = 1 << old, 1 << new
        closure = self.closure
        closure[new] = closure.pop(old)
        for a, succ in closure.items():
            if succ & old_bit:
                closure[a] = succ ^ old_bit | new_bit

    def add_ordering(self, a: int, b: int) -> None:
        """Extend the closure by the edge a < b, whose link or resolution the
        caller has just recorded, without rebuilding it."""
        closure = self.closure
        if a == b or self.ordered(b, a):
            raise CycleDetected([a, b] if a == b else [a, b, a])
        if self.ordered(a, b):
            return
        gain = closure[b] | 1 << b
        a_bit = 1 << a
        for x, succ in closure.items():
            if succ & a_bit:
                closure[x] = succ | gain
        closure[a] |= gain

    def ordered(self, a: int, b: int) -> bool:
        return self.closure[a] >> b & 1 == 1

    def reasons(self) -> dict[tuple[int, int], set[Reason]]:
        out: dict[tuple[int, int], set[Reason]] = {}
        for (c, f), p in self.links.items():
            out.setdefault((p, c), set()).add(Reason(PC, f))
        for pair, rs in self.resolutions.items():
            if rs:
                out.setdefault(pair, set()).update(rs)
        return out

    def threats(self) -> list[tuple[int, tuple[int, Fact, int]]]:
        """All (deleter, link) conflicts, resolved or not."""
        deleters: dict[Fact, list[int]] = {}
        for t in sorted(self.roots):
            if t not in (INIT_BLOCK, GOAL_BLOCK):
                for f in self.blocks[t].dels:
                    deleters.setdefault(f, []).append(t)
        out = []
        for (c, f), p in sorted(self.links.items()):
            for t in deleters.get(f, ()):
                if t != p and t != c:
                    out.append((t, (p, f, c)))
        return out

    def unresolved_threats(self, threats: Optional[list] = None
                           ) -> list[tuple[int, tuple[int, Fact, int]]]:
        """The threats the closure leaves unordered; `threats`, when given,
        is the plan's current `threats()` list."""
        if threats is None:
            threats = self.threats()
        return [(t, link) for t, link in threats
                if not self.ordered(t, link[0]) and not self.ordered(link[2], t)]

    def refresh(self, threats: Optional[list] = None) -> None:
        """Re-derive demotion/promotion commitments from the current threats
        (`threats`, when given, is the plan's `threats()` list), keeping each
        threat's direction as the current closure has it.  Stale commitments
        drop out, and only then is the closure rebuilt: a new commitment
        follows an ordering the closure already has.  The closure must be
        current on entry."""
        if threats is None:
            threats = self.threats()
        new_res: dict[tuple[int, int], set[Reason]] = {}
        for t, (p, f, c) in threats:
            if self.ordered(t, p):
                new_res.setdefault((t, p), set()).add(Reason(DP, f))
            elif self.ordered(c, t):
                new_res.setdefault((c, t), set()).add(Reason(CD, f))
            # else: left unresolved; validate() reports it
        dropped = any(rs and pair not in new_res
                      for pair, rs in self.resolutions.items())
        self.resolutions = new_res
        if dropped:
            self.rebuild_closure()

    # -- metrics -------------------------------------------------------------

    def ordered_step_pairs(self) -> int:
        total = self._context_pairs(self.roots - {INIT_BLOCK, GOAL_BLOCK},
                                    self.closure)
        for bid in self._compound_blocks():
            blk = self.blocks[bid]
            total += self._context_pairs(blk.children, blk.iclosure)
        return total

    def _context_pairs(self, blocks: Collection[int], rows: dict[int, int]
                       ) -> int:
        """Step pairs that one context's order puts apart: a step of `a`
        and a step of `b` for each `a` before `b` among `blocks`."""
        mask = 0
        big_mask = 0        # blocks of more than one step
        for b in blocks:
            mask |= 1 << b
            if self.blocks[b].size() > 1:
                big_mask |= 1 << b
        total = 0
        for a in blocks:
            succ = rows[a] & mask
            steps = succ.bit_count()
            big = succ & big_mask
            while big:
                low = big & -big
                steps += self.blocks[low.bit_length() - 1].size() - 1
                big ^= low
            total += self.blocks[a].size() * steps
        return total

    def _descendant_blocks(self, bid: int) -> set[int]:
        out = set()
        stack = [bid]
        while stack:
            b = stack.pop()
            out.add(b)
            stack.extend(self.blocks[b].children)
        return out

    def live_blocks(self) -> set[int]:
        out: set[int] = set()
        for r in self.roots:
            out |= self._descendant_blocks(r)
        return out

    def _compound_blocks(self) -> set[int]:
        """Live compound blocks, at any nesting level."""
        out: set[int] = set()
        for r in self.roots:
            if not self.blocks[r].primitive:
                out |= {b for b in self._descendant_blocks(r)
                        if not self.blocks[b].primitive}
        return out

    def flex(self) -> FlexScore:
        n = len(self.steps) - (INIT_ID in self.steps) - (GOAL_ID in self.steps)
        total = n * (n - 1) // 2
        return FlexScore(total - self.ordered_step_pairs(), total)

    def cost(self) -> int:
        return sum(op.cost for s, op in self.steps.items()
                   if s not in (INIT_ID, GOAL_ID))

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Rebuild the closure from the commitments, then check the plan
        against it."""
        try:
            self.rebuild_closure()
        except CycleDetected as exc:
            return ValidationReport(False, reason=str(exc))
        return self.validate_current()

    def validate_current(self, threats: Optional[list] = None
                         ) -> ValidationReport:
        """Check the plan against its closure as it stands, which the caller
        keeps current; `threats`, when given, is the plan's `threats()`
        list."""
        for (c, f), p in sorted(self.links.items()):
            if c not in self.roots or p not in self.roots:
                return ValidationReport(False, reason=f"dangling link {p}->{c}")
            blk = self.blocks[p]
            if f not in blk.eff or f in blk.dels:
                return ValidationReport(False, reason=f"{p} does not supply {f}")
            if p != INIT_BLOCK and not self.ordered(p, c):
                return ValidationReport(False, reason=f"link {p}->{c} unordered")
        for b in sorted(self.roots, key=self.pos_key):
            if b == INIT_BLOCK:
                continue
            for f in sorted(self.blocks[b].pre):
                if (b, f) not in self.links:
                    return ValidationReport(
                        False, reason=f"block {b}: no producer for {f}")
        for t, (p, f, c) in self.unresolved_threats(threats):
            return ValidationReport(
                False, reason=f"block {t} threatens {p}-{f}->{c}")
        for bid in sorted(self._compound_blocks()):
            report = self._validate_interior(self.blocks[bid])
            if not report:
                return report
        return ValidationReport(True)

    def _validate_interior(self, blk: Block) -> ValidationReport:
        for c in blk.children:
            for f in sorted(self.blocks[c].pre):
                p = blk.ilinks.get((c, f))
                if p is None:
                    if f not in blk.pre:
                        return ValidationReport(
                            False,
                            reason=f"block {blk.id}: child {c} lacks {f}")
                    continue
                pb = self.blocks[p]
                if f not in pb.eff or f in pb.dels:
                    return ValidationReport(
                        False, reason=f"block {blk.id}: {p} can't supply {f}")
        for (c, f), p in sorted(blk.ilinks.items()):
            for t in blk.children:
                if t in (p, c):
                    continue
                if f in self.blocks[t].dels \
                        and not blk.iclosure[t] >> p & 1 \
                        and not blk.iclosure[c] >> t & 1:
                    return ValidationReport(
                        False,
                        reason=f"block {blk.id}: {t} threatens {p}-{f}->{c}")
        return ValidationReport(True)

    def check_laminar(self) -> bool:
        live = sorted(self.live_blocks())
        for i, a in enumerate(live):
            ma = self.blocks[a].members
            for b in live[i + 1:]:
                mb = self.blocks[b].members
                inter = ma & mb
                if inter and not (ma <= mb or mb <= ma):
                    return False
        return True

    def check_contiguity(self) -> bool:
        flat = self.flat_closure()
        for bid in sorted(self.live_blocks()):
            members = self.blocks[bid].members
            outside = [s for s in self.steps if s not in members
                       and s not in (INIT_ID, GOAL_ID)]
            for s in outside:
                before = any(m in flat.get(s, ()) for m in members)
                after = any(s in flat.get(m, ()) for m in members)
                if before and after:
                    return False
        return True

    def flat_closure(self) -> dict[int, set[int]]:
        """Step-level strict descendants implied by the block structure."""
        out: dict[int, set[int]] = {s: set() for s in self.steps}

        def expand(blocks: Collection[int], rows: dict[int, int]) -> None:
            for x in blocks:
                blk = self.blocks[x]
                for y in blocks:
                    if rows[x] >> y & 1:
                        for sx in blk.members:
                            out[sx] |= self.blocks[y].members
                if not blk.primitive:
                    expand(blk.children, blk.iclosure)

        expand(self.roots, self.closure)
        for s in self.steps:
            if s != INIT_ID:
                out[INIT_ID].add(s)
            if s != GOAL_ID:
                out[s].add(GOAL_ID)
        return out

    # -- linearization -------------------------------------------------------

    def _ready(self, blocks: Collection[int], rows: dict[int, int]
               ) -> list[int]:
        """The blocks of `blocks` that none of them precedes, by position;
        `rows` holds their context's successor bitmasks."""
        later = 0
        for b in blocks:
            later |= rows[b]
        return sorted((b for b in blocks if not later >> b & 1),
                      key=self.pos_key)

    def linearize(self, seed: int = 0) -> SequentialPlan:
        rng = random.Random(seed)
        steps = self._linearize_context(self.real_roots(), self.closure, rng)
        return SequentialPlan([self.task.operator_index(self.steps[s].name)
                               for s in steps])

    def _linearize_context(self, blocks: list[int], rows: dict[int, int],
                           rng) -> list[int]:
        """Step ids of `blocks` in a random order that `rows`, their
        context's successor bitmasks, allows; compound blocks recurse."""
        out: list[int] = []
        remaining = list(blocks)
        while remaining:
            pick = rng.choice(self._ready(remaining, rows))
            remaining.remove(pick)
            blk = self.blocks[pick]
            if blk.primitive:
                out.append(blk.step)
            else:
                out.extend(self._linearize_context(blk.children,
                                                   blk.iclosure, rng))
        return out

    def all_linearizations(self, cap: int = 50000) -> Iterator[SequentialPlan]:
        count = 0

        def contexts(blocks: list[int], rows: dict[int, int]
                     ) -> Iterator[list[int]]:
            if not blocks:
                yield []
                return
            for b in self._ready(blocks, rows):
                rest = [o for o in blocks if o != b]
                for head in expand(b):
                    for tail in contexts(rest, rows):
                        yield head + tail

        def expand(bid: int) -> Iterator[list[int]]:
            blk = self.blocks[bid]
            if blk.primitive:
                yield [blk.step]
                return
            yield from contexts(list(blk.children), blk.iclosure)

        for steps in contexts(self.real_roots(), self.closure):
            count += 1
            if count > cap:
                raise RuntimeError("too many linearizations")
            yield SequentialPlan([self.task.operator_index(self.steps[s].name)
                                  for s in steps])

    # -- exports (a flat plan has its own) ----------------------------------

    def to_json(self) -> dict:
        def block_json(bid: int) -> dict:
            blk = self.blocks[bid]
            data: dict = {"id": bid, "cost": blk.cost}
            if blk.primitive:
                data["step"] = blk.step
                data["name"] = self.steps[blk.step].name
            else:
                data["children"] = [block_json(c) for c in blk.children]
            return data

        reasons = self.reasons()
        return {
            "steps": {str(s): self.steps[s].name for s in sorted(self.steps)},
            "blocks": [block_json(b) for b in
                       sorted(self.roots, key=self.pos_key)],
            "links": [{"producer": p, "fact": list(f), "consumer": c}
                      for (c, f), p in sorted(self.links.items())],
            "orderings": [{"before": a, "after": b,
                           "reasons": sorted(f"{r.kind}({r.fact.var},{r.fact.val})"
                                             for r in rs)}
                          for (a, b), rs in sorted(reasons.items())],
        }

    def to_dot(self) -> str:
        lines = ["digraph bdpo {", "  rankdir=TB;", "  compound=true;"]

        def emit_block(bid: int, indent: str) -> None:
            blk = self.blocks[bid]
            if blk.primitive:
                lines.append(
                    f'{indent}s{blk.step} [label="{self.steps[blk.step].name}", shape=box];')
                return
            lines.append(f"{indent}subgraph cluster_{bid} {{")
            lines.append(f'{indent}  label="b{bid}";')
            for c in blk.children:
                emit_block(c, indent + "  ")
            lines.append(f"{indent}}}")

        for b in sorted(self.roots, key=self.pos_key):
            if b in (INIT_BLOCK, GOAL_BLOCK):
                lines.append(f'  s{self.blocks[b].step} '
                             f'[label="{self.steps[self.blocks[b].step].name}", shape=ellipse];')
            else:
                emit_block(b, "  ")
        for (a, b), rs in sorted(self.reasons().items()):
            label = ", ".join(f"{r.kind}({r.fact.var}={r.fact.val})"
                              for r in sorted(rs, key=reason_sort_key))
            sa = self._anchor_step(a)
            sb = self._anchor_step(b)
            attrs = [f'label="{label}"']
            if not self.blocks[a].primitive:
                attrs.append(f"ltail=cluster_{a}")
            if not self.blocks[b].primitive:
                attrs.append(f"lhead=cluster_{b}")
            lines.append(f'  s{sa} -> s{sb} [{", ".join(attrs)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _anchor_step(self, bid: int) -> int:
        blk = self.blocks[bid]
        if blk.primitive:
            return blk.step
        return min(blk.members)


def init_bdpo(pop: BdpoPlan) -> BdpoPlan:
    """A flat plan as a BdpoPlan to deorder: the same primitive blocks and
    commitments, without the bare orderings."""
    plan = pop.clone()
    plan.extra_orderings = set()
    plan.rebuild_closure()
    return plan


# ---------------------------------------------------------------------------
# candidate producers


def candidate_producers(plan: BdpoPlan, fact: Fact, consumer: int,
                        exclude: frozenset[int] = frozenset()) -> list[int]:
    """Blocks already ordered before `consumer` whose effect holds `fact`
    with no deleter that could fall between, earliest first."""
    out = []
    for p in sorted(plan.roots, key=plan.pos_key):
        if p == consumer or p == GOAL_BLOCK or p in exclude:
            continue
        if fact not in plan.blocks[p].eff:
            continue
        if p != INIT_BLOCK and not plan.ordered(p, consumer):
            continue
        blocked = False
        for t in sorted(plan.roots):
            if t in (consumer, GOAL_BLOCK) or t in exclude:
                continue
            if fact not in plan.blocks[t].dels:
                continue
            if not plan.ordered(consumer, t) and not plan.ordered(t, p):
                blocked = True
                break
        if not blocked:
            out.append(p)
    return plan._ready(out, plan.closure)


def earliest_producer_for_insert(plan: BdpoPlan, fact: Fact, consumer: int,
                                 exclude: frozenset[int] = frozenset()
                                 ) -> Optional[int]:
    """Earliest fact supplier for a freshly inserted block.

    Conflicting deleters are not filtered here; they surface as threats and
    are handled by the substitution's resolution loop.  Blocks ordered after
    the consumer are unusable (the link would close a cycle).
    """
    cands = []
    for p in sorted(plan.roots, key=plan.pos_key):
        if p == consumer or p == GOAL_BLOCK or p in exclude:
            continue
        if fact not in plan.blocks[p].eff or fact in plan.blocks[p].dels:
            continue
        if plan.ordered(consumer, p):
            continue
        cands.append(p)
    minimal = plan._ready(cands, plan.closure)
    return minimal[0] if minimal else None


# ---------------------------------------------------------------------------
# wrapping spans of root blocks into compound blocks


def between_closure(plan: BdpoPlan, seed: set[int]) -> set[int]:
    """Close a root-block set under ordered-betweenness.  The order is
    transitive, so a block between two added ones is already between two
    of `seed`, and one pass does it."""
    seed_mask = 0
    after_seed = 0
    for a in seed:
        seed_mask |= 1 << a
        after_seed |= plan.closure[a]
    span = set(seed)
    for x in plan.roots - {INIT_BLOCK, GOAL_BLOCK}:
        if after_seed >> x & 1 and plan.closure[x] & seed_mask:
            span.add(x)
    return span


def wrap_blocks(plan: BdpoPlan, span: set[int]) -> int:
    """Encapsulate a betweenness-closed set of root blocks in a new block.

    Root-level links and commitments among span members move inside the new
    block; boundary-crossing links re-point to it (keeping, per consumed
    fact, the earliest external producer).  Returns the new block id.
    """
    assert span <= plan.roots and len(span) >= 2
    ilinks = {}
    iresolutions = {}
    for (c, f), p in sorted(plan.links.items()):
        if c in span and p in span:
            ilinks[(c, f)] = p
    for (a, b), rs in sorted(plan.resolutions.items()):
        if a in span and b in span and rs:
            iresolutions[(a, b)] = set(rs)
    bid = plan.make_compound(sorted(span, key=plan.pos_key), ilinks, iresolutions)
    plan.links, plan.resolutions = plan.relinked(
        plan.links, plan.resolutions, dict.fromkeys(span, bid))
    plan.roots -= span
    plan.roots.add(bid)
    plan.rebuild_closure()
    plan.refresh()
    return bid


# ---------------------------------------------------------------------------
# Rule-based reason removal and the greedy deordering loop


def _span_ok(span: set[int], forbidden: int) -> bool:
    return not span & {INIT_BLOCK, GOAL_BLOCK, forbidden}


def _apply_wrap(plan: BdpoPlan, span: set[int]) -> Optional[BdpoPlan]:
    work = plan.clone()
    try:
        wrap_blocks(work, span)
    except CycleDetected:
        return None
    return work


def _wrapped_spans(plan: BdpoPlan, partner: int, anchors: list[int],
                   forbidden: int) -> Iterator[tuple[BdpoPlan, int]]:
    """Wrap `partner` with each anchor and the blocks between them, smallest
    span first, then by the anchor's position; spans that would take in
    `forbidden` or a synthetic block are skipped.  Yields each wrapped plan
    with the id of the block that holds `partner`."""
    spans = []
    for b in anchors:
        span = between_closure(plan, {b, partner})
        if _span_ok(span, forbidden):
            spans.append((len(span), plan.pos_key(b), span))
    partner_step = min(plan.blocks[partner].members)
    for _, _, span in sorted(spans, key=lambda t: (t[0], t[1])):
        work = _apply_wrap(plan, span)
        if work is not None:
            yield work, work.block_of_step(partner_step)


def _pc_candidates(plan: BdpoPlan, edge: tuple[int, int], fact: Fact
                   ) -> Iterator[BdpoPlan]:
    """Rebind the consumer to an earlier producer after wrapping the source
    together with an earlier consumer of the same fact."""
    b_i, b_j = edge
    anchors = [b_c for b_c in plan.real_roots()
               if plan.ordered(b_c, b_i) and fact in plan.blocks[b_c].pre]
    for work, wrapped in _wrapped_spans(plan, b_i, anchors, b_j):
        if (wrapped, fact) not in work.links:
            continue
        b_p = work.links[(wrapped, fact)]
        if b_p not in candidate_producers(work, fact, b_j):
            continue
        work.links[(b_j, fact)] = b_p
        try:
            work.rebuild_closure()
        except CycleDetected:
            continue
        work.refresh()
        yield work


def _cd_candidates(plan: BdpoPlan, edge: tuple[int, int], fact: Fact
                   ) -> Iterator[BdpoPlan]:
    """Wrap the consumer with an internal producer (producer side), else wrap
    the deleter with a later restorer (deleter side)."""
    b_i, b_j = edge
    producers = [b_p for b_p in plan.real_roots()
                 if fact in plan.blocks[b_p].prod]
    earlier = [b_p for b_p in producers if plan.ordered(b_p, b_i)]
    for work, wrapped in _wrapped_spans(plan, b_i, earlier, b_j):
        if fact in work.blocks[wrapped].pre:
            continue
        yield work

    later = [b_p for b_p in producers if plan.ordered(b_j, b_p)]
    for work, wrapped in _wrapped_spans(plan, b_j, later, b_i):
        if fact in work.blocks[wrapped].dels:
            continue
        yield work


def _dp_candidates(plan: BdpoPlan, edge: tuple[int, int], fact: Fact
                   ) -> Iterator[BdpoPlan]:
    """Bundle the producer with every block it feeds the fact to."""
    b_i, b_j = edge
    consumers = {c for (c, f), p in plan.links.items()
                 if p == b_j and f == fact}
    if not consumers:
        return
    if GOAL_BLOCK in consumers or INIT_BLOCK in consumers:
        return
    span = between_closure(plan, consumers | {b_j})
    if len(span) < 2 or not _span_ok(span, b_i):
        return
    work = _apply_wrap(plan, span)
    if work is None:
        return
    wrapped = work.block_of_step(min(plan.blocks[b_j].members))
    if any(p == wrapped and f == fact for (c, f), p in work.links.items()):
        return
    yield work


def _reason_candidates(plan: BdpoPlan, edge: tuple[int, int], reason: Reason
                       ) -> Iterator[BdpoPlan]:
    if reason.kind == PC:
        yield from _pc_candidates(plan, edge, reason.fact)
    elif reason.kind == CD:
        yield from _cd_candidates(plan, edge, reason.fact)
    else:
        yield from _dp_candidates(plan, edge, reason.fact)


_MAX_CASCADE_DEPTH = 32


def _attempt_edge(plan: BdpoPlan, si: int, sj: int,
                  depth: int = 0) -> Optional[BdpoPlan]:
    """Depth-first removal of every reason on the (evolving) edge between the
    blocks containing steps si and sj.  Returns the transformed plan or None."""
    if depth > _MAX_CASCADE_DEPTH:
        return None
    a = plan.block_of_step(si)
    b = plan.block_of_step(sj)
    if a == b:
        return None
    reasons = plan.reasons().get((a, b), set())
    if not reasons:
        return plan
    reason = min(reasons, key=reason_sort_key)
    for work in _reason_candidates(plan, (a, b), reason):
        a2 = work.block_of_step(si)
        b2 = work.block_of_step(sj)
        if a2 == b2:
            continue
        if reason in work.reasons().get((a2, b2), set()):
            continue
        if not work.validate_current():
            continue
        result = _attempt_edge(work, si, sj, depth + 1)
        if result is not None:
            return result
    return None


def _scan_edges(plan: BdpoPlan, pure_dp_only: bool) -> list[tuple[int, int]]:
    out = []
    for (a, b), rs in plan.reasons().items():
        if a in (INIT_BLOCK, GOAL_BLOCK) or b in (INIT_BLOCK, GOAL_BLOCK):
            continue
        if not rs:
            continue
        if pure_dp_only and any(r.kind != DP for r in rs):
            continue
        out.append((a, b))
    return sorted(out, key=lambda e: (plan.pos_key(e[0]), plan.pos_key(e[1])))


def block_deorder(plan: BdpoPlan) -> BdpoPlan:
    """Greedy fixpoint of reason removal over the committed orderings.

    Pure-DP edges are tried first and commit whenever flex does not drop
    (bundling a producer with its consumers is enabling even when no pair is
    freed yet); every other edge commits only on a strict flex gain.  After
    each commit the scan restarts from the top.
    """
    plan = plan.clone()
    plan.rebuild_closure()
    while True:
        committed = False
        for wave, strict in (("dp", False), ("all", True)):
            before = plan.flex().unordered_pairs
            for a, b in _scan_edges(plan, pure_dp_only=(wave == "dp")):
                si = min(plan.blocks[a].members)
                sj = min(plan.blocks[b].members)
                result = _attempt_edge(plan, si, sj)
                if result is None:
                    continue
                after = result.flex().unordered_pairs
                if (after > before) if strict else (after >= before):
                    plan = result
                    committed = True
                    break
            if committed:
                break
        if not committed:
            return plan
