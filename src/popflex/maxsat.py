"""Weighted partial MaxSAT encoding of minimum plan reordering.

Propositional variables: one inclusion variable per step, one ordering
variable per ordered step pair, and one causal-link variable per
(producer, fact, consumer) triple.  Hard clauses pin transitivity, endpoint
placement, precondition support, and threat freedom; soft unit clauses
penalize each ordering (weight 1) and, in cost-minimizing mode, each
included operator (weight cost + n^2 + 1, which dominates every possible
ordering total).  Without cost minimization every original operator is
forced into the target plan, which keeps the encoding a pure reordering.

A structured exhaustive optimizer and a plain enumeration oracle cover tiny
instances; larger instances are emit-only (solve the file externally).  The
optimizer is a depth-first branch-and-bound over causal-link choices and
threat resolutions.  Each node holds its transitive closure as one successor
bitmask per step; a node is dropped when its edges form a cycle or when its
ordered-pair count already puts it strictly above the best objective found.
Ties are never pruned, so the optimum and its tie-break are those of the
full enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .bdpo import GOAL_ID, INIT_ID
from .pop import PartialOrderPlan, synthetic_operators
from .task import Fact, PlanningTask, SequentialPlan, cons_prod_del

MAX_ENCODE_STEPS = 200


class EncodingTooLarge(Exception):
    """Step count beyond the transitivity-clause budget."""


class TooLarge(Exception):
    """Instance beyond the enumeration oracle's reach."""


class InvalidModel(Exception):
    """Model violates a hard clause or decodes to an unsupported plan."""


@dataclass
class VarCatalog:
    x: dict[int, int] = field(default_factory=dict)
    tau: dict[tuple[int, int], int] = field(default_factory=dict)
    gamma: dict[tuple[int, Fact, int], int] = field(default_factory=dict)
    rev: dict[int, tuple] = field(default_factory=dict)
    steps: list[int] = field(default_factory=list)

    def new_var(self, tag: tuple) -> int:
        idx = len(self.rev) + 1
        self.rev[idx] = tag
        return idx

    @property
    def n_vars(self) -> int:
        return len(self.rev)


@dataclass
class Wcnf:
    hard: list[tuple[int, ...]] = field(default_factory=list)
    soft: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    n_vars: int = 0

    @property
    def top(self) -> int:
        return sum(w for w, _ in self.soft) + 1

    def add_hard(self, *lits: int) -> None:
        assert lits
        self.hard.append(tuple(lits))

    def add_soft(self, weight: int, *lits: int) -> None:
        assert lits and weight > 0
        self.soft.append((weight, tuple(lits)))

    def to_dimacs(self) -> str:
        top = self.top
        lines = [f"p wcnf {self.n_vars} {len(self.hard) + len(self.soft)} {top}"]
        # one %-format per run of hard clauses of the same width
        for width, run in itertools.groupby(self.hard, len):
            lines += map((f"{top}" + " %d" * width + " 0").__mod__, run)
        for weight, clause in self.soft:
            lines.append(" ".join(map(str, (weight,) + clause + (0,))))
        return "\n".join(lines) + "\n"


def parse_dimacs_wcnf(text: str) -> Wcnf:
    wcnf = Wcnf()
    top = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            assert parts[1] == "wcnf"
            wcnf.n_vars = int(parts[2])
            top = int(parts[4])
            continue
        nums = [int(x) for x in line.split()]
        assert nums[-1] == 0
        weight, lits = nums[0], tuple(nums[1:-1])
        if weight == top:
            wcnf.hard.append(lits)
        else:
            wcnf.soft.append((weight, lits))
    return wcnf


def model_from_v_line(text: str) -> set[int]:
    """True variables from a DIMACS 'v ...' solution line."""
    true_vars = set()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("v"):
            line = line[1:]
        for tok in line.split():
            lit = int(tok)
            if lit > 0:
                true_vars.add(lit)
    return true_vars


def encode_mr(task: PlanningTask, pop: PartialOrderPlan, mclcp: bool = False
              ) -> tuple[Wcnf, VarCatalog]:
    """Emit the reordering encoding for the given plan's steps."""
    steps = sorted(pop.steps)
    if len(steps) - 2 > MAX_ENCODE_STEPS:
        raise EncodingTooLarge(
            f"{len(steps) - 2} steps exceed the {MAX_ENCODE_STEPS}-step cap")
    cat = VarCatalog(steps=steps)
    blocks = pop.blocks

    for s in steps:
        cat.x[s] = cat.new_var(("x", s))
    # t[i][j] is the variable of steps[i] < steps[j]; the diagonal stays 0
    t = [[0] * len(steps) for _ in steps]
    for i, a in enumerate(steps):
        for j, b in enumerate(steps):
            if i != j:
                t[i][j] = cat.tau[(a, b)] = cat.new_var(("tau", a, b))
    for c in steps:
        if c == INIT_ID:
            continue
        for f in sorted(blocks[c].pre):
            for p in steps:
                if p == c or p == GOAL_ID:
                    continue
                if f in blocks[p].prod:
                    cat.gamma[(p, f, c)] = cat.new_var(("gamma", p, f, c))

    wcnf = Wcnf()

    # transitivity over every ordered triple, in permutations order; a zero
    # in either row is the diagonal, where c would repeat a or b
    neg = [[-v for v in row] for row in t]
    for i, row_a in enumerate(t):
        for j, neg_b in enumerate(neg):
            if i != j:
                not_ab = neg[i][j]
                wcnf.hard.extend([(not_ab, not_bc, ac)
                                  for not_bc, ac in zip(neg_b, row_a)
                                  if not_bc and ac])
    # synthetic endpoints are always in
    wcnf.add_hard(cat.x[INIT_ID])
    wcnf.add_hard(cat.x[GOAL_ID])
    # included steps sit between the endpoints
    for s in steps:
        if s in (INIT_ID, GOAL_ID):
            continue
        wcnf.add_hard(-cat.x[s], cat.tau[(INIT_ID, s)])
        wcnf.add_hard(-cat.x[s], cat.tau[(s, GOAL_ID)])
    wcnf.add_hard(cat.tau[(INIT_ID, GOAL_ID)])
    # support: every consumed fact of an included step has a causal link
    for c in steps:
        if c == INIT_ID:
            continue
        for f in sorted(blocks[c].pre):
            producers = [p for p in steps
                         if (p, f, c) in cat.gamma]
            support = [cat.gamma[(p, f, c)] for p in producers]
            wcnf.add_hard(-cat.x[c], *support)
            for p in producers:
                g = cat.gamma[(p, f, c)]
                wcnf.add_hard(-g, cat.tau[(p, c)])
                wcnf.add_hard(-g, cat.x[p])
    # threat freedom: deleters fall outside every link's span
    for (p, f, c), g in sorted(cat.gamma.items()):
        for t in steps:
            if t in (p, c, INIT_ID):
                continue
            if f in blocks[t].dels:
                wcnf.add_hard(-g, -cat.x[t],
                              cat.tau[(t, p)], cat.tau[(c, t)])
    # soft: each ordering costs 1
    for (a, b), v in sorted(cat.tau.items()):
        wcnf.add_soft(1, -v)
    if mclcp:
        k = len(steps) ** 2 + 1
        for s in steps:
            if s in (INIT_ID, GOAL_ID):
                continue
            wcnf.add_soft(pop.steps[s].cost + k, -cat.x[s])
    else:
        for s in steps:
            if s in (INIT_ID, GOAL_ID):
                continue
            wcnf.add_hard(cat.x[s])

    wcnf.n_vars = cat.n_vars
    return wcnf, cat


def check_model(wcnf: Wcnf, true_vars: set[int]) -> int:
    """Violated-soft weight of a model; raises on a broken hard clause."""

    def satisfied(clause: tuple[int, ...]) -> bool:
        return any((l > 0) == (abs(l) in true_vars) for l in clause)

    for clause in wcnf.hard:
        if not satisfied(clause):
            raise InvalidModel(f"hard clause {clause} violated")
    return sum(w for w, clause in wcnf.soft if not satisfied(clause))


def decode_model(true_vars: set[int], cat: VarCatalog, task: PlanningTask,
                 pop: PartialOrderPlan, wcnf: Optional[Wcnf] = None
                 ) -> PartialOrderPlan:
    """Rebuild a POP from a model; hard clauses are re-checked first."""
    if wcnf is not None:
        check_model(wcnf, true_vars)
    included = [s for s in cat.steps if cat.x[s] in true_vars]
    if INIT_ID not in included or GOAL_ID not in included:
        raise InvalidModel("synthetic endpoints excluded")
    out = PartialOrderPlan(task)
    for s in included:      # a flat plan numbers each root block by its step
        out.steps[s] = pop.steps[s]
        out.blocks[s] = pop.blocks[s]
    out.roots = set(included)
    out.next_step_id = out.next_block_id = max(included) + 1
    for (p, f, c), g in sorted(cat.gamma.items()):
        if g not in true_vars:
            continue
        if p not in out.steps or c not in out.steps:
            raise InvalidModel(f"link {p}->{c} touches an excluded step")
        if cat.tau[(p, c)] not in true_vars:
            raise InvalidModel(f"link {p}->{c} without its ordering")
        if (c, f) not in out.links:
            out.links[(c, f)] = p
    for (a, b), v in sorted(cat.tau.items()):
        if v in true_vars and a in out.steps and b in out.steps:
            out.extra_orderings.add((a, b))
    report = out.validate()
    if not report:
        raise InvalidModel(report.reason)
    return out


def ordering_count(pop: PartialOrderPlan) -> int:
    """Ordered pairs over the real steps of a validated POP."""
    flexscore = pop.flex()
    return flexscore.total_pairs - flexscore.unordered_pairs


# ---------------------------------------------------------------------------
# structured exhaustive optimum of the encoding


def optimal_model(task: PlanningTask, pop: PartialOrderPlan,
                  mclcp: bool = False) -> tuple[set[int], int]:
    """Exhaustive optimum over the encoding's meaningful assignments.

    Enumerates step subsets (singleton when not cost-minimizing), then walks
    the causal-link choices depth first in product order and, below each
    full choice, the per-threat resolutions; every other ordering variable
    is completed by transitive closure, which can only lower the objective.
    Each node of the walk carries its closure as one successor bitmask per
    step, grown one edge at a time by `_add_edge`.  The closure only grows
    down the walk, so a node whose edges form a cycle is dropped, and so is
    a node whose ordered-pair count already puts the objective strictly
    above the best one found: nothing below it can win.  Ties are kept, so
    the winner is the full enumeration's: the least (objective, canonical
    key), and among equal keys the first in product order.  The winning
    assignment is checked against the emitted clauses.
    """
    wcnf, cat = encode_mr(task, pop, mclcp)
    steps = cat.steps
    pos = {s: i for i, s in enumerate(steps)}
    real = [s for s in steps if s not in (INIT_ID, GOAL_ID)]
    k = len(steps) ** 2 + 1

    best: Optional[tuple[int, tuple, set[int]]] = None

    subsets: Iterable[tuple[int, ...]]
    if mclcp:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(real, r) for r in range(len(real) + 1))
    else:
        subsets = [tuple(real)]

    for subset in subsets:
        included = [INIT_ID] + list(subset) + [GOAL_ID]
        op_weight = 0 if not mclcp else sum(
            pop.steps[s].cost + k for s in subset)
        if mclcp and best is not None and op_weight >= best[0]:
            continue
        needs = _link_needs(included, cat, pop.blocks, pos)
        if needs is None:
            continue
        threat_order = sorted(range(len(needs)), key=lambda i: needs[i][:2])
        included_key = tuple(sorted(included))
        chosen: list = [None] * len(needs)
        rows = [0] * len(steps)
        for s in subset:
            rows[pos[s]] = 1 << pos[GOAL_ID]
        for s in included[1:]:
            rows[pos[INIT_ID]] |= 1 << pos[s]

        def walk(i: int, rows: Optional[list[int]]) -> None:
            nonlocal best
            if rows is None:
                return
            allowance = math.inf if best is None else best[0] - op_weight
            if _pair_count(rows) > allowance:
                return
            if i < len(needs):
                c, _, options = needs[i]
                for option in options:
                    chosen[i] = option
                    walk(i + 1, _add_edge(rows, pos[option[0]], pos[c]))
                return
            threats = [th for j in threat_order for th in chosen[j][1]]
            closure = _complete_orderings(rows, threats, allowance, steps)
            if closure is None:
                return
            objective = op_weight + _pair_count(closure)
            key = (included_key, _closure_key(closure, steps))
            if best is None or (objective, key) < best[:2]:
                links = {(c, f): p for (c, f, _), (p, _) in zip(needs, chosen)}
                best = (objective, key,
                        _assignment(cat, included, links, closure))

        walk(0, rows)

    if best is None:
        raise InvalidModel("encoding unsatisfiable")
    violated = check_model(wcnf, best[2])
    # soft weight from never-true tau/x variables outside the included set
    return best[2], violated


def _link_needs(included, cat: VarCatalog, blocks, pos):
    """(consumer, fact, [(producer, threats)]) per consumed fact of the
    included steps, producers in step order; each producer's threats are the
    (t, p, c) position triples of the included deleters of the fact.  None
    when some fact has no included producer."""
    needs = []
    for c in included[1:]:
        for f in sorted(blocks[c].pre):
            options = [(p, [(pos[t], pos[p], pos[c]) for t in included
                            if t not in (p, c, INIT_ID)
                            and f in blocks[t].dels])
                       for p in included if (p, f, c) in cat.gamma]
            if not options:
                return None
            needs.append((c, f, options))
    return needs


def _add_edge(rows: list[int], a: int, b: int) -> Optional[list[int]]:
    """The transitive closure `rows` (bit b of rows[a] set when a precedes
    b) extended by a < b, as a new list; None when that closes a cycle."""
    if a == b or rows[b] >> a & 1:
        return None
    if rows[a] >> b & 1:
        return rows
    gain = rows[b] | 1 << b
    a_bit = 1 << a
    grown = [row | gain if row & a_bit else row for row in rows]
    grown[a] |= gain
    return grown


def _pair_count(rows: list[int]) -> int:
    return sum(map(int.bit_count, rows))


def _complete_orderings(rows, threats, allowance, steps):
    """Least closure, by pair count and then by `_closure_key`, that extends
    `rows` by resolving each threat (t, p, c) as t < p or c < t, branching
    in threat order; a branch whose count exceeds `allowance` or the best
    count so far is dropped.  None when no completion fits."""
    best = None

    def rec(idx: int, rows: Optional[list[int]]) -> None:
        nonlocal best
        if rows is None:
            return
        n_tau = _pair_count(rows)
        if n_tau > allowance or best is not None and n_tau > best[0]:
            return
        while idx < len(threats):
            t, p, c = threats[idx]
            if rows[t] >> p & 1 or rows[c] >> t & 1:
                idx += 1
                continue
            break
        if idx == len(threats):
            if (best is None or n_tau < best[0]
                    or _closure_key(rows, steps) < _closure_key(best[1], steps)):
                best = (n_tau, rows)
            return
        t, p, c = threats[idx]
        rec(idx + 1, _add_edge(rows, t, p))
        rec(idx + 1, _add_edge(rows, c, t))

    rec(0, rows)
    return None if best is None else best[1]


def _closure_key(rows, steps):
    return tuple((steps[a], steps[b]) for a, row in enumerate(rows)
                 for b in range(len(rows)) if row >> b & 1)


def _assignment(cat: VarCatalog, included, links, rows) -> set[int]:
    true_vars = set()
    for s in included:
        true_vars.add(cat.x[s])
    for (c, f), p in links.items():
        true_vars.add(cat.gamma[(p, f, c)])
    for a, b in _closure_key(rows, cat.steps):
        true_vars.add(cat.tau[(a, b)])
    return true_vars


# ---------------------------------------------------------------------------
# enumeration oracle over subsets and transitively closed orders


_POSET_CACHE: dict[int, list[tuple[int, ...]]] = {}


def _posets(n: int) -> list[tuple[int, ...]]:
    """All strict partial orders on n labeled elements, each encoded as a
    tuple of successor bitmasks.

    Element n-1 extends each smaller poset: its predecessor set must be
    down-closed, its successor set up-closed, and every chosen predecessor
    must already precede every chosen successor, which keeps the restriction
    to the old elements untouched and makes the enumeration bijective.
    """
    if n in _POSET_CACHE:
        return _POSET_CACHE[n]
    if n == 0:
        result = [()]
    else:
        result = []
        k = n - 1
        for smaller in _posets(n - 1):
            for preds in _closed_subsets(smaller, k, down=True):
                for succs in _closed_subsets(smaller, k, down=False):
                    if preds & succs:
                        continue
                    if any(preds & (1 << p) and (succs & ~smaller[p])
                           for p in range(k)):
                        continue
                    rows = [smaller[e] | (1 << k) if preds & (1 << e)
                            else smaller[e] for e in range(k)]
                    rows.append(succs)
                    result.append(tuple(rows))
    _POSET_CACHE[n] = sorted(result)
    return _POSET_CACHE[n]


def _closed_subsets(rows: tuple[int, ...], n: int, down: bool) -> list[int]:
    """Bitmasks closed downward (all predecessors) or upward (all successors)."""
    out = []
    for mask in range(1 << n):
        ok = True
        for e in range(n):
            if not mask & (1 << e):
                continue
            if down:
                preds = [p for p in range(n) if rows[p] & (1 << e)]
                if any(not mask & (1 << p) for p in preds):
                    ok = False
                    break
            else:
                if rows[e] & ~mask:
                    ok = False
                    break
        if ok:
            out.append(mask)
    return out


def brute_force_mr(task: PlanningTask, plan: SequentialPlan,
                   mclcp: bool = False) -> PartialOrderPlan:
    """Optimal reordering by explicit enumeration; instances cap at 6 steps."""
    n = len(plan.steps)
    if n > 6:
        raise TooLarge(f"{n} steps")
    ops = [task.operators[i] for i in plan.steps]
    sizes = task.domain_sizes()
    profiles = [cons_prod_del(op, sizes) for op in ops]
    init_prof, goal_prof = (cons_prod_del(op, sizes) for op in
                            synthetic_operators(task.init, task.goal))

    best: Optional[tuple[tuple, list[int], tuple[int, ...]]] = None

    subsets: Iterable[tuple[int, ...]]
    if mclcp:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1))
    else:
        subsets = [tuple(range(n))]

    for subset in subsets:
        m = len(subset)
        cost = sum(ops[i].cost for i in subset)
        for rows in _posets(m):
            if not _poset_valid(subset, rows, profiles, init_prof, goal_prof):
                continue
            n_ordered = sum(bin(r).count("1") for r in rows)
            if mclcp:
                objective = (cost, n_ordered)
            else:
                objective = (n_ordered,)
            key = (objective, subset, rows)
            if best is None or key < best[0]:
                best = (key, list(subset), rows)

    if best is None:
        raise InvalidModel("no valid reordering exists")
    _, subset, rows = best
    out = PartialOrderPlan(task)
    out.install_synthetics()
    ids = []
    for i in subset:
        ids.append(out.add_step(ops[i]))
    for a_pos, a in enumerate(subset):
        for b_pos, b in enumerate(subset):
            if rows[a_pos] & (1 << b_pos):
                out.extra_orderings.add((ids[a_pos], ids[b_pos]))
    for c_pos, c in enumerate(subset):
        for f in sorted(profiles[c][0]):
            p = _pick_producer(c_pos, f, subset, rows, profiles, init_prof)
            if p is not None:
                out.links[(ids[c_pos], f)] = (
                    INIT_ID if p == -1 else ids[p])
    for f in sorted(goal_prof[0]):
        p = _pick_producer(None, f, subset, rows, profiles, init_prof)
        if p is not None:
            out.links[(GOAL_ID, f)] = INIT_ID if p == -1 else ids[p]
    out.rebuild_closure()
    return out


def _before(a: Optional[int], b: Optional[int], rows) -> bool:
    """Order test with -1 as init and None as goal."""
    if a == -1:
        return b != -1
    if b is None:
        return a is not None and a != -1 or a == -1
    if a is None:
        return False
    if b == -1:
        return False
    return bool(rows[a] & (1 << b))


def _poset_valid(subset, rows, profiles, init_prof, goal_prof) -> bool:
    m = len(subset)
    consumers = [(pos, profiles[subset[pos]][0]) for pos in range(m)]
    consumers.append((None, goal_prof[0]))
    for c_pos, cons in consumers:
        for f in cons:
            if _pick_producer(c_pos, f, subset, rows, profiles,
                              init_prof) is None:
                return False
    return True


def _pick_producer(c_pos, f, subset, rows, profiles, init_prof):
    """Earliest valid producer position (or -1 for init, None if none)."""
    m = len(subset)
    candidates = []
    if f in init_prof[1]:
        candidates.append(-1)
    for p_pos in range(m):
        if p_pos == c_pos:
            continue
        if f in profiles[subset[p_pos]][1]:
            if c_pos is None or _before(p_pos, c_pos, rows):
                candidates.append(p_pos)
    for p_pos in candidates:
        ok = True
        for t_pos in range(m):
            if t_pos == c_pos or t_pos == p_pos:
                continue
            if f not in profiles[subset[t_pos]][2]:
                continue
            before_p = _before(t_pos, p_pos, rows)
            after_c = c_pos is not None and _before(c_pos, t_pos, rows)
            if not before_p and not after_c:
                ok = False
                break
        if ok:
            return p_pos
    return None
