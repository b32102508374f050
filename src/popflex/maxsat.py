"""Weighted partial MaxSAT encoding of minimum plan reordering.

Propositional variables: one inclusion variable per step, one ordering
variable per ordered step pair, and one causal-link variable per
(producer, fact, consumer) triple.  Hard clauses pin transitivity, endpoint
placement, precondition support, and threat freedom; soft unit clauses
penalize each ordering (weight 1) and, in cost-minimizing mode, each
included operator (weight cost + n^2 + 1, which dominates every possible
ordering total).  Without cost minimization every original operator is
forced into the target plan, which keeps the encoding a pure reordering.

The cubic transitivity block, (not a<b, not b<c, a<c) over every ordered
triple, is 8.1 million clauses at the 200-step cap, so it is never listed:
`Wcnf.rows` keeps the ordering variables, one row per step, and the block
is written and checked from them.  `Wcnf.to_dimacs` writes the clauses of
each ordered pair (a, b) with one join over the rows' pre-formatted
literals, and `check_model` finds the first broken one from the model's
successor bitmasks.  The other clauses are tuples: the writer formats each
run of equal-width clauses with one % per chunk of a few thousand, and the
checker builds the set of true literals once, over every variable from 1
to `n_vars`, a clause being violated when it is disjoint from that set.
`Wcnf.hard` lists every hard clause afresh on each read, for tests and
checks only.

`encode_mr` makes one pass.  It numbers the variables directly instead of
asking for each one, reads each fact's producers and deleters from lists
built once in step order instead of scanning every step for each consumed
fact, appends the clause tuples straight to `other_hard`, and takes the
soft clauses in the order the ordering variables were numbered, which is
their sorted order.  At the 200-step cap it encodes
`eog(scaling_task(50, 4))` in 0.04-0.05 s, where numbering each variable
and adding each clause with a call of its own took 0.08-0.12 s (2 vCPUs,
Python 3.11.7, `scripts/profile_corpus.py maxsat-cap`, five alternating
pairs).

A structured exhaustive optimizer and a plain enumeration oracle cover tiny
instances; larger instances are emit-only (solve the file externally).  The
optimizer is a depth-first branch-and-bound over causal-link choices and
threat resolutions.  Each node holds its transitive closure as one successor
bitmask per step; a node is dropped when its edges form a cycle or when its
ordered-pair count already puts it strictly above the best objective found.
Ties are never pruned, so the optimum and its tie-break are those of the
full enumeration.

The oracle `brute_force_mr` shares no search with the optimizer, so each
checks the other.  For each step subset it scans the labelled posets of the
subset fewest ordered pairs first and stops at the first valid one.  A poset
is valid when every precondition of a step and of the goal has a producer:
init or a step ordered before the consumer, with every deleter of the fact
ordered before that producer or after the consumer.  Each precondition
holds its producers in a list and its deleters in a bitmask, built once per
subset.  At 6 steps the scan covers at most 130,023 posets; the 100-task
corpus of acceptance criterion 4 (up to 6 steps, MCLCP below 6) takes
3.7-4.9 s on 2 vCPUs with Python 3.11.7, oracle and optimizer together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO

from .bdpo import (GOAL_ID, INIT_ID, BdpoPlan, CycleDetected, closure_rows,
                   synthetic_operators)
from .task import Fact, PlanningTask, SequentialPlan, cons_prod_del

MAX_ENCODE_STEPS = 200
_DIMACS_CHUNK = 4096     # clauses formatted by one % in `Wcnf.to_dimacs`


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
    steps: list[int] = field(default_factory=list)


@dataclass
class Wcnf:
    """Weighted CNF.  `other_hard` lists the hard clauses one tuple each;
    `rows` holds an encoding's ordering variables, rows[i][j] for step i
    before step j and 0 on the diagonal, and stands for the transitivity
    block over them, which is never listed.  A hand-built Wcnf has no
    rows."""
    other_hard: list[tuple[int, ...]] = field(default_factory=list)
    soft: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    n_vars: int = 0
    rows: list[list[int]] = field(default_factory=list)

    @property
    def top(self) -> int:
        return sum(w for w, _ in self.soft) + 1

    @property
    def n_hard(self) -> int:
        n = len(self.rows)
        return n * (n - 1) * (n - 2) + len(self.other_hard)

    @property
    def hard(self) -> list[tuple[int, ...]]:
        """Every hard clause, built afresh on each read: the transitivity
        clauses (not a<b, not b<c, a<c) over every ordered triple in
        permutations order, then `other_hard`.  For tests and checks only;
        at the 200-step cap the list is 8.1 million tuples."""
        hard = []
        neg = [[-v for v in row] for row in self.rows]
        for i, row_a in enumerate(self.rows):
            for j, neg_b in enumerate(neg):
                if i != j:   # a zero in either row is where c is a or b
                    not_ab = neg[i][j]
                    hard += [(not_ab, not_bc, ac)
                             for not_bc, ac in zip(neg_b, row_a)
                             if not_bc and ac]
        return hard + self.other_hard

    def to_dimacs(self) -> str:
        """Classic-format DIMACS WCNF text, one line per clause."""
        pieces = list(self._dimacs_pieces())
        pieces.append("")   # the final newline, without copying the text
        return "\n".join(pieces)

    def write(self, fp: TextIO) -> None:
        """Write `to_dimacs()` to the text file `fp` piece by piece, as the
        pieces are made, so the whole text is never held at once."""
        for piece in self._dimacs_pieces():
            fp.write(piece)
            fp.write("\n")

    def _dimacs_pieces(self):
        """The DIMACS header line, then the clause lines in pieces of one
        or more lines, each without its final newline."""
        top = self.top
        yield f"p wcnf {self.n_vars} {self.n_hard + len(self.soft)} {top}"
        yield from _transitivity_lines(self.rows, top)
        yield from _dimacs_lines(self.other_hard, str(top), 0)
        yield from _dimacs_lines(((w, *clause) for w, clause in self.soft),
                                 "%d", 1)


def _transitivity_lines(rows: list[list[int]], top: int):
    """The transitivity block's lines, one piece per ordered pair (a, b):
    `top -ab -bc ac 0` for each c other than a and b.  Each row is
    formatted once, as its negated literals and as its closing literals,
    without the diagonal; a pair's piece is one join that interleaves its
    prefix with row b's negations and row a's closings, a and b sliced
    out."""
    n = len(rows)
    if n < 3:
        return
    neg = [[f"-{v} " for v in row if v] for row in rows]
    close = [[f"{v} 0" for v in row if v] for row in rows]
    slots = [""] * (3 * (n - 2))
    for a, row_a in enumerate(rows):
        close_a = close[a]
        for b, neg_b in enumerate(neg):
            if a == b:
                continue
            i = a - (a > b)     # a in row b without its diagonal
            j = b - (b > a)     # b in row a without its diagonal
            lead = f"{top} -{row_a[b]} "
            slots[0::3] = ["\n" + lead] * (n - 2)
            slots[0] = lead
            slots[1::3] = neg_b[:i] + neg_b[i + 1:]
            slots[2::3] = close_a[:j] + close_a[j + 1:]
            yield "".join(slots)


def _dimacs_lines(rows, lead: str, lead_args: int):
    """The lines of `rows`: `lead`, the rest of the row, then 0.  `lead`
    takes the first `lead_args` numbers of each row.  Each run of rows of
    one length is written in chunks of _DIMACS_CHUNK rows, one % format per
    chunk over the chunk's numbers, so no per-row string is ever built."""
    for size, run in itertools.groupby(rows, len):
        line = lead + " %d" * (size - lead_args) + " 0"
        while chunk := list(itertools.islice(run, _DIMACS_CHUNK)):
            yield "\n".join([line] * len(chunk)) % tuple(
                itertools.chain.from_iterable(chunk))


def encode_mr(task: PlanningTask, pop: BdpoPlan, mclcp: bool = False
              ) -> tuple[Wcnf, VarCatalog]:
    """Emit the reordering encoding for the given plan's steps, in one pass.

    Steps are taken by position i in sorted order.  The variables are
    numbered directly: x of step i is i + 1, the ordering variables follow
    row by row, and the causal-link variables follow in (consumer, fact,
    producer) order, each numbered as its support clause is written.  Each
    fact's producers and deleters are read from lists built once in step
    order, and the clause tuples go straight into `other_hard`."""
    steps = sorted(pop.steps)
    n = len(steps)
    if n - 2 > MAX_ENCODE_STEPS:
        raise EncodingTooLarge(
            f"{n - 2} steps exceed the {MAX_ENCODE_STEPS}-step cap")
    blocks = pop.blocks
    producers: dict[Fact, list[int]] = {}
    deleters: dict[Fact, list[int]] = {}
    for i, s in enumerate(steps):
        if s != GOAL_ID:
            for f in blocks[s].prod:
                producers.setdefault(f, []).append(i)
        if s != INIT_ID:
            for f in blocks[s].dels:
                deleters.setdefault(f, []).append(i)
    # the ordering variables of the pairs (a, b), a != b, in row-major
    # order; rows[i][j] is the variable of step i < step j, 0 on the diagonal
    pairs = [(a, b) for a in steps for b in steps if a != b]
    tvars = list(range(n + 1, n * n + 1))
    rows = []
    for i in range(n):
        row = tvars[i * (n - 1):(i + 1) * (n - 1)]
        row.insert(i, 0)
        rows.append(row)
    init, goal = steps.index(INIT_ID), steps.index(GOAL_ID)
    real = [i for i in range(n) if i != init and i != goal]

    # synthetic endpoints are always in, included steps sit between them
    hard = [(init + 1,), (goal + 1,)]
    for i in real:
        hard += (-i - 1, rows[init][i]), (-i - 1, rows[i][goal])
    hard.append((rows[init][goal],))
    # support: every consumed fact of an included step has a causal link
    gamma: dict[tuple[int, Fact, int], int] = {}
    links = []
    v = n * n           # the last ordering variable
    for c, s in enumerate(steps):
        if c == init:
            continue
        for f in sorted(blocks[s].pre):
            support = [p for p in producers.get(f, ()) if p != c]
            link_vars = list(range(v + 1, v + len(support) + 1))
            v += len(support)
            hard.append((-c - 1, *link_vars))
            for p, g in zip(support, link_vars):
                gamma[(steps[p], f, s)] = g
                links.append((p, f, c, g))
                hard += (-g, rows[p][c]), (-g, p + 1)
    # threat freedom: deleters fall outside every link's span; the links
    # in (producer, fact, consumer) order
    links.sort()
    for p, f, c, g in links:
        for d in deleters.get(f, ()):
            if d != p and d != c:
                hard.append((-g, -d - 1, rows[d][p], rows[c][d]))
    # soft: each ordering costs 1
    soft = [(1, (-t,)) for t in tvars]
    if mclcp:
        k = n * n + 1
        soft += [(pop.steps[steps[i]].cost + k, (-i - 1,)) for i in real]
    else:
        hard += [(i + 1,) for i in real]

    x = dict(zip(steps, range(1, n + 1)))
    return Wcnf(hard, soft, v, rows), VarCatalog(x, dict(zip(pairs, tvars)),
                                                 gamma, steps)


def check_model(wcnf: Wcnf, true_vars: set[int]) -> int:
    """Violated-soft weight of a model; raises on the first broken hard
    clause, in `hard` order.

    The transitivity block is checked on the model's successor bitmasks
    (`_broken_transitivity`).  For the other clauses the true literals are
    `v` for each variable of the model and `-v` for every other variable
    they use, so a clause is violated exactly when it is disjoint from that
    set.  An encoding (a Wcnf with rows) uses every variable from 1 to
    `n_vars`; a hand-built one is read for the variables it uses."""
    if wcnf.rows:
        true_lits = {v if v in true_vars else -v
                     for v in range(1, wcnf.n_vars + 1)}
    else:
        used = set(map(abs, itertools.chain.from_iterable(
            itertools.chain(wcnf.other_hard,
                            (clause for _, clause in wcnf.soft)))))
        true_lits = used.intersection(true_vars)
        true_lits.update(map(int.__neg__, used.difference(true_vars)))
    broken = (_broken_transitivity(wcnf.rows, true_vars)
              or next(filter(true_lits.isdisjoint, wcnf.other_hard), None))
    if broken is not None:
        raise InvalidModel(f"hard clause {broken} violated")
    return sum(w for w, clause in wcnf.soft if true_lits.isdisjoint(clause))


def _broken_transitivity(rows: list[list[int]], true_vars: set[int]
                         ) -> Optional[tuple[int, int, int]]:
    """The first transitivity clause of `rows` that the model breaks, or
    None.  Clause (a, b, c) breaks when b is a successor of a, c one of b,
    and c neither a nor a successor of a; the first in permutations order
    takes the least a, then the least such b, then the least c."""
    bits = [1 << j for j in range(len(rows))]
    succ = [sum(bit for v, bit in zip(row, bits) if v in true_vars)
            for row in rows]
    for a, succ_a in enumerate(succ):
        outside = ~(succ_a | bits[a])
        later = succ_a
        while later:
            b = (later & -later).bit_length() - 1
            later &= later - 1
            bad = succ[b] & outside & ~bits[b]
            if bad:
                c = (bad & -bad).bit_length() - 1
                return -rows[a][b], -rows[b][c], rows[a][c]
    return None


def decode_model(true_vars: set[int], cat: VarCatalog, task: PlanningTask,
                 pop: BdpoPlan, wcnf: Wcnf) -> BdpoPlan:
    """Rebuild a POP from a model, re-checking its hard clauses first: init,
    goal and each true link's producer and ordering are in it.  Its order
    over its steps (InvalidModel on a cycle) is the closure while `refresh`
    records the threat resolutions it picks; `validate` rebuilds it from
    those, the links and the endpoints.  An optimal model keeps its order
    (a smaller one is cheaper); another loses the orderings nothing forces."""
    check_model(wcnf, true_vars)
    out = BdpoPlan(task)
    for s in cat.steps:
        if cat.x[s] in true_vars:
            out.add_step(pop.steps[s], s)
    for (p, f, c), g in sorted(cat.gamma.items()):
        if g not in true_vars:
            continue
        if c not in out.steps:
            raise InvalidModel(f"link {p}->{c} feeds an excluded step")
        if (c, f) not in out.links:
            out.links[(c, f)] = p
    try:
        out.closure = closure_rows({a: {b for b in out.steps if b != a and
                                        cat.tau[(a, b)] in true_vars}
                                    for a in out.steps})
    except CycleDetected as exc:
        raise InvalidModel(str(exc)) from None
    out.refresh()
    report = out.validate()
    if not report:
        raise InvalidModel(report.reason)
    return out


def ordering_count(pop: BdpoPlan) -> int:
    """Ordered pairs over the real steps of a validated POP."""
    flexscore = pop.flex()
    return flexscore.total_pairs - flexscore.unordered_pairs


# ---------------------------------------------------------------------------
# structured exhaustive optimum of the encoding


def optimal_model(task: PlanningTask, pop: BdpoPlan,
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
    (t, p, c) position triples of the included deleters of the fact, which
    are listed once per fact.  None when some fact has no included
    producer."""
    needs = []
    deleters: dict[Fact, list[int]] = {}
    for c in included[1:]:
        for f in sorted(blocks[c].pre):
            if f not in deleters:
                deleters[f] = [t for t in included[1:] if f in blocks[t].dels]
            threats = [t for t in deleters[f] if t != c]
            options = [(p, [(pos[t], pos[p], pos[c]) for t in threats
                            if t != p])
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
    tuple of successor bitmasks, fewest ordered pairs first and then in
    tuple order.

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
            up_closed = _closed_subsets(smaller, k, down=False)
            for preds in _closed_subsets(smaller, k, down=True):
                chosen = [e for e in range(k) if preds >> e & 1]
                common = (1 << k) - 1   # what every predecessor precedes
                for e in chosen:
                    common &= smaller[e]
                rows = list(smaller)
                for e in chosen:
                    rows[e] |= 1 << k
                result += [(*rows, succs) for succs in up_closed
                           if not succs & ~common]
    _POSET_CACHE[n] = sorted(
        result, key=lambda rows: (sum(map(int.bit_count, rows)), rows))
    return _POSET_CACHE[n]


def _closed_subsets(rows: tuple[int, ...], n: int, down: bool) -> list[int]:
    """Bitmasks closed downward (all predecessors) or upward (all successors)."""
    if down:    # the predecessor rows of the same order
        rows = [sum(1 << p for p in range(n) if rows[p] >> e & 1)
                for e in range(n)]
    return [mask for mask in range(1 << n)
            if not any(mask >> e & 1 and rows[e] & ~mask for e in range(n))]


def brute_force_mr(task: PlanningTask, plan: SequentialPlan,
                   mclcp: bool = False) -> BdpoPlan:
    """Optimal reordering by explicit enumeration; instances cap at 6 steps.

    The posets of each subset come fewest ordered pairs first, so the first
    valid one is the subset's least (objective, subset, rows) key.  It is
    the closure while `refresh` records its threat resolutions; rebuilt
    from those and the links, it is that poset again, or a smaller valid
    one would have come first."""
    n = len(plan.steps)
    if n > 6:
        raise TooLarge(f"{n} steps")
    ops = [task.operators[i] for i in plan.steps]
    sizes = task.domain_sizes()
    profiles = [cons_prod_del(op, sizes) for op in ops]
    init_prof, goal_prof = (cons_prod_del(op, sizes) for op in
                            synthetic_operators(task.init, task.goal))

    best = None
    subsets: Iterable[tuple[int, ...]]
    if mclcp:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n + 1))
    else:
        subsets = [tuple(range(n))]

    for subset in subsets:
        needs = _oracle_needs(subset, profiles, init_prof, goal_prof)
        rows = next((rows for rows in _posets(len(subset)) if all(
            _producer(need, rows) is not None for need in needs)), None)
        if rows is None:
            continue
        n_ordered = sum(map(int.bit_count, rows))
        objective = ((sum(ops[i].cost for i in subset), n_ordered) if mclcp
                     else (n_ordered,))
        if best is None or (objective, subset, rows) < best[0]:
            best = ((objective, subset, rows), needs)

    if best is None:
        raise InvalidModel("no valid reordering exists")
    (_, subset, rows), needs = best
    out = BdpoPlan(task)
    out.install_synthetics()
    ids = [out.add_step(ops[i]) for i in subset]
    for need in needs:
        p = _producer(need, rows)
        f, c = need[:2]
        out.links[(GOAL_ID if c is None else ids[c], f)] = (
            INIT_ID if p == -1 else ids[p])
    bits = [1 << s for s in ids]
    out.closure = {INIT_ID: sum(bits) | 1 << GOAL_ID, GOAL_ID: 0}
    for s, row in zip(ids, rows):
        out.closure[s] = sum(bit for b, bit in enumerate(bits)
                             if row >> b & 1) | 1 << GOAL_ID
    out.refresh()
    out.rebuild_closure()
    return out


def _oracle_needs(subset, profiles, init_prof, goal_prof) -> list[tuple]:
    """One (fact, consumer, init supplies it, producers, deleters) entry per
    precondition of each step of `subset`, then of the goal, facts sorted.
    Steps are positions in `subset` and the goal is None; the producers
    ascend, and the deleters are a bitmask that leaves out the consumer.  No
    operator deletes a fact it produces, so no producer is its own deleter."""
    consumers = [(c, profiles[s][0]) for c, s in enumerate(subset)]
    consumers.append((None, goal_prof[0]))
    return [(f, c, f in init_prof[1],
             [p for p, s in enumerate(subset)
              if p != c and f in profiles[s][1]],
             sum(1 << t for t, s in enumerate(subset)
                 if t != c and f in profiles[s][2]))
            for c, pre in consumers for f in sorted(pre)]


def _producer(need: tuple, rows: tuple[int, ...]) -> Optional[int]:
    """The first valid producer of an `_oracle_needs` entry under the poset
    `rows`: -1 for init, else the first producer that precedes the consumer;
    None when there is none.  Every deleter must come before the producer
    or after the consumer, so init only serves when none comes earlier."""
    _, c, init, producers, deleters = need
    early = deleters if c is None else deleters & ~rows[c]
    if init and not early:
        return -1
    for p in producers:
        if (c is None or rows[p] >> c & 1) and all(
                rows[t] >> p & 1 for t in range(len(rows)) if early >> t & 1):
            return p
    return None
