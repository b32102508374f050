"""Plain references that the tests compare the program against: a set-based
transitive closure, a deep image of a plan, every linearization of a plan,
the ordered step pairs counted by walking every compound block, the laminar
and contiguity checks of a block family, the blocks whose removal keeps a
plan valid, gj reduction by building every removal, the MaxSAT
reordering encoder that numbers one variable and adds one clause at a
time, and the subplanner's search over dict states."""

import heapq
from typing import Collection, Iterable, Iterator, Optional

from popflex.bdpo import (GOAL_BLOCK, GOAL_ID, INIT_BLOCK, INIT_ID, BdpoPlan,
                          topological_order)
from popflex.maxsat import (MAX_ENCODE_STEPS, EncodingTooLarge, VarCatalog,
                            Wcnf)
from popflex.subplanner import Subtask, _Relaxation, _tables
from popflex.substitution import remove_blocks
from popflex.task import PlanningTask, SequentialPlan


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


def snapshot(plan: BdpoPlan) -> tuple:
    """Hashable deep image, used to assert failure paths change nothing."""
    return (
        tuple(sorted((s, op.name) for s, op in plan.steps.items())),
        tuple(sorted((b, blk.members) for b, blk in plan.blocks.items())),
        tuple(sorted(plan.roots)),
        tuple(sorted(plan.links.items())),
        tuple(sorted((pair, tuple(sorted(rs)))
                     for pair, rs in plan.resolutions.items() if rs)),
    )


def all_linearizations(plan: BdpoPlan, cap: int = 50000
                       ) -> Iterator[SequentialPlan]:
    """Every step order the plan's orderings and blocks allow; raises
    RuntimeError past `cap` of them."""
    count = 0

    def contexts(blocks: list[int], rows: dict[int, int]
                 ) -> Iterator[list[int]]:
        if not blocks:
            yield []
            return
        for b in plan._ready(blocks, rows):
            rest = [o for o in blocks if o != b]
            for head in expand(b):
                for tail in contexts(rest, rows):
                    yield head + tail

    def expand(bid: int) -> Iterator[list[int]]:
        blk = plan.blocks[bid]
        if blk.primitive:
            yield [blk.step]
            return
        yield from contexts(list(blk.children), blk.iclosure)

    for steps in contexts(plan.real_roots(), plan.closure):
        count += 1
        if count > cap:
            raise RuntimeError("too many linearizations")
        yield SequentialPlan([plan.task.operator_index(plan.steps[s].name)
                              for s in steps])


def interior_pairs_by_walk(plan: BdpoPlan, bid: int) -> int:
    """The step pairs that block `bid` orders inside itself, summed over
    the contexts of it and of every compound block below it."""
    total = 0
    for b in plan._descendant_blocks(bid):
        blk = plan.blocks[b]
        if not blk.primitive:
            total += plan._context_pairs(blk.children, blk.iclosure)
    return total


def ordered_step_pairs_by_walk(plan: BdpoPlan) -> int:
    """`BdpoPlan.ordered_step_pairs` by walking every live compound block:
    the root context's pairs plus each compound block's own context's."""
    total = plan._context_pairs(plan.roots - {INIT_BLOCK, GOAL_BLOCK},
                                plan.closure)
    for bid in plan._compound_blocks():
        blk = plan.blocks[bid]
        total += plan._context_pairs(blk.children, blk.iclosure)
    return total


def check_laminar(plan: BdpoPlan) -> bool:
    live = sorted(plan.live_blocks())
    for i, a in enumerate(live):
        ma = plan.blocks[a].members
        for b in live[i + 1:]:
            mb = plan.blocks[b].members
            inter = ma & mb
            if inter and not (ma <= mb or mb <= ma):
                return False
    return True


def check_contiguity(plan: BdpoPlan) -> bool:
    flat = flat_closure(plan)
    for bid in sorted(plan.live_blocks()):
        members = plan.blocks[bid].members
        outside = [s for s in plan.steps if s not in members
                   and s not in (INIT_ID, GOAL_ID)]
        for s in outside:
            before = any(m in flat.get(s, ()) for m in members)
            after = any(s in flat.get(m, ()) for m in members)
            if before and after:
                return False
    return True


def flat_closure(plan: BdpoPlan) -> dict[int, set[int]]:
    """Step-level strict descendants implied by the block structure."""
    out: dict[int, set[int]] = {s: set() for s in plan.steps}

    def expand(blocks: Collection[int], rows: dict[int, int]) -> None:
        for x in blocks:
            blk = plan.blocks[x]
            for y in blocks:
                if rows[x] >> y & 1:
                    for sx in blk.members:
                        out[sx] |= plan.blocks[y].members
            if not blk.primitive:
                expand(blk.children, blk.iclosure)

    expand(plan.roots, plan.closure)
    for s in plan.steps:
        if s != INIT_ID:
            out[INIT_ID].add(s)
        if s != GOAL_ID:
            out[s].add(GOAL_ID)
    return out


def greedy_justify(plan: BdpoPlan) -> set[int]:
    """Blocks (any nesting level) whose removal with dependents keeps the
    plan valid."""
    return {bid for bid in plan.live_blocks() - {INIT_BLOCK, GOAL_BLOCK}
            if remove_blocks(plan, {bid}) is not None}


def reduce_gj(plan: BdpoPlan) -> tuple[BdpoPlan, list[tuple[int, bool]]]:
    """gj reduction that builds every removal of a pass: the live blocks in
    (size, position) order, each removal that keeps the plan valid ranked
    by the cost it saves, most first, then by position; the first is kept.
    Returns the reduced plan and each pass's (block, was a root) pick."""
    picks = []
    while True:
        live = sorted(plan.live_blocks() - {INIT_BLOCK, GOAL_BLOCK},
                      key=lambda b: (plan.blocks[b].size(), plan.pos_key(b)))
        found = []
        for bid in live:
            result = remove_blocks(plan, {bid})
            if result is not None:
                found.append((plan.cost() - result.cost(), bid, result))
        if not found:
            return plan, picks
        found.sort(key=lambda t: (-t[0], plan.pos_key(t[1])))
        _, bid, result = found[0]
        picks.append((bid, bid in plan.roots))
        plan = result


def reference_encode_mr(task: PlanningTask, pop: BdpoPlan, mclcp: bool = False
                        ) -> tuple[Wcnf, VarCatalog]:
    """`popflex.maxsat.encode_mr` one variable and one clause at a time:
    each consumed fact scans every step for its producers, the threat
    clauses follow the sorted links, and the soft clauses the sorted
    ordering variables."""
    steps = sorted(pop.steps)
    if len(steps) - 2 > MAX_ENCODE_STEPS:
        raise EncodingTooLarge(
            f"{len(steps) - 2} steps exceed the {MAX_ENCODE_STEPS}-step cap")
    cat = VarCatalog(steps=steps)
    blocks = pop.blocks

    def new_var(tag: tuple) -> int:
        cat.rev[len(cat.rev) + 1] = tag
        return len(cat.rev)

    for s in steps:
        cat.x[s] = new_var(("x", s))
    t = [[0] * len(steps) for _ in steps]
    for i, a in enumerate(steps):
        for j, b in enumerate(steps):
            if i != j:
                t[i][j] = cat.tau[(a, b)] = new_var(("tau", a, b))
    for c in steps:
        if c == INIT_ID:
            continue
        for f in sorted(blocks[c].pre):
            for p in steps:
                if p == c or p == GOAL_ID:
                    continue
                if f in blocks[p].prod:
                    cat.gamma[(p, f, c)] = new_var(("gamma", p, f, c))

    wcnf = Wcnf(rows=t)
    hard = wcnf.other_hard
    hard.append((cat.x[INIT_ID],))
    hard.append((cat.x[GOAL_ID],))
    for s in steps:
        if s in (INIT_ID, GOAL_ID):
            continue
        hard.append((-cat.x[s], cat.tau[(INIT_ID, s)]))
        hard.append((-cat.x[s], cat.tau[(s, GOAL_ID)]))
    hard.append((cat.tau[(INIT_ID, GOAL_ID)],))
    for c in steps:
        if c == INIT_ID:
            continue
        for f in sorted(blocks[c].pre):
            producers = [p for p in steps if (p, f, c) in cat.gamma]
            support = [cat.gamma[(p, f, c)] for p in producers]
            hard.append((-cat.x[c], *support))
            for p in producers:
                g = cat.gamma[(p, f, c)]
                hard.append((-g, cat.tau[(p, c)]))
                hard.append((-g, cat.x[p]))
    for (p, f, c), g in sorted(cat.gamma.items()):
        for d in steps:
            if d in (p, c, INIT_ID):
                continue
            if f in blocks[d].dels:
                hard.append((-g, -cat.x[d], cat.tau[(d, p)], cat.tau[(c, d)]))
    for (a, b), v in sorted(cat.tau.items()):
        wcnf.soft.append((1, (-v,)))
    real = [s for s in steps if s not in (INIT_ID, GOAL_ID)]
    if mclcp:
        k = len(steps) ** 2 + 1
        for s in real:
            wcnf.soft.append((pop.steps[s].cost + k, (-cat.x[s],)))
    else:
        for s in real:
            hard.append((cat.x[s],))

    wcnf.n_vars = len(cat.rev)
    return wcnf, cat


def reference_h_add(rx: _Relaxation, state: dict[int, int]) -> Optional[int]:
    """`popflex.subplanner._h_add` over a dict state, seeded from every
    fact of the state that the relaxation knows."""
    facts = rx.facts
    heap = [(0, f) for f in state.items() if f in facts]
    best: dict[tuple[int, int], int] = {}
    for o in rx.no_pre:
        c = rx.cost[o]
        for f in rx.eff[o]:
            if f not in best or c < best[f]:
                best[f] = c
                heap.append((c, f))
    heapq.heapify(heap)
    pre_of, eff = rx.pre_of, rx.eff
    unmet = rx.n_pre[:]
    acc = rx.cost[:]
    settled: dict[tuple[int, int], int] = {}
    open_goals = len(rx.goal)
    goal_facts = rx.goal
    while heap and open_goals:
        c, f = heapq.heappop(heap)
        if f in settled:
            continue
        settled[f] = c
        if f in goal_facts:
            open_goals -= 1
        for o in pre_of.get(f, ()):
            acc[o] += c
            unmet[o] -= 1
            if unmet[o]:
                continue
            c2 = acc[o]
            for f2 in eff[o]:
                if f2 not in settled and (f2 not in best or c2 < best[f2]):
                    best[f2] = c2
                    heapq.heappush(heap, (c2, f2))
    total = 0
    for f in goal_facts:
        c = settled.get(f)
        if c is None:
            return None
        total += c
    return total


def _dict_applicable(st: Subtask, state: dict) -> list[int]:
    return [i for i, op in enumerate(st.base.operators)
            if all(state.get(v) == d for v, d in op.pre)]


def _dict_goal(state: dict, goal: dict[int, int]) -> bool:
    return all(state.get(v) == d for v, d in goal.items())


def _dict_start(st: Subtask) -> dict:
    start = dict.fromkeys(range(len(st.base.variables)))
    start.update(st.init)
    return start


def reference_proved_empty(st: Subtask, rx: _Relaxation) -> bool:
    """`popflex.subplanner._proved_empty` over dict states, with no clock:
    the depth-first search over the goal's relevant operators within the
    cost bound, False at its first goal state or after max_expansions
    pops."""
    operators = st.base.operators
    goal, bound = st.goal, st.cost_bound
    start = _dict_start(st)
    if _dict_goal(start, goal):
        return False
    key = tuple(start.values())
    best_g = {key: 0}
    stack = [(0, key, start)]
    pops = 0
    while stack:
        pops += 1
        if pops > st.max_expansions:
            return False
        g, key, state = stack.pop()
        if best_g[key] < g:
            continue
        for op_idx in _dict_applicable(st, state):
            if op_idx not in rx.relevant:
                continue
            g2 = g + operators[op_idx].cost
            if g2 > bound:
                continue
            state2 = dict(state)
            state2.update(operators[op_idx].eff_map())
            key2 = tuple(state2.values())
            prev = best_g.get(key2)
            if prev is not None and g2 >= prev:
                continue
            if _dict_goal(state2, goal):
                return False
            best_g[key2] = g2
            stack.append((g2, key2, state2))
    return True


def reference_search(st: Subtask, rx: Optional[_Relaxation], h0: int,
                     queue_leaves: bool) -> Optional[list[SequentialPlan]]:
    """`popflex.subplanner._search` over dict states, with no clock and no
    successor table shared between searches: None where the expansion cap
    binds with leaves goal-tested and left unqueued."""
    operators, goal = st.base.operators, st.goal
    if rx is None and queue_leaves:
        rx = _Relaxation(_tables(st.base), goal)
        h0 = reference_h_add(rx, st.init)
        if h0 is None:
            return []
    if rx is not None:
        relaxed_vars = {v for v, _ in rx.facts}
        changes_h = [not relaxed_vars.isdisjoint(op.eff_map())
                     for op in operators]
    found: list[SequentialPlan] = []
    banned: set[tuple] = set()
    counter = 0
    start = _dict_start(st)
    key = tuple(start.values())
    heap: list[tuple] = [(h0, 0, counter, key, start, [])]
    best_g: dict[tuple, int] = {key: 0}
    expansions = leaves = 0
    while heap:
        if len(found) >= st.max_plans:
            break
        expansions += 1
        if expansions + leaves > st.max_expansions:
            if leaves:
                return None
            break
        h, g, _, key, state, path = heapq.heappop(heap)
        if _dict_goal(state, goal):
            multiset = tuple(sorted(path))
            if multiset not in banned:
                banned.add(multiset)
                found.append(SequentialPlan(list(path)))
        if len(path) >= st.max_len:
            continue
        at_leaf = not queue_leaves and len(path) + 1 == st.max_len
        for op_idx in _dict_applicable(st, state):
            g2 = g + operators[op_idx].cost
            if g2 > st.cost_bound:
                continue
            state2 = dict(state)
            state2.update(operators[op_idx].eff_map())
            key2 = tuple(state2.values())
            prev = best_g.get(key2)
            if prev is not None and g2 >= prev:
                continue
            best_g[key2] = g2
            if at_leaf:
                if not _dict_goal(state2, goal):
                    leaves += 1
                    continue
                h2 = 0
            elif changes_h[op_idx]:
                h2 = reference_h_add(rx, state2)
                if h2 is None:
                    continue
            else:
                h2 = h
            counter += 1
            heapq.heappush(heap, (h2, g2, counter, key2, state2,
                                  path + [op_idx]))
    if _dict_goal(st.init, goal):
        empty = SequentialPlan([])
        if tuple() not in banned:
            found.append(empty)
    return found


def reference_solve_subtask(st: Subtask) -> list[SequentialPlan]:
    """`popflex.subplanner.solve_subtask` with the dict-state search, for a
    subtask with no time bound: the relaxation and the proof of emptiness
    where the length bound is above 1, the search with the leaves
    goal-tested, and again with every leaf queued where that gives None;
    the plans cheapest first, then by operator sequence."""
    rx, h0 = None, 0
    if st.max_len > 1:
        tables = _tables(st.base)
        rx = _Relaxation(tables, st.goal)
        h0 = reference_h_add(rx, st.init)
        if h0 is None:
            return []
        least = tables.least_cost
        if (least > 0 and st.max_len >= st.cost_bound // least
                and reference_proved_empty(st, rx)):
            return []
    found = reference_search(st, rx, h0, False)
    if found is None:
        found = reference_search(st, rx, h0, True)
    found.sort(key=lambda p: (p.cost(st.base), tuple(p.steps)))
    return found
