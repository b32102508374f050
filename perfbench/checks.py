"""Output checks that do not trust the program.

Every check recomputes what it needs from the plan's raw data (steps,
causal links, ordering commitments, block children) with its own few lines
of code, instead of calling the program's closure, validation, flex or
linearization routines.  Each check returns a list of failure messages; an
empty list means the output passed.
"""

from __future__ import annotations

import io
import itertools
import random
from fractions import Fraction

INIT, GOAL = 0, 1          # synthetic init/goal ids, for steps and blocks alike
LIN_CAP = 200              # enumerate linearizations up to this many ...
LIN_SAMPLES = 48           # ... and check this many seeded samples beyond it


# -- ordering, recomputed from the plan's commitments ------------------------

def _closure(nodes, edges) -> dict[int, set[int]]:
    direct = {n: set() for n in nodes}
    for a, b in edges:
        if a in direct and b in direct and a != b:
            direct[a].add(b)
    succ = {}
    for n in nodes:
        seen, stack = set(), list(direct[n])
        while stack:
            m = stack.pop()
            if m not in seen:
                seen.add(m)
                stack.extend(direct[m])
        succ[n] = seen
    return succ


def root_order(plan) -> dict[int, set[int]]:
    """Strict successors among the real root blocks."""
    roots = [b for b in plan.roots if b not in (INIT, GOAL)]
    edges = [(p, c) for (c, _), p in plan.links.items()]
    edges += [pair for pair, rs in plan.resolutions.items() if rs]
    return _closure(roots, edges)


def child_order(block) -> dict[int, set[int]]:
    """Strict successors among a compound block's children."""
    edges = [(p, c) for (c, _), p in block.ilinks.items()]
    edges += [pair for pair, rs in block.iresolutions.items() if rs]
    return _closure(block.children, edges)


def ordered_step_pairs(plan) -> set[tuple[int, int]]:
    """Step pairs (a, b) with a before b in every execution."""
    root, inner = _orders(plan)
    pairs = set()
    for succ in [root, *inner.values()]:
        for x, after in succ.items():
            for y in after:
                pairs.update(itertools.product(plan.blocks[x].members,
                                               plan.blocks[y].members))
    return pairs


# -- linearizations ----------------------------------------------------------

def _orders(plan):
    """Successor maps of the root level and of every live compound block."""
    root = root_order(plan)
    inner = {}
    for bid in list(root):
        stack = [bid]
        while stack:
            blk = plan.blocks[stack.pop()]
            if blk.step is None:
                inner[blk.id] = child_order(blk)
                stack.extend(blk.children)
    return root, inner


def linearizations(plan, cap: int = LIN_CAP):
    """Every step-id sequence the plan allows (blocks never interleave), or
    None when there are more than `cap` of them."""
    root, inner = _orders(plan)

    def context(blocks, succ):
        if not blocks:
            yield []
            return
        for b in sorted(blocks):
            if any(b in succ[o] for o in blocks if o != b):
                continue
            rest = [o for o in blocks if o != b]
            for head in expand(b):
                for tail in context(rest, succ):
                    yield head + tail

    def expand(bid):
        blk = plan.blocks[bid]
        if blk.step is not None:
            yield [blk.step]
        else:
            yield from context(list(blk.children), inner[bid])

    found = list(itertools.islice(context(list(root), root), cap + 1))
    return None if len(found) > cap else found


def sample_linearizations(plan, rng: random.Random, count: int = LIN_SAMPLES):
    root, inner = _orders(plan)

    def context(blocks, succ):
        out, remaining = [], sorted(blocks)
        while remaining:
            ready = [b for b in remaining
                     if not any(b in succ[o] for o in remaining if o != b)]
            pick = rng.choice(ready)
            remaining.remove(pick)
            blk = plan.blocks[pick]
            out += ([blk.step] if blk.step is not None
                    else context(blk.children, inner[pick]))
        return out

    return [context(list(root), root) for _ in range(count)]


# -- the checks --------------------------------------------------------------

def execute(task, ops) -> list[str]:
    """Progress the task's initial state through `ops` and test the goal."""
    state = dict(task.init)
    for i, op in enumerate(ops):
        for f in op.pre:
            if state.get(f.var) != f.val:
                return [f"step {i} ({op.name}) lacks {f.var}={f.val}"]
        for f in op.eff:
            state[f.var] = f.val
    missing = [(v, d) for v, d in task.goal.items() if state.get(v) != d]
    return [f"goal facts {missing} unmet"] if missing else []


def flex_from_linearizations(lins, n_steps: int,
                             reported_unordered: int, exact: bool) -> list[str]:
    """Pairs seen in both orders are unordered; with every linearization
    enumerated they must be exactly the reported unordered pairs, with a
    sample they may not be more."""
    steps = sorted(lins[0]) if lins else []
    if len(steps) != n_steps:
        return [f"linearization has {len(steps)} steps, plan {n_steps}"]
    first = {s: i for i, s in enumerate(lins[0])} if lins else {}
    flipped = set()
    for lin in lins[1:]:
        pos = {s: i for i, s in enumerate(lin)}
        for a, b in itertools.combinations(steps, 2):
            if (first[a] < first[b]) != (pos[a] < pos[b]):
                flipped.add((a, b))
    seen = len(flipped)
    if exact and seen != reported_unordered:
        return [f"{seen} pairs seen in both orders, flex reports "
                f"{reported_unordered} unordered"]
    if not exact and seen > reported_unordered:
        return [f"{seen} pairs seen in both orders exceed the "
                f"{reported_unordered} reported unordered"]
    return []


def cost(ops, reported_cost: int, input_cost: int) -> list[str]:
    own = sum(op.cost for op in ops)
    out = []
    if own != reported_cost:
        out.append(f"reported cost {reported_cost}, steps sum to {own}")
    if own > input_cost:
        out.append(f"cost {own} exceeds the input plan's {input_cost}")
    return out


def flex_monotone(reports) -> list[str]:
    """Flex never falls from phase to phase under the flex-first criteria.
    REDUCE is left out: it deletes steps, which changes the pairs that flex
    counts, and it is not gated by the acceptance criteria."""
    gated = [r for r in reports if r.phase != "REDUCE"]
    return [f"flex falls from {a.phase} to {b.phase}"
            for a, b in zip(gated, gated[1:]) if b.flex_after < a.flex_after]


def fibs_output(task, input_ops, out, reports, rng) -> list[str]:
    """Every check that applies to a `fibs` result under the flex-first
    criteria."""
    steps = sorted(s for s in out.steps if s not in (INIT, GOAL))
    ops = [out.steps[s] for s in steps]
    lins = linearizations(out)
    exact = lins is not None
    if not exact:
        lins = sample_linearizations(out, rng)
    failures = []
    for lin in lins:
        failures += execute(task, [out.steps[s] for s in lin])
        if failures:
            break
    score = out.flex()
    final = reports[-1]
    if score.total_pairs != len(steps) * (len(steps) - 1) // 2:
        failures.append("flex counts the wrong number of step pairs")
    if abs(final.flex_after - score.value) > 1e-12:
        failures.append("final report disagrees with the plan's flex")
    failures += flex_from_linearizations(lins, len(steps),
                                         score.unordered_pairs, exact)
    failures += cost(ops, final.cost_after,
                     sum(op.cost for op in input_ops))
    return failures + flex_monotone(reports)


def chains_output(out, chains: int) -> list[str]:
    """Every chain step stays, in its chain's order; nothing else is ordered.
    Chain operators are named 'step <chain> <depth>'."""
    steps = {s: op.name.split() for s, op in out.steps.items()
             if s not in (INIT, GOAL)}
    failures = []
    if sorted(tuple(n) for n in steps.values()) != sorted(
            ("step", str(i), str(j)) for i in range(chains) for j in range(4)):
        failures.append("output steps are not exactly the chain steps")
        return failures
    pairs = ordered_step_pairs(out)
    stray = [(a, b) for a, b in pairs
             if steps[a][1] != steps[b][1] or int(steps[a][2]) > int(steps[b][2])]
    if stray:
        failures.append(f"{len(stray)} ordered pairs outside chain order")
    if len(pairs) != 6 * chains:
        failures.append(f"{len(pairs)} ordered pairs, expected {6 * chains}")
    n = len(steps)
    if out.flex().frac != 1 - Fraction(6 * chains, n * (n - 1) // 2):
        failures.append("flex is not 1 - 6*chains/C(n,2)")
    if out.cost() != 4 * chains:
        failures.append(f"cost {out.cost()}, expected {4 * chains}")
    return failures


def towers_output(out, towers: int) -> list[str]:
    """Per tower at most the walkthrough's cost 7 and 9 ordered pairs."""
    failures = []
    if out.cost() > 7 * towers:
        failures.append(f"cost {out.cost()} exceeds {7 * towers}")
    ordered = len(ordered_step_pairs(out))
    if ordered > 9 * towers:
        failures.append(f"{ordered} ordered pairs exceed {9 * towers}")
    return failures


# -- MaxSAT ------------------------------------------------------------------

def hard_clauses(hard, true_vars) -> list[str]:
    """Every clause needs one literal made true by the model."""
    for clause in hard:
        if not any((lit > 0) == (abs(lit) in true_vars) for lit in clause):
            return [f"hard clause {clause} falsified"]
    return []


def parse_wcnf_hard(text: str):
    """Hard clauses of a classic-format DIMACS WCNF file, one at a time."""
    lines = io.StringIO(text)
    header = next(lines).split()
    if header[:2] != ["p", "wcnf"]:
        raise ValueError("not a wcnf header")
    top = header[4]
    for line in lines:
        weight, _, rest = line.partition(" ")
        if weight == top:
            lits = tuple(int(x) for x in rest.split())
            if lits[-1] != 0:
                raise ValueError(f"clause not 0-terminated: {line}")
            yield lits[:-1]


def total_order_model(cat, pop, order: list[int]) -> set[int]:
    """The plan's own total order plus its causal links, as a model of the
    encoding: every step in, INIT first, GOAL last."""
    seq = [INIT] + order + [GOAL]
    pos = {s: i for i, s in enumerate(seq)}
    model = {cat.x[s] for s in seq}
    model |= {v for (a, b), v in cat.tau.items() if pos[a] < pos[b]}
    model |= {cat.gamma[(p, f, c)] for (c, f), p in pop.links.items()}
    return model
