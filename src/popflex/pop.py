"""Partial-order plans over uniquely identified operator occurrences.

A plan holds operator instances keyed by step id (including synthetic init
and goal steps), causal-link commitments, and explicit demotion/promotion
commitments.  The ordering relation is the transitive closure of those
commitments plus init-first/goal-last; ordering reasons (PC, CD, DP) are
derived from the commitments rather than stored separately.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Optional

from .task import (Fact, OperatorDef, PlanningTask, SequentialPlan,
                   ValidationReport, cons_prod_del, make_operator)

PC = "PC"
CD = "CD"
DP = "DP"

INIT_ID = 0
GOAL_ID = 1

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


class InvalidInput(Exception):
    """Input plan fails sequential validation."""


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
    """Strict descendants per node; raises CycleDetected on a cycle."""
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


class PartialOrderPlan:
    """Flat POP: steps, causal links, promotion/demotion commitments."""

    def __init__(self, task: PlanningTask):
        self.task = task
        self.steps: dict[int, OperatorDef] = {}
        # links[(consumer, fact)] = producer; one producer per consumed fact
        self.links: dict[tuple[int, Fact], int] = {}
        # resolutions[(a, b)] = set of CD/DP reasons justifying a before b
        self.resolutions: dict[tuple[int, int], set[Reason]] = {}
        # bare orderings with no recorded reason (used by decoded models)
        self.extra_orderings: set[tuple[int, int]] = set()
        self.closure: dict[int, set[int]] = {}
        self._next_id = 2
        self._profiles: dict[int, tuple[frozenset, frozenset, frozenset]] = {}

    # -- construction -------------------------------------------------------

    def add_step(self, op: OperatorDef, step_id: Optional[int] = None) -> int:
        if step_id is None:
            step_id = self._next_id
        self._next_id = max(self._next_id, step_id + 1)
        self.steps[step_id] = op
        return step_id

    def install_synthetics(self) -> None:
        init_op = make_operator("<init>", [], sorted(self.task.init.items()), 0)
        goal_op = make_operator("<goal>", sorted(self.task.goal.items()), [], 0)
        self.steps[INIT_ID] = init_op
        self.steps[GOAL_ID] = goal_op

    def real_steps(self) -> list[int]:
        return sorted(s for s in self.steps if s not in (INIT_ID, GOAL_ID))

    def profile(self, step_id: int) -> tuple[frozenset, frozenset, frozenset]:
        cached = self._profiles.get(step_id)
        if cached is None:
            cached = cons_prod_del(self.steps[step_id], self.task.domain_sizes())
            self._profiles[step_id] = cached
        return cached

    # -- ordering -----------------------------------------------------------

    def commitment_edges(self) -> list[tuple[int, int]]:
        edges = {(p, c) for (c, _), p in self.links.items()}
        edges |= set(self.resolutions)
        edges |= self.extra_orderings
        for s in self.steps:
            if s != INIT_ID:
                edges.add((INIT_ID, s))
            if s != GOAL_ID:
                edges.add((s, GOAL_ID))
        return sorted(edges)

    def rebuild_closure(self) -> None:
        self.closure = closure_from_edges(self.steps, self.commitment_edges())

    def ordered(self, a: int, b: int) -> bool:
        return b in self.closure[a]

    def reasons(self) -> dict[tuple[int, int], set[Reason]]:
        """Derived reason sets for the committed orderings."""
        out: dict[tuple[int, int], set[Reason]] = {}
        for (c, f), p in self.links.items():
            out.setdefault((p, c), set()).add(Reason(PC, f))
        for pair, rs in self.resolutions.items():
            out.setdefault(pair, set()).update(rs)
        return out

    # -- metrics ------------------------------------------------------------

    def flex(self) -> FlexScore:
        real = self.real_steps()
        total = len(real) * (len(real) - 1) // 2
        ordered = 0
        for i, a in enumerate(real):
            succ = self.closure[a]
            ordered += sum(1 for b in real[i + 1:] if b in succ or a in self.closure[b])
        return FlexScore(total - ordered, total)

    def cost(self) -> int:
        return sum(self.steps[s].cost for s in self.real_steps())

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationReport:
        """POP validity: support for every precondition, no unresolved threat."""
        try:
            self.rebuild_closure()
        except CycleDetected as exc:
            return ValidationReport(False, reason=str(exc))
        for s in sorted(self.steps):
            if s == INIT_ID:
                continue
            cons, _, _ = self.profile(s)
            for f in sorted(cons):
                p = self.links.get((s, f))
                if p is None:
                    return ValidationReport(
                        False, reason=f"step {s}: no producer for {f}")
                if p not in self.steps:
                    return ValidationReport(
                        False, reason=f"step {s}: dangling producer {p}")
                if p != INIT_ID and not self.ordered(p, s):
                    return ValidationReport(
                        False, reason=f"link {p}->{s} not ordered")
                _, prod_p, del_p = self.profile(p)
                if f not in prod_p or f in del_p:
                    return ValidationReport(
                        False, reason=f"step {p} does not supply {f}")
        for threat, (p, f, c) in self.unresolved_threats():
            return ValidationReport(
                False,
                reason=f"step {threat} threatens {p}-{f}->{c}")
        return ValidationReport(True)

    def unresolved_threats(self) -> list[tuple[int, tuple[int, Fact, int]]]:
        out = []
        for (c, f), p in sorted(self.links.items()):
            for t in sorted(self.steps):
                if t in (p, c, INIT_ID):
                    continue
                _, _, del_t = self.profile(t)
                if f in del_t and not self.ordered(t, p) and not self.ordered(c, t):
                    out.append((t, (p, f, c)))
        return out

    # -- linearization ------------------------------------------------------

    def linearize(self, seed: int = 0) -> SequentialPlan:
        rng = random.Random(seed)
        return SequentialPlan(self._topo_sample(rng))

    def _topo_sample(self, rng: random.Random) -> list[int]:
        real = self.real_steps()
        preds = {s: {p for p in real if s in self.closure[p]} for s in real}
        out: list[int] = []
        remaining = set(real)
        while remaining:
            ready = sorted(s for s in remaining if not (preds[s] & remaining))
            pick = rng.choice(ready)
            out.append(pick)
            remaining.discard(pick)
        return [self.task.operator_index(self.steps[s].name) for s in out]

    def all_linearizations(self, cap: int = 50000) -> Iterator[SequentialPlan]:
        real = self.real_steps()
        preds = {s: {p for p in real if s in self.closure[p]} for s in real}
        count = 0

        def rec(remaining: set[int], acc: list[int]) -> Iterator[list[int]]:
            nonlocal count
            if not remaining:
                count += 1
                if count > cap:
                    raise RuntimeError("too many linearizations")
                yield list(acc)
                return
            for s in sorted(remaining):
                if preds[s] & remaining:
                    continue
                acc.append(s)
                remaining.discard(s)
                yield from rec(remaining, acc)
                remaining.add(s)
                acc.pop()

        for order in rec(set(real), []):
            yield SequentialPlan(
                [self.task.operator_index(self.steps[s].name) for s in order])

    # -- exports ------------------------------------------------------------

    def to_json(self) -> dict:
        reasons = self.reasons()
        return {
            "steps": {str(s): self.steps[s].name for s in sorted(self.steps)},
            "links": [{"producer": p, "fact": list(f), "consumer": c}
                      for (c, f), p in sorted(self.links.items())],
            "orderings": [{"before": a, "after": b,
                           "reasons": sorted(f"{r.kind}({r.fact.var},{r.fact.val})"
                                             for r in rs)}
                          for (a, b), rs in sorted(reasons.items())],
        }

    def to_dot(self) -> str:
        reasons = self.reasons()
        lines = ["digraph pop {", "  rankdir=TB;"]
        for s in sorted(self.steps):
            shape = "box" if s not in (INIT_ID, GOAL_ID) else "ellipse"
            lines.append(f'  n{s} [label="{self.steps[s].name}", shape={shape}];')
        for (a, b), rs in sorted(reasons.items()):
            label = ", ".join(f"{r.kind}({r.fact.var}={r.fact.val})"
                              for r in sorted(rs, key=reason_sort_key))
            lines.append(f'  n{a} -> n{b} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def validate_pop(task: PlanningTask, pop: PartialOrderPlan) -> ValidationReport:
    return pop.validate()


def flex(pop: PartialOrderPlan) -> FlexScore:
    return pop.flex()


def linearize(pop: PartialOrderPlan, seed: int = 0) -> SequentialPlan:
    return pop.linearize(seed)


def pop_to_json_text(pop: PartialOrderPlan) -> str:
    return json.dumps(pop.to_json(), indent=2, sort_keys=True) + "\n"
