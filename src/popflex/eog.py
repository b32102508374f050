"""Order generalization: turn a valid sequential plan into a POP.

For every consumed fact the earliest producer with no intervening deleter is
committed as the causal link; afterwards every pair of steps in sequence
order receives demotion/promotion commitments wherever one step's deletions
conflict with the other's links.  The result is a flat `BdpoPlan`, one
primitive root block per step with a current closure, which block
deordering and substitution take as it is.
"""

from __future__ import annotations

from .bdpo import CD, DP, GOAL_ID, INIT_ID, BdpoPlan, Reason
from .task import (Fact, PlanningTask, Profile, SequentialPlan,
                   validate_sequential)


class InvalidInput(Exception):
    """Input plan fails sequential validation."""


def generalize(init: Profile, steps: list[Profile], goal: Profile
               ) -> tuple[dict[tuple[int, Fact], int],
                          dict[tuple[int, int], set[Reason]]]:
    """Causal links and demotion/promotion commitments of a valid step
    sequence, given the (consumed, produced, deleted) facts of its steps
    and of the init and goal steps.  Position 0 is the init step, 1 to n
    the steps, n + 1 the goal step; commitments orient with the sequence.
    Of the init and goal steps only what the init step produces and what
    the goal step consumes is read.
    """
    profiles = [init, *steps, goal]
    links: dict[tuple[int, Fact], int] = {}
    supplier: dict[Fact, int] = {}   # earliest producer since the last deleter
    for i, (cons, prod, dels) in enumerate(profiles):
        for fact in sorted(cons):
            if fact in supplier:
                links[(i, fact)] = supplier[fact]
        for fact in dels:
            supplier.pop(fact, None)
        for fact in prod:
            supplier.setdefault(fact, i)

    consumed: list[set[Fact]] = [set() for _ in profiles]
    supplied: list[set[Fact]] = [set() for _ in profiles]
    for (c, fact), p in links.items():
        consumed[c].add(fact)
        supplied[p].add(fact)
    # demotion (consumer before deleter) and promotion (deleter before
    # producer) between real steps
    resolutions: dict[tuple[int, int], set[Reason]] = {}
    for a in range(1, len(steps) + 1):
        dels_a = profiles[a][2]
        for b in range(a + 1, len(steps) + 1):
            reasons = {Reason(CD, f) for f in consumed[a] & profiles[b][2]}
            reasons.update(Reason(DP, f) for f in dels_a & supplied[b])
            if reasons:
                resolutions[(a, b)] = reasons
    return links, resolutions


def eog(task: PlanningTask, plan: SequentialPlan) -> BdpoPlan:
    """Deorder a valid sequential plan; output orderings are a subset of
    the input's total order."""
    report = validate_sequential(task, plan)
    if not report:
        raise InvalidInput(report.reason)

    pop = BdpoPlan(task)
    pop.install_synthetics()
    seq = [INIT_ID] + [pop.add_step(task.operators[i]) for i in plan.steps] \
        + [GOAL_ID]
    profiles = [(b.pre, b.prod, b.dels) for b in map(pop.blocks.get, seq)]
    links, resolutions = generalize(profiles[0], profiles[1:-1], profiles[-1])
    pop.links = {(seq[c], f): seq[p] for (c, f), p in links.items()}
    pop.resolutions = {(seq[a], seq[b]): rs
                       for (a, b), rs in resolutions.items()}
    pop.rebuild_closure()
    return pop
