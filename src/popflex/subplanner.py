"""Cost-bounded satisficing search for replacement subplans.

Greedy best-first search under an additive delete-relaxation heuristic,
pruning paths whose accumulated cost exceeds the bound.  The search keeps
going after the first solution, banning already-emitted operator multisets,
so several alternative subplans come out; results are sorted by cost and
then by operator index sequence, which makes the whole thing deterministic.

A search state is a tuple over every variable of the task, in index
order, None where the subtask leaves a variable unset, and the tuple is
also the state's key.  A successor copies its parent's tuple and rebinds
the variables of the operator's effect by index; the goal test reads the
goal's (var, val) pairs by index too.

The tables that depend only on the task (the achievers of each fact, the
writers of each variable, an index of the operators by their first
precondition fact, each operator's effect as (var, val) pairs, the least
operator cost) are built once per task and kept on it, so the subtasks of
one run share them.  Each search that reads h compiles its goal once:
h_add is computed over the operators backward-relevant to the goal only,
by a single priority-queue pass per state, seeded from the values of the
relaxation's own variables alone.  An operator that sets none of those
variables cannot change h_add, so its successor takes the popped state's
h without a pass; the writers of the relaxation's variables are the
operators that can.  The applicable operators of each state go
into a table that the caller may share between searches; `fibs` keeps one
for the whole run, so a state that an earlier subtask of the run expanded
is not matched again.  The search still branches over every applicable
operator, so it gives exactly the plans of a sweep over all operators.
Where every operator costs something, a length bound past the most steps
the cost bound affords changes no plan, and `capped_length` lowers it
there.

Three cuts skip work that cannot change the plans:

- Proof of emptiness.  Where every operator costs at least `least > 0` and
  the length bound is at least `cost_bound // least`, so that it cuts no
  path within the cost bound, a depth-first search over the goal's
  backward-relevant operators runs first.  When it exhausts every state
  within the cost bound without meeting the goal, no plan exists and the
  search returns none; this is exact (see `_proved_empty`).  It gives up,
  and the search runs as before, at its first goal state, after
  max_expansions pops, or at the deadline.
- Leaves at the length bound.  A child at the length bound is never
  expanded, so it is goal-tested when it is made instead of being scored
  and queued.  This is exact unless the expansion cap could bind: once the
  expansions and the leaves left unqueued together pass the cap, the
  search runs again from the start with every leaf queued and scored.
- One-step searches.  A search whose length bound is at most 1 expands
  the initial state alone and goal-tests its children, so it reads no h.
  It builds no relaxation and runs no proof, which could only show what
  that one expansion shows.  Only the rerun with every leaf queued, when
  the expansion cap forces it, builds the relaxation.

The search stops after max_plans plans, max_expansions expansions or the
subtask's time bound, whichever comes first.  A subtask whose `planner_cmd`
is set goes to that external planner instead, a subprocess that reads
SAS+ and writes plan files; its plans are sorted the same way.
"""

from __future__ import annotations

import glob as globmod
import heapq
import logging
import os
import shlex
import signal
import string
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from .task import (OperatorDef, PlanningTask, SequentialPlan, State,
                   UnknownOperator, emit_sas, parse_plan,
                   validate_sequential)

logger = logging.getLogger(__name__)

# a search state: one value per variable of the task, None where unset
SearchState = tuple[Optional[int], ...]


def check_planner_cmd(cmd: str) -> None:
    """Raise ValueError, naming the field, unless every format field of an
    external planner command is {sas} or {plans}; {{ and }} are literal
    braces."""
    try:
        fields = [(name, conv, spec) for _, name, spec, conv
                  in string.Formatter().parse(cmd) if name is not None]
    except ValueError as exc:
        raise ValueError(f"planner command {cmd!r}: {exc}; "
                         "write {{ and }} for literal braces") from None
    for name, conv, spec in fields:
        if name not in ("sas", "plans") or conv or spec:
            field = name + (f"!{conv}" if conv else "") \
                + (f":{spec}" if spec else "")
            raise ValueError(
                f"planner command field {{{field}}} is not {{sas}} or "
                "{plans}; write {{ and }} for literal braces")


def check_limits(obj, names: tuple[str, ...], floor: float, rule: str
                 ) -> None:
    """Raise ValueError, naming the field, unless each field of `obj` in
    `names` is at least `floor`; `rule` says so in words.  NaN fails, as
    it compares false with everything."""
    for name in names:
        value = getattr(obj, name)
        if not value >= floor:
            raise ValueError(f"{name} must be {rule}, not {value!r}")


@dataclass
class Subtask:
    """A subplanning problem.  `planner_cmd`, when set, is the external
    planner that solves it (see `_solve_external`); None means the
    internal search."""
    base: PlanningTask
    init: State
    goal: dict[int, int]
    cost_bound: int
    max_len: int
    time_bound: float = 5.0
    max_plans: int = 10
    max_expansions: int = 20000
    planner_cmd: Optional[str] = None

    def __post_init__(self) -> None:
        # a cap below 1 would stop `_search` before its first pop, the only
        # place where it goal-tests the initial state; a NaN cap never binds
        check_limits(self, ("max_plans", "max_expansions"), 1, "at least 1")
        # below 0 even the empty plan breaks the bound, yet the search's
        # first goal test would return it; a NaN bound prunes nothing
        check_limits(self, ("cost_bound", "max_len"), 0, "nonnegative")
        # NaN would never time out; a negative bound stops at once
        check_limits(self, ("time_bound",), 0,
                     "a nonnegative number of seconds")
        if self.planner_cmd is not None:
            check_planner_cmd(self.planner_cmd)

    def as_task(self) -> PlanningTask:
        return PlanningTask(self.base.variables, self.base.operators,
                            dict(self.init), dict(self.goal),
                            metric=self.base.metric)


class _TaskTables:
    """What the search needs of a task's operators, whatever the subtask:
    the achievers of each fact, the writers of each variable, the successor
    generator, each operator's effect as (var, val) pairs, one per
    variable, and the least operator cost."""

    __slots__ = ("operators", "achievers", "writers", "successors",
                 "effects", "least_cost")

    def __init__(self, operators: list[OperatorDef]):
        self.operators = operators
        self.least_cost = min((op.cost for op in operators), default=0)
        self.achievers: dict[tuple[int, int], list[int]] = {}
        for i, op in enumerate(operators):
            for f in op.eff:
                self.achievers.setdefault(f, []).append(i)
        self.successors = _SuccessorGenerator(operators)
        self.effects = [tuple(op.eff_map().items()) for op in operators]
        self.writers: dict[int, list[int]] = {}
        for i, eff in enumerate(self.effects):
            for v, _ in eff:
                self.writers.setdefault(v, []).append(i)


def _tables(task: PlanningTask) -> _TaskTables:
    """The task's tables, built on first use and kept on the task."""
    tables = getattr(task, "_search_tables", None)
    if tables is None:
        tables = task._search_tables = _TaskTables(task.operators)
    return tables


def capped_length(task: PlanningTask, cost_bound: int, max_len: int) -> int:
    """`max_len`, lowered to `cost_bound // least` when every operator of
    the task costs at least `least > 0`.  At that depth every successor
    already exceeds the cost bound, so a larger length bound pops the same
    nodes in the same order and gives the same plans."""
    least = _tables(task).least_cost
    return min(max_len, cost_bound // least) if least > 0 else max_len


class _Relaxation:
    """The delete relaxation of the operators backward-relevant to a goal.

    Only those operators can lower the additive cost of a goal fact, so h_add
    over them equals h_add over all operators (Bonet & Geffner 2001).  Facts
    are (var, val) pairs; `variables` are the variables of the facts,
    ascending; operators are numbered locally.
    """

    __slots__ = ("goal", "facts", "variables", "relevant", "pre_of", "n_pre",
                 "cost", "eff", "no_pre")

    def __init__(self, tables: _TaskTables, goal: dict[int, int]):
        operators, achievers = tables.operators, tables.achievers
        self.goal = tuple(sorted(goal.items()))
        self.facts = set(self.goal)
        self.relevant = relevant = set()
        stack = list(self.facts)
        while stack:
            for i in achievers.get(stack.pop(), ()):
                if i in relevant:
                    continue
                relevant.add(i)
                for f in operators[i].pre:
                    if f not in self.facts:
                        self.facts.add(f)
                        stack.append(f)
        self.variables = tuple(sorted({v for v, _ in self.facts}))
        self.pre_of: dict[tuple[int, int], list[int]] = {}
        self.n_pre: list[int] = []
        self.cost: list[int] = []
        self.eff: list[tuple[tuple[int, int], ...]] = []
        self.no_pre: list[int] = []
        for i in sorted(relevant):
            op = operators[i]
            local = len(self.cost)
            for f in op.pre:  # a fact listed twice is counted twice
                self.pre_of.setdefault(f, []).append(local)
            if not op.pre:
                self.no_pre.append(local)
            self.n_pre.append(len(op.pre))
            self.cost.append(op.cost)
            self.eff.append(tuple(f for f in op.eff if f in self.facts))


def _h_add(rx: _Relaxation, state: SearchState) -> Optional[int]:
    """Additive delete-relaxation estimate of the goal of `rx` in `state`;
    None when the goal is unreachable even ignoring deletes.

    One generalized-Dijkstra pass (Knuth 1977): facts are settled cheapest
    first and an operator fires once, when its last precondition settles.
    With nonnegative costs this is the least fixpoint of the sweep
    h(f) = min over achievers of cost(op) + sum of h over its preconditions.
    A fact of the state off the relaxation fires nothing and is no goal,
    so the pass reads only the relaxation's own variables.
    """
    facts = rx.facts
    heap = [(0, f) for v in rx.variables if (f := (v, state[v])) in facts]
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


class _SuccessorGenerator:
    """Applicable operators of a state, found through an index of operators
    by their first precondition fact (cf. Helmert 2006)."""

    __slots__ = ("no_pre", "by_first", "rest")

    def __init__(self, operators: list[OperatorDef]):
        self.no_pre: list[int] = []
        self.by_first: dict[tuple[int, int], list[int]] = {}
        self.rest: list[tuple[tuple[int, int], ...]] = []
        for i, op in enumerate(operators):
            self.rest.append(tuple(op.pre[1:]))
            if op.pre:
                self.by_first.setdefault(op.pre[0], []).append(i)
            else:
                self.no_pre.append(i)

    def applicable(self, state: SearchState) -> list[int]:
        """Indices of the operators applicable in `state`, ascending."""
        out = list(self.no_pre)
        by_first, rest = self.by_first, self.rest
        for f in enumerate(state):
            for i in by_first.get(f, ()):
                for v, d in rest[i]:
                    if state[v] != d:
                        break
                else:
                    out.append(i)
        out.sort()
        return out


def _satisfies(state: SearchState, facts: tuple[tuple[int, int], ...]
               ) -> bool:
    """True when `state` holds every (var, val) pair of `facts`."""
    for v, d in facts:
        if state[v] != d:
            return False
    return True


def _start_state(st: Subtask) -> SearchState:
    """The subtask's initial state as a search state: a tuple over every
    variable of the task, in index order, None where the subtask leaves one
    unset.  A successor rebinds the variables of its operator's effect by
    index, so every state reached from it is a tuple of the same length,
    and the tuple is the state's key."""
    start: list[Optional[int]] = [None] * len(st.base.variables)
    for v, d in st.init.items():
        start[v] = d
    return tuple(start)


def solve_subtask(st: Subtask,
                  successors: Optional[dict[tuple, list[int]]] = None
                  ) -> list[SequentialPlan]:
    """Plans for the subtask, valid and within the cost bound, cheapest first.

    `successors`, when given, maps a search state (a tuple over the task's
    variables, see `_start_state`) to the operators applicable in it.  The
    search fills it, so the subtasks of one task that share it find each
    state's successors once.  A subtask with a `planner_cmd` goes to that
    external planner, which reads no table."""
    if st.planner_cmd is not None:
        plans = _solve_external(st)
    else:
        plans = _solve_gbfs(st, {} if successors is None else successors)
    plans.sort(key=lambda p: (p.cost(st.base), tuple(p.steps)))
    return plans


def _solve_gbfs(st: Subtask, successors: dict[tuple, list[int]]
                ) -> list[SequentialPlan]:
    tables = _tables(st.base)
    deadline = time.monotonic() + st.time_bound
    rx, h0 = None, 0
    if st.max_len > 1:
        rx = _Relaxation(tables, st.goal)
        h0 = _h_add(rx, _start_state(st))
        if h0 is None:
            return []
        least = tables.least_cost
        if (least > 0 and st.max_len >= st.cost_bound // least
                and _proved_empty(st, tables, rx, successors, deadline)):
            return []
    found = _search(st, tables, rx, h0, successors, deadline, False)
    if found is None:
        found = _search(st, tables, rx, h0, successors, deadline, True)
    return found


def _proved_empty(st: Subtask, tables: _TaskTables, rx: _Relaxation,
                  successors: dict[tuple, list[int]], deadline: float
                  ) -> bool:
    """True when no plan of the subtask fits its cost bound.

    Deleting every operator outside the goal's backward-relevant set from a
    valid plan leaves a valid plan, no costlier (Nebel, Dimopoulos &
    Koehler 1997): the last achiever of each goal fact, and of each
    precondition of a relevant operator, is itself relevant.  So a
    depth-first search over the relevant operators alone that exhausts
    every state within the cost bound, and meets no goal state, shows that
    no plan fits it.  The search gives up, and says False, at its first goal
    state, after max_expansions pops or once the deadline has passed."""
    operators, effects = tables.operators, tables.effects
    applicable, relevant = tables.successors.applicable, rx.relevant
    goal, bound = tuple(st.goal.items()), st.cost_bound
    start = _start_state(st)
    if _satisfies(start, goal):
        return False
    best_g = {start: 0}
    stack = [(0, start)]
    pops = 0
    while stack:
        pops += 1
        if pops > st.max_expansions:
            return False
        if pops % 256 == 0 and time.monotonic() > deadline:
            return False
        g, state = stack.pop()
        if best_g[state] < g:
            continue  # reached more cheaply since it was pushed
        ops = successors.get(state)
        if ops is None:
            ops = successors[state] = applicable(state)
        for op_idx in ops:
            if op_idx not in relevant:
                continue
            g2 = g + operators[op_idx].cost
            if g2 > bound:
                continue
            values = list(state)
            for v, d in effects[op_idx]:
                values[v] = d
            state2 = tuple(values)
            prev = best_g.get(state2)
            if prev is not None and g2 >= prev:
                continue
            if _satisfies(state2, goal):
                return False
            best_g[state2] = g2
            stack.append((g2, state2))
    return True


def _search(st: Subtask, tables: _TaskTables, rx: Optional[_Relaxation],
            h0: int, successors: dict[tuple, list[int]], deadline: float,
            queue_leaves: bool) -> Optional[list[SequentialPlan]]:
    """The greedy best-first search, from the subtask's initial state.

    A child at the length bound is never expanded, so its h only decides
    when it is popped, and popping it does nothing but goal-test it and
    count an expansion.  Unless `queue_leaves` is set, such a leaf is
    goal-tested when it is made instead: a goal leaf is queued with h = 0,
    its exact h_add, and any other leaf is only counted.  The other entries
    pop in the same order, so the plans are the same unless the expansion
    cap binds earlier with the leaves popped.  So once the expansions and
    the counted leaves together pass the cap, with at least one leaf
    counted, the search gives None, and the caller runs it again with every
    leaf queued.

    With a length bound of at most 1 and the leaves goal-tested, the search
    expands the initial state alone and reads no h, so `rx` and `h0`, the
    goal's relaxation and the initial state's h, may be None and 0.  With
    the leaves queued it builds them when they are missing.

    The initial state is goal-tested where it is popped, and only there.
    The heap holds it alone at the start, and with `max_plans` and
    `max_expansions` at least 1, which `Subtask` checks, the first pass of
    the loop neither stops nor passes the cap, so it is always the first
    pop: a subtask whose initial state meets its goal gets the empty plan
    exactly once."""
    operators, goal = tables.operators, tuple(st.goal.items())
    applicable, effects = tables.successors.applicable, tables.effects
    start = _start_state(st)
    if rx is None and queue_leaves:
        rx = _Relaxation(tables, st.goal)
        h0 = _h_add(rx, start)
        if h0 is None:
            return []
    if rx is not None:
        # h_add reads a state only through the relaxation's variables, so
        # an operator that sets none of them leaves h as it is
        changes_h = [False] * len(operators)
        for v in rx.variables:
            for i in tables.writers.get(v, ()):
                changes_h[i] = True
    found: list[SequentialPlan] = []
    banned: set[tuple] = set()
    counter = 0
    heap: list[tuple] = [(h0, 0, counter, start, [])]
    best_g: dict[SearchState, int] = {start: 0}
    expansions = leaves = 0
    while heap:
        if len(found) >= st.max_plans:
            break
        expansions += 1
        if expansions + leaves > st.max_expansions:
            if leaves:
                return None
            break
        if expansions % 256 == 0 and time.monotonic() > deadline:
            break
        h, g, _, state, path = heapq.heappop(heap)
        if _satisfies(state, goal):
            multiset = tuple(sorted(path))
            if multiset not in banned:
                banned.add(multiset)
                found.append(SequentialPlan(list(path)))
            # keep searching for alternatives from other queue entries
        if len(path) >= st.max_len:
            continue
        at_leaf = not queue_leaves and len(path) + 1 == st.max_len
        ops = successors.get(state)
        if ops is None:
            ops = successors[state] = applicable(state)
        for op_idx in ops:
            g2 = g + operators[op_idx].cost
            if g2 > st.cost_bound:
                continue
            values = list(state)
            for v, d in effects[op_idx]:
                values[v] = d
            state2 = tuple(values)
            prev = best_g.get(state2)
            if prev is not None and g2 >= prev:
                continue
            best_g[state2] = g2
            if at_leaf:
                if not _satisfies(state2, goal):
                    leaves += 1
                    continue
                h2 = 0
            elif changes_h[op_idx]:
                h2 = _h_add(rx, state2)
                if h2 is None:
                    continue
            else:
                h2 = h
            counter += 1
            heapq.heappush(heap, (h2, g2, counter, state2, path + [op_idx]))
    return found


def _solve_external(st: Subtask) -> list[SequentialPlan]:
    """Run the subtask's `planner_cmd` as a subprocess on it.

    The command may reference {sas} (task file path) and {plans} (output
    prefix), which are substituted shell-quoted, so the command must not
    quote them itself; `check_planner_cmd` accepts no other field, and
    {{ and }} stand for literal braces.  Plan files are collected as
    <prefix>* in IPC plan format.  The planner runs in a process group of
    its own, and the whole group is killed when it overruns the subtask's
    time bound.
    """
    task = st.as_task()
    plans: dict[tuple, SequentialPlan] = {}     # one per step sequence
    with tempfile.TemporaryDirectory(prefix="popflex-planner-") as tmp:
        sas_path = os.path.join(tmp, "task.sas")
        plan_prefix = os.path.join(tmp, "plan")
        with open(sas_path, "w", encoding="utf-8") as fh:
            fh.write(emit_sas(task))
        command = st.planner_cmd.format(sas=shlex.quote(sas_path),
                                        plans=shlex.quote(plan_prefix))
        proc = subprocess.Popen(command, shell=True, cwd=tmp,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            proc.wait(timeout=st.time_bound)
        except subprocess.TimeoutExpired:
            logger.warning("external planner timed out after %.1fs",
                           st.time_bound)
        finally:
            if proc.returncode is None:  # the group leader is not reaped yet
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        for path in sorted(globmod.glob(plan_prefix + "*")):
            with open(path, encoding="utf-8") as fh:
                try:
                    plan = parse_plan(fh.read(), task)
                except (UnknownOperator, UnicodeDecodeError):
                    continue
            if not validate_sequential(task, plan):
                continue
            if plan.cost(task) > st.cost_bound or len(plan.steps) > st.max_len:
                continue
            plans.setdefault(tuple(plan.steps), plan)
    return list(plans.values())
