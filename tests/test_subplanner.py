import dataclasses
import math
import os
import shlex
import sys
import tempfile
import textwrap
import time
import types
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import popflex.subplanner as subplanner
from popflex.bdpo import block_deorder
from popflex.corpus import (ELEVATOR_PLAN_TEXT, chain_task, elevator_task,
                            random_task)
from popflex.eog import eog
from popflex.fibs import FibsConfig, _scan_basic_edges, build_subtask
from popflex.subplanner import (Subtask, _h_add, _Relaxation, _tables,
                                _TaskTables, solve_subtask)
from popflex.task import (Fact, OperatorDef, PlanningTask, Variable,
                          apply_op, make_operator, validate_sequential)

from references import (reference_h_add, reference_proved_empty,
                        reference_solve_subtask)


def test_elevator_second_lift_subplan_found():
    task = elevator_task()
    p2 = next(i for i, v in enumerate(task.variables) if v.name == "pos-p2")
    goal = {p2: task.variables[p2].values.index("at-n2")}
    st = Subtask(base=task, init=dict(task.init), goal=goal,
                 cost_bound=4, max_len=16)
    plans = solve_subtask(st)
    assert plans
    names = [tuple(p.names(task)) for p in plans]
    assert ("board p2 n1 e2", "move_up e2 n1 n2", "leave p2 n2 e2") in names
    # cheapest first
    costs = [p.cost(task) for p in plans]
    assert costs == sorted(costs)
    for p in plans:
        assert p.cost(task) <= 4
        assert validate_sequential(st.as_task(), p)


def test_goal_in_init_yields_empty_plan_first():
    task, _ = chain_task(3)
    st = Subtask(base=task, init={0: 1}, goal={0: 1}, cost_bound=2, max_len=4)
    plans = solve_subtask(st)
    assert plans and plans[0].steps == []


@pytest.mark.parametrize("caps", [{"max_plans": 0}, {"max_plans": -5},
                                  {"max_expansions": 0},
                                  {"max_plans": math.nan},
                                  {"max_expansions": math.nan}])
def test_a_subtask_rejects_a_cap_below_1(caps):
    """A NaN cap, which is not at least 1 either, would never bind."""
    task, _ = chain_task(3)
    with pytest.raises(ValueError, match=f"{next(iter(caps))} must be at "
                                         "least 1"):
        Subtask(base=task, init={0: 1}, goal={0: 1}, cost_bound=2,
                max_len=4, **caps)


@pytest.mark.parametrize("time_bound", [math.nan, -1.0])
def test_a_subtask_rejects_a_clock_that_cannot_bound_it(time_bound):
    """NaN never times out and a negative bound stops at the first clock
    check; both fail as `FibsConfig` fails them for `subtask_time`."""
    task, _ = chain_task(3)
    with pytest.raises(ValueError, match="time_bound must be a nonnegative "
                                         "number of seconds"):
        Subtask(base=task, init={0: 1}, goal={0: 1}, cost_bound=2,
                max_len=4, time_bound=time_bound)


@pytest.mark.parametrize("field, bounds", [
    ("cost_bound", {"cost_bound": -1, "max_len": 3}),
    ("max_len", {"cost_bound": 2, "max_len": -1}),
    ("cost_bound", {"cost_bound": math.nan, "max_len": 3}),
    ("max_len", {"cost_bound": 2, "max_len": math.nan})])
def test_a_subtask_rejects_a_negative_bound(field, bounds):
    """Below 0 even the empty plan is out of bounds, though the search
    would return it for an initial state that meets the goal.  A NaN
    bound, which is not nonnegative either, would prune nothing; a NaN
    `max_len` left the search without its heuristic table."""
    task, _ = chain_task(2)
    with pytest.raises(ValueError, match=f"{field} must be nonnegative, "
                                         f"not {bounds[field]!r}"):
        Subtask(base=task, init=dict(task.init), goal={0: task.init[0]},
                **bounds)


def test_a_subtask_rejects_a_planner_cmd_field():
    task, _ = chain_task(3)
    with pytest.raises(ValueError, match=r"field \{print\}"):
        Subtask(base=task, init={0: 1}, goal={0: 1}, cost_bound=2,
                max_len=4, planner_cmd="awk '{print}' {sas}")


def test_an_initial_state_that_meets_the_goal_gives_one_empty_plan():
    """The search's first pop is the initial state, so its empty plan
    comes out once, however low the caps, where operators apply (at a)
    and where none does (at c)."""
    task = _branching_task()
    for loc in (0, 2):
        for caps in ({"max_plans": 1}, {"max_expansions": 1}, {}):
            st = Subtask(base=task, init={0: loc}, goal={0: loc},
                         cost_bound=3, max_len=4, **caps)
            assert _steps(solve_subtask(st)) == [[]]


def test_unreachable_goal_gives_no_plans():
    task, _ = chain_task(3)
    st = Subtask(base=task, init={0: 2}, goal={0: 0}, cost_bound=5, max_len=6)
    assert solve_subtask(st) == []


def test_cost_bound_is_respected():
    task, _ = chain_task(5)
    st = Subtask(base=task, init={0: 0}, goal={0: 5}, cost_bound=4, max_len=10)
    assert solve_subtask(st) == []


def _branching_task():
    # two routes of different cost to the same goal
    variables = [Variable("loc", ("a", "b", "c"))]
    ops = [make_operator("cheap a->c", [(0, 0)], [(0, 2)], cost=3),
           make_operator("a->b", [(0, 0)], [(0, 1)], cost=1),
           make_operator("b->c", [(0, 1)], [(0, 2)], cost=1)]
    return PlanningTask(variables, ops, {0: 0}, {0: 2})


def test_multiple_plans_in_cost_order():
    task = _branching_task()
    st = Subtask(base=task, init=dict(task.init), goal=dict(task.goal),
                 cost_bound=3, max_len=4, max_plans=10)
    plans = solve_subtask(st)
    assert [p.cost(task) for p in plans] == [2, 3]


def test_determinism():
    task = elevator_task()
    p2 = next(i for i, v in enumerate(task.variables) if v.name == "pos-p2")
    goal = {p2: task.variables[p2].values.index("at-n2")}
    st = Subtask(base=task, init=dict(task.init), goal=goal,
                 cost_bound=4, max_len=12)
    a = [tuple(p.steps) for p in solve_subtask(st)]
    b = [tuple(p.steps) for p in solve_subtask(st)]
    assert a == b


def test_external_planner_hook(tmp_path):
    """Of the plan files, only those that parse, execute and keep within
    the subtask's cost bound and `max_len` count."""
    task, _ = chain_task(2)
    script = tmp_path / "fake-planner.py"
    script.write_text(textwrap.dedent("""\
        import sys
        sas, prefix = sys.argv[1], sys.argv[2]
        with open(prefix + ".1", "w") as fh:
            fh.write("(advance 0)\\n(advance 1)\\n")
        with open(prefix + ".2", "w") as fh:
            fh.write("(not a real line\\n")
        with open(prefix + ".3", "w") as fh:
            fh.write("(advance 1)\\n(advance 0)\\n")
        """))
    cmd = f"{sys.executable} {script} {{sas}} {{plans}}"
    st = Subtask(base=task, init={0: 0}, goal={0: 2}, cost_bound=4, max_len=4,
                 planner_cmd=cmd)
    plans = solve_subtask(st)
    assert len(plans) == 1
    assert plans[0].steps == [0, 1]
    # the one plan that executes costs 2 and has 2 steps
    for bounds in ({"cost_bound": 1, "max_len": 4},
                   {"cost_bound": 4, "max_len": 1}):
        st = Subtask(base=task, init={0: 0}, goal={0: 2}, planner_cmd=cmd,
                     **bounds)
        assert solve_subtask(st) == []


def test_external_planner_plans_come_cheapest_first(tmp_path):
    """The plan files are read in name order, and their plans are sorted
    like the internal search's."""
    task = elevator_task()
    detour = ELEVATOR_PLAN_TEXT + "(move_up e1 n2 n3)\n(move_down e1 n3 n2)\n"
    script = tmp_path / "fake-planner.py"
    script.write_text(textwrap.dedent(f"""\
        import sys
        prefix = sys.argv[1]
        with open(prefix + ".1", "w") as fh:
            fh.write({detour!r})
        with open(prefix + ".2", "w") as fh:
            fh.write({ELEVATOR_PLAN_TEXT!r})
        """))
    st = Subtask(base=task, init=dict(task.init), goal=dict(task.goal),
                 cost_bound=11, max_len=11,
                 planner_cmd=f"{shlex.quote(sys.executable)} "
                             f"{shlex.quote(str(script))} {{plans}}")
    assert [p.cost(task) for p in solve_subtask(st)] == [9, 11]


def _tuple_state(state: dict[int, int]) -> tuple:
    """A full state as the search holds it: its values in variable order."""
    return tuple(state[v] for v in range(len(state)))


def _sweep_h_add(operators, state, goal):
    """Reference h_add: sweep every operator until no fact gets cheaper."""
    cost = {(v, d): 0 for v, d in state.items()}
    changed = True
    while changed:
        changed = False
        for op in operators:
            if any(f not in cost for f in op.pre):
                continue
            new_cost = op.cost + sum(cost[f] for f in op.pre)
            for f in op.eff:
                if new_cost < cost.get(f, float("inf")):
                    cost[f] = new_cost
                    changed = True
    if any(f not in cost for f in goal.items()):
        return None
    return sum(cost[f] for f in goal.items())


@hst.composite
def relaxed_queries(draw):
    """A random task's operators, some at cost 0 and possibly one with a
    precondition listed twice, with a random full state and a goal of 0 to
    3 facts (often unreachable)."""
    task, _ = random_task(draw(hst.integers(0, 10_000)), max_vars=6,
                          max_steps=10)
    ops = [dataclasses.replace(op, cost=0) if draw(hst.booleans()) else op
           for op in task.operators]
    sizes = [len(v.values) for v in task.variables]
    if draw(hst.booleans()):
        f = Fact(0, draw(hst.integers(0, sizes[0] - 1)))
        g = Fact(1, draw(hst.integers(0, sizes[1] - 1)))
        ops.append(OperatorDef("twice", (f, f), (g,), draw(hst.integers(0, 2))))
    state = {v: draw(hst.integers(0, n - 1)) for v, n in enumerate(sizes)}
    goal_vars = draw(hst.lists(hst.integers(0, len(sizes) - 1), max_size=3,
                               unique=True))
    goal = {v: draw(hst.integers(0, sizes[v] - 1)) for v in goal_vars}
    return ops, state, goal


@settings(max_examples=300, deadline=None)
@given(relaxed_queries())
def test_h_add_and_successors_match_naive_references(query):
    ops, state, goal = query
    tables = _TaskTables(ops)
    expected = _sweep_h_add(ops, state, goal)
    got = _h_add(_Relaxation(tables, goal), _tuple_state(state))
    assert got == expected and type(got) is type(expected)
    applicable = [i for i, op in enumerate(ops)
                  if all(state.get(f.var) == f.val for f in op.pre)]
    assert tables.successors.applicable(_tuple_state(state)) == applicable


@settings(max_examples=300, deadline=None)
@given(relaxed_queries())
def test_an_effect_off_the_relaxation_leaves_h_add_unchanged(query):
    """An operator that sets no variable of a relaxed fact cannot change
    h_add, whatever the state it is applied to; the writers of the relaxed
    variables are the other operators.  Each operator's effect pairs are
    its effect map's."""
    ops, state, goal = query
    tables = _TaskTables(ops)
    rx = _Relaxation(tables, goal)
    relaxed_vars = {v for v, _ in rx.facts}
    assert rx.variables == tuple(sorted(relaxed_vars))
    assert tables.effects == [tuple(op.eff_map().items()) for op in ops]
    h = _h_add(rx, _tuple_state(state))
    for eff in tables.effects:
        if relaxed_vars.isdisjoint(v for v, _ in eff):
            assert _h_add(rx, _tuple_state({**state, **dict(eff)})) == h
    assert {i for v in relaxed_vars for i in tables.writers.get(v, ())} == \
        {i for i, eff in enumerate(tables.effects)
         if not relaxed_vars.isdisjoint(v for v, _ in eff)}


def test_h_add_counts_a_repeated_precondition_twice():
    make_x = make_operator("make x", [], [(0, 1)], cost=2)
    twice = OperatorDef("twice", (Fact(0, 1), Fact(0, 1)), (Fact(1, 1),), 0)
    state, goal = {0: 0, 1: 0}, {1: 1}
    assert _sweep_h_add([make_x, twice], state, goal) == 4
    assert _h_add(_Relaxation(_TaskTables([make_x, twice]), goal),
                  _tuple_state(state)) == 4


def test_subtasks_of_one_task_share_its_tables():
    """Two subtasks of one task with different goals are solved over one
    set of task tables, and each gets what a fresh build gives it."""
    task = elevator_task()
    var = {v.name: i for i, v in enumerate(task.variables)}

    def at(name, value):
        return {var[name]: task.variables[var[name]].values.index(value)}

    goals = [at("pos-p2", "at-n2"), {**at("pos-p1", "at-n3"),
                                      **at("lift-e1", "at-n1")}]
    shared = []
    for goal in goals:
        st = Subtask(base=task, init=dict(task.init), goal=goal,
                     cost_bound=6, max_len=12)
        plans = solve_subtask(st)
        shared.append(_tables(task))
        fresh_task = dataclasses.replace(task)
        assert _tables(fresh_task) is not shared[-1]
        fresh = solve_subtask(dataclasses.replace(st, base=fresh_task))
        assert plans and [p.steps for p in plans] == [p.steps for p in fresh]
        for plan in plans[:3]:
            state = dict(task.init)
            for i in plan.steps:
                expected = _sweep_h_add(task.operators, state, goal)
                packed = _tuple_state(state)
                assert _h_add(_Relaxation(shared[-1], goal), packed) \
                    == expected
                assert _h_add(_Relaxation(_TaskTables(task.operators), goal),
                              packed) == expected
                state = apply_op(task.operators[i], state)
    assert shared[0] is shared[1]


def test_external_planner_paths_with_spaces(tmp_path, monkeypatch):
    task, _ = chain_task(2)
    spaced = tmp_path / "a dir with spaces"
    spaced.mkdir()
    script = spaced / "fake planner.py"
    script.write_text(textwrap.dedent("""\
        import sys
        sas, prefix = sys.argv[1], sys.argv[2]
        with open(sas) as fh:
            assert fh.read().startswith("begin_version")
        with open(prefix + ".1", "w") as fh:
            fh.write("(advance 0)\\n(advance 1)\\n")
        """))
    monkeypatch.setattr(tempfile, "tempdir", str(spaced))
    st = Subtask(base=task, init={0: 0}, goal={0: 2}, cost_bound=4, max_len=4,
                 planner_cmd=f"{shlex.quote(sys.executable)} "
                             f"{shlex.quote(str(script))} {{sas}} {{plans}}")
    plans = solve_subtask(st)
    assert [p.steps for p in plans] == [[0, 1]]


def _pid_gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_external_planner_timeout_kills_its_process_group(tmp_path):
    task, _ = chain_task(2)
    pid_file = tmp_path / "child.pid"
    script = tmp_path / "slow-planner.py"
    script.write_text(textwrap.dedent("""\
        import subprocess, sys, time
        child = subprocess.Popen(["sleep", "30"])
        with open(sys.argv[1], "w") as fh:
            fh.write(str(child.pid))
        time.sleep(30)
        """))
    st = Subtask(base=task, init={0: 0}, goal={0: 2}, cost_bound=4,
                 max_len=4, time_bound=2.0,
                 planner_cmd=f"{shlex.quote(sys.executable)} "
                             f"{shlex.quote(str(script))} "
                             f"{shlex.quote(str(pid_file))}")
    start = time.monotonic()
    assert solve_subtask(st) == []
    assert time.monotonic() - start < st.time_bound + 2.0
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 5.0
    while not _pid_gone(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _pid_gone(child)


def test_a_length_bound_past_the_cost_cap_finds_the_same_plans():
    """Every operator costs at least the task's least cost, so a search at
    depth cost_bound // least has no successor within the cost bound: any
    larger length bound pops the same nodes and gives the same plans, also
    when the expansion cap stops the search."""
    config = FibsConfig(max_plans=3, subtask_time=math.inf)
    compared = cut_short = 0
    for seed in range(40):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        least = min(op.cost for op in task.operators)
        assert least > 0
        flat = eog(task, seq)
        for plan in (flat, block_deorder(flat)):
            for a, b in _scan_basic_edges(plan):
                for excluded, target in ((a, b), (b, a)):
                    st = build_subtask(task, plan, excluded, target, config)
                    cap = st.cost_bound // least
                    found = []
                    for expansions in (2, 3, 1500):
                        plans = [p.steps for p in solve_subtask(
                            dataclasses.replace(st, max_len=cap,
                                                max_expansions=expansions))]
                        for extra in (1, 5):
                            wider = solve_subtask(dataclasses.replace(
                                st, max_len=cap + extra,
                                max_expansions=expansions))
                            assert [p.steps for p in wider] == plans
                            compared += 1
                        found.append(plans)
                    cut_short += found[0] != found[-1]
    assert compared > 1000 and cut_short > 0


@hst.composite
def search_subtasks(draw):
    """A subtask of a random task: a random full initial state, a goal of
    1 to 3 facts (often out of reach within the bounds), small cost and
    length bounds and an expansion cap that may bind.  In a quarter of the
    tasks some operators are free, so `solve_subtask` runs no proof."""
    task, _ = random_task(draw(hst.integers(0, 10_000)), max_vars=6,
                          max_steps=10)
    ops = task.operators
    if draw(hst.integers(0, 3)) == 0:
        ops = [dataclasses.replace(op, cost=0) if draw(hst.booleans()) else op
               for op in ops]
    sizes = [len(v.values) for v in task.variables]
    init = {v: draw(hst.integers(0, n - 1)) for v, n in enumerate(sizes)}
    goal_vars = draw(hst.lists(hst.integers(0, len(sizes) - 1), min_size=1,
                               max_size=3, unique=True))
    goal = {v: draw(hst.integers(0, sizes[v] - 1)) for v in goal_vars}
    base = PlanningTask(task.variables, ops, dict(init), dict(goal))
    return Subtask(base=base, init=init, goal=goal,
                   cost_bound=draw(hst.integers(0, 10)),
                   max_len=draw(hst.integers(0, 10)), time_bound=math.inf,
                   max_plans=draw(hst.integers(1, 10)),
                   max_expansions=draw(hst.sampled_from(
                       (1, 2, 3, 5, 8, 13, 30, 100, 2000))))


def _steps(plans):
    return [p.steps for p in plans]


def test_a_subtask_proved_empty_has_no_plan():
    """Wherever the proof says that no plan fits the cost bound, the search
    without the proof finds none, within the subtask's caps or far past
    them."""
    proved = []

    @settings(max_examples=400, deadline=None)
    @given(search_subtasks())
    def check(st):
        tables = _tables(st.base)
        rx = _Relaxation(tables, st.goal)
        if not subplanner._proved_empty(st, tables, rx, {}, math.inf):
            return
        proved.append(st)
        wide = dataclasses.replace(st, max_expansions=100_000,
                                   max_len=max(st.max_len, st.cost_bound + 1))
        with mock.patch.object(subplanner, "_proved_empty",
                               lambda *args: False):
            assert solve_subtask(st) == []
            assert solve_subtask(wide) == []

    check()
    assert len(proved) >= 20


def test_the_leaf_goal_test_finds_the_plans_of_queueing_every_leaf():
    """Goal-testing the children at the length bound instead of queueing
    them gives the plans of the search that queues every leaf, also where
    the expansion cap binds and the search runs again."""
    search = subplanner._search
    restarts, found = [], []

    def recorded(*args):
        out = search(*args)
        if out is None:
            restarts.append(args[0])
        return out

    chain, _ = chain_task(3)

    @settings(max_examples=400, deadline=None)
    @given(search_subtasks())
    # the cap forces a restart; the cap lets the plan out; no plan exists
    @example(_dead_ends_subtask(4, 10))
    @example(_dead_ends_subtask(4, 11))
    @example(Subtask(base=chain, init={0: 2}, goal={0: 0}, cost_bound=5,
                     max_len=6, time_bound=math.inf))
    def check(st):
        with mock.patch.object(subplanner, "_search", recorded):
            plans = _steps(solve_subtask(st))
        with mock.patch.object(subplanner, "_search",
                               lambda *args: search(*args[:-1], True)), \
                mock.patch.object(subplanner, "_proved_empty",
                                  lambda *args: False):
            assert plans == _steps(solve_subtask(st))
        found.append(bool(plans))

    check()
    assert restarts and any(found) and not all(found)


def _relaxation_first(st: Subtask) -> list[list[int]]:
    """The plans of the subtask as the search found them when every search
    built the goal's relaxation, scored the initial state and ran the
    proof where it applies before searching."""
    tables = _tables(st.base)
    rx = _Relaxation(tables, st.goal)
    h0 = _h_add(rx, subplanner._start_state(st))
    if h0 is None:
        return []
    least = tables.least_cost
    if (least > 0 and st.max_len >= st.cost_bound // least
            and subplanner._proved_empty(st, tables, rx, {}, math.inf)):
        return []
    found = subplanner._search(st, tables, rx, h0, {}, math.inf, False)
    if found is None:
        found = subplanner._search(st, tables, rx, h0, {}, math.inf, True)
    found.sort(key=lambda p: (p.cost(st.base), tuple(p.steps)))
    return _steps(found)


def test_a_one_step_search_finds_the_plans_of_the_relaxation_first():
    """A search with a length bound of at most 1 reads no h: it finds the
    plans that building the relaxation and running the proof first found,
    and scores nothing unless the expansion cap makes it search again with
    every leaf queued."""
    search, h_add = subplanner._search, subplanner._h_add
    restarts, scored = [], []

    def recorded(*args):
        out = search(*args)
        if out is None:
            restarts.append(args[0])
        return out

    def counted(*args):
        scored.append(args[1])
        return h_add(*args)

    @settings(max_examples=400, deadline=None)
    @given(search_subtasks(), hst.integers(0, 1),
           hst.sampled_from((1, 2, 3, 5, 2000)))
    # "cheap a->c" reaches the goal and "a->b" is a leaf past the cap
    @example(Subtask(base=_branching_task(), init={0: 0}, goal={0: 2},
                     cost_bound=3, max_len=1, time_bound=math.inf), 1, 1)
    def check(st, max_len, cap):
        st = dataclasses.replace(st, max_len=max_len, max_expansions=cap)
        before = len(restarts)
        with mock.patch.object(subplanner, "_search", recorded), \
                mock.patch.object(subplanner, "_h_add", counted):
            plans = _steps(solve_subtask(st))
        if len(restarts) == before:
            assert not scored
        scored.clear()
        assert plans == _relaxation_first(st)

    check()
    assert restarts


def _mutex_task(bits: int) -> PlanningTask:
    """`done` needs every bit set and both of `a` and `b`, but `a` and `b`
    can each be set only while the other is clear, so `done` is out of
    reach although the delete relaxation reaches it.  Every operator is
    relevant to `done`, and the 3 * 2**bits states within reach all fit a
    cost bound of 3 * bits."""
    flags = [f"bit{i}" for i in range(bits)] + ["a", "b", "done"]
    a, b, done = bits, bits + 1, bits + 2
    ops = []
    for i in range(bits):
        ops.append(make_operator(f"set {i}", [(i, 0)], [(i, 1)]))
        ops.append(make_operator(f"clear {i}", [(i, 1)], [(i, 0)]))
    ops.append(make_operator("set a", [(a, 0), (b, 0)], [(a, 1)]))
    ops.append(make_operator("set b", [(b, 0), (a, 0)], [(b, 1)]))
    ops.append(make_operator("clear a", [(a, 1)], [(a, 0)]))
    ops.append(make_operator("clear b", [(b, 1)], [(b, 0)]))
    ops.append(make_operator("finish", [(i, 1) for i in range(bits + 2)],
                             [(done, 1)]))
    variables = [Variable(name, ("0", "1")) for name in flags]
    return PlanningTask(variables, ops, dict.fromkeys(range(bits + 3), 0),
                        {done: 1})


def _mutex_subtask(**kwargs) -> Subtask:
    task = _mutex_task(8)
    return Subtask(base=task, init=dict(task.init), goal=dict(task.goal),
                   cost_bound=24, max_len=24, time_bound=math.inf, **kwargs)


def _solve_recorded(st: Subtask):
    """The subtask's plans, the proof's verdicts and the searches run."""
    proof, search = subplanner._proved_empty, subplanner._search
    verdicts, searches = [], []

    def proved(*args):
        verdicts.append(proof(*args))
        return verdicts[-1]

    def searched(*args):
        searches.append(args[-1])
        return search(*args)

    with mock.patch.object(subplanner, "_proved_empty", proved), \
            mock.patch.object(subplanner, "_search", searched):
        return solve_subtask(st), verdicts, searches


def test_the_proof_gives_up_at_the_expansion_cap_and_the_search_runs():
    plans, verdicts, searches = _solve_recorded(
        _mutex_subtask(max_expansions=100_000))
    assert (plans, verdicts, searches) == ([], [True], [])
    plans, verdicts, searches = _solve_recorded(
        _mutex_subtask(max_expansions=200))
    assert (plans, verdicts, searches) == ([], [False], [False])


def test_the_proof_gives_up_at_the_deadline_and_the_search_runs():
    """A clock that passes the subtask's deadline after its first reading:
    the proof, which needs far more than 256 pops, gives up at its first
    clock check instead of saying that no plan exists."""
    readings = iter([0.0])
    clock = types.SimpleNamespace(monotonic=lambda: next(readings, 10.0))
    st = _mutex_subtask(max_expansions=100_000)
    st.time_bound = 1.0
    with mock.patch.object(subplanner, "time", clock):
        plans, verdicts, searches = _solve_recorded(st)
    assert (plans, verdicts, searches) == ([], [False], [False])


def _dead_ends_subtask(k: int, cap: int) -> Subtask:
    """The cheap route to y=1 passes k dead ends: from each of x=b_i one
    step leads to the leaf x=c_i, one step short of the goal.  The dear
    route goes through x=a.  Two steps at most, one plan at most and `cap`
    expansions."""
    xs = ["s", "a", *(f"b{i}" for i in range(k)), *(f"c{i}" for i in range(k))]
    x = {name: i for i, name in enumerate(xs)}
    ops = [make_operator("to a", [(0, x["s"])], [(0, x["a"])]),
           make_operator("from a", [(0, x["a"])], [(1, 1)], cost=3)]
    for i in range(k):
        ops += [make_operator(f"to b{i}", [(0, x["s"])], [(0, x[f"b{i}"])]),
                make_operator(f"to c{i}", [(0, x[f"b{i}"])],
                              [(0, x[f"c{i}"])]),
                make_operator(f"quick {i}", [(0, x[f"c{i}"])], [(1, 1)])]
    task = PlanningTask([Variable("x", tuple(xs)), Variable("y", ("0", "1"))],
                        ops, {0: x["s"], 1: 0}, {1: 1})
    return Subtask(base=task, init=dict(task.init), goal=dict(task.goal),
                   cost_bound=4, max_len=2, max_plans=1, max_expansions=cap,
                   time_bound=math.inf)


def test_the_expansion_cap_counts_the_leaves_left_unqueued():
    """In `_dead_ends_subtask`, queued, each leaf pops before x=a, so
    x=a's goal child is the (2k + 3)-th pop.  The leaf goal-test pops it as
    the (k + 3)-th, and has to search again, with the leaves queued,
    exactly when the cap is below 2k + 3."""
    k = 4
    for cap, plans, searches in ((2 * k + 2, [], [False, True]),
                                 (2 * k + 3, [[0, 1]], [False])):
        st = _dead_ends_subtask(k, cap)
        found, verdicts, searched = _solve_recorded(st)
        # max_len < cost_bound // least: the proof does not run
        assert (_steps(found), verdicts, searched) == (plans, [], searches)


def test_the_search_finds_the_plans_of_the_dict_state_reference():
    """`solve_subtask` gives the plans of the dict-state search kept in
    `references`, also where the expansion cap makes it search again with
    every leaf queued; the proof of emptiness gives the reference's
    verdict, and h_add the reference's value on the initial state and on
    every state along each plan found."""
    search = subplanner._search
    restarts, verdicts = [], []

    def recorded(*args):
        out = search(*args)
        if out is None:
            restarts.append(args[0])
        return out

    @settings(max_examples=500, deadline=None)
    @given(search_subtasks())
    # the cap forces a restart; the cap lets the plan out
    @example(_dead_ends_subtask(4, 10))
    @example(_dead_ends_subtask(4, 11))
    def check(st):
        with mock.patch.object(subplanner, "_search", recorded):
            plans = solve_subtask(st)
        assert _steps(plans) == _steps(reference_solve_subtask(st))
        tables = _tables(st.base)
        rx = _Relaxation(tables, st.goal)
        verdict = subplanner._proved_empty(st, tables, rx, {}, math.inf)
        assert verdict == reference_proved_empty(st, rx)
        verdicts.append(verdict)
        states = [dict(st.init)]
        for plan in plans:
            state = dict(st.init)
            for i in plan.steps:
                state = apply_op(st.base.operators[i], state)
                states.append(state)
        for state in states:
            assert _h_add(rx, _tuple_state(state)) \
                == reference_h_add(rx, state)

    check()
    assert restarts and True in verdicts and False in verdicts
