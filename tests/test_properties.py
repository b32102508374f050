"""Property-based checks over randomly generated tasks and operators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from popflex.bdpo import block_deorder
from popflex.corpus import random_task
from popflex.eog import eog
from popflex.task import (Fact, apply_op, cons_prod_del, emit_sas,
                          make_operator, parse_sas, validate_sequential)


@st.composite
def operators(draw):
    n_vars = draw(st.integers(2, 4))
    sizes = [draw(st.integers(2, 4)) for _ in range(n_vars)]
    pre_vars = draw(st.sets(st.integers(0, n_vars - 1), max_size=n_vars))
    eff_vars = draw(st.sets(st.integers(0, n_vars - 1), min_size=1,
                            max_size=n_vars))
    pre = [(v, draw(st.integers(0, sizes[v] - 1))) for v in sorted(pre_vars)]
    eff = [(v, draw(st.integers(0, sizes[v] - 1))) for v in sorted(eff_vars)]
    return make_operator("op", pre, eff), sizes


@given(operators())
def test_del_set_laws(data):
    op, sizes = data
    cons, prod, dels = cons_prod_del(op, sizes)
    pre = op.pre_map()
    for f in op.eff:
        if f.var in pre:
            # pinned variable: deleted iff the value actually changes
            expected = {Fact(f.var, pre[f.var])} - {f}
            assert {d for d in dels if d.var == f.var} == expected
        else:
            others = {d for d in dels if d.var == f.var}
            assert len(others) == sizes[f.var] - 1
            assert f not in others
    assert not (prod & dels)


@given(operators(), st.data())
def test_apply_deterministic_and_idempotent_on_fixpoints(data, rnd):
    op, sizes = data
    state = {v: rnd.draw(st.integers(0, sizes[v] - 1))
             for v in range(len(sizes))}
    for f in op.pre:
        state[f.var] = f.val
    once = apply_op(op, state)
    assert apply_op(op, state) == once
    if all(once.get(f.var) == f.val for f in op.pre):
        assert apply_op(op, once) == once


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_sas_round_trip(seed):
    task, _ = random_task(seed)
    again = parse_sas(emit_sas(task))
    assert again.variables == task.variables
    assert again.operators == task.operators
    assert again.init == task.init
    assert again.goal == task.goal


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_eog_output_is_deordering_of_input(seed):
    task, plan = random_task(seed)
    pop = eog(task, plan)
    assert pop.validate()
    real = pop.real_steps()
    for i, a in enumerate(real):
        for j, b in enumerate(real):
            if pop.ordered(a, b):
                assert i < j


@given(st.integers(0, 500), st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_linearizations_always_execute(seed, lin_seed):
    task, plan = random_task(seed)
    bdp = block_deorder(eog(task, plan))
    assert validate_sequential(task, bdp.linearize(lin_seed))


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_flex_never_drops_across_deordering(seed):
    task, plan = random_task(seed)
    bdp = eog(task, plan)
    out = block_deorder(bdp)
    assert out.flex().unordered_pairs >= bdp.flex().unordered_pairs
    assert out.flex().total_pairs == bdp.flex().total_pairs
