from pathlib import Path

import pytest

from popflex.corpus import elevator_plan, elevator_task
from popflex.task import (Fact, NotApplicable, SasSyntaxError, SequentialPlan,
                          UnknownOperator, Unsupported, apply_op,
                          cons_prod_del, emit_sas, make_operator, parse_plan,
                          parse_sas, validate_sequential)

MINIMAL_SAS = """\
begin_version
3
end_version
begin_metric
0
end_metric
1
begin_variable
var0
-1
2
off
on
end_variable
0
begin_state
0
end_state
begin_goal
1
0 1
end_goal
1
begin_operator
flip
0
1
0 0 0 1
1
end_operator
0
"""


def test_parse_minimal_sas():
    task = parse_sas(MINIMAL_SAS)
    assert len(task.variables) == 1
    assert len(task.operators) == 1
    op = task.operators[0]
    assert op.pre == (Fact(0, 0),)
    assert op.eff == (Fact(0, 1),)


def test_parse_sas_rejects_axioms():
    bad = MINIMAL_SAS.replace("end_operator\n0\n", "end_operator\n1\n")
    with pytest.raises(Unsupported, match="axiom"):
        parse_sas(bad)


def test_parse_sas_rejects_axiom_layer():
    bad = MINIMAL_SAS.replace("var0\n-1\n", "var0\n0\n")
    with pytest.raises(Unsupported, match="axiom"):
        parse_sas(bad)


def test_parse_sas_rejects_conditional_effects():
    bad = MINIMAL_SAS.replace("0 0 0 1", "1 0 0 0 0 1")
    with pytest.raises(Unsupported, match="conditional"):
        parse_sas(bad)


def test_parse_sas_syntax_error_carries_line():
    with pytest.raises(SasSyntaxError) as err:
        parse_sas("begin_version\nnot-a-number\nend_version\n")
    assert err.value.line_no == 2


def test_parse_sas_short_effect_line_is_syntax_error():
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    text = (corpus / "chain4.sas").read_text()
    line_no = text.splitlines().index("0 0 0 1") + 1
    with pytest.raises(SasSyntaxError) as err:
        parse_sas(text.replace("0 0 0 1", "0 0", 1))
    assert err.value.line_no == line_no


def test_parse_sas_prevail_line_needs_two_fields():
    bad = MINIMAL_SAS.replace("flip\n0\n", "flip\n1\n0\n", 1)
    line_no = bad.splitlines().index("flip") + 3
    with pytest.raises(SasSyntaxError) as err:
        parse_sas(bad)
    assert err.value.line_no == line_no


def test_parse_sas_non_integer_field_is_syntax_error():
    with pytest.raises(SasSyntaxError) as err:
        parse_sas(MINIMAL_SAS.replace("0 0 0 1", "0 0 x 1"))
    assert err.value.line_no == MINIMAL_SAS.splitlines().index("0 0 0 1") + 1


def test_elevator_encoding_matches_walkthrough():
    task = elevator_task()
    assert len(task.variables) == 4
    names = {op.name for op in task.operators}
    assert "board p1 n2 e1" in names
    assert "move_up e2 n1 n2" in names
    assert "move_up e2 n2 n3" not in names  # e2 only serves the lower floors
    plan = elevator_plan(task)
    assert len(plan.steps) == 9
    assert validate_sequential(task, plan)


def test_elevator_sas_round_trip():
    task = elevator_task()
    again = parse_sas(emit_sas(task))
    assert again.variables == task.variables
    assert again.operators == task.operators
    assert again.init == task.init
    assert again.goal == task.goal


def test_parse_plan_empty():
    task = elevator_task()
    plan = parse_plan("", task)
    assert plan.steps == []
    assert plan.cost(task) == 0


def test_parse_plan_unknown_operator():
    task = elevator_task()
    with pytest.raises(UnknownOperator):
        parse_plan("(fly a b)\n", task)


def test_parse_plan_cost_comment_is_advisory(caplog):
    task = elevator_task()
    text = "(move_down e1 n3 n2)\n; cost = 99 (unit cost)\n"
    plan = parse_plan(text, task)
    assert plan.cost(task) == 1


def test_cons_prod_del_pinned_variable():
    op = make_operator("o", [(0, 0)], [(0, 1)])
    cons, prod, dels = cons_prod_del(op, [3])
    assert cons == {Fact(0, 0)}
    assert prod == {Fact(0, 1)}
    assert dels == {Fact(0, 0)}


def test_cons_prod_del_unpinned_variable_deletes_alternatives():
    op = make_operator("o", [], [(0, 1)])
    _, _, dels = cons_prod_del(op, [3])
    assert dels == {Fact(0, 0), Fact(0, 2)}


def test_cons_prod_del_no_value_change():
    op = make_operator("o", [(0, 1)], [(0, 1)])
    _, _, dels = cons_prod_del(op, [3])
    assert dels == frozenset()


def test_apply_progression_on_elevator():
    task = elevator_task()
    state = dict(task.init)
    state = apply_op(task.operators[task.operator_index("move_down e1 n3 n2")],
                     state)
    state = apply_op(task.operators[task.operator_index("board p1 n2 e1")],
                     state)
    p1_var = next(i for i, v in enumerate(task.variables)
                  if v.name == "pos-p1")
    assert task.variables[p1_var].values[state[p1_var]] == "in-e1"


def test_apply_empty_op_is_identity():
    op = make_operator("noop", [], [(0, 0)])
    state = {0: 0, 1: 1}
    assert apply_op(op, state) == state


def test_apply_conflicting_precondition():
    op = make_operator("o", [(0, 1)], [(0, 0)])
    with pytest.raises(NotApplicable):
        apply_op(op, {0: 0})


def test_validate_sequential_elevator_plan():
    task = elevator_task()
    assert validate_sequential(task, elevator_plan(task))


def test_validate_sequential_swapped_steps():
    task = elevator_task()
    plan = elevator_plan(task)
    steps = list(plan.steps)
    steps[1], steps[2] = steps[2], steps[1]
    report = validate_sequential(task, SequentialPlan(steps))
    assert not report
    # moving the lift up first still works; boarding then fails
    assert report.step == 2
    assert "board p1 n2 e1" in report.reason


def test_validate_sequential_empty_plan_goal_in_init():
    task = parse_sas(MINIMAL_SAS.replace("0 1", "0 0"))
    assert validate_sequential(task, SequentialPlan([]))
