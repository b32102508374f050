import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popflex.corpus import elevator_plan, elevator_task, micro_corpus
from popflex.task import (Fact, NotApplicable, PlanningTask,
                          PlanSyntaxError, SasSyntaxError, SequentialPlan,
                          UnknownOperator, Unsupported, Variable, apply_op,
                          cons_prod_del, emit_plan, emit_sas, make_operator,
                          parse_plan, parse_sas, validate_sequential)

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


# one variable of three values, so that "0 2" is a fact of the task
THREE_VALUES = MINIMAL_SAS.replace("2\noff\non\n", "3\noff\non\nhigh\n")
FLIP = "flip\n0\n1\n0 0 0 1\n1\n"


@pytest.mark.parametrize("old, new, line, message", [
    # a variable set twice in one operator
    (FLIP, "flip\n1\n0 1\n1\n0 0 0 1\n1\n", "0 0 0 1",
     "operator 'flip' sets variable 0 twice"),
    (FLIP, "flip\n0\n2\n0 0 0 1\n0 0 1 2\n1\n", "0 0 1 2",
     "operator 'flip' sets variable 0 twice"),
    (FLIP, "flip\n2\n0 1\n0 2\n1\n0 0 0 1\n1\n", "0 2",
     "operator 'flip' sets variable 0 twice"),
    # a variable named twice in the goal
    ("begin_goal\n1\n0 1\n", "begin_goal\n2\n0 2\n0 1\n", "0 1",
     "goal names variable 0 twice"),
    # facts out of range
    ("begin_goal\n1\n0 1\n", "begin_goal\n1\n0 7\n", "0 7",
     "goal fact (0=7) out of range"),
    ("begin_goal\n1\n0 1\n", "begin_goal\n1\n1 0\n", "1 0",
     "goal fact (1=0) out of range"),
    ("begin_state\n0\n", "begin_state\n3\n", "3",
     "initial value (0=3) out of range"),
    (FLIP, "flip\n1\n0 -1\n1\n0 0 0 1\n1\n", "0 -1",
     "prevail condition (0=-1) out of range"),
    ("0 0 0 1", "0 0 0 3", "0 0 0 3",
     "effect 0 -> 3 on variable 0 out of range"),
    ("0 0 0 1", "0 0 -2 1", "0 0 -2 1",
     "effect -2 -> 1 on variable 0 out of range"),
    ("0 0 0 1", "0 1 0 1", "0 1 0 1",
     "effect 0 -> 1 on variable 1 out of range"),
    ("end_variable\n0\n", "end_variable\n1\nbegin_mutex_group\n1\n0 5\n"
     "end_mutex_group\n", "0 5", "mutex fact (0=5) out of range"),
    # an empty effect, a negative cost, a repeated operator name
    (FLIP, "flip\n0\n0\n1\n", "0", "expected at least 1, got 0"),
    (FLIP, "flip\n0\n1\n0 0 0 1\n-1\n", "-1", "expected at least 0, got -1"),
    ("1\nbegin_operator\n" + FLIP + "end_operator\n",
     "2\nbegin_operator\n" + FLIP + "end_operator\nbegin_operator\n"
     + FLIP + "end_operator\n", "flip", "duplicate operator name 'flip'"),
    # a negative count, a metric that is no flag, an empty domain
    ("begin_goal\n1\n", "begin_goal\n-1\n", "-1",
     "expected at least 0, got -1"),
    ("begin_metric\n0\n", "begin_metric\n2\n", "2",
     "metric must be 0 or 1, got 2"),
    ("3\noff\non\nhigh\nend_variable", "0\nend_variable", "0",
     "initial value (0=0) out of range"),
], ids=["prevail-then-effect", "effect-twice", "prevail-twice", "goal-twice",
        "goal-value", "goal-variable", "init-value", "prevail-value",
        "effect-post", "effect-pre", "effect-variable", "mutex-fact",
        "empty-effect", "negative-cost", "operator-name", "negative-count",
        "metric", "empty-domain"])
def test_parse_sas_names_the_line_of_a_malformed_task(old, new, line,
                                                      message):
    bad = THREE_VALUES.replace(old, new, 1)
    assert bad != THREE_VALUES
    with pytest.raises(SasSyntaxError) as err:
        parse_sas(bad)
    assert bad.splitlines()[err.value.line_no - 1] == line
    assert str(err.value) == f"line {err.value.line_no}: {message}"


def test_parse_plan_names_the_line_of_a_bad_step():
    task = elevator_task()
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan("(move_down e1 n3 n2)\n(nope)\n", task)
    assert err.value.line_no == 2
    assert str(err.value) == "line 2: unknown operator 'nope'"
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan("; a comment\nmove_down e1 n3 n2\n", task)
    assert err.value.line_no == 2
    # callers that skip a plan naming an unknown operator skip these too
    assert isinstance(err.value, UnknownOperator)


_NUMBER = re.compile(r"-?\d+")
_TOKENS = st.one_of(st.integers(-3, 12).map(str),
                    st.sampled_from(("99999", "x", "1.5", "", "0x1", "--1")))


@st.composite
def _mutated(draw, text: str) -> str:
    """`text` with one to three lines dropped, duplicated, swapped, cut short
    or cut off with the rest of the text, or one number replaced by an
    out-of-range, negative or non-integer token."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "swap", "truncate",
                                     "end", "number")))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif kind == "end":
            del lines[i:]
        else:
            numbers = [(k, m) for k, line in enumerate(lines)
                       for m in _NUMBER.finditer(line)]
            if numbers:
                k, m = draw(st.sampled_from(numbers))
                lines[k] = (lines[k][:m.start()] + draw(_TOKENS)
                            + lines[k][m.end():])
    return "\n".join(lines) + "\n"


_CORPUS = [(emit_sas(task), emit_plan(task, seq), task)
           for _, (task, seq) in sorted(micro_corpus().items())]


def _assert_names_a_line(err, text: str) -> None:
    """The error names a line of the text, or the line after the last one,
    where an early end of the text is reported."""
    assert 1 <= err.line_no <= len(text.splitlines()) + 1
    assert str(err).startswith(f"line {err.line_no}: ")


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(_CORPUS).flatmap(
    lambda case: st.tuples(_mutated(case[0]), _mutated(case[1]),
                           st.just(case[2]))))
def test_mutated_task_and_plan_files_parse_or_name_a_line(case):
    sas, plan, task = case
    try:
        parse_sas(sas)
    except SasSyntaxError as err:
        _assert_names_a_line(err, sas)
    except Unsupported:
        pass
    try:
        parse_plan(plan, task)
    except PlanSyntaxError as err:
        _assert_names_a_line(err, plan)


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


def test_a_task_built_in_python_rejects_a_negative_cost():
    """`parse_sas` rejects a negative cost at its line; a task built
    directly rejects it too, naming the operator.  With `y` at -4, the plan
    [x, y] would cost 1, yet the subplanner's cost pruning cuts it at x."""
    variables = [Variable("a", ("0", "1")), Variable("b", ("0", "1"))]
    x = make_operator("x", [(0, 0)], [(0, 1)], 5)
    y = make_operator("y", [(0, 1)], [(1, 1)], -4)
    with pytest.raises(ValueError, match="operator 'y' has negative cost -4"):
        PlanningTask(variables, [x, y], {0: 0, 1: 0}, {1: 1})
