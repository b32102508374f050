import json
import os
import sys

import pytest

from popflex.cli import run
from popflex.corpus import (ELEVATOR_PLAN_TEXT, chain_task, elevator_task,
                            scaling_task)
from popflex.eog import eog
from popflex.maxsat import encode_mr
from popflex.subplanner import PLANNER_CMD_ENV
from popflex.task import emit_plan, emit_sas, parse_plan, parse_sas


@pytest.fixture
def elevator_files(tmp_path):
    task = elevator_task()
    sas = tmp_path / "elevator.sas"
    plan = tmp_path / "elevator.plan"
    sas.write_text(emit_sas(task), encoding="utf-8")
    plan.write_text(ELEVATOR_PLAN_TEXT, encoding="utf-8")
    return str(sas), str(plan)


def test_validate_ok(elevator_files, capsys):
    sas, plan = elevator_files
    assert run(["validate", "--task", sas, "--plan", plan]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_failure_exit_code(elevator_files, tmp_path, capsys):
    sas, _ = elevator_files
    bad = tmp_path / "bad.plan"
    bad.write_text("(board p1 n2 e1)\n", encoding="utf-8")
    assert run(["validate", "--task", sas, "--plan", str(bad)]) == 1


def test_validate_names_the_line_of_an_unknown_step(elevator_files, tmp_path,
                                                    capsys):
    sas, _ = elevator_files
    bad = tmp_path / "bad.plan"
    bad.write_text("(move_down e1 n3 n2)\n(nope)\n", encoding="utf-8")
    assert run(["validate", "--task", sas, "--plan", str(bad)]) == 2
    assert capsys.readouterr().err == \
        "error: line 2: unknown operator 'nope'\n"


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]) == 2


def test_flags_only_where_read(elevator_files, capsys):
    sas, plan = elevator_files
    assert run(["eog", "--task", sas, "--plan", plan,
                "--max-plans", "3"]) == 2
    assert run(["flex", "--task", sas, "--plan", plan, "--seed", "1"]) == 2


def test_missing_file_exit_code(tmp_path, capsys):
    assert run(["validate", "--task", str(tmp_path / "nope.sas"),
                "--plan", str(tmp_path / "nope.plan")]) == 2


def test_flex_prints_zero(elevator_files, capsys):
    sas, plan = elevator_files
    assert run(["flex", "--task", sas, "--plan", plan]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_eog_and_block_deorder_outputs(elevator_files, tmp_path, capsys):
    """`eog` writes the flat POP exports, `block-deorder` the block ones."""
    sas, plan = elevator_files
    out = tmp_path / "pop.json"
    dot = tmp_path / "pop.dot"
    assert run(["eog", "--task", sas, "--plan", plan,
                "-o", str(out), "--dot", str(dot)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"steps", "links", "orderings"}
    assert dot.read_text().startswith("digraph pop {")
    assert "PC(" in dot.read_text()

    out2 = tmp_path / "bdpo.json"
    dot2 = tmp_path / "bdpo.dot"
    assert run(["block-deorder", "--task", sas, "--plan", plan,
                "-o", str(out2), "--dot", str(dot2)]) == 0
    assert "flex 0.444444" in capsys.readouterr().out
    assert set(json.loads(out2.read_text())) == {"steps", "blocks", "links",
                                                 "orderings"}
    assert dot2.read_text().startswith("digraph bdpo {")
    assert "cluster_" in dot2.read_text()


def test_fibs_report(elevator_files, tmp_path, capsys):
    sas, plan = elevator_files
    report = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    out = tmp_path / "plan.json"
    assert run(["fibs", "--task", sas, "--plan", plan, "--criteria", "rfo",
                "--reduce", "gj", "--report", str(report),
                "--report-csv", str(csv), "-o", str(out)]) == 0
    rows = json.loads(report.read_text())
    phases = [r["phase"] for r in rows]
    assert phases == ["EOG", "SD1", "BD", "SD2", "REDUCE"]
    assert rows[0]["flex_after"] == "0.000000"
    assert rows[2]["flex_after"] == "0.444444"
    assert float(rows[3]["flex_after"]) >= 0.54
    assert rows[-1]["cost_after"] == 7
    assert rows[-1]["flex_vs_input"] == "0.750000"
    assert "elapsed" not in rows[0]
    assert csv.read_text().splitlines()[0].startswith("accepted,")


@pytest.mark.parametrize("flag, value", [
    ("--max-plans", "0"), ("--max-plans", "-3"), ("--max-expansions", "0"),
    ("--subtask-time", "-1"), ("--subtask-time", "nan"),
    ("--time-limit", "-0.5"), ("--time-limit", "nan")])
def test_fibs_rejects_a_setting_that_turns_substitution_off(
        elevator_files, tmp_path, capsys, flag, value):
    """Each would let the run finish and substitute nothing, so `fibs`
    refuses it before it reads a file or writes one."""
    sas, plan = elevator_files
    out = tmp_path / "plan.json"
    assert run(["fibs", "--task", sas, "--plan", plan, flag, value,
                "-o", str(out)]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def test_fibs_report_with_timings(elevator_files, tmp_path):
    sas, plan = elevator_files
    report = tmp_path / "report.json"
    assert run(["fibs", "--task", sas, "--plan", plan,
                "--report", str(report), "--with-timings"]) == 0
    assert "elapsed" in json.loads(report.read_text())[0]


def test_reduce_emits_sequential_plan(elevator_files, tmp_path, capsys):
    sas, plan = elevator_files
    plan_out = tmp_path / "reduced.plan"
    assert run(["reduce", "--task", sas, "--plan", plan, "--mode", "gj",
                "--plan-out", str(plan_out)]) == 0
    text = plan_out.read_text()
    assert text.startswith("(")


def test_encode_mr_emits_wcnf(elevator_files, tmp_path, capsys):
    sas, plan = elevator_files
    out = tmp_path / "t.wcnf"
    cat = tmp_path / "catalog.json"
    assert run(["encode-mr", "--task", sas, "--plan", plan, "--mclcp",
                "-o", str(out), "--catalog", str(cat)]) == 0
    task = elevator_task()
    seq = parse_plan(ELEVATOR_PLAN_TEXT, task)
    wcnf, _ = encode_mr(task, eog(task, seq), mclcp=True)
    assert wcnf.n_hard and wcnf.soft
    assert out.read_bytes() == wcnf.to_dimacs().encode()
    catalog = json.loads(cat.read_text())
    assert set(catalog) == {"x", "tau", "gamma"}


@pytest.mark.parametrize("mclcp", [False, True])
@pytest.mark.parametrize("steps", [40, 1, 0])
def test_encode_mr_file_is_the_dimacs_text(steps, mclcp, tmp_path, capsys):
    """The CLI streams the encoding to its file; the file holds exactly
    `to_dimacs()`.  With init and goal, a plan of 0 steps has 2 rows of
    ordering variables and so no transitivity clause; 1 step has 3 rows."""
    task, plan = scaling_task(10, 4) if steps == 40 else chain_task(steps)
    sas, planf = tmp_path / "t.sas", tmp_path / "t.plan"
    sas.write_text(emit_sas(task), encoding="utf-8")
    planf.write_text(emit_plan(task, plan), encoding="utf-8")
    out = tmp_path / "t.wcnf"
    argv = ["encode-mr", "--task", str(sas), "--plan", str(planf),
            "-o", str(out)]
    assert run(argv + ["--mclcp"] * mclcp) == 0
    task = parse_sas(sas.read_text(encoding="utf-8"))
    plan = parse_plan(planf.read_text(encoding="utf-8"), task)
    assert len(plan.steps) == steps
    wcnf, _ = encode_mr(task, eog(task, plan), mclcp=mclcp)
    assert len(wcnf.rows) == steps + 2
    assert (wcnf.n_hard > len(wcnf.other_hard)) == (steps > 0)
    assert out.read_bytes() == wcnf.to_dimacs().encode()


def test_encode_mr_rejects_oversized(tmp_path):
    task, plan = scaling_task(51, 4)
    sas = tmp_path / "big.sas"
    planf = tmp_path / "big.plan"
    sas.write_text(emit_sas(task), encoding="utf-8")
    planf.write_text(emit_plan(task, plan), encoding="utf-8")
    assert run(["encode-mr", "--task", str(sas), "--plan", str(planf),
                "-o", str(tmp_path / "big.wcnf")]) == 1


def test_lineate_round_trips(elevator_files, tmp_path):
    sas, plan = elevator_files
    out = tmp_path / "lin.plan"
    assert run(["lineate", "--task", sas, "--plan", plan, "--seed", "3",
                "-o", str(out)]) == 0
    assert run(["validate", "--task", sas, "--plan", str(out)]) == 0


@pytest.mark.parametrize("cmd, field", [
    ("awk '{print}' {sas}", "{print}"), ("x {0}", "{0}"), ("x {}", "{}"),
    ("x {sas!r}", "{sas!r}"), ("x }", "Single '}'")])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_fibs_rejects_a_planner_cmd_field_before_the_run(
        elevator_files, tmp_path, capsys, monkeypatch, cmd, field, source):
    """A format field other than {sas} and {plans} is a usage error that
    names it, found before a file is read or written."""
    sas, plan = elevator_files
    out = tmp_path / "plan.json"
    argv = ["fibs", "--task", sas, "--plan", plan, "-o", str(out)]
    if source == "flag":
        monkeypatch.delenv(PLANNER_CMD_ENV, raising=False)
        argv += ["--planner-cmd", cmd]
    else:
        monkeypatch.setenv(PLANNER_CMD_ENV, cmd)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "{{ and }}" in err
    assert not out.exists()


@pytest.mark.parametrize("prior", [None, "prior-planner {sas} {plans}"])
def test_fibs_planner_cmd_does_not_outlive_the_command(elevator_files,
                                                       monkeypatch, prior):
    if prior is None:
        monkeypatch.delenv(PLANNER_CMD_ENV, raising=False)
    else:
        monkeypatch.setenv(PLANNER_CMD_ENV, prior)
    sas, plan = elevator_files
    # doubled braces are literal ones, not format fields
    assert run(["fibs", "--task", sas, "--plan", plan,
                "--planner-cmd", "true '{{x}}' {sas} {plans}"]) == 0
    assert os.environ.get(PLANNER_CMD_ENV) == prior
