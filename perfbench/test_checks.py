"""Each output check rejects a deliberately broken output.

Run with `python3 -m pytest perfbench/test_checks.py` from the repository
root.
"""

import random
import sys
from importlib import import_module
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

corpus = import_module("popflex.corpus")
eog_mod = import_module("popflex.eog")
fibs_mod = import_module("popflex.fibs")
maxsat_mod = import_module("popflex.maxsat")


def _tower_run(k=1):
    inst = workloads.round_trip(workloads.towers_sas(k),
                                workloads.towers_plan(list(range(k))))
    out, reports = fibs_mod.fibs(inst.task, inst.plan,
                                 fibs_mod.FibsConfig(reduce="gj",
                                                     **workloads.NO_CLOCK))
    return inst, out, reports


def _input_ops(inst):
    return [inst.task.operators[i] for i in inst.plan.steps]


def test_one_tower_is_the_walkthrough_input():
    inst = workloads.round_trip(workloads.towers_sas(1),
                                workloads.towers_plan([0]))
    ops = _input_ops(inst)
    assert len(ops) == 9
    assert sum(op.cost for op in ops) == 9
    assert checks.execute(inst.task, ops) == []

    walkthrough = corpus.elevator_task(two_lifts=True)
    strip = [" ".join(o.rsplit("-", 1)[0] for o in op.name.split())
             for op in inst.task.operators]
    assert strip == [op.name for op in walkthrough.operators]
    assert [(op.pre, op.eff, op.cost) for op in inst.task.operators] == \
        [(op.pre, op.eff, op.cost) for op in walkthrough.operators]
    assert inst.task.init == walkthrough.init
    assert inst.task.goal == walkthrough.goal
    assert [strip[i] for i in inst.plan.steps] == \
        corpus.ELEVATOR_PLAN_TEXT.replace("(", "").replace(")", "").split("\n")[:-1]


def test_valid_outputs_pass():
    inst, out, reports = _tower_run()
    assert checks.fibs_output(inst.task, _input_ops(inst), out, reports,
                              random.Random(0)) == []
    assert checks.towers_output(out, 1) == []


def test_dropped_step_is_rejected():
    inst, out, reports = _tower_run()
    broken = out.clone()
    victim = broken.real_roots()[0]
    for step in broken.blocks[victim].members:
        del broken.steps[step]
    broken.roots.discard(victim)
    found = checks.fibs_output(inst.task, _input_ops(inst), broken, reports,
                               random.Random(0))
    assert any("lacks" in f or "goal" in f for f in found), found
    assert any("cost" in f for f in found), found


def test_reversed_pair_in_a_linearization_is_rejected():
    inst, out, _ = _tower_run()
    lin = checks.linearizations(out)[0]
    ops = [out.steps[s] for s in lin]
    assert checks.execute(inst.task, ops) == []
    pairs = checks.ordered_step_pairs(out)
    i = next(i for i in range(len(lin) - 1) if (lin[i], lin[i + 1]) in pairs)
    ops[i], ops[i + 1] = ops[i + 1], ops[i]
    assert checks.execute(inst.task, ops) != []


def test_flex_off_by_one_pair_is_rejected():
    _, out, _ = _tower_run()
    lins = checks.linearizations(out)
    n = len(out.real_step_ids())
    unordered = out.flex().unordered_pairs
    assert checks.flex_from_linearizations(lins, n, unordered, True) == []
    for wrong in (unordered - 1, unordered + 1):
        assert checks.flex_from_linearizations(lins, n, wrong, True) != []
    sample = checks.sample_linearizations(out, random.Random(0))
    assert checks.flex_from_linearizations(sample, n, unordered, False) == []
    assert checks.flex_from_linearizations(sample, n, 0, False) != []


def test_chain_ordering_outside_chain_order_is_rejected():
    task, plan = corpus.scaling_task(3, 4)
    out, _ = fibs_mod.fibs(task, plan, fibs_mod.FibsConfig(
        max_plans=1, max_expansions=200, **workloads.NO_CLOCK))
    assert checks.chains_output(out, 3) == []
    first = {out.steps[out.blocks[b].step].name: b for b in out.real_roots()}
    out.resolutions[(first["step 0 0"], first["step 1 0"])] = {"extra"}
    assert checks.chains_output(out, 3) != []


def test_falsified_hard_clause_is_rejected():
    task, plan = corpus.random_task(3, max_vars=4, max_steps=5,
                                    unit_costs=True)
    pop = eog_mod.eog(task, plan)
    wcnf, cat = maxsat_mod.encode_mr(task, pop)
    model, _ = maxsat_mod.optimal_model(task, pop)
    assert checks.hard_clauses(wcnf.hard, model) == []
    assert checks.hard_clauses(wcnf.hard, model - {cat.x[0]}) != []


def test_emitted_encoding_accepts_the_input_order_only():
    task, plan = corpus.random_task(1, max_vars=8, max_steps=80)
    pop = eog_mod.eog(task, plan)
    wcnf, cat = maxsat_mod.encode_mr(task, pop)
    hard = list(checks.parse_wcnf_hard(wcnf.to_dimacs()))
    assert hard == wcnf.hard
    order = pop.real_steps()
    assert checks.hard_clauses(
        hard, checks.total_order_model(cat, pop, order)) == []
    (c, _), p = next(((c, f), p) for (c, f), p in sorted(pop.links.items())
                     if p in order and c in order)
    i, j = order.index(p), order.index(c)
    order[i], order[j] = order[j], order[i]
    assert checks.hard_clauses(
        hard, checks.total_order_model(cat, pop, order)) != []


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("popflex.fibs", "no_such_call", "gone", None),
        ("popflex.bdpo", "NoSuchClass.method", "gone", None)])
    original = fibs_mod.substitute
    tracer = spans.Tracer()
    tracer.install()
    try:
        _tower_run()
    finally:
        tracer.uninstall()
    assert fibs_mod.substitute is original
    assert tracer.absent == ["popflex.fibs.no_such_call",
                             "popflex.bdpo.NoSuchClass.method"]
    summary = tracer.summary()
    assert "gone" not in summary
    assert summary["substitution"]["calls"] > 0
    metrics = spans.layer_metrics(summary, rounds=1, setups=1)
    assert metrics["fibs.resolve.calls"] == summary["fibs.resolve"]["calls"]
