"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.  Numbers follow the bundled two-lift elevator walkthrough and
randomized corpora; the final elevator flexibility is additionally reported
against the input plan's pair count, the convention under which the
headline 0.75 figure is exact.
"""

import json
import time

import pytest

from popflex.bdpo import block_deorder, init_bdpo
from popflex.cli import run as cli_run
from popflex.corpus import (elevator_plan, elevator_task, micro_corpus,
                            random_task, scaling_task)
from popflex.eog import eog
from popflex.fibs import FibsConfig, fibs, reduce_plan
from popflex.maxsat import (EncodingTooLarge, brute_force_mr, decode_model,
                            encode_mr, optimal_model, ordering_count)
from popflex.substitution import (UNRESOLVABLE_THREAT, substitute)
from popflex.task import emit_plan, emit_sas, validate_sequential

from scenarios import (between_scenario, blocks_by_name,
                       mutual_threat_scenario, single_op_candidate,
                       witness_scenario)


def _passed(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS")


def _check_linearizations(task, plan_like, samples: int = 20) -> None:
    n = len(plan_like.real_steps())
    if n <= 7:
        lins = list(plan_like.all_linearizations())
    else:
        lins = [plan_like.linearize(seed) for seed in range(samples)]
    for lin in lins:
        report = validate_sequential(task, lin)
        assert report, report.reason


def test_criterion_1_elevator_golden_run():
    t0 = time.monotonic()
    task = elevator_task(two_lifts=True)
    plan = elevator_plan(task)
    out, reports = fibs(task, plan, FibsConfig(reduce="gj"))
    by_phase = {r.phase: r for r in reports}

    assert by_phase["EOG"].flex_after == 0.0
    bd = by_phase["BD"]
    assert bd.ordered_after == 20
    assert abs(bd.flex_after - 16 / 36) < 1e-9
    assert by_phase["SD2"].flex_after >= 0.54
    final = by_phase["REDUCE"]
    assert final.cost_after == 7
    # the headline final figure counts the remaining orderings against the
    # input plan's 36 action pairs: nine survive, giving exactly 0.75
    assert final.ordered_after == 9
    assert abs(final.flex_vs_input - 0.75) < 1e-9
    assert abs(final.flex_after - 12 / 21) < 1e-9
    assert out.validate()
    _check_linearizations(task, out)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"golden run took {elapsed:.1f}s"
    _passed(1, "elevator golden run")


N_RANDOM = 500


def _pipeline_stages(task, seq, cfg):
    from popflex.fibs import substitution_deorder
    pop = eog(task, seq)
    yield "EOG", pop
    plan = init_bdpo(pop)
    plan, _, _ = substitution_deorder(task, plan, cfg,
                                      primitive_only=True)
    yield "SD1", plan
    plan = block_deorder(plan)
    yield "BD", plan
    plan, _, _ = substitution_deorder(task, plan, cfg)
    yield "SD2", plan
    plan = reduce_plan(plan, "gj")
    yield "REDUCE", plan


def test_criterion_2_validity_master_property():
    cfg = FibsConfig(max_plans=3, max_expansions=1500)
    failures = []
    for seed in range(N_RANDOM):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        for phase, stage in _pipeline_stages(task, seq, cfg):
            report = stage.validate()
            if not report:
                failures.append((seed, phase, report.reason))
                continue
            try:
                _check_linearizations(task, stage)
            except AssertionError as exc:
                failures.append((seed, phase, str(exc)))
    assert not failures, failures[:5]
    _passed(2, f"validity across {N_RANDOM} random tasks, every stage")


def test_criterion_3_rfo_monotone_chain():
    cfg = FibsConfig(max_plans=3, max_expansions=1500)
    for seed in range(N_RANDOM):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        flex_chain = []
        cost_chain = []
        for phase, stage in _pipeline_stages(task, seq, cfg):
            if phase == "REDUCE":
                continue
            flex_chain.append(stage.flex().frac)
            cost_chain.append(stage.cost())
        assert all(b >= a for a, b in zip(flex_chain, flex_chain[1:])), \
            (seed, flex_chain)
        assert all(b <= a for a, b in zip(cost_chain, cost_chain[1:])), \
            (seed, cost_chain)
    _passed(3, "flex nondecreasing / cost nonincreasing in 100% of runs")


def test_criterion_4_mr_oracle_equivalence():
    checked = 0
    seed = 0
    sizes_seen = set()
    while checked < 100:
        seed += 1
        task, plan = random_task(seed, max_vars=4, max_steps=6,
                                 unit_costs=True)
        if len(plan.steps) > 6:
            continue
        sizes_seen.add(len(plan.steps))
        pop = eog(task, plan)
        for mclcp in (False, True):
            if mclcp and len(plan.steps) == 6:
                continue   # subset x poset enumeration at 6 is for MR only
            wcnf, cat = encode_mr(task, pop, mclcp)
            model, _ = optimal_model(task, pop, mclcp)
            decoded = decode_model(model, cat, task, pop, wcnf)
            oracle = brute_force_mr(task, plan, mclcp)
            assert ordering_count(decoded) == ordering_count(oracle), \
                (seed, mclcp)
            if mclcp:
                assert decoded.cost() == oracle.cost(), seed
        checked += 1
    assert max(sizes_seen) == 6
    _passed(4, f"{checked} tiny instances, optimum == enumeration oracle")


def test_criterion_5_incompleteness_witness():
    task, seq = witness_scenario()
    bdp = init_bdpo(eog(task, seq))
    names = blocks_by_name(bdp)
    snap = bdp.snapshot()
    outcome = substitute(bdp, names["bx"], single_op_candidate(task.operators[4]))
    assert not outcome.success
    assert bdp.snapshot() == snap

    # exhaustive producer-binding search still finds a valid substitution
    from popflex.bdpo import CD, DP, Reason
    from popflex.task import Fact

    found_with = set()
    for producer in (names["b1"], names["b2"]):
        work = bdp.clone()
        sid = work.fresh_step_id()
        work.steps[sid] = task.operators[4]
        hat = work.make_primitive(sid)
        work.roots.add(hat)
        work.links[(hat, Fact(0, 1))] = producer
        for (c, fact), p in sorted(bdp.links.items()):
            if p == names["bx"]:
                work.links[(c, fact)] = hat
        work.delete_block(names["bx"])
        work.rebuild_closure()

        def close(plan, depth=0):
            threats = plan.unresolved_threats()
            if not threats:
                plan.refresh()
                return plan if plan.validate() else None
            if depth > 8:
                return None
            t, (p, fct, c) = threats[0]
            for edge, kind in (((c, t), CD), ((t, p), DP)):
                if plan.ordered(edge[1], edge[0]):
                    continue
                trial = plan.clone()
                trial.resolutions.setdefault(edge, set()).add(Reason(kind, fct))
                trial.rebuild_closure()
                solved = close(trial, depth + 1)
                if solved is not None:
                    return solved
            return None

        solved = close(work)
        if solved is not None:
            found_with.add(producer)
            _check_linearizations(task, solved)
    assert found_with == {names["b2"]}
    _passed(5, "earliest-producer commitment fails where search succeeds")


def test_criterion_6_threat_shape_regressions():
    for scenario in (between_scenario, mutual_threat_scenario):
        for substitutable in (False, True):
            task, seq = scenario(substitutable)
            bdp = init_bdpo(eog(task, seq))
            names = blocks_by_name(bdp)
            cand = single_op_candidate(task.operators[3])
            outcome = substitute(bdp, names["b_x"], cand)
            if substitutable:
                assert outcome.success, scenario.__name__
                assert outcome.plan.validate()
                _check_linearizations(task, outcome.plan)
            else:
                assert not outcome.success, scenario.__name__
                assert outcome.reason == UNRESOLVABLE_THREAT
    _passed(6, "cycle-forming threats fail unless internally substitutable")


def test_criterion_7_deterministic_reports(tmp_path):
    corpus = micro_corpus()
    for name, (task, seq) in sorted(corpus.items()):
        sas = tmp_path / f"{name}.sas"
        planf = tmp_path / f"{name}.plan"
        sas.write_text(emit_sas(task), encoding="utf-8")
        planf.write_text(emit_plan(task, seq), encoding="utf-8")
        outputs = []
        for attempt in range(2):
            report = tmp_path / f"{name}-{attempt}.json"
            plan_json = tmp_path / f"{name}-{attempt}-plan.json"
            code = cli_run(["fibs", "--task", str(sas), "--plan", str(planf),
                            "--criteria", "rfo", "--reduce", "gj",
                            "--seed", "0",
                            "--report", str(report), "-o", str(plan_json)])
            assert code == 0, name
            outputs.append((report.read_bytes(), plan_json.read_bytes()))
        assert outputs[0] == outputs[1], f"nondeterministic run on {name}"
    _passed(7, f"byte-identical reports across {len(corpus)} corpus entries")


def test_criterion_8_scaling_smoke():
    task, plan = scaling_task()
    assert len(plan.steps) == 300
    t0 = time.monotonic()
    cfg = FibsConfig(reduce="none", max_plans=3, max_expansions=2000)
    out, reports = fibs(task, plan, cfg)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    assert out.validate()
    _check_linearizations(task, out, samples=5)
    with pytest.raises(EncodingTooLarge):
        encode_mr(task, eog(task, plan))
    _passed(8, f"300-step pipeline in {elapsed:.0f}s; encoder refuses it")
