"""Frozen digests of full `fibs` runs, of block removal, of candidate
blocks, of empty substitutions, of the CLI and of the MaxSAT layer.

Each `fibs` run contributes `json.dumps([plan.to_json(), [report dicts]],
sort_keys=True)` to one sha1, in a fixed order.  Wall-clock budgets are
infinite, so only the expansion caps bind and the digests do not depend on
machine speed.  The removal digest covers every single-block removal from
deordered plans whose blocks nest up to seven deep, which the fibs corpora
never reach.  The MaxSAT digest covers the DIMACS text and variable
catalogue of large encodings, and the optimal model, its violated weight,
its decoded plan and the clauses of tiny ones.  The oracle digest covers
the plans of the enumeration oracle `brute_force_mr`.  Both hash those
flat plans' JSON without its `blocks`, which only repeat the steps.  The towers digests
cover one run each on 4 and 8 of the benchmark's elevator towers, whose SD2
phase accepts substitutions and whose subplanner finds no plan for many
subtasks; at 8 towers the expansion cap makes some searches run again with
every leaf queued.  A change that keeps behaviour leaves every digest as
it is; a change of behaviour has to regenerate them and say why.
"""

import dataclasses
import hashlib
import importlib
import json
import math
from collections import Counter

from popflex.cli import PLANNER_CMD_ENV, run

from popflex.bdpo import GOAL_BLOCK, INIT_BLOCK, block_deorder
from popflex.corpus import (elevator_plan, elevator_task, micro_corpus,
                            random_task, scaling_task)
from popflex.eog import eog
from popflex.fibs import (AcceptanceCriteria, FibsConfig, _scan_basic_edges,
                          build_subtask, fibs, reduce_plan, remove_blocks)
from popflex.maxsat import (brute_force_mr, decode_model, encode_mr,
                            optimal_model)
from popflex.subplanner import solve_subtask
from popflex.substitution import CandidateBlock, candidate_block, substitute
from popflex.task import emit_plan, emit_sas

from references import catalog_inverse
from scenarios import removal_corpus, towers

RANDOM_DIGEST = "c8eb2200297e136b41180f12c516c421e1b5c02b"
MICRO_DIGEST = "3c35e3a595f6493b556f1f5aededb0e882fcca95"
MAXSAT_DIGEST = "6d6d33f942245a26822e37a5d73baf5ca7b6f4e8"
SIX_STEP_DIGEST = "b816897b0fe973dc713d61b4cf1c91c228b809b8"
REMOVAL_DIGEST = "81af02410b7379f7fa7b8cb1ed6e66785c45bda7"
CANDIDATE_DIGEST = "50ef8a504d6f723579119c7fedf209a1dff1e5f7"
EMPTY_CANDIDATE_DIGEST = "f3c4a74357bd4a1e3b2d075dfe4490ce40b357ab"
CLI_DIGEST = "8b70e41e55c9ddac02e63a0e31471442bebcc8f5"
SEARCH_DIGEST = "4d3cdb788a282954fa8433c350379bc8bde30c1d"
VALIDATE_DIGEST = "689b8ff994e1c1f25d74d8f7ef52341da48a5a93"
ORACLE_DIGEST = "46d27420c3277b2bcc58d3362b5d20c9aa1b34fd"
TOWERS_DIGEST = "3f09c0ff8c0576004980312d37f7bb8b3d33a26e"
TOWERS8_DIGEST = "611a4704ac15ff19a724825fb219a11cce42df0f"

def _run_text(task, seq, config) -> bytes:
    plan, reports = fibs(task, seq, config)
    return json.dumps([plan.to_json(), [r.to_dict() for r in reports]],
                      sort_keys=True).encode()


def test_golden_random_corpus():
    config = FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                        subtask_time=math.inf, time_limit=math.inf)
    digest = hashlib.sha1()
    for seed in range(300):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        digest.update(_run_text(task, seq, config))
    assert digest.hexdigest() == RANDOM_DIGEST


def test_golden_micro_corpus():
    digest = hashlib.sha1()
    for name, (task, seq) in sorted(micro_corpus().items()):
        for mode in ("rfo", "rco"):
            for reduce in ("bj", "gj"):
                config = FibsConfig(criteria=AcceptanceCriteria(mode),
                                    reduce=reduce, subtask_time=math.inf,
                                    time_limit=math.inf)
                digest.update(_run_text(task, seq, config))
    assert digest.hexdigest() == MICRO_DIGEST


def test_golden_towers(monkeypatch):
    """One run on 4 towers."""
    task, seq, config = towers(4)
    fibs_mod = importlib.import_module("popflex.fibs")
    searches = []

    def counted(*args):
        plans = solve_subtask(*args)
        searches.append(bool(plans))
        return plans

    monkeypatch.setattr(fibs_mod, "solve_subtask", counted)
    text = _run_text(task, seq, config)
    sd2 = next(r for r in json.loads(text)[1] if r["phase"] == "SD2")
    assert sd2["accepted"] > 0
    assert searches.count(False) > 0 and searches.count(True) > 0
    assert hashlib.sha1(text).hexdigest() == TOWERS_DIGEST


def test_golden_towers_ignores_the_planner_variable(monkeypatch):
    """The library reads no environment: with the CLI's planner variable
    set to a planner that fails, a run is the one without it."""
    monkeypatch.setenv(PLANNER_CMD_ENV, "false")
    assert hashlib.sha1(_run_text(*towers(4))).hexdigest() == TOWERS_DIGEST


def test_golden_towers8(monkeypatch):
    """One run on 8 towers, where the expansion cap binds on searches that
    goal-test their leaves, so they run again with every leaf queued."""
    task, seq, config = towers(8)
    subplanner_mod = importlib.import_module("popflex.subplanner")
    search = subplanner_mod._search
    queue_leaves = []

    def counted(*args):
        queue_leaves.append(args[-1])
        return search(*args)

    monkeypatch.setattr(subplanner_mod, "_search", counted)
    text = _run_text(task, seq, config)
    assert queue_leaves.count(True) > 0
    assert hashlib.sha1(text).hexdigest() == TOWERS8_DIGEST


def _emit_tasks(count: int):
    """The first `count` random tasks whose plans have 40 to 50 steps."""
    seed = 0
    while count:
        task, plan = random_task(seed, max_vars=8, max_steps=80)
        if 40 <= len(plan.steps) <= 50:
            yield task, plan
            count -= 1
        seed += 1


def _flat_json(plan) -> dict:
    """A flat plan's JSON without its blocks, which only repeat its steps
    when every root is the primitive block of its step."""
    assert all(plan.blocks[b].step == b for b in plan.roots)
    data = plan.to_json()
    del data["blocks"]
    return data


def test_golden_maxsat():
    digest = hashlib.sha1()
    for task, plan in _emit_tasks(6):
        pop = eog(task, plan)
        for mclcp in (False, True):
            wcnf, cat = encode_mr(task, pop, mclcp)
            digest.update(wcnf.to_dimacs().encode())
            digest.update(json.dumps(
                sorted((str(k), v) for k, v in catalog_inverse(cat).items())
            ).encode())
    for seed in range(1, 101):
        task, plan = random_task(seed, max_vars=4, max_steps=5,
                                 unit_costs=True)
        pop = eog(task, plan)
        for mclcp in (False, True):
            wcnf, cat = encode_mr(task, pop, mclcp)
            model, violated = optimal_model(task, pop, mclcp)
            decoded = decode_model(model, cat, task, pop, wcnf)
            digest.update(json.dumps(
                [sorted(model), violated, _flat_json(decoded), wcnf.hard,
                 wcnf.soft], sort_keys=True).encode())
    assert digest.hexdigest() == MAXSAT_DIGEST


def test_golden_maxsat_six_steps():
    """The optimal models of the criterion-4 corpus, up to 6 steps: MR on
    all 140 tasks, MCLCP on those below 6 steps."""
    digest = hashlib.sha1()
    checked = seed = 0
    while checked < 140:
        seed += 1
        task, plan = random_task(seed, max_vars=4, max_steps=6,
                                 unit_costs=True)
        if len(plan.steps) > 6:
            continue
        pop = eog(task, plan)
        for mclcp in (False, True):
            if mclcp and len(plan.steps) == 6:
                continue
            model, violated = optimal_model(task, pop, mclcp)
            digest.update(
                json.dumps([seed, mclcp, sorted(model), violated]).encode())
        checked += 1
    assert digest.hexdigest() == SIX_STEP_DIGEST


def _oracle_text(task, plan, mclcp) -> bytes:
    out = brute_force_mr(task, plan, mclcp)
    real = out.real_steps()
    pairs = [(a, b) for a in real for b in real if out.ordered(a, b)]
    return json.dumps([_flat_json(out), pairs, out.cost()],
                      sort_keys=True).encode()


def test_golden_oracle():
    """The enumeration oracle's plans on the criterion-4 corpus (MR on all
    100 tasks, MCLCP on those below 6 steps) and on the `maxsat-reorder`
    benchmark's 100 tiny tasks in both modes."""
    digest = hashlib.sha1()
    checked = seed = 0
    while checked < 100:
        seed += 1
        task, plan = random_task(seed, max_vars=4, max_steps=6,
                                 unit_costs=True)
        if len(plan.steps) > 6:
            continue
        for mclcp in (False, True):
            if not (mclcp and len(plan.steps) == 6):
                digest.update(_oracle_text(task, plan, mclcp))
        checked += 1
    for seed in range(1, 101):
        task, plan = random_task(seed, max_vars=4, max_steps=5,
                                 unit_costs=True)
        for mclcp in (False, True):
            digest.update(_oracle_text(task, plan, mclcp))
    assert digest.hexdigest() == ORACLE_DIGEST


def _block_depths(plan) -> dict[int, int]:
    """Nesting depth of every live block; root blocks are at depth 1."""
    depths = {}
    stack = [(r, 1) for r in plan.roots]
    while stack:
        bid, depth = stack.pop()
        depths[bid] = depth
        stack.extend((c, depth + 1) for c in plan.blocks[bid].children)
    return depths


def test_golden_removal():
    """Every single-block removal, at every nesting depth, and the bj
    reduction of 40 deordered plans of 15 steps or more."""
    digest = hashlib.sha1()
    deep_removals = 0
    for plan in removal_corpus():
        depths = _block_depths(plan)
        for bid in sorted(depths):
            if bid in (INIT_BLOCK, GOAL_BLOCK):
                continue
            result = remove_blocks(plan, {bid})
            if result is not None and depths[bid] >= 3:
                deep_removals += 1
            digest.update(json.dumps(
                None if result is None else result.to_json(),
                sort_keys=True).encode())
        digest.update(json.dumps(reduce_plan(plan, "bj").to_json(),
                                 sort_keys=True).encode())
    assert deep_removals > 0
    assert digest.hexdigest() == REMOVAL_DIGEST


def test_golden_candidates():
    """The candidate block of every subplanner plan for both directions of
    every basic ordering of the golden random corpus, deordered."""
    config = FibsConfig(reduce="gj", max_plans=3, max_expansions=1500,
                        subtask_time=math.inf, time_limit=math.inf)
    digest = hashlib.sha1()
    with_links = with_resolutions = 0
    for seed in range(300):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        plan = block_deorder(eog(task, seq))
        for a, b in _scan_basic_edges(plan):
            for excluded, target in ((a, b), (b, a)):
                subtask = build_subtask(task, plan, excluded, target, config)
                for found in solve_subtask(subtask):
                    cand = candidate_block(task, subtask.init, subtask.goal,
                                           found)
                    with_links += bool(cand.links)
                    with_resolutions += bool(cand.resolutions)
                    digest.update(json.dumps(
                        [[op.name for op in cand.ops], cand.links,
                         cand.resolutions, cand.cost]).encode())
    assert with_links and with_resolutions
    assert digest.hexdigest() == CANDIDATE_DIGEST


def test_golden_empty_candidates():
    """Substituting every real root of the golden random corpus, deordered,
    with an empty candidate: a removal of a block that supplies nothing."""
    digest = hashlib.sha1()
    empty = CandidateBlock((), (), (), 0)
    succeeded = failed = 0
    for seed in range(300):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        plan = block_deorder(eog(task, seq))
        for b in plan.real_roots():
            out = substitute(plan, b, empty)
            succeeded += out.success
            failed += not out.success
            digest.update(json.dumps(
                [out.success, out.reason, out.trace, out.new_block,
                 out.plan.to_json() if out.success else None],
                sort_keys=True).encode())
    assert succeeded and failed
    assert digest.hexdigest() == EMPTY_CANDIDATE_DIGEST


def test_golden_search():
    """The subplanner's plans for both directions of every basic ordering,
    before and after block deordering, on two tasks of several independent
    parts: ten chains and the two-lift elevator."""
    config = FibsConfig(max_plans=3, max_expansions=2000,
                        subtask_time=math.inf, time_limit=math.inf)
    elevator = elevator_task()
    digest = hashlib.sha1()
    searches = found = 0
    for task, seq in (scaling_task(10, 4), (elevator, elevator_plan(elevator))):
        flat = eog(task, seq)
        for plan in (flat, block_deorder(flat)):
            for a, b in _scan_basic_edges(plan):
                for excluded, target in ((a, b), (b, a)):
                    subtask = build_subtask(task, plan, excluded, target,
                                            config)
                    plans = solve_subtask(subtask)
                    searches += 1
                    found += bool(plans)
                    digest.update(json.dumps(
                        [excluded, target,
                         [[p.steps, p.cost(task)] for p in plans]]).encode())
    assert found and searches > found
    assert digest.hexdigest() == SEARCH_DIGEST


def _broken_copies(plan):
    """Hand-broken copies of a valid plan: one link dropped; every link out
    of one root dropped; one root's successor row cleared; one threat left
    unordered (its resolution dropped, the closure rebuilt); one interior
    link dropped."""
    for key in sorted(plan.links):
        broken = plan.clone()
        del broken.links[key]
        yield broken
    for p in plan.real_roots():
        broken = plan.clone()
        broken.links = {k: v for k, v in plan.links.items() if v != p}
        yield broken
        broken = plan.clone()
        broken.closure[p] = 0
        yield broken
    for pair in sorted(pair for pair, rs in plan.resolutions.items() if rs):
        broken = plan.clone()
        del broken.resolutions[pair]
        broken.rebuild_closure()
        yield broken
    for bid in sorted(plan.blocks):
        blk = plan.blocks[bid]
        for key in sorted(blk.ilinks):
            broken = plan.clone()
            ilinks = {k: v for k, v in blk.ilinks.items() if k != key}
            broken.blocks[bid] = dataclasses.replace(blk, ilinks=ilinks)
            yield broken


REASON_KINDS = ("no producer", "unordered", "threatens", "lacks")


def test_golden_validate_reasons():
    """The reason `validate_current` gives for each hand-broken copy of the
    golden random corpus's plans, deordered: the first failure it names."""
    digest = hashlib.sha1()
    kinds = Counter()
    for seed in range(300):
        task, seq = random_task(seed, max_vars=8, max_steps=12)
        plan = block_deorder(eog(task, seq))
        assert plan.validate_current()
        for broken in _broken_copies(plan):
            report = broken.validate_current()
            kinds[next((kind for kind in REASON_KINDS
                        if kind in report.reason), report.valid)] += 1
            digest.update(json.dumps([seed, report.valid,
                                      report.reason]).encode())
    assert all(kinds[kind] for kind in (*REASON_KINDS, True))
    assert digest.hexdigest() == VALIDATE_DIGEST


# each subcommand with the flags it reads; every budget is infinite
CLI_RUNS = [
    ("validate",),
    ("eog", "-o", "{out}", "--dot", "{dot}"),
    ("block-deorder", "-o", "{out}", "--dot", "{dot}"),
    ("fibs", "--seed", "3", "--criteria", "rco", "--max-plans", "3",
     "--max-expansions", "1500", "--subtask-time", "inf",
     "--time-limit", "inf", "--reduce", "gj", "--report", "{report}",
     "--report-csv", "{csv}", "-o", "{out}", "--dot", "{dot}"),
    ("fibs", "--reduce", "bj", "--subtask-time", "inf", "--time-limit",
     "inf", "-o", "{out}"),
    ("reduce", "--seed", "5", "--mode", "gj", "-o", "{out}", "--plan-out",
     "{plan_out}"),
    ("reduce", "--mode", "bj", "--skip-bd", "-o", "{out}", "--plan-out",
     "{plan_out}"),
    ("flex",),
    ("encode-mr", "-o", "{out}", "--catalog", "{catalog}"),
    ("encode-mr", "--mclcp", "-o", "{out}", "--catalog", "{catalog}"),
    ("lineate", "--seed", "7", "-o", "{out}"),
]


def test_golden_cli(tmp_path, capsys):
    """Exit code, stdout and every output file of each subcommand on the
    micro corpus."""
    digest = hashlib.sha1()
    for name, (task, seq) in sorted(micro_corpus().items()):
        sas, plan = tmp_path / "task.sas", tmp_path / "task.plan"
        sas.write_text(emit_sas(task), encoding="utf-8")
        plan.write_text(emit_plan(task, seq), encoding="utf-8")
        for command in CLI_RUNS:
            paths = {key: tmp_path / key for key in
                     ("out", "dot", "report", "csv", "plan_out", "catalog")}
            for path in paths.values():
                path.unlink(missing_ok=True)
            argv = [command[0], "--task", str(sas), "--plan", str(plan)]
            argv += [arg.format(**paths) for arg in command[1:]]
            code = run(argv)
            outputs = {key: path.read_text(encoding="utf-8")
                       for key, path in sorted(paths.items())
                       if path.exists()}
            digest.update(json.dumps(
                [name, command[0], code, capsys.readouterr().out, outputs],
                sort_keys=True).encode())
    assert digest.hexdigest() == CLI_DIGEST
