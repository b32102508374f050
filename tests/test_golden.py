"""Frozen digests of full `fibs` runs, of block removal, of candidate
blocks, of empty substitutions, of the CLI and of the MaxSAT layer.

Each `fibs` run contributes `json.dumps([plan.to_json(), [report dicts]],
sort_keys=True)` to one sha1, in a fixed order.  Wall-clock budgets are
infinite, so only the expansion caps bind and the digests do not depend on
machine speed.  The removal digest covers every single-block removal from
deordered plans whose blocks nest up to seven deep, which the fibs corpora
never reach.  The MaxSAT digest covers the DIMACS text and variable
catalogue of large encodings, and the optimal model, its violated weight,
its decoded plan and the clauses of tiny ones.  A change that keeps
behaviour leaves every digest as it is; a change of behaviour has to
regenerate them and say why.
"""

import hashlib
import json
import math

from popflex.cli import run

from popflex.bdpo import GOAL_BLOCK, INIT_BLOCK, block_deorder, init_bdpo
from popflex.corpus import micro_corpus, random_task
from popflex.eog import eog
from popflex.fibs import (AcceptanceCriteria, FibsConfig, SubtaskInfeasible,
                          _scan_basic_edges, build_subtask, fibs, reduce_plan,
                          remove_blocks)
from popflex.maxsat import decode_model, encode_mr, optimal_model
from popflex.subplanner import solve_subtask
from popflex.substitution import CandidateBlock, candidate_block, substitute
from popflex.task import emit_plan, emit_sas

RANDOM_DIGEST = "c8eb2200297e136b41180f12c516c421e1b5c02b"
MICRO_DIGEST = "3c35e3a595f6493b556f1f5aededb0e882fcca95"
MAXSAT_DIGEST = "59ba8af0b92c0e91278d688095d5ac4e3b76ff16"
SIX_STEP_DIGEST = "b816897b0fe973dc713d61b4cf1c91c228b809b8"
REMOVAL_DIGEST = "81af02410b7379f7fa7b8cb1ed6e66785c45bda7"
CANDIDATE_DIGEST = "50ef8a504d6f723579119c7fedf209a1dff1e5f7"
EMPTY_CANDIDATE_DIGEST = "f3c4a74357bd4a1e3b2d075dfe4490ce40b357ab"
CLI_DIGEST = "8b70e41e55c9ddac02e63a0e31471442bebcc8f5"


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


def _emit_tasks(count: int):
    """The first `count` random tasks whose plans have 40 to 50 steps."""
    seed = 0
    while count:
        task, plan = random_task(seed, max_vars=8, max_steps=80)
        if 40 <= len(plan.steps) <= 50:
            yield task, plan
            count -= 1
        seed += 1


def test_golden_maxsat():
    digest = hashlib.sha1()
    for task, plan in _emit_tasks(6):
        pop = eog(task, plan)
        for mclcp in (False, True):
            wcnf, cat = encode_mr(task, pop, mclcp)
            digest.update(wcnf.to_dimacs().encode())
            digest.update(json.dumps(
                sorted((str(k), v) for k, v in cat.rev.items())).encode())
    for seed in range(1, 101):
        task, plan = random_task(seed, max_vars=4, max_steps=5,
                                 unit_costs=True)
        pop = eog(task, plan)
        for mclcp in (False, True):
            wcnf, cat = encode_mr(task, pop, mclcp)
            model, violated = optimal_model(task, pop, mclcp)
            decoded = decode_model(model, cat, task, pop, wcnf)
            digest.update(json.dumps(
                [sorted(model), violated, decoded.to_json(), wcnf.hard,
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
    deep_removals = plans = seed = 0
    while plans < 40:
        task, seq = random_task(seed, max_vars=8, max_steps=30)
        seed += 1
        if len(seq.steps) < 15:
            continue
        plans += 1
        plan = block_deorder(init_bdpo(eog(task, seq)))
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
        plan = block_deorder(init_bdpo(eog(task, seq)))
        for a, b in _scan_basic_edges(plan):
            for excluded, target in ((a, b), (b, a)):
                try:
                    subtask = build_subtask(task, plan, excluded, target,
                                            config)
                except SubtaskInfeasible:
                    continue
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
        plan = block_deorder(init_bdpo(eog(task, seq)))
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
