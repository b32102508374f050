"""Frozen digests of full `fibs` runs.

Each run contributes `json.dumps([plan.to_json(), [report dicts]],
sort_keys=True)` to one sha1, in a fixed order.  Wall-clock budgets are
infinite, so only the expansion caps bind and the digests do not depend on
machine speed.  A change that keeps behaviour leaves both digests as they
are; a change of behaviour has to regenerate them and say why.
"""

import hashlib
import json
import math

from popflex.corpus import micro_corpus, random_task
from popflex.fibs import AcceptanceCriteria, FibsConfig, fibs

RANDOM_DIGEST = "c8eb2200297e136b41180f12c516c421e1b5c02b"
MICRO_DIGEST = "3c35e3a595f6493b556f1f5aededb0e882fcca95"


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
