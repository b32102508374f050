import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popflex.corpus import (chain_task, independent_task,
                            produce_consume_task, random_task, scaling_task)
from popflex.eog import eog
from popflex.maxsat import (EncodingTooLarge, InvalidModel, TooLarge,
                            _add_edge, _posets, brute_force_mr, check_model,
                            decode_model, encode_mr, model_from_v_line,
                            optimal_model, ordering_count, parse_dimacs_wcnf)
from popflex.bdpo import GOAL_ID, CycleDetected, closure_from_edges
from popflex.task import (PlanningTask, SequentialPlan, Variable,
                          make_operator, validate_sequential)


def test_poset_counts_match_the_literature():
    assert [len(_posets(n)) for n in range(6)] == [1, 1, 3, 19, 219, 4231]


def test_independent_pair_optimum_has_no_cross_ordering():
    task, plan = independent_task(2)
    pop = eog(task, plan)
    wcnf, cat = encode_mr(task, pop)
    model, _ = optimal_model(task, pop)
    decoded = decode_model(model, cat, task, pop, wcnf)
    assert ordering_count(decoded) == 0


def test_producer_consumer_forces_the_link():
    task, plan = produce_consume_task()
    pop = eog(task, plan)
    wcnf, cat = encode_mr(task, pop)
    model, _ = optimal_model(task, pop)
    decoded = decode_model(model, cat, task, pop, wcnf)
    assert ordering_count(decoded) == 1
    a, b = decoded.real_steps()
    assert decoded.ordered(a, b)
    # every hard-satisfying assignment orders producer before consumer
    gamma_vars = [v for (p, f, c), v in cat.gamma.items()
                  if c not in (GOAL_ID,)]
    assert gamma_vars


def test_mclcp_drops_zero_contribution_step():
    variables = [Variable("v", ("0", "1")), Variable("junk", ("0", "1"))]
    ops = [make_operator("useful", [(0, 0)], [(0, 1)]),
           make_operator("useless", [], [(1, 1)])]
    task = PlanningTask(variables, ops, {0: 0, 1: 0}, {0: 1})
    plan = SequentialPlan([0, 1])
    pop = eog(task, plan)
    wcnf, cat = encode_mr(task, pop, mclcp=True)
    model, _ = optimal_model(task, pop, mclcp=True)
    decoded = decode_model(model, cat, task, pop, wcnf)
    names = {decoded.steps[s].name for s in decoded.real_steps()}
    assert names == {"useful"}
    oracle = brute_force_mr(task, plan, mclcp=True)
    assert decoded.cost() == oracle.cost() == 1


def test_decode_rejects_link_without_ordering():
    task, plan = produce_consume_task()
    pop = eog(task, plan)
    wcnf, cat = encode_mr(task, pop)
    model, _ = optimal_model(task, pop)
    some_gamma = next(iter(cat.gamma.values()))
    broken = set(model)
    broken.add(some_gamma)
    for (p, f, c), g in cat.gamma.items():
        if g == some_gamma:
            broken.discard(cat.tau[(p, c)])
    with pytest.raises(InvalidModel):
        decode_model(broken, cat, task, pop, wcnf)


def test_decode_total_order_model():
    task, plan = chain_task(3)
    pop = eog(task, plan)
    wcnf, cat = encode_mr(task, pop)
    model, _ = optimal_model(task, pop)
    decoded = decode_model(model, cat, task, pop, wcnf)
    assert decoded.validate()
    assert ordering_count(decoded) == 3


def test_brute_force_independent_pair():
    task, plan = independent_task(2)
    out = brute_force_mr(task, plan)
    assert ordering_count(out) == 0


def test_brute_force_chain_keeps_closure():
    task, plan = chain_task(3)
    out = brute_force_mr(task, plan)
    # two forced pairs plus the transitive pair
    assert ordering_count(out) == 3
    assert out.validate()


def test_brute_force_rejects_seven_steps():
    task, plan = chain_task(7)
    with pytest.raises(TooLarge):
        brute_force_mr(task, plan)


def test_encode_respects_step_cap():
    task, plan = scaling_task(51, 4)   # 204 steps
    pop = eog(task, plan)
    with pytest.raises(EncodingTooLarge):
        encode_mr(task, pop)


def test_dimacs_round_trip():
    task, plan = produce_consume_task()
    pop = eog(task, plan)
    wcnf, _ = encode_mr(task, pop)
    text = wcnf.to_dimacs()
    again = parse_dimacs_wcnf(text)
    assert again.n_vars == wcnf.n_vars
    assert sorted(again.hard) == sorted(wcnf.hard)
    assert sorted(again.soft) == sorted(wcnf.soft)
    header = text.splitlines()[0].split()
    assert header[:2] == ["p", "wcnf"]
    assert int(header[4]) > sum(w for w, _ in wcnf.soft)


def test_model_v_line_parsing():
    assert model_from_v_line("v 1 -2 3 0\n") == {1, 3}


def test_structured_optimum_matches_exhaustive_assignment_search():
    """Ground the structured optimizer against raw truth-table search on a
    tiny instance."""
    task, plan = produce_consume_task()
    pop = eog(task, plan)
    wcnf, cat = encode_mr(task, pop)
    assert wcnf.n_vars <= 22

    best = None
    n = wcnf.n_vars
    for bits in range(1 << n):
        true_vars = {i + 1 for i in range(n) if bits >> i & 1}
        try:
            violated = check_model(wcnf, true_vars)
        except InvalidModel:
            continue
        if best is None or violated < best:
            best = violated
    model, violated = optimal_model(task, pop)
    assert violated == best


def test_optimum_equals_oracle_on_random_tasks():
    for seed in range(25):
        task, plan = random_task(seed, max_vars=4, max_steps=5,
                                 unit_costs=True)
        pop = eog(task, plan)
        for mclcp in (False, True):
            wcnf, cat = encode_mr(task, pop, mclcp)
            model, _ = optimal_model(task, pop, mclcp)
            decoded = decode_model(model, cat, task, pop, wcnf)
            oracle = brute_force_mr(task, plan, mclcp)
            assert ordering_count(decoded) == ordering_count(oracle)
            if mclcp:
                assert decoded.cost() == oracle.cost()


def test_decoded_models_validate_and_linearize():
    for seed in range(10):
        task, plan = random_task(seed, max_vars=4, max_steps=5)
        pop = eog(task, plan)
        wcnf, cat = encode_mr(task, pop)
        model, _ = optimal_model(task, pop)
        decoded = decode_model(model, cat, task, pop, wcnf)
        assert decoded.validate()
        for lin in decoded.all_linearizations():
            assert validate_sequential(task, lin)


def test_optimum_keeps_a_later_tie_with_a_smaller_key():
    """A later link choice ties the first on the objective and wins on the
    canonical key, so the search must not prune ties.  The model is the one
    the unpruned enumeration returned."""
    task, plan = random_task(195, max_vars=2, max_steps=5)
    model, violated = optimal_model(task, eog(task, plan))
    assert sorted(model) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 18, 19, 20,
                             23, 25, 28, 33, 37, 40, 42, 43, 46]
    assert violated == 12


@st.composite
def _edge_sequences(draw):
    n = draw(st.integers(2, 9))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=20))


@given(_edge_sequences())
@settings(max_examples=300, deadline=None)
def test_add_edge_matches_closure_from_edges(case):
    n, edges = case
    rows = [0] * n
    for k, (a, b) in enumerate(edges, 1):
        rows = _add_edge(rows, a, b)
        if rows is None:
            with pytest.raises(CycleDetected):
                closure_from_edges(range(n), edges[:k])
            return
        closure = closure_from_edges(range(n), edges[:k])
        assert [{x for x in range(n) if row >> x & 1} for row in rows] \
            == [closure[a] for a in range(n)]
