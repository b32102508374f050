import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from popflex.corpus import (chain_task, independent_task,
                            produce_consume_task, random_task, scaling_task)
from popflex.eog import eog
from popflex.fibs import FibsConfig, Run, substitution_deorder
from popflex.maxsat import (EncodingTooLarge, InvalidModel, TooLarge, Wcnf,
                            _add_edge, _posets, brute_force_mr, check_model,
                            decode_model, encode_mr, optimal_model,
                            ordering_count)
from popflex.bdpo import (GOAL_ID, INIT_ID, BdpoPlan, CycleDetected,
                          block_deorder)
from popflex.task import (PlanningTask, SequentialPlan, Variable, apply_op,
                          make_operator, validate_sequential)

from references import (all_linearizations, closure_from_edges,
                        reference_encode_mr)


def test_poset_counts_match_the_literature():
    assert [len(_posets(n)) for n in range(7)] == [1, 1, 3, 19, 219, 4231,
                                                   130023]
    # `brute_force_mr` stops at a subset's first valid poset, which is its
    # least only when pair counts never fall along the list
    for n in range(7):
        counts = [sum(map(int.bit_count, rows)) for rows in _posets(n)]
        assert counts == sorted(counts)


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


def test_decode_rejects_a_model_without_an_endpoint():
    task, plan = produce_consume_task()
    pop = eog(task, plan)
    wcnf, cat = encode_mr(task, pop)
    model, _ = optimal_model(task, pop)
    for endpoint in (INIT_ID, GOAL_ID):
        with pytest.raises(InvalidModel):
            decode_model(model - {cat.x[endpoint]}, cat, task, pop, wcnf)


def test_decode_rejects_a_cyclic_order():
    """A model that orders two steps both ways breaks no clause of the
    encoding, which has no antisymmetry clauses; decoding rejects it."""
    task, plan = independent_task(2)
    pop = eog(task, plan)
    wcnf, cat = encode_mr(task, pop)
    a, b = pop.real_steps()
    model = _total_order_model(pop, cat) | {cat.tau[(b, a)]}
    check_model(wcnf, model)
    with pytest.raises(InvalidModel, match="ordering cycle"):
        decode_model(model, cat, task, pop, wcnf)


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
        for lin in all_linearizations(decoded):
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


# ---------------------------------------------------------------------------
# the clause layer against literal-by-literal references


def _reference_check(wcnf, model):
    """("ok", violated soft weight) or ("invalid", message), one literal at
    a time."""
    def satisfied(clause):
        return any((l > 0) == (abs(l) in model) for l in clause)

    for clause in wcnf.hard:
        if not satisfied(clause):
            return "invalid", f"hard clause {clause} violated"
    return "ok", sum(w for w, clause in wcnf.soft if not satisfied(clause))


def _check_outcome(wcnf, model):
    try:
        return "ok", check_model(wcnf, model)
    except InvalidModel as err:
        return "invalid", str(err)


def _reference_dimacs(wcnf):
    """The DIMACS text formatted one clause at a time."""
    top = sum(w for w, _ in wcnf.soft) + 1
    lines = [f"p wcnf {wcnf.n_vars} {len(wcnf.hard) + len(wcnf.soft)} {top}"]
    lines += [" ".join(map(str, (top, *clause, 0))) for clause in wcnf.hard]
    lines += [" ".join(map(str, (w, *clause, 0))) for w, clause in wcnf.soft]
    return "\n".join(lines) + "\n"


@st.composite
def _wcnfs(draw):
    """A hand-built Wcnf: runs of hard clauses of widths 1-5 in any order,
    soft clauses of widths 1-5, and n_vars either set or left at 0."""
    n = draw(st.integers(1, 8))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    hard = []
    for width, count in draw(st.lists(st.tuples(st.integers(1, 5),
                                                st.integers(1, 4)),
                                      max_size=8)):
        hard += draw(st.lists(st.tuples(*[lit] * width), min_size=count,
                              max_size=count))
    soft = draw(st.lists(st.tuples(
        st.integers(1, 50),
        st.integers(1, 5).flatmap(lambda w: st.tuples(*[lit] * w))),
        max_size=10))
    return Wcnf(hard, soft, draw(st.sampled_from((0, n))))


@given(_wcnfs(), st.data())
@settings(max_examples=400, deadline=None)
def test_check_model_matches_the_literal_reference(wcnf, data):
    model = data.draw(st.sets(st.integers(1, 10)))
    assert _check_outcome(wcnf, model) == _reference_check(wcnf, model)


@given(_wcnfs())
@settings(max_examples=300, deadline=None)
def test_to_dimacs_matches_the_per_clause_reference(wcnf):
    assert wcnf.to_dimacs() == _reference_dimacs(wcnf)


def test_to_dimacs_of_a_long_run_and_no_soft_clauses():
    """One run longer than any chunk a writer would format at once, between
    runs of other widths, with an empty soft list."""
    hard = [(1,), (-2, 3)] + [(-(i % 7 + 1), i % 5 + 1, -(i % 3 + 1))
                              for i in range(25_013)] + [(4, 5), (6,)]
    wcnf = Wcnf(hard, [], 7)
    assert wcnf.to_dimacs() == _reference_dimacs(wcnf)


# ---------------------------------------------------------------------------
# the clause layer on real encodings


def _prefix_plan(seed, k, goal_mask, max_vars=4, max_steps=12):
    """The task and `eog` POP of the first k steps of `random_task(seed)`'s
    plan, with the goal cut to the variables of `goal_mask` in the state
    those steps reach; k is capped at the plan's length, and k = 0 is the
    empty plan."""
    task, plan = random_task(seed, max_vars=max_vars, max_steps=max_steps)
    steps = plan.steps[:k]
    state = dict(task.init)
    for i in steps:
        state = apply_op(task.operators[i], state)
    goal = {v: state[v] for v in state if goal_mask >> v & 1}
    task = PlanningTask(task.variables, task.operators, task.init, goal)
    return task, eog(task, SequentialPlan(steps))


def _prefix_encoding(seed, k, goal_mask, mclcp):
    """`encode_mr` of `_prefix_plan(seed, k, goal_mask)`'s POP."""
    task, pop = _prefix_plan(seed, k, goal_mask)
    return pop, *encode_mr(task, pop, mclcp)


_ENCODINGS = st.tuples(st.integers(0, 500), st.integers(0, 12),
                       st.integers(0, 15), st.booleans())


@given(_ENCODINGS)
@example((0, 0, 15, False))
@example((0, 0, 0, True))
@example((3, 1, 15, False))
@example((3, 1, 15, True))
@settings(max_examples=150, deadline=None)
def test_real_encodings_write_as_the_reference(case):
    _, wcnf, _ = _prefix_encoding(*case)
    text = wcnf.to_dimacs()
    assert text == _reference_dimacs(wcnf)
    streamed = io.StringIO()
    wcnf.write(streamed)
    assert streamed.getvalue() == text


def test_real_encodings_cover_the_empty_and_one_step_plans():
    for k, clauses in ((0, 0), (1, 6)):
        pop, wcnf, cat = _prefix_encoding(3, k, 15, False)
        assert len(pop.real_steps()) == k
        tau = set(cat.tau.values())
        transitive = [c for c in wcnf.hard if len(c) == 3
                      and all(abs(l) in tau for l in c)]
        assert len(transitive) == clauses


def _total_order_model(pop, cat):
    """Every step in, the plan's step order as the ordering variables, and
    its causal links."""
    seq = [INIT_ID, *pop.real_steps(), GOAL_ID]
    pos = {s: i for i, s in enumerate(seq)}
    model = {cat.x[s] for s in seq}
    model |= {v for (a, b), v in cat.tau.items() if pos[a] < pos[b]}
    model |= {cat.gamma[(p, f, c)] for (c, f), p in pop.links.items()}
    return model


@given(_ENCODINGS, st.data())
@example((0, 0, 15, False), None)
@example((3, 1, 15, True), None)
@settings(max_examples=150, deadline=None)
def test_check_model_on_real_encodings_matches_the_reference(case, data):
    """Arbitrary models, and the plan's own total order with its links and
    one ordering variable flipped (or none), so that transitivity breaks."""
    pop, wcnf, cat = _prefix_encoding(*case)
    total = _total_order_model(pop, cat)
    models = [total]
    for v in sorted(cat.tau.values()):
        models.append(total ^ {v})
    if data is not None:
        models.append(data.draw(st.sets(st.integers(1, wcnf.n_vars + 2))))
        models.append(total ^ data.draw(st.sets(
            st.sampled_from(sorted(cat.tau.values())), max_size=3)))
    for model in models:
        assert _check_outcome(wcnf, model) == _reference_check(wcnf, model)


def test_encoding_writing_checking_and_decoding_never_list_the_hard_clauses(
        monkeypatch):
    """The 60-step path from plan to decoded model reads no `Wcnf.hard`."""
    task, plan = scaling_task(15, 4)
    pop = eog(task, plan)

    def listed(wcnf):
        raise AssertionError("Wcnf.hard was built")

    monkeypatch.setattr(Wcnf, "hard", property(listed))
    wcnf, cat = encode_mr(task, pop)
    n = len(cat.steps)
    assert n == 62
    header = wcnf.to_dimacs().partition("\n")[0].split()
    assert int(header[3]) == (n * (n - 1) * (n - 2) + len(wcnf.other_hard)
                              + len(wcnf.soft))
    model = _total_order_model(pop, cat)
    decoded = decode_model(model, cat, task, pop, wcnf)
    assert decoded.validate()
    assert check_model(wcnf, model) == len(model & set(cat.tau.values()))
    a, b, c = pop.real_steps()[:3]
    with pytest.raises(InvalidModel) as err:
        check_model(wcnf, model - {cat.tau[(a, c)]})
    assert str(err.value) == (f"hard clause ({-cat.tau[(a, b)]}, "
                              f"{-cat.tau[(b, c)]}, {cat.tau[(a, c)]}) "
                              f"violated")


# ---------------------------------------------------------------------------
# the encoder against the one that numbers a variable and adds a clause at
# a time


def _same_encoding(task, pop, mclcp):
    """Assert that `encode_mr` and `reference_encode_mr` give the same
    clauses, rows and catalogue, each dict in the same insertion order;
    return the encoding."""
    wcnf, cat = encode_mr(task, pop, mclcp)
    ref, ref_cat = reference_encode_mr(task, pop, mclcp)
    assert wcnf.other_hard == ref.other_hard
    assert wcnf.soft == ref.soft
    assert wcnf.n_vars == ref.n_vars
    assert wcnf.rows == ref.rows
    assert cat.steps == ref_cat.steps
    for name in ("x", "tau", "gamma"):
        assert list(getattr(cat, name).items()) \
            == list(getattr(ref_cat, name).items()), name
    return wcnf, cat


_LONG_PREFIXES = st.tuples(st.integers(0, 500), st.integers(0, 50),
                           st.integers(0, 255), st.booleans())


@given(_LONG_PREFIXES, st.data())
@example((0, 0, 255, False), None)
@example((0, 0, 255, True), None)
@example((15, 1, 255, False), None)
@example((15, 1, 255, True), None)
@example((16, 43, 255, False), None)
@example((16, 43, 255, True), None)
@settings(max_examples=60, deadline=None)
def test_encode_mr_matches_the_reference_encoder(case, data):
    """Plan prefixes of 0-50 steps over up to 8 variables, both modes; the
    explicit examples are the empty plan, a one-step plan and a 43-step
    plan.  An arbitrary model and the plan's total order with up to three
    ordering variables flipped are checked as the literal reference checks
    them."""
    seed, k, goal_mask, mclcp = case
    task, pop = _prefix_plan(seed, k, goal_mask, max_vars=8, max_steps=50)
    wcnf, cat = _same_encoding(task, pop, mclcp)
    total = _total_order_model(pop, cat)
    models = [total]
    if data is not None:
        models.append(data.draw(st.sets(st.integers(1, wcnf.n_vars + 2))))
        models.append(total ^ data.draw(st.sets(
            st.sampled_from(sorted(cat.tau.values())), max_size=3)))
    for model in models:
        assert _check_outcome(wcnf, model) == _reference_check(wcnf, model)


def test_encode_mr_matches_the_reference_on_the_benchmark_plans():
    """The emit-only plans of the `maxsat-reorder` workload (41-43 steps),
    with their own goals, in both modes."""
    for seed in (9, 10, 20):
        task, plan = random_task(seed, max_vars=8, max_steps=80)
        assert 41 <= len(plan.steps) <= 43
        pop = eog(task, plan)
        for mclcp in (False, True):
            _same_encoding(task, pop, mclcp)


# ---------------------------------------------------------------------------
# the order of decoded optima and oracle plans


def _mr_corpus():
    """(seed, task, plan, mclcp) over the criterion-4 corpus (MR on its 100
    tasks of at most 6 steps, MCLCP on those below 6) and over the
    `maxsat-reorder` benchmark's 100 tiny tasks in both modes."""
    checked = seed = 0
    while checked < 100:
        seed += 1
        task, plan = random_task(seed, max_vars=4, max_steps=6,
                                 unit_costs=True)
        if len(plan.steps) > 6:
            continue
        for mclcp in (False, True):
            if not (mclcp and len(plan.steps) == 6):
                yield seed, task, plan, mclcp
        checked += 1
    for seed in range(1, 101):
        task, plan = random_task(seed, max_vars=4, max_steps=5,
                                 unit_costs=True)
        for mclcp in (False, True):
            yield seed, task, plan, mclcp


def _ordered_pairs(plan):
    """The ordered step pairs of a flat plan, init and goal included."""
    return sorted((a, b) for a, row in plan.closure.items()
                  for b in plan.closure if row >> b & 1)


def _order_text(plan):
    return [_ordered_pairs(plan), sorted(plan.links.items()), plan.cost()]


MR_ORDER_DIGEST = "149fdffb8b901541ccd58b104cd7f82df9f5610e"


def test_decoded_and_oracle_plans_keep_their_order(monkeypatch):
    """Every decoded optimum and every oracle plan of `_mr_corpus`: its
    ordered step pairs, its links and its cost, pinned by one digest.  The
    closure is the model's order, or the oracle's poset, which `refresh`
    is handed; and the plan is at its `refresh` fixpoint."""
    handed = []
    refresh = BdpoPlan.refresh

    def recorded(plan, *args):
        handed.append(_ordered_pairs(plan))
        refresh(plan, *args)

    digest = hashlib.sha1()
    for seed, task, plan, mclcp in _mr_corpus():
        pop = eog(task, plan)
        wcnf, cat = encode_mr(task, pop, mclcp)
        model, _ = optimal_model(task, pop, mclcp)
        decoded = decode_model(model, cat, task, pop, wcnf)
        assert _ordered_pairs(decoded) == sorted(
            pair for pair, v in cat.tau.items() if v in model)
        with monkeypatch.context() as patch:
            patch.setattr(BdpoPlan, "refresh", recorded)
            oracle = brute_force_mr(task, plan, mclcp)
        assert _ordered_pairs(oracle) == handed.pop()
        for out in (decoded, oracle):
            work = out.clone()
            work.refresh()
            assert work.resolutions == out.resolutions
            assert work.closure == out.closure
        digest.update(json.dumps([seed, mclcp, _order_text(decoded),
                                  _order_text(oracle)]).encode())
    assert digest.hexdigest() == MR_ORDER_DIGEST


def test_mr_optima_survive_the_pipelines_edits():
    """SD1 (primitive substitution) and block deordering start from the MR
    optimum of each of 100 tiny tasks: each result validates, and neither
    loses flex.  The edits drop and rename blocks with their commitments,
    so the optimum's order has to be held in them."""
    config = FibsConfig(max_plans=3, max_expansions=1500)
    for seed in range(1, 101):
        task, plan = random_task(seed, max_vars=4, max_steps=6,
                                 unit_costs=True)
        pop = eog(task, plan)
        wcnf, cat = encode_mr(task, pop)
        model, _ = optimal_model(task, pop)
        optimum = decode_model(model, cat, task, pop, wcnf)
        base = optimum.flex().frac
        sd1, _, _ = substitution_deorder(Run(task, config), optimum,
                                         primitive_only=True)
        bd = block_deorder(optimum)
        for out in (sd1, bd):
            assert out.validate(), seed
            assert out.flex().frac >= base, seed
