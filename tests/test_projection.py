import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree.projection import (
    ProjectedModel,
    divergence_decomposed,
    divergence_direct,
    dump_model,
    log_likelihood,
    model_to_dict,
    project,
)
from hypertree.solvers import exact_search
from hypertree.structure import (
    KTree,
    cliques_of,
    ktree_edges,
    ktree_from_dict,
    score,
)
from hypertree.weights import WeightFunction, compute_weights

from oracles import (
    brute_ktree_scores,
    divergence_direct_reference,
    joint_table,
    log_likelihood_reference,
    marginal,
    marginal_reference,
    ktree_from_graph,
    markov_chain_joint,
    model_joint,
    product_joint,
    random_dataset,
    random_joint,
    random_ktree,
    subset_weights,
    tally,
    target_samples,
    xor_triple_joint,
)


def _row_log_prob(model, x):
    """Log probability of one assignment: the log likelihood of a one-row
    dataset over the model's variables."""
    return log_likelihood(model, tally(model.arities, np.array([x])))


def test_single_vertex_factor_is_marginal():
    d = tally((2,), np.array([[0], [0], [1], [0]]))
    t = KTree(k=1, n=1, seed=(0,))
    m = project(d, t)
    assert m.factors[(0,)].tolist() == np.log([0.75, 0.25]).tolist()


def test_product_distribution_factors_are_one():
    rng = np.random.default_rng(0)
    jt = product_joint(rng, [2, 2, 2])
    t = KTree(k=2, n=3, seed=(0, 1, 2))
    m = project(jt, t)
    for h, log in m.factors.items():
        if len(h) >= 2:
            assert np.allclose(log, 0.0, atol=1e-12)


def test_chain_factorization_matches_conditionals():
    jt = markov_chain_joint(flip=0.2)
    path = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    m = project(jt, path)
    joint = model_joint(m)
    p0 = marginal(jt, (0,))
    p01 = marginal(jt, (0, 1))
    p12 = marginal(jt, (1, 2))
    p1 = marginal(jt, (1,))
    for a, b, c in itertools.product(range(2), repeat=3):
        expect = p0[a] * (p01[a, b] / p0[a]) * (p12[b, c] / p1[b])
        assert joint[a, b, c] == pytest.approx(expect, abs=1e-12)
    # the chain is exactly representable on the path
    assert divergence_direct(jt, m) == pytest.approx(0.0, abs=1e-12)


def test_factor_reconstruction_identity():
    # product of factors over subsets of a clique rebuilds its marginal
    rng = np.random.default_rng(1)
    jt = random_joint(rng, [2, 3, 2, 2])
    t = random_ktree(rng, 4, 2)
    m = project(jt, t)
    for h in cliques_of(t).cliques:
        target = marginal(jt, h)
        rebuilt = np.ones_like(target)
        for size in range(1, len(h) + 1):
            for sub in itertools.combinations(h, size):
                shape = tuple(
                    target.shape[i] if h[i] in sub else 1
                    for i in range(len(h)))
                rebuilt = rebuilt * np.exp(m.factors[sub]).reshape(shape)
        mask = target > 0
        assert np.max(np.abs(rebuilt[mask] - target[mask])) <= 1e-10


def test_model_log_prob_uniform():
    jt = joint_table(np.full((2, 2, 2), 0.125))
    t = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (0,)),))
    m = project(jt, t)
    for x in itertools.product(range(2), repeat=3):
        assert _row_log_prob(m, x) == pytest.approx(-3 * math.log(2), abs=1e-12)


def test_model_log_prob_generalizes_beyond_support():
    # row (1,0) is unseen but both clique marginals are positive
    d = tally((2, 2), np.array([[0, 0], [0, 1], [1, 1]]))
    t = KTree(k=1, n=2, seed=(0, 1))
    m = project(d, t)
    lp = _row_log_prob(m, (1, 0))
    assert lp == -math.inf  # pair marginal of (1,0) is zero
    d3 = tally((2, 2, 2), np.array([[1, 0, 0], [1, 1, 1], [0, 0, 0]]))
    t3 = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (0,)),))
    m3 = project(d3, t3)
    # (1,0,1) never observed, but all clique marginals of it are positive
    assert math.isfinite(_row_log_prob(m3, (1, 0, 1)))


def test_model_log_prob_validation():
    d = tally((2,), np.array([[0], [1]]))
    m = project(d, KTree(k=1, n=1, seed=(0,)))
    with pytest.raises(ValueError):
        _row_log_prob(m, (2,))
    with pytest.raises(ValueError):
        _row_log_prob(m, (0, 0))


def test_divergence_decomposed_examples():
    rng = np.random.default_rng(2)
    # product distribution: any structure scores 0, divergence equals baseline
    jt = product_joint(rng, [2, 2, 2])
    wf = compute_weights(jt, 1)
    t = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    base = divergence_decomposed(jt, wf, t)
    assert base == pytest.approx(0.0, abs=1e-10)

    # perfectly correlated bits on a single edge: exact model
    d = tally((2, 2), np.array([[0, 0], [1, 1]]))
    wf2 = compute_weights(d, 1)
    edge = KTree(k=1, n=2, seed=(0, 1))
    assert divergence_decomposed(d, wf2, edge) == pytest.approx(0.0, abs=1e-12)

    # XOR triple on the full triangle: exact model
    xor = xor_triple_joint()
    wfx = compute_weights(xor, 2)
    tri = KTree(k=2, n=3, seed=(0, 1, 2))
    assert divergence_decomposed(xor, wfx, tri) == pytest.approx(0.0, abs=1e-12)


def test_divergence_decomposed_reads_singletons_by_the_weight_rule():
    # an absent singleton weighs 0, as wf[(v,)] reads it; weights over
    # another number of vertices, or a tree over more, are refused naming
    # both sizes, not with a bare KeyError
    d = random_dataset(np.random.default_rng(4), 3, 40)
    full = compute_weights(d, 1)
    tree = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    sparse = WeightFunction(1, 3, {h: w for h, w in full.weights.items()
                                   if h != (2,)})
    assert divergence_decomposed(d, sparse, tree) == pytest.approx(
        divergence_decomposed(d, full, tree) + full.weights[(2,)], abs=1e-12)
    small = WeightFunction(1, 2, {(0,): -0.5, (1,): -0.5, (0, 1): 0.1})
    with pytest.raises(ValueError, match="weights span 2 vertices, "
                                         "provider has 3"):
        divergence_decomposed(d, small, KTree(k=1, n=2, seed=(0, 1)))
    wide = KTree(k=1, n=4, seed=(0, 1), attachments=((2, (1,)), (3, (2,))))
    with pytest.raises(ValueError, match="tree spans 4 vertices, "
                                         "provider has 3"):
        divergence_decomposed(d, full, wide)
    with pytest.raises(ValueError, match="tree spans 4 vertices, "
                                         "provider has 3"):
        project(d, wide)


def test_direct_equals_decomposed_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        jt = random_joint(rng, [2] * n)
        k = min(2, n - 1)
        t = random_ktree(rng, n, k)
        wf = compute_weights(jt, k)
        m = project(jt, t)
        dd = divergence_decomposed(jt, wf, t)
        dr = divergence_direct(jt, m)
        assert dr == pytest.approx(dd, abs=1e-9)
        assert dr >= -1e-12


def test_projection_saturated_structure_is_exact():
    rng = np.random.default_rng(4)
    jt = random_joint(rng, [2, 2, 2])
    t = KTree(k=2, n=3, seed=(0, 1, 2))
    m = project(jt, t)
    assert divergence_direct(jt, m) == pytest.approx(0.0, abs=1e-10)


def test_clique_marginals_match_and_normalize():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        jt = random_joint(rng, [2] * n)
        t = random_ktree(rng, n, min(2, n - 1))
        m = project(jt, t)
        joint = model_joint(m)
        assert abs(joint.sum() - 1.0) <= 1e-10
        for h in cliques_of(t).cliques:
            axes = tuple(i for i in range(n) if i not in h)
            got = joint.sum(axis=axes) if axes else joint
            assert np.max(np.abs(got - marginal(jt, h))) <= 1e-10


@given(sample=target_samples(min_vars=1, max_vars=4),
       seed=st.integers(0, 2 ** 16), k=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_weights_are_expected_log_factors(sample, seed, k):
    # w(h) = E[log phi_h] under the target, over its positive cells
    arities, rows, probs = sample
    tree = random_ktree(np.random.default_rng(seed), len(arities), k)
    for data in (tally(arities, rows), joint_table(probs)):
        m = project(data, tree)
        w = subset_weights(m.weights)
        assert set(w) == set(m.weights.weights) == set(m.factors)
        for h, log in m.factors.items():
            p = marginal(data, h)
            pos = p > 0
            want = float((p[pos] * log[pos]).sum())
            assert w[h] == pytest.approx(want, abs=1e-12), h


def test_log_likelihood_training_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        d = random_dataset(rng, n, int(rng.integers(10, 60)))
        k = min(2, n - 1)
        t = random_ktree(rng, n, k)
        wf = compute_weights(d, k)
        m = project(d, t)
        ll = log_likelihood(m, d)
        total = sum(wf[(v,)] for v in range(n)) + score(t, wf)
        assert ll / d.n_rows == pytest.approx(total, abs=1e-9)


@given(sample=target_samples(min_vars=2), seed=st.integers(0, 2 ** 16))
@settings(max_examples=120, deadline=None)
def test_likelihood_and_direct_divergence_match_references(sample, seed):
    arities, rows, probs = sample
    n, k = len(arities), min(2, len(arities) - 1)
    tree = random_ktree(np.random.default_rng(seed), n, k)
    counted, table = tally(arities, rows), joint_table(probs)
    full = marginal_reference(rows, arities, tuple(range(n)))
    for data, target in ((counted, full), (table, probs)):
        model = project(data, tree)
        wf = compute_weights(data, k)
        ll = log_likelihood(model, data)
        # the training identity, for counts and probabilities alike
        total = sum(wf[(v,)] for v in range(n)) + score(tree, wf)
        assert ll / data.n_rows == pytest.approx(total, abs=1e-9)
        assert divergence_direct(data, model) == pytest.approx(
            divergence_direct_reference(target, model), rel=0, abs=1e-12)
        mask = target > 0
        assert ll / data.n_rows == pytest.approx(
            float((target[mask] * np.log(model_joint(model)[mask])).sum()),
            rel=1e-12, abs=1e-12)
        # the raw rows under this model, unseen cells of it (-inf) included
        held = log_likelihood(model, counted)
        want = log_likelihood_reference(model, rows)
        if want == -math.inf:
            assert held == -math.inf
        else:
            assert held == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_log_likelihood_uniform_and_neg_inf():
    jt_rows = np.array(list(itertools.product(range(2), repeat=3)))
    d = tally((2,) * 3, jt_rows)
    t = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (0,)),))
    m = project(d, t)
    assert log_likelihood(m, d) == pytest.approx(-8 * 3 * math.log(2), abs=1e-9)
    train = tally((2,) * 3, np.array([[0, 0, 0], [1, 1, 1]]))
    m2 = project(train, t)
    held_out = tally((2,) * 3, np.array([[0, 1, 0]]))
    assert log_likelihood(m2, held_out) == -math.inf


def test_divergence_direct_refuses_a_target_row_the_model_gives_zero():
    # trained where x0 = x1, the model's pair factor is 0 at (0, 1), and
    # the target holds that row
    train = tally((2, 2), np.array([[0, 0], [1, 1]]))
    model = project(train, KTree(k=1, n=2, seed=(0, 1)))
    target = tally((2, 2), np.array([[0, 0], [0, 1]]))
    with pytest.raises(RuntimeError, match="model assigns zero probability "
                                           "inside the target support"):
        divergence_direct(target, model)


def test_model_dump_refuses_a_positive_factor_cell_that_underflows():
    # each of x0..x3 is 1 alone with mass 0.2, and all four are 1 together
    # with mass 1e-120, which every pair and triple marginal of 1s holds:
    # the 4-clique factor there is 1e-360 / 0.2^4, under the floats. Its
    # log is kept, so the divergences agree, but the dump would write 0
    p = np.zeros((2,) * 4)
    for v in range(4):
        p[tuple(int(i == v) for i in range(4))] = 0.2
    p[1, 1, 1, 1] = 1e-120
    p[0, 0, 0, 0] = 1.0 - p.sum()
    jt, tree = joint_table(p), KTree(k=3, n=4, seed=(0, 1, 2, 3))
    m = project(jt, tree)
    assert divergence_direct(jt, m) == pytest.approx(divergence_decomposed(
        jt, compute_weights(jt, 3), tree), abs=1e-12)
    with pytest.raises(RuntimeError, match=r"the factor of clique "
                       r"\(0, 1, 2, 3\) underflows the float range"):
        model_to_dict(m)


def test_log_likelihood_spec_mismatch():
    d2 = tally((2, 2), np.array([[0, 0]]))
    d3 = tally((2, 3), np.array([[0, 2]]))
    m = project(d2, KTree(k=1, n=2, seed=(0, 1)))
    with pytest.raises(ValueError):
        log_likelihood(m, d3)


def test_gain_monotonicity_of_divergence():
    # extending a structure by one attachment never increases divergence
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(4, 6))
        jt = random_joint(rng, [2] * n)
        k = 2
        wf = compute_weights(jt, k)
        seed = tuple(range(k + 1))
        attachments = []
        prev = None
        for v in range(k + 1, n):
            t = KTree(k=k, n=v, seed=seed, attachments=tuple(attachments))
            cur = divergence_decomposed(jt, wf, t)
            if prev is not None:
                assert cur <= prev + 1e-9
            prev = cur
            anchor = tuple(sorted(
                rng.choice(range(v), size=k, replace=False).tolist()))
            # anchor must lie inside an existing clique; retry until valid
            cliques = [seed] + [tuple(sorted(a + (w,)))
                                for w, a in attachments]
            while not any(set(anchor) <= set(c) for c in cliques):
                host = cliques[int(rng.integers(0, len(cliques)))]
                anchor = tuple(sorted(
                    rng.choice(host, size=k, replace=False).tolist()))
            attachments.append((v, anchor))


def test_likelihood_divergence_duality():
    # the structure maximizing score is the one minimizing divergence
    rng = np.random.default_rng(8)
    jt = random_joint(rng, [2] * 5)
    wf = compute_weights(jt, 2)
    scores = brute_ktree_scores(wf)
    best_by_score = max(scores.values())
    divs = {}
    for edges, sc in scores.items():
        t = ktree_from_graph(sorted(edges), k=2, n=5)
        divs[edges] = divergence_decomposed(jt, wf, t)
    best_by_div = min(divs.values())
    argmax = {e for e, s in scores.items() if abs(s - best_by_score) < 1e-12}
    argmin = {e for e, dv in divs.items() if abs(dv - best_by_div) < 1e-12}
    assert argmax == argmin


@pytest.mark.parametrize("n", [21, 64])
def test_divergence_direct_over_any_number_of_variables(n):
    # 2**21 and 2**64 joint cells: the direct sum runs over the 10 rows
    rng = np.random.default_rng(n)
    d = random_dataset(rng, n, 10, arities=[2] * n)
    t = ktree_from_graph([(v, v + 1) for v in range(n - 1)], 1, n)
    m = project(d, t)
    direct = divergence_direct(d, m)
    assert direct == pytest.approx(
        divergence_decomposed(d, compute_weights(d, 1), t), abs=1e-9)


def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    d = random_dataset(rng, 3, 30, arities=[2, 3, 2])
    t = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    m = project(d, t)
    path = tmp_path / "model.json"
    dump_model(m, path)
    doc = json.loads(path.read_text())
    assert doc == model_to_dict(m)
    with np.errstate(divide="ignore"):  # a zero factor's log is -inf
        back = ProjectedModel(
            tree=ktree_from_dict(doc),
            arities=tuple(doc["arities"]),
            factors={
                tuple(e["vars"]): np.log(np.asarray(e["table"]).reshape(
                    [doc["arities"][i] for i in e["vars"]]))
                for e in doc["factors"]
            },
            weights=m.weights,  # model.json keeps the factors, not weights
        )
    again = model_to_dict(back)
    assert [e["vars"] for e in again["factors"]] == [
        e["vars"] for e in doc["factors"]]
    assert {key: v for key, v in again.items() if key != "factors"} == {
        key: v for key, v in doc.items() if key != "factors"}
    for got, want in zip(again["factors"], doc["factors"]):
        assert got["table"] == pytest.approx(want["table"], rel=1e-14, abs=0)
    for x in itertools.product(range(2), range(3), range(2)):
        a, b = _row_log_prob(m, x), _row_log_prob(back, x)
        if a == -math.inf:
            assert b == -math.inf
        else:
            assert b == pytest.approx(a, abs=1e-12)
