import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree.dataset import mutual_information, scope_entropy
from hypertree.structure import clique_total, score
from hypertree.weights import (
    WeightFunction,
    attachment_gain,
    compute_weights,
    dump_weights,
    load_weights,
    weights_to_dict,
)

from oracles import (
    markov_chain_joint,
    product_joint,
    random_dataset,
    random_joint,
    random_ktree,
    random_weight_function,
    weight_inclusion_exclusion,
    xor_triple_joint,
)

LN2 = math.log(2)


def test_singleton_weight_is_negative_entropy():
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 4, 60)
    wf = compute_weights(d, 2)
    for v in range(4):
        assert wf[(v,)] == pytest.approx(-scope_entropy(d, (v,)), abs=1e-12)


def test_pair_weight_is_mutual_information():
    rng = np.random.default_rng(2)
    d = random_dataset(rng, 4, 60)
    wf = compute_weights(d, 2)
    for u, v in itertools.combinations(range(4), 2):
        assert wf[(u, v)] == pytest.approx(
            mutual_information(d, u, v), abs=1e-10)


def test_xor_triple_weights():
    jt = xor_triple_joint()
    wf = compute_weights(jt, 2)
    for pair in itertools.combinations(range(3), 2):
        assert abs(wf[pair]) <= 1e-12
    # three-way weight is the full dependence: sum of singleton entropies
    # minus the joint entropy, here 3*ln2 - 2*ln2 = ln2
    direct = sum(scope_entropy(jt, (v,)) for v in range(3)) - scope_entropy(
        jt, (0, 1, 2))
    assert wf[(0, 1, 2)] == pytest.approx(direct, abs=1e-12)
    assert wf[(0, 1, 2)] == pytest.approx(LN2, abs=1e-12)


def test_markov_chain_triple_weight_negative():
    jt = markov_chain_joint(flip=0.2)
    wf = compute_weights(jt, 2)
    i02 = mutual_information(jt, 0, 2)
    assert wf[(0, 1, 2)] == pytest.approx(-i02, abs=1e-9)
    assert wf[(0, 1, 2)] < 0
    assert weight_inclusion_exclusion(jt, (0, 1, 2)) == pytest.approx(
        -i02, abs=1e-9)


def test_inclusion_exclusion_small_cases():
    rng = np.random.default_rng(3)
    d = random_dataset(rng, 3, 40)
    assert weight_inclusion_exclusion(d, (1,)) == pytest.approx(
        -scope_entropy(d, (1,)), abs=1e-12)
    assert weight_inclusion_exclusion(d, (0, 2)) == pytest.approx(
        mutual_information(d, 0, 2), abs=1e-10)
    with pytest.raises(ValueError):
        weight_inclusion_exclusion(d, ())


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_recursion_agrees_with_inclusion_exclusion(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    k = int(rng.integers(1, min(3, n - 1) + 1))
    d = random_dataset(rng, n, int(rng.integers(5, 80)))
    wf = compute_weights(d, k)
    for h in wf.weights:
        assert wf[h] == pytest.approx(
            weight_inclusion_exclusion(d, h), abs=1e-10)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_telescoping_identity(seed):
    # weights of all nonempty subsets of h sum to -H(h)
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, 4, int(rng.integers(5, 60)))
    wf = compute_weights(d, 3)
    for size in range(1, 5):
        for h in itertools.combinations(range(4), size):
            total = sum(
                wf[hp]
                for s in range(1, size + 1)
                for hp in itertools.combinations(h, s)
            )
            assert total == pytest.approx(-scope_entropy(d, h), abs=1e-10)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_attachment_gain_is_mutual_information(seed):
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, 4, int(rng.integers(5, 60)))
    wf = compute_weights(d, 3)
    for size in range(2, 5):
        for h in itertools.combinations(range(4), size):
            for v in h:
                rest = tuple(x for x in h if x != v)
                expect = (scope_entropy(d, (v,)) + scope_entropy(d, rest)
                          - scope_entropy(d, h))
                got = attachment_gain(wf, v, rest)
                assert got == pytest.approx(expect, abs=1e-9)
                assert got >= -1e-9
    # a k-tree's score is its seed clique's total plus one gain per attachment
    for t, w in ((random_ktree(rng, 4, 2), wf),
                 (random_ktree(rng, 7, 2), random_weight_function(rng, 7, 2))):
        total = clique_total((t.seed,), w) + sum(
            attachment_gain(w, v, a) for v, a in t.attachments)
        assert score(t, w) == pytest.approx(total, abs=1e-12)


def test_monotone_deficit_examples():
    # the deficit of v in h: attachment gain of v onto h minus v, plus w(v)
    rng = np.random.default_rng(5)
    indep = product_joint(rng, [2, 3])
    wf = compute_weights(indep, 1)
    # independent pair: only the singleton survives
    assert attachment_gain(wf, 1, (0,)) + wf[(1,)] == pytest.approx(
        wf[(1,)], abs=1e-10)
    # perfectly correlated bits: -H(v) + ln2 = 0
    from hypertree.dataset import Dataset, VariableSpec
    copies = Dataset((VariableSpec("a", 2), VariableSpec("b", 2)),
                     np.array([[0, 0], [1, 1]]))
    wfc = compute_weights(copies, 1)
    assert attachment_gain(wfc, 1, (0,)) + wfc[(1,)] == pytest.approx(
        0.0, abs=1e-12)
    # fully independent triple: everything above the singleton vanishes
    indep3 = product_joint(rng, [2, 2, 2])
    wf3 = compute_weights(indep3, 2)
    assert attachment_gain(wf3, 2, (0, 1)) + wf3[(2,)] == pytest.approx(
        wf3[(2,)], abs=1e-10)


def test_monotone_deficit_is_negative_conditional_entropy():
    rng = np.random.default_rng(6)
    d = random_dataset(rng, 4, 50)
    wf = compute_weights(d, 3)
    for h in itertools.combinations(range(4), 3):
        for v in h:
            rest = tuple(x for x in h if x != v)
            expect = scope_entropy(d, rest) - scope_entropy(d, h)
            deficit = attachment_gain(wf, v, rest) + wf[(v,)]
            assert deficit == pytest.approx(expect, abs=1e-9)
    with pytest.raises(ValueError, match="anchor"):
        attachment_gain(wf, 1, (0, 1))


def test_zero_law_on_product_distributions():
    rng = np.random.default_rng(7)
    jt = product_joint(rng, [2, 2, 3, 2])
    wf = compute_weights(jt, 3)
    for h, w in wf.weights.items():
        if len(h) >= 2:
            assert abs(w) <= 1e-12


def test_weight_function_validation():
    with pytest.raises(ValueError, match="domain"):
        WeightFunction(k=1, n=3, weights={(0,): 0.0})
    bad = {(0,): 0.5, (1,): 0.0, (0, 1): 0.0}
    with pytest.raises(ValueError, match="singleton"):
        WeightFunction(k=1, n=2, weights=bad)


def test_weight_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 4, 30)
    wf = compute_weights(d, 2)
    path = tmp_path / "weights.json"
    dump_weights(wf, path)
    back = load_weights(path)
    assert back.k == wf.k and back.n == wf.n
    for h, w in wf.weights.items():
        assert back[h] == pytest.approx(w, abs=0)
    doc = weights_to_dict(wf)
    sizes = [len(e["vars"]) for e in doc["weights"]]
    assert sizes == sorted(sizes)
    assert doc["log_base"] == "e"


def test_load_external_sparse_weights():
    # zero/one instances carry only pair entries; the rest default to zero
    doc = io.StringIO(
        '{"k": 2, "n": 4, "log_base": "e", '
        '"weights": [{"vars": [0, 1], "w": 1.0}, {"vars": [2, 3], "w": 1.0}]}')
    wf = load_weights(doc)
    assert wf[(0, 1)] == 1.0 and wf[(2, 3)] == 1.0
    assert wf[(0, 2)] == 0.0 and wf[(0, 1, 2)] == 0.0
    assert wf[(0,)] == 0.0


def test_compute_weights_k_range():
    rng = np.random.default_rng(9)
    d = random_dataset(rng, 3, 20)
    with pytest.raises(ValueError):
        compute_weights(d, 0)
    with pytest.raises(ValueError):
        compute_weights(d, 3)


def test_missing_entry_raises():
    rng = np.random.default_rng(10)
    d = random_dataset(rng, 3, 20)
    wf = compute_weights(d, 1)
    with pytest.raises(ValueError, match="no weight entry"):
        wf[(0, 1, 2)]
