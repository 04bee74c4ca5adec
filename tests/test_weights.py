import codecs
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree import weights
from hypertree.errors import GuardLimitError
from hypertree.projection import project
from hypertree.structure import KTree, clique_family, score
from hypertree.weights import (
    WeightFunction,
    attachment_gain,
    clique_total,
    compute_weights,
    family_weights,
    load_weights,
    weights_from_dict,
    weights_to_dict,
)

from oracles import (
    attachment_gain_reference,
    clique_total_reference,
    compute_weights_reference,
    joint_table,
    markov_chain_joint,
    mutual_information,
    product_joint,
    random_dataset,
    random_joint,
    random_ktree,
    random_weight_function,
    record_counted_scopes,
    scope_entropy,
    tally,
    target_samples,
    text_file,
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


def test_family_weights_recursion_over_given_entropies():
    # w(h) = -H(h) - the weights of h's proper subsets; no dataset involved
    wf = family_weights(2, 3, [((0,), 1.0), ((1,), 0.5), ((2,), 0.25),
                               ((0, 1), 1.25), ((0, 2), 1.0), ((1, 2), 0.75),
                               ((0, 1, 2), 1.5)])
    assert (wf.k, wf.n) == (2, 3)
    assert wf.weights == {(0,): -1.0, (1,): -0.5, (2,): -0.25,
                          (0, 1): 0.25, (0, 2): 0.25, (1, 2): 0.0,
                          (0, 1, 2): -0.25}


@given(sample=target_samples(min_vars=2, max_vars=5),
       seed=st.integers(0, 2 ** 16), k=st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_family_weights_match_compute_weights(sample, seed, k):
    # the projection weighs its tree's family from the marginals it computes
    # once, bit for bit as compute_weights weighs the domain; counted rows and
    # a joint table, some declared outcomes unseen; k >= n gives the
    # one-clique tree, whose family is every subset
    arities, rows, probs = sample
    n = len(arities)
    tree = random_ktree(np.random.default_rng(seed), n, k)
    family = clique_family(tree.maximal_cliques())
    assert {(v,) for v in range(n)} <= set(family)
    for data in (tally(arities, rows), joint_table(probs)):
        wf = project(data, tree).weights
        full = compute_weights(data, min(k, n - 1))
        assert (wf.k, wf.n) == (k, n)
        assert list(wf.weights) == family
        for h, w in wf.weights.items():
            assert float(w).hex() == float(full.weights[h]).hex(), h
        assert score(tree, wf) == score(tree, full)


def _assert_hex_equal(got, want):
    assert (got.k, got.n) == (want.k, want.n)
    assert list(got.weights) == list(want.weights)
    for h, w in got.weights.items():
        assert float(w).hex() == float(want.weights[h]).hex(), h


@given(sample=target_samples(min_vars=4, max_vars=5),
       k=st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_compute_weights_matches_per_scope_reference(sample, k):
    # counting along shared prefixes changes no bit and no key order: counted
    # rows and a joint table, some declared outcomes unseen
    arities, rows, probs = sample
    for data in (tally(arities, rows), joint_table(probs)):
        _assert_hex_equal(compute_weights(data, k),
                          compute_weights_reference(data, k))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_compute_weights_matches_per_scope_reference_on_wider_data(k):
    rng = np.random.default_rng(k)
    for data in (random_dataset(rng, 9, 500),
                 random_joint(rng, [2, 3, 2, 2, 3, 2, 2])):
        _assert_hex_equal(compute_weights(data, k),
                          compute_weights_reference(data, k))


def test_compute_weights_counts_its_domain_in_family_order(monkeypatch):
    # each subset is counted once, in the order the recursion reads it: by
    # size, then by vertices
    scopes = record_counted_scopes(monkeypatch)
    compute_weights(random_dataset(np.random.default_rng(4), 6, 50), 2)
    assert scopes == [h for size in (1, 2, 3)
                      for h in itertools.combinations(range(6), size)]


def test_first_scope_over_the_cell_guard_in_family_order_is_refused():
    # of the scopes over the guard, the refusal names the first in family
    # order: the singleton (2,), not the pair (0, 1) that sorts before it
    arities = (2 ** 12, 2 ** 13, 2 ** 25)
    data = tally(arities, np.zeros((1, 3), dtype=np.int64))
    chain = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    for refused in (lambda: compute_weights(data, 1),
                    lambda: project(data, chain)):
        with pytest.raises(GuardLimitError,
                           match=r"scope \(2,\) has 33554432 cells"):
            refused()


def test_domain_guard_at_its_bound(monkeypatch):
    # the 4 singletons and 6 pairs of 4 vertices pass a guard of exactly
    # 10 subsets; one less refuses them
    monkeypatch.setattr(weights, "WEIGHT_DOMAIN_GUARD", 10)
    assert weights.domain_size(4, 1) == 10
    monkeypatch.setattr(weights, "WEIGHT_DOMAIN_GUARD", 9)
    with pytest.raises(GuardLimitError, match="number 10, over 9"):
        weights.domain_size(4, 1)


def test_count_work_guard_at_its_bound(monkeypatch):
    # 5 distinct rows times the 4 singletons and 6 pairs of 4 vertices are
    # 50 row visits: a guard of exactly 50 passes them, one less refuses
    # them before the first table is counted
    data = tally((2,) * 4, np.array([[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 0, 1],
                                     [1, 1, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]]))
    scopes = record_counted_scopes(monkeypatch)
    monkeypatch.setattr(weights, "COUNT_WORK_GUARD", 50)
    assert len(compute_weights(data, 1).weights) == 10
    monkeypatch.setattr(weights, "COUNT_WORK_GUARD", 49)
    scopes.clear()
    with pytest.raises(GuardLimitError, match=r"5 distinct rows x 10 subsets "
                                              r"= 50, over 49$"):
        compute_weights(data, 1)
    assert scopes == []


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


def _sparse_instances(seed, count, widths=(1, 2, 3)):
    """Random instances, k cycling through widths, with about half of the
    subsets absent; every other one carries small integer weights, so many
    sums tie."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = widths[i % len(widths)]
        n = int(rng.integers(k + 2, 9))
        w = {}
        for size in range(1, k + 2):
            for h in itertools.combinations(range(n), size):
                if rng.random() < 0.5:
                    continue
                x = float(rng.integers(-2, 3)) if i % 2 else float(rng.normal())
                w[h] = -abs(x) if size == 1 else x
        yield rng, WeightFunction(k=k, n=n, weights=w)


def test_direct_reads_match_checked_reads():
    instances = itertools.chain(_sparse_instances(21, 60),
                                _sparse_instances(23, 12, widths=(4,)))
    for rng, wf in instances:
        k, n = wf.k, wf.n
        for clique in itertools.combinations(range(n), k + 1):
            assert clique_total((clique,), wf) == clique_total_reference(
                (clique,), wf)
            for v in clique:
                anchor = [x for x in clique if x != v]
                rng.shuffle(anchor)  # any vertex order
                assert attachment_gain(wf, v, anchor) == \
                    attachment_gain_reference(wf, v, anchor)
        for size in range(2, k + 2):
            # one clique of 2..k+1 vertices, listed in any order
            clique = rng.choice(n, size, replace=False).tolist()
            assert clique_total((clique,), wf) == clique_total_reference(
                (clique,), wf)
        for _ in range(5):
            t = random_ktree(rng, n, k)
            cliques = list(t.maximal_cliques())
            assert score(t, wf) == clique_total_reference(cliques, wf)
            # any clique order, any vertex order inside a clique
            cliques = [tuple(rng.permutation(mc).tolist())
                       for mc in reversed(cliques)]
            assert clique_total(cliques, wf) == clique_total_reference(
                cliques, wf)


@pytest.mark.parametrize("call", [
    lambda wf: clique_total([(0, 1, 2), (1, 2, 4)], wf),   # vertex n
    lambda wf: clique_total([(0, 1, 2, 3)], wf),           # k+2 vertices
    lambda wf: clique_total([(-1, 0)], wf),                # negative vertex
    lambda wf: clique_total([(0, 1, 1)], wf),              # repeated vertex
    lambda wf: attachment_gain(wf, 4, (0, 1)),             # v = n
    lambda wf: attachment_gain(wf, 0, (1, -1)),            # anchor vertex < 0
    lambda wf: attachment_gain(wf, 3, (0, 1, 2)),          # k+2 vertices
    lambda wf: attachment_gain(wf, 3, (1, 1)),             # repeated vertex
    lambda wf: attachment_gain(wf, 1, (0, 1)),             # v in its anchor
    lambda wf: clique_total([("a", 1)], wf),               # string vertex
    lambda wf: attachment_gain(wf, "a", (1,)),             # string vertex
], ids=["clique-vertex-n", "clique-too-large", "clique-negative",
        "clique-repeat", "gain-v-n", "gain-anchor-negative",
        "gain-too-large", "gain-repeat", "gain-v-in-anchor",
        "clique-string-vertex", "gain-string-vertex"])
def test_direct_reads_refuse_outside_domain(call):
    wf = WeightFunction(k=2, n=4, weights={(0, 1): 0.5, (1, 2, 3): -0.25})
    with pytest.raises(ValueError):
        call(wf)


def test_monotone_deficit_examples():
    # the deficit of v in h: attachment gain of v onto h minus v, plus w(v)
    rng = np.random.default_rng(5)
    indep = product_joint(rng, [2, 3])
    wf = compute_weights(indep, 1)
    # independent pair: only the singleton survives
    assert attachment_gain(wf, 1, (0,)) + wf[(1,)] == pytest.approx(
        wf[(1,)], abs=1e-10)
    # perfectly correlated bits: -H(v) + ln2 = 0
    copies = tally((2, 2), np.array([[0, 0], [1, 1]]))
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
    with pytest.raises(ValueError, match=r"^no weight entry: subset \(0, 1, 1\) "
                                         "is not strictly ascending$"):
        attachment_gain(wf, 1, (0, 1))


def test_zero_law_on_product_distributions():
    rng = np.random.default_rng(7)
    jt = product_joint(rng, [2, 2, 3, 2])
    wf = compute_weights(jt, 3)
    for h, w in wf.weights.items():
        if len(h) >= 2:
            assert abs(w) <= 1e-12


def test_weight_function_validation():
    with pytest.raises(ValueError, match="outside"):
        WeightFunction(k=1, n=3, weights={(0, 3): 0.0})
    bad = {(0,): 0.5, (1,): 0.0, (0, 1): 0.0}
    with pytest.raises(ValueError, match="singleton"):
        WeightFunction(k=1, n=2, weights=bad)


def test_absent_subset_weighs_zero():
    wf = WeightFunction(k=2, n=4, weights={(0, 1): 0.5})
    assert wf[(1, 0)] == 0.5
    assert wf[(2,)] == 0.0 and wf[(0, 2)] == 0.0 and wf[(1, 2, 3)] == 0.0
    assert wf[(np.int64(1), np.int32(0))] == 0.5
    for key in [(0, 1, 2, 3), (0, 4), (-1, 2), (1, 1), (), (0.5, 1.9),
                (0.0, 1.0), (True, 2), ("a", 1), (None, 1)]:
        with pytest.raises(ValueError, match="no weight entry"):
            wf[key]


@pytest.mark.parametrize("key, w, message", [
    ((1, 0), 0.5, r"\(1, 0\) is not strictly ascending"),
    ((2, 2), 0.5, r"\(2, 2\) is not strictly ascending"),
    ((0, 3), 0.5, r"\(0, 3\) has a vertex outside \[0, 3\)"),
    ((-1, 0), 0.5, r"\(-1, 0\) has a vertex outside \[0, 3\)"),
    ((0, 1, 2), 0.5, r"\(0, 1, 2\) has 3 vertices, not 1..2"),
    ((), 0.5, r"\(\) has 0 vertices"),
    ((0, 1), math.nan, r"subset \(0, 1\) is not finite: nan"),
    ((0, 1), -math.inf, r"subset \(0, 1\) is not finite: -inf"),
    ((2,), 0.25, "singleton weight for vertex 2 is positive"),
    ((0.5, 1), 0.2, r"\(0.5, 1\) has a non-integer vertex 0.5"),
    ((True, 2), 0.2, r"\(True, 2\) has a non-integer vertex True"),
], ids=["unsorted", "repeated-vertex", "vertex-above", "vertex-negative",
        "too-large", "empty", "nan", "inf", "positive-singleton",
        "float-vertex", "bool-vertex"])
def test_weight_function_refuses_bad_entry(key, w, message):
    with pytest.raises(ValueError, match=message):
        WeightFunction(k=1, n=3, weights={(0, 1): 1.0, key: w})


def test_weight_function_accepts_numpy_integer_vertices():
    wf = WeightFunction(k=1, n=3, weights={(np.int64(0), np.int64(2)): 0.2})
    assert wf[(0, 2)] == 0.2


def test_weight_file_stores_only_listed_subsets():
    doc = {"k": 1, "n": 2000, "weights": [{"vars": [5, 3], "w": 0.5}]}
    wf = weights_from_dict(doc)
    assert wf.weights == {(3, 5): 0.5}
    assert wf[(5, 3)] == 0.5 and wf[(0, 1999)] == 0.0
    assert weights_from_dict({"k": 1, "n": 2000, "weights": []}).weights == {}


def test_weight_file_domain_is_refused_before_its_entries():
    # the entry is malformed, but the domain's size is refused first
    doc = {"k": 1, "n": 100000, "weights": [{"vars": [0, 0], "w": "x"}]}
    with pytest.raises(GuardLimitError, match="number 5000050000"):
        weights_from_dict(doc)
    with pytest.raises(ValueError, match="need k >= 1"):
        weights_from_dict({"k": 0, "n": 10 ** 7, "weights": []})
    # the guard bounds a scan of the domain, not holding a few of its weights
    assert WeightFunction(k=2, n=300, weights={(0, 1, 2): 0.5})[(0, 1, 2)] == 0.5


def test_weight_file_refuses_repeated_subset():
    doc = {"k": 1, "n": 3, "weights": [{"vars": [0, 1], "w": 1.0},
                                       {"vars": [1, 0], "w": -5.0}]}
    with pytest.raises(ValueError, match=r"subset \(0, 1\) is listed more"):
        weights_from_dict(doc)


def test_weight_dump_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    d = random_dataset(rng, 4, 30)
    wf = compute_weights(d, 2)
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(weights_to_dict(wf)))
    back = load_weights(path)
    assert back.k == wf.k and back.n == wf.n
    for h, w in wf.weights.items():
        assert back[h] == pytest.approx(w, abs=0)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert load_weights(path).weights == back.weights
    doc = weights_to_dict(wf)
    sizes = [len(e["vars"]) for e in doc["weights"]]
    assert sizes == sorted(sizes)
    assert doc["log_base"] == "e"


def test_numpy_integer_vertices_dump_as_json():
    i = np.int64
    wf = WeightFunction(k=1, n=3, weights={(i(0), i(1)): 0.2, (i(2),): -0.5})
    doc = json.loads(json.dumps(weights_to_dict(wf)))
    assert doc == weights_to_dict(
        WeightFunction(k=1, n=3, weights={(0, 1): 0.2, (2,): -0.5}))
    assert weights_from_dict(doc).weights == wf.weights


def test_load_external_sparse_weights(tmp_path):
    # zero/one instances carry only pair entries; the rest default to zero
    doc = text_file(tmp_path, '{"k": 2, "n": 4, "log_base": "e", "weights": '
                    '[{"vars": [0, 1], "w": 1.0}, {"vars": [2, 3], "w": 1.0}]}')
    wf = load_weights(doc)
    assert wf[(0, 1)] == 1.0 and wf[(2, 3)] == 1.0
    assert wf[(0, 2)] == 0.0 and wf[(0, 1, 2)] == 0.0
    assert wf[(0,)] == 0.0


@pytest.mark.parametrize("w", ["Infinity", "-Infinity", "1e999", "NaN"],
                         ids=["inf", "minus-inf", "overflow", "nan-literal"])
def test_weight_file_rejects_non_finite(tmp_path, w):
    doc = text_file(
        tmp_path, '{"k": 1, "n": 3, "weights": [{"vars": [0, 2], "w": %s}]}' % w)
    with pytest.raises(ValueError, match=r"subset \(0, 2\) is not finite"):
        load_weights(doc)


@pytest.mark.parametrize("w", ['"inf"', '"-inf"', '"nan"', '"0.5"', "true",
                               "null", "[0.5]"],
                         ids=["inf", "minus-inf", "nan", "string", "bool",
                              "null", "list"])
def test_weight_file_refuses_non_numbers(tmp_path, w):
    doc = text_file(
        tmp_path, '{"k": 1, "n": 3, "weights": [{"vars": [0, 2], "w": %s}]}' % w)
    with pytest.raises(ValueError,
                       match="malformed field: 'w' must be a number, got "):
        load_weights(doc)


def test_compute_weights_k_range():
    rng = np.random.default_rng(9)
    d = random_dataset(rng, 3, 20)
    with pytest.raises(ValueError, match="need k >= 1"):
        compute_weights(d, 0)
    # k >= n weighs the same subsets as k = n-1: every nonempty one
    assert compute_weights(d, 3).weights == compute_weights(d, 2).weights


def test_missing_entry_raises():
    rng = np.random.default_rng(10)
    d = random_dataset(rng, 3, 20)
    wf = compute_weights(d, 1)
    with pytest.raises(ValueError, match="no weight entry"):
        wf[(0, 1, 2)]
