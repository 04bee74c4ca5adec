import codecs
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree import structure
from hypertree.errors import GuardLimitError
from hypertree.structure import (
    KTree,
    clique_family,
    cliques_of,
    ktree_edges,
    ktree_from_cliques,
    ktree_from_dict,
    ktree_to_dict,
    load_ktree,
    score,
)
from hypertree.weights import compute_weights

from oracles import (
    brute_cliques,
    elimination_order,
    ktree_from_graph,
    random_dataset,
    random_ktree,
    xor_triple_joint,
)


def test_ktree_validation():
    KTree(k=2, n=4, seed=(0, 1, 2), attachments=(((3, (1, 2))),))
    with pytest.raises(ValueError, match=r"^width k must be >= 1, got 0$"):
        KTree(k=0, n=4, seed=(0,))
    with pytest.raises(ValueError, match=r"^vertex count must be >= 1, got 0$"):
        KTree(k=1, n=0, seed=())
    with pytest.raises(ValueError,
                       match=r"^seed: subset \(0, 1\) has 2 vertices, not 3$"):
        KTree(k=2, n=4, seed=(0, 1))
    with pytest.raises(ValueError, match=r"^vertex 3 attached to \(1,\): "
                                         r"subset \(1, 3\) has 2 vertices, not 3$"):
        KTree(k=2, n=4, seed=(0, 1, 2), attachments=((3, (1,)),))
    with pytest.raises(ValueError, match="not placed"):
        KTree(k=2, n=5, seed=(0, 1, 2), attachments=((3, (1, 2)),))
    with pytest.raises(ValueError, match="twice"):
        KTree(k=1, n=3, seed=(0, 1),
              attachments=((2, (0,)), (2, (1,))))
    # anchor must sit inside a clique that exists at attachment time
    with pytest.raises(ValueError, match="existing clique"):
        KTree(k=2, n=5, seed=(0, 1, 2),
              attachments=((3, (0, 1)), (4, (2, 3))))
    with pytest.raises(ValueError, match="existing clique"):
        KTree(k=1, n=4, seed=(0, 1), attachments=((2, (3,)),))
    with pytest.raises(ValueError, match=r"^vertex 2 attached to \(5,\): subset "
                                         r"\(2, 5\) has a vertex outside \[0, 3\)$"):
        KTree(k=1, n=3, seed=(0, 1), attachments=((2, (5,)),))
    with pytest.raises(ValueError, match=r"^vertex 5 attached to \(1,\): subset "
                                         r"\(1, 5\) has a vertex outside \[0, 3\)$"):
        KTree(k=1, n=3, seed=(0, 1), attachments=((5, (1,)),))
    with pytest.raises(ValueError, match=r"^seed: subset \(-1, 0\) has a vertex "
                                         r"outside \[0, 2\)$"):
        KTree(k=1, n=2, seed=(-1, 0))
    with pytest.raises(ValueError, match=r"^seed: subset \(0, 0\) is not "
                                         r"strictly ascending$"):
        KTree(k=1, n=2, seed=(0, 0))
    with pytest.raises(ValueError, match=r"^vertex 2 attached to \(2,\): subset "
                                         r"\(2, 2\) is not strictly ascending$"):
        KTree(k=1, n=3, seed=(0, 1), attachments=((2, (2,)),))
    # a float or bool vertex is refused, not truncated
    with pytest.raises(ValueError, match=r"^seed: subset \(0.5, 1\) has a "
                                         r"non-integer vertex 0.5$"):
        KTree(k=1, n=3, seed=(0.5, 1), attachments=((2.7, (1.2,)),))
    with pytest.raises(ValueError, match=r"^vertex 2.7 attached to \(1,\): "
                                         r"subset \(1, 2.7\) has a non-integer"):
        KTree(k=1, n=3, seed=(0, 1), attachments=((2.7, (1,)),))
    with pytest.raises(ValueError, match=r"^vertex 2 attached to \(1.2,\): "
                                         r"subset \(1.2, 2\) has a non-integer"):
        KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1.2,)),))
    with pytest.raises(ValueError, match=r"^seed: subset \(0, True\) has a "
                                         r"non-integer vertex True$"):
        KTree(k=1, n=3, seed=(True, 0), attachments=((2, (1,)),))
    # a vertex that cannot be sorted with the others is named, not a TypeError
    with pytest.raises(ValueError, match=r"^seed: subset \('a', 1\) has a "
                                         r"non-integer vertex 'a'$"):
        KTree(k=1, n=3, seed=("a", 1))
    with pytest.raises(ValueError, match=r"^vertex None attached to \(1,\): "
                                         r"subset \(1, None\) has a non-integer"):
        KTree(k=1, n=3, seed=(0, 1), attachments=((None, (1,)),))
    with pytest.raises(ValueError, match=r"^seed: subset \('a', 1\) has a "
                                         r"non-integer vertex 'a'$"):
        ktree_from_cliques([("a", 1), (1, 2)], 1, 3)


def test_ktree_turns_numpy_integers_into_ints():
    i = np.int64
    t = KTree(k=1, n=3, seed=(i(1), i(0)), attachments=((i(2), (i(1),)),))
    assert json.loads(json.dumps(ktree_to_dict(t))) == ktree_to_dict(t)
    plain = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    # the cliques a KTree keeps are no part of its value or its repr
    assert t == plain and hash(t) == hash(plain)
    assert repr(t) == repr(plain) == (
        "KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))")
    # a 2-tree's vertex attached below its anchor's vertices: each kept
    # clique is sorted, of plain ints
    t = KTree(k=2, n=4, seed=(i(3), i(1), i(2)), attachments=(
        (i(0), (i(2), i(1))),))
    assert t.maximal_cliques() == ((1, 2, 3), (0, 1, 2))
    assert {type(v) for c in t.maximal_cliques() for v in c} == {int}


def test_ktree_validation_cost_follows_document():
    # a short document naming a huge n is refused with a short message
    with pytest.raises(ValueError) as exc:
        KTree(k=1, n=4_000_000, seed=(0, 1))
    assert str(exc.value) == "3999998 vertices not placed, the first is 2"
    # a long path validates in one pass, anchored to the latest clique
    path = KTree(k=1, n=8000, seed=(0, 1),
                 attachments=tuple((v, (v - 1,)) for v in range(2, 8000)))
    assert len(path.maximal_cliques()) == 7999


def test_cliques_of_path():
    t = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    assert cliques_of(t).cliques == frozenset({(0, 1), (1, 2)})


def test_cliques_of_two_triangles():
    t = KTree(k=2, n=4, seed=(0, 1, 2), attachments=((3, (1, 2)),))
    got = cliques_of(t).cliques
    expect = {(0, 1), (0, 2), (1, 2), (0, 1, 2), (1, 3), (2, 3), (1, 2, 3)}
    assert got == frozenset(expect)
    assert len(got) == 7


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cliques_of_single_clique(k):
    n = k + 1
    t = KTree(k=k, n=n, seed=tuple(range(n)))
    assert len(cliques_of(t).cliques) == 2 ** (k + 1) - (k + 2)


def test_score_examples():
    t1 = KTree(k=1, n=1, seed=(0,))
    rng = np.random.default_rng(0)
    d = random_dataset(rng, 3, 30)
    wf = compute_weights(d, 2)
    assert score(t1, wf) == 0.0  # no cliques of size >= 2

    # Chow-Liu objective: a tree's score is the sum of its edge weights
    t = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    wf1 = compute_weights(d, 1)
    assert score(t, wf1) == pytest.approx(wf1[(0, 1)] + wf1[(1, 2)], abs=1e-12)

    tri = KTree(k=2, n=3, seed=(0, 1, 2))
    wfx = compute_weights(xor_triple_joint(), 2)
    assert score(tri, wfx) == pytest.approx(math.log(2), abs=1e-12)


def test_score_missing_entry():
    rng = np.random.default_rng(1)
    d = random_dataset(rng, 3, 30)
    wf1 = compute_weights(d, 1)
    tri = KTree(k=2, n=3, seed=(0, 1, 2))
    with pytest.raises(ValueError, match="no weight entry"):
        score(tri, wf1)


def test_verify_width_four_cycle():
    assert elimination_order([(0, 1), (1, 2), (2, 3), (0, 3)], k=2, n=4) is None


def test_verify_width_tree():
    order = elimination_order([(0, 1), (1, 2), (1, 3), (3, 4)], k=1, n=5)
    assert order is not None
    assert len(order) == 5


def test_verify_width_k4_too_wide():
    edges = list(itertools.combinations(range(4), 2))
    assert elimination_order(edges, k=2, n=4) is None
    assert elimination_order(edges, k=3, n=4) is not None


def test_verify_width_chordless_cycle_witness_is_chordless():
    # a 5-cycle plus a pendant is not chordal, at any width
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)]
    assert elimination_order(edges, k=2, n=6) is None
    assert elimination_order(edges, k=5, n=6) is None


def test_ktree_from_graph_path():
    t = ktree_from_graph([(0, 1), (1, 2)], k=1, n=3)
    assert t.seed == (0, 1)
    assert t.attachments == ((2, (1,)),)


def test_ktree_from_graph_triangle():
    t = ktree_from_graph([(0, 1), (0, 2), (1, 2)], k=2, n=3)
    assert t.seed == (0, 1, 2)
    assert t.attachments == ()


def test_ktree_from_graph_star_fills():
    star = [(0, 1), (0, 2), (0, 3)]
    t = ktree_from_graph(star, k=2, n=4)
    edges = ktree_edges(t)
    for e in star:
        assert e in edges
    assert elimination_order(sorted(edges), k=2, n=4) is not None


def test_ktree_from_graph_rejects_wide_input():
    with pytest.raises(ValueError, match="chordless|clique"):
        ktree_from_graph([(0, 1), (1, 2), (2, 3), (0, 3)], k=2, n=4)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_ktree_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    k = int(rng.integers(1, 4))
    k = min(k, n - 1) if n > 1 else 1
    t = random_ktree(rng, n, k)
    maximal = t.maximal_cliques()
    assert len(maximal) == 1 + len(t.attachments)
    for mc in maximal:
        assert len(mc) == min(k + 1, n)
    # the edge set verifies back at width k
    edges = sorted(ktree_edges(t))
    assert elimination_order(edges, k=k, n=n) is not None


@given(seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_ktree_from_cliques_inverts_maximal_cliques(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    k = int(rng.integers(1, 4))  # n <= k+1 included
    t = random_ktree(rng, n, k)
    cliques = list(t.maximal_cliques())
    rng.shuffle(cliques)
    rebuilt = ktree_from_cliques(cliques, k, n)
    assert (rebuilt.k, rebuilt.n) == (k, n)
    assert set(rebuilt.maximal_cliques()) == set(t.maximal_cliques())
    oracle = ktree_from_graph(sorted(ktree_edges(t)), k, n)
    assert set(rebuilt.maximal_cliques()) == set(oracle.maximal_cliques())


def test_ktree_from_cliques_one_clique_is_the_seed():
    # with no other clique there is no anchor to list, so k may pass the
    # clique's size without listing its k-subsets
    k = 2 ** 62
    assert ktree_from_cliques([(0, 1, 2)], k, 3) == KTree(k=k, n=3,
                                                           seed=(0, 1, 2))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cliques_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    k = min(int(rng.integers(1, 4)), n - 1) if n > 1 else 1
    t = random_ktree(rng, n, k)
    got = cliques_of(t).cliques
    expect = brute_cliques(sorted(ktree_edges(t)), n, k + 1)
    assert got == frozenset(expect)
    # subset-closed: every sub-clique of size >= 2 is present
    for h in got:
        for size in range(2, len(h)):
            for sub in itertools.combinations(h, size):
                assert sub in got


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_ktree_from_graph_contains_input(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    k = min(int(rng.integers(1, 4)), n - 1)
    t = random_ktree(rng, n, k)
    edges = sorted(ktree_edges(t))
    # drop a few edges; the remainder is still width <= k
    keep = [e for i, e in enumerate(edges) if rng.random() > 0.3 or i == 0]
    if elimination_order(keep, k=k, n=n) is None:
        return  # random subgraph of a k-tree can lose chordality; skip
    rebuilt = ktree_from_graph(keep, k=k, n=n)
    assert set(keep) <= set(ktree_edges(rebuilt))
    assert elimination_order(sorted(ktree_edges(rebuilt)), k=k, n=n) is not None


def test_score_monotone_under_extension():
    # removing a simplicial vertex gives a sub-k-tree; with data-derived
    # weights the larger structure never scores lower
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(4, 7))
        k = min(int(rng.integers(1, 3)), n - 2)
        d = random_dataset(rng, n, 40)
        wf = compute_weights(d, k)
        big = random_ktree(rng, n, k)
        # build the same tree without its last attachment, if the removed
        # vertex happens to be n-1 (so vertex ids stay a prefix)
        if big.attachments and big.attachments[-1][0] == n - 1:
            small = KTree(k=k, n=n - 1, seed=big.seed,
                          attachments=big.attachments[:-1])
            assert score(big, wf) >= score(small, wf) - 1e-9


def test_structure_json_roundtrip(tmp_path):
    t = KTree(k=2, n=5, seed=(0, 2, 4),
              attachments=((1, (0, 2)), (3, (2, 4))))
    doc = ktree_to_dict(t)
    assert doc["maximal_cliques"][0] == [0, 2, 4]
    assert ktree_from_dict(doc) == t
    # maximal_cliques is derived output; a stale value is ignored on input
    doc["maximal_cliques"] = [[9, 9, 9]]
    assert ktree_from_dict(doc) == t
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(ktree_to_dict(t)))
    assert load_ktree(path) == t
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert load_ktree(path) == t


def test_clique_family_lists_each_subset_once_by_size():
    assert clique_family([(2, 0, 1), (1, 3, 2)]) == [
        (0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
        (0, 1, 2), (1, 2, 3)]
    # over every (k+1)-subset it is the whole weight domain, in the order
    # of sizes and then of itertools.combinations
    domain = [h for size in range(1, 4)
              for h in itertools.combinations(range(6), size)]
    assert clique_family(itertools.combinations(range(6), 3)) == domain


def test_clique_family_guard():
    # one clique of 23 vertices has 2^23 - 1 subsets: refused unlisted
    with pytest.raises(GuardLimitError, match="number up to 8388607, over"):
        clique_family([tuple(range(23))])


def test_clique_family_guard_at_its_bound(monkeypatch):
    # a triangle's 7 nonempty subsets pass a guard of exactly 7; one less
    # refuses them
    monkeypatch.setattr(structure, "WEIGHT_DOMAIN_GUARD", 7)
    assert len(clique_family([(0, 1, 2)])) == 7
    monkeypatch.setattr(structure, "WEIGHT_DOMAIN_GUARD", 6)
    with pytest.raises(GuardLimitError, match="number up to 7, over 6"):
        clique_family([(0, 1, 2)])


def test_cliques_of_is_under_the_family_guard(monkeypatch):
    # one clique of 6 vertices has 63 nonempty subsets: listed under a guard
    # of 63, refused unlisted under 62, as clique_family refuses them
    tree = KTree(k=5, n=6, seed=tuple(range(6)))
    monkeypatch.setattr(structure, "WEIGHT_DOMAIN_GUARD", 63)
    assert len(cliques_of(tree).cliques) == 63 - 6
    monkeypatch.setattr(structure, "WEIGHT_DOMAIN_GUARD", 62)
    with pytest.raises(GuardLimitError, match="number up to 63, over 62"):
        cliques_of(tree)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 9), k=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_clique_family_is_the_subset_closure(seed, n, k):
    # every clique of the k-tree's graph, found by a subset scan of its
    # edges, plus the singletons
    tree = random_ktree(np.random.default_rng(seed), n, k)
    family = clique_family(tree.maximal_cliques())
    assert set(family) == brute_cliques(ktree_edges(tree), n, k + 1) | {
        (v,) for v in range(n)}
    assert family == sorted(family, key=lambda h: (len(h), h))
    assert len(family) == len(set(family))
