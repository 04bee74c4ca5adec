import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree import solvers
from hypertree.errors import GuardLimitError
from hypertree.solvers import (
    chow_liu,
    exact_search,
    greedy,
    local_search,
)
from hypertree.structure import KTree, ktree_edges, score
from hypertree.weights import (WeightFunction, clique_total, clique_totals,
                               compute_weights, from_subset_weights)

from oracles import (
    brute_ktree_scores,
    chow_liu_reference,
    greedy_reference,
    ktree_from_graph,
    local_search_reference,
    markov_chain_joint,
    product_joint,
    random_dataset,
    random_ktree,
    random_subset_weights,
    random_weight_function,
    reverse_targets_wf,
    subset_weights,
)


def zero_one_pairs_wf(n, k, ones):
    """External-style instance: weight 1 on listed pairs, 0 elsewhere."""
    return from_subset_weights(k, n, {tuple(sorted(p)): 1.0 for p in ones})


def mixed_weights(seed, count, n_max=14, widths=(1, 2, 3)):
    """(rng, k, n, subset weights) of random instances with k cycling
    through widths and n <= n_max; every other one carries small integer
    weights, so gains tie often."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = widths[i % len(widths)]
        n = int(rng.integers(k + 1, n_max + 1))
        if i % 2:
            yield rng, k, n, random_subset_weights(rng, n, k)
        else:
            yield rng, k, n, {h: float(rng.integers(-1, 3))
                              for size in range(2, k + 2)
                              for h in itertools.combinations(range(n), size)}


def mixed_instances(seed, count, n_max=14, widths=(1, 2, 3)):
    """The weight functions of ``mixed_weights``."""
    for rng, k, n, w in mixed_weights(seed, count, n_max, widths):
        yield rng, from_subset_weights(k, n, w)


def assert_same_result(a, b):
    """Equal tree, score, method and counters; the times may differ."""
    a.stats.pop("elapsed_s")
    b.stats.pop("elapsed_s")
    assert (a.tree, a.score, a.method, a.stats) == (
        b.tree, b.score, b.method, b.stats)


def uniform_triples_wf(seed, n):
    """A k=2 instance with uniform(-0.2, 1) weights on every 2- and
    3-subset, drawn from default_rng(seed) as the benchmark's
    ``perfbench.inputs.random_weights`` draws them."""
    rng = np.random.default_rng(seed)
    w = {}
    for size in (2, 3):
        subsets = list(itertools.combinations(range(n), size))
        w.update(zip(subsets, rng.uniform(-0.2, 1.0, len(subsets)).tolist()))
    return from_subset_weights(2, n, w)


def assert_encodes_graph(res, wf):
    """The result has the maximal cliques and score of the oracle's encoding
    of its own graph."""
    oracle = ktree_from_graph(sorted(ktree_edges(res.tree)), wf.k, wf.n)
    assert set(res.tree.maximal_cliques()) == set(oracle.maximal_cliques())
    assert res.score == score(oracle, wf)


def triples_wf(n, ones):
    return from_subset_weights(2, n, {tuple(sorted(t)): 1.0 for t in ones})


@pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3)
                                  for k in (n - 1, n, n + 3, 2 ** 62)
                                  if k >= 1])
def test_one_clique_is_the_one_seed(n, k):
    # a k-tree on n <= k+1 vertices is one clique of all of them: the seed
    # scan lists it alone, every solver returns it with no attachment, and
    # the DP caches its one state, forest(seed, 0); at k = 2**62 listing the
    # seed's k-subsets, itertools.combinations(seed, k), raises MemoryError,
    # so no solver may start to list them
    rng = np.random.default_rng(n)
    wf = from_subset_weights(k, n, {
        h: float(rng.uniform(-1, 1)) for size in range(2, n + 1)
        for h in itertools.combinations(range(n), size)})
    seed = tuple(range(n))
    total = clique_total((seed,), wf)
    assert list(clique_totals(wf)) == [(total, seed)]
    runs = [(exact_search, 1), (greedy, 1),
            (lambda f: local_search(f, greedy(f).tree), 0)]
    if k == 1:
        runs.append((chow_liu, 1))
    for solve, nodes in runs:
        res = solve(wf)
        assert (res.tree.seed, res.tree.attachments) == (seed, ())
        assert (res.stats["nodes_explored"], res.stats["iterations"]) == (
            nodes, 0)
        assert res.score == total


class TestChowLiu:
    def test_rejects_wrong_k(self):
        rng = np.random.default_rng(0)
        wf = compute_weights(random_dataset(rng, 4, 30), 2)
        with pytest.raises(ValueError):
            chow_liu(wf)

    def test_all_zero_weights_lex_tiebreak(self):
        wf = zero_one_pairs_wf(4, 1, [])
        res = chow_liu(wf)
        assert res.score == 0.0
        # every pair ties at 0: greedy seeds with (0, 1) and attaches each
        # later vertex to its first anchor, 0, so the tree is the star at 0
        assert sorted(ktree_edges(res.tree)) == [(0, 1), (0, 2), (0, 3)]

    def test_chain_recovery(self):
        jt = markov_chain_joint(flip=0.2)
        wf = compute_weights(jt, 1)
        a = wf[(0, 1)]
        assert wf[(1, 2)] == pytest.approx(a, abs=1e-12)
        assert wf[(0, 2)] < a
        res = chow_liu(wf)
        assert sorted(ktree_edges(res.tree)) == [(0, 1), (1, 2)]
        assert res.score == pytest.approx(2 * a, abs=1e-12)

    def test_matches_exact_on_random_data(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            d = random_dataset(rng, n, int(rng.integers(10, 60)))
            wf = compute_weights(d, 1)
            assert chow_liu(wf).score == pytest.approx(
                exact_search(wf).score, abs=1e-12)

    def test_single_vertex(self):
        wf = WeightFunction(k=1, n=1, weights={(0,): -0.5})
        res = chow_liu(wf)
        assert res.score == 0.0 and res.tree.n == 1


class TestExactSearch:
    def test_single_clique_when_n_equals_k_plus_1(self):
        rng = np.random.default_rng(2)
        wf = random_weight_function(rng, 3, 2)
        res = exact_search(wf)
        assert res.tree.seed == (0, 1, 2) and not res.tree.attachments
        w = subset_weights(wf)
        total = sum(w[h] for s in range(2, 4)
                    for h in itertools.combinations(range(3), s))
        assert res.score == pytest.approx(total, abs=1e-12)

    def test_two_triangle_instance(self):
        # weight 1 on {0,1,2} and {0,1,3}: the optimal 2-tree takes both
        wf = triples_wf(4, [(0, 1, 2), (0, 1, 3)])
        res = exact_search(wf)
        assert res.score == pytest.approx(2.0, abs=1e-12)
        cliques = {c for c in res.tree.maximal_cliques()}
        assert (0, 1, 2) in cliques and (0, 1, 3) in cliques

    def test_guard_refusal(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3, 4):  # one default limit, n <= 9, for every k
            with pytest.raises(GuardLimitError, match=f"n=10 exceeds the "
                                                      f"limit 9 for k={k}"):
                exact_search(random_weight_function(rng, 10, k))
        wf = random_weight_function(rng, 10, 2)
        # an explicit limit overrides
        res = exact_search(wf, exact_limit=10)
        assert res.method == "exact"

    def test_exact_limit_at_its_bound(self):
        # n equal to the limit is searched; one vertex more is refused
        rng = np.random.default_rng(5)
        assert exact_search(random_weight_function(rng, 4, 2),
                            exact_limit=4).method == "exact"
        with pytest.raises(GuardLimitError, match="n=5 exceeds the limit 4"):
            exact_search(random_weight_function(rng, 5, 2), exact_limit=4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_caches_exactly_the_counted_states(self, k):
        # 2 * C(n, k+1) * (2^(n-k-1) - 1) states, all within the default
        # limit: k=3, n=9 caches 7,812, fewer than k=2, n=9 with 10,584
        rng = np.random.default_rng(k)
        for n in range(k + 2, 10):
            res = exact_search(random_weight_function(rng, n, k))
            want = 2 * math.comb(n, k + 1) * (2 ** (n - k - 1) - 1)
            assert res.stats["nodes_explored"] == want, (n, k)

    def test_domain_guard(self):
        # a weight function built in code is refused where the domain is
        # scanned, as a weight file over the same domain is when read
        wf = WeightFunction(k=2, n=300, weights={})
        with pytest.raises(GuardLimitError, match="number 4500250"):
            exact_search(wf, exact_limit=300)
        with pytest.raises(GuardLimitError, match="number 4500250"):
            greedy(wf)
        with pytest.raises(GuardLimitError, match="number 4501500"):
            chow_liu(WeightFunction(k=1, n=3000, weights={}))

    def test_domain_guard_before_the_one_clique_return(self):
        # n = k+1 returns the one clique, whose score would list its 2^23
        # sub-cliques; the domain of 2^23 - 1 subsets is refused first, by
        # the call that starts the seed scan
        wf = WeightFunction(k=22, n=23, weights={})
        with pytest.raises(GuardLimitError, match="number 5546381"):
            clique_totals(wf)
        with pytest.raises(GuardLimitError, match="number 5546381"):
            exact_search(wf, exact_limit=23)
        with pytest.raises(GuardLimitError, match="number 5546381"):
            greedy(wf)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(12):
            n = int(rng.integers(4, 7))
            k = int(rng.integers(1, 3))
            wf = random_weight_function(rng, n, k)
            best = max(brute_ktree_scores(wf).values())
            assert exact_search(wf).score == pytest.approx(best, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        wf = random_weight_function(rng, 6, 2)
        r1 = exact_search(wf)
        r2 = exact_search(wf)
        assert r1.tree == r2.tree and r1.score == r2.score

    def test_result_score_matches_structure_score(self):
        rng = np.random.default_rng(6)
        wf = random_weight_function(rng, 6, 2)
        res = exact_search(wf)
        assert res.score == pytest.approx(score(res.tree, wf), abs=1e-12)


class TestGreedy:
    def test_two_triangle_instance(self):
        wf = triples_wf(4, [(0, 1, 2), (0, 1, 3)])
        res = greedy(wf)
        assert res.score == pytest.approx(2.0, abs=1e-12)

    def test_product_distribution_gives_zero(self):
        rng = np.random.default_rng(7)
        jt = product_joint(rng, [2, 2, 2, 2])
        wf = compute_weights(jt, 2)
        res = greedy(wf)
        assert abs(res.score) <= 1e-10

    def test_never_beats_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(4, 8))
            k = int(rng.integers(1, 3))
            wf = random_weight_function(rng, n, k)
            assert greedy(wf).score <= exact_search(wf).score + 1e-9

    def test_spans_all_vertices_despite_negative_gains(self):
        rng = np.random.default_rng(9)
        wf = random_weight_function(rng, 6, 2, lo=-1.0, hi=-0.1)
        res = greedy(wf)
        assert res.tree.n == 6
        placed = set(res.tree.seed)
        for v, _ in res.tree.attachments:
            placed.add(v)
        assert placed == set(range(6))


    def test_seed_values_sum_in_clique_total_order(self):
        # summed by size, every seed of this instance rounds to 0 and the
        # first one wins; summed in clique_total's lexicographic order,
        # (1, 2, 3) is 2^-60
        tiny = 2.0 ** -60
        wf = from_subset_weights(2, 4, {
            (1, 2): 1.0, (1, 2, 3): -1.0, (1, 3): tiny,
            (0, 1, 2): -1.0, (0, 1, 3): -tiny})
        assert clique_total([(1, 2, 3)], wf) == tiny
        assert greedy(wf).tree.seed == greedy_reference(wf).seed == (1, 2, 3)

    def test_seed_totals_sum_the_given_weights_in_order(self):
        # the seed scan yields every (k+1)-subset in lexicographic order with
        # the w given for its subsets of two or more vertices, summed in
        # lexicographic order, bit for bit; each mixed instance is also
        # given sparse, a random half of its entries dropped and so 0
        tiny = 2.0 ** -60
        given = [(2, 4, {(1, 2): 1.0, (1, 2, 3): -1.0, (1, 3): tiny,
                         (0, 1, 2): -1.0, (0, 1, 3): -tiny})]
        for rng, k, n, w in mixed_weights(22, 60):
            kept = rng.random(len(w)) < 0.5
            given += [(k, n, w), (k, n, {
                h: x for (h, x), keep in zip(w.items(), kept) if keep})]
        for k, n, w in given:
            seeds = list(itertools.combinations(range(n), k + 1))
            want = [(float(sum(w.get(h, 0.0) for h in sorted(
                sub for m in range(2, k + 2)
                for sub in itertools.combinations(s, m)))).hex(), s)
                for s in seeds]
            wf = from_subset_weights(k, n, w)
            assert [(t.hex(), s) for t, s in clique_totals(wf)] == want

    def test_matches_full_rescan_reference(self):
        # every (k+1)-subset is scored once as a seed, then each unplaced
        # vertex is offered the seed's k+1 anchors and the k new anchors of
        # each later attachment
        instances = itertools.chain(mixed_instances(16, 200),
                                    mixed_instances(22, 24, n_max=10,
                                                    widths=(4,)))
        for _, wf in instances:
            ref = greedy_reference(wf)
            res = greedy(wf)
            assert res.tree == ref
            assert res.score == score(ref, wf)
            n, k = wf.n, wf.k
            m = n - k - 1
            want = (math.comb(n, k + 1) + (k + 1) * m + k * m * (m - 1) // 2
                    if m > 0 else 1)
            assert res.stats["nodes_explored"] == want, (n, k)


class TestLocalSearch:
    def test_fixed_point_at_optimum(self):
        rng = np.random.default_rng(10)
        wf = random_weight_function(rng, 5, 2)
        opt = exact_search(wf)
        res = local_search(wf, opt.tree)
        assert res.score == pytest.approx(opt.score, abs=1e-12)
        assert ktree_edges(res.tree) == ktree_edges(opt.tree)
        assert res.tree == opt.tree

    def test_escapes_worst_two_tree(self):
        wf = triples_wf(4, [(0, 1, 2), (0, 1, 3)])
        scores = brute_ktree_scores(wf)
        worst_edges = min(scores, key=lambda e: (scores[e], sorted(e)))
        start = ktree_from_graph(sorted(worst_edges), k=2, n=4)
        res = local_search(wf, start)
        assert res.score == pytest.approx(2.0, abs=1e-12)

    def test_never_decreases(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(4, 7))
            k = int(rng.integers(1, 3))
            wf = random_weight_function(rng, n, k)
            start = random_ktree(rng, n, k)
            res = local_search(wf, start)
            assert res.score >= score(start, wf) - 1e-12
            # the result has the maximal cliques of its graph's encoding
            oracle = ktree_from_graph(sorted(ktree_edges(res.tree)), k, n)
            assert set(res.tree.maximal_cliques()) == set(
                oracle.maximal_cliques())

    def test_clique_encoding_matches_graph_oracle(self):
        # chow_liu and local search (from greedy and from a random k-tree)
        # encode their cliques directly; the oracle encodes the same graph
        for rng, wf in mixed_instances(17, 420):
            if wf.k == 1:
                assert_encodes_graph(chow_liu(wf), wf)
            assert_encodes_graph(local_search(wf, greedy(wf).tree), wf)
            start = random_ktree(rng, wf.n, wf.k)
            assert_encodes_graph(local_search(wf, start), wf)

    def test_refuses_start_wider_than_its_weights(self):
        # before searching: a 2-tree's triangles have no entry in 1-tree weights
        wf = WeightFunction(k=1, n=5, weights={})
        start = random_ktree(np.random.default_rng(15), 5, 2)
        with pytest.raises(ValueError, match="width 2, over the weight "
                                             "function's width 1"):
            local_search(wf, start)

    def test_refuses_weights_over_another_vertex_count(self):
        wf = WeightFunction(k=1, n=4, weights={})
        start = random_ktree(np.random.default_rng(15), 5, 1)
        with pytest.raises(ValueError, match="^weight function covers 4 "
                                             "vertices, tree has 5$"):
            local_search(wf, start)

    def test_matches_full_rescore_reference(self):
        # a swap scored by the cliques it changes accepts exactly the moves
        # the full rescore accepts, from greedy's tree and from random ones
        instances = itertools.chain(mixed_instances(19, 120),
                                    mixed_instances(20, 12, n_max=30))
        for rng, wf in instances:
            for start in (greedy(wf).tree, random_ktree(rng, wf.n, wf.k)):
                assert_same_result(local_search(wf, start),
                                   local_search_reference(wf, start))
        # the paper's hard family: weights in eighths, so many moves tie
        # exactly and the first in scan order must be the one accepted
        for n, seed in itertools.product((8, 9), range(40)):
            wf = reverse_targets_wf(n, seed)
            start = greedy(wf).tree
            assert_same_result(local_search(wf, start),
                               local_search_reference(wf, start))
        # the shape of the benchmark's n=60 weight files
        for seed in (1, 2, 3):
            wf = uniform_triples_wf(seed, 60)
            start = greedy(wf).tree
            assert_same_result(local_search(wf, start),
                               local_search_reference(wf, start))

    def test_reanchor_onto_an_overlapping_anchor(self, monkeypatch):
        # 0 hangs on (1, 2) and its first improving move, the second scanned,
        # re-anchors it to (2, 3): the relabelling 1 -> 2, 2 -> 3 applies at
        # once, turning (0, 1, 2) into (0, 2, 3)
        wf = triples_wf(5, [(0, 2, 3)])
        start = KTree(k=2, n=5, seed=(1, 2, 3),
                      attachments=((0, (1, 2)), (4, (2, 3))))
        assert_same_result(local_search(wf, start),
                           local_search_reference(wf, start))
        monkeypatch.setattr(solvers, "DEFAULT_MAX_ITERS", 1)
        res = local_search(wf, start)
        assert res.stats["nodes_explored"] == 2
        assert set(res.tree.maximal_cliques()) == {
            (1, 2, 3), (0, 2, 3), (2, 3, 4)}
        assert_same_result(res, local_search_reference(wf, start))

    def test_swap_inside_its_own_clique(self, monkeypatch):
        # on the path (0, 1, 2), (1, 2, 3), (2, 3, 4) no re-anchor reaches
        # 0's three weighted edges, but the first swap, 0 with 1, does; 1
        # lies in 0's clique, so each swap's changed cliques are listed once
        wf = from_subset_weights(2, 5, {(0, 1): 1.0, (0, 2): 1.0,
                                        (0, 3): 1.0})
        start = KTree(k=2, n=5, seed=(0, 1, 2),
                      attachments=((3, (1, 2)), (4, (2, 3))))
        scored = []

        def listed_once(cliques, wf):
            cliques = list(cliques)
            scored.append(cliques)
            assert len(set(cliques)) == len(cliques)
            return clique_total(cliques, wf)

        monkeypatch.setattr(solvers, "clique_total", listed_once)
        assert_same_result(local_search(wf, start),
                           local_search_reference(wf, start))
        monkeypatch.setattr(solvers, "DEFAULT_MAX_ITERS", 1)
        scored.clear()
        res = local_search(wf, start)
        # 4 re-anchors of 0 and 4 of 4, then the swap, scored after and before
        assert res.stats["nodes_explored"] == 9
        assert scored[-1] == [(0, 1, 2), (1, 2, 3)]
        assert set(res.tree.maximal_cliques()) == {
            (0, 1, 2), (0, 2, 3), (2, 3, 4)}
        assert_same_result(res, local_search_reference(wf, start))

    def test_respects_max_iters(self, monkeypatch):
        rng = np.random.default_rng(12)
        wf = random_weight_function(rng, 6, 2)
        start = random_ktree(rng, 6, 2)
        assert local_search(wf, start).stats["iterations"] > 1
        monkeypatch.setattr(solvers, "DEFAULT_MAX_ITERS", 1)
        assert local_search(wf, start).stats["iterations"] == 1

    def test_capped_run_keeps_its_improvement(self, monkeypatch):
        # a run cut by the cap returns the tree its accepted moves reached,
        # not the start; the reference reads the same cap from solvers
        rng = np.random.default_rng(24)
        for cap in (1, 2):
            monkeypatch.setattr(solvers, "DEFAULT_MAX_ITERS", cap)
            for _ in range(20):
                wf = random_weight_function(rng, 7, 2)
                start = random_ktree(rng, 7, 2)
                res = local_search(wf, start)
                assert res.stats["iterations"] == cap
                assert res.score > score(start, wf)
                assert_same_result(res, local_search_reference(wf, start))


def test_score_past_the_float_range_is_refused():
    # every weight and stored total is finite, but the path's two edges of
    # 1e308 sum to inf: score refuses it, and so does each solver that
    # returns it
    wf = from_subset_weights(1, 3, {(0, 1): 1e308, (1, 2): 1e308})
    path = KTree(k=1, n=3, seed=(0, 1), attachments=((2, (1,)),))
    for call in (lambda: score(path, wf), lambda: greedy(wf),
                 lambda: exact_search(wf), lambda: local_search(wf, path)):
        with pytest.raises(ValueError, match="^k-tree score is not finite: "
                                             "inf; its clique totals sum"):
            call()


def test_exact_tree_does_not_depend_on_how_totals_are_summed():
    # ties fall within IMPROVE_EPS, so totals of the same w summed in another
    # order (math.fsum) pick the same seed and attachments
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(4, 8)), int(rng.integers(1, 4))
        w = random_subset_weights(rng, n, k)
        fsum = {h: math.fsum(w[g] for m in range(2, len(h) + 1)
                             for g in itertools.combinations(h, m))
                for h in w}
        a = exact_search(from_subset_weights(k, n, w)).tree
        b = exact_search(WeightFunction(k=k, n=n, weights=fsum)).tree
        assert (a.seed, a.attachments) == (b.seed, b.attachments), seed


def test_exact_dominates_heuristics():
    # widths 1 and 2 on n = 4..7, then width 3 on n = 4..9, inside the
    # default exact limit, every other one with tied integer weights
    rng = np.random.default_rng(13)
    instances = []
    for _ in range(20):
        n = int(rng.integers(4, 8))
        k = int(rng.integers(1, 3))
        instances.append(random_weight_function(rng, n, k))
    instances += [wf for _, wf in mixed_instances(23, 30, n_max=9,
                                                  widths=(3,))]
    assert {wf.n for wf in instances if wf.k == 3} == set(range(4, 10))
    for wf in instances:
        ex = exact_search(wf).score
        g = greedy(wf)
        loc = local_search(wf, g.tree)
        assert ex >= g.score - 1e-9
        assert ex >= loc.score - 1e-9
        assert loc.score >= g.score - 1e-12


@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 60), tied=st.booleans())
@settings(max_examples=80, deadline=None)
def test_greedy_matches_chow_liu_at_width_1(seed, n, tied):
    # at k = 1 greedy is Prim's algorithm started from the heaviest edge, so
    # it reaches Kruskal's maximum spanning tree weight, negative weights
    # included; distinct weights give the one such tree, tied integers its
    # sum. chow_liu is greedy's result under its own name.
    rng = np.random.default_rng(seed)
    if tied:
        wf = from_subset_weights(1, n, {
            e: float(rng.integers(-2, 3))
            for e in itertools.combinations(range(n), 2)})
    else:
        wf = random_weight_function(rng, n, 1, lo=-1.0)
    g, ref = greedy(wf), chow_liu_reference(wf)
    if tied:
        assert g.score == score(ref, wf)
    else:
        assert sorted(ktree_edges(g.tree)) == sorted(ktree_edges(ref))
        assert g.score == pytest.approx(score(ref, wf), abs=1e-12)
    cl = chow_liu(wf)
    assert cl.method == "chow_liu"
    assert_same_result(dataclasses.replace(cl, method="greedy"), g)


# (seed, n, exact - local in nats) of instances where local search from
# greedy's tree stops short of the optimum
HEURISTIC_GAPS = [(2, 9, 0.496032), (13, 9, 0.822327), (28, 9, 1.764575),
                  (1, 10, 0.793365)]


@pytest.mark.parametrize("seed, n, gap", HEURISTIC_GAPS,
                         ids=[f"n{n}-s{s}" for s, n, _ in HEURISTIC_GAPS])
def test_heuristic_gaps_do_not_widen(seed, n, gap):
    wf = uniform_triples_wf(seed, n)
    ex = exact_search(wf, exact_limit=n).score
    g = greedy(wf)
    loc = local_search(wf, g.tree)
    assert ex >= loc.score >= g.score
    assert ex - loc.score <= gap + 1e-6
    assert_same_result(loc, local_search_reference(wf, g.tree))


# exact's optimum on each instance of the paper's hard family (k=2, seeds
# 0-39) where greedy plus local search falls short of it
REVERSE_FAMILY_MISSES = {
    8: {0: "0x1.28p+2", 1: "0x1.2p+2", 6: "0x1.4p+2", 11: "0x1.48p+2",
        15: "0x1.ep+1", 17: "0x1.fp+1", 18: "0x1.38p+2", 19: "0x1.2p+2",
        24: "0x1.3p+2", 28: "0x1.08p+2", 29: "0x1.2p+2", 30: "0x1.18p+2",
        35: "0x1.38p+2", 37: "0x1.08p+2", 38: "0x1.1p+2"},
    9: {3: "0x1.58p+2", 6: "0x1.6p+2", 10: "0x1.58p+2", 11: "0x1.8p+2",
        16: "0x1.68p+2", 17: "0x1.28p+2", 18: "0x1.6p+2", 19: "0x1.3p+2",
        20: "0x1.48p+2", 23: "0x1.58p+2", 24: "0x1.6p+2", 26: "0x1.68p+2",
        27: "0x1.78p+2", 28: "0x1.5p+2", 30: "0x1.58p+2", 32: "0x1.68p+2",
        33: "0x1.4p+2", 35: "0x1.58p+2", 36: "0x1.5p+2", 38: "0x1.48p+2",
        39: "0x1.4p+2"},
}


@pytest.mark.parametrize("n", sorted(REVERSE_FAMILY_MISSES))
def test_reverse_family_keeps_exact_above_local_above_greedy(n):
    # exact's optimum is pinned where the heuristics miss it; that they keep
    # missing is not asserted, so that better heuristics may close the gaps
    for seed in range(40):
        wf = reverse_targets_wf(n, seed)
        ex = exact_search(wf, exact_limit=n).score
        g = greedy(wf)
        assert ex >= local_search(wf, g.tree).score >= g.score, seed
        if seed in REVERSE_FAMILY_MISSES[n]:
            assert ex == float.fromhex(REVERSE_FAMILY_MISSES[n][seed]), seed


def test_scale_invariance_of_argmax():
    # scaling all size>=2 weights by a positive constant never changes the
    # structures any solver picks
    rng = np.random.default_rng(14)
    d = random_dataset(rng, 6, 50)
    for k in (1, 2):
        wf = compute_weights(d, k)
        scaled = WeightFunction(
            k=k, n=6,
            weights={h: (w if len(h) == 1 else 3.7 * w)
                     for h, w in wf.weights.items()})
        assert ktree_edges(exact_search(wf).tree) == ktree_edges(
            exact_search(scaled).tree)
        assert ktree_edges(greedy(wf).tree) == ktree_edges(
            greedy(scaled).tree)
        if k == 1:
            assert ktree_edges(chow_liu(wf).tree) == ktree_edges(
                chow_liu(scaled).tree)


def test_sparse_store_matches_zero_filled():
    # Listing a 0.0 weight or leaving its subset out gives every solver the
    # same tree, score and counters.
    stripped = 0
    for _, k, n, w in mixed_weights(18, 60):
        dense = {h: w.get(h, 0.0)
                 for size in range(1, k + 2)
                 for h in itertools.combinations(range(n), size)}
        sparse = {h: x for h, x in dense.items() if x != 0.0}
        stripped += len(dense) - len(sparse)
        runs = [greedy, lambda f: local_search(f, greedy(f).tree)]
        if k == 1:
            runs.append(chow_liu)
        if n <= 7:
            runs.append(exact_search)
        for solve in runs:
            assert_same_result(solve(from_subset_weights(k, n, dense)),
                               solve(from_subset_weights(k, n, sparse)))
    assert stripped > 1000


def test_solver_stats_present():
    rng = np.random.default_rng(15)
    wf = random_weight_function(rng, 5, 2)
    for res in (exact_search(wf), greedy(wf),
                local_search(wf, greedy(wf).tree)):
        assert {"nodes_explored", "iterations", "elapsed_s"} <= set(res.stats)
