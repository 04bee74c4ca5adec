import itertools
import json
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypertree import paritygen
from hypertree.errors import GuardLimitError
from hypertree.paritygen import (
    TargetBiases,
    bias_to_weight,
    biases_from_dict,
    biases_to_dict,
    generate,
    realize_weights,
    weight_to_bias,
)
from hypertree.solvers import exact_search
from hypertree.structure import ktree_edges
from hypertree.weights import WeightFunction, compute_weights

from oracles import count_table, generate_reference


class TestBiasWeight:
    def test_zero(self):
        assert bias_to_weight(0.0) == 0.0
        assert weight_to_bias(0.0) == 0.0

    def test_half(self):
        assert bias_to_weight(0.5) == pytest.approx(0.13081203594113697, abs=1e-12)
        assert weight_to_bias(0.13081203594113697) == pytest.approx(0.5, abs=1e-9)

    def test_small_bias_quadratic(self):
        assert bias_to_weight(0.01) == pytest.approx(5e-5, abs=1e-9)
        for b in (0.001, 0.005, 0.02, 0.05):
            assert abs(bias_to_weight(b) - b * b / 2) <= b ** 4

    def test_monotone(self):
        bs = np.linspace(0, 0.99, 200)
        ws = [bias_to_weight(float(b)) for b in bs]
        assert all(w2 > w1 for w1, w2 in zip(ws, ws[1:]))
        assert all(w >= 0 for w in ws)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bias_to_weight(1.0)
        with pytest.raises(ValueError):
            bias_to_weight(-0.1)
        with pytest.raises(ValueError):
            weight_to_bias(-1e-9)
        with pytest.raises(ValueError):
            weight_to_bias(math.log(2))

    @given(b=st.floats(0.0, 0.95))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, b):
        w = bias_to_weight(b)
        b2 = weight_to_bias(w)
        assert abs(b2 - b) <= 1e-11
        assert abs(bias_to_weight(b2) - w) <= 1e-11

    def test_quadratic_inverse_for_small_weights(self):
        for b in (0.001, 0.01, 0.03):
            assert weight_to_bias(b * b / 2) == pytest.approx(b, abs=b ** 3)


def _parity_counts(dataset, h):
    par = dataset.rows[:, h].sum(axis=1) % 2
    odd = int(dataset.counts[par == 1].sum())
    return odd, dataset.n_rows - odd


class TestGenerate:
    def test_tiny_example_by_hand(self):
        # n = k+1 = 2, q = 2, p = 1: one uniform cube block of 4 rows plus
        # one odd-parity block of 4 rows -> 8 rows, bias 1/2 on the pair
        tb = TargetBiases(k=1, n=2, q=2, entries={(0, 1): 1})
        s = generate(tb)
        assert s.dataset.n_rows == 8
        odd, even = _parity_counts(s.dataset, [0, 1])
        assert (odd - even) / 8 == 0.5
        for col in range(2):
            assert count_table(s.dataset, (col,)).tolist() == [4, 4]
        assert len(s.block_log) == 2
        assert sum(fixed for _, _, fixed in s.block_log) == 1

    def test_all_zero_biases(self):
        tb = TargetBiases(k=1, n=3, q=2, entries={})
        s = generate(tb)
        assert s.dataset.n_rows == 3 * 2 * 8
        wf = compute_weights(s.dataset, 1)
        for h, w in wf.weights.items():
            if len(h) >= 2:
                assert abs(w) <= 1e-12

    def test_exact_uniformity_and_bias_rationals(self):
        tb = TargetBiases(k=2, n=5, q=4,
                          entries={(0, 1, 2): 3, (1, 3, 4): 1, (0, 2, 4): 2})
        s = generate(tb)
        n_sets = math.comb(5, 3)
        t = s.dataset.n_rows
        # marginals over <= k variables: exact integer equality
        for size in (1, 2):
            for scope in itertools.combinations(range(5), size):
                counts = count_table(s.dataset, scope)
                assert counts.min() == counts.max()
        # parity biases: exact as rationals, (odd - even) * q * C = p * T
        for h in itertools.combinations(range(5), 3):
            odd, even = _parity_counts(s.dataset, list(h))
            p = tb.entries.get(h, 0)
            assert (odd - even) * tb.q * n_sets == p * t

    def test_pair_weights_match_bias_formula(self):
        tb = TargetBiases(k=1, n=4, q=4, entries={(0, 1): 2, (2, 3): 1})
        s = generate(tb)
        wf = compute_weights(s.dataset, 1)
        n_sets = math.comb(4, 2)
        for h in itertools.combinations(range(4), 2):
            b = (tb.entries.get(h, 0) / tb.q) / n_sets
            assert wf[h] == pytest.approx(bias_to_weight(b), abs=1e-9)

    def test_cube_guard(self):
        tb = TargetBiases(k=1, n=15, q=1, entries={})
        with pytest.raises(GuardLimitError):
            generate(tb)
        tb_ok = TargetBiases(k=1, n=14, q=1, entries={})
        assert generate(tb_ok).dataset.n_rows == 91 * 2 ** 14

    def test_realize_refuses_what_generate_would(self):
        # refused as generate would be, before C(n, k+1) is computed: at
        # n=10^9, k=10^6 that alone takes minutes
        with pytest.raises(GuardLimitError, match="n=1000000000 exceeds"):
            realize_weights({}, n=10 ** 9, k=1, q_grid=8)
        with pytest.raises(GuardLimitError, match="96000000 rows x n=4"):
            realize_weights({}, n=4, k=1, q_grid=10 ** 6)

    def test_row_guard(self):
        # refused before anything is allocated: the cube limit
        # admits n=14, and Q has no bound of its own
        for tb, rows in ((TargetBiases(k=2, n=14, q=128, entries={}), 763363328),
                         (TargetBiases(k=1, n=4, q=10 ** 6, entries={}), 96000000),
                         # the smallest Q past 2**27 cells at n=8, k=1
                         (TargetBiases(k=1, n=8, q=2341, entries={}), 16780288)):
            with pytest.raises(GuardLimitError, match=f"{rows} rows x n={tb.n}"):
                generate(tb)

    def test_row_guard_at_its_bound(self, monkeypatch):
        # 3 pairs x 1 block x 2^3 rows x 3 variables pass a guard of
        # exactly 72 cells; one less refuses them
        tb = TargetBiases(k=1, n=3, q=1, entries={})
        monkeypatch.setattr(paritygen, "SAMPLE_CELL_GUARD", 72)
        assert generate(tb).dataset.n_rows == 24
        monkeypatch.setattr(paritygen, "SAMPLE_CELL_GUARD", 71)
        with pytest.raises(GuardLimitError, match="24 rows x n=3"):
            generate(tb)

    def test_target_biases_validation(self):
        with pytest.raises(ValueError):
            TargetBiases(k=1, n=3, q=2, entries={(0, 1): 2})
        with pytest.raises(ValueError):
            TargetBiases(k=1, n=3, q=2, entries={(0, 1, 2): 1})
        with pytest.raises(ValueError):
            TargetBiases(k=2, n=2, q=2, entries={})


class TestRealizeWeights:
    def test_all_zero_targets(self):
        rep = realize_weights({}, n=4, k=1, q_grid=8)
        assert rep.biases.entries == {}
        assert rep.total_abs_error == 0.0

    def test_single_target_induces_single_weight(self):
        rep = realize_weights({(0, 1, 2): 0.75}, n=4, k=2, q_grid=64)
        s = generate(rep.biases)
        wf = compute_weights(s.dataset, 2)
        for h in itertools.combinations(range(4), 3):
            if h == (0, 1, 2):
                assert wf[h] > 1e-6
            else:
                assert abs(wf[h]) <= 1e-12
        for h, w in wf.weights.items():
            if len(h) == 2:
                assert abs(w) <= 1e-12

    def test_induced_weights_proportional_up_to_reported_error(self):
        targets = {(0, 1, 2): 0.5, (0, 2, 3): 1.0, (1, 2, 3): 0.25}
        rep = realize_weights(targets, n=4, k=2, q_grid=128)
        s = generate(rep.biases)
        wf = compute_weights(s.dataset, 2)
        for h in itertools.combinations(range(4), 3):
            intended = rep.scale * targets.get(h, 0.0)
            assert wf[h] == pytest.approx(
                intended + rep.per_set_error.get(h, 0.0), abs=1e-9)

    def test_zero_one_instance_preserves_argmax(self):
        # weight 1 on two triples, 0 elsewhere; fine grid keeps the optimum
        targets = {(0, 1, 2): 1.0, (0, 1, 3): 1.0}
        n, k = 5, 2
        intended = WeightFunction(k=k, n=n, weights=targets)
        want = exact_search(intended)
        rep = realize_weights(targets, n=n, k=k, q_grid=1000)
        s = generate(rep.biases)
        induced = compute_weights(s.dataset, k)
        got = exact_search(induced)
        assert ktree_edges(got.tree) == ktree_edges(want.tree)

    def test_explicit_infeasible_scale(self):
        # a per-set bias r >= 1 rounds to p = round(r * Q) >= Q, so the
        # numerator check is the one that refuses it
        with pytest.raises(ValueError, match=r"infeasible scaling: subset "
                                             r"\(0, 1\) rounds to numerator "
                                             r"46 >= 8"):
            realize_weights({(0, 1): 0.6}, n=4, k=1, q_grid=8, scale=1.0)
        # over the largest realizable weight, refused before weight_to_bias
        with pytest.raises(ValueError, match=r"infeasible scaling: subset \(0, 1\)"):
            realize_weights({(0, 1): 0.6}, n=4, k=1, q_grid=8, scale=2.0)
        with pytest.raises(ValueError, match="infeasible"):
            realize_weights({(0, 1): 0.5}, n=4, k=1, q_grid=1)

    def test_rejects_negative_targets(self):
        with pytest.raises(ValueError):
            realize_weights({(0, 1): -0.5}, n=3, k=1, q_grid=8)

    @pytest.mark.parametrize("subset, why", [
        ((0, 1, 9), "has a vertex outside [0, 4)"),
        ((-1, 0, 1), "has a vertex outside [0, 4)"),
        ((0, 1, 1), "is not strictly ascending"),
        ((0.5, 1, 2), "has a non-integer vertex 0.5"),
        ((True, 2, 3), "has a non-integer vertex True"),
    ], ids=["subset0-outside", "subset1-outside", "subset2-repeats",
            "float-vertex", "bool-vertex"])
    def test_rejects_invalid_target_subsets(self, subset, why):
        message = re.escape(f"subset {subset} {why}")
        with pytest.raises(ValueError, match=message):
            realize_weights({subset: 0.5}, n=4, k=2, q_grid=8)
        with pytest.raises(ValueError, match=message):
            TargetBiases(k=2, n=4, q=8, entries={subset: 1})

    def test_accepts_numpy_integer_vertices(self):
        h = (np.int64(0), np.int64(1), np.int64(2))
        report = realize_weights({h: 0.1}, n=3, k=2, q_grid=4)
        assert report.biases.entries == {(0, 1, 2): 3}

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_invalid_scale(self, scale):
        with pytest.raises(ValueError, match="scale"):
            realize_weights({(0, 1): 0.5}, n=4, k=1, q_grid=8, scale=scale)


def test_biases_json_roundtrip(tmp_path):
    tb = TargetBiases(k=2, n=5, q=8, entries={(0, 1, 4): 3, (1, 2, 3): 7})
    doc = biases_to_dict(tb)
    assert doc["Q"] == 8
    assert biases_from_dict(doc) == tb
    path = tmp_path / "biases.json"
    path.write_text(json.dumps(doc))
    assert biases_from_dict(json.loads(path.read_text())) == tb


def test_numpy_integer_vertices_dump_as_json():
    i = np.int64
    tb = TargetBiases(k=1, n=3, q=4, entries={(i(0), i(2)): i(3)})
    assert biases_from_dict(json.loads(json.dumps(biases_to_dict(tb)))) == tb
    rep = realize_weights({(i(0), i(2)): 0.5}, n=3, k=1, q_grid=8)
    doc = json.loads(json.dumps(biases_to_dict(rep.biases)))
    assert biases_from_dict(doc) == rep.biases


def test_generation_is_deterministic():
    tb = TargetBiases(k=1, n=3, q=3, entries={(0, 2): 2})
    s1 = generate(tb)
    s2 = generate(tb)
    assert np.array_equal(s1.dataset.rows, s2.dataset.rows)
    assert np.array_equal(s1.dataset.counts, s2.dataset.counts)
    assert s1.block_log == s2.block_log


def test_generate_builds_no_per_block_record():
    # 4 * 10^6 rows in 10^6 blocks: only the 4 multiplicities are built
    tb = TargetBiases(k=1, n=2, q=10**6, entries={(0, 1): 7})
    tracemalloc.start()
    try:
        s = generate(tb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert s.dataset.n_rows == 4 * 10**6 and s.biases == tb


def _reverse_parity_biases():
    """The biases that the benchmark's reverse_parity workload realizes
    from its seed-1 targets (n=8, k=2, q=8): 256 distinct rows, 114,688 in
    all."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs

    doc = inputs.parity_targets(np.random.default_rng([1, 2]), 8, 8, 0.4)
    targets = {tuple(e["vars"]): e["w"] for e in doc["targets"]}
    return realize_weights(targets, n=8, k=2, q_grid=8).biases


@pytest.mark.parametrize("tb", [
    TargetBiases(k=1, n=2, q=2, entries={(0, 1): 1}),
    TargetBiases(k=1, n=3, q=1, entries={}),
    TargetBiases(k=2, n=5, q=4, entries={(0, 1, 2): 3, (1, 3, 4): 1}),
    TargetBiases(k=3, n=6, q=3, entries={(0, 2, 3, 5): 2}),
    _reverse_parity_biases(),
    # a biases spec may list a zero numerator: that subset emits cubes only
    TargetBiases(k=2, n=4, q=3, entries={(0, 1, 2): 0, (1, 2, 3): 2}),
    TargetBiases(k=2, n=5, q=4, entries={
        h: i % 4 for i, h in enumerate(itertools.combinations(range(5), 3))}),
], ids=["pair", "no-biases", "triples", "quads", "reverse-parity",
        "zero-numerator", "every-subset"])
def test_generate_matches_block_concatenation(tb):
    s = generate(tb)
    rows, log = generate_reference(tb)
    want_rows, want_counts = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(s.dataset.rows, want_rows)
    assert np.array_equal(s.dataset.counts, want_counts)
    assert s.dataset.counts.dtype == np.int64
    assert s.dataset.n_rows == len(rows)
    assert s.block_log == log
