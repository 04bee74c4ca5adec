"""Independent brute-force oracles and random-instance generators for tests.

Everything here deliberately avoids the library's solver/search code paths:
k-trees are enumerated by raw construction sequences with edge-set dedup, and
cliques by scanning all vertex subsets of an adjacency matrix. The
estimators read raw (T, n) rows or dense probability arrays, as the library
did before a Dataset held distinct weighted rows. The solver references,
``greedy_reference`` and ``local_search_reference``, are the library's
original full-rescan solvers, ``chow_liu_reference`` its original Kruskal
merge for width 1, and ``compute_weights_reference`` counts each
subset on its own with ``np.ravel_multi_index``, as the library once did.
These, the clique and gain references and ``brute_ktree_scores`` read the
subset weights w through ``subset_weights``, the weight dump's entries,
never the library's clique totals; ``family_weights_reference`` is the
recursion that defines w.
``count_table``, ``marginal`` and ``scope_entropy`` are not references: they
read one scope through the library's ``count_tables``, whose scopes
``record_counted_scopes`` lists. ``weight_inclusion_exclusion`` and
``mutual_information`` are: they read each entropy through
``entropy_reference``, which counts with ``count_table_reference``.
``tally`` sorts and counts rows with ``np.unique``, the reference for the
``Dataset`` constructor's own tally.
"""

import csv
import functools
import itertools
import math
import time
from array import array

import numpy as np
from hypothesis import strategies as st

from hypertree import solvers
from hypertree.dataset import (
    Dataset,
    count_tables,
    entropy,
    joint_table_from_dict,
)
from hypertree.structure import KTree, ktree_from_cliques
from hypertree.weights import WeightFunction, from_subset_weights, weights_to_dict

MI_ZERO_TOL = 1e-12


def record_counted_scopes(monkeypatch) -> list:
    """The scopes ``dataset.count_tables`` yields from now on, in order."""
    from hypertree import dataset

    scopes = []

    def recording(data, requested):
        for scope, counts in count_tables(data, requested):
            scopes.append(scope)
            yield scope, counts

    monkeypatch.setattr(dataset, "count_tables", recording)
    return scopes


def count_table(data: Dataset, scope) -> np.ndarray:
    """The weighted count table of one scope, from ``count_tables``."""
    return next(count_tables(data, [scope]))[1]


def marginal(data: Dataset, scope) -> np.ndarray:
    """The marginal distribution over one scope, from ``count_tables``."""
    return count_table(data, scope) / data.n_rows


def scope_entropy(data: Dataset, scope) -> float:
    """The entropy of the marginal over one scope, in nats."""
    return entropy(marginal(data, scope))


def weight_inclusion_exclusion(provider, h) -> float:
    """A clique weight as an alternating entropy sum over subsets of h.

    w(h) = -sum over nonempty subsets h' of h of (-1)^(|h|-|h'|) H(h').
    Serves as an independent oracle for the recursion in compute_weights.
    """
    h = tuple(sorted(int(v) for v in h))
    if not h:
        raise ValueError("subset must be nonempty")
    total = 0.0
    for size in range(1, len(h) + 1):
        sign = (-1) ** (len(h) - size)
        for hp in itertools.combinations(h, size):
            total -= sign * entropy_reference(provider, hp)
    return total


def mutual_information(provider, u: int, v: int) -> float:
    """I(X_u; X_v) = H(u) + H(v) - H(u, v), clamped to 0 near zero."""
    if u == v:
        raise ValueError("mutual information requires two distinct variables")
    lo, hi = min(u, v), max(u, v)
    val = (
        entropy_reference(provider, (lo,))
        + entropy_reference(provider, (hi,))
        - entropy_reference(provider, (lo, hi))
    )
    return 0.0 if abs(val) <= MI_ZERO_TOL else val


def load_dataset_reference(source, arities=None) -> Dataset:
    """load_dataset from an open text stream, as it read a CSV before cells
    went straight into one int64 buffer: a list of Python ints per row, one
    NumPy copy of them all, and a rescan for cells outside int64 when that
    copy overflows. A differential oracle for the loader's values, arities
    and error messages on inputs with at most one fault.
    """
    reader = csv.reader(source)
    rows, lines = [], array("q")
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV: missing header row")
        if not header:
            raise ValueError(f"line {reader.line_num}: empty header row")
        names = [h.strip() for h in header]
        for col, name in enumerate(names):
            where = f"line {reader.line_num}, column {col + 1}"
            if not name:
                raise ValueError(f"{where}: empty header name")
            if name in names[:col]:
                raise ValueError(f"{where}: header name {name!r} repeats "
                                 f"column {names.index(name) + 1}")
        if arities is not None:
            unknown = sorted(set(arities) - set(names))
            if unknown:
                raise ValueError(f"arities given for columns not in the "
                                 f"header: {unknown}")
        for rec in reader:
            if not rec:
                continue
            lineno = reader.line_num
            if len(rec) != len(names):
                raise ValueError(
                    f"line {lineno}: expected {len(names)} cells, got {len(rec)}"
                )
            vals = []
            for col, cell in enumerate(rec):
                try:
                    vals.append(int(cell.strip()))
                except ValueError:
                    raise ValueError(
                        f"line {lineno}, column {names[col]!r}: "
                        f"non-integer cell {cell!r}"
                    ) from None
            rows.append(vals)
            lines.append(lineno)
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("empty CSV body: no data rows")
    try:
        data = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        info = np.iinfo(np.int64)
        row, col, cell = next(
            (row, col, v)
            for row, vals in enumerate(rows)
            for col, v in enumerate(vals)
            if not info.min <= v <= info.max)
        raise ValueError(
            f"line {lines[row]}, column {names[col]!r}: cell {cell} "
            f"outside the int64 range"
        ) from None
    found = []
    for i, name in enumerate(names):
        col = data[:, i]
        observed = int(col.max()) + 1
        if arities is not None and name in arities:
            arity = int(arities[name])
        else:
            arity = max(observed, 2)
        if col.min() < 0 or observed > arity:
            row = int(np.argmax((col < 0) | (col >= arity)))
            code = int(col[row])
            why = (f">= declared arity {arity}" if code >= 0
                   else f"outside [0, {arity})")
            raise ValueError(
                f"line {lines[row]}, column {name!r}: outcome {code} {why}")
        found.append(arity)
    return tally(tuple(found), data)


def tally(arities, rows) -> Dataset:
    """The Dataset of a (T, n) table of observations: its distinct rows in
    lexicographic order, each counted by ``np.unique`` before the
    constructor sees them: a tally independent of the constructor's."""
    return Dataset(arities, *np.unique(rows, axis=0, return_counts=True))


def text_file(directory, text: str):
    """Write text to the file ``input`` in directory as given, line ends
    included, and return its path: the library's loaders read files."""
    path = directory / "input"
    path.write_text(text, encoding="utf-8", newline="")
    return path


def random_dataset(rng, n, t, arities=None):
    if arities is None:
        arities = [int(rng.integers(2, 4)) for _ in range(n)]
    rows = np.column_stack([rng.integers(0, a, size=t) for a in arities])
    return tally(arities, rows)


def joint_table(probs) -> Dataset:
    """A dense probability array read as a joint-table document."""
    probs = np.asarray(probs, dtype=float)
    return joint_table_from_dict({"arities": list(probs.shape),
                                  "probs": probs.ravel().tolist()})


def dense(data: Dataset) -> np.ndarray:
    """The full probability array of a Dataset, shaped by its arities."""
    probs = np.zeros(data.arities)
    probs[tuple(data.rows.T)] = data.counts / data.n_rows
    return probs


def random_joint(rng, arities):
    p = rng.random(tuple(arities))
    p /= p.sum()
    return joint_table(p)


@st.composite
def target_samples(draw, min_vars=1, max_vars=4, max_rows=30):
    """(arities, raw (T, n) rows, dense probability array) over 2..4
    outcomes per variable. Rows repeat, some columns never show their top
    outcome, and some probability cells are zero."""
    n = draw(st.integers(min_vars, max_vars))
    arities = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    seen = [a - draw(st.integers(0, 1)) for a in arities]
    cells = st.tuples(*[st.integers(0, m - 1) for m in seen])
    rows = draw(st.lists(cells, min_size=1, max_size=max_rows))
    weights = np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0]) | st.floats(1e-3, 1.0),
        min_size=math.prod(arities), max_size=math.prod(arities))))
    if not weights.any():
        weights[-1] = 1.0
    return (tuple(arities), np.array(rows, dtype=np.int64).reshape(-1, n),
            (weights / weights.sum()).reshape(arities))


def count_table_reference(rows, arities, scope, weights=None) -> np.ndarray:
    """Outcome counts of (T, n) rows over a sorted scope, each row weighted
    by ``weights`` if given: integers for raw rows, floats for weighted."""
    dims = tuple(arities[v] for v in scope)
    flat = np.ravel_multi_index(tuple(rows[:, v] for v in scope), dims)
    return np.bincount(flat, weights=weights,
                       minlength=math.prod(dims)).reshape(dims)


def entropy_reference(data: Dataset, scope) -> float:
    """The entropy of a dataset's marginal over one sorted scope, in nats,
    its rows weighted by their counts in ``count_table_reference``."""
    return entropy(count_table_reference(data.rows, data.arities, scope,
                                         data.counts) / data.n_rows)


def family_weights_reference(entropies) -> dict:
    """The subset weights of the (h, H(h)) pairs, and of no other, in their
    order: w(h) = -H(h) - sum of w over h's proper nonempty subsets, by size
    and then in order. Each h comes after all of its own subsets."""
    w: dict[tuple[int, ...], float] = {}
    for h, ent in entropies:
        acc = -ent
        for sub_size in range(1, len(h)):
            for hp in itertools.combinations(h, sub_size):
                acc -= w[hp]
        w[h] = acc
    return w


def compute_weights_reference(provider, k) -> dict:
    """The subset weights compute_weights dumps, as it formed them before
    ``count_tables``: each subset of the domain counted on its own, in
    (size, vertices) order, with ``count_table_reference``; then its entropy
    and ``family_weights_reference``."""
    n = provider.n_vars
    return family_weights_reference(
        (h, entropy_reference(provider, h))
        for size in range(1, k + 2)
        for h in itertools.combinations(range(n), size))


@functools.lru_cache(maxsize=8)
def subset_weights(wf) -> dict:
    """The subset weights w of a weight function, as its dump lists them; a
    subset absent from the dict weighs 0."""
    return {tuple(e["vars"]): e["w"] for e in weights_to_dict(wf)["weights"]}


def marginal_reference(rows, arities, scope) -> np.ndarray:
    """The empirical marginal of raw (T, n) rows over a sorted scope."""
    return count_table_reference(rows, arities, scope) / rows.shape[0]


def marginal_dense(probs, scope) -> np.ndarray:
    """The marginal of a dense probability array over a sorted scope."""
    drop = tuple(i for i in range(probs.ndim) if i not in scope)
    return probs.sum(axis=drop) if drop else probs


def joint_entropy_reference(rows) -> float:
    """Plug-in entropy of raw (T, n) rows, over their distinct rows."""
    _, counts = np.unique(rows, axis=0, return_counts=True)
    return entropy(counts / rows.shape[0])


def model_joint(model) -> np.ndarray:
    """Full joint table of a projected model: the product of its factors,
    each the exp of the model's log table."""
    n = len(model.arities)
    table = np.ones(model.arities)
    for h, log in model.factors.items():
        shape = tuple(model.arities[i] if i in h else 1 for i in range(n))
        table = table * np.exp(log).reshape(shape)
    return table


def log_likelihood_reference(model, rows) -> float:
    """Total log likelihood of raw (T, n) rows, one row at a time, through
    the factors (the exp of the model's log tables); -inf as soon as a row
    hits a zero factor."""
    total = np.zeros(rows.shape[0])
    dead = np.zeros(rows.shape[0], dtype=bool)
    for h in sorted(model.factors, key=lambda h: (len(h), h)):
        vals = np.exp(model.factors[h][tuple(rows[:, i] for i in h)])
        zero = vals == 0.0
        dead |= zero
        total += np.where(zero, 0.0, np.log(np.where(zero, 1.0, vals)))
    return float("-inf") if dead.any() else float(total.sum())


def divergence_direct_reference(probs, model) -> float:
    """KL divergence from a dense target array to the model's full joint."""
    phat = model_joint(model)
    mask = probs > 0
    t = probs[mask]
    return float((t * (np.log(t) - np.log(phat[mask]))).sum())


def generate_reference(tb):
    """The pooled parity sample as (rows, block log), by concatenating its
    C(n, k+1) * q blocks of 2^n rows, the cube's bit i in column i."""
    codes = np.arange(1 << tb.n, dtype=np.int64)
    cube = (codes[:, None] >> np.arange(tb.n)) & 1
    blocks, log = [], []
    for h in itertools.combinations(range(tb.n), tb.k + 1):
        p = tb.entries.get(h, 0)
        odd = cube[cube[:, h].sum(axis=1) % 2 == 1]
        odd_block = np.concatenate([odd, odd])
        for b in range(tb.q):
            fixed = b >= tb.q - p
            blocks.append(odd_block if fixed else cube)
            log.append((h, b, fixed))
    return np.concatenate(blocks), tuple(log)


def random_ktree(rng, n, k):
    """A uniform-ish random k-tree via random seed and random anchors."""
    verts = list(rng.permutation(n))
    seed = tuple(sorted(verts[: min(k + 1, n)]))
    cliques = [seed]
    attachments = []
    for v in verts[min(k + 1, n):]:
        host = cliques[int(rng.integers(0, len(cliques)))]
        anchor = tuple(sorted(rng.choice(host, size=k, replace=False).tolist()))
        attachments.append((int(v), anchor))
        cliques.append(tuple(sorted(anchor + (int(v),))))
    return KTree(k=k, n=n, seed=seed, attachments=tuple(attachments))


def elimination_order(edges, k, n):
    """A perfect elimination ordering of a chordal graph whose cliques have
    at most k+1 vertices, or None if the graph is not one.

    Runs maximum-cardinality search (ties to the smallest vertex); the
    reverse visit order is a perfect elimination ordering exactly when the
    graph is chordal, and then the largest clique is some vertex together
    with its earlier-visited neighbors.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    weight = [0] * n
    pos = {}
    visit = []
    for i in range(n):
        best = min((u for u in range(n) if u not in pos),
                   key=lambda u: (-weight[u], u))
        earlier = [u for u in adj[best] if u in pos]
        if len(earlier) > k or any(b not in adj[a] for a, b
                                   in itertools.combinations(earlier, 2)):
            return None
        pos[best] = i
        visit.append(best)
        for u in adj[best]:
            weight[u] += 1
    return tuple(reversed(visit))


def ktree_from_graph(edges, k, n):
    """Embed a chordal graph of width at most k into a k-tree containing it.

    Processes the perfect elimination ordering in reverse: the last
    min(k+1, n) vertices become the seed, and each earlier vertex attaches to
    its later neighbors, filled up to size k with the lexicographically
    smallest completion taken from an existing clique. The library's
    original encoder, kept as the reference for ``ktree_from_cliques``.
    """
    elim = elimination_order(edges, k, n)
    if elim is None:
        raise ValueError(f"graph is not chordal with cliques of at most "
                         f"{k + 1} vertices")
    if n <= k + 1:
        return KTree(k=k, n=n, seed=tuple(range(n)))
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    pos = {v: i for i, v in enumerate(elim)}
    seed = tuple(sorted(elim[n - (k + 1):]))
    cliques = [seed]
    attachments = []
    for i in range(n - k - 2, -1, -1):
        v = elim[i]
        later = sorted(u for u in adj[v] if pos[u] > i)
        need = k - len(later)
        anchor = min(tuple(sorted(later + sorted(set(c) - set(later))[:need]))
                     for c in cliques if set(later) <= set(c))
        attachments.append((v, anchor))
        cliques.append(tuple(sorted(anchor + (v,))))
    return KTree(k=k, n=n, seed=seed, attachments=tuple(attachments))


def random_subset_weights(rng, n, k, lo=-0.3, hi=1.0) -> dict:
    """Arbitrary weights on sizes >= 2; singletons absent, so zero."""
    return {h: float(rng.uniform(lo, hi))
            for size in range(2, k + 2)
            for h in itertools.combinations(range(n), size)}


def random_weight_function(rng, n, k, lo=-0.3, hi=1.0):
    """The weight function of ``random_subset_weights``."""
    return from_subset_weights(k, n, random_subset_weights(rng, n, k, lo, hi))


def reverse_targets_wf(n, seed, k=2, density=0.4) -> WeightFunction:
    """The paper's hard family, drawn as ``scripts/reverse_pipeline.py``
    draws its targets: each (k+1)-subset, in lexicographic order, gets a
    target in eighths from 1/8 to 7/8 with probability ``density``, from
    default_rng(seed), and the targets are the weights. Pair weights are 0,
    which is where the heuristics fail most."""
    rng = np.random.default_rng(seed)
    subsets = list(itertools.combinations(range(n), k + 1))
    targets = {h: float(rng.integers(1, 8)) / 8.0
               for h in subsets if rng.random() < density}
    return from_subset_weights(k, n, targets or {subsets[0]: 0.5})


def clique_total_reference(maximal_cliques, wf) -> float:
    """``weights.clique_total`` as the library once summed it: the w of
    every subset of two or more vertices inside the given cliques, each
    once, in lexicographic order."""
    w = subset_weights(wf)
    subs = {h for mc in maximal_cliques
            for size in range(2, len(mc) + 1)
            for h in itertools.combinations(sorted(mc), size)}
    return float(sum(w.get(h, 0.0) for h in sorted(subs)))


def attachment_gain_reference(wf, v, anchor) -> float:
    """``weights.attachment_gain`` as the library once summed it: the w of
    S + {v} for each nonempty S inside the sorted anchor, by size, then S
    in order."""
    w = subset_weights(wf)
    anchor = tuple(sorted(anchor))
    total = 0.0
    for size in range(1, len(anchor) + 1):
        for sub in itertools.combinations(anchor, size):
            total += w.get(tuple(sorted(sub + (v,))), 0.0)
    return total


def chow_liu_reference(wf) -> KTree:
    """The maximum-weight spanning tree of a k=1 weight function, by
    Kruskal's merge: the library's original ``chow_liu``.

    Every pair's w is scanned by descending weight, ties to the
    lexicographically smallest edge. Each vertex carries a component label,
    and an accepted edge relabels one of the two components. Zero- or
    negative-weight edges are still used where needed to span. This is the
    independent oracle for ``chow_liu`` and greedy at width 1.
    """
    n, w = wf.n, subset_weights(wf)
    component = list(range(n))
    chosen = []
    for _, (u, v) in sorted((-w.get(e, 0.0), e)
                            for e in itertools.combinations(range(n), 2)):
        cu, cv = component[u], component[v]
        if cu != cv:
            component = [cu if c == cv else c for c in component]
            chosen.append((u, v))
    return ktree_from_cliques(chosen, 1, n)


def greedy_reference(wf):
    """The k-tree ``solvers.greedy`` must build, by a full rescan per step.

    Every step scores each (unplaced vertex, current anchor) pair, vertices
    ascending and anchors sorted, and takes the first strict maximum. Seeds
    are ranked by ``clique_total_reference`` and moves by
    ``attachment_gain_reference``. This is the library's original greedy,
    kept as the differential oracle for the incremental one.
    """
    n, k = wf.n, wf.k
    if n <= k + 1:
        return KTree(k=k, n=n, seed=tuple(range(n)))
    best_seed = None
    best_val = None
    for seed in itertools.combinations(range(n), k + 1):
        val = clique_total_reference((seed,), wf)
        if best_val is None or val > best_val:
            best_val = val
            best_seed = seed
    placed = set(best_seed)
    anchors = set(itertools.combinations(best_seed, k))
    attachments = []
    while len(placed) < n:
        best_move = None
        best_gain = None
        for v in range(n):
            if v in placed:
                continue
            for a in sorted(anchors):
                g = attachment_gain_reference(wf, v, a)
                if best_gain is None or g > best_gain:
                    best_gain = g
                    best_move = (v, a)
        v, a = best_move
        attachments.append((v, a))
        placed.add(v)
        new_clique = tuple(sorted(a + (v,)))
        for s in itertools.combinations(new_clique, k):
            if v in s:
                anchors.add(s)
    return KTree(k=k, n=n, seed=best_seed, attachments=tuple(attachments))


def local_search_reference(wf, start: KTree):
    """The result ``solvers.local_search`` must return, by a full rescore.

    Every swap is scored by ``clique_total_reference`` of the whole
    relabeled clique list against a baseline rescored once per iteration,
    and every re-anchor by ``attachment_gain_reference``. This is the
    library's original local search, kept as the differential oracle for
    the one that scores each swap by the cliques it changes.

    Hill climbing over two moves, first-improvement, deterministic order.

    Move (a) re-anchors a removable vertex (one whose maximal clique is a
    leaf of the clique tree, i.e. a simplicial vertex) to any other k-clique
    of the remaining graph. Move (b) swaps the labels of a removable vertex
    and another vertex, exchanging their structural roles. Only strictly
    improving moves (by more than 1e-12) are accepted, so the final score
    never drops below the start. The search stops when no move improves,
    or after DEFAULT_MAX_ITERS iterations. The move set is this library's
    own design.

    The search state is the list of maximal cliques. In a k-tree with
    n >= k+2 a vertex is removable exactly when it lies in one maximal
    clique, and its anchor is the rest of that clique, so both are read off
    the list. Attachment gains are cached. A changed clique list is encoded
    as a k-tree once, by ``ktree_from_cliques``, when the search ends.
    """
    t0 = time.perf_counter()
    n, k = start.n, start.k
    if wf.n != n:
        raise ValueError(f"weight function covers {wf.n} vertices, tree has {n}")
    if k > wf.k:
        raise ValueError(f"start tree has width {k}, over the weight "
                         f"function's width {wf.k}")
    if n <= k + 1:
        return solvers._result(start, wf, "local_search", t0, 0, 0)
    gain = functools.cache(functools.partial(attachment_gain_reference, wf))
    maximal = list(start.maximal_cliques())
    changed = False
    iterations = 0
    moves_evaluated = 0
    while iterations < solvers.DEFAULT_MAX_ITERS:
        iterations += 1
        cur_score = clique_total_reference(maximal, wf)  # drift-free baseline
        home: dict[int, tuple[int, ...] | None] = {}
        for mc in maximal:
            for x in mc:
                home[x] = mc if x not in home else None
        removable = [v for v in range(n) if home[v] is not None]
        improved = None

        # (a) re-anchor a removable vertex elsewhere; v lies in exactly one
        # maximal clique, which the move replaces
        for v in removable:
            old_anchor = tuple(x for x in home[v] if x != v)
            loss = gain(v, old_anchor)
            candidates = sorted({
                s for mc in maximal for s in itertools.combinations(mc, k)
                if v not in s
            } - {old_anchor})
            for a in candidates:
                moves_evaluated += 1
                if gain(v, a) - loss > solvers.IMPROVE_EPS:
                    improved = [tuple(sorted(a + (v,))) if v in mc else mc
                                for mc in maximal]
                    break
            if improved is not None:
                break

        # (b) swap the labels of a removable vertex and another vertex
        if improved is None:
            for v in removable:
                for u in range(n):
                    if u == v:
                        continue
                    moves_evaluated += 1
                    relabel = {u: v, v: u}
                    swapped = [tuple(sorted(relabel.get(x, x) for x in mc))
                               for mc in maximal]
                    if (clique_total_reference(swapped, wf) - cur_score
                            > solvers.IMPROVE_EPS):
                        improved = swapped
                        break
                if improved is not None:
                    break

        if improved is None:
            break
        maximal = improved
        changed = True

    tree = ktree_from_cliques(maximal, k, n) if changed else start
    return solvers._result(tree, wf, "local_search", t0, moves_evaluated,
                           iterations)


def brute_ktree_scores(wf):
    """Score of every k-tree on wf's vertices, keyed by frozen edge set.

    Enumerates construction sequences directly, memoizing on the partial
    edge set (the score of a partial k-tree is a function of its graph, so
    any one path through a partial graph stands for all of them).
    """
    n, k, w = wf.n, wf.k, subset_weights(wf)

    def edge_bits(clique):
        m = 0
        for a, b in itertools.combinations(clique, 2):
            m |= 1 << (a * n + b)
        return m

    def gain(v, anchor):
        return sum(
            w.get(tuple(sorted(s + (v,))), 0.0)
            for r in range(1, k + 1)
            for s in itertools.combinations(anchor, r)
        )

    results = {}
    seen = set()

    def expand(used, emask, cliques, sc):
        if emask in seen:
            return
        seen.add(emask)
        if len(used) == n:
            results[emask] = sc
            return
        anchors = {s for c in cliques for s in itertools.combinations(c, k)}
        for v in range(n):
            if v in used:
                continue
            for a in sorted(anchors):
                newc = tuple(sorted(a + (v,)))
                expand(used | {v}, emask | edge_bits(newc), cliques + [newc],
                       sc + gain(v, a))

    for seed in itertools.combinations(range(n), min(k + 1, n)):
        s0 = sum(
            w.get(h, 0.0)
            for size in range(2, len(seed) + 1)
            for h in itertools.combinations(seed, size)
        )
        expand(set(seed), edge_bits(seed), [seed], s0)

    def unpack(emask):
        edges = []
        i = 0
        while emask:
            if emask & 1:
                edges.append((i // n, i % n))
            emask >>= 1
            i += 1
        return frozenset(edges)

    return {unpack(m): s for m, s in results.items()}


def top_two_scores(scores):
    """Best and second-best score over distinct edge sets."""
    vals = sorted(scores.values(), reverse=True)
    return vals[0], (vals[1] if len(vals) > 1 else None)


def brute_cliques(edges, n, max_size):
    """All complete subgraphs of size 2..max_size, by subset scan."""
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = True
    out = set()
    for size in range(2, max_size + 1):
        for sub in itertools.combinations(range(n), size):
            if all(adj[a][b] for a, b in itertools.combinations(sub, 2)):
                out.add(sub)
    return out


def xor_triple_joint():
    """Three binary vars, pairwise independent, x2 = x0 xor x1."""
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            p[a, b, a ^ b] = 0.25
    return joint_table(p)


def markov_chain_joint(flip=0.2):
    """Binary chain x0 -> x1 -> x2 with the given flip probability per step."""
    p = np.zeros((2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                pb = (1 - flip) if b == a else flip
                pc = (1 - flip) if c == b else flip
                p[a, b, c] = 0.5 * pb * pc
    return joint_table(p)


def product_joint(rng, arities):
    """Joint table that factorizes over singletons exactly."""
    parts = []
    for a in arities:
        q = rng.random(a)
        q /= q.sum()
        parts.append(q)
    p = parts[0]
    for q in parts[1:]:
        p = np.multiply.outer(p, q)
    return joint_table(p)
