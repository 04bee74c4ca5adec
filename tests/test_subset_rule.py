"""Every vertex-subset entry point refuses a bad subset with a ValueError.

Each entry point holds a subset to the one subset rule in
``errors.subset_key``: 2 vertices of [0, 3), 1 or 2 for a weight function,
and 1 or 2 of [0, 2) for a counted scope. The readers sort what they are
handed first, through ``errors.vertex_subset``; the stores also refuse an
unsorted key. The collections around subsets, a structure's attachment
pairs and the cliques given to ``clique_total``, refuse a value that is
none with a ValueError too.
"""

import numpy as np
import pytest

from hypertree.dataset import count_tables
from hypertree.paritygen import TargetBiases, realize_weights
from hypertree.structure import KTree
from hypertree.weights import WeightFunction, attachment_gain, clique_total

from oracles import tally

FAULTS = {
    "bare-int": 5,
    "none": None,
    "string-vertex": ("a", 1),
    "float-vertex": (0.5, 1),
    "bool-vertex": (True, 2),
    "repeat": (1, 1),
    "out-of-range": (0, 5),
    "wrong-size": (0, 1, 2),
}
UNSORTED = (1, 0)


def _attached(s):
    """A subset as (vertex, anchor): its last vertex attached to the rest,
    or vertex 2 attached to a value that is no sequence."""
    return (s[-1], s[:-1]) if isinstance(s, tuple) else (2, s)


def _wf():
    return WeightFunction(k=1, n=3, weights={(0, 1): 0.5})


def _data():
    return tally((2, 2), np.array([[0, 1], [1, 0]]))


READERS = {
    "wf-getitem": lambda s: _wf()[s],
    "clique_total": lambda s: clique_total([s], _wf()),
    "attachment_gain": lambda s: attachment_gain(_wf(), *_attached(s)),
    "ktree-seed": lambda s: KTree(k=1, n=3, seed=s,
                                  attachments=((2, (0,)),)),
    "ktree-attachment": lambda s: KTree(k=1, n=3, seed=(0, 1),
                                        attachments=(_attached(s),)),
}
STORES = {
    "weight-function": lambda s: WeightFunction(k=1, n=3, weights={s: 0.0}),
    "count_tables": lambda s: list(count_tables(_data(), [s])),
    "target-biases": lambda s: TargetBiases(k=1, n=3, q=4, entries={s: 1}),
    "realize_weights": lambda s: realize_weights({s: 0.5}, n=3, k=1,
                                                 q_grid=8),
}
CASES = ([(e, f) for e in READERS for f in FAULTS]
         + [(e, f) for e in STORES for f in [*FAULTS, "unsorted"]])


@pytest.mark.parametrize("entry, fault", CASES,
                         ids=[f"{e}-{f}" for e, f in CASES])
def test_subset_entry_point_refuses_with_value_error(entry, fault):
    call = {**READERS, **STORES}[entry]
    value = UNSORTED if fault == "unsorted" else FAULTS[fault]
    try:
        call(value)
    except TypeError as exc:
        pytest.fail(f"{entry} leaked a TypeError for {value!r}: {exc}")
    except ValueError as exc:
        if fault in ("bare-int", "none"):
            assert f"subset {value!r} is not a sequence of vertices" in str(exc)
    else:
        pytest.fail(f"{entry} accepted {value!r}")


# the collections that hold subsets: each refusal names the value at fault
CONTAINERS = {
    "ktree-attachment-int": (
        lambda: KTree(k=1, n=3, seed=(0, 1), attachments=(5,)),
        "attachment 5 is not a (vertex, anchor) pair"),
    "ktree-attachment-single": (
        lambda: KTree(k=1, n=3, seed=(0, 1), attachments=((2,),)),
        "attachment (2,) is not a (vertex, anchor) pair"),
    "ktree-attachment-triple": (
        lambda: KTree(k=1, n=3, seed=(0, 1), attachments=((2, (0,), 1),)),
        "attachment (2, (0,), 1) is not a (vertex, anchor) pair"),
    "clique_total-int": (
        lambda: clique_total(5, _wf()),
        "no weight entry: cliques 5 are not a collection of subsets"),
    "clique_total-none": (
        lambda: clique_total(None, _wf()),
        "no weight entry: cliques None are not a collection of subsets"),
}


@pytest.mark.parametrize("entry", CONTAINERS)
def test_subset_container_refuses_with_value_error(entry):
    call, message = CONTAINERS[entry]
    with pytest.raises(ValueError) as exc:  # a TypeError fails the test
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("entry", [e for e in READERS
                                   if e != "ktree-attachment"])
def test_subset_readers_sort_what_they_are_handed(entry):
    READERS[entry](UNSORTED)  # a one-vertex anchor has no order to test
