import itertools
import json

import numpy as np
import pytest

from hodgelab import (
    WeightedGraph,
    build_clique_complex,
    canonical_sign,
    complex_from_json,
    complex_to_json,
    drop_simplices,
    induced_subcomplex,
    weighted_degree,
)
from hodgelab.generators import gen_lattice

from conftest import unit_graph
from oracles import clique_counts, permutation_sign


def test_k3_counts(K3):
    assert K3.counts() == (3, 3, 1)


def test_path_has_no_triangle(path3):
    assert path3.counts() == (3, 2, 0)


def test_k4_counts_match_bruteforce(K4):
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    expected = clique_counts("abcd", edges, 3)
    assert expected == (4, 6, 4, 1)
    assert K4.counts() == expected


@pytest.mark.parametrize("seed", range(5))
def test_counts_match_bruteforce_random_graphs(seed):
    rng = np.random.default_rng(seed)
    vs = list(range(10))
    edges = [(u, v) for u, v in itertools.combinations(vs, 2) if rng.random() < 0.4]
    cx = build_clique_complex(unit_graph(vs, edges), 3)
    assert cx.counts() == clique_counts(vs, edges, 3)
    cx.verify_face_closure()
    cx.verify_clique_soundness()


def test_weighted_degree_k3(K3):
    assert weighted_degree(K3, 1, K3.index_of(1, ("a", "b"))) == 1.0
    assert weighted_degree(K3, 0, K3.index_of(0, ("a",))) == 2.0
    assert weighted_degree(K3, 2, 0) == 0.0  # top degree has no cofaces


def test_weighted_degree_k4_edge(K4):
    # two common neighbors, unit weights
    assert weighted_degree(K4, 1, K4.index_of(1, ("a", "b"))) == 2.0


def test_canonical_sign_basics():
    assert canonical_sign(("b", "a")) == (("a", "b"), -1)
    assert canonical_sign(("a", "b", "c")) == (("a", "b", "c"), 1)
    assert canonical_sign(("c", "a", "b")) == (("a", "b", "c"), permutation_sign(("c", "a", "b")))
    with pytest.raises(ValueError):
        canonical_sign(("a", "a", "b"))


@pytest.mark.parametrize("seed", range(20))
def test_canonical_sign_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    size = rng.integers(2, 6)
    t = tuple(rng.permutation(np.arange(10))[:size].tolist())
    key, sign = canonical_sign(t)
    assert key == tuple(sorted(t))
    assert sign == permutation_sign(t)


def test_canonical_sign_roundtrip(K4):
    # evaluating through the sign is independent of the input ordering
    for perm in itertools.permutations(("a", "b", "c")):
        simplex, sign = K4.canonical_simplex(perm)
        assert simplex.vertices == ("a", "b", "c")
        assert sign == permutation_sign(perm)


def test_loops_rejected():
    with pytest.raises(ValueError):
        WeightedGraph({"a": 1.0}, {("a", "a"): 1.0})


def test_nonpositive_weights_rejected():
    with pytest.raises(ValueError):
        WeightedGraph({"a": 0.0, "b": 1.0}, {("a", "b"): 1.0})
    g = unit_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    with pytest.raises(ValueError):
        build_clique_complex(g, 2, lambda s: 0.0)


def test_extensions_are_graph_common_neighbors_on_clique_complex(K4):
    # on a full clique complex the coface extensions at degree < n are exactly
    # the graph common neighbors
    for degree in range(K4.max_degree):
        for j, s in enumerate(K4.simplices[degree]):
            ext = {x for x, _ in K4.extensions[degree][j]}
            assert ext == K4.graph.common_neighbors(s)


def test_simplex_neighbors_share_all_but_one(K4):
    idx = K4.index_of(1, ("a", "b"))
    nbrs = K4.simplex_neighbors(1, idx)
    shared = [K4.simplices[1][t] for t in nbrs]
    assert all(len(set(s) & {"a", "b"}) == 1 for s in shared)
    assert len(shared) == 4  # every other edge of K4 except the opposite one


def test_induced_subcomplex_k4_to_k3(K4):
    sub = induced_subcomplex(K4, {"a", "b", "c"})
    assert sub.counts() == (3, 3, 1, 0)  # ambient max degree kept, top empty
    sub.verify_face_closure()
    with pytest.raises(ValueError):
        induced_subcomplex(K4, set())


def test_induced_subcomplex_identity(K4):
    sub = induced_subcomplex(K4, {"a", "b", "c", "d"})
    assert sub.counts() == K4.counts()
    assert sub.simplices == K4.simplices


def test_json_roundtrip_lattice():
    cx = gen_lattice(2, 2, 2)
    doc = json.loads(json.dumps(complex_to_json(cx)))
    back = complex_from_json(doc)
    assert back.simplices == cx.simplices
    for i in range(cx.max_degree + 1):
        assert np.allclose(back.weights[i], cx.weights[i])


def test_json_roundtrip_preserves_dropped_simplices(K3, hollow_triangle):
    doc = json.loads(json.dumps(complex_to_json(hollow_triangle)))
    back = complex_from_json(doc)
    assert back.counts() == (3, 3, 0)


def test_dropped_edge_leaves_the_graph(K3):
    cx = drop_simplices(K3, 1, lambda e: e != ("a", "c"))
    assert cx.counts() == (3, 2, 0)
    assert cx.graph.distances_from(["a"]) == {"a": 0, "b": 1, "c": 2}
    doc = json.loads(json.dumps(complex_to_json(cx)))
    assert [(e["u"], e["v"]) for e in doc["edges"]] == [("a", "b"), ("b", "c")]
    assert complex_from_json(doc).counts() == (3, 2, 0)


def test_json_default_weights_are_one():
    doc = {
        "vertices": [{"id": v, "m0": 1.0} for v in "abc"],
        "edges": [
            {"u": "a", "v": "b", "m1": 1.0},
            {"u": "a", "v": "c", "m1": 1.0},
            {"u": "b", "v": "c", "m1": 1.0},
        ],
        "max_degree": 2,
    }
    cx = complex_from_json(doc)
    assert cx.counts() == (3, 3, 1)
    assert cx.weights[2][0] == 1.0
