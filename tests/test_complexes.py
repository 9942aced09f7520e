import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from hodgelab import complexes
from hodgelab.complexes import Topology, reweighted
from hodgelab.divergence import LayerDecomposition, growth_table
from hodgelab.generators import gen_lattice, gen_perturbed_lattice, lattice_cube, offspring_tree_family
from hodgelab.operators import coboundary_matrix

from conftest import k3_description, unit_graph
from oracles import (
    bfs_distances,
    boundary_matrix,
    clique_counts,
    clique_tables,
    cofaces,
    growth_sups,
    permutation_sign,
    verify_clique_soundness,
    verify_face_closure,
)


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
    verify_face_closure(cx)
    verify_clique_soundness(cx)


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
        key, sign = canonical_sign(perm)
        assert K4.index_of(2, key) == K4.simplices[2].index(("a", "b", "c"))
        assert sign == permutation_sign(perm)


def test_loops_rejected():
    with pytest.raises(ValueError):
        WeightedGraph({"a": 1.0}, {("a", "a"): 1.0})


def test_nonpositive_weights_rejected(K3):
    with pytest.raises(ValueError):
        WeightedGraph({"a": 0.0, "b": 1.0}, {("a", "b"): 1.0})
    with pytest.raises(ValueError):
        reweighted(K3, [K3.weights[0], K3.weights[1], [0.0]])


def test_extensions_are_graph_common_neighbors_on_clique_complex(K4):
    # on a full clique complex the coface extensions at degree < n are exactly
    # the common neighbors in the edge table
    edges = {frozenset(e) for e in K4.simplices[1]}
    labels = [v for (v,) in K4.simplices[0]]
    for degree in range(K4.max_degree):
        j, x, _ = K4.topology.extension_coo(degree)
        for idx, s in enumerate(K4.simplices[degree]):
            ext = {K4.simplices[0][p][0] for p in x[j == idx]}
            assert ext == {y for y in labels if all(frozenset((u, y)) in edges for u in s)}


def test_induced_subcomplex_k4_to_k3(K4):
    sub = induced_subcomplex(K4, {"a", "b", "c"})
    assert sub.counts() == (3, 3, 1, 0)  # ambient max degree kept, top empty
    verify_face_closure(sub)
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
    assert cx.topology.distances_from(["a"]) == {"a": 0, "b": 1, "c": 2}
    doc = json.loads(json.dumps(complex_to_json(cx)))
    assert [(e["u"], e["v"]) for e in doc["edges"]] == [("a", "b"), ("b", "c")]
    assert complex_from_json(doc).counts() == (3, 2, 0)


def test_listed_simplex_without_its_faces_is_refused(K4):
    doc = json.loads(json.dumps(complex_to_json(K4)))
    doc["weights"]["2"] = doc["weights"]["2"][1:]  # the tetrahedron loses face abc
    with pytest.raises(ValueError, match=re.escape("degree-3 weights reference non-cliques: "
                                                   "[('a', 'b', 'c', 'd')]")):
        complex_from_json(doc)


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


BAD_WEIGHTS = [-3.0, 0.0, math.nan, math.inf]


@pytest.mark.parametrize("bad", BAD_WEIGHTS)
@pytest.mark.parametrize("field,name", [("m0", "m0('a')"), ("m1", "m1('a','b')"),
                                        ("m", "degree-2 weight m('a', 'b', 'c')")])
def test_description_weights_must_be_finite_and_positive(field, name, bad):
    assert complex_from_json(k3_description()).counts() == (3, 3, 1)
    with pytest.raises(ValueError, match=re.escape(name) + " = .* must be finite and positive"):
        complex_from_json(k3_description(**{field: bad}))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_graph_and_rule_weights_must_be_finite(K3, bad):
    with pytest.raises(ValueError, match=re.escape("m0('a')")):
        WeightedGraph({"a": bad, "b": 1.0}, {("a", "b"): 1.0})
    with pytest.raises(ValueError, match=re.escape("m1('a','b')")):
        WeightedGraph({"a": 1.0, "b": 1.0}, {("a", "b"): bad})
    with pytest.raises(ValueError, match=re.escape("('a', 'b', 'c')")):
        reweighted(K3, [K3.weights[0], K3.weights[1], [bad]])


@pytest.mark.parametrize("bad", BAD_WEIGHTS)
@pytest.mark.parametrize("degree,simplex", [(0, ("b",)), (1, ("a", "c")), (2, ("a", "b", "c"))])
def test_reweighted_refuses_weights_not_finite_and_positive(K3, degree, simplex, bad):
    weights = [w.copy() for w in K3.weights]
    weights[degree][K3.index_of(degree, simplex)] = bad
    name = f"degree-{degree} weight m{simplex!r}"
    with pytest.raises(ValueError, match=re.escape(name) + " = .* must be finite and positive"):
        reweighted(K3, weights)


def test_zero_edge_weight_means_no_edge():
    g = WeightedGraph({"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "b"): 0.0, ("b", "c"): 2.0})
    assert g.m1 == {("b", "c"): 2.0}
    cx = build_clique_complex(g, 1)
    assert cx.topology.vertex_index(1).tolist() == [[1, 2]]
    assert cx.simplices[1] == [("b", "c")] and cx.weights[1].tolist() == [2.0]


@st.composite
def weighted_graph_complexes(draw):
    """A clique complex of max degree 1 to 4 on a random graph with up to 9
    vertices, whose integer labels skip values so that labels and table
    positions differ; weights in [0.1, 10] on every simplex.  Drawn as
    ``(labels, edges, complex)``."""
    labels = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=9)))
    pairs = list(itertools.combinations(labels, 2))
    keep = draw(st.lists(st.sampled_from([True, True, False]), min_size=len(pairs),
                         max_size=len(pairs)))
    weight = st.floats(0.1, 10.0)
    m0 = {v: draw(weight) for v in labels}
    m1 = {p: draw(weight) for p, k in zip(pairs, keep) if k}
    cx = build_clique_complex(WeightedGraph(m0, m1), draw(st.integers(1, 4)))
    upper = [draw(st.lists(weight, min_size=size, max_size=size)) for size in cx.counts()[2:]]
    return labels, list(m1), reweighted(cx, list(cx.weights[:2]) + upper)


def _flags(data, table):
    return data.draw(st.lists(st.booleans(), min_size=len(table), max_size=len(table)))


def _expected_kept(cx, keep):
    """Tables and weights of the simplices passing ``keep(vertex set)``."""
    tables = [[s for s in table if keep(set(s))] for table in cx.simplices]
    weights = [[w for s, w in zip(table, ws.tolist()) if keep(set(s))]
               for table, ws in zip(cx.simplices, cx.weights)]
    return tables, weights


def _check_skeleton(cx, roots):
    """``vertices`` is the degree-0 table, and ``distances_from`` a subset of
    ``roots`` is the breadth-first search over the edge table, in table order."""
    labels = [v for (v,) in cx.simplices[0]]
    assert cx.topology.vertices == labels
    for some in ([r for r in labels if r in roots], labels[:1], []):
        got = cx.topology.distances_from(some)
        assert got == bfs_distances(cx.simplices, some)
        assert list(got) == [v for v in labels if v in got]
        assert all(type(d) is int for d in got.values())


@given(weighted_graph_complexes(), st.data())
def test_topology_arrays_match_oracles(graph, data):
    labels, edges, cx = graph
    tables, top = cx.simplices, cx.topology
    assert tables == clique_tables(labels, edges, cx.max_degree)
    for i in range(cx.max_degree + 1):
        assert [cx.index_of(i, s) for s in tables[i]] == [tables[i].index(s) for s in tables[i]]
        non_clique = [s for s in itertools.combinations(labels, i + 1) if s not in tables[i]][:1]
        unknown_label = [(-1,) + s[1:] for s in tables[i][:1]]
        for s in non_clique + unknown_label:
            with pytest.raises(KeyError):
                cx.index_of(i, s)
        for s in tables[i][:1]:
            for wrong in (i - 1, i + 1):
                with pytest.raises(KeyError):
                    cx.index_of(wrong, s)
    vertex_pos = {v: p for p, (v,) in enumerate(tables[0])}
    roots = {v for v, f in zip(vertex_pos, _flags(data, tables[0])) if f}
    _check_skeleton(cx, roots)
    _check_skeleton(reweighted(cx, cx.weights), roots)
    back = complex_from_json(json.loads(json.dumps(complex_to_json(cx))))
    assert back.simplices == tables
    assert [w.tolist() for w in back.weights] == [w.tolist() for w in cx.weights]
    _check_skeleton(back, roots)
    for i in range(cx.max_degree + 1):
        F = top.face_arrays[i]
        assert F.dtype == np.int64 and F.shape == (len(tables[i]), i + 1 if i else 0)
        assert not F.flags.writeable and not top.vertex_index(i).flags.writeable
        if i:
            pos = {s: j for j, s in enumerate(tables[i - 1])}
            assert F.tolist() == [[pos[s[:l] + s[l + 1:]] for l in range(i + 1)] for s in tables[i]]
        assert top.vertex_index(i).tolist() == [[vertex_pos[v] for v in s] for s in tables[i]]
        j, x, t = top.extension_coo(i)
        assert list(zip(j.tolist(), x.tolist(), t.tolist())) == [
            (k, vertex_pos[v], up) for k, ext in enumerate(cofaces(tables, i)) for v, up in ext]
        if i < cx.max_degree:
            d = coboundary_matrix(cx, i)
            assert np.array_equal(d.toarray(), boundary_matrix(tables[i], tables[i + 1]).T)
            assert coboundary_matrix(reweighted(cx, cx.weights), i) is d
            for a in (d.data, d.indices, d.indptr):
                with pytest.raises(ValueError):
                    a[:1] = 0

    for degree in range(cx.max_degree + 1):
        flags = dict(zip(tables[degree], _flags(data, tables[degree])))
        dropped = [set(s) for s, f in flags.items() if not f]
        got = drop_simplices(cx, degree, flags.__getitem__)
        want_tables, want_weights = _expected_kept(cx, lambda s: not any(d <= s for d in dropped))
        assert got.simplices == want_tables
        assert [w.tolist() for w in got.weights] == want_weights
        _check_skeleton(got, roots)

    region = {v for v, f in zip(vertex_pos, _flags(data, tables[0])) if f} or {tables[0][0][0]}
    sub = induced_subcomplex(cx, region)
    want_tables, want_weights = _expected_kept(cx, lambda s: s <= region)
    assert sub.simplices == want_tables
    assert [w.tolist() for w in sub.weights] == want_weights
    _check_skeleton(sub, roots)

    layer_of = {v: data.draw(st.integers(0, 3)) for v in vertex_pos}
    layers = LayerDecomposition(layer_of)
    table = growth_table(cx, layers, range(-1, 6))
    sups = [growth_sups(tables, layer_of, g) for g in range(cx.max_degree)]
    for k, (xi, breakdown) in table.items():
        if not 0 <= k < layers.num_layers() or not layers.layers[k]:
            assert (xi, breakdown) == (None, {})
            continue
        assert breakdown == {g: sups[g].get(k, (0, None)) for g in range(cx.max_degree)}
        assert all(type(sup) is int for sup, _ in breakdown.values())
        assert xi == float(sum(sup for sup, _ in breakdown.values()))


def test_topology_refuses_tables_without_their_faces():
    top = Topology(["a", "b", "c"], [[[0, 1], [0, 2], [1, 2]], [[0, 1, 2]]])
    assert top.face_arrays[2].tolist() == [[2, 1, 0]] and top.simplices[2] == [("a", "b", "c")]
    for tables in ([[[0, 1]], [[0, 1, 2]]],  # faces (0,2) and (1,2) missing
                   [[[0, 1], [1, 2]], [[0, 1, 2]]],  # face (0,2) missing
                   [[[0, 2], [0, 1], [1, 2]], []],  # rows out of order
                   [[[0, 1], [1, 0]], []],  # vertices out of order within a row
                   [[[0, 3]], []]):  # no vertex 3
        with pytest.raises(ValueError, match="unsorted or not closed under faces"):
            Topology(["a", "b", "c"], tables)


def test_description_load_builds_each_kept_table_once(monkeypatch):
    """Loading builds the clique complex's topology, plus one for the kept
    tables when the weight lists leave simplices out."""
    descriptions = [complex_to_json(offspring_tree_family("n^2", 5)),
                    complex_to_json(gen_perturbed_lattice(2, 2, 4, lattice_cube(4, 2)))]
    built = []

    class CountingTopology(Topology):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(complexes, "Topology", CountingTopology)
    for doc, builds in zip(descriptions, (1, 2)):
        built.clear()
        cx = complex_from_json(json.loads(json.dumps(doc)))
        assert len(built) == builds
        assert complex_to_json(cx) == doc
