import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hodgelab import (
    build_clique_complex,
    canonical_sign,
    complex_from_json,
    complex_to_json,
    drop_simplices,
    induced_subcomplex,
    weighted_degree,
)
from hodgelab import cli, complexes
from hodgelab.complexes import Topology, _decode_vertex, _encode_vertex, reweighted
from hodgelab.divergence import LayerDecomposition, growth_table, validate_decomposition
from hodgelab.generators import (
    gen_alternating_triangulation,
    gen_lattice,
    gen_perturbed_lattice,
    gen_truncated_tree,
    lattice_cube,
    offspring_tree_family,
    radial_weighting,
)
from hodgelab.operators import (
    adjointness_check,
    block_offsets,
    codifferential_matrix,
    coboundary_matrix,
    gauss_bonnet_matrix,
    laplacian_matrix,
    symmetrized_laplacian,
)
from hodgelab.spectral import hodge_decompose, hodge_orthogonality_residual

from conftest import k3_description, unit_graph
from oracles import (
    betti_by_rank,
    bfs_distances,
    boundary_matrix,
    clique_counts,
    clique_tables,
    cofaces,
    decomposition_report,
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
    cx = build_clique_complex(*unit_graph(vs, edges), 3)
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
        build_clique_complex({"a": 1.0}, {("a", "a"): 1.0}, 1)


def test_nonpositive_weights_rejected(K3):
    with pytest.raises(ValueError):
        build_clique_complex({"a": 0.0, "b": 1.0}, {("a", "b"): 1.0}, 1)
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


def test_json_description_drops_meta_values_that_are_not_json(K3):
    cx = reweighted(K3, K3.weights, meta={"alpha": 1.5, "roots": {"a"}})
    meta = complex_to_json(cx)["meta"]
    assert meta["alpha"] == 1.5 and "roots" not in meta
    assert complex_from_json(json.loads(json.dumps(complex_to_json(cx)))).meta == meta


def test_json_roundtrip_preserves_dropped_simplices(K3, hollow_triangle):
    doc = json.loads(json.dumps(complex_to_json(hollow_triangle)))
    back = complex_from_json(doc)
    assert back.counts() == (3, 3, 0)


def test_dropped_edge_leaves_the_graph(K3):
    cx = drop_simplices(K3, 1, lambda e: e != ("a", "c"))
    assert cx.counts() == (3, 2, 0)
    assert cx.topology.distances_from(["a"]).tolist() == [0, 1, 2]
    doc = json.loads(json.dumps(complex_to_json(cx)))
    assert [(e["u"], e["v"]) for e in doc["edges"]] == [("a", "b"), ("b", "c")]
    assert complex_from_json(doc).counts() == (3, 2, 0)


def test_listed_simplex_without_its_faces_is_refused(K4):
    doc = json.loads(json.dumps(complex_to_json(K4)))
    doc["weights"]["2"] = doc["weights"]["2"][1:]  # the tetrahedron loses face abc
    with pytest.raises(ValueError, match=re.escape("degree-3 weights reference non-cliques: "
                                                   "[('a', 'b', 'c', 'd')]")):
        complex_from_json(doc)


@pytest.mark.parametrize("listed, unknown", [
    ({"1": [[0, 1], [1, 99]]}, "[(1, 99)]"),  # 99 is no vertex
    ({"0": [[0], [1], [2]], "1": [[0, 1], [1, 3]]}, "[(1, 3)]"),  # the degree-0 list drops vertex 3
])
def test_listed_edge_off_the_kept_vertices_is_refused(listed, unknown):
    """A listed edge with a vertex that is unknown or not kept is refused, not
    read as the edge (0, 3) or (0, 2) whose position code u * n0 + v it shares
    when that vertex's position reads as -1."""
    doc = {"vertices": [{"id": v, "m0": 1.0} for v in range(4)],
           "edges": [{"u": u, "v": v, "m1": 1.0} for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]],
           "max_degree": 1, "weights": {k: [{"simplex": s, "m": 5.0} for s in rows] for k, rows in listed.items()}}
    with pytest.raises(ValueError) as err:
        complex_from_json(doc)
    assert str(err.value) == f"degree-1 weights reference non-cliques: {unknown}"


@pytest.mark.parametrize("m0,edges,message", [
    ({"a": 1.0, 1: 1.0}, [("a", 1, 1.0)], "vertex ids must be mutually comparable (e.g. not mixed int and str)"),
    ({"a": 1.0, "b": 1.0}, [("a", "b", 1.0), ("b", "b", 1.0)], "loop at 'b' not allowed"),
    ({"a": 1.0, "b": 1.0}, [("a", "b", 1.0), ("a", "c", 1.0)], "edge ('a','c') references unknown vertex"),
    ({"a": 1.0, "b": 1.0}, [("a", "b", 1.0), ("b", "a", 2.0)], "asymmetric weight for edge ('a', 'b')"),
    ({"a": 1.0, "b": 1.0}, [("a", "b", 1.0), ("b", "a", 1.0)], None),
], ids=["mixed-ids", "loop", "unknown-vertex", "reversed-repeat", "equal-repeat"])
def test_the_builder_and_the_loader_refuse_a_bad_graph_alike(m0, edges, message):
    """``build_clique_complex`` and ``complex_from_json`` check a graph by one
    function: each bad graph is refused with the same message, and an edge
    listed again with its weight is kept once."""
    doc = {"vertices": [{"id": v, "m0": w} for v, w in m0.items()],
           "edges": [{"u": u, "v": v, "m1": w} for u, v, w in edges], "max_degree": 1}
    for load in (lambda: build_clique_complex(m0, {(u, v): w for u, v, w in edges}, 1),
                 lambda: complex_from_json(doc)):
        if message is None:
            cx = load()
            assert cx.simplices[1] == [("a", "b")] and cx.weights[1].tolist() == [1.0]
        else:
            with pytest.raises(ValueError) as err:
                load()
            assert str(err.value) == message


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
        build_clique_complex({"a": bad, "b": 1.0}, {("a", "b"): 1.0}, 1)
    with pytest.raises(ValueError, match=re.escape("m1('a','b')")):
        build_clique_complex({"a": 1.0, "b": 1.0}, {("a", "b"): bad}, 1)
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
    cx = build_clique_complex({"a": 1.0, "b": 1.0, "c": 1.0}, {("a", "b"): 0.0, ("b", "c"): 2.0}, 1)
    assert cx.topology.vertex_index(1).tolist() == [[1, 2]]
    assert cx.simplices[1] == [("b", "c")] and cx.weights[1].tolist() == [2.0]


@st.composite
def weighted_graph_complexes(draw, sparse=False):
    """A clique complex of max degree 1 to 4 on a random graph with up to 9
    vertices, whose integer labels skip values so that labels and table
    positions differ; weights in [0.1, 10] on every simplex.  Each vertex pair
    is an edge with odds 2/3, or 1/3 when ``sparse``: then about half the
    draws have several components, and about half an isolated vertex.  Drawn as
    ``(labels, edges, complex)``."""
    labels = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=9)))
    pairs = list(itertools.combinations(labels, 2))
    odds = [True, False, False] if sparse else [True, True, False]
    keep = draw(st.lists(st.sampled_from(odds), min_size=len(pairs), max_size=len(pairs)))
    weight = st.floats(0.1, 10.0)
    m0 = {v: draw(weight) for v in labels}
    m1 = {p: draw(weight) for p, k in zip(pairs, keep) if k}
    cx = build_clique_complex(m0, m1, draw(st.integers(1, 4)))
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
    ``roots`` is the breadth-first search over the edge table, in table order,
    -1 where a vertex is unreachable."""
    labels = [v for (v,) in cx.simplices[0]]
    assert cx.topology.vertices == labels
    for some in ([r for r in labels if r in roots], labels[:1], []):
        got = cx.topology.distances_from(some)
        want = bfs_distances(cx.simplices, some)
        assert got.tolist() == [want.get(v, -1) for v in labels]
        assert got.dtype == np.int64


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

    # one layer per vertex, -1 (no layer) included; the oracles read the {label: layer} dict
    drawn = data.draw(st.lists(st.integers(-1, 3), min_size=len(vertex_pos), max_size=len(vertex_pos)))
    layers = LayerDecomposition(top.vertices, drawn)
    layer_of = {v: k for v, k in zip(vertex_pos, drawn) if k >= 0}
    assert layers.layer.tolist() == drawn and list(layers.excluded) == [v for v in vertex_pos if v not in layer_of]
    assert layers.num_layers() == max(layer_of.values(), default=-1) + 1
    table = growth_table(cx, layers, range(-1, 6))
    sups = [growth_sups(tables, layer_of, g) for g in range(cx.max_degree)]
    for k, (xi, breakdown) in table.items():
        if k not in layer_of.values():
            assert (xi, breakdown) == (None, {})
            continue
        assert breakdown == {g: sups[g].get(k, (0, None)) for g in range(cx.max_degree)}
        assert all(type(sup) is int for sup, _ in breakdown.values())
        assert xi == float(sum(sup for sup, _ in breakdown.values()))
    rep = validate_decomposition(cx, layers)
    ok, violations, histogram, uncovered = decomposition_report(tables, layer_of)
    assert (rep.ok, rep.violations, rep.jump_histogram, rep.uncovered) == (ok, violations, histogram, uncovered)
    assert rep.first_violation == (violations[0] if violations else None)
    assert all(type(j) is int and type(c) is int for j, c in rep.jump_histogram.items())


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
    """Loading builds one topology, from the weight lists, also when they
    leave cliques out."""
    descriptions = [complex_to_json(offspring_tree_family("n^2", 5)),
                    complex_to_json(gen_perturbed_lattice(2, 2, 4, lattice_cube(4, 2)))]
    built = []

    class CountingTopology(Topology):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(complexes, "Topology", CountingTopology)
    for doc in descriptions:
        built.clear()
        cx = complex_from_json(json.loads(json.dumps(doc)))
        assert len(built) == 1
        assert complex_to_json(cx) == doc


@given(st.one_of(weighted_graph_complexes(), weighted_graph_complexes(sparse=True)))
def test_betti_numbers_by_collapses_match_the_rank_oracle(graph):
    _, _, cx = graph
    assert cx.topology.betti == tuple(betti_by_rank(cx.simplices))
    assert reweighted(cx, cx.weights).topology.betti is cx.topology.betti


@given(weighted_graph_complexes())
def test_operator_identities_and_the_hodge_splitting(graph):
    """d∘d = 0 and adjointness; the Euler identity against the Betti numbers
    of the topology; at every degree the Hodge splitting has the dimensions
    (rank d_{l-1}, beta_l, rank d_l) of the rank oracle, is orthogonal, and
    d and delta annihilate its harmonic basis.  D^2 is block diagonal with
    the Laplacians L_i as its blocks, and two loads of the complex's
    description emit the same text and assemble the same blocks, bit for bit."""
    _, _, cx = graph
    tables, n = cx.simplices, cx.max_degree
    for i in range(n - 1):
        assert abs(coboundary_matrix(cx, i + 1) @ coboundary_matrix(cx, i)).sum() == 0
    for i in range(n):
        if cx.size(i + 1):
            assert adjointness_check(cx, i, trials=10) <= 1e-10
    assert sum((-1) ** i * cx.size(i) for i in range(n + 1)) == sum(
        (-1) ** i * b for i, b in enumerate(cx.topology.betti))
    betti = betti_by_rank(tables)
    ranks = [0] + [np.linalg.matrix_rank(boundary_matrix(tables[k - 1], tables[k])) if tables[k] else 0
                   for k in range(1, n + 1)] + [0]
    for ell in range(n + 1):
        dec = hodge_decompose(cx, ell)
        assert dec.dims() == (ranks[ell], betti[ell], ranks[ell + 1])
        assert hodge_orthogonality_residual(cx, dec) <= 1e-10
        K = dec.basis_ker
        if ell < n:
            assert np.abs(coboundary_matrix(cx, ell) @ K).max(initial=0.0) <= 1e-10
        if ell:
            assert np.abs(codifferential_matrix(cx, ell) @ K).max(initial=0.0) <= 1e-10
    D2, offs = (gauss_bonnet_matrix(cx) @ gauss_bonnet_matrix(cx)).toarray(), block_offsets(cx)
    for i in range(n + 1):
        L = laplacian_matrix(cx, i).toarray()
        tol = 1e-12 * max(1.0, np.abs(L).max(initial=0.0))
        for j in range(n + 1):
            block = D2[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
            assert np.abs(block - L if i == j else block).max(initial=0.0) <= tol
    doc = json.loads(json.dumps(complex_to_json(cx)))
    first, second = complex_from_json(doc), complex_from_json(doc)
    assert cli._dumps(complex_to_json(first)) == cli._dumps(complex_to_json(second))
    for i in range(n + 1):
        a, b = symmetrized_laplacian(first, i), symmetrized_laplacian(second, i)
        for part in ("indptr", "indices", "data"):
            assert getattr(a, part).tobytes() == getattr(b, part).tobytes()


@pytest.mark.parametrize("make", [
    lambda: gen_lattice(1, 1, 4),
    lambda: gen_lattice(2, 2, 3),
    lambda: gen_lattice(3, 3, 2),
    lambda: gen_perturbed_lattice(2, 2, 3, lattice_cube(2, 2)),
    lambda: gen_alternating_triangulation(3),
    lambda: gen_truncated_tree(2, 4),
    lambda: offspring_tree_family("n^2", 4),
    lambda: offspring_tree_family("n^2", 4, tet_parity=1),
    lambda: offspring_tree_family("2", 6),
    lambda: offspring_tree_family("2", 6, tet_parity=1),
])
def test_betti_numbers_of_the_generator_families(make):
    cx = make()
    assert cx.topology.betti == tuple(betti_by_rank(cx.simplices))


def _recorded_ranks(monkeypatch) -> list:
    """The shapes of the matrices whose rank numpy is asked for from now on."""
    shapes, rank = [], np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda M: shapes.append(M.shape) or rank(M))
    return shapes


def test_betti_of_a_graph_core_takes_no_rank(monkeypatch):
    """The odd squares stay hollow: the triangles collapse onto a graph with
    one loop per odd square, and beta_1 = E - V + beta_0."""
    cx = gen_alternating_triangulation(6)
    shapes = _recorded_ranks(monkeypatch)
    assert cx.topology.betti == (1, 72, 0)
    assert shapes == []
    graph = build_clique_complex(*unit_graph("abcdefg", [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")]), 2)
    hollow = drop_simplices(graph, 2, lambda s: False)
    assert graph.topology.betti == (4, 0, 0) and hollow.topology.betti == (4, 1, 0)
    assert shapes == []
    for x in (graph, hollow):
        assert x.topology.betti == tuple(betti_by_rank(x.simplices))


def test_betti_of_the_hollow_tetrahedron_takes_a_rank_on_its_core(K4, monkeypatch):
    """No face of the boundary of the tetrahedron is free, so the core is the
    whole 2-skeleton: its d_1 (4 triangles by 6 edges) has rank 3, and the
    sphere's beta_2 is 1."""
    hollow = drop_simplices(K4, 3, lambda s: False)
    shapes = _recorded_ranks(monkeypatch)
    assert hollow.topology.betti == (1, 0, 1, 0)
    assert shapes == [(4, 6)]
    assert hollow.topology.betti == tuple(betti_by_rank(hollow.simplices))


_FAMILIES = {
    "lattice": lambda: gen_lattice(2, 2, 3),
    "lattice-3d": lambda: gen_lattice(3, 3, 1),
    "nearest": lambda: gen_lattice(2, 2, 3, "nearest"),
    "perturbed": lambda: gen_perturbed_lattice(2, 2, 3, lattice_cube(3, 2)),
    "alternating": lambda: gen_alternating_triangulation(3),
    "truncated-tree": lambda: gen_truncated_tree(2, 4),
    "offspring-tree": lambda: offspring_tree_family("n^2", 4),
    "offspring-tree-parity-1": lambda: offspring_tree_family("n^2", 4, 1),
    "offspring-tree-depth-0": lambda: offspring_tree_family("2", 0),
}


@pytest.mark.parametrize("radial", [False, True])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_every_generated_description_round_trips(family, radial):
    cx = _FAMILIES[family]()
    if radial:
        cx = radial_weighting(cx, cx.topology.vertices[:1], 1.5)
    doc = json.loads(json.dumps(complex_to_json(cx)))
    back = complex_from_json(doc)
    assert complex_to_json(back) == doc
    assert back.simplices == cx.simplices
    assert [w.tolist() for w in back.weights] == [w.tolist() for w in cx.weights]


def test_descriptions_with_explicit_weights_round_trip():
    tree = offspring_tree_family("n^2", 4)
    skewed = reweighted(tree, tree.weights[:2] + [np.linspace(0.5, 2.0, tree.size(2)), np.full(tree.size(3), 3.0)])
    for doc in (k3_description(m0=2.0, m1=0.25, m=2.5), json.loads(json.dumps(complex_to_json(skewed)))):
        assert complex_to_json(complex_from_json(doc)) == doc


def test_nested_list_ids_decode_to_nested_tuples():
    """Ids are lists of numbers, strings or lists, at any depth; each list
    decodes to a tuple."""
    vertices = [((0, 1), 2), ((0, 1), 3), ((0, 2), (4, (5, "a")))]
    edges = list(itertools.combinations(vertices, 2))
    cx = build_clique_complex({v: 1.0 for v in vertices}, {e: 1.0 for e in edges}, 2)
    doc = json.loads(json.dumps(complex_to_json(cx)))
    assert doc["vertices"][0]["id"] == [[0, 1], 2]
    back = complex_from_json(doc)
    assert back.simplices == cx.simplices
    assert json.loads(json.dumps(complex_to_json(back))) == doc


def _label_tuple_description(cx):
    """The description as written from the label tuples ``cx.simplices``,
    each id encoded where it occurs: the encoder before position rows."""
    doc = {
        "vertices": [{"id": _encode_vertex(v), "m0": w}
                     for (v,), w in zip(cx.simplices[0], cx.weights[0].tolist())],
        "edges": [{"u": _encode_vertex(u), "v": _encode_vertex(v), "m1": w}
                  for (u, v), w in zip(cx.simplices[1], cx.weights[1].tolist())],
        "max_degree": cx.max_degree,
        "weights": {str(i): [{"simplex": [_encode_vertex(v) for v in s], "m": float(w)}
                             for s, w in zip(cx.simplices[i], cx.weights[i])]
                    for i in range(2, cx.max_degree + 1)},
    }
    if cx.meta:
        doc["meta"] = {k: cx.meta[k] for k in sorted(cx.meta) if complexes._json_safe(cx.meta[k])}
    return doc


def _clique_and_kept_load(doc):
    """The loader before position rows, on a well-formed description: the
    whole clique complex of its graph, then ``_kept`` under the masks of the
    listed label tuples that ``_locate`` finds.  Returns the topology and the
    weights, or the message of the non-clique refusal."""
    m0 = {_decode_vertex(v["id"]): v["m0"] for v in doc["vertices"]}
    m1 = {(_decode_vertex(e["u"]), _decode_vertex(e["v"])): e["m1"] for e in doc["edges"]}
    cx = build_clique_complex(m0, m1, doc["max_degree"])
    rule = doc.get("weight_rule")
    if rule:
        cx = radial_weighting(cx, [_decode_vertex(v) for v in rule["base"]], float(rule["alpha"]))
    listed = {int(k): {tuple(map(_decode_vertex, item["simplex"])): float(item["m"]) for item in items}
              for k, items in (doc.get("weights") or {}).items()}
    top, weights = complexes._kept(cx, {i: np.isin(np.arange(cx.size(i)), complexes._locate(cx.topology, i, keys))
                                        for i, keys in listed.items()})
    for i, keys in sorted(listed.items()):
        j = complexes._locate(top, i, keys)
        if (j < 0).any():
            unknown = sorted(s for s, k in zip(keys, j.tolist()) if k < 0)
            return f"degree-{i} weights reference non-cliques: {unknown[:3]!r}"
        weights[i] = np.empty(len(j))
        weights[i][j] = list(keys.values())
    return top, weights


_ID_KINDS = {"int": lambda v: v, "str": lambda v: f"v{v:02d}", "nested list": lambda v: (v // 10, (v % 10, "x"))}


@given(weighted_graph_complexes(), st.sampled_from(sorted(_ID_KINDS)), st.sampled_from([None, 0.5, 2.0]), st.data())
def test_descriptions_match_the_label_tuple_encoder_and_the_clique_and_kept_loader(graph, ids, alpha, data):
    """On int, str and nested-list ids, with explicit or radial weights and a
    meta with a value JSON cannot hold: the description text is the label
    tuple encoder's; a description listing every degree, some or none, each
    list whole or in part, loads to the tables and weights, bit for bit, of
    the whole clique complex masked by ``_kept``, or to its non-clique
    refusal, also where a list names a vertex that is not there; and a NaN weight, which the bulk decoding meets first, is
    refused with the per-entry message, where a min/max check passes it."""
    _, _, drawn = graph
    label = _ID_KINDS[ids]
    m0 = {label(v): w for (v,), w in zip(drawn.simplices[0], drawn.weights[0].tolist())}
    m1 = {(label(u), label(v)): w for (u, v), w in zip(drawn.simplices[1], drawn.weights[1].tolist())}
    cx = reweighted(build_clique_complex(m0, m1, drawn.max_degree), drawn.weights,
                    meta={"ids": ids, "opaque": object()})
    top = cx.topology
    base = [top.vertices[k] for k in np.unique(top.components, return_index=True)[1]]
    if alpha is not None:
        cx = radial_weighting(cx, base, alpha)
    text = cli._dumps(complex_to_json(cx))
    assert cx.topology._simplices is None  # written from the tables, without label tuples
    assert text == cli._dumps(_label_tuple_description(cx))
    assert text == json.dumps(_label_tuple_description(cx), sort_keys=True, indent=2)

    doc = json.loads(text)
    if alpha is not None and data.draw(st.booleans()):
        doc["weights"] = {}
        doc["weight_rule"] = {"kind": "radial", "base": [_encode_vertex(v) for v in base], "alpha": alpha}
    else:
        lists = {"0": [{"simplex": [v["id"]], "m": 2 * v["m0"]} for v in doc["vertices"]],
                 "1": [{"simplex": [e["u"], e["v"]], "m": e["m1"]} for e in doc["edges"]], **doc["weights"]}
        doc["weights"] = {}
        for k, entries in lists.items():
            how = data.draw(st.sampled_from(["whole", "none", "part"] if int(k) >= 2 else ["none", "whole", "part"]))
            if how == "part":
                entries = [e for e, keep in zip(entries, _flags(data, entries)) if keep]
            if how != "none":
                if entries and data.draw(st.sampled_from([False, False, True])):  # and one naming no vertex
                    stray = entries[data.draw(st.integers(0, len(entries) - 1))]["simplex"]
                    entries = [*entries, {"simplex": [*stray[:-1], _encode_vertex(label(99))], "m": 1.0}]
                doc["weights"][k] = entries
    want = _clique_and_kept_load(doc)
    try:
        got = complex_from_json(json.loads(json.dumps(doc)))
    except ValueError as err:
        assert str(err) == want
    else:
        kept, weights = want
        assert got.topology._simplices is None
        assert got.topology.vertices == kept.vertices
        for i in range(cx.max_degree + 1):
            assert np.array_equal(got.topology.vertex_index(i), kept.vertex_index(i))
            assert got.weights[i].dtype == np.float64
            assert got.weights[i].tobytes() == np.asarray(weights[i], dtype=float).tobytes()
        assert got.meta.items() >= doc["meta"].items()

    for what, k in (("vertices", "m0"), ("edges", "m1"), *[(str(i), "m") for i in range(2, cx.max_degree + 1)]):
        bad = json.loads(text)
        entries = bad[what] if k != "m" else bad["weights"][what]
        if not entries:
            continue
        entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        entry[k] = float("nan")
        with pytest.raises(ValueError) as err:
            complex_from_json(bad)
        if k == "m0":
            name = f"m0({_decode_vertex(entry['id'])!r})"
        elif k == "m1":
            name = f"m1({_decode_vertex(entry['u'])!r},{_decode_vertex(entry['v'])!r})"
        else:
            name = f"degree-{what} weight m{tuple(map(_decode_vertex, entry['simplex']))!r}"
        assert str(err.value) == f"{name} = nan must be finite and positive"
