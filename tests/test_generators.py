import itertools
import tracemalloc

import numpy as np
import pytest

from hodgelab import generators
from hodgelab.generators import (
    MAX_OFFSPRING_SIMPLICES,
    estimate_offspring_tree_size,
    offspring_tree_family,
    gen_alternating_triangulation,
    gen_offspring_tree,
    gen_lattice,
    gen_perturbed_lattice,
    gen_truncated_tree,
    lattice_cube,
    parse_offspring,
    radial_weighting,
)

from oracles import clique_counts, clique_tables, verify_clique_soundness, verify_face_closure


def test_line_lattice():
    cx = gen_lattice(1, 1, 3, "nearest")
    assert cx.counts() == (7, 6)


def test_nearest_has_no_triangles():
    cx = gen_lattice(2, 2, 2, "nearest")
    assert cx.counts()[2] == 0


def test_freudenthal_triangles_match_bruteforce():
    cx = gen_lattice(2, 2, 1)
    counts = clique_counts([v for (v,) in cx.simplices[0]], cx.simplices[1], 2)
    assert cx.counts() == counts
    assert cx.counts()[2] == 8  # two triangles per unit square


def test_lattice_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_lattice(2, 2, 0)
    with pytest.raises(ValueError):
        gen_lattice(1, 2, 3)  # freudenthal needs d >= n


def test_perturbed_lattice_filters_top_degree():
    region = lattice_cube(4, 2)
    full = gen_lattice(2, 2, 4)
    pert = gen_perturbed_lattice(2, 2, 4, region)
    assert pert.counts()[:2] == full.counts()[:2]
    inside = [s for s in full.simplices[2] if all(v in region for v in s)]
    assert pert.counts()[2] == len(inside)
    verify_face_closure(pert)


def test_perturbed_lattice_trivial_regions():
    full = gen_lattice(2, 2, 3)
    whole = gen_perturbed_lattice(2, 2, 3, full.topology.vertices)
    assert whole.counts() == full.counts()
    empty = gen_perturbed_lattice(2, 2, 3, [])
    assert empty.counts()[2] == 0


def test_the_cube_is_the_set_of_its_points():
    """The lazy cube holds exactly the points of the set it replaced."""
    for side, d, center in ((4, 2, None), (5, 2, (1, -1)), (3, 3, (0, 2, 0)), (2, 3, (1, 1, 1, 1))):
        offsets = range(-(side // 2), side - side // 2)
        want = {tuple(c + o for c, o in zip(center or (0,) * d, off)) for off in itertools.product(offsets, repeat=d)}
        cube = lattice_cube(side, d, center)
        assert cube == want and len(cube) == len(want) and set(cube) == want
        assert all(p in cube for p in want) and (99, 99) not in cube and [0, 0] not in cube


def test_a_large_cube_stores_no_points():
    """``generate --kind perturbed --side 3000 --radius 2``: the cube has
    9e6 points, and the radius-2 patch tests 25 of them."""
    tracemalloc.start()
    try:
        cube = lattice_cube(3000, 2)
        cx = gen_perturbed_lattice(2, 2, 2, cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
    assert len(cube) == 9 * 10 ** 6 and cx.meta["region_size"] == 9 * 10 ** 6
    assert (-1500, 1499) in cube and (1500, 0) not in cube and (0, 0, 0) not in cube
    assert cx.counts() == gen_lattice(2, 2, 2).counts()


def test_alternating_triangulation_counts():
    cx = gen_alternating_triangulation(1)
    # 4 unit squares, 2 with even lower-left parity, 2 triangles each
    even_squares = sum(
        1 for i in (-1, 0) for j in (-1, 0) if (i + j) % 2 == 0
    )
    assert cx.counts()[2] == 2 * even_squares
    verify_face_closure(cx)
    verify_clique_soundness(cx)


def test_alternating_triangulation_odd_squares_hollow():
    cx = gen_alternating_triangulation(2)
    for s in cx.simplices[2]:
        (i, j) = min(s)
        assert (i + j) % 2 == 0


def test_truncated_tree_counts():
    cx = gen_truncated_tree(0, 2)
    assert cx.counts()[2] == 1
    for n_tri in (1, 2, 3):
        cx = gen_truncated_tree(n_tri, n_tri + 2)
        assert cx.counts()[2] == 2 ** (n_tri + 1) - 1
        verify_clique_soundness(cx)


def test_offspring_tree_tetra_parity():
    cx = offspring_tree_family(2, 4)
    tet_depths = {min(len(v) for v in s) for s in cx.simplices[3]}
    assert tet_depths == {0, 2}
    assert all(d % 2 == 0 for d in tet_depths)
    verify_face_closure(cx)
    verify_clique_soundness(cx)


def test_offspring_tree_depth_zero():
    cx = gen_offspring_tree(0, lambda n: 2)
    assert cx.counts() == (1, 0, 0, 0)


def test_offspring_tree_added_edges_flagged():
    cx = offspring_tree_family(2, 4)
    added = {tuple(map(tuple, e)) for e in cx.meta["added_edges"]}
    # tetra over the root: (root, (0,), (1,), (0,0)) needs these two edges
    assert ((), (0, 0)) in added
    assert ((1,), (0, 0)) in added


def test_offspring_tree_size_estimate_exact():
    cases = (("2", 4), ("2", 6), ("n^2", 4), ("n^2", 5), ("n^3", 4), ("n^3", 5), ("2", 10),
             ("3-n", 6))  # the layers of 3-n run out below depth 3
    for off, depth in cases:
        for parity in (0, 1):
            cx = offspring_tree_family(off, depth, parity)
            assert estimate_offspring_tree_size(off, depth, parity) == cx.num_simplices()


def test_offspring_trees_above_the_simplex_cap_are_refused_before_building(monkeypatch):
    """n^8 at depth 5 would have 6.6e11 simplices; the refusal comes from the
    layer widths, so nothing is allocated for the tree."""
    monkeypatch.setattr(generators, "_tree", lambda *args: pytest.fail("the tree was built"))
    with pytest.raises(ValueError, match=f"more than {MAX_OFFSPRING_SIMPLICES} simplices"):
        offspring_tree_family("n^8", 5)
    with pytest.raises(ValueError, match="more than"):
        gen_offspring_tree(40, lambda n: 2)


@pytest.mark.parametrize("build", [
    lambda: gen_lattice(2, 2, 10 ** 6), lambda: gen_lattice(3, 3, 100), lambda: gen_lattice(30, 2, 1),
    lambda: gen_lattice(10 ** 9, 1, 1, "nearest"), lambda: gen_alternating_triangulation(10 ** 6),
    lambda: gen_truncated_tree(2, 40), lambda: gen_truncated_tree(2, 10 ** 9),
])
def test_lattices_and_trees_above_the_simplex_cap_are_refused_before_building(monkeypatch, build):
    """The refusal is decided from the vertex count and the number of edge
    directions: no array or label list is made."""
    monkeypatch.setattr(generators, "np", None)
    monkeypatch.setattr(generators, "itertools", None)
    monkeypatch.setattr(generators, "_tree", lambda *args: pytest.fail("the tree was built"))
    with pytest.raises(ValueError, match=f"may have more than {MAX_OFFSPRING_SIMPLICES} simplices"):
        build()


@pytest.mark.parametrize("build", [
    lambda: gen_lattice(2, 2, 3), lambda: gen_lattice(3, 3, 2), lambda: gen_lattice(3, 2, 1),
    lambda: gen_lattice(2, 2, 3, "nearest"), lambda: gen_lattice(1, 3, 4, "nearest"),
    lambda: gen_alternating_triangulation(3), lambda: gen_truncated_tree(2, 5), lambda: gen_truncated_tree(0, 3),
])
def test_the_size_bound_holds_every_simplex(monkeypatch, build):
    """Each generator's bound is at least its simplex count: with the cap one
    below that count, the same call is refused."""
    size = build().num_simplices()
    monkeypatch.setattr(generators, "MAX_OFFSPRING_SIMPLICES", size - 1)
    with pytest.raises(ValueError, match=f"may have more than {size - 1} simplices"):
        build()


def test_the_large_lattice_stays_under_the_cap():
    generators._refuse_above_cap("lattice", 121 ** 2, 3, 2)  # gen_lattice(2, 2, 60)
    assert gen_lattice(2, 2, 60).num_simplices() == 14_641 + 43_440 + 28_800


def test_offspring_size_estimate_stops_past_the_cap():
    assert estimate_offspring_tree_size("n^2", 7) == 3_199_797 <= MAX_OFFSPRING_SIMPLICES
    assert estimate_offspring_tree_size("2", 20) <= MAX_OFFSPRING_SIMPLICES
    # summed to the end, n^8 at depth 40 would count more than 10^300 simplices
    assert MAX_OFFSPRING_SIMPLICES < estimate_offspring_tree_size("n^8", 40) < 10 ** 20


def _words(ks):
    """Every child word of the tree with ks[l] children per depth-l vertex."""
    layers = [[()]]
    for k in ks:
        layers.append([v + (c,) for v in layers[-1] for c in range(k)])
    return [v for layer in layers for v in layer]


def _assert_unit_clique_complex(cx, vertices, edges, n):
    """``cx`` is, bit for bit, the unit-weight clique complex of the label
    graph (vertices, edges), up to degree n."""
    tables = clique_tables(vertices, edges, n)
    assert cx.topology.vertices == sorted(vertices)
    assert cx.simplices == tables
    for w, table in zip(cx.weights, tables):
        assert w.dtype == np.float64 and np.array_equal(w, np.ones(len(table)))


@pytest.mark.parametrize("off,depth", [("2", 4), ("n^2", 3), ("n^3", 3)])
@pytest.mark.parametrize("parity", [0, 1])
def test_offspring_tree_equals_the_clique_oracle(off, depth, parity):
    fn = parse_offspring(off)
    ks = [2 if l == 0 and fn(0) == 0 else fn(l) for l in range(depth)]
    vertices = _words(ks)
    edges, added = [], []
    for v in vertices:
        if len(v) == depth:
            continue
        k = ks[len(v)]
        edges += [(v, v + (c,)) for c in range(k)]
        edges += [(v + (c,), v + (c + 1,)) for c in range(0, k - 1, 2)]
        if len(v) % 2 == parity and len(v) + 2 <= depth and k >= 2:
            added += [[list(v), [*v, 0, 0]], [[*v, 1], [*v, 0, 0]]]
    cx = offspring_tree_family(off, depth, parity)
    _assert_unit_clique_complex(cx, vertices, edges + [tuple(map(tuple, e)) for e in added], 3)
    assert cx.meta["added_edges"] == added


@pytest.mark.parametrize("d,n,radius,adjacency", [
    (1, 1, 3, "freudenthal"), (1, 1, 3, "nearest"), (2, 2, 2, "freudenthal"),
    (2, 1, 2, "nearest"), (3, 3, 1, "freudenthal"), (3, 1, 1, "nearest"),
])
def test_lattice_equals_the_clique_oracle(d, n, radius, adjacency):
    vertices = list(itertools.product(range(-radius, radius + 1), repeat=d))
    if adjacency == "freudenthal":
        steps = [s for s in itertools.product((0, 1), repeat=d) if any(s)]
    else:
        steps = [tuple(int(k == a) for k in range(d)) for a in range(d)]
    box = set(vertices)
    edges = [(v, w) for v in vertices for s in steps
             for w in [tuple(a + b for a, b in zip(v, s))] if w in box]
    _assert_unit_clique_complex(gen_lattice(d, n, radius, adjacency), vertices, edges, n)


def test_alternating_triangulation_equals_the_clique_oracle():
    vertices = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
    edges = [((i, j), w) for i, j in vertices
             for w in [(i + 1, j), (i, j + 1)] + ([(i + 1, j + 1)] if (i + j) % 2 == 0 else [])
             if w in vertices]
    _assert_unit_clique_complex(gen_alternating_triangulation(2), vertices, edges, 2)


def test_truncated_tree_equals_the_clique_oracle():
    vertices = _words([2, 2, 2, 2])
    edges = [e for v in vertices if len(v) < 4
             for e in [(v, v + (0,)), (v, v + (1,))] + ([(v + (0,), v + (1,))] if len(v) <= 1 else [])]
    _assert_unit_clique_complex(gen_truncated_tree(1, 4), vertices, edges, 2)


def test_generators_deterministic():
    a = offspring_tree_family("n^2", 4)
    b = offspring_tree_family("n^2", 4)
    assert a.simplices == b.simplices
    la, lb = gen_lattice(2, 2, 3), gen_lattice(2, 2, 3)
    assert la.simplices == lb.simplices


def test_parse_offspring():
    assert parse_offspring(2)(7) == 2
    assert parse_offspring("n^2")(5) == 25
    assert parse_offspring("n^3")(4) == 64
    assert parse_offspring("n^4")(3) == 81
    assert parse_offspring("2")(9) == 2
    assert parse_offspring("2*n+1")(3) == 7
    with pytest.raises(ValueError):
        parse_offspring("__import__('os')")


@pytest.mark.parametrize("formula", [
    "9^9^9",          # exponent not a literal
    "n^9",            # literal exponent above the cap
    "2^n",            # exponent depends on n
    "((9^8)^8)^8",    # a tower of capped powers grows without bound
    "n^-1",           # unary minus is not a literal
    "n % 2", "n // 2", "n.real", "n+", "1.5*n", "m",
])
def test_parse_offspring_refuses_unbounded_or_foreign_formulas(formula):
    with pytest.raises(ValueError):
        parse_offspring(formula)


def test_parse_offspring_arithmetic_error_is_a_value_error():
    with pytest.raises(ValueError, match="at n=3"):
        parse_offspring("n/(n-3)")(3)


def test_radial_weighting_path_graph():
    cx = gen_lattice(1, 1, 5, "nearest")
    rw = radial_weighting(cx, {(0,)}, 2.0)
    for k in range(5):
        idx = rw.index_of(1, ((k,), (k + 1,)))
        assert np.isclose(rw.weights[1][idx], (2.0 + k) ** -2)


def test_radial_weighting_base_covers_everything(K3):
    rw = radial_weighting(K3, set("abc"), 4.0)
    for i in range(rw.max_degree + 1):
        assert np.allclose(rw.weights[i], 1.0)


def test_radial_weighting_rejects_bad_input(K3):
    with pytest.raises(ValueError):
        radial_weighting(K3, set(), 1.0)
    for alpha in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="must be finite and positive"):
            radial_weighting(K3, {"a"}, alpha)
