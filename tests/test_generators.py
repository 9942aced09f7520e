import itertools

import numpy as np
import pytest

from hodgelab.generators import (
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

from oracles import clique_counts, verify_clique_soundness, verify_face_closure


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
    for off, depth in (("2", 4), ("2", 6), ("n^2", 4), ("n^2", 5)):
        cx = offspring_tree_family(off, depth)
        assert estimate_offspring_tree_size(off, depth) == cx.num_simplices()


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
