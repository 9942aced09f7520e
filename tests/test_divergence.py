import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hodgelab import build_clique_complex
from hodgelab.chi import Exhaustion, make_ball_exhaustion, make_plateau_cutoff
from hodgelab.divergence import (
    LayerDecomposition,
    divergence_cutoffs,
    divergence_partial_sums,
    growth_table,
    layers_by_depth,
    layers_by_distance,
    step3_estimate,
    validate_decomposition,
)
from hodgelab.generators import (
    offspring_tree_family,
    gen_lattice,
    gen_truncated_tree,
)
from hodgelab.operators import Cochain, norm, random_cochain

from test_complexes import weighted_graph_complexes


def test_layer_decomposition_is_the_exhaustion_class():
    cx = gen_lattice(2, 2, 3)
    layers = layers_by_distance(cx, {(0, 0)})
    assert LayerDecomposition is Exhaustion and type(layers) is Exhaustion
    assert type(layers_by_depth(offspring_tree_family(2, 3))) is Exhaustion
    assert layers.layer.dtype == np.int64 and not layers.layer.flags.writeable
    assert layers.layer.tolist() == make_ball_exhaustion(cx, {(0, 0)}, 2).layer.tolist()
    with pytest.raises(ValueError, match="one integer >= -1 per vertex"):
        LayerDecomposition(cx.topology.vertices, [0] * (len(cx.topology.vertices) - 1))
    with pytest.raises(ValueError, match="one integer >= -1 per vertex"):
        LayerDecomposition(cx.topology.vertices, [-2] * len(cx.topology.vertices))


def test_layers_on_another_vertex_table_are_refused():
    cx, other = gen_lattice(2, 2, 3), gen_lattice(2, 2, 4)
    layers = layers_by_distance(other, {(0, 0)})
    for check in (validate_decomposition, lambda c, l: growth_table(c, l, [0])):
        with pytest.raises(ValueError, match="layer decomposition was built on another vertex table"):
            check(cx, layers)


@given(weighted_graph_complexes(sparse=True), st.data())
def test_divergence_cutoffs_are_the_divergence_ramp_cutoff(graph, data):
    """One cut-off path: the layer-budgeted cut-off of the divergence test
    equals the divergence-ramp plateau cut-off on the ball exhaustion from the
    same roots, exactly."""
    labels, _, cx = graph
    comp = cx.topology.components.tolist()
    # one root in each component, so that every vertex has a distance layer
    roots = {v for v, f in zip(labels, data.draw(st.lists(st.booleans(), min_size=len(labels),
                                                         max_size=len(labels)))) if f}
    roots |= {labels[comp.index(c)] for c in set(comp)}
    xis = data.draw(st.lists(st.floats(0.5, 100.0), min_size=1, max_size=5))
    xi = lambda j: xis[j % len(xis)]
    N = data.draw(st.integers(0, 4))
    horizon = N + data.draw(st.integers(1, 10))
    got, info = divergence_cutoffs(layers_by_distance(cx, roots), xi, N, horizon)
    assert got == make_plateau_cutoff(make_ball_exhaustion(cx, roots, 0), N, ("divergence", xi, horizon))
    assert list(got) == [v for v in cx.topology.vertices if v in got]  # table order


def test_depth_layers_refuse_ids_without_a_length(K3):
    # string and tuple ids keep their word lengths as layers
    assert layers_by_depth(K3).layer.tolist() == [1, 1, 1]
    tree = offspring_tree_family(2, 3)
    assert layers_by_depth(tree).layer.tolist() == [len(v) for v in tree.topology.vertices]
    numbered = build_clique_complex({0: 1.0, 1: 1.0, 2: 1.0}, {(0, 1): 1.0, (1, 2): 1.0}, 1)
    with pytest.raises(ValueError, match="vertex 0 has no length"):
        layers_by_depth(numbered)


def test_negative_plateau_index_and_growth_index_are_refused():
    for N in (-1, -3):
        with pytest.raises(ValueError, match=f"plateau index {N} must be nonnegative"):
            divergence_cutoffs(layers_by_depth(offspring_tree_family(2, 3)), [4.0, 5.0], N, 5)
    with pytest.raises(ValueError, match=r"no growth xi\(-1\)"):
        divergence_partial_sums([4.0, 5.0, 6.0], range(-1, 2))


def test_validate_binary_tree_by_depth():
    cx = gen_truncated_tree(2, 5)
    rep = validate_decomposition(cx, layers_by_depth(cx))
    assert rep.ok
    assert rep.first_violation is None


def test_validate_lattice_by_l1_distance():
    # plain grid: every edge changes the l1 norm by exactly one
    grid = gen_lattice(2, 2, 10, "nearest")
    layers = LayerDecomposition(grid.topology.vertices, [abs(v[0]) + abs(v[1]) for v in grid.topology.vertices])
    assert validate_decomposition(grid, layers).ok
    # with diagonal adjacency the (1,1) steps jump two l1 layers
    cx = gen_lattice(2, 2, 5)
    layers = LayerDecomposition(cx.topology.vertices, [abs(v[0]) + abs(v[1]) for v in cx.topology.vertices])
    rep = validate_decomposition(cx, layers)
    assert not rep.ok
    assert rep.jump_histogram.get(2, 0) > 0
    # graph-distance layers are valid by construction
    rep2 = validate_decomposition(cx, layers_by_distance(cx, {(0, 0)}))
    assert rep2.ok


def test_validate_parity_classes():
    cx = gen_lattice(2, 2, 3)
    layers = LayerDecomposition(cx.topology.vertices, [v[0] % 2 for v in cx.topology.vertices])
    rep = validate_decomposition(cx, layers)
    # exhaustive scan decides; vertical edges stay inside one class (jump 0),
    # horizontal and diagonal edges jump by one, so the scan accepts
    assert rep.ok


def test_offspring_tree_depth_layers_violate_unit_jump():
    cx = offspring_tree_family(2, 4)
    rep = validate_decomposition(cx, layers_by_depth(cx))
    assert not rep.ok  # closure edges of the tetrahedra span two layers
    u, v = rep.first_violation
    assert abs(len(u) - len(v)) == 2


def test_growth_path_graph():
    cx = gen_lattice(1, 1, 8, "nearest")
    layers = LayerDecomposition(cx.topology.vertices, [v[0] + 8 for v in cx.topology.vertices])
    tab = growth_table(cx, layers, range(0, 15))
    for k in range(0, 15):
        assert tab[k][0] == 1.0


def test_growth_offspring_tree_breakdown_bounded():
    cx = offspring_tree_family(2, 6)
    layers = layers_by_depth(cx)
    tab = growth_table(cx, layers, range(0, 6))
    xis = [tab[k][0] for k in range(0, 6)]
    assert max(xis) <= 5.0  # uniformly bounded
    for k in range(2, 6):
        xi, breakdown = tab[k]
        gamma = breakdown[2][0]
        assert gamma == (1 if k % 2 == 0 else 0)  # tetra apex parity
        assert xi == (5.0 if k % 2 == 0 else 4.0)


def test_growth_offspring_tree_quadratic():
    cx = offspring_tree_family("n^2", 6)
    layers = layers_by_depth(cx)
    tab = growth_table(cx, layers, range(2, 6))
    for k in range(2, 6):
        eta = tab[k][1][0][0]
        assert eta >= k * k  # vertex forward degree dominated by offspring
        assert tab[k][0] <= k * k + 10


def test_growth_empty_layer_reported():
    cx = gen_truncated_tree(1, 3)
    layers = layers_by_depth(cx)
    xi, breakdown = growth_table(cx, layers, [17])[17]
    assert xi is None


def test_partial_sums_reference_values():
    ps = divergence_partial_sums(lambda n: n ** 2, range(1, 11))
    assert abs(ps.partial_sums[-1] - 2.9290) < 1e-4
    assert abs(ps.partial_sums[-1] - 2.93) < 0.01
    ps4 = divergence_partial_sums(lambda n: n ** 4, range(1, 11))
    assert abs(ps4.partial_sums[-1] - 1.5498) < 1e-4
    assert abs(ps4.partial_sums[-1] - 1.55) < 0.01


def test_partial_sums_constant_growth():
    ps = divergence_partial_sums(lambda n: 4.0, range(1, 21))
    for k, s in zip(ps.ks, ps.partial_sums):
        assert np.isclose(s, k / 2.0)


def test_partial_sums_match_harmonic_numbers():
    ps = divergence_partial_sums(lambda n: n ** 2, range(1, 50))
    harmonic = np.cumsum([1.0 / n for n in range(1, 50)])
    assert np.max(np.abs(np.array(ps.partial_sums) - harmonic)) <= 1e-12


def test_partial_sums_zero_growth_diverges():
    ps = divergence_partial_sums([4.0, 1.0, 0.0, 2.0], range(0, 4))
    assert ps.diverged_at == 2
    assert math.isinf(ps.partial_sums[-1])
    assert ps.classification == "divergent_zero_growth"


def test_partial_sums_classification_heuristic():
    ps = divergence_partial_sums(lambda n: n ** 2, range(1, 40))
    assert ps.classification == "divergent_log_like"
    ps4 = divergence_partial_sums(lambda n: n ** 4, range(1, 40))
    assert ps4.classification == "convergent_like"
    assert ps4.fit["heuristic"] is True


def test_divergence_cutoff_values():
    cx = offspring_tree_family(2, 6)
    layers = layers_by_depth(cx)
    chi, info = divergence_cutoffs(layers, lambda j: j * j, 2, 1000)
    tail = math.fsum(1.0 / j for j in range(2, 1001))
    assert np.isclose(info["tail_sum"], tail)
    assert info["layer_profile"][2] == 1.0
    assert np.isclose(info["layer_profile"][4], 1.0 - (0.5 + 1.0 / 3.0) / tail)
    # layer-constant on vertices
    for v, val in chi.items():
        assert val == info["layer_profile"][len(v)]


def test_divergence_cutoff_monotone_in_n():
    cx = offspring_tree_family(2, 8)
    layers = layers_by_depth(cx)
    chi2, _ = divergence_cutoffs(layers, lambda j: max(1, j * j), 2, 500)
    chi5, _ = divergence_cutoffs(layers, lambda j: max(1, j * j), 5, 500)
    for v in cx.topology.vertices:
        assert chi5.get(v, 0.0) >= chi2.get(v, 0.0) - 1e-15


def test_divergence_cutoff_errors():
    cx = offspring_tree_family(2, 4)
    layers = layers_by_depth(cx)
    with pytest.raises(ValueError):
        divergence_cutoffs(layers, lambda j: 1.0, 5, 5)


def _layer_damped_cochains(cx, layers, seed=0):
    """Seeded random cochains with geometrically decaying layer mass, the
    finite-truncation stand-in for a square-summable element."""
    rng = np.random.default_rng(seed)
    out = []
    for d in range(cx.max_degree + 1):
        vals = rng.standard_normal(cx.size(d))
        damp = 0.25 ** layers.layer[cx.topology.vertex_index(d)].min(axis=1)
        vals *= damp
        nv = norm(cx, d, vals)
        out.append(Cochain(d, vals / nv if nv > 0 else vals))
    return tuple(out)


def test_step3_zero_cases():
    cx = offspring_tree_family(2, 5)
    layers = layers_by_depth(cx)
    zero = tuple(Cochain.zeros(cx, d) for d in range(4))
    chi, info = divergence_cutoffs(layers, lambda j: max(1, j * j), 2, 1000)
    rep = step3_estimate(cx, layers, chi, zero, info["tail_sum"], 2)
    assert all(r == 0.0 for r in rep.remainder_norms)
    # plateau covering the whole truncation
    chi_all, info_all = divergence_cutoffs(layers, lambda j: max(1, j * j), 9, 1000)
    u = _layer_damped_cochains(cx, layers)
    rep = step3_estimate(cx, layers, chi_all, u, info_all["tail_sum"], 9)
    assert all(r <= 1e-14 for r in rep.remainder_norms)


def test_step3_remainders_decrease():
    cx = offspring_tree_family("n^2", 6)
    layers = layers_by_depth(cx)
    u = _layer_damped_cochains(cx, layers)
    totals = []
    for N in (2, 4, 8):
        chi, info = divergence_cutoffs(layers, lambda j: max(1, j * j), N, 1000)
        rep = step3_estimate(cx, layers, chi, u, info["tail_sum"], N)
        totals.append(math.sqrt(math.fsum(r ** 2 for r in rep.remainder_norms)))
    assert totals[0] > totals[1] > totals[2]


def test_partial_sums_refuse_an_undefined_growth():
    """A measured table marks a layer without vertices None; the partial
    sums name it, where float(None) raised a TypeError."""
    with pytest.raises(ValueError, match=r"the growth xi\(1\) of layer 1 is undefined"):
        divergence_partial_sums([4.0, None, 9.0], range(0, 3))


@pytest.mark.parametrize("beyond", [0, None, -1])
def test_divergence_cutoffs_read_no_growth_beyond_the_horizon(beyond):
    """The budget ends at the horizon: a growth that is 0, undefined or
    negative past it changes neither the cut-off nor its tail and profile."""
    layers = layers_by_depth(offspring_tree_family(2, 6))
    want = divergence_cutoffs(layers, lambda j: 1, 2, 5)
    assert divergence_cutoffs(layers, lambda j: 1 if j <= 5 else beyond, 2, 5) == want
    assert sorted(want[1]) == ["layer_profile", "tail_sum"]
