import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hodgelab import Cochain, build_clique_complex, drop_simplices, induced_subcomplex
from hodgelab.complexes import reweighted
from hodgelab.chi import (
    BOUNDED_ON_RANGE,
    Exhaustion,
    GROWING,
    INCONCLUSIVE,
    budget_profile,
    check_global_chi,
    check_level_chi,
    classify_entries,
    coupling_block,
    energy_functional,
    leibniz_remainder,
    make_ball_exhaustion,
    make_cutoff_system,
    make_plateau_cutoff,
)
from hodgelab.generators import (
    gen_lattice,
    gen_perturbed_lattice,
    gen_truncated_tree,
    lattice_cube,
    radial_weighting,
)
from hodgelab.operators import coboundary_apply, random_cochain

from oracles import bfs_distances, cofaces, cutoff_energy_sup


def line(radius=10):
    return gen_lattice(1, 1, radius, "nearest")


def test_ball_exhaustion_line():
    cx = line(10)
    exh = make_ball_exhaustion(cx, {(0,)}, 5)
    assert {v for v, d in zip(exh.vertices, exh.layer.tolist()) if 0 <= d <= 3} == {(k,) for k in range(-3, 4)}


def test_ball_exhaustion_k3(K3):
    exh = make_ball_exhaustion(K3, {"a"}, 2)
    assert exh.vertices == ["a", "b", "c"] and exh.layer.tolist() == [0, 1, 1]


def test_ball_exhaustion_binary_tree_count():
    cx = gen_truncated_tree(1, 5)
    exh = make_ball_exhaustion(cx, {()}, 3)
    assert np.count_nonzero((exh.layer >= 0) & (exh.layer <= 2)) == 7  # 1 + 2 + 4 by breadth-first count


def test_plateau_cutoff_linear():
    cx = line(10)
    exh = make_ball_exhaustion(cx, {(0,)}, 8)
    chi = make_plateau_cutoff(exh, 3, ("linear", 2))
    assert chi[(3,)] == 1.0
    assert chi[(4,)] == 0.5
    assert (5,) not in chi  # decayed to zero
    assert all(chi[(k,)] == 1.0 for k in range(-3, 4))


def test_plateau_cutoff_divergence_profile():
    cx = gen_truncated_tree(1, 6)
    exh = make_ball_exhaustion(cx, {()}, 6)
    chi = make_plateau_cutoff(exh, 2, ("divergence", lambda j: j * j, 1000))
    tail = math.fsum(1.0 / j for j in range(2, 1001))
    expected = 1.0 - (1.0 / 2 + 1.0 / 3) / tail
    v4 = next(v for v in chi if len(v) == 4)
    assert abs(chi[v4] - expected) < 1e-6
    assert all(chi[v] == 1.0 for v in chi if len(v) <= 2)


def test_energy_functional_constant_is_zero(K4):
    ones = {v: 1.0 for v in K4.topology.vertices}
    zeros = {}
    # 0.6666666666666667, whose three copies sum to 2.0, whose third rounds lower
    thirds = {v: 1 - 1 / 3 for v in K4.topology.vertices}
    for degree in (1, 2, 3):
        assert energy_functional(K4, ones, degree)[0] == 0.0
        assert energy_functional(K4, zeros, degree)[0] == 0.0
        assert energy_functional(K4, thirds, degree) == (0.0, None)


def test_energy_functional_line_closed_form():
    # linear ramp of width W on the line: interior ramp vertices see two
    # neighbors at slope 1/W, so the sup is 2/W^2
    cx = line(20)
    exh = make_ball_exhaustion(cx, {(0,)}, 10)
    for W in (1, 2, 4):
        chi = make_plateau_cutoff(exh, 5, ("linear", W))
        sup, witness = energy_functional(cx, chi, 1)
        # independent exhaustive sweep
        best = 0.0
        labels = {v for (v,) in cx.simplices[0]}
        for v in labels:
            e = sum((chi.get((v[0] + s,), 0.0) - chi.get(v, 0.0)) ** 2 for s in (-1, 1)
                    if (v[0] + s,) in labels)
            best = max(best, e)
        assert np.isclose(sup, best)
        if W > 1:
            assert np.isclose(sup, 2.0 / W ** 2)


@st.composite
def weighted_complexes_with_cutoffs(draw):
    """A random clique complex on <= 9 vertices, max degree 2 or 3, weights
    in [0.1, 10] on every simplex and a vertex function in [0, 1] that may
    leave vertices out.  Half the cases draw round values only, so that equal
    energies occur and the witness rule is tested on ties.  Also an
    exhaustion from random roots, a plateau index k and a ramp: linear of
    integer or float width, or divergence-budgeted.  In half the cases no
    edge crosses a cut below which every root lies, so that the exhaustion
    leaves vertices out.  Drawn as ``(cx, chi, exh, k, ramp, roots)``."""
    n_vertices = draw(st.integers(2, 9))
    pairs = list(itertools.combinations(range(n_vertices), 2))
    # two edges in three on average, so that tetrahedra are common
    keep = draw(st.lists(st.sampled_from([True, True, False]), min_size=len(pairs),
                         max_size=len(pairs)))
    cut = draw(st.integers(1, n_vertices - 1)) if draw(st.booleans()) else n_vertices
    edges = [(u, v) for (u, v), k in zip(pairs, keep) if k and (v < cut or u >= cut)]
    cx = build_clique_complex({v: 1.0 for v in range(n_vertices)}, {e: 1.0 for e in edges}, draw(st.integers(2, 3)))
    round_values = draw(st.booleans())
    weight = st.sampled_from([0.5, 1.0, 2.0]) if round_values else st.floats(0.1, 10.0)
    value = st.sampled_from([0.0, 0.5, 1.0]) if round_values else st.floats(0.0, 1.0)
    cx = reweighted(cx, [draw(st.lists(weight, min_size=size, max_size=size)) for size in cx.counts()])
    values = draw(st.lists(st.none() | value,
                           min_size=n_vertices, max_size=n_vertices))
    chi = {v: x for v, x in enumerate(values) if x is not None}
    roots = draw(st.sets(st.integers(0, cut - 1), min_size=1))
    exh = make_ball_exhaustion(cx, roots, n_vertices)
    k = draw(st.integers(0, 4))
    ramp = draw(st.one_of(
        st.integers(1, 4).map(lambda w: ("linear", w)),
        st.floats(0.1, 5.0).map(lambda w: ("linear", w)),
        st.builds(lambda xis, h: ("divergence", lambda j: xis[j % len(xis)], k + h),
                  st.lists(st.floats(0.5, 100.0), min_size=1, max_size=5), st.integers(1, 10))))
    return cx, chi, exh, k, ramp, roots


@given(weighted_complexes_with_cutoffs())
def test_energy_functional_matches_definition_oracle(case):
    cx, chi, *_ = case
    for degree in range(1, cx.max_degree + 1):
        sup, witness = energy_functional(cx, chi, degree)
        want, want_witness = cutoff_energy_sup(cx.simplices, cx.weights, chi, degree)
        assert abs(sup - want) <= 1e-12 * abs(want)
        assert witness == want_witness


def _scalar_cutoff(d, k, ramp, top):
    """The plateau cut-off at a vertex of distance ``d`` (None when
    unreachable) from the roots, one vertex at a time."""
    if d is None:
        return 0.0
    if ramp[0] == "linear":
        val = 1.0 - max(0, d - k) / ramp[1]
        return min(1.0, val) if val > 0 else 0.0
    _, xi_fn, horizon = ramp
    return budget_profile(xi_fn, k, horizon, top)[0][d]


@given(weighted_complexes_with_cutoffs())
def test_cutoff_arrays_equal_the_scalar_formula(case):
    cx, chi, exh, k, ramp, roots = case
    dist = bfs_distances(cx.simplices, roots)
    want = [_scalar_cutoff(dist.get(v), k, ramp, max(dist.values())) for v in cx.topology.vertices]
    got = make_cutoff_system(cx, exh, [k], ramp).chi(k)
    assert got.tolist() == want
    assert make_plateau_cutoff(exh, k, ramp) == {v: x for v, x in zip(cx.topology.vertices, want) if x > 0}
    for mapping in (chi, make_plateau_cutoff(exh, k, ramp)):
        values = np.array([mapping.get(v, 0.0) for v in cx.topology.vertices])
        for degree in range(1, cx.max_degree + 1):
            assert energy_functional(cx, mapping, degree) == energy_functional(cx, values, degree)


def _assert_rows_are_energy_functional(cx, cutoffs, profiles):
    for prof in profiles:
        for degree, row in zip(prof.degrees, prof.table):
            want = [energy_functional(cx, cutoffs.chi(k), degree)[0] if degree else 0.0 for k in cutoffs.ks]
            assert [x.hex() for x in row] == [x.hex() for x in want]


@given(weighted_complexes_with_cutoffs(), st.data())
def test_energy_rows_are_the_energy_functional_bit_for_bit(case, data):
    """The ramp-band rows of ``check_global_chi`` and ``check_level_chi``
    against one ``energy_functional`` call per k: the drawn k lists repeat a k
    and are often unsorted, and half the exhaustions are arbitrary layer
    arrays, so a coface can span layers far apart or a vertex without one."""
    cx, _, exh, _, ramp, _ = case
    if data.draw(st.booleans()):
        n = len(cx.topology.vertices)
        exh = Exhaustion(cx.topology.vertices, data.draw(st.lists(st.integers(-1, 5), min_size=n, max_size=n)))
    top_k = 6 if ramp[0] == "linear" else ramp[2] - 1
    ks = data.draw(st.lists(st.integers(0, top_k), min_size=1, max_size=6))
    cutoffs = make_cutoff_system(cx, exh, ks + ks[:1], ramp)
    level = data.draw(st.integers(0, cx.max_degree))
    _assert_rows_are_energy_functional(
        cx, cutoffs, [check_global_chi(cx, cutoffs), check_level_chi(cx, cutoffs, level)])


def test_energy_rows_on_the_radially_weighted_lattice_are_the_energy_functional():
    cx = radial_weighting(gen_lattice(2, 2, 30), {(0, 0)}, 1.5)
    cutoffs = make_cutoff_system(cx, make_ball_exhaustion(cx, {(0, 0)}, 21), range(2, 22), ("linear", 1))
    prof = check_global_chi(cx, cutoffs)
    assert all(x > 0 for row in prof.table for x in row)
    _assert_rows_are_energy_functional(cx, cutoffs, [prof])


def test_a_coface_constant_off_0_and_1_adds_no_energy(K4):
    """On a tetrahedron whose vertices all read 1 - 1/3, the exactly summed
    mean of a triangle would round off that value; a constant face's mean is
    its value, so no degree carries energy."""
    cutoffs = make_cutoff_system(K4, Exhaustion(K4.topology.vertices, [1, 1, 1, 1]), [0], ("linear", 3))
    prof = check_global_chi(K4, cutoffs)
    assert prof.table == [[0.0]] * 3
    assert energy_functional(K4, cutoffs.chi(0), 3) == (0.0, None)
    _assert_rows_are_energy_functional(K4, cutoffs, [prof])


def test_an_empty_k_list_is_refused(K4):
    exh = make_ball_exhaustion(K4, {"a"}, 3)
    with pytest.raises(ValueError, match="ks is empty"):
        make_cutoff_system(K4, exh, [])


@pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -1.0])
def test_a_linear_ramp_width_not_finite_and_positive_is_refused(K4, width):
    """A width of nan made every cut-off value 0.0, plateau included, and inf
    every value 1.0."""
    exh = make_ball_exhaustion(K4, {"a"}, 2)
    with pytest.raises(ValueError, match=f"ramp width {width} must be finite and positive"):
        make_cutoff_system(K4, exh, [0, 1], ("linear", width))


def test_vertex_function_of_the_wrong_length_is_refused(K4):
    with pytest.raises(ValueError, match="vertex function has length 3, the complex has 4 vertices"):
        energy_functional(K4, np.ones(3), 1)


def test_cutoff_system_of_another_vertex_table_is_refused():
    from conftest import unit_graph

    path = lambda labels: build_clique_complex(*unit_graph(labels, list(zip(labels, labels[1:]))), 1)
    cx, other = path("abcd"), path("wxyz")
    cutoffs = make_cutoff_system(cx, make_ball_exhaustion(cx, {"a"}, 3), [0, 1])
    assert check_global_chi(path("abcd"), cutoffs).table == check_global_chi(cx, cutoffs).table
    with pytest.raises(ValueError, match="another vertex table"):
        check_global_chi(other, cutoffs)


def test_energy_functional_degree_zero_errors(K3):
    with pytest.raises(ValueError):
        energy_functional(K3, {}, 0)


def test_energy_witness_is_lexicographically_smallest():
    cx = line(5)
    chi = {(k,): max(0.0, 1.0 - max(0, abs(k) - 1)) for k in range(-5, 6)}
    sup, witness = energy_functional(cx, chi, 1)
    # symmetric profile: the negative-side maximizer sorts first
    assert witness == min(w for w in [witness, tuple(map(lambda x: (-x[0],), witness))])


def test_averaged_extension_sums_exactly(K3):
    from hodgelab.chi import averaged_extension

    chi = {"a": 0.1, "b": 0.2, "c": 0.3}
    assert (0.1 + 0.2) + 0.3 != math.fsum(chi.values())
    assert averaged_extension(K3, chi, 2)[0] == math.fsum(chi.values()) / 3


def test_classify_entries():
    assert classify_entries([1.0] * 10) == BOUNDED_ON_RANGE
    assert classify_entries([2.0, 2.0, 1.0, 0.0, 0.0]) == BOUNDED_ON_RANGE
    assert classify_entries([1, 2, 3, 4, 5, 6]) == GROWING
    assert classify_entries([1, 2, 3]) == INCONCLUSIVE
    assert classify_entries([1.0, 1.0 + 1e-14, 1.0, 1.0, 1.0, 1.0]) == BOUNDED_ON_RANGE


def test_global_chi_periodic_lattice_constant_rows():
    cx = gen_lattice(2, 2, 12)
    exh = make_ball_exhaustion(cx, {(0, 0)}, 9)
    cutoffs = make_cutoff_system(cx, exh, range(2, 9), ("linear", 1))
    prof = check_global_chi(cx, cutoffs)
    for row in prof.table:
        assert max(row) - min(row) <= 1e-12
    # plain Python floats, so printed tables read as numbers (np.float64 is a float subclass)
    assert all(type(x) is float for row in prof.table for x in row)
    assert prof.verdict == BOUNDED_ON_RANGE
    assert prof.constant_C == max(max(row) for row in prof.table)


def test_global_chi_full_plateau_gives_zero(K4):
    exh = make_ball_exhaustion(K4, {"a"}, 3)
    cutoffs = make_cutoff_system(K4, exh, [2, 3], ("linear", 1))
    prof = check_global_chi(K4, cutoffs)
    assert all(x == 0.0 for row in prof.table for x in row)


def test_level_chi_rows():
    cx = gen_lattice(2, 2, 8)
    exh = make_ball_exhaustion(cx, {(0, 0)}, 5)
    cutoffs = make_cutoff_system(cx, exh, range(2, 6), ("linear", 1))
    p1 = check_level_chi(cx, cutoffs, 1)
    assert p1.degrees == (1,)
    p0 = check_level_chi(cx, cutoffs, 0)
    assert all(x == 0.0 for x in p0.table[0])  # vacuous lower structure


def test_monotone_supports():
    cx = line(10)
    exh = make_ball_exhaustion(cx, {(0,)}, 8)
    prev = set()
    for k in range(1, 7):
        chi = make_plateau_cutoff(exh, k, ("linear", 2))
        supp = set(chi)
        assert prev <= supp
        prev = supp


def test_region_subcomplex_identity_and_k3(K4):
    assert induced_subcomplex(K4, {"a", "b", "c"}).counts()[:3] == (3, 3, 1)
    assert induced_subcomplex(K4, set("abcd")).counts() == K4.counts()


def test_coupling_block_whole_region(K4):
    rep = coupling_block(K4, set("abcd"))
    assert rep.rank == 0
    assert rep.nnz == 0
    assert rep.cross_simplices == 0


def test_coupling_block_disjoint_components():
    from conftest import unit_graph
    from hodgelab import build_clique_complex

    cx = build_clique_complex(*unit_graph("abcd", [("a", "b"), ("c", "d")]), 1)
    rep = coupling_block(cx, {"a", "b"})
    assert rep.rank == 0
    assert rep.cross_simplices == 0


def test_coupling_block_perturbed_lattice_rank_oracle():
    region = lattice_cube(4, 2)
    cx = gen_perturbed_lattice(2, 2, 4, region)
    rep = coupling_block(cx, region)
    # every coupling column holds a single entry (cross triangles are absent),
    # so the rank equals the number of region-side simplices coupled across
    coupled_in = set()
    for i in range(cx.max_degree):
        uppers = cx.simplices[i + 1]
        for j, ext in enumerate(cofaces(cx.simplices, i)):
            s = cx.simplices[i][j]
            if not all(v in region for v in s):
                continue
            if any(not all(v in region for v in uppers[t]) for _, t in ext):
                coupled_in.add((i, j))
    assert rep.rank == len(coupled_in)
    assert rep.cross_simplices > 0
    assert rep.sigma_max > 0
    assert rep.label == "finite-truncation evidence"


def test_a_lazy_region_gives_the_reports_of_its_plain_set():
    cx = gen_lattice(2, 2, 2)
    cube = lattice_cube(3, 2, (1, 0))
    rep = coupling_block(cx, cube)
    assert rep == coupling_block(cx, set(cube)) and rep.cross_simplices > 0
    lazy, plain = induced_subcomplex(cx, cube), induced_subcomplex(cx, set(cube))
    assert lazy.simplices == plain.simplices and lazy.meta == plain.meta
    assert all(np.array_equal(a, b) for a, b in zip(lazy.weights, plain.weights))


@pytest.mark.parametrize("split", [coupling_block, induced_subcomplex])
def test_a_large_lazy_region_is_never_stored(split):
    cx = gen_lattice(2, 2, 2)
    cube = lattice_cube(1000, 2)
    tracemalloc.start()
    try:
        split(cx, cube)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_leibniz_trivial_cases(K4):
    rng = np.random.default_rng(0)
    f = random_cochain(K4, 1, rng)
    ones = {v: 1.0 for v in K4.topology.vertices}
    rep = leibniz_remainder(K4, ones, f)
    assert rep.norm_d <= 1e-14 and rep.norm_delta <= 1e-14
    zero = Cochain.zeros(K4, 1)
    rep = leibniz_remainder(K4, {}, zero)
    assert rep.norm_d == 0.0 and rep.norm_delta == 0.0


def _explicit_d_remainder(cx, chi, f):
    """Independent evaluation of the commutator against d from the
    per-simplex sum formula with alternating signs and 1/(i+2) scaling."""
    i = f.degree
    out = np.zeros(cx.size(i + 1))
    for t, tau in enumerate(cx.simplices[i + 1]):
        acc = 0.0
        for l in range(len(tau)):
            face = tau[:l] + tau[l + 1:]
            fv = f.values[cx.index_of(i, face)]
            bar = sum(chi.get(v, 0.0) for v in face) / len(face)
            acc += ((-1) ** l) * (chi.get(tau[l], 0.0) - bar) * fv
        out[t] = -acc / (len(tau))
    return out


def _explicit_delta_remainder(cx, chi, g):
    """Independent per-simplex sum formula for the commutator against the
    codifferential: (1/(k+1)) (1/m) sum m(s+x) (chi(x) - mean chi(s)) g(s+x)."""
    j = g.degree
    out = np.zeros(cx.size(j - 1))
    upper = cx.simplices[j]
    for s_idx, ext in enumerate(cofaces(cx.simplices, j - 1)):
        s = cx.simplices[j - 1][s_idx]
        bar = sum(chi.get(v, 0.0) for v in s) / len(s)
        acc = 0.0
        for x, t in ext:
            l = upper[t].index(x)
            gval = ((-1) ** l) * g.values[t]
            acc += cx.weights[j][t] * (chi.get(x, 0.0) - bar) * gval
        out[s_idx] = acc / (cx.weights[j - 1][s_idx] * (len(s) + 1))
    return out


def test_leibniz_dual_formula_agreement_on_line_ramp():
    cx = line(12)
    exh = make_ball_exhaustion(cx, {(0,)}, 10)
    chi = make_plateau_cutoff(exh, 4, ("linear", 3))
    # edge indicator on the ramp: the codifferential side carries the remainder
    g = Cochain.indicator(cx, ((5,), (6,)))
    rep = leibniz_remainder(cx, chi, g)
    explicit = _explicit_delta_remainder(cx, chi, g)
    assert np.max(np.abs(rep.R_delta.values - explicit)) <= 1e-12
    # vertex cochain on the ramp: the coboundary side
    f = Cochain.indicator(cx, ((5,),))
    rep = leibniz_remainder(cx, chi, f)
    explicit = _explicit_d_remainder(cx, chi, f)
    assert np.max(np.abs(rep.R_d.values - explicit)) <= 1e-12


def test_leibniz_dual_formula_agreement_higher_degree(K4):
    rng = np.random.default_rng(7)
    chi = {"a": 1.0, "b": 0.75, "c": 0.25, "d": 0.0}
    for degree in (0, 1, 2):
        f = random_cochain(K4, degree, rng)
        rep = leibniz_remainder(K4, chi, f)
        explicit = _explicit_d_remainder(K4, chi, f)
        assert np.max(np.abs(rep.R_d.values - explicit)) <= 1e-12


def test_leibniz_definition_identity(K4):
    # d(chi f) - chi^(i+1) df - R_d == 0 identically
    rng = np.random.default_rng(8)
    chi = {"a": 0.9, "b": 0.5, "c": 0.1, "d": 0.3}
    from hodgelab.chi import averaged_extension

    for degree in (0, 1, 2):
        f = random_cochain(K4, degree, rng)
        avg_i = averaged_extension(K4, chi, degree)
        avg_up = averaged_extension(K4, chi, degree + 1)
        lhs = coboundary_apply(K4, Cochain(degree, avg_i * f.values)).values
        rhs = avg_up * coboundary_apply(K4, f).values + leibniz_remainder(K4, chi, f).R_d.values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_leibniz_bound_constant(K4):
    rng = np.random.default_rng(9)
    chi = {"a": 1.0, "b": 0.6, "c": 0.2, "d": 0.0}
    f = random_cochain(K4, 1, rng)
    rep = leibniz_remainder(K4, chi, f)
    assert rep.smallest_C is not None
    assert rep.norm_d ** 2 <= rep.smallest_C * rep.bound_term + 1e-15
    # the derived constant never exceeds 1 for the averaged extension
    assert rep.smallest_C <= 1.0 + 1e-12
