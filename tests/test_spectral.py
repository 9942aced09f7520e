import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings

from hodgelab import build_clique_complex, drop_simplices, spectral
from hodgelab.complexes import reweighted
from hodgelab.generators import (gen_alternating_triangulation, gen_lattice, gen_truncated_tree,
                                 offspring_tree_family, radial_weighting)
from hodgelab.operators import _scaled_coboundary, coboundary_matrix, symmetrized_laplacian
from hodgelab.spectral import (
    DENSE_CUTOVER,
    KERNEL_THRESH,
    _hodge_spectra,
    boundary_weight_down,
    esa_sweep,
    hodge_decompose,
    hodge_orthogonality_residual,
    kernel_probe,
    spectrum,
)

from conftest import unit_graph
from oracles import betti_by_rank, bfs_distances, boundary_matrix, graph_laplacian
from test_complexes import weighted_graph_complexes


def test_spectrum_k3(K3):
    rep = spectrum(K3, 0)
    oracle = np.sort(np.linalg.eigvalsh(
        graph_laplacian("abc", {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0})))
    assert np.allclose(np.repeat(rep.eigenvalues, rep.multiplicities), oracle, atol=1e-10)
    assert rep.method == "dense"
    assert all(r <= 1e-8 for r in rep.residuals)


def test_spectrum_single_vertex():
    cx = build_clique_complex(*unit_graph("ab", [("a", "b")]), 1)
    sub = drop_simplices(cx, 1, lambda s: False)
    rep = spectrum(sub, 0, how_many=2)
    assert np.allclose(np.repeat(rep.eigenvalues, rep.multiplicities), [0.0, 0.0], atol=1e-12)
    lone = build_clique_complex(*unit_graph("a", []), 1)
    rep = spectrum(lone, 0, how_many=1)
    assert rep.eigenvalues == [0.0]
    assert spectrum(lone, 1).method == "empty"


def test_spectrum_four_cycle_harmonic(four_cycle):
    rep = spectrum(four_cycle, 1, how_many=4)
    vals = np.repeat(rep.eigenvalues, rep.multiplicities)
    assert abs(vals[0]) <= 1e-10
    assert vals[1] > 1e-8  # simple zero eigenvalue: one harmonic loop


@pytest.mark.parametrize("make,degree,beta", [
    (lambda: gen_alternating_triangulation(6), 1, 72),  # 384 rows, iterative
    (lambda: drop_simplices(build_clique_complex(*unit_graph("abcd", list(itertools.combinations("abcd", 2))), 3),
                            3, lambda s: False), 2, 1),  # the hollow tetrahedron, dense
], ids=["alternating", "hollow-tetrahedron"])
def test_spectrum_writes_the_counted_zeros_as_zero(make, degree, beta):
    """At degree i >= 1 the first min(beta_i, how_many) values are 0.0, and
    their solved vectors have residuals against 0.0."""
    cx = make()
    assert cx.topology.betti[degree] == beta
    rep = spectrum(cx, degree, how_many=beta + 2)
    assert rep.eigenvalues[0] == 0.0 and rep.multiplicities[0] == beta and rep.eigenvalues[1] > KERNEL_THRESH
    assert len(rep.residuals) == beta + 2 and max(rep.residuals) <= 1e-8
    rep = spectrum(cx, degree, how_many=1)
    assert rep.eigenvalues == [0.0] and rep.multiplicities == [1]


def test_dense_and_iterative_agree(monkeypatch):
    cx = gen_lattice(2, 2, 6)  # 169 vertices
    dense = spectrum(cx, 0, how_many=4)
    monkeypatch.setattr(spectral, "DENSE_CUTOVER", 0)
    iterative = spectrum(cx, 0, how_many=4, seed=0)
    a = np.repeat(dense.eigenvalues, dense.multiplicities)[:4]
    b = np.repeat(iterative.eigenvalues, iterative.multiplicities)[:4]
    assert np.max(np.abs(a - b)) <= 1e-8


def _oracle_block(cx, degree):
    """M^{1/2} L M^{-1/2} from explicit boundary matrices and the weights."""
    tables, m = cx.simplices, cx.weights
    A = np.zeros((len(tables[degree]),) * 2)
    for i in (degree, degree - 1):
        if 0 <= i < cx.max_degree:
            W = np.sqrt(m[i + 1])[:, None] * boundary_matrix(tables[i], tables[i + 1]).T / np.sqrt(m[i])
            A += W.T @ W if i == degree else W @ W.T
    return A


@pytest.mark.parametrize("off,depth,degree", [("2", 8, 0), ("2", 8, 1), ("2", 8, 2), ("2", 8, 3),
                                              ("n^2", 5, 1)])
def test_auto_route_matches_dense_oracle(off, depth, degree):
    """Blocks on both sides of DENSE_CUTOVER (511, 935, 510, 85 and 1855 rows)."""
    cx = offspring_tree_family(off, depth)
    rep = spectrum(cx, degree, how_many=4)
    assert rep.method == ("dense" if cx.size(degree) <= DENSE_CUTOVER else "iterative")
    assert rep.converged
    ref = np.linalg.eigvalsh(_oracle_block(cx, degree))[:4]
    got = np.repeat(rep.eigenvalues, rep.multiplicities)
    assert len(got) == 4
    nonzero = ref > KERNEL_THRESH
    assert (got > KERNEL_THRESH).tolist() == nonzero.tolist()
    assert np.all(np.abs(got[nonzero] - ref[nonzero]) <= 1e-10 * ref[nonzero])
    # eigenvalues closer than 1e-8 form one multiple eigenvalue
    breaks = np.flatnonzero(np.diff(ref) > 1e-8) + 1
    assert rep.multiplicities == np.diff(np.r_[0, breaks, len(ref)]).tolist()


def _check_degree_zero(cx, how_many):
    """The first min(beta_0, how_many) values are exact zeros, beta_0 from the
    boundary ranks; the rest are the oracle's values to 1e-10 relative."""
    beta0 = betti_by_rank(cx.simplices)[0]
    ref = np.linalg.eigvalsh(_oracle_block(cx, 0))[:how_many]
    rep = spectrum(cx, 0, how_many=how_many)
    got = np.repeat(rep.eigenvalues, rep.multiplicities)
    zeros = min(beta0, how_many)
    assert len(got) == how_many and np.count_nonzero(got == 0.0) == zeros
    assert got[:zeros].tolist() == [0.0] * zeros
    assert np.all(np.abs(got[zeros:] - ref[zeros:]) <= 1e-10 * ref[zeros:])
    assert rep.converged and max(rep.residuals) <= 1e-8
    return rep


@settings(max_examples=60, deadline=None)
@given(weighted_graph_complexes(sparse=True))
def test_degree_zero_kernel_is_counted_from_components(graph):
    _, _, cx = graph
    n0 = cx.size(0)
    # hypothesis refuses function-scoped fixtures, so each example patches the cutover itself
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "DENSE_CUTOVER", n0)
        assert _check_degree_zero(cx, n0).method == ("kernel" if cx.size(1) == 0 else "dense")
        mp.setattr(spectral, "DENSE_CUTOVER", 0)
        if n0 >= 3:  # ARPACK needs how_many < n0 - 1
            zeros = min(cx.topology.components.max() + 1, n0 - 2)
            rep = _check_degree_zero(cx, n0 - 2)
            assert rep.method == ("kernel" if zeros == n0 - 2 else "iterative")
    assert kernel_probe(cx, 0) == 1.0


def test_two_components_above_the_cutover_deflate_their_kernel():
    lattice = gen_lattice(2, 2, 10)
    cut = drop_simplices(lattice, 1, lambda e: (e[0][0] < 0) == (e[1][0] < 0))
    cut = reweighted(cut, [np.linspace(0.5, 2.0, len(w)) for w in cut.weights])
    assert cut.size(0) > DENSE_CUTOVER and cut.topology.components.max() == 1
    rep = _check_degree_zero(cut, 5)
    assert rep.method == "iterative" and rep.multiplicities[0] == 2
    assert kernel_probe(cut, 0) == 1.0


def test_sweep_reports_the_values_of_spectrum():
    """The sweep and ``spectrum`` solve different blocks, so their values
    agree to the 1e-10 relative that ``_check_against_dense`` allows each of
    them, not to the 12 digits the sweep rounds to; the zeros are equal."""
    table = esa_sweep("n^2", [4, 5, 6], how_many=3, seed=2)
    for row in table["rows"]:
        cx = offspring_tree_family("n^2", row["depth"])
        down = boundary_weight_down(cx)
        for d in range(cx.max_degree + 1):
            got = np.array(row["smallest_eigenvalues"][str(d)])
            want = np.array(spectrum(cx, d, how_many=3, seed=2).eigenvalues)
            assert len(got) == len(want) and np.array_equal(got == 0.0, want == 0.0)
            assert np.all(np.abs(got - want) <= 1e-10 * want)
            lam = spectrum(down, d, how_many=1, seed=2).eigenvalues[0]
            sigma = math.sqrt(lam * lam + 1.0)
            assert abs(row["sigma_min_boundary_down"][str(d)] - sigma) <= 1e-10 * sigma


def _check_against_dense(cx, rows, how_many, atol=0.0):
    """Each row holds the how_many smallest eigenvalues of dense ``eigh`` on
    the symmetrized block: the zeros as 0.0, the rest to 1e-10 relative, or
    to ``atol``."""
    for d, got in enumerate(rows):
        ref = scipy.linalg.eigh(symmetrized_laplacian(cx, d).toarray(), eigvals_only=True,
                                subset_by_index=[0, min(how_many, cx.size(d)) - 1]) if cx.size(d) else []
        zeros = int(np.count_nonzero(np.asarray(ref) <= KERNEL_THRESH))
        assert len(got) == len(ref)
        assert got[:zeros].tolist() == [0.0] * zeros and np.all(got[zeros:] > 0.0)
        assert np.all(np.abs(got[zeros:] - ref[zeros:]) <= np.maximum(1e-10 * ref[zeros:], atol))


@pytest.mark.parametrize("off,depth,parity", [("n^2", 5, 0), ("2", 9, 0), ("n^2", 5, 1), ("n^4", 4, 0)])
def test_sweep_spectra_match_dense_eigh(off, depth, parity):
    """The sweep's route, one solve per scaled coboundary, on a complex and its
    boundary-down copy; both copies have beta = (1, 0, 0, 0)."""
    cx = offspring_tree_family(off, depth, parity)
    for copy in (cx, boundary_weight_down(cx)):
        rows = _hodge_spectra(copy, 4, seed=0)
        _check_against_dense(copy, rows, 4)
        assert [np.count_nonzero(r == 0.0) for r in rows] == list(copy.topology.betti) == [1, 0, 0, 0]


def test_a_value_shared_by_two_rows_is_the_same_float():
    """spec L_0 and spec L_1 share sigma^2_+(W_0): both rows take it from one solve."""
    for depth in (5, 6):
        rows = _hodge_spectra(offspring_tree_family("n^2", depth), 4, seed=0)
        assert rows[0][0] == 0.0 and rows[1][0] == rows[0][1]
    table = esa_sweep("n^2", [6], seed=1)["rows"][0]["smallest_eigenvalues"]
    assert table["1"][0] == table["0"][1] == 6.69879392466e-05


def test_sweep_assembles_no_degree_one_block(monkeypatch):
    """The L_1 block of n^2 at depth 5 (1855 rows) is neither assembled nor
    solved, in the complex or in its boundary-down copy."""
    degrees, rows = [], []
    assemble, solve = spectral.symmetrized_laplacian, spectral._solve
    monkeypatch.setattr(spectral, "symmetrized_laplacian",
                        lambda cx, degree: degrees.append(degree) or assemble(cx, degree))
    monkeypatch.setattr(spectral, "_solve", lambda A, *args: rows.append(A.shape[0]) or solve(A, *args))
    esa_sweep("n^2", [5], how_many=4)
    assert sorted(degrees) == [0, 0, 2, 2, 3, 3]
    assert sorted(rows) == [3, 3, 622, 622, 1237, 1237]


def test_lifting_raises_c_over_a_small_upper_coboundary(monkeypatch):
    """Light tetrahedra put c sigma^2_+(W_2) below sigma^2_+(W_1) at c = 1, so
    the solve of G_1 (622 rows in 618 components, solved per component in
    dense stacks) is refused and repeated with a larger c."""
    cx = offspring_tree_family("n^2", 5)
    light = reweighted(cx, cx.weights[:3] + [np.full(cx.size(3), 1e-6)])
    scales, lifted = [], spectral._lifted_block
    monkeypatch.setattr(spectral, "_lifted_block", lambda cx, i, c: scales.append((i, c)) or lifted(cx, i, c))
    rows = _hodge_spectra(light, 4, seed=0)
    assert scales[:2] == [(2, 1.0), (1, 1.0)] and len(scales) >= 3
    assert all(i == 1 and c > 1e3 for i, c in scales[2:])
    # dense eigh of the whole block is accurate to about eps |L_i| ~ 1e-15,
    # which is 2.5e-10 of the tetrahedra's 4e-6
    _check_against_dense(light, rows, 4, atol=1e-14)


@pytest.mark.parametrize("off,depth,degree", [("n^3", 4, 0), ("n^3", 4, 1), ("4", 4, 2)])
def test_iterative_route_finds_every_copy_of_a_multiple_eigenvalue(monkeypatch, off, depth, degree):
    """One Lanczos run finds too few copies of the eigenvalues of these
    blocks that have multiplicity 4 or more; the inertia count asks for the rest."""
    cx = offspring_tree_family(off, depth)
    monkeypatch.setattr(spectral, "DENSE_CUTOVER", 0)
    rep = spectrum(cx, degree, how_many=6)
    ref = np.linalg.eigvalsh(symmetrized_laplacian(cx, degree).toarray())[:6]
    got = np.repeat(rep.eigenvalues, rep.multiplicities)
    nonzero = ref > KERNEL_THRESH
    assert len(got) == 6 and rep.method == "iterative" and rep.converged and max(rep.residuals) <= 1e-8
    assert np.all(np.abs(got[nonzero] - ref[nonzero]) <= 1e-10 * ref[nonzero])


def _shuffled_direct_sum(blocks, seed=0):
    """The direct sum of ``blocks``, rows shuffled so that no component's rows
    are contiguous."""
    A = sp.block_diag(blocks, format="csr")
    perm = np.random.default_rng(seed).permutation(A.shape[0])
    return A[perm][:, perm].tocsr()


@pytest.fixture
def stacks(monkeypatch):
    """The shape of every stack that a batched eigvalsh solves."""
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    return shapes


def test_component_route_on_a_direct_sum_block(monkeypatch, stacks):
    """L_2 of the binary tree at depth 10 has 2046 rows in 1364 components,
    each below the cutover: one stack per component size, no block solve."""
    A = symmetrized_laplacian(offspring_tree_family("2", 10), 2)
    assert A.shape[0] == 2046 and connected_components(A, directed=False)[0] == 1364
    ref = scipy.linalg.eigh(A.toarray(), eigvals_only=True)
    monkeypatch.setattr(spectral, "_solve_block", lambda *args: pytest.fail("a block solve ran"))
    for skip, count in ((0, 6), (5, 4), (300, 40)):
        vals, vecs, method, converged, _ = spectral._solve(A, skip, count, 1)
        assert method == "components" and converged and vecs is None
        np.testing.assert_allclose(vals, ref[skip:skip + count], rtol=1e-10, atol=1e-12)
    assert stacks and all(n * k * k <= spectral.STACK_ENTRIES for n, k, _ in stacks)


def test_component_route_solves_a_large_component_by_the_block_route(monkeypatch, stacks):
    """A 300-row path block among 150 small dense ones: the path alone goes
    to ``_solve_block``."""
    rng = np.random.default_rng(3)
    path = sp.diags([-np.ones(299), 2.5 + rng.random(300), -np.ones(299)], [-1, 0, 1])
    small = [M @ M.T + 0.5 * np.eye(len(M)) for M in (rng.random((k, k)) for k in rng.integers(1, 6, size=150))]
    A = _shuffled_direct_sum([path] + small)
    ref = scipy.linalg.eigh(A.toarray(), eigvals_only=True)
    blocks, solve_block = [], spectral._solve_block
    monkeypatch.setattr(spectral, "_solve_block", lambda B, *args: blocks.append(B.shape[0]) or solve_block(B, *args))
    vals, _, method, converged, _ = spectral._solve(A, 3, 8, 0)
    assert blocks == [300] and method == "components" and converged
    np.testing.assert_allclose(vals, ref[3:11], rtol=1e-10)
    assert sum(n * k for n, k, _ in stacks) == A.shape[0] - 300


def test_component_route_counts_every_copy_of_a_value(monkeypatch, stacks):
    """2.0 is an eigenvalue of 180 components and 4.0 of 100; the window
    170..209 holds 10 copies of the one and 30 of the other.  Stacks of at
    most 40 entries take 40 one-row or 10 two-row components each."""
    monkeypatch.setattr(spectral, "STACK_ENTRIES", 40)
    pair = sp.csr_matrix([[3.0, 1.0], [1.0, 3.0]])  # eigenvalues 2 and 4
    A = _shuffled_direct_sum([sp.csr_matrix([[2.0]])] * 120 + [pair] * 60 + [sp.csr_matrix([[4.0]])] * 40)
    vals = spectral._solve(A, 170, 40, 0)[0]
    np.testing.assert_allclose(vals, [2.0] * 10 + [4.0] * 30, rtol=1e-10)
    assert sorted(stacks) == [(10, 2, 2)] * 6 + [(40, 1, 1)] * 4


def _planted_twins(seed, base, classes=(), pairs_under=()):
    """The symmetrized Laplacian M^{-1/2} (D - W) M^{-1/2} of a random weighted
    graph on ``base`` vertices with planted twins, and its kernel basis,
    sqrt(m0) normalised.  Each (v, t, w) of ``classes`` adds t - 1 copies of
    vertex v with its edges and weight, joined to v and to each other by
    weight w when w > 0.  Each (p, k) of ``pairs_under`` adds k pairs of
    leaves under p, as in the offspring trees: each pair collapses first, and
    then the k pairs under p.  Weights are multiples of 1/8, so every degree is
    the same float in whatever order it is summed, and each entry is computed
    as -w / sqrt(m_i m_j), so the matrix is symmetric to the bit."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(v)), v): rng.integers(4, 17) / 8 for v in range(1, base)}  # a random tree
    for _ in range(base):
        edges[tuple(sorted(rng.choice(base, 2, replace=False).tolist()))] = rng.integers(4, 17) / 8
    m = list(rng.integers(4, 17, base) / 8)
    for v, t, w in classes:
        clones = list(range(len(m), len(m) + t - 1))
        m += [m[v]] * (t - 1)
        for (a, b), x in list(edges.items()):
            if v in (a, b):
                edges.update({(a + b - v, c): x for c in clones})
        edges.update({pair: w for pair in itertools.combinations([v] + clones, 2) if w})
    for p, k in pairs_under:
        for i in range(len(m), len(m) + 2 * k, 2):
            edges.update({(p, i): 1.0, (p, i + 1): 1.0, (i, i + 1): 1.0})
        m += [1.0] * (2 * k)
    (u, v), w, m = np.array(list(edges)).T, np.array(list(edges.values())), np.array(m)
    n = len(m)
    degree = np.bincount(np.r_[u, v], weights=np.r_[w, w], minlength=n)
    rows, cols = np.r_[u, v, np.arange(n)], np.r_[v, u, np.arange(n)]
    A = sp.csr_matrix((np.r_[-w, -w, degree] / np.sqrt(m[rows] * m[cols]), (rows, cols)), shape=(n, n))
    return A, sp.csr_matrix(np.sqrt(m / m.sum())[:, None])


@pytest.mark.parametrize("base,classes,pairs_under", [
    (230, [(5, 2, 0.0), (17, 3, 0.0), (40, 4, 0.0)], []),  # twins that are not adjacent
    (230, [(5, 2, 1.0), (17, 3, 0.5), (40, 4, 2.0)], []),  # adjacent twins
    (230, [(8, 3, 0.0), (9, 2, 1.5)], [(3, 4), (60, 6)]),  # pairs, then the pairs under a parent
    (150, [], [(3, 20), (70, 20)]),  # nested, leaving a quotient below the cutover
])
@pytest.mark.parametrize("with_kernel", [False, True])
def test_twin_rows_collapse_to_the_dense_spectrum(monkeypatch, base, classes, pairs_under, with_kernel):
    """A values-only solve above the cutover keeps one row per twin class, and
    its values and their multiplicities are those of dense eigvalsh, also in
    windows that end or start inside a run of twin values."""
    A, kernel = _planted_twins(0, base, classes, pairs_under)
    ref = np.linalg.eigvalsh(A.toarray())
    repeated = np.isclose(ref[1:], ref[:-1], rtol=1e-10) & (ref[1:] > 1e-8)
    runs = np.flatnonzero(repeated & ~np.r_[False, repeated[:-1]])  # the first index of each repeated value
    assert A.shape[0] > DENSE_CUTOVER and runs.size
    blocks, solve_block = [], spectral._solve_block
    monkeypatch.setattr(spectral, "_solve_block", lambda B, *args: blocks.append(B.shape[0]) or solve_block(B, *args))
    if with_kernel:  # skip is the kernel's width; each window ends after the first copy of a twin value
        windows = [(1, 5)] + [(1, r) for r in runs]
    else:
        windows = [(0, 5)] + [(r + 1, 3) for r in runs]
    for skip, count in windows:
        vals, vecs, _, converged, _ = spectral._solve(A, skip, count, 0, kernel if with_kernel else None)
        assert vecs is None and converged
        np.testing.assert_allclose(vals, ref[skip:skip + count], rtol=1e-10, atol=1e-12)
    assert blocks == [base + len(pairs_under)] * len(windows)


def test_rows_that_only_hash_alike_are_not_collapsed():
    """Vertex 230 is a copy of vertex 5.  With the two apart, moving the
    copy's diagonal by one ulp keeps the hash of its other entries, and moving
    one of those (and its mirror) by one ulp changes it.  With the two joined,
    swapping two entries of the copy keeps the hash of its columns and values.
    No such row is collapsed, and the values stay those of dense eigvalsh."""
    apart, joined = (_planted_twins(0, 230, [(5, 2, w)])[0] for w in (0.0, 1.0))
    for A in (apart, joined):
        P, S, a = spectral._twin_pairs(A)
        assert P.tolist() == [5] and S.tolist() == [230] and a.tolist() == [A[5, 230]]
    k, l = [c for c in joined[230].indices if c not in (5, 230)][:2]
    assert joined[230, k] != joined[230, l]
    for A, entries in ((apart, {(230, 230): np.nextafter(apart[230, 230], np.inf)}),
                       (apart, {(230, k): np.nextafter(apart[230, k], np.inf)}),
                       (joined, {(230, k): joined[230, l], (230, l): joined[230, k]})):
        B = A.tolil()
        for (i, j), x in entries.items():
            B[i, j] = B[j, i] = x
        B = B.tocsr()
        assert spectral._twin_pairs(B)[0].size == 0
        ref = np.linalg.eigvalsh(B.toarray())
        np.testing.assert_allclose(spectral._solve(B, 0, 6, 0)[0], ref[:6], rtol=1e-10, atol=1e-12)


def test_isolated_vertices_are_not_twins_of_each_other():
    """Two isolated vertices have equal, empty rows of L_0, but each holds its
    own kernel vector, so their rows of the kernel basis differ."""
    corners = {(-8, -8), (8, 8)}
    cx = drop_simplices(gen_lattice(2, 2, 8), 1, lambda e: not corners & set(e))
    A, kernel = symmetrized_laplacian(cx, 0), spectral._kernel_basis(cx)
    assert A.shape[0] > DENSE_CUTOVER and cx.topology.betti[0] == kernel.shape[1] == 3
    assert spectral._twin_pairs(A)[0].size == 1 and spectral._twin_pairs(A, kernel)[0].size == 0
    vals = spectral._solve(A, 3, 5, 0, kernel)[0]
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(A.toarray())[3:8], rtol=1e-10)


def test_a_block_of_twins_leaves_only_its_kernel():
    """Every row of L_0 of the complete graph on 201 vertices is a twin of
    every other: one class, whose value n = 201 comes n - 1 times, and a one-row
    quotient that holds the kernel alone."""
    n = DENSE_CUTOVER + 1
    A = sp.csr_matrix(n * np.eye(n) - np.ones((n, n)))
    kernel = sp.csr_matrix(np.full((n, 1), 1 / math.sqrt(n)))
    vals, _, method, _, _ = spectral._solve(A, 1, 4, 0, kernel)
    assert vals.tolist() == [float(n)] * 4 and method == "twins"
    vals = spectral._solve(A, 0, 3, 0)[0]
    np.testing.assert_allclose(vals, [0.0, n, n], atol=1e-12)


def test_scaled_coboundary_is_the_two_diagonal_products():
    lattice = gen_lattice(2, 2, 4)
    for cx in (radial_weighting(lattice, [(0, 0)], 1.5), boundary_weight_down(offspring_tree_family("n^2", 4))):
        for i in range(cx.max_degree):
            d = coboundary_matrix(cx, i)
            want = (sp.diags(np.sqrt(cx.weights[i + 1])) @ d @ sp.diags(1.0 / np.sqrt(cx.weights[i]))).tocsr()
            got = _scaled_coboundary(cx, i)
            assert got.shape == want.shape
            for a, b in ((got.indptr, want.indptr), (got.indices, want.indices), (got.data, want.data)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_psd_across_examples(K4, four_cycle):
    for cx in (K4, four_cycle, gen_truncated_tree(2, 4)):
        for d in range(cx.max_degree + 1):
            if cx.size(d) == 0:
                continue
            rep = spectrum(cx, d, how_many=1)
            assert rep.eigenvalues[0] >= -1e-10


def test_hodge_k3_filled(K3):
    dec = hodge_decompose(K3, 1)
    assert dec.betti == 0
    assert dec.dims() == (2, 0, 1)
    assert hodge_orthogonality_residual(K3, dec) <= 1e-10


def test_hodge_hollow_triangle(hollow_triangle):
    dec = hodge_decompose(hollow_triangle, 1)
    assert dec.betti == 1
    assert sum(dec.dims()) == 3


def test_hodge_four_cycle(four_cycle):
    assert hodge_decompose(four_cycle, 1).betti == 1
    assert hodge_decompose(four_cycle, 0).betti == 1


def test_hodge_connected_degree_zero(K4):
    dec = hodge_decompose(K4, 0)
    assert dec.betti == 1  # constants


def test_hodge_dimensions_sum(K4):
    for ell in range(K4.max_degree + 1):
        dec = hodge_decompose(K4, ell)
        assert sum(dec.dims()) == K4.size(ell)


def test_hodge_matches_boundary_rank_oracle(K4, four_cycle, hollow_triangle):
    for cx in (K4, four_cycle, hollow_triangle, gen_truncated_tree(1, 3)):
        expected = betti_by_rank(cx.simplices)
        got = [hodge_decompose(cx, ell).betti for ell in range(cx.max_degree + 1)]
        assert got == expected


def test_hodge_weighted_orthogonality():
    cx = gen_lattice(2, 2, 3)
    from hodgelab.generators import radial_weighting

    rw = radial_weighting(cx, {(0, 0)}, 2.0)
    for ell in range(3):
        dec = hodge_decompose(rw, ell)
        assert hodge_orthogonality_residual(rw, dec) <= 1e-10
        assert sum(dec.dims()) == rw.size(ell)


def test_euler_characteristic_consistency(K4, four_cycle, hollow_triangle):
    for cx in (K4, four_cycle, hollow_triangle, gen_truncated_tree(2, 4)):
        euler_counts = sum((-1) ** i * cx.size(i) for i in range(cx.max_degree + 1))
        euler_betti = sum(
            (-1) ** i * hodge_decompose(cx, i).betti for i in range(cx.max_degree + 1)
        )
        assert euler_counts == euler_betti


def test_kernel_probe_matches_explicit_shifted_svd(K4, four_cycle):
    # the probe uses sigma_min(L + i I) = sqrt(lambda_min^2 + 1); compare with
    # the singular values of the explicitly formed complex-shifted block
    from hodgelab.generators import radial_weighting
    from hodgelab.operators import symmetrized_laplacian

    weighted = radial_weighting(gen_truncated_tree(2, 4), {()}, 2.0)
    for cx in (K4, four_cycle, weighted):
        for d in range(cx.max_degree + 1):
            if cx.size(d) == 0:
                continue
            A = symmetrized_laplacian(cx, d).toarray().astype(complex)
            direct = np.linalg.svd(A + 1j * np.eye(A.shape[0]), compute_uv=False).min()
            assert abs(kernel_probe(cx, d, 1j) - direct) <= 1e-10


def test_kernel_probe_lower_bound(K3, K4, four_cycle):
    for cx in (K3, K4, four_cycle):
        for d in range(cx.max_degree + 1):
            if cx.size(d) == 0:
                continue
            for shift in (1j, -1j):
                assert kernel_probe(cx, d, shift) >= 1.0 - 1e-10


def test_kernel_probe_zero_block():
    # two isolated-ish vertices at degree 0 with no edges: L_0 = 0
    cx = build_clique_complex(*unit_graph("ab", [("a", "b")]), 1)
    hollow = drop_simplices(cx, 1, lambda s: False)
    assert kernel_probe(hollow, 0, 1j) == 1.0
    with pytest.raises(ValueError):
        kernel_probe(cx, 0, 2j)


def test_kernel_probe_assembles_nothing_where_a_zero_is_counted(monkeypatch, four_cycle):
    """beta_0 = beta_1 = 1 on the four-cycle, and it has no triangles."""
    assert four_cycle.topology.betti[:2] == (1, 1) and four_cycle.size(2) == 0
    monkeypatch.setattr(spectral, "symmetrized_laplacian", lambda cx, degree: pytest.fail("a block was assembled"))
    assert [kernel_probe(four_cycle, d, shift) for d in range(3) for shift in (1j, -1j)] == [1.0] * 6


def test_a_block_too_small_for_arpack_is_solved_densely(monkeypatch):
    """Above the cutover, a block of at most skip + count + 1 rows is solved
    by dense eigh, since ARPACK needs fewer values than rows; one row more
    takes shift-invert eigsh."""
    cx = gen_lattice(2, 2, 2)  # 25 vertices, beta_0 = 1
    ref = np.linalg.eigvalsh(symmetrized_laplacian(cx, 0).toarray())
    monkeypatch.setattr(spectral, "DENSE_CUTOVER", 0)
    for how_many, method in ((25, "dense"), (24, "dense"), (23, "iterative")):
        rep = spectrum(cx, 0, how_many=how_many)
        got = np.repeat(rep.eigenvalues, rep.multiplicities)
        assert rep.method == method and rep.converged
        np.testing.assert_allclose(got[1:], ref[1:how_many], rtol=1e-10)


def test_boundary_weight_down_scales_last_layer():
    cx = gen_truncated_tree(1, 3)
    down = boundary_weight_down(cx, 1e-3)
    dist = bfs_distances(cx.simplices, [()])
    top = max(dist.values())
    for j, v in enumerate(down.simplices[0]):
        expected = 1e-3 if dist[v[0]] == top else 1.0
        assert np.isclose(down.weights[0][j], expected)


def test_esa_sweep_arity_and_refusals():
    table = esa_sweep("n^2", range(4, 11), how_many=2, guard=5000)
    assert len(table["rows"]) == 7
    refused = [r for r in table["rows"] if r.get("refused")]
    built = [r for r in table["rows"] if not r.get("refused")]
    assert built and refused  # feasible small depths, guarded large ones
    for row in built:
        for d, vals in row["smallest_eigenvalues"].items():
            assert all(v >= -1e-10 for v in vals)
        for d, s in row["sigma_min_plus"].items():
            assert s >= 1.0 - 1e-10


def test_esa_sweep_partial_sum_column():
    from hodgelab.divergence import divergence_partial_sums

    table = esa_sweep("n^4", range(4, 11), how_many=2)
    assert len(table["rows"]) == 7
    last = table["rows"][-1]
    assert last["depth"] == 10
    assert abs(last["partial_sum"] - 1.5498) < 1e-4  # recorded even when refused
    expect = divergence_partial_sums(lambda n: n ** 4, range(1, 11)).partial_sums[-1]
    assert last["partial_sum"] == expect


def test_esa_sweep_deterministic():
    a = esa_sweep("n^2", [4, 5], how_many=2, seed=0)
    b = esa_sweep("n^2", [4, 5], how_many=2, seed=0)
    assert a == b


def test_a_values_only_solve_that_does_not_converge_raises(monkeypatch):
    """With one iteration allowed, ARPACK leaves the 1,152-row L_2 block of
    the lattice unsolved: the sweep's values-only solve raises, naming the
    rows and the budget, where it returned 4 of 6 values; ``spectrum``, which
    asks for vectors, reports the shortfall."""
    monkeypatch.setattr(spectral, "ITERATION_BUDGET", 1)
    monkeypatch.setattr(spectral, "DENSE_CUTOVER", 0)
    cx = gen_lattice(2, 2, 12)
    with pytest.raises(ValueError, match="a 1152-row block did not converge within 1 iterations"):
        _hodge_spectra(cx, 6, 0)
    rep = spectrum(cx, 1, 6)
    assert not rep.converged and rep.message == "no convergence within 1 iterations"
    assert rep.method == "iterative" and sum(rep.multiplicities) == len(rep.residuals) == 3
