import io

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from hodgelab import (
    Cochain,
    adjointness_check,
    assemble_block,
    coboundary_apply,
    codifferential_apply,
    gauss_bonnet_apply,
    inner_product,
)
from hodgelab import operators
from hodgelab.complexes import reweighted
from hodgelab.generators import gen_alternating_triangulation, gen_lattice
from hodgelab.operators import (
    coboundary_matrix,
    codifferential_matrix,
    export_coordinate_text,
    gauss_bonnet_matrix,
    laplacian_matrix,
    random_cochain,
    symmetrized_laplacian,
    block_offsets,
)

from oracles import boundary_matrix, coboundary_value, graph_laplacian


def _skewed(cx):
    """The same tables with distinct non-unit weights on every simplex."""
    return reweighted(cx, [[1.0 + 0.5 * i + 0.25 * sum(ord(v) - 96 for v in s) for s in table]
                           for i, table in enumerate(cx.simplices)])


def _complex_cochain(cx, degree, rng):
    n = cx.size(degree)
    return Cochain(degree, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _dense_delta(cx, degree):
    """M_{degree-1}^{-1} B M_degree from the oracle's boundary matrix B."""
    B = boundary_matrix(cx.simplices[degree - 1], cx.simplices[degree])
    return (B * cx.weights[degree][None, :]) / cx.weights[degree - 1][:, None]


def test_coboundary_single_edge(single_edge):
    f = Cochain.indicator(single_edge, ("b",))
    df = coboundary_apply(single_edge, f)
    assert df.value_on(single_edge, ("a", "b")) == 1.0


def test_coboundary_k3_matches_alternating_sum_oracle(K3):
    g = Cochain.indicator(K3, ("a", "b"))
    dg = coboundary_apply(K3, g)
    f_map = {("a", "b"): 1.0}
    assert dg.value_on(K3, ("a", "b", "c")) == coboundary_value(f_map, ("a", "b", "c")) == 1.0


def test_dd_zero_k4(K4):
    rng = np.random.default_rng(1)
    for i in range(K4.max_degree - 1):
        f = random_cochain(K4, i, rng)
        ddf = coboundary_apply(K4, coboundary_apply(K4, f))
        assert np.max(np.abs(ddf.values)) <= 1e-12


def test_codifferential_single_edge_adjoint_signs(single_edge):
    # adjoint convention: prepended extension vertex
    g = Cochain.indicator(single_edge, ("a", "b"))
    dg = codifferential_apply(single_edge, g)
    assert dg.value_on(single_edge, ("a",)) == -1.0
    assert dg.value_on(single_edge, ("b",)) == 1.0
    f = Cochain.indicator(single_edge, ("b",))
    lhs = inner_product(single_edge, 1, coboundary_apply(single_edge, f).values, g.values)
    rhs = inner_product(single_edge, 0, f.values, dg.values)
    assert lhs == rhs == 1.0


def test_codifferential_k3_triangle(K3):
    g = Cochain.indicator(K3, ("a", "b", "c"))
    dg = codifferential_apply(K3, g)
    assert dg.value_on(K3, ("a", "b")) == 1.0
    assert dg.value_on(K3, ("b", "c")) == 1.0
    assert dg.value_on(K3, ("a", "c")) == -1.0
    # cross-check against the oracle's boundary matrix
    assert np.allclose(boundary_matrix(K3.simplices[1], K3.simplices[2]) @ g.values, dg.values)


def test_codifferential_degree_zero_errors(K3):
    with pytest.raises(ValueError):
        codifferential_apply(K3, Cochain.zeros(K3, 0))


def test_delta_delta_zero(K4):
    rng = np.random.default_rng(2)
    g = random_cochain(K4, 3, rng)
    ddg = codifferential_apply(K4, codifferential_apply(K4, g))
    assert np.max(np.abs(ddg.values)) <= 1e-12


def test_adjointness_small(K3, K4):
    assert adjointness_check(K3, 0, 100, seed=0) <= 1e-12
    assert adjointness_check(K3, 1, 100, seed=0) <= 1e-12
    assert adjointness_check(K4, 1, 100, seed=0) <= 1e-12


def test_adjointness_alternating_patch():
    cx = gen_alternating_triangulation(5)  # 11x11 patch
    assert adjointness_check(cx, 1, 100, seed=0) <= 1e-10


def test_elementwise_matches_matrix(K4):
    cx = _skewed(K4)
    rng = np.random.default_rng(3)
    for i in range(cx.max_degree):
        f = _complex_cochain(cx, i, rng)
        B = boundary_matrix(cx.simplices[i], cx.simplices[i + 1])
        assert np.allclose(B.T @ f.values, coboundary_apply(cx, f).values, atol=1e-12)
    for i in range(1, cx.max_degree + 1):
        g = _complex_cochain(cx, i, rng)
        assert np.allclose(_dense_delta(cx, i) @ g.values,
                           codifferential_apply(cx, g).values, atol=1e-12)


def test_l0_k3_eigenvalues(K3):
    L = laplacian_matrix(K3, 0).toarray()
    vals = np.sort(scipy.linalg.eigvals(L).real)
    assert np.allclose(vals, [0.0, 3.0, 3.0], atol=1e-10)
    oracle = graph_laplacian("abc", {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0})
    assert np.allclose(np.sort(np.linalg.eigvalsh(oracle)), vals, atol=1e-10)


def test_laplacian_psd(K4, four_cycle):
    for cx in (K4, four_cycle):
        for i in range(cx.max_degree + 1):
            if cx.size(i) == 0:
                continue
            A = symmetrized_laplacian(cx, i).toarray()
            assert np.min(np.linalg.eigvalsh(A)) >= -1e-10


def test_gauss_bonnet_block_structure(K4):
    D = gauss_bonnet_matrix(K4)
    offs = block_offsets(K4)
    # D is zero except on the first off-diagonal degree blocks
    for i in range(K4.max_degree + 1):
        for j in range(K4.max_degree + 1):
            blk = D[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
            if abs(i - j) != 1:
                assert blk.nnz == 0


def test_d_squared_is_block_diagonal(K4):
    D = gauss_bonnet_matrix(K4)
    L2 = (D @ D).tocsr()
    offs = block_offsets(K4)
    for i in range(K4.max_degree + 1):
        for j in range(K4.max_degree + 1):
            blk = L2[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
            if i == j:
                Li = laplacian_matrix(K4, i)
                assert abs(blk - Li).max() <= 1e-12
            elif blk.nnz:
                assert abs(blk).max() <= 1e-12


def test_gauss_bonnet_apply_against_matrix(K4):
    cx = _skewed(K4)
    rng = np.random.default_rng(4)
    F = tuple(_complex_cochain(cx, i, rng) for i in range(cx.max_degree + 1))
    out = gauss_bonnet_apply(cx, F)
    offs = block_offsets(cx)
    D = np.zeros((offs[-1], offs[-1]))
    for i in range(cx.max_degree):
        B = boundary_matrix(cx.simplices[i], cx.simplices[i + 1])
        D[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]] = B.T
        D[offs[i]:offs[i + 1], offs[i + 1]:offs[i + 2]] = _dense_delta(cx, i + 1)
    stacked = np.concatenate([f.values for f in F])
    expect = D @ stacked
    got = np.concatenate([c.values for c in out])
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_gauss_bonnet_apply_trivial_cases(single_edge):
    zero = tuple(Cochain.zeros(single_edge, i) for i in range(2))
    out = gauss_bonnet_apply(single_edge, zero)
    assert all(np.all(c.values == 0) for c in out)
    F = (Cochain.indicator(single_edge, ("b",)), Cochain.zeros(single_edge, 1))
    out = gauss_bonnet_apply(single_edge, F)
    assert out[1].value_on(single_edge, ("a", "b")) == 1.0
    with pytest.raises(ValueError):
        gauss_bonnet_apply(single_edge, (Cochain.zeros(single_edge, 0),))


def test_representative_norm_equals_oriented_average(K3):
    # sum over canonical representatives == (1/(i+1)!) sum over all orderings
    rng = np.random.default_rng(5)
    g = random_cochain(K3, 1, rng)
    import itertools
    import math

    total = 0.0
    for s, w in zip(K3.simplices[1], K3.weights[1]):
        for perm in itertools.permutations(s):
            total += w * abs(g.value_on(K3, perm)) ** 2
    total /= math.factorial(2)
    assert np.isclose(total, inner_product(K3, 1, g.values, g.values))


def test_assemble_block_kinds(K3):
    assert assemble_block(K3, "coboundary", 0).shape == (3, 3)
    assert assemble_block(K3, "codifferential", 2).shape == (3, 1)
    assert assemble_block(K3, "laplacian_block", 1).shape == (3, 3)
    assert assemble_block(K3, "gauss_bonnet").shape == (7, 7)
    with pytest.raises(ValueError):
        assemble_block(K3, "nonsense", 0)


def test_export_coordinate_text(tmp_path, K3):
    path = tmp_path / "d0.txt"
    export_coordinate_text(coboundary_matrix(K3, 0), path)
    lines = path.read_text().strip().splitlines()
    rows, cols, nnz = map(int, lines[0].split())
    assert (rows, cols) == (3, 3)
    assert nnz == len(lines) - 1
    r, c, v = lines[1].split()
    assert int(r) >= 1 and int(c) >= 1


def _per_line_coordinate_text(matrix):
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols, vals = (coo.row[order] + 1).tolist(), (coo.col[order] + 1).tolist(), coo.data[order].tolist()
    return f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n" + "".join(
        f"{r} {c} {v:.17g}\n" for r, c, v in zip(rows, cols, vals))


@pytest.mark.parametrize("chunk", [operators.EXPORT_CHUNK, 2])
def test_coordinate_text_is_the_per_line_format(tmp_path, monkeypatch, chunk):
    """Negative, subnormal, integer-valued, 17-digit and non-finite values, a
    stored -0.0, and empty blocks, with one chunk or many."""
    monkeypatch.setattr(operators, "EXPORT_CHUNK", chunk)
    values = [-1.5, 5e-324, 2.5e-310, 3.0, -(2.0 ** 53), 0.1 + 0.2, 1 / 3, 123456789.12345678,
              1e300, -0.0, float("inf"), float("nan")]
    rows = [k % 5 for k in range(len(values))]
    cols = [(3 * k) % 7 for k in range(len(values))]
    blocks = [sp.csr_matrix(sp.coo_matrix((values, (rows, cols)), shape=(5, 7))),
              sp.csr_matrix((0, 0)), sp.csr_matrix((3, 4))]
    for block in blocks:
        buf = io.StringIO()
        export_coordinate_text(block, buf)
        assert buf.getvalue() == _per_line_coordinate_text(block)
        export_coordinate_text(block, tmp_path / "block.txt")
        assert (tmp_path / "block.txt").read_text() == buf.getvalue()


def test_coordinate_text_formats_only_the_numbers_that_occur(monkeypatch):
    """Three entries in a block of a million rows and columns: the text is the
    per-line format's, and only the row and column numbers that occur are
    made into strings."""
    made = []
    monkeypatch.setattr(operators, "str", lambda x: made.append(x) or str(x), raising=False)
    block = sp.csr_matrix(sp.coo_matrix(([2.0, 2.0, 2.0], ([0, 999_999, 999_999], [7, 2, 999_998])),
                                        shape=(10 ** 6, 10 ** 6)))
    buf = io.StringIO()
    export_coordinate_text(block, buf)
    assert buf.getvalue() == _per_line_coordinate_text(block)
    assert sorted(made) == [1, 3, 8, 999_999, 1_000_000]


@pytest.mark.parametrize("chunk", [operators.EXPORT_CHUNK, 3])
def test_coordinate_text_keeps_both_zeros_and_every_nan_of_one_block(monkeypatch, chunk):
    """+0.0 and -0.0, NaNs of three bit patterns, +-inf and repeated values,
    stored in one block, export as the per-line "%d %d %.17g\\n" formula
    writes them.  A unique over float keys merges the two zeros (0.0 ==
    -0.0), so one of them is written with the other's sign."""
    monkeypatch.setattr(operators, "EXPORT_CHUNK", chunk)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    values = [0.0, -0.0, *nans, float("inf"), -float("inf"), 1.5, -0.0, 0.0, 1 / 3, 1.5, nans[1], -float("inf"),
              0.0, -0.0, 1 / 3, float("inf")]
    block = sp.csr_matrix(sp.coo_matrix((values, ([k // 4 for k in range(len(values))],
                                                  [(3 * k) % 4 for k in range(len(values))])), shape=(5, 4)))
    assert block.nnz == len(values)
    coo = block.tocoo()
    order = np.lexsort((coo.col, coo.row))
    want = f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n" + "".join(
        "%d %d %.17g\n" % (r, c, v)
        for r, c, v in zip((coo.row[order] + 1).tolist(), (coo.col[order] + 1).tolist(), coo.data[order].tolist()))
    buf = io.StringIO()
    export_coordinate_text(block, buf)
    assert buf.getvalue() == want
    written = [line.split()[2] for line in want.splitlines()[1:]]
    assert written.count("0") == 3 and written.count("-0") == 3 and written.count("nan") == 4


def test_lattice_operators_exact_identities():
    cx = gen_lattice(2, 2, 4)
    d0 = coboundary_matrix(cx, 0)
    d1 = coboundary_matrix(cx, 1)
    assert abs(d1 @ d0).max() == 0.0
    delta1 = codifferential_matrix(cx, 1)
    delta2 = codifferential_matrix(cx, 2)
    assert abs(delta1 @ delta2).max() <= 1e-12
