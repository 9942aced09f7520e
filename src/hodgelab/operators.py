"""Coboundary, codifferential, Gauss-Bonnet and Hodge Laplacian operators.

All operators act on cochains stored against the canonical simplex tables of a
WeightedComplex.  The codifferential is the formal adjoint of the coboundary
with respect to the weighted inner products <f,g>_i = sum_s m_i(s) f(s) g*(s),
which makes every Laplacian block positive semidefinite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .complexes import WeightedComplex, canonical_sign

__all__ = [
    "Cochain",
    "inner_product",
    "norm",
    "coboundary_apply",
    "codifferential_apply",
    "gauss_bonnet_apply",
    "coboundary_matrix",
    "codifferential_matrix",
    "laplacian_matrix",
    "gauss_bonnet_matrix",
    "symmetrized_laplacian",
    "assemble_block",
    "adjointness_check",
    "random_cochain",
    "export_coordinate_text",
]


@dataclass
class Cochain:
    """Degree-i cochain: one value per canonical i-simplex.

    Values on non-canonical orientations follow from the permutation sign,
    see :meth:`value_on`.
    """

    degree: int
    values: np.ndarray

    @classmethod
    def zeros(cls, cx: WeightedComplex, degree: int, dtype=float) -> "Cochain":
        return cls(degree, np.zeros(cx.size(degree), dtype=dtype))

    @classmethod
    def indicator(cls, cx: WeightedComplex, vertices) -> "Cochain":
        key, sign = canonical_sign(vertices)
        degree = len(key) - 1
        c = cls.zeros(cx, degree)
        c.values[cx.index_of(degree, key)] = sign
        return c

    def value_on(self, cx: WeightedComplex, vertices) -> complex:
        key, sign = canonical_sign(vertices)
        return sign * self.values[cx.index_of(self.degree, key)]


def inner_product(cx: WeightedComplex, degree: int, f: np.ndarray, g: np.ndarray) -> complex:
    """Weighted inner product over canonical representatives.

    Equals the orientation-pair sum with its 1/(i+1)! normalization, since
    |f|^2 is invariant under vertex permutations of a simplex.
    """
    val = np.sum(cx.weights[degree] * f * np.conj(g))
    return complex(val) if np.iscomplexobj(f) or np.iscomplexobj(g) else float(val)


def norm(cx: WeightedComplex, degree: int, f: np.ndarray) -> float:
    return float(np.sqrt(abs(inner_product(cx, degree, f, f))))


def _check_degree(cx: WeightedComplex, f: Cochain, degree: int) -> None:
    if f.degree != degree:
        raise ValueError(f"cochain degree {f.degree}, expected {degree}")
    if len(f.values) != cx.size(degree):
        raise ValueError(
            f"cochain length {len(f.values)} does not match table size {cx.size(degree)}"
        )


def coboundary_apply(cx: WeightedComplex, f: Cochain) -> Cochain:
    """(df)(x_0..x_{i+1}) = sum_l (-1)^l f(x_0..x̂_l..x_{i+1})."""
    i = f.degree
    _check_degree(cx, f, i)
    if i >= cx.max_degree:
        raise ValueError(f"no degree {i + 1} in a max-degree-{cx.max_degree} complex")
    return Cochain(i + 1, coboundary_matrix(cx, i) @ f.values)


def codifferential_apply(cx: WeightedComplex, g: Cochain) -> Cochain:
    """Adjoint of the coboundary under the weighted inner products.

    (δg)(s) = (1/m(s)) * sum over coface extensions s ∪ {x} of
    m(s ∪ {x}) * g(x, s_0, .., s_{i-1}); prepending x and resolving the
    orientation sign realizes the adjoint exactly.
    """
    j = g.degree
    _check_degree(cx, g, j)
    if j < 1:
        raise ValueError("codifferential undefined at degree 0")
    d = coboundary_matrix(cx, j - 1)
    return Cochain(j - 1, (d.T @ (cx.weights[j] * g.values)) / cx.weights[j - 1])


def gauss_bonnet_apply(cx: WeightedComplex, F: tuple) -> tuple:
    """Apply D = d + δ to a tuple of cochains of degrees 0..n."""
    n = cx.max_degree
    if len(F) != n + 1:
        raise ValueError(f"expected {n + 1} components, got {len(F)}")
    for i, f in enumerate(F):
        _check_degree(cx, f, i)
    out = []
    for i in range(n + 1):
        acc = np.zeros(cx.size(i), dtype=complex if any(np.iscomplexobj(f.values) for f in F) else float)
        if i > 0:
            acc = acc + coboundary_apply(cx, F[i - 1]).values
        if i < n:
            acc = acc + codifferential_apply(cx, F[i + 1]).values
        out.append(Cochain(i, acc))
    return tuple(out)


def coboundary_matrix(cx: WeightedComplex, degree: int) -> sp.csr_matrix:
    """d_degree as a |P_{degree+1}| x |P_degree| signed incidence matrix.

    The matrix is built once per topology and shared by every reweighting of
    ``cx``; its ``data``, ``indices`` and ``indptr`` are read-only.
    """
    if not 0 <= degree < cx.max_degree:
        raise ValueError(f"coboundary degree {degree} out of range")
    return cx.topology.incidence(degree)


def _scaled(a: sp.csr_matrix, row: np.ndarray, col: np.ndarray) -> sp.csr_matrix:
    """diag(row) a diag(col) on the sparsity pattern of the CSR matrix ``a``,
    each entry a * row * col, the rounding of the two diagonal products."""
    return sp.csr_matrix((a.data * np.repeat(row, np.diff(a.indptr)) * col[a.indices], a.indices, a.indptr),
                         shape=a.shape)


def codifferential_matrix(cx: WeightedComplex, degree: int) -> sp.csr_matrix:
    """δ_degree = M_{degree-1}^{-1} d^T M_degree, acting degree -> degree-1."""
    if not 1 <= degree <= cx.max_degree:
        raise ValueError(f"codifferential degree {degree} out of range")
    return _scaled(coboundary_matrix(cx, degree - 1).T.tocsr(), 1.0 / cx.weights[degree - 1], cx.weights[degree])


def laplacian_matrix(cx: WeightedComplex, degree: int) -> sp.csr_matrix:
    """L_degree = δ d + d δ with the boundary conventions d_{-1}=0, δ_{n+1}=0."""
    n = cx.max_degree
    if not 0 <= degree <= n:
        raise ValueError(f"laplacian degree {degree} out of range")
    size = cx.size(degree)
    L = sp.csr_matrix((size, size))
    if degree < n:
        L = L + codifferential_matrix(cx, degree + 1) @ coboundary_matrix(cx, degree)
    if degree > 0:
        L = L + coboundary_matrix(cx, degree - 1) @ codifferential_matrix(cx, degree)
    return L.tocsr()


def block_offsets(cx: WeightedComplex) -> list[int]:
    offs = [0]
    for i in range(cx.max_degree + 1):
        offs.append(offs[-1] + cx.size(i))
    return offs


def gauss_bonnet_matrix(cx: WeightedComplex) -> sp.csr_matrix:
    """D = d + δ on the direct sum of all cochain degrees."""
    n = cx.max_degree
    blocks = [[None] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        blocks[i + 1][i] = coboundary_matrix(cx, i)
        blocks[i][i + 1] = codifferential_matrix(cx, i + 1)
    for i in range(n + 1):
        if blocks[i][i] is None:
            blocks[i][i] = sp.csr_matrix((cx.size(i), cx.size(i)))
    return sp.bmat(blocks, format="csr")


def symmetrized_laplacian(cx: WeightedComplex, degree: int) -> sp.csr_matrix:
    """Similarity transform M^{1/2} L M^{-1/2}: symmetric PSD, same spectrum.

    Equals W_i^T W_i + W_{i-1} W_{i-1}^T with W_i = M_{i+1}^{1/2} d_i M_i^{-1/2}.
    """
    n = cx.max_degree
    size = cx.size(degree)
    A = sp.csr_matrix((size, size))
    if degree < n:
        W = _scaled_coboundary(cx, degree)
        A = A + W.T @ W
    if degree > 0:
        W = _scaled_coboundary(cx, degree - 1)
        A = A + W @ W.T
    return A.tocsr()


def _scaled_coboundary(cx: WeightedComplex, degree: int) -> sp.csr_matrix:
    """W = M_{degree+1}^{1/2} d M_degree^{-1/2}."""
    return _scaled(coboundary_matrix(cx, degree), np.sqrt(cx.weights[degree + 1]), 1.0 / np.sqrt(cx.weights[degree]))


def assemble_block(cx: WeightedComplex, kind: str, degree: int | None = None) -> sp.csr_matrix:
    """Assemble one named operator block; ``gauss_bonnet`` takes no degree."""
    if kind == "coboundary":
        return coboundary_matrix(cx, degree)
    if kind == "codifferential":
        return codifferential_matrix(cx, degree)
    if kind == "laplacian_block":
        return laplacian_matrix(cx, degree)
    if kind == "gauss_bonnet":
        return gauss_bonnet_matrix(cx)
    raise ValueError(f"unknown operator kind {kind!r}")


def random_cochain(cx: WeightedComplex, degree: int, rng: np.random.Generator) -> Cochain:
    """Random cochain drawn from ``rng``, scaled to unit weighted norm."""
    v = rng.standard_normal(cx.size(degree))
    nv = norm(cx, degree, v)
    return Cochain(degree, v / nv if nv > 0 else v)


def adjointness_check(cx: WeightedComplex, degree: int, trials: int = 100, seed: int = 0) -> float:
    """Max |<df,g> - <f,δg>| over seeded random unit cochain pairs."""
    if degree >= cx.max_degree:
        raise ValueError("need degree < max_degree")
    rng = np.random.default_rng(seed)
    d = coboundary_matrix(cx, degree)
    delta = codifferential_matrix(cx, degree + 1)
    worst = 0.0
    for _ in range(trials):
        f = random_cochain(cx, degree, rng)
        g = random_cochain(cx, degree + 1, rng)
        lhs = inner_product(cx, degree + 1, d @ f.values, g.values)
        rhs = inner_product(cx, degree, f.values, delta @ g.values)
        worst = max(worst, abs(lhs - rhs))
    return worst


#: triplets per formatted chunk of ``export_coordinate_text``
EXPORT_CHUNK = 1 << 14


def export_coordinate_text(matrix: sp.spmatrix, target) -> None:
    """Write 1-based (row, col, value) triplets with a shape header, each line
    as ``"%d %d %.17g\\n"`` writes it.

    ``target`` is a path or an open text stream.  Each distinct stored value
    (by bit pattern, so 0.0 and -0.0 stay apart) and each row and column
    number that occurs is formatted once.
    """
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    values = coo.data[order].astype(np.float64, casting="same_kind")  # complex values are refused, as by %.17g
    bits, value = np.unique(values.view(np.uint64), return_inverse=True)
    row, col, numbers = coo.row[order] + 1, coo.col[order] + 1, np.empty(max(coo.shape) + 1, dtype=object)
    used = np.flatnonzero(np.bincount(np.concatenate((row, col))))
    numbers[used] = list(map(str, used.tolist()))
    fields = (numbers[row], numbers[col],
              np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)[value])

    def emit(fh):
        fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for a in range(0, len(order), EXPORT_CHUNK):
            lines = zip(*(x[a:a + EXPORT_CHUNK].tolist() for x in fields))
            fh.write("\n".join(itertools.chain(map(" ".join, lines), [""])))

    if hasattr(target, "write"):
        emit(target)
    else:
        with open(target, "w") as fh:
            emit(fh)
