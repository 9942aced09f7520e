"""Finite-truncation spectral diagnostics.

Eigen/singular diagnostics run on the symmetrized blocks
A = M^{1/2} L M^{-1/2}, which share the spectrum of L and are plain symmetric
PSD matrices.  ``spectrum`` and ``kernel_probe`` solve one block.  The sweep
solves once per scaled coboundary W_i = M_{i+1}^{1/2} d_i M_i^{-1/2}
instead: spec L_i = {0}^{beta_i} u sigma^2_+(W_{i-1}) u sigma^2_+(W_i)
(Horak & Jost, Adv. Math. 2013), so each W_i serves two rows, the zeros are
counted by the Betti numbers of the topology, and the L_1 block is never
built.  A values-only solve takes a direct sum one component at a time (L_2
and L_3 of the offspring trees split into blocks of a few rows).  At any
finite truncation sigma_min(L +- i) >= 1 analytically, so the sweep reports,
alongside that sanity bound, a clearly labeled boundary-weight-down variant
(last-layer weights scaled toward zero) as the closest finite proxy for the
behaviour the unbounded families are expected to show.  Nothing here decides
self-adjointness; the outputs are diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .complexes import WeightedComplex, reweighted
from .divergence import divergence_partial_sums
from .generators import estimate_offspring_tree_size, offspring_tree_family, parse_offspring
from .operators import _scaled_coboundary, symmetrized_laplacian

__all__ = [
    "SpectrumReport",
    "HodgeDecomposition",
    "spectrum",
    "hodge_decompose",
    "hodge_orthogonality_residual",
    "kernel_probe",
    "boundary_weight_down",
    "esa_sweep",
    "DENSE_CUTOVER",
]

# the largest block solved densely: measured per block size on 2 cores, dense
# eigh won below 190 rows and shift-invert eigsh from 231 rows (how_many=1)
# or 341 rows (how_many=4); in between the two ran close
DENSE_CUTOVER = 200
ITERATION_BUDGET = 10_000
STACK_ENTRIES = 1 << 20  # the most matrix entries in one batched eigvalsh stack
SHIFT = -1e-3  # shift-invert below the spectrum, so that A - SHIFT is definite
KERNEL_THRESH = 1e-8
BOUNDARY_FACTOR = 1e-3  # the weight scale of the boundary-down variant


@dataclass
class SpectrumReport:
    degree: int
    eigenvalues: list
    multiplicities: list
    method: str
    residuals: list
    converged: bool = True
    message: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _check_degree(cx: WeightedComplex, degree: int) -> None:
    if not 0 <= degree <= cx.max_degree:
        raise ValueError(f"degree {degree} out of range 0..{cx.max_degree}")


def _group_multiplicities(vals, tol=1e-8):
    eigenvalues, mult = [], []
    for v in vals:
        if eigenvalues and abs(v - eigenvalues[-1]) <= tol * max(1.0, abs(eigenvalues[-1])):
            mult[-1] += 1
        else:
            eigenvalues.append(float(v))
            mult.append(1)
    return eigenvalues, mult


def spectrum(cx: WeightedComplex, degree: int, how_many: int = 6, seed: int = 0) -> SpectrumReport:
    """Smallest eigenvalues of the degree block and their residuals; the first
    min(beta_i, how_many), beta_i from ``Topology.betti``, are 0.0.  At
    degree 0 ker L_0 (sqrt(m0) on each component) is projected out, and with
    nothing left to solve the method is "kernel"; at degree i >= 1 the solve
    finds the zero pairs too, and their residuals are taken against 0.0."""
    _check_degree(cx, degree)
    _check_how_many(how_many)
    dim = cx.size(degree)
    if dim == 0:
        return SpectrumReport(degree, [], [], "empty", [])
    how_many = min(how_many, dim)
    zeros = min(cx.topology.betti[degree], how_many)
    kernel = None if degree else _kernel_basis(cx)
    skip = 0 if degree else zeros  # with no kernel basis the solve finds the zero pairs too
    A = symmetrized_laplacian(cx, degree)
    if skip == how_many:
        method, vals, vecs, converged, message = "kernel", np.zeros(0), np.zeros((dim, 0)), True, ""
    else:
        vals, vecs, method, converged, message = _solve_block(A, skip, how_many - skip, seed, True, kernel)
    vals = np.r_[np.zeros(skip), vals]
    vals[:zeros] = 0.0
    if kernel is not None:
        vecs = np.column_stack([kernel[:, :zeros].toarray(), vecs])
    residuals = [float(np.linalg.norm(A @ v - lam * v)) for lam, v in zip(vals, vecs.T)]
    eigenvalues, mult = _group_multiplicities(vals)
    return SpectrumReport(degree, eigenvalues, mult, method, residuals, converged, message)


def _check_how_many(how_many: int) -> None:
    if how_many < 1:
        raise ValueError(f"how_many = {how_many} must be at least 1")


def _solve(A, skip: int, count: int, seed: int, kernel=None):
    """Eigenvalues skip .. skip+count-1 of the symmetric PSD matrix ``A``,
    ascending, as (values, None, method, converged, message).  Above the
    cutover, a direct sum with no kernel basis is solved one component at a
    time, any other block by ``_solve_twins``."""
    if A.shape[0] > DENSE_CUTOVER:
        ncomp, labels = connected_components(A, directed=False) if kernel is None else (1, None)
        if ncomp > 1:
            return _solve_components(A, labels, skip, count, seed)
        return _solve_twins(A, skip, count, seed, kernel)
    return _solve_block(A, skip, count, seed, False, kernel)


def _solve_components(A, labels: np.ndarray, skip: int, count: int, seed: int):
    """``_solve`` on a direct sum: the lowest skip + count eigenvalues of every
    component ``labels`` of ``A``, merged with every copy counted, hold the
    lowest of ``A``.  Components of equal size up to the cutover are solved
    together by batched ``eigvalsh`` on stacks of at most STACK_ENTRIES
    entries; a larger one takes ``_solve_twins`` on its rows.  The method
    reads "components"."""
    want, sizes = skip + count, np.bincount(labels)
    rows = np.lexsort((labels, sizes[labels]))  # component by component, smallest first
    B = A.tocsr()[rows][:, rows]  # block diagonal
    sizes = np.sort(sizes)
    vals = []
    lo = start = 0
    while lo < len(sizes):
        size = int(sizes[lo])
        if size > DENSE_CUTOVER:
            hi = lo + 1
            vals.append(_solve_twins(B[start:start + size, start:start + size], 0, min(want, size), seed)[0])
        else:
            hi = min(int(np.searchsorted(sizes, size, side="right")), lo + max(1, STACK_ENTRIES // size ** 2))
            end = start + (hi - lo) * size
            block = B[start:end, start:end].tocoo()
            stack = np.zeros((hi - lo, size, size))
            stack[block.row // size, block.row % size, block.col % size] = block.data
            vals.append(np.linalg.eigvalsh(stack).ravel())
        start += (hi - lo) * size
        lo = hi
    return np.sort(np.concatenate(vals))[skip:want], None, "components", True, ""


def _solve_twins(A, skip: int, count: int, seed: int, kernel=None):
    """``_solve`` without vectors, by an equitable decomposition (Barrett,
    Francis & Webb, Linear Algebra Appl. 2017): a class of t twins gives t - 1
    copies of A_pp - A_ps and one row, its sum over sqrt(t), to B = Q^T A Q,
    until B has no twins.  B, with Q^T ``kernel``, takes ``_solve_block``; the
    method is its route, or "twins" when B holds nothing but the kernel."""
    twins = []
    while (pairs := _twin_pairs(A, kernel))[0].size:
        P, S, a = pairs
        d, n = A.diagonal(), A.shape[0]
        twins.append(d[P] - a)
        reps = np.flatnonzero(np.bincount(S, minlength=n) == 0)
        t = np.bincount(P, minlength=n)[reps] + 1.0
        C = A.tocsr()[reps][:, reps].tocoo()
        C.data = np.where(C.row == C.col, 0.0, C.data * np.sqrt(t[C.row] * t[C.col]))  # symmetric to the bit
        A = (C + sp.diags(d[reps] + np.bincount(P, weights=a, minlength=n)[reps])).tocsr()
        kernel = None if kernel is None else sp.csr_matrix(kernel[reps].multiply(np.sqrt(t)[:, None]))
    low = skip if kernel is not None else 0  # with no kernel basis, twin values may lie below skip
    want = min(skip + count, A.shape[0]) - low
    vals, _, method, converged, message = (_solve_block(A, low, want, seed, False, kernel) if want
                                           else (np.zeros(0), None, "twins", True, ""))
    return np.sort(np.concatenate([vals, *twins]))[skip - low:skip - low + count], None, method, converged, message


def _twin_pairs(A, kernel=None):
    """Twin rows of the symmetric ``A`` as (P, S, A_PS), S paired with the first
    row P of its class: rows p != s with A_pp == A_ss and with equal entries,
    and rows of ``kernel``, outside columns {p, s}.  Hashes of each row's
    off-diagonal entries (twins not adjacent) and of its column set and value
    multiset (adjacent twins) propose the pairs; equal stored floats decide."""
    n, M, d = A.shape[0], (A if kernel is None else sp.hstack([A, kernel])).tocsr(), A.diagonal()

    def mix(x):  # the splitmix64 finaliser of each unsigned 64-bit entry
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    def proposed(h):  # each row with the first row whose sum of h over its entries is equal
        c = np.concatenate([np.zeros(1, np.uint64), np.cumsum(h, dtype=np.uint64)])
        _, first, group = np.unique(c[M.indptr[1:]] - c[M.indptr[:-1]], return_index=True, return_inverse=True)
        S = np.flatnonzero(first[group] != np.arange(n))
        return first[group][S], S

    col, val = mix(np.arange(1, M.shape[1] + 1, dtype=np.uint64))[M.indices], mix(M.data.view(np.uint64))
    off = M.indices != np.repeat(np.arange(n), np.diff(M.indptr))
    for h in (np.where(off, mix(col ^ val), 0), col + val):
        P, S = proposed(h)
        E = (M[P] - M[S]).tocoo()  # zero outside columns {p, s} exactly where the rows are twins
        outside = (E.data != 0) & (E.col != P[E.row]) & (E.col != S[E.row])
        keep = (d[P] == d[S]) & (np.bincount(E.row[outside], minlength=len(P)) == 0)
        P, S = P[keep], S[keep]
        if P.size:  # the pairs of one hash, so that no row is in two classes
            break
    return P, S, np.asarray(A.tocsr()[P, S]).ravel()


def _solve_block(A, skip: int, count: int, seed: int, vectors: bool, kernel=None):
    """Eigenpairs skip .. skip+count-1 of one block, vectors only if
    ``vectors``: dense ``eigh`` up to max(DENSE_CUTOVER, skip + count + 1)
    rows (ARPACK needs k < dim) and shift-invert ``eigsh`` above.

    ``kernel``, an orthonormal basis of the lowest ``skip`` eigenvectors, is
    projected out before and after each LU solve; without it the iterative
    route converges the lowest ``skip`` pairs too and drops them.  A Lanczos
    run may find one copy of a multiple eigenvalue and miss the others, so
    the iterative route then counts the eigenvalues below its largest value
    (``_count_below``); while that count exceeds what it found, it projects
    out the vectors found as well and solves for the missing values."""
    dim = A.shape[0]
    if dim <= max(DENSE_CUTOVER, skip + count + 1):
        out = scipy.linalg.eigh(A.toarray(), eigvals_only=not vectors,
                                subset_by_index=[skip, skip + count - 1])
        vals, vecs = out if vectors else (out, None)
        return vals, vecs, "dense", True, ""
    converged, message = True, ""
    v0 = np.random.default_rng(seed).standard_normal(dim)
    lu = spla.splu((A - SHIFT * sp.identity(dim)).tocsc())
    kernel_t = kernel.T.tocsr() if kernel is not None else None
    drop, want = (0, count) if kernel is not None else (skip, skip + count)
    vals, vecs = np.zeros(0), np.zeros((dim, 0))
    while want:
        found = vecs  # the pairs found so far, projected out with the kernel

        def project(x):
            if kernel is not None:
                x = x - kernel @ (kernel_t @ x)
            return x - found @ (found.T @ x) if found.shape[1] else x

        # A - SHIFT I is symmetric, so the transposed solve, which SuperLU runs
        # faster (about 2x on L_0 of the offspring trees), solves the same system
        opinv = spla.LinearOperator(A.shape, lambda x: project(lu.solve(project(x), trans="T")),
                                    dtype=float)
        try:
            w, V = spla.eigsh(A, k=want, sigma=SHIFT, which="LM", v0=project(v0), OPinv=opinv,
                              maxiter=ITERATION_BUDGET)
        except spla.ArpackNoConvergence as err:
            if not vectors:  # a values-only solve has no report to carry the flag
                raise ValueError(f"a {dim}-row block did not converge within {ITERATION_BUDGET} iterations") from None
            w, V = err.eigenvalues, err.eigenvectors
            converged, message = False, f"no convergence within {ITERATION_BUDGET} iterations"
        entered = len(vals)  # the first index of a value found in this round
        vals, vecs = np.r_[vals, w], np.column_stack([vecs, V])
        order = np.argsort(vals)[:drop + count]
        vals, vecs = vals[order], vecs[:, order]
        # a round that brings no value into the window ends the search
        progress = converged and (order >= entered).any()
        want = min(_missed(A, vals, skip, drop), drop + count) if progress else 0
    return vals[drop:], (vecs[:, drop:] if vectors else None), "iterative", converged, message


def _missed(A, vals: np.ndarray, skip: int, drop: int) -> int:
    """How many eigenvalues of ``A`` below the largest of ``vals`` (to 1e-9
    relative) the ascending ``vals[drop:]`` and ``skip`` lowest ones leave out.
    A single value has no copies below it to miss, and is not counted."""
    tau = vals[-1] * (1.0 - 1e-9) if vals.size > max(drop, 1) else 0.0
    if tau <= KERNEL_THRESH:  # round-off zeros are counted on either side
        return 0
    below = _count_below(A, tau)
    return 0 if below is None else max(0, below - skip - int(np.count_nonzero(vals[drop:] < tau)))


def _count_below(A, tau: float) -> int | None:
    """The number of eigenvalues of the symmetric ``A`` below ``tau``: the
    negative pivots of A - tau I factorised with symmetric pivoting, as
    P (A - tau I) P^T = L D L^T (Sylvester's law of inertia); None when
    SuperLU had to leave the diagonal."""
    lu = spla.splu((A - tau * sp.identity(A.shape[0])).tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _kernel_basis(cx: WeightedComplex) -> sp.csr_matrix:
    """Orthonormal basis of ker L_0, sqrt(m0) on each connected component."""
    labels, s = cx.topology.components, np.sqrt(cx.weights[0])
    norms = np.sqrt(np.bincount(labels, weights=cx.weights[0]))
    return sp.csr_matrix((s / norms[labels], (np.arange(len(s)), labels)))


def _lifted_block(cx: WeightedComplex, i: int, c: float) -> sp.csr_matrix:
    """G_i = W_i W_i^T + c W_{i+1}^T W_{i+1}, one row per (i+1)-simplex, with
    spectrum {0}^{beta_{i+1}} u sigma^2_+(W_i) u c sigma^2_+(W_{i+1}); at
    c = 1 it is the symmetrized L_{i+1}."""
    if c == 1.0:
        return symmetrized_laplacian(cx, i + 1)
    W, U = _scaled_coboundary(cx, i), _scaled_coboundary(cx, i + 1)
    return (W @ W.T + c * (U.T @ U)).tocsr()


def _coboundary_ranks(cx: WeightedComplex) -> list[int]:
    """rank d_{i-1} at index i = 0 .. n+1, by rank d_i = N_i - beta_i - rank d_{i-1}
    from the Betti numbers of the topology, d_{-1} = 0; the last entry, rank d_n, is 0."""
    ranks = [0]
    for i, beta in enumerate(cx.topology.betti):
        ranks.append(cx.size(i) - beta - ranks[-1])
    return ranks


def _hodge_spectra(cx: WeightedComplex, how_many: int, seed: int) -> list[np.ndarray]:
    """The how_many smallest eigenvalues of every L_i of ``cx``, ascending:
    min(beta_i, how_many) zeros written 0.0, then the merge of S_{i-1} and S_i.

    S_i holds the min(how_many, rank W_i) smallest values of sigma^2_+(W_i),
    rank W_i from ``_coboundary_ranks``.  S_0 comes from L_0 with its
    kernel projected out.  The others come top-down from ``_lifted_block``:
    a solve of G_i is accepted when every value lies below c S_{i+1}[0], so
    none is a scaled value of W_{i+1}; otherwise c grows and G_i is solved
    again.  Starting from c = 1, G_i is L_{i+1}, so L_1 is never built."""
    n, betti, ranks = cx.max_degree, cx.topology.betti, _coboundary_ranks(cx)
    S = [np.zeros(0)] * (n + 1)  # S[n] stays empty: there is no W_n
    for i in range(n - 1, 0, -1):
        count, c, above = min(how_many, ranks[i + 1]), 1.0, S[i + 1][:1]
        while count:
            S[i] = _solve(_lifted_block(cx, i, c), betti[i + 1], count, seed)[0]
            if not (above.size and S[i].size) or S[i][-1] < c * above[0]:
                break
            c = 2.0 * S[i][-1] / above[0]
    if ranks[1]:
        S[0] = _solve(symmetrized_laplacian(cx, 0), betti[0], min(how_many, ranks[1]), seed,
                      _kernel_basis(cx))[0]
    rows = []
    for i in range(n + 1):
        zeros = min(betti[i], how_many)
        merged = np.sort(np.concatenate([S[i - 1] if i else np.zeros(0), S[i]]))
        rows.append(np.concatenate([np.zeros(zeros), merged[:how_many - zeros]]))
    return rows


@dataclass
class HodgeDecomposition:
    """Weighted-orthonormal bases of im d, ker L and im delta at one degree."""

    degree: int
    basis_im_d: np.ndarray
    basis_ker: np.ndarray
    basis_im_delta: np.ndarray

    @property
    def betti(self) -> int:
        return self.basis_ker.shape[1]

    def dims(self) -> tuple[int, int, int]:
        return (self.basis_im_d.shape[1], self.betti, self.basis_im_delta.shape[1])


def hodge_decompose(cx: WeightedComplex, ell: int) -> HodgeDecomposition:
    """Orthogonal splitting im d + ker L + im delta at degree ``ell``.

    The thin SVDs of W_{ell-1} and W_ell^T are cut at the ranks of
    ``_coboundary_ranks``, and ker L is the orthogonal complement of both
    column bases, from one complete QR.  Bases are orthonormal in the
    weighted inner product (computed in the M^{1/2} frame and mapped back);
    dimensions sum to the table size.
    """
    _check_degree(cx, ell)
    r_d, r_delta = _coboundary_ranks(cx)[ell:ell + 2]
    n_ell = cx.size(ell)

    def column_basis(i, r, transpose):
        if not r:
            return np.zeros((n_ell, 0))
        W = _scaled_coboundary(cx, i).toarray()
        return np.linalg.svd(W.T if transpose else W, full_matrices=False)[0][:, :r]

    U_d, U_delta = column_basis(ell - 1, r_d, False), column_basis(ell, r_delta, True)
    Q = np.linalg.qr(np.hstack([U_d, U_delta]), mode="complete")[0]
    inv_sqrt = 1.0 / np.sqrt(cx.weights[ell])[:, None]
    return HodgeDecomposition(ell, inv_sqrt * U_d, inv_sqrt * Q[:, r_d + r_delta:], inv_sqrt * U_delta)


def hodge_orthogonality_residual(cx: WeightedComplex, dec: HodgeDecomposition) -> float:
    """Max weighted inner product across distinct subspaces (Gram residual)."""
    m = cx.weights[dec.degree]
    parts = [dec.basis_im_d, dec.basis_ker, dec.basis_im_delta]
    worst = 0.0
    for a in range(3):
        for b in range(a + 1, 3):
            U, V = parts[a], parts[b]
            if U.shape[1] == 0 or V.shape[1] == 0:
                continue
            G = (U * m[:, None]).T @ V
            worst = max(worst, float(np.max(np.abs(G))))
    return worst


def kernel_probe(cx: WeightedComplex, degree: int, shift: complex = 1j,
                 seed: int = 0) -> float:
    """Smallest singular value of L + shift*Id in the weighted frame.

    With L PSD and shift = +-i this is sqrt(lambda_min^2 + 1) >= 1 at every
    finite truncation; deviations below 1 would signal a broken assembly, not
    spectral behaviour at infinity.  Where beta_i >= 1, lambda_min is a counted
    zero, so the probe is exactly 1 and assembles nothing, as on an empty block."""
    if shift not in (1j, -1j):
        raise ValueError("shift must be +i or -i")
    _check_degree(cx, degree)
    if cx.size(degree) == 0 or cx.topology.betti[degree]:
        return 1.0
    return _shifted_sigma_min(_solve(symmetrized_laplacian(cx, degree), 0, 1, seed)[0])


def _shifted_sigma_min(eigenvalues) -> float:
    """sqrt(lambda_min^2 + 1), the smallest singular value of L +- i, from
    ascending ``eigenvalues``; 1 on an empty block."""
    if not len(eigenvalues):
        return 1.0
    lam = float(eigenvalues[0])
    return math.sqrt(lam * lam + 1.0)


def boundary_weight_down(cx: WeightedComplex, factor: float = BOUNDARY_FACTOR) -> WeightedComplex:
    """Scale the weights of simplices touching the outermost layer by ``factor``.

    The outermost layer is the set of vertices at maximal graph distance from
    the lexicographically first vertex; a labeled diagnostic variant, not a
    model of the unbounded complex.
    """
    vertices = cx.topology.vertices
    if not vertices:
        return cx
    dist = cx.topology.distances_from(vertices[:1])
    on_boundary = dist == dist.max()
    weights = [
        cx.weights[i] * np.where(on_boundary[cx.topology.vertex_index(i)].any(axis=1), factor, 1.0)
        for i in range(cx.max_degree + 1)
    ]
    return reweighted(cx, weights, meta={"boundary_weight_factor": factor})


def _sig12(x: float) -> float:
    """Quantize to 12 significant digits.  Iterative eigensolves are only
    reproducible to the last few ulps under threaded BLAS, and residuals are
    1e-8 at best; the 11th and 12th digits move too when the solver route
    changes (1.44e-11 and 1.23e-11 relative on n^3, tet parity 1, depth 5),
    so a report is byte-stable only while its route stays the same."""
    return float(f"{x:.12g}")


def esa_sweep(off_spec, depths, tet_parity: int = 0, how_many: int = 4,
              guard: int = 10 ** 6, seed: int = 0) -> dict:
    """Depth-indexed table of spectral diagnostics for one growth family.

    Each row takes the spectra of its complex and of the boundary-down copy
    from ``_hodge_spectra``: one solve per scaled coboundary W_i, so no L_1
    block is built, and a value shared by two rows is the same float in
    both.  The down copy solves with how_many = 1; its degree-0 solve serves
    the L_1 probe.  Rows whose estimated simplex count exceeds ``guard`` are
    refused with a message but still carry the partial-sum column (pure
    arithmetic).  The partial sums share the divergence_partial_sums code
    path.
    """
    _check_how_many(how_many)
    off_fn = parse_offspring(off_spec)
    rows = []
    for depth in map(int, depths):
        if depth < 0:
            raise ValueError(f"depth {depth} must be nonnegative")
        est = estimate_offspring_tree_size(off_spec, depth, tet_parity)
        psums = divergence_partial_sums(lambda k: max(1, off_fn(k)), range(1, depth + 1))
        row = {
            "depth": depth,
            "estimated_simplices": int(est),
            "partial_sum": psums.partial_sums[-1] if depth else 0.0,  # the empty sum
        }
        if est > guard:
            row["refused"] = True
            row["message"] = f"estimated {est} simplices exceeds guard {guard}"
            rows.append(row)
            continue
        cx = offspring_tree_family(off_spec, depth, tet_parity)
        values = _hodge_spectra(cx, how_many, seed)
        down = _hodge_spectra(boundary_weight_down(cx), 1, seed)
        # L is real PSD, so sigma_min(L + i) = sigma_min(L - i) = sqrt(l_min^2 + 1)
        probes = {str(d): _sig12(_shifted_sigma_min(v)) for d, v in enumerate(values)}
        row.update(
            refused=False,
            counts=list(cx.counts()),
            smallest_eigenvalues={
                str(d): [_sig12(v) for v in _group_multiplicities(vals)[0]]
                for d, vals in enumerate(values)
            },
            sigma_min_plus=probes,
            sigma_min_minus=dict(probes),
            sigma_min_boundary_down={str(d): _sig12(_shifted_sigma_min(v)) for d, v in enumerate(down)},
        )
        rows.append(row)
    return {
        "family": {"off": str(off_spec), "tet_parity": tet_parity},
        "seed": seed,
        "guard": guard,
        "boundary_factor": BOUNDARY_FACTOR,
        "label": "finite-truncation evidence",
        "rows": rows,
    }
