"""Finite-truncation spectral diagnostics.

Eigen/singular diagnostics run on the symmetrized blocks
A = M^{1/2} L M^{-1/2}, which share the spectrum of L and are plain symmetric
PSD matrices.  At any finite truncation sigma_min(L +- i) >= 1 analytically,
so the sweep reports, alongside that sanity bound, a clearly labeled
boundary-weight-down variant (last-layer weights scaled toward zero) as the
closest finite proxy for the behaviour the unbounded families are expected to
show.  Nothing here decides self-adjointness; the outputs are diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
SHIFT = -1e-3  # shift-invert below the spectrum, so that A - SHIFT is definite
KERNEL_THRESH = 1e-8


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


def spectrum(cx: WeightedComplex, degree: int, how_many: int = 6,
             method: str = "auto", seed: int = 0) -> SpectrumReport:
    """Smallest eigenvalues of the degree block, dense below the cutover.  At
    degree 0 the first min(beta_0, how_many) are 0.0, counted by components (ker
    L_0 is sqrt(m0) on each); with nothing left to solve the method is "kernel"."""
    return _spectrum(cx, degree, how_many, method, seed, vectors=True)


def _check_how_many(how_many: int) -> None:
    if how_many < 1:
        raise ValueError(f"how_many = {how_many} must be at least 1")


def _spectrum(cx, degree, how_many, method, seed, vectors) -> SpectrumReport:
    """The solve of spectrum, kernel_probe and esa_sweep; eigenvectors only if ``vectors``."""
    _check_degree(cx, degree)
    _check_how_many(how_many)
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    dim = cx.size(degree)
    if dim == 0:
        return SpectrumReport(degree, [], [], "empty", [])
    how_many = min(how_many, dim)
    zeros = 0 if degree else min(int(cx.topology.components.max()) + 1, how_many)
    if method == "auto":
        method = "dense" if dim <= DENSE_CUTOVER else "iterative"
    if method == "iterative" and dim <= how_many + 1:
        method = "dense"  # ARPACK needs k < dim
    A = symmetrized_laplacian(cx, degree) if vectors or zeros < how_many else None
    converged, message = True, ""
    if zeros == how_many:
        method, out = "kernel", (np.zeros(0), np.zeros((dim, 0)))
    elif method == "dense":
        out = scipy.linalg.eigh(A.toarray(), eigvals_only=not vectors,
                                subset_by_index=[zeros, how_many - 1])
    else:
        v0, opinv = np.random.default_rng(seed).standard_normal(dim), None
        if zeros:  # ker L_0 is projected out before and after each LU solve
            U, lu = _kernel_basis(cx), spla.splu((A - SHIFT * sp.identity(dim)).tocsc())
            project = lambda x: x - U @ (U.T @ x)
            v0 = project(v0)
            opinv = spla.LinearOperator(A.shape, lambda x: project(lu.solve(project(x))), dtype=float)
        try:
            out = spla.eigsh(A.tocsc(), k=how_many - zeros, sigma=SHIFT, which="LM", v0=v0,
                             OPinv=opinv, maxiter=ITERATION_BUDGET, return_eigenvectors=vectors)
        except spla.ArpackNoConvergence as err:
            out = (err.eigenvalues, err.eigenvectors) if vectors else err.eigenvalues
            converged, message = False, f"no convergence within {ITERATION_BUDGET} iterations"
    vals, vecs = out if isinstance(out, tuple) else (out, None)
    order = np.argsort(vals)
    vals, residuals = np.r_[np.zeros(zeros), vals[order]], []
    if vectors:
        kernel = _kernel_basis(cx)[:, :zeros].toarray() if zeros else np.zeros((dim, 0))
        vecs = np.column_stack([kernel, vecs[:, order]])
        residuals = [float(np.linalg.norm(A @ v - lam * v)) for lam, v in zip(vals, vecs.T)]
    eigenvalues, mult = _group_multiplicities(vals)
    return SpectrumReport(degree, eigenvalues, mult, method, residuals, converged, message)


def _kernel_basis(cx: WeightedComplex) -> sp.csr_matrix:
    """Orthonormal basis of ker L_0, sqrt(m0) on each connected component."""
    labels, s = cx.topology.components, np.sqrt(cx.weights[0])
    norms = np.sqrt(np.bincount(labels, weights=cx.weights[0]))
    return sp.csr_matrix((s / norms[labels], (np.arange(len(s)), labels)))


@dataclass
class HodgeDecomposition:
    """Weighted-orthonormal bases of im d, ker L and im delta at one degree."""

    degree: int
    basis_im_d: np.ndarray
    basis_ker: np.ndarray
    basis_im_delta: np.ndarray
    betti: int

    def dims(self) -> tuple[int, int, int]:
        return (self.basis_im_d.shape[1], self.basis_ker.shape[1],
                self.basis_im_delta.shape[1])


def hodge_decompose(cx: WeightedComplex, ell: int, rank_tol: float = 1e-10) -> HodgeDecomposition:
    """Orthogonal splitting im d + ker L + im delta at degree ``ell``.

    Bases are orthonormal in the weighted inner product (computed in the
    M^{1/2} frame and mapped back); dimensions always sum to the table size.
    A singular value counts toward a rank when it exceeds ``rank_tol`` times
    the largest one (at least 1), so ``rank_tol`` must lie in (0, 1).
    """
    _check_degree(cx, ell)
    if not 0 < rank_tol < 1:
        raise ValueError(f"rank tolerance {rank_tol} must lie in (0, 1)")
    n_ell = cx.size(ell)
    inv_sqrt = 1.0 / np.sqrt(cx.weights[ell])

    def back(Q):
        return inv_sqrt[:, None] * Q if Q.size else Q.reshape(n_ell, 0)

    W_prev = _scaled_coboundary(cx, ell - 1).toarray() if ell > 0 else np.zeros((n_ell, 0))
    W_next = _scaled_coboundary(cx, ell).toarray() if ell < cx.max_degree else np.zeros((0, n_ell))

    def col_basis(M):
        if min(M.shape) == 0:
            return np.zeros((M.shape[0], 0)), 0
        U, s, _ = np.linalg.svd(M, full_matrices=False)
        r = int(np.sum(s > rank_tol * max(1.0, s[0])))
        return U[:, :r], r

    U_d, r_d = col_basis(W_prev)
    U_delta, r_delta = col_basis(W_next.T)
    betti = n_ell - r_d - r_delta

    stacked = np.vstack([W_next, W_prev.T]) if n_ell else np.zeros((0, 0))
    if stacked.shape[0] == 0:
        kernel = np.eye(n_ell)
    else:
        _, s, Vh = np.linalg.svd(stacked, full_matrices=True)
        rank = int(np.sum(s > rank_tol * max(1.0, s[0] if len(s) else 0.0)))
        kernel = Vh[rank:].T
    if kernel.shape[1] != betti:
        raise ValueError(f"kernel dimension {kernel.shape[1]} disagrees with rank count "
                         f"{betti} at rank tolerance {rank_tol}")
    return HodgeDecomposition(
        degree=ell,
        basis_im_d=back(U_d),
        basis_ker=back(kernel),
        basis_im_delta=back(U_delta),
        betti=betti,
    )


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
    spectral behaviour at infinity.  At degree 0 lambda_min is the counted
    kernel, so the probe is exactly 1 and assembles nothing."""
    if shift not in (1j, -1j):
        raise ValueError("shift must be +i or -i")
    return _shifted_sigma_min(_spectrum(cx, degree, 1, "auto", seed, vectors=False))


def _shifted_sigma_min(rep: SpectrumReport) -> float:
    """sqrt(lambda_min^2 + 1), the smallest singular value of L +- i; 1 on an empty block."""
    if not rep.eigenvalues:
        return 1.0
    lam = rep.eigenvalues[0]
    return math.sqrt(lam * lam + 1.0)


def boundary_weight_down(cx: WeightedComplex, factor: float = 1e-3) -> WeightedComplex:
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
    """Quantize to 12 significant digits: iterative eigensolves are only
    reproducible to the last few ulps under threaded BLAS, and residuals are
    1e-8 at best, so digits beyond 12 are noise that would break byte-stable
    reports."""
    return float(f"{x:.12g}")


def esa_sweep(off_spec, depths, tet_parity: int = 0, how_many: int = 4,
              guard: int = 10 ** 6, seed: int = 0,
              boundary_factor: float = 1e-3) -> dict:
    """Depth-indexed table of spectral diagnostics for one growth family.

    Rows whose estimated simplex count exceeds ``guard`` are refused with a
    message but still carry the partial-sum column (pure arithmetic).  The
    partial sums share the divergence_partial_sums code path.
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
        down = boundary_weight_down(cx, boundary_factor)
        reports = {d: _spectrum(cx, d, how_many, "auto", seed, vectors=False)
                   for d in range(cx.max_degree + 1)}
        # L is real PSD, so sigma_min(L + i) = sigma_min(L - i) = sqrt(l_min^2 + 1)
        probes = {str(d): _sig12(_shifted_sigma_min(reports[d])) for d in reports}
        row.update(
            refused=False,
            counts=list(cx.counts()),
            smallest_eigenvalues={
                str(d): [_sig12(v) for v in reports[d].eigenvalues] for d in reports
            },
            sigma_min_plus=probes,
            sigma_min_minus=dict(probes),
            sigma_min_boundary_down={
                str(d): _sig12(kernel_probe(down, d, 1j, seed=seed))
                for d in range(cx.max_degree + 1)
            },
        )
        rows.append(row)
    return {
        "family": {"off": str(off_spec), "tet_parity": tet_parity},
        "seed": seed,
        "guard": guard,
        "boundary_factor": boundary_factor,
        "label": "finite-truncation evidence",
        "rows": rows,
    }
