"""Exhaustions, plateau cut-offs and the completeness energy diagnostics.

Completeness of a weighted complex is probed through plateau cut-off
functions: vertex functions equal to 1 on an exhaustion set, decaying to 0
across a ramp, extended to simplices by averaging.  The central quantity is
the per-simplex energy

    E_i(chi, s) = (1/m_{i-1}(s)) * sum over coface extensions s+{x} of
                  m_i(s+{x}) * |chi(x) - mean(chi on s)|^2,

whose sup over (i-1)-simplices must stay bounded along the exhaustion for the
cut-off system to witness completeness at degree i.  A finite sweep can only
refute or support a for-all-k statement, so verdicts are three-valued and
explicitly range-limited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .complexes import WeightedComplex
from .operators import (
    Cochain,
    coboundary_apply,
    codifferential_apply,
    gauss_bonnet_matrix,
    norm,
)

__all__ = [
    "Exhaustion",
    "CutoffSystem",
    "EnergyProfile",
    "make_ball_exhaustion",
    "make_plateau_cutoff",
    "budget_profile",
    "make_cutoff_system",
    "energy_functional",
    "check_global_chi",
    "check_level_chi",
    "coupling_block",
    "CouplingReport",
    "leibniz_remainder",
    "LeibnizReport",
    "classify_entries",
    "BOUNDED_ON_RANGE",
    "GROWING",
    "INCONCLUSIVE",
]

BOUNDED_ON_RANGE = "BOUNDED_ON_RANGE"
GROWING = "GROWING"
INCONCLUSIVE = "INCONCLUSIVE"

#: strictness margins for the three-valued verdicts
VERDICT_ATOL = 1e-12
VERDICT_RTOL = 1e-9
GROWTH_STREAK = 5


@dataclass
class Exhaustion:
    """Increasing vertex balls O_k = {distance <= k} from a root set."""

    roots: tuple
    k_max: int
    dist: dict
    excluded: tuple = ()

    def set_at(self, k: int) -> set:
        return {v for v, d in self.dist.items() if d <= k}


def make_ball_exhaustion(cx: WeightedComplex, roots: Iterable, k_max: int) -> Exhaustion:
    """Graph-distance balls around ``roots``; unreachable vertices are
    excluded and reported on the result.  A root that is not a vertex of
    ``cx`` raises ``ValueError``."""
    roots = list(roots)
    if not roots:
        raise ValueError("roots must be nonempty")
    # looked up first: vertices are mutually comparable, so the sort cannot raise
    dist = cx.topology.distances_from(roots)
    roots = tuple(sorted(set(roots)))
    excluded = tuple(v for v in cx.topology.vertices if v not in dist)
    return Exhaustion(roots=roots, k_max=int(k_max), dist=dist, excluded=excluded)


def make_plateau_cutoff(exh: Exhaustion, k: int, ramp) -> dict:
    """Vertex cut-off equal to 1 on O_k and decaying to 0 across the ramp.

    ``ramp`` is ("linear", width) for chi(x) = max(0, 1 - d(x,O_k)/width), or
    ("divergence", xi_fn, horizon) for the layer-budgeted profile with
    per-layer decrements 1/sqrt(xi(j)) normalized by the tail sum up to the
    horizon.
    """
    kind = ramp[0]
    chi: dict = {}
    if kind == "linear":
        width = ramp[1]
        if width <= 0:
            raise ValueError("ramp width must be positive")
        for v, d in exh.dist.items():
            val = 1.0 - max(0, d - k) / width
            if val > 0:
                chi[v] = min(1.0, val)
    elif kind == "divergence":
        _, xi_fn, horizon = ramp
        level_value, _ = budget_profile(xi_fn, k, horizon, max(exh.dist.values(), default=0))
        for v, d in exh.dist.items():
            if level_value[d] > 0:
                chi[v] = level_value[d]
    else:
        raise ValueError(f"unknown ramp kind {kind!r}")
    return chi


def budget_profile(xi_fn, N: int, horizon: int, top: int) -> tuple[dict, float]:
    """Layer values of the 1/sqrt(xi)-budgeted plateau cut-off.

    The value is 1 on layers <= N and, on layer l > N,
    max(0, 1 - sum_{j=N}^{l-1} s_j / sum_{j=N}^{horizon} s_j) with
    s_j = 1/sqrt(xi(j)).  Returns ({layer: value} for layers 0..top, tail sum).
    """
    if horizon <= N:
        raise ValueError("horizon must exceed the plateau index")
    steps = []
    for j in range(N, horizon + 1):
        x = float(xi_fn(j))
        if x <= 0:
            raise ValueError(f"xi({j}) must be positive for the cut-off budget")
        steps.append(1.0 / math.sqrt(x))
    tail = math.fsum(steps)
    profile = {}
    for ell in range(top + 1):
        if ell <= N:
            profile[ell] = 1.0
        else:
            spent = math.fsum(steps[: min(ell - N, len(steps))])
            profile[ell] = max(0.0, 1.0 - spent / tail)
    return profile, tail


@dataclass
class CutoffSystem:
    """Exhaustion plus one plateau cut-off per index k."""

    exhaustion: Exhaustion
    ks: tuple
    chis: dict
    ramp: tuple
    mode: str = "global"
    level: int | None = None

    def chi(self, k: int) -> dict:
        return self.chis[k]


def make_cutoff_system(cx: WeightedComplex, exh: Exhaustion, ks: Sequence[int],
                       ramp=("linear", 1), mode: str = "global",
                       level: int | None = None) -> CutoffSystem:
    ks = tuple(ks)
    chis = {k: make_plateau_cutoff(exh, k, ramp) for k in ks}
    # a callable's repr holds a memory address, so it is recorded as a fixed token
    ramp_desc = (ramp[0],) + tuple(
        "<callable>" if callable(x) else (x if isinstance(x, (int, float)) else repr(x))
        for x in ramp[1:])
    return CutoffSystem(exhaustion=exh, ks=ks, chis=chis, ramp=ramp_desc, mode=mode, level=level)


def energy_functional(cx: WeightedComplex, chi: Mapping, degree: int):
    """Sup over (degree-1)-simplices of the local cut-off energy.

    Returns (sup, witness) with the lexicographically smallest maximizer as
    witness; both are (0.0, None) when no simplex carries energy.
    """
    if degree < 1:
        raise ValueError("energy functional needs degree >= 1")
    if degree > cx.max_degree:
        raise ValueError(f"degree {degree} above max degree {cx.max_degree}")
    base = degree - 1
    c = _vertex_values(cx, chi)
    val = _local_energy(cx, c, _simplex_means(cx, c, base), base) / cx.weights[base]
    if val.size and val.max() > 0:
        # the tables are sorted, so the first maximizer is the lexicographically smallest
        j = int(np.argmax(val))
        return float(val[j]), cx.simplices[base][j]
    return 0.0, None


def _vertex_values(cx: WeightedComplex, chi: Mapping) -> np.ndarray:
    """chi on the degree-0 table, 0 where chi has no entry."""
    get = chi.get
    return np.array([get(v, 0.0) for v in cx.topology.vertices], dtype=float)


def _simplex_means(cx: WeightedComplex, c: np.ndarray, degree: int) -> np.ndarray:
    """Mean of the vertex values ``c`` over each degree-``degree`` simplex,
    summed exactly (``math.fsum``) before dividing."""
    rows = c[cx.topology.vertex_index(degree)]
    if degree <= 1:
        # the rounded sum of at most two values is the exact sum rounded once
        return rows.sum(axis=1) / (degree + 1)
    return np.array([math.fsum(r) for r in rows.tolist()], dtype=float) / (degree + 1)


def _local_energy(cx: WeightedComplex, c: np.ndarray, bar: np.ndarray, degree: int) -> np.ndarray:
    """For each degree-``degree`` simplex s with vertex mean ``bar[s]``: the sum
    over coface extensions s+{x} of m(s+{x}) * |c(x) - bar[s]|^2, added in
    extension order."""
    j, x, t = cx.topology.extension_coo(degree)
    diff = c[x] - bar[j]
    terms = cx.weights[degree + 1][t] * diff * diff
    return np.bincount(j, weights=terms, minlength=cx.size(degree))


def classify_entries(entries: Sequence[float], atol: float = VERDICT_ATOL,
                     rtol: float = VERDICT_RTOL, streak: int = GROWTH_STREAK) -> str:
    """Three-valued verdict for one energy row over increasing k.

    GROWING: the row ends in >= ``streak`` strictly increasing entries (with
    margin).  BOUNDED_ON_RANGE: the max is attained before the range end and
    entries never increase afterwards (within ``atol``).  Otherwise
    INCONCLUSIVE.  A finite range supports or refutes, it never proves.
    """
    e = list(entries)
    if len(e) < 2:
        return INCONCLUSIVE
    run = 1
    for a, b in zip(e, e[1:]):
        run = run + 1 if b > a + max(atol, rtol * abs(a)) else 1
    if run >= streak:
        return GROWING
    imax = int(np.argmax(e))
    if imax < len(e) - 1:
        tail_ok = all(b <= a + atol for a, b in zip(e[imax:], e[imax + 1:]))
        if tail_ok:
            return BOUNDED_ON_RANGE
    return INCONCLUSIVE


@dataclass
class EnergyProfile:
    """Per-(degree, k) sup table with range-limited verdicts."""

    mode: str
    degrees: tuple
    ks: tuple
    table: list          # rows aligned with degrees
    witnesses: list      # same layout, vertex tuples or None
    row_verdicts: dict
    verdict: str
    constant_C: float
    growth_witness: dict | None = None
    notes: dict = field(default_factory=dict)

    def row(self, degree: int) -> list:
        return self.table[self.degrees.index(degree)]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "degrees": list(self.degrees),
            "k_range": [min(self.ks), max(self.ks)],
            "table": [[float(x) for x in row] for row in self.table],
            "verdict": self.verdict,
            "row_verdicts": {str(d): v for d, v in self.row_verdicts.items()},
            "constant_C": float(self.constant_C),
            "witness": self.growth_witness or {},
            "notes": self.notes,
        }


def _profile(cx: WeightedComplex, cutoffs: CutoffSystem, degrees: Sequence[int],
             mode: str) -> EnergyProfile:
    degrees = tuple(degrees)
    ks = cutoffs.ks

    table, witnesses = [], []
    for d in degrees:
        # degree 0 is vacuous: no lower structure to normalize by
        row = [energy_functional(cx, cutoffs.chi(k), d) if d else (0.0, None) for k in ks]
        table.append([v for v, _ in row])
        witnesses.append([w for _, w in row])
    row_verdicts = {d: classify_entries(table[r]) for r, d in enumerate(degrees)}
    if any(v == GROWING for v in row_verdicts.values()):
        verdict = GROWING
    elif all(v == BOUNDED_ON_RANGE for v in row_verdicts.values()):
        verdict = BOUNDED_ON_RANGE
    else:
        verdict = INCONCLUSIVE
    growth_witness = None
    for r, d in enumerate(degrees):
        if row_verdicts[d] == GROWING:
            growth_witness = {"degree": d, "k": list(ks), "sups": [float(x) for x in table[r]]}
            break
    return EnergyProfile(
        mode=mode,
        degrees=degrees,
        ks=ks,
        table=table,
        witnesses=witnesses,
        row_verdicts=row_verdicts,
        verdict=verdict,
        constant_C=max((max(row) for row in table), default=0.0),
        growth_witness=growth_witness,
        notes={"range_limited": True, "ramp": list(cutoffs.ramp)},
    )


def check_global_chi(cx: WeightedComplex, cutoffs: CutoffSystem,
                     degrees: Sequence[int] | None = None) -> EnergyProfile:
    """Energy sweep across all degrees 1..n with a single cut-off system."""
    if cutoffs.mode != "global":
        raise ValueError("cutoff system is not in global mode")
    degrees = tuple(degrees) if degrees else tuple(range(1, cx.max_degree + 1))
    return _profile(cx, cutoffs, degrees, "global")


def check_level_chi(cx: WeightedComplex, cutoffs: CutoffSystem, level: int) -> EnergyProfile:
    """Energy sweep of the single degree-``level`` row."""
    if not 0 <= level <= cx.max_degree:
        raise ValueError(f"level {level} out of range")
    return _profile(cx, cutoffs, (level,), f"level:{level}")


@dataclass
class CouplingReport:
    """Finite-truncation evidence about the region/complement coupling of D.

    Compactness of the coupling is not decidable at finite scale; only the
    block, its numerical rank and its largest singular value are reported.
    """

    in_indices: np.ndarray
    out_indices: np.ndarray
    D_in: object
    D_out: object
    C: object
    rank: int
    sigma_max: float
    nnz: int
    coupled_in: int
    coupled_out: int
    cross_simplices: int
    label: str = "finite-truncation evidence"


def coupling_block(cx: WeightedComplex, region: Iterable,
                   rank_tol: float = 1e-10) -> CouplingReport:
    """Split D into [[D_in, C], [C*, D_out]] by region membership of simplices."""
    region = set(region)
    D = gauss_bonnet_matrix(cx).tocsr()
    inside = np.array([v in region for v in cx.topology.vertices], dtype=bool)
    # per degree, how many vertices of each simplex lie in the region
    hits = [inside[cx.topology.vertex_index(i)].sum(axis=1) for i in range(cx.max_degree + 1)]
    flags = np.concatenate([h == i + 1 for i, h in enumerate(hits)])
    cross = sum(int(np.count_nonzero((h > 0) & (h <= i))) for i, h in enumerate(hits))
    in_idx = np.nonzero(flags)[0]
    out_idx = np.nonzero(~flags)[0]
    D_in = D[in_idx][:, in_idx]
    D_out = D[out_idx][:, out_idx]
    C = D[in_idx][:, out_idx].tocsr()
    if C.nnz == 0:
        rank, smax = 0, 0.0
    else:
        rows = np.unique(C.tocoo().row)
        cols = np.unique(C.tocoo().col)
        dense = C[rows][:, cols].toarray()
        svals = np.linalg.svd(dense, compute_uv=False)
        smax = float(svals[0])
        rank = int(np.sum(svals > rank_tol * max(1.0, smax)))
    coo = C.tocoo()
    return CouplingReport(
        in_indices=in_idx,
        out_indices=out_idx,
        D_in=D_in,
        D_out=D_out,
        C=C,
        rank=rank,
        sigma_max=smax,
        nnz=C.nnz,
        coupled_in=len(np.unique(coo.row)),
        coupled_out=len(np.unique(coo.col)),
        cross_simplices=cross,
    )


def averaged_extension(cx: WeightedComplex, chi: Mapping, degree: int) -> np.ndarray:
    """Vertex function averaged over the vertices of each degree-d simplex."""
    return _simplex_means(cx, _vertex_values(cx, chi), degree)


@dataclass
class LeibnizReport:
    R_d: Cochain | None
    R_delta: Cochain | None
    norm_d: float
    norm_delta: float
    bound_term: float
    smallest_C: float | None


def leibniz_remainder(cx: WeightedComplex, chi: Mapping, f: Cochain) -> LeibnizReport:
    """Commutator remainders of cut-off multiplication against d and δ.

    R_d = d(chi*f) - chi^{(i+1)} * (df) and R_delta = δ(chi*f) -
    chi^{(i-1)} * (δf), with chi extended to each degree by vertex averaging.
    Also reports the smallest constant C with
    ||R_d||^2 <= C * sum_s m_i(s) |f(s)|^2 * E(chi, s) on this instance.
    """
    i = f.degree
    c = _vertex_values(cx, chi)
    avg_i = _simplex_means(cx, c, i)
    scaled = Cochain(i, avg_i * f.values)

    R_d = None
    norm_d = 0.0
    if i < cx.max_degree:
        avg_up = _simplex_means(cx, c, i + 1)
        R_d = Cochain(i + 1, coboundary_apply(cx, scaled).values - avg_up * coboundary_apply(cx, f).values)
        norm_d = norm(cx, i + 1, R_d.values)

    R_delta = None
    norm_delta = 0.0
    if i >= 1:
        avg_dn = _simplex_means(cx, c, i - 1)
        R_delta = Cochain(i - 1, codifferential_apply(cx, scaled).values - avg_dn * codifferential_apply(cx, f).values)
        norm_delta = norm(cx, i - 1, R_delta.values)

    bound = 0.0
    if i < cx.max_degree and cx.size(i):
        # |f(s)| ** 2 on Python scalars: the array forms np.abs and a * a round differently
        squares = np.array([abs(a) ** 2 for a in f.values.tolist()], dtype=float)
        terms = squares * _local_energy(cx, c, avg_i, i)
        # a running sum in index order; np.sum adds pairwise and rounds differently
        bound = float(np.cumsum(terms)[-1])
    smallest_C = None
    if bound > 0:
        smallest_C = norm_d ** 2 / bound
    elif norm_d == 0:
        smallest_C = 0.0
    return LeibnizReport(R_d=R_d, R_delta=R_delta, norm_d=norm_d,
                         norm_delta=norm_delta, bound_term=bound, smallest_C=smallest_C)
