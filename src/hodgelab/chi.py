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

An exhaustion, like a layer decomposition of the divergence test, is an int64
layer array over the vertex table ``cx.topology.vertices``, and a vertex
function, such as a cut-off, a float array over it.  The energy functions also
take a ``{label: value}`` mapping, read once with 0.0 where it has no entry.
"""

from __future__ import annotations

import math
from collections.abc import Set
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .complexes import MAX_OFFSPRING_SIMPLICES, WeightedComplex
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
#: singular values of the coupling block above RANK_TOL * max(1, sigma_max) count toward its rank
RANK_TOL = 1e-10


@dataclass(eq=False)
class Exhaustion:
    """Vertex layers and the exhaustion O_k = {layer <= k} that they define.

    ``layer`` is a read-only int64 array over ``vertices``, the complex's
    degree-0 table, -1 where a vertex has no layer.  ``==`` is identity.
    """

    vertices: list = field(repr=False)
    layer: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.layer = np.array(self.layer, dtype=np.int64)
        if self.layer.shape != (len(self.vertices),) or np.any(self.layer < -1):
            raise ValueError("a layering needs one integer >= -1 per vertex of its table")
        self.layer.setflags(write=False)

    @property
    def excluded(self) -> tuple:
        """The vertices without a layer, in table order."""
        return tuple(v for v, d in zip(self.vertices, self.layer.tolist()) if d < 0)

    def num_layers(self) -> int:
        return int(self.layer.max(initial=-1)) + 1


def make_ball_exhaustion(cx: WeightedComplex, roots: Iterable, k_max: int) -> Exhaustion:
    """Graph-distance balls around ``roots``: a vertex's layer is its
    distance to the roots, unbounded by the third argument, which is not read;
    unreachable vertices are excluded and reported on the result.  A root
    that is not a vertex of ``cx`` raises ``ValueError``."""
    roots = list(roots)
    if not roots:
        raise ValueError("roots must be nonempty")
    return Exhaustion(cx.topology.vertices, cx.topology.distances_from(roots))


def _same_table(cx: WeightedComplex, vertices: list, what: str) -> None:
    # an array read on another vertex table of the same length would misalign silently
    if vertices is not cx.topology.vertices and vertices != cx.topology.vertices:
        raise ValueError(f"the {what} was built on another vertex table than the complex's")


def _layer_profile(exh: Exhaustion, k: int, ramp) -> np.ndarray:
    """The plateau cut-off of index ``k`` (see ``make_cutoff_system``) on the
    layers 0..top of ``exh``, then 0.0 for the vertices without a layer, so
    that ``profile[exh.layer]`` is its value on every vertex; read-only."""
    if k < 0:
        raise ValueError(f"the plateau index {k} must be nonnegative")
    top = int(exh.layer.max(initial=0))
    kind = ramp[0]
    if kind == "linear":
        width = ramp[1]
        if not 0 < width < math.inf:
            raise ValueError(f"ramp width {width} must be finite and positive")
        # elementwise, the IEEE operations of the scalar 1.0 - max(0, d - k) / width
        val = 1.0 - np.maximum(0, np.arange(top + 1) - k) / width
        values = np.where(val > 0, np.minimum(1.0, val), 0.0)
    elif kind == "divergence":
        values = budget_profile(ramp[1], k, ramp[2], top)[0]
    else:
        raise ValueError(f"unknown ramp kind {kind!r}")
    profile = np.append(values, 0.0)
    profile.setflags(write=False)
    return profile


def _positive_part(exh: Exhaustion, profile: np.ndarray) -> dict:
    """``{label: value}`` of the layer profile ``profile`` over the vertices
    of ``exh`` where it is positive."""
    return {v: x for v, x in zip(exh.vertices, profile[exh.layer].tolist()) if x > 0}


def make_plateau_cutoff(exh: Exhaustion, k: int, ramp) -> dict:
    """The plateau cut-off of index ``k`` (see ``make_cutoff_system``) as
    ``{label: value}`` over the vertices where it is positive."""
    return _positive_part(exh, _layer_profile(exh, k, ramp))


def budget_profile(xi_fn, N: int, horizon: int, top: int) -> tuple[list, float]:
    """Layer values of the 1/sqrt(xi)-budgeted plateau cut-off.

    The value is 1 on layers <= N and, on layer l > N,
    max(0, 1 - sum_{j=N}^{l-1} s_j / sum_{j=N}^{horizon} s_j) with
    s_j = 1/sqrt(xi(j)).  Returns ([value of layer l for l in 0..top], tail sum).
    """
    if N < 0:
        raise ValueError(f"the plateau index {N} must be nonnegative")
    if horizon <= N:
        raise ValueError("horizon must exceed the plateau index")
    if horizon > MAX_OFFSPRING_SIMPLICES:  # one step per layer up to the horizon
        raise ValueError(f"horizon {horizon} passes the cap of {MAX_OFFSPRING_SIMPLICES} layers")
    steps = []
    for j in range(N, horizon + 1):
        x = xi_fn(j)
        if x is None:
            raise ValueError(f"the growth xi({j}) of layer {j} is undefined; "
                             f"the cut-off budget needs every layer from {N} on")
        x = float(x)
        if x <= 0:
            raise ValueError(f"xi({j}) must be positive for the cut-off budget")
        steps.append(1.0 / math.sqrt(x))
    tail = math.fsum(steps)
    profile = [1.0 if ell <= N else max(0.0, 1.0 - math.fsum(steps[:ell - N]) / tail)
               for ell in range(top + 1)]
    return profile, tail


@dataclass(eq=False)
class CutoffSystem:
    """One plateau cut-off per index k, kept as its read-only layer profile
    ``profiles[k]``: its values on the layers 0..top of the exhaustion, then
    0.0 for the vertices without a layer, so that ``profiles[k][layer]`` is
    the cut-off over the vertex table ``vertices``; ``==`` is identity."""

    ks: tuple
    profiles: dict
    ramp: tuple
    vertices: list = field(repr=False)
    layer: np.ndarray = field(repr=False)

    def chi(self, k: int) -> np.ndarray:
        return self.profiles[k][self.layer]


def make_cutoff_system(cx: WeightedComplex, exh: Exhaustion, ks: Sequence[int],
                       ramp=("linear", 1)) -> CutoffSystem:
    """Plateau cut-offs for every k of ``ks``: equal to 1 on O_k and decaying
    to 0 across the ramp, 0.0 on unreachable vertices.

    ``ramp`` is ("linear", width) for chi(x) = max(0, 1 - d(x,O_k)/width), or
    ("divergence", xi_fn, horizon) for the layer-budgeted profile with
    per-layer decrements 1/sqrt(xi(j)) normalized by the tail sum up to the
    horizon.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("a cut-off system needs at least one plateau index k, and ks is empty")
    profiles = {k: _layer_profile(exh, k, ramp) for k in ks}
    # a callable's repr holds a memory address, so it is recorded as a fixed token
    ramp_desc = (ramp[0],) + tuple(
        "<callable>" if callable(x) else (x if isinstance(x, (int, float)) else repr(x))
        for x in ramp[1:])
    return CutoffSystem(ks=ks, profiles=profiles, ramp=ramp_desc, vertices=exh.vertices, layer=exh.layer)


def energy_functional(cx: WeightedComplex, chi: Mapping | np.ndarray, degree: int):
    """Sup over (degree-1)-simplices of the local energy of the vertex
    function ``chi``.

    Returns (sup, witness) with the lexicographically smallest maximizer as
    witness; both are (0.0, None) when no simplex carries energy.
    """
    if degree < 1:
        raise ValueError("energy functional needs degree >= 1")
    if degree > cx.max_degree:
        raise ValueError(f"degree {degree} above max degree {cx.max_degree}")
    base = degree - 1
    c = _vertex_array(cx, chi)
    val = _local_energy(cx, c, _simplex_means(cx, c, base), base) / cx.weights[base]
    if val.size and val.max() > 0:
        # the tables are sorted, so the first maximizer is the lexicographically smallest;
        # its labels are read off its row, since cx.simplices would build every degree's label tuples
        j = int(np.argmax(val))
        witness = tuple(map(cx.topology.vertices.__getitem__, cx.topology.vertex_index(base)[j].tolist()))
        return float(val[j]), witness
    return 0.0, None


def _vertex_array(cx: WeightedComplex, chi: Mapping | np.ndarray) -> np.ndarray:
    """The vertex function ``chi`` as a float array over
    ``cx.topology.vertices``.  An array is taken as it is and must have one
    entry per vertex; a label mapping is read once, 0.0 where it has no
    entry."""
    vertices = cx.topology.vertices
    if isinstance(chi, Mapping):
        get = chi.get
        return np.array([get(v, 0.0) for v in vertices], dtype=float)
    c = np.asarray(chi, dtype=float)
    if c.shape != (len(vertices),):
        raise ValueError(f"vertex function has length {c.size}, the complex has {len(vertices)} vertices")
    return c


def _simplex_means(cx: WeightedComplex, c: np.ndarray, degree: int, which=slice(None)) -> np.ndarray:
    """Mean of the vertex values ``c`` over each degree-``degree`` simplex, or
    over the simplices ``which`` indexes, summed exactly (``math.fsum``)
    before dividing."""
    rows = c[cx.topology.vertex_index(degree)[which]]
    if degree <= 1:
        # the rounded sum of at most two values is the exact sum rounded once
        return rows.sum(axis=1) / (degree + 1)
    means = np.array([math.fsum(r) for r in rows.tolist()], dtype=float) / (degree + 1)
    # three copies of 1 - 1/3 = 0.6666666666666667 sum to 2.0, whose third rounds lower
    return np.where((rows == rows[:, :1]).all(axis=1), rows[:, 0], means)


def _local_energy(cx: WeightedComplex, c: np.ndarray, bar: np.ndarray, degree: int,
                  entries=None) -> np.ndarray:
    """For each degree-``degree`` simplex s with vertex mean ``bar[s]``: the sum
    over coface extensions s+{x} of m(s+{x}) * |c(x) - bar[s]|^2, added in
    extension order; or over ``entries`` only, a subset (j, x, t) of
    ``extension_coo(degree)`` in its order, with j renumbered to index ``bar``."""
    j, x, t = cx.topology.extension_coo(degree) if entries is None else entries
    diff = c[x] - bar[j]
    terms = cx.weights[degree + 1][t] * diff * diff
    return np.bincount(j, weights=terms, minlength=len(bar))


def _energy_row(cx: WeightedComplex, cutoffs: CutoffSystem, degree: int) -> list:
    """``energy_functional(cx, cutoffs.chi(k), degree)[0]`` for each k of
    ``cutoffs.ks``, bit for bit, from the ramp band: a coface whose vertex
    values are all equal adds exactly +0.0 to each bin it reaches (its face's
    mean is that value), so only the extension entries of the other cofaces
    are added, in extension order."""
    base = degree - 1
    j, x, t = cx.topology.extension_coo(base)
    first, *rest = cx.topology.vertex_index(degree).T
    row = []
    for k in cutoffs.ks:
        c = cutoffs.chi(k)
        head = c[first]
        band = np.zeros(len(head), dtype=bool)
        for column in rest:
            band |= c[column] != head
        keep = np.flatnonzero(band[t])
        # j is sorted, so the faces and their indices are read off the runs of j[keep]
        jk = j[keep]
        start = np.ones(len(jk), dtype=bool)
        start[1:] = jk[1:] != jk[:-1]
        faces, inv = jk[start], np.cumsum(start) - 1
        bar = _simplex_means(cx, c, base, faces)
        val = _local_energy(cx, c, bar, base, (inv, x[keep], t[keep])) / cx.weights[base][faces]
        row.append(float(val.max()) if val.size and val.max() > 0 else 0.0)
    return row


def classify_entries(entries: Sequence[float]) -> str:
    """Three-valued verdict for one energy row over increasing k.

    GROWING: the row ends in >= GROWTH_STREAK strictly increasing entries
    (with margin).  BOUNDED_ON_RANGE: the max is attained before the range
    end and entries never increase afterwards (within VERDICT_ATOL).
    Otherwise INCONCLUSIVE.  A finite range supports or refutes, it never
    proves.
    """
    e = list(entries)
    if len(e) < 2:
        return INCONCLUSIVE
    run = 1
    for a, b in zip(e, e[1:]):
        run = run + 1 if b > a + max(VERDICT_ATOL, VERDICT_RTOL * abs(a)) else 1
    if run >= GROWTH_STREAK:
        return GROWING
    imax = int(np.argmax(e))
    if imax < len(e) - 1:
        tail_ok = all(b <= a + VERDICT_ATOL for a, b in zip(e[imax:], e[imax + 1:]))
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
    _same_table(cx, cutoffs.vertices, "cut-off system")
    degrees = tuple(degrees)
    ks = cutoffs.ks

    # degree 0 is vacuous: no lower structure to normalize by
    table = [_energy_row(cx, cutoffs, d) if d else [0.0] * len(ks) for d in degrees]
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
        row_verdicts=row_verdicts,
        verdict=verdict,
        constant_C=max((max(row) for row in table), default=0.0),
        growth_witness=growth_witness,
        notes={"range_limited": True, "ramp": list(cutoffs.ramp)},
    )


def check_global_chi(cx: WeightedComplex, cutoffs: CutoffSystem) -> EnergyProfile:
    """Energy sweep across all degrees 1..n with a single cut-off system."""
    return _profile(cx, cutoffs, range(1, cx.max_degree + 1), "global")


def check_level_chi(cx: WeightedComplex, cutoffs: CutoffSystem, level: int) -> EnergyProfile:
    """Energy sweep of the single degree-``level`` row."""
    if not 0 <= level <= cx.max_degree:
        raise ValueError(f"level {level} out of range")
    return _profile(cx, cutoffs, (level,), f"level:{level}")


@dataclass
class CouplingReport:
    """Finite-truncation evidence about the region/complement coupling of D.

    Compactness of the coupling is not decidable at finite scale; only the
    block's numerical rank, largest singular value and nnz, and the count of
    simplices straddling the region boundary, are reported.
    """

    rank: int
    sigma_max: float
    nnz: int
    cross_simplices: int
    label: str = "finite-truncation evidence"


def coupling_block(cx: WeightedComplex, region: Iterable) -> CouplingReport:
    """The block C of D = [[D_in, C], [C*, D_out]], split by region membership
    of simplices, and its singular values."""
    region = region if isinstance(region, Set) else set(region)
    D = gauss_bonnet_matrix(cx).tocsr()
    inside = np.array([v in region for v in cx.topology.vertices], dtype=bool)
    # per degree, how many vertices of each simplex lie in the region
    hits = [inside[cx.topology.vertex_index(i)].sum(axis=1) for i in range(cx.max_degree + 1)]
    flags = np.concatenate([h == i + 1 for i, h in enumerate(hits)])
    cross = sum(int(np.count_nonzero((h > 0) & (h <= i))) for i, h in enumerate(hits))
    C = D[np.nonzero(flags)[0]][:, np.nonzero(~flags)[0]].tocsr()
    if C.nnz == 0:
        rank, smax = 0, 0.0
    else:
        coo = C.tocoo()
        dense = C[np.unique(coo.row)][:, np.unique(coo.col)].toarray()
        svals = np.linalg.svd(dense, compute_uv=False)
        smax = float(svals[0])
        rank = int(np.sum(svals > RANK_TOL * max(1.0, smax)))
    return CouplingReport(rank=rank, sigma_max=smax, nnz=C.nnz, cross_simplices=cross)


def averaged_extension(cx: WeightedComplex, chi: Mapping | np.ndarray, degree: int) -> np.ndarray:
    """Vertex function averaged over the vertices of each degree-d simplex."""
    return _simplex_means(cx, _vertex_array(cx, chi), degree)


@dataclass
class LeibnizReport:
    R_d: Cochain | None
    R_delta: Cochain | None
    norm_d: float
    norm_delta: float
    bound_term: float
    smallest_C: float | None


def _coboundary_remainder(cx: WeightedComplex, c: np.ndarray, avg_i: np.ndarray, f: Cochain) -> tuple:
    """(R_d, ||R_d||) with R_d = d(chi*f) - chi^{(i+1)} * (df), for the vertex
    values ``c`` whose means over the degree-i simplices are ``avg_i``;
    (None, 0.0) at the top degree."""
    i = f.degree
    if i >= cx.max_degree:
        return None, 0.0
    scaled = Cochain(i, avg_i * f.values)
    avg_up = _simplex_means(cx, c, i + 1)
    R_d = Cochain(i + 1, coboundary_apply(cx, scaled).values - avg_up * coboundary_apply(cx, f).values)
    return R_d, norm(cx, i + 1, R_d.values)


def leibniz_remainder(cx: WeightedComplex, chi: Mapping | np.ndarray, f: Cochain) -> LeibnizReport:
    """Commutator remainders of cut-off multiplication against d and δ.

    R_d = d(chi*f) - chi^{(i+1)} * (df) and R_delta = δ(chi*f) -
    chi^{(i-1)} * (δf), with chi extended to each degree by vertex averaging.
    Also reports the smallest constant C with
    ||R_d||^2 <= C * sum_s m_i(s) |f(s)|^2 * E(chi, s) on this instance.
    """
    i = f.degree
    c = _vertex_array(cx, chi)
    avg_i = _simplex_means(cx, c, i)
    R_d, norm_d = _coboundary_remainder(cx, c, avg_i, f)

    R_delta = None
    norm_delta = 0.0
    if i >= 1:
        avg_dn = _simplex_means(cx, c, i - 1)
        scaled = Cochain(i, avg_i * f.values)
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
