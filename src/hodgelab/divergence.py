"""Layer decompositions, the forward growth function and the divergence test.

A 1-dimensional decomposition partitions the vertex set into layers such that
edges join layers at most one apart.  The growth function

    xi(k, k+1) = sum over geometric degrees g = 0..n-1 of
                 sup over degree-g simplices assigned to layer k of
                 #{coface extensions by a vertex in layer k+1}

drives both the divergence test (divergence of sum 1/sqrt(xi)) and the
construction of layer-constant cut-offs whose decrements are budgeted by
1/sqrt(xi).  Simplices are assigned to the layer of their minimum vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .chi import budget_profile, leibniz_remainder
from .complexes import WeightedComplex
from .operators import norm

__all__ = [
    "LayerDecomposition",
    "layers_by_depth",
    "layers_by_distance",
    "ValidationReport",
    "validate_decomposition",
    "growth_function",
    "growth_table",
    "PartialSumReport",
    "divergence_partial_sums",
    "divergence_cutoffs",
    "Step3Report",
    "step3_estimate",
]


@dataclass
class LayerDecomposition:
    """Ordered partition of the vertex set with an origin rule label."""

    layer_of: dict
    origin: str = ""

    def __post_init__(self):
        top = max(self.layer_of.values(), default=-1)
        self.layers = [[] for _ in range(top + 1)]
        for v in sorted(self.layer_of):
            self.layers[self.layer_of[v]].append(v)

    def num_layers(self) -> int:
        return len(self.layers)

    def layer(self, v) -> int:
        return self.layer_of[v]


def layers_by_depth(cx: WeightedComplex) -> LayerDecomposition:
    """Layer = word length; for rooted-tree families whose ids are tuples."""
    return LayerDecomposition({v: len(v) for v in cx.topology.vertices}, origin="depth")


def layers_by_distance(cx: WeightedComplex, roots: Iterable) -> LayerDecomposition:
    dist = cx.topology.distances_from(roots)
    missing = len(cx.topology.vertices) - len(dist)
    if missing:
        raise ValueError(f"{missing} vertices unreachable from roots")
    return LayerDecomposition(dist, origin="graph distance")


@dataclass
class ValidationReport:
    ok: bool
    first_violation: tuple | None
    violations: list
    uncovered: list
    jump_histogram: dict


def validate_decomposition(cx: WeightedComplex, layers: LayerDecomposition) -> ValidationReport:
    """Check the partition and unit-jump properties; violations are data."""
    uncovered = [v for v in cx.topology.vertices if v not in layers.layer_of]
    violations = []
    hist: dict[int, int] = {}
    for (u, v) in cx.simplices[1]:
        lu, lv = layers.layer_of.get(u), layers.layer_of.get(v)
        if lu is None or lv is None:
            continue
        jump = abs(lu - lv)
        hist[jump] = hist.get(jump, 0) + 1
        if jump > 1:
            violations.append((u, v))
    ok = not uncovered and not violations
    return ValidationReport(
        ok=ok,
        first_violation=violations[0] if violations else None,
        violations=violations,
        uncovered=uncovered,
        jump_histogram=dict(sorted(hist.items())),
    )


def growth_function(cx: WeightedComplex, layers: LayerDecomposition, k: int):
    """xi(k, k+1) and its per-degree breakdown at one layer index.

    Returns (xi, breakdown) where breakdown[g] = (sup, witness) over degree-g
    simplices with minimum vertex layer k, counting coface extensions into
    layer k+1.  Undefined (None) when layer k holds no vertex.
    """
    table = growth_table(cx, layers, [k])
    return table[k]


def growth_table(cx: WeightedComplex, layers: LayerDecomposition, ks: Sequence[int]) -> dict:
    """Bulk xi(k, k+1) for several k from one forward-extension count per degree."""
    wanted = set(int(k) for k in ks)
    n = cx.max_degree
    layer = np.array([layers.layer_of[v] for v in cx.topology.vertices], dtype=np.int64)
    sup: dict[tuple, tuple] = {}
    for g in range(0, n):
        k_of = layer[cx.topology.vertex_index(g)].min(axis=1)
        j, x, _ = cx.topology.extension_coo(g)
        fwd = np.bincount(j[layer[x] == k_of[j] + 1], minlength=cx.size(g))
        for k in wanted:
            rows = np.flatnonzero(k_of == k)
            if rows.size:
                # argmax gives the first maximizer, the witness in index order
                best = rows[np.argmax(fwd[rows])]
                sup[(g, k)] = (int(fwd[best]), cx.simplices[g][best])
    out = {}
    for k in sorted(wanted):
        if not 0 <= k < layers.num_layers() or not layers.layers[k]:
            out[k] = (None, {})
            continue
        breakdown = {g: sup.get((g, k), (0, None)) for g in range(0, n)}
        out[k] = (float(sum(b[0] for b in breakdown.values())), breakdown)
    return out


@dataclass
class PartialSumReport:
    ks: list
    xi: list
    terms: list
    partial_sums: list
    diverged_at: int | None
    classification: str
    fit: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)

    def to_json(self) -> dict:
        enc = lambda x: None if x is None else (x if math.isfinite(x) else "inf")
        return {
            "k": self.ks,
            "xi": [enc(x) for x in self.xi],
            "terms": [enc(t) for t in self.terms],
            "partial_sums": [enc(s) for s in self.partial_sums],
            "diverged_at": self.diverged_at,
            "classification": self.classification,
            "fit": self.fit,
            "skipped": self.skipped,
        }


def _as_xi_fn(xi) -> Callable[[int], float]:
    """Growth lookup from a callable or a measured table.

    Table entries keep their None (undefined) markers; indices beyond the
    table hold the last measured value.
    """
    if callable(xi):
        return xi
    seq = list(xi)
    last = next((x for x in reversed(seq) if x is not None), None)

    def fn(j: int):
        if j < len(seq):
            return seq[j]
        if last is None:
            raise ValueError("growth table is empty")
        return last

    return fn


def divergence_partial_sums(xi, k_range: Sequence[int]) -> PartialSumReport:
    """Running sums of 1/sqrt(xi(k, k+1)) with a heuristic growth label.

    A zero xi entry makes the term +inf: the series trivially diverges from
    that index on, which is reported explicitly.  The log-vs-convergent fit is
    a labeled heuristic and never overrides the raw table.
    """
    fn = _as_xi_fn(xi)
    ks = [int(k) for k in k_range]
    xi_vals, terms, partials = [], [], []
    total = 0.0
    diverged_at = None
    for k in ks:
        x = float(fn(k))
        xi_vals.append(x)
        if x < 0:
            raise ValueError(f"xi({k}) = {x} is negative")
        if x == 0:
            term = math.inf
            if diverged_at is None:
                diverged_at = k
        else:
            term = 1.0 / math.sqrt(x)
        terms.append(term)
        total = total + term
        partials.append(total)
    classification, fit = _classify_partial_sums(ks, partials)
    return PartialSumReport(ks=ks, xi=xi_vals, terms=terms, partial_sums=partials,
                            diverged_at=diverged_at, classification=classification, fit=fit)


def _classify_partial_sums(ks, partials):
    finite = [(k, s) for k, s in zip(ks, partials) if math.isfinite(s)]
    if any(not math.isfinite(s) for s in partials):
        return "divergent_zero_growth", {"note": "xi hit zero; tail terms are +inf"}
    if len(finite) < 4:
        return "inconclusive", {"note": "too few points to fit"}
    x = np.array([k for k, _ in finite], dtype=float)
    y = np.array([s for _, s in finite], dtype=float)

    def r2(pred):
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    # log-divergent model: S_k ~ a*log(k+1) + b
    A = np.vstack([np.log(x + 1.0), np.ones_like(x)]).T
    coef_log, *_ = np.linalg.lstsq(A, y, rcond=None)
    r2_log = r2(A @ coef_log)
    # convergent model: S_k ~ a - b/(k+1)
    B = np.vstack([np.ones_like(x), -1.0 / (x + 1.0)]).T
    coef_conv, *_ = np.linalg.lstsq(B, y, rcond=None)
    r2_conv = r2(B @ coef_conv)
    label = "divergent_log_like" if r2_log >= r2_conv else "convergent_like"
    return label, {
        "heuristic": True,
        "r2_log": r2_log,
        "r2_convergent": r2_conv,
        "log_coefficients": [float(c) for c in coef_log],
        "convergent_coefficients": [float(c) for c in coef_conv],
    }


def divergence_cutoffs(layers: LayerDecomposition, xi, N: int, horizon: int):
    """Layer-constant plateau cut-off with 1/sqrt(xi)-budgeted decrements,
    the layer values of :func:`hodgelab.chi.budget_profile`.

    Returns (vertex_chi, info) with the layer profile and tail bookkeeping.
    """
    fn = _as_xi_fn(xi)
    profile, tail = budget_profile(fn, N, horizon, layers.num_layers() - 1)
    chi = {v: profile[layers.layer_of[v]] for v in layers.layer_of
           if profile[layers.layer_of[v]] > 0}
    info = {
        "N": N,
        "horizon": horizon,
        "tail_sum": tail,
        "layer_profile": profile,
        # integral-comparison estimate of the mass ignored beyond the horizon
        "tail_beyond_horizon_estimate": _tail_estimate(fn, horizon),
    }
    return chi, info


def _tail_estimate(fn, horizon: int, probe: int = 64) -> float:
    """Crude integral-comparison bound on sum_{j>horizon} 1/sqrt(xi(j)).

    Fits the local power-law decay of 1/sqrt(xi) at the horizon; returns inf
    when the terms do not decay.
    """
    a = 1.0 / math.sqrt(fn(horizon))
    b = 1.0 / math.sqrt(fn(horizon + probe))
    if b >= a:
        return math.inf
    p = math.log(a / b) / math.log((horizon + probe) / horizon)
    if p <= 1.0:
        return math.inf
    return a * horizon / (p - 1.0)


@dataclass
class Step3Report:
    N: int
    tail_sum: float
    degrees: list
    remainder_norms: list
    cochain_norms: list
    smallest_C: list

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "tail_sum": self.tail_sum,
            "degrees": self.degrees,
            "remainder_norms": self.remainder_norms,
            "cochain_norms": self.cochain_norms,
            "smallest_C": self.smallest_C,
        }


def step3_estimate(cx: WeightedComplex, layers: LayerDecomposition, chi: Mapping,
                   u: tuple, tail_sum: float, N: int) -> Step3Report:
    """Remainder norms ||R_d(chi, u_i)|| per degree against the budget bound.

    For each component the smallest admissible C in
    ||R_d||^2 <= C * tail_sum^{-1} * ||u_i||^2 is reported; remainders decay
    as N grows whenever the budget sums grow.
    """
    degrees, rnorms, unorms, consts = [], [], [], []
    for i, f in enumerate(u):
        rep = leibniz_remainder(cx, chi, f)
        un = norm(cx, i, f.values)
        degrees.append(i)
        rnorms.append(rep.norm_d)
        unorms.append(un)
        if un > 0:
            consts.append(rep.norm_d ** 2 * tail_sum / un ** 2)
        else:
            consts.append(0.0)
    return Step3Report(N=N, tail_sum=tail_sum, degrees=degrees,
                       remainder_norms=rnorms, cochain_norms=unorms, smallest_C=consts)
