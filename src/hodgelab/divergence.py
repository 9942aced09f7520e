"""Layer decompositions, the forward growth function and the divergence test.

A 1-dimensional decomposition partitions the vertex set into layers such that
edges join layers at most one apart: a ``LayerDecomposition``, the same class
as the exhaustion :class:`hodgelab.chi.Exhaustion`.  The growth function

    xi(k, k+1) = sum over geometric degrees g = 0..n-1 of
                 sup over degree-g simplices assigned to layer k of
                 #{coface extensions by a vertex in layer k+1}

drives both the divergence test (divergence of sum 1/sqrt(xi)) and the
construction of layer-constant cut-offs whose decrements are budgeted by
1/sqrt(xi).  Simplices are assigned to the layer of their minimum vertex, -1
(none) when a vertex has no layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .chi import (Exhaustion, _coboundary_remainder, _positive_part, _same_table, _simplex_means, _vertex_array,
                  budget_profile, make_ball_exhaustion)
from .complexes import WeightedComplex
from .operators import norm

__all__ = [
    "LayerDecomposition",
    "layers_by_depth",
    "layers_by_distance",
    "ValidationReport",
    "validate_decomposition",
    "growth_table",
    "PartialSumReport",
    "divergence_partial_sums",
    "divergence_cutoffs",
    "Step3Report",
    "step3_estimate",
]

LayerDecomposition = Exhaustion


def layers_by_depth(cx: WeightedComplex) -> LayerDecomposition:
    """Layer = word length; for rooted-tree families whose ids are tuples.
    An id without a length raises ``ValueError``."""
    vertices = cx.topology.vertices
    bad = next((v for v in vertices if not hasattr(v, "__len__")), None)
    if bad is not None:
        raise ValueError(f"vertex {bad!r} has no length, so no depth layer (layer by distance instead)")
    return LayerDecomposition(vertices, [len(v) for v in vertices])


def layers_by_distance(cx: WeightedComplex, roots: Iterable) -> LayerDecomposition:
    """Graph-distance layers from ``roots``; every vertex must be reachable."""
    layers = make_ball_exhaustion(cx, roots, 0)
    if layers.excluded:
        raise ValueError(f"{len(layers.excluded)} vertices unreachable from roots")
    return layers


@dataclass
class ValidationReport:
    ok: bool
    first_violation: tuple | None
    violations: list
    uncovered: list
    jump_histogram: dict


def validate_decomposition(cx: WeightedComplex, layers: LayerDecomposition) -> ValidationReport:
    """Check the partition and unit-jump properties; violations are data."""
    _same_table(cx, layers.vertices, "layer decomposition")
    edges = cx.topology.vertex_index(1)
    ends = layers.layer[edges]
    covered = (ends >= 0).all(axis=1)
    jump = np.abs(ends[:, 0] - ends[:, 1])
    # in edge-table order, so the first violation is the first such edge of the table
    violations = [tuple(map(cx.topology.vertices.__getitem__, e)) for e in edges[covered & (jump > 1)].tolist()]
    values, counts = np.unique(jump[covered], return_counts=True)
    uncovered = list(layers.excluded)
    return ValidationReport(
        ok=not uncovered and not violations,
        first_violation=violations[0] if violations else None,
        violations=violations,
        uncovered=uncovered,
        jump_histogram=dict(zip(values.tolist(), counts.tolist())),
    )


def growth_table(cx: WeightedComplex, layers: LayerDecomposition, ks: Sequence[int]) -> dict:
    """xi(k, k+1) for several k from one forward-extension count per degree.

    Returns {k: (xi, breakdown)} with breakdown[g] = (sup, witness) over the
    degree-g simplices of minimum vertex layer k, counting coface extensions
    into layer k+1; (None, {}) where layer k holds no vertex.
    """
    _same_table(cx, layers.vertices, "layer decomposition")
    wanted = sorted(set(int(k) for k in ks))
    layer = layers.layer
    occupied = set(layer.tolist())
    n = cx.max_degree
    sup: dict[tuple, tuple] = {}
    for g in range(0, n):
        k_of = layer[cx.topology.vertex_index(g)].min(axis=1)
        j, x, _ = cx.topology.extension_coo(g)
        fwd = np.bincount(j[layer[x] == k_of[j] + 1], minlength=cx.size(g))
        for k in wanted:
            rows = np.flatnonzero(k_of == k)
            if rows.size:
                # argmax gives the first maximizer, the witness in index order, named from its row
                best = rows[np.argmax(fwd[rows])]
                row = cx.topology.vertex_index(g)[best].tolist()
                sup[(g, k)] = (int(fwd[best]), tuple(map(cx.topology.vertices.__getitem__, row)))
    out = {}
    for k in wanted:
        if k < 0 or k not in occupied:
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
    table hold the last measured value, and a negative index is refused.
    """
    if callable(xi):
        return xi
    seq = list(xi)
    last = next((x for x in reversed(seq) if x is not None), None)

    def fn(j: int):
        if j < 0:
            raise ValueError(f"no growth xi({j}): layers start at 0")
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
        x = fn(k)
        if x is None:
            raise ValueError(f"the growth xi({k}) of layer {k} is undefined")
        x = float(x)
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
    the cut-off of ``make_cutoff_system`` for the ramp ("divergence", xi, horizon).

    Returns (vertex_chi, info): ``{label: value}`` where the cut-off is
    positive, and the "tail_sum" and "layer_profile" of ``budget_profile``.
    """
    profile, tail = budget_profile(_as_xi_fn(xi), N, horizon, int(layers.layer.max(initial=0)))
    return _positive_part(layers, np.append(profile, 0.0)), {"tail_sum": tail, "layer_profile": profile}


@dataclass
class Step3Report:
    N: int
    tail_sum: float
    degrees: list
    remainder_norms: list
    cochain_norms: list
    smallest_C: list


def step3_estimate(cx: WeightedComplex, layers: LayerDecomposition, chi: Mapping | np.ndarray,
                   u: tuple, tail_sum: float, N: int) -> Step3Report:
    """Remainder norms ||R_d(chi, u_i)|| per degree against the budget bound.

    For each component the smallest admissible C in
    ||R_d||^2 <= C * tail_sum^{-1} * ||u_i||^2 is reported; remainders decay
    as N grows whenever the budget sums grow.
    """
    c = _vertex_array(cx, chi)
    rnorms = [_coboundary_remainder(cx, c, _simplex_means(cx, c, f.degree), f)[1] for f in u]
    unorms = [norm(cx, i, f.values) for i, f in enumerate(u)]
    consts = [r ** 2 * tail_sum / un ** 2 if un > 0 else 0.0 for r, un in zip(rnorms, unorms)]
    return Step3Report(N=N, tail_sum=tail_sum, degrees=list(range(len(u))),
                       remainder_norms=rnorms, cochain_norms=unorms, smallest_C=consts)
