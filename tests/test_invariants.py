"""Cross-module invariants: generator soundness, kernel characterization,
complex scalars, exhaustion exclusions, radial JSON rule."""

import json

import numpy as np
import pytest

from hodgelab import Cochain, build_clique_complex, complex_from_json, complex_to_json
from hodgelab.chi import make_ball_exhaustion
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
    coboundary_matrix,
    codifferential_matrix,
    inner_product,
    random_cochain,
)
from hodgelab.spectral import hodge_decompose

from conftest import unit_graph
from oracles import verify_clique_soundness, verify_face_closure


ALL_GENERATORS = [
    ("lattice", lambda: gen_lattice(2, 2, 4)),
    ("lattice3", lambda: gen_lattice(3, 3, 2)),
    ("nearest", lambda: gen_lattice(2, 2, 4, "nearest")),
    ("perturbed", lambda: gen_perturbed_lattice(2, 2, 4, lattice_cube(4, 2))),
    ("alternating", lambda: gen_alternating_triangulation(4)),
    ("tree", lambda: gen_truncated_tree(2, 4)),
    ("offspring-tree", lambda: offspring_tree_family(2, 5)),
    ("offspring_tree_quad", lambda: offspring_tree_family("n^2", 4)),
    ("radial", lambda: radial_weighting(offspring_tree_family(2, 4), {()}, 2.0)),
]


@pytest.mark.parametrize("name,make", ALL_GENERATORS)
def test_generator_outputs_pass_core_invariants(name, make):
    cx = make()
    verify_face_closure(cx)
    verify_clique_soundness(cx)
    for i in range(cx.max_degree + 1):
        assert np.all(cx.weights[i] > 0)
        table = cx.simplices[i]
        assert table == sorted(table)
        assert all(s == tuple(sorted(s)) for s in table)


def test_kernel_is_harmonic_intersection(four_cycle):
    # ker L = ker d  ∩ ker delta, compared through principal angles
    cx = four_cycle
    ell = 1
    dec = hodge_decompose(cx, ell)
    K = dec.basis_ker
    d = coboundary_matrix(cx, ell) if ell < cx.max_degree else None
    delta = codifferential_matrix(cx, ell)
    for j in range(K.shape[1]):
        v = K[:, j]
        assert np.linalg.norm(delta @ v) <= 1e-10
        if d is not None and cx.size(ell + 1):
            assert np.linalg.norm(d @ v) <= 1e-10
    # principal angles against an independent null-space computation
    import scipy.linalg

    A = []
    if cx.size(ell + 1):
        A.append(coboundary_matrix(cx, ell).toarray())
    A.append(codifferential_matrix(cx, ell).toarray())
    stacked = np.vstack(A)
    null = scipy.linalg.null_space(stacked)
    assert null.shape[1] == K.shape[1]
    # orthonormalize K in the euclidean sense for the angle computation
    Q, _ = np.linalg.qr(K)
    angles = np.linalg.svd(Q.T @ null, compute_uv=False)
    assert np.all(np.abs(angles - 1.0) <= 1e-8)


def test_complex_scalars_supported(K3):
    rng = np.random.default_rng(0)
    f = Cochain(0, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    g = Cochain(1, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    from hodgelab.operators import coboundary_apply, codifferential_apply

    lhs = inner_product(K3, 1, coboundary_apply(K3, f).values, g.values)
    rhs = inner_product(K3, 0, f.values, codifferential_apply(K3, g).values)
    assert abs(lhs - rhs) <= 1e-12
    assert isinstance(lhs, complex)


def test_exhaustion_reports_excluded_components():
    g = unit_graph("abcd", [("a", "b"), ("c", "d")])
    cx = build_clique_complex(*g, 1)
    exh = make_ball_exhaustion(cx, {"a"}, 3)
    assert set(exh.excluded) == {"c", "d"}
    assert exh.layer.tolist() == [0, 1, -1, -1]  # a, b, c, d


def test_json_radial_weight_rule():
    base = gen_lattice(1, 1, 4, "nearest")
    doc = complex_to_json(base)
    doc.pop("weights")
    doc["weight_rule"] = {"kind": "radial", "alpha": 2.0, "base": [[0]]}
    cx = complex_from_json(doc)
    idx = cx.index_of(1, ((1,), (2,)))
    assert np.isclose(cx.weights[1][idx], 3.0 ** -2)


def test_energy_zero_iff_locally_constant():
    from hodgelab.chi import energy_functional

    cx = gen_lattice(2, 2, 3)
    const = {v: 0.7 for v in cx.topology.vertices}
    assert energy_functional(cx, const, 1)[0] == 0.0
    bump = dict(const)
    bump[(0, 0)] = 1.0
    assert energy_functional(cx, bump, 1)[0] > 0.0
