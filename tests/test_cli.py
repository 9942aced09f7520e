import contextlib
import copy
import io
import json
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hodgelab import cli, spectral
from hodgelab.cli import main
from hodgelab.complexes import complex_from_json, complex_to_json
from hodgelab.generators import estimate_offspring_tree_size, gen_lattice, gen_truncated_tree, offspring_tree_family

from conftest import k3_description


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_lattice(tmp_path, capsys):
    out = tmp_path / "cx.json"
    code, _, err = run(capsys, "generate", "--kind", "lattice", "--d", "2", "--n", "2",
                       "--radius", "3", "--output", str(out))
    assert code == 0
    assert "|P_0|=49" in err and "|P_2|=72" in err
    doc = json.loads(out.read_text())
    cx = complex_from_json(doc)
    assert cx.counts() == (49, 120, 72)


def test_generate_offspring_tree(tmp_path, capsys):
    out = tmp_path / "e52.json"
    code, _, _ = run(capsys, "generate", "--kind", "offspring-tree", "--off", "n^2",
                     "--depth", "4", "--output", str(out))
    assert code == 0
    assert complex_from_json(json.loads(out.read_text())).max_degree == 3


def test_generate_truncated_tree(tmp_path, capsys):
    out = tmp_path / "tree.json"
    code, _, err = run(capsys, "generate", "--kind", "tree", "--n-tri", "2", "--depth", "4",
                       "--output", str(out))
    assert code == 0
    cx = gen_truncated_tree(2, 4)
    assert json.loads(out.read_text()) == json.loads(json.dumps(complex_to_json(cx)))
    assert err.strip() == "counts: " + " ".join(f"|P_{i}|={c}" for i, c in enumerate(cx.counts()))


def test_generate_roundtrip_identity(tmp_path, capsys):
    out = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "alternating", "--radius", "2", "--output", str(out))
    doc = json.loads(out.read_text())
    cx = complex_from_json(doc)
    from hodgelab.complexes import complex_to_json

    again = complex_to_json(cx)
    assert json.dumps(doc["weights"], sort_keys=True) == json.dumps(again["weights"], sort_keys=True)
    assert doc["edges"] == again["edges"]
    run(capsys, "generate", "--kind", "perturbed", "--radius", "3", "--side", "2",
        "--radial-alpha", "2", "--output", str(out))
    doc = json.loads(out.read_text())
    assert doc["meta"]["radial_alpha"] == 2.0
    assert complex_to_json(complex_from_json(doc)) == doc


def test_invalid_params_exit_nonzero(capsys):
    code, _, err = run(capsys, "generate", "--kind", "lattice", "--radius", "0")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("side,d", [("4000", "2"), ("10", "8"), ("2", "1000000")])
def test_perturbed_region_above_the_cap_is_refused(capsys, side, d):
    """The cube is refused before any of its side^d points is built."""
    code, _, err = run(capsys, "generate", "--kind", "perturbed", "--side", side, "--d", d, "--radius", "2")
    assert_one_line_error(code, err)
    assert err.strip() == f"error: the cube of side {side} in dimension {d} has more than 10000000 points"


@pytest.mark.parametrize("degree", [22, 23, 10 ** 6])
def test_max_degree_whose_simplex_passes_the_cap_is_refused(tmp_path, capsys, degree):
    """A degree-n simplex has 2^(n+1) - 1 faces: 2^23 - 1 lies under the cap
    of 10^7 simplices, 2^24 - 1 above it."""
    doc = complex_to_json(gen_lattice(2, 2, 1))
    doc["max_degree"] = degree
    cx_path = tmp_path / "cx.json"
    cx_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    if degree == 22:
        assert code == 0 and json.loads(out)["result"]["eigenvalues"][0] == 0.0
    else:
        assert_one_line_error(code, err)
        assert err.strip() == (f"error: max degree {degree} passes the cap: a degree-{degree} simplex "
                               f"has 2^{degree + 1} - 1 faces, more than 10000000")


def test_assemble_matrix_output(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "lattice", "--d", "1", "--n", "1", "--radius", "2",
        "--adjacency", "nearest", "--output", str(cx_path))
    mat = tmp_path / "d0.txt"
    code, _, err = run(capsys, "assemble", "--input", str(cx_path), "--kind", "coboundary",
                       "--degree", "0", "--output", str(mat))
    assert code == 0
    header = mat.read_text().splitlines()[0].split()
    assert header[0] == "4" and header[1] == "5"  # 4 edges x 5 vertices


def test_chi_report_and_determinism(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "lattice", "--radius", "8", "--output", str(cx_path))
    args = ["chi", "--input", str(cx_path), "--k-range", "2..5",
            "--roots", "[[0,0]]", "--ramp-width", "1"]
    code1, text1, _ = run(capsys, *args)
    code2, text2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert text1 == text2  # identical config => byte-identical report
    rep = json.loads(text1)
    assert rep["result"]["verdict"] == "BOUNDED_ON_RANGE"
    assert rep["version"]
    assert rep["config"]["k_range"] == "2..5"


def test_chi_level_mode(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "alternating", "--radius", "8", "--output", str(cx_path))
    out = tmp_path / "lvl.json"
    code, _, _ = run(capsys, "chi", "--input", str(cx_path), "--mode", "level", "--level", "1",
                     "--k-range", "2..5", "--roots", "[[0,0]]", "--output", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["degrees"] == [1]


def test_chi_region_mode(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "lattice", "--radius", "4", "--output", str(cx_path))
    region = tmp_path / "region.json"
    region.write_text(json.dumps([[i, j] for i in range(-2, 3) for j in range(-2, 3)]))
    out = tmp_path / "reg.json"
    code, _, _ = run(capsys, "chi", "--input", str(cx_path), "--mode", "region",
                     "--region-file", str(region), "--k-range", "1..2",
                     "--roots", "[[0,0]]", "--output", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert "coupling" in rep["result"]
    assert rep["result"]["coupling"]["label"] == "finite-truncation evidence"


def test_chi_divergence_ramp(tmp_path, capsys):
    cx_path = tmp_path / "growth.json"
    run(capsys, "generate", "--kind", "offspring-tree", "--off", "2", "--depth", "6",
        "--output", str(cx_path))
    out = tmp_path / "chi.json"
    code, _, _ = run(capsys, "chi", "--input", str(cx_path), "--k-range", "1..4",
                     "--ramp", "divergence", "--horizon", "200", "--roots", "[[]]",
                     "--output", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["notes"]["ramp"] == ["divergence", "<callable>", 200]


def test_divergence_synthetic(tmp_path, capsys):
    out = tmp_path / "div.json"
    code, _, _ = run(capsys, "divergence", "--xi", "n^2", "--k-range", "1..10",
                     "--output", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["result"]["partial_sums"][-1] - 2.9290) < 1e-3
    assert rep["result"]["classification"] == "divergent_log_like"


def test_divergence_synthetic_zero_growth_budget(capsys):
    code, _, err = run(capsys, "divergence", "--xi", "n-1", "--k-range", "2..3",
                       "--cutoff-n", "1", "--horizon", "5")
    assert_one_line_error(code, err)


def test_divergence_measured(tmp_path, capsys):
    cx_path = tmp_path / "e52.json"
    run(capsys, "generate", "--kind", "offspring-tree", "--off", "2", "--depth", "5",
        "--output", str(cx_path))
    out = tmp_path / "div.json"
    code, _, _ = run(capsys, "divergence", "--input", str(cx_path), "--layers", "depth",
                     "--k-range", "0..4", "--cutoff-n", "2", "--horizon", "100",
                     "--output", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["result"]["breakdown"] is not None
    assert rep["result"]["unit_jump_violations"] > 0  # closure edges, reported
    assert "cutoff_profiles" in rep["result"]


def test_spectrum_k3_values(tmp_path, capsys):
    from conftest import unit_graph
    from hodgelab import build_clique_complex
    from hodgelab.complexes import complex_to_json

    K3 = build_clique_complex(*unit_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")]), 2)
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(complex_to_json(K3)))
    code, out, _ = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0",
                       "--how-many", "3")
    assert code == 0
    rep = json.loads(out)
    flat = [v for v, m in zip(rep["result"]["eigenvalues"], rep["result"]["multiplicities"])
            for _ in range(m)]
    assert len(flat) == 3
    assert abs(flat[0]) <= 1e-10 and abs(flat[1] - 3.0) <= 1e-10 and abs(flat[2] - 3.0) <= 1e-10


def test_spectrum_csv(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "lattice", "--radius", "2", "--output", str(cx_path))
    code, out, _ = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0",
                       "--how-many", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,eigenvalue_rank,value"
    assert len(lines) == 4


def test_hodge_command(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "lattice", "--radius", "2", "--output", str(cx_path))
    out = tmp_path / "hodge.json"
    code, _, _ = run(capsys, "hodge", "--input", str(cx_path), "--degree", "1",
                     "--output", str(out))
    assert code == 0
    rep = json.loads(out.read_text())
    assert sum(rep["result"]["dims"]) == rep["result"]["table_size"]
    assert rep["result"]["orthogonality_residual"] <= 1e-10


def _read_coordinate_text(path):
    """The dense matrix of a file that ``export_coordinate_text`` wrote."""
    header, *lines = path.read_text().splitlines()
    rows, cols, nnz = map(int, header.split())
    assert nnz == len(lines)
    B = np.zeros((rows, cols))
    for line in lines:
        r, c, v = line.split()
        B[int(r) - 1, int(c) - 1] = float(v)
    return B


def test_hodge_exports_bases_orthonormal_in_the_weighted_inner_product(tmp_path, capsys):
    cx_path, prefix = tmp_path / "cx.json", tmp_path / "basis"
    run(capsys, "generate", "--kind", "alternating", "--radius", "2", "--output", str(cx_path))
    code, out, _ = run(capsys, "hodge", "--input", str(cx_path), "--degree", "1",
                       "--export-basis", str(prefix))
    assert code == 0
    result = json.loads(out)["result"]
    assert all(result["dims"])
    m = complex_from_json(json.loads(cx_path.read_text())).weights[1]
    for name, dim in zip(("im_d", "ker", "im_delta"), result["dims"]):
        B = _read_coordinate_text(tmp_path / f"basis.{name}.txt")
        assert B.shape == (result["table_size"], dim)
        np.testing.assert_allclose(B.T @ (m[:, None] * B), np.eye(dim), atol=1e-10)


def test_sweep_csv_and_json(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--off", "n^2", "--depths", "4..5",
                       "--how-many", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth,degree,eigenvalue_rank,value"
    out_json = tmp_path / "sweep.json"
    code, _, _ = run(capsys, "sweep", "--off", "n^2", "--depths", "4..5",
                     "--how-many", "2", "--output", str(out_json))
    rep = json.loads(out_json.read_text())
    assert [r["depth"] for r in rep["result"]["rows"]] == [4, 5]


def test_sweep_csv_leaves_out_refused_rows(monkeypatch, capsys):
    """Depth 7 of n^2 is estimated above the guard of 10^6 simplices, so it
    is refused and nothing is built for it."""
    assert estimate_offspring_tree_size("n^2", 7, 0) == 3_199_797
    built, family = [], spectral.offspring_tree_family
    monkeypatch.setattr(spectral, "offspring_tree_family",
                        lambda off, depth, parity: built.append(depth) or family(off, depth, parity))
    code, out, _ = run(capsys, "sweep", "--off", "n^2", "--depths", "4,7", "--format", "csv")
    assert code == 0 and built == [4]
    header, *lines = out.strip().splitlines()
    assert header == "depth,degree,eigenvalue_rank,value"
    assert lines and all(line.startswith("4,") for line in lines)


def test_sweep_at_depth_zero_is_the_one_vertex_row(capsys):
    code, out, _ = run(capsys, "sweep", "--off", "2", "--depths", "0")
    assert code == 0
    (row,) = json.loads(out)["result"]["rows"]
    assert row["partial_sum"] == 0.0  # the empty sum
    assert row["counts"] == [1, 0, 0, 0] and row["smallest_eigenvalues"]["0"] == [0.0]
    assert row["sigma_min_boundary_down"]["0"] == 1.0


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--depths", "-1"], "error: depth -1 must be nonnegative"),
    (["sweep", "--depths", "0..2", "--how-many", "-2"], "error: how_many = -2 must be at least 1"),
    (["spectrum", "--input", "cx.json", "--degree", "0", "--how-many", "0"],
     "error: how_many = 0 must be at least 1"),
])
def test_negative_depths_and_counts_below_one_are_refused(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "--kind", "lattice", "--radius", "2", "--output", "cx.json")
    code, _, err = run(capsys, *argv)
    assert_one_line_error(code, err)
    assert err.strip() == message


@pytest.mark.parametrize("argv,message", [
    (["chi", "--input", "cx.json", "--ramp-width", "nan", "--k-range", "0..3"],
     "error: ramp width nan must be finite and positive"),
    (["chi", "--input", "cx.json", "--ramp-width", "inf", "--k-range", "0..3"],
     "error: ramp width inf must be finite and positive"),
    (["chi", "--input", "cx.json", "--ramp-width", "1e309", "--k-range", "0..3"],
     "error: ramp width inf must be finite and positive"),
    (["generate", "--kind", "tree", "--n-tri", "-5", "--depth", "-3"],
     "error: depth -3 must be nonnegative and at least n_tri + 1"),
    (["generate", "--kind", "offspring-tree", "--depth", "2", "--tet-parity", "7"],
     "error: tet parity 7 must be 0 or 1"),
    (["sweep", "--off", "2", "--depths", "1", "--tet-parity", "-1"], "error: tet parity -1 must be 0 or 1"),
])
def test_a_ramp_width_tree_depth_or_tet_parity_out_of_range_is_refused(tmp_path, monkeypatch, capsys, argv,
                                                                      message):
    """A linear ramp width that is not finite and positive, a negative tree
    depth and a tet parity other than 0 or 1 each end in one error: line,
    where a report of NaN energies or a complex with the bad value in its
    meta was written."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "--kind", "lattice", "--radius", "2", "--output", "cx.json")
    code, out, err = run(capsys, *argv)
    assert_one_line_error(code, err)
    assert err.strip() == message and out == ""


@pytest.mark.parametrize("argv", [
    ["divergence", "--input", "tree.json", "--k-range", "0..3", "--cutoff-n", "1"],
    ["chi", "--input", "tree.json", "--ramp", "divergence", "--roots", "[[]]", "--k-range", "0..3"],
])
def test_a_horizon_above_the_cap_is_refused_before_the_budget_loop(tmp_path, monkeypatch, capsys, argv):
    """The cut-off budget takes one step per layer up to the horizon, so a
    horizon above MAX_OFFSPRING_SIMPLICES, which ran without end, is refused
    at once."""
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "--kind", "offspring-tree", "--off", "n^2", "--depth", "4", "--output", "tree.json")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--horizon", "1000000000000")
    assert time.perf_counter() - start < 5
    assert_one_line_error(code, err)
    assert err.strip() == "error: horizon 1000000000000 passes the cap of 10000000 layers" and out == ""


def assert_one_line_error(code, err):
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("command", ["spectrum", "hodge"])
def test_degree_out_of_range(tmp_path, capsys, command):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "lattice", "--radius", "2", "--output", str(cx_path))
    code, _, err = run(capsys, command, "--input", str(cx_path), "--degree", "5")
    assert_one_line_error(code, err)


def test_mixed_vertex_ids(tmp_path, capsys):
    cx_path = tmp_path / "mixed.json"
    cx_path.write_text(json.dumps({
        "vertices": [{"id": 0, "m0": 1.0}, {"id": "a", "m0": 1.0}],
        "edges": [{"u": 0, "v": "a", "m1": 1.0}], "max_degree": 1}))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)


def test_verdicts_do_not_fail_exit_code(tmp_path, capsys):
    # a growing profile is a finding, not an error
    cx_path = tmp_path / "e52.json"
    run(capsys, "generate", "--kind", "offspring-tree", "--off", "n^2", "--depth", "5",
        "--output", str(cx_path))
    out = tmp_path / "chi.json"
    code, _, _ = run(capsys, "chi", "--input", str(cx_path), "--k-range", "1..4",
                     "--roots", "[[]]", "--output", str(out))
    assert code == 0


@pytest.mark.parametrize("command", ["chi", "divergence"])
def test_empty_k_range(tmp_path, capsys, command):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "lattice", "--radius", "2", "--output", str(cx_path))
    code, _, err = run(capsys, command, "--input", str(cx_path), "--k-range", "5..2")
    assert_one_line_error(code, err)
    assert err.strip() == "error: empty --k-range '5..2'"


@pytest.mark.parametrize("k_range", ["0..6", "-1..2"])
def test_divergence_k_range_outside_the_layers(tmp_path, capsys, k_range):
    cx_path = tmp_path / "tree.json"
    run(capsys, "generate", "--kind", "offspring-tree", "--off", "n^2", "--depth", "4",
        "--output", str(cx_path))
    code, _, err = run(capsys, "divergence", "--input", str(cx_path), "--layers", "depth",
                       f"--k-range={k_range}")
    assert_one_line_error(code, err)
    assert "layers 0..4" in err


@pytest.mark.parametrize("k_range,cutoff_n,layer", [("2..4", "1", 1), ("1,2,4", "2", 3)])
def test_divergence_cutoff_over_unmeasured_growth_is_refused(tmp_path, capsys, k_range, cutoff_n, layer):
    cx_path = tmp_path / "tree.json"
    run(capsys, "generate", "--kind", "offspring-tree", "--off", "n^2", "--depth", "5",
        "--output", str(cx_path))
    code, _, err = run(capsys, "divergence", "--input", str(cx_path), "--layers", "depth",
                       "--k-range", k_range, "--cutoff-n", cutoff_n)
    assert_one_line_error(code, err)
    assert f"error: the growth xi({layer}) of layer {layer} is undefined" in err


@pytest.mark.parametrize("argv", [
    ["divergence", "--input", "tree.json", "--k-range", "0..3", "--cutoff-n", "-1", "--horizon", "5"],
    ["chi", "--input", "tree.json", "--ramp", "divergence", "--roots", "[[]]", "--k-range=-1..1",
     "--horizon", "5"],
    ["chi", "--input", "tree.json", "--roots", "[[]]", "--k-range=-1..1"],
])
def test_negative_plateau_index_is_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    run(capsys, "generate", "--kind", "offspring-tree", "--off", "n^2", "--depth", "4", "--output", "tree.json")
    code, _, err = run(capsys, *argv)
    assert_one_line_error(code, err)
    assert err.strip() == "error: the plateau index -1 must be nonnegative"


def test_depth_layers_of_number_ids_are_refused(tmp_path, capsys):
    cx_path = tmp_path / "numbers.json"
    cx_path.write_text(json.dumps({
        "vertices": [{"id": v, "m0": 1.0} for v in (0, 1, 2)],
        "edges": [{"u": 0, "v": 1, "m1": 1.0}, {"u": 1, "v": 2, "m1": 1.0}], "max_degree": 1}))
    code, _, err = run(capsys, "divergence", "--input", str(cx_path), "--k-range", "0..1")
    assert_one_line_error(code, err)
    assert err.startswith("error: vertex 0 has no length")
    code, out, _ = run(capsys, "divergence", "--input", str(cx_path), "--k-range", "0..1",
                       "--layers", "distance", "--roots", "[0]")
    assert code == 0 and json.loads(out)["result"]["decomposition_ok"]


def test_divergence_unbounded_formula_is_refused(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "divergence", "--xi", "9^9^9", "--k-range", "1..2")
    assert time.perf_counter() - start < 1.0
    assert_one_line_error(code, err)


@pytest.mark.parametrize("bad", [-3.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("field,name", [("m0", "m0('a')"), ("m1", "m1('a','b')"),
                                        ("m", "degree-2 weight m('a', 'b', 'c')")])
def test_weights_not_finite_and_positive_are_refused(tmp_path, capsys, field, name, bad):
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(k3_description(**{field: bad})))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert f"error: {name} = " in err and "must be finite and positive" in err


@pytest.mark.parametrize("rule,kind", [({"kind": "constant", "value": 2.0}, "'constant'"),
                                       ({"kind": "radail", "alpha": 1.0, "base": ["a"]}, "'radail'")])
def test_unknown_weight_rule_kind_is_refused(tmp_path, capsys, rule, kind):
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(dict(k3_description(), weight_rule=rule)))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert f"error: unknown weight_rule kind {kind}" in err


@pytest.mark.parametrize("degree", ["3", "-1"])
def test_weights_of_a_degree_outside_the_complex_are_refused(tmp_path, capsys, degree):
    cx_path = tmp_path / "k3.json"
    doc = k3_description()
    doc["weights"][degree] = []
    cx_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert f"error: weights of degree {degree} outside 0..2" in err


@pytest.mark.parametrize("command", ["chi", "divergence"])
@pytest.mark.parametrize("roots,message", [
    ('[{"x": 1}]', "error: root {'x': 1} not in complex"),
    ("5", "error: --roots must be a JSON list of vertices, not '5'"),
    ('[[0,0], "a"]', "error: root (0, 0) not in complex"),
])
def test_malformed_roots_are_refused(tmp_path, capsys, command, roots, message):
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(k3_description()))
    extra = ["--layers", "distance", "--k-range", "0..1"] if command == "divergence" else []
    code, _, err = run(capsys, command, "--input", str(cx_path), "--roots", roots, *extra)
    assert_one_line_error(code, err)
    assert err.strip() == message


@pytest.mark.parametrize("command", [["chi", "--ramp", "divergence"], ["divergence", "--layers", "distance"]])
def test_vertices_unreachable_from_the_roots_are_refused_alike(tmp_path, capsys, command):
    cx_path = tmp_path / "split.json"
    cx_path.write_text(json.dumps({"vertices": [{"id": v, "m0": 1.0} for v in "abcd"], "max_degree": 1,
                                   "edges": [{"u": "a", "v": "b", "m1": 1.0}, {"u": "c", "v": "d", "m1": 1.0}]}))
    code, _, err = run(capsys, *command, "--input", str(cx_path), "--k-range", "0..1")
    assert_one_line_error(code, err)
    assert err.strip() == "error: 2 vertices unreachable from roots"


def _without_weights(doc):
    return {k: v for k, v in doc.items() if k != "weights"}


RADIAL = {"kind": "radial", "alpha": 1.0, "base": ["a"]}


@pytest.mark.parametrize("doc,message", [
    (dict(k3_description(), weights={"2": []}, weight_rule=RADIAL),
     "a description gives either weights lists or a weight_rule, not both"),
    (dict(_without_weights(k3_description()), weight_rule={"kind": "radial", "alpha": 1.0}),
     "radial weight_rule needs 'base'"),
    (dict(_without_weights(k3_description()), weight_rule={"kind": "radial", "base": ["a"]}),
     "radial weight_rule needs 'alpha'"),
    (dict(_without_weights(k3_description()), weight_rule=dict(RADIAL, base=[{"x": 1}])),
     "root {'x': 1} not in complex"),
])
def test_malformed_weight_rule_is_refused(tmp_path, capsys, doc, message):
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(dict(_without_weights(k3_description()), weight_rule=RADIAL)))
    code, _, _ = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert code == 0
    cx_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("key,field,entry", [
    ("vertices", "m0", "vertex 'a'"),
    ("edges", "m1", "edge ('a','b')"),
    ("2", "m", "degree-2 simplex ('a', 'b', 'c')"),
])
def test_entries_listed_twice_with_different_weights_are_refused(tmp_path, capsys, key, field, entry):
    """An entry repeated with its weight loads as one entry; with another
    weight it is refused."""
    doc = k3_description()
    entries = doc["weights"]["2"] if key == "2" else doc[key]
    entries.append(dict(entries[0]))
    assert [w.tolist() for w in complex_from_json(doc).weights] == [[1.0] * 3, [1.0] * 3, [1.0]]
    entries[-1][field] = 5.0
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert err.strip() == f"error: {entry} listed twice with different weights"


def _with_id(doc, vertex=None, simplex=None):
    """K3 with vertex c renamed ``vertex`` everywhere, or with ``simplex``
    as its listed triangle."""
    if vertex is not None:
        doc["vertices"][2]["id"] = doc["edges"][1]["v"] = doc["edges"][2]["v"] = vertex
        doc["weights"]["2"][0]["simplex"][2] = vertex
    if simplex is not None:
        doc["weights"]["2"][0]["simplex"] = simplex
    return doc


@pytest.mark.parametrize("doc,message", [
    (_with_id(k3_description(), vertex={"x": 1}), "vertex {'x': 1}"),
    (_with_id(k3_description(), vertex=["c", {"x": 1}]), "vertex ('c', {'x': 1})"),
    (_with_id(k3_description(), simplex=["a", "b", {"x": 1}]), "degree-2 simplex ('a', 'b', {'x': 1})"),
    (dict(k3_description(), edges=[{"u": "a", "v": "b", "m1": 1.0}, {"u": "b", "v": ["c", {"x": 1}], "m1": 1.0}]),
     "edge ('b',('c', {'x': 1}))"),
])
def test_unhashable_ids_are_refused(tmp_path, capsys, doc, message):
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert err.strip() == f"error: {message} is not hashable: ids are numbers, strings or lists of them"


@pytest.mark.parametrize("region,message", [
    ([{"x": 1}], "error: --region-file vertex {'x': 1} is not hashable"),
    (5, "error: --region-file must hold a JSON list of vertices, not 5"),
    ({"a": 1}, "error: --region-file must hold a JSON list of vertices, not {'a': 1}"),
])
def test_malformed_region_file_is_refused(tmp_path, capsys, region, message):
    cx_path, region_path = tmp_path / "k3.json", tmp_path / "region.json"
    cx_path.write_text(json.dumps(k3_description()))
    region_path.write_text(json.dumps(["a", "b"]))
    argv = ["chi", "--input", str(cx_path), "--mode", "region", "--region-file", str(region_path),
            "--k-range", "0..1", "--roots", '["a"]']
    code, _, _ = run(capsys, *argv)
    assert code == 0
    region_path.write_text(json.dumps(region))
    code, _, err = run(capsys, *argv)
    assert_one_line_error(code, err)
    assert err.strip() == message


def test_weights_keys_naming_one_degree_twice_are_refused(tmp_path, capsys):
    doc = k3_description()
    doc["weights"]["02"] = []
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert err.strip() == "error: weights key '02' names degree 2 again"


@pytest.mark.parametrize("doc,message", [
    ([k3_description()], "description document must be an object, not [{'vertices': [{'id': 'a', 'm0': 1.0}, {"),
    (dict(k3_description(), vertices=["a", "b", "c"]),
     "description 'vertices' entry must be an object, not 'a'"),
    (dict(k3_description(), edges=5), "description 'edges' must be a list, not 5"),
    (dict(k3_description(), max_degree=None), "description 'max_degree' must be an integer, not None"),
    (dict(k3_description(), max_degree=2.5), "description 'max_degree' must be an integer, not 2.5"),
    (k3_description(m0=[1]), "m0('a') = [1] is not a number"),
    (dict(k3_description(), weights=[1]), "description 'weights' must be an object, not [1]"),
    (dict(k3_description(), weights={"2": 5}), "description 'weights' of degree 2 must be a list, not 5"),
    (dict(k3_description(), weights={"2": [{"simplex": 5, "m": 1.0}]}),
     "description degree-2 'simplex' must be a list, not 5"),
    (dict(_without_weights(k3_description()), weight_rule=dict(RADIAL, base=5)),
     "description weight_rule 'base' must be a list, not 5"),
    (dict(k3_description(), meta=[1]), "description 'meta' must be an object, not [1]"),
    *[(dict(_without_weights(k3_description()), weight_rule=dict(RADIAL, alpha=alpha)),
       f"description weight_rule 'alpha' must be a number, not {alpha!r}") for alpha in ([1], {}, "x")],
])
def test_description_of_the_wrong_shape_is_refused(tmp_path, capsys, doc, message):
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("argv", [["generate", "--kind", "lattice", "--radius", "2", "--output"],
                                  ["spectrum", "--degree", "0", "--input"]])
def test_a_directory_as_input_or_output_is_refused(tmp_path, capsys, argv):
    code, _, err = run(capsys, *argv, str(tmp_path))
    assert_one_line_error(code, err)
    assert str(tmp_path) in err


@pytest.mark.parametrize("flags", [[], ["--xi", "n^2", "--input", "k3.json"]])
def test_divergence_needs_exactly_one_of_input_and_xi(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k3.json").write_text(json.dumps(k3_description()))
    code, _, err = run(capsys, "divergence", "--k-range", "0..1", *flags)
    assert_one_line_error(code, err)
    assert err.strip() == "error: divergence needs exactly one of --input and --xi"


@pytest.mark.parametrize("kind", ["lattice", "offspring-tree"])
def test_hodge_reads_beta_of_the_lattice_and_the_tree(tmp_path, capsys, kind):
    """beta_1 = 0 on the radius-2 lattice and beta_0 = 1 on the binary tree."""
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", kind, "--radius", "2", "--off", "2", "--depth", "5",
        "--output", str(cx_path))
    degree = "1" if kind == "lattice" else "0"
    code, out, _ = run(capsys, "hodge", "--input", str(cx_path), "--degree", degree)
    assert code == 0 and json.loads(out)["result"]["betti"] == (0 if kind == "lattice" else 1)


@pytest.mark.parametrize("field,name", [("m0", "m0('a')"), ("m1", "m1('a','b')"),
                                        ("m", "degree-2 weight m('a', 'b', 'c')")])
def test_weights_beyond_the_float_range_are_refused(tmp_path, capsys, field, name):
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(k3_description(**{field: 10 ** 400})))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert err.strip() == f"error: {name} = inf must be finite and positive"


@pytest.mark.parametrize("weight,message", [(1.0, None), (2.0, "asymmetric weight for edge ('a', 'b')")])
def test_an_edge_listed_both_ways_loads_once_or_is_refused(tmp_path, capsys, weight, message):
    doc = k3_description()
    doc["edges"].append({"u": "b", "v": "a", "m1": weight})
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    if message is None:
        assert code == 0 and complex_from_json(doc).counts() == (3, 3, 1)
    else:
        assert_one_line_error(code, err)
        assert err.strip() == f"error: {message}"


def test_non_cliques_whose_ids_do_not_compare_are_named_in_list_order(tmp_path, capsys):
    doc = k3_description()
    doc["weights"]["2"] = [{"simplex": [0, 1, "a"], "m": 1}, {"simplex": [0, 1, [2]], "m": 1}]
    cx_path = tmp_path / "k3.json"
    cx_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0")
    assert_one_line_error(code, err)
    assert err.strip() == "error: degree-2 weights reference non-cliques: [(0, 1, 'a'), (0, 1, (2,))]"


@pytest.mark.parametrize("argv", [["assemble", "--kind", "laplacian_block", "--degree", "1"],
                                  ["hodge", "--degree", "1"],
                                  ["divergence", "--layers", "depth", "--k-range", "0..2"]])
def test_commands_that_read_by_position_build_no_label_lookups(tmp_path, monkeypatch, capsys, argv):
    """The loaded complex of these commands builds neither its label tuples
    nor its label-to-position map."""
    cx_path = tmp_path / "tree.json"
    run(capsys, "generate", "--kind", "offspring-tree", "--off", "n^2", "--depth", "3", "--output", str(cx_path))
    load, loaded = cli._load_complex, []
    monkeypatch.setattr(cli, "_load_complex", lambda path: loaded.append(load(path)) or loaded[-1])
    code, _, _ = run(capsys, *argv, "--input", str(cx_path))
    assert code == 0
    (cx,) = loaded
    assert cx.topology._simplices is None and "_position" not in vars(cx.topology)


# strings that stress the emitter: quotes, backslash runs, the structural
# bytes, non-ASCII and control characters
_TRICKY_TEXT = st.text(st.one_of(st.sampled_from(list('"\\[]{},: ')), st.characters()), max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 30, 10 ** 30)
    | st.floats(allow_nan=True, allow_infinity=True) | _TRICKY_TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TRICKY_TEXT, children, max_size=4),
    max_leaves=25)


@given(_JSON_VALUES)
@example("\\\\\"")
@example({"a": [], "b": {}, "c": [[], [{}]], "": {"\\": "\\\\"}})
@example(7)
def test_the_emitter_is_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_the_parser_is_built_once_and_keeps_no_options_between_calls(tmp_path, capsys):
    cx_path = tmp_path / "cx.json"
    run(capsys, "generate", "--kind", "lattice", "--radius", "1", "--output", str(cx_path))
    code, _, _ = run(capsys, "spectrum", "--input", str(cx_path), "--degree", "0", "--format", "csv")
    assert code == 0
    code, out, _ = run(capsys, "hodge", "--input", str(cx_path), "--degree", "0")
    assert code == 0
    assert sorted(json.loads(out)["config"]) == ["command", "degree", "input"]
    assert cli._parser() is cli._parser()


_BASE = json.loads(json.dumps(complex_to_json(gen_lattice(2, 2, 1))))
_BAD_VALUES = [None, True, False, 0, -1, 2, 2.5, -0.0, 0.0, float("inf"), float("nan"), 10 ** 400,
               "a", "1.5", "", [], {}, [0], [[0, 0]], [0, [1]], {"x": 1}, [0, 0], [1, 0], [0, 0, 0]]
_RULES_AND_WEIGHTS = [{"kind": "radial", "base": [[0, 0]], "alpha": 2.0},
                      {"kind": "radial", "base": [[5, 5]], "alpha": 1.0},
                      {"kind": "radial", "base": [], "alpha": 1.0}, {"2": []}, {"1": []}, {"3": []}]
_BAD_DEGREES = [None, True, -1, 0, 1, 3, 2.5, "2", [], {}, 10 ** 6]


@st.composite
def _edits(draw):
    """One edit of a description, ``(key, index, field, action, value)``: an
    action on field ``field`` of entry ``index`` of a list, or on a top-level
    key (index None), or ``key`` "doc" for the whole document."""
    key = draw(st.sampled_from(["vertices", "edges", "weights", "max_degree", "meta", "weight_rule", "doc"]))
    if key in ("vertices", "edges", "weights"):
        entries = _BASE["weights"]["2"] if key == "weights" else _BASE[key]
        index = draw(st.integers(0, len(entries) - 1))
        field = draw(st.sampled_from(sorted(entries[0]) + [None]))
        action = draw(st.sampled_from(["set", "delete", "repeat", "repeat-reweighted", "drop", "replace"]))
        return (key, index, field, action, draw(st.sampled_from(_BAD_VALUES)))
    values = _BAD_DEGREES if key == "max_degree" else _BAD_VALUES + _RULES_AND_WEIGHTS
    return (key, None, None, draw(st.sampled_from(["set", "delete"])), draw(st.sampled_from(values)))


_WEIGHT_FIELD = {"vertices": "m0", "edges": "m1", "weights": "m"}


def _edited(doc, edit):
    """``doc`` with ``edit`` made, or unchanged where an earlier edit removed
    what this one edits."""
    key, index, field, action, value = edit
    value = copy.deepcopy(value)
    try:
        if key == "doc":
            return value if action == "set" else doc
        if index is None:
            if action == "set":
                doc[key] = value
            else:
                doc.pop(key, None)
            return doc
        entries = doc["weights"]["2"] if key == "weights" else doc[key]
        entry = entries[index]
        if action == "set" and field is not None:
            entry[field] = value
        elif action == "delete" and field is not None:
            del entry[field]
        elif action == "repeat":
            entries.append(copy.deepcopy(entry))
        elif action == "repeat-reweighted":
            entries.append(dict(copy.deepcopy(entry), **{_WEIGHT_FIELD[key]: 3.0}))
        elif action == "drop":
            del entries[index]
        elif action == "replace":
            entries[index] = value
    except (LookupError, TypeError, ValueError, AttributeError):
        pass
    return doc


@given(st.lists(_edits(), min_size=1, max_size=3))
@example([("vertices", 0, "m0", "set", 10 ** 400)])
@example([("edges", 1, None, "repeat-reweighted", None), ("weights", 0, "simplex", "set", [[0, 0]])])
@example([("edges", 0, None, "drop", None)])
@example([("weight_rule", None, None, "set", {"kind": "radial", "base": [[0, 0]], "alpha": 10 ** 400}),
          ("weights", None, None, "delete", None)])
def test_mutated_descriptions_load_or_end_in_one_error_line(tmp_path_factory, edits):
    """Wrong types, repeated or missing entries and ids, missing faces and bad
    weights: every call exits 0, or exits 1 with exactly one error: line."""
    doc = copy.deepcopy(_BASE)
    for edit in edits:
        doc = _edited(doc, edit)
    path = tmp_path_factory.mktemp("fuzz") / "cx.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["spectrum", "--input", str(path), "--degree", "0", "--how-many", "2"])
    if code:
        assert_one_line_error(code, err.getvalue())
    else:
        assert err.getvalue() == ""


# well-formed calls of every subcommand on small fixtures in the directory DIR;
# no call writes a file
_FUZZ_CALLS = [
    "generate --kind lattice --d 2 --n 2 --radius 1 --adjacency nearest",
    "generate --kind perturbed --side 2 --radius 1 --radial-alpha 2",
    "generate --kind alternating --radius 1",
    "generate --kind tree --n-tri 1 --depth 3",
    "generate --kind offspring-tree --off 2 --depth 2 --tet-parity 1",
    "assemble --input DIR/lattice.json --kind gauss_bonnet --degree 1",
    "chi --input DIR/lattice.json --k-range 0..3 --ramp-width 2.5 --roots [[0,0]]",
    "chi --input DIR/tree.json --ramp divergence --roots [[]] --k-range 0..2 --horizon 5",
    "chi --input DIR/lattice.json --mode level --level 2 --k-range 1,2",
    "chi --input DIR/lattice.json --mode region --region-file DIR/region.json --k-range 0..2",
    "divergence --input DIR/tree.json --k-range 0..2 --cutoff-n 1 --horizon 5",
    "divergence --input DIR/lattice.json --layers distance --roots [[0,0]] --k-range 0..1",
    "divergence --xi n^2 --k-range 1..5 --cutoff-n 1 --horizon 8",
    "spectrum --input DIR/lattice.json --degree 1 --how-many 3 --format csv --seed 2",
    "hodge --input DIR/lattice.json --degree 1",
    "sweep --off 2 --depths 0..2 --tet-parity 1 --how-many 2 --seed 1",
]
# negative, zero, huge, not a number, infinite, beyond the float range, text,
# empty, reversed and malformed ranges, malformed JSON.  The huge value stays
# at 10^5 and range endpoints below 10^3: the cut-off budget runs over every
# layer up to --horizon, and the reports of --xi over every layer up to the
# largest k.  No value is 1: --off 1 with a huge depth runs 10^7 layers
# before the size cap refuses it.
_FUZZ_VALUES = ["-3", "0", "100000", "nan", "inf", "1e309", "2.5", "x", "", "3..1", "1..", "..", "a..b",
                "1..2..3", "1,,x", "998..999", "-2..1", "[", "[[0,0]", "{}", "[1]", "[[9,9]]", "null", "[[]]"]


@st.composite
def _mutated_calls(draw):
    """A well-formed call with 1 to 3 edits ``(action, flag, value)``: set
    the flag's value, drop the flag, or repeat it."""
    argv = draw(st.sampled_from(_FUZZ_CALLS)).split()
    edit = st.tuples(st.sampled_from(["set", "set", "drop", "repeat"]), st.sampled_from(argv[1::2]),
                     st.sampled_from(_FUZZ_VALUES))
    return argv, draw(st.lists(edit, min_size=1, max_size=3))


def _edited_call(argv, edits):
    """``argv`` with ``edits`` made; an edit of a flag dropped before is skipped."""
    pairs = [argv[i:i + 2] for i in range(1, len(argv), 2)]
    for action, flag, value in edits:
        pair = next((p for p in pairs if p[0] == flag), None)
        if pair is None:
            continue
        if action == "set":
            pair[1] = value
        elif action == "drop":
            pairs.remove(pair)
        else:
            pairs.append(list(pair))
    return argv[:1] + [x for p in pairs for x in p]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("args")
    (path / "lattice.json").write_text(json.dumps(complex_to_json(gen_lattice(2, 2, 1))))
    (path / "tree.json").write_text(json.dumps(complex_to_json(offspring_tree_family(2, 3))))
    (path / "region.json").write_text(json.dumps([[0, 0], [0, 1], [1, 0], [1, 1]]))
    return path


def _no_constant(name):
    raise AssertionError(f"the report holds {name}, which is not JSON")


@given(_mutated_calls())
@example((_FUZZ_CALLS[6].split(), [("set", "--ramp-width", "nan")]))
@example((_FUZZ_CALLS[6].split(), [("set", "--ramp-width", "inf")]))
@example((_FUZZ_CALLS[6].split(), [("set", "--ramp-width", "1e309")]))
@example((_FUZZ_CALLS[3].split(), [("set", "--n-tri", "-5"), ("set", "--depth", "-3")]))
@example((_FUZZ_CALLS[4].split(), [("set", "--tet-parity", "7")]))
@example((_FUZZ_CALLS[15].split(), [("set", "--tet-parity", "-1")]))
@example((_FUZZ_CALLS[11].split(), [("drop", "--layers", "")]))  # depth layers 0 and 1 hold no vertex
def test_mutated_arguments_run_or_end_in_one_error_line(fuzz_dir, call):
    """Every call exits 0 with a report of standard JSON, or exits 1 with
    exactly one error: line, or exits 2 from argparse; nothing else is
    raised."""
    argv = [a.replace("DIR", str(fuzz_dir)) for a in _edited_call(*call)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exit:  # argparse refuses the call with its usage line
            assert exit.code == 2, argv
            return
    if code:
        assert_one_line_error(code, err.getvalue())
    elif out.getvalue().startswith("{"):
        json.loads(out.getvalue(), parse_constant=_no_constant)
