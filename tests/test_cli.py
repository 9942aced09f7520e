import json
import time

import pytest

from hodgelab.cli import main
from hodgelab.complexes import complex_from_json

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

    K3 = build_clique_complex(unit_graph("abc", [("a", "b"), ("a", "c"), ("b", "c")]), 2)
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
