"""Every output check of the benchmark passes on hodgelab's outputs and fails
on a slightly perturbed copy of them.  Workloads run at their tiny scale."""

import copy
import json

import pytest

import workloads


def run_twice(cls, tmp_path_factory):
    wl = cls(seed=3, workdir=tmp_path_factory.mktemp(cls.name), scale="tiny")
    wl.setup()
    first = wl.run_pass()
    again = wl.run_pass()
    return wl, first, [wl.summary(again)]


@pytest.fixture(scope="module")
def cutoff(tmp_path_factory):
    return run_twice(workloads.CutoffEnergy, tmp_path_factory)


@pytest.fixture(scope="module")
def growth(tmp_path_factory):
    return run_twice(workloads.GrowthSpectra, tmp_path_factory)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return run_twice(workloads.CliRoundtrip, tmp_path_factory)


def errors_after(run, perturb):
    wl, first, summaries = run
    out, sums = copy.deepcopy(first), copy.deepcopy(summaries)
    perturb(out, sums)
    return wl.check(out, sums)


def assert_caught(run, perturb, fragment):
    errors = errors_after(run, perturb)
    assert any(fragment in e for e in errors), errors


@pytest.mark.parametrize("name", ["cutoff", "growth", "cli"])
def test_unperturbed_outputs_pass(name, request):
    wl, first, summaries = request.getfixturevalue(name)
    assert wl.check(first, summaries) == []


def test_cli_counts_only_the_malformed_invocations_as_failed(cli):
    wl, first, _ = cli
    failed = sorted(n for n, r in first["results"].items() if not r["passed"])
    assert failed == ["hodge-degree-5", "mixed-vertex-ids", "spectrum-degree-5"]
    assert (first["attempted"], first["failed"]) == (10, 3)


# --- cutoff-energy ---------------------------------------------------------

def test_unit_entry_scaled(cutoff):
    def perturb(out, _):
        out["unit"][0][1] *= 1.01
    assert_caught(cutoff, perturb, "depends on k")
    assert_caught(cutoff, lambda out, _: out["unit"][1].__setitem__(0, out["unit"][1][0] * 1.01),
                  "unit energy degree 2")


def test_radial_entry_above_unit(cutoff):
    def perturb(out, _):
        out["radial"][1][0][2] = out["unit"][0][2] * 1.01
    assert_caught(cutoff, perturb, "outside")


def test_radial_entry_below_lower_bound(cutoff):
    wl = cutoff[0]

    def perturb(out, _):
        out["radial"][0][1][0] = out["unit"][1][0] * 2.0 ** -wl.alphas[0] / 1.01
    assert_caught(cutoff, perturb, "outside")


def test_plateau_value_changed(cutoff):
    def perturb(out, _):
        s = out["step3"][0]
        v = next(v for v in s["chi"] if len(v) <= s["N"])
        s["chi"][v] = 0.99
    assert_caught(cutoff, perturb, "N=")


def test_layer_value_not_constant(cutoff):
    def perturb(out, _):
        s = out["step3"][0]
        v = next(v for v in s["chi"] if len(v) == s["N"] + 1)
        s["chi"][v] *= 1.01
    assert_caught(cutoff, perturb, "not constant")


def test_tail_sum_scaled(cutoff):
    def perturb(out, _):
        out["step3"][1]["tail_sum"] *= 1.01
    assert_caught(cutoff, perturb, "tail_sum")


def test_remainders_not_decreasing(cutoff):
    def perturb(out, _):
        out["step3"][-1]["remainder_norms"] = list(out["step3"][0]["remainder_norms"])
    assert_caught(cutoff, perturb, "strictly decreasing")


def test_cutoff_pass_differs(cutoff):
    def perturb(_, sums):
        sums[0]["radial"][0][0][0] *= 1.01
    assert_caught(cutoff, perturb, "differs from the first pass")


# --- growth-spectra ----------------------------------------------------------

def first_row(out):
    return out["sweeps"][0]["rows"][-1]


def test_partial_sum_scaled(growth):
    def perturb(out, _):
        first_row(out)["partial_sum"] *= 1.01
    assert_caught(growth, perturb, "partial_sum")


def test_count_changed(growth):
    def perturb(out, _):
        first_row(out)["counts"][2] += 1
    assert_caught(growth, perturb, "counts")


def test_eigenvalue_shifted(growth):
    def perturb(out, _):
        first_row(out)["smallest_eigenvalues"]["2"][0] += 1e-6
    assert_caught(growth, perturb, "vs reference")


def test_sigma_probe_changed(growth):
    def perturb(out, _):
        first_row(out)["sigma_min_plus"]["1"] += 1e-6
    assert_caught(growth, perturb, "sigma_min_plus")


def test_boundary_probe_below_one(growth):
    def perturb(out, _):
        first_row(out)["sigma_min_boundary_down"]["0"] = 0.999
    assert_caught(growth, perturb, "boundary-down")


def test_l1_above_l0_gap(growth):
    def perturb(out, _):
        eig = first_row(out)["smallest_eigenvalues"]
        eig["1"][0] = eig["0"][1] * 1.01
    assert_caught(growth, perturb, "lambda_min(L_1)")


def test_growth_pass_differs(growth):
    def perturb(_, sums):
        sums[0][1]["rows"][0]["smallest_eigenvalues"]["1"][0] += 1e-6
    assert_caught(growth, perturb, "differs from the first pass")


# --- cli-roundtrip -----------------------------------------------------------

def edit_report(out, name, fn):
    r = out["results"][name]
    r["report"] = fn(r["report"].decode()).encode()


def edit_json_report(out, name, fn):
    def edit(text):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc)
    edit_report(out, name, edit)


def test_report_byte_changed(cli):
    wl = cli[0]

    def perturb(out, sums):
        later = copy.deepcopy(out)
        report = later["results"]["chi-region"]["report"]
        later["results"]["chi-region"]["report"] = report[:-2] + b"~" + report[-1:]
        sums[0] = wl.summary(later)
    assert_caught(cli, perturb, "differs from the first pass")


def test_description_round_trip(cli):
    def perturb(out, _):
        edit_json_report(out, "generate-perturbed",
                         lambda doc: doc["vertices"].append(dict(doc["vertices"][0])))
    assert_caught(cli, perturb, "round trip")


def test_radial_weight_changed(cli):
    def perturb(out, _):
        edit_json_report(out, "generate-perturbed",
                         lambda doc: doc["edges"][3].__setitem__("m1", doc["edges"][3]["m1"] * 1.01))
    assert_caught(cli, perturb, "radial weights")


def test_exported_entry_changed(cli):
    def perturb(out, _):
        def edit(text):
            lines = text.splitlines()
            r, c, v = lines[5].split()
            lines[5] = f"{r} {c} {float(v) * 1.01!r}"
            return "\n".join(lines) + "\n"
        edit_report(out, "assemble", edit)
    assert_caught(cli, perturb, "exported L_1")


def test_partial_sums_changed(cli):
    def perturb(out, _):
        edit_json_report(out, "divergence", lambda doc: doc["result"]["partial_sums"].__setitem__(
            1, doc["result"]["partial_sums"][1] * 1.01))
    assert_caught(cli, perturb, "running sums")


def test_cross_simplices_changed(cli):
    def perturb(out, _):
        edit_json_report(out, "chi-region",
                         lambda doc: doc["result"]["coupling"].__setitem__(
                             "cross_simplices", doc["result"]["coupling"]["cross_simplices"] + 1))
    assert_caught(cli, perturb, "cross_simplices")


def test_hodge_dims_changed(cli):
    def perturb(out, _):
        edit_json_report(out, "hodge", lambda doc: doc["result"]["dims"].__setitem__(
            0, doc["result"]["dims"][0] + 1))
    assert_caught(cli, perturb, "hodge dims")


def test_well_formed_command_failing(cli):
    def perturb(out, _):
        out["results"]["assemble"].update(rc=1, passed=False)
    assert_caught(cli, perturb, "assemble: rc=1")
