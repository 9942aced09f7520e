"""Committed CLI reports: each command below must reproduce its file under
``tests/golden/`` byte for byte.

The inputs are small descriptions written by ``generate`` (two ``generate``
outputs are kept as reports too); the commands run
in the input directory, so the paths in each report's config are relative.
Spectral commands (``spectrum``, ``hodge``, ``sweep``) are left out: their
last digits depend on the BLAS build.
"""

import json
from pathlib import Path

import pytest

from hodgelab.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = [
    ("lattice.json", ["--kind", "lattice", "--radius", "3"]),
    ("alternating.json", ["--kind", "alternating", "--radius", "3"]),
    ("tree.json", ["--kind", "offspring-tree", "--off", "2", "--depth", "5"]),
]
REGION = [[i, j] for i in range(-1, 2) for j in range(-1, 2)]

REPORTS = [
    ("chi-global.json", ["chi", "--input", "lattice.json", "--k-range", "1..4", "--roots", "[[0,0]]"]),
    ("chi-level.json", ["chi", "--input", "alternating.json", "--mode", "level", "--level", "2",
                        "--k-range", "1..4", "--roots", "[[0,0]]"]),
    ("chi-region.json", ["chi", "--input", "lattice.json", "--mode", "region",
                         "--region-file", "region.json", "--k-range", "1..3", "--roots", "[[0,0]]"]),
    ("chi-divergence-ramp.json", ["chi", "--input", "tree.json", "--k-range", "1..3",
                                  "--ramp", "divergence", "--horizon", "50", "--roots", "[[]]"]),
    ("divergence-measured.json", ["divergence", "--input", "tree.json", "--layers", "depth",
                                  "--k-range", "0..2", "--cutoff-n", "1", "--horizon", "40"]),
    ("divergence-synthetic.json", ["divergence", "--xi", "n^3", "--k-range", "1..3",
                                   "--cutoff-n", "1", "--horizon", "50"]),
    ("assemble.txt", ["assemble", "--input", "tree.json", "--kind", "gauss_bonnet"]),
    ("generate-perturbed-radial.json", ["generate", "--kind", "perturbed", "--radius", "3",
                                        "--side", "2", "--radial-alpha", "1.5"]),
    ("generate-offspring-tree.json", ["generate", "--kind", "offspring-tree", "--off", "n^2",
                                      "--depth", "3"]),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, argv in INPUTS:
        assert main(["generate", *argv, "--output", name]) == 0
    (tmp_path / "region.json").write_text(json.dumps(REGION))
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("name,argv", REPORTS, ids=[name for name, _ in REPORTS])
def test_report_matches_golden(workdir, capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
