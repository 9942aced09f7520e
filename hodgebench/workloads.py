"""The benchmark's workloads: inputs built from a seed, one pass, and checks.

Each workload has ``setup()`` (builds the inputs every pass reuses and may be
repeated), ``run_pass()`` (one closed-loop pass of hodgelab calls; returns its
outputs and the operations it attempted), ``summary(out)`` (a compact form of
a pass's outputs that later passes must reproduce) and ``check(first,
summaries)`` (a list of failed checks, empty when the outputs are correct).
Every hodgelab function is called through its module attribute, so the
tracer's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import oracles
from hodgelab import chi, cli, complexes, divergence, generators, operators, spectral

TOL_EXACT = 1e-12


def _xi_quadratic(j: int) -> int:
    """Growth model of the quadratic offspring family for the step-3 budget."""
    return max(1, j * j)


def _floats(rows) -> list:
    return [[float(x) for x in row] for row in rows]


def _same(a, b, rtol: float) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k], rtol) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


class CutoffEnergy:
    """Completeness-energy sweep: one linear-ramp cut-off system on a
    Freudenthal patch, its unit-weight profile, radial reweightings sharing
    that system, and the divergence cut-offs with the step-3 remainder
    estimate on the quadratic offspring tree."""

    name = "cutoff-energy"
    rtol = 0.0
    SCALES = {
        "full": dict(radius=30, ks=tuple(range(2, 22)), tree_depth=5, Ns=(1, 2, 3), horizon=1000),
        "tiny": dict(radius=6, ks=(2, 3, 4, 5), tree_depth=4, Ns=(1, 2), horizon=50),
    }
    ROOT = (0, 0)

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.seed = seed
        self.cfg = self.SCALES[scale]

    def setup(self) -> None:
        cfg = self.cfg
        rng = np.random.default_rng(self.seed)
        # two exponents, one on each side of alpha = 2; the work does not depend on them
        self.alphas = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(2.0, 8.0)))
        self.lattice = generators.gen_lattice(2, 2, cfg["radius"])
        self.tree = generators.offspring_tree_family("n^2", cfg["tree_depth"])
        self.layers = divergence.layers_by_depth(self.tree)
        # the step-3 cochains of acceptance criterion 5, damped by 4^-layer
        u = []
        for d in range(self.tree.max_degree + 1):
            vals = rng.standard_normal(self.tree.size(d))
            vals *= np.array([0.25 ** min(len(v) for v in s) for s in self.tree.simplices[d]])
            nv = operators.norm(self.tree, d, vals)
            u.append(operators.Cochain(d, vals / nv if nv > 0 else vals))
        self.u = tuple(u)

    def run_pass(self) -> dict:
        cfg = self.cfg
        exh = chi.make_ball_exhaustion(self.lattice, {self.ROOT}, max(cfg["ks"]))
        cutoffs = chi.make_cutoff_system(self.lattice, exh, cfg["ks"], ("linear", 1))
        unit = chi.check_global_chi(self.lattice, cutoffs)
        radial = []
        for alpha in self.alphas:
            weighted = generators.radial_weighting(self.lattice, {self.ROOT}, alpha)
            radial.append(_floats(chi.check_global_chi(weighted, cutoffs).table))
        step3 = []
        for N in cfg["Ns"]:
            vertex_chi, info = divergence.divergence_cutoffs(
                self.layers, _xi_quadratic, N, cfg["horizon"])
            rep = divergence.step3_estimate(self.tree, self.layers, vertex_chi, self.u,
                                            info["tail_sum"], N)
            step3.append({"N": N, "chi": vertex_chi, "tail_sum": info["tail_sum"],
                          "remainder_norms": [float(r) for r in rep.remainder_norms]})
        ops = 3 + 2 * len(self.alphas) + 2 * len(cfg["Ns"])
        return {"degrees": list(unit.degrees), "unit": _floats(unit.table), "radial": radial,
                "step3": step3, "attempted": ops, "failed": 0}

    def summary(self, out: dict) -> dict:
        return {"unit": out["unit"], "radial": out["radial"],
                "step3": [{k: s[k] for k in ("N", "tail_sum", "remainder_norms")}
                          for s in out["step3"]]}

    def check(self, out: dict, summaries: list) -> list:
        cfg, errors = self.cfg, []
        ks = list(cfg["ks"])
        unit = dict(zip(out["degrees"], out["unit"]))
        for d, row in unit.items():
            if max(row) - min(row) > TOL_EXACT:
                errors.append(f"unit row of degree {d} depends on k: {row}")
        for idx in sorted({0, len(ks) // 2, len(ks) - 1}):
            want = oracles.unit_ramp_energy_sups(cfg["radius"], self.ROOT, ks[idx])
            for d, row in unit.items():
                if not _close(row[idx], want[d], TOL_EXACT):
                    errors.append(f"unit energy degree {d} k={ks[idx]}: {row[idx]} != {want[d]}")
        for alpha, table in zip(self.alphas, out["radial"]):
            lo = 2.0 ** -alpha
            for d, row in zip(out["degrees"], table):
                for k, e_u, e_a in zip(ks, unit[d], row):
                    if not lo * e_u * (1 - TOL_EXACT) <= e_a <= e_u * (1 + TOL_EXACT):
                        errors.append(f"radial alpha={alpha} degree {d} k={k}: {e_a} "
                                      f"outside [{lo * e_u}, {e_u}]")
        totals = []
        depth_of = {v: len(v) for v in self.tree.graph.vertices}
        for s in out["step3"]:
            N = s["N"]
            per_layer: dict = {}
            for v, layer in depth_of.items():
                per_layer.setdefault(layer, set()).add(s["chi"].get(v, 0.0))
            for layer, values in sorted(per_layer.items()):
                if len(values) != 1:
                    errors.append(f"N={N}: cut-off not constant on layer {layer}: {sorted(values)}")
                elif layer <= N and values != {1.0}:
                    errors.append(f"N={N}: cut-off {values} on plateau layer {layer}")
            tail = math.fsum(1.0 / math.sqrt(_xi_quadratic(j)) for j in range(N, cfg["horizon"] + 1))
            if s["tail_sum"] != tail:
                errors.append(f"N={N}: tail_sum {s['tail_sum']!r} != {tail!r}")
            totals.append(math.sqrt(math.fsum(r * r for r in s["remainder_norms"])))
        if any(a <= b for a, b in zip(totals, totals[1:])):
            errors.append(f"step-3 remainder totals not strictly decreasing in N: {totals}")
        errors += _repeat_errors(self, out, summaries)
        return errors


class GrowthSpectra:
    """Depth sweeps of spectral diagnostics over the quadratic and binary
    offspring families, built inside the sweep as users run it."""

    name = "growth-spectra"
    # eigenvalues come from iterative solves; passes must agree to 1e-9
    rtol = 1e-9
    SCALES = {
        "full": dict(families=(("n^2", (4, 5, 6)), ("2", (8, 9, 10))), how_many=4),
        "tiny": dict(families=(("n^2", (3, 4)), ("2", (4, 5))), how_many=4),
    }

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.seed = seed
        self.cfg = self.SCALES[scale]

    def setup(self) -> None:
        self.families = self.cfg["families"]

    def run_pass(self) -> dict:
        sweeps = [spectral.esa_sweep(off, depths, how_many=self.cfg["how_many"], seed=self.seed)
                  for off, depths in self.families]
        return {"sweeps": sweeps, "attempted": len(sweeps), "failed": 0}

    def summary(self, out: dict) -> dict:
        return out["sweeps"]

    def check(self, out: dict, summaries: list) -> list:
        errors = []
        how_many = self.cfg["how_many"]
        for (off, depths), sweep in zip(self.families, out["sweeps"]):
            if [row["depth"] for row in sweep["rows"]] != list(depths):
                errors.append(f"off={off}: rows {[r['depth'] for r in sweep['rows']]} != {depths}")
                continue
            for row in sweep["rows"]:
                where = f"off={off} depth={row['depth']}"
                if row.get("refused"):
                    errors.append(f"{where}: refused")
                    continue
                if not _close(row["partial_sum"], oracles.partial_sum(off, row["depth"]), TOL_EXACT):
                    errors.append(f"{where}: partial_sum {row['partial_sum']} != "
                                  f"{oracles.partial_sum(off, row['depth'])}")
                tables = oracles.offspring_tables(off, row["depth"])
                counts = [len(t) for t in tables]
                if row["counts"] != counts:
                    errors.append(f"{where}: counts {row['counts']} != {counts}")
                    continue
                errors += self._spectral_errors(where, row, tables, how_many)
        errors += _repeat_errors(self, out, summaries)
        return errors

    @staticmethod
    def _spectral_errors(where, row, tables, how_many) -> list:
        errors = []
        eig = {int(d): v for d, v in row["smallest_eigenvalues"].items()}
        for d, vals in eig.items():
            lam = vals[0]
            want = math.sqrt(lam * lam + 1.0)
            for key in ("sigma_min_plus", "sigma_min_minus"):
                sigma = row[key][str(d)]
                if sigma < 1.0 or not _close(sigma, want, 1e-11):
                    errors.append(f"{where} degree {d}: {key} {sigma} != sqrt(lambda^2+1) = {want}")
            if row["sigma_min_boundary_down"][str(d)] < 1.0:
                errors.append(f"{where} degree {d}: boundary-down probe below 1")
            ones = [np.ones(len(t)) for t in tables]
            ref = oracles.smallest_eigenvalues(oracles.symmetrized_block(tables, ones, d), how_many)
            unmatched = ([v for v in vals if min(abs(v - r) for r in ref) > 1e-8]
                         + [r for r in ref if min(abs(v - r) for v in vals) > 1e-8])
            if unmatched:
                errors.append(f"{where} degree {d}: eigenvalues {vals} vs reference {ref}")
        positive0 = [v for v in eig[0] if v > spectral.KERNEL_THRESH]
        if positive0 and eig[1][0] > positive0[0] * (1 + 1e-9):
            errors.append(f"{where}: lambda_min(L_1) {eig[1][0]} above the smallest "
                          f"positive eigenvalue of L_0 {positive0[0]}")
        return errors


class CliRoundtrip:
    """In-process CLI commands whose descriptions and reports are written to
    files and read back, plus three malformed invocations that must end in a
    one-line ``error:`` and exit code 1."""

    name = "cli-roundtrip"
    rtol = 0.0
    SCALES = {
        "full": dict(radius=20, side=6, tree_depth=5, small_radius=3, chi_k="2..12",
                     div_k="1..4", cutoff_n=2),
        "tiny": dict(radius=5, side=4, tree_depth=3, small_radius=2, chi_k="2..4",
                     div_k="1..2", cutoff_n=1),
    }
    BASE = (0, 0)

    def __init__(self, seed: int, workdir: Path, scale: str = "full"):
        self.seed = seed
        self.dir = Path(workdir)
        self.cfg = self.SCALES[scale]

    def setup(self) -> None:
        cfg = self.cfg
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        self.alpha = float(rng.uniform(0.5, 4.0))
        lo = -(cfg["side"] // 2)
        self.region = [(i, j) for i in range(lo, lo + cfg["side"]) for j in range(lo, lo + cfg["side"])]
        (self.dir / "region.json").write_text(json.dumps([list(v) for v in self.region]))
        mixed = {"vertices": [{"id": 0, "m0": 1.0}, {"id": "a", "m0": 1.0}],
                 "edges": [{"u": 0, "v": "a", "m1": 1.0}], "max_degree": 1}
        (self.dir / "mixed.json").write_text(json.dumps(mixed))
        self.ops = self._ops()

    def _ops(self) -> list:
        cfg, p = self.cfg, lambda name: str(self.dir / name)
        ok = [
            ("generate-perturbed", ["generate", "--kind", "perturbed", "--radius", str(cfg["radius"]),
                                    "--side", str(cfg["side"]), "--radial-alpha", repr(self.alpha)]),
            ("generate-tree", ["generate", "--kind", "offspring-tree", "--off", "n^2",
                               "--depth", str(cfg["tree_depth"])]),
            ("generate-small", ["generate", "--kind", "lattice", "--radius", str(cfg["small_radius"])]),
            ("chi-region", ["chi", "--input", p("generate-perturbed.out"), "--mode", "region",
                            "--region-file", p("region.json"), "--k-range", cfg["chi_k"]]),
            ("divergence", ["divergence", "--input", p("generate-tree.out"), "--k-range", cfg["div_k"],
                            "--cutoff-n", str(cfg["cutoff_n"])]),
            ("assemble", ["assemble", "--input", p("generate-perturbed.out"),
                          "--kind", "laplacian_block", "--degree", "1"]),
            ("hodge", ["hodge", "--input", p("generate-small.out"), "--degree", "1"]),
        ]
        malformed = [
            ("spectrum-degree-5", ["spectrum", "--input", p("generate-small.out"), "--degree", "5"]),
            ("hodge-degree-5", ["hodge", "--input", p("generate-small.out"), "--degree", "5"]),
            ("mixed-vertex-ids", ["spectrum", "--input", p("mixed.json"), "--degree", "0"]),
        ]
        return ([(name, argv + ["--output", p(name + ".out")], True) for name, argv in ok]
                + [(name, argv + ["--output", p("malformed.out")], False) for name, argv in malformed])

    def run_pass(self) -> dict:
        results, failed = {}, 0
        for name, argv, well_formed in self.ops:
            err = io.StringIO()
            rc, raised = None, None
            try:
                with contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
            except Exception as exc:  # an escaping exception is the failure being counted
                raised = type(exc).__name__
            lines = err.getvalue().splitlines()
            if well_formed:
                passed = rc == 0 and raised is None
                report = Path(argv[-1]).read_bytes() if passed else None
            else:
                passed = rc == 1 and len(lines) == 1 and lines[0].startswith("error:")
                report = None
            failed += not passed
            results[name] = {"rc": rc, "raised": raised, "passed": passed,
                             "well_formed": well_formed, "report": report}
        return {"results": results, "attempted": len(self.ops), "failed": failed}

    def summary(self, out: dict) -> dict:
        return {name: [r["passed"], hashlib.sha256(r["report"] or b"").hexdigest()]
                for name, r in out["results"].items()}

    def check(self, out: dict, summaries: list) -> list:
        errors = []
        res = out["results"]
        for name, r in res.items():
            if r["well_formed"] and not r["passed"]:
                errors.append(f"{name}: rc={r['rc']} raised={r['raised']}")
        if errors:
            return errors
        text = {name: r["report"].decode() for name, r in res.items() if r["well_formed"]}
        doc = json.loads(text["generate-perturbed"])
        back = complexes.complex_to_json(complexes.complex_from_json(doc))
        for key in ("vertices", "edges", "max_degree", "weights"):
            if json.dumps(back.get(key), sort_keys=True) != json.dumps(doc.get(key), sort_keys=True):
                errors.append(f"description round trip changes {key!r}")
        bad = oracles.radial_weight_errors(doc, [self.BASE], self.alpha)
        if bad:
            errors.append(f"{len(bad)} radial weights differ from (1 + max distance)^-alpha: {bad[:2]}")
        tables, weights = oracles.description_tables(doc)
        L_ref = oracles.laplacian_block(tables, weights, 1)
        L_got = oracles.read_coordinate_text(text["assemble"])
        scale = max(1.0, float(abs(L_ref).max()))
        if L_got.shape != L_ref.shape or abs(L_got - L_ref).max() > TOL_EXACT * scale:
            errors.append("exported L_1 differs from the reference assembly")
        div = json.loads(text["divergence"])["result"]
        running, total = [], 0.0
        for x in div["xi"]:
            total += math.inf if x == 0 else 1.0 / math.sqrt(x)
            running.append(total)
        got = [math.inf if s == "inf" else s for s in div["partial_sums"]]
        if len(got) != len(running) or not all(
                g == w or _close(g, w, TOL_EXACT) for g, w in zip(got, running)):
            errors.append(f"divergence partial sums {got} are not running sums {running}")
        cross = json.loads(text["chi-region"])["result"]["coupling"]["cross_simplices"]
        want = oracles.cross_simplex_count(doc, self.region)
        if cross != want:
            errors.append(f"region cross_simplices {cross} != {want}")
        hodge = json.loads(text["hodge"])["result"]
        if sum(hodge["dims"]) != hodge["table_size"] or hodge["dims"][1] != hodge["betti"]:
            errors.append(f"hodge dims {hodge['dims']} do not split table size {hodge['table_size']}")
        errors += _repeat_errors(self, out, summaries)
        return errors


def _repeat_errors(workload, out: dict, summaries: list) -> list:
    first = workload.summary(out)
    return [f"pass {i + 1} differs from the first pass"
            for i, s in enumerate(summaries) if not _same(first, s, workload.rtol)]


WORKLOADS = {w.name: w for w in (CutoffEnergy, GrowthSpectra, CliRoundtrip)}
