"""Command-line interface: generation, assembly, energy checks, divergence
reports and spectral sweeps, emitted as reproducible JSON/CSV reports.

Every report embeds the run configuration and tool version, and identical
configurations produce byte-identical output.  Verdicts are data:
only malformed input sets a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from . import chi as chi_mod
from . import divergence as div_mod
from . import generators as gen
from . import spectral
from .complexes import _decode_vertex, complex_from_json, complex_to_json, induced_subcomplex
from .operators import assemble_block, export_coordinate_text

__all__ = ["main", "build_parser"]


def _parse_range(text: str, flag: str) -> list[int]:
    if ".." in text:
        a, b = text.split("..")
        values = list(range(int(a), int(b) + 1))
    else:
        values = [int(x) for x in text.split(",") if x]
    if not values:
        raise ValueError(f"empty {flag} {text!r}")
    return values


def _load_complex(path: str):
    with open(path) as fh:
        return complex_from_json(json.load(fh))


def _emit(args, result: dict, stream=None) -> None:
    stream = stream or sys.stdout
    report = {
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None},
        "result": result,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        stream.write(text + "\n")


def _json_default(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, tuple):
        return list(x)
    raise TypeError(f"not JSON serializable: {type(x)}")


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# --- commands ---------------------------------------------------------------

def cmd_generate(args) -> int:
    kind = args.kind
    if kind == "lattice":
        cx = gen.gen_lattice(args.d, args.n, args.radius, args.adjacency)
    elif kind == "perturbed":
        region = gen.lattice_cube(args.side, args.d)
        cx = gen.gen_perturbed_lattice(args.d, args.n, args.radius, region, args.adjacency)
    elif kind == "alternating":
        cx = gen.gen_alternating_triangulation(args.radius)
    elif kind == "tree":
        cx = gen.gen_truncated_tree(args.n_tri, args.depth)
    elif kind == "offspring-tree":
        cx = gen.offspring_tree_family(args.off, args.depth, args.tet_parity)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if args.radial_alpha is not None:
        base = {cx.topology.vertices[0]} if kind in ("tree", "offspring-tree") else {(0,) * args.d}
        cx = gen.radial_weighting(cx, base, args.radial_alpha)
    doc = complex_to_json(cx)
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    counts = cx.counts()
    print("counts: " + " ".join(f"|P_{i}|={c}" for i, c in enumerate(counts)), file=sys.stderr)
    return 0


def cmd_assemble(args) -> int:
    cx = _load_complex(args.input)
    block = assemble_block(cx, args.kind, args.degree)
    export_coordinate_text(block.matrix, args.output if args.output else sys.stdout)
    print(
        f"{args.kind} degree={args.degree} shape={block.matrix.shape} nnz={block.matrix.nnz}",
        file=sys.stderr,
    )
    return 0


def _roots_for(cx, args):
    if not args.roots:
        return [cx.topology.vertices[0]]
    roots = json.loads(args.roots)
    if not isinstance(roots, list):
        raise ValueError(f"--roots must be a JSON list of vertices, not {args.roots!r}")
    return [_decode_vertex(v) for v in roots]


def cmd_chi(args) -> int:
    cx = _load_complex(args.input)
    ks = _parse_range(args.k_range, "--k-range")
    if args.mode == "region":
        if not args.region_file:
            raise ValueError("region mode needs --region-file")
        with open(args.region_file) as fh:
            region = {_decode_vertex(v) for v in json.load(fh)}
        coupling = chi_mod.coupling_block(cx, region)
        cx = induced_subcomplex(cx, region)
        coupling_info = {
            "rank": coupling.rank,
            "sigma_max": coupling.sigma_max,
            "nnz": coupling.nnz,
            "cross_simplices": coupling.cross_simplices,
            "label": coupling.label,
        }
    else:
        coupling_info = None
    exh = chi_mod.make_ball_exhaustion(cx, _roots_for(cx, args), max(ks))
    if args.ramp == "linear":
        ramp = ("linear", args.ramp_width)
    else:
        layers = div_mod.layers_by_distance(cx, _roots_for(cx, args))
        # the outermost layer has no forward layer; its zero count is a
        # truncation artifact, so the budget extends the last interior value
        interior = range(max(1, layers.num_layers() - 1))
        table = div_mod.growth_table(cx, layers, interior)
        xi_seq = [table[k][0] for k in interior]
        if any(x is not None and x <= 0 for x in xi_seq):
            raise ValueError("growth vanishes on an interior layer; "
                             "no budget-weighted ramp exists (use --ramp linear)")
        ramp = ("divergence", div_mod._as_xi_fn(xi_seq), args.horizon)
    cutoffs = chi_mod.make_cutoff_system(cx, exh, ks, ramp, mode="global")
    if args.mode == "level":
        if args.level is None:
            raise ValueError("level mode needs --level")
        profile = chi_mod.check_level_chi(cx, cutoffs, args.level)
    else:
        profile = chi_mod.check_global_chi(cx, cutoffs)
    result = profile.to_json()
    if coupling_info:
        result["coupling"] = coupling_info
    _emit(args, result)
    return 0


def cmd_divergence(args) -> int:
    ks = _parse_range(args.k_range, "--k-range")
    result: dict = {}
    if args.xi:
        xi_fn = gen.parse_offspring(args.xi)
        psums = div_mod.divergence_partial_sums(xi_fn, ks)
        result["xi_model"] = args.xi
        result["breakdown"] = None
    else:
        cx = _load_complex(args.input)
        layers = (div_mod.layers_by_depth(cx) if args.layers == "depth"
                  else div_mod.layers_by_distance(cx, _roots_for(cx, args)))
        last = layers.num_layers() - 1
        if min(ks) < 0 or max(ks) > last:
            raise ValueError(f"--k-range {args.k_range!r} must lie within the layers 0..{last}")
        report = div_mod.validate_decomposition(cx, layers)
        table = div_mod.growth_table(cx, layers, ks)
        xi_seq = {k: table[k][0] for k in ks}
        psums = div_mod.divergence_partial_sums([xi_seq.get(k) for k in range(max(ks) + 1)], ks)
        result["breakdown"] = {
            str(k): {str(g): [b[0], list(b[1]) if b[1] else None]
                     for g, b in table[k][1].items()}
            for k in ks
        }
        result["decomposition_ok"] = report.ok
        result["unit_jump_violations"] = len(report.violations)
    result.update(psums.to_json())
    if args.cutoff_n is not None:
        if args.xi:
            profile, _ = chi_mod.budget_profile(xi_fn, args.cutoff_n, args.horizon, max(ks))
        else:
            _, info = div_mod.divergence_cutoffs(
                layers, [xi_seq.get(k) for k in range(max(ks) + 1)], args.cutoff_n, args.horizon)
            profile = info["layer_profile"]
        result["cutoff_profiles"] = {str(args.cutoff_n): {str(l): v for l, v in profile.items()}}
    _emit(args, result)
    return 0


def cmd_spectrum(args) -> int:
    cx = _load_complex(args.input)
    rep = spectral.spectrum(cx, args.degree, args.how_many, args.method, seed=args.seed)
    if args.format == "csv":
        lines = ["degree,eigenvalue_rank,value"]
        rank = 0
        for v, m in zip(rep.eigenvalues, rep.multiplicities):
            for _ in range(m):
                lines.append(f"{rep.degree},{rank},{_csv_cell(float(v))}")
                rank += 1
        text = "\n".join(lines) + "\n"
        (open(args.output, "w") if args.output else sys.stdout).write(text)
        return 0
    _emit(args, rep.to_json())
    return 0


def cmd_hodge(args) -> int:
    cx = _load_complex(args.input)
    dec = spectral.hodge_decompose(cx, args.degree, rank_tol=args.kernel_thresh)
    result = {
        "degree": dec.degree,
        "betti": dec.betti,
        "dims": list(dec.dims()),
        "table_size": cx.size(args.degree),
        "orthogonality_residual": spectral.hodge_orthogonality_residual(cx, dec),
    }
    if args.export_basis:
        import scipy.sparse as sp

        for name, B in (("im_d", dec.basis_im_d), ("ker", dec.basis_ker),
                        ("im_delta", dec.basis_im_delta)):
            export_coordinate_text(sp.csr_matrix(B), f"{args.export_basis}.{name}.txt")
    _emit(args, result)
    return 0


def cmd_sweep(args) -> int:
    depths = _parse_range(args.depths, "--depths")
    table = spectral.esa_sweep(args.off, depths, tet_parity=args.tet_parity,
                               how_many=args.how_many, seed=args.seed)
    if args.format == "csv":
        lines = ["depth,degree,eigenvalue_rank,value"]
        for row in table["rows"]:
            if row.get("refused"):
                continue
            for d, vals in sorted(row["smallest_eigenvalues"].items(), key=lambda kv: int(kv[0])):
                for rank, v in enumerate(vals):
                    lines.append(f"{row['depth']},{d},{rank},{_csv_cell(float(v))}")
        text = "\n".join(lines) + "\n"
        (open(args.output, "w") if args.output else sys.stdout).write(text)
        return 0
    _emit(args, table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hodgelab",
                                description="Weighted clique complexes: Hodge operators, "
                                            "completeness energies, divergence and spectra.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output")

    def spectral_common(sp):
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("generate", help="emit a complex description JSON")
    common(g)
    g.add_argument("--kind", required=True,
                   choices=("lattice", "perturbed", "alternating", "tree", "offspring-tree"))
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--n", type=int, default=2)
    g.add_argument("--radius", type=int, default=3)
    g.add_argument("--adjacency", choices=("freudenthal", "nearest"), default="freudenthal")
    g.add_argument("--side", type=int, default=4)
    g.add_argument("--n-tri", dest="n_tri", type=int, default=2)
    g.add_argument("--depth", type=int, default=4)
    g.add_argument("--off", default="2")
    g.add_argument("--tet-parity", dest="tet_parity", type=int, default=0)
    g.add_argument("--radial-alpha", dest="radial_alpha", type=float)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("assemble", help="assemble one operator block")
    common(a)
    a.add_argument("--input", required=True)
    a.add_argument("--kind", default="laplacian_block",
                   choices=("coboundary", "codifferential", "laplacian_block", "gauss_bonnet"))
    a.add_argument("--degree", type=int, default=0)
    a.set_defaults(func=cmd_assemble)

    c = sub.add_parser("chi", help="completeness energy profile")
    common(c)
    c.add_argument("--input", required=True)
    c.add_argument("--mode", choices=("global", "level", "region"), default="global")
    c.add_argument("--level", type=int)
    c.add_argument("--region-file", dest="region_file")
    c.add_argument("--k-range", dest="k_range", default="2..10")
    c.add_argument("--ramp", choices=("linear", "divergence"), default="linear")
    c.add_argument("--ramp-width", dest="ramp_width", type=float, default=1.0)
    c.add_argument("--horizon", type=int, default=1000)
    c.add_argument("--roots", help="JSON list of root vertices")
    c.set_defaults(func=cmd_chi)

    dv = sub.add_parser("divergence", help="growth function and partial sums")
    common(dv)
    dv.add_argument("--input")
    dv.add_argument("--xi", help="synthetic growth formula, e.g. n^2")
    dv.add_argument("--layers", choices=("depth", "distance"), default="depth")
    dv.add_argument("--k-range", dest="k_range", default="1..10")
    dv.add_argument("--cutoff-n", dest="cutoff_n", type=int)
    dv.add_argument("--horizon", type=int, default=1000)
    dv.add_argument("--roots")
    dv.set_defaults(func=cmd_divergence)

    s = sub.add_parser("spectrum", help="smallest eigenvalues of one block")
    common(s)
    s.add_argument("--input", required=True)
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--how-many", dest="how_many", type=int, default=6)
    s.add_argument("--method", choices=("auto", "dense", "iterative"), default="auto")
    spectral_common(s)
    s.set_defaults(func=cmd_spectrum)

    h = sub.add_parser("hodge", help="orthogonal splitting at one degree")
    common(h)
    h.add_argument("--input", required=True)
    h.add_argument("--degree", type=int, required=True)
    h.add_argument("--export-basis", dest="export_basis")
    h.add_argument("--kernel-thresh", dest="kernel_thresh", type=float,
                   default=spectral.KERNEL_THRESH)
    h.set_defaults(func=cmd_hodge)

    w = sub.add_parser("sweep", help="depth-indexed spectral sweep of a growth family")
    common(w)
    w.add_argument("--kind", choices=("offspring-tree",), default="offspring-tree")
    w.add_argument("--off", default="n^2")
    w.add_argument("--depths", default="4..10")
    w.add_argument("--tet-parity", dest="tet_parity", type=int, default=0)
    w.add_argument("--how-many", dest="how_many", type=int, default=4)
    spectral_common(w)
    w.set_defaults(func=cmd_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
