"""Run one hodgelab benchmark workload and print its metrics as one JSON line.

    python3 hodgebench/run.py --workload cutoff-energy --seed 1 --seconds 30 --trace 0

The workload runs in this process as a closed loop with one caller: set-up
(repeated, median reported), one warm-up pass, then timed passes until
``--seconds`` have gone by.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, and writes the span tree of the last traced pass to
``hodgebench/out/``.  Outputs are checked after the timed passes.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
MIN_PASSES = 3
COUNTERS = {
    "complexes.built": "count",
    "complexes.simplices_built": "count",
    "chi.energy_evals": "count",
    "chi.cutoffs_built": "count",
    "operators.incidence_builds": "count",
    "operators.block_nnz": "count",
    "operators.applies": "count",
    "spectral.dense_solves": "count",
    "spectral.iterative_solves": "count",
    "spectral.solved_rows": "count",
    "cli.report_bytes": "bytes",
}


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop, to show host drift."""
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_workloads():
    src = ROOT / "src"
    if not (src / "hodgelab" / "__init__.py").is_file():
        raise SystemExit(f"error: hodgelab sources not found under {src}")
    sys.path.insert(0, str(src))
    import hodgelab
    import workloads

    if Path(hodgelab.__file__).resolve().parent != src / "hodgelab":
        raise SystemExit(f"error: hodgelab imported from {hodgelab.__file__}, not {src}")
    return workloads


def fresh_import_s() -> float:
    """Time to import the workloads, and with them hodgelab, numpy and scipy,
    in a fresh interpreter: the import part of set-up, measured again."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; import workloads; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1])


def timed(fn):
    t = time.perf_counter()
    result = fn()
    return time.perf_counter() - t, result


def run(args) -> dict:
    import_s, workloads = timed(import_workloads)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        import_s = [import_s] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
        build_s = [timed(wl.setup)[0] for _ in range(SETUP_REPEATS)]
        first = wl.run_pass()  # warm-up; its outputs are the ones checked in full
        passes = Passes(wl, first)
        if args.trace:
            metrics = traced_loop(wl, args, passes)
        else:
            metrics = untraced_loop(wl, args, passes)
            metrics["setup_s"] = (statistics.median(import_s) + statistics.median(build_s), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        errors = wl.check(first, passes.summaries)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


class Passes:
    """Operation counts of every pass and the summaries of the passes after
    warm-up.  Full outputs are kept for the warm-up pass only, so memory
    does not grow with the number of passes."""

    def __init__(self, wl, first: dict):
        self.wl = wl
        self.attempted, self.failed = first["attempted"], first["failed"]
        self.summaries = []

    def add(self, out: dict) -> None:
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.summaries.append(self.wl.summary(out))


def untraced_loop(wl, args, passes):
    times = []
    t0 = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        dt, out = timed(wl.run_pass)
        times.append(dt)
        passes.add(out)
        del out
    print("pass times: " + " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
    return {"pass_s": (statistics.median(times), "s")}


def traced_loop(wl, args, passes):
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    plain, traced, ref, per_pass = [], [], [], []
    t0 = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        ref.append(reference_loop())
        dt, out = timed(wl.run_pass)
        plain.append(dt)
        passes.add(out)
        del out
        ref.append(reference_loop())
        tracer.reset()
        tracer.install()
        try:
            root = tracer.open("pass", "bench")
            dt, out = timed(wl.run_pass)
            tracer.close(root)
        finally:
            tracer.uninstall()
        traced.append(dt)
        passes.add(out)
        del out
        per_pass.append((tracer.layer_self_times(), dict(tracer.counts)))
    write_trace(args, tracer, per_pass)
    med = statistics.median
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med(s.get(layer, 0.0) for s, _ in per_pass), "s")
    for name, unit in COUNTERS.items():
        metrics[name] = (med(c.get(name, 0) for _, c in per_pass), unit)
    metrics["trace.overhead_s"] = (med(traced) - med(plain), "s")
    metrics["host.ref_loop_s"] = (med(ref), "s")
    return metrics


def write_trace(args, tracer, per_pass) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": [{"self_s": s, "counts": c} for s, c in per_pass],
        "span_fields": ["id", "parent", "layer", "name", "thread", "start", "end"],
        "last_pass_spans": tracer.to_json(),
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
