"""One repetition of a workload in a fresh interpreter.

Started by run.py, which passes the ``time.perf_counter`` reading taken just
before it started this process (``--t0``; on Linux the clock is shared by all
processes), so set-up time runs from a fresh interpreter to ready: import
floqlux, write the seeded inputs and parse their configs.  The timed phase
is the sum of the stages: from the first call into floqlux to the last
export written.  Each stage's export is copied aside between stages, off
the clock, and checked once the peak RSS has been read.  Inputs and exports
go to the current directory, the outcome to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_threads(np):
    """Thread count the loaded OpenBLAS will use, or None if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def _cell_files(out: Path) -> set:
    return set(out.glob(".cells/*/*.json"))


class SweepCounter:
    """Cache hits and computed cells per ff call, counted from the cell files."""

    def __init__(self):
        self.results = []
        self.jobs = self.hits = self.computed = 0

    def on_return(self, layer, result) -> None:
        if layer == "sweeps.run_sweep":
            self.results.append(result)

    def count(self, out: Path, before: set, n_results_before: int) -> None:
        """Count the sweeps run since ``n_results_before`` results were seen.

        A job is a hit when its cell file existed before the call, and
        computed when the call wrote its file.
        """
        for result in self.results[n_results_before:]:
            cells = set(out.glob(f".cells/{result.config_hash}/*.json"))
            hits, computed = len(cells & before), len(cells - before)
            self.hits += hits
            self.computed += computed
            self.jobs += hits + computed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--reference", choices=("check", "write"),
                    help="compare the exports with the stored reference, or store them as it")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import floqlux as fl
    import floqlux.cli  # noqa: F401  (not imported by the package root)
    if Path(fl.__file__).resolve().parent != ROOT / "src" / "floqlux":
        raise SystemExit(f"imported floqlux from {fl.__file__}, not from this checkout")

    import tracer
    import workloads

    rng = np.random.default_rng(args.seed % 2**64)
    stages = workloads.WORKLOADS[args.workload](fl, rng, Path(), args.small)
    setup_s = time.perf_counter() - args.t0

    counter = SweepCounter()
    trace = tracer.Tracer(on_return=counter.on_return) if args.trace else None
    out_dir = Path("out")
    wall = cpu = 0.0
    if trace is not None:
        trace.install()
    try:
        for stage in stages:
            if trace is not None:
                before, n_before = _cell_files(out_dir), len(counter.results)
            c0, w0 = _rusage_cpu(), time.perf_counter()
            stage.run(fl)
            w1, c1 = time.perf_counter(), _rusage_cpu()
            wall += w1 - w0
            cpu += c1 - c0
            if trace is not None:
                counter.count(out_dir, before, n_before)
            stage.keep()
    finally:
        if trace is not None:
            trace.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = [(stage.label, stage.check()) for stage in stages]

    problems = [p for _, c in checks for p in c["problems"]]
    summaries = {label: c["summary"] for label, c in checks}
    ref_path = Path(__file__).resolve().parent / "reference" / f"{args.workload}.json"
    failed = sum(c["failed"] for _, c in checks)
    if args.reference == "write":
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps({"seed": args.seed, "exports": summaries},
                                       separators=(",", ":")) + "\n", encoding="utf-8")
    elif args.reference == "check":
        ref = json.loads(ref_path.read_text(encoding="utf-8"))["exports"]
        diffs = workloads.compare_reference(summaries, ref)
        failed += len(diffs)
        problems += diffs

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(c["attempted"] for _, c in checks),
        "failed": failed,
        "problems": problems,
        "sha256": {label: c["sha256"] for label, c in checks},
        "environment": environment(),
    }
    if trace is not None:
        layers = trace.layer_totals()
        timings = np.concatenate([r.timings for r in counter.results]) if counter.results else []
        nonzero = [float(t) for t in timings if t > 0]
        computed = max(counter.computed, 1)
        per_layer = {}
        for name, entry in layers.items():
            for key, value in entry.items():
                per_layer[f"{name}.{key}"] = value
        per_layer.update({
            "sweeps.jobs": counter.jobs,
            "sweeps.cells_computed": counter.computed,
            "sweeps.cache_hit_ratio": counter.hits / max(counter.jobs, 1),
            "sweeps.cell_s.median": statistics.median(nonzero) if nonzero else 0.0,
            "floquet.solves_per_cell": layers["floquet.solve_floquet"]["calls"] / computed,
            "circuit.diags_per_cell": layers["circuit.diagonalize_static"]["calls"] / computed,
        })
        result["per_layer"] = per_layer
        result["cell_s"] = nonzero
        if args.spans is not None:
            trace.dump(args.spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
