"""floqlux benchmark: whole sweeps as users run them, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a floqlux checkout; the package is imported from its
``src`` directory.  Each repetition runs in a fresh interpreter (a reused one
would keep the in-process spectrum memo warm) with the BLAS threading users
get by default.  Repetitions run for up to ``--seconds``: once MIN_REPS
have finished, no repetition starts that would end after that.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions.  ``--trace 1`` alternates untraced and traced repetitions and
reports per-layer calls, inclusive and self time, the ratios named in
BENCHMARK.json, and the tracing overhead (traced minus untraced wall_s).

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``, with ``attempted`` and
``failed`` counted in cells (exported rows, certified spots and fits) over
all repetitions.  The line before it is a report: the environment, git
revision, each metric's median, spread and sample count, the sha256 of
every export, and any output-check problems.

``--small`` runs reduced grids (for the self-test); ``--write-reference``
stores the export summaries of the seed as the new reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("coherence-refine", "flux-scan", "polariton-map", "sweetspot-certify")
# exports at this seed are compared with perfbench/reference; at any seed
# they are checked for invariants
DEFAULT_SEED = 1
MIN_REPS = 3
# traced runs alternate untraced and traced repetitions, at least this many each
MIN_TRACE_REPS = 2
# the whole run must end within this many seconds
HARD_LIMIT_S = 170.0

# end-to-end metrics measured in each repetition, reported as the median;
# the fifth, ok_frac, is 1 - failed / attempted over the whole run
PER_REP = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def git_state() -> dict:
    """Revision of the checkout, or None where it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd):
        proc = subprocess.run(["git", "--no-optional-locks", *cmd], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        sha = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    except (OSError, subprocess.TimeoutExpired):
        sha = status = None
    return {"git_sha": sha, "git_dirty": None if status is None else bool(status)}


def timing_stats(values: list) -> dict:
    """Median, spread and the highest percentile with >= 10 samples above it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "min": values[0], "max": values[-1],
           "samples": values}
    if n >= 11:
        # nearest-rank percentile of rank n - 10: ten samples lie above it
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = values[n - 11]
    else:
        out["tail"] = None  # fewer than 11 samples: no percentile has 10 beyond it
    return out


def run_rep(args, rep: int, traced: bool, deadline: float) -> dict:
    # the child works in a directory of its own and writes relative paths
    # into its configs: those paths are part of the physics hash, so they
    # must not vary between repetitions or checkouts
    repdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(repdir, ignore_errors=True)
    repdir.mkdir(parents=True)
    result_path = WORK / f"{args.workload}-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(result_path), "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(WORK / f"{args.workload}.spans.jsonl")]
    if args.small:
        cmd.append("--small")
    if args.write_reference:
        cmd += ["--reference", "write"]
    elif args.seed == DEFAULT_SEED and not args.small:
        cmd += ["--reference", "check"]
    try:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=repdir, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"error": f"repetition {rep} timed out"}
    finally:
        shutil.rmtree(repdir, ignore_errors=True)
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"repetition {rep} exited {proc.returncode}: " + " | ".join(tail)}
    out = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    out["traced"] = traced
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="floqlux end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "floqlux" / "__init__.py").is_file():
        print(f"error: no floqlux sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    WORK.mkdir(exist_ok=True)
    reps, errors, durations = [], [], []
    rep = 0
    while True:
        traced = bool(args.trace) and rep % 2 == 1
        t = time.perf_counter()
        out = run_rep(args, rep, traced, deadline)
        durations.append(time.perf_counter() - t)
        rep += 1
        if "error" in out:
            errors.append(out["error"])
            if len(errors) >= 2:
                break
        else:
            reps.append(out)
        n_traced = sum(r["traced"] for r in reps)
        if args.trace:
            enough = min(len(reps) - n_traced, n_traced) >= MIN_TRACE_REPS
        else:
            enough = len(reps) >= MIN_REPS
        # stop before a repetition that would run past --seconds (or the
        # hard limit), so a run lasts at most --seconds once MIN_REPS are in
        now = time.perf_counter()
        if ((enough and now + statistics.median(durations) > start + args.seconds)
                or now + 1.5 * max(durations) > deadline):
            break

    untraced = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not untraced or (args.trace and not traced_reps):
        print("error: no repetition finished: " + " | ".join(errors), file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps) + len(errors)
    failed = sum(r["failed"] for r in reps) + len(errors)
    problems = sorted({p for r in reps for p in r["problems"]}) + errors
    stats = {name: timing_stats([r[name] for r in untraced]) for name in PER_REP}
    if args.trace:
        names = list(traced_reps[0]["per_layer"])
        metrics = {name: {"value": statistics.median(r["per_layer"][name] for r in traced_reps),
                          "unit": _layer_unit(name)} for name in names}
        overhead = (statistics.median(r["wall_s"] for r in traced_reps)
                    - stats["wall_s"]["median"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        cells = [t for r in traced_reps for t in r["cell_s"]]
        if cells:
            stats["sweeps.cell_s"] = timing_stats(cells)
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in PER_REP.items()}
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "1"}

    hashes = {}
    for r in reps:
        for label, digest in r["sha256"].items():
            hashes.setdefault(label, set()).add(digest)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": {"untraced": len(untraced), "traced": len(traced_reps),
                        "errors": len(errors)},
        "environment": {**untraced[0]["environment"], **git_state()},
        "timings": stats,
        "failed_frac": failed / attempted,
        "export_sha256": {label: sorted(d for d in ds if d) for label, ds in hashes.items()},
        "problems": problems[:20],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("sweeps.jobs", "sweeps.cells_computed"):
        return "count"
    if name.endswith("_s") or name.endswith(".s") or name.endswith(".median"):
        return "s"
    return "1"


if __name__ == "__main__":
    sys.exit(main())
