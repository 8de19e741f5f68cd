"""Self-test of the benchmark: python3 perfbench/selftest.py (from the repo root).

1. Runs every workload at reduced size, untraced and traced, and checks
   that the result line has the contract's keys, that its metric names and
   units are exactly those BENCHMARK.json declares, and that the outputs
   passed their checks.
2. Installs the tracer in this process, runs a reduced workload, uninstalls
   it, and checks that every binding of every traced function is the
   original again, so an untraced run never pays for the wrappers.
3. Checks that the benchmark fails, without a result line, in a directory
   that holds only BENCHMARK.json and the benchmark's files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_metric_names(spec: dict) -> list[str]:
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", trace, "--small")
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: outputs failed their checks: "
                              f"{proc.stdout.strip().splitlines()[-2][:800]}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, units "
                              f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            print(f"ok  {where}: {len(got)} metrics", flush=True)
    return errors


def check_tracer_removed() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import floqlux as fl
    import floqlux.cli  # noqa: F401
    import tracer
    import workloads

    originals = {}
    for mod, fn in tracer.TARGETS:
        original = getattr(sys.modules[f"floqlux.{mod}"], fn)
        originals[f"{mod}.{fn}"] = (original, tracer.binding_sites(original))
    if len(originals["circuit.diagonalize_static"][1]) < 5:
        return ["diagonalize_static should be bound in at least five modules"]

    workdir = WORK / "in-process"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stages = workloads.coherence_refine(fl, np.random.default_rng(0), workdir, small=True)
    trace = tracer.Tracer()
    trace.install()
    try:
        wrapped = all(getattr(m, a) is not orig
                      for orig, sites in originals.values() for m, a in sites)
        with contextlib.redirect_stdout(io.StringIO()):  # ff echoes its config
            for stage in stages:
                stage.run(fl)
    finally:
        trace.uninstall()
    shutil.rmtree(workdir, ignore_errors=True)

    errors = [] if wrapped else ["install left some binding unwrapped"]
    if not trace.spans:
        errors.append("the traced run recorded no spans")
    for name, (original, sites) in originals.items():
        for module, attr in sites:
            if getattr(module, attr) is not original:
                errors.append(f"{module.__name__}.{attr} still wrapped after uninstall")
    print(f"ok  tracer: {len(trace.spans)} spans, "
          f"{sum(len(s) for _, s in originals.values())} bindings restored", flush=True)
    return errors


def check_fails_without_sources() -> list[str]:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bare, "--workload", "flux-scan", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    print("ok  fails without sources", flush=True)
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_metric_names(spec) + check_tracer_removed() + check_fails_without_sources()
    shutil.rmtree(WORK, ignore_errors=True)
    for error in errors:
        print("FAIL", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
