"""The benchmark's workloads: seeded inputs, timed stages and output checks.

Every workload runs as a user would: config files go through
``floqlux.cli.main`` (``ff <task> --config ...``) with one worker, and the
sweet-spot certification calls the library API the acceptance tests use.
A seed draws the inputs (grid placement, drive frequencies, synthetic
data); sizes stay fixed so every seed does the same amount of work.

Why these four, and what each stresses and bypasses:

- coherence-refine: a map refined in place, 5x4x2 -> 5x7x2 -> 5x7x4 cells
  of the coherence task in one output directory, then the last stage rerun
  unchanged.  Stresses solve_floquet with its convergence re-solve and the
  rate sums; the only workload that reads the cell cache (every stage has a
  new config hash, so only the rerun hits).  Bypasses static
  diagonalization (5 biases, memoised in sweeps).
- flux-scan: the spectroscopy task, 256 flux biases x 128 probe
  frequencies.  Every column pays a fresh diagonalize_static, an unchecked
  Sambe solve, charge and phase Fourier elements and the vectorised rate
  balance.  Writes the cell cache but never reads it.
- polariton-map: the polariton task, 16 biases x 2 amplitudes at
  Omega = 0.2 GHz across the six 0->3 sideband/cavity crossings, plus the
  manifold fit of seeded synthetic peaks.  Circuit-bound:
  rwa_params_from_circuit diagonalises 46 times per cell.  Bypasses the
  rate sums and the cache.
- sweetspot-certify: the sweetspot task at phi_dc = 0.451 on 5 xi x 4
  Omega, which finds 4 amplitude spots and the double sweet spot, then
  certifies each spot with coherence_rates(fd=True) and monodromy_oracle,
  as acceptance tests 01, 03 and 05 do.  The only user of finite
  differences, the oracle and root refinement.

Runs with more than one worker are left out: on a 2-core machine four runs
of a 160-cell coherence sweep with --workers 2 took 6.5, 62.6, 11.3 and
6.5 s, because each worker's multi-threaded BLAS oversubscribes the cores.
No bound holds that spread; a parallel workload belongs with the change
that pins BLAS threads in the workers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

# reference check at the default seed: |value - ref| <= REL_TOL * (largest
# |ref| in the column); spot coordinates within COORD_TOL
REL_TOL = 1e-6
COORD_TOL = 1e-7
# oracle vs Sambe quasienergies, relative zone distance (acceptance test 01)
ORACLE_TOL = 1e-8
# a polariton fit must recover each identifiable coupling within this many
# of its own standard errors
FIT_SIGMAS = 5.0
_MAX_SAMPLED_ROWS = 256

# sideband couplings (GHz) of the synthetic polariton data, m = -2..3
_G_TRUE = {-2: 0.005, -1: 0.010, 0: 0.0199, 1: 0.010, 2: 0.005, 3: 0.0025}
_POLARITON_OMEGA = 0.2


def _fmt_list(values) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def config_text(task: str, fmt: str, grid: dict, sections: dict | None = None) -> str:
    lines = [f'task = "{task}"', f'format = "{fmt}"', "workers = 1", "", "[grid]"]
    lines += [f"{key} = {_fmt_list(vals)}" for key, vals in grid.items()]
    for name, keys in (sections or {}).items():
        lines += ["", f"[{name}]"]
        for key, val in keys.items():
            if isinstance(val, str):
                val = f'"{val}"'
            elif isinstance(val, (list, tuple, np.ndarray)):
                val = _fmt_list(val)
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_export(path: Path):
    """Header, rows (float array) and mask of a csv or json export."""
    if path.suffix == ".json":
        doc = json.loads(path.read_text(encoding="utf-8"))
        header = list(doc["axes"]) + list(doc["columns"])
        rows = np.asarray(doc["rows"], dtype=float).reshape(-1, len(header))
        return header, rows, np.asarray(doc["mask"], dtype=bool), doc
    lines = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    header = lines[0][:-1]
    body = np.asarray([[float(v) for v in line] for line in lines[2:]], dtype=float)
    body = body.reshape(-1, len(header) + 1)
    return header, body[:, :-1], body[:, -1] != 0, None


def _summary(header, rows, mask) -> dict:
    stride = max(1, math.ceil(rows.shape[0] / _MAX_SAMPLED_ROWS))
    sampled = rows[::stride]
    return {
        "columns": header,
        "n_rows": int(rows.shape[0]),
        "stride": stride,
        "rows": [[float(v) for v in r] for r in sampled],
        "abs_sums": [float(v) for v in np.nansum(np.abs(rows), axis=0)],
        "masked": int(mask.sum()),
    }


def _close(value, ref, scale) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return value == ref or (math.isnan(value) and math.isnan(ref))
    return abs(value - ref) <= REL_TOL * scale


def compare_summary(summary: dict, ref: dict) -> list[str]:
    """Differences of an export's summary from its reference, one per row."""
    if summary["columns"] != ref["columns"] or summary["n_rows"] != ref["n_rows"]:
        return [f"shape {summary['columns']} x {summary['n_rows']} differs from "
                f"reference {ref['columns']} x {ref['n_rows']}"]
    ref_rows = np.asarray(ref["rows"], dtype=float)
    finite = np.where(np.isfinite(ref_rows), np.abs(ref_rows), 0.0)
    scales = finite.max(axis=0) if ref_rows.size else []
    problems = []
    for i, (row, ref_row) in enumerate(zip(summary["rows"], ref["rows"])):
        bad = [c for c, (v, r, s) in enumerate(zip(row, ref_row, scales))
               if not _close(v, r, s)]
        if bad:
            col = bad[0]
            problems.append(
                f"row {i * ref['stride']} {ref['columns'][col]} = {row[col]!r}, "
                f"reference {ref_row[col]!r}")
    for col, (v, r) in enumerate(zip(summary["abs_sums"], ref["abs_sums"])):
        if abs(v - r) > REL_TOL * abs(r):
            problems.append(f"column {ref['columns'][col]} sum {v!r}, reference {r!r}")
    return problems


def compare_extra(summary: dict, ref: dict) -> list[str]:
    """Differences of a json export's task payload from its reference."""
    problems = []
    if "spots" in ref:
        got, want = summary["spots"], ref["spots"]
        if [s[0] for s in got] != [s[0] for s in want]:
            return [f"spot kinds {[s[0] for s in got]}, reference {[s[0] for s in want]}"]
        for s, r in zip(got, want):
            if max(abs(a - b) for a, b in zip(s[1:], r[1:])) > COORD_TOL:
                problems.append(f"{s[0]} spot at {s[1:]}, reference {r[1:]}")
    if "g_m" in ref:
        scale = max(abs(v) for v in ref["g_m"].values())
        for key in ("g_m", "delta_m"):
            for m, r in ref[key].items():
                if abs(summary[key][m] - r) > REL_TOL * scale:
                    problems.append(f"fit {key}[{m}] = {summary[key][m]!r}, reference {r!r}")
    return problems


def compare_reference(summaries: dict, ref: dict) -> list[str]:
    """Differences of every stage's export summary from the stored reference."""
    if set(summaries) != set(ref):
        return [f"stages {sorted(summaries)}, reference {sorted(ref)}"]
    problems = []
    for label, summary in summaries.items():
        if summary is None:
            continue  # the stage failed and is already counted
        diffs = compare_summary(summary, ref[label])
        if "extra" in ref[label]:
            diffs += compare_extra(summary["extra"], ref[label]["extra"])
        problems += [f"{label} vs reference: {d}" for d in diffs]
    return problems


class CliStage:
    """One ``ff`` invocation; its export is kept for checking after the run.

    A later stage may overwrite the export, so ``keep`` copies it aside
    (without reading it into this process, which would raise the peak RSS
    that is being measured).
    """

    def __init__(self, label: str, argv: list, export: Path, kept: Path, extra_check=None):
        self.label = label
        self.argv = argv
        self.export = export
        self.kept = kept
        self.extra_check = extra_check
        self.exit_code = None

    def run(self, fl) -> None:
        self.exit_code = fl.cli.main(self.argv)

    def keep(self) -> None:
        if self.export.exists():
            shutil.copyfile(self.export, self.kept)

    def check(self) -> dict:
        if self.exit_code not in (0, 2) or not self.kept.exists():
            return {"attempted": 1, "failed": 1, "sha256": None, "summary": None,
                    "problems": [f"{self.label}: ff exited {self.exit_code}"]}
        header, rows, mask, doc = _read_export(self.kept)
        finite = np.all(np.isfinite(rows), axis=1)
        failed = int(np.sum(mask | ~finite))
        problems = []
        if failed:
            problems.append(f"{self.label}: {int(mask.sum())} masked and "
                            f"{int(np.sum(~mask & ~finite))} non-finite rows")
        summary = _summary(header, rows, mask)
        attempted = int(rows.shape[0])
        if self.extra_check is not None:
            extra_summary, extra_problems = self.extra_check(doc["extra"])
            summary["extra"] = extra_summary
            attempted += 1
            failed += bool(extra_problems)
            problems += [f"{self.label}: {p}" for p in extra_problems]
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "sha256": _sha256(self.kept), "summary": summary}


class CertifyStage:
    """Certify each spot of a sweetspot export with the library API."""

    def __init__(self, label: str, spots_export: Path, config):
        self.label = label
        self.spots_export = spots_export
        self.config = config
        self.results = []

    def run(self, fl) -> None:
        doc = json.loads(self.spots_export.read_text(encoding="utf-8"))
        params, noise = self.config.circuit, self.config.noise
        wide = fl.floquet.SambeConfig(n_levels=self.config.floquet.n_levels,
                                      sideband_cutoff=28)
        for spot in doc["extra"]["spots"]:
            bias = fl.circuit.FluxBias(spot["phi_dc"])
            drive = fl.floquet.DriveParams(bias, spot["xi"], spot["omega"])
            rates = fl.decoherence.coherence_rates(params, drive, noise,
                                                   self.config.floquet, fd=True)
            spec = fl.circuit.diagonalize_static(params, bias)
            oracle = fl.floquet.monodromy_oracle(params, drive, spectrum=spec)
            sol = fl.floquet.solve_floquet(params, drive, wide, spectrum=spec)
            dist = max(
                float(np.min(np.abs(fl.floquet.fold_quasienergy(
                    sol.quasienergies - q, drive.omega)))) / drive.omega
                for q in oracle)
            self.results.append((spot, rates, dist))

    def keep(self) -> None:
        pass  # the results are small and stay in memory

    def check(self) -> dict:
        problems, rows = [], []
        failed = 0
        for spot, rates, dist in self.results:
            why = []
            if rates.derivatives.tracking_break:
                why.append("branch tracking broke in the finite differences")
            if not all(math.isfinite(v) for v in (rates.t1, rates.tphi, rates.t2r)):
                why.append("non-finite coherence times")
            if not dist <= ORACLE_TOL:
                why.append(f"oracle zone distance {dist:.2e} > {ORACLE_TOL:g}")
            if why:
                failed += 1
                problems.append(f"{self.label}: {spot['kind']} spot at xi={spot['xi']:.6f}, "
                                f"omega={spot['omega']:.6f}: " + "; ".join(why))
            rows.append([spot["phi_dc"], spot["xi"], spot["omega"],
                         rates.t1, rates.tphi, rates.t2r])
        header = ["phi_dc", "xi", "omega", "t1", "tphi", "t2r"]
        rows = np.asarray(rows, dtype=float).reshape(-1, len(header))
        summary = _summary(header, rows, np.zeros(rows.shape[0], dtype=bool))
        digest = hashlib.sha256(json.dumps(summary["rows"]).encode()).hexdigest()
        return {"attempted": len(self.results), "failed": failed, "problems": problems,
                "sha256": digest, "summary": summary}


# ---------------------------------------------------------------------------
# workloads: each writes its inputs and returns its stages in order
# ---------------------------------------------------------------------------


def _cli_stage(fl, label, text, workdir: Path, overwrite, extra_check=None):
    """Write the config file, parse it as ff will, and plan the invocation."""
    config = fl.config.parse_config(text)
    path = workdir / f"{label}.cfg"
    path.write_text(text, encoding="utf-8")
    out = workdir / "out"
    argv = [config.task, "--config", str(path), "--out", str(out)]
    if overwrite:
        argv.append("--overwrite")
    name = f"{config.task}.{config.format}"
    stage = CliStage(label, argv, out / name, workdir / f"{label}-{name}", extra_check)
    return stage, config


def coherence_refine(fl, rng, workdir: Path, small: bool):
    n_phi, n_xi, n_om = (2, (2, 3), (1, 2)) if small else (5, (4, 7), (2, 4))
    phi0 = rng.uniform(0.440, 0.452)
    phis = phi0 + 0.004 * np.arange(n_phi)
    xi_max = rng.uniform(0.10, 0.12)
    om_lo, om_hi = rng.uniform(0.70, 0.72), rng.uniform(0.78, 0.80)
    grids = [
        (n_xi[0], n_om[0]),
        (n_xi[1], n_om[0]),
        (n_xi[1], n_om[1]),
        (n_xi[1], n_om[1]),  # rerun unchanged: every cell is a cache hit
    ]
    stages = []
    for i, (nx, no) in enumerate(grids):
        grid = {"phi_dc": phis, "xi": np.linspace(0.0, xi_max, nx),
                "omega": np.linspace(om_lo, om_hi, no)}
        text = config_text("coherence", "csv", grid)
        stages.append(_cli_stage(fl, f"stage{i + 1}", text, workdir, i > 0)[0])
    return stages


def flux_scan(fl, rng, workdir: Path, small: bool):
    n_phi, n_probe = (8, 16) if small else (256, 128)
    start = rng.uniform(0.40, 0.42)
    grid = {"phi_dc": np.linspace(start, start + 0.18, n_phi), "xi": [0.05],
            "omega": [rng.uniform(0.38, 0.42)]}
    probe = {"omega_p": np.linspace(rng.uniform(0.05, 0.10), rng.uniform(1.9, 2.0), n_probe),
             "sweep": "phi_dc"}
    text = config_text("spectroscopy", "csv", grid, {"probe": probe})
    return [_cli_stage(fl, "scan", text, workdir, False)[0]]


def _polariton_fit_check(g_true):
    def check(extra):
        fit = extra.get("fit", {})
        if "error" in fit:
            return {"error": fit["error"]}, [f"fit failed: {fit['error']}"]
        summary = {k: fit[k] for k in ("g_m", "delta_m", "success", "unidentifiable")}
        problems = [] if fit["success"] else ["fit did not converge"]
        for m, g in g_true.items():
            if m in fit["unidentifiable"]:
                continue
            off = abs(fit["g_m"][str(m)] - g) / fit["g_err"][str(m)]
            if not off <= FIT_SIGMAS:
                problems.append(f"g_{m} = {fit['g_m'][str(m)]:.3e} is {off:.1f} standard "
                                f"errors from the true {g:.3e}")
        return summary, problems
    return check


def polariton_map(fl, rng, workdir: Path, small: bool):
    params, cavity = fl.circuit.CircuitParams(), fl.polariton.CavityParams()
    curve = fl.circuit.transition_spline(params, 0, 3, 0.22, 0.41, 61)
    # the 0->3 transition meets the cavity through sideband m where
    # omega03(phi) + m * Omega = omega_c
    probe_phis = np.linspace(0.22, 0.41, 39)
    crossings = []
    for m in _G_TRUE:
        gap = curve(probe_phis) + m * _POLARITON_OMEGA - cavity.omega_c
        for i in np.flatnonzero(gap[:-1] * gap[1:] < 0):
            lo, hi = probe_phis[i], probe_phis[i + 1]
            crossings.append(lo + (hi - lo) * gap[i] / (gap[i] - gap[i + 1]))
    g_true = {m: g * rng.uniform(0.95, 1.05) for m, g in _G_TRUE.items()}
    data_phis = np.concatenate([np.linspace(c - 3e-3, c + 3e-3, 15) for c in crossings])
    sigma = 0.02 * max(g_true.values())  # 1% of the largest splitting
    data = fl.polariton.synth_polariton_data(cavity, curve, _POLARITON_OMEGA, g_true,
                                             None, data_phis, sigma=sigma, rng=rng)
    data_file = workdir / "peaks.txt"
    np.savetxt(data_file, data, fmt="%.17g")

    n_phi, xis = (2, [0.02]) if small else (16, [rng.uniform(0.01, 0.03), rng.uniform(0.04, 0.06)])
    start = rng.uniform(0.225, 0.235)
    grid = {"phi_dc": np.linspace(start, start + 0.165, n_phi), "xi": xis,
            "omega": [_POLARITON_OMEGA]}
    text = config_text("polariton", "json", grid, {"polariton": {"data_file": str(data_file)}})
    return [_cli_stage(fl, "map", text, workdir, False, _polariton_fit_check(g_true))[0]]


def _spot_check(tol_d):
    def check(extra):
        spots = extra.get("spots", [])
        summary = {"spots": [[s["kind"], s["phi_dc"], s["xi"], s["omega"]] for s in spots]}
        problems = [] if any(s["kind"] == "double" for s in spots) else ["no double sweet spot"]
        for s in spots:
            names = {"double": ("d_flux", "d_xi"), "flux": ("d_flux",),
                     "amplitude": ("d_xi",)}[s["kind"]]
            problems += [f"{s['kind']} spot |{n}| = {abs(s[n]):.2e} >= tol_d"
                         for n in names if not abs(s[n]) < tol_d]
        return summary, problems
    return check


def sweetspot_certify(fl, rng, workdir: Path, small: bool):
    n_xi, n_om = (3, 2) if small else (5, 4)
    # the seed shifts the omega lines only: a shift keeps the bracket
    # structure (3 double seeds, 1 failed refinement), so the work per seed
    # stays within a few percent
    grid = {"phi_dc": [0.451], "xi": np.linspace(0.0, 0.12, n_xi),
            "omega": np.linspace(0.70, 0.80, n_om) + rng.uniform(-0.002, 0.002)}
    text = config_text("sweetspot", "json", grid)
    tol_d = fl.config.SweetSpotSpec().tol_d
    scan, config = _cli_stage(fl, "scan", text, workdir, False, _spot_check(tol_d))
    return [scan, CertifyStage("certify", scan.export, config)]


WORKLOADS = {
    "coherence-refine": coherence_refine,
    "flux-scan": flux_scan,
    "polariton-map": polariton_map,
    "sweetspot-certify": sweetspot_certify,
}

