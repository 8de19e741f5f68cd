"""Sweep tasks: one ``Task`` record per ``ff`` task in ``REGISTRY``, and the
job bodies behind them.  The sweep runner plans, executes, caches and exports
a task from its record alone, so adding a task means adding one record and
its job.  A job maps ``(config, coords)`` to ``{"rows": [...]}`` plus an
optional ``"extra"`` payload, or to ``{"error": reason}`` for a cell it
masks; jobs are module-level so they pickle into worker processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .circuit import FluxBias, diagonalize_static, transition_spline
from .decoherence import (
    coherence_rates,
    find_sweet_spots,
    fourier_matrix_elements,
    quasienergy_derivatives,
)
from .errors import ConfigError
from .floquet import DriveParams, solve_floquet
from .polariton import (
    fit_polariton,
    floquet_dipole_coupling,
    rwa_coupling,
    rwa_params_from_circuit,
    rwa_phase_coefficients,
)
from .spectroscopy import (
    ProbeParams,
    RamseyConfig,
    extract_t2r,
    spectroscopy_map,
    synth_ramsey_signal,
)
from .units import HZ_PER_GHZ

if TYPE_CHECKING:
    from .config import RunConfig

_SPECTRAL_N = 8  # sideband window exported by the spectral-function task


@dataclass(frozen=True)
class Task:
    """What the sweep runner needs to know about one task.

    Attributes:
        columns: ``(name, unit)`` per exported data column.
        job: per-cell job; ``coords`` maps each axis name to the cell value.
            It may read any config section but the grid: the cell cache is
            keyed on the grid-free config and the coords alone.
        axes: grid axes whose product gives the cells, one row per cell.
        grid_job: job run once after the cells, when ``wants_grid_job``
            holds; it has no rows, and its failure goes to ``extra[grid_key]``.
        check: config check raising ConfigError.
        plan: ``config -> (axes, [(coords, row_indices), ...])`` for a grid
            that is not the product of ``axes``.
        finalize: ``(config, extras) -> extra`` from the jobs' extras in
            job order; by default they are merged.
    """

    columns: tuple
    job: Callable
    axes: tuple = ("phi_dc", "xi", "omega")
    grid_job: Callable | None = None
    grid_key: str = ""
    wants_grid_job: Callable = lambda config: True
    check: Callable | None = None
    plan: Callable | None = None
    finalize: Callable | None = None


def _plain(obj):
    """Recursively coerce to JSON-plain types (lists, str keys, floats)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (str, bool, int, float)) or obj is None:
        return obj
    return str(obj)


def _solved(config: RunConfig, coords, check_convergence: bool = True):
    phi = float(coords["phi_dc"])
    spec = diagonalize_static(config.circuit, FluxBias(phi))
    drive = DriveParams(FluxBias(phi), float(coords["xi"]), float(coords["omega"]))
    sol = solve_floquet(config.circuit, drive, config.floquet, spectrum=spec,
                        check_convergence=check_convergence)
    return spec, drive, sol


def _check_levels(config: RunConfig) -> None:
    if config.circuit.n_levels < 4:
        raise ConfigError(
            f"task {config.task!r} reads levels up to 3; set circuit "
            f"n_levels >= 4 (got {config.circuit.n_levels})"
        )


def _job_static(config: RunConfig, coords):
    spec = diagonalize_static(config.circuit, FluxBias(float(coords["phi_dc"])))
    e = spec.energies
    vals = [
        float(e[1] - e[0]),
        float(e[2] - e[0]),
        float(e[3] - e[0]),
        abs(spec.n_elements[0, 1]),
        abs(spec.n_elements[0, 3]),
        abs(spec.phi_elements[0, 1]),
    ]
    return {"rows": [vals]}


def _job_floquet(config: RunConfig, coords):
    _, _, sol = _solved(config, coords)
    vals = [
        sol.splitting(1, 0, "natural"),
        sol.splitting(1, 0, "folded"),
        float(sol.quasienergies[0]),
        float(sol.quasienergies[1]),
        float(np.max(sol.sideband_weights(0))),
        float(np.max(sol.sideband_weights(1))),
        float(bool(sol.converged)),
    ]
    return {"rows": [vals]}


def _job_spectral(config: RunConfig, coords):
    _, _, sol = _solved(config, coords)
    cutoff = sol.config.sideband_cutoff
    vals = [float(sol.rep_energies[0]), float(sol.rep_energies[1])]
    for level in (0, 1):
        w = sol.sideband_weights(level)
        for n in range(-_SPECTRAL_N, _SPECTRAL_N + 1):
            vals.append(float(w[cutoff + n]) if abs(n) <= cutoff else 0.0)
    return {"rows": [vals]}


def _check_polariton(config: RunConfig) -> None:
    _check_levels(config)
    if config.floquet.n_levels < 4:
        raise ConfigError(
            "polariton couplings address level 3; set floquet n_levels >= 4 "
            f"(got {config.floquet.n_levels})"
        )
    if config.polariton.data_file:
        if len(config.grid.omega) != 1:
            raise ConfigError(
                "the polariton fit uses a single drive frequency; grid omega "
                f"must have one value when data_file is set (got {len(config.grid.omega)})"
            )
        if not os.path.exists(config.polariton.data_file):
            raise ConfigError(
                f"polariton data_file {config.polariton.data_file!r} not found"
            )


def _job_polariton(config: RunConfig, coords):
    spec, drive, sol = _solved(config, coords)
    vals = [abs(floquet_dipole_coupling(sol, spec, config.cavity, m)) for m in range(-2, 4)]
    rwa = rwa_params_from_circuit(
        config.circuit, float(coords["phi_dc"]), config.cavity, drive.xi,
        span=config.polariton.span,
    )
    co = rwa_phase_coefficients(rwa, drive)
    vals += [abs(rwa_coupling(rwa, co, m)) for m in range(-2, 4)]
    return {"rows": [vals]}


def _job_polariton_fit(config: RunConfig, coords):
    data = np.loadtxt(config.polariton.data_file, ndmin=2)
    if data.ndim != 2 or data.shape[1] not in (2, 3):
        raise ConfigError(
            f"polariton data file {config.polariton.data_file!r} must have "
            f"columns phi_dc, freq_ghz[, sigma_ghz]; got shape {data.shape}"
        )
    lo, hi = float(np.min(data[:, 0])), float(np.max(data[:, 0]))
    pad = max(0.01, 0.05 * (hi - lo))
    curve = transition_spline(config.circuit, 0, 3, lo - pad, hi + pad)
    fit = fit_polariton(
        data, config.cavity, curve, float(config.grid.omega[0]),
        capture_window=config.polariton.capture_window,
    )
    return {
        "rows": [],
        "extra": {
            "fit": _plain({
                "g_m": fit.g_m,
                "delta_m": fit.delta_m,
                "g_err": fit.g_err,
                "residual": fit.residual,
                "unidentifiable": list(fit.unidentifiable),
                "n_evaluations": fit.n_evaluations,
                "success": fit.success,
            })
        },
    }


def _check_spectroscopy(config: RunConfig) -> None:
    g = config.grid
    fixed = ("xi", "omega") if config.probe.sweep == "phi_dc" else ("phi_dc", "omega")
    for name in fixed:
        if len(getattr(g, name)) != 1:
            raise ConfigError(
                f"spectroscopy sweeps {config.probe.sweep}; grid {name} must "
                f"have one value (got {len(getattr(g, name))})"
            )


def _probe_freqs(config: RunConfig) -> tuple:
    return tuple(sorted(float(v) for v in config.probe.omega_p))


def _plan_spectroscopy(config: RunConfig):
    # a column's coords are its whole drive point, so its job never reads the grid
    g = config.grid
    sweep = config.probe.sweep
    fixed = {"phi_dc": float(g.phi_dc[0]), "xi": float(g.xi[0]), "omega": float(g.omega[0])}
    svals = tuple(sorted(float(v) for v in getattr(g, sweep)))
    pvals = _probe_freqs(config)
    n_p = len(pvals)
    cells = [({**fixed, sweep: v}, tuple(range(i * n_p, (i + 1) * n_p)))
             for i, v in enumerate(svals)]
    return {sweep: svals, "omega_p": pvals}, cells


def _job_spectroscopy(config: RunConfig, coords):
    value = coords[config.probe.sweep]
    template = DriveParams(FluxBias(coords["phi_dc"]), coords["xi"], coords["omega"])
    probe = ProbeParams(
        omega_p=float(config.probe.omega_p[0]),
        rabi=config.probe.rabi,
        linewidth=config.probe.linewidth,
    )
    m = spectroscopy_map(
        config.circuit, config.noise, template,
        config.probe.sweep, [value], _probe_freqs(config),
        probe=probe, config=config.floquet,
    )
    if m.mask[0]:
        return {"error": m.failures[0]}
    return {
        "rows": [[float(p)] for p in m.population[0]],
        "extra": {
            "value": value,
            "branch_k": _plain(m.branch_k),
            "branch_freqs": _plain(m.branches[0]),
        },
    }


def _finalize_spectroscopy(config: RunConfig, extras) -> dict:
    g = config.grid
    fixed = {"phi_dc": g.phi_dc[0], "xi": g.xi[0], "omega": g.omega[0]}
    fixed.pop(config.probe.sweep)
    points = [{"value": e["value"], "freqs": e["branch_freqs"]} for e in extras]
    branch_k = extras[-1]["branch_k"] if extras else []
    return {"fixed": _plain(fixed), "branches": {"k": branch_k, "points": points}}


def _job_coherence(config: RunConfig, coords):
    spec, drive, sol = _solved(config, coords)
    rates = coherence_rates(config.circuit, drive, config.noise, config.floquet, sol=sol)
    vals = [
        rates.gamma_up,
        rates.gamma_down,
        rates.gamma_phi,
        rates.t1,
        rates.tphi,
        rates.t2r,
        rates.derivatives.flux_me,
        rates.derivatives.xi_me,
    ]
    return {"rows": [vals]}


def _job_sweetspot(config: RunConfig, coords):
    # field evaluation matches find_sweet_spots' own scan (unchecked solve)
    spec, _, sol = _solved(config, coords, check_convergence=False)
    elems = fourier_matrix_elements(sol, spec)
    derivs = quasienergy_derivatives(sol, elems, config.circuit)
    return {"rows": [[derivs.flux_me, derivs.xi_me]]}


def _job_sweetspot_scan(config: RunConfig, coords):
    scan = find_sweet_spots(
        config.circuit, config.noise, config.grid, config.floquet,
        tol_d=config.sweetspot.tol_d, refine=config.sweetspot.refine,
    )
    spots = []
    for s in sorted(scan.spots, key=lambda s: (s.phi_dc, s.xi, s.omega, s.kind)):
        row = {
            "kind": s.kind,
            "phi_dc": s.phi_dc,
            "xi": s.xi,
            "omega": s.omega,
            "d_flux": s.d_flux,
            "d_xi": s.d_xi,
        }
        if s.rates is not None:
            row.update(t1=s.rates.t1, tphi=s.rates.tphi, t2r=s.rates.t2r)
        spots.append(row)
    return {"rows": [], "extra": _plain({"spots": spots, "diagnostics": scan.diagnostics})}


def _check_ramsey(config: RunConfig) -> None:
    g = config.grid
    if g.size != 1:
        raise ConfigError(
            "ramsey runs at a single drive point; grid must be 1x1x1 "
            f"(got {len(g.phi_dc)} phi_dc x {len(g.xi)} xi x {len(g.omega)} omega)"
        )


def _job_ramsey(config: RunConfig, coords):
    spec, drive, sol = _solved(config, coords)
    r = config.ramsey
    omega0 = r.omega0 if r.omega0 > 0 else spec.transition(0, 1)
    rcfg = RamseyConfig(omega0=omega0, delays=r.delays, window=r.window,
                        step=r.step, t2r_true=r.t2r_true)
    sig = synth_ramsey_signal(sol, rcfg)
    est = extract_t2r(sig)
    vals = [
        omega0,
        sol.splitting(1, 0, "natural"),
        sig.dominant_beat / HZ_PER_GHZ,
        r.t2r_true,
        est.t2r,
        est.t2r_stderr,
        est.frequency / HZ_PER_GHZ,
    ]
    extra = {
        "ramsey": _plain({
            "window_offsets_s": est.window_offsets,
            "window_amplitudes": est.window_amplitudes,
            "component_freqs_hz": sig.component_freqs,
            "component_weights": sig.component_weights,
        })
    }
    return {"rows": [vals], "extra": extra}


# task name -> record, in the order of the CLI subcommands
REGISTRY = {
    "static-spectrum": Task(
        columns=(("f01", "GHz"), ("f02", "GHz"), ("f03", "GHz"),
                 ("n01_abs", "1"), ("n03_abs", "1"), ("phi01_abs", "rad")),
        job=_job_static,
        axes=("phi_dc",),
        check=_check_levels,
    ),
    "floquet": Task(
        columns=(("eps01_natural", "GHz"), ("eps01_folded", "GHz"),
                 ("eps0_folded", "GHz"), ("eps1_folded", "GHz"),
                 ("weight0_max", "1"), ("weight1_max", "1"), ("converged", "bool")),
        job=_job_floquet,
    ),
    "spectral-function": Task(
        columns=(("eps0", "GHz"), ("eps1", "GHz"))
        + tuple((f"weight{lvl}_{n}", "1")
                for lvl in (0, 1) for n in range(-_SPECTRAL_N, _SPECTRAL_N + 1)),
        job=_job_spectral,
    ),
    "polariton": Task(
        columns=tuple((f"gF_abs_{m}", "GHz") for m in range(-2, 4))
        + tuple((f"gR_abs_{m}", "GHz") for m in range(-2, 4)),
        job=_job_polariton,
        grid_job=_job_polariton_fit,
        grid_key="fit",
        wants_grid_job=lambda config: bool(config.polariton.data_file),
        check=_check_polariton,
    ),
    "spectroscopy": Task(
        columns=(("p1", "1"),),
        job=_job_spectroscopy,
        check=_check_spectroscopy,
        plan=_plan_spectroscopy,
        finalize=_finalize_spectroscopy,
    ),
    "coherence": Task(
        columns=(("gamma_up", "1/s"), ("gamma_down", "1/s"), ("gamma_phi", "1/s"),
                 ("t1", "s"), ("tphi", "s"), ("t2r", "s"),
                 ("d_flux", "GHz/Phi0"), ("d_xi", "GHz/Phi0")),
        job=_job_coherence,
    ),
    "sweetspot": Task(
        columns=(("d_flux", "GHz/Phi0"), ("d_xi", "GHz/Phi0")),
        job=_job_sweetspot,
        grid_job=_job_sweetspot_scan,
        grid_key="scan",
    ),
    "ramsey": Task(
        columns=(("omega0", "GHz"), ("eps01_natural", "GHz"), ("dominant_beat", "GHz"),
                 ("t2r_true", "s"), ("t2r_est", "s"), ("t2r_stderr", "s"),
                 ("beat_fit", "GHz")),
        job=_job_ramsey,
        check=_check_ramsey,
    ),
}
