"""Sweep tasks: one ``Task`` record per ``ff`` task in ``REGISTRY``, and the
job bodies behind them.  The sweep runner plans, executes, caches and exports
a task from its record alone, so adding a task means adding one record and
its job.  A job maps ``(config, coords)`` to ``{"rows": [...]}`` plus an
optional ``"extra"`` payload, or to ``{"error": reason}`` for a cell it
masks; jobs are module-level so they pickle into worker processes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from .circuit import FluxBias, _lattice_spline, diagonalize_static
from .decoherence import _field_at, _refine_sweet_spots, coherence_rates
from .errors import ConfigError
from .floquet import DriveParams, FloquetSolution, fold_quasienergy, solve_floquet
from .polariton import (
    _FIT_M_VALUES,
    _peak_table,
    fit_polariton,
    floquet_dipole_coupling,
    rwa_coupling,
    rwa_params_from_circuit,
    rwa_phase_coefficients,
)
from .spectroscopy import extract_t2r, probe_population, synth_ramsey_signal
from .units import HZ_PER_GHZ

if TYPE_CHECKING:
    from .config import RunConfig

_SPECTRAL_N = 8  # sideband window exported by the spectral-function task
_DRIVE_AXES = ("phi_dc", "xi", "omega")
_OVERLAY_K = np.arange(-4, 5)  # sidebands k of the spectroscopy overlay eps01 + k*Omega


def _check_floquet_levels(config: RunConfig) -> None:
    """Every task but static-spectrum drives [floquet] n_levels circuit levels,
    at every grid xi and omega."""
    if config.floquet.n_levels > config.circuit.basis_dim:
        raise ConfigError(
            f"[floquet] n_levels = {config.floquet.n_levels} must not exceed "
            f"[circuit] basis_dim = {config.circuit.basis_dim}"
        )
    g = config.grid
    try:  # the drive's own rules, on the grid's lowest xi and omega
        DriveParams(FluxBias(float(g.phi_dc[0])), float(min(g.xi)), float(min(g.omega)))
    except ValueError as exc:
        raise ConfigError(f"invalid [grid] settings: {exc}") from None


def _check_single(config: RunConfig, names, why: str) -> None:
    """Each grid axis in ``names`` must hold one value, for the reason ``why``."""
    for name in names:
        if (n := len(getattr(config.grid, name))) != 1:
            raise ConfigError(f"{why}; grid {name} must have one value (got {n})")


@dataclass(frozen=True)
class Task:
    """What the sweep runner needs to know about one task.

    Attributes:
        columns: ``(name, unit)`` per exported data column.
        job: per-cell job; ``coords`` maps each axis name to the cell value.
            It may read any config section but the grid: the cell cache is
            keyed on the grid-free config and the coords alone.
        axes: grid axes whose product gives the cells, one row per cell.
        grid_job: whole-grid step ``(config, table, extras, data) -> output``,
            run in the sweep's own process once every cell has finished.  It
            reads ``table``, the ``SweepResult`` of the cells (rows, mask and
            reasons, with an empty ``extra``), ``extras``, the extras of the
            cells that returned one, in job order, and ``data``, what
            ``check`` returned; the sweep keeps no other cell output.  Its
            ``extra`` is the result's (without a step, the cells' extras are
            merged); its failure goes to ``extra[grid_key]``.
        check: config check raising ConfigError (by default every driven
            task's); returns the file data the step reads, validated, or None.
        plan: ``config -> (axes, iterable of (coords, row_indices))`` for a
            grid that is not the product of ``axes``; the sweep draws the
            cells one at a time.
    """

    columns: tuple
    job: Callable
    axes: tuple = _DRIVE_AXES
    grid_job: Callable | None = None
    grid_key: str = ""
    check: Callable = _check_floquet_levels
    plan: Callable | None = None


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


def _solved(config: RunConfig, coords) -> FloquetSolution:
    """The cell's Floquet solution; jobs read its drive and static spectrum
    (the ``diagonalize_static`` memo entry) from it; only the floquet job reads its check."""
    drive = DriveParams(FluxBias(float(coords["phi_dc"])), float(coords["xi"]),
                        float(coords["omega"]))
    return solve_floquet(config.circuit, drive, config.floquet)


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
    sol = _solved(config, coords)
    eps01 = sol.splitting(1, 0)
    vals = [
        eps01,
        float(fold_quasienergy(eps01, sol.drive.omega)),
        float(sol.quasienergies[0]),
        float(sol.quasienergies[1]),
        float(np.max(sol.sideband_weights(0))),
        float(np.max(sol.sideband_weights(1))),
        float(bool(sol.converged)),
    ]
    return {"rows": [vals]}


def _job_spectral(config: RunConfig, coords):
    sol = _solved(config, coords)
    cutoff = sol.config.sideband_cutoff
    vals = [float(sol.rep_energies[0]), float(sol.rep_energies[1])]
    for level in (0, 1):
        w = sol.sideband_weights(level)
        for n in range(-_SPECTRAL_N, _SPECTRAL_N + 1):
            vals.append(float(w[cutoff + n]) if abs(n) <= cutoff else 0.0)
    return {"rows": [vals]}


def _check_polariton(config: RunConfig) -> np.ndarray | None:
    _check_floquet_levels(config)
    if config.floquet.n_levels < 4:
        raise ConfigError(
            "polariton couplings address level 3; set floquet n_levels >= 4 "
            f"(got {config.floquet.n_levels})"
        )
    path = config.polariton.data_file
    if not path:
        return None
    _check_single(config, ("omega",), "the polariton fit uses a single drive frequency")
    try:
        data = np.loadtxt(path, ndmin=2)
    except FileNotFoundError:
        raise ConfigError(f"polariton data_file {path!r} not found") from None
    except OSError as exc:  # a directory, or a file this process may not read
        raise ConfigError(f"polariton data_file {path!r} cannot be read: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"polariton data file {path!r} is not numeric: {exc}") from None
    try:
        return _peak_table(data)
    except ValueError as exc:
        raise ConfigError(f"polariton data file {path!r}: {exc}") from None


def _job_polariton(config: RunConfig, coords):
    sol = _solved(config, coords)
    vals = [abs(floquet_dipole_coupling(sol, config.cavity, m)) for m in _FIT_M_VALUES]
    rwa = rwa_params_from_circuit(sol.spectrum.params, sol.drive.bias.phi_dc,
                                  config.cavity, sol.drive.xi)
    co = rwa_phase_coefficients(rwa, sol.drive)
    vals += [abs(rwa_coupling(rwa, co, m)) for m in _FIT_M_VALUES]
    return {"rows": [vals]}


def _job_polariton_fit(config: RunConfig, table, extras, data):
    if data is None:
        return {"rows": [], "extra": {}}
    curve = _lattice_spline(config.circuit, 0, 3, np.min(data[:, 0]), np.max(data[:, 0]))
    fit = fit_polariton(
        data, config.cavity, curve, float(config.grid.omega[0]),
        capture_window=config.polariton.capture_window,
    )
    return {"rows": [], "extra": {"fit": _plain(asdict(fit))}}


def _fixed_drive(config: RunConfig) -> dict:
    """Every drive axis but the spectroscopy sweep's, at its first grid value."""
    return {a: float(getattr(config.grid, a)[0]) for a in _DRIVE_AXES if a != config.probe.sweep}


def _check_spectroscopy(config: RunConfig) -> None:
    _check_floquet_levels(config)
    _check_single(config, _fixed_drive(config), f"spectroscopy sweeps {config.probe.sweep}")


def _plan_spectroscopy(config: RunConfig):
    # a column's coords are its whole drive point, so its job never reads the grid
    sweep = config.probe.sweep
    fixed = _fixed_drive(config)
    svals = tuple(sorted(float(v) for v in getattr(config.grid, sweep)))
    n_p = len(config.probe.omega_p)
    # coords in drive-axis order, which the cell's cache key hashes
    points = ({a: fixed.get(a, v) for a in _DRIVE_AXES} for v in svals)
    cells = ((p, tuple(range(i * n_p, (i + 1) * n_p))) for i, p in enumerate(points))
    return {sweep: svals, "omega_p": config.probe.omega_p}, cells


def _job_spectroscopy(config: RunConfig, coords):
    sol = _solved(config, coords)
    p1 = probe_population(sol, config.noise, config.probe)
    return {
        "rows": [[float(p)] for p in p1],
        "extra": {
            "value": coords[config.probe.sweep],
            "branch_freqs": _plain(sol.splitting(1, 0) + _OVERLAY_K * sol.drive.omega),
        },
    }


def _job_spectroscopy_branches(config: RunConfig, table, extras, data):
    # a failed column returned no extra, so it has no overlay point
    points = [{"value": e["value"], "freqs": e["branch_freqs"]} for e in extras]
    branch_k = _plain(_OVERLAY_K) if extras else []
    return {"rows": [], "extra": {"fixed": _fixed_drive(config),
                                  "branches": {"k": branch_k, "points": points}}}


def _job_coherence(config: RunConfig, coords):
    sol = _solved(config, coords)
    rates = coherence_rates(config.circuit, sol.drive, config.noise, config.floquet, sol=sol)
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
    field = _field_at(config.circuit, config.floquet,
                      coords["phi_dc"], coords["xi"], coords["omega"])
    return {"rows": [list(field)]}


def _job_sweetspot_scan(config: RunConfig, table, extras, data):
    # the table's columns hold the scan's field; the first failed cell fails the scan
    if table.reasons:
        return {"error": table.reasons[min(table.reasons)]}
    scan = _refine_sweet_spots(config.circuit, config.noise, config.floquet,
                               tuple(table.axes.values()), table.rows[:, len(table.axes):],
                               config.sweetspot.tol_d)
    spots = [
        {
            "kind": s.kind,
            "phi_dc": s.phi_dc,
            "xi": s.xi,
            "omega": s.omega,
            "d_flux": s.d_flux,
            "d_xi": s.d_xi,
            "t1": s.rates.t1,
            "tphi": s.rates.tphi,
            "t2r": s.rates.t2r,
        }
        for s in sorted(scan.spots, key=lambda s: (s.phi_dc, s.xi, s.omega, s.kind))
    ]
    return {"rows": [], "extra": _plain({"spots": spots, "diagnostics": scan.diagnostics})}


def _check_ramsey(config: RunConfig) -> None:
    _check_floquet_levels(config)
    _check_single(config, _DRIVE_AXES, "ramsey runs at a single drive point")


def _job_ramsey(config: RunConfig, coords):
    sol = _solved(config, coords)
    rcfg = config.ramsey
    if rcfg.omega0 == 0:  # 0 stands for the static 0 -> 1 transition
        rcfg = replace(rcfg, omega0=sol.spectrum.transition(0, 1))
    sig = synth_ramsey_signal(sol, rcfg)
    est = extract_t2r(sig)
    vals = [
        rcfg.omega0,
        sol.splitting(1, 0),
        sig.dominant_beat / HZ_PER_GHZ,
        rcfg.t2r_true,
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
        check=lambda config: None,  # it reads no drive axis and no [floquet] key
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
        columns=tuple((f"gF_abs_{m}", "GHz") for m in _FIT_M_VALUES)
        + tuple((f"gR_abs_{m}", "GHz") for m in _FIT_M_VALUES),
        job=_job_polariton,
        grid_job=_job_polariton_fit,
        grid_key="fit",
        check=_check_polariton,
    ),
    "spectroscopy": Task(
        columns=(("p1", "1"),),
        job=_job_spectroscopy,
        check=_check_spectroscopy,
        plan=_plan_spectroscopy,
        grid_job=_job_spectroscopy_branches,
        grid_key="branches",
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
