"""Steady-state two-tone spectroscopy and Ramsey-type signal analysis.

``probe_population`` is one solved cell's response to a ``ProbeParams`` tone:
the ``spectroscopy`` task takes it per map column, ``spectroscopy_map`` loops
it over the tone's ``sweep``.  It replaces a full driven master equation with
a documented rate-equation model:
golden-rule excitation rates through each sideband,
Gamma_k = (1/2) * Omega_k^2 * L(omega_p - (eps_01 + k*Omega)), with
Omega_k the probe Rabi rate scaled by the charge Fourier element |n_01^(k)|
and L a unit-area Lorentzian, balanced against the thermal rates
gamma_up/gamma_down into the two-state steady state

    P1 = (gamma_up + sum Gamma_k) / (gamma_up + gamma_down + 2 sum Gamma_k).

This reproduces peak positions and relative visibility of the transitions,
which is what the maps are read for; coherent probe effects and cavity
pull are outside the model boundary.

Ramsey signals beat at (eps_01 + n*Omega - omega_0): the quasienergy
splitting ladder displaced by the demodulation reference omega_0.  The
estimator fits a shared-frequency sinusoid inside each dense delay window
and an exponential to the per-window amplitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import curve_fit, minimize_scalar

from .circuit import CircuitParams
from .decoherence import NoiseModel, depolarization_rates
from .errors import AliasingError, DiagnosticError, FitError
from .floquet import DriveParams, solve_floquet
from .units import GHZ_TO_ANGULAR, HZ_PER_GHZ, TWO_PI, ghz_to_angular

__all__ = [
    "ProbeParams",
    "RamseyConfig",
    "RamseySignal",
    "T2REstimate",
    "SpectroscopyMap",
    "probe_population",
    "spectroscopy_map",
    "synth_ramsey_signal",
    "extract_t2r",
]


@dataclass(frozen=True)
class ProbeParams:
    """Weak spectroscopy tone: probe frequencies, Rabi amplitude and linewidth
    (GHz); also the ``[probe]`` section of a run configuration.

    ``omega_p`` is positive and strictly ascending.  ``linewidth`` is the
    phenomenological Lorentzian FWHM of each sideband transition (default
    5 MHz).  ``sweep`` is the map axis of both probe paths, ``phi_dc`` or ``xi``.
    """

    omega_p: tuple = tuple(np.linspace(0.05, 2.0, 64).tolist())
    rabi: float = 1e-4
    linewidth: float = 5e-3
    sweep: str = "phi_dc"

    def __post_init__(self) -> None:
        if len(self.omega_p) == 0:
            raise ValueError("probe omega_p must be non-empty")
        if not np.all(np.isfinite(self.omega_p)):
            raise ValueError("probe omega_p must be finite")
        if not np.all(np.asarray(self.omega_p) > 0):
            raise ValueError("probe omega_p must be positive")
        if np.any(np.diff(self.omega_p) <= 0):
            raise ValueError("probe omega_p must be strictly ascending")
        if self.sweep not in ("phi_dc", "xi"):
            raise ValueError("probe sweep must be 'phi_dc' or 'xi'")
        for name in ("rabi", "linewidth"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.rabi < 0:
            raise ValueError("rabi must be non-negative")
        if not self.linewidth > 0:
            raise ValueError("linewidth must be positive")


def _balance(g_up, g_down, total):
    """Two-state steady state P1 for probe rate ``total`` (scalar or array).

    Raises:
        DiagnosticError: every rate vanishes, the balance is undefined.
    """
    denom = g_up + g_down + 2.0 * total
    if np.any(denom == 0.0):
        raise DiagnosticError("steady state undefined: all rates are zero")
    return (g_up + total) / denom


def probe_population(sol, noise: NoiseModel, probe: ProbeParams) -> np.ndarray:
    """P1 of the driven cell ``sol`` at each probe frequency ``probe.omega_p`` (GHz).

    Gamma_k = 0.5*amp2_k*L_k (1/s), amp2_k = (2*pi*1e9 * rabi * |n_01^(k)|)^2,
    L_k unit-area in angular frequency at the resonance eps_01 + k*Omega.

    Raises:
        DiagnosticError: every rate vanishes, the balance is undefined.
    """
    pol = depolarization_rates(sol, noise)
    elems = sol.n_elements
    peaks = sol.splitting(1, 0) + elems.k_values * sol.drive.omega
    delta = GHZ_TO_ANGULAR * (np.asarray(probe.omega_p, dtype=float)[:, None] - peaks[None, :])
    hw = 0.5 * ghz_to_angular(probe.linewidth)
    lor = hw / math.pi / (delta * delta + hw * hw)
    amp2 = (ghz_to_angular(probe.rabi) * np.abs(elems.table[0, 1])) ** 2
    return _balance(pol.gamma_up, pol.gamma_down, 0.5 * lor @ amp2)


@dataclass(frozen=True, eq=False)
class SpectroscopyMap:
    """P1 over a (bias-or-amplitude) x (probe frequency) grid; failed points
    are masked with a reason string."""

    sweep_values: np.ndarray
    probe_freqs: np.ndarray
    population: np.ndarray
    mask: np.ndarray
    failures: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for arr in (self.sweep_values, self.probe_freqs, self.population, self.mask):
            arr.setflags(write=False)


def spectroscopy_map(
    params: CircuitParams,
    noise: NoiseModel,
    drive_template: DriveParams,
    probe: ProbeParams,
    sweep_values,
) -> SpectroscopyMap:
    """Steady-state population map over ``probe.sweep`` versus ``probe.omega_p``.

    The other drive parameters come from ``drive_template``.  Each point is
    a default-truncation solve, its check never read, probed with ``probe``'s
    lineshape.  Solver failures at a sweep point mask its column and record the reason.
    """
    sweep_values = np.asarray(sweep_values, dtype=float)
    probe_freqs = np.asarray(probe.omega_p, dtype=float)
    pop = np.full((sweep_values.size, probe_freqs.size), np.nan)
    mask = np.zeros(sweep_values.size, dtype=bool)
    failures: dict = {}

    for i, val in enumerate(sweep_values):
        try:
            # invalid sweep values (rejected by the dataclass validators)
            # mask the cell like any other per-point failure
            if probe.sweep == "phi_dc":
                bias = replace(drive_template.bias, phi_dc=float(val))
                drive = replace(drive_template, bias=bias)
            else:
                drive = replace(drive_template, xi=float(val))
            sol = solve_floquet(params, drive)
            pop[i] = probe_population(sol, noise, probe)
        except Exception as exc:  # masked cell, not a crash: maps keep going
            mask[i] = True
            failures[int(i)] = f"{type(exc).__name__}: {exc}"
    return SpectroscopyMap(sweep_values, probe_freqs, pop, mask, failures)


# ---------------------------------------------------------------------------
# Ramsey-type signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RamseyConfig:
    """Windowed Ramsey sampling plan (times in seconds, frequencies GHz); also
    the ``[ramsey]`` section of a run configuration.

    ``delays`` are the window offsets, at least 3 and ascending (default 26
    windows 2 us apart); within each window the delay is swept densely with
    ``step`` over ``window``, both positive.  ``omega0 >= 0`` is the
    demodulation reference (the bare qubit frequency set by the pulse
    carrier); the ramsey task reads ``omega0 = 0`` as the static 0 -> 1
    transition at the cell bias.
    ``t2r_true`` is the decay constant used for synthesis.
    """

    omega0: float = 0.0
    delays: tuple = tuple(float(i) * 2e-6 for i in range(26))
    window: float = 20e-9
    step: float = 1e-9
    t2r_true: float = 23e-6

    def __post_init__(self) -> None:
        for name in ("omega0", "window", "step"):  # t2r_true = inf: undamped
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("window", "step"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.omega0 < 0:
            raise ValueError("omega0 must be non-negative")
        if not self.step < self.window:
            raise ValueError("step must be smaller than window")
        d = np.asarray(self.delays, dtype=float)
        if not np.all(np.isfinite(d)):
            raise ValueError("delays must be finite")
        if d.size < 1 or np.any(np.diff(d) <= 0):
            raise ValueError("delays must be non-empty and strictly ascending")
        if d.size < 3:
            raise ValueError("delays must hold at least 3 windows")
        if not self.t2r_true > 0:
            raise ValueError("t2r_true must be positive")


@dataclass(frozen=True, eq=False)
class RamseySignal:
    """Synthesized (or measured) windowed Ramsey samples.

    ``times`` is (n_windows, n_samples) in seconds; ``values`` matches.
    ``dominant_beat`` is the strongest component's |eps_01 + n*Omega -
    omega0| in Hz, used by the aliasing guard.
    """

    times: np.ndarray
    values: np.ndarray
    window_offsets: np.ndarray
    step: float
    dominant_beat: float
    component_freqs: np.ndarray
    component_weights: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.times, self.values, self.window_offsets,
                    self.component_freqs, self.component_weights):
            arr.setflags(write=False)


def synth_ramsey_signal(sol, config: RamseyConfig, weights=None) -> RamseySignal:
    """Deterministic Ramsey signal from the solved quasienergy ladder.

    V(dt) = exp(-dt/t2r_true) * sum_n c_n cos(2*pi*(eps01 + n*Omega -
    omega0)*1e9*dt), with c_n defaulting to the excited-branch
    sideband weights.  The weight ladder is aligned so the peak weight sits
    on the ladder point nearest omega0: the demodulated measurement keeps
    the beats relative to the reference, and the adiabatically prepared
    branch (continuously connected to the static transition the reference
    tracks) carries the dominant weight.  At xi = 0 this reduces to a single
    component at |omega01 - omega0|.  ``t2r_true = math.inf`` gives an
    undamped signal; explicit ``weights`` (a mapping n -> c_n on the
    eps01 + n*Omega ladder) bypass the alignment.
    """
    eps01 = sol.splitting(1, 0)
    if weights is None:
        w = sol.sideband_weights(1)
        full_ns = np.arange(-(w.size // 2), w.size // 2 + 1)
        ladder = eps01 + full_ns * sol.drive.omega
        n_near = int(full_ns[np.argmin(np.abs(ladder - config.omega0))])
        n_peak = int(full_ns[np.argmax(w)])
        shift = n_peak - n_near  # weight index that lands on the near point
        keep = w > 1e-12
        src = full_ns[keep]
        ns = src - shift
        w = w[keep]
        inside = np.abs(ns) <= full_ns[-1]
        ns, w = ns[inside], w[inside]
    else:
        ns = np.asarray(sorted(weights), dtype=int)
        w = np.array([weights[int(n)] for n in ns], dtype=float)
    freqs_hz = (eps01 + ns * sol.drive.omega - config.omega0) * HZ_PER_GHZ
    dom = float(abs(freqs_hz[np.argmax(w)]))

    offs = np.asarray(config.delays, dtype=float)
    n_samp = int(round(config.window / config.step))
    t = offs[:, None] + np.arange(n_samp)[None, :] * config.step
    decay = np.exp(-t / config.t2r_true) if math.isfinite(config.t2r_true) else np.ones_like(t)
    v = decay * np.sum(w[None, None, :] * np.cos(TWO_PI * freqs_hz[None, None, :] * t[:, :, None]), axis=2)
    return RamseySignal(
        times=t,
        values=v,
        window_offsets=offs,
        step=config.step,
        dominant_beat=dom,
        component_freqs=freqs_hz,
        component_weights=w,
    )


@dataclass(frozen=True)
class T2REstimate:
    """Windowed-Ramsey decay estimate (seconds) with fit diagnostics."""

    t2r: float
    t2r_stderr: float
    rate: float
    rate_stderr: float
    frequency: float
    window_offsets: np.ndarray
    window_amplitudes: np.ndarray


def _window_lsq(t: np.ndarray, v: np.ndarray, f: float):
    """Exact linear fit of a*cos + b*sin + c at fixed frequency f (Hz)."""
    basis = np.column_stack([
        np.cos(TWO_PI * f * t),
        np.sin(TWO_PI * f * t),
        np.ones_like(t),
    ])
    coef, res, *_ = np.linalg.lstsq(basis, v, rcond=None)
    resid = v - basis @ coef
    return coef, float(resid @ resid)


# relative noise floor of the decay fit's rate (see ``_fit_decay``)
_FIT_NOISE_FLOOR = 3e-10


def _fit_decay(offs: np.ndarray, amps: np.ndarray) -> tuple[float, float]:
    """Rate r and its standard error from a least-squares fit of A0*exp(-r*t)
    to the window amplitudes.

    The fit takes the analytic Jacobian and relative tolerances of 1e-15
    in the parameters (xtol), the sum of squares (ftol) and the gradient
    (gtol).  Its float64 stopping rules then end it within about 3e-10
    relative of the least-squares rate, which is also its noise floor: at
    the double sweet spot, window amplitudes moved by 1e-11 relative moved
    r by at most 2.8e-10 over 50 draws.  At the ``curve_fit`` defaults
    (tolerances 1.49e-8, finite-difference Jacobian) it ended 1.3e-8 short
    of that rate and moved by up to 1.4e-9.  The standard error is floored
    at that 3e-10 of |r|: on a noiseless single exponential the covariance
    holds only rounding residuals (5e-17 relative).

    Raises:
        FitError: the amplitudes are all zero or the fit failed.
    """
    scale = float(np.max(amps))
    if scale <= 0:
        raise FitError("all window amplitudes are zero")

    def model(t, a0, r):
        return a0 * np.exp(-r * t)

    def jacobian(t, a0, r):
        e = np.exp(-r * t)
        return np.column_stack([e, -a0 * t * e])

    try:
        popt, pcov = curve_fit(
            model, offs, amps / scale, p0=(1.0, 1.0 / max(offs[-1], 1e-12)),
            jac=jacobian, xtol=1e-15, ftol=1e-15, gtol=1e-15, maxfev=10000,
        )
    except Exception as exc:
        raise FitError(f"amplitude decay fit failed: {exc}") from exc
    rate = float(popt[1])
    return rate, max(float(np.sqrt(max(pcov[1, 1], 0.0))), _FIT_NOISE_FLOOR * abs(rate))


def extract_t2r(signal: RamseySignal) -> T2REstimate:
    """Shared-frequency windowed amplitude fit, then exponential decay fit.

    The beat frequency is refined once over all windows (per-window fits are
    linear at fixed frequency), each window then contributes an oscillation
    amplitude, and the amplitudes versus offset are fit with A0*exp(-r*t).
    The search starts at the signal's dominant beat f_beat (Hz).

    Raises:
        AliasingError: sampling step too coarse for the beat (step must be
            at most 1/(4*f_beat)).
        FitError: the amplitude decay fit failed.
    """
    f_beat = signal.dominant_beat
    if signal.times.shape[0] < 3:
        raise ValueError("need at least 3 windows")
    if f_beat > 0:
        required = 1.0 / (4.0 * f_beat)
        if signal.step > required:
            raise AliasingError(
                f"sampling step {signal.step:.3e} s cannot resolve a "
                f"{f_beat:.3e} Hz beat; step <= {required:.3e} s required"
            )

    nyquist = 0.5 / signal.step

    def total_residual(f: float) -> float:
        return sum(
            _window_lsq(signal.times[i], signal.values[i], f)[1]
            for i in range(signal.times.shape[0])
        )

    if f_beat > 0:
        span = max(0.02 * f_beat, 1.0 / (signal.times.shape[1] * signal.step) * 0.5)
        lo, hi = max(f_beat - span, 0.0), min(f_beat + span, nyquist)
        res = minimize_scalar(total_residual, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-4 * max(f_beat, 1.0)})
        f_hat = float(res.x)
    else:
        f_hat = 0.0

    amps = np.empty(signal.times.shape[0])
    for i in range(signal.times.shape[0]):
        coef, _ = _window_lsq(signal.times[i], signal.values[i], f_hat)
        amps[i] = math.hypot(coef[0], coef[1])

    offs = signal.window_offsets
    rate, rate_err = _fit_decay(offs, amps)
    if rate > 0:
        t2r = 1.0 / rate
        t2r_err = rate_err / rate**2
    else:
        t2r = math.inf
        t2r_err = math.inf
    return T2REstimate(
        t2r=float(t2r),
        t2r_stderr=float(t2r_err),
        rate=float(rate),
        rate_stderr=rate_err,
        frequency=f_hat,
        window_offsets=offs,
        window_amplitudes=amps,
    )
