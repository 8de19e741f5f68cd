"""Decoherence of the driven qubit: noise spectra, rates, sweet spots.

Rates are computed in 1/s from golden-rule sums over the drive harmonics.
With eps01 the natural quasienergy splitting (difference of representative
Sambe eigenvalues, GHz) and phi_ab^(k) the Fourier matrix elements of the
phase operator between Floquet states (``sol.phi_elements``, whose table
the floquet module builds),

    gamma_-/+ = sum_k |phi_01^(k)|^2 [ S_diel(k*Om +/- eps01)
                                       + E_L^2 * S~_dc(k*Om +/- eps01) ]
              + sum_k (1/4)|phi_01^(k+1) + phi_01^(k-1)|^2
                                         E_L^2 * S~_ac(k*Om +/- eps01)

    gamma_phi = sqrt|ln(w_ir t_m)| * sqrt( A_dc^2 (d eps01 / d phi_dc)^2
                                         + A_ac^2 (d eps01 / d xi)^2 )
              + sum_{k!=0} (1/2)|phi_11^(k) - phi_00^(k)|^2
                                 [ S_diel(k*Om) + E_L^2 S~_dc(k*Om) ]
              + sum_{k!=0} (1/8)|phi_00^(k+1) + phi_00^(k-1)
                                 - phi_11^(k+1) - phi_11^(k-1)|^2
                                 E_L^2 S~_ac(k*Om)

where S~_dc and S~_ac are ``s_dc`` and ``s_ac`` times (2*pi)^2, the
flux-to-phase conversion at Phi_0 = 1.  Every frequency is converted to
rad/s before hitting a spectral density, E_L enters as an angular energy,
and the derivatives in the 1/f term are angular (rad/s per flux quantum).
gamma_- relaxes (its k = 0 term samples the spectra at +eps01), gamma_+
excites.

The quasienergy derivatives come in two flavors that must agree: closed
matrix-element forms

    d eps01 / d phi_dc = -2*pi*E_L * (phi_11^(0) - phi_00^(0))        [GHz/Phi_0]
    d eps01 / d xi     = -pi*E_L  * (phi_11^(1) + phi_11^(-1)
                                     - phi_00^(1) - phi_00^(-1))      [GHz/Phi_0]

(the minus signs follow from perturbing the inductive term, whose linear
piece is -2*pi*E_L*phi*delta_phi), and five-point central finite
differences of the tracked splitting with Richardson step control.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, FluxBias
from .errors import ConvergenceError, InfraredDivergenceError, TrackingBreakError
from .floquet import (
    DriveParams,
    FloquetSolution,
    SambeConfig,
    _continue_branches,
    fourier_operator_elements,
    solve_floquet,
)
from .units import HBAR, K_BOLTZMANN, ghz_to_angular

__all__ = [
    "NoiseModel",
    "QuasienergyDerivatives",
    "DepolarizationRates",
    "DephasingRate",
    "CoherenceRates",
    "SweetSpotSpec",
    "SweetSpot",
    "SweetSpotScan",
    "s_dc",
    "s_ac",
    "s_diel",
    # from floquet: perfbench/tracer.py wraps it under this name (test_benchmark_names_exist)
    "fourier_operator_elements",
    "depolarization_rates",
    "pure_dephasing_rate",
    "quasienergy_derivatives",
    "coherence_rates",
    "find_sweet_spots",
]


@dataclass(frozen=True)
class NoiseModel:
    """Noise amplitudes and environment parameters.

    Attributes:
        a_dc: 1/f flux-noise amplitude, units of Phi_0.
        a_ac: 1/f drive-amplitude-noise amplitude, units of Phi_0.
        tan_delta_c: capacitive dielectric loss tangent.
        temperature: bath temperature in kelvin.
        omega_ir: infrared cutoff of the 1/f integrals, ordinary GHz.
        t_m: dephasing measurement timescale in seconds.

    The infrared pair must satisfy omega_ir_angular * t_m < 1 so the
    logarithm in the Gaussian 1/f dephasing envelope is negative; the
    defaults (1 Hz cutoff, 30 ns) give sqrt|ln| = 3.93.
    """

    a_dc: float = 7.5e-6
    a_ac: float = 6.0e-6
    tan_delta_c: float = 2.8e-6
    temperature: float = 0.085
    omega_ir: float = 1e-9
    t_m: float = 3e-8

    def __post_init__(self) -> None:
        for name in ("a_dc", "a_ac", "tan_delta_c", "temperature"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not (self.omega_ir > 0 and self.t_m > 0):
            raise ValueError("omega_ir and t_m must be strictly positive")
        if ghz_to_angular(self.omega_ir) * self.t_m >= 1.0:
            raise ValueError(
                "omega_ir (angular) * t_m must be < 1 for the 1/f log factor"
            )

    @property
    def ir_log_factor(self) -> float:
        """sqrt|ln(omega_ir_angular * t_m)|, the 1/f dephasing envelope factor."""
        return math.sqrt(abs(math.log(ghz_to_angular(self.omega_ir) * self.t_m)))


def _one_over_f(omega, amp: float):
    """2*pi*amp^2/|omega_angular| at ordinary frequency omega (GHz)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega == 0.0):
        raise InfraredDivergenceError(
            "1/f spectral density sampled at zero frequency; the divergent "
            "low-frequency content belongs to the ir-cutoff dephasing term"
        )
    return 2.0 * math.pi * amp**2 / np.abs(ghz_to_angular(omega))


def s_dc(omega, model: NoiseModel):
    """1/f flux-noise spectral density 2*pi*A_dc^2/|omega_angular| (units s).

    ``omega`` is an ordinary frequency in GHz, scalar or array.

    Raises:
        InfraredDivergenceError: at omega == 0 (the 1/f divergence there is
            handled by the dedicated low-frequency dephasing term).
    """
    return _one_over_f(omega, model.a_dc)


def s_ac(omega, model: NoiseModel):
    """1/f drive-amplitude-noise spectral density 2*pi*A_ac^2/|omega_angular|,
    ``omega`` scalar or array, as in ``s_dc``."""
    return _one_over_f(omega, model.a_ac)


def s_diel(omega, params: CircuitParams, model: NoiseModel):
    """Dielectric-loss spectral density (1/s) at ordinary frequency omega (GHz),
    scalar or array.

    S(omega) = omega_ang^2 * tan_delta_c / (8 * E_C_ang) * |coth(x) + 1|,
    x = hbar*omega_ang / (2 k_B T).  The bracket is coth + 1 = 2/(1 - e^{-x})
    for omega > 0; for omega < 0 its magnitude 2/(e^{|x|} - 1) = 2*n_bose,
    so S(-w)/S(w) = e^{-hbar*w/kT} holds with a positive density on both
    sides.  omega = 0 gives the finite limit 0 (the omega^2 * coth product
    scales as 2 k_B T * omega / hbar there).
    """
    w = ghz_to_angular(np.asarray(omega, dtype=float))
    if model.temperature == 0.0:
        bracket = np.where(w > 0, 2.0, 0.0)
    else:
        x = HBAR * w / (K_BOLTZMANN * model.temperature)
        bracket = np.divide(2.0 * np.exp(np.minimum(x, 0.0)), -np.expm1(-np.abs(x)),
                            out=np.zeros_like(x), where=x != 0.0)
    return w * w * model.tan_delta_c / (8.0 * ghz_to_angular(params.e_c)) * bracket


# ---------------------------------------------------------------------------
# golden-rule rates
# ---------------------------------------------------------------------------


def _neighbour_sum(row: np.ndarray) -> np.ndarray:
    """row^(k+1) + row^(k-1) along the harmonic axis.

    Out-of-window neighbours count as zero: used for the k +/- 1 terms in
    amplitude-noise sums, whose edge-of-window content is below truncation
    error anyway.
    """
    padded = np.pad(row, [(0, 0)] * (row.ndim - 1) + [(1, 1)])
    return padded[..., 2:] + padded[..., :-2]


def _rate_sum(weight: np.ndarray, freq: np.ndarray, density) -> np.ndarray:
    """sum_k weight_k * density(freq_k) over the last axis.

    Zero-weight terms are skipped (sampled at a placeholder frequency and
    weighted zero); a weighted term at exactly zero frequency is an infrared
    divergence of the 1/f spectra.
    """
    live = np.broadcast_to(weight != 0.0, np.shape(freq))
    if np.any(live & (freq == 0.0)):
        raise InfraredDivergenceError(
            "rate sum hit a 1/f spectral density at exactly zero frequency "
            "(quasienergy resonant with a drive harmonic)"
        )
    return np.sum(weight * density(np.where(live, freq, 1.0)), axis=-1)


def _noise_channels(params: CircuitParams, model: NoiseModel, w_flux, w_ac, freq) -> dict:
    """The three noise channels' sums over the harmonic axis of ``freq``.

    ``w_flux`` weights the dielectric and 1/f flux channels, ``w_ac`` the
    1/f amplitude channel.  Both 1/f channels carry E_L^2 and the (2*pi)^2
    that converts flux to phase at Phi_0 = 1.
    """
    el2 = ghz_to_angular(params.e_l) ** 2
    return {
        "dielectric": _rate_sum(w_flux, freq, lambda f: s_diel(f, params, model)),
        "dc_flux": _rate_sum(w_flux * el2, freq,
                             lambda f: s_dc(f, model) * (2.0 * math.pi) ** 2),
        "ac_amplitude": _rate_sum(w_ac * el2, freq,
                                  lambda f: s_ac(f, model) * (2.0 * math.pi) ** 2),
    }


@dataclass(frozen=True)
class DepolarizationRates:
    """Golden-rule excitation/relaxation rates (1/s) and their channel split."""

    gamma_up: float
    gamma_down: float
    breakdown: dict

    @property
    def t1(self) -> float:
        tot = self.gamma_up + self.gamma_down
        return math.inf if tot == 0 else 1.0 / tot


def depolarization_rates(sol: FloquetSolution, model: NoiseModel) -> DepolarizationRates:
    """Sideband-summed depolarization rates of the Floquet qubit.

    The phase elements and the circuit (E_L, E_C) are those of ``sol``.
    """
    elems = sol.phi_elements
    eps01 = sol.splitting(1, 0)
    phi01 = elems.table[0, 1]
    w01 = np.abs(phi01) ** 2
    wac = 0.25 * np.abs(_neighbour_sum(phi01)) ** 2
    # row 0: excitation (gamma_+, spectra at k*Om - eps01)
    # row 1: relaxation (gamma_-, spectra at k*Om + eps01)
    freq = elems.k_values * sol.drive.omega + np.array([[-eps01], [eps01]])
    chans = _noise_channels(sol.spectrum.params, model, w01, wac, freq)
    gamma_up = sum(float(v[0]) for v in chans.values())
    gamma_down = sum(float(v[1]) for v in chans.values())
    breakdown = {name: {"up": float(v[0]), "down": float(v[1])} for name, v in chans.items()}
    return DepolarizationRates(gamma_up=gamma_up, gamma_down=gamma_down, breakdown=breakdown)


@dataclass(frozen=True)
class DephasingRate:
    """Pure dephasing rate (1/s) with the low-frequency and sideband parts."""

    gamma_phi: float
    breakdown: dict

    @property
    def tphi(self) -> float:
        return math.inf if self.gamma_phi == 0 else 1.0 / self.gamma_phi


def pure_dephasing_rate(sol: FloquetSolution, model: NoiseModel) -> DephasingRate:
    """Pure dephasing from 1/f flux and amplitude noise plus sideband terms.

    The phase elements and the circuit are those of ``sol``.  The
    low-frequency term uses the closed matrix-element forms of the
    quasienergy derivatives.
    """
    elems = sol.phi_elements
    (d_flux, d_xi), dz, dpair = _diagonal_differences(sol)
    first = model.ir_log_factor * math.sqrt(
        model.a_dc**2 * ghz_to_angular(d_flux) ** 2
        + model.a_ac**2 * ghz_to_angular(d_xi) ** 2
    )
    off_zero = elems.k_values != 0  # the k = 0 content is the low-frequency term
    wz = 0.5 * np.abs(dz) ** 2 * off_zero
    wac = np.abs(dpair) ** 2 / 8.0 * off_zero
    freq = elems.k_values * sol.drive.omega
    chans = _noise_channels(sol.spectrum.params, model, wz, wac, freq)
    breakdown = {"low_frequency": first, **{name: float(v) for name, v in chans.items()}}
    return DephasingRate(gamma_phi=sum(breakdown.values()), breakdown=breakdown)


# ---------------------------------------------------------------------------
# quasienergy derivatives: matrix-element forms and tracked finite differences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasienergyDerivatives:
    """d eps01 / d phi_dc and d eps01 / d xi, in GHz per flux quantum.

    ``*_me`` are the closed matrix-element forms; ``*_fd`` the Richardson-
    extrapolated five-point finite differences, or None when not requested
    or when branch tracking broke inside the stencil.
    """

    flux_me: float
    xi_me: float
    flux_fd: float | None = None
    xi_fd: float | None = None
    tracking_break: bool = False


def _diagonal_differences(sol: FloquetSolution):
    """dz = phi_11^(k) - phi_00^(k) and dpair, the same difference of
    phi^(k+1) + phi^(k-1), from the phase elements of ``sol``; returned after
    their k = 0 terms' closed-form (d eps01/d phi_dc, d eps01/d xi)."""
    elems = sol.phi_elements
    k0 = int(elems.k_values[-1])  # index of k = 0
    diag = elems.table[[0, 1], [0, 1]]  # phi_00^(k), phi_11^(k)
    pair = _neighbour_sum(diag)
    dz, dpair = diag[1] - diag[0], pair[1] - pair[0]
    e_l = sol.spectrum.params.e_l
    flux = -2.0 * math.pi * e_l * dz[k0]
    xi = -math.pi * e_l * dpair[k0]
    return (float(flux), float(xi)), dz, dpair


def _matrix_element_derivatives(sol: FloquetSolution) -> tuple[float, float]:
    """(d eps01/d phi_dc, d eps01/d xi) in closed form from the phase elements
    of ``sol``."""
    return _diagonal_differences(sol)[0]


# a branch whose best overlap with the reference is at or below this is lost
_TRACKING_BREAK = 0.5


def _matched_eps01(drive: DriveParams, ref: FloquetSolution) -> float:
    """eps01 at a shifted drive point of ``ref``'s circuit, along ``ref``'s branches.

    The reference levels 0 and 1 are continued into the Sambe matrix of the
    shifted point (``floquet._continue_branches``, which rotates them into
    its static eigenbasis), so the returned splitting follows the reference
    branch and copy instead of jumping zones.  A level whose continuation is
    not certified, or overlaps its seed by at most _TRACKING_BREAK, is lost.
    """
    energies, overlaps, certified = _continue_branches(ref, drive, 2)
    lost = ~certified | (overlaps <= _TRACKING_BREAK)
    if lost.any():
        a = int(np.argmax(lost))  # first lost level
        raise TrackingBreakError(
            f"branch tracking lost level {a} at drive={drive!r} (overlap {overlaps[a]:.3f}, "
            f"certified {bool(certified[a])})"
        )
    return float(energies[1] - energies[0])


# initial finite-difference step in phi_dc and xi (flux quanta), before halving
_FD_STEP = 1e-4


def _five_point(f, x0: float, h: float) -> float:
    return (f(x0 - 2 * h) - 8 * f(x0 - h) + 8 * f(x0 + h) - f(x0 + 2 * h)) / (12.0 * h)


def _adaptive_fd(f, x0: float, h0: float, max_halvings: int = 5, rtol: float = 1e-8) -> float:
    """Five-point derivative with step halving and Richardson combination.

    Quasienergy branches can wiggle on fine parameter scales near sideband
    anticrossings, so the truncation error of a fixed step is untrustworthy;
    halve until consecutive estimates agree to ``rtol`` relative, at most
    ``max_halvings`` times, and return the Richardson pair with the smallest
    error estimate |D(h/2) - D(h)|/15.  There is no stop when the estimates
    stop improving: where the derivative is zero to rounding, as at a sweet
    spot, the relative test cannot pass and every halving runs.
    """
    cache: dict[float, float] = {}

    def fc(x: float) -> float:
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    h = h0
    d_prev = _five_point(fc, x0, h)
    best_val, best_err = d_prev, math.inf
    for _ in range(max_halvings):
        h *= 0.5
        d_cur = _five_point(fc, x0, h)
        diff = abs(d_cur - d_prev)
        if diff / 15.0 < best_err:
            best_val = (16.0 * d_cur - d_prev) / 15.0
            best_err = diff / 15.0
        if diff <= rtol * max(abs(d_cur), 1e-30):
            break
        d_prev = d_cur
    return best_val


def quasienergy_derivatives(sol: FloquetSolution, fd: bool = False) -> QuasienergyDerivatives:
    """Quasienergy-splitting derivatives at the solution's drive point.

    The matrix-element forms are always computed, from the phase elements
    of ``sol``.  With ``fd=True`` the five-point central differences of the
    solution's circuit and truncation start from a step of 1e-4 flux quanta
    and are halved and Richardson-combined.  Each stencil continues the
    solution's levels 0 and 1 to its points (``_matched_eps01``) and solves
    no Sambe problem.  A branch-tracking break inside one stencil leaves
    that stencil's field None and sets ``tracking_break``; the other
    stencil still runs.
    """
    flux_me, xi_me = _matrix_element_derivatives(sol)
    if not fd:
        return QuasienergyDerivatives(flux_me=flux_me, xi_me=xi_me)

    drive = sol.drive

    def eps_flux(x: float) -> float:
        return _matched_eps01(DriveParams(FluxBias(x), drive.xi, drive.omega), sol)

    def eps_xi(x: float) -> float:
        # eps01 is even in xi; reflect so DriveParams stays in its domain
        return _matched_eps01(DriveParams(drive.bias, abs(x), drive.omega), sol)

    flux_fd = xi_fd = None
    broke = False
    try:
        flux_fd = _adaptive_fd(eps_flux, drive.bias.phi_dc, _FD_STEP)
    except TrackingBreakError:
        broke = True
    try:
        if drive.xi == 0.0:
            xi_fd = 0.0  # even function: exact at xi = 0
        else:
            h = min(_FD_STEP, 0.45 * drive.xi)  # keep the stencil at xi > 0
            xi_fd = _adaptive_fd(eps_xi, drive.xi, h)
    except TrackingBreakError:
        broke = True
    return QuasienergyDerivatives(
        flux_me=flux_me,
        xi_me=xi_me,
        flux_fd=flux_fd,
        xi_fd=xi_fd,
        tracking_break=broke,
    )


# ---------------------------------------------------------------------------
# combined coherence summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherenceRates:
    """Rates in 1/s and times in s for one drive point."""

    gamma_up: float
    gamma_down: float
    gamma_phi: float
    t1: float
    t2r: float
    tphi: float
    breakdown: dict
    derivatives: QuasienergyDerivatives


def coherence_rates(
    params: CircuitParams,
    drive: DriveParams,
    model: NoiseModel,
    config: SambeConfig = SambeConfig(),
    sol: FloquetSolution | None = None,
    fd: bool = False,
) -> CoherenceRates:
    """Solve (or reuse) the Floquet problem and assemble all rates.

    A given ``sol`` must be the solution of ``params``, ``drive`` and
    ``config``: the rates are those of ``sol``, so any other arguments
    would silently be ignored.

    Raises:
        ValueError: when ``sol`` was solved for another drive, truncation
            or circuit.
    """
    if sol is None:
        sol = solve_floquet(params, drive, config)
    elif sol.drive != drive or sol.config != config or sol.spectrum.params != params:
        raise ValueError(
            f"sol was solved for {sol.spectrum.params!r}, {sol.drive!r}, {sol.config!r}; "
            f"coherence_rates was given {params!r}, {drive!r}, {config!r}"
        )
    derivs = quasienergy_derivatives(sol, fd=fd)
    depol = depolarization_rates(sol, model)
    deph = pure_dephasing_rate(sol, model)
    t1 = depol.t1
    inv_t2r = (0.0 if t1 == math.inf else 0.5 / t1) + deph.gamma_phi
    return CoherenceRates(
        gamma_up=depol.gamma_up,
        gamma_down=depol.gamma_down,
        gamma_phi=deph.gamma_phi,
        t1=t1,
        t2r=math.inf if inv_t2r == 0 else 1.0 / inv_t2r,
        tphi=deph.tphi,
        breakdown={"depolarization": depol.breakdown, "dephasing": deph.breakdown},
        derivatives=derivs,
    )


# ---------------------------------------------------------------------------
# sweet-spot location
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweetSpotSpec:
    """Sweet-spot scan settings, the ``[sweetspot]`` section of a run
    configuration: a refined root is a spot where a derivative is below
    ``tol_d`` GHz per flux quantum."""

    tol_d: float = 1e-4

    def __post_init__(self) -> None:
        if not self.tol_d > 0:
            raise ValueError("tol_d must be positive")
        if self.tol_d == math.inf:  # every refined root would pass as a spot
            raise ValueError("tol_d must be finite")


@dataclass(frozen=True)
class SweetSpot:
    """A refined zero of one or both quasienergy derivatives."""

    kind: str  # "flux" | "amplitude" | "double"
    phi_dc: float
    xi: float
    omega: float
    d_flux: float
    d_xi: float
    rates: CoherenceRates


@dataclass(frozen=True)
class SweetSpotScan:
    """Refined sweet spots plus scan diagnostics (sign-change bookkeeping)."""

    spots: tuple[SweetSpot, ...]
    diagnostics: dict


# Brent's relative tolerance, as scipy.optimize.brentq's default: 4 * eps
_BRENT_RTOL = 4 * np.finfo(float).eps


def _brentq(f, a: float, b: float, xtol: float = 1e-12, maxiter: int = 100) -> float:
    """A zero of ``f`` in the bracket [a, b], over which it changes sign.

    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4) as scipy.optimize.brentq runs it, step for step and with
    its relative tolerance, so it evaluates the same points and returns the
    same root to the bit.

    Raises:
        ValueError: f(a) and f(b) have the same sign.
        ConvergenceError: no convergence in ``maxiter`` steps.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end as xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {maxiter} steps (x = {xcur!r})")


_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _fd_jacobian(f, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of ``f`` at ``x``, with step sqrt(eps)*|x_j|
    (sqrt(eps) where x_j = 0), as MINPACK's fdjac1 takes it."""
    jac = np.empty((fx.size, x.size))
    for j in range(x.size):
        h = _SQRT_EPS * abs(x[j]) or _SQRT_EPS
        step = x.copy()
        step[j] += h
        jac[:, j] = (np.asarray(f(step)) - fx) / h
    return jac


def _newton(f, x0, inside, xtol: float = 1e-12, maxiter: int = 100) -> np.ndarray | None:
    """A zero of ``f``: R^n -> R^n reached from ``x0`` without leaving the
    region where ``inside(x)`` holds, or None.

    Newton steps on a forward-difference Jacobian (``_fd_jacobian``), which
    Broyden rank-one updates move between refreshes (Broyden, Math. Comp.
    19, 577 (1965)).  It is refreshed where a step leaves the region or does
    not reduce |f|, and before a step with |dx| <= xtol*|x| is accepted, so
    the last step is a Newton step on a fresh Jacobian.  None when a step on
    a fresh Jacobian leaves the region, is singular or is not finite, or
    after ``maxiter`` steps.  ``f`` is read only inside the region and at
    difference steps from its points.
    """
    x = np.asarray(x0, dtype=float)
    fx = np.asarray(f(x), dtype=float)
    jac = None
    for _ in range(maxiter):
        if jac is None:
            jac, fresh = _fd_jacobian(f, x, fx), True
        try:
            dx = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(dx)):
            return None
        if not inside(x + dx):
            if fresh:
                return None
            jac = None
            continue
        if np.linalg.norm(dx) <= xtol * np.linalg.norm(x):
            if fresh:
                return x + dx
            jac = None
            continue
        f_new = np.asarray(f(x + dx), dtype=float)
        if not fresh and not np.linalg.norm(f_new) < np.linalg.norm(fx):
            jac = None
            continue
        jac = jac + np.outer(f_new - fx - jac @ dx, dx) / (dx @ dx)
        x, fx, fresh = x + dx, f_new, False
    return None


def _field_at(params: CircuitParams, config: SambeConfig, phi, xi, om) -> tuple[float, float]:
    """The scan's field (d eps01/d phi_dc, d eps01/d xi) at one drive point;
    the ``sweetspot`` task's cells evaluate it, and read no truncation check."""
    drive = DriveParams(FluxBias(phi), xi, om)
    return _matrix_element_derivatives(solve_floquet(params, drive, config))


def find_sweet_spots(params: CircuitParams, noise: NoiseModel, grid) -> SweetSpotScan:
    """Locate sweet spots of the driven qubit on a (phi_dc, xi, omega) grid.

    ``grid`` provides the three axes (each a scalar or 1D sequence in any
    order; axes are sorted before the scan).  The matrix-element derivative
    field, evaluated at every grid point at the default truncation, is
    scanned for sign changes along axes of length > 1; 1D scans are refined
    by Brent's bracketing method (flux-sweet spots along phi_dc,
    amplitude-sweet spots along xi), and when both xi and omega vary, cells
    where both derivatives change sign seed a joint two-dimensional Newton
    refinement (double sweet spots); both root finders are in-package code
    (``_brentq``, ``_newton``).  A refined spot is classified "double" only if
    the drive is actually on (xi > 0) and both residual derivatives are
    below the default ``SweetSpotSpec.tol_d``.  The ``sweetspot`` task runs
    the same refinement on the field its cells computed.

    With no sign change anywhere the result has no spots and the diagnostics
    say what was scanned.  Each refined spot carries its coherence rates
    under ``noise``.
    """
    config = SambeConfig()
    axes = tuple(
        tuple(np.sort(np.atleast_1d(np.asarray(v, dtype=float))))
        for v in (grid.phi_dc, grid.xi, grid.omega)
    )
    field = [_field_at(params, config, *point) for point in itertools.product(*axes)]
    return _refine_sweet_spots(params, noise, config, axes, np.array(field),
                               SweetSpotSpec.tol_d)


def _refine_sweet_spots(params: CircuitParams, noise: NoiseModel, config: SambeConfig,
                        axes: tuple, field: np.ndarray, tol_d: float) -> SweetSpotScan:
    """Sweet spots from ``field``, ``_field_at`` at each point of the ascending
    (phi_dc, xi, omega) ``axes`` in row-major order; only refinement solves.

    A sign change of one derivative between neighbours along its axis is a
    bracket for ``_brentq`` (xtol 1e-12).  A cell where both change sign
    seeds ``_newton`` at its centre, on (xi, omega) -> the field at (|xi|,
    |omega|), inside its cell widened by one cell, so no drive far from the
    cell is solved.  A seed that does not converge, whose Newton step on a
    fresh Jacobian leaves that region, or that reaches a point that is not a
    double spot counts in ``refine_failures``; a root within 1e-6 of a
    double spot found before is dropped.
    """
    grid_phi, grid_xi, grid_om = axes
    # d[i, j, l] = (d eps01/d phi_dc, d eps01/d xi) at grid point (phi_i, xi_j, om_l)
    d = np.asarray(field, dtype=float).reshape(*(len(a) for a in axes), 2)
    d1, d2 = d[..., 0], d[..., 1]

    # root finders revisit drive points (bracket ends, and the root classify
    # reads, which _brentq may have evaluated one step before its last), so
    # derivatives are memoised on the exact point from the grid on, and the
    # few most recent solutions are kept; memory stays bounded
    @functools.lru_cache(maxsize=4)
    def solved(phi: float, xi: float, om: float) -> FloquetSolution:
        return solve_floquet(params, DriveParams(FluxBias(phi), xi, om), config)

    derivs = dict(zip(itertools.product(*axes), map(tuple, d.reshape(-1, 2).tolist())))

    def derivs_at(*point):
        if point not in derivs:
            derivs[point] = _matrix_element_derivatives(solved(*point))
        return derivs[point]

    spots: list[SweetSpot] = []
    diags = {
        "grid_shape": tuple(len(a) for a in axes),
        "flux_brackets": 0,
        "amplitude_brackets": 0,
        "double_seeds": 0,
        "refine_failures": 0,
    }

    def classify(phi, xi, om):
        sol = solved(phi, xi, om)
        df, dx = _matrix_element_derivatives(sol)
        both = abs(df) < tol_d and abs(dx) < tol_d and xi > 0
        if both:
            kind = "double"
        elif abs(df) < tol_d:
            kind = "flux"
        elif abs(dx) < tol_d:
            kind = "amplitude"
        else:
            return None
        rates = coherence_rates(params, sol.drive, noise, config, sol=sol)
        return SweetSpot(kind=kind, phi_dc=phi, xi=xi, omega=om, d_flux=df, d_xi=dx, rates=rates)

    # 1D scans: flux-sweet spots along phi_dc, amplitude-sweet spots along xi
    for axis, name in ((0, "flux"), (1, "amplitude")):
        vals = axes[axis]
        others = [a for a in range(3) if a != axis]
        cols = np.moveaxis(d[..., axis], axis, -1)  # scanned axis last
        for *idx, i in np.ndindex(*cols.shape[:-1], len(vals) - 1):
            col = cols[tuple(idx)]
            if col[i] == 0.0 or col[i] * col[i + 1] >= 0:
                continue
            diags[f"{name}_brackets"] += 1
            fixed = [axes[a][n] for a, n in zip(others, idx)]

            def at(x):
                return fixed[:axis] + [x] + fixed[axis:]

            x_star = _brentq(lambda x: derivs_at(*at(x))[axis], vals[i], vals[i + 1])
            spot = classify(*(float(v) for v in at(x_star)))
            if spot is not None:
                spots.append(spot)
            else:
                diags["refine_failures"] += 1

    # joint refinement over (xi, omega) cells
    if len(grid_xi) > 1 and len(grid_om) > 1:
        for i, phi in enumerate(grid_phi):
            for j in range(len(grid_xi) - 1):
                for l in range(len(grid_om) - 1):
                    c1 = d1[i, j : j + 2, l : l + 2]
                    c2 = d2[i, j : j + 2, l : l + 2]
                    if not (c1.min() < 0 < c1.max() and c2.min() < 0 < c2.max()):
                        continue
                    diags["double_seeds"] += 1
                    x0 = [
                        0.5 * (grid_xi[j] + grid_xi[j + 1]),
                        0.5 * (grid_om[l] + grid_om[l + 1]),
                    ]
                    wx = grid_xi[j + 1] - grid_xi[j]
                    wo = grid_om[l + 1] - grid_om[l]

                    # a root that escapes its seeding cell widened by one cell
                    # belongs to some other basin, and so does a path there
                    def in_cell(v):
                        return (grid_xi[j] - wx <= abs(v[0]) <= grid_xi[j + 1] + wx
                                and grid_om[l] - wo <= abs(v[1]) <= grid_om[l + 1] + wo)

                    v_star = _newton(lambda v: derivs_at(phi, abs(v[0]), abs(v[1])), x0, in_cell)
                    if v_star is None:
                        diags["refine_failures"] += 1
                        continue
                    xi_star, om_star = abs(v_star[0]), abs(v_star[1])
                    if any(
                        s.kind == "double"
                        and abs(s.xi - xi_star) < 1e-6
                        and abs(s.omega - om_star) < 1e-6
                        for s in spots
                    ):
                        continue
                    spot = classify(float(phi), float(xi_star), float(om_star))
                    if spot is not None and spot.kind == "double":
                        spots.append(spot)
                    else:
                        diags["refine_failures"] += 1

    spots.sort(key=lambda s: (s.phi_dc, s.omega, s.xi))
    return SweetSpotScan(spots=tuple(spots), diagnostics=diags)
