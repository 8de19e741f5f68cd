"""Cavity-qubit sideband couplings: Floquet dipole elements, rotating-wave
phase coefficients, and polariton manifold fits.

Two routes to the drive-induced sideband couplings of the 0 -> 3 transition
near its crossing with the cavity:

* exact: the m-th harmonic dipole element of the Floquet states,
  g_m = g_cap * <phi_3^(m)| n |phi_0^(0)>, using the dominant (n = 0) block
  of the ground Floquet state as reference;

* rotating-wave: the modulated transition accumulates the phase
  eta(t) = 2*pi * int_0^t [zeta(xi*cos(2*pi*Om*tau)) - zeta_bar] dtau,
  whose harmonic content A_n = (1/T) int e^{-i n 2*pi*Om*t} e^{i eta} dt
  redistributes a static coupling over sidebands,
  g_n = (g/2) A_n + (g'/4)(A_{n-1} + A_{n+1}).

The mean transition shift zeta_bar is removed from the integrand (it would
otherwise grow a nonperiodic phase ramp) and reported separately.  For a
linear dispersion zeta = lam*dphi the coefficients are exactly Bessel,
A_n = J_n(lam*xi/Om).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .circuit import (
    CircuitParams,
    FluxBias,
    _lattice_spline,
    _n_element_flux_derivative,
    diagonalize_static,
)
from .errors import ConvergenceError, FitError, OutOfWindowError
from .floquet import FloquetSolution
from .units import TWO_PI

__all__ = [
    "CavityParams",
    "PolaritonSpec",
    "RWAParams",
    "PhaseCoefficients",
    "PolaritonFit",
    "floquet_dipole_coupling",
    "rwa_phase_coefficients",
    "rwa_coupling",
    "rwa_params_from_circuit",
    "fit_polariton",
    "synth_polariton_data",
]


@dataclass(frozen=True)
class CavityParams:
    """Readout cavity: frequency and capacitive coupling strength (GHz).

    ``g_cap`` multiplies the charge matrix element; its default is a
    placeholder of the right order (tens of MHz m = 0 splitting near the
    0 -> 3 crossing), not a measured device value, and should be calibrated
    against data when available.
    """

    omega_c: float = 7.30
    g_cap: float = 0.15

    def __post_init__(self) -> None:
        if not (0 < self.omega_c < math.inf and 0 <= self.g_cap < math.inf):
            raise ValueError("omega_c must be finite and positive, g_cap finite and non-negative")


@dataclass(frozen=True)
class PolaritonSpec:
    """Polariton task inputs, the ``[polariton]`` section of a run
    configuration: an optional peak-data file for the manifold fit, and the
    fit's ``capture_window`` (GHz, see ``fit_polariton``)."""

    data_file: str = ""
    capture_window: float = 0.12

    def __post_init__(self) -> None:
        if not self.capture_window > 0:
            raise ValueError("capture_window must be positive")
        if self.capture_window == math.inf:
            raise ValueError("capture_window must be finite")


def floquet_dipole_coupling(sol: FloquetSolution, cavity: CavityParams, m: int) -> complex:
    """Sideband coupling g_m = g_cap * <phi_3^(m)| n |phi_0^(0)>.

    The charge matrix elements are those of the static spectrum the solution
    was built on.  The modulus is gauge independent; the phase depends on
    the eigenvector gauge.

    Raises:
        OutOfWindowError: when |m| exceeds the solution's sideband window.
        ValueError: when the solution does not hold level 3.
    """
    if sol.n_levels <= 3:
        raise ValueError(f"solution holds levels < {sol.n_levels}, asked for 3")
    d = sol.n_levels
    n_op = sol.spectrum.n_elements[:d, :d]
    bra = sol.block(3, m)
    ket = sol.block(0, 0)
    return complex(cavity.g_cap * (bra.conj() @ n_op @ ket))


@dataclass(frozen=True)
class RWAParams:
    """Rotating-wave model of the modulated 0 -> 3 transition.

    The model and the exact Floquet dipole elements use different overall
    conventions (the rotating-frame derivation halves the cosine coupling),
    so cross-model comparisons are made on couplings normalized by their
    own zero-modulation m = 0 value, where the convention factor cancels.

    Attributes:
        omega3: static transition frequency at the bias point, GHz.
        g: static dipole coupling g_cap * <3|n|0>, GHz.
        g_prime: amplitude of the drive-induced coupling modulation, GHz.
        zeta: transition-frequency shift in GHz as a function of the flux
            excursion dphi (Phi_0 units), elementwise over an array of
            excursions; must vanish at dphi = 0.
    """

    omega3: float
    g: float
    g_prime: float
    zeta: object

    def __post_init__(self) -> None:
        if not self.omega3 > 0:
            raise ValueError("omega3 must be positive")
        z0 = float(self.zeta(0.0))
        if abs(z0) > 1e-9:
            raise ValueError(f"zeta(0) must vanish, got {z0!r}")


@dataclass(frozen=True, eq=False)
class PhaseCoefficients:
    """Harmonic coefficients A_n of the accumulated-phase factor e^{i eta(t)}.

    The stored window is at least |n| <= 10 and wide enough to hold
    all non-negligible weight; ``completeness`` is sum |A_n|^2 over it.
    ``mean_detuning`` is the period average of zeta removed before
    integration (an effective static shift of the transition).
    """

    n_values: np.ndarray
    coefficients: np.ndarray
    mean_detuning: float
    completeness: float

    def __post_init__(self) -> None:
        self.n_values.setflags(write=False)
        self.coefficients.setflags(write=False)

    def get(self, n: int) -> complex:
        kmax = int(self.n_values[-1])
        if abs(n) > kmax:
            raise OutOfWindowError(f"A_{n} outside the stored window |n| <= {kmax}")
        return complex(self.coefficients[n + kmax])


def rwa_phase_coefficients(rwa: RWAParams, drive) -> PhaseCoefficients:
    """Phase-factor harmonics A_n by spectrally accurate periodic quadrature.

    zeta is sampled on a uniform grid over one drive period and integrated
    through its Fourier series (exact for the trigonometric interpolant, with
    the grid doubled until the coefficients stabilize), which for smooth
    periodic integrands converges faster than any power of the step.

    Raises:
        ValueError: zeta does not return one value per flux excursion.
        ConvergenceError: grid doubling failed to stabilize, or the stored
            window cannot reach completeness 1 - 1e-8.
    """
    omega = drive.omega
    xi = drive.xi
    m = 1024
    prev = None
    mean_shift = 0.0
    for _ in range(8):
        t = np.arange(m) / (m * omega)
        dphi = xi * np.cos(TWO_PI * omega * t)
        z = np.asarray(rwa.zeta(dphi), dtype=float)
        if z.shape != dphi.shape:
            raise ValueError(f"zeta returned shape {z.shape} for {dphi.shape} flux excursions")
        mean_shift = float(np.mean(z))
        c = np.fft.fft(z - mean_shift) / m
        k = np.rint(np.fft.fftfreq(m) * m).astype(int)
        d = np.zeros(m, dtype=complex)
        nz = k != 0
        d[nz] = c[nz] / (1j * k[nz] * omega)
        eta = m * np.fft.ifft(d) - np.sum(d)
        if float(np.max(np.abs(eta.imag))) > 1e-9:
            raise ConvergenceError("phase integral developed an imaginary part")
        a = np.fft.fft(np.exp(1j * eta.real)) / m
        if prev is not None and prev.size <= a.size:
            half = prev.size // 2
            common_prev = np.concatenate([prev[:half], prev[-half:]])
            common_cur = np.concatenate([a[:half], a[-half:]])
            if float(np.max(np.abs(common_prev - common_cur))) < 1e-13:
                break
        prev = a
        m *= 2
    else:
        raise ConvergenceError("phase-coefficient quadrature did not stabilize")

    # choose the stored window: |n| <= 10, widened until the missing weight
    # drops below 1e-12 (capped well inside the alias-free region)
    mm = a.size
    kmax = 10
    cap = mm // 4
    def window_weight(kk):
        idx = np.r_[0 : kk + 1, mm - kk : mm] if kk > 0 else np.array([0])
        return float(np.sum(np.abs(a[idx]) ** 2))
    while kmax < cap and 1.0 - window_weight(kmax) > 1e-12:
        kmax += 5
    weight = window_weight(kmax)
    if weight < 1.0 - 1e-8:
        raise ConvergenceError(
            f"phase coefficients reach completeness {weight:.12f} < 1 - 1e-8 "
            f"within |n| <= {kmax}; modulation too strong for the window"
        )
    coeffs = np.concatenate([a[mm - kmax :], a[: kmax + 1]])
    return PhaseCoefficients(
        n_values=np.arange(-kmax, kmax + 1),
        coefficients=coeffs,
        mean_detuning=mean_shift,
        completeness=weight,
    )


def rwa_coupling(rwa: RWAParams, coeffs: PhaseCoefficients, n: int) -> complex:
    """Sideband coupling g_n = (g/2) A_n + (g'/4)(A_{n-1} + A_{n+1})."""
    return 0.5 * rwa.g * coeffs.get(n) + 0.25 * rwa.g_prime * (
        coeffs.get(n - 1) + coeffs.get(n + 1)
    )


def rwa_params_from_circuit(params: CircuitParams, bias0: float, cavity: CavityParams,
                            xi: float) -> RWAParams:
    """Build the rotating-wave model of the 0 -> 3 transition at ``bias0``.

    omega3 and zeta come from a cubic-spline dispersion of the transition
    over the flux the drive sweeps, ``bias0 +/- xi``, through the multiples
    of 0.005 that cover it plus 4 more on each side; on this one lattice,
    cells at nearby biases share most of their static eigensolves through
    the memo.  g = g_cap * |n_03| at the bias point, and g' is the flux
    derivative of that coupling times the drive amplitude, exact to first
    order in perturbation theory on the bias spectrum (one Sternheimer
    solve per state), so the model costs the lattice nodes and the bias.
    """
    spline = _lattice_spline(params, 0, 3, bias0 - xi, bias0 + xi)
    omega3 = float(spline(bias0))

    def zeta(dphi):
        return spline(bias0 + np.asarray(dphi)) - omega3

    spec = diagonalize_static(params, FluxBias(bias0))
    n03 = complex(spec.n_elements[0, 3])
    # d|n_03| = Re(conj(n_03) d n_03) / |n_03|
    dn03 = (n03.conjugate() * _n_element_flux_derivative(spec, 0, 3)).real / abs(n03)
    return RWAParams(omega3=omega3, g=cavity.g_cap * abs(n03),
                     g_prime=xi * cavity.g_cap * dn03, zeta=zeta)


# ---------------------------------------------------------------------------
# polariton manifold and fits
# ---------------------------------------------------------------------------

_FIT_M_VALUES = tuple(range(-2, 4))


def _by_m(values, missing: float = 0.0) -> dict:
    """m -> float over m = -2..3 from a mapping (None or a missing m reads ``missing``)."""
    return {m: float((values or {}).get(m, missing)) for m in _FIT_M_VALUES}


def _manifold(cavity: CavityParams, omega3s: np.ndarray, drive_omega: float,
              g_m: dict, delta_m: dict) -> np.ndarray:
    """One-excitation manifold matrices, one 7x7 per transition frequency.

    Row 0 is the bare cavity at omega_c; row j holds sideband image
    m = j - 3 of the 0 -> 3 transition at omega3 + m*Omega + delta_m, coupled
    to the cavity by |g_m|.
    """
    size = 1 + len(_FIT_M_VALUES)
    h = np.zeros((omega3s.size, size, size))
    h[:, 0, 0] = cavity.omega_c
    for j, m in enumerate(_FIT_M_VALUES, start=1):
        h[:, j, j] = omega3s + m * drive_omega + delta_m[m]
        h[:, 0, j] = h[:, j, 0] = abs(g_m[m])
    return h


@dataclass(frozen=True, eq=False)
class PolaritonFit:
    """Result of fitting sideband couplings to avoided-crossing data.

    ``g_m``/``delta_m`` map each sideband index to its fitted coupling and
    detuning; unidentifiable sidebands (no data near their crossing) are
    pinned to zero, listed in ``unidentifiable``, and carry infinite error.
    """

    g_m: dict
    delta_m: dict
    g_err: dict
    residual: float
    unidentifiable: tuple[int, ...]
    n_evaluations: int
    success: bool


def synth_polariton_data(
    cavity: CavityParams,
    omega3_curve,
    drive_omega: float,
    g_m,
    delta_m,
    phis,
    sigma: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Simulated transmission-peak data (phi, freq[, sigma]) near the cavity.

    The 7x7 one-excitation manifold at each flux couples the bare cavity at
    omega_c to the sideband images of the 0 -> 3 transition at
    omega3 + m*Omega + delta_m for m = -2..3, with coupling |g_m| between
    the cavity and image m; ``g_m`` and ``delta_m`` map m to the coupling
    and the shift (a missing m reads 0).  Its eigenvalues within 0.25 GHz of
    the cavity are emitted in ascending order, optionally jittered by
    gaussian noise of scale ``sigma`` (GHz).
    """
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    omega3s = np.array([float(omega3_curve(phi)) for phi in phis])
    eigs = np.linalg.eigvalsh(_manifold(cavity, omega3s, drive_omega, _by_m(g_m), _by_m(delta_m)))
    near = np.abs(eigs - cavity.omega_c) <= 0.25
    data = np.column_stack([np.broadcast_to(phis[:, None], eigs.shape)[near], eigs[near]])
    if sigma > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        data = np.column_stack([data[:, 0], data[:, 1] + rng.normal(0, sigma, data.shape[0]),
                                np.full(data.shape[0], sigma)])
    return data


def _unpack(x: np.ndarray, active) -> tuple[dict, dict]:
    """(g_m, delta_m) over m = -2..3 from the fit vector; inactive m read 0."""
    n_act = len(active)
    return _by_m(dict(zip(active, np.abs(x[:n_act])))), _by_m(dict(zip(active, x[n_act:])))


def _fit_problem(cavity: CavityParams, omega3s: np.ndarray, drive_omega: float,
                 freqs: np.ndarray, sigmas: np.ndarray, active):
    """Residual and exact Jacobian of the manifold fit over x = (g, delta).

    Each data point contributes |lambda_k - f| / sigma, lambda_k the manifold
    eigenvalue nearest its peak.  With v the eigenvector of lambda_k,
    Hellmann-Feynman gives d lambda_k / d g_m = 2 v_0 v_m sign(g_m) and
    d lambda_k / d delta_m = v_m^2.  Both callbacks share one batched eigh,
    cached for the most recent x, over one manifold per distinct transition
    frequency: the peaks of one flux share theirs.
    """
    n_act = len(active)
    cols = np.array([_FIT_M_VALUES.index(m) + 1 for m in active])  # manifold rows
    distinct, which = np.unique(omega3s, return_inverse=True)
    last: dict = {}

    def decompose(x):
        key = x.tobytes()
        if key not in last:
            h = _manifold(cavity, distinct, drive_omega, *_unpack(x, active))
            eigs, vecs = np.linalg.eigh(h)
            k = np.argmin(np.abs(eigs[which] - freqs[:, None]), axis=1)
            last.clear()
            last[key] = (eigs[which, k] - freqs, vecs[which, :, k])
        return last[key]

    def residuals(x):
        return np.abs(decompose(x)[0]) / sigmas

    def jacobian(x):
        diff, v = decompose(x)
        vm = v[:, cols]
        dlam = np.hstack([2.0 * v[:, :1] * vm * np.sign(x[:n_act]), vm * vm])
        return (np.sign(diff) / sigmas)[:, None] * dlam

    return residuals, jacobian


def _peak_table(data) -> np.ndarray:
    """``data`` as a float table that ``fit_polariton`` can fit, or a ValueError."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[1] not in (2, 3):
        raise ValueError("peak table must have columns phi_dc, freq_ghz[, sigma_ghz]; "
                         f"got shape {data.shape}")
    if data.shape[0] < 5:
        raise ValueError(f"peak table needs at least 5 rows; got {data.shape[0]}")
    if not np.isfinite(data).all():
        raise ValueError("peak table must hold finite values only")
    if data.shape[1] == 3 and np.any(data[:, 2] <= 0):
        raise ValueError("peak table sigma_ghz must be positive")
    return data


def fit_polariton(
    data: np.ndarray,
    cavity: CavityParams,
    omega3_curve,
    drive_omega: float,
    capture_window: float = PolaritonSpec.capture_window,
) -> PolaritonFit:
    """Fit sideband couplings g_m (m = -2..3) and detunings to peak data.

    ``data`` is an (N, 2) or (N, 3) array of (phi, freq_ghz[, sigma_ghz]),
    N >= 5, finite, with positive sigmas; each point contributes the
    distance to the nearest manifold eigenvalue.
    A sideband is identifiable only when some data point lies within
    ``capture_window`` (GHz) of its bare crossing; the rest are pinned at
    g_m = 0, delta_m = 0.  Initialization and restarts are deterministic, so
    the fit is reproducible for fixed data.

    The Jacobian is exact (first-order perturbation theory on the
    eigendecomposition the residual already needs), so each least-squares
    step costs one batched eigh, of one manifold per distinct flux in the
    data, and ``g_err`` comes from the exact Jacobian at the optimum.
    ``n_evaluations`` counts residual evaluations over all restarts;
    Jacobian evaluations reuse them.

    Raises:
        ValueError: ``data`` breaks one of these rules.
        FitError: when every restart fails to converge.
    """
    data = _peak_table(data)
    phis = data[:, 0]
    freqs = data[:, 1]
    sigmas = data[:, 2] if data.shape[1] == 3 else np.ones_like(freqs)
    omega3s = np.array([float(omega3_curve(p)) for p in phis])

    active = []
    for m in _FIT_M_VALUES:
        gap = np.abs(omega3s + m * drive_omega - cavity.omega_c)
        if np.any(gap < capture_window):
            active.append(m)
    pinned = tuple(m for m in _FIT_M_VALUES if m not in active)
    if not active:
        raise FitError("no sideband crossing is covered by the data")

    n_act = len(active)
    residuals, jacobian = _fit_problem(cavity, omega3s, drive_omega, freqs, sigmas, active)
    starts = [np.concatenate([np.full(n_act, g0), np.zeros(n_act)])
              for g0 in (0.005, 0.02, 0.05, 0.1)]

    best = None
    n_eval = 0
    for x0 in starts:
        try:
            res = least_squares(
                residuals,
                x0,
                jac=jacobian,
                bounds=(
                    np.concatenate([np.zeros(n_act), np.full(n_act, -0.2)]),
                    np.concatenate([np.full(n_act, 0.5), np.full(n_act, 0.2)]),
                ),
                method="trf",
                xtol=1e-14,
                ftol=1e-14,
                gtol=1e-14,
            )
        except (ValueError, np.linalg.LinAlgError):
            continue
        n_eval += res.nfev
        if res.status > 0 and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        raise FitError("polariton fit failed to converge from every start")

    g_fit, d_fit = _unpack(best.x, active)
    dof = max(freqs.size - 2 * n_act, 1)
    var = 2.0 * best.cost / dof
    jtj = best.jac.T @ best.jac
    try:
        cov = var * np.linalg.pinv(jtj)
        perr = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        perr = np.full(2 * n_act, np.inf)
    g_err = _by_m(dict(zip(active, perr)), math.inf)
    rms = float(np.sqrt(np.mean((best.fun * sigmas) ** 2)))
    return PolaritonFit(
        g_m=g_fit,
        delta_m=d_fit,
        g_err=g_err,
        residual=rms,
        unidentifiable=pinned,
        n_evaluations=n_eval,
        success=True,
    )
