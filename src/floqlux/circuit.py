"""Static fluxonium circuit: Hamiltonian assembly and spectra.

The circuit Hamiltonian, with all energies expressed as E/h in GHz and the
node phase ``phi`` in radians, is

    H = 4 E_C n^2 - E_J cos(phi) + (E_L / 2) (phi - 2*pi*phi_dc)^2

where ``phi_dc`` is the external flux in units of the flux quantum.  The
matrix representation uses the number basis of the harmonic part
(4 E_C n^2 + E_L phi^2 / 2), whose plasma frequency is sqrt(8 E_C E_L).
``cos(phi)`` is filled from the exact displacement-operator matrix elements
(associated Laguerre polynomials), so the assembled matrix is the exact
projection of H onto the truncated basis and eigenvalues converge
variationally from above as ``basis_dim`` grows.

This module also holds the BLAS thread policy.  The static, Sambe and
monodromy eigensolves and the banded LUs all run inside
``diagonalize_static``, ``floquet.solve_floquet`` or
``floquet.monodromy_oracle``, and the Sternheimer solves inside
``_n_element_flux_derivative``.  Each of these runs the OpenBLAS builds
that numpy and scipy load at one thread, then restores the caller's counts:
on matrices of 5 to a few hundred rows more threads buy no speed, only
spin, and they change the last bits of ``eigh``.  So their results depend
neither on the core count nor on ``OPENBLAS_NUM_THREADS``.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.special import eval_genlaguerre, gammaln

from .errors import DiagnosticError

__all__ = [
    "CircuitParams",
    "FluxBias",
    "StaticSpectrum",
    "build_hamiltonian",
    "diagonalize_static",
]


# the OpenBLAS builds in the numpy wheel (used by np.linalg) and in the scipy
# wheel (used by scipy.linalg): package, thread-count setter and getter
_OPENBLAS = (
    ("numpy", "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _openblas_controls() -> tuple:
    """(setter, getter) of each OpenBLAS build found, looked up once per process.

    A build that is missing, or lacks a symbol, is skipped with one warning.
    """
    controls, missing = [], []
    for package, set_name, get_name in _OPENBLAS:
        libdir = Path(importlib.import_module(package).__file__).parent.parent / f"{package}.libs"
        found = sorted(libdir.glob("*openblas*"))
        try:
            if not found:
                raise OSError(f"no OpenBLAS library in {libdir}")
            lib = ctypes.CDLL(str(found[0]))
            setter, getter = getattr(lib, set_name), getattr(lib, get_name)
        except (OSError, AttributeError) as exc:
            missing.append(f"{package} ({exc})")
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        controls.append((setter, getter))
    if missing:
        warnings.warn(f"cannot set the OpenBLAS thread count of {', '.join(missing)}; "
                      "the solvers run it at its own count", RuntimeWarning)
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS at one thread, then restore each build's previous count."""
    controls = _openblas_controls()
    previous = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(controls, previous):
            setter(count)


# static levels a diagonalization keeps by default: eigh(subset_by_index=[0, k-1])
# moves the lowest four eigenvalues by up to 3.5e-14 GHz as k runs over 4..12, so
# the depth is one constant, and 6 keeps the default exports of 0.1.3 bit-identical
_STATIC_LEVELS = 6


@dataclass(frozen=True)
class CircuitParams:
    """Fluxonium circuit energies (GHz) and basis truncation.

    Attributes:
        e_c: charging energy E_C/h in GHz, strictly positive.
        e_j: junction energy E_J/h in GHz.  Zero is allowed (harmonic limit);
            negative values are rejected.
        e_l: inductive energy E_L/h in GHz, strictly positive.
        basis_dim: number of oscillator basis states kept when assembling H, at least 6.
    """

    e_c: float = 1.17
    e_j: float = 2.65
    e_l: float = 0.54
    basis_dim: int = 80

    def __post_init__(self) -> None:
        if not (0 < self.e_c < math.inf and 0 < self.e_l < math.inf):
            raise ValueError("e_c and e_l must be finite and strictly positive")
        if not 0 <= self.e_j < math.inf:
            raise ValueError("e_j must be finite and non-negative")
        if self.basis_dim < _STATIC_LEVELS:
            raise ValueError(f"basis_dim must be at least {_STATIC_LEVELS}")

    @property
    def plasma_frequency(self) -> float:
        """Harmonic-part level spacing sqrt(8 E_C E_L) in GHz."""
        return float(np.sqrt(8.0 * self.e_c * self.e_l))

    @property
    def phi_zpf(self) -> float:
        """Zero-point phase spread (2 E_C / E_L)**0.25 in radians."""
        return float((2.0 * self.e_c / self.e_l) ** 0.25)

    @property
    def n_zpf(self) -> float:
        """Zero-point charge spread (E_L / (32 E_C))**0.25."""
        return float((self.e_l / (32.0 * self.e_c)) ** 0.25)


@dataclass(frozen=True)
class FluxBias:
    """Static external flux in units of the flux quantum."""

    phi_dc: float = 0.5

    def __post_init__(self) -> None:
        if not np.isfinite(self.phi_dc):
            raise ValueError("phi_dc must be finite")


def _cos_phi_matrix(dim: int, lam: float) -> np.ndarray:
    """Exact matrix of cos(phi) in the oscillator basis, phi = lam*(a + a†).

    <m| e^{i lam (a+a†)} |n> = i^{m-n} e^{-lam^2/2} sqrt(n!/m!) lam^{m-n}
                               L_n^{(m-n)}(lam^2)   for m >= n,
    so cos(phi) connects only states of equal parity with a (-1)^{k/2} sign
    on the k-th even diagonal.
    """
    if lam <= 0:
        raise ValueError("phase zero-point spread must be positive")
    x = lam * lam
    mat = np.zeros((dim, dim))
    for k in range(0, dim, 2):
        n = np.arange(dim - k)
        # log-space prefactor keeps the factorial ratio finite at large m - n
        logpref = 0.5 * (gammaln(n + 1) - gammaln(n + k + 1)) + k * np.log(lam) - 0.5 * x
        sign = -1.0 if (k // 2) % 2 else 1.0
        vals = sign * np.exp(logpref) * eval_genlaguerre(n, k, x)
        mat[n + k, n] = vals
        mat[n, n + k] = vals
    return mat


@functools.lru_cache(maxsize=4)
def _basis_matrices(params: CircuitParams) -> tuple:
    """Flux-independent matrices of the circuit, built once and read-only.

    Returns the harmonic diagonal, phi, n and (None when E_J = 0) cos(phi).
    """
    dim = params.basis_dim
    phi_off = params.phi_zpf * np.sqrt(np.arange(1, dim))
    n_off = params.n_zpf * np.sqrt(np.arange(1, dim))
    mats = (
        np.diag(params.plasma_frequency * (np.arange(dim) + 0.5)),
        np.diag(phi_off, 1) + np.diag(phi_off, -1),
        1j * (np.diag(n_off, -1) - np.diag(n_off, 1)),
        _cos_phi_matrix(dim, params.phi_zpf) if params.e_j != 0.0 else None,
    )
    for mat in mats:
        if mat is not None:
            mat.setflags(write=False)
    return mats


def build_hamiltonian(params: CircuitParams, bias: FluxBias) -> np.ndarray:
    """Assemble the static Hamiltonian matrix (GHz) at the given flux bias.

    The harmonic part is diagonal by construction of the basis; the flux
    enters through the exact linear term -E_L*(2 pi phi_dc)*phi plus the
    scalar offset E_L*(2 pi phi_dc)^2 / 2, and the junction through the
    exact cos(phi) matrix.  The result is real symmetric.
    """
    harmonic, phi_op, _, cos_phi = _basis_matrices(params)
    h = harmonic.copy()
    delta = 2.0 * np.pi * bias.phi_dc
    h -= params.e_l * delta * phi_op
    h += 0.5 * params.e_l * delta * delta * np.eye(params.basis_dim)
    if params.e_j != 0.0:
        h -= params.e_j * cos_phi
    return h


@dataclass(frozen=True, eq=False)
class StaticSpectrum:
    """Lowest eigenstates of the static circuit at one flux bias.

    Attributes:
        energies: eigenvalues in GHz, ascending, length ``n_levels`` (6 by default).
        eigenvectors: basis_dim x n_levels matrix of real eigenvectors; the
            largest-magnitude component of each column is made positive.
        phi_elements: <a|phi|b> in radians (real symmetric).
        n_elements: <a|n|b> (Hermitian, purely imaginary off-diagonals).
    """

    params: CircuitParams
    bias: FluxBias
    energies: np.ndarray
    eigenvectors: np.ndarray
    phi_elements: np.ndarray
    n_elements: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.energies, self.eigenvectors, self.phi_elements, self.n_elements):
            arr.setflags(write=False)

    def transition(self, a: int = 0, b: int = 1) -> float:
        """Transition frequency E_b - E_a in GHz."""
        return float(self.energies[b] - self.energies[a])


def _signed_rows(vecs: np.ndarray) -> np.ndarray:
    """The rows of ``vecs``, each signed so its largest-|.| component is positive."""
    lead = vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)]
    return vecs * np.where(lead < 0, -1.0, 1.0)[:, None]


@functools.lru_cache(maxsize=64)
@_one_blas_thread()
def diagonalize_static(params: CircuitParams, bias: FluxBias,
                       n_levels: int = _STATIC_LEVELS) -> StaticSpectrum:
    """Diagonalize the static circuit and return the lowest ``n_levels`` states.

    Spectra are memoised per call in a bounded, per-process LRU memo shared by
    every caller, so a default-depth call passes two arguments (the memo keys
    ``(params, bias, 6)`` apart); the returned spectrum is read-only.  A
    solve runs OpenBLAS at one thread; a memo hit leaves the count alone.

    Raises:
        DiagnosticError: if the eigensolver fails or returns non-finite data.
    """
    h = build_hamiltonian(params, bias)
    try:
        energies, vecs = scipy.linalg.eigh(h, subset_by_index=[0, n_levels - 1])
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise DiagnosticError(
            f"static eigensolver failed at phi_dc={bias.phi_dc!r} for {params!r}: {exc}"
        ) from exc
    if not (np.all(np.isfinite(energies)) and np.all(np.isfinite(vecs))):
        raise DiagnosticError(
            f"static eigensolver returned non-finite values at phi_dc={bias.phi_dc!r}"
        )
    vecs = _signed_rows(vecs.T).T
    _, phi_op, n_op, _ = _basis_matrices(params)
    phi_el = vecs.T @ phi_op @ vecs
    phi_el = 0.5 * (phi_el + phi_el.T)
    n_el = vecs.conj().T @ n_op @ vecs
    n_el = 0.5 * (n_el + n_el.conj().T)
    return StaticSpectrum(
        params=params,
        bias=bias,
        energies=energies,
        eigenvectors=vecs,
        phi_elements=phi_el,
        n_elements=n_el,
    )


@_one_blas_thread()
def _n_element_flux_derivative(spectrum: StaticSpectrum, a: int, b: int) -> complex:
    """d<a|n|b>/d phi_dc at the spectrum's bias, by first-order perturbation
    theory on its eigenvectors (Sternheimer).

    Each state's derivative solves (H - E_k + |k><k|) |dk> = -(1 - |k><k|) dH |k>
    in the full basis, dH = -2 pi E_L phi (the identity part of dH/d phi_dc
    drops out under the projector), so <k|dk> = 0.  States a and b must be
    nondegenerate.
    """
    params = spectrum.params
    h = build_hamiltonian(params, spectrum.bias)
    _, phi_op, n_op, _ = _basis_matrices(params)

    def d_state(k):
        v = spectrum.eigenvectors[:, k]
        dh_v = -2.0 * np.pi * params.e_l * (phi_op @ v)
        lhs = h + np.outer(v, v)
        lhs[np.diag_indices_from(lhs)] -= spectrum.energies[k]
        return scipy.linalg.solve(lhs, (v @ dh_v) * v - dh_v, assume_a="sym")

    va, vb = spectrum.eigenvectors[:, a], spectrum.eigenvectors[:, b]
    return complex(d_state(a) @ n_op @ vb + va @ n_op @ d_state(b))


def transition_spline(
    params: CircuitParams,
    level_a: int,
    level_b: int,
    phi_min: float,
    phi_max: float,
    num: int = 41,
):
    """Cubic-spline interpolant of the a->b transition frequency vs flux.

    Used where a smooth, differentiable frequency curve is needed (dispersive
    shifts of the drive, flux-to-frequency conversion for the rotating-wave
    model).  The spline is built on a uniform grid; callers should keep their
    evaluations inside [phi_min, phi_max].
    """
    return _spline_through(params, level_a, level_b, np.linspace(phi_min, phi_max, num))


# the package's a->b splines take their nodes from one flux lattice, so
# splines over nearby windows share static eigensolves through the memo
_SPLINE_STEP = 0.005
_SPLINE_MARGIN = 4  # lattice steps beyond the window on each side


def _lattice_spline(params: CircuitParams, level_a: int, level_b: int, lo: float, hi: float):
    """Cubic spline of the a->b transition frequency on [lo, hi], through the
    multiples of ``_SPLINE_STEP`` that cover it plus ``_SPLINE_MARGIN`` steps."""
    k = np.arange(math.floor(lo / _SPLINE_STEP) - _SPLINE_MARGIN,
                  math.ceil(hi / _SPLINE_STEP) + _SPLINE_MARGIN + 1)
    return _spline_through(params, level_a, level_b, k * _SPLINE_STEP)


def _spline_through(params: CircuitParams, level_a: int, level_b: int, grid: np.ndarray):
    """Cubic spline of the a->b transition frequency through the ascending fluxes ``grid``."""
    from scipy.interpolate import CubicSpline

    energies = np.array([diagonalize_static(params, FluxBias(float(phi))).energies
                         for phi in grid])
    return CubicSpline(grid, energies[:, level_b] - energies[:, level_a])
