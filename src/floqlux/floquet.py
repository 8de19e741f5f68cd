"""Floquet analysis of the flux-modulated circuit in the extended-zone picture.

The external flux is modulated as phi_ext(t) = phi_dc + xi*cos(2*pi*Omega*t)
(t in ns, Omega in GHz).  Expanding the inductive term of the static
Hamiltonian around phi_dc gives, in the static eigenbasis,

    H(t) = diag(E_a) - E_L*(2*pi*xi)*cos(2*pi*Omega*t)*PHI
           + (E_L/4)*(2*pi*xi)^2 * (1 + cos(4*pi*Omega*t)) * 1

with PHI the matrix of phi between static eigenstates.  The
identity-proportional second-harmonic piece shifts nothing and is dropped;
the constant (E_L/4)*(2*pi*xi)^2 is kept on the diagonal.  The
time-independent eigenproblem lives in Sambe space: ``n_levels`` circuit
levels times 2*N_s + 1 harmonic blocks, with block structure

    (H_F)_{n,n}   = diag(E_a) + n*Omega + (E_L/4)*(2*pi*xi)^2
    (H_F)_{n,n±1} = -(E_L/2)*(2*pi*xi) * PHI.

Eigenvectors come in copies translated by Omega; one representative per
physical level is selected by Fourier-weight centroid, deduplicated by
translated overlap, and labeled against the static levels by maximum
weight assignment.  The Sambe matrix is assembled once, in LAPACK band
storage.  Selection and labelling run on the dense matrix of a small start
window, the central harmonics of that one band; each representative is
then continued into the N_s matrix by banded Rayleigh-quotient iteration,
and kept only where it is the state the whole window would select (else
the window grows, up to N_s itself).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .circuit import (_STATIC_LEVELS, CircuitParams, FluxBias, StaticSpectrum,
                      _one_blas_thread, _signed_rows, diagonalize_static)
from .errors import ConvergenceError, DiagnosticError, OutOfWindowError

__all__ = [
    "DriveParams",
    "SambeConfig",
    "FloquetSolution",
    "FourierMatrixElements",
    "fold_quasienergy",
    "fourier_operator_elements",
    "solve_floquet",
    "monodromy_oracle",
]

# a Sambe solve peaks at this many dim x dim float64 arrays, dim that of the
# assembled band: the peak is set by the largest dense window the ladder
# diagonalizes, which is the N_s window when every smaller one fails
# (tracemalloc, evd driver, ladder forced to N_s: 4.04 at dim 1005, 4.02 at
# 2005; checked 3.88 and 3.94); a solve settled in the start window peaks at
# 0.1 of it; beyond the size cap (0.89 GB) a configuration is a runaway
_SAMBE_PEAK_ARRAYS = 4.1
_MAX_SAMBE_DIM = 5200

# a continued Rayleigh quotient counts as an eigenvalue of the band's Sambe
# matrix once its residual norm is below this fraction of max|diag|, a lower
# bound on the matrix 2-norm; over 180 seeded drives (phi_dc 0.40/0.451/0.5,
# xi <= 0.2, Omega 0.3-1.3, N_s 2-18) a continuation from the start window
# took 1-5 steps (1 or 2 for 90% of representatives), and the truncation
# check 1 step for 61%, at most 7
_CERTIFY_RTOL = 1e-13
_MAX_RQI_STEPS = 30

# representatives are selected in a dense window of this many harmonics
# before their continuation into the N_s matrix
_START_WINDOW = 8
# a continued representative holds at most this weight in the outermost
# harmonic blocks.  Without this guard, 3 of about 4100 seeded cells (all at
# N_s = 10, xi 0.1-0.2) passed the others and still differed from the full
# window's selection, with edge weights 2.5e-4 to 3e-3; at N_s = 20 it fired
# for no cell of the coherence-refine and flux-scan boxes at 2, 5 or 9 levels
_MAX_EDGE_WEIGHT = 1e-8

_gbsv = scipy.linalg.get_lapack_funcs("gbsv", dtype=np.float64)
_gbmv = scipy.linalg.get_blas_funcs("gbmv", dtype=np.float64)


@dataclass(frozen=True)
class DriveParams:
    """Flux-modulation drive: bias point, amplitude xi (Phi_0), frequency Omega (GHz)."""

    bias: FluxBias
    xi: float
    omega: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.xi) and math.isfinite(self.omega)):
            raise ValueError("drive amplitude xi and frequency omega must be finite")
        if self.xi < 0:
            raise ValueError("drive amplitude xi must be non-negative")
        if not self.omega > 0:
            raise ValueError("drive frequency omega must be strictly positive")

    @property
    def period(self) -> float:
        """Drive period in ns."""
        return 1.0 / self.omega


@dataclass(frozen=True)
class SambeConfig:
    """Truncation of the Sambe-space eigenproblem.

    Attributes:
        n_levels: circuit levels retained in the driven problem.
        sideband_cutoff: N_s; harmonic blocks n = -N_s..N_s are kept.

    The Sambe dimension n_levels * (2*N_s + 1) may not exceed _MAX_SAMBE_DIM.
    """

    n_levels: int = 5
    sideband_cutoff: int = 20

    def __post_init__(self) -> None:
        if self.n_levels < 2:
            raise ValueError("need at least two circuit levels")
        # representatives need |dominant harmonic| < N_s - 1, which N_s = 1 never admits
        if self.sideband_cutoff < 2:
            raise ValueError("sideband_cutoff must be at least 2")
        dim = self.n_levels * (2 * self.sideband_cutoff + 1)
        if dim > _MAX_SAMBE_DIM:
            raise ValueError(f"Sambe dimension {dim} exceeds the safety cap {_MAX_SAMBE_DIM}; "
                             "reduce n_levels or sideband_cutoff")


def fold_quasienergy(eps, omega: float):
    """Fold energies into the first zone (-Omega/2, Omega/2]."""
    eps = np.asarray(eps, dtype=float)
    folded = eps - omega * np.round(eps / omega)
    # np.round sends half-integers to the even side, and the subtraction rounds
    # at the scale of |eps|; pull everything within that rounding of the low
    # edge up, so both images of the zone boundary fold to +Omega/2
    edge = -0.5 * omega + 1e-12 * (omega + np.abs(eps))
    folded = np.where(folded <= edge, folded + omega, folded)
    return folded if folded.ndim else float(folded)


def _zone_distance(a, b, omega: float):
    """Distance between quasienergies modulo the zone width."""
    return np.abs(fold_quasienergy(np.asarray(a) - np.asarray(b), omega))


def _drive_terms(e_l: float, xi: float) -> tuple[float, float]:
    """(shift, amp) of the projected drive model, in GHz.

    H(t) = diag(E_a) + shift + amp*cos(2*pi*Omega*t)*PHI, so the Sambe
    blocks carry the shift on the diagonal and 0.5*amp*PHI off it.
    """
    return 0.25 * e_l * (2.0 * math.pi * xi) ** 2, -e_l * (2.0 * math.pi * xi)


def _sambe_band(
    energies: np.ndarray, phi_op: np.ndarray, e_l: float, xi: float, omega: float, n_side: int
) -> np.ndarray:
    """The Sambe matrix in LAPACK ``gbsv`` band storage (Fortran order).

    Blocks of d levels couple only nearest harmonics, so the half-bandwidth
    is kl = 2*d - 1 and band[2*kl + i - j, j] = h[i, j]; the first kl rows
    are zero, room for the LU fill-in.  The central columns of the band of
    N_s + m are the band of N_s: entries that couple them to the outer
    columns lie outside that matrix, and LAPACK never reads them.
    """
    d = energies.size
    nb = 2 * n_side + 1
    dim = d * nb
    if dim > _MAX_SAMBE_DIM:
        raise DiagnosticError(
            f"Sambe dimension {dim} exceeds the safety cap {_MAX_SAMBE_DIM} "
            f"(a dense solve would need about {_SAMBE_PEAK_ARRAYS * 8 * dim**2 / 1e9:.1f} GB); "
            "reduce n_levels or sideband_cutoff"
        )
    shift, amp = _drive_terms(e_l, xi)
    coupling = 0.5 * amp * phi_op
    kl = 2 * d - 1
    band = np.zeros((3 * kl + 1, dim), order="F")
    harmonics = np.arange(-n_side, n_side + 1)[:, None]
    band[2 * kl] = (energies + harmonics * omega + shift).ravel()
    # h[n*d + s, (n+1)*d + t] = coupling[s, t] and its transpose below the diagonal
    s, cols = np.arange(d)[:, None], np.arange(dim - d)
    t = cols % d
    band[2 * kl - d + s - t, cols + d] = coupling[s, t]
    band[2 * kl + d + s - t, cols] = coupling[t, s]
    return band


def _band_to_dense(band: np.ndarray) -> np.ndarray:
    """The dense matrix held in ``gbsv`` band storage; entries outside it are dropped."""
    kl, n = (band.shape[0] - 1) // 3, band.shape[1]
    cols = np.broadcast_to(np.arange(n), (2 * kl + 1, n))
    rows = cols + np.arange(-kl, kl + 1)[:, None]
    inside = (rows >= 0) & (rows < n)
    h = np.zeros((n, n))
    h[rows[inside], cols[inside]] = band[kl:][inside]
    return h


def _resolve_spectrum(params, drive, spectrum, n_levels: int) -> StaticSpectrum:
    """The static spectrum of ``params`` at the drive's bias, with at least
    ``n_levels`` levels: the one place that sets how deep a driven solve
    diagonalizes.  A given ``spectrum`` must be that spectrum: a second copy
    of the circuit or the bias would build the Sambe matrix in a foreign basis.
    """
    if spectrum is None:
        if n_levels > _STATIC_LEVELS:
            return diagonalize_static(params, drive.bias, n_levels)
        return diagonalize_static(params, drive.bias)  # every default-depth caller's memo key
    if spectrum.params != params or spectrum.bias != drive.bias:
        raise ValueError(
            f"static spectrum of {spectrum.params!r} at {spectrum.bias!r} does not belong "
            f"to {params!r} at the drive bias {drive.bias!r}"
        )
    if spectrum.energies.size < n_levels:
        raise ValueError(f"static spectrum has {spectrum.energies.size} levels; {n_levels} needed")
    return spectrum


@dataclass(frozen=True, eq=False)
class FloquetSolution:
    """Representative Floquet states of the driven circuit.

    Attributes:
        rep_energies: raw Sambe eigenvalues of the chosen representatives;
            differences of these are the natural (unfolded) quasienergy
            splittings that the rate formulas use.
        fourier_blocks: float64 array (n_levels, 2*N_s+1, n_levels); entry
            [a, j, :] is the Fourier component |phi_a^(n)> with n = j - N_s,
            in the static eigenbasis.  The Sambe matrix is real symmetric, so
            a state's blocks are one real unit vector; complex ones raise TypeError.
        spectrum: the static spectrum of the circuit at ``drive.bias`` whose
            eigenbasis the blocks are expressed in; derived quantities read
            the circuit and its matrix elements from here.

    ``phi_elements`` and ``n_elements``, the harmonic-resolved counterparts
    of the spectrum's matrices of the same names, are built on first read.
    """

    drive: DriveParams
    config: SambeConfig
    rep_energies: np.ndarray
    fourier_blocks: np.ndarray
    spectrum: StaticSpectrum

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.fourier_blocks):
            raise TypeError("Floquet Fourier blocks must be real")
        for arr in (self.rep_energies, self.fourier_blocks):
            arr.setflags(write=False)

    @functools.cached_property
    def quasienergies(self) -> np.ndarray:
        """The representative energies folded to (-Omega/2, Omega/2], by level label."""
        folded = fold_quasienergy(self.rep_energies, self.drive.omega)
        folded.setflags(write=False)
        return folded

    @functools.cached_property
    def convergence_delta(self) -> float:
        """The truncation check, run on first read: the largest zone distance
        from a representative energy to the eigenvalue of the N_s + 2 Sambe
        matrix it continues into by banded Rayleigh-quotient iteration, or a
        DiagnosticError when that eigenvalue is not certified."""
        d, spec = self.n_levels, self.spectrum
        band = _sambe_band(spec.energies[:d], spec.phi_elements[:d, :d], spec.params.e_l,
                           self.drive.xi, self.drive.omega, self.config.sideband_cutoff + 2)
        # the blocks' rows are +- the eigenvectors that the solve continued,
        # and a negated right-hand side negates each banded solve exactly
        with _one_blas_thread():
            wide_e, _, certified = _continue(band, self.rep_energies,
                                             self.fourier_blocks.reshape(d, -1))
        if not certified.all():
            raise DiagnosticError(f"truncation check: representatives "
                                  f"{np.flatnonzero(~certified).tolist()} did not reach a certified "
                                  f"wide eigenvalue in {_MAX_RQI_STEPS} Rayleigh-quotient steps")
        return float(np.max(_zone_distance(self.rep_energies, wide_e, self.drive.omega)))

    @functools.cached_property
    def phi_elements(self) -> FourierMatrixElements:
        """Phase-operator elements phi_ab^(k) of the qubit pair (0, 1)."""
        return fourier_operator_elements(self, self.spectrum.phi_elements)

    @functools.cached_property
    def n_elements(self) -> FourierMatrixElements:
        """Charge-operator elements n_ab^(k) of the qubit pair (0, 1)."""
        return fourier_operator_elements(self, self.spectrum.n_elements)

    @functools.cached_property
    def converged(self) -> bool:
        """Whether ``convergence_delta`` < 1e-8 GHz; reading it runs the check."""
        return self.convergence_delta < 1e-8

    @property
    def n_levels(self) -> int:
        return self.config.n_levels

    def block(self, alpha: int, n: int) -> np.ndarray:
        """Fourier component |phi_alpha^(n)> in the static eigenbasis (real).

        Raises:
            OutOfWindowError: when |n| exceeds the sideband cutoff.
        """
        ns = self.config.sideband_cutoff
        if abs(n) > ns:
            raise OutOfWindowError(
                f"Fourier block n={n} outside truncation window |n| <= {ns}"
            )
        return self.fourier_blocks[alpha, n + ns]

    def sideband_weights(self, alpha: int) -> np.ndarray:
        """Weights <phi_a^(n)|phi_a^(n)> over n = -N_s..N_s (sum to 1)."""
        b = self.fourier_blocks[alpha]
        return np.sum(b * b, axis=1)

    def splitting(self, alpha: int = 1, beta: int = 0) -> float:
        """Natural quasienergy difference eps_alpha - eps_beta in GHz: the
        difference of the representative Sambe eigenvalues, which is the
        branch the matrix-element sums are built on; ``fold_quasienergy``
        folds it into the first zone.  Where levels hybridize, neighbouring
        drives can pick representatives of other harmonic copies, so the
        natural difference can jump between them by whole multiples of
        Omega; its folded value does not."""
        return float(self.rep_energies[alpha] - self.rep_energies[beta])


def _profile(blocks):
    """Harmonic profile of Fourier blocks (states, 2*n_side + 1, levels): the
    weight of each harmonic, whether the dominant harmonic is interior
    (|n| < n_side - 1), and the weight centroid."""
    n_side = blocks.shape[1] // 2
    weights = np.sum(blocks * blocks, axis=2)
    interior = np.abs(np.argmax(weights, axis=1) - n_side) < n_side - 1
    return weights, interior, weights @ np.arange(-n_side, n_side + 1)


def _labels(blocks):
    """The static level of each state (Fourier blocks (levels, nb, levels)):
    the exact assignment of maximum total weight per circuit level.  Where no
    two states share their heaviest level, those levels are that assignment;
    otherwise ``_max_weight_assignment`` solves it."""
    w = np.sum(blocks * blocks, axis=1)
    heaviest = np.argmax(w, axis=1)
    if len(set(heaviest.tolist())) == len(w):
        return heaviest
    return _max_weight_assignment(w)


def _max_weight_assignment(w: np.ndarray) -> np.ndarray:
    """Column of each row in the assignment of largest total weight of the
    square matrix ``w``: the Hungarian method by shortest augmenting paths
    (Jonker and Volgenant, Computing 38, 325 (1987)) on costs -w, O(d^3).
    Column slot 0 holds the row being inserted; slot j is column j - 1."""
    cost = (-w).tolist()
    d = len(cost)
    u, v = [0.0] * d, [0.0] * (d + 1)  # row and column potentials
    owner = [-1] * (d + 1)  # the row each column slot holds
    way = [0] * (d + 1)  # the slot before each one on the shortest path
    for i in range(d):
        owner[0], j0 = i, 0
        dist = [math.inf] * (d + 1)
        done = [False] * (d + 1)
        while owner[j0] != -1:
            done[j0] = True
            row, u_row = cost[owner[j0]], u[owner[j0]]
            delta, j1 = math.inf, 0
            for j in range(1, d + 1):
                if not done[j]:
                    reduced = row[j - 1] - u_row - v[j]
                    if reduced < dist[j]:
                        dist[j], way[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(d + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:  # augment along the path back to slot 0
            owner[j0] = owner[way[j0]]
            j0 = way[j0]
    cols = np.empty(d, dtype=np.intp)
    cols[owner[1:]] = np.arange(d)
    return cols


def _select_representatives(evals, blocks_all, omega):
    """Pick one interior eigenvector per physical state, one per circuit level.

    Candidates are ordered by |centroid| then |eigenvalue|; a candidate is a
    translated copy of an accepted state when its eigenvalue matches modulo
    Omega *and* the block-shifted overlap exceeds 0.5 (the overlap test keeps
    accidental quasienergy coincidences of distinct states apart).
    """
    nb, n_states = blocks_all.shape[1:]
    _, interior, centroids = _profile(blocks_all)
    order = np.lexsort((np.abs(evals), np.abs(centroids)))
    accepted: list[int] = []
    shifts_tol = 1e-6 * omega
    for idx in order:
        if not interior[idx]:
            continue
        for acc in accepted:
            k = int(round((evals[idx] - evals[acc]) / omega))
            if abs(evals[idx] - evals[acc] - k * omega) > shifts_tol:
                continue
            # sum_n <acc^(n)|idx^(n+k)> over the harmonics both windows hold
            lo, hi = max(0, -k), nb - max(0, k)
            if hi > lo and abs(np.sum(blocks_all[acc][lo:hi]
                                      * blocks_all[idx][lo + k:hi + k])) > 0.5:
                break  # a copy of acc
        else:
            accepted.append(int(idx))
            if len(accepted) == n_states:
                break
    if len(accepted) < n_states:
        raise ConvergenceError(
            f"found only {len(accepted)} of {n_states} interior Floquet representatives; "
            "increase sideband_cutoff"
        )
    return accepted


def _shifted_products(bras: np.ndarray, kets: np.ndarray, kmax: int) -> np.ndarray:
    """sum_n <bra_a^(n)|ket_b^(n-k)> for |k| <= kmax, shape (a, b, 2*kmax+1).

    One contraction over harmonic n and static level s, with real bras: the
    kets are zero-padded by kmax blocks on both sides, so the window of nb
    blocks starting at kmax - k holds ket^(n-k) for every n at once, and
    blocks shifted out of the window count as zero.
    """
    nb = kets.shape[1]
    padded = np.pad(kets, ((0, 0), (kmax, kmax), (0, 0)))
    shifted = sliding_window_view(padded, nb, axis=1)[:, ::-1]  # (b, k, s, n)
    return np.einsum("ans,bksn->abk", bras, shifted)


@dataclass(frozen=True, eq=False)
class FourierMatrixElements:
    """Harmonic-resolved operator elements O_ab^(k) between Floquet states.

    O_ab^(k) = sum_n <phi_a^(n)| O |phi_b^(n-k)>, the coefficient of
    e^{-i k Omega t} in <Phi_a(t)| O |Phi_b(t)>, for the qubit pair a, b in
    (0, 1): the Sambe diagonal +n*Omega makes the Floquet mode
    Phi(t) = sum_n e^{+i n Omega t} |phi^(n)>.  Conjugation symmetry
    O_ab^(k) = conj(O_ba^(-k)) holds by construction.
    """

    k_values: np.ndarray
    table: np.ndarray  # (2, 2, n_k), table[a, b, k + kmax]

    def __post_init__(self) -> None:
        self.k_values.setflags(write=False)
        self.table.setflags(write=False)


def fourier_operator_elements(sol: FloquetSolution, op: np.ndarray) -> FourierMatrixElements:
    """Tabulate O_ab^(k) of the qubit pair for an operator (static-eigenbasis
    matrix); the Fourier blocks are real, so a real operator's table is real."""
    d = sol.n_levels
    bras = sol.fourier_blocks[:2]
    kmax = bras.shape[1] - 1
    return FourierMatrixElements(
        k_values=np.arange(-kmax, kmax + 1),
        table=_shifted_products(bras, bras @ np.asarray(op)[:d, :d].T, kmax),
    )


def _gauged(vecs):
    """Fourier blocks (states, nb, levels) of real unit eigenvectors, one per
    level (rows of ``vecs``), each signed so its largest-|.| component is positive."""
    return _signed_rows(vecs).reshape(len(vecs), -1, len(vecs))


def _solve_sambe(h, omega, d):
    """Representatives of the Sambe matrix ``h`` of d-level harmonic blocks, in
    label order: raw eigenvalues and real unit eigenvectors (rows)."""
    evals, evecs = scipy.linalg.eigh(h, driver="evd")
    vecs = evecs.T
    accepted = _select_representatives(evals, vecs.reshape(evals.size, -1, d), omega)
    by_label = np.asarray(accepted)[np.argsort(_labels(vecs[accepted].reshape(d, -1, d)))]
    return evals[by_label], vecs[by_label]


def _rqi_step(band, mu, x):
    """One step of inverse iteration on the matrix in ``band``, shifted by
    ``mu``, through a banded LU: (Rayleigh quotient, unit vector), or None
    when the shift is exactly singular, that is an eigenvalue itself."""
    kl = (band.shape[0] - 1) // 3
    shifted = band.copy(order="F")
    shifted[2 * kl] -= mu
    y, info = _gbsv(kl, kl, shifted, x, overwrite_ab=True)[2:]
    if info > 0:
        return None
    # (h - mu) y = x, so the Rayleigh quotient of y is mu + <y|x>/<y|y>
    return mu + (y @ x) / (y @ y), y / np.linalg.norm(y)


def _continue(band, rep_e, rep_vecs, polish=False):
    """Eigenpairs of the Sambe matrix in ``band`` that each representative
    continues into: (eigenvalues, unit eigenvectors, certified flags).

    Each eigenvector of a narrower window (a row of ``rep_vecs``) is
    zero-padded to the width of the band and takes one ``_rqi_step``
    shifted by its own eigenvalue.  While the residual norm of the result,
    from a banded product, does not yet certify its Rayleigh quotient as an
    eigenvalue of the band's matrix, the step repeats as Rayleigh-quotient
    iteration (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4).
    With ``polish``, a certified pair takes one step more: convergence is
    cubic, so that brings the vector to the accuracy of a dense eigensolve,
    where the certificate alone bounds only its residual.
    """
    kl, n = (band.shape[0] - 1) // 3, band.shape[1]
    tol = _CERTIFY_RTOL * np.max(np.abs(band[2 * kl]))
    pad = (n - rep_vecs.shape[1]) // 2
    vecs = np.zeros((len(rep_e), n))
    vecs[:, pad:n - pad] = rep_vecs
    continued = rep_e.copy()
    certified = np.zeros(len(rep_e), dtype=bool)
    for a in range(len(rep_e)):
        for _ in range(_MAX_RQI_STEPS):
            step = _rqi_step(band, continued[a], vecs[a])
            if step is None:
                certified[a] = True
                break
            continued[a], vecs[a] = step
            # the first kl rows are zero, so the band reads as kl sub- and 2*kl superdiagonals
            residual = _gbmv(n, n, kl, 2 * kl, 1.0, band, vecs[a]) - continued[a] * vecs[a]
            if np.linalg.norm(residual) <= tol:
                certified[a] = True
                if polish and (step := _rqi_step(band, continued[a], vecs[a])):
                    continued[a], vecs[a] = step
                break
    return continued, vecs, certified


def _continuation_holds(seeds, vecs, certified):
    """Whether continued representatives are the ones the full window picks.

    Every eigenvalue must be certified; each vector must keep its dominant
    harmonic interior and its weight centroid within half a harmonic of 0
    (so it is the copy that selection by |centroid| takes, not a translated
    one), overlap its zero-padded seed by at least 0.9, and be given its
    seed's label by the weight assignment that labels the window.  Last,
    each must keep at most _MAX_EDGE_WEIGHT in the outermost blocks +-n_side:
    then its one-harmonic translates are eigenvectors of the matrix too, with
    centroids c +- 1, so no copy of it can undercut its |centroid|.  Where
    the N_s window cuts a state off, the full window decides.
    """
    if not certified.all():
        return False
    d = len(vecs)
    blocks = vecs.reshape(d, -1, d)
    weights, interior, centroids = _profile(blocks)
    pad = (vecs.shape[1] - seeds.shape[1]) // 2
    overlaps = np.abs(np.sum(seeds * vecs[:, pad:pad + seeds.shape[1]], axis=1))
    return bool(interior.all() and np.all(np.abs(centroids) <= 0.5)
                and np.all(overlaps >= 0.9) and np.array_equal(_labels(blocks), np.arange(d))
                and np.all(weights[:, 0] + weights[:, -1] <= _MAX_EDGE_WEIGHT))


def _representatives(band, omega, d):
    """Labelled representatives of the Sambe matrix of d-level harmonic blocks
    held in ``band``: raw eigenvalues and real unit eigenvectors (rows).

    Selection and labelling run on the dense matrix of a window of
    _START_WINDOW harmonics, whose band is the central columns of ``band``;
    the representatives are then continued into the band and kept when
    ``_continuation_holds``.  When the window has too few representatives or
    a continuation fails, the window doubles, up to the whole band, whose
    representatives need no continuation.
    """
    n_side = band.shape[1] // d // 2
    n_win = min(_START_WINDOW, n_side)
    while n_win < n_side:
        cut = (n_side - n_win) * d
        try:
            rep_e, seeds = _solve_sambe(_band_to_dense(band[:, cut:band.shape[1] - cut]), omega, d)
        except ConvergenceError:
            pass
        else:
            cont_e, vecs, certified = _continue(band, rep_e, seeds, polish=True)
            if _continuation_holds(seeds, vecs, certified):
                return cont_e, vecs
        n_win = min(2 * n_win, n_side)
    return _solve_sambe(_band_to_dense(band), omega, d)


@_one_blas_thread()
def solve_floquet(
    params: CircuitParams,
    drive: DriveParams,
    config: SambeConfig = SambeConfig(),
    spectrum: StaticSpectrum | None = None,
) -> FloquetSolution:
    """Solve the driven problem and return labeled representative states.

    The Sambe matrix is assembled once, in band storage.  No dense matrix of
    that size is diagonalized unless the ladder reaches it: representatives
    are selected and labelled in the central 8 harmonics of the band and
    continued into the N_s matrix by banded Rayleigh-quotient iteration (see
    ``_representatives``).  The truncation check runs on the first read of
    the solution's ``converged`` or ``convergence_delta``, and only then.

    ``spectrum`` defaults to ``diagonalize_static(params, drive.bias)``, deep
    enough for ``config.n_levels``; a given one must be that spectrum, since
    the solution carries it as the basis of its Fourier blocks.

    Raises:
        ValueError: when ``spectrum`` is of another circuit or bias, or too shallow.
    """
    d = config.n_levels
    spectrum = _resolve_spectrum(params, drive, spectrum, d)
    band = _sambe_band(spectrum.energies[:d], spectrum.phi_elements[:d, :d], params.e_l,
                       drive.xi, drive.omega, config.sideband_cutoff)
    try:
        rep_e, vecs = _representatives(band, drive.omega, d)
    except scipy.linalg.LinAlgError as exc:
        raise DiagnosticError(f"Sambe eigensolver failed for drive={drive!r}: {exc}") from exc
    return FloquetSolution(drive=drive, config=config, rep_energies=rep_e,
                           fourier_blocks=_gauged(vecs), spectrum=spectrum)


# ---------------------------------------------------------------------------
# time-domain oracle: quasienergies from the monodromy matrix
# ---------------------------------------------------------------------------

# fourth-order commutator-free scheme: two exponentials per step with
# Gauss-node Hamiltonians; coefficients from the standard CF4 tableau
_CF4_A1 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0
_CF4_A2 = (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_GAUSS_C1 = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + math.sqrt(3.0) / 6.0

# CF4 steps per batch of _propagate_period; its 2*256 stage matrices keep
# the extra memory of a call near 1 MB at any step count
_PROPAGATE_CHUNK = 256


def _cos_sin(x):
    """(cos x, sin x) of a batch of real symmetric matrices x: Taylor series
    in x^2 of x scaled by 2^-q to a largest absolute row sum theta <= 1/2,
    up to the first term whose bound theta^(2j)/(2j)! is below 1e-17, then
    q double-angle steps.  The terms past the leading I and x are summed
    first and added to them once, which leaves cos x correctly rounded
    where adding each term to I would round at every term."""
    theta = float(np.max(np.sum(np.abs(x), axis=-1), initial=0.0))
    q = math.ceil(math.log2(2.0 * theta)) if theta > 0.5 else 0
    x, theta = x * 0.5**q, theta * 0.5**q
    x2 = x @ x
    eye = np.eye(x.shape[-1])
    term, j = np.broadcast_to(eye, x.shape), 1
    dc, ds = np.zeros(x.shape), np.zeros(x.shape)  # cos x = I + dc, sin x = x + x @ ds
    while theta ** (2 * j) / math.factorial(2 * j) >= 1e-17:
        term = term @ x2 * (-1.0 / ((2 * j - 1) * 2 * j))  # (-x^2)^j / (2j)!
        dc += term
        ds += term / (2 * j + 1)
        j += 1
    c, s = eye + dc, x + x @ ds
    for _ in range(q):
        c, s = c @ c - s @ s, 2.0 * (s @ c)
    return c, s


def _cf4_product(h_static, amp, phi_op, dt, omega, start, stop):
    """Product of CF4 steps ``start .. stop - 1``, the last step leftmost.

    Each chunk of steps builds its Gauss-node stage Hamiltonians at once.
    Their exponentials exp(-i x), x = 2*pi*dt*stage, are the real pairs
    (cos x, sin x) of ``_cos_sin``, reduced to stage[-1] @ ... @ stage[0]
    by a pairwise tree of batched real matmuls on the pairs; an odd count
    carries its last factor up one level.  Returns the complex c - i s.
    """
    d = h_static.shape[0]
    c, s = np.eye(d), np.zeros((d, d))
    for lo in range(start, stop, _PROPAGATE_CHUNK):
        t0 = np.arange(lo, min(lo + _PROPAGATE_CHUNK, stop)) * dt
        h1, h2 = (
            h_static + (amp * np.cos(2.0 * math.pi * omega * t))[:, None, None] * phi_op
            for t in (t0 + _GAUSS_C1 * dt, t0 + _GAUSS_C2 * dt)
        )
        # stages in time order, step by step: A2*h1 + A1*h2 acts before A1*h1 + A2*h2
        stages = np.stack((_CF4_A2 * h1 + _CF4_A1 * h2, _CF4_A1 * h1 + _CF4_A2 * h2), axis=1)
        # 2*pi converts GHz*ns to phase
        cs, ss = _cos_sin(2.0 * math.pi * dt * stages.reshape(-1, d, d))
        while cs.shape[0] > 1:
            even = cs.shape[0] // 2 * 2
            c1, s1, c2, s2 = cs[1:even:2], ss[1:even:2], cs[0:even:2], ss[0:even:2]
            cs = np.concatenate((c1 @ c2 - s1 @ s2, cs[even:]))
            ss = np.concatenate((c1 @ s2 + s1 @ c2, ss[even:]))
        c, s = cs[0] @ c - ss[0] @ s, cs[0] @ s + ss[0] @ c
    return c - 1j * s


def _propagate_period(energies, phi_op, e_l, drive, n_steps):
    """Monodromy matrix U(T) of the projected model via the CF4 integrator.

    The drive is even about T/2 and the stage Hamiltonians are real
    symmetric, so the step mirrored about T/2 swaps the two Gauss nodes and
    is the transpose of the original step.  With A the product of the first
    n_steps // 2 steps, U(T) = A^T A, or A^T M A with M the middle step
    when the count is odd: the same discrete scheme at half the steps.  A
    and M are built from (cos, sin) pairs by ``_cf4_product``.
    """
    shift, amp = _drive_terms(e_l, drive.xi)
    h_static = np.diag(energies + shift)
    dt = drive.period / n_steps
    half = n_steps // 2
    a = _cf4_product(h_static, amp, phi_op, dt, drive.omega, 0, half)
    middle = _cf4_product(h_static, amp, phi_op, dt, drive.omega, half, n_steps - half)
    return a.T @ middle @ a


# oracle truncation: circuit levels, initial CF4 steps per period, doublings
_ORACLE_LEVELS = 5
_ORACLE_STEPS = 2048
_ORACLE_DOUBLINGS = 3


@_one_blas_thread()
def monodromy_oracle(
    params: CircuitParams,
    drive: DriveParams,
    spectrum: StaticSpectrum | None = None,
) -> np.ndarray:
    """Quasienergies from time integration over one period (sorted, folded).

    Integrates the same projected model the Sambe matrix represents (the
    identity-proportional second-harmonic drive term is dropped there, so it
    is dropped here too): this pits the two numerical routes against each
    other without a modeling difference.  The integrator is a fourth-order
    commutator-free exponential scheme (Alvermann & Fehske, J. Comput.
    Phys. 230, 5930 (2011)) whose stage exponentials are real Taylor
    series for their cosine and sine; results are accepted only once
    doubling the step count (from 2048 per period, at most three times)
    moves the quasienergies of the lowest 5 levels by < 1e-9 GHz.  A given
    ``spectrum`` must be that of ``params`` at ``drive.bias``.

    Raises:
        ValueError: when ``spectrum`` is of another circuit or bias, or too shallow.
        DiagnosticError: if the propagator drifts from unitarity beyond 1e-8.
        ConvergenceError: if step doubling fails to stabilize the result.
    """
    d = _ORACLE_LEVELS
    spectrum = _resolve_spectrum(params, drive, spectrum, d)
    energies = spectrum.energies[:d]
    phi_op = spectrum.phi_elements[:d, :d]

    def quasi(steps):
        u = _propagate_period(energies, phi_op, params.e_l, drive, steps)
        drift = np.linalg.norm(u.conj().T @ u - np.eye(d), 2)
        if drift > 1e-8:
            raise DiagnosticError(
                f"monodromy propagator non-unitary (drift {drift:.3e}) at n_steps={steps}"
            )
        lam = np.linalg.eigvals(u)
        eps = -np.angle(lam) / (2.0 * math.pi * drive.period)
        return np.sort(fold_quasienergy(eps, drive.omega))

    n_steps = _ORACLE_STEPS
    prev = quasi(n_steps)
    for _ in range(_ORACLE_DOUBLINGS):
        n_steps *= 2
        cur = quasi(n_steps)
        if float(np.max(_zone_distance(prev, cur, drive.omega))) < 1e-9:
            return cur
        prev = cur
    raise ConvergenceError(
        f"monodromy quasienergies did not stabilize to 1e-9 GHz by n_steps={n_steps}"
    )


# ---------------------------------------------------------------------------
# branch continuation to a neighbouring drive
# ---------------------------------------------------------------------------


@_one_blas_thread()
def _continue_branches(ref: FloquetSolution, drive: DriveParams, levels: int):
    """Continue the first ``levels`` representatives of ``ref`` to ``drive``:
    (eigenvalues, overlaps, certified flags).

    ref's Fourier rows are rotated into the static eigenbasis at the
    drive's bias and continued, by the banded Rayleigh-quotient iteration
    of ``_continue``, into the Sambe matrix of ``drive`` at ref's circuit
    and truncation.  The overlaps are |<seed|continued>| of each rotated
    row with its unit continued vector.  No window is diagonalized, so a
    continued state keeps ref's harmonic copy and label.
    """
    d, params = ref.n_levels, ref.spectrum.params
    spectrum = _resolve_spectrum(params, drive, None, d)
    rot = ref.spectrum.eigenvectors[:, :d].T @ spectrum.eigenvectors[:, :d]
    seeds = (ref.fourier_blocks[:levels] @ rot).reshape(levels, -1)
    band = _sambe_band(spectrum.energies[:d], spectrum.phi_elements[:d, :d], params.e_l,
                       drive.xi, drive.omega, ref.config.sideband_cutoff)
    energies, vecs, certified = _continue(band, ref.rep_energies[:levels], seeds, polish=True)
    return energies, np.abs(np.sum(seeds * vecs, axis=1)), certified
