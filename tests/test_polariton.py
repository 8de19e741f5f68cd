"""Cavity sideband couplings: rotating-wave coefficients and manifold fits."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import least_squares
from scipy.special import jv

import floqlux.polariton
from floqlux import (
    CavityParams,
    DriveParams,
    FitError,
    FluxBias,
    GridSpec,
    OutOfWindowError,
    PolaritonSpec,
    RWAParams,
    RunConfig,
    diagonalize_static,
    fit_polariton,
    floquet_dipole_coupling,
    rwa_coupling,
    rwa_params_from_circuit,
    rwa_phase_coefficients,
    run_sweep,
    synth_polariton_data,
    transition_spline,
)

CROSSING_PHI = 0.303146  # bias where the 0 -> 3 transition meets the cavity


def _linear_rwa(slope: float) -> RWAParams:
    return RWAParams(omega3=7.3, g=0.02, g_prime=0.0,
                     zeta=lambda d: slope * np.asarray(d))


def test_bessel_limit():
    # linear dispersion turns the phase factor into the Bessel generating
    # function: A_n = J_n(slope * xi / Omega)
    slope, xi, omega = 12.0, 0.05, 0.3
    drive = DriveParams(FluxBias(0.5), xi, omega)
    co = rwa_phase_coefficients(_linear_rwa(slope), drive)
    arg = slope * xi / omega
    for n in range(-10, 11):
        assert co.get(n) == pytest.approx(jv(n, arg), abs=1e-10)


def test_completeness_and_parseval():
    drive = DriveParams(FluxBias(0.5), 0.08, 0.25)
    co = rwa_phase_coefficients(_linear_rwa(30.0), drive)
    total = sum(abs(co.get(n)) ** 2 for n in co.n_values)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert co.completeness >= 1 - 1e-8
    with pytest.raises(OutOfWindowError):
        co.get(max(co.n_values) + 1)


def test_coefficients_depend_only_on_excursion_waveform():
    # halving the drive amplitude while doubling the dispersion slope leaves
    # the frequency-excursion waveform, hence every A_n, unchanged
    omega = 0.3
    a = rwa_phase_coefficients(_linear_rwa(10.0), DriveParams(FluxBias(0.5), 0.06, omega))
    b = rwa_phase_coefficients(_linear_rwa(20.0), DriveParams(FluxBias(0.5), 0.03, omega))
    for n in range(-6, 7):
        assert b.get(n) == pytest.approx(a.get(n), abs=1e-12)


def test_phase_integral_against_quadrature():
    # independent eta(t): direct numerical integration of the detuning
    slope, quad_c = 8.0, 150.0
    xi, omega = 0.06, 0.35

    def zeta(d):
        d = np.asarray(d)
        return slope * d + quad_c * d * d

    rwa = RWAParams(omega3=7.3, g=0.02, g_prime=0.0, zeta=zeta)
    drive = DriveParams(FluxBias(0.5), xi, omega)
    co = rwa_phase_coefficients(rwa, drive)
    mean = quad_c * xi * xi / 2.0  # time average of zeta(xi cos)
    assert co.mean_detuning == pytest.approx(mean, rel=1e-9)

    def eta(t):
        val, _ = quad(
            lambda tau: float(zeta(xi * math.cos(2 * math.pi * omega * tau))) - mean,
            0.0, t, limit=400)
        return 2 * math.pi * val

    period = 1.0 / omega
    for n in (-2, 0, 1, 3):
        re, _ = quad(lambda t: math.cos(eta(t) - 2 * math.pi * n * omega * t),
                     0.0, period, limit=400)
        im, _ = quad(lambda t: math.sin(eta(t) - 2 * math.pi * n * omega * t),
                     0.0, period, limit=400)
        want = (re + 1j * im) / period
        assert co.get(n) == pytest.approx(want, abs=1e-8)


def test_scalar_only_zeta_is_rejected():
    # zeta is sampled on a whole period at once; a scalar answer is an error
    rwa = RWAParams(omega3=7.3, g=0.02, g_prime=0.0, zeta=lambda d: 0.0)
    with pytest.raises(ValueError, match="zeta returned shape"):
        rwa_phase_coefficients(rwa, DriveParams(FluxBias(0.5), 0.05, 0.3))


def test_rwa_coupling_composition():
    drive = DriveParams(FluxBias(0.5), 0.05, 0.3)
    rwa = RWAParams(omega3=7.3, g=0.02, g_prime=0.004,
                    zeta=lambda d: 10.0 * np.asarray(d))
    co = rwa_phase_coefficients(rwa, drive)
    for n in (-1, 0, 2):
        want = 0.5 * rwa.g * co.get(n) + 0.25 * rwa.g_prime * (co.get(n - 1) + co.get(n + 1))
        assert rwa_coupling(rwa, co, n) == pytest.approx(want, abs=1e-15)


def test_rwa_params_validation():
    with pytest.raises(ValueError):
        RWAParams(omega3=-1.0, g=0.01, g_prime=0.0, zeta=lambda d: 0.0 * np.asarray(d))
    with pytest.raises(ValueError):
        RWAParams(omega3=7.3, g=0.01, g_prime=0.0,
                  zeta=lambda d: np.asarray(d) + 1.0)


def test_model_conventions_cancel_under_normalization(params):
    # undriven: the Floquet dipole coupling is g_cap |n_03|; the two-mode
    # rotating-wave form carries an extra factor 2, which normalized
    # comparisons divide out
    from floqlux import SambeConfig, solve_floquet

    cavity = CavityParams()
    drive0 = DriveParams(FluxBias(CROSSING_PHI), 1e-9, 0.2)
    sol = solve_floquet(params, drive0, SambeConfig())
    g_f = abs(floquet_dipole_coupling(sol, cavity, 0))
    rwa = rwa_params_from_circuit(params, CROSSING_PHI, cavity, drive0.xi)
    co = rwa_phase_coefficients(rwa, drive0)
    g_r = abs(rwa_coupling(rwa, co, 0))
    assert g_f / g_r == pytest.approx(2.0, rel=1e-6)
    assert g_f == pytest.approx(0.0198990, abs=2e-6)


def polariton_manifold_eigs(cavity, omega3, drive_omega, g_m, delta_m=None):
    """Sorted eigenvalues of the one-excitation cavity/sideband manifold at one
    transition frequency, by one 7x7 eigensolve: the per-point reference for
    the package's batched manifold.  Row 0 is the bare cavity at omega_c; row
    i holds sideband image m = i - 3 at omega3 + m*Omega + delta_m, coupled
    to the cavity by |g_m|; a missing m reads 0."""
    delta_m = delta_m or {}
    h = np.zeros((7, 7))
    h[0, 0] = cavity.omega_c
    for i, m in enumerate(range(-2, 4), start=1):
        h[i, i] = float(omega3) + m * drive_omega + float(delta_m.get(m, 0.0))
        h[0, i] = h[i, 0] = abs(g_m.get(m, 0.0))
    return np.linalg.eigvalsh(h)


def test_manifold_eigs_limits():
    cavity = CavityParams(omega_c=7.3, g_cap=0.15)
    bare = polariton_manifold_eigs(cavity, 7.25, 0.2, {m: 0.0 for m in range(-2, 4)})
    want = sorted([7.3] + [7.25 + m * 0.2 for m in range(-2, 4)])
    assert bare == pytest.approx(want, abs=1e-12)
    # a single coupling opens a symmetric 2g gap at its crossing
    g = {m: 0.0 for m in range(-2, 4)}
    g[0] = 0.01
    eigs = polariton_manifold_eigs(cavity, 7.3, 0.2, g)
    near = np.sort(np.abs(eigs - 7.3))
    assert near[:2] == pytest.approx([0.01, 0.01], abs=1e-9)


def test_synth_data_within_branch_window():
    cavity = CavityParams()
    data = synth_polariton_data(cavity, lambda p: 7.3 + 5.0 * (p - 0.3), 0.2,
                                {0: 0.02}, None, np.linspace(0.29, 0.31, 21))
    assert data.shape[1] == 2
    assert np.all(np.abs(data[:, 1] - cavity.omega_c) <= 0.25)
    jittered = synth_polariton_data(cavity, lambda p: 7.3 + 5.0 * (p - 0.3), 0.2,
                                    {0: 0.02}, None, np.linspace(0.29, 0.31, 21),
                                    sigma=1e-3, rng=np.random.default_rng(7))
    assert jittered.shape[1] == 3
    assert np.all(jittered[:, 2] == 1e-3)


def _per_bias_reference(cavity, curve, drive_omega, g_m, delta_m, phis):
    """synth_polariton_data as one 7x7 eigensolve per bias (the reference)."""
    rows = []
    for phi in phis:
        rows += [(float(phi), float(e))
                 for e in polariton_manifold_eigs(cavity, curve(phi), drive_omega, g_m, delta_m)
                 if abs(e - cavity.omega_c) <= 0.25]
    return np.array(rows)


def test_batched_manifold_matches_per_bias_loop(params):
    cavity = CavityParams()
    curve = transition_spline(params, 0, 3, 0.22, 0.41, 61)
    g = {-2: 0.005, -1: 0.010, 0: 0.0199, 1: 0.010, 2: 0.005, 3: 0.0025}
    delta = {0: 1e-3, 1: -2e-3}
    phis = np.linspace(0.25, 0.40, 301)
    want = _per_bias_reference(cavity, curve, 0.2, g, delta, phis)
    assert want.shape[0] > phis.size  # crossings hold several peaks per bias
    assert np.array_equal(synth_polariton_data(cavity, curve, 0.2, g, delta, phis), want)
    for phi in phis[::60]:
        eigs = polariton_manifold_eigs(cavity, float(curve(phi)), 0.2, g, delta)
        near = eigs[np.abs(eigs - cavity.omega_c) <= 0.25]
        assert np.array_equal(near, want[want[:, 0] == phi, 1])


def _crossing_data(params, cavity, g_true, omega, n_each=15, span=3e-3,
                   bias_range=(0.28, 0.33), sigma=0.0, seed=0):
    lo, hi = bias_range
    curve = transition_spline(params, 0, 3, lo, hi, 61)
    phis = []
    from scipy.optimize import brentq

    for m, g in g_true.items():
        target = cavity.omega_c - m * omega
        f = lambda p: float(curve(p)) + 0.0 - target  # noqa: E731
        if (f(lo + 1e-3)) * (f(hi - 1e-3)) < 0:
            star = brentq(f, lo + 1e-3, hi - 1e-3)
            phis.append(np.linspace(star - span, star + span, n_each))
    phis = np.concatenate(phis)
    data = synth_polariton_data(cavity, curve, omega, g_true, None, phis,
                                sigma=sigma, rng=np.random.default_rng(seed))
    return curve, data


def test_fit_roundtrip_noiseless(params):
    # peaks at all six sideband crossings, so every coupling is identifiable
    cavity = CavityParams()
    curve, data = _six_crossings(params, cavity)
    fit = fit_polariton(data, cavity, curve, 0.2)
    assert fit.success
    assert fit.unidentifiable == ()
    for m, g in G_SIX.items():
        assert fit.g_m[m] == pytest.approx(g, rel=1e-6)


def test_fit_pins_unidentifiable_sidebands(params):
    cavity = CavityParams()
    g_true = {0: 0.0199}
    curve, data = _crossing_data(params, cavity, g_true, 0.2)
    fit = fit_polariton(data, cavity, curve, 0.2)
    assert fit.success
    assert fit.g_m[0] == pytest.approx(0.0199, rel=1e-2)
    for m in (-2, -1, 1, 2, 3):
        assert m in fit.unidentifiable
        assert fit.g_m[m] == 0.0
        assert math.isinf(fit.g_err[m])


def test_fit_rejects_malformed_data():
    cavity = CavityParams()
    with pytest.raises(ValueError):
        fit_polariton(np.ones((4, 5)), cavity, lambda p: 7.3, 0.2)
    with pytest.raises((ValueError, FitError)):
        fit_polariton(np.ones((2, 2)), cavity, lambda p: 7.3, 0.2)


def test_rwa_params_reuse_static_spectra(params, eigensolves):
    # 30 lattice nodes (bias +- xi and 4 more on each side) plus the bias
    # (not a node here), whose spectrum gives g and, by a Sternheimer solve,
    # g'; all functions of the bias and the window only, so a smaller drive
    # amplitude at the same bias solves nothing new
    cavity = CavityParams()
    rwa_params_from_circuit(params, CROSSING_PHI, cavity, 0.05)
    first = len(eigensolves)
    assert first == len(set(eigensolves)) == 31
    rwa_params_from_circuit(params, CROSSING_PHI, cavity, 0.02)
    assert len(eigensolves) == first


def test_rwa_params_share_lattice_nodes_with_a_neighbour(params, eigensolves):
    # the spline nodes sit on one flux lattice of step 0.005, so a bias
    # 0.011 further on adds at most 3 new nodes and the bias itself
    cavity = CavityParams()
    rwa_params_from_circuit(params, CROSSING_PHI, cavity, 0.05)
    first = len(eigensolves)
    rwa_params_from_circuit(params, CROSSING_PHI + 0.011, cavity, 0.05)
    assert 0 < len(eigensolves) - first <= 4


@pytest.mark.parametrize("bias", [0.23, 0.28, CROSSING_PHI, 0.37, 0.45])
def test_rwa_g_prime_matches_five_point_stencil(params, bias):
    # the Sternheimer derivative against a five-point stencil of g_cap*|n_03|
    # at step 1e-4, whose truncation and rounding errors are near 1e-11 relative
    cavity = CavityParams()
    xi = 0.05

    def g_of(phi):
        return cavity.g_cap * abs(diagonalize_static(params, FluxBias(phi)).n_elements[0, 3])

    h = 1e-4
    stencil = (g_of(bias - 2 * h) - 8 * g_of(bias - h) + 8 * g_of(bias + h)
               - g_of(bias + 2 * h)) / (12.0 * h)
    rwa = rwa_params_from_circuit(params, bias, cavity, xi)
    assert rwa.g == g_of(bias)
    assert rwa.g_prime == pytest.approx(xi * stencil, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("xi", [0.01, 0.05, 0.15])
def test_zeta_matches_direct_eigensolves_across_the_drive(params, xi):
    # the spline covers bias +- xi whatever xi is; at the swept edges it
    # interpolates between lattice nodes, within 2e-7 GHz here (at most
    # 6.5e-8 measured, at xi = 0.15)
    def omega03(phi):
        return diagonalize_static(params, FluxBias(phi)).transition(0, 3)

    rwa = rwa_params_from_circuit(params, CROSSING_PHI, CavityParams(), xi)
    assert float(rwa.zeta(0.0)) == 0.0
    for dphi in (-xi, xi):
        direct = omega03(CROSSING_PHI + dphi) - omega03(CROSSING_PHI)
        assert abs(float(rwa.zeta(dphi)) - direct) < 2e-7


def test_rwa_params_do_not_depend_on_the_memo(params, eigensolves):
    # a cell's values are the same whether its neighbour warmed the memo or not
    cavity = CavityParams()
    bias, xi = CROSSING_PHI + 0.011, 0.05
    dphi = np.linspace(-xi, xi, 41)

    def sampled():
        rwa = rwa_params_from_circuit(params, bias, cavity, xi)
        return [rwa.omega3, rwa.g, rwa.g_prime, *rwa.zeta(dphi)]

    cold = sampled()
    diagonalize_static.cache_clear()
    rwa_params_from_circuit(params, CROSSING_PHI, cavity, xi)
    hits = diagonalize_static.cache_info().hits
    warm = sampled()
    assert diagonalize_static.cache_info().hits > hits
    assert warm == cold


def test_fit_step_reuses_the_cells_spline_nodes(params, eigensolves, tmp_path):
    # the fit's spline sits on the cells' flux lattice, so peaks inside the
    # cell's window bias +- xi cost the fit no static eigensolve of its own
    _, data = _crossing_data(params, CavityParams(), {0: 0.0199}, 0.2)
    np.savetxt(tmp_path / "peaks.txt", data)
    grid = GridSpec(phi_dc=(CROSSING_PHI,), xi=(0.05,), omega=(0.2,))
    solved = []
    for data_file in ("", str(tmp_path / "peaks.txt")):
        diagonalize_static.cache_clear()
        eigensolves.clear()
        result = run_sweep(RunConfig(task="polariton", grid=grid, output=str(tmp_path / "o"),
                                     polariton=PolaritonSpec(data_file=data_file)))
        assert not result.mask.any()
        solved.append(sorted(eigensolves))
    assert result.extra["fit"]["success"]
    assert solved[1] == solved[0]


G_SIX = {-2: 0.005, -1: 0.010, 0: 0.0199, 1: 0.010, 2: 0.005, 3: 0.0025}


def _six_crossings(params, cavity, seed=None):
    """Peaks at all six sideband crossings, jittered by 1% of the largest
    splitting unless ``seed`` is None."""
    sigma = 0.0 if seed is None else 0.01 * 2.0 * max(G_SIX.values())
    return _crossing_data(params, cavity, G_SIX, 0.2, bias_range=(0.22, 0.41),
                          sigma=sigma, seed=seed)


def _callbacks(cavity, curve, data, fit):
    """The fit's residual and Jacobian callbacks, over the sidebands ``fit`` kept."""
    omega3s = np.array([float(curve(p)) for p in data[:, 0]])
    sigmas = data[:, 2] if data.shape[1] == 3 else np.ones(data.shape[0])
    active = [m for m in range(-2, 4) if m not in fit.unidentifiable]
    fun, jac = floqlux.polariton._fit_problem(cavity, omega3s, 0.2, data[:, 1], sigmas, active)
    return fun, jac, omega3s, active


def _starts(n_act):
    return [np.concatenate([np.full(n_act, g0), np.zeros(n_act)])
            for g0 in (0.005, 0.02, 0.05, 0.1)]


def test_fit_jacobian_matches_central_difference(params):
    cavity = CavityParams()
    curve, data = _six_crossings(params, cavity, seed=3)
    fit = fit_polariton(data, cavity, curve, 0.2)
    fun, jac, omega3s, active = _callbacks(cavity, curve, data, fit)
    n_act = len(active)
    fitted = np.array([fit.g_m[m] for m in active] + [fit.delta_m[m] for m in active])
    h = 1e-7
    for x in _starts(n_act) + [fitted]:
        g, d = floqlux.polariton._unpack(x, active)
        eigs = np.linalg.eigvalsh(floqlux.polariton._manifold(cavity, omega3s, 0.2, g, d))
        gaps = np.sort(np.abs(eigs - data[:, 1:2]), axis=1)
        # skip ties between the two nearest eigenvalues and the kink of |lambda - f|
        rows = (gaps[:, 1] - gaps[:, 0] > 1e-6) & (gaps[:, 0] > 1e-6)
        assert rows.sum() > data.shape[0] // 2
        exact = jac(x)
        for i in range(2 * n_act):
            step = np.zeros_like(x)
            step[i] = h
            central = (fun(x + step) - fun(x - step)) / (2 * h)
            scale = np.max(np.abs(exact[:, i]))
            assert np.max(np.abs(exact[rows, i] - central[rows])) <= 1e-5 * scale


def _finite_difference_fit(cavity, curve, data, fit):
    """The fit from the same starts, bounds and tolerances with least_squares'
    own finite-difference Jacobian: (g_m, delta_m, g_err) over active m."""
    fun, _, _, active = _callbacks(cavity, curve, data, fit)
    n_act = len(active)
    bounds = (np.concatenate([np.zeros(n_act), np.full(n_act, -0.2)]),
              np.concatenate([np.full(n_act, 0.5), np.full(n_act, 0.2)]))
    runs = [least_squares(fun, x0, bounds=bounds, method="trf",
                          xtol=1e-14, ftol=1e-14, gtol=1e-14) for x0 in _starts(n_act)]
    best = min((r for r in runs if r.status > 0), key=lambda r: r.cost)
    var = 2.0 * best.cost / max(data.shape[0] - 2 * n_act, 1)
    perr = np.sqrt(np.maximum(np.diag(var * np.linalg.pinv(best.jac.T @ best.jac)), 0.0))
    return (dict(zip(active, best.x[:n_act])), dict(zip(active, best.x[n_act:])),
            dict(zip(active, perr[:n_act])))


def test_exact_jacobian_fit_matches_finite_difference_fit(params):
    cavity = CavityParams()
    scale = max(G_SIX.values())
    for seed in range(5):
        curve, data = _six_crossings(params, cavity, seed)
        fit = fit_polariton(data, cavity, curve, 0.2)
        assert not fit.unidentifiable
        g_fd, d_fd, err_fd = _finite_difference_fit(cavity, curve, data, fit)
        for m in G_SIX:
            assert fit.g_m[m] == pytest.approx(g_fd[m], abs=1e-6 * scale)
            assert fit.delta_m[m] == pytest.approx(d_fd[m], abs=1e-6 * scale)
            assert fit.g_err[m] == pytest.approx(err_fd[m], rel=0.05)


def test_fit_builds_one_manifold_per_residual_evaluation(params, monkeypatch):
    # the Jacobian reuses the residual's eigendecomposition: no extra builds,
    # and each build holds one manifold per distinct flux, not per peak
    cavity = CavityParams()
    curve, data = _six_crossings(params, cavity)
    n_fluxes = np.unique(data[:, 0]).size
    assert n_fluxes < data.shape[0]
    builds = []
    build = floqlux.polariton._manifold
    monkeypatch.setattr(floqlux.polariton, "_manifold",
                        lambda *a: builds.append(a[1].size) or build(*a))
    fit = fit_polariton(data, cavity, curve, 0.2)
    assert fit.success
    assert len(builds) == fit.n_evaluations
    assert set(builds) == {n_fluxes}


def test_fit_problem_matches_a_per_peak_reference(params):
    # sharing one manifold among a flux's peaks changes no bit of the
    # residual or the Jacobian, against one eigh per data row
    cavity = CavityParams()
    curve, data = _six_crossings(params, cavity, seed=2)
    fit = fit_polariton(data, cavity, curve, 0.2)
    fun, jac, omega3s, active = _callbacks(cavity, curve, data, fit)
    n_act = len(active)
    cols = [m + 3 for m in active]
    fitted = np.array([fit.g_m[m] for m in active] + [fit.delta_m[m] for m in active])
    for x in (_starts(n_act)[1], fitted):
        g, d = floqlux.polariton._unpack(x, active)
        want_fun, want_jac = [], []
        for omega3, freq, sigma in zip(omega3s, data[:, 1], data[:, 2]):
            eigs, vecs = np.linalg.eigh(floqlux.polariton._manifold(
                cavity, np.array([omega3]), 0.2, g, d))
            k = np.argmin(np.abs(eigs[0] - freq))
            v, diff = vecs[0, :, k], eigs[0, k] - freq
            want_fun.append(abs(diff) / sigma)
            want_jac.append(np.sign(diff) / sigma * np.concatenate(
                [2.0 * v[0] * v[cols] * np.sign(x[:n_act]), v[cols] * v[cols]]))
        assert np.array_equal(fun(x), want_fun)
        assert np.array_equal(jac(x), want_jac)


def test_fit_does_not_hide_programming_errors(params, monkeypatch):
    # only numerical failures count as a start that did not converge
    cavity = CavityParams()
    curve, data = _six_crossings(params, cavity)

    def broken(*args):
        raise TypeError("broken manifold")

    monkeypatch.setattr(floqlux.polariton, "_manifold", broken)
    with pytest.raises(TypeError, match="broken manifold"):
        fit_polariton(data, cavity, curve, 0.2)
