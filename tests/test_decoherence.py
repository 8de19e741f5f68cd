"""Noise spectral densities, golden-rule rates, and sweet-spot location."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import floqlux.decoherence
import floqlux.floquet
from floqlux import (
    CircuitParams,
    CoherenceRates,
    DriveParams,
    FluxBias,
    GridSpec,
    InfraredDivergenceError,
    NoiseModel,
    SambeConfig,
    coherence_rates,
    depolarization_rates,
    find_sweet_spots,
    pure_dephasing_rate,
    quasienergy_derivatives,
    s_ac,
    s_dc,
    s_diel,
    solve_floquet,
)

HBAR = 1.054571817e-34
KB = 1.380649e-23


def test_one_over_f_scaling(params, noise):
    assert s_dc(0.8, noise) == pytest.approx(0.5 * s_dc(0.4, noise), rel=1e-12)
    assert s_dc(-0.4, noise) == pytest.approx(s_dc(0.4, noise), rel=1e-12)
    assert s_ac(0.8, noise) == pytest.approx(0.5 * s_ac(0.4, noise), rel=1e-12)
    with pytest.raises(InfraredDivergenceError):
        s_dc(0.0, noise)
    with pytest.raises(InfraredDivergenceError):
        s_ac(0.0, noise)
    # array arguments equal the scalar calls elementwise
    w = np.array([-1.3, -0.4, 0.25, 0.9])
    for density in (lambda f: s_dc(f, noise), lambda f: s_ac(f, noise),
                    lambda f: s_diel(f, params, noise)):
        assert np.array_equal(density(w), [density(float(f)) for f in w])
    assert np.array_equal(s_diel(np.array([0.0, 0.9]), params, noise),
                          [0.0, s_diel(0.9, params, noise)])
    with pytest.raises(InfraredDivergenceError):
        s_dc(np.array([0.4, 0.0]), noise)


def test_dielectric_detailed_balance(params, noise):
    w = 0.9
    ratio = s_diel(-w, params, noise) / s_diel(w, params, noise)
    boltz = math.exp(-HBAR * 2 * math.pi * w * 1e9 / (KB * noise.temperature))
    assert ratio == pytest.approx(boltz, rel=1e-9)
    assert s_diel(0.0, params, noise) == 0.0
    cold = NoiseModel(temperature=0.0)
    assert s_diel(-w, params, cold) == 0.0
    assert s_diel(w, params, cold) > 0.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(a_dc=-1e-6)
    with pytest.raises(ValueError):
        NoiseModel(omega_ir=0.0)
    with pytest.raises(ValueError):
        NoiseModel(t_m=0.0)
    # ir cutoff and measurement time must keep the 1/f log factor real
    with pytest.raises(ValueError):
        NoiseModel(omega_ir=1.0, t_m=1.0)
    assert NoiseModel().ir_log_factor == pytest.approx(3.93, abs=0.01)


def test_fourier_elements_conjugation(spot_solution):
    elems = spot_solution.phi_elements
    kmax = int(elems.k_values[-1])
    for k in (-3, -1, 0, 2):
        assert elems.table[0, 1, kmax + k] == pytest.approx(
            np.conj(elems.table[1, 0, kmax - k]), abs=1e-12)


def test_fourier_elements_are_coefficients_of_negative_harmonics(spot_solution):
    # the Sambe diagonal +n*Omega makes Phi_a(t) = sum_n e^{+i n Omega t} |phi_a^(n)>,
    # so table[k] is the coefficient of e^{-i k Omega t} in <Phi_0(t)|phi|Phi_1(t)>
    sol = spot_solution
    d, n_side = sol.n_levels, sol.config.sideband_cutoff
    m = 8 * n_side  # samples per period; the product holds harmonics |q| <= 2*N_s
    theta = 2.0 * np.pi * np.arange(m) / m  # Omega*t over one period
    phases = np.exp(1j * np.outer(theta, np.arange(-n_side, n_side + 1)))
    modes = np.einsum("jn,ans->ajs", phases, sol.fourier_blocks)
    signal = np.einsum("js,st,jt->j", modes[0].conj(), sol.spectrum.phi_elements[:d, :d],
                       modes[1])
    coeffs = np.fft.fft(signal) / m  # coeffs[q % m] multiplies e^{+i q Omega t}
    elems = sol.phi_elements
    kmax = int(elems.k_values[-1])
    for k in (-2, -1, 1, 2):
        assert elems.table[0, 1, kmax + k] == pytest.approx(coeffs[-k % m], abs=1e-12)
        # the opposite sign would read another element
        assert abs(elems.table[0, 1, kmax + k] - coeffs[k % m]) > 0.1


def test_elements_built_once_per_solution(params, noise, spot_drive, spec_451, monkeypatch):
    tables = []
    build = floqlux.floquet.fourier_operator_elements
    monkeypatch.setattr(floqlux.floquet, "fourier_operator_elements",
                        lambda sol, op: tables.append(sol) or build(sol, op))
    sol = solve_floquet(params, spot_drive, SambeConfig(), spectrum=spec_451)
    coherence_rates(params, spot_drive, noise, sol=sol)
    assert sol.phi_elements is sol.phi_elements
    assert tables == [sol]
    # a copy with the same blocks is another solution with its own table
    twin = dataclasses.replace(sol)
    assert depolarization_rates(twin, noise) == depolarization_rates(sol, noise)
    assert tables == [sol, twin]


def test_undriven_t1_reference(params, noise, spec_451):
    # frozen: T1 of the reference circuit at phi_dc = 0.451, drive off
    sol = solve_floquet(params, DriveParams(FluxBias(0.451), 0.0, 0.7743211),
                        SambeConfig(), spectrum=spec_451)
    depol = depolarization_rates(sol, noise)
    assert depol.t1 == pytest.approx(2.728117e-05, rel=1e-5)
    assert depol.gamma_up < depol.gamma_down  # thermal asymmetry at 85 mK
    up = sum(v["up"] for v in depol.breakdown.values())
    assert up == pytest.approx(depol.gamma_up, rel=1e-12)


def test_noise_channels_follow_the_module_formulas(params, noise, spot_solution):
    # each channel rebuilt term by term from the module docstring: the 1/f
    # densities carry E_L^2 and (2 pi)^2, the flux-to-phase conversion
    sol = spot_solution
    table = sol.phi_elements.table
    kmax = table.shape[-1] // 2
    om, eps01 = sol.drive.omega, sol.splitting(1, 0)
    el2 = (2 * math.pi * 1e9 * params.e_l) ** 2

    def phi(a, b, k):  # out-of-window harmonics count as zero
        return table[a, b, k + kmax] if abs(k) <= kmax else 0.0

    def diel(f):
        return float(s_diel(f, params, noise))

    def one_over_f(amp):  # E_L^2 (2 pi)^2 S(f), with S = 2 pi A^2 / |w| at w = 2 pi f
        return lambda f: (el2 * (2 * math.pi) ** 2
                          * 2 * math.pi * amp**2 / abs(2 * math.pi * 1e9 * f))

    dc, ac = one_over_f(noise.a_dc), one_over_f(noise.a_ac)

    ks = range(-kmax, kmax + 1)
    depol = depolarization_rates(sol, noise).breakdown
    for key, sign in (("down", 1), ("up", -1)):
        freqs = [(k, k * om + sign * eps01) for k in ks]
        want = {
            "dielectric": sum(abs(phi(0, 1, k)) ** 2 * diel(f) for k, f in freqs),
            "dc_flux": sum(abs(phi(0, 1, k)) ** 2 * dc(f) for k, f in freqs),
            "ac_amplitude": sum(abs(phi(0, 1, k + 1) + phi(0, 1, k - 1)) ** 2 / 4 * ac(f)
                                for k, f in freqs),
        }
        for name, value in want.items():
            assert depol[name][key] == pytest.approx(value, rel=1e-12), (name, key)

    side = [k for k in ks if k != 0]
    dz = {k: abs(phi(1, 1, k) - phi(0, 0, k)) ** 2 / 2 for k in side}
    want = {
        "dielectric": sum(dz[k] * diel(k * om) for k in side),
        "dc_flux": sum(dz[k] * dc(k * om) for k in side),
        "ac_amplitude": sum(abs(phi(0, 0, k + 1) + phi(0, 0, k - 1) - phi(1, 1, k + 1)
                                - phi(1, 1, k - 1)) ** 2 / 8 * ac(k * om) for k in side),
    }
    deph = pure_dephasing_rate(sol, noise).breakdown
    for name, value in want.items():
        assert deph[name] == pytest.approx(value, rel=1e-12), name


def _resonant(sol, eps01):
    """``sol`` with its natural splitting replaced by exactly ``eps01``."""
    return dataclasses.replace(sol, rep_energies=np.array([0.0, eps01, *sol.rep_energies[2:]]))


def test_infrared_rule_of_rate_sums(params, noise, spec_451):
    # undriven, only phi_01^(0) is nonzero: at eps01 = 2*Om the k = -2 terms
    # sample zero frequency with zero weight and are skipped; at eps01 = Om the
    # k = -1 amplitude-noise term has weight |phi_01^(0)|^2/4 and diverges
    om = 0.5
    sol = solve_floquet(params, DriveParams(FluxBias(0.451), 0.0, om), SambeConfig(),
                        spectrum=spec_451)
    depol = depolarization_rates(_resonant(sol, 2 * om), noise)
    assert math.isfinite(depol.t1) and depol.t1 == pytest.approx(2.771e-5, rel=1e-3)
    with pytest.raises(InfraredDivergenceError):
        depolarization_rates(_resonant(sol, om), noise)


def test_coherence_rates_composition(params, noise, spot_drive, spot_solution):
    rates = coherence_rates(params, spot_drive, noise, sol=spot_solution)
    assert 1.0 / rates.t2r == pytest.approx(0.5 / rates.t1 + rates.gamma_phi, rel=1e-12)
    assert rates.tphi == pytest.approx(1.0 / rates.gamma_phi, rel=1e-12)
    assert rates.gamma_up > 0 and rates.gamma_down > 0 and rates.gamma_phi > 0


@pytest.mark.parametrize("name, other", [
    ("drive", DriveParams(FluxBias(0.451), 0.05, 0.7743211)),
    ("config", SambeConfig(sideband_cutoff=12)),
    ("params", CircuitParams(e_j=2.6)),
], ids=["drive", "config", "circuit"])
def test_coherence_rates_rejects_a_foreign_solution(params, noise, spot_drive, spot_solution,
                                                   name, other):
    args = {"params": params, "drive": spot_drive, "config": SambeConfig(), name: other}
    with pytest.raises(ValueError, match="sol was solved for"):
        coherence_rates(model=noise, sol=spot_solution, **args)


def test_dephasing_positive_when_detuned(params, noise):
    # away from any sweet spot the 1/f first-order term dominates dephasing
    sol = solve_floquet(params, DriveParams(FluxBias(0.43), 0.0, 0.5), SambeConfig())
    deph = pure_dephasing_rate(sol, noise)
    assert deph.gamma_phi > 0
    assert deph.tphi == pytest.approx(1.0 / deph.gamma_phi, rel=1e-12)


def test_derivative_forms_agree_at_one_point():
    # a taller level stack keeps the perturbative identities tight
    drive = DriveParams(FluxBias(0.451), 0.05, 0.6)
    sol = solve_floquet(CircuitParams(), drive, SambeConfig(n_levels=9))
    d = quasienergy_derivatives(sol, fd=True)
    assert not d.tracking_break
    assert d.flux_fd == pytest.approx(d.flux_me, rel=1e-6, abs=1e-9)
    assert d.xi_fd == pytest.approx(d.xi_me, rel=1e-6, abs=1e-9)


def test_filter_weights_conservation(params):
    # in the two-level model the sideband-summed filter weight
    # 2*depolarization + dephasing equals its static reference exactly
    sol = solve_floquet(params, DriveParams(FluxBias(0.451), 0.07, 0.5),
                        SambeConfig(n_levels=2, sideband_cutoff=40))
    t = sol.phi_elements.table
    total = float(2 * np.sum(np.abs(t[0, 1]) ** 2)
                  + 0.5 * np.sum(np.abs(t[1, 1] - t[0, 0]) ** 2))
    phi_bar = sol.spectrum.phi_elements[:2, :2]
    reference = 2 * abs(phi_bar[0, 1]) ** 2 + 0.5 * abs(phi_bar[1, 1] - phi_bar[0, 0]) ** 2
    assert total == pytest.approx(reference, rel=1e-9)
    assert abs(total - reference) < 1e-9 * reference


def test_flux_sweet_spot_at_symmetry_point(params, noise):
    grid = GridSpec(phi_dc=tuple(np.linspace(0.48, 0.52, 5)), xi=(0.0,), omega=(0.5,))
    scan = find_sweet_spots(params, noise, grid)
    assert all(isinstance(s.rates, CoherenceRates) for s in scan.spots)
    flux_spots = [s for s in scan.spots if s.kind == "flux"]
    assert flux_spots
    assert flux_spots[0].phi_dc == pytest.approx(0.5, abs=1e-6)
    assert abs(flux_spots[0].d_flux) < 1e-4


def test_double_sweet_spot_location(params, noise, eigensolves):
    # the scan diagonalizes the static circuit once per flux bias
    grid = GridSpec(phi_dc=(0.451,), xi=(0.0, 0.06, 0.12), omega=(0.7, 0.8))
    scan = find_sweet_spots(params, noise, grid)
    assert len(eigensolves) == len(set(grid.phi_dc))
    doubles = [s for s in scan.spots if s.kind == "double"]
    assert doubles
    spot = doubles[0]
    assert spot.xi == pytest.approx(0.0855831, abs=2e-4)
    assert spot.omega == pytest.approx(0.7743211, abs=2e-4)
    assert abs(spot.d_flux) < 1e-4 and abs(spot.d_xi) < 1e-4
    assert spot.rates is not None and spot.rates.tphi > 0


def test_sweet_spot_scan_solves_each_point_once(params, noise, monkeypatch):
    # brentq's bracket ends are grid points, hybr re-reads its seed, and
    # classify re-reads the root: each is a drive point solved before
    points = []
    solve = floqlux.decoherence.solve_floquet

    def counting(p, drive, *args, **kwargs):
        points.append((drive.bias.phi_dc, drive.xi, drive.omega))
        return solve(p, drive, *args, **kwargs)

    monkeypatch.setattr(floqlux.decoherence, "solve_floquet", counting)
    grid = GridSpec(phi_dc=(0.451,), xi=(0.0, 0.06, 0.12), omega=(0.7, 0.8))
    scan = find_sweet_spots(params, noise, grid)
    assert "double" in [s.kind for s in scan.spots]
    assert len(points) == len(set(points))


def test_sweet_spot_scan_ignores_axis_order(params, noise):
    # brackets pair neighbouring grid values, so an unsorted axis hides spots
    ordered = GridSpec(phi_dc=(0.451,), xi=(0.0, 0.06, 0.12), omega=(0.7, 0.8))
    permuted = GridSpec(phi_dc=(0.451,), xi=(0.12, 0.0, 0.06), omega=(0.8, 0.7))
    want = find_sweet_spots(params, noise, ordered)
    got = find_sweet_spots(params, noise, permuted)
    assert all(isinstance(s.rates, CoherenceRates) for s in want.spots)
    assert "double" in [s.kind for s in want.spots]
    assert got.spots == want.spots
    assert got.diagnostics == want.diagnostics


def test_fd_derivatives_solve_each_bias_once(params, noise, spot_drive, eigensolves):
    # the xi stencil keeps the bias, so it reuses the reference spectrum; the
    # flux stencil needs one eigensolve per distinct bias
    rates = coherence_rates(params, spot_drive, noise, fd=True)
    assert rates.derivatives.flux_fd is not None and rates.derivatives.xi_fd is not None
    assert len(set(eigensolves)) > 1
    assert len(eigensolves) == len(set(eigensolves))
