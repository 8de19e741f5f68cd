"""Steady-state probe response and windowed Ramsey extraction."""

from __future__ import annotations

import math

import numpy as np
import pytest

import floqlux.spectroscopy
from floqlux import (
    AliasingError,
    DriveParams,
    FluxBias,
    ProbeParams,
    RamseyConfig,
    SambeConfig,
    depolarization_rates,
    extract_t2r,
    probe_population,
    solve_floquet,
    spectroscopy_map,
    synth_ramsey_signal,
)


@pytest.fixture(scope="module")
def thermal(noise, spot_solution):
    depol = depolarization_rates(spot_solution, noise)
    return depol.gamma_up / (depol.gamma_up + depol.gamma_down)


def _spot_population(params, noise, spot_drive, probe_freqs, rabi=1e-4):
    """P1 over ``probe_freqs`` at the double sweet spot, on an unchecked solve
    like the ones the map and the spectroscopy task probe."""
    sol = solve_floquet(params, spot_drive)
    return probe_population(sol, noise, ProbeParams(omega_p=tuple(probe_freqs), rabi=rabi))


def test_probe_rates_peak_on_resonance(params, noise, spot_drive, spot_solution, thermal):
    eps01 = spot_solution.splitting(1, 0)
    om = spot_solution.drive.omega
    target = abs(eps01 + 2 * om)
    # a weak probe moves P1 off thermal in proportion to its excitation rate
    on, off = _spot_population(params, noise, spot_drive, [target, target + 0.05]) - thermal
    assert abs(on) > 10 * abs(off)


def test_population_bounds_and_thermal_limit(params, noise, spot_drive, spot_solution,
                                             thermal):
    eps01 = spot_solution.splitting(1, 0)
    lo, hi = sorted((thermal, 0.5))
    p1 = _spot_population(params, noise, spot_drive, np.linspace(0.2, 2.0, 7))
    assert np.all((0.0 <= p1) & (p1 <= 1.0))
    # probing saturates the cell: P1 moves from thermal toward 1/2
    assert np.all((lo - 1e-12 <= p1) & (p1 <= hi + 1e-12))
    weak = _spot_population(params, noise, spot_drive, [abs(eps01)], rabi=1e-9)
    assert weak[0] == pytest.approx(thermal, abs=1e-8)


def test_population_response_linear_in_drive_power(params, noise, spot_drive, spot_solution,
                                                   thermal):
    eps01 = spot_solution.splitting(1, 0)
    om = spot_solution.drive.omega
    target = abs(eps01 + 2 * om)

    def delta_p1(rabi):
        return _spot_population(params, noise, spot_drive, [target], rabi=rabi)[0] - thermal

    ratio = delta_p1(1e-4) / delta_p1(1e-5)
    assert ratio == pytest.approx(100.0, rel=0.015)


def test_map_mirror_symmetry(params, noise):
    phis = np.round(np.arange(0.47, 0.5301, 0.005), 4)
    probe_freqs = np.linspace(0.70, 0.95, 26)
    m = spectroscopy_map(params, noise, DriveParams(FluxBias(0.5), 0.0, 0.5),
                         ProbeParams(omega_p=tuple(probe_freqs), sweep="phi_dc"), phis)
    assert not m.mask.any()
    assert m.population.shape == (phis.size, probe_freqs.size)
    # the undriven map is symmetric under phi -> 1 - phi
    assert m.population == pytest.approx(m.population[::-1], rel=1e-6)


def test_map_failure_masking(params, noise):
    # an unsolvable point (nan bias) is masked with a reason, not raised
    m = spectroscopy_map(params, noise, DriveParams(FluxBias(0.5), 0.0, 0.5),
                         ProbeParams(omega_p=tuple(np.linspace(0.7, 0.8, 5)), sweep="phi_dc"),
                         [0.5, float("nan")])
    assert not m.mask[0]
    assert m.mask[1]
    assert 1 in m.failures and m.failures[1]


def test_ramsey_signal_layout(spot_solution):
    cfg = RamseyConfig(omega0=1.013950289332,
                       delays=tuple(float(i) * 2e-6 for i in range(8)))
    sig = synth_ramsey_signal(spot_solution, cfg)
    n_samp = int(round(cfg.window / cfg.step))
    assert sig.times.shape == (8, n_samp)
    assert sig.values.shape == sig.times.shape
    # dominant beat comes from the ladder point nearest the reference
    assert sig.dominant_beat == pytest.approx(0.1717e9, rel=5e-3)
    assert sig.component_weights.sum() == pytest.approx(1.0, abs=1e-6)


def test_ramsey_roundtrip_single_component(spot_solution):
    cfg = RamseyConfig(omega0=1.013950289332,
                       delays=tuple(float(i) * 2e-6 for i in range(26)))
    sig = synth_ramsey_signal(spot_solution, cfg,
                              weights={2: 1.0})
    est = extract_t2r(sig)
    assert est.t2r == pytest.approx(cfg.t2r_true, rel=1e-3)
    assert est.window_amplitudes.shape == est.window_offsets.shape


def test_noiseless_decay_reports_the_fit_noise_floor(params, spec_half):
    # the undriven signal at the static transition is one noiseless exponential,
    # whose fit covariance holds only rounding residuals
    sol = solve_floquet(params, DriveParams(FluxBias(0.5), 0.0, 0.5), spectrum=spec_half)
    est = extract_t2r(synth_ramsey_signal(sol, RamseyConfig(omega0=spec_half.transition())))
    assert est.rate_stderr == pytest.approx(3e-10 * est.rate, rel=1e-12)
    assert est.t2r_stderr == pytest.approx(3e-10 * est.t2r, rel=1e-9)


def test_ramsey_roundtrip_multi_component(spot_solution):
    cfg = RamseyConfig(omega0=1.013950289332,
                       delays=tuple(float(i) * 2e-6 for i in range(26)))
    sig = synth_ramsey_signal(spot_solution, cfg)
    est = extract_t2r(sig)
    assert est.t2r == pytest.approx(cfg.t2r_true, rel=0.05)


def test_decay_fit_moves_less_than_its_inputs_allow(spot_solution):
    # window amplitudes moved at 1e-11 relative, as a change of BLAS thread
    # count moves them, move t2r_est by under 1e-9 relative
    cfg = RamseyConfig(omega0=1.013950289332)
    est = extract_t2r(synth_ramsey_signal(spot_solution, cfg))
    offs, amps = est.window_offsets, est.window_amplitudes
    rng = np.random.default_rng(11)
    for _ in range(30):
        nudged = amps * (1.0 + 1e-11 * rng.standard_normal(amps.shape))
        rate, _ = floqlux.spectroscopy._fit_decay(offs, nudged)
        assert abs(est.t2r * rate - 1.0) < 1e-9


def test_ramsey_infinite_decay_estimates_zero_rate(spot_solution):
    cfg = RamseyConfig(omega0=1.013950289332,
                       delays=tuple(float(i) * 2e-6 for i in range(26)),
                       t2r_true=math.inf)
    sig = synth_ramsey_signal(spot_solution, cfg, weights={2: 1.0})
    est = extract_t2r(sig)
    span = float(est.window_offsets[-1])
    assert abs(est.rate) * span < 1e-3


def test_ramsey_noise_robustness(spot_solution, rng):
    cfg = RamseyConfig(omega0=1.013950289332,
                       delays=tuple(float(i) * 2e-6 for i in range(26)))
    clean = synth_ramsey_signal(spot_solution, cfg, weights={2: 1.0})
    for _ in range(3):
        noisy_vals = clean.values + 0.05 * rng.standard_normal(clean.values.shape)
        sig = type(clean)(times=clean.times.copy(), values=noisy_vals,
                          window_offsets=clean.window_offsets.copy(), step=clean.step,
                          dominant_beat=clean.dominant_beat,
                          component_freqs=clean.component_freqs.copy(),
                          component_weights=clean.component_weights.copy())
        est = extract_t2r(sig)
        assert est.t2r == pytest.approx(cfg.t2r_true, rel=0.15)


def test_aliasing_guard(spot_solution):
    cfg = RamseyConfig(omega0=1.013950289332,
                       delays=tuple(float(i) * 2e-6 for i in range(8)),
                       step=2e-9)
    sig = synth_ramsey_signal(spot_solution, cfg)
    with pytest.raises(AliasingError, match="step"):
        extract_t2r(sig)


def test_ramsey_config_validation():
    with pytest.raises(ValueError):
        RamseyConfig(omega0=1.0, delays=(0.0, 2e-6, 4e-6), step=3e-8, window=2e-8)
    with pytest.raises(ValueError):
        RamseyConfig(omega0=1.0, delays=(2e-6, 0.0))
    with pytest.raises(ValueError):
        RamseyConfig(omega0=1.0, delays=(0.0, 2e-6, 4e-6), t2r_true=0.0)


def test_explicit_weights_bypass_alignment(spot_solution):
    cfg = RamseyConfig(omega0=1.013950289332,
                       delays=tuple(float(i) * 2e-6 for i in range(6)))
    sig = synth_ramsey_signal(spot_solution, cfg, weights={0: 0.7, 1: 0.3})
    assert sig.component_weights == pytest.approx([0.7, 0.3])
    eps01 = spot_solution.splitting(1, 0)
    om = spot_solution.drive.omega
    want = np.abs((eps01 + np.array([0, 1]) * om - cfg.omega0) * 1e9)
    assert np.sort(np.abs(sig.component_freqs)) == pytest.approx(np.sort(want), rel=1e-12)
