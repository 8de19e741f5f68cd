"""Sambe-space solver: limits, symmetries, and the time-domain oracle."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqlux import (
    DriveParams,
    FluxBias,
    SambeConfig,
    build_sambe,
    diagonalize_static,
    fold_quasienergy,
    monodromy_oracle,
    solve_floquet,
    track_states,
    two_level_reduction,
)
from floqlux import floquet
from floqlux.errors import ConvergenceError, DiagnosticError
from floqlux.floquet import _propagate_period, _select_representatives


@settings(max_examples=50, deadline=None)
@given(eps=st.floats(-50, 50), omega=st.floats(0.05, 5.0))
def test_fold_quasienergy_properties(eps, omega):
    folded = float(fold_quasienergy(eps, omega))
    assert -omega / 2 < folded <= omega / 2 + 1e-12
    # folding is idempotent and invariant under integer zone shifts
    assert float(fold_quasienergy(folded, omega)) == pytest.approx(folded, abs=1e-9)
    assert float(fold_quasienergy(eps + 3 * omega, omega)) == pytest.approx(folded, abs=1e-9)


def test_static_limit(params, spec_half):
    drive = DriveParams(FluxBias(0.5), 0.0, 0.4)
    sol = solve_floquet(params, drive, SambeConfig(), spectrum=spec_half)
    want = fold_quasienergy(spec_half.energies[:5], 0.4)
    assert np.max(np.abs(np.sort(sol.quasienergies) - np.sort(want))) < 1e-12
    # natural splitting is the bare transition, not its folded image
    assert sol.splitting(1, 0, "natural") == pytest.approx(spec_half.transition(0, 1), abs=1e-12)
    for alpha in range(5):
        w = sol.sideband_weights(alpha)
        assert w[sol.config.sideband_cutoff] == pytest.approx(1.0, abs=1e-12)


def test_sideband_weights_normalized(spot_solution):
    for alpha in range(spot_solution.n_levels):
        assert float(np.sum(spot_solution.sideband_weights(alpha))) == pytest.approx(1.0, abs=1e-10)


def test_splitting_branches(spot_solution):
    nat = spot_solution.splitting(1, 0, "natural")
    fol = spot_solution.splitting(1, 0, "folded")
    om = spot_solution.drive.omega
    assert fol == pytest.approx(float(fold_quasienergy(nat, om)), abs=1e-12)
    assert -om / 2 < fol <= om / 2
    with pytest.raises(ValueError):
        spot_solution.splitting(1, 0, "sideways")


def test_sambe_matrix_structure(params, spec_half):
    drive = DriveParams(FluxBias(0.5), 0.04, 0.5)
    cfg = SambeConfig(n_levels=3, sideband_cutoff=2)
    h = build_sambe(params, drive, cfg, spectrum=spec_half)
    d, nb = 3, 5
    assert h.shape == (d * nb, d * nb)
    assert np.allclose(h, h.T)
    # diagonal block n: static energies + n*Omega + ac-Stark-like shift
    shift = 0.25 * params.e_l * (2 * np.pi * drive.xi) ** 2
    for bi, n in enumerate(range(-2, 3)):
        blk = h[bi * d:(bi + 1) * d, bi * d:(bi + 1) * d]
        want = np.diag(spec_half.energies[:3] + n * drive.omega + shift)
        assert np.allclose(blk, want, atol=1e-12)
    # blocks beyond nearest neighbors vanish
    far = h[0:d, 2 * d:3 * d]
    assert np.allclose(far, 0.0)


def test_monodromy_oracle_agreement(params, spec_451):
    drive = DriveParams(FluxBias(0.451), 0.05, 0.4)
    sol = solve_floquet(params, drive, SambeConfig(), spectrum=spec_451)
    oracle = monodromy_oracle(params, drive, spectrum=spec_451)
    mine = np.sort(sol.quasienergies)
    diff = np.abs(fold_quasienergy(mine - oracle, drive.omega))
    assert float(np.max(diff)) / drive.omega < 1e-8


def _cf4_loop(energies, phi_op, e_l, drive, n_steps):
    """Reference CF4 monodromy matrix: one step at a time, two eigh per step."""
    shift, amp = floquet._drive_terms(e_l, drive.xi)
    h_static = np.diag(energies + shift)
    dt = drive.period / n_steps

    def h_of(t):
        return h_static + (amp * math.cos(2.0 * math.pi * drive.omega * t)) * phi_op

    def expm(mat):
        w, q = np.linalg.eigh(mat)
        return (q * np.exp(-2j * math.pi * dt * w)) @ q.T

    u = np.eye(energies.size, dtype=complex)
    for j in range(n_steps):
        h1 = h_of(j * dt + floquet._GAUSS_C1 * dt)
        h2 = h_of(j * dt + floquet._GAUSS_C2 * dt)
        u = expm(floquet._CF4_A1 * h1 + floquet._CF4_A2 * h2) @ (
            expm(floquet._CF4_A2 * h1 + floquet._CF4_A1 * h2) @ u)
    return u


@pytest.mark.parametrize("undriven", [False, True], ids=["double_spot", "undriven"])
def test_propagate_period_matches_per_step_loop(params, spec_451, spot_drive, undriven):
    # 600 steps: the last chunk is partial and the product tree meets odd counts
    drive = replace(spot_drive, xi=0.0) if undriven else spot_drive
    args = (spec_451.energies[:5], spec_451.phi_elements[:5, :5], params.e_l, drive, 600)
    assert np.max(np.abs(_propagate_period(*args) - _cf4_loop(*args))) < 1e-12


def test_propagate_period_memory_is_bounded(params, spec_451, spot_drive):
    args = (spec_451.energies[:5], spec_451.phi_elements[:5, :5], params.e_l, spot_drive)
    tracemalloc.start()
    try:
        _propagate_period(*args, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_sambe_dimension_cap_raises_before_allocating(params, spec_451, spot_drive):
    # dimension 5 * 1201 = 6005 is just over the cap
    tracemalloc.start()
    try:
        with pytest.raises(DiagnosticError, match="GB"):
            build_sambe(params, spot_drive, SambeConfig(n_levels=5, sideband_cutoff=600),
                        spectrum=spec_451)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_monodromy_oracle_unconverged_steps_raise(params, spec_451, monkeypatch):
    # 4 and 8 steps per period cannot agree to 1e-9 GHz under a strong drive
    monkeypatch.setattr(floquet, "_ORACLE_STEPS", 4)
    monkeypatch.setattr(floquet, "_ORACLE_DOUBLINGS", 1)
    strong = DriveParams(FluxBias(0.451), 0.12, 0.25)
    with pytest.raises(ConvergenceError, match="n_steps=8"):
        monodromy_oracle(params, strong, spectrum=spec_451)


def test_monodromy_oracle_non_unitary_propagator_raises(params, spec_451, spot_drive,
                                                         monkeypatch):
    propagate = floquet._propagate_period
    monkeypatch.setattr(floquet, "_propagate_period", lambda *a: 1.001 * propagate(*a))
    with pytest.raises(DiagnosticError, match="non-unitary"):
        monodromy_oracle(params, spot_drive, spectrum=spec_451)


def test_convergence_flag(params, spec_451):
    strong = DriveParams(FluxBias(0.451), 0.12, 0.25)
    low = solve_floquet(params, strong, SambeConfig(sideband_cutoff=3), spectrum=spec_451)
    assert low.converged is False
    assert low.warnings
    high = solve_floquet(params, strong, SambeConfig(sideband_cutoff=30), spectrum=spec_451)
    assert high.converged is True
    unchecked = solve_floquet(params, strong, SambeConfig(), spectrum=spec_451,
                              check_convergence=False)
    assert unchecked.converged is None


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(FluxBias(0.5), -0.01, 0.5)
    with pytest.raises(ValueError):
        DriveParams(FluxBias(0.5), 0.05, 0.0)
    with pytest.raises(ValueError):
        SambeConfig(n_levels=0)
    with pytest.raises(ValueError):
        SambeConfig(sideband_cutoff=-1)


def _tracked_eps01(sols, min_overlap, max_step):
    tracked = track_states(sols)
    assert tracked.break_indices == ()
    assert all(m > min_overlap for m in tracked.min_overlaps)
    eps01 = np.array([s.splitting(1, 0, "natural") for s in tracked.solutions])
    assert np.all(np.abs(np.diff(eps01)) < max_step)
    return eps01


def test_track_states_continuity(params, spec_451):
    xis = np.linspace(0.0, 0.08, 17)
    sols = [
        solve_floquet(params, DriveParams(FluxBias(0.451), float(x), 0.7743211),
                      SambeConfig(), spectrum=spec_451, check_convergence=False)
        for x in xis
    ]
    # the tracked splitting starts at the static transition and moves smoothly
    eps01 = _tracked_eps01(sols, 0.9, 0.1)
    assert eps01[0] == pytest.approx(spec_451.transition(0, 1), abs=1e-10)


def test_track_states_continuity_across_flux(params):
    # each step changes the static eigenbasis, which the matcher rotates away
    sols = [
        solve_floquet(params, DriveParams(FluxBias(float(phi)), 0.05, 0.7743211),
                      SambeConfig(), check_convergence=False)
        for phi in np.linspace(0.44, 0.47, 13)
    ]
    _tracked_eps01(sols, 0.7, 0.03)


def test_select_representatives_rejects_copies_only():
    n_side, omega = 4, 0.5

    def select(states, evals):
        # each state: all weight on one static level in one harmonic n
        blocks = np.zeros((len(states), 2 * n_side + 1, 2))
        for i, (level, n) in enumerate(states):
            blocks[i, n + n_side, level] = 1.0
        accepted, _, _ = _select_representatives(
            np.array(evals), blocks, np.sum(blocks**2, axis=2), omega, n_side, 2)
        return accepted

    # a state, its copy translated by one harmonic (eigenvalue + Omega), and a
    # second state further out in centroid: the copy is rejected
    assert select([(0, 0), (0, 1), (1, -2)], [0.1, 0.1 + omega, 0.3]) == [0, 2]
    # a distinct state whose quasienergy coincides with the first modulo Omega
    # has zero shifted overlap with it and is kept
    assert select([(0, 0), (1, 1)], [0.1, 0.1 + omega]) == [0, 1]


def test_two_level_conservation_single_point(params, spec_451):
    red0 = two_level_reduction(params, DriveParams(FluxBias(0.451), 1e-4, 0.5),
                               spectrum=spec_451)
    red1 = two_level_reduction(params, DriveParams(FluxBias(0.451), 0.08, 0.5),
                               spectrum=spec_451)

    def combined(red):
        t = red.elems.table
        return float(2 * np.sum(np.abs(t[0, 1]) ** 2)
                     + 0.5 * np.sum(np.abs(t[1, 1] - t[0, 0]) ** 2))

    assert combined(red1) == pytest.approx(combined(red0), rel=1e-9)
