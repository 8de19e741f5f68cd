"""Sambe-space solver: limits, symmetries, and the time-domain oracle."""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from conftest import _blas_threads
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floqlux import (
    DriveParams,
    FluxBias,
    SambeConfig,
    diagonalize_static,
    fold_quasienergy,
    monodromy_oracle,
    solve_floquet,
)
import floqlux.circuit
from floqlux import floquet
from floqlux.errors import ConvergenceError, DiagnosticError
from floqlux.floquet import _propagate_period, _select_representatives


@settings(max_examples=50, deadline=None)
@given(eps=st.floats(-50, 50), omega=st.floats(0.05, 5.0))
@example(eps=0.5, omega=1 / 3)  # zone boundary: both images must fold alike
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
    assert sol.splitting(1, 0) == pytest.approx(spec_half.transition(0, 1), abs=1e-12)
    for alpha in range(5):
        w = sol.sideband_weights(alpha)
        assert w[sol.config.sideband_cutoff] == pytest.approx(1.0, abs=1e-12)


def test_quasienergies_follow_the_representative_energies(spot_solution):
    # derived on read, so a copy with other energies folds its own, read-only
    omega = spot_solution.drive.omega
    moved = replace(spot_solution, rep_energies=spot_solution.rep_energies + 0.3 * omega)
    for sol in (spot_solution, moved):
        assert np.array_equal(sol.quasienergies, fold_quasienergy(sol.rep_energies, omega))
        assert not sol.quasienergies.flags.writeable
    assert not np.allclose(moved.quasienergies, spot_solution.quasienergies)


def test_sideband_weights_normalized(spot_solution):
    for alpha in range(spot_solution.n_levels):
        assert float(np.sum(spot_solution.sideband_weights(alpha))) == pytest.approx(1.0, abs=1e-10)


def test_splitting_branches(spot_solution):
    # the natural splitting differences the representatives; folding is the caller's
    nat = spot_solution.splitting(1, 0)
    assert nat == spot_solution.rep_energies[1] - spot_solution.rep_energies[0]
    om = spot_solution.drive.omega
    assert -om / 2 < float(fold_quasienergy(nat, om)) <= om / 2


def test_sambe_matrix_structure(params, spec_half):
    drive = DriveParams(FluxBias(0.5), 0.04, 0.5)
    h = floquet._band_to_dense(floquet._sambe_band(spec_half.energies[:3],
                                                   spec_half.phi_elements[:3, :3],
                                                   params.e_l, drive.xi, drive.omega, 2))
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


def _loop_sambe(energies, phi_op, e_l, xi, omega, n_side):
    """Reference Sambe matrix: one diagonal and two coupling blocks per harmonic."""
    d, nb = energies.size, 2 * n_side + 1
    shift, amp = floquet._drive_terms(e_l, xi)
    coupling = 0.5 * amp * phi_op
    h = np.zeros((d * nb, d * nb))
    for j, n in enumerate(range(-n_side, n_side + 1)):
        rows = slice(j * d, (j + 1) * d)
        h[rows, rows] = np.diag(energies + n * omega + shift)
        if j + 1 < nb:
            nxt = slice((j + 1) * d, (j + 2) * d)
            h[rows, nxt] = coupling
            h[nxt, rows] = coupling.T
    return h


@pytest.mark.parametrize("d,n_side", [(2, 1), (3, 2), (5, 20), (9, 7)])
def test_assemble_sambe_matches_block_loop(params, spec_451, spot_drive, d, n_side):
    args = (spec_451.energies[:d], spec_451.phi_elements[:d, :d], params.e_l,
            spot_drive.xi, spot_drive.omega, n_side)
    assert np.array_equal(floquet._band_to_dense(floquet._sambe_band(*args)), _loop_sambe(*args))


@pytest.mark.parametrize("n_side", [2, 20])
def test_checked_matrix_center_is_the_kept_matrix(params, spec_451, spot_drive, n_side):
    d = 5
    args = (spec_451.energies[:d], spec_451.phi_elements[:d, :d], params.e_l,
            spot_drive.xi, spot_drive.omega)
    band = floquet._sambe_band(*args, n_side + 2)
    wide = floquet._band_to_dense(band)
    assert np.array_equal(wide[2 * d:-2 * d, 2 * d:-2 * d], _loop_sambe(*args, n_side))
    # the start window is cut from the same band, as its central columns
    n_win = min(floquet._START_WINDOW, n_side)
    cut = (n_side + 2 - n_win) * d
    window = floquet._band_to_dense(band[:, cut:band.shape[1] - cut])
    assert np.array_equal(window, _loop_sambe(*args, n_win))


def test_checked_solve_assembles_and_diagonalizes_once(params, spec_451, spot_drive,
                                                       monkeypatch):
    bands, dense, eigh_calls, gauged = [], [], [], []
    band, to_dense, eigh = floquet._sambe_band, floquet._band_to_dense, floquet.scipy.linalg.eigh
    gauge = floquet._gauged
    monkeypatch.setattr(floquet, "_sambe_band", lambda *a: bands.append(a[-1]) or band(*a))
    monkeypatch.setattr(floquet, "_band_to_dense",
                        lambda b: dense.append(b.shape[1]) or to_dense(b))
    monkeypatch.setattr(floquet, "_gauged", lambda v: gauged.append(v.shape) or gauge(v))
    monkeypatch.setattr(floquet.scipy.linalg, "eigh",
                        lambda h, **kw: eigh_calls.append((h.shape[0], kw.get("eigvals_only")))
                        or eigh(h, **kw))
    sol = solve_floquet(params, spot_drive, SambeConfig(), spectrum=spec_451)
    # one band at N_s; one dense matrix, the 8-harmonic start window cut from
    # that band, and one eigendecomposition of it, with eigenvectors; N_s is
    # reached by banded solves only, and the representatives are gauged once,
    # at the end
    n_side = SambeConfig().sideband_cutoff
    assert bands == [n_side]
    # the first read of the flag assembles the N_s + 2 band, and no later read does
    assert sol.converged is True
    assert sol.convergence_delta < 1e-8
    assert bands == [n_side, n_side + 2]
    assert dense == [5 * (2 * 8 + 1)]
    assert eigh_calls == [(5 * (2 * 8 + 1), None)]
    assert gauged == [(5, 5 * (2 * n_side + 1))]


def test_eigenvalue_check_matches_labelled_resolve(params, spec_451):
    d = 5
    energies, phi_op = spec_451.energies[:d], spec_451.phi_elements[:d, :d]
    # under-truncated cells, then cells near the 1e-8 threshold
    under = itertools.product((2, 4, 6, 8), (0.12, 0.16, 0.2), (0.5, 0.7743211, 1.2))
    near = itertools.product((10, 12, 14, 16, 18), (0.086, 0.12, 0.16), (0.5, 0.7743211, 1.2))
    flags, in_band = [], 0
    for n_side, xi, omega in itertools.chain(under, near):
        drive = DriveParams(FluxBias(0.451), xi, omega)
        try:
            sol = solve_floquet(params, drive, SambeConfig(sideband_cutoff=n_side),
                                spectrum=spec_451)
        except ConvergenceError:
            continue  # too few interior representatives at this cutoff, checked or not
        # the labelled re-solve at N_s + 2 that the check replaces
        wide = _loop_sambe(energies, phi_op, params.e_l, xi, omega, n_side + 2)
        ref_e = floquet._solve_sambe(wide, omega, d)[0]
        ref_delta = float(np.max(floquet._zone_distance(sol.rep_energies, ref_e, omega)))
        assert sol.converged == (ref_delta < 1e-8), (n_side, xi, omega)
        if 1e-12 <= ref_delta < 1e-8:
            in_band += 1
            assert sol.convergence_delta == pytest.approx(ref_delta, rel=0.01)
        flags.append(sol.converged)
    assert in_band >= 10
    assert flags.count(False) >= 20 and flags.count(True) >= 10


def _nearest_eigenvalue_delta(rep_e, wide, omega):
    """The full-spectrum check: zone distance to the nearest wide eigenvalue."""
    w = np.linalg.eigvalsh(wide)
    near = w[np.argmin(np.abs(w[None] - rep_e[:, None]), axis=1)]
    return float(np.max(floquet._zone_distance(rep_e, near, omega)))


# static levels of the spectra that the tests below hand to solves of up to 9
_DEEP_LEVELS = 10


@pytest.mark.parametrize("d", [2, 4, 9])
def test_banded_check_matches_full_spectrum_and_labelled_resolve(d, params):
    # under-truncated cutoffs, then cutoffs at and past the 1e-8 threshold
    cells = list(itertools.chain(itertools.product((2, 4), (0.12, 0.2), (0.5, 1.2)),
                                 itertools.product((10, 14, 18), (0.086, 0.16), (0.5, 1.2))))
    flags, in_band = [], 0
    for phi in (0.40, 0.451, 0.5):
        spec = diagonalize_static(params, FluxBias(phi), _DEEP_LEVELS)
        energies, phi_op = spec.energies[:d], spec.phi_elements[:d, :d]
        for n_side, xi, omega in cells:
            try:
                sol = solve_floquet(params, DriveParams(FluxBias(phi), xi, omega),
                                    SambeConfig(n_levels=d, sideband_cutoff=n_side), spectrum=spec)
            except ConvergenceError:
                continue
            wide = _loop_sambe(energies, phi_op, params.e_l, xi, omega, n_side + 2)
            labelled = floquet._solve_sambe(wide, omega, d)[0]
            refs = (_nearest_eigenvalue_delta(sol.rep_energies, wide, omega),
                    float(np.max(floquet._zone_distance(sol.rep_energies, labelled, omega))))
            for ref in refs:
                assert sol.converged == (ref < 1e-8), (phi, n_side, xi, omega, ref)
                if 1e-12 <= ref < 1e-8:
                    in_band += 1
                    assert sol.convergence_delta == pytest.approx(ref, rel=0.01)
            flags.append(sol.converged)
    assert in_band >= 8
    assert flags.count(False) >= 10 and flags.count(True) >= 10


@pytest.mark.parametrize("d", [2, 5, 9])
def test_undriven_check_takes_the_singular_path(d, params):
    sol = solve_floquet(params, DriveParams(FluxBias(0.451), 0.0, 0.7), SambeConfig(n_levels=d))
    # the Sambe matrix is diagonal, so every shifted banded solve is singular
    assert sol.converged is True
    assert sol.convergence_delta == 0.0


def test_banded_check_returns_only_wide_eigenvalues(params, spec_451, monkeypatch):
    # every certified value _continue returns is an eigenvalue of the matrix in
    # its band: the N_s matrix for a continuation, N_s + 2 for the check
    seen, cell = [], {}
    cont = floquet._continue
    monkeypatch.setattr(floquet, "_continue",
                        lambda band, *a, **kw:
                        seen.append((cell.copy(), band, cont(band, *a, **kw))) or seen[-1][2])
    d = 5
    rng = np.random.default_rng(1515)
    for _ in range(40):
        xi, omega, n_side = rng.uniform(0, 0.2), rng.uniform(0.3, 1.3), int(rng.integers(2, 19))
        cell.update(xi=xi, omega=omega, n_side=n_side)
        try:
            solve_floquet(params, DriveParams(FluxBias(0.451), xi, omega),
                          SambeConfig(sideband_cutoff=n_side), spectrum=spec_451).converged
        except ConvergenceError:
            continue
    kinds = []
    for c, band, (energies, vecs, certified) in seen:
        kind = {d * (2 * c["n_side"] + 1): 0, d * (2 * c["n_side"] + 5): 2}[band.shape[1]]
        kinds.append(kind)
        h = _loop_sambe(spec_451.energies[:d], spec_451.phi_elements[:d, :d], params.e_l,
                        c["xi"], c["omega"], c["n_side"] + kind)
        assert np.array_equal(floquet._band_to_dense(band), h)
        norm = np.linalg.norm(h, 2)
        w = np.linalg.eigvalsh(h)
        gap = np.min(np.abs(w[None] - energies[certified, None]), axis=1)
        assert np.max(gap, initial=0.0) <= 1e-12 * norm
        residual = np.linalg.norm(vecs @ h - energies[:, None] * vecs, axis=1)
        assert np.max(residual[certified], initial=0.0) <= 1e-12 * norm
    assert kinds.count(2) >= 30 and kinds.count(0) >= 10


def test_uncertified_check_raises(params, spec_451, monkeypatch):
    # this under-truncated cell needs a second Rayleigh-quotient step
    monkeypatch.setattr(floquet, "_MAX_RQI_STEPS", 1)
    strong = DriveParams(FluxBias(0.451), 0.12, 0.25)
    sol = solve_floquet(params, strong, SambeConfig(sideband_cutoff=3), spectrum=spec_451)
    # the solve returns; the check runs, and raises, when the flag is read
    with pytest.raises(DiagnosticError, match="certified"):
        sol.converged


@pytest.mark.parametrize("checked", [False, True], ids=["unchecked", "checked"])
def test_sambe_solve_peak_within_stated_factor(params, spec_451, spot_drive, checked):
    # the widest matrix assembled has dimension 5 * 201 = 1005 either way: the
    # solved one, or the one that reading the truncation check assembles
    cfg = SambeConfig(sideband_cutoff=98 if checked else 100)
    tracemalloc.start()
    try:
        sol = solve_floquet(params, spot_drive, cfg, spectrum=spec_451)
        if checked:
            sol.convergence_delta
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= floquet._SAMBE_PEAK_ARRAYS * 8 * 1005**2


def _outcome(solve):
    try:
        return solve()
    except (ConvergenceError, DiagnosticError) as exc:
        return type(exc)


def _full_window_solve(circuit, spec, drive, d, n_side, checked):
    """Representatives from one dense evd of the whole N_s window, then the
    truncation check on them: (energies, blocks, delta)."""
    args = (spec.energies[:d], spec.phi_elements[:d, :d], circuit.e_l, drive.xi, drive.omega)
    rep_e, vecs = floquet._solve_sambe(_loop_sambe(*args, n_side), drive.omega, d)
    blocks = vecs.reshape(d, -1, d)
    if not checked:
        return rep_e, blocks, None
    wide_e, _, certified = floquet._continue(floquet._sambe_band(*args, n_side + 2), rep_e, vecs)
    if not certified.all():
        raise DiagnosticError("uncertified")
    return rep_e, blocks, float(np.max(floquet._zone_distance(rep_e, wide_e, drive.omega)))


def _agreement_drives(rng, count):
    """(phi, xi, Omega, N_s): two thirds from the strong box, the rest from
    the coherence and flux-scan benchmark boxes."""
    boxes = [((0.40, 0.55), (0.0, 0.2), (0.3, 1.3))] * 4 + [
        ((0.44, 0.47), (0.0, 0.12), (0.70, 0.80)), ((0.40, 0.58), (0.05, 0.05), (0.38, 0.42))]
    drives = []
    for i in range(count):
        box = boxes[i % len(boxes)]
        drives.append((*(rng.uniform(*r) for r in box), int(rng.choice((2, 10, 14, 20)))))
    return drives


@pytest.mark.parametrize("d", [2, 5, 9])
def test_windowed_solve_matches_full_window(d, params, monkeypatch):
    windows, starts = [], []
    solve, cont = floquet._solve_sambe, floquet._continue
    monkeypatch.setattr(floquet, "_solve_sambe",
                        lambda h, omega, d: windows.append(h.shape[0] // d // 2)
                        or solve(h, omega, d))

    def record(band, *a, **kw):
        out = cont(band, *a, **kw)
        starts.append((band.shape[1], out[0]))
        return out

    monkeypatch.setattr(floquet, "_continue", record)
    fired = wrong_start = raised = 0
    for phi, xi, omega, n_side in _agreement_drives(np.random.default_rng(1700 + d), 48):
        spec = diagonalize_static(params, FluxBias(phi), _DEEP_LEVELS)
        drive = DriveParams(FluxBias(phi), xi, omega)
        cell = (phi, xi, omega, n_side)
        for checked in (False, True):
            ref = _outcome(lambda: _full_window_solve(params, spec, drive, d, n_side, checked))
            windows.clear()
            starts.clear()

            def solved():
                sol = solve_floquet(params, drive, SambeConfig(d, n_side), spectrum=spec)
                if checked:
                    sol.convergence_delta  # the check runs on this first read
                return sol

            got = _outcome(solved)
            if isinstance(ref, type):
                raised += 1
                assert got is ref, cell
                continue
            ref_e, ref_blocks, ref_delta = ref
            assert np.max(np.abs(got.rep_energies - ref_e)) <= 1e-13, cell
            # same label, same state: a translated copy would overlap by ~0
            overlaps = np.abs(np.sum(got.fourier_blocks.conj() * ref_blocks, axis=(1, 2)))
            assert np.min(overlaps) >= 1 - 1e-9, cell
            if checked:
                assert got.converged == (ref_delta < 1e-8), cell
                assert got.convergence_delta == pytest.approx(ref_delta, abs=1e-12), cell
                continue
            fired += len(windows) > 1
            # the continuation from the start window, before any guard ran
            first = [e for width, e in starts if width == d * (2 * n_side + 1)][:1]
            wrong_start += bool(first) and np.max(np.abs(first[0] - ref_e)) > 1e-9
    # the start window gave another state or copy on some drives; the guards
    # caught each of them, since every solve above matched the full window
    assert wrong_start >= 1 and fired >= wrong_start
    assert raised >= 2


# under-truncated cells where the start window continues into a state that
# passes every other guard, and yet the N_s window selects another copy
_CUT_OFF_CELLS = [
    (0.4634944429231973, 0.19741044355910886, 0.47429417693582293, 5),
    (0.451, 0.10817123397143907, 0.7792270570431975, 9),
    (0.4240318050786767, 0.12250792085460616, 0.34394200796138336, 2),
]


@pytest.mark.parametrize("phi,xi,omega,d", _CUT_OFF_CELLS)
def test_edge_weight_guard_defers_cut_off_states_to_the_full_window(phi, xi, omega, d, params,
                                                                    monkeypatch):
    spec = diagonalize_static(params, FluxBias(phi), _DEEP_LEVELS)
    drive = DriveParams(FluxBias(phi), xi, omega)
    ref_e, ref_blocks, _ = _full_window_solve(params, spec, drive, d, 10, False)
    windows = []
    solve = floquet._solve_sambe
    monkeypatch.setattr(floquet, "_solve_sambe",
                        lambda h, omega, d: windows.append(h.shape[0] // d // 2)
                        or solve(h, omega, d))
    sol = solve_floquet(params, drive, SambeConfig(d, 10), spectrum=spec)
    assert windows == [8, 10]
    assert np.max(np.abs(sol.rep_energies - ref_e)) <= 1e-13
    overlaps = np.abs(np.sum(sol.fourier_blocks.conj() * ref_blocks, axis=(1, 2)))
    assert np.min(overlaps) >= 1 - 1e-9


def test_copies_under_truncation_are_flagged(params):
    # at N_s = 12 the representatives hold two copies one Omega apart (1.2025
    # and 1.6769 GHz) and miss the 5.0989 GHz state; the truncation check flags
    # the cell (delta 1.1e-4, then 1.3e-5 at N_s = 16) until N_s = 20 holds
    # five states distinct modulo Omega
    phi, xi, omega, d = _CUT_OFF_CELLS[0]
    drive = DriveParams(FluxBias(phi), xi, omega)
    for n_side in (12, 16):
        assert solve_floquet(params, drive, SambeConfig(d, n_side)).converged is False
    sol = solve_floquet(params, drive, SambeConfig(d, 20))
    assert sol.converged is True
    gaps = floquet._zone_distance(sol.rep_energies[:, None], sol.rep_energies[None], omega)
    assert np.min(gaps[np.triu_indices(d, 1)]) > 0.01


def test_too_small_start_window_climbs_the_ladder(params, spec_451, monkeypatch):
    # a 2-harmonic window has too few interior representatives under these
    # drives, or continues into the wrong ones; the window doubles until it holds
    monkeypatch.setattr(floquet, "_START_WINDOW", 2)
    windows = []
    solve = floquet._solve_sambe
    monkeypatch.setattr(floquet, "_solve_sambe",
                        lambda h, omega, d: windows.append(h.shape[0] // d // 2)
                        or solve(h, omega, d))
    rungs = set()
    for xi, omega in itertools.product((0.086, 0.12, 0.2), (0.3, 0.7743211, 1.2)):
        drive = DriveParams(FluxBias(0.451), xi, omega)
        ref_e, ref_blocks, _ = _full_window_solve(params, spec_451, drive, 5, 20, False)
        windows.clear()
        sol = solve_floquet(params, drive, spectrum=spec_451)
        assert windows == [2, 4, 8, 16, 20][:len(windows)]
        rungs.add(len(windows))
        assert np.max(np.abs(sol.rep_energies - ref_e)) <= 1e-13
        overlaps = np.abs(np.sum(sol.fourier_blocks.conj() * ref_blocks, axis=(1, 2)))
        assert np.min(overlaps) >= 1 - 1e-9
    assert min(rungs) >= 2 and max(rungs) >= 3


def test_continued_vectors_reach_the_dense_solver_floor(params, spec_451):
    # test_04's grid: a certified residual alone left vectors 1e-13 * ||h|| off,
    # and a dense evd of the whole window reaches 8e-16 there
    d, n_side = 2, 40
    worst = 0.0
    for xi, omega in itertools.product(np.linspace(0.0, 0.12, 10), np.linspace(0.3, 0.9, 10)):
        sol = solve_floquet(params, DriveParams(FluxBias(0.451), xi, omega),
                            SambeConfig(d, n_side), spectrum=spec_451)
        h = _loop_sambe(spec_451.energies[:d], spec_451.phi_elements[:d, :d], params.e_l,
                        xi, omega, n_side)
        vecs = sol.fourier_blocks.real.reshape(d, -1)
        residual = np.linalg.norm(vecs @ h - sol.rep_energies[:, None] * vecs, axis=1)
        worst = max(worst, float(np.max(residual)) / np.linalg.norm(h, 2))
    assert worst <= 1e-15


def test_checked_and_unchecked_solves_agree_bitwise(params):
    # the truncation check's N_s + 2 band holds the N_s band as its central
    # columns, so representatives found in those columns are the solve's bits
    rng = np.random.default_rng(1717)
    d, n_side = SambeConfig().n_levels, SambeConfig().sideband_cutoff
    for _ in range(30):
        phi, xi, omega = rng.uniform(0.40, 0.55), rng.uniform(0, 0.2), rng.uniform(0.3, 1.3)
        sol = solve_floquet(params, DriveParams(FluxBias(phi), xi, omega))
        spec = sol.spectrum
        wide = floquet._sambe_band(spec.energies[:d], spec.phi_elements[:d, :d], params.e_l,
                                   xi, omega, n_side + 2)
        with floqlux.circuit._one_blas_thread():
            rep_e, vecs = floquet._representatives(wide[:, 2 * d:wide.shape[1] - 2 * d], omega, d)
        assert np.array_equal(sol.rep_energies, rep_e)
        assert np.array_equal(sol.fourier_blocks, floquet._gauged(vecs))


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


def test_propagate_period_odd_step_count_matches_per_step_loop(params, spec_451, spot_drive):
    # the middle step sits between the first half-period product and its transpose
    args = (spec_451.energies[:5], spec_451.phi_elements[:5, :5], params.e_l, spot_drive, 601)
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


_ENTRY_POINTS = {
    "solve_floquet": solve_floquet,
    "monodromy_oracle": monodromy_oracle,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("foreign", [
    (None, 0.5, (), "does not belong"),  # the circuit at another bias
    (2.6, 0.451, (), "does not belong"),  # another circuit at the drive's bias
    (None, 0.451, (4,), "has 4 levels; 5 needed"),  # too shallow for both
], ids=["other_bias", "other_circuit", "too_few_levels"])
def test_foreign_spectrum_is_rejected(params, spot_drive, entry, foreign):
    e_j, phi, depth, reason = foreign
    circuit = params if e_j is None else replace(params, e_j=e_j)
    spectrum = diagonalize_static(circuit, FluxBias(phi), *depth)
    with pytest.raises(ValueError, match=reason):
        _ENTRY_POINTS[entry](params, spot_drive, spectrum=spectrum)


def test_equal_spectrum_is_accepted(params, spot_drive, spot_solution):
    # the check compares circuit and bias by value, not by memo identity
    fresh = diagonalize_static.__wrapped__(params, FluxBias(spot_drive.bias.phi_dc))
    sol = solve_floquet(params, spot_drive, spectrum=fresh)
    assert sol.spectrum is fresh
    assert np.array_equal(sol.rep_energies, spot_solution.rep_energies)


def test_driven_solve_sets_the_static_depth(params, spot_drive):
    # at the default depth a solve shares the memo entry of a plain diagonalization
    diagonalize_static.cache_clear()
    default = solve_floquet(params, spot_drive)
    assert diagonalize_static(params, spot_drive.bias) is default.spectrum
    assert diagonalize_static.cache_info().misses == 1
    # a deeper problem diagonalizes as deep as it needs, with no circuit setting
    deep = solve_floquet(params, spot_drive, SambeConfig(n_levels=9))
    given = solve_floquet(params, spot_drive, SambeConfig(n_levels=9),
                          spectrum=diagonalize_static(params, spot_drive.bias, 9))
    assert deep.spectrum.energies.size == 9
    assert np.array_equal(deep.rep_energies, given.rep_energies)
    assert np.array_equal(deep.fourier_blocks, given.fourier_blocks)
    assert deep.convergence_delta == given.convergence_delta


def test_sambe_config_holds_the_dimension_cap():
    # 5 * 1039 = 5195 rows is within the cap of 5200, 5 * 1041 = 5205 is over it
    assert SambeConfig(n_levels=5, sideband_cutoff=519).sideband_cutoff == 519
    with pytest.raises(ValueError, match="Sambe dimension 5205 exceeds the safety cap 5200"):
        SambeConfig(n_levels=5, sideband_cutoff=520)


def test_sambe_dimension_cap_raises_before_allocating(params, spec_451, spot_drive):
    # a solve at the cap is allowed; its truncation check assembles the
    # N_s + 2 band of 5 * 1043 = 5215 rows, over the cap
    sol = solve_floquet(params, spot_drive, SambeConfig(n_levels=5, sideband_cutoff=519),
                        spectrum=spec_451)
    tracemalloc.start()
    try:
        with pytest.raises(DiagnosticError, match="GB"):
            sol.convergence_delta
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# each solver, run cold at the spot with the library it reaches LAPACK
# through, and a way to make it raise
_SOLVERS = {
    "diagonalize_static": (
        scipy.linalg, lambda p, spec, drive, cfg: diagonalize_static(p, FluxBias(0.4375))),
    "solve_floquet": (
        scipy.linalg, lambda p, spec, drive, cfg: solve_floquet(p, drive, cfg, spectrum=spec)),
    "monodromy_oracle": (
        np.linalg, lambda p, spec, drive, cfg: monodromy_oracle(p, drive, spectrum=spec)),
}


def _record_eigh(monkeypatch, linalg, seen, fail=False):
    """Record the BLAS thread counts at each ``linalg.eigh`` call; with
    ``fail``, the call then raises instead of solving."""
    eigh = linalg.eigh

    def recorded(*args, **kwargs):
        seen.append(_blas_threads())
        if fail:
            raise np.linalg.LinAlgError("injected failure")
        return eigh(*args, **kwargs)

    monkeypatch.setattr(linalg, "eigh", recorded)


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_solvers_run_at_one_blas_thread(params, spec_451, spot_drive, two_blas_threads,
                                        monkeypatch, solver):
    linalg, run = _SOLVERS[solver]
    seen = []
    _record_eigh(monkeypatch, linalg, seen)
    diagonalize_static.cache_clear()
    run(params, spec_451, spot_drive, SambeConfig())
    assert seen and set(seen) == {(1, 1)}
    assert _blas_threads() == (2, 2)


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_solvers_restore_blas_threads_when_they_raise(params, spec_451, spot_drive,
                                                      two_blas_threads, monkeypatch, solver):
    linalg, run = _SOLVERS[solver]
    _record_eigh(monkeypatch, linalg, [], fail=True)
    diagonalize_static.cache_clear()
    with pytest.raises((DiagnosticError, np.linalg.LinAlgError)):
        run(params, spec_451, spot_drive, SambeConfig())
    assert _blas_threads() == (2, 2)


def test_sternheimer_solves_run_at_one_blas_thread(params, spec_451, two_blas_threads,
                                                   monkeypatch):
    seen = []
    solve = scipy.linalg.solve
    monkeypatch.setattr(scipy.linalg, "solve",
                        lambda *a, **kw: seen.append(_blas_threads()) or solve(*a, **kw))
    floqlux.circuit._n_element_flux_derivative(spec_451, 0, 3)
    assert seen == [(1, 1), (1, 1)]
    assert _blas_threads() == (2, 2)


def test_truncation_check_runs_at_one_blas_thread(params, spec_451, spot_drive, two_blas_threads,
                                                  monkeypatch):
    # the check runs on the first read of the flag, after solve_floquet returned
    sol = solve_floquet(params, spot_drive, spectrum=spec_451)
    seen = []
    gbsv = floquet._gbsv
    monkeypatch.setattr(floquet, "_gbsv",
                        lambda *a, **kw: seen.append(_blas_threads()) or gbsv(*a, **kw))
    assert sol.convergence_delta < 1e-8
    assert seen and set(seen) == {(1, 1)}
    assert _blas_threads() == (2, 2)


def test_static_memo_hit_leaves_blas_threads_alone(params, monkeypatch):
    lookups = []
    controls = floqlux.circuit._openblas_controls
    monkeypatch.setattr(floqlux.circuit, "_openblas_controls",
                        lambda: lookups.append(1) or controls())
    diagonalize_static.cache_clear()
    diagonalize_static(params, FluxBias(0.4375))
    assert len(lookups) == 1
    diagonalize_static(params, FluxBias(0.4375))
    assert len(lookups) == 1


_LIBRARY_RESULTS = """
import json
import numpy as np
from floqlux import (CavityParams, CircuitParams, DriveParams, FluxBias, NoiseModel,
                     SambeConfig, coherence_rates, monodromy_oracle, rwa_params_from_circuit,
                     solve_floquet)

def bits(*values):
    return "".join(np.ascontiguousarray(v).tobytes().hex() for v in values)

params = CircuitParams()
spot = DriveParams(FluxBias(0.451), 0.0855831, 0.7743211)
certify = solve_floquet(params, spot, SambeConfig(sideband_cutoff=28))
whole = solve_floquet(params, DriveParams(FluxBias(0.451), 0.2, 0.5))
rates = coherence_rates(params, spot, NoiseModel(), fd=True)
d = rates.derivatives
print(json.dumps({
    "solve_floquet N_s 28": bits(certify.rep_energies, certify.fourier_blocks),
    "monodromy_oracle": bits(monodromy_oracle(params, spot)),
    "coherence_rates fd": bits([rates.gamma_up, rates.gamma_down, rates.gamma_phi,
                                d.flux_me, d.xi_me, d.flux_fd, d.xi_fd]),
    "dense whole window": bits(whole.rep_energies, whole.fourier_blocks),
    "rwa g'": bits(rwa_params_from_circuit(params, 0.303146, CavityParams(), 0.05).g_prime),
    "convergence_delta": bits(certify.convergence_delta, whole.convergence_delta),
}))
"""


def test_library_results_ignore_the_blas_thread_setting():
    # one interpreter per setting: OpenBLAS reads it when it loads.  The
    # certify stage's N_s = 28 solve, the oracle, the finite differences at
    # the double spot, a drive whose ladder ends in the dense 205-row
    # window, where 1 and 2 threads give different eigh bits, the
    # Sternheimer solve behind the rotating-wave g', and the truncation
    # check of both solves
    src = str(Path(__file__).resolve().parents[1] / "src")
    results = []
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", _LIBRARY_RESULTS], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        results.append(json.loads(proc.stdout))
    differ = sorted(case for case in results[0]
                    if not results[0][case] == results[1][case] == results[2][case])
    assert not differ, f"results that depend on OPENBLAS_NUM_THREADS: {differ}"


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
    assert low.convergence_delta >= 1e-8
    high = solve_floquet(params, strong, SambeConfig(sideband_cutoff=30), spectrum=spec_451)
    assert high.converged is True


def test_drive_params_validation():
    with pytest.raises(ValueError, match="xi must be non-negative"):
        DriveParams(FluxBias(0.5), -0.01, 0.5)
    with pytest.raises(ValueError, match="omega must be strictly positive"):
        DriveParams(FluxBias(0.5), 0.05, 0.0)
    for xi, omega in ((math.nan, 0.5), (math.inf, 0.5), (0.05, math.nan), (0.05, math.inf),
                      (0.05, -math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            DriveParams(FluxBias(0.5), xi, omega)
    with pytest.raises(ValueError):
        SambeConfig(n_levels=0)
    with pytest.raises(ValueError):
        SambeConfig(sideband_cutoff=-1)


def _tracked_eps01(sols, min_overlap, max_step):
    """eps01 along the branches that chained ``_match_branches`` steps follow."""
    d = sols[0].n_levels
    # branch a is state label[a] of the current solution, translated by shift[a]
    label, shift = np.arange(d), np.zeros(d, dtype=int)
    eps01 = [sols[0].splitting(1, 0)]
    for prev, cur in zip(sols, sols[1:]):
        labels, shifts, overlaps = floquet._match_branches(prev, cur, d)
        assert np.all(overlaps > min_overlap)
        label, shift = labels[label], shift + shifts[label]
        rep = cur.rep_energies[label] - shift * cur.drive.omega
        eps01.append(rep[1] - rep[0])
    eps01 = np.array(eps01)
    assert np.all(np.abs(np.diff(eps01)) < max_step)
    return eps01


def test_track_states_continuity(params, spec_451):
    xis = np.linspace(0.0, 0.08, 17)
    sols = [
        solve_floquet(params, DriveParams(FluxBias(0.451), float(x), 0.7743211),
                      SambeConfig(), spectrum=spec_451)
        for x in xis
    ]
    # the tracked splitting starts at the static transition and moves smoothly
    eps01 = _tracked_eps01(sols, 0.9, 0.1)
    assert eps01[0] == pytest.approx(spec_451.transition(0, 1), abs=1e-10)


def test_track_states_continuity_across_flux(params):
    # each step changes the static eigenbasis, which the matcher rotates away
    sols = [
        solve_floquet(params, DriveParams(FluxBias(float(phi)), 0.05, 0.7743211),
                      SambeConfig())
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
        accepted = _select_representatives(np.array(evals), blocks, omega)
        return accepted

    # a state, its copy translated by one harmonic (eigenvalue + Omega), and a
    # second state further out in centroid: the copy is rejected
    assert select([(0, 0), (0, 1), (1, -2)], [0.1, 0.1 + omega, 0.3]) == [0, 2]
    # a distinct state whose quasienergy coincides with the first modulo Omega
    # has zero shifted overlap with it and is kept
    assert select([(0, 0), (1, 1)], [0.1, 0.1 + omega]) == [0, 1]


# the two-level projected model, with a window wide enough for xi up to 0.12
_TWO_LEVEL = SambeConfig(n_levels=2, sideband_cutoff=40)


def _two_level(params, xi):
    return solve_floquet(params, DriveParams(FluxBias(0.451), xi, 0.5), _TWO_LEVEL)


def test_two_level_conservation_single_point(params):
    def combined(sol):
        t = sol.phi_elements.table
        return float(2 * np.sum(np.abs(t[0, 1]) ** 2)
                     + 0.5 * np.sum(np.abs(t[1, 1] - t[0, 0]) ** 2))

    assert combined(_two_level(params, 0.08)) == pytest.approx(
        combined(_two_level(params, 1e-4)), rel=1e-9)


@pytest.mark.parametrize("xi", [1e-4, 0.07, 0.08, 0.12])
def test_two_level_frame_is_unitary(params, xi):
    # u[t, j, s] = <s|Phi_j(t)> on a 256-point period is unitary at every t
    sol = _two_level(params, xi)
    ns = _TWO_LEVEL.sideband_cutoff
    times = np.linspace(0.0, sol.drive.period, 256, endpoint=False)
    phases = np.exp(2j * math.pi * sol.drive.omega * np.outer(times, np.arange(-ns, ns + 1)))
    u = np.einsum("tn,jns->tjs", phases, sol.fourier_blocks)
    defect = np.abs(np.einsum("tjs,tjr->tsr", u.conj(), u) - np.eye(2))
    assert float(np.max(defect)) < 1e-10
