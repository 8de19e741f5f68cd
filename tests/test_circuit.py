"""Static circuit: spectra, matrix elements, and limiting cases."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floqlux.circuit
from floqlux import (
    CircuitParams,
    DiagnosticError,
    FluxBias,
    build_hamiltonian,
    diagonalize_static,
    transition_spline,
)


def test_reference_transitions(spec_half, spec_451):
    # frozen values of the reference circuit (e_c=1.17, e_j=2.65, e_l=0.54)
    assert spec_half.transition(0, 1) == pytest.approx(0.722016997578, abs=1e-9)
    assert spec_451.transition(0, 1) == pytest.approx(1.013950289332, abs=1e-9)
    assert abs(spec_451.phi_elements[0, 1]) == pytest.approx(1.620561611908, abs=1e-9)
    assert abs(spec_451.n_elements[0, 1]) == pytest.approx(0.17555223, abs=1e-7)


def test_harmonic_limit_is_plasma_ladder():
    # e_j = 0 leaves a displaced oscillator: uniform spacing sqrt(8 e_c e_l)
    p = CircuitParams(e_j=0.0)
    spec = diagonalize_static(p, FluxBias(0.37))
    gaps = np.diff(spec.energies)
    assert gaps == pytest.approx(np.full(5, p.plasma_frequency), rel=1e-10)
    # ground-state phase expectation sits at the displaced minimum
    assert spec.phi_elements[0, 0] == pytest.approx(2 * math.pi * 0.37, rel=1e-9)


def test_operator_structure(params):
    _, phi, n, _ = floqlux.circuit._basis_matrices(params)
    assert np.allclose(phi, phi.T)
    assert np.allclose(n, n.conj().T)
    # canonical commutator holds away from the truncation edge
    comm = phi @ n - n @ phi
    d = params.basis_dim
    inner = comm[: d - 1, : d - 1]
    assert np.allclose(inner, 1j * np.eye(d - 1), atol=1e-12)
    assert params.phi_zpf * params.n_zpf == pytest.approx(0.5, rel=1e-12)


def test_hamiltonian_hermitian_and_real_spectrum(params):
    h = build_hamiltonian(params, FluxBias(0.42))
    assert np.allclose(h, h.conj().T)
    spec = diagonalize_static(params, FluxBias(0.42))
    assert np.all(np.diff(spec.energies) >= 0)
    assert np.all(np.isfinite(spec.energies))


def test_element_symmetries(spec_451):
    # phi real symmetric, n Hermitian with imaginary off-diagonals
    assert np.allclose(spec_451.phi_elements, spec_451.phi_elements.T)
    n = spec_451.n_elements
    assert np.allclose(n, n.conj().T)
    off = n - np.diag(np.diag(n))
    assert np.allclose(off.real, 0.0, atol=1e-10)


def test_mirror_symmetry_about_half(params):
    a = diagonalize_static(params, FluxBias(0.5 + 0.03))
    b = diagonalize_static(params, FluxBias(0.5 - 0.03))
    assert a.energies == pytest.approx(b.energies, abs=1e-10)
    assert np.abs(a.n_elements) == pytest.approx(np.abs(b.n_elements), abs=1e-8)


def test_basis_truncation_converged(params):
    wide = CircuitParams(basis_dim=140)
    a = diagonalize_static(params, FluxBias(0.451)).energies
    b = diagonalize_static(wide, FluxBias(0.451)).energies
    assert a == pytest.approx(b, abs=1e-10)


def test_param_validation():
    with pytest.raises(ValueError):
        CircuitParams(e_c=0.0)
    with pytest.raises(ValueError):
        CircuitParams(e_j=-0.1)
    for dim in (1, 5):  # below the 6 levels a diagonalization keeps
        with pytest.raises(ValueError, match="basis_dim must be at least 6"):
            CircuitParams(basis_dim=dim)
    assert diagonalize_static(CircuitParams(basis_dim=6), FluxBias(0.5)).energies.size == 6


def test_dispersion_sweep_matches_pointwise(params):
    # on its nodes the transition spline holds the pointwise transitions
    biases = np.linspace(0.44, 0.56, 7)
    spline = transition_spline(params, 0, 1, 0.44, 0.56, num=7)
    direct = [diagonalize_static(params, FluxBias(b)).transition(0, 1) for b in biases]
    assert spline(biases) == pytest.approx(direct, rel=1e-12)


def test_transition_spline_interpolates(params):
    spline = transition_spline(params, 0, 1, 0.46, 0.54, num=31)
    probe = 0.4817
    exact = diagonalize_static(params, FluxBias(probe)).transition(0, 1)
    assert float(spline(probe)) == pytest.approx(exact, abs=5e-9)


@settings(max_examples=20, deadline=None)
@given(
    e_c=st.floats(0.5, 2.0),
    e_l=st.floats(0.2, 1.5),
    e_j=st.floats(0.0, 6.0),
    phi=st.floats(0.0, 1.0),
)
def test_spectrum_properties_random_circuits(e_c, e_l, e_j, phi):
    p = CircuitParams(e_c=e_c, e_l=e_l, e_j=e_j, basis_dim=60)
    spec = diagonalize_static(p, FluxBias(phi))
    assert np.all(np.diff(spec.energies) >= -1e-12)
    assert np.allclose(spec.phi_elements, spec.phi_elements.T, atol=1e-9)
    # eigenvectors orthonormal
    g = spec.eigenvectors.T @ spec.eigenvectors
    assert np.allclose(g, np.eye(6), atol=1e-9)


def test_diagonalize_rejects_bad_input(params):
    with pytest.raises((DiagnosticError, ValueError, TypeError)):
        diagonalize_static(params, FluxBias(float("nan")))


def _cold(params, bias):
    floqlux.circuit._basis_matrices.cache_clear()
    diagonalize_static.cache_clear()
    return diagonalize_static(params, bias).energies


def test_spectrum_memo_keys_on_the_whole_circuit():
    # circuits differing only in e_j, or only in basis_dim, never share a
    # memo entry: each gets the energies of a cold computation
    bias = FluxBias(0.451)
    circuits = [CircuitParams(), CircuitParams(e_j=2.7), CircuitParams(basis_dim=40)]
    cold = [_cold(p, bias) for p in circuits]
    assert not np.array_equal(cold[0], cold[1])
    assert not np.array_equal(cold[0], cold[2])
    for i in (0, 1, 2, 0, 2, 1):
        np.testing.assert_array_equal(diagonalize_static(circuits[i], bias).energies, cold[i])


def test_public_operators_are_writable_copies(params):
    bias = FluxBias(0.42)
    ref = diagonalize_static(params, bias)
    # the memoised basis matrices refuse writes; the assembled Hamiltonian is a copy
    for arr in floqlux.circuit._basis_matrices(params):
        if arr is not None:
            with pytest.raises(ValueError):
                arr[...] = 7.0
    h = build_hamiltonian(params, bias)
    assert h.flags.writeable
    h[...] = 7.0
    diagonalize_static.cache_clear()
    again = diagonalize_static(params, bias)
    assert again is not ref
    for name in ("energies", "eigenvectors", "phi_elements", "n_elements"):
        np.testing.assert_array_equal(getattr(again, name), getattr(ref, name))


def test_spectrum_memos_are_bounded():
    for memo in (diagonalize_static, floqlux.circuit._basis_matrices):
        assert memo.cache_parameters()["maxsize"] is not None
