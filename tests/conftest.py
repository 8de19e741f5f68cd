"""Shared fixtures: the reference circuit, a few cached solutions and the
OpenBLAS thread counts."""

from __future__ import annotations

import sys

import numpy as np
import pytest

import floqlux.circuit
from floqlux import (
    CircuitParams,
    DriveParams,
    FluxBias,
    NoiseModel,
    SambeConfig,
    diagonalize_static,
    solve_floquet,
)

# double sweet spot of the reference circuit at phi_dc = 0.451 (located by
# the sweetspot scan, frozen here for reuse across tests)
SPOT_PHI = 0.451
SPOT_XI = 0.0855831
SPOT_OMEGA = 0.7743211


@pytest.fixture(scope="session")
def params() -> CircuitParams:
    return CircuitParams()


@pytest.fixture(scope="session")
def noise() -> NoiseModel:
    return NoiseModel()


@pytest.fixture(scope="session")
def spec_half(params):
    return diagonalize_static(params, FluxBias(0.5))


@pytest.fixture(scope="session")
def spec_451(params):
    return diagonalize_static(params, FluxBias(0.451))


@pytest.fixture(scope="session")
def spot_drive() -> DriveParams:
    return DriveParams(FluxBias(SPOT_PHI), SPOT_XI, SPOT_OMEGA)


@pytest.fixture(scope="session")
def spot_solution(params, spot_drive, spec_451):
    return solve_floquet(params, spot_drive, SambeConfig(), spectrum=spec_451)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260818)


@pytest.fixture
def eigensolves(monkeypatch):
    """Biases of the static eigensolves run below the spectrum memo, which
    starts cold so earlier tests cannot have warmed it.  Each is counted by
    the Hamiltonian ``diagonalize_static`` builds; a Sternheimer solve
    rebuilds the one at its bias but runs no eigensolve."""
    biases = []
    build = floqlux.circuit.build_hamiltonian

    def counted(params, bias):
        if sys._getframe(1).f_code.co_name == "diagonalize_static":
            biases.append(bias.phi_dc)
        return build(params, bias)

    monkeypatch.setattr(floqlux.circuit, "build_hamiltonian", counted)
    diagonalize_static.cache_clear()
    return biases


def _blas_threads() -> tuple:
    """Thread counts of the OpenBLAS builds found: numpy's, then scipy's."""
    return tuple(getter() for _, getter in floqlux.circuit._openblas_controls())


@pytest.fixture()
def two_blas_threads():
    """Both OpenBLAS builds at 2 threads, so that a pin to 1 shows; restored after."""
    controls = floqlux.circuit._openblas_controls()
    if len(controls) != 2:
        pytest.skip("the numpy and scipy OpenBLAS builds were not both found")
    before = _blas_threads()
    for setter, _ in controls:
        setter(2)
    yield
    for (setter, _), count in zip(controls, before):
        setter(count)
