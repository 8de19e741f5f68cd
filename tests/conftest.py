"""Shared fixtures: the reference circuit and a few cached solutions."""

from __future__ import annotations

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
    starts cold so earlier tests cannot have warmed it."""
    biases = []
    build = floqlux.circuit.build_hamiltonian
    monkeypatch.setattr(floqlux.circuit, "build_hamiltonian",
                        lambda p, bias: biases.append(bias.phi_dc) or build(p, bias))
    diagonalize_static.cache_clear()
    return biases
