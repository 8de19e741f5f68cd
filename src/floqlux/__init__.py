"""Floquet engineering of a flux-modulated fluxonium qubit.

Submodules:
    circuit: static fluxonium Hamiltonian, spectra, matrix elements.
    floquet: Sambe-space quasienergies, sideband weights, Fourier operator
        tables, time-domain oracle.
    decoherence: flux/dielectric noise rates, sweet-spot location.
    polariton: cavity sideband couplings, rotating-wave model, manifold fits.
    spectroscopy: steady-state probe maps and windowed Ramsey estimation.
    tasks: one record per sweep task and the per-cell job bodies.
    config, sweeps, cli: run configuration, grid orchestration, exports.
"""
from __future__ import annotations

# set before the submodule imports: sweeps keys its cell cache on it
__version__ = "0.1.6"

from .circuit import (
    CircuitParams,
    FluxBias,
    StaticSpectrum,
    build_hamiltonian,
    diagonalize_static,
    transition_spline,
)
from .config import (
    GridSpec,
    RunConfig,
    TASKS,
    emit_config,
    parse_config,
)
from .decoherence import (
    CoherenceRates,
    DephasingRate,
    DepolarizationRates,
    NoiseModel,
    QuasienergyDerivatives,
    SweetSpot,
    SweetSpotScan,
    SweetSpotSpec,
    coherence_rates,
    depolarization_rates,
    find_sweet_spots,
    pure_dephasing_rate,
    quasienergy_derivatives,
    s_ac,
    s_dc,
    s_diel,
)
from .errors import (
    AliasingError,
    ConfigError,
    ConvergenceError,
    DiagnosticError,
    ExportError,
    FitError,
    FloqluxError,
    InfraredDivergenceError,
    OutOfWindowError,
    TrackingBreakError,
)
from .floquet import (
    DriveParams,
    FloquetSolution,
    FourierMatrixElements,
    SambeConfig,
    fold_quasienergy,
    fourier_operator_elements,
    monodromy_oracle,
    solve_floquet,
)
from .polariton import (
    CavityParams,
    PhaseCoefficients,
    PolaritonFit,
    PolaritonSpec,
    RWAParams,
    fit_polariton,
    floquet_dipole_coupling,
    rwa_coupling,
    rwa_params_from_circuit,
    rwa_phase_coefficients,
    synth_polariton_data,
)
from .spectroscopy import (
    ProbeParams,
    RamseyConfig,
    RamseySignal,
    SpectroscopyMap,
    T2REstimate,
    extract_t2r,
    probe_population,
    spectroscopy_map,
    synth_ramsey_signal,
)
from .sweeps import SweepResult, config_hash, export, import_result, run_sweep
from .units import GHZ_TO_ANGULAR, ghz_to_angular

