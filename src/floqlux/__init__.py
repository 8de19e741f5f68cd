"""Floquet engineering of a flux-modulated fluxonium qubit.

Submodules:
    circuit: static fluxonium Hamiltonian, spectra, matrix elements.
    floquet: Sambe-space quasienergies, sideband weights, time-domain oracle.
    decoherence: flux/dielectric noise rates, sweet-spot location.
    polariton: cavity sideband couplings, rotating-wave model, manifold fits.
    spectroscopy: steady-state probe maps and windowed Ramsey estimation.
    tasks: one record per sweep task and the per-cell job bodies.
    config, sweeps, cli: run configuration, grid orchestration, exports.
"""
from __future__ import annotations

# set before the submodule imports: sweeps keys its cell cache on it
__version__ = "0.1.0"

from .circuit import (
    CircuitParams,
    DispersionTable,
    FluxBias,
    StaticSpectrum,
    build_hamiltonian,
    charge_operator,
    diagonalize_static,
    dispersion_sweep,
    phase_operator,
    transition_spline,
)
from .config import (
    GridSpec,
    PolaritonSpec,
    ProbeSpec,
    RamseySpec,
    RunConfig,
    SweetSpotSpec,
    TASKS,
    emit_config,
    parse_config,
)
from .decoherence import (
    CoherenceRates,
    DephasingRate,
    DepolarizationRates,
    FilterWeights,
    FourierMatrixElements,
    NoiseModel,
    QuasienergyDerivatives,
    SweetSpot,
    SweetSpotScan,
    TwoLevelReduction,
    charge_fourier_elements,
    coherence_rates,
    depolarization_rates,
    filter_weights,
    find_sweet_spots,
    fourier_matrix_elements,
    fourier_operator_elements,
    pure_dephasing_rate,
    quasienergy_derivatives,
    s_ac,
    s_dc,
    s_diel,
    two_level_reduction,
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
    SambeConfig,
    TrackingResult,
    build_sambe,
    fold_quasienergy,
    monodromy_oracle,
    solve_floquet,
    track_states,
)
from .polariton import (
    CavityParams,
    PhaseCoefficients,
    PolaritonFit,
    RWAParams,
    fit_polariton,
    floquet_dipole_coupling,
    polariton_manifold_eigs,
    rwa_coupling,
    rwa_params_from_circuit,
    rwa_phase_coefficients,
    synth_polariton_data,
)
from .spectroscopy import (
    ProbeParams,
    ProbeRates,
    RamseyConfig,
    RamseySignal,
    SpectroscopyMap,
    T2REstimate,
    extract_t2r,
    probe_transition_rates,
    spectroscopy_map,
    steady_state_population,
    synth_ramsey_signal,
)
from .sweeps import SweepResult, config_hash, export, import_result, run_sweep
from .units import GHZ_TO_ANGULAR, ghz_to_angular

