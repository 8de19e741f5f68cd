"""Unit conventions shared by every module.

All energies are stored as E/h in GHz, all frequencies (drive, probe,
quasienergies) as ordinary frequencies in GHz, and external flux in units
of the flux quantum.  Internal time arguments are in nanoseconds so that
frequency * time is dimensionless.  Decoherence rates are returned in 1/s,
which is where angular frequencies enter; Ramsey signals are sampled in
seconds, which is where frequencies in Hz enter.  The two constants below
are the only places the 1e9 factor lives.
"""
from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# Hz per GHz of ordinary frequency
HZ_PER_GHZ = 1e9

# rad/s per GHz of ordinary frequency
GHZ_TO_ANGULAR = TWO_PI * HZ_PER_GHZ

# exact SI values (2019): reduced Planck constant in J s, Boltzmann constant in J/K
HBAR = 6.62607015e-34 / TWO_PI
K_BOLTZMANN = 1.380649e-23


def ghz_to_angular(freq_ghz: float) -> float:
    """Convert an ordinary frequency in GHz to an angular frequency in rad/s.

    Every spectral density and rate formula converts its GHz inputs through
    this helper or ``GHZ_TO_ANGULAR``, so mixed conventions cannot arise.
    """
    return freq_ghz * GHZ_TO_ANGULAR
