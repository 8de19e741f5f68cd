"""Regenerate the golden corpus that ``tests/test_golden.py`` compares with.

    PYTHONPATH=src python tests/golden/regenerate.py

For each task this writes ``<task>.cfg``, one small driven config, and
``<task>.json``, the json export of running it with one worker; the
polariton config also reads ``polariton_peaks.txt``, seeded synthetic peak
data written here.  Together the configs cover the double sweet spot
(0.451, 0.0855831, 0.7743211), the strong drive (0.45, 0.12, 0.6), the
hybridized cells along phi_dc 0.455-0.4675 at xi 0.05 and Omega 0.7743211,
a two-axis spectroscopy map, a sweetspot box that finds the double spot
and a ramsey cell at the spot.

A change that moves a pinned number reruns this script and lists in
CHANGES.md each moved column, its largest deviation and the reason.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

import floqlux as fl

HERE = Path(__file__).resolve().parent

SPOT = "phi_dc = [0.451]\nxi = [0.0855831]\nomega = [0.7743211]\n"

CONFIGS = {
    "static-spectrum": 'phi_dc = "0.40:0.50:11"\n',
    # the hybridized cells, where the natural splitting changes copy
    "floquet": "phi_dc = [0.455, 0.4575, 0.46, 0.4625, 0.465, 0.4675]\n"
               "xi = [0.05]\nomega = [0.7743211]\n",
    "spectral-function": "phi_dc = [0.45, 0.451]\nxi = [0.0855831, 0.12]\n"
                         "omega = [0.6, 0.7743211]\n",
    "polariton": 'phi_dc = "0.23:0.39:5"\nxi = [0.02, 0.05]\nomega = [0.2]\n'
                 '\n[polariton]\ndata_file = "polariton_peaks.txt"\n',
    "spectroscopy": "phi_dc = [0.445, 0.448, 0.451, 0.454, 0.457, 0.46]\n"
                    "xi = [0.0855831]\nomega = [0.7743211]\n"
                    '\n[probe]\nomega_p = "0.05:1.5:30"\n',
    "coherence": "phi_dc = [0.45, 0.451, 0.455, 0.46]\nxi = [0.05, 0.0855831, 0.12]\n"
                 "omega = [0.6, 0.7743211]\n",
    # the sweetspot-certify box: four amplitude spots and the double spot
    "sweetspot": 'phi_dc = [0.451]\nxi = "0:0.12:5"\nomega = "0.70:0.80:4"\n',
    "ramsey": SPOT,
}


def config_text(task: str) -> str:
    return f'task = "{task}"\nformat = "json"\nworkers = 1\n\n[grid]\n{CONFIGS[task]}'


def write_peaks(path: Path) -> None:
    """Noisy peaks of the 0 -> 3 line's sideband images m = -2..3 at
    Omega = 0.2 GHz, 7 fluxes around each crossing with the cavity."""
    params, cavity = fl.CircuitParams(), fl.CavityParams()
    curve = fl.transition_spline(params, 0, 3, 0.22, 0.41, 61)
    g_true = {-2: 0.005, -1: 0.010, 0: 0.0199, 1: 0.010, 2: 0.005, 3: 0.0025}
    probe = np.linspace(0.22, 0.41, 39)
    phis = []
    for m in g_true:
        gap = curve(probe) + m * 0.2 - cavity.omega_c
        for i in np.flatnonzero(gap[:-1] * gap[1:] < 0):
            c = probe[i] + (probe[i + 1] - probe[i]) * gap[i] / (gap[i] - gap[i + 1])
            phis.append(np.linspace(c - 3e-3, c + 3e-3, 7))
    data = fl.synth_polariton_data(cavity, curve, 0.2, g_true, None, np.concatenate(phis),
                                   sigma=2e-4, rng=np.random.default_rng(36))
    np.savetxt(path, data, fmt="%.17g")


def run(task: str, cfg_dir: Path, out_dir: Path):
    """The sweep of ``<task>.cfg`` in ``cfg_dir``, caching under ``out_dir``;
    the config's relative paths are read from ``cfg_dir``."""
    config = fl.parse_config((cfg_dir / f"{task}.cfg").read_text())
    data_file = config.polariton.data_file
    if data_file:
        config = dataclasses.replace(config, polariton=dataclasses.replace(
            config.polariton, data_file=str(cfg_dir / data_file)))
    return fl.run_sweep(dataclasses.replace(config, output=str(out_dir / task)))


def main() -> int:
    write_peaks(HERE / "polariton_peaks.txt")
    with tempfile.TemporaryDirectory() as tmp:
        for task in CONFIGS:
            (HERE / f"{task}.cfg").write_text(config_text(task))
            result = run(task, HERE, Path(tmp))
            if result.mask.any():
                print(f"{task}: masked rows {result.reasons}", file=sys.stderr)
                return 1
            fl.export(result, HERE, "json", overwrite=True)
            print(f"{task}: {result.rows.shape[0]} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
