#!/usr/bin/env python3
"""Cavity-sideband coupling ladder |g_m| versus drive amplitude.

Prints the full Floquet dipole couplings next to the rotating-wave values
for each sideband index.  The two conventions differ by an overall factor
of two, so the table also shows couplings normalized by each model's own
static value, which is how the two columns should be compared.
"""

from __future__ import annotations

import argparse

from floqlux import (
    CavityParams,
    CircuitParams,
    DriveParams,
    FluxBias,
    floquet_dipole_coupling,
    rwa_coupling,
    rwa_params_from_circuit,
    rwa_phase_coefficients,
    solve_floquet,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phi", type=float, default=0.303146,
                    help="DC bias where the 0->3 line meets the cavity")
    ap.add_argument("--omega", type=float, default=0.2)
    ap.add_argument("--xi", type=float, nargs="+",
                    default=[0.005, 0.01, 0.02, 0.03, 0.05])
    ap.add_argument("--m", type=int, nargs=2, default=(-2, 3),
                    metavar=("LO", "HI"))
    args = ap.parse_args(argv)

    params = CircuitParams()
    cavity = CavityParams()
    ms = range(args.m[0], args.m[1] + 1)

    # static anchors for the normalized columns
    tiny = DriveParams(FluxBias(args.phi), 1e-9, args.omega)
    sol0 = solve_floquet(params, tiny)
    f_ref = abs(floquet_dipole_coupling(sol0, cavity, 0))
    rwa0 = rwa_params_from_circuit(params, args.phi, cavity, 1e-9)
    r_ref = abs(rwa_coupling(rwa0, rwa_phase_coefficients(rwa0, tiny), 0))

    print(f"# phi_dc={args.phi} omega={args.omega} GHz  "
          f"(anchors: floquet {f_ref * 1e3:.3f} MHz, rwa {r_ref * 1e3:.3f} MHz)")
    print(f"{'xi':>7} {'m':>3} {'|g_m| floquet':>14} {'|g_m| rwa':>12} "
          f"{'norm floquet':>13} {'norm rwa':>10}")
    for xi in args.xi:
        drive = DriveParams(FluxBias(args.phi), xi, args.omega)
        sol = solve_floquet(params, drive)
        rwa = rwa_params_from_circuit(params, args.phi, cavity, xi)
        co = rwa_phase_coefficients(rwa, drive)
        for m in ms:
            gf = abs(floquet_dipole_coupling(sol, cavity, m))
            gr = abs(rwa_coupling(rwa, co, m))
            print(f"{xi:7.4f} {m:3d} {gf:14.6f} {gr:12.6f} "
                  f"{gf / f_ref:13.4f} {gr / r_ref:10.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
