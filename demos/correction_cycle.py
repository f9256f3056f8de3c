#!/usr/bin/env python3
"""Watch one error-correction cycle refill the logical manifold.

Starts from the single-photon-loss error state |eg00>, turns on all six
sidebands plus resonator loss, and tracks the population returning to the
logical state.  The fitted exponential refill rate is compared with the
golden-rule two-step estimate Omega^2 kappa / (Omega^2 + 2 kappa^2).

Usage:  python3 demos/correction_cycle.py [--omega 0.4] [--kappa 0.5]
"""

import argparse
import math

import numpy as np
from scipy.optimize import curve_fit

from aqecsim import model, solver
from aqecsim.operators import LabeledOperator, identity, tensor

TWOPI = 2.0 * math.pi


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--omega", type=float, default=0.4,
                        help="correcting sideband rate (MHz)")
    parser.add_argument("--kappa", type=float, default=0.5,
                        help="resonator linewidth (MHz)")
    args = parser.parse_args()

    device = model.DeviceParams(omega_q1=3204.9, omega_q2=3662.5,
                                alpha_1=-116.4, alpha_2=-159.6,
                                omega_r1=4994.6, omega_r2=5450.5)
    drive = model.DriveConfig(w_r=1.5, w_b=1.5, nu_r=0.85, nu_b=-0.85,
                              omega_qr1=args.omega, omega_qr2=args.omega)
    noise = model.NoiseModel(kappa=(args.kappa, args.kappa))

    gamma = TWOPI * solver.refill_rate(args.omega, args.kappa)
    print(f"golden-rule refill rate: {gamma / TWOPI:.4f} MHz "
          f"(exponential rate {gamma:.4f} /us)")

    h = model.build_rotating_hamiltonian(device, drive)
    times = np.linspace(0.0, 8.0 / gamma, 161)
    traj = solver.evolve(h, model.collapse_operators(noise),
                         model.logical_state("E01").to_density(), times)

    target = model.logical_qutrit_state("L0").to_density()
    proj = tensor(LabeledOperator((3, 3), target.data), identity(2), identity(2))
    y = solver.observable_series(traj, [proj])[:, 0]

    (amp, g_fit), _ = curve_fit(lambda t, a, g: a * (1.0 - np.exp(-g * t)),
                                times, y, p0=(0.5, gamma))
    print(f"fitted refill rate:      {g_fit / TWOPI:.4f} MHz "
          f"(saturation {amp:.3f})")
    print(f"relative deviation:      {abs(g_fit - gamma) / g_fit:.1%}")
    print()
    step = max(1, len(times) // 16)
    print(" time (us) | logical population")
    for i in range(0, len(times), step):
        bar = "#" * int(40 * y[i])
        print(f"{times[i]:9.2f} | {y[i]:6.3f} {bar}")


if __name__ == "__main__":
    main()
