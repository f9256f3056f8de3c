#!/usr/bin/env python3
"""Simulate a tomography measurement and reconstruct the state.

Prepares a logical state, samples multinomial counts for all 81 post-rotation
settings through an imperfect readout (confusion matrix), reconstructs the
state by maximum likelihood, and reports the fidelity to the true state.

Usage:  python3 demos/tomography_roundtrip.py [--state Lx] [--shots 5000]
"""

import argparse

import numpy as np

from aqecsim import model, tomography


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--state", default="Lx", choices=("L0", "L1", "Lx"))
    parser.add_argument("--shots", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--readout-fidelity", type=float, default=0.95,
                        help="diagonal of the confusion matrix")
    args = parser.parse_args()

    rho = model.logical_qutrit_state(args.state).to_density()
    rotations = tomography.rotation_set()
    p = args.readout_fidelity
    confusion = tomography.ConfusionMatrix(
        p * np.eye(9) + (1.0 - p) / 8.0 * (1.0 - np.eye(9)))

    print(f"sampling {args.shots} shots x 81 settings for |{args.state}> "
          f"(readout fidelity {p:.2f})...")
    tomo = tomography.simulate_counts(rho, rotations, confusion,
                                      args.shots, args.seed)

    linear = tomography.project_to_physical(
        tomography.linear_inversion(tomo, rotations, confusion))
    result = tomography.mle_reconstruct(tomo, rotations, confusion)

    fid_linear = tomography.fidelity(linear, rho)
    fid_mle = tomography.fidelity(result.rho, rho)
    purity = float(np.trace(result.rho.data @ result.rho.data).real)
    print(f"linear inversion fidelity:    {fid_linear:.5f}")
    print(f"maximum likelihood fidelity:  {fid_mle:.5f}")
    print(f"reconstructed purity:         {purity:.5f}")
    print(f"optimizer: {result.n_iter} iterations, "
          f"negative log-likelihood per count {result.cost:.4f}, "
          f"converged={result.converged}")


if __name__ == "__main__":
    main()
