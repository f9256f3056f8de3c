#!/usr/bin/env python3
"""Compare logical-state lifetimes across the three experiment arms.

Runs the three bundled presets (undriven free decay, the four-tone
pair-drive echo, and the full autonomous-correction configuration) for each
logical state, fits the coherence decay, and prints a lifetime table with
improvement factors over free decay.

Usage:  python3 demos/lifetime_comparison.py [--quick]
        --quick shortens the runs to 12 us for a faster look.
"""

import argparse

import numpy as np

from aqecsim import analysis, config, model, solver

ARMS = ("free_decay", "echo_4qq", "aqec")


def arm_lifetimes(arm, tmax, snapshots):
    """{state: fitted tau (us), or the FitError of a fit that failed}."""
    cfg = config.load_preset(arm)
    h = model.build_rotating_hamiltonian(cfg.device, cfg.drive)
    collapse = model.collapse_operators(cfg.noise)
    times = np.linspace(0.0, tmax, snapshots)
    taus = {}
    for state in model.LOGICAL_STATES:
        traj = solver.evolve(h, collapse,
                             model.logical_state(state).to_density(), times)
        coh = analysis.coherence_metric(traj, state)
        try:
            taus[state] = analysis.fit_exponential(
                times, coh, skip_initial=cfg.scenario.fit_skip_us).tau
        except analysis.FitError as exc:
            taus[state] = exc
    return taus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="12 us runs instead of the full 27 us")
    args = parser.parse_args()
    tmax, snapshots = (12.0, 49) if args.quick else (27.0, 109)

    results = {}
    for arm in ARMS:
        print(f"running {arm} ({tmax:g} us x {len(model.LOGICAL_STATES)} states)...")
        results[arm] = arm_lifetimes(arm, tmax, snapshots)

    print()
    print(f"{'state':>6} | " + " | ".join(f"{arm:>12}" for arm in ARMS)
          + " | corrected/free")
    print("-" * 66)
    for state in model.LOGICAL_STATES:
        taus = [results[arm][state] for arm in ARMS]
        row = " | ".join(f"{tau:9.2f} us" if isinstance(tau, float) else f"fit failed: {tau}"
                         for tau in taus)
        free, _, aqec = taus
        ratio = (f"{aqec / free:13.2f}" if isinstance(free, float) and isinstance(aqec, float)
                 else f"{'-':>13}")
        print(f"{state:>6} | {row} | {ratio}")
    print()
    print("Lifetimes are exponential fits to each state's coherence metric;")
    print("the correction arm skips the initial transient before fitting.")


if __name__ == "__main__":
    main()
