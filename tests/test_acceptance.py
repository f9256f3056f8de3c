"""Acceptance suite: one test and one printed pass/fail line per criterion.

The first four criteria share the nine preset trajectories (three experiment
arms x three initial logical states) computed once per module.  Status lines
are written with output capture suspended, so a plain ``pytest -q`` run shows
every one of them.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import curve_fit

from aqecsim import analysis, config, model, solver, tomography
from aqecsim.operators import LabeledOperator, identity, tensor

TWOPI = 2.0 * math.pi

ARMS = ("free_decay", "echo_4qq", "aqec")
STATES = ("L0", "L1", "Lx")


@pytest.fixture
def report(capsys):
    """Print one criterion's status line past pytest's output capture."""
    def _report(num, passed, detail):
        line = f"criterion {num:02d}: {'PASS' if passed else 'FAIL'} — {detail}"
        with capsys.disabled():
            print("\n" + line, flush=True)
    return _report


@pytest.fixture(scope="module")
def arm_runs():
    """(arm, initial) -> times, trajectory, error population and coherence."""
    runs = {}
    for arm in ARMS:
        cfg = config.load_preset(arm)
        h = model.build_rotating_hamiltonian(cfg.device, cfg.drive)
        collapse = model.collapse_operators(cfg.noise)
        times = np.linspace(0.0, cfg.scenario.tmax_us, cfg.scenario.snapshots)
        for initial in STATES:
            traj = solver.evolve(h, collapse,
                                 model.logical_state(initial).to_density(),
                                 times)
            runs[(arm, initial)] = {
                "times": times, "traj": traj,
                "err": analysis.error_population(traj, initial),
                "coh": analysis.coherence_metric(traj, initial),
                "skip": cfg.scenario.fit_skip_us}
    return runs


def _fit(runs, arm, initial):
    r = runs[(arm, initial)]
    return analysis.fit_exponential(r["times"], r["coh"], skip_initial=r["skip"])


@pytest.fixture(scope="module")
def fits(arm_runs):
    return {(arm, s): _fit(arm_runs, arm, s)
            for arm in ("free_decay", "aqec") for s in STATES}


def _shape(fit):
    """Amplitude and offset of a fit: a large C is a pumped steady state."""
    return f"[A={fit.a:.2f}, C={fit.c:.3f}]"


def test_criterion_01_physicality(arm_runs, report):
    worst_drift = worst_herm = 0.0
    worst_eig = 0.0
    for run in arm_runs.values():
        traj = run["traj"]
        worst_drift = max(worst_drift, traj.meta["max_trace_drift"])
        worst_eig = min(worst_eig, traj.meta["min_eigenvalue"])
        for m in traj.full_states():
            worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
    passed = worst_drift <= 1e-6 and worst_herm <= 1e-8 and worst_eig >= -1e-6
    report(1, passed, f"trace drift {worst_drift:.1e}, hermiticity "
                      f"{worst_herm:.1e}, min eigenvalue {worst_eig:.1e}")
    assert passed


def test_criterion_02_arm_ordering(arm_runs, report):
    details = []
    ok = True
    for s in STATES:
        times = arm_runs[("aqec", s)]["times"]
        window = (times >= 5.0) & (times <= 25.0)
        aqec = arm_runs[("aqec", s)]["err"][window]
        free = arm_runs[("free_decay", s)]["err"][window]
        echo = arm_runs[("echo_4qq", s)]["err"][window]
        good = bool(np.all(aqec < free) and np.all(free < echo))
        ok = ok and good
        details.append(f"{s}:{'ok' if good else 'violated'}")
    report(2, ok, "error-population ordering corrected < free < echo, "
                  + ", ".join(details))
    assert ok


def test_criterion_03_lifetimes(fits, report):
    bands = {
        ("free_decay", "L0"): (11.8, 0.30),
        ("free_decay", "L1"): (3.3, 0.30),
        ("aqec", "L0"): (23.4, 0.30),
        ("aqec", "L1"): (16.9, 0.30),
        ("aqec", "Lx"): (8.7, 0.50),
    }
    ok = True
    details = []
    for key, (center, tol) in bands.items():
        tau = fits[key].tau
        good = abs(tau - center) <= tol * center
        ok = ok and good
        extra = f" {_shape(fits[key])}" if key[0] == "aqec" else ""
        details.append(f"{key[0]}/{key[1]}={tau:.1f}us{extra} "
                       f"({'in' if good else 'out of'} {center}±{tol:.0%})")
    report(3, ok, "; ".join(details))
    assert ok


def test_criterion_04_improvement_factors(fits, report):
    floors = {"L0": 1.5, "L1": 3.5, "Lx": 1.1}
    ok = True
    details = []
    for s, floor in floors.items():
        aqec = fits[("aqec", s)]
        ratio = aqec.tau / fits[("free_decay", s)].tau
        good = ratio >= floor
        ok = ok and good
        details.append(f"{s}: {ratio:.2f} (need >= {floor}; aqec "
                       f"{aqec.tau:.1f}us {_shape(aqec)})")
    report(4, ok, "corrected/free lifetime ratios " + "; ".join(details))
    assert ok


def test_criterion_05_break_even(device, report):
    drive = model.DriveConfig(w_r=5.0, w_b=5.0, nu_r=2.5, nu_b=-2.5,
                              omega_qr1=1.0, omega_qr2=1.0)
    noise = model.NoiseModel(t1_ge=(10.0, 10.0), t1_ef=(10.0, 10.0),
                             kappa=(0.5, 0.5))
    h = model.build_rotating_hamiltonian(device, drive)
    times = np.linspace(0.0, 27.0, 109)
    traj = solver.evolve(h, model.collapse_operators(noise),
                         model.logical_state("L0").to_density(), times)
    coh = analysis.coherence_metric(traj, "L0")
    fit = analysis.fit_exponential(times, coh, skip_initial=1.5)
    passed = fit.tau > 10.0
    report(5, passed, f"corrected logical tau {fit.tau:.1f} us vs 10 us "
                      f"physical T1")
    assert passed


def test_criterion_06_golden_rule_grid(device, report):
    # logical-manifold projector: the resonator photon from the second
    # correction step is still draining while the logical state refills
    target9 = model.logical_qutrit_state("L0").to_density()
    proj = tensor(LabeledOperator((3, 3), target9.data),
                  identity(2), identity(2))
    worst = 0.0
    details = []
    for omega in (0.2, 0.4):
        for kappa in (0.5, 1.0):
            drive = model.DriveConfig(w_r=1.5, w_b=1.5, nu_r=0.85, nu_b=-0.85,
                                      omega_qr1=omega, omega_qr2=omega)
            noise = model.NoiseModel(kappa=(kappa, kappa))
            h = model.build_rotating_hamiltonian(device, drive)
            gamma = TWOPI * solver.refill_rate(omega, kappa)
            times = np.linspace(0.0, 8.0 / gamma, 161)
            traj = solver.evolve(h, model.collapse_operators(noise),
                                 model.logical_state("E01").to_density(), times)
            y = solver.observable_series(traj, [proj])[:, 0]
            (_, g_fit), _ = curve_fit(lambda t, a, g: a * (1.0 - np.exp(-g * t)),
                                      times, y, p0=(0.5, gamma))
            rel = abs(g_fit - gamma) / g_fit
            worst = max(worst, rel)
            details.append(f"({omega},{kappa}):{rel:.1%}")
    passed = worst <= 0.20
    report(6, passed, "refill-rate deviation " + " ".join(details))
    assert passed


def test_criterion_07_qr_steady_state(device, report):
    drive = model.DriveConfig(omega_qr1=0.49)
    noise = model.NoiseModel(kappa=(0.53, 0.0))
    h = model.build_rotating_hamiltonian(device, drive)
    traj = solver.evolve(h, model.collapse_operators(noise),
                         model.logical_state("E01").to_density(),
                         np.linspace(0.0, 3.0, 31))
    n_q1 = solver.observable_series(traj, [model.transmon_number(1)])[-1, 0]
    passed = n_q1 >= 1.8
    report(7, passed, f"<n_q1> = {n_q1:.3f} at 3 us (need >= 1.8)")
    assert passed


def _exact_tomogram(rho, rotations, shots=10**12):
    us = rotations.unitaries
    p = np.einsum("kij,jl,kil->ki", us, rho.data, us.conj()).real
    p = np.clip(p, 0.0, None)
    p = p / p.sum(axis=1, keepdims=True)
    counts = np.rint(p * shots).astype(np.int64)
    for row in counts:
        row[np.argmax(row)] += shots - row.sum()
    return tomography.Tomogram(counts, shots, seed=0)


def test_criterion_08_tomography_round_trip(report):
    rset = tomography.rotation_set()
    conf = tomography.ConfusionMatrix.identity()
    fids = []
    for s in STATES:
        rho = model.logical_qutrit_state(s).to_density()
        for seed in range(20):
            tomo = tomography.simulate_counts(rho, rset, conf, 5000, seed)
            result = tomography.mle_reconstruct(tomo, rset, conf)
            fids.append(tomography.fidelity(result.rho, rho))
    median = float(np.median(fids))
    rho = model.logical_qutrit_state("Lx").to_density()
    exact = tomography.mle_reconstruct(_exact_tomogram(rho, rset), rset, conf)
    noiseless = tomography.fidelity(exact.rho, rho)
    passed = median >= 0.98 and noiseless >= 0.999
    report(8, passed, f"median fidelity {median:.4f} over 60 sampled "
                      f"reconstructions; noiseless {noiseless:.6f}")
    assert passed


def test_criterion_09_dispersive_shift_oracle(report):
    omega_1, omega_2 = 15.1, 3.1
    levels = analysis.LevelSpec.harmonic(omega_1, omega_2)
    g, nu = 0.4, 4.0
    a = np.diag(np.sqrt([1.0, 2.0]), k=1)
    eye3 = np.eye(3)
    a1, a2 = np.kron(a, eye3), np.kron(eye3, a)
    h0 = TWOPI * np.diag(levels.energies.ravel())
    worst = {}
    for kind, coupling in (("red", a1.conj().T @ a2 + a1 @ a2.conj().T),
                           ("blue", a1.conj().T @ a2.conj().T + a1 @ a2)):
        period = 1.0 / nu
        n_steps = 6000
        dt = period / n_steps
        u = np.eye(9, dtype=complex)
        for m in range(n_steps):
            t = (m + 0.5) * dt
            drive = TWOPI * 2.0 * g * math.sin(TWOPI * nu * t) * coupling
            u = expm(-1j * (h0 + drive) * dt) @ u
        evals, evecs = np.linalg.eig(u)
        worst[kind] = 0.0
        for j in range(3):
            for k in range(3):
                idx = j * 3 + k
                match = np.argmax(np.abs(evecs[idx, :]) ** 2)
                phase = -np.angle(evals[match]) / (TWOPI * period)
                shift = (phase - levels.energies[j, k] + nu / 2.0) % nu - nu / 2.0
                formula = analysis.dispersive_shift(levels, g, nu, kind, j, k)
                if abs(formula) > 1e-9:
                    worst[kind] = max(worst[kind],
                                      abs(shift - formula) / abs(formula))
    passed = all(v <= 0.10 for v in worst.values())
    report(9, passed, f"stroboscopic vs formula shifts: worst red "
                      f"{worst['red']:.1%}, blue {worst['blue']:.1%}")
    assert passed


def test_criterion_10_error_transparency_exact(report):
    levels = analysis.LevelSpec.from_transition_data(
        3204.9, 3662.5, -116.4, -159.6,
        zz_ge=-0.261, zz_ef2=-0.301, zz_ff1=-0.171, zz_ff2=-0.289)
    r1, r2 = analysis.error_transparency_residual(levels)
    passed = abs(r1 - (-0.171)) < 1e-9 and abs(r2 - (-0.289)) < 1e-9
    report(10, passed, f"residuals ({r1 * 1000:.0f}, {r2 * 1000:.0f}) kHz "
                       f"(expected (-171, -289))")
    assert passed


def test_criterion_11_chevron_oracle(device, report):
    rate = 1.0
    drive = model.DriveConfig(omega_qr1=rate)
    times = np.linspace(0.0, 6.0, 241)
    rho0 = model.logical_state("E01").to_density()
    results = {}
    for delta in (0.0, 1.5):
        cmap = solver.sweep_chevron(device, drive, "qr_frequency", [delta],
                                    times, rho0)
        fringe = solver.fringe_frequency(times, cmap.n_q1[0])
        expected = math.sqrt(rate**2 + delta**2)
        results[delta] = abs(fringe - expected) / expected
    passed = all(v <= 0.05 for v in results.values())
    report(11, passed, f"fringe deviation on-resonance {results[0.0]:.2%}, "
                       f"detuned {results[1.5]:.2%}")
    assert passed
