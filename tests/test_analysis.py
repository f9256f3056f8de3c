"""State metrics, exponential fitting, and level-shift diagnostics."""

import math

import numpy as np
import pytest

from aqecsim import analysis, model, solver
from aqecsim.operators import (
    FULL_DIMS,
    basis_index,
    basis_state,
    ket_projector,
    partial_trace,
)


# ---------------------------------------------------------------------------
# result containers

def test_decay_fit_validation():
    with pytest.raises(ValueError):
        analysis.DecayFit(a=1.0, tau=-2.0, c=0.0, sigma_tau=0.1, residual_norm=0.0)
    with pytest.raises(ValueError):
        analysis.DecayFit(a=1.0, tau=2.0, c=0.0, sigma_tau=-0.1, residual_norm=0.0)
    fit = analysis.DecayFit(a=1.0, tau=2.0, c=0.1, sigma_tau=0.05, residual_norm=0.01)
    assert set(fit.summary_fields()) == {"A", "tau_us", "C", "sigma_tau_us",
                                         "residual_norm"}


def test_level_spec_validation():
    with pytest.raises(ValueError):
        analysis.LevelSpec(np.zeros((2, 2)))
    e = np.zeros((3, 3))
    e[0, 0] = 1.0
    with pytest.raises(ValueError):
        analysis.LevelSpec(e)
    harm = analysis.LevelSpec.harmonic(10.0, 3.0)
    assert harm.energies[2, 1] == pytest.approx(23.0)


# ---------------------------------------------------------------------------
# state metrics

def test_error_population_on_named_states():
    for label in ("L0", "L1", "Lx"):
        rho = model.logical_qutrit_state(label).to_density()
        assert analysis.error_population(rho, label) == pytest.approx(0.0)
    e01 = model.logical_qutrit_state("E01").to_density()
    assert analysis.error_population(e01, "L0") == pytest.approx(1.0)
    assert analysis.error_population(e01, "Lx") == pytest.approx(1.0)
    assert analysis.error_population(e01, "L1") == pytest.approx(0.0)
    with pytest.raises(ValueError):
        analysis.error_population(e01, "E01")


def test_metrics_accept_full_space_states():
    rho_full = model.logical_state("L0").to_density()
    assert analysis.error_population(rho_full, "L0") == pytest.approx(0.0)
    assert analysis.coherence_metric(rho_full, "L0") == pytest.approx(1.0)
    bad = basis_state((3, 2), "g0").to_density()
    with pytest.raises(ValueError):
        analysis.error_population(bad, "L0")


def test_coherence_metric_is_one_on_pure_logical_states():
    for label in ("L0", "L1", "Lx"):
        rho = model.logical_qutrit_state(label).to_density()
        assert analysis.coherence_metric(rho, label) == pytest.approx(1.0)
    # fully dephased mixture of the L1 branches has no coherence
    mix = 0.5 * (basis_state((3, 3), "gg").to_density().data
                 + basis_state((3, 3), "ff").to_density().data)
    from aqecsim.operators import DensityMatrix
    assert analysis.coherence_metric(DensityMatrix((3, 3), mix), "L1") == 0.0


def _reference_metrics(r9, label):
    """The per-snapshot metrics as first written, on one 9x9 matrix: the
    reference the whole-trajectory metrics must reproduce bit for bit."""
    pairs = {"L0": ("ge", "eg"), "L1": ("ef", "fe"),
             "Lx": ("ge", "eg", "ef", "fe")}[label]
    err = float(sum(r9[basis_index((3, 3), s), basis_index((3, 3), s)].real
                    for s in pairs))
    if label == "Lx":
        half = 0.5 * (ket_projector((3, 3), "gg", "gf").data
                      + ket_projector((3, 3), "gg", "ff").data
                      + ket_projector((3, 3), "fg", "gf").data
                      + ket_projector((3, 3), "fg", "ff").data)
        return err, abs(np.trace(r9 @ (half + half.conj().T)))
    a, b = ("gf", "fg") if label == "L0" else ("gg", "ff")
    return err, 2.0 * abs(r9[basis_index((3, 3), a), basis_index((3, 3), b)])


def test_trajectory_metrics_equal_per_snapshot_loop(device_with_shifts, full_drive):
    h = model.build_rotating_hamiltonian(device_with_shifts, full_drive)
    noise = model.NoiseModel(t1_ge=(21.0, 9.0), t_phi=(23.0, 23.0),
                             kappa=(0.53, 0.48), n_res=0.03)
    traj = solver.evolve(h, model.collapse_operators(noise),
                         model.logical_state("Lx").to_density(),
                         np.linspace(0.0, 1.0, 9))
    r9s = [partial_trace(traj.state(i), keep=(0, 1)).data
           for i in range(len(traj))]
    for label in ("L0", "L1", "Lx"):
        ref = np.array([_reference_metrics(r9, label) for r9 in r9s])
        err = analysis.error_population(traj, label)
        coh = analysis.coherence_metric(traj, label)
        assert err.shape == coh.shape == (len(traj),)
        assert np.array_equal(err, ref[:, 0])
        assert np.array_equal(coh, ref[:, 1])
        assert analysis.coherence_metric(traj.state(7), label) == coh[7]


# ---------------------------------------------------------------------------
# exponential fitting

def test_fit_exponential_exact_recovery():
    t = np.linspace(0.0, 30.0, 61)
    y = 0.8 * np.exp(-t / 10.0) + 0.05
    fit = analysis.fit_exponential(t, y)
    assert fit.tau == pytest.approx(10.0, rel=1e-6)
    assert fit.a == pytest.approx(0.8, rel=1e-6)
    assert fit.c == pytest.approx(0.05, abs=1e-8)


def test_fit_skip_window_excludes_early_samples():
    t = np.linspace(0.0, 30.0, 61)
    y = 0.8 * np.exp(-t / 10.0) + 0.05
    y[t < 2.0] = 0.0  # corrupt the transient
    fit = analysis.fit_exponential(t, y, skip_initial=2.0)
    assert fit.tau == pytest.approx(10.0, rel=1e-6)


def test_fit_exponential_failure_modes():
    t = np.linspace(0.0, 10.0, 21)
    with pytest.raises(analysis.FitError):
        analysis.fit_exponential(t, np.full_like(t, 0.3))
    with pytest.raises(analysis.FitError):
        # growth data with a growth-shaped starting point converges to a
        # negative decay constant, which is rejected
        analysis.fit_exponential(t, np.exp(t / 5.0), p0=(1.0, -5.0, 0.0))
    with pytest.raises(analysis.FitError, match="exceeds 100x the fitted span"):
        # from the default start the same growth data converge to tau far
        # beyond the window (2.8e5 us over a 10 us span)
        analysis.fit_exponential(t, np.exp(t / 5.0))
    with pytest.raises(ValueError):
        analysis.fit_exponential(t, np.exp(-t), skip_initial=9.9)
    with pytest.raises(ValueError):
        analysis.fit_exponential(t, np.exp(-t[:-1]))


def test_fit_uncertainty_covers_truth_over_seeds():
    """Noisy synthetic decays: the 3-sigma interval should almost always
    contain the true decay constant (deterministic seed list)."""
    t = np.linspace(0.0, 27.0, 109)
    covered = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y = 0.5 * np.exp(-t / 23.4) + 0.1 + rng.normal(0.0, 0.01, size=t.size)
        fit = analysis.fit_exponential(t, y)
        if abs(fit.tau - 23.4) <= 3.0 * fit.sigma_tau:
            covered += 1
    assert covered >= 95


def test_fit_recovers_solver_decay_time(device):
    h = model.build_rotating_hamiltonian(device, model.DriveConfig())
    noise = model.NoiseModel(t1_ge=(10.0, math.inf))
    times = np.linspace(0.0, 25.0, 51)
    traj = solver.evolve(h, model.collapse_operators(noise),
                         basis_state(FULL_DIMS, "eg00").to_density(), times)
    p = solver.observable_series(traj, [ket_projector(FULL_DIMS, "eg00")])[:, 0]
    fit = analysis.fit_exponential(times, p)
    assert fit.tau == pytest.approx(10.0, rel=0.01)


# ---------------------------------------------------------------------------
# level shifts and error transparency

def test_dispersive_shift_zero_coupling_and_symmetry():
    levels = analysis.LevelSpec.harmonic(10.0, 3.0)
    assert analysis.dispersive_shift(levels, 0.0, 2.0, "red", 1, 1) == 0.0
    plus = analysis.dispersive_shift(levels, 0.4, 2.0, "blue", 1, 1)
    minus = analysis.dispersive_shift(levels, 0.4, -2.0, "blue", 1, 1)
    # both rotating components enter symmetrically (summation order differs)
    assert plus == pytest.approx(minus, rel=1e-12)


def test_dispersive_shift_hand_values():
    levels = analysis.LevelSpec.harmonic(10.0, 3.0)
    # ground level, pair-creation drive: single virtual transition to (1,1)
    expected00 = 0.25 * (1.0 / (-13.0 - 2.0) + 1.0 / (-13.0 + 2.0))
    assert analysis.dispersive_shift(levels, 0.5, 2.0, "blue", 0, 0) == \
        pytest.approx(expected00)
    # top level: the upward ladder element is truncated away, only (1,1) remains
    expected22 = 0.25 * 4.0 * (1.0 / 11.0 + 1.0 / 15.0)
    assert analysis.dispersive_shift(levels, 0.5, 2.0, "blue", 2, 2) == \
        pytest.approx(expected22)
    # ground level has no pair-exchange partners at all
    assert analysis.dispersive_shift(levels, 0.5, 2.0, "red", 0, 0) == 0.0


def test_dispersive_shift_near_resonance_raises():
    levels = analysis.LevelSpec.harmonic(10.0, 3.0)
    with pytest.raises(ValueError, match="near-resonant"):
        analysis.dispersive_shift(levels, 0.5, 13.0, "blue", 0, 0)
    with pytest.raises(ValueError):
        analysis.dispersive_shift(levels, 0.5, 2.0, "green", 0, 0)
    with pytest.raises(ValueError):
        analysis.dispersive_shift(levels, 0.5, 2.0, "red", 3, 0)


def test_error_transparency_residual_harmonic_is_zero():
    levels = analysis.LevelSpec.harmonic(10.0, 3.0)
    assert analysis.error_transparency_residual(levels) == (0.0, 0.0)


TABLE_ZZ = dict(zz_ge=-0.261, zz_ef2=-0.301, zz_ff1=-0.171, zz_ff2=-0.289)


def test_error_transparency_residual_measured_levels():
    levels = analysis.LevelSpec.from_transition_data(
        3204.9, 3662.5, -116.4, -159.6, **TABLE_ZZ)
    r1, r2 = analysis.error_transparency_residual(levels)
    assert r1 == pytest.approx(-0.171, abs=1e-9)
    assert r2 == pytest.approx(-0.289, abs=1e-9)


def test_shifted_levels_keeps_reference_zero():
    levels = analysis.LevelSpec.harmonic(10.0, 3.0)
    shifted = analysis.shifted_levels(levels, [(0.5, 2.0, "blue")])
    assert shifted.energies[0, 0] == 0.0
    assert not np.allclose(shifted.energies, levels.energies)


def test_cancellation_detunings_on_measured_levels():
    levels = analysis.LevelSpec.from_transition_data(
        3204.9, 3662.5, -116.4, -159.6, **TABLE_ZZ)
    nu1, nu2 = analysis.cancellation_detunings(levels, 5.0)
    assert nu1 == pytest.approx(265.85, abs=0.5)
    assert nu2 == pytest.approx(6520.49, abs=0.5)
    shifted = analysis.shifted_levels(levels, [(5.0, nu1, "red"),
                                               (5.0, nu2, "blue")])
    r1, r2 = analysis.error_transparency_residual(shifted)
    assert abs(r1) <= 1e-6 and abs(r2) <= 1e-6
    # an explicit starting guess near the solution also converges
    nu1b, nu2b = analysis.cancellation_detunings(levels, 5.0, x0=(260.0, 6500.0))
    assert nu1b == pytest.approx(nu1, abs=1e-3)
    with pytest.raises(ValueError):
        analysis.cancellation_detunings(levels, 6.0)
    with pytest.raises(ValueError):
        analysis.cancellation_detunings(levels, 0.0)
