"""Master-equation integration, rate estimates, and detuning sweeps."""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit
from scipy.sparse.linalg import expm_multiply

from aqecsim import config, model, solver
from aqecsim.operators import (
    FULL_DIMS,
    LabeledOperator,
    basis_state,
    identity,
    ket_projector,
    tensor,
)

TWOPI = 2.0 * math.pi
LOGICAL = ("L0", "L1", "Lx")
# size of the block of vec(rho) that each preset's logical states touch
PRESET_BLOCKS = {"free_decay": {"L0": 44, "L1": 44, "Lx": 100},
                 "echo_4qq": {"L0": 33, "L1": 33, "Lx": 33},
                 "aqec": {"L0": 366, "L1": 366, "Lx": 366}}


def _free_hamiltonian(device):
    return model.build_rotating_hamiltonian(device, model.DriveConfig())


def test_pure_decay_matches_exponential(device):
    """With only one loss channel and a diagonal H, the excited population
    follows exp(-t/T1) to solver precision."""
    h = _free_hamiltonian(device)
    noise = model.NoiseModel(t1_ge=(10.0, math.inf))
    rho0 = basis_state(FULL_DIMS, "eg00").to_density()
    times = np.linspace(0.0, 20.0, 41)
    traj = solver.evolve(h, model.collapse_operators(noise), rho0, times)
    p = solver.observable_series(traj, [ket_projector(FULL_DIMS, "eg00")])[:, 0]
    assert np.max(np.abs(p - np.exp(-times / 10.0))) <= 1e-6


def test_closed_evolution_preserves_purity(device, full_drive):
    h = model.build_rotating_hamiltonian(device, full_drive)
    rho0 = model.logical_state("Lx").to_density()
    traj = solver.evolve(h, [], rho0, np.linspace(0.0, 3.0, 7))
    for i in range(len(traj)):
        purity = np.trace(traj.states[i] @ traj.states[i]).real
        assert purity == pytest.approx(1.0, abs=1e-5)


def test_evolve_input_validation(device):
    h = _free_hamiltonian(device)
    rho0 = model.logical_state("L0").to_density()
    with pytest.raises(ValueError):
        solver.evolve(h, [], rho0, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        solver.evolve(h, [], rho0, np.zeros((2, 2)))
    bad_state = basis_state((3, 3), "gg").to_density()
    with pytest.raises(ValueError):
        solver.evolve(h, [], bad_state, np.linspace(0.0, 1.0, 3))
    bad_collapse = [tensor(identity(3), identity(3))]
    with pytest.raises(ValueError):
        solver.evolve(h, bad_collapse, rho0, np.linspace(0.0, 1.0, 3))


def test_single_time_returns_initial_state(device):
    h = _free_hamiltonian(device)
    rho0 = model.logical_state("L0").to_density()
    traj = solver.evolve(h, [], rho0, np.array([0.0]))
    assert len(traj) == 1
    assert np.allclose(traj.states[0], rho0.data)


def test_observable_series_warns_on_non_hermitian(device):
    h = _free_hamiltonian(device)
    rho0 = model.logical_state("L0").to_density()
    traj = solver.evolve(h, [], rho0, np.linspace(0.0, 0.5, 3))
    with pytest.warns(RuntimeWarning):
        solver.observable_series(traj, [1j * ket_projector(FULL_DIMS, "gf00", "fg00")])


def _preset(arm):
    cfg = config.load_preset(arm)
    h = model.build_rotating_hamiltonian(cfg.device, cfg.drive)
    return cfg, h, model.collapse_operators(cfg.noise)


def _method(block_dim):
    return "expm" if block_dim <= solver.DENSE_BLOCK_MAX else "expm_multiply"


@pytest.mark.parametrize("arm, tmax, snapshots", [
    ("free_decay", None, None),
    ("echo_4qq", None, None),
    ("aqec", 1.5, 7),  # RK45 needs ~50 s for the full 27 us aqec window
])
def test_exact_propagation_matches_rk45(arm, tmax, snapshots):
    """Exact propagation agrees with the RK45 integrator, run without a step
    cap as it once ran every time-independent H, in every state entry."""
    cfg, h, collapse = _preset(arm)
    times = np.linspace(0.0, tmax or cfg.scenario.tmax_us,
                        snapshots or cfg.scenario.snapshots)
    for initial in LOGICAL:
        rho0 = model.logical_state(initial).to_density()
        traj = solver.evolve(h, collapse, rho0, times)
        block = PRESET_BLOCKS[arm][initial]
        assert traj.meta["block_dim"] == block
        assert traj.meta["method"] == _method(block)
        assert traj.meta["nfev"] == 0
        ref, meta = solver._integrate_rk45(h, collapse, rho0, times,
                                           solver.DEFAULT_RTOL,
                                           solver.DEFAULT_ATOL, np.inf)
        assert meta["method"] == "rk45" and meta["nfev"] > 0
        assert meta["block_dim"] == 36 * 36
        assert np.max(np.abs(traj.states - ref)) <= 1e-6


@pytest.mark.parametrize("arm, initial", [("free_decay", "Lx"), ("aqec", "L0")])
def test_block_reduction_matches_full_liouvillian(arm, initial):
    """The block that rho0 touches carries the whole evolution: the result
    equals expm_multiply on the full, unreduced 1296^2 Liouvillian."""
    cfg, h, collapse = _preset(arm)
    times = np.linspace(0.0, cfg.scenario.tmax_us, cfg.scenario.snapshots)
    rho0 = model.logical_state(initial).to_density()
    traj = solver.evolve(h, collapse, rho0, times)
    block = PRESET_BLOCKS[arm][initial]
    assert traj.meta["block_dim"] == block
    assert traj.meta["method"] == _method(block)
    gen = solver.liouvillian(h, collapse)
    assert gen.shape == (36 * 36, 36 * 36)
    full = expm_multiply(gen, rho0.data.ravel().astype(complex), start=0.0,
                         stop=times[-1], num=len(times), endpoint=True)
    assert np.max(np.abs(traj.states.reshape(len(times), -1) - full)) <= 1e-10


@pytest.mark.parametrize("arm, initial", [("free_decay", "Lx"), ("aqec", "L0")])
def test_non_uniform_grid_matches_uniform_grid(arm, initial):
    _, h, collapse = _preset(arm)
    rho0 = model.logical_state(initial).to_density()
    grid = np.array([0.0, 0.1, 0.35, 1.0, 2.5])
    uniform = np.linspace(0.0, 2.5, 51)
    shared = np.rint(grid / 0.05).astype(int)
    a = solver.evolve(h, collapse, rho0, grid)
    b = solver.evolve(h, collapse, rho0, uniform)
    block = PRESET_BLOCKS[arm][initial]
    assert a.meta["method"] == b.meta["method"] == _method(block)
    assert a.meta["block_dim"] == b.meta["block_dim"] == block
    assert np.max(np.abs(a.states - b.states[shared])) <= 1e-10


def test_liouvillian_rejects_driven_hamiltonian(device, full_drive):
    h = model.build_static_hamiltonian(device, full_drive)
    with pytest.raises(ValueError):
        solver.liouvillian(h, [])


def test_refill_rate_values_and_limits():
    assert solver.refill_rate(0.2, 0.5) == pytest.approx(
        0.2**2 * 0.5 / (0.2**2 + 2 * 0.5**2))
    assert solver.refill_rate(0.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        solver.refill_rate(-0.1, 0.5)
    with pytest.raises(ValueError):
        solver.refill_rate(0.5, 0.0)


def test_refill_rate_matches_simulation(device):
    """Exponential refill of the logical manifold from an error state follows
    the golden-rule two-step rate (single grid point; the acceptance suite
    covers the full grid)."""
    omega, kappa = 0.4, 0.5
    drive = model.DriveConfig(w_r=1.5, w_b=1.5, nu_r=0.85, nu_b=-0.85,
                              omega_qr1=omega, omega_qr2=omega)
    noise = model.NoiseModel(kappa=(kappa, kappa))
    h = model.build_rotating_hamiltonian(device, drive)
    gamma = TWOPI * solver.refill_rate(omega, kappa)
    times = np.linspace(0.0, 8.0 / gamma, 161)
    traj = solver.evolve(h, model.collapse_operators(noise),
                         model.logical_state("E01").to_density(), times)
    # project onto the refilled logical state regardless of the resonator,
    # which still holds the dumped photon during the second step
    target9 = model.logical_qutrit_state("L0").to_density()
    proj = tensor(LabeledOperator((3, 3), target9.data), identity(2), identity(2))
    y = solver.observable_series(traj, [proj])[:, 0]
    (_, g_fit), _ = curve_fit(lambda t, a, g: a * (1.0 - np.exp(-g * t)),
                              times, y, p0=(0.5, gamma))
    assert abs(g_fit - gamma) / g_fit <= 0.2


def test_fringe_frequency_synthetic():
    t = np.linspace(0.0, 6.0, 301)
    y = 0.4 * np.cos(TWOPI * 3.3 * t + 0.4) + 0.5
    assert solver.fringe_frequency(t, y) == pytest.approx(3.3, rel=0.01)
    assert solver.fringe_frequency(t, np.full_like(t, 0.7)) == 0.0
    with pytest.raises(ValueError):
        solver.fringe_frequency(t[:3], y[:3])


def test_sweep_chevron_center_and_validation(device):
    drive = model.DriveConfig(omega_qr1=1.0)
    times = np.linspace(0.0, 4.0, 81)
    rho0 = model.logical_state("E01").to_density()
    offsets = np.array([-1.0, 0.0, 1.0])
    cmap = solver.sweep_chevron(device, drive, "qr_frequency", offsets, times, rho0)
    assert cmap.n_q1.shape == (3, 81)
    fringe = [solver.fringe_frequency(times, row) for row in cmap.n_q1]
    assert int(np.argmin(fringe)) == 1  # slowest fringe on resonance
    with pytest.raises(ValueError):
        solver.sweep_chevron(device, drive, "purple_pair", offsets, times, rho0)
    with pytest.raises(ValueError):
        solver.sweep_chevron(device, drive, "qr_frequency", [], times, rho0)


def test_sweep_sees_dispersive_and_zz_shifts(device_with_shifts):
    """Sweeps run the shifted model that scenarios simulate.  From |fe00> the
    QR2 tone drives the L1 branch, which sits zz_ff2 off the tone's line, so
    the fringe on zero offset is sqrt(Omega^2 + zz_ff2^2), not Omega."""
    drive = model.DriveConfig(omega_qr2=1.0)
    times = np.linspace(0.0, 6.0, 241)
    rho0 = basis_state(FULL_DIMS, "fe00").to_density()
    cmap = solver.sweep_chevron(device_with_shifts, drive, "qr_frequency",
                                [0.0], times, rho0)
    fringe = solver.fringe_frequency(times, cmap.n_q2[0])
    assert fringe == pytest.approx(math.hypot(1.0, device_with_shifts.zz_ff2),
                                   rel=0.05)


def test_chevron_map_save(device, tmp_path):
    cmap = solver.ChevronMap("qr_frequency", np.array([0.0, 1.0]),
                             np.array([0.0, 0.5]), np.ones((2, 2)),
                             np.zeros((2, 2)))
    cmap.save(str(tmp_path / "sweep"))
    loaded = np.loadtxt(tmp_path / "sweep_n_q1.tsv", skiprows=1)
    assert loaded.shape == (2, 3)
    assert np.allclose(loaded[:, 0], [0.0, 1.0])
