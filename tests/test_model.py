"""Device model: states, frame Hamiltonians, drive terms, noise channels."""

import math

import numpy as np
import pytest

from aqecsim import analysis, config, model, solver
from aqecsim.operators import (
    FULL_DIMS,
    QQ_DIMS,
    LabeledOperator,
    basis_index,
    basis_state,
    destroy,
    expectation,
    identity,
    ket_projector,
    number,
    partial_trace,
    tensor,
)

TWOPI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# states

def test_logical_state_amplitudes():
    s = 1.0 / math.sqrt(2.0)
    l0 = model.logical_state("L0").amplitudes
    assert l0[basis_index(FULL_DIMS, "gf00")] == pytest.approx(s)
    assert l0[basis_index(FULL_DIMS, "fg00")] == pytest.approx(-s)
    assert np.count_nonzero(l0) == 2
    l1 = model.logical_state("L1").amplitudes
    assert l1[basis_index(FULL_DIMS, "gg00")] == pytest.approx(s)
    assert l1[basis_index(FULL_DIMS, "ff00")] == pytest.approx(-s)


def test_superposition_state_is_balanced_combination():
    l0 = model.logical_state("L0").amplitudes
    l1 = model.logical_state("L1").amplitudes
    lx = model.logical_state("Lx").amplitudes
    assert np.allclose(lx, (l0 - l1) / math.sqrt(2.0))


def test_error_states_and_projectors():
    for label, basis in model.ERROR_STATES.items():
        state = model.logical_state(label)
        assert state.amplitudes[basis_index(FULL_DIMS, basis + "00")] == 1.0
    # E_jk counts as an error of logical state j and of Lx, not of the other
    for label in model.ERROR_STATES:
        rho = partial_trace(model.logical_state(label).to_density(), (0, 1)).data
        own, other = ("L0", "L1") if label in model.CODE["L0"].errors else ("L1", "L0")
        assert analysis.error_population(rho, own) == pytest.approx(1.0)
        assert analysis.error_population(rho, "Lx") == pytest.approx(1.0)
        assert analysis.error_population(rho, other) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        model.logical_state("L7")
    with pytest.raises(ValueError):
        analysis.error_population(rho, "E01")


def test_logical_states_hold_two_excitations(device):
    n_tot = model.transmon_number(1) + model.transmon_number(2)
    for label in ("L0", "L1", "Lx"):
        rho = model.logical_state(label).to_density()
        assert expectation(rho, n_tot).real == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# parameter validation

def test_device_params_validation():
    with pytest.raises(ValueError):
        model.DeviceParams(omega_q1=3000, omega_q2=3600, alpha_1=100.0,
                           alpha_2=-150.0, omega_r1=5000, omega_r2=5400)
    with pytest.raises(ValueError):
        model.DeviceParams(omega_q1=3000, omega_q2=3600, alpha_1=-100.0,
                           alpha_2=-150.0, omega_r1=2000, omega_r2=5400)


def test_drive_config_validation():
    with pytest.raises(ValueError):
        model.DriveConfig(w_r=-1.0)
    with pytest.raises(ValueError):
        model.DriveConfig(phases=(0.0, 0.0))


def test_noise_model_validation():
    with pytest.raises(ValueError):
        model.NoiseModel(t1_ge=(0.0, 10.0))
    with pytest.raises(ValueError):
        model.NoiseModel(kappa=(-0.1, 0.0))
    with pytest.raises(ValueError):
        model.NoiseModel(n_res=1.0)
    with pytest.raises(ValueError):
        model.NoiseModel(t_phi_ff=0.0)


# ---------------------------------------------------------------------------
# Hamiltonians

def test_static_hamiltonian_hermitian_at_random_times(device_with_shifts, full_drive):
    h = model.build_static_hamiltonian(device_with_shifts, full_drive)
    assert h.time_dependent
    rng = np.random.default_rng(11)
    for t in rng.uniform(0.0, 30.0, size=100):
        m = h.constant.data + sum(coeff(float(t)) * op.data
                                  for coeff, op in h.driven)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10


def test_static_hamiltonian_skips_tones_at_rate_zero():
    """A tone whose rate is 0 adds no driven term, whatever its frequency:
    echo_4qq has no QR drive, so a QR offset leaves only the red pair."""
    cfg = config.load_preset("echo_4qq")
    assert cfg.drive.omega_qr1 == cfg.drive.omega_qr2 == cfg.drive.nu_b == 0.0
    h = model.build_static_hamiltonian(cfg.device, cfg.drive, qr_offset=0.5)
    assert len(h.driven) == 2
    assert all(np.any(op.data) for _, op in h.driven)
    assert {tone.freq for tone, _ in h.driven} == {cfg.drive.nu_r}


def test_rotating_frame_diagonal_energies(device):
    drive = model.DriveConfig(w_r=1.0, w_b=1.0, nu_r=0.8, nu_b=-0.9)
    h = model.build_rotating_hamiltonian(device, drive).constant.data
    def diag(label):
        i = basis_index(FULL_DIMS, label)
        return h[i, i].real / TWOPI
    # logical levels sit at the negated pair detunings
    assert diag("gf00") == pytest.approx(-0.8)
    assert diag("fg00") == pytest.approx(-0.8)
    assert diag("gg00") == pytest.approx(0.9)
    assert diag("ff00") == pytest.approx(0.9)
    # single-excitation error levels add -alpha/2
    assert diag("eg00") == pytest.approx(-0.8 + 116.4 / 2.0)
    assert diag("ge00") == pytest.approx(-0.8 + 159.6 / 2.0)
    # one resonator photon costs -alpha/2
    assert diag("gg10") - diag("gg00") == pytest.approx(116.4 / 2.0)


def test_rotating_frame_drive_matrix_elements(device):
    drive = model.DriveConfig(w_r=1.45, w_b=1.25, nu_r=0.8, nu_b=-0.9,
                              omega_qr1=0.39, omega_qr2=0.39)
    h = model.build_rotating_hamiltonian(device, drive).constant.data
    def elem(to, frm):
        return h[basis_index(FULL_DIMS, to), basis_index(FULL_DIMS, frm)] / TWOPI
    # all four pair drives couple through the doubly excited state at W/2
    assert elem("ee00", "gf00") == pytest.approx(1.45 / 2.0)
    assert elem("ee00", "fg00") == pytest.approx(1.45 / 2.0)
    assert elem("ee00", "gg00") == pytest.approx(1.25 / 2.0)
    assert elem("ee00", "ff00") == pytest.approx(1.25 / 2.0)
    # correcting sidebands |e0> -> |f1> at Omega/2, for both logical branches
    assert elem("fg10", "eg00") == pytest.approx(0.39 / 2.0)
    assert elem("ff10", "ef00") == pytest.approx(0.39 / 2.0)
    assert elem("gf01", "ge00") == pytest.approx(0.39 / 2.0)
    assert elem("ff01", "fe00") == pytest.approx(0.39 / 2.0)


def test_drive_phases_enter_coupling_elements(device):
    drive = model.DriveConfig(w_r=1.0, phases=(math.pi / 2.0, 0.0, 0.0, 0.0))
    h = model.build_rotating_hamiltonian(device, drive).constant.data
    val = h[basis_index(FULL_DIMS, "ee00"), basis_index(FULL_DIMS, "gf00")] / TWOPI
    assert val == pytest.approx(0.5j)


def _written_out_raising(drive):
    """The red, blue and QR raising parts written out drive by drive, as a
    reference for the construction from the drive table."""
    def k(to, frm):
        return ket_projector(QQ_DIMS, to, frm).data
    p0, p1, p2, p3 = (np.exp(1j * p) for p in drive.phases)
    red = 0.5 * drive.w_r * (p0 * k("ee", "gf") + p1 * k("ee", "fg"))
    blue = 0.5 * drive.w_b * (p2 * k("ee", "gg") + p3 * k("ee", "ff"))
    qr1 = 0.5 * drive.omega_qr1 * (model._resonator_lowering(1).dag().data
                                   @ np.kron(k("fg", "eg") + k("ff", "ef"), np.eye(4)))
    qr2 = 0.5 * drive.omega_qr2 * (model._resonator_lowering(2).dag().data
                                   @ np.kron(k("gf", "ge") + k("ff", "fe"), np.eye(4)))
    return np.kron(red, np.eye(4)), np.kron(blue, np.eye(4)), qr1 + qr2


def _table_cases():
    cases = []
    for name in ("free_decay", "echo_4qq", "aqec"):
        cfg = config.load_preset(name)
        cases.append((cfg.device, cfg.drive))
    phased = model.DriveConfig(w_r=1.45, w_b=1.25, nu_r=0.8, nu_b=-0.9, omega_qr1=0.39,
                               omega_qr2=0.31, phases=(0.3, -1.1, 2.5, 1.9))
    cases.append((cases[-1][0], phased))
    return cases


@pytest.mark.parametrize("case", range(4))
def test_drive_table_builds_written_out_hamiltonians(case):
    """Both rotating frames read their drives from model.DRIVES; the result
    equals the drive-by-drive construction entry for entry."""
    device, drive = _table_cases()[case]
    red, blue, qr = _written_out_raising(drive)
    p = model._p
    h = model._frame_diagonal(device)
    h = h - drive.nu_r * (p("gf").data + p("fg").data + p("ge").data + p("eg").data)
    h = h - drive.nu_b * (p("gg").data + p("ff").data + p("ef").data + p("fe").data)
    qq = red + blue
    h = h + qq + qq.conj().T + qr + qr.conj().T
    rot = model.build_rotating_hamiltonian(device, drive)
    assert np.array_equal(rot.constant.data, TWOPI * h + model._shifts(device))

    for keyword in ("red_offset", "blue_offset", "qr_offset"):
        offset = {"red_offset": 0.0, "blue_offset": 0.0, "qr_offset": 0.0, keyword: 0.3}
        const, driven = model._frame_diagonal(device), []
        for raising, freq in ((red, drive.nu_r + offset["red_offset"]),
                              (blue, drive.nu_b + offset["blue_offset"]),
                              (qr, offset["qr_offset"])):
            if not np.any(raising):
                continue
            cos_op = raising + raising.conj().T
            sin_op = 1j * (raising - raising.conj().T)
            if freq == 0.0:
                const = const + cos_op
            else:
                driven += [(model.Tone(freq), TWOPI * cos_op),
                           (model.Tone(freq, -0.5 * math.pi), TWOPI * sin_op)]
        stat = model.build_static_hamiltonian(device, drive, **{keyword: 0.3})
        assert np.array_equal(stat.constant.data, TWOPI * const + model._shifts(device))
        assert [tone for tone, _ in stat.driven] == [tone for tone, _ in driven]
        assert all(np.array_equal(got.data, want)
                   for (_, got), (_, want) in zip(stat.driven, driven))


def test_dispersive_terms_elements(device_with_shifts):
    d = model.dispersive_terms(device_with_shifts).data
    def diag(label):
        i = basis_index(FULL_DIMS, label)
        return d[i, i].real / TWOPI
    assert diag("ef00") == pytest.approx(-0.6)
    assert diag("fe00") == pytest.approx(-2.2)
    assert diag("ff00") == pytest.approx(0.0)
    # chi n_q n_r: one transmon photon and one resonator photon
    assert diag("eg10") == pytest.approx(-0.2)
    assert diag("fg10") == pytest.approx(-0.4)


def test_correction_transition_mismatch_identity(device_with_shifts, full_drive):
    """|ef> <-> |ff> must sit zz_ff1 away from |eg> <-> |fg|, and the mirrored
    pair zz_ff2 away, in the full time-independent frame."""
    h = model.build_rotating_hamiltonian(device_with_shifts, full_drive)
    m = h.constant.data
    def diag(label):
        i = basis_index(FULL_DIMS, label)
        return m[i, i].real / TWOPI
    mismatch1 = (diag("ff00") - diag("ef00")) - (diag("fg00") - diag("eg00"))
    mismatch2 = (diag("ff00") - diag("fe00")) - (diag("gf00") - diag("ge00"))
    assert mismatch1 == pytest.approx(device_with_shifts.zz_ff1)
    assert mismatch2 == pytest.approx(device_with_shifts.zz_ff2)


def test_logical_manifold_is_dark(device):
    """The antisymmetric logical state has no matrix element to |ee> under the
    combined pair drives and is stationary without the correcting sidebands."""
    drive = model.DriveConfig(w_r=1.45, w_b=1.25, nu_r=0.8, nu_b=-0.9)
    h = model.build_rotating_hamiltonian(device, drive)
    psi = model.logical_state("L0")
    coupling = h.constant.data @ psi.amplitudes
    assert abs(coupling[basis_index(FULL_DIMS, "ee00")]) < 1e-12
    proj = LabeledOperator(FULL_DIMS, psi.to_density().data)
    traj = solver.evolve(h, [], psi.to_density(), np.linspace(0.0, 10.0, 21))
    fidelity = min(np.trace(m @ proj.data).real for m in traj.full_states())
    assert 1.0 - fidelity < 1e-6


def test_rotating_and_static_frames_agree(device_with_shifts, full_drive):
    """The two frames differ by a diagonal phase rotation, so every density
    matrix element magnitude must agree along the trajectory."""
    h_rot = model.build_rotating_hamiltonian(device_with_shifts, full_drive)
    h_stat = model.build_static_hamiltonian(device_with_shifts, full_drive)
    assert not h_rot.time_dependent and h_stat.time_dependent
    times = np.linspace(0.0, 5.0, 11)
    rho0 = model.logical_state("L0").to_density()
    tr = solver.evolve(h_rot, [], rho0, times)
    ts = solver.evolve(h_stat, [], rho0, times)
    assert tr.meta["method"] in ("expm", "expm_multiply") and tr.meta["nfev"] == 0
    assert ts.meta["method"] == "rk45" and ts.meta["nfev"] > 0
    worst = np.max(np.abs(np.abs(tr.full_states()) - np.abs(ts.full_states())))
    assert worst <= 1e-6


def test_correcting_sidebands_sit_on_shifted_line(device_with_shifts, full_drive):
    """The QR tones follow the chi-shifted |e0> -> |f1> line in both rotating
    frames: the L0-branch transitions are resonant and the L1 branches sit
    zz_ff1 and zz_ff2 away.  An E01 error then evolves alike in both frames."""
    h_rot = model.build_rotating_hamiltonian(device_with_shifts, full_drive)
    h_stat = model.build_static_hamiltonian(device_with_shifts, full_drive)
    for m in (h_rot.constant.data, h_stat.constant.data):
        def diag(label):
            i = basis_index(FULL_DIMS, label)
            return m[i, i].real / TWOPI
        assert diag("fg10") == pytest.approx(diag("eg00"), abs=1e-9)
        assert diag("gf01") == pytest.approx(diag("ge00"), abs=1e-9)
        assert diag("ff10") - diag("ef00") == pytest.approx(device_with_shifts.zz_ff1)
        assert diag("ff01") - diag("fe00") == pytest.approx(device_with_shifts.zz_ff2)
    times = np.linspace(0.0, 5.0, 11)
    rho0 = model.logical_state("E01").to_density()
    tr = solver.evolve(h_rot, [], rho0, times)
    ts = solver.evolve(h_stat, [], rho0, times)
    worst = np.max(np.abs(np.abs(tr.full_states()) - np.abs(ts.full_states())))
    assert worst <= 1e-6


def test_lab_frame_resonant_sideband_rabi(device):
    """A lab-frame correcting sideband drives |eg00> <-> |fg10> at its rate.

    The carrier frequencies are scaled down to keep the integration tractable;
    the tone stays resonant because the anharmonicity enters both the tone
    frequency and the level energies identically.
    """
    drive = model.DriveConfig(omega_qr1=1.0)
    h = model.build_lab_hamiltonian(device, drive, scale=0.02)
    times = np.linspace(0.0, 4.0, 321)
    rho0 = basis_state(FULL_DIMS, "eg00").to_density()
    traj = solver.evolve(h, [], rho0, times)
    p = solver.observable_series(traj, [ket_projector(FULL_DIMS, "fg10")])[:, 0]
    assert p.max() > 0.9
    fringe = solver.fringe_frequency(times, p)
    assert fringe == pytest.approx(1.0, rel=0.1)


def test_lab_frame_drive_phases_match_rotating_frame(device):
    """The lab tones couple (W/2) exp(i phi_k) |ee><level_k| as the rotating
    frame does, whichever side of |ee> the level lies: with phases pi/2 on
    both red drives, L0 stays dark in both frames."""
    drive = model.DriveConfig(w_r=1.0, phases=(math.pi / 2.0, math.pi / 2.0, 0.0, 0.0))
    rho0 = model.logical_state("L0").to_density()
    times = np.linspace(0.0, 1.0, 41)
    p_ee = ket_projector(FULL_DIMS, "ee00")
    worst = {}
    for frame, h in (("rotating", model.build_rotating_hamiltonian(device, drive)),
                     ("lab", model.build_lab_hamiltonian(device, drive, scale=0.2))):
        traj = solver.evolve(h, [], rho0, times)
        worst[frame] = solver.observable_series(traj, [p_ee])[:, 0].max()
    assert worst["rotating"] <= 1e-9
    assert worst["lab"] <= 1e-2


def test_lab_frame_scale_validation(device, full_drive):
    with pytest.raises(ValueError):
        model.build_lab_hamiltonian(device, full_drive, scale=0.0)
    with pytest.raises(ValueError):
        model.build_lab_hamiltonian(device, full_drive, scale=1.5)


def test_flux_waveform_initial_amplitude(device):
    drive = model.DriveConfig(w_r=1.45, w_b=1.25, nu_r=0.8, nu_b=-0.9)
    expected = 2.0 * 1.45 / math.sqrt(2.0) + 1.25 + 1.25 / 2.0
    assert model.qq_drive_amplitude(device, drive, 0.0) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# noise channels

def test_collapse_operator_counts():
    aqec = model.NoiseModel(t1_ge=(21, 9), t1_ef=(23, 23), t_phi=(23, 23),
                            t1_up=(600, 600), t_phi_ff=80.0,
                            kappa=(0.53, 0.48), n_res=0.03)
    free = model.NoiseModel(t1_ge=(18, 8), t1_ef=(33, 33), t_phi=(15, 15),
                            t_phi_ff=4.4, kappa=(0.53, 0.48))
    assert len(model.collapse_operators(aqec)) == 17
    assert len(model.collapse_operators(free)) == 11
    assert model.collapse_operators(model.NoiseModel()) == []


def test_collapse_operator_rates():
    noise = model.NoiseModel(t1_ge=(21.0, math.inf))
    (op,) = model.collapse_operators(noise)
    # sqrt(1/T1) |g><e| on transmon 1
    i_g = basis_index(FULL_DIMS, "gg00")
    i_e = basis_index(FULL_DIMS, "eg00")
    assert op.data[i_g, i_e] == pytest.approx(math.sqrt(1.0 / 21.0))
    kap = model.NoiseModel(kappa=(0.5, 0.0), n_res=0.1)
    a_down, a_up = model.collapse_operators(kap)
    i0 = basis_index(FULL_DIMS, "gg00")
    i1 = basis_index(FULL_DIMS, "gg10")
    assert a_down.data[i0, i1] == pytest.approx(math.sqrt(TWOPI * 0.5))
    assert a_up.data[i1, i0] == pytest.approx(math.sqrt(TWOPI * 0.5 * 0.1))


def test_cached_operators_are_read_only():
    """The label-keyed operators are shared between calls, so writing into
    one raises, and repeated builds return equal matrices."""
    for op in (model.transmon_number(1), model._p("gf"), model.resonator_number(2),
               model._resonator_lowering(1), model._transmon_jump(2, "g", "e"),
               model._drive_operator(model.DRIVES[4])):
        with pytest.raises(ValueError):
            op.data[0, 0] = 1.0
    cfg = config.load_preset("aqec")
    first = model.build_rotating_hamiltonian(cfg.device, cfg.drive).constant.data
    second = model.build_rotating_hamiltonian(cfg.device, cfg.drive).constant.data
    assert np.array_equal(first, second)
    ops = [c.data for c in model.collapse_operators(cfg.noise)]
    again = [c.data for c in model.collapse_operators(cfg.noise)]
    assert len(ops) == len(again)
    assert all(np.array_equal(a, b) for a, b in zip(ops, again))


def test_embedded_operators_match_written_out_products():
    """Every full-space operator built through operators.embed equals the
    Kronecker product written out factor by factor, entry for entry."""
    i3, i2 = identity(3), identity(2)

    def transmon(j, op):
        return tensor(op if j == 1 else i3, op if j == 2 else i3, i2, i2).data

    def resonator(j, op):
        return tensor(i3, i3, op if j == 1 else i2, op if j == 2 else i2).data

    for a in "gef":
        for b in "gef":
            assert np.array_equal(model._p(a + b).data,
                                  tensor(ket_projector(QQ_DIMS, a + b), i2, i2).data)
    jumps = [("g", "e"), ("e", "f"), ("e", "g"), ("f", "e"), ("e", "e"), ("f", "f")]
    for j in (1, 2):
        assert np.array_equal(model.transmon_number(j).data, transmon(j, number(3)))
        assert np.array_equal(model.resonator_number(j).data, resonator(j, number(2)))
        assert np.array_equal(model._resonator_lowering(j).data, resonator(j, destroy(2)))
        for to, frm in jumps:
            assert np.array_equal(model._transmon_jump(j, to, frm).data,
                                  transmon(j, ket_projector((3,), to, frm)))
    for d in model.DRIVES:
        op9 = sum(ket_projector(QQ_DIMS, to, frm).data for to, frm in d.transitions)
        photon = [destroy(2).dag() if d.resonator == j else i2 for j in (1, 2)]
        assert np.array_equal(model._drive_operator(d).data,
                              tensor(LabeledOperator(QQ_DIMS, op9), *photon).data)
    vacuum = np.zeros(4)
    vacuum[0] = 1.0
    for label in model.LOGICAL_STATES + tuple(model.ERROR_STATES):
        amps9 = model.logical_qutrit_state(label).amplitudes
        assert np.array_equal(model.logical_state(label).amplitudes, np.kron(amps9, vacuum))
