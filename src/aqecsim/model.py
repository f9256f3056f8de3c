"""Device model: logical states, drive Hamiltonians, and noise channels.

All frequencies are ordinary frequencies in MHz and all times in microseconds.
The single 2*pi conversion to angular units happens here, during Hamiltonian
and collapse-operator assembly; nothing downstream applies it again.

Three frames are provided, one builder each:

* lab frame (:func:`build_lab_hamiltonian`) -- Duffing transmons plus
  explicitly modulated charge/flux coupling products, one carrier
  :class:`Tone` each,
* logical-static frame (:func:`build_static_hamiltonian`) -- all logical
  states at zero energy, the four two-transmon (QQ) sideband terms carry
  explicit exp(+-2*pi*i*nu*t) phases (a cosine and a sine :class:`Tone`),
* fully-rotated frame (:func:`build_rotating_hamiltonian`) -- time
  independent, detunings appear as diagonal energies.

Both rotating-frame builders include the device's dispersive (chi) and
loss-transition ZZ shifts, with each transmon-resonator (QR) tone on its
chi-shifted |e0> -> |f1> line, so a calibration sweep sees the same shifted
lines a scenario run simulates.  For chi = ZZ = 0 the shift terms are exact
zeros.  The lab frame has no shift terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    FULL_DIMS,
    QQ_DIMS,
    LabeledOperator,
    StateVector,
    basis_index,
    basis_state,
    destroy,
    identity,
    ket_projector,
    number,
    tensor,
)

TWOPI = 2.0 * math.pi

#: error-state mapping: E_jk is the single-photon-loss error state associated
#: with logical state j and loss index k, in the order
#: ``analysis.error_population`` sums their populations
ERROR_STATES = {"E02": "ge", "E01": "eg", "E12": "ef", "E11": "fe"}


@dataclass(frozen=True)
class DeviceParams:
    """Static device frequencies and couplings (MHz)."""

    omega_q1: float
    omega_q2: float
    alpha_1: float
    alpha_2: float
    omega_r1: float
    omega_r2: float
    chi_1: float = 0.0
    chi_2: float = 0.0
    zz_ff1: float = 0.0
    zz_ff2: float = 0.0
    J: tuple = ((0.0, 0.0), (0.0, 0.0))

    def __post_init__(self):
        if self.alpha_1 >= 0 or self.alpha_2 >= 0:
            raise ValueError("transmon anharmonicities must be negative")
        if self.omega_r1 <= self.omega_q1 or self.omega_r2 <= self.omega_q2:
            raise ValueError("resonators must sit above their transmons")
        object.__setattr__(self, "J", tuple(tuple(float(x) for x in row) for row in self.J))


@dataclass(frozen=True)
class DriveConfig:
    """Always-on sideband rates, detunings and phases.

    ``w_r``/``w_b`` are the red/blue QQ pair rates, ``nu_r``/``nu_b`` their
    detunings, ``omega_qr1``/``omega_qr2`` the transmon-resonator
    error-correcting sideband rates (all MHz).  ``phases`` are the four QQ
    drive phases in radians, ordered (red |gf>, red |fg>, blue |gg>,
    blue |ff>).
    """

    w_r: float = 0.0
    w_b: float = 0.0
    nu_r: float = 0.0
    nu_b: float = 0.0
    omega_qr1: float = 0.0
    omega_qr2: float = 0.0
    phases: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("w_r", "w_b", "omega_qr1", "omega_qr2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        phases = tuple(float(p) for p in self.phases)
        if len(phases) != 4:
            raise ValueError("phases must have four entries")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True)
class NoiseModel:
    """Lindblad channel timescales (us) and resonator parameters.

    Per-transmon entries are (Q1, Q2) pairs.  Infinite times switch the
    corresponding channel off.
    """

    t1_ge: tuple = (math.inf, math.inf)
    t1_ef: tuple = (math.inf, math.inf)
    t_phi: tuple = (math.inf, math.inf)
    t1_up: tuple = (math.inf, math.inf)
    kappa: tuple = (0.0, 0.0)
    n_res: float = 0.0
    t_phi_ff: float = math.inf

    def __post_init__(self):
        for name in ("t1_ge", "t1_ef", "t_phi", "t1_up", "kappa"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) != 2:
                raise ValueError(f"{name} must have one entry per transmon")
            object.__setattr__(self, name, vals)
        for name in ("t1_ge", "t1_ef", "t_phi", "t1_up"):
            if any(v <= 0 for v in getattr(self, name)):
                raise ValueError(f"{name} entries must be positive")
        if any(k < 0 for k in self.kappa):
            raise ValueError("kappa entries must be >= 0")
        if not (0.0 <= self.n_res < 1.0):
            raise ValueError("n_res must be in [0, 1)")
        if self.t_phi_ff <= 0:
            raise ValueError("t_phi_ff must be positive")


@dataclass(frozen=True)
class Tone:
    """Drive coefficient cos(2*pi*freq*t + phase), freq in MHz and t in us."""

    freq: float
    phase: float = 0.0

    def __call__(self, t):
        return math.cos(TWOPI * self.freq * t + self.phase)


@dataclass(frozen=True)
class HamiltonianSpec:
    """H(t) = constant + sum_k c_k(t) * O_k, already in angular units (rad/us).

    Every O_k is Hermitian and every c_k a real :class:`Tone`, so H(t) is
    Hermitian for all t.
    """

    constant: LabeledOperator
    driven: tuple = ()

    @property
    def dims(self):
        return self.constant.dims

    @property
    def time_dependent(self):
        return len(self.driven) > 0


# ---------------------------------------------------------------------------
# states

def _two_qutrit_amplitudes(label):
    amps = np.zeros(9, dtype=complex)

    def put(basis_label, value):
        amps[basis_index(QQ_DIMS, basis_label)] += value

    s = 1.0 / math.sqrt(2.0)
    if label == "L0":
        put("gf", s)
        put("fg", -s)
    elif label == "L1":
        put("gg", s)
        put("ff", -s)
    elif label == "Lx":
        # (L0 - L1)/sqrt(2): the combination with unit logical-X expectation
        put("gf", 0.5)
        put("fg", -0.5)
        put("gg", -0.5)
        put("ff", 0.5)
    elif label in ERROR_STATES:
        put(ERROR_STATES[label], 1.0)
    else:
        raise ValueError(f"unknown logical/error state label {label!r}")
    return amps


def logical_qutrit_state(label):
    """Named logical or error state on the bare two-qutrit (9-dim) space."""
    return StateVector(QQ_DIMS, _two_qutrit_amplitudes(label))


def logical_state(label):
    """Named logical or error state with both resonators in vacuum."""
    amps9 = _two_qutrit_amplitudes(label)
    vac = np.zeros(4)
    vac[0] = 1.0
    return StateVector(FULL_DIMS, np.kron(amps9, vac))


def named_state(label):
    """``logical_state(label)`` for a logical or error label, else the product
    basis state of FULL_DIMS that ``label`` names, e.g. ``'gf00'``."""
    try:
        return logical_state(label)
    except ValueError:
        return basis_state(FULL_DIMS, label)


# ---------------------------------------------------------------------------
# operator helpers on the full space
#
# The label-keyed operators are built once and cached: a LabeledOperator
# holds a read-only array, so no caller can alter a shared one.

def _embed_qq(op9):
    """Two-qutrit operator tensored with the two-resonator identity."""
    return tensor(LabeledOperator(QQ_DIMS, op9), identity(2), identity(2))


@functools.cache
def _p(label):
    """Two-transmon projector |ab><ab| x I4."""
    return _embed_qq(ket_projector(QQ_DIMS, label).data)


@functools.cache
def transmon_number(j):
    """n_qj on the full space (j = 1 or 2)."""
    ops = [number(3) if j == 1 else identity(3),
           number(3) if j == 2 else identity(3),
           identity(2), identity(2)]
    return tensor(ops)


@functools.cache
def resonator_number(j):
    ops = [identity(3), identity(3),
           number(2) if j == 1 else identity(2),
           number(2) if j == 2 else identity(2)]
    return tensor(ops)


@functools.cache
def _resonator_lowering(j):
    """Annihilation operator of resonator j on the full space (j = 1 or 2)."""
    return tensor(identity(3), identity(3),
                  destroy(2) if j == 1 else identity(2),
                  destroy(2) if j == 2 else identity(2))


def _qq_raising(drive):
    """The four |ee><..| raising parts, split into the red and blue pairs."""
    p0, p1, p2, p3 = (np.exp(1j * p) for p in drive.phases)
    red = 0.5 * drive.w_r * (
        p0 * ket_projector(QQ_DIMS, "ee", "gf").data
        + p1 * ket_projector(QQ_DIMS, "ee", "fg").data
    )
    blue = 0.5 * drive.w_b * (
        p2 * ket_projector(QQ_DIMS, "ee", "gg").data
        + p3 * ket_projector(QQ_DIMS, "ee", "ff").data
    )
    return _embed_qq(red), _embed_qq(blue)


def _qr_raising(drive):
    """Sum of both |e0> -> |f1> error-correcting sideband raising parts."""
    qr1 = 0.5 * drive.omega_qr1 * (
        _resonator_lowering(1).dag().data @ _embed_qq(
            ket_projector(QQ_DIMS, "fg", "eg").data
            + ket_projector(QQ_DIMS, "ff", "ef").data).data
    )
    qr2 = 0.5 * drive.omega_qr2 * (
        _resonator_lowering(2).dag().data @ _embed_qq(
            ket_projector(QQ_DIMS, "gf", "ge").data
            + ket_projector(QQ_DIMS, "ff", "fe").data).data
    )
    return LabeledOperator(FULL_DIMS, qr1 + qr2)


def _frame_diagonal(device):
    """Diagonal single-excitation and resonator terms shared by both rotating
    frames (MHz units, no detuning part)."""
    a1, a2 = device.alpha_1, device.alpha_2
    h = -0.5 * a1 * (_p("eg").data + _p("ef").data)
    h = h - 0.5 * a2 * (_p("ge").data + _p("fe").data)
    h = h - 0.5 * a1 * resonator_number(1).data
    h = h - 0.5 * a2 * resonator_number(2).data
    return h


def _hermitian_pair(raising):
    """Split W*O into the two Hermitian quadrature operators for a rotating
    coefficient: c(t)*O + c*(t)*O^dag = cos*(O+O^dag) + sin*(i(O-O^dag))."""
    o = raising.data
    return (LabeledOperator(raising.dims, o + o.conj().T),
            LabeledOperator(raising.dims, 1j * (o - o.conj().T)))


def build_rotating_hamiltonian(device, drive):
    """Fully-rotated (time-independent) frame Hamiltonian.

    Includes the dispersive and ZZ shifts, with both QR tones on the
    chi-shifted |e0> -> |f1> line, so the L0-branch correcting transitions
    are resonant.  The shift terms are diagonal and frame-invariant, so this
    equals :func:`build_static_hamiltonian` transformed to the
    time-independent frame.
    """
    h = _frame_diagonal(device)
    h = h - drive.nu_r * (_p("gf").data + _p("fg").data + _p("ge").data + _p("eg").data)
    h = h - drive.nu_b * (_p("gg").data + _p("ff").data + _p("ef").data + _p("fe").data)
    red, blue = _qq_raising(drive)
    qq = red.data + blue.data
    qr = _qr_raising(drive).data
    h = h + qq + qq.conj().T + qr + qr.conj().T
    return HamiltonianSpec(LabeledOperator(FULL_DIMS, TWOPI * h + _shifts(device)))


# The benchmark in perfbench/ traces and calls the Hamiltonian under this
# name; the package itself calls build_rotating_hamiltonian.
build_rotating_full_hamiltonian = build_rotating_hamiltonian


def build_static_hamiltonian(device, drive, *, red_offset=0.0, blue_offset=0.0,
                             qr_offset=0.0):
    """Logical-static frame: QQ terms carry explicit exp(2*pi*i*nu*t) phases.

    Includes the dispersive and ZZ shifts exactly as
    :func:`build_rotating_hamiltonian` does.  The keyword offsets (MHz) shift
    the red pair center, blue pair center, or both QR sideband frequencies
    away from those lines; they exist for calibration-style sweeps.
    """
    const = _frame_diagonal(device)
    driven = []
    red, blue, = _qq_raising(drive)
    qr = _qr_raising(drive)

    def add_rotating(raising, freq):
        if not np.any(raising.data):  # a tone at rate 0 drives nothing
            return
        cos_op, sin_op = _hermitian_pair(raising)
        if freq == 0.0:
            const_terms.append(cos_op.data)
        else:
            driven.append((Tone(freq), TWOPI * cos_op))
            driven.append((Tone(freq, -0.5 * math.pi), TWOPI * sin_op))

    const_terms = []
    add_rotating(red, drive.nu_r + red_offset)
    add_rotating(blue, drive.nu_b + blue_offset)
    add_rotating(qr, qr_offset)
    for term in const_terms:
        const = const + term
    return HamiltonianSpec(LabeledOperator(FULL_DIMS, TWOPI * const + _shifts(device)),
                           tuple(driven))


def dispersive_terms(device):
    """Resonator dispersive shifts and the loss-transition ZZ mismatches.

    Returns the Hermitian operator (angular units) adding chi_j n_qj n_rj
    plus single-level shifts -zz_ff1 |ef><ef| and -zz_ff2 |fe><fe|.  The sign
    and placement follow the mismatch definitions: zz_ffk is the detuning of
    the correction transition for transmon k when the partner holds its upper
    logical level, e.g. |ef> <-> |ff> sits zz_ff1 away from |eg> <-> |fg>.
    """
    extra = device.chi_1 * (transmon_number(1).data @ resonator_number(1).data)
    extra = extra + device.chi_2 * (transmon_number(2).data @ resonator_number(2).data)
    extra = extra - device.zz_ff1 * _p("ef").data - device.zz_ff2 * _p("fe").data
    return LabeledOperator(FULL_DIMS, TWOPI * extra)


def _shifts(device):
    """Dispersive and ZZ shifts (angular units) of both rotating frames, with
    each QR tone on its chi-shifted |e0> -> |f1> line.

    chi_j n_qj n_rj moves every state with transmon j in f and one photon in
    resonator j by 2*chi_j.  The tone is calibrated on the line that includes
    this shift, so resonator j's photon frame moves by -2*chi_j.
    |eg,0> <-> |fg,1> and |ge,0> <-> |gf,1> are then resonant and the L1
    branches sit zz_ff1 and zz_ff2 away.
    """
    frame = -2.0 * (device.chi_1 * resonator_number(1).data
                    + device.chi_2 * resonator_number(2).data)
    return dispersive_terms(device).data + TWOPI * frame


def _qq_tones(device, drive, scale):
    """(amplitude MHz, carrier MHz, phase) of the four lab-frame QQ flux tones."""
    s2 = math.sqrt(2.0)
    wq1 = scale * device.omega_q1
    wq2 = scale * device.omega_q2
    a1, a2 = device.alpha_1, device.alpha_2
    return [
        (drive.w_r / s2, wq2 - wq1 - a1 - drive.nu_r, drive.phases[0]),
        (drive.w_r / s2, wq2 - wq1 + a2 + drive.nu_r, drive.phases[1]),
        (drive.w_b, wq1 + wq2 - drive.nu_b, drive.phases[2]),
        (drive.w_b / 2.0, wq1 + wq2 + a1 + a2 + drive.nu_b, drive.phases[3]),
    ]


def build_lab_hamiltonian(device, drive, scale=1.0):
    """Lab-frame Hamiltonian with explicit carrier cosines.

    ``scale`` in (0, 1] multiplies the transmon and resonator frequencies (the
    carriers follow) so the fast oscillations become tractable at desk scale;
    detunings, rates and anharmonicities are untouched.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    wq1 = scale * device.omega_q1
    wq2 = scale * device.omega_q2
    wr1 = scale * device.omega_r1
    wr2 = scale * device.omega_r2
    a1, a2 = device.alpha_1, device.alpha_2

    aq1 = tensor(destroy(3), identity(3), identity(2), identity(2))
    aq2 = tensor(identity(3), destroy(3), identity(2), identity(2))
    ar1, ar2 = _resonator_lowering(1), _resonator_lowering(2)

    def duffing(aq, alpha):
        ad = aq.dag().data
        return 0.5 * alpha * (ad @ ad @ aq.data @ aq.data)

    const = (wq1 * transmon_number(1).data + wq2 * transmon_number(2).data
             + duffing(aq1, a1) + duffing(aq2, a2)
             + wr1 * resonator_number(1).data + wr2 * resonator_number(2).data)

    x1 = aq1.data + aq1.dag().data
    x2 = aq2.data + aq2.dag().data
    xr1 = ar1.data + ar1.dag().data
    xr2 = ar2.data + ar2.dag().data
    o_qq = LabeledOperator(FULL_DIMS, TWOPI * (x1 @ x2))
    o_qr1 = LabeledOperator(FULL_DIMS, TWOPI * (x1 @ xr1))
    o_qr2 = LabeledOperator(FULL_DIMS, TWOPI * (x2 @ xr2))

    s2 = math.sqrt(2.0)
    driven = [(Tone(f, ph), amp * o_qq)
              for amp, f, ph in _qq_tones(device, drive, scale) if amp > 0]
    if drive.omega_qr1 > 0:
        driven.append((Tone(wq1 + wr1 + a1), drive.omega_qr1 / s2 * o_qr1))
    if drive.omega_qr2 > 0:
        driven.append((Tone(wq2 + wr2 + a2), drive.omega_qr2 / s2 * o_qr2))
    return HamiltonianSpec(LabeledOperator(FULL_DIMS, TWOPI * const), tuple(driven))


def qq_drive_amplitude(device, drive, t, scale=1.0):
    """Lab-frame flux-drive waveform A_QQ(t) in MHz (sum of the four tones)."""
    return sum(amp * Tone(f, ph)(t) for amp, f, ph in _qq_tones(device, drive, scale))


# ---------------------------------------------------------------------------
# noise

@functools.cache
def _transmon_jump(j, to, frm):
    """|to><frm| on transmon j (levels g=0, e=1, f=2) on the full space."""
    op3 = np.zeros((3, 3))
    op3[to, frm] = 1.0
    return tensor([LabeledOperator((3,), op3) if j == 1 else identity(3),
                   LabeledOperator((3,), op3) if j == 2 else identity(3),
                   identity(2), identity(2)])


def collapse_operators(noise):
    """Lindblad collapse operators, each pre-scaled by sqrt(rate in 1/us).

    Resonator rates are angular (2*pi*kappa); transmon channels use the bare
    inverse times.  Channels with infinite timescale (or zero rate) are
    omitted.
    """
    ops = []
    for j in (1, 2):
        i = j - 1
        if math.isfinite(noise.t1_ge[i]):
            ops.append(math.sqrt(1.0 / noise.t1_ge[i]) * _transmon_jump(j, 0, 1))
        if math.isfinite(noise.t1_ef[i]):
            ops.append(math.sqrt(1.0 / noise.t1_ef[i]) * _transmon_jump(j, 1, 2))
        if math.isfinite(noise.t1_up[i]):
            ops.append(math.sqrt(1.0 / noise.t1_up[i]) * _transmon_jump(j, 1, 0))
            ops.append(math.sqrt(2.0 / noise.t1_up[i]) * _transmon_jump(j, 2, 1))
        if math.isfinite(noise.t_phi[i]):
            ops.append(math.sqrt(1.0 / noise.t_phi[i]) * _transmon_jump(j, 1, 1))
            ops.append(math.sqrt(1.0 / noise.t_phi[i]) * _transmon_jump(j, 2, 2))

    for j, kappa in zip((1, 2), noise.kappa):
        if kappa <= 0:
            continue
        a = _resonator_lowering(j)
        ops.append(math.sqrt(TWOPI * kappa) * a)
        if noise.n_res > 0:
            ops.append(math.sqrt(TWOPI * kappa * noise.n_res) * a.dag())

    if math.isfinite(noise.t_phi_ff):
        ops.append(math.sqrt(2.0 / noise.t_phi_ff) * _p("ff"))
    return ops
