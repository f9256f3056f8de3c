"""Device model: logical states, drive Hamiltonians, and noise channels.

All frequencies are ordinary frequencies in MHz and all times in microseconds.
The single 2*pi conversion to angular units happens here, during Hamiltonian
and collapse-operator assembly; nothing downstream applies it again.

The six always-on sideband drives are written once, in :data:`DRIVES`, and
all three frames are derived from that table, one builder each.  A driven
term at frequency f is the pair (Tone(f), O), (Tone(-f), O^dag).

* lab frame (:func:`build_lab_hamiltonian`) -- Duffing transmons plus
  explicitly modulated charge/flux coupling products, one carrier pair per
  drive, read off the lab levels and couplings,
* logical-static frame (:func:`build_static_hamiltonian`) -- all logical
  states at zero energy, one pair per sweep axis at its detuning,
* fully-rotated frame (:func:`build_rotating_hamiltonian`) -- time
  independent, detunings appear as diagonal energies.

Both rotating-frame builders include the device's dispersive (chi) and
loss-transition ZZ shifts, with each transmon-resonator (QR) tone on its
chi-shifted |e0> -> |f1> line, so a calibration sweep sees the same shifted
lines a scenario run simulates.  For chi = ZZ = 0 the shift terms are exact
zeros.  The lab frame has no shift terms.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
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
    embed,
    ket_projector,
    number,
)

TWOPI = 2.0 * math.pi

#: The code, written once: each logical basis state L = (|a> - |b>)/sqrt(2)
#: has codeword ``levels`` (a, b) and single-photon-loss error states E_jk
#: (logical state j, loss index k) -> level, in the order
#: ``analysis.error_population`` sums their populations.
Codeword = namedtuple("Codeword", "levels errors")
CODE = {"L0": Codeword(("gf", "fg"), {"E02": "ge", "E01": "eg"}),
        "L1": Codeword(("gg", "ff"), {"E12": "ef", "E11": "fe"})}
ERROR_STATES = {e: level for cw in CODE.values() for e, level in cw.errors.items()}
#: the states a scenario starts from: both basis states and Lx = (L0 - L1)/sqrt(2)
LOGICAL_STATES = ("L0", "L1", "Lx")


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

    def __post_init__(self):
        if self.alpha_1 >= 0 or self.alpha_2 >= 0:
            raise ValueError("transmon anharmonicities must be negative")
        if self.omega_r1 <= self.omega_q1 or self.omega_r2 <= self.omega_q2:
            raise ValueError("resonators must sit above their transmons")


@dataclass(frozen=True)
class DriveConfig:
    """Always-on sideband rates, detunings and phases.

    ``w_r``/``w_b`` are the red/blue QQ pair rates, ``nu_r``/``nu_b`` their
    detunings, ``omega_qr1``/``omega_qr2`` the transmon-resonator
    error-correcting sideband rates (all MHz).  ``phases`` are the four QQ
    drive phases phi_k in radians: drive k couples (W/2) exp(i phi_k)
    |ee><level_k| with level_k in the order gf, fg (red), gg, ff (blue),
    identically in all three frames.
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
    """Drive coefficient exp(2*pi*i*freq*t), freq in MHz (either sign) and t in us."""

    freq: float

    def __call__(self, t):
        return cmath.exp(1j * TWOPI * self.freq * t)


@dataclass(frozen=True)
class HamiltonianSpec:
    """H(t) = constant + sum_k c_k(t) * O_k, already in angular units (rad/us).

    The driven terms come in pairs (Tone(f), O), (Tone(-f), O^dag), one per
    drive, so H(t) is Hermitian for all t (``solver.evolve`` checks it).
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
    if label in ERROR_STATES:
        terms = [(ERROR_STATES[label], 1.0)]
    elif label in LOGICAL_STATES:
        # Lx = (L0 - L1)/sqrt(2), the combination with unit logical-X
        # expectation, with its amplitudes written as exact halves
        weights = {"L0": 0.5, "L1": -0.5} if label == "Lx" else {label: 1.0 / math.sqrt(2.0)}
        terms = [(level, sign * w) for logical, w in weights.items()
                 for level, sign in zip(CODE[logical].levels, (1.0, -1.0))]
    else:
        raise ValueError(f"unknown logical/error state label {label!r}")
    amps = np.zeros(math.prod(QQ_DIMS), dtype=complex)
    for level, value in terms:
        amps[basis_index(QQ_DIMS, level)] += value
    return amps


def logical_qutrit_state(label):
    """Named logical or error state on the bare two-qutrit (9-dim) space."""
    return StateVector(QQ_DIMS, _two_qutrit_amplitudes(label))


def logical_state(label):
    """Named logical or error state with both resonators in vacuum."""
    vacuum = basis_state(FULL_DIMS[len(QQ_DIMS):], "00")
    return StateVector(FULL_DIMS, np.kron(_two_qutrit_amplitudes(label), vacuum.amplitudes))


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
# Each is one operators.embed call: transmon j is subsystem j - 1 and
# resonator j is subsystem j + 1.  The label-keyed operators are built once
# and cached: a LabeledOperator holds a read-only array, so no caller can
# alter a shared one.

@functools.cache
def _p(label):
    """Two-transmon projector |ab><ab| on the full space."""
    return embed({0: ket_projector(QQ_DIMS, label)})


@functools.cache
def transmon_number(j):
    """n_qj on the full space (j = 1 or 2)."""
    return embed({j - 1: number(FULL_DIMS[j - 1])})


@functools.cache
def resonator_number(j):
    return embed({j + 1: number(FULL_DIMS[j + 1])})


@functools.cache
def _resonator_lowering(j):
    """Annihilation operator of resonator j on the full space (j = 1 or 2)."""
    return embed({j + 1: destroy(FULL_DIMS[j + 1])})


#: One always-on sideband drive: it raises each (to, from) two-transmon
#: transition at DriveConfig.<rate>/2, times exp(i phases[phase]) for a QQ
#: drive or times a photon added to ``resonator`` for a QR drive; ``detuning``
#: names its DriveConfig detuning field and ``axis`` its sweep axis.
_Drive = namedtuple("_Drive", "axis rate detuning phase resonator transitions")

#: The six drives, in the order every builder adds their terms.  A QR drive
#: sits on its chi-shifted line and has no detuning or phase; its second
#: transition is the zz-shifted L1 branch of the first, which alone sets the
#: lab carrier.
DRIVES = (
    _Drive("red_pair_center", "w_r", "nu_r", 0, None, (("ee", "gf"),)),
    _Drive("red_pair_center", "w_r", "nu_r", 1, None, (("ee", "fg"),)),
    _Drive("blue_pair_center", "w_b", "nu_b", 2, None, (("ee", "gg"),)),
    _Drive("blue_pair_center", "w_b", "nu_b", 3, None, (("ee", "ff"),)),
    _Drive("qr_frequency", "omega_qr1", None, None, 1, (("fg", "eg"), ("ff", "ef"))),
    _Drive("qr_frequency", "omega_qr2", None, None, 2, (("gf", "ge"), ("ff", "fe"))),
)

#: sweep axis -> the :func:`build_static_hamiltonian` keyword that offsets it
SWEEP_AXES = {"red_pair_center": "red_offset", "blue_pair_center": "blue_offset",
              "qr_frequency": "qr_offset"}


@functools.cache
def _drive_operator(d):
    """Sum of a drive's |to><from| on the full space, times a_r^dag for a QR drive."""
    op9 = sum(ket_projector(QQ_DIMS, to, frm).data for to, frm in d.transitions)
    parts = {0: LabeledOperator(QQ_DIMS, op9)}
    if d.resonator is not None:
        parts[d.resonator + 1] = destroy(FULL_DIMS[d.resonator + 1]).dag()
    return embed(parts)


def _raising(drive):
    """{axis: (detuning MHz, raising part)}: the sum over the axis's drives of
    (W/2) exp(i phi) times the drive operator."""
    out = {}
    for d in DRIVES:
        coeff = 0.5 * getattr(drive, d.rate)
        if d.phase is not None:
            coeff = coeff * np.exp(1j * drive.phases[d.phase])
        op = coeff * _drive_operator(d)
        nu = getattr(drive, d.detuning) if d.detuning else 0.0
        out[d.axis] = (nu, out[d.axis][1] + op if d.axis in out else op)
    return out


def _frame_diagonal(device):
    """Diagonal single-excitation and resonator terms shared by both rotating
    frames (MHz units, no detuning part)."""
    a1, a2 = device.alpha_1, device.alpha_2
    h = -0.5 * a1 * (_p("eg").data + _p("ef").data)
    h = h - 0.5 * a2 * (_p("ge").data + _p("fe").data)
    h = h - 0.5 * a1 * resonator_number(1).data
    h = h - 0.5 * a2 * resonator_number(2).data
    return h


def build_rotating_hamiltonian(device, drive):
    """Fully-rotated (time-independent) frame Hamiltonian.

    Includes the dispersive and ZZ shifts, with both QR tones on the
    chi-shifted |e0> -> |f1> line, so the L0-branch correcting transitions
    are resonant.  The shift terms are diagonal and frame-invariant, so this
    equals :func:`build_static_hamiltonian` transformed to the
    time-independent frame.
    """
    h = _frame_diagonal(device)
    # each pair detuning shifts one branch: its codewords and their error levels
    for nu, logical in ((drive.nu_r, "L0"), (drive.nu_b, "L1")):
        branch = CODE[logical].levels + tuple(CODE[logical].errors.values())
        h = h - nu * sum(_p(level).data for level in branch)
    for _, raising in _raising(drive).values():
        h = h + raising.data + raising.data.conj().T
    return HamiltonianSpec(LabeledOperator(FULL_DIMS, TWOPI * h + _shifts(device)))


# The benchmark in perfbench/ traces and calls the Hamiltonian under this
# name; the package itself calls build_rotating_hamiltonian.
build_rotating_full_hamiltonian = build_rotating_hamiltonian


def build_static_hamiltonian(device, drive, *, red_offset=0.0, blue_offset=0.0,
                             qr_offset=0.0):
    """Logical-static frame: each axis's raising part O at exp(2*pi*i*f*t), O^dag at -f.

    Includes the dispersive and ZZ shifts exactly as
    :func:`build_rotating_hamiltonian` does.  The keyword offsets (MHz) shift
    the red pair center, blue pair center, or both QR sideband frequencies
    away from those lines; they exist for calibration-style sweeps.
    """
    const, driven = _frame_diagonal(device), []
    offsets = dict(red_offset=red_offset, blue_offset=blue_offset, qr_offset=qr_offset)
    for axis, (nu, raising) in _raising(drive).items():
        if not np.any(raising.data):  # a tone at rate 0 drives nothing
            continue
        freq = nu + offsets[SWEEP_AXES[axis]]
        if freq == 0.0:
            const = const + (raising + raising.dag()).data
        else:
            driven += [(Tone(freq), TWOPI * raising), (Tone(-freq), TWOPI * raising.dag())]
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


def _lab_frame(device, drive, scale):
    """Lab constant H (MHz) and (drive, amplitude MHz, carrier MHz, phase, 2*pi*X)
    for each drive of :data:`DRIVES` with a nonzero rate.

    X is the coupling product the drive modulates (x1 x2, x1 xr1 or x2 xr2).
    The carrier is the lab gap of the first transition minus the detuning (it
    may be negative), the amplitude the rate over |<to|X|from>| and the phase
    -phi, so the near-resonant part is (rate/2) exp(i phi) |to><from| in the
    frame of the constant H, as in both rotating frames.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must lie in (0, 1]")
    aq1, aq2 = (embed({k: destroy(FULL_DIMS[k])}) for k in (0, 1))

    def duffing(aq, alpha):
        ad = aq.dag().data
        return 0.5 * alpha * (ad @ ad @ aq.data @ aq.data)

    const = (scale * device.omega_q1 * transmon_number(1).data
             + scale * device.omega_q2 * transmon_number(2).data
             + duffing(aq1, device.alpha_1) + duffing(aq2, device.alpha_2)
             + scale * device.omega_r1 * resonator_number(1).data
             + scale * device.omega_r2 * resonator_number(2).data)
    x1, x2, xr1, xr2 = (a.data + a.dag().data for a in
                        (aq1, aq2, _resonator_lowering(1), _resonator_lowering(2)))
    couplings = {None: x1 @ x2, 1: x1 @ xr1, 2: x2 @ xr2}

    tones = []
    for d in (d for d in DRIVES if getattr(drive, d.rate) > 0):
        # the first transition from the vacuum: its column holds one entry
        j = basis_index(FULL_DIMS, d.transitions[0][1] + "00")
        (i,) = np.flatnonzero(_drive_operator(d).data[:, j])
        carrier = float((const[i, i] - const[j, j]).real)
        carrier -= getattr(drive, d.detuning) if d.detuning else 0.0
        phase = -drive.phases[d.phase] if d.phase is not None else 0.0
        x = couplings[d.resonator]
        tones.append((d, getattr(drive, d.rate) / abs(x[i, j]), carrier, phase,
                      LabeledOperator(FULL_DIMS, TWOPI * x)))
    return const, tones


def build_lab_hamiltonian(device, drive, scale=1.0):
    """Lab-frame Hamiltonian, each drive's carrier cosine as its two exponentials.

    ``scale`` in (0, 1] multiplies the transmon and resonator frequencies (the
    carriers follow) so the fast oscillations become tractable at desk scale;
    detunings, rates and anharmonicities are untouched.
    """
    const, tones = _lab_frame(device, drive, scale)
    driven = []
    for _, amp, carrier, phase, x in tones:
        op = 0.5 * amp * cmath.exp(1j * phase) * x
        driven += [(Tone(carrier), op), (Tone(-carrier), op.dag())]
    return HamiltonianSpec(LabeledOperator(FULL_DIMS, TWOPI * const), tuple(driven))


def qq_drive_amplitude(device, drive, t, scale=1.0):
    """Lab-frame flux-drive waveform A_QQ(t) in MHz (sum of the four QQ tones)."""
    _, tones = _lab_frame(device, drive, scale)
    return sum(amp * math.cos(TWOPI * carrier * t + phase)
               for d, amp, carrier, phase, _ in tones if d.resonator is None)


# ---------------------------------------------------------------------------
# noise

@functools.cache
def _transmon_jump(j, to, frm):
    """|to><frm| on transmon j, levels named "g", "e" or "f", on the full space."""
    return embed({j - 1: ket_projector(FULL_DIMS[j - 1:j], to, frm)})


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
            ops.append(math.sqrt(1.0 / noise.t1_ge[i]) * _transmon_jump(j, "g", "e"))
        if math.isfinite(noise.t1_ef[i]):
            ops.append(math.sqrt(1.0 / noise.t1_ef[i]) * _transmon_jump(j, "e", "f"))
        if math.isfinite(noise.t1_up[i]):
            ops.append(math.sqrt(1.0 / noise.t1_up[i]) * _transmon_jump(j, "e", "g"))
            ops.append(math.sqrt(2.0 / noise.t1_up[i]) * _transmon_jump(j, "f", "e"))
        if math.isfinite(noise.t_phi[i]):
            ops.append(math.sqrt(1.0 / noise.t_phi[i]) * _transmon_jump(j, "e", "e"))
            ops.append(math.sqrt(1.0 / noise.t_phi[i]) * _transmon_jump(j, "f", "f"))

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
