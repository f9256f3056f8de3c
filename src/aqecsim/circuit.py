"""Lumped-circuit estimates for the flux-coupled two-transmon device.

The linearized three-node circuit (two transmons plus an inductive coupler
node, flux-biased through a split junction) gives normal-mode frequencies;
an adiabatic elimination of the heavy coupler mode gives the static
inductive/capacitive couplings and the parametric pair-exchange ("sideband")
rates under RF flux modulation.

Conventions: capacitances in fF, Josephson energies in GHz, fluxes in units
of the flux quantum (so every trigonometric argument is pi * flux).  The
charging-energy scale is 2 e^2 / (h * 1 fF) = 77.46 GHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import QQ_DIMS, destroy, tensor

#: kinetic prefactor 2 e^2 / h for C in fF, in GHz
CHARGE_SCALE_GHZ_FF = 77.46


class FluxSingularityError(ValueError):
    """Flux bias too close to half a flux quantum (diverging 1/cos)."""


@dataclass(frozen=True)
class CircuitParams:
    """Node capacitances (fF) and junction energies (GHz)."""

    c_q1: float
    c_q2: float
    c_c: float
    c_q12: float
    e_j1: float
    e_j2: float
    e_jc: float

    def __post_init__(self):
        for name in ("c_q1", "c_q2", "c_c", "c_q12", "e_j1", "e_j2", "e_jc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _check_flux(phi):
    c = math.cos(math.pi * phi)
    if abs(c) < 1e-6:
        raise FluxSingularityError(
            f"flux {phi} is too close to half a flux quantum")
    return c


def capacitance_matrix(circuit):
    """3x3 node capacitance matrix (order: transmon 1, transmon 2, coupler)."""
    c = circuit
    return np.array([
        [c.c_q1 + c.c_q12, -c.c_q12, 0.0],
        [-c.c_q12, c.c_q2 + c.c_q12, 0.0],
        [0.0, 0.0, c.c_q1 + c.c_q2 + c.c_c],
    ])


def _quadratic_forms(circuit, phi_ext):
    """Kinetic (n^T A n) and potential (phi^T B phi) coefficient matrices."""
    cos = _check_flux(phi_ext)
    cl = capacitance_matrix(circuit)
    if abs(np.linalg.det(cl)) < 1e-12:
        raise ValueError("singular capacitance matrix")
    a = CHARGE_SCALE_GHZ_FF * np.linalg.inv(cl)
    ej1, ej2, ejc = circuit.e_j1, circuit.e_j2, circuit.e_jc
    b = 0.5 * np.array([
        [ej1, 0.0, -ej1],
        [0.0, ej2, -ej2],
        [-ej1, -ej2, ej1 + ej2 + ejc * cos],
    ])
    return a, b


def normal_modes(circuit, phi_ext):
    """Normal-mode frequencies (GHz, ascending) and congruence transform U.

    Diagonalizes the quadratic charge/phase Hamiltonian of the three-node
    circuit; the returned U maps normal-mode phase coordinates to node phases
    (node_phi = U @ mode_phi) and reduces the kinetic form to the identity.
    Frequencies are 2 sqrt(eigenvalues) of the congruence-diagonalized
    potential.
    """
    a, b = _quadratic_forms(circuit, phi_ext)
    # congruence via the kinetic form's symmetric square root
    vals_a, vecs_a = np.linalg.eigh(a)
    if np.min(vals_a) <= 0:
        raise ValueError("kinetic form is not positive definite")
    sqrt_a = (vecs_a * np.sqrt(vals_a)) @ vecs_a.T
    s = sqrt_a @ b @ sqrt_a
    lam, v = np.linalg.eigh(0.5 * (s + s.T))
    if np.min(lam) <= 0:
        raise ValueError("potential form is not positive definite at this flux")
    order = np.argsort(lam)
    lam = lam[order]
    u = sqrt_a @ v[:, order]
    freqs = 2.0 * np.sqrt(lam)
    return freqs, u


def adiabatic_couplings(circuit, phi_dc, omega_q1, omega_q2):
    """Static inductive (g1) and capacitive (g2) transmon-transmon couplings.

    Both in GHz: g1 = sqrt(Ej1 Ej2)/(2 Ejc cos(pi phi)) * sqrt(w1 w2) and
    g2 = sqrt(Cq1 Cq2)/(2 Cq12) * sqrt(w1 w2).
    """
    cos = _check_flux(phi_dc)
    root_w = math.sqrt(omega_q1 * omega_q2)
    g1 = math.sqrt(circuit.e_j1 * circuit.e_j2) / (2.0 * circuit.e_jc * cos) * root_w
    g2 = math.sqrt(circuit.c_q1 * circuit.c_q2) / (2.0 * circuit.c_q12) * root_w
    return g1, g2


def bosonic_matrix_element(psi_1, psi_2):
    """|<psi_1| (a1 + a1^dag)(a2 + a2^dag) |psi_2>| on the two-qutrit space."""
    if psi_1.dims != QQ_DIMS or psi_2.dims != QQ_DIMS:
        raise ValueError("sideband endpoints must be two-qutrit states")
    op = tensor(*(a + a.dag() for a in map(destroy, QQ_DIMS))).data
    return abs(np.vdot(psi_1.amplitudes, op @ psi_2.amplitudes))


def qq_sideband_rate(circuit, phi_dc, eps, pair, omega_q1, omega_q2):
    """Parametric transmon-transmon sideband rate (GHz) under flux modulation.

    First order in the modulation amplitude eps (radians of pi*flux):
    sqrt(Ej1 Ej2)/(2 Ejc) sqrt(w1 w2) eps tan(pi phi)/cos(pi phi) times the
    bosonic matrix element between the connected states.
    """
    if eps < 0:
        raise ValueError("modulation amplitude must be >= 0")
    cos = _check_flux(phi_dc)
    tan = math.tan(math.pi * phi_dc)
    psi_1, psi_2 = pair
    a12 = bosonic_matrix_element(psi_1, psi_2)
    return (math.sqrt(circuit.e_j1 * circuit.e_j2) / (2.0 * circuit.e_jc)
            * math.sqrt(omega_q1 * omega_q2) * eps * tan / cos * a12)


def qr_sideband_rate(g_qr, eps_q, delta):
    """Second-order transmon-resonator sideband rate 16 g^3 eps^2 / delta^4.

    All arguments in MHz (any consistent unit works; the result carries
    unit^(1): MHz in, MHz out).
    """
    if delta == 0:
        raise ValueError("transmon-resonator detuning must be nonzero")
    return 16.0 * g_qr**3 * eps_q**2 / delta**4
