"""Coherence metrics, exponential decay fits, and level-shift diagnostics.

Covers three groups of tools:

* logical-state figures of merit (error-state population and the most
  sensitive off-diagonal coherence element), for one density matrix or for
  every snapshot of a trajectory at once,
* nonlinear exponential fitting with an optional initial skip window,
* second-order level-shift formulas for a detuned two-transmon sideband drive,
  with the residual test for transparency of the correction cycle to single
  photon loss and a root-find that cancels the residual with two extra drives.

Frequencies are ordinary MHz, times microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit, root

from . import model
from .operators import FULL_DIMS, QQ_DIMS, DensityMatrix, basis_index, ket_projector, trace_out
# Not called here; the benchmark's tracer wraps it under this name too.
from .operators import partial_trace  # noqa: F401


class FitError(RuntimeError):
    """Exponential fit could not identify a decay constant."""


@dataclass(frozen=True)
class DecayFit:
    """Result of fitting y = A exp(-t/tau) + C."""

    a: float
    tau: float
    c: float
    sigma_tau: float
    residual_norm: float

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.sigma_tau < 0:
            raise ValueError("sigma_tau must be >= 0")

    def summary_fields(self):
        """Flat name -> value mapping for the CLI summary document."""
        return {"A": self.a, "tau_us": self.tau, "C": self.c,
                "sigma_tau_us": self.sigma_tau,
                "residual_norm": self.residual_norm}


@dataclass(frozen=True)
class LevelSpec:
    """Two-transmon level energies E[j, k] (MHz), j/k = photons in Q1/Q2.

    The ground level E[0, 0] is the zero reference.
    """

    energies: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if e.shape != (3, 3):
            raise ValueError("energies must be a 3x3 table")
        if abs(e[0, 0]) > 1e-12:
            raise ValueError("E[0,0] must be 0 (reference level)")
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)

    @staticmethod
    def harmonic(omega_1, omega_2):
        """Additive spectrum E_jk = j*omega_1 + k*omega_2."""
        j = np.arange(3)[:, None]
        k = np.arange(3)[None, :]
        return LevelSpec(j * float(omega_1) + k * float(omega_2))

    @staticmethod
    def from_transition_data(omega_q1, omega_q2, alpha_1, alpha_2,
                             zz_ge=0.0, zz_ef2=0.0, zz_ff1=0.0, zz_ff2=0.0):
        """Level table from transmon frequencies and measured cross shifts.

        ``zz_ge`` shifts the doubly excited |ee> level; ``zz_ff1``/``zz_ff2``
        are the loss-transition mismatches (E_ff-E_ef)-(E_fg-E_eg) and
        (E_ff-E_fe)-(E_gf-E_ge); ``zz_ef2`` fixes the remaining |ef> level via
        (E_ef-E_ee)-(E_gf-E_ge).  Measured shift tables are overdetermined, so
        only this four-value subset is consumed; it pins both loss-transition
        residuals exactly.
        """
        e = np.zeros((3, 3))
        e[1, 0] = omega_q1
        e[0, 1] = omega_q2
        e[2, 0] = 2 * omega_q1 + alpha_1
        e[0, 2] = 2 * omega_q2 + alpha_2
        e[1, 1] = e[1, 0] + e[0, 1] + zz_ge
        e[1, 2] = e[1, 1] + (e[0, 2] - e[0, 1]) + zz_ef2
        e[2, 2] = e[1, 2] + (e[2, 0] - e[1, 0]) + zz_ff1
        e[2, 1] = e[2, 2] - (e[0, 2] - e[0, 1]) - zz_ff2
        return LevelSpec(e)


# ---------------------------------------------------------------------------
# state metrics

def _two_qutrit(rho):
    """(nt, 9, 9) two-qutrit stack of a Trajectory, (1, 9, 9) of one state."""
    if rho.dims not in (QQ_DIMS, FULL_DIMS):
        raise ValueError(f"unsupported state dims {rho.dims}")
    return trace_out(rho, range(len(QQ_DIMS)))[1]


def _per_state(rho, values):
    """The (nt,) values of a Trajectory, or the one value of a single state."""
    return float(values[0]) if isinstance(rho, DensityMatrix) else values


def error_population(rho, label):
    """Total population in the single-photon-loss error states for a label.

    ``rho`` is a density matrix (two-qutrit or full space), which gives a
    float, or a Trajectory, which gives one value per snapshot.  A logical
    basis state counts its own error states (``model.CODE``); Lx counts all
    four.
    """
    if label not in model.LOGICAL_STATES:
        raise ValueError(f"unknown logical label {label!r}")
    r9 = _two_qutrit(rho)
    idx = [basis_index(QQ_DIMS, s) for logical, cw in model.CODE.items()
           if label in (logical, "Lx") for s in cw.errors.values()]
    return _per_state(rho, sum(r9[:, i, i].real for i in idx))


_HALF_X = 0.5 * (ket_projector(QQ_DIMS, "gg", "gf").data
                 + ket_projector(QQ_DIMS, "gg", "ff").data
                 + ket_projector(QQ_DIMS, "fg", "gf").data
                 + ket_projector(QQ_DIMS, "fg", "ff").data)
#: (|gg>+|fg>)(<gf|+<ff|)/2 + h.c. on the two-qutrit space
_X_TILDE = _HALF_X + _HALF_X.conj().T


def _abs(z):
    """Elementwise |z|.  hypot gives the bits of abs() on one complex number,
    which the vectorized np.abs loop can miss in the last place."""
    return np.hypot(z.real, z.imag)


def coherence_metric(rho, label):
    """Magnitude of the label's most decay-sensitive off-diagonal element.

    Normalized so the perfect logical state scores 1: twice |<a|rho|b>| over
    the codeword levels (a, b) of a basis logical state (``model.CODE``:
    gf, fg for L0 and gg, ff for L1), and |Tr(rho X)| for their
    balanced superposition, where X is the transparent logical-flip operator.
    Takes the same inputs as :func:`error_population`.
    """
    r9 = _two_qutrit(rho)
    if label in model.CODE:
        a, b = (basis_index(QQ_DIMS, s) for s in model.CODE[label].levels)
        values = 2.0 * _abs(r9[:, a, b])
    elif label == "Lx":
        values = _abs(np.trace(r9 @ _X_TILDE, axis1=1, axis2=2))
    else:
        raise ValueError(f"unknown logical label {label!r}")
    return _per_state(rho, values)


# ---------------------------------------------------------------------------
# exponential fitting

# Largest fitted tau, in units of the fitted span, that counts as identified.
TAU_SPAN_MAX = 100.0


def fit_exponential(t, y, skip_initial=0.0, p0=None):
    """Least-squares fit of A*exp(-t/tau) + C with all three parameters free.

    Samples with t < skip_initial are excluded (at least 4 must remain).
    ``sigma_tau`` comes from the fit covariance.  Constant data, a growing
    exponential (tau < 0) and tau above ``TAU_SPAN_MAX`` times the fitted
    span (a decay the window cannot resolve, also what a growing series
    fitted from the default start converges to) raise :class:`FitError`.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and y must be 1-D arrays of equal length")
    mask = t >= skip_initial
    tf, yf = t[mask], y[mask]
    if len(tf) < 4:
        raise ValueError("need at least 4 samples after the skip window")
    if np.max(yf) - np.min(yf) < 1e-12:
        raise FitError("constant series: decay constant unidentifiable")

    def f(tt, a, tau, c):
        # a trial tau near 0 overflows exp; its inf residual is rejected
        with np.errstate(over="ignore"):
            return a * np.exp(-tt / tau) + c

    span = tf[-1] - tf[0]
    if p0 is None:
        p0 = (yf[0] - yf[-1], max(span / 3.0, 1e-3), yf[-1])
    try:
        popt, pcov = curve_fit(f, tf, yf, p0=p0, maxfev=20000)
    except RuntimeError as exc:
        raise FitError(f"exponential fit did not converge: {exc}") from exc
    a, tau, c = popt
    if tau < 0:  # exp(-t/tau) with tau<0 is a growth fit of -A; renormalize
        raise FitError(f"fit converged to a growing exponential (tau={tau:.3g})")
    if tau > TAU_SPAN_MAX * span:
        raise FitError(f"fitted tau={tau:.3g} exceeds {TAU_SPAN_MAX:g}x the fitted "
                       f"span {span:.3g}: decay constant unidentifiable")
    sigma_tau = float(np.sqrt(pcov[1, 1])) if np.isfinite(pcov[1, 1]) else 0.0
    resid = float(np.linalg.norm(f(tf, *popt) - yf))
    return DecayFit(float(a), float(tau), float(c), sigma_tau, resid)


# ---------------------------------------------------------------------------
# second-order shifts from detuned sideband drives

def _shift_terms(kind, j, k):
    """(bosonic prefactor, target level) pairs for the four-term expression."""
    if kind == "red":
        return ((j * (k + 1), (j - 1, k + 1)), ((j + 1) * k, (j + 1, k - 1)))
    if kind == "blue":
        return (((j + 1) * (k + 1), (j + 1, k + 1)), (j * k, (j - 1, k - 1)))
    raise ValueError(f"kind must be 'red' or 'blue', got {kind!r}")


def dispersive_shift(levels, g, nu, kind, j, k):
    """Second-order energy shift (MHz) of level (j, k) from a detuned drive.

    A sideband of coupling g (MHz) detuned by nu from the pair-exchange (red)
    or pair-creation (blue) transition shifts each level by the four-term sum
    over both virtual transitions and both rotating components (+-nu).  Levels
    outside the 3x3 table are truncated away (their ladder elements vanish).
    """
    e = levels.energies
    if not (0 <= j <= 2 and 0 <= k <= 2):
        raise ValueError("level indices must lie in 0..2")
    total = 0.0
    for pref, (ja, ka) in _shift_terms(kind, j, k):
        if pref == 0 or not (0 <= ja <= 2 and 0 <= ka <= 2):
            continue
        gap = e[j, k] - e[ja, ka]
        for sign in (-1.0, +1.0):
            denom = gap + sign * nu
            if abs(denom) < 1e-6:
                raise ValueError(
                    f"near-resonant denominator for ({j},{k})<->({ja},{ka}) "
                    f"at detuning {sign * nu:+g} MHz")
            total += g * g * pref / denom
    return total


def error_transparency_residual(levels):
    """Loss-transition energy mismatches ((MHz, MHz)); (0, 0) is transparent.

    Returns (E22-E12)-(E20-E10) and (E22-E21)-(E02-E01): the differences in
    the energy released by a single photon loss from the doubly excited level,
    depending on the partner transmon's state.
    """
    e = levels.energies
    r1 = (e[2, 2] - e[1, 2]) - (e[2, 0] - e[1, 0])
    r2 = (e[2, 2] - e[2, 1]) - (e[0, 2] - e[0, 1])
    return (r1, r2)


def shifted_levels(levels, sidebands):
    """Apply dispersive shifts from a list of (g, nu, kind) drives."""
    e = levels.energies.copy()
    shifts = np.zeros((3, 3))
    for j in range(3):
        for k in range(3):
            for g, nu, kind in sidebands:
                shifts[j, k] += dispersive_shift(levels, g, nu, kind, j, k)
    e = e + shifts - shifts[0, 0]
    return LevelSpec(e)


def _seed_grid(levels, kind):
    """Candidate drive frequencies bracketing the kind's virtual transitions."""
    e = levels.energies
    gaps = []
    for j in range(3):
        for k in range(3):
            for pref, (ja, ka) in _shift_terms(kind, j, k):
                if pref and 0 <= ja <= 2 and 0 <= ka <= 2:
                    gaps.append(abs(e[j, k] - e[ja, ka]))
    lo, hi = 0.2 * min(gaps) + 1.0, 2.0 * max(gaps) + 10.0
    return np.linspace(lo, hi, 400)


def cancellation_detunings(levels, g, kinds=("red", "blue"), x0=None):
    """Detunings (nu1, nu2) of two extra sidebands that zero both residuals.

    Two additional drives of coupling g (one per ``kinds`` entry) shift every
    level; the pair of detunings is found with a two-variable root search so
    the shifted table satisfies both loss-transparency conditions.  Without an
    explicit starting guess, a coarse grid over each drive's virtual-transition
    neighborhood seeds the search.
    """
    if g <= 0 or g > 5.0:
        raise ValueError("coupling g must lie in (0, 5] MHz")

    def residuals(nus):
        try:
            shifted = shifted_levels(levels, [(g, nus[0], kinds[0]),
                                              (g, nus[1], kinds[1])])
        except ValueError:
            return np.array([1e6, 1e6])
        return np.array(error_transparency_residual(shifted))

    if x0 is None:
        grids = [_seed_grid(levels, kind) for kind in kinds]
        contribs = []
        base = np.array(error_transparency_residual(levels))
        for kind, grid in zip(kinds, grids):
            rows = []
            for nu in grid:
                try:
                    shifted = shifted_levels(levels, [(g, nu, kind)])
                    rows.append(np.array(error_transparency_residual(shifted)) - base)
                except ValueError:
                    rows.append(np.array([np.nan, np.nan]))
            contribs.append(np.array(rows))
        total = (base[None, None, :] + contribs[0][:, None, :]
                 + contribs[1][None, :, :])
        cost = np.nansum(total**2, axis=2)
        cost[np.isnan(total).any(axis=2)] = np.inf
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        x0 = (grids[0][i], grids[1][j])

    sol = root(residuals, x0=np.asarray(x0, dtype=float), method="hybr")
    if not sol.success or np.max(np.abs(residuals(sol.x))) > 1e-3:
        raise RuntimeError(f"no cancelling detuning pair found: {sol.message}")
    return (float(sol.x[0]), float(sol.x[1]))
