"""Lindblad master-equation integration and rate estimates.

The density matrix is propagated with an adaptive embedded Runge-Kutta 4(5)
scheme (scipy ``solve_ivp``); time-dependent Hamiltonian coefficients are
evaluated at every internal stage.  At the working dimension (36) plain dense
matrix products are fastest, so no superoperator is ever materialized.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .operators import DensityMatrix, LabeledOperator, validate_state

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
DEFAULT_MAX_STEP = 0.01  # us; resolves the fastest (~2 MHz) drive coefficients
TRACE_DRIFT_LIMIT = 1e-6


class SolverError(RuntimeError):
    """Integration failure, annotated with the time it occurred."""


@dataclass
class Trajectory:
    """Time grid (us), density-matrix snapshots, and solver statistics."""

    times: np.ndarray
    states: np.ndarray  # (nt, d, d) complex
    dims: tuple
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    def state(self, i):
        return DensityMatrix(self.dims, self.states[i])


def _lindblad_rhs_factory(h, collapse, dim):
    hc = h.constant.data
    driven = [(coeff, op.data) for coeff, op in h.driven]
    ls = [c.data for c in collapse]
    lds = [c.data.conj().T for c in collapse]
    s = np.zeros((dim, dim), dtype=complex)
    for l, ld in zip(ls, lds):
        s += ld @ l
    half_s = 0.5 * s

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        ht = hc
        if driven:
            ht = hc.copy()
            for coeff, op in driven:
                ht += coeff(t) * op
        out = -1j * (ht @ rho - rho @ ht)
        if ls:
            out -= half_s @ rho + rho @ half_s
            for l, ld in zip(ls, lds):
                out += l @ rho @ ld
        return out.ravel()

    return rhs


def evolve(h, collapse, rho0, times, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
           max_step=DEFAULT_MAX_STEP, validate=True):
    """Integrate drho/dt = -i[H(t), rho] + sum_k D[L_k] rho.

    ``times`` is the strictly increasing snapshot grid (us); the first entry is
    the initial time.  Snapshots are renormalized in trace when the drift is
    below 1e-6, otherwise the run errors out.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-D grid")
    if rho0.dims != h.dims:
        raise ValueError(f"state dims {rho0.dims} do not match H dims {h.dims}")
    for c in collapse:
        if c.dims != h.dims:
            raise ValueError("collapse operator dims do not match H dims")

    dim = rho0.dim
    if len(times) == 1:
        return Trajectory(times, rho0.data[None, :, :].copy(), rho0.dims,
                          meta={"nfev": 0, "max_trace_drift": 0.0})

    rhs = _lindblad_rhs_factory(h, collapse, dim)
    step = max_step if h.time_dependent else np.inf
    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.data.ravel().astype(complex),
                    t_eval=times, method="RK45", rtol=rtol, atol=atol,
                    max_step=step)
    if not sol.success:
        raise SolverError(f"integration failed near t={sol.t[-1] if len(sol.t) else times[0]:.4f} us: "
                          f"{sol.message}")

    states = sol.y.T.reshape(len(times), dim, dim)
    drifts = np.abs(np.einsum("tii->t", states).real - 1.0)
    max_drift = float(np.max(drifts))
    if max_drift >= TRACE_DRIFT_LIMIT:
        raise SolverError(f"trace drift {max_drift:.2e} exceeds {TRACE_DRIFT_LIMIT:g}")
    traces = np.einsum("tii->t", states)
    states = states / traces.real[:, None, None]

    traj = Trajectory(times, states, rho0.dims,
                      meta={"nfev": int(sol.nfev), "max_trace_drift": max_drift})
    if validate:
        worst = min(validate_state(traj.state(i), tol=1e-6).min_eigenvalue
                    for i in range(len(times)))
        traj.meta["min_eigenvalue"] = float(worst)
    return traj


def observable_series(traj, ops):
    """Real expectation values, shape (n_times, n_ops).

    Warns when any imaginary part exceeds 1e-7 (non-Hermitian observable or
    integration trouble).
    """
    mats = []
    for op in ops:
        if op.dims != traj.dims:
            raise ValueError(f"observable dims {op.dims} do not match {traj.dims}")
        mats.append(op.data)
    stack = np.stack(mats)
    values = np.einsum("tij,kji->tk", traj.states, stack)
    worst_imag = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if worst_imag > 1e-7:
        warnings.warn(f"observable series has imaginary part up to {worst_imag:.2e}",
                      RuntimeWarning, stacklevel=2)
    return values.real


def refill_rate(omega, kappa):
    """Golden-rule two-step correction rate Omega^2 kappa / (Omega^2 + 2 kappa^2).

    Inputs and output are ordinary frequencies in MHz; multiply by 2*pi for an
    exponential rate in 1/us.
    """
    if omega < 0:
        raise ValueError("omega must be >= 0")
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    return omega**2 * kappa / (omega**2 + 2.0 * kappa**2)


# ---------------------------------------------------------------------------
# calibration-style detuning sweeps

@dataclass
class ChevronMap:
    """2-D sweep result: offsets (MHz) x times (us) photon-number maps."""

    axis: str
    offsets: np.ndarray
    times: np.ndarray
    n_q1: np.ndarray  # (n_offsets, n_times)
    n_q2: np.ndarray

    def save(self, path_prefix):
        for name, arr in (("n_q1", self.n_q1), ("n_q2", self.n_q2)):
            header = "offset_mhz\t" + "\t".join(f"t={t:.6g}" for t in self.times)
            table = np.column_stack([self.offsets, arr])
            np.savetxt(f"{path_prefix}_{name}.tsv", table, header=header,
                       delimiter="\t", comments="")


_SWEEP_AXES = ("red_pair_center", "blue_pair_center", "qr_frequency")


def _sweep_one(args):
    device, drive, axis, offset, times, rho0_data, dims, collapse, rtol, atol = args
    from . import model
    from .operators import DensityMatrix as DM

    kwargs = {"red_pair_center": "red_offset", "blue_pair_center": "blue_offset",
              "qr_frequency": "qr_offset"}[axis]
    h = model.build_static_hamiltonian(device, drive, **{kwargs: offset})
    rho0 = DM(dims, rho0_data)
    traj = evolve(h, collapse, rho0, times, rtol=rtol, atol=atol, validate=False)
    n1 = observable_series(traj, [model.transmon_number(1)])[:, 0]
    n2 = observable_series(traj, [model.transmon_number(2)])[:, 0]
    return n1, n2


def sweep_chevron(device, drive, axis, offsets, times, rho0, collapse=(),
                  rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, workers=1):
    """Sweep a drive-frequency offset and record both transmon photon numbers.

    ``axis`` selects which frequency is offset: the red QQ pair center, the
    blue QQ pair center, or both QR sidebands.  Trajectories over the offset
    grid are independent and can run in parallel (``workers`` > 1).
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"axis must be one of {_SWEEP_AXES}")
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size == 0:
        raise ValueError("offset grid must be nonempty")
    times = np.asarray(times, dtype=float)

    jobs = [(device, drive, axis, float(off), times, rho0.data, rho0.dims,
             tuple(collapse), rtol, atol) for off in offsets]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]

    n1 = np.array([r[0] for r in results])
    n2 = np.array([r[1] for r in results])
    return ChevronMap(axis, offsets, times, n1, n2)


def fringe_frequency(times, series):
    """Dominant oscillation frequency (MHz) of a uniformly sampled series.

    FFT peak location refined with a three-point parabolic fit; returns 0 for
    a flat trace.
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(series, dtype=float)
    if len(times) < 4:
        raise ValueError("need at least 4 samples")
    dt = times[1] - times[0]
    yc = y - np.mean(y)
    if np.max(np.abs(yc)) < 1e-9:
        return 0.0
    n_pad = 8 * len(yc)
    spec = np.abs(np.fft.rfft(yc * np.hanning(len(yc)), n=n_pad))
    freqs = np.fft.rfftfreq(n_pad, d=dt)
    k = int(np.argmax(spec[1:]) + 1)
    if 1 <= k < len(spec) - 1:
        denom = spec[k - 1] - 2 * spec[k] + spec[k + 1]
        shift = 0.5 * (spec[k - 1] - spec[k + 1]) / denom if denom != 0 else 0.0
        return float(freqs[k] + shift * (freqs[1] - freqs[0]))
    return float(freqs[k])
