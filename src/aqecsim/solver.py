"""Lindblad master-equation propagation and rate estimates.

A time-independent H (the fully rotated frame) is propagated exactly.  The
row-major Liouvillian, vec(A rho B) = (A kron B^T) vec(rho), is built once as
a sparse matrix and cut down to the weakly connected components of its
sparsity graph that rho0 touches; every other entry of vec(rho) stays exactly
zero.  Blocks of at most ``DENSE_BLOCK_MAX`` states are exponentiated densely,
one ``expm`` per distinct snapshot step, and the snapshots are advanced with
matrix-vector products.  Larger blocks go through ``expm_multiply``
(Al-Mohy & Higham), which never forms a dense propagator.

Only H with driven terms (lab and static frames, chevron sweeps) is
integrated with adaptive embedded Runge-Kutta 4(5) (scipy ``solve_ivp``),
evaluating the drive coefficients at every internal stage.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from .operators import DensityMatrix, LabeledOperator, validate_state

DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
DEFAULT_MAX_STEP = 0.01  # us; resolves the fastest (~2 MHz) drive coefficients
TRACE_DRIFT_LIMIT = 1e-6
# Largest block exponentiated densely.  Above it the dense expm temporaries
# cost more memory than expm_multiply, and below it expm_multiply is slower.
DENSE_BLOCK_MAX = 128
# Snapshot steps equal to this relative tolerance share one propagator, so an
# np.linspace grid counts as uniform.
STEP_RTOL = 1e-12


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


def liouvillian(h, collapse):
    """Sparse row-major generator L of a time-independent Lindblad equation.

    L @ rho.ravel() == (-i[H, rho] + sum_k D[L_k] rho).ravel().
    """
    if h.time_dependent:
        raise ValueError("H has driven terms, so its Liouvillian depends on time")
    eye = sp.identity(h.constant.data.shape[0], format="csr")
    hs = sp.csr_matrix(h.constant.data)
    gen = -1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T))
    for c in collapse:
        cs = sp.csr_matrix(c.data)
        cdc = cs.conj().T @ cs
        gen = gen + sp.kron(cs, cs.conj()) \
            - 0.5 * (sp.kron(cdc, eye) + sp.kron(eye, cdc.T))
    gen = gen.tocsr()
    gen.eliminate_zeros()
    return gen


def _touched_block(gen, v0):
    """Indices of the weakly connected components of gen's sparsity graph
    that hold a nonzero entry of v0."""
    _, label = connected_components(abs(gen), directed=True, connection="weak")
    return np.flatnonzero(np.isin(label, label[v0 != 0]))


def _step_groups(steps):
    """The distinct steps (to ``STEP_RTOL``) and the group of every step."""
    distinct, group = [], []
    for dt in steps:
        for i, ref in enumerate(distinct):
            if abs(dt - ref) <= STEP_RTOL * ref:
                group.append(i)
                break
        else:
            group.append(len(distinct))
            distinct.append(dt)
    return distinct, group


def _propagate_exact(h, collapse, rho0, times):
    """Exact snapshots of a time-independent H on the block rho0 touches."""
    dim = rho0.dim
    gen = liouvillian(h, collapse)
    v0 = rho0.data.astype(complex).ravel()
    keep = _touched_block(gen, v0)
    block = gen[keep][:, keep]
    steps = np.diff(times)
    distinct, group = _step_groups(steps)
    vecs = np.empty((len(times), len(keep)), dtype=complex)
    vecs[0] = v0[keep]
    if len(keep) <= DENSE_BLOCK_MAX:
        method = "expm"
        dense = block.toarray()
        props = [expm(dense * dt) for dt in distinct]
        for k, g in enumerate(group):
            vecs[k + 1] = props[g] @ vecs[k]
    else:
        method = "expm_multiply"
        if len(distinct) == 1:
            vecs[:] = expm_multiply(block, vecs[0], start=0.0, stop=times[-1] - times[0],
                                    num=len(times), endpoint=True)
        else:
            for k, dt in enumerate(steps):
                vecs[k + 1] = expm_multiply(block * dt, vecs[k])
    states = np.zeros((len(times), dim * dim), dtype=complex)
    states[:, keep] = vecs
    meta = {"method": method, "block_dim": len(keep), "nfev": 0}
    return states.reshape(len(times), dim, dim), meta


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


def _integrate_rk45(h, collapse, rho0, times, rtol, atol, max_step):
    """Adaptive RK45 snapshots, not renormalized, of any H(t)."""
    dim = rho0.dim
    meta = {"method": "rk45", "block_dim": dim * dim, "nfev": 0}
    if len(times) == 1:
        return rho0.data[None, :, :].astype(complex), meta
    rhs = _lindblad_rhs_factory(h, collapse, dim)
    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.data.ravel().astype(complex),
                    t_eval=times, method="RK45", rtol=rtol, atol=atol,
                    max_step=max_step)
    if not sol.success:
        raise SolverError(f"integration failed near t={sol.t[-1] if len(sol.t) else times[0]:.4f} us: "
                          f"{sol.message}")
    meta["nfev"] = int(sol.nfev)
    return sol.y.T.reshape(len(times), dim, dim), meta


def evolve(h, collapse, rho0, times, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
           max_step=DEFAULT_MAX_STEP, validate=True):
    """Propagate drho/dt = -i[H(t), rho] + sum_k D[L_k] rho.

    ``times`` is the strictly increasing snapshot grid (us); the first entry is
    the initial time.  A time-independent H is propagated exactly; only H with
    driven terms is integrated with RK45, under ``rtol``, ``atol`` and
    ``max_step``.  Snapshots are renormalized in trace when the drift is below
    1e-6, otherwise the run errors out.  ``meta`` records the ``method``
    (``"expm"``, ``"expm_multiply"`` or ``"rk45"``), the propagated
    ``block_dim`` of vec(rho), the RHS evaluations ``nfev`` (0 when exact),
    ``max_trace_drift`` and, when ``validate``, ``min_eigenvalue``.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-D grid")
    if rho0.dims != h.dims:
        raise ValueError(f"state dims {rho0.dims} do not match H dims {h.dims}")
    for c in collapse:
        if c.dims != h.dims:
            raise ValueError("collapse operator dims do not match H dims")

    if h.time_dependent:
        states, meta = _integrate_rk45(h, collapse, rho0, times, rtol, atol, max_step)
    else:
        states, meta = _propagate_exact(h, collapse, rho0, times)

    drifts = np.abs(np.einsum("tii->t", states).real - 1.0)
    max_drift = float(np.max(drifts))
    if max_drift >= TRACE_DRIFT_LIMIT:
        raise SolverError(f"trace drift {max_drift:.2e} exceeds {TRACE_DRIFT_LIMIT:g}")
    traces = np.einsum("tii->t", states)
    states = states / traces.real[:, None, None]

    traj = Trajectory(times, states, rho0.dims,
                      meta={**meta, "max_trace_drift": max_drift})
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
    device, drive, axis, offset, times, rho0_data, dims, collapse = args
    from . import model
    from .operators import DensityMatrix as DM

    kwargs = {"red_pair_center": "red_offset", "blue_pair_center": "blue_offset",
              "qr_frequency": "qr_offset"}[axis]
    h = model.build_static_hamiltonian(device, drive, **{kwargs: offset})
    rho0 = DM(dims, rho0_data)
    traj = evolve(h, collapse, rho0, times, validate=False)
    n1 = observable_series(traj, [model.transmon_number(1)])[:, 0]
    n2 = observable_series(traj, [model.transmon_number(2)])[:, 0]
    return n1, n2


def sweep_chevron(device, drive, axis, offsets, times, rho0, collapse=(), workers=1):
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
             tuple(collapse)) for off in offsets]
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
