"""Reference results the benchmark checks every op against.

The propagation oracle builds the row-major Liouvillian as a sparse matrix,
vec(A rho B) = (A kron B^T) vec(rho), and propagates it with
``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham): no RK45, no
per-snapshot loops, and the observables are read off the state stack with
index arithmetic of its own.  Only the model definition (config parsing,
Hamiltonian and collapse assembly, named initial states) comes from aqecsim.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from aqecsim import config, model
from aqecsim.operators import FULL_DIMS, basis_state

# two-qutrit basis indices, level order g, e, f on each transmon
_IDX = {a + b: 3 * i + j for i, a in enumerate("gef") for j, b in enumerate("gef")}
_ERROR_PAIRS = {"L0": ("ge", "eg"), "L1": ("ef", "fe"),
                "Lx": ("ge", "eg", "ef", "fe")}


def _commutator(h):
    """Row-major superoperator of -i[h, .]."""
    eye = sp.identity(h.shape[0], format="csr")
    hs = sp.csr_matrix(h)
    return -1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T))


def liouvillian(h, collapse):
    """Sparse row-major Lindblad generator of H (dense) and collapse ops."""
    eye = sp.identity(h.shape[0], format="csr")
    gen = _commutator(h)
    for c in collapse:
        cs = sp.csr_matrix(c)
        cdc = (cs.conj().T @ cs).tocsr()
        gen = gen + sp.kron(cs, cs.conj()) - 0.5 * sp.kron(cdc, eye) \
            - 0.5 * sp.kron(eye, cdc.T)
    return gen.tocsr()


def _reachable(generators, v0):
    """Indices of the weakly connected components of the generators'
    sparsity graph that hold a nonzero entry of v0.  The rest of the vector
    stays exactly zero, so propagating this block alone is exact."""
    pattern = sum(abs(g) for g in generators)
    _, label = connected_components(pattern, directed=True, connection="weak")
    return np.flatnonzero(np.isin(label, np.unique(label[v0 != 0])))


def _scatter(block_vecs, keep, d):
    out = np.zeros((block_vecs.shape[0], d * d), dtype=complex)
    out[:, keep] = block_vecs
    return out.reshape(-1, d, d)


def propagate(h, collapse, rho0, tmax, num):
    """States on the uniform grid linspace(0, tmax, num), shape (num, d, d)."""
    d = rho0.shape[0]
    gen = liouvillian(h, collapse)
    v0 = rho0.astype(complex).ravel()
    keep = _reachable([gen], v0)
    block = gen[keep][:, keep]
    vecs = expm_multiply(block, v0[keep], start=0.0, stop=tmax, num=num,
                         endpoint=True)
    return _scatter(vecs, keep, d)


def _qq_block(states):
    """Trace out both resonators: (nt, 36, 36) -> (nt, 9, 9)."""
    nt = states.shape[0]
    r = states.reshape(nt, 9, 4, 9, 4)
    return np.einsum("taibi->tab", r)


def _populations(states, subsystem):
    """<n> of transmon ``subsystem`` (0 or 1) along the stack."""
    pops = np.real(np.einsum("tii->ti", states)).reshape(-1, 3, 3, 2, 2)
    levels = np.arange(3.0)
    axis = 1 + subsystem
    shape = [1, 1, 1, 1, 1]
    shape[axis] = 3
    return np.sum(pops * levels.reshape(shape), axis=(1, 2, 3, 4))


def _coherence(r9, label):
    if label == "L0":
        return 2.0 * np.abs(r9[:, _IDX["gf"], _IDX["fg"]])
    if label == "L1":
        return 2.0 * np.abs(r9[:, _IDX["gg"], _IDX["ff"]])
    # |Tr(rho X)|, X = (|gg>+|fg>)(<gf|+<ff|)/2 + h.c.
    rows, cols = (_IDX["gg"], _IDX["fg"]), (_IDX["gf"], _IDX["ff"])
    total = sum(r9[:, c, r] + r9[:, r, c] for r in rows for c in cols)
    return np.abs(0.5 * total)


def scenario_series(cfg_path, initial):
    """The columns ``cli.run_scenario`` writes, from exact propagation."""
    cfg = config.load_config(cfg_path)
    sc = cfg.scenario
    h = model.build_rotating_full_hamiltonian(cfg.device, cfg.drive)
    collapse = [c.data for c in model.collapse_operators(cfg.noise)]
    rho0 = model.logical_state(initial).to_density().data
    states = propagate(h.constant.data, collapse, rho0, sc.tmax_us, sc.snapshots)
    r9 = _qq_block(states)
    err = sum(np.real(r9[:, _IDX[s], _IDX[s]]) for s in _ERROR_PAIRS[initial])
    times = np.linspace(0.0, sc.tmax_us, sc.snapshots)
    return np.column_stack([times, err, _coherence(r9, initial),
                            _populations(states, 0), _populations(states, 1)])


def propagate_driven(spec, collapse, rho0, times):
    """Time-dependent H: the Liouvillian ODE integrated with DOP853 at
    rtol 1e-11, a different scheme and tolerance from the RK45 under test."""
    d = rho0.shape[0]
    gen = liouvillian(spec.constant.data, collapse)
    sups = [_commutator(op.data) for _, op in spec.driven]
    v0 = rho0.astype(complex).ravel()
    keep = _reachable([gen] + sups, v0)
    gen = gen[keep][:, keep]
    driven = [(coeff, sup[keep][:, keep])
              for (coeff, _), sup in zip(spec.driven, sups)]

    def rhs(t, v):
        out = gen @ v
        for coeff, sup in driven:
            out += coeff(t) * (sup @ v)
        return out

    sol = solve_ivp(rhs, (times[0], times[-1]), v0[keep], t_eval=times,
                    method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return _scatter(sol.y.T, keep, d)


def red_sweep_photons(cfg_path, offsets):
    """(n_q1, n_q2) maps of a red_pair_center sweep, each (n_off, n_t), for
    the static-frame model the sweep simulates, plus the same maps in the
    fully rotated frame with the offset folded into nu_r.

    Without collapse operators the two frames agree to 1e-8.  With them they
    do not: the frame change is not a symmetry of the dissipators, which are
    the same matrices in both frames.
    """
    cfg = config.load_config(cfg_path)
    sw = cfg.sweep
    rho0 = basis_state(FULL_DIMS, sw.initial).to_density().data
    collapse = [c.data for c in model.collapse_operators(cfg.noise)]
    times = np.linspace(0.0, sw.tmax_us, sw.snapshots)
    static, rotating = [], []
    for off in offsets:
        spec = model.build_static_hamiltonian(cfg.device, cfg.drive,
                                              red_offset=off)
        states = propagate_driven(spec, collapse, rho0, times)
        static.append([_populations(states, 0), _populations(states, 1)])
        drive = dataclasses.replace(cfg.drive, nu_r=cfg.drive.nu_r + off)
        h = model.build_rotating_hamiltonian(cfg.device, drive).constant.data
        states = propagate(h, collapse, rho0, sw.tmax_us, sw.snapshots)
        rotating.append([_populations(states, 0), _populations(states, 1)])
    # -> (2, n_off, n_t) each
    return np.swapaxes(static, 0, 1), np.swapaxes(rotating, 0, 1)


def fidelity(rho, target):
    """Uhlmann fidelity, square root taken of the target state.

    aqecsim's ``fidelity`` takes the square root of its first argument; this
    one takes it of the second, so the two agree only if both are right.
    """
    vals, vecs = np.linalg.eigh(target)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = np.linalg.eigvalsh(root @ rho @ root)
    return float(np.sum(np.sqrt(np.clip(inner, 0.0, None))) ** 2)
