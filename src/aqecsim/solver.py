"""Lindblad master-equation propagation and rate estimates.

Every call builds one sparse row-major Lindblad generator L0 of H's constant
part, vec(A rho B) = (A kron B^T) vec(rho):

    L0 = J kron 1 + 1 kron J* + sum_k L_k kron L_k*,   J = -iH - (1/2) sum_k L_k^dag L_k,

assembled in one pass from the nonzero entries of every Kronecker factor,
and one superoperator S_f of -i[O_f, .] per nonzero drive frequency f, O_f
the sum of the driven operators at f (those at f = 0 join H's constant
part).  ``_block`` restricts L0 and every S_f once to the block of vec(rho)
that rho0 touches, the weakly connected components of the joint sparsity
graph of L0 and the S_f that hold a nonzero entry of rho0, and ``evolve``
hands that block to one of three propagators.  Their block snapshots are
the trajectory itself: every other entry of vec(rho) stays exactly zero and
is never stored, and the trace check, the renormalization,
``validate_state``, the two-qutrit reduction (``operators.trace_out``) and
``observable_series`` all read it.

Every propagator runs in real arithmetic.  The generator maps Hermitian rho
to Hermitian rho, so in the coordinates diag, sqrt2 Re and sqrt2 Im of rho
(Alicki & Lendi, Lect. Notes Phys. 286 (1987); the basis tomography's
``_coords`` uses) it is a real matrix.  rho0 is Hermitian, so its block is
closed under the conjugation (i, j) -> (j, i), and the sparse unitary T of
``_conjugation_map`` takes the block to those coordinates: the propagators
run on T^H L T, and their snapshots are mapped back to the block.  A block
that is not closed, or a T^H L T with an imaginary part, raises instead.

A time-independent H (the fully rotated frame) is propagated exactly on L0,
by whichever of two methods is predicted to cost less on the block.  Dense
``expm`` (scaling and squaring, Moler & Van Loan, SIAM Rev. 45, 3 (2003);
Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)) forms one n x n
propagator for a uniform snapshot grid, or one per step otherwise, and
advances the snapshots with matrix-vector products; each propagator costs
about n^3 (``EXPM_PADE_PRODUCTS`` + s), with s = ceil(log2(||L0 dt||_1 /
``EXPM_THETA``)) squarings.  ``expm_multiply`` (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33, 488 (2011)) never forms a propagator; its Taylor terms
grow with ||L0||_1 (t_end - t0), and every snapshot adds a fixed overhead,
so it costs about ``MULTIPLY_COST`` (||L0||_1 (t_end - t0) + snapshots).
Ties go to ``expm_multiply``, and blocks above ``DENSE_BLOCK_MAX`` states
always take it, for the dense temporaries' memory.

Every driven term is e^{2 pi i f t} O, and the operators at -f must sum to
the adjoint of those at f, O_-f = O_f^dag (``_block`` checks it).  An H whose
drives all share one nonzero |f| = w / 2pi (a single drive, or the static
frame with one nonzero pair frequency) is propagated exactly too, by a
truncated Shirley-Floquet expansion (Shirley, Phys. Rev. 138, B979 (1965);
Grifoni & Hanggi, Phys. Rep. 304, 229 (1998)).  With
H(t) = H0 + O_f e^{iwt} + O_-f e^{-iwt} and rho(t) = sum_n e^{inwt} sigma_n(t),

    sigma_n' = (L0 - inw) sigma_n + S_f sigma_{n-1} + S_-f sigma_{n+1},

with sigma_n(t0) = delta_n0 rho0.  Cut at |n| <= M
this is one time-independent generator on 2M+1 copies of the block, whose
components are finer than the block's, so it is pruned once more to those
rho0 touches and propagated on the exact path.  Since sigma_-n =
sigma_n^dag, the pruned stack is closed under (n, k) -> (-n, k^T), k^T the
transposed entry of k, and its real form pairs those entries.  M takes the
orders ``FLOQUET_ORDERS`` in turn, and the first truncation whose harmonics +-M are
negligible is the answer.  If none is, or if a pruned stack holds more than
``DENSE_BLOCK_MAX`` states (it is then not propagated: a larger M only grows
it, and on the aqec stacks of that size RK45 on the block was as fast or
faster; see the constant), the block goes to RK45 instead.

H with driven terms at several frequencies (the lab frame with several
carriers, the static frame with two nonzero pair frequencies), or with one
frequency whose Floquet stack failed or grew too large, is integrated with
adaptive embedded Runge-Kutta 4(5) (scipy ``solve_ivp``):
dv/dt = (L0 + sum_f e^{2 pi i f t} S_f) v on the block, evaluating every
coefficient at every internal stage.  In real coordinates each pair S_f,
S_-f is one term cos(2 pi f t) A + sin(2 pi f t) B (``_integrate_rk45``).
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from . import model
from .operators import validate_state

# RK45 tolerances and step cap (us); the cap resolves the fastest (~2 MHz)
# drive coefficients.
DEFAULT_RTOL = 1e-8
DEFAULT_ATOL = 1e-10
DEFAULT_MAX_STEP = 0.01
TRACE_DRIFT_LIMIT = 1e-6
# Two jobs.  The largest block exponentiated densely, for memory: scipy's expm
# holds about nine n x n temporaries.  In a fresh process one expm of the
# 366-state aqec block raises peak RSS by 12.1 MB in real form and 19.5 MB in
# complex form (+32 MB complex at n = 500).  And the largest pruned Floquet
# stack propagated at all; a larger one sends the block to RK45.  On
# single-tone aqec blocks with 1,668- to 3,132-state stacks, RK45 was
# 1.8-3.6x faster than the order search, and no slower than the passing
# order alone, on expm_multiply; it agreed with DOP853 to 7.5e-8 against
# Floquet's 4e-9 (BENCH_16.json).
DENSE_BLOCK_MAX = 512
# Predicted costs of exact propagation, in multiply-adds (module docstring).
# A degree-13 Pade approximant takes six matrix products and one solve, and
# is accurate up to ||A||_1 = EXPM_THETA without scaling (Higham 2005).
# MULTIPLY_COST, the multiply-adds one unit of ||gen||_1 t or one snapshot
# of expm_multiply is worth, is fitted in log ratio to expm_multiply/expm
# times of the 281- to 366-state preset and sweep blocks (2 vCPU, one BLAS
# thread), on which the two methods are 0.4-13x apart; BENCH_15.json holds
# the predicted and measured ratios of every preset and sweep block.  The
# rule reads the complex block and these constants were fitted on complex
# times.  In real form dense expm got 3.2x faster (aqec L0 block, dt =
# 0.25 us: 117 -> 37 ms) and expm_multiply 1.2x (its 1.5 us window: 82 ->
# 67 ms), so a refit would send that window to dense expm.  Forced there,
# the benchmark's stiff_arms workload ran 0.099-0.108 -> 0.069-0.075 s but
# its peak RSS rose 13% (94.1 -> 106.4-106.6 MB, two runs each), so the
# choice is held where it was: every block and stack takes the method it
# took in complex form.
EXPM_PADE_PRODUCTS = 7
EXPM_THETA = 5.37
MULTIPLY_COST = 4e5
# Snapshot steps equal to this relative tolerance share one propagator, so an
# np.linspace grid counts as uniform.
STEP_RTOL = 1e-12
# Harmonics kept on each side of a single-frequency H: the orders tried, in
# turn (steps of two; an odd step barely lowers the tail), and the largest
# entry harmonics +-M may reach before the truncation counts as unsafe.
FLOQUET_ORDERS = (4, 6, 8)
FLOQUET_TAIL = 1e-10
# The largest imaginary part T^H G T may keep, relative to G's largest entry,
# before G counts as not preserving Hermiticity.  The generator's conjugate entries
# are exact conjugates, so on every preset block and sweep stack it is 0.
REAL_FORM_TOL = 1e-12


class SolverError(RuntimeError):
    """Integration failure, annotated with the time it occurred."""


@dataclass
class Trajectory:
    """Time grid (us), snapshots of the propagated block of vec(rho), and
    solver statistics.

    Column j of ``states`` holds entry ``keep[j]`` of the row-major vec(rho)
    at every time; every other entry is exactly zero.  ``full_states()``
    writes out every snapshot.
    """

    times: np.ndarray
    states: np.ndarray  # (nt, len(keep)) complex
    dims: tuple
    keep: np.ndarray  # sorted vec(rho) indices of the block
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.times)

    def full_states(self):
        """The (nt, d, d) stack of every snapshot.  It is nt d^2 entries, so
        the run path never builds it; tests and checks compare against it."""
        d = int(np.prod(self.dims))
        out = np.zeros((len(self), d * d), dtype=complex)
        out[:, self.keep] = self.states
        return out.reshape(len(self), d, d)


def liouvillian(h, collapse):
    """Sparse row-major generator L of a time-independent Lindblad equation.

    L @ rho.ravel() == (-i[H, rho] + sum_k D[L_k] rho).ravel().
    """
    if h.time_dependent:
        raise ValueError("H has driven terms, so its Liouvillian depends on time")
    return _lindblad_generator(h.constant.data, collapse)


def _superoperator(pairs):
    """Sparse row-major sum_k A_k kron B_k over dense n x n pairs (A_k, B_k),
    assembled as one matrix from every pair's nonzero triplets."""
    n = pairs[0][0].shape[0]
    rows, cols, vals = [], [], []
    for a, b in pairs:
        ai, aj = np.nonzero(a)
        bi, bj = np.nonzero(b)
        rows.append((ai[:, None] * n + bi).ravel())
        cols.append((aj[:, None] * n + bj).ravel())
        vals.append(np.outer(a[ai, aj], b[bi, bj]).ravel())
    sup = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n * n, n * n))
    sup.eliminate_zeros()
    return sup


def _commutator(hmat):
    """Sparse row-major superoperator of rho -> -i[H, rho], for any square H."""
    eye = np.eye(hmat.shape[0])
    return _superoperator([(-1j * hmat, eye), (eye, 1j * hmat.T)])


def _lindblad_generator(hmat, collapse):
    """Sparse row-major Lindblad generator of a constant H matrix,
    J kron 1 + 1 kron J* + sum_k L_k kron L_k*, with J = -iH - K/2 and
    K = sum_k L_k^dag L_k."""
    eye = np.eye(hmat.shape[0])
    k = sum((c.data.conj().T @ c.data for c in collapse), np.zeros(hmat.shape))
    jmat = -1j * hmat - 0.5 * k
    return _superoperator([(jmat, eye), (eye, jmat.conj())]
                          + [(c.data, c.data.conj()) for c in collapse])


def _touched_block(gen, v0):
    """Indices of the weakly connected components of gen's sparsity graph
    that hold a nonzero entry of v0."""
    _, label = connected_components(abs(gen), directed=True, connection="weak")
    return np.flatnonzero(np.isin(label, label[v0 != 0]))


@dataclass(frozen=True)
class _Block:
    """The block of vec(rho) that rho0 touches (``_block``): its sorted
    vec(rho) indices ``keep``, the position ``partner`` of each entry's
    conjugate, rho0 ``v0`` on it, the generator ``gen`` restricted to it and
    ``drives``, each nonzero drive frequency f mapped to its restricted S_f."""

    keep: np.ndarray
    partner: np.ndarray
    v0: np.ndarray
    gen: sp.csr_matrix
    drives: dict


def _block(h, collapse, rho0):
    """The ``_Block`` of one ``evolve`` call, whose checks (``evolve``) all
    read the raw inputs before anything is assembled."""
    if any(x.dims != h.dims for x in (rho0, *collapse)):
        raise ValueError(f"rho0 and the collapse operators must have H's dims {h.dims}")
    v0 = rho0.data.astype(complex).ravel()
    inputs = [h.constant.data, *(c.data for c in collapse), *(op.data for _, op in h.driven),
              [tone.freq for tone, _ in h.driven], v0]
    if not all(np.all(np.isfinite(x)) for x in inputs):
        raise ValueError("H, the collapse operators, the tones and rho0 must be finite")
    if np.max(np.abs(rho0.data - rho0.data.conj().T)) > 1e-12:
        raise ValueError("rho0 must be Hermitian")
    parts = {f: sum(op.data for t, op in h.driven if t.freq == f)
             for f in {tone.freq for tone, _ in h.driven}}
    for f, op in parts.items():
        if -f not in parts or not np.allclose(op, parts[-f].conj().T, rtol=0.0, atol=1e-12):
            raise ValueError(f"driven terms at {-f:g} MHz are not the adjoint of those at {f:g}")
    gen = _lindblad_generator(sum((op.data for t, op in h.driven if t.freq == 0),
                                  h.constant.data), collapse)
    drives = {f: _commutator(op) for f, op in parts.items() if f != 0}
    keep = _touched_block(sum((abs(s) for s in drives.values()), abs(gen)), v0)
    row, col = np.divmod(keep, rho0.dim)
    return _Block(keep, _positions(keep, col * rho0.dim + row), v0[keep], gen[keep][:, keep],
                  {f: s[keep][:, keep] for f, s in drives.items()})


def _dense_cheaper(gen, steps, times):
    """Whether dense expm of ``gen`` over the distinct ``steps`` is predicted
    to cost less than expm_multiply over ``times`` (module docstring)."""
    n = gen.shape[0]
    if n > DENSE_BLOCK_MAX:
        return False
    norm = float(abs(gen).sum(axis=0).max())
    dense = n ** 3 * sum(EXPM_PADE_PRODUCTS + (math.ceil(math.log2(norm * dt / EXPM_THETA))
                                               if norm * dt > EXPM_THETA else 0)
                         for dt in steps)
    return dense < MULTIPLY_COST * (norm * (times[-1] - times[0]) + len(times))


def _positions(keep, index):
    """Positions of the vec(rho) indices ``index`` in the sorted ``keep``; a
    ValueError when one is missing, that is, when ``keep`` is not closed
    under the conjugation that maps ``keep`` onto ``index``."""
    pos = np.minimum(np.searchsorted(keep, index), len(keep) - 1)
    if np.any(keep[pos] != index):
        raise ValueError("the block is not closed under conjugation")
    return pos


@dataclass(frozen=True)
class _RealMap:
    """v = T x between a block v of vec(rho), closed under conjugation, and
    its real coordinates x (``_conjugation_map``): v_j = alpha_j x_lo_j +
    i beta_j x_hi_j, so row j of the sparse unitary T holds alpha_j at
    column lo_j and i beta_j at column hi_j."""

    t: sp.csr_matrix
    t_h: sp.csr_matrix  # T^H
    lo: np.ndarray
    hi: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def form(self, op):
        """The real sparse matrix T^H op T.  An imaginary part above
        ``REAL_FORM_TOL`` times op's largest entry raises ValueError: op
        then does not map Hermitian rho to Hermitian rho."""
        out = (self.t_h @ op @ self.t).tocsr()
        if np.max(np.abs(out.data.imag), initial=0.0) > REAL_FORM_TOL * np.max(
                np.abs(op.data), initial=0.0):
            raise ValueError("the generator does not preserve Hermiticity")
        return sp.csr_matrix((out.data.real, out.indices, out.indptr), shape=out.shape)

    def coords(self, v):
        """The real coordinates T^H v of a block v closed under conjugation."""
        return (self.t_h @ v).real

    def block(self, xs):
        """The complex block snapshots T x of the rows x of ``xs``, gathered
        column by column (a complex sparse product is several times slower)."""
        out = np.empty(xs.shape, dtype=complex)
        np.multiply(xs[:, self.lo], self.alpha, out=out.real)
        np.multiply(xs[:, self.hi], self.beta, out=out.imag)
        return out


def _conjugation_map(partner):
    """The ``_RealMap`` of a block whose entry j holds the conjugate of entry
    ``partner[j]``; for vec(rho), (i, j) pairs with (j, i).  A self-conjugate
    entry keeps x_j = v_j.  A pair j < p = partner[j] holds x_j = sqrt2 Re v_j
    and x_p = sqrt2 Im v_j, so rows j and p of T are (1, i) / sqrt2 and
    (1, -i) / sqrt2 at columns (j, p).  Partners that are not an involution
    raise ValueError."""
    n = len(partner)
    j = np.arange(n)
    if (partner.shape != (n,) or np.any((partner < 0) | (partner >= n))
            or np.any(partner[partner] != j)):
        raise ValueError("conjugation partners must be an involution of the block")
    s = math.sqrt(0.5)
    pair = partner != j
    lo, hi = np.minimum(j, partner), np.maximum(j, partner)
    alpha = np.where(pair, s, 1.0)
    beta = np.where(pair, np.where(j < partner, s, -s), 0.0)
    # rows of T and of T^H both hold columns (lo_j, hi_j); a self-conjugate
    # row holds one entry
    slots = np.stack([np.ones(n, dtype=bool), pair], axis=1)
    cols, indptr = np.stack([lo, hi], axis=1)[slots], np.concatenate([[0], np.cumsum(1 + pair)])
    upper = j > partner  # row j of T^H is conj(column j of T)
    t_h = np.stack([np.where(upper, -1j * beta[partner], alpha),
                    np.where(upper, -1j * beta, alpha[partner])], axis=1)
    t = np.stack([alpha, 1j * beta], axis=1)
    return _RealMap(sp.csr_matrix((t[slots], cols, indptr), shape=(n, n)),
                    sp.csr_matrix((t_h[slots], cols, indptr), shape=(n, n)),
                    lo, hi, alpha, beta)


def _propagate_exact(gen, v0, times, partner):
    """Exact snapshots of dv/dt = gen v and the method used, dense ``"expm"``
    or ``"expm_multiply"``, whichever is predicted to cost less on gen.

    The block is closed under conjugation (``partner``, see
    ``_conjugation_map``), so it is propagated in real coordinates, on
    T^H gen T, and the snapshots are mapped back.  A grid is uniform when
    every step equals the first to ``STEP_RTOL``; it takes one propagator,
    otherwise every step takes its own.
    """
    steps = np.diff(times)
    uniform = np.all(np.abs(steps - steps[:1]) <= STEP_RTOL * steps[:1])
    dense_cheaper = _dense_cheaper(gen, steps[:1] if uniform else steps, times)
    real = _conjugation_map(partner)
    gen = real.form(gen)
    xs = np.empty((len(times), len(v0)))
    xs[0] = real.coords(v0)
    if dense_cheaper:
        dense = gen.toarray()
        # one dense propagator alive at a time
        prop = expm(dense * steps[0]) if uniform and len(steps) else None
        for k, dt in enumerate(steps):
            xs[k + 1] = (prop if uniform else expm(dense * dt)) @ xs[k]
        method = "expm"
    else:
        if uniform and len(steps):
            xs[:] = expm_multiply(gen, xs[0], start=0.0, stop=times[-1] - times[0],
                                  num=len(times), endpoint=True)
        else:
            for k, dt in enumerate(steps):
                xs[k + 1] = expm_multiply(gen * dt, xs[k])
        method = "expm_multiply"
    return real.block(xs), method


def _propagate_floquet(block, times):
    """Exact snapshots of dv/dt = (gen + e^{iwt} S_f + e^{-iwt} S_-f) v on a
    block driven at the one frequency f = w / 2pi > 0, by the truncated
    Shirley-Floquet generator (module docstring) at the first order M that
    passes, and the meta.  On the stack, entry k of harmonic n pairs with
    the block partner of k in harmonic -n (``_conjugation_map``).  The
    snapshots are None when no order passes or a pruned stack exceeds
    ``DENSE_BLOCK_MAX``; the meta then says why (``evolve``)."""
    f = max(block.drives)
    w = 2.0 * math.pi * f
    s_plus, s_minus = block.drives[f], block.drives[-f]
    nb = len(block.v0)
    for m in FLOQUET_ORDERS:
        stack = (sp.kron(sp.identity(2 * m + 1), block.gen)
                 + sp.kron(sp.diags(-1j * w * np.arange(-m, m + 1)), sp.identity(nb))
                 + sp.kron(sp.eye(2 * m + 1, k=-1), s_plus)
                 + sp.kron(sp.eye(2 * m + 1, k=1), s_minus)).tocsr()
        stack.eliminate_zeros()
        ext = np.zeros((2 * m + 1) * nb, dtype=complex)
        ext[m * nb:(m + 1) * nb] = block.v0
        # the stack's components are finer than the block's: prune them too
        keep = _touched_block(stack, ext)
        if len(keep) > DENSE_BLOCK_MAX:
            # larger orders only grow the stack
            return None, {"floquet_order": m, "stack_dim": len(keep),
                          "floquet_rejected": "stack_dim"}
        harmonic, entry = np.divmod(keep, nb)
        vecs, stack_method = _propagate_exact(
            stack[keep][:, keep], ext[keep], times,
            _positions(keep, (2 * m - harmonic) * nb + block.partner[entry]))
        harmonic -= m
        tail = float(np.max(np.abs(vecs[:, np.abs(harmonic) == m]), initial=0.0))
        stack_meta = {"floquet_order": m, "floquet_tail": tail, "stack_method": stack_method}
        if tail <= FLOQUET_TAIL:
            break
    else:
        return None, {**stack_meta, "floquet_rejected": "tail"}
    # rho(t) = sum_n e^{inwt} sigma_n(t), summed one harmonic's columns at a time
    states = np.zeros((len(times), nb), dtype=complex)
    for n in np.unique(harmonic):
        cols = harmonic == n
        states[:, entry[cols]] += np.exp(1j * n * w * times)[:, None] * vecs[:, cols]
    return states, {"method": "floquet", "block_dim": len(keep), "nfev": 0, **stack_meta}


def _integrate_rk45(block, times):
    """Adaptive RK45 snapshots, not renormalized, of
    dv/dt = (gen + sum_f e^{2 pi i f t} S_f) v on a block, integrated in its
    real coordinates (``_conjugation_map``).  There the drives at +f and -f
    are one real term cos(2 pi f t) A + sin(2 pi f t) B with
    A = T^H (S_f + S_-f) T and B = T^H i(S_f - S_-f) T.  The real generator
    and every A and B are stacked into one sparse matrix, so a stage takes
    one product and one row of coefficients."""
    from scipy.integrate import solve_ivp  # its one use: exact runs never import it

    freqs = sorted(f for f in block.drives if f > 0)
    parts = [block.gen]
    for f in freqs:
        s_plus, s_minus = block.drives[f], block.drives[-f]
        parts += [s_plus + s_minus, 1j * (s_plus - s_minus)]
    real = _conjugation_map(block.partner)
    stacked = sp.vstack([real.form(part) for part in parts], format="csr")
    pair_tones = [model.Tone(f) for f in freqs]

    def rhs(t, x):
        coeffs = [1.0]
        for tone in pair_tones:
            c = tone(t)
            coeffs += [c.real, c.imag]
        return np.asarray(coeffs) @ (stacked @ x).reshape(len(parts), -1)

    meta = {"method": "rk45", "block_dim": len(block.v0), "nfev": 0}
    if len(times) == 1:
        return block.v0[None, :], meta
    sol = solve_ivp(rhs, (times[0], times[-1]), real.coords(block.v0), t_eval=times,
                    method="RK45", rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                    max_step=DEFAULT_MAX_STEP)
    if not sol.success:
        raise SolverError(f"integration failed near t={sol.t[-1] if len(sol.t) else times[0]:.4f} us: "
                          f"{sol.message}")
    return real.block(sol.y.T), {**meta, "nfev": int(sol.nfev)}


def evolve(h, collapse, rho0, times, validate=True):
    """Propagate drho/dt = -i[H(t), rho] + sum_k D[L_k] rho.

    ``times`` is the finite, strictly increasing snapshot grid (us); the first
    entry is the initial time.  A non-finite entry of H, a collapse operator, a
    tone or rho0, a non-Hermitian rho0 (beyond 1e-12) or driven terms at -f
    that do not sum to the adjoint of those at f raise ValueError before
    anything is assembled.  The block of vec(rho) that rho0 touches
    (``_block``) is propagated in real coordinates: exactly with no nonzero
    drive frequency, by Shirley-Floquet with one |f|, by RK45 otherwise or
    when Floquet is rejected (module docstring).
    The Trajectory holds the block snapshots and their vec(rho) indices
    ``keep``; entries outside the block are exactly zero and never stored.
    Snapshots are renormalized on the block, by the trace of its diagonal
    entries, when the drift is below 1e-6, otherwise the run errors out.
    ``meta`` records the ``method`` (``"expm"`` or ``"expm_multiply"``,
    whichever is predicted to cost less on the block, ``"floquet"`` or
    ``"rk45"``), the propagated ``block_dim`` of vec(rho) (of the 2M+1
    stacked harmonics for Floquet), the RHS evaluations ``nfev`` (0 when exact),
    ``max_trace_drift`` and, when ``validate``, the renormalized snapshots'
    smallest eigenvalue ``min_eigenvalue`` and largest entry of rho - rho^dag
    ``max_hermiticity_deviation`` (one ``validate_state`` call on the block
    snapshots).  Floquet runs add ``floquet_order``, the order M used (the
    first of ``FLOQUET_ORDERS`` whose harmonics pass), ``floquet_tail``, the
    largest entry of harmonics +-M, and ``stack_method``, the exact method
    (``"expm"`` or ``"expm_multiply"``) the harmonic stack took.  An RK45
    run of a single-frequency H says why in ``floquet_rejected``: ``"tail"``
    when harmonics +-M still exceed ``FLOQUET_TAIL`` at the last order (it keeps
    that order's ``floquet_order``, ``floquet_tail`` and ``stack_method``),
    ``"stack_dim"`` when the pruned stack at ``floquet_order`` holds
    ``stack_dim`` > ``DENSE_BLOCK_MAX`` states and was never propagated.
    """
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or len(times) < 1 or not np.all(np.isfinite(times))
            or np.any(np.diff(times) <= 0)):
        raise ValueError("times must be a finite, strictly increasing 1-D grid")

    block = _block(h, collapse, rho0)
    freqs = {abs(f) for f in block.drives}
    vecs, meta = None, {}
    if not freqs:
        vecs, method = _propagate_exact(block.gen, block.v0, times, block.partner)
        meta = {"method": method, "block_dim": len(block.keep), "nfev": 0}
    elif len(freqs) == 1:
        vecs, meta = _propagate_floquet(block, times)
    if vecs is None:
        vecs, rk45_meta = _integrate_rk45(block, times)
        meta = {**rk45_meta, **meta}
    # the diagonal entries summed one at a time in index order: the bits of
    # einsum("tii->t") on the full stack
    diagonal = np.flatnonzero(block.keep % (rho0.dim + 1) == 0)
    traces = sum(vecs[:, j] for j in diagonal).real
    max_drift = float(np.max(np.abs(traces - 1.0)))
    if max_drift >= TRACE_DRIFT_LIMIT:
        raise SolverError(f"trace drift {max_drift:.2e} exceeds {TRACE_DRIFT_LIMIT:g}")

    traj = Trajectory(times, vecs / traces[:, None], rho0.dims, block.keep,
                      meta={**meta, "max_trace_drift": max_drift})
    if validate:
        report = validate_state(traj, tol=1e-6)
        traj.meta["min_eigenvalue"] = report.min_eigenvalue
        traj.meta["max_hermiticity_deviation"] = report.hermiticity_deviation
    return traj


def observable_series(traj, ops):
    """Real expectation values, shape (n_times, n_ops).

    Warns when any imaginary part exceeds 1e-7: ``evolve``'s snapshots are
    Hermitian by construction, so only a non-Hermitian observable gives one.
    """
    for op in ops:
        if op.dims != traj.dims:
            raise ValueError(f"observable dims {op.dims} do not match {traj.dims}")
    # Tr(rho O) = vec(rho) . vec(O^T), read on the block's entries alone
    values = traj.states @ np.stack([op.data.T.ravel()[traj.keep] for op in ops], axis=1)
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


def _sweep_one(device, drive, axis, times, rho0, collapse, offset):
    """(n_times, 2) photon numbers of both transmons at one sweep offset."""
    h = model.build_static_hamiltonian(device, drive,
                                       **{model.SWEEP_AXES[axis]: offset})
    traj = evolve(h, collapse, rho0, times, validate=False)
    return observable_series(traj, [model.transmon_number(1), model.transmon_number(2)])


def sweep_chevron(device, drive, axis, offsets, times, rho0, collapse=(), workers=1):
    """Sweep a drive-frequency offset and record both transmon photon numbers.

    ``axis`` selects which frequency is offset: the red QQ pair center, the
    blue QQ pair center, or both QR sidebands.  Trajectories over the offset
    grid are independent and can run in parallel (``workers`` > 1).
    """
    if axis not in model.SWEEP_AXES:
        raise ValueError(f"axis must be one of {tuple(model.SWEEP_AXES)}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    offsets = np.asarray(offsets, dtype=float)
    if offsets.size == 0:
        raise ValueError("offset grid must be nonempty")
    times = np.asarray(times, dtype=float)

    job = functools.partial(_sweep_one, device, drive, axis, times, rho0, tuple(collapse))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            nq = np.stack(list(pool.map(job, offsets.tolist())))
    else:
        nq = np.stack([job(off) for off in offsets.tolist()])
    return ChevronMap(axis, offsets, times, nq[:, :, 0], nq[:, :, 1])


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
