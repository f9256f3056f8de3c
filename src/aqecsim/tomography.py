"""Two-qutrit state tomography: forward sampling, inversion, and MLE.

The measurement model: after each of 81 post-rotations (the tensor square of
a 9-element single-qutrit rotation set) the two transmons are read out in the
energy basis, giving 9 outcome probabilities per rotation.  Readout
imperfections enter through a 9x9 confusion matrix (rows = prepared state,
columns = assigned outcome).  Reconstruction uses one forward model: 729
POVM effects, one per rotation and assigned outcome, with the confusion
matrix folded in, so it is never inverted.  States and effects are
written in real coordinates of Hermitian 9x9 matrices (an orthonormal
basis, so the trace inner product is the dot product), and the forward
model is one real 729x81 matrix.  Linear inversion is real least squares
on it; maximum likelihood minimizes the multinomial negative
log-likelihood over physical states by accelerated projected gradient and
stops on a duality gap that bounds its distance to the optimum; the gap's
eigen-solve runs only when the Rayleigh quotient of the last top
eigenvector, a lower bound on the largest eigenvalue, no longer shows the
gap open.

Resonators play no role here; callers trace them out first, once per
trajectory, with ``operators.trace_out``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .operators import QQ_DIMS, QUTRIT_LEVELS, DensityMatrix, validate_state

N_OUT = math.prod(QQ_DIMS)
N_ROT = 81

_BASIS_LABELS = tuple(a + b for a in QUTRIT_LEVELS for b in QUTRIT_LEVELS)


def r_ge(phi, theta):
    """Rotation in the g-e subspace of a single qutrit."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -np.exp(-1j * phi) * s, 0],
                     [np.exp(1j * phi) * s, c, 0],
                     [0, 0, 1]], dtype=complex)


def r_ef(phi, theta):
    """Rotation in the e-f subspace of a single qutrit."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[1, 0, 0],
                     [0, c, -np.exp(-1j * phi) * s],
                     [0, np.exp(1j * phi) * s, c]], dtype=complex)


def _single_qutrit_set():
    h = math.pi / 2.0
    return [
        np.eye(3, dtype=complex),
        r_ge(0, h),
        r_ge(h, h),
        r_ge(0, math.pi),
        r_ef(0, h),
        r_ef(h, h),
        r_ef(0, h) @ r_ge(0, math.pi),
        r_ef(h, h) @ r_ge(0, math.pi),
        r_ef(0, math.pi) @ r_ge(0, math.pi),
    ]


@dataclass(frozen=True)
class RotationSet:
    """81 two-qutrit post-rotation unitaries (tensor square, row-major)."""

    unitaries: np.ndarray = field(repr=False)  # (81, 9, 9)

    def __post_init__(self):
        u = np.asarray(self.unitaries, dtype=complex)
        if u.shape != (N_ROT, N_OUT, N_OUT):
            raise ValueError(f"expected ({N_ROT}, {N_OUT}, {N_OUT}) unitaries, got {u.shape}")
        gram = np.einsum("kia,kib->kab", u.conj(), u)
        if np.max(np.abs(gram - np.eye(N_OUT))) > 1e-10:
            raise ValueError("rotation set contains a non-unitary element")
        u.setflags(write=False)
        object.__setattr__(self, "unitaries", u)

    def __len__(self):
        return N_ROT

    def __getitem__(self, i):
        return self.unitaries[i]


def rotation_set():
    """The standard 81-element two-qutrit tomography rotation set."""
    s = np.array(_single_qutrit_set())
    # kron of every ordered pair: us[a, b, (i, k), (j, l)] = s[a, i, j] s[b, k, l]
    us = s[:, None, :, None, :, None] * s[None, :, None, :, None, :]
    return RotationSet(us.reshape(N_ROT, N_OUT, N_OUT))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic readout assignment matrix (prepared -> assigned)."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (N_OUT, N_OUT):
            raise ValueError(f"confusion matrix must be 9x9, got {m.shape}")
        if np.min(m) < 0.0 or np.max(m) > 1.0:
            raise ValueError("confusion entries must lie in [0, 1]")
        if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("confusion rows must sum to 1")
        cond = np.linalg.cond(m)
        if not np.isfinite(cond):
            raise ValueError("confusion matrix is singular")
        if cond > 1e3:
            warnings.warn(f"confusion matrix is ill-conditioned (cond={cond:.3g})",
                          RuntimeWarning, stacklevel=2)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity():
        return ConfusionMatrix(np.eye(N_OUT))

    @staticmethod
    def load(path):
        with warnings.catch_warnings():  # an empty file: the 9x9 check says so
            warnings.filterwarnings("ignore", "loadtxt", UserWarning)
            m = np.loadtxt(path)
        return ConfusionMatrix(m)

    def save(self, path):
        np.savetxt(path, self.matrix)


@dataclass(frozen=True)
class Tomogram:
    """Raw measurement record: counts per rotation/outcome, shots, RNG seed."""

    counts: np.ndarray = field(repr=False)  # (81, 9) ints
    shots: int
    seed: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (N_ROT, N_OUT):
            raise ValueError(f"counts must be 81x9, got {c.shape}")
        if np.min(c) < 0:
            raise ValueError("counts must be non-negative")
        if np.any(c.sum(axis=1) != self.shots):
            raise ValueError("each rotation's counts must sum to shots")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def frequencies(self):
        return self.counts / float(self.shots)

    def save(self, path):
        header = (f"shots={self.shots} seed={self.seed}\n"
                  "rotation\t" + "\t".join(_BASIS_LABELS))
        table = np.column_stack([np.arange(N_ROT), self.counts])
        np.savetxt(path, table, fmt="%d", delimiter="\t", header=header)

    @staticmethod
    def load(path):
        with open(path) as fh:
            first = fh.readline().lstrip("# ").split()
        meta = dict(kv.split("=") for kv in first if "=" in kv)
        for key in ("shots", "seed"):
            if key not in meta:
                raise ValueError(f"{path}: tomogram header has no {key}=")
        with warnings.catch_warnings():  # no data rows: the 81x9 check says so
            warnings.filterwarnings("ignore", "loadtxt", UserWarning)
            table = np.loadtxt(path, dtype=np.int64, skiprows=2, ndmin=2)
        return Tomogram(table[:, 1:], int(meta["shots"]), int(meta["seed"]))


# ---------------------------------------------------------------------------
# forward model

def _ideal_probabilities(rho, rotations):
    """(81, 9) outcome probabilities before readout errors."""
    r = rho.data
    us = rotations.unitaries
    p = np.einsum("kij,jl,kil->ki", us, r, us.conj()).real
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=1, keepdims=True)


def simulate_counts(rho, rotations, confusion, shots, seed):
    """Sample a Tomogram from a two-qutrit state (deterministic given seed)."""
    if rho.dims != QQ_DIMS:
        raise ValueError(f"expected a two-qutrit state, got dims {rho.dims}")
    if shots <= 0:
        raise ValueError("shots must be positive")
    report = validate_state(rho, tol=1e-6)
    if not report.passed:
        raise ValueError(f"invalid input state: {report}")
    p = _ideal_probabilities(rho, rotations)
    q = p @ confusion.matrix  # assigned-outcome probabilities
    rng = np.random.default_rng(seed)
    counts = np.array([rng.multinomial(shots, row / row.sum()) for row in q])
    return Tomogram(counts, shots, seed)


# ---------------------------------------------------------------------------
# reconstruction

# The likelihood search stops once lambda_max(R) - 1 falls below this.
# R = sum_r f_r / p_r E_r is minus the gradient of the NLL per count, and
# Tr(rho R) = 1.  For every state sigma, NLL(rho) - NLL(sigma) <=
# log Tr(sigma R) <= lambda_max(R) - 1, so the gap bounds the distance to
# the minimum.
GAP_TOL = 1e-7

_UPPER = np.triu_indices(N_OUT, 1)
_SQRT_HALF = math.sqrt(0.5)


def _coords(m):
    """Real coordinates of the Hermitian part of ``m`` (last two axes 9x9).

    The basis is orthonormal in the trace inner product: |a><a|, then
    (|a><b| + |b><a|)/sqrt2 and i(|a><b| - |b><a|)/sqrt2 for a < b.  So the
    coordinates are the 9 diagonal entries, then sqrt2 Re and sqrt2 Im of
    the 36 upper ones; Tr(a b) = coords(a) @ coords(b) for Hermitian a, b,
    and |coords(m)| is the Frobenius norm.
    """
    a, b = _UPPER
    upper = (m[..., a, b] + m[..., b, a].conj()) * _SQRT_HALF
    return np.concatenate([m.diagonal(axis1=-2, axis2=-1).real,
                           upper.real, upper.imag], axis=-1)


def _matrix(x):
    """The Hermitian 9x9 matrix with real coordinates ``x``."""
    a, b = _UPPER
    m = np.diag(x[:N_OUT].astype(complex))
    m[a, b] = (x[N_OUT:N_OUT + a.size] + 1j * x[N_OUT + a.size:]) * _SQRT_HALF
    m[b, a] = m[a, b].conj()
    return m


def _effects(rotations, confusion):
    """(729, 81) real rows with p = rows @ _coords(rho), readout folded in.

    Row (k, j) holds the coordinates of the effect of rotation k followed by
    assigned outcome j, sum_i C[i, j] U_k^dag |i><i| U_k / 81.  Each
    rotation's nine effects sum to I/81, so the 729 probabilities of a state
    sum to one.
    """
    us = rotations.unitaries
    projectors = us.conj()[..., :, None] * us[..., None, :]  # U^dag|i><i|U
    rows = np.matmul(confusion.matrix.T, _coords(projectors))
    return rows.reshape(N_ROT * N_OUT, N_OUT * N_OUT) / N_ROT


def _frequencies(tomo):
    """The 729 outcome frequencies, normalized like the effects' rows."""
    return tomo.frequencies().ravel() / N_ROT


def _observed(tomo, rotations, confusion):
    """Effects and frequencies of the outcomes seen at least once; the
    others add nothing to the likelihood."""
    rows, f = _effects(rotations, confusion), _frequencies(tomo)
    return rows[f > 0], f[f > 0]


def _nll(f, p):
    """Multinomial negative log-likelihood per count."""
    return -float(f @ np.log(p)) if np.min(p) > 0.0 else math.inf


def linear_inversion(tomo, rotations, confusion):
    """Unconstrained least-squares estimate (Hermitian, trace 1).

    May be non-positive for sampled data; :func:`project_to_physical` gives
    the nearest physical state.
    """
    x, _, rank, _ = np.linalg.lstsq(_effects(rotations, confusion),
                                    _frequencies(tomo), rcond=None)
    if rank < N_OUT * N_OUT:
        raise ValueError("rotation set is not informationally complete")
    rho = _matrix(x)
    return DensityMatrix(QQ_DIMS, rho / np.trace(rho).real)


def _project(m):
    """Nearest physical state to the Hermitian matrix ``m`` (Frobenius)."""
    vals, vecs = np.linalg.eigh(m)
    desc = vals[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, desc.size + 1)
    keep = np.nonzero(desc > shifts)[0][-1]
    vals = np.clip(vals - shifts[keep], 0.0, None)
    return (vecs * vals) @ vecs.conj().T


def project_to_physical(rho):
    """Nearest physical state in the Frobenius norm.

    The eigenvalues move to the nearest point of the probability simplex,
    the eigenvectors stay (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).
    """
    return DensityMatrix(rho.dims,
                         _project(0.5 * (rho.data + rho.data.conj().T)))


@dataclass(frozen=True)
class MLEResult:
    """Reconstructed state plus optimizer diagnostics."""

    rho: DensityMatrix
    cost: float
    n_iter: int
    converged: bool


def _top_eigen(r):
    """lambda_max(R) and the coordinates of its eigenprojector, R given by
    its coordinates."""
    vals, vecs = np.linalg.eigh(_matrix(r))
    top = vecs[:, -1]
    return vals[-1], _coords(np.outer(top, top.conj()))


def mle_reconstruct(tomo, rotations, confusion, max_iter=10000):
    """Maximum-likelihood physical state from a Tomogram.

    Minimizes the multinomial negative log-likelihood per count of the
    assigned outcomes, with the confusion matrix inside the forward model,
    by accelerated projected gradient with restart (Shang, Zhang & Ng, PRA
    95, 062336 (2017)) from I/9.  Each step, backtracking trials included,
    is one of at most ``max_iter`` iterations.  ``converged`` means the
    duality gap fell below :data:`GAP_TOL`.

    States and gradients are real coordinates (:func:`_coords`).  Each
    step makes one pass over the effects for the trial point and one for
    both gradients; probabilities are linear in the state, so those of the
    extrapolated point need none.
    """
    rows, f = _observed(tomo, rotations, confusion)
    x = _coords(np.eye(N_OUT)) / N_OUT
    p = rows @ x
    r_s = (f / p) @ rows  # R = sum f/p E, minus the gradient, at sigma
    lam, top = _top_eigen(r_s)
    converged = lam - 1.0 < GAP_TOL
    sigma, p_s = x, p
    theta, step, n_iter = 1.0, 1.0, 0
    while not converged and n_iter < max_iter:
        n_iter += 1
        new = _coords(_project(_matrix(sigma + step * r_s)))
        d = new - sigma
        q = (rows @ d) / p_s
        # Accept once the NLL exceeds its linearization at sigma by at most
        # |d|^2 / (2 step).  The excess is summed term by term: near the
        # minimum it falls below the rounding error of the NLL itself.
        if np.min(q) <= -1.0 or f @ (q - np.log1p(q)) > d @ d / (2.0 * step):
            step *= 0.5
            continue
        p_new = p_s * (1.0 + q)
        if r_s @ (new - x) < 0.0:  # moving uphill: drop the momentum
            theta = 1.0
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        c = (theta - 1.0) / theta_next
        sigma, p_s = new + c * (new - x), p_new + c * (p_new - p)
        x, p, theta = new, p_new, theta_next
        if np.min(p_s) <= 0.0:  # extrapolated past an observed outcome's zero
            sigma, p_s, theta = x, p, 1.0
            r_new = r_s = (f / p) @ rows
        else:
            r_new, r_s = (f / np.stack([p, p_s])) @ rows
        # The Rayleigh quotient of the last top eigenvector bounds
        # lambda_max(R) from below: while it exceeds 1 + GAP_TOL the gap
        # is open and needs no eigen-solve.
        if r_new @ top - 1.0 < GAP_TOL:
            lam, top = _top_eigen(r_new)
            converged = lam - 1.0 < GAP_TOL
        step *= 1.1
    if not converged:
        warnings.warn(f"likelihood search stopped after {n_iter} iterations, "
                      f"before the duality gap fell below {GAP_TOL:g}",
                      RuntimeWarning, stacklevel=2)
    return MLEResult(DensityMatrix(QQ_DIMS, _matrix(x)), _nll(f, p), n_iter,
                     bool(converged))


def mle_cost(rho, tomo, rotations, confusion):
    """The NLL per count that :func:`mle_reconstruct` minimizes, at ``rho``."""
    rows, f = _observed(tomo, rotations, confusion)
    return _nll(f, rows @ _coords(rho.data))


def fidelity(a, b):
    """Uhlmann state fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")
    va, ua = np.linalg.eigh(0.5 * (a.data + a.data.conj().T))
    va = np.clip(va, 0.0, None)
    sqrt_a = (ua * np.sqrt(va)) @ ua.conj().T
    m = sqrt_a @ b.data @ sqrt_a
    vals = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    vals = np.clip(vals, 0.0, None)
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(max(f, 0.0), 1.0)
