"""Two-qutrit state tomography: forward sampling, inversion, and MLE.

The measurement model: after each of 81 post-rotations (the tensor square of
a 9-element single-qutrit rotation set) the two transmons are read out in the
energy basis, giving 9 outcome probabilities per rotation.  Readout
imperfections enter through a 9x9 confusion matrix (rows = prepared state,
columns = assigned outcome).  Reconstruction uses one forward model: 729
POVM effects, one per rotation and assigned outcome, with the confusion
matrix folded in, so it is never inverted.  Linear inversion is least
squares on those effects; maximum likelihood minimizes the multinomial
negative log-likelihood over physical states by accelerated projected
gradient and stops on a duality gap that bounds its distance to the optimum.

Resonators play no role here; callers trace them out first (see
``operators.partial_trace``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .operators import QQ_DIMS, DensityMatrix, validate_state

N_OUT = 9
N_ROT = 81

_BASIS_LABELS = tuple(a + b for a in "gef" for b in "gef")


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
            raise ValueError(f"expected (81, 9, 9) unitaries, got {u.shape}")
        eye = np.eye(N_OUT)
        for m in u:
            if np.max(np.abs(m.conj().T @ m - eye)) > 1e-10:
                raise ValueError("rotation set contains a non-unitary element")
        u.setflags(write=False)
        object.__setattr__(self, "unitaries", u)

    def __len__(self):
        return N_ROT

    def __getitem__(self, i):
        return self.unitaries[i]


def rotation_set():
    """The standard 81-element two-qutrit tomography rotation set."""
    singles = _single_qutrit_set()
    us = np.array([np.kron(s1, s2) for s1 in singles for s2 in singles])
    return RotationSet(us)


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
        table = np.loadtxt(path, dtype=np.int64, skiprows=2)
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


def _effects(rotations, confusion):
    """(729, 81) rows with p = rows @ vec(rho), readout errors folded in.

    Row (k, j) is the effect of rotation k followed by assigned outcome j,
    sum_i C[i, j] U_k^dag |i><i| U_k / 81, stored as vec of its transpose.
    Each rotation's nine effects sum to I/81, so the 729 probabilities of a
    state sum to one.
    """
    us = rotations.unitaries
    rows = np.einsum("kia,kib,ij->kjab", us, us.conj(), confusion.matrix)
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
    rho = x.reshape(N_OUT, N_OUT)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(QQ_DIMS, rho / np.trace(rho).real)


def project_to_physical(rho):
    """Nearest physical state in the Frobenius norm.

    The eigenvalues move to the nearest point of the probability simplex,
    the eigenvectors stay (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).
    """
    vals, vecs = np.linalg.eigh(0.5 * (rho.data + rho.data.conj().T))
    desc = vals[::-1]
    shifts = (np.cumsum(desc) - 1.0) / np.arange(1, desc.size + 1)
    keep = np.nonzero(desc > shifts)[0][-1]
    vals = np.clip(vals - shifts[keep], 0.0, None)
    return DensityMatrix(rho.dims, (vecs * vals) @ vecs.conj().T)


@dataclass(frozen=True)
class MLEResult:
    """Reconstructed state plus optimizer diagnostics."""

    rho: DensityMatrix
    cost: float
    n_iter: int
    converged: bool


def mle_reconstruct(tomo, rotations, confusion, max_iter=10000):
    """Maximum-likelihood physical state from a Tomogram.

    Minimizes the multinomial negative log-likelihood per count of the
    assigned outcomes, with the confusion matrix inside the forward model,
    by accelerated projected gradient with restart (Shang, Zhang & Ng, PRA
    95, 062336 (2017)) from I/9.  Each step, backtracking trials included,
    is one of at most ``max_iter`` iterations.  ``converged`` means the
    duality gap fell below :data:`GAP_TOL`.
    """
    rows, f = _observed(tomo, rotations, confusion)

    def probabilities(m):
        return (rows @ m.ravel()).real

    def minus_gradient(p):  # R = sum f/p E
        return ((f / p) @ rows).reshape(N_OUT, N_OUT).T

    rho = np.eye(N_OUT, dtype=complex) / N_OUT
    p = probabilities(rho)
    sigma, p_s, r_s = rho, p, minus_gradient(p)
    converged = np.linalg.eigvalsh(r_s)[-1] - 1.0 < GAP_TOL
    theta, step, n_iter = 1.0, 1.0, 0
    while not converged and n_iter < max_iter:
        n_iter += 1
        new = project_to_physical(DensityMatrix(QQ_DIMS, sigma + step * r_s)).data
        d = new - sigma
        x = probabilities(d) / p_s
        # Accept once the NLL exceeds its linearization at sigma by at most
        # |d|^2 / (2 step).  The excess is summed term by term: near the
        # minimum it falls below the rounding error of the NLL itself.
        if (np.min(x) <= -1.0
                or f @ (x - np.log1p(x)) > np.vdot(d, d).real / (2.0 * step)):
            step *= 0.5
            continue
        p_new = p_s * (1.0 + x)
        converged = np.linalg.eigvalsh(minus_gradient(p_new))[-1] - 1.0 < GAP_TOL
        if np.vdot(r_s, new - rho).real < 0.0:  # moving uphill: drop the momentum
            theta = 1.0
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        sigma = new + (theta - 1.0) / theta_next * (new - rho)
        rho, p, theta = new, p_new, theta_next
        p_s = probabilities(sigma)
        if np.min(p_s) <= 0.0:  # extrapolated past an observed outcome's zero
            sigma, p_s, theta = rho, p, 1.0
        r_s = minus_gradient(p_s)
        step *= 1.1
    if not converged:
        warnings.warn(f"likelihood search stopped after {n_iter} iterations, "
                      f"before the duality gap fell below {GAP_TOL:g}",
                      RuntimeWarning, stacklevel=2)
    return MLEResult(DensityMatrix(QQ_DIMS, rho), _nll(f, p), n_iter, bool(converged))


def mle_cost(rho, tomo, rotations, confusion):
    """The NLL per count that :func:`mle_reconstruct` minimizes, at ``rho``."""
    rows, f = _observed(tomo, rotations, confusion)
    return _nll(f, (rows @ rho.data.ravel()).real)


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
