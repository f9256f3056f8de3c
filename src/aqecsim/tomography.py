"""Two-qutrit state tomography: forward sampling, inversion, and MLE.

The measurement model: after each of 81 post-rotations (the tensor square of
a 9-element single-qutrit rotation set) the two transmons are read out in the
energy basis, giving 9 outcome probabilities per rotation.  Readout
imperfections enter through a 9x9 confusion matrix (rows = prepared state,
columns = assigned outcome).  Reconstruction first inverts the linear model,
then refines with a maximum-likelihood search over a factorized (always
physical) parameterization.

Resonators play no role here; callers trace them out first (see
``operators.partial_trace``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

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

def _hermitian_basis():
    """81 Hermitian matrices spanning 9x9 Hermitian space (real coordinates)."""
    basis = []
    for a in range(N_OUT):
        m = np.zeros((N_OUT, N_OUT), dtype=complex)
        m[a, a] = 1.0
        basis.append(m)
    for a in range(N_OUT):
        for b in range(a + 1, N_OUT):
            m = np.zeros((N_OUT, N_OUT), dtype=complex)
            m[a, b] = m[b, a] = 1.0
            basis.append(m)
            m = np.zeros((N_OUT, N_OUT), dtype=complex)
            m[a, b] = -1j
            m[b, a] = 1j
            basis.append(m)
    return np.array(basis)


def corrected_frequencies(tomo, confusion):
    """Measured frequencies with the confusion matrix inverted out."""
    inv = np.linalg.inv(confusion.matrix)
    return tomo.frequencies() @ inv


def linear_inversion(tomo, rotations, confusion):
    """Unconstrained least-squares estimate (Hermitian, trace 1).

    May be non-positive for sampled data; the result carries a
    ``min_eigenvalue`` attribute via :func:`operators.validate_state` if
    needed.
    """
    q = corrected_frequencies(tomo, confusion)  # (81, 9)
    basis = _hermitian_basis()
    us = rotations.unitaries
    # design[k, i, m] = <i| U_k B_m U_k^dag |i>
    design = np.einsum("kij,mjl,kil->kim", us, basis, us.conj()).real
    a = design.reshape(N_ROT * N_OUT, 81)
    assert np.linalg.matrix_rank(a) == 81, "rotation set must be informationally complete"
    x, *_ = np.linalg.lstsq(a, q.ravel(), rcond=None)
    rho = np.tensordot(x, basis, axes=(0, 0))
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    return DensityMatrix(QQ_DIMS, rho)


def project_to_physical(rho):
    """Nearest physical state: clip negative eigenvalues, renormalize."""
    vals, vecs = np.linalg.eigh(0.5 * (rho.data + rho.data.conj().T))
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0:
        vals = np.ones_like(vals)
    vals = vals / vals.sum()
    return DensityMatrix(rho.dims, (vecs * vals) @ vecs.conj().T)


@dataclass(frozen=True)
class MLEResult:
    """Reconstructed state plus optimizer diagnostics."""

    rho: DensityMatrix
    cost: float
    n_iter: int
    converged: bool


_TRIL = np.tril_indices(N_OUT, k=-1)


def _params_to_t(x):
    t = np.zeros((N_OUT, N_OUT), dtype=complex)
    t[np.diag_indices(N_OUT)] = x[:N_OUT]
    off = x[N_OUT:N_OUT + 36] + 1j * x[N_OUT + 36:]
    t[_TRIL] = off
    return t


def _t_to_params(t):
    x = np.zeros(81)
    x[:N_OUT] = np.real(np.diag(t))
    off = t[_TRIL]
    x[N_OUT:N_OUT + 36] = off.real
    x[N_OUT + 36:] = off.imag
    return x


def mle_reconstruct(tomo, rotations, confusion, max_iter=10000, gtol=1e-9):
    """Maximum-likelihood physical state from a Tomogram.

    Minimizes the summed squared relative deviation between model and
    confusion-corrected measured probabilities, over the factorized (always
    physical) form rho = T T^dag / Tr(T T^dag) with T lower triangular (81
    real parameters), starting from the positivity-projected linear-inversion
    estimate.  Measured probabilities are floored at 1/(10*shots) so empty
    outcomes cannot dominate the cost.
    """
    q = corrected_frequencies(tomo, confusion)
    floor = 1.0 / (10.0 * tomo.shots)
    q = np.clip(q, floor, None)
    w = 1.0 / q**2  # (81, 9)

    us = rotations.unitaries
    # v[:, k*9+i] = U_k^dag |i>  (conjugated i-th row of U_k);
    # p_{k,i} = ||T^dag v||^2 / ||T||_F^2
    v = us.conj().reshape(N_ROT * N_OUT, N_OUT).T
    wq_flat = w.ravel()
    q_flat = q.ravel()

    def cost_grad(x):
        t = _params_to_t(x)
        u = t.conj().T @ v  # (9, 729), column i = T^dag v_i
        s = np.sum(np.abs(t) ** 2)
        if s <= 0:
            return np.inf, np.zeros_like(x)
        raw = np.sum(np.abs(u) ** 2, axis=0)
        p = raw / s
        diff = p - q_flat
        cost = float(np.sum(wq_flat * diff**2))
        # d cost / d T* (Wirtinger): sum_i 2 w_i diff_i (v_i u_i^dag - p_i T)/s
        coef = 2.0 * wq_flat * diff / s  # (729,)
        gt = (v * coef) @ u.conj().T - np.sum(coef * p) * t
        grad = np.zeros_like(x)
        grad[:N_OUT] = 2.0 * np.real(np.diag(gt))
        off = gt[_TRIL]
        grad[N_OUT:N_OUT + 36] = 2.0 * off.real
        grad[N_OUT + 36:] = 2.0 * off.imag
        return cost, grad

    start = project_to_physical(linear_inversion(tomo, rotations, confusion))
    # lower Cholesky factor of the (regularized) starting state: L L^dag = rho
    t0 = np.linalg.cholesky(start.data + 1e-9 * np.eye(N_OUT))
    x0 = _t_to_params(t0)

    res = minimize(cost_grad, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "gtol": gtol, "ftol": 1e-14})
    t = _params_to_t(res.x)
    rho = t @ t.conj().T
    rho = rho / np.trace(rho).real
    converged = bool(res.success) or res.status == 0
    if not converged:
        warnings.warn(f"likelihood search stopped early: {res.message}",
                      RuntimeWarning, stacklevel=2)
    return MLEResult(DensityMatrix(QQ_DIMS, rho), float(res.fun),
                     int(res.nit), converged)


def mle_cost(rho, tomo, rotations, confusion):
    """The reconstruction cost of an arbitrary physical state (diagnostic)."""
    q = corrected_frequencies(tomo, confusion)
    floor = 1.0 / (10.0 * tomo.shots)
    q = np.clip(q, floor, None)
    p = _ideal_probabilities(rho, rotations)
    return float(np.sum(((p - q) / q) ** 2))


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
