"""Two-qutrit tomography: sampling, linear inversion, MLE, fidelity."""

import math
import warnings

import numpy as np
import pytest

from aqecsim import model, tomography
from aqecsim.operators import DensityMatrix, basis_state


def _probabilities(rho, rotations):
    us = rotations.unitaries
    return np.einsum("kij,jl,kil->ki", us, rho.data, us.conj()).real


def _exact_tomogram(rho, rotations, shots=10**12):
    """Counts from rounding exact probabilities (negligible rounding error)."""
    p = np.clip(_probabilities(rho, rotations), 0.0, None)
    p = p / p.sum(axis=1, keepdims=True)
    counts = np.rint(p * shots).astype(np.int64)
    for row in counts:
        row[np.argmax(row)] += shots - row.sum()
    return tomography.Tomogram(counts, shots, seed=0)


# ---------------------------------------------------------------------------
# rotation set

def test_rotation_set_structure():
    rset = tomography.rotation_set()
    assert len(rset) == 81
    flip = tomography.r_ge(0.0, math.pi)
    assert np.allclose(flip, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)
    # row-major tensor square: element 3 applies the flip on the second qutrit
    assert np.allclose(rset[3], np.kron(np.eye(3), flip))
    assert np.allclose(rset[27], np.kron(flip, np.eye(3)))
    with pytest.raises(ValueError):
        tomography.RotationSet(np.ones((81, 9, 9), dtype=complex))
    # one element off unitarity by 2e-9, above the 1e-10 bound
    us = rset.unitaries.copy()
    us[40] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="non-unitary"):
        tomography.RotationSet(us)


def test_rotation_set_is_informationally_complete():
    rho = model.logical_qutrit_state("Lx").to_density()
    tomo = _exact_tomogram(rho, tomography.rotation_set())
    est = tomography.linear_inversion(tomo, tomography.rotation_set(),
                                      tomography.ConfusionMatrix.identity())
    assert np.max(np.abs(est.data - rho.data)) <= 1e-9


# ---------------------------------------------------------------------------
# confusion matrix

def test_confusion_matrix_validation():
    good = tomography.ConfusionMatrix.identity()
    assert np.allclose(good.matrix, np.eye(9))
    bad = np.eye(9)
    bad[0, 0] = 0.5  # row no longer sums to one
    with pytest.raises(ValueError):
        tomography.ConfusionMatrix(bad)
    with pytest.raises(ValueError):
        tomography.ConfusionMatrix(np.eye(8))
    neg = np.eye(9) * 1.1 - 0.1 / 8.0 * (1 - np.eye(9))
    with pytest.raises(ValueError):
        tomography.ConfusionMatrix(neg)


def test_confusion_matrix_ill_conditioned_warns():
    m = (1.0 - 1e-4) * np.full((9, 9), 1.0 / 9.0) + 1e-4 * np.eye(9)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        tomography.ConfusionMatrix(m)


def test_confusion_matrix_save_load(tmp_path):
    m = 0.95 * np.eye(9) + 0.05 / 8.0 * (1 - np.eye(9))
    conf = tomography.ConfusionMatrix(m)
    conf.save(tmp_path / "conf.txt")
    back = tomography.ConfusionMatrix.load(tmp_path / "conf.txt")
    assert np.allclose(back.matrix, conf.matrix)


# ---------------------------------------------------------------------------
# sampling

def test_simulate_counts_deterministic_and_validated():
    rho = model.logical_qutrit_state("L0").to_density()
    rset = tomography.rotation_set()
    conf = tomography.ConfusionMatrix.identity()
    t1 = tomography.simulate_counts(rho, rset, conf, shots=500, seed=42)
    t2 = tomography.simulate_counts(rho, rset, conf, shots=500, seed=42)
    t3 = tomography.simulate_counts(rho, rset, conf, shots=500, seed=43)
    assert np.array_equal(t1.counts, t2.counts)
    assert not np.array_equal(t1.counts, t3.counts)
    assert np.all(t1.counts.sum(axis=1) == 500)
    with pytest.raises(ValueError):
        tomography.simulate_counts(rho, rset, conf, shots=0, seed=1)
    full = model.logical_state("L0").to_density()
    with pytest.raises(ValueError):
        tomography.simulate_counts(full, rset, conf, shots=100, seed=1)


def test_tomogram_validation_and_roundtrip(tmp_path):
    rho = model.logical_qutrit_state("L1").to_density()
    tomo = tomography.simulate_counts(rho, tomography.rotation_set(),
                                      tomography.ConfusionMatrix.identity(),
                                      shots=300, seed=5)
    path = tmp_path / "tomo.tsv"
    tomo.save(path)
    back = tomography.Tomogram.load(path)
    assert np.array_equal(back.counts, tomo.counts)
    assert back.shots == 300 and back.seed == 5
    with pytest.raises(ValueError):
        tomography.Tomogram(tomo.counts, shots=301, seed=5)
    with pytest.raises(ValueError):
        tomography.Tomogram(-tomo.counts, shots=300, seed=5)


# ---------------------------------------------------------------------------
# reconstruction

def test_linear_inversion_permutation_invariant():
    rho = model.logical_qutrit_state("L0").to_density()
    rset = tomography.rotation_set()
    conf = tomography.ConfusionMatrix.identity()
    tomo = tomography.simulate_counts(rho, rset, conf, shots=2000, seed=9)
    rng = np.random.default_rng(1)
    perm = rng.permutation(81)
    rset_p = tomography.RotationSet(rset.unitaries[perm])
    tomo_p = tomography.Tomogram(tomo.counts[perm], tomo.shots, tomo.seed)
    a = tomography.linear_inversion(tomo, rset, conf)
    b = tomography.linear_inversion(tomo_p, rset_p, conf)
    assert np.max(np.abs(a.data - b.data)) <= 1e-6


def test_project_to_physical():
    m = np.diag([1.2, -0.2] + [0.0] * 7).astype(complex)
    rho = tomography.project_to_physical(DensityMatrix((3, 3), m))
    vals = np.linalg.eigvalsh(rho.data)
    assert np.min(vals) >= 0.0
    assert np.trace(rho.data).real == pytest.approx(1.0)
    # nearest in the Frobenius norm: the excess is shared equally, not rescaled
    m = np.diag([0.6, 0.5, -0.1] + [0.0] * 6).astype(complex)
    rho = tomography.project_to_physical(DensityMatrix((3, 3), m))
    assert np.allclose(rho.data, np.diag([0.55, 0.45] + [0.0] * 7), atol=1e-12)


def test_mle_reconstruction_beats_linear_inversion():
    base = model.logical_qutrit_state("Lx").to_density()
    rho = DensityMatrix((3, 3), 0.9 * base.data + 0.1 * np.eye(9) / 9.0)
    rset = tomography.rotation_set()
    conf = tomography.ConfusionMatrix.identity()
    tomo = tomography.simulate_counts(rho, rset, conf, shots=5000, seed=3)
    result = tomography.mle_reconstruct(tomo, rset, conf)
    assert result.converged
    assert tomography.fidelity(result.rho, rho) >= 0.98
    start = tomography.project_to_physical(
        tomography.linear_inversion(tomo, rset, conf))
    assert result.cost <= tomography.mle_cost(start, tomo, rset, conf) + 1e-9
    report_trace = np.trace(result.rho.data).real
    assert report_trace == pytest.approx(1.0)


def test_mle_with_confusion_correction():
    rho = model.logical_qutrit_state("L1").to_density()
    m = 0.95 * np.eye(9) + 0.05 / 8.0 * (1 - np.eye(9))
    conf = tomography.ConfusionMatrix(m)
    rset = tomography.rotation_set()
    tomo = tomography.simulate_counts(rho, rset, conf, shots=10**6, seed=17)
    result = tomography.mle_reconstruct(tomo, rset, conf)
    assert result.converged
    assert tomography.fidelity(result.rho, rho) >= 0.995


def _likelihood_optimality(rho, tomo, rotations, confusion):
    """Tr(rho R) and lambda_max(R) - 1, R = sum f/q E over every rotation k
    and assigned outcome j, with E_kj = sum_i C_ij U_k^dag |i><i| U_k / 81
    built here, not from the module's effects.  At the maximum-likelihood
    state the first is 1 and the second 0."""
    us = rotations.unitaries
    projectors = np.einsum("kia,kib->kiab", us.conj(), us)
    q = _probabilities(rho, rotations) @ confusion.matrix
    f = tomo.frequencies()
    w = np.divide(f, q, out=np.zeros_like(f), where=f > 0) / 81.0
    r = np.einsum("ki,kiab->ab", w @ confusion.matrix.T, projectors)
    return np.trace(rho.data @ r).real, np.linalg.eigvalsh(r)[-1] - 1.0


@pytest.mark.parametrize("readout", [1.0, 0.95])
def test_mle_satisfies_optimality_conditions(readout):
    base = model.logical_qutrit_state("Lx").to_density()
    rho = DensityMatrix((3, 3), 0.9 * base.data + 0.1 * np.eye(9) / 9.0)
    conf = tomography.ConfusionMatrix(
        readout * np.eye(9) + (1.0 - readout) / 8.0 * (1 - np.eye(9)))
    rset = tomography.rotation_set()
    tomo = tomography.simulate_counts(rho, rset, conf, shots=5000, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = tomography.mle_reconstruct(tomo, rset, conf)
    assert result.converged
    trace, gap = _likelihood_optimality(result.rho, tomo, rset, conf)
    assert trace == pytest.approx(1.0, abs=1e-9)
    assert -1e-12 <= gap <= 1e-5


def test_mle_iteration_cap_reports_and_warns():
    rho = model.logical_qutrit_state("L0").to_density()
    rset = tomography.rotation_set()
    conf = tomography.ConfusionMatrix.identity()
    tomo = tomography.simulate_counts(rho, rset, conf, shots=100, seed=0)
    with pytest.warns(RuntimeWarning, match="^likelihood search stopped"):
        result = tomography.mle_reconstruct(tomo, rset, conf, max_iter=5)
    assert result.n_iter == 5
    assert result.converged is False
    assert np.trace(result.rho.data).real == pytest.approx(1.0)


def _readout(fidelity):
    return tomography.ConfusionMatrix(
        fidelity * np.eye(9) + (1.0 - fidelity) / 8.0 * (1 - np.eye(9)))


def _random_hermitian(rng):
    m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    return m + m.conj().T


def test_real_coordinates_are_an_isometry():
    rng = np.random.default_rng(4)
    a, b = _random_hermitian(rng), _random_hermitian(rng)
    xa, xb = tomography._coords(a), tomography._coords(b)
    assert xa.shape == (81,) and xa.dtype == float
    assert xa @ xb == pytest.approx(np.trace(a @ b).real, rel=1e-13)
    assert np.linalg.norm(xa) == pytest.approx(np.linalg.norm(a), rel=1e-13)
    assert np.max(np.abs(tomography._matrix(xa) - a)) <= 1e-13


def test_forward_model_matches_einsum_probabilities():
    """A @ coords(rho) against this file's own probabilities, readout
    applied after the rotation, for Hermitian matrices that need not be
    states."""
    rng = np.random.default_rng(6)
    rset = tomography.rotation_set()
    conf = _readout(0.95)
    rows = tomography._effects(rset, conf)
    assert rows.shape == (729, 81) and rows.dtype == float
    for _ in range(3):
        rho = DensityMatrix((3, 3), _random_hermitian(rng))
        expected = (_probabilities(rho, rset) @ conf.matrix).ravel() / 81.0
        assert np.max(np.abs(rows @ tomography._coords(rho.data) - expected)) <= 1e-13


def _reference_mle(tomo, rotations, confusion, max_iter=10000):
    """The likelihood search on complex 9x9 matrices: the same accelerated
    projected gradient, restart and duality-gap test as
    :func:`tomography.mle_reconstruct`, but every probability recomputed
    from complex effects and every gap from a full eigen-solve."""
    us = rotations.unitaries
    rows = np.einsum("kia,kib,ij->kjab", us, us.conj(), confusion.matrix)
    rows = rows.reshape(729, 81) / 81.0
    f = tomo.frequencies().ravel() / 81.0
    rows, f = rows[f > 0], f[f > 0]

    def probabilities(m):
        return (rows @ m.ravel()).real

    def minus_gradient(p):
        return ((f / p) @ rows).reshape(9, 9).T

    def project(m):
        vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
        desc = vals[::-1]
        shifts = (np.cumsum(desc) - 1.0) / np.arange(1, 10)
        vals = np.clip(vals - shifts[np.nonzero(desc > shifts)[0][-1]], 0.0, None)
        return (vecs * vals) @ vecs.conj().T

    rho = np.eye(9, dtype=complex) / 9.0
    p = probabilities(rho)
    sigma, p_s, r_s = rho, p, minus_gradient(p)
    converged = np.linalg.eigvalsh(r_s)[-1] - 1.0 < tomography.GAP_TOL
    theta, step, n_iter = 1.0, 1.0, 0
    while not converged and n_iter < max_iter:
        n_iter += 1
        new = project(sigma + step * r_s)
        d = new - sigma
        x = probabilities(d) / p_s
        if (np.min(x) <= -1.0
                or f @ (x - np.log1p(x)) > np.vdot(d, d).real / (2.0 * step)):
            step *= 0.5
            continue
        p_new = p_s * (1.0 + x)
        converged = (np.linalg.eigvalsh(minus_gradient(p_new))[-1] - 1.0
                     < tomography.GAP_TOL)
        if np.vdot(r_s, new - rho).real < 0.0:
            theta = 1.0
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta**2))
        sigma = new + (theta - 1.0) / theta_next * (new - rho)
        rho, p, theta = new, p_new, theta_next
        p_s = probabilities(sigma)
        if np.min(p_s) <= 0.0:
            sigma, p_s, theta = rho, p, 1.0
        r_s = minus_gradient(p_s)
        step *= 1.1
    return rho, n_iter, bool(converged)


def _mixed_lx():
    base = model.logical_qutrit_state("Lx").to_density()
    return DensityMatrix((3, 3), 0.9 * base.data + 0.1 * np.eye(9) / 9.0)


_REFERENCE_CASES = [(label, readout, 5000)
                    for label in ("L0", "L1", "Lx", "E12", "Lx_mixed")
                    for readout in (1.0, 0.95)] + [("L1", 0.95, 10**6)]


@pytest.mark.parametrize("label,readout,shots", _REFERENCE_CASES)
def test_mle_matches_reference_loop(label, readout, shots):
    """Same iterates as the complex-matrix search, and a reported cost with
    no drift from the probabilities carried between steps."""
    rho = (_mixed_lx() if label == "Lx_mixed"
           else model.logical_qutrit_state(label).to_density())
    rset, conf = tomography.rotation_set(), _readout(readout)
    seed = 11 + _REFERENCE_CASES.index((label, readout, shots))
    tomo = tomography.simulate_counts(rho, rset, conf, shots, seed)
    result = tomography.mle_reconstruct(tomo, rset, conf)
    ref_rho, ref_iter, ref_converged = _reference_mle(tomo, rset, conf)
    assert result.n_iter == ref_iter
    assert result.converged is ref_converged is True
    assert np.max(np.abs(result.rho.data - ref_rho)) <= 1e-10
    assert abs(result.cost - tomography.mle_cost(result.rho, tomo, rset, conf)) <= 1e-12


# ---------------------------------------------------------------------------
# fidelity

def test_fidelity_examples():
    a = model.logical_qutrit_state("L0").to_density()
    b = model.logical_qutrit_state("L1").to_density()
    assert tomography.fidelity(a, a) == pytest.approx(1.0)
    assert tomography.fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix((3, 3), np.eye(9) / 9.0)
    assert tomography.fidelity(a, mixed) == pytest.approx(1.0 / 9.0)
    c = basis_state((3, 2), "g0").to_density()
    with pytest.raises(ValueError):
        tomography.fidelity(a, c)
