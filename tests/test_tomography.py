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
