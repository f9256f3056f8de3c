"""Operator-algebra layer: labeled matrices, tensor products, partial trace."""

import numpy as np
import pytest

from aqecsim.operators import (
    FULL_DIMS,
    QQ_DIMS,
    VALIDATE_CHUNK,
    DensityMatrix,
    DimensionMismatchError,
    LabeledOperator,
    StateVector,
    basis_index,
    basis_state,
    destroy,
    embed,
    expectation,
    identity,
    ket_projector,
    number,
    partial_trace,
    tensor,
    trace_out,
    validate_state,
)
from aqecsim.solver import Trajectory


def test_basis_index_examples():
    assert basis_index((3, 3), "gg") == 0
    assert basis_index((3, 3), "gf") == 2
    assert basis_index((3, 3), "fg") == 6
    # |eg00> on (3, 3, 2, 2): ((1*3+0)*2+0)*2+0
    assert basis_index(FULL_DIMS, "eg00") == 12
    assert basis_index(FULL_DIMS, "ff11") == 35


def test_basis_index_rejects_bad_labels():
    with pytest.raises(ValueError):
        basis_index((3, 3), "gx")
    with pytest.raises(ValueError):
        basis_index((3, 3), "g")  # wrong length
    with pytest.raises(ValueError):
        basis_index((2, 2), "gf")  # f out of range for a 2-level subsystem


def test_elementary_operators():
    a = destroy(3).data
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(np.sqrt(2.0))
    assert np.count_nonzero(a) == 2
    assert np.allclose(number(3).data, np.diag([0.0, 1.0, 2.0]))


def test_tensor_matches_kron_and_tracks_dims():
    op = tensor(destroy(3), identity(2))
    assert op.dims == (3, 2)
    assert np.allclose(op.data, np.kron(destroy(3).data, np.eye(2)))


def test_dimension_mismatch_raises():
    a = identity(3)
    b = identity(2)
    with pytest.raises(DimensionMismatchError):
        _ = a + b


def test_embed_places_parts_on_full_dims():
    """A part covers as many subsystems as it has dims and the identity fills
    the rest; a misfit or an overlap raises."""
    qq = ket_projector(QQ_DIMS, "gf")
    op = embed({0: qq, 3: destroy(2)})
    assert op.dims == FULL_DIMS
    assert np.array_equal(op.data, tensor(qq, identity(2), destroy(2)).data)
    assert np.array_equal(embed({}).data, np.eye(36))
    with pytest.raises(DimensionMismatchError):
        embed({0: number(2)})
    with pytest.raises(DimensionMismatchError):
        embed({3: qq})
    with pytest.raises(DimensionMismatchError):
        embed({0: qq, 1: number(3)})


def test_operator_shape_validation():
    with pytest.raises(ValueError):
        LabeledOperator((3,), np.eye(2))
    with pytest.raises(ValueError):
        DensityMatrix((2, 2), np.eye(3))


def test_state_vector_requires_normalization():
    with pytest.raises(ValueError):
        StateVector((2,), np.array([1.0, 1.0]))
    s = StateVector((2,), np.array([1.0, 1.0]) / np.sqrt(2.0))
    rho = s.to_density()
    assert np.allclose(rho.data, 0.5 * np.ones((2, 2)))


def test_ket_projector_off_diagonal():
    op = ket_projector((3, 3), "ee", "gf")
    assert op.data[basis_index((3, 3), "ee"), basis_index((3, 3), "gf")] == 1.0
    assert np.count_nonzero(op.data) == 1


def test_expectation_on_basis_state():
    rho = basis_state((3, 2), "e1").to_density()
    n_q = tensor(number(3), identity(2))
    n_r = tensor(identity(3), number(2))
    assert expectation(rho, n_q) == pytest.approx(1.0)
    assert expectation(rho, n_r) == pytest.approx(1.0)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(7)
    def random_density(d):
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m @ m.conj().T
        return m / np.trace(m).real
    ra, rb = random_density(3), random_density(4)
    rho = DensityMatrix((3, 4), np.kron(ra, rb))
    assert np.allclose(partial_trace(rho, keep=(0,)).data, ra, atol=1e-12)
    assert np.allclose(partial_trace(rho, keep=(1,)).data, rb, atol=1e-12)


def test_partial_trace_keeps_two_of_four():
    rho = basis_state(FULL_DIMS, "ef10").to_density()
    r9 = partial_trace(rho, keep=(0, 1))
    assert r9.dims == (3, 3)
    assert r9.data[basis_index((3, 3), "ef"), basis_index((3, 3), "ef")] == 1.0
    with pytest.raises(ValueError):
        partial_trace(rho, keep=())
    with pytest.raises(ValueError):
        partial_trace(rho, keep=(5,))


@pytest.mark.parametrize("dims, kept", [(FULL_DIMS, (0, 1)), (FULL_DIMS, (1, 3)),
                                        (QQ_DIMS, (0, 1)), ((2, 3, 3), (0,)),
                                        ((4, 3, 2), (2,))])
def test_block_trace_out_matches_trace_out(dims, kept, reference_trace_out):
    """The partial trace of a Trajectory over a stack's nonzero entries
    equals np.trace of the full stack bit for bit, with 2- and 3-level
    subsystems traced."""
    rng = np.random.default_rng(3)
    n = int(np.prod(dims))
    stack = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
    stack[rng.random(stack.shape) < 0.4] = 0.0
    flat = stack.reshape(5, -1)
    keep = np.flatnonzero(np.any(flat, axis=0))
    traj = Trajectory(np.arange(5.0), flat[:, keep], dims, keep)
    kept_dims, reduced = trace_out(traj, kept)
    ref_dims, ref = reference_trace_out(stack, dims, kept)
    assert kept_dims == ref_dims
    assert np.array_equal(reduced, ref)
    with pytest.raises(ValueError):
        trace_out(traj, ())


def test_partial_trace_of_full_state_matches_reference(reference_trace_out):
    """partial_trace of one FULL_DIMS state, a one-row block of its nonzero
    entries, equals np.trace of the full matrix bit for bit."""
    rng = np.random.default_rng(5)
    n = int(np.prod(FULL_DIMS))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m[rng.random(m.shape) < 0.4] = 0.0
    r9 = partial_trace(DensityMatrix(FULL_DIMS, m), keep=(0, 1))
    ref_dims, ref = reference_trace_out(m, FULL_DIMS, (0, 1))
    assert r9.dims == ref_dims == QQ_DIMS
    assert np.array_equal(r9.data, ref)


def test_validate_state_pass_and_fail():
    good = basis_state((2, 2), "00").to_density()
    assert validate_state(good).passed
    bad = DensityMatrix((2,), np.array([[1.5, 0.0], [0.0, -0.5]]))
    report = validate_state(bad)
    assert not report.passed
    assert report.min_eigenvalue < -1e-6


def _loop_report(stack, tol):
    """validate_state's per-matrix formulas on every matrix, full eigvalsh."""
    herm = max(float(np.max(np.abs(m - m.conj().T))) for m in stack)
    trace_dev = max(float(abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag))
                    for m in stack)
    min_eig = min(float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
                  for m in stack)
    return herm, trace_dev, min_eig, herm <= tol and trace_dev <= tol and min_eig >= -tol


def _assert_matches_loop(report, stack, tol):
    herm, trace_dev, min_eig, passed = _loop_report(stack, tol)
    assert report.hermiticity_deviation == herm
    assert report.trace_deviation == trace_dev
    assert report.passed == passed
    assert abs(report.min_eigenvalue - min_eig) <= 1e-12


def _random_state_block(rng, size, eigenvalues=None):
    """Random Hermitian positive block, or with the given eigenvalues."""
    a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    if eigenvalues is None:
        return a @ a.conj().T
    q, _ = np.linalg.qr(a)
    return q @ np.diag(eigenvalues) @ q.conj().T


def test_validate_state_stack_matches_per_matrix_loop():
    """Blocks of sizes 1, 2, 3 and 5 on levels scattered by a permutation:
    the block-by-block check gives the per-matrix loop's report."""
    rng = np.random.default_rng(11)
    sizes = (1, 2, 3, 5)
    n = sum(sizes)
    levels = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
    assert any(np.any(np.diff(np.sort(lv)) > 1) for lv in levels)
    nt = 2 * VALIDATE_CHUNK + 44  # a partial last chunk
    stack = np.zeros((nt, n, n), dtype=complex)
    for t in range(nt):
        for lv in levels:
            block = _random_state_block(rng, len(lv))
            skew = rng.normal(size=block.shape) * 1e-12
            stack[t][np.ix_(lv, lv)] = block + skew - skew.T
        stack[t] /= np.trace(stack[t]).real
    report = validate_state(stack, tol=1e-8)
    assert report.passed
    _assert_matches_loop(report, stack, 1e-8)

    # plant eigenvalue -1e-3 in the size-3 block of one snapshot of the second
    # chunk, keeping the block's trace
    bad = stack.copy()
    lv = levels[2]
    t = VALIDATE_CHUNK + 23
    rest = np.trace(bad[t][np.ix_(lv, lv)]).real + 1e-3
    bad[t][np.ix_(lv, lv)] = _random_state_block(rng, 3, [-1e-3, rest / 3, 2 * rest / 3])
    report = validate_state(bad, tol=1e-8)
    assert not report.passed
    assert report.min_eigenvalue == pytest.approx(-1e-3, abs=1e-12)
    _assert_matches_loop(report, bad, 1e-8)


def test_validate_state_dense_density_matrix_matches_loop():
    rng = np.random.default_rng(5)
    m = _random_state_block(rng, 9)
    m = m / np.trace(m).real + 1e-9 * rng.normal(size=(9, 9))
    report = validate_state(DensityMatrix((3, 3), m))
    _assert_matches_loop(report, m[None], 1e-8)
    assert report.hermiticity_deviation > 0.0
