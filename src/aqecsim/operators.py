"""Dimension-aware operator algebra on tensor-product Hilbert spaces.

The working space is Q1(3) x Q2(3) x R1(2) x R2(2), in that subsystem order,
and this module alone writes it down: :data:`FULL_DIMS` holds the order and
dimensions, :data:`QQ_DIMS` is its two-transmon part, and :func:`embed`
builds every full-space operator from local parts, with the identity on the
other subsystems.  Transmon j is subsystem j - 1 and resonator j is
subsystem j + 1.  The other routines accept arbitrary dimension lists.
Transmon levels are indexed g=0, e=1, f=2; resonator levels are photon
numbers.  The partial trace (``trace_out``, and ``partial_trace`` for one
state; the one step to the two-transmon states ``analysis`` and
``tomography`` take) and the physicality check read every state as a block
of entries of vec(rho): ``_block_view`` takes a trajectory's own block
snapshots, or the entries of a matrix or stack that are nonzero anywhere in
it, and ``block_entries`` gathers entries off a block.  So a trajectory is
reduced and validated without writing out its full stack, and the check
diagonalizes only the blocks of levels the stack couples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

FULL_DIMS = (3, 3, 2, 2)
QQ_DIMS = FULL_DIMS[:2]  # the two transmons alone
QUTRIT_LEVELS = {"g": 0, "e": 1, "f": 2}
# Snapshots validate_state gathers at once.  Bounding its temporaries keeps a
# long trajectory's check from raising the process's peak RSS.
VALIDATE_CHUNK = 128


class DimensionMismatchError(ValueError):
    """Raised when operands act on incompatible subsystem dimension lists."""


def _check_dims(dims):
    dims = tuple(int(d) for d in dims)
    if any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
    return dims


def _freeze_array(obj, name, ndim):
    """Check a frozen dataclass's ``dims`` against its array field ``name``
    (``ndim`` axes of the total dimension), then store both read-only."""
    dims = _check_dims(obj.dims)
    arr = np.asarray(getattr(obj, name), dtype=complex)
    n = int(np.prod(dims))
    if arr.shape != (n,) * ndim:
        raise ValueError(f"{name} shape {arr.shape} does not match dims {dims}")
    arr.setflags(write=False)
    object.__setattr__(obj, "dims", dims)
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class LabeledOperator:
    """Complex matrix tagged with the subsystem dimensions it acts on."""

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze_array(self, "data", 2)

    def dag(self):
        return LabeledOperator(self.dims, self.data.conj().T)

    def __add__(self, other):
        if isinstance(other, LabeledOperator):
            if other.dims != self.dims:
                raise DimensionMismatchError(f"{self.dims} vs {other.dims}")
            return LabeledOperator(self.dims, self.data + other.data)
        return NotImplemented

    def __mul__(self, scalar):
        return LabeledOperator(self.dims, self.data * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix on a labeled tensor-product space.

    A physical instance is Hermitian, unit trace, and positive semidefinite;
    use :func:`validate_state` for a tolerance-based diagnostic.
    """

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze_array(self, "data", 2)

    @property
    def dim(self):
        return self.data.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Pure state on a labeled tensor-product space (norm 1 within 1e-10)."""

    dims: tuple
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze_array(self, "amplitudes", 1)
        if abs(np.linalg.norm(self.amplitudes) - 1.0) > 1e-10:
            raise ValueError("state vector is not normalized")

    def to_density(self):
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


# ---------------------------------------------------------------------------
# elementary building blocks

def identity(dim):
    return LabeledOperator((dim,), np.eye(dim))


def destroy(dim):
    """Bosonic annihilation operator truncated to ``dim`` levels."""
    return LabeledOperator((dim,), np.diag(np.sqrt(np.arange(1, dim)), k=1))


def number(dim):
    return LabeledOperator((dim,), np.diag(np.arange(dim, dtype=float)))


def _label_to_levels(label):
    levels = []
    for ch in label:
        if ch in QUTRIT_LEVELS:
            levels.append(QUTRIT_LEVELS[ch])
        elif ch.isdigit():
            levels.append(int(ch))
        else:
            raise ValueError(f"unknown level symbol {ch!r} in {label!r}")
    return levels


def basis_index(dims, label):
    """Flat index of a product basis state, e.g. ``'eg00'`` on (3,3,2,2)."""
    levels = _label_to_levels(label)
    if len(levels) != len(dims):
        raise ValueError(f"label {label!r} does not match dims {dims}")
    idx = 0
    for lvl, d in zip(levels, dims):
        if lvl >= d:
            raise ValueError(f"level {lvl} out of range for dimension {d}")
        idx = idx * d + lvl
    return idx


def basis_state(dims, label):
    """Product basis StateVector from a level label like ``'gf00'``."""
    dims = tuple(dims)
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[basis_index(dims, label)] = 1.0
    return StateVector(dims, amps)


def ket_projector(dims, label_to, label_from=None):
    """|a><b| between product basis states on the given dims."""
    dims = tuple(dims)
    if label_from is None:
        label_from = label_to
    n = int(np.prod(dims))
    m = np.zeros((n, n), dtype=complex)
    m[basis_index(dims, label_to), basis_index(dims, label_from)] = 1.0
    return LabeledOperator(dims, m)


# ---------------------------------------------------------------------------
# core operations

def tensor(*factors):
    """Kronecker product of LabeledOperators in the declared subsystem order."""
    if not factors:
        raise ValueError("tensor requires at least one factor")
    data = factors[0].data
    dims = list(factors[0].dims)
    for f in factors[1:]:
        data = np.kron(data, f.data)
        dims.extend(f.dims)
    return LabeledOperator(tuple(dims), data)


def embed(parts):
    """FULL_DIMS operator of ``{first subsystem index: local operator}`` parts.

    A part spans as many subsystems as it has dims, e.g. a QQ_DIMS operator
    at 0; every subsystem no part covers gets the identity.  The factors are
    multiplied in subsystem order, as ``tensor`` of the written-out factors.
    A part that overlaps another or does not fit FULL_DIMS raises
    DimensionMismatchError.
    """
    factors, k = [], 0
    for first, op in sorted(parts.items()):
        if first < k or FULL_DIMS[first:first + len(op.dims)] != op.dims:
            raise DimensionMismatchError(
                f"part {op.dims} at subsystem {first} does not fit {FULL_DIMS}")
        factors += [identity(d) for d in FULL_DIMS[k:first]] + [op]
        k = first + len(op.dims)
    return tensor(*factors, *(identity(d) for d in FULL_DIMS[k:]))


def expectation(rho, op):
    """Tr(rho * op) as a complex scalar."""
    if rho.dims != op.dims:
        raise DimensionMismatchError(f"{rho.dims} vs {op.dims}")
    return complex(np.trace(rho.data @ op.data))


def block_entries(blocks, keep, index):
    """Entries ``index`` of vec(rho) from every row of a block.

    Column j of the ``(nt, len(keep))`` array ``blocks`` holds entry
    ``keep[j]`` (sorted) of the row-major vec(rho); every entry outside
    ``keep`` is zero.  Returns the ``(nt,) + index.shape`` gathered entries.
    """
    index = np.asarray(index)
    where = np.full(max(np.max(keep, initial=-1), np.max(index)) + 1, len(keep))
    where[keep] = np.arange(len(keep))
    padded = np.concatenate([blocks, np.zeros((len(blocks), 1), dtype=blocks.dtype)], axis=1)
    return padded[:, where[index]]


def _block_view(rho):
    """``(blocks, keep, n)`` of a state: its block snapshots, the sorted
    vec(rho) entries ``keep`` they hold (``block_entries``) and the dimension
    n.  A ``solver.Trajectory`` brings its own block; a DensityMatrix or an
    ``(..., n, n)`` stack is the block of its entries nonzero anywhere in it."""
    if hasattr(rho, "keep"):
        return rho.states, rho.keep, int(np.prod(rho.dims))
    stack = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho)
    n = stack.shape[-1]
    flat = stack.reshape(-1, n * n)
    keep = np.flatnonzero(np.any(flat, axis=0))
    return flat[:, keep], keep, n


def trace_out(rho, kept):
    """Partial trace of a DensityMatrix or a ``solver.Trajectory``.

    Traces out every subsystem not in ``kept`` (subsystem indices) and
    returns the kept dims and the ``(nt, m, m)`` reduced stack, one row for
    a DensityMatrix.  Only the terms of the traced levels' diagonals are
    gathered off the state's block (``_block_view``), and the traced
    subsystems are summed highest index first, one at a time.
    """
    dims = rho.dims
    kept = sorted(set(kept))
    if not kept or any(k < 0 or k >= len(dims) for k in kept):
        raise ValueError(f"invalid keep set {kept} for dims {dims}")
    blocks, keep, n = _block_view(rho)
    traced = [i for i in range(len(dims)) if i not in kept]
    kept_dims = tuple(dims[i] for i in kept)
    traced_dims = tuple(dims[i] for i in traced)
    m, t = int(np.prod(kept_dims)), int(np.prod(traced_dims))
    rows = np.indices(kept_dims).reshape(len(kept), m)
    terms = np.indices(traced_dims).reshape(len(traced), t)
    # levels of each subsystem on axes (row, column, traced term)
    row_levels, col_levels = [None] * len(dims), [None] * len(dims)
    for i, lv in zip(kept, rows):
        row_levels[i], col_levels[i] = lv[:, None, None], lv[None, :, None]
    for i, lv in zip(traced, terms):
        row_levels[i] = col_levels[i] = lv[None, None, :]
    index = np.ravel_multi_index(row_levels, dims) * n + np.ravel_multi_index(col_levels, dims)
    reduced = block_entries(blocks, keep, index).reshape((len(blocks), m, m) + traced_dims)
    for _ in traced:
        reduced = reduced.sum(axis=-1)
    return kept_dims, reduced


def partial_trace(rho, keep):
    """Trace out all subsystems not in ``keep`` (set of subsystem indices)."""
    kept_dims, reduced = trace_out(rho, keep)
    return DensityMatrix(kept_dims, reduced[0])


@dataclass(frozen=True)
class StateReport:
    """Diagnostics from validate_state."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    tol: float
    passed: bool

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: |rho-rho^dag|_max={self.hermiticity_deviation:.3e}, "
            f"|tr-1|={self.trace_deviation:.3e}, min_eig={self.min_eigenvalue:.3e}"
        )


def validate_state(rho, tol=1e-8):
    """Report Hermiticity, trace and positivity deviations of a state or stack.

    ``rho`` is a DensityMatrix, an ``(..., n, n)`` stack of matrices, or a
    ``solver.Trajectory``, checked on its block (``_block_view``) without
    scattering it.  The report holds the worst deviation over the stack, so
    ``passed`` means that every matrix passes.  Traces add the n diagonal
    entries as ``np.trace`` does.  Positivity is checked block by block: the
    levels are split into the weakly connected components of the pattern of
    ``keep``.  No matrix couples two components, so each Hermitian part is
    permutation-similar to a block-diagonal matrix and its spectrum is the
    union of the blocks' spectra.  Blocks of one size are diagonalized by
    one batched ``eigvalsh`` per ``VALIDATE_CHUNK`` snapshots.
    """
    blocks, keep, n = _block_view(rho)
    pattern = np.zeros(n * n, dtype=bool)
    pattern[keep] = True
    _, label = connected_components(pattern.reshape(n, n), directed=True,
                                    connection="weak")
    sizes = np.bincount(label)
    members = np.argsort(label, kind="stable")  # grouped by component
    starts = np.cumsum(sizes) - sizes
    groups = [members[starts[sizes == size][:, None] + np.arange(size)]
              for size in np.unique(sizes)]
    diagonal = np.arange(n) * (n + 1)
    herm, trace_dev, min_eig = 0.0, 0.0, np.inf
    for lo in range(0, len(blocks), VALIDATE_CHUNK):
        part = blocks[lo:lo + VALIDATE_CHUNK]
        # a C-ordered (chunk, n) diagonal sums pairwise, in np.trace's order
        traces = np.ascontiguousarray(block_entries(part, keep, diagonal)).sum(axis=1)
        trace_dev = max(trace_dev, float(np.max(np.abs(traces.real - 1.0) + np.abs(traces.imag))))
        for idx in groups:
            mats = block_entries(part, keep, idx[:, :, None] * n + idx[:, None, :])
            adjoint = mats.conj().swapaxes(-1, -2)
            herm = max(herm, float(np.max(np.abs(mats - adjoint))))
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(0.5 * (mats + adjoint)))))
    passed = herm <= tol and trace_dev <= tol and min_eig >= -tol
    return StateReport(herm, trace_dev, min_eig, tol, passed)
