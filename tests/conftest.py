"""Shared fixtures: the measured device table, standard drive settings, and
the full-stack partial trace the block partial trace is checked against."""

import numpy as np
import pytest

from aqecsim import model

# Measured device frequency table (MHz)
DEVICE_KWARGS = dict(
    omega_q1=3204.9,
    omega_q2=3662.5,
    alpha_1=-116.4,
    alpha_2=-159.6,
    omega_r1=4994.6,
    omega_r2=5450.5,
)


@pytest.fixture(scope="session")
def device():
    return model.DeviceParams(**DEVICE_KWARGS)


@pytest.fixture(scope="session")
def device_with_shifts():
    return model.DeviceParams(chi_1=-0.2, chi_2=-0.2, zz_ff1=0.6, zz_ff2=2.2,
                              **DEVICE_KWARGS)


@pytest.fixture(scope="session")
def full_drive():
    """All six sidebands on, at the full-correction operating point."""
    return model.DriveConfig(w_r=1.45, w_b=1.25, nu_r=0.8, nu_b=-0.9,
                             omega_qr1=0.39, omega_qr2=0.39)


def _stack_trace_out(stack, dims, keep):
    """Partial trace of a ``(..., n, n)`` stack of matrices on ``dims``.

    Traces out every subsystem not in ``keep`` (set of subsystem indices) and
    returns the kept dims and the ``(..., m, m)`` reduced stack.  Leading
    axes are batch axes, so a trajectory reduces in one call and each matrix
    gets the same arithmetic as on its own.
    """
    dims = tuple(dims)
    keep = sorted(set(keep))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"invalid keep set {keep} for dims {dims}")
    batch = stack.shape[:-2]
    traced = stack.reshape(batch + dims + dims)
    # contract traced-out subsystems pairwise, highest index first so earlier
    # axis positions stay valid
    n_now = len(dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        traced = np.trace(traced, axis1=len(batch) + idx,
                          axis2=len(batch) + idx + n_now)
        n_now -= 1
    kept_dims = tuple(dims[k] for k in keep)
    n = int(np.prod(kept_dims))
    return kept_dims, traced.reshape(batch + (n, n))


@pytest.fixture(scope="session")
def reference_trace_out():
    """``trace_out(stack, dims, keep)`` by ``np.trace`` on the full stack, one
    traced subsystem at a time, highest index first."""
    return _stack_trace_out
