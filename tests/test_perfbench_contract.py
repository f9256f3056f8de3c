"""The package API the benchmark in ``perfbench/`` traces and calls.

``perfbench/`` runs against the committed package without changes, so a
renamed function, a dropped alias or a changed signature would break the
benchmark only when it runs.  This test fails first: it installs and removes
the benchmark's tracer, which checks every name it wraps, and binds the
calls that ``perfbench/workloads.py`` and ``perfbench/oracles.py`` make.
"""

import inspect
import sys
from pathlib import Path

import pytest

from aqecsim import cli, config, model, operators, solver, tomography

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import measure
        import spans
        yield measure, spans
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_wraps_and_restores_every_layer(perfbench_modules):
    measure, spans = perfbench_modules
    before = {(module, name): getattr(measure.MODULES[module], name)
              for entries in spans.WRAPPED.values()
              for owner, name, aliases in entries
              for module in (owner,) + aliases}
    tracer = spans.Tracer(measure.MODULES)
    tracer.install()
    try:
        for (module, name), fn in before.items():
            assert getattr(measure.MODULES[module], name) is not fn
    finally:
        tracer.uninstall()
    for (module, name), fn in before.items():
        assert getattr(measure.MODULES[module], name) is fn


def _binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_benchmark_calls_bind():
    path, outdir, device, drive, noise, rho, tomo, rset, conf, m = (object(),) * 10
    # workloads.py
    _binds(cli.run_scenario, str(path), outdir)
    _binds(cli.run_sweep, str(path), outdir, workers=1)
    _binds(config.preset_path, "aqec")
    _binds(tomography.rotation_set)
    _binds(tomography.ConfusionMatrix, m)
    _binds(tomography.ConfusionMatrix.identity)
    _binds(tomography.simulate_counts, rho, rset, conf, 5000, 7)
    _binds(tomography.mle_reconstruct, tomo, rset, conf)
    _binds(tomography.mle_reconstruct, tomo, rset, conf, max_iter=5)
    _binds(tomography.fidelity, rho, rho)
    _binds(model.logical_qutrit_state, "L0")
    _binds(operators.DensityMatrix, model.QQ_DIMS, m)
    # oracles.py
    _binds(config.load_config, path)
    _binds(model.build_rotating_full_hamiltonian, device, drive)
    _binds(model.build_rotating_hamiltonian, device, drive)
    _binds(model.build_static_hamiltonian, device, drive, red_offset=0.5)
    _binds(model.collapse_operators, noise)
    _binds(model.logical_state, "L0")
    _binds(operators.basis_state, operators.FULL_DIMS, "gf00")
    assert model.QQ_DIMS == (3, 3) and operators.FULL_DIMS == (3, 3, 2, 2)
    # read off results by the tracer's observers and the oracles
    assert {"constant", "driven"} <= set(inspect.signature(
        model.HamiltonianSpec).parameters)
    assert {"times", "states", "dims", "meta"} <= set(inspect.signature(
        solver.Trajectory).parameters)
    assert {"rho", "n_iter", "converged"} <= set(inspect.signature(
        tomography.MLEResult).parameters)
