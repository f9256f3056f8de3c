"""Master-equation integration, rate estimates, and detuning sweeps."""

import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import curve_fit
from scipy.sparse.linalg import expm_multiply

from aqecsim import analysis, cli, config, model, solver
from aqecsim.operators import (
    FULL_DIMS,
    QQ_DIMS,
    DensityMatrix,
    LabeledOperator,
    basis_state,
    identity,
    ket_projector,
    tensor,
    trace_out,
    validate_state,
)

TWOPI = 2.0 * math.pi
LOGICAL = ("L0", "L1", "Lx")
# size of the block of vec(rho) that each preset's logical states touch
PRESET_BLOCKS = {"free_decay": {"L0": 44, "L1": 44, "Lx": 100},
                 "echo_4qq": {"L0": 33, "L1": 33, "Lx": 33},
                 "aqec": {"L0": 366, "L1": 366, "Lx": 366}}


def _free_hamiltonian(device):
    return model.build_rotating_hamiltonian(device, model.DriveConfig())


def test_pure_decay_matches_exponential(device):
    """With only one loss channel and a diagonal H, the excited population
    follows exp(-t/T1) to solver precision."""
    h = _free_hamiltonian(device)
    noise = model.NoiseModel(t1_ge=(10.0, math.inf))
    rho0 = basis_state(FULL_DIMS, "eg00").to_density()
    times = np.linspace(0.0, 20.0, 41)
    traj = solver.evolve(h, model.collapse_operators(noise), rho0, times)
    p = solver.observable_series(traj, [ket_projector(FULL_DIMS, "eg00")])[:, 0]
    assert np.max(np.abs(p - np.exp(-times / 10.0))) <= 1e-6


def test_closed_evolution_preserves_purity(device, full_drive):
    h = model.build_rotating_hamiltonian(device, full_drive)
    rho0 = model.logical_state("Lx").to_density()
    traj = solver.evolve(h, [], rho0, np.linspace(0.0, 3.0, 7))
    states = traj.full_states()
    for i in range(len(traj)):
        purity = np.trace(states[i] @ states[i]).real
        assert purity == pytest.approx(1.0, abs=1e-5)


def test_evolve_input_validation(device):
    h = _free_hamiltonian(device)
    rho0 = model.logical_state("L0").to_density()
    with pytest.raises(ValueError):
        solver.evolve(h, [], rho0, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        solver.evolve(h, [], rho0, np.zeros((2, 2)))
    bad_state = basis_state((3, 3), "gg").to_density()
    with pytest.raises(ValueError):
        solver.evolve(h, [], bad_state, np.linspace(0.0, 1.0, 3))
    bad_collapse = [tensor(identity(3), identity(3))]
    with pytest.raises(ValueError):
        solver.evolve(h, bad_collapse, rho0, np.linspace(0.0, 1.0, 3))


def _forbid(monkeypatch, *names):
    """Make each named ``solver`` function fail the test when it is called."""
    for name in names:
        monkeypatch.setattr(solver, name, lambda *args, name=name: pytest.fail(f"{name} ran"))


def test_evolve_rejects_non_finite_input(monkeypatch, device):
    """A NaN or infinite time, a NaN entry of H (its constant part or a
    driven operator), of a collapse operator or of rho0 and a NaN tone
    frequency are ValueErrors naming finiteness, raised before the generator
    or any commutator superoperator is assembled."""
    _forbid(monkeypatch, "_lindblad_generator", "_commutator")
    h = _free_hamiltonian(device)
    rho0 = model.logical_state("L0").to_density()
    for times in ([math.nan], [0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            solver.evolve(h, [], rho0, np.array(times))
    data = h.constant.data.copy()
    data[0, 0] = math.nan
    nan_op = LabeledOperator(h.dims, data)
    bad_h = model.HamiltonianSpec(nan_op)
    bad_drive = model.HamiltonianSpec(h.constant, ((model.Tone(0.5), nan_op),
                                                   (model.Tone(-0.5), nan_op)))
    bad_tone = model.HamiltonianSpec(h.constant, ((model.Tone(math.nan), h.constant),))
    bad_rho0 = DensityMatrix(rho0.dims, np.where(rho0.data != 0, math.nan, 0.0))
    for spec, ops, state in ((bad_h, [], rho0), (bad_drive, [], rho0), (h, [nan_op], rho0),
                             (bad_tone, [], rho0), (h, [], bad_rho0)):
        with pytest.raises(ValueError, match="finite"):
            solver.evolve(spec, ops, state, np.linspace(0.0, 1.0, 3))


def test_single_time_returns_initial_state(device, full_drive):
    """A one-point grid returns rho0 on the exact, Floquet and RK45 paths."""
    cases = [
        (_free_hamiltonian(device), "expm"),
        (model.build_static_hamiltonian(device, dataclasses.replace(full_drive, nu_b=0.0)),
         "floquet"),
        (model.build_static_hamiltonian(device, full_drive), "rk45"),
    ]
    rho0 = model.logical_state("L0").to_density()
    for h, method in cases:
        traj = solver.evolve(h, [], rho0, np.array([0.0]))
        assert traj.meta["method"] == method
        assert len(traj) == 1
        assert np.allclose(traj.full_states()[0], rho0.data)


def test_observable_series_warns_on_non_hermitian(device):
    h = _free_hamiltonian(device)
    rho0 = model.logical_state("L0").to_density()
    traj = solver.evolve(h, [], rho0, np.linspace(0.0, 0.5, 3))
    with pytest.warns(RuntimeWarning):
        solver.observable_series(traj, [1j * ket_projector(FULL_DIMS, "gf00", "fg00")])


def _preset(arm):
    cfg = config.load_preset(arm)
    h = model.build_rotating_hamiltonian(cfg.device, cfg.drive)
    return cfg, h, model.collapse_operators(cfg.noise)


def _scatter(keep, vecs, size):
    """Block snapshots written back into zero vectors of length ``size``."""
    out = np.zeros((len(vecs), size), dtype=complex)
    out[:, keep] = vecs
    return out


@pytest.mark.parametrize("arm, tmax, snapshots", [
    ("free_decay", None, None),
    ("echo_4qq", None, None),
    ("aqec", 1.5, 7),  # RK45 needs 2.5-3.2 s per state for the full 27 us window
])
def test_exact_propagation_matches_rk45(arm, tmax, snapshots):
    """Exact propagation agrees with the RK45 integrator, run on the same
    generator and block, in every state entry."""
    cfg, h, collapse = _preset(arm)
    times = np.linspace(0.0, tmax or cfg.scenario.tmax_us,
                        snapshots or cfg.scenario.snapshots)
    for initial in LOGICAL:
        rho0 = model.logical_state(initial).to_density()
        traj = solver.evolve(h, collapse, rho0, times)
        block = PRESET_BLOCKS[arm][initial]
        assert traj.meta["block_dim"] == block
        # 1.5 us of the aqec block costs expm_multiply less than one dense expm
        assert traj.meta["method"] == ("expm_multiply" if arm == "aqec" else "expm")
        assert traj.meta["nfev"] == 0
        vecs, meta = solver._integrate_rk45(solver._block(h, collapse, rho0), times)
        assert meta["method"] == "rk45" and meta["nfev"] > 0
        assert meta["block_dim"] == block
        states = traj.full_states()
        ref = _scatter(traj.keep, vecs, 36 * 36).reshape(states.shape)
        assert np.max(np.abs(states - ref)) <= 1e-6


@pytest.mark.parametrize("arm, initial", [("free_decay", "Lx"), ("aqec", "L0")])
def test_block_reduction_matches_full_liouvillian(arm, initial):
    """The block that rho0 touches carries the whole evolution: the result,
    dense expm on both preset blocks, equals expm_multiply on the full,
    unreduced 1296^2 Liouvillian."""
    cfg, h, collapse = _preset(arm)
    times = np.linspace(0.0, cfg.scenario.tmax_us, cfg.scenario.snapshots)
    rho0 = model.logical_state(initial).to_density()
    traj = solver.evolve(h, collapse, rho0, times)
    block = PRESET_BLOCKS[arm][initial]
    assert traj.meta["block_dim"] == block
    assert traj.meta["method"] == "expm"
    gen = solver.liouvillian(h, collapse)
    assert gen.shape == (36 * 36, 36 * 36)
    full = expm_multiply(gen, rho0.data.ravel().astype(complex), start=0.0,
                         stop=times[-1], num=len(times), endpoint=True)
    assert np.max(np.abs(traj.full_states().reshape(len(times), -1) - full)) <= 1e-10


@pytest.mark.parametrize("arm, initial", [("free_decay", "Lx"), ("aqec", "L0")])
def test_non_uniform_grid_matches_uniform_grid(arm, initial):
    """Four distinct steps take expm_multiply and 50 equal steps one dense
    propagator, on both blocks; the shared snapshots agree."""
    _, h, collapse = _preset(arm)
    rho0 = model.logical_state(initial).to_density()
    grid = np.array([0.0, 0.1, 0.35, 1.0, 2.5])
    uniform = np.linspace(0.0, 2.5, 51)
    shared = np.rint(grid / 0.05).astype(int)
    a = solver.evolve(h, collapse, rho0, grid)
    b = solver.evolve(h, collapse, rho0, uniform)
    block = PRESET_BLOCKS[arm][initial]
    assert a.meta["method"] == "expm_multiply"
    assert b.meta["method"] == "expm"
    assert a.meta["block_dim"] == b.meta["block_dim"] == block
    assert np.max(np.abs(a.full_states() - b.full_states()[shared])) <= 1e-10


def test_uniform_grid_takes_one_propagator(monkeypatch):
    """An np.linspace grid, whose steps differ in the last bits, takes one
    dense expm or one interval expm_multiply call; a non-uniform grid takes
    one per step, and holds at most two dense propagators at once."""
    calls = {"expm": 0, "expm_multiply": 0}
    returned, most_alive = [], [0]

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = func(*args, **kwargs)
            if name == "expm":
                returned.append(weakref.ref(out))
                most_alive[0] = max(most_alive[0], sum(r() is not None for r in returned))
            return out
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    cfg, h_free, collapse_free = _preset("free_decay")
    _, h_aqec, collapse_aqec = _preset("aqec")
    grid = np.array([0.0, 0.1, 0.35, 1.0, 2.5])
    cases = [("expm", h_free, collapse_free, "Lx",
              np.linspace(0.0, cfg.scenario.tmax_us, 1081), 1),
             ("expm_multiply", h_aqec, collapse_aqec, "L0", np.linspace(0.0, 1.5, 7), 1),
             ("expm", h_free, collapse_free, "L0", grid, 4),
             ("expm_multiply", h_aqec, collapse_aqec, "L0", grid, 4)]
    for method, h, collapse, initial, times, count in cases:
        calls.update(expm=0, expm_multiply=0)
        traj = solver.evolve(h, collapse, model.logical_state(initial).to_density(), times)
        assert traj.meta["method"] == method
        assert calls == {"expm": 0, "expm_multiply": 0, method: count}
    assert len(returned) == 1 + 4 and most_alive[0] <= 2


def _dense_cheaper_on(h, collapse, psi, steps, times):
    """The cost rule's choice, over the distinct ``steps`` of ``times``, for
    the block of vec(rho) that psi touches."""
    return solver._dense_cheaper(solver._block(h, collapse, psi.to_density()).gen, steps, times)


def test_exact_method_by_cost(monkeypatch):
    """The cost rule picks dense expm where it is clearly faster (the preset
    grids: 8-160x on 2 vCPU) and expm_multiply where it is (four distinct
    steps on the 366-state aqec block: expm 2-3x slower); a block above the
    memory cap takes expm_multiply even where the rule favours expm.
    Both methods agree on the aqec block over 27 us and on the lossy red
    Floquet stack."""
    for arm in ("free_decay", "echo_4qq", "aqec"):
        cfg, h, collapse = _preset(arm)
        times = np.linspace(0.0, cfg.scenario.tmax_us, cfg.scenario.snapshots)
        for initial in LOGICAL:
            assert _dense_cheaper_on(h, collapse, model.logical_state(initial),
                                     np.diff(times)[:1], times)
    _, h_aqec, collapse_aqec = _preset("aqec")
    grid = np.array([0.0, 0.1, 0.35, 1.0, 2.5])
    assert not _dense_cheaper_on(h_aqec, collapse_aqec, model.logical_state("L0"),
                                 np.diff(grid), grid)
    full = solver.liouvillian(h_aqec, collapse_aqec)
    long_window = np.linspace(0.0, 270.0, 1081)
    assert full.shape[0] > solver.DENSE_BLOCK_MAX
    assert not solver._dense_cheaper(full, long_window[1:2], long_window)
    monkeypatch.setattr(solver, "DENSE_BLOCK_MAX", full.shape[0])
    assert solver._dense_cheaper(full, long_window[1:2], long_window)
    monkeypatch.undo()

    cfg = config.load_preset("echo_4qq")
    h_red, collapse_red = _red_sweep_hamiltonian(cfg.drive.nu_r + 0.5)
    cases = [(h_aqec, collapse_aqec, model.logical_state("L0"), np.linspace(0.0, 27.0, 109),
              "method"),
             (h_red, collapse_red, basis_state(FULL_DIMS, "gf00"), np.linspace(0.0, 6.0, 121),
              "stack_method")]
    for h, collapse, psi, times, key in cases:
        rho0 = psi.to_density()
        chosen = solver.evolve(h, collapse, rho0, times, validate=False)
        assert chosen.meta[key] == "expm"
        monkeypatch.setattr(solver, "_dense_cheaper", lambda gen, steps, times: False)
        other = solver.evolve(h, collapse, rho0, times, validate=False)
        monkeypatch.undo()
        assert other.meta[key] == "expm_multiply"
        assert np.max(np.abs(chosen.full_states() - other.full_states())) <= 1e-12


def _random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_liouvillian_matches_dense_lindblad_equation():
    """L @ vec(rho) is -i[H, rho] + sum_k (L rho L^dag - {L^dag L, rho}/2),
    written out densely, on random physical states of the aqec preset, whose
    collapse operators include resonator heating (n_res), plus one complex
    collapse operator, on which a missing conjugate or transpose shows."""
    cfg, h, collapse = _preset("aqec")
    assert cfg.noise.n_res > 0
    rng = np.random.default_rng(11)
    extra = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    extra[rng.random(size=extra.shape) < 0.9] = 0.0
    collapse = collapse + [LabeledOperator(FULL_DIMS, 0.1 * extra)]
    gen = solver.liouvillian(h, collapse)
    hm = h.constant.data
    for _ in range(3):
        rho = _random_density(rng, 36)
        expected = -1j * (hm @ rho - rho @ hm)
        for c in collapse:
            l, ld = c.data, c.data.conj().T
            expected += l @ rho @ ld - 0.5 * (ld @ l @ rho + rho @ ld @ l)
        assert np.max(np.abs(gen @ rho.ravel() - expected.ravel())) <= 1e-12


def test_commutator_of_non_hermitian_operator():
    """_commutator(O) @ vec(rho) is -i(O rho - rho O) also for O != O^dag."""
    rng = np.random.default_rng(12)
    op = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    op[rng.random(size=op.shape) < 0.8] = 0.0
    rho = _random_density(rng, 36)
    got = solver._commutator(op) @ rho.ravel()
    assert np.max(np.abs(got - (-1j * (op @ rho - rho @ op)).ravel())) <= 1e-12


def _kron_sum_generator(hmat, collapse):
    """The Lindblad generator summed one sparse Kronecker product at a time."""
    eye = sp.identity(hmat.shape[0], format="csr")
    hs = sp.csr_matrix(hmat)
    gen = -1j * (sp.kron(hs, eye) - sp.kron(eye, hs.T))
    for c in collapse:
        cs = sp.csr_matrix(c.data)
        cdc = cs.conj().T @ cs
        gen = gen + sp.kron(cs, cs.conj()) \
            - 0.5 * (sp.kron(cdc, eye) + sp.kron(eye, cdc.T))
    gen = gen.tocsr()
    gen.eliminate_zeros()
    return gen


def _kron_commutator(op):
    eye = sp.identity(op.shape[0], format="csr")
    gen = (-1j * (sp.kron(op, eye) - sp.kron(eye, op.T))).tocsr()
    gen.eliminate_zeros()
    return gen


def _assert_same_superoperator(got, ref):
    """Equal entries to 1e-14 on an identical sparsity pattern: the touched
    blocks read the pattern, so one stray tiny entry would enlarge them."""
    got, ref = got.tocsr(), ref.tocsr()
    got.sort_indices()
    ref.sort_indices()
    assert got.shape == ref.shape
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.max(np.abs(got.data - ref.data), initial=0.0) <= 1e-14


def test_generator_assembly_matches_kron_sum():
    """The one-pass generator J kron 1 + 1 kron J* + sum_k L_k kron L_k*
    equals the sequential sparse Kronecker sum entry by entry and pattern by
    pattern, and every preset state touches the block it touched before."""
    for arm, blocks in PRESET_BLOCKS.items():
        _, h, collapse = _preset(arm)
        gen = solver.liouvillian(h, collapse)
        _assert_same_superoperator(gen, _kron_sum_generator(h.constant.data, collapse))
        for initial, block in blocks.items():
            v0 = model.logical_state(initial).to_density().data.ravel()
            assert len(solver._touched_block(gen, v0)) == block
    _, h, collapse = _preset("aqec")
    rng = np.random.default_rng(13)
    extra = rng.normal(size=(36, 36)) + 1j * rng.normal(size=(36, 36))
    extra[rng.random(size=extra.shape) < 0.9] = 0.0
    for ops in (collapse + [LabeledOperator(FULL_DIMS, 0.1 * extra)], []):
        _assert_same_superoperator(solver.liouvillian(h, ops),
                                   _kron_sum_generator(h.constant.data, ops))
    _assert_same_superoperator(solver._commutator(extra), _kron_commutator(extra))


def _full_stack_floquet(h, collapse, v0, times, m):
    """Shirley-Floquet snapshots at order M = ``m`` from the stack of all
    2M+1 copies of the 1296 states, assembled from sequential Kronecker
    sums: the block dimension, the snapshots of vec(rho) and the largest
    entry of harmonics +-M."""
    w = TWOPI * abs(h.driven[0][0].freq)
    h_plus = sum(op.data for tone, op in h.driven if tone.freq > 0)
    d2 = len(v0)
    gen = (sp.kron(sp.identity(2 * m + 1), _kron_sum_generator(h.constant.data, collapse))
           + sp.kron(sp.diags(-1j * w * np.arange(-m, m + 1)), sp.identity(d2))
           + sp.kron(sp.eye(2 * m + 1, k=-1), _kron_commutator(h_plus))
           + sp.kron(sp.eye(2 * m + 1, k=1), _kron_commutator(h_plus.conj().T))).tocsr()
    gen.eliminate_zeros()
    ext = np.zeros((2 * m + 1) * d2, dtype=complex)
    ext[m * d2:(m + 1) * d2] = v0
    keep = solver._touched_block(gen, ext)
    harmonic, entry = np.divmod(keep, d2)
    row, col = np.divmod(entry, 36)
    partner = solver._positions(keep, (2 * m - harmonic) * d2 + col * 36 + row)
    vecs, _ = solver._propagate_exact(gen[keep][:, keep], ext[keep], times, partner)
    harmonic -= m
    tail = float(np.max(np.abs(vecs[:, np.abs(harmonic) == m]), initial=0.0))
    states = np.zeros((len(times), d2), dtype=complex)
    for n in np.unique(harmonic):
        cols = harmonic == n
        states[:, entry[cols]] += np.exp(1j * n * w * times)[:, None] * vecs[:, cols]
    return len(keep), states, tail


def _benchmark_sweep_case(axis, freq):
    """H, collapse operators, initial state and grid of one offset of the
    benchmark's chevron workload (seed-free drive and noise): the lossless
    qr_frequency chevron from E01, or the lossy red_pair_center sweep from
    gf00 with the red pair at ``freq`` MHz."""
    if axis == "qr_frequency":
        cfg = config.load_preset("echo_4qq")
        h = model.build_static_hamiltonian(cfg.device, model.DriveConfig(omega_qr1=1.0),
                                           qr_offset=freq)
        return h, [], model.logical_state("E01"), np.linspace(0.0, 6.0, 241)
    h, collapse = _red_sweep_hamiltonian(freq)
    return h, collapse, basis_state(FULL_DIMS, "gf00"), np.linspace(0.0, 6.0, 121)


def test_floquet_base_block_matches_full_stack():
    """The Floquet stack built on the block that rho0 touches gives the
    block, snapshots and tail of the stack on all 1296 states at the order
    the solver chose, for the lossless qr_frequency and the lossy
    red_pair_center sweep of the benchmark's chevron workload: M = 4 on the
    qr offset and the red pair at nu_r + 0.5 MHz, M = 6 (after a rejected
    M = 4) with the red pair at 0.5 MHz.  The qr stack holds exactly the
    four states the model couples from |E01><E01| = |xx|, x = eg00:
    sigma_0's |xx| and |yy|, sigma_+1's |yx| and sigma_-1's |xy|, y = fg10."""
    nu_r = config.load_preset("echo_4qq").drive.nu_r
    for axis, freq, order, block in (("qr_frequency", 0.5, 4, 4),
                                     ("red_pair_center", nu_r + 0.5, 4, 149),
                                     ("red_pair_center", 0.5, 6, 215)):
        h, collapse, psi0, times = _benchmark_sweep_case(axis, freq)
        v0 = psi0.to_density().data.ravel()
        base = solver._block(h, collapse, psi0.to_density())
        vecs, meta = solver._propagate_floquet(base, times)
        states = _scatter(base.keep, vecs, len(v0))
        ref_block, ref_states, ref_tail = _full_stack_floquet(h, collapse, v0, times,
                                                              meta["floquet_order"])
        assert meta["floquet_order"] == order
        assert meta["block_dim"] == ref_block == block
        assert np.max(np.abs(states - ref_states)) <= 1e-12
        assert abs(meta["floquet_tail"] - ref_tail) <= 1e-15


@pytest.mark.parametrize("source, initial", [("free_decay", "Lx"), ("aqec", "L0"),
                                             ("qr_frequency", None)])
def test_block_route_matches_full_stack_route(source, initial, reference_trace_out):
    """Every reader of a trajectory gets from its block what it gets from the
    full (nt, 36, 36) view: the metrics bit for bit those of the 9x9 states
    that np.trace of the full view gives, the observables to 1e-15,
    validate_state's Hermiticity and trace deviations exactly and its
    smallest eigenvalue to 1e-15; on two preset blocks and one Floquet offset
    of the benchmark's qr_frequency chevron."""
    if initial is None:
        h, collapse, psi0, times = _benchmark_sweep_case(source, 0.5)
        rho0 = psi0.to_density()
        labels = ("L0",)
    else:
        cfg, h, collapse = _preset(source)
        times = np.linspace(0.0, cfg.scenario.tmax_us, 1081)
        rho0 = model.logical_state(initial).to_density()
        labels = LOGICAL
    traj = solver.evolve(h, collapse, rho0, times)
    if initial is None:
        assert traj.meta["method"] == "floquet"
    else:
        assert len(traj.keep) == PRESET_BLOCKS[source][initial]
    assert traj.states.shape == (len(times), len(traj.keep))
    full = traj.full_states()
    assert full.shape == (len(times), 36, 36)

    flat = full.reshape(len(times), -1)
    assert np.array_equal(flat[:, traj.keep], traj.states)
    assert not np.any(np.delete(flat, traj.keep, axis=1))
    r9 = trace_out(traj, range(len(QQ_DIMS)))[1]
    snapshots = reference_trace_out(full, FULL_DIMS, keep=range(len(QQ_DIMS)))[1]
    for label in labels:
        for metric in (analysis.error_population, analysis.coherence_metric):
            assert np.array_equal(metric(r9, label), [metric(s, label) for s in snapshots])

    ops = [model.transmon_number(1), model.transmon_number(2),
           ket_projector(FULL_DIMS, "gf00", "fg00") + ket_projector(FULL_DIMS, "fg00", "gf00")]
    ref = np.einsum("tij,kji->tk", full, np.stack([op.data for op in ops])).real
    assert np.max(np.abs(solver.observable_series(traj, ops) - ref)) <= 1e-15

    block, dense = validate_state(traj, tol=1e-6), validate_state(full, tol=1e-6)
    assert block.hermiticity_deviation == dense.hermiticity_deviation
    assert block.trace_deviation == dense.trace_deviation
    assert abs(block.min_eigenvalue - dense.min_eigenvalue) <= 1e-15
    assert traj.meta["min_eigenvalue"] == block.min_eigenvalue


def test_run_path_never_builds_the_full_stack(monkeypatch, tmp_path, device):
    """A scenario run, with a tomogram, and a chevron sweep read every
    trajectory on its block: the full-stack view is never built."""
    def refuse(self):
        raise AssertionError("the full (nt, d, d) stack was built")

    monkeypatch.setattr(solver.Trajectory, "full_states", refuse)
    text = config.preset_path("free_decay").read_text() + "  tomography:\n    shots: 100\n"
    cfg_path = tmp_path / "free_decay_tomo.yaml"
    cfg_path.write_text(text)
    summary = cli.run_scenario(cfg_path, tmp_path / "out")
    assert "tomography_fidelity_snapshot_0" in summary.read_text()
    cmap = solver.sweep_chevron(device, model.DriveConfig(omega_qr1=1.0), "qr_frequency",
                                [-0.5, 0.5], np.linspace(0.0, 2.0, 41),
                                model.logical_state("E01").to_density())
    assert cmap.n_q1.shape == (2, 41)


def test_rk45_matches_dop853_on_dissipative_static_frame():
    """RK45 on the aqec static frame, driven at two pair frequencies and
    with every collapse operator, equals a tight DOP853 integration of the
    same model in every state entry."""
    cfg, _, collapse = _preset("aqec")
    h = model.build_static_hamiltonian(cfg.device, cfg.drive)
    assert len({abs(tone.freq) for tone, _ in h.driven} - {0.0}) == 2
    rho0 = model.logical_state("L0").to_density()
    times = np.linspace(0.0, 1.0, 11)
    traj = solver.evolve(h, collapse, rho0, times)
    assert traj.meta["method"] == "rk45" and traj.meta["nfev"] > 0
    assert traj.meta["block_dim"] < 36 * 36
    ref = _dop853_reference(h, collapse, rho0, times)
    assert np.max(np.abs(traj.full_states() - ref)) <= 1e-6


def test_liouvillian_rejects_driven_hamiltonian(device, full_drive):
    h = model.build_static_hamiltonian(device, full_drive)
    with pytest.raises(ValueError):
        solver.liouvillian(h, [])


def _dop853_reference(h, collapse, rho0, times):
    """Snapshots of H(t) from DOP853 at rtol 1e-11 on the sparse 1296^2
    Liouvillian, evaluating every drive coefficient at every stage."""
    eye = sp.identity(36, format="csr")
    gen = solver.liouvillian(model.HamiltonianSpec(h.constant), collapse)
    sups = [(tone, (-1j * (sp.kron(op.data, eye) - sp.kron(eye, op.data.T))).tocsr())
            for tone, op in h.driven]

    def rhs(t, v):
        out = gen @ v
        for tone, sup in sups:
            out += tone(t) * (sup @ v)
        return out

    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.data.ravel().astype(complex),
                    t_eval=times, method="DOP853", rtol=1e-11, atol=1e-13)
    assert sol.success
    return sol.y.T.reshape(len(times), 36, 36)


def _red_sweep_hamiltonian(red_freq):
    """The lossy echo_4qq red_pair_center sweep H with the red pair at
    ``red_freq`` MHz: blue sits at nu_b = 0, so one frequency is driven."""
    cfg = config.load_preset("echo_4qq")
    assert cfg.drive.nu_b == 0.0
    h = model.build_static_hamiltonian(cfg.device, cfg.drive,
                                       red_offset=red_freq - cfg.drive.nu_r)
    return h, model.collapse_operators(cfg.noise)


@pytest.mark.parametrize("red_freq", [0.05, 0.5, 2.5, -0.5])
def test_floquet_matches_dop853_on_red_sweep(red_freq):
    """Shirley-Floquet propagation of a single-frequency H equals a tight
    DOP853 integration of the same model in every state entry."""
    h, collapse = _red_sweep_hamiltonian(red_freq)
    (freq,) = {abs(tone.freq) for tone, _ in h.driven}
    assert freq == pytest.approx(abs(red_freq))
    rho0 = basis_state(FULL_DIMS, "gf00").to_density()
    times = np.linspace(0.0, 2.0, 41)
    traj = solver.evolve(h, collapse, rho0, times)
    assert traj.meta["method"] == "floquet" and traj.meta["nfev"] == 0
    assert traj.meta["floquet_order"] in (4, 6, 8)
    assert traj.meta["floquet_tail"] <= solver.FLOQUET_TAIL
    assert traj.meta["block_dim"] < (2 * traj.meta["floquet_order"] + 1) * 36 * 36
    ref = _dop853_reference(h, collapse, rho0, times)
    assert np.max(np.abs(traj.full_states() - ref)) <= 1e-8


def test_evolve_dispatch_by_drive_frequencies(device, full_drive):
    """No drive: exact; one |frequency| (also red and blue at -nu and +nu):
    Floquet; two distinct pair frequencies: RK45."""
    rho0 = model.logical_state("L0").to_density()
    times = np.linspace(0.0, 0.05, 3)
    cases = [
        (model.build_rotating_hamiltonian(device, full_drive), ("expm", "expm_multiply")),
        (model.build_static_hamiltonian(device, dataclasses.replace(full_drive, nu_b=0.0)),
         ("floquet",)),
        (model.build_static_hamiltonian(device, dataclasses.replace(full_drive, nu_b=-0.8)),
         ("floquet",)),
        (model.build_static_hamiltonian(device, full_drive), ("rk45",)),
    ]
    for h, methods in cases:
        assert solver.evolve(h, [], rho0, times).meta["method"] in methods


def test_validation_meta_matches_per_snapshot_eigvalsh(device, full_drive):
    """One validate_state call on the whole stack records the same smallest
    eigenvalue as a full eigvalsh of every snapshot, the same largest
    |rho - rho^dag| entry, and the trace deviation of np.trace on the full
    stack, on every propagation method."""
    cfg, h, collapse = _preset("free_decay")
    _, h_aqec, collapse_aqec = _preset("aqec")
    h_red, collapse_red = _red_sweep_hamiltonian(0.5)
    cases = [
        ("expm", h, collapse, "Lx", np.linspace(0.0, cfg.scenario.tmax_us, 1081)),
        ("expm_multiply", h_aqec, collapse_aqec, "Lx", np.linspace(0.0, 1.5, 7)),
        ("floquet", h_red, collapse_red, None, np.linspace(0.0, 2.0, 41)),
        ("rk45", model.build_static_hamiltonian(device, full_drive), [], "L0",
         np.linspace(0.0, 0.1, 5)),
    ]
    for method, ham, ops, initial, times in cases:
        rho0 = (model.logical_state(initial) if initial
                else basis_state(FULL_DIMS, "gf00")).to_density()
        traj = solver.evolve(ham, ops, rho0, times)
        assert traj.meta["method"] == method
        states = traj.full_states()
        herm = max(float(np.max(np.abs(m - m.conj().T))) for m in states)
        min_eig = min(float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
                      for m in states)
        traces = np.trace(states, axis1=1, axis2=2)
        trace_dev = float(np.max(np.abs(traces.real - 1.0) + np.abs(traces.imag)))
        assert traj.meta["max_hermiticity_deviation"] == herm
        assert abs(traj.meta["min_eigenvalue"] - min_eig) <= 1e-12
        assert validate_state(traj).trace_deviation == trace_dev


def test_floquet_truncation_guard(monkeypatch):
    """Too few harmonics for the drive send the block to RK45 instead of
    returning a truncated answer; the meta keeps the rejected M and tail.
    With ``FLOQUET_ORDERS`` = (1,), M = 1 is the only order tried."""
    h, collapse = _red_sweep_hamiltonian(0.5)
    rho0 = basis_state(FULL_DIMS, "gf00").to_density()
    times = np.linspace(0.0, 1.0, 5)
    monkeypatch.setattr(solver, "FLOQUET_ORDERS", (1,))
    traj = solver.evolve(h, collapse, rho0, times)
    assert traj.meta["method"] == "rk45" and traj.meta["nfev"] > 0
    assert traj.meta["floquet_rejected"] == "tail"
    assert traj.meta["floquet_order"] == 1
    assert traj.meta["floquet_tail"] > solver.FLOQUET_TAIL
    assert traj.meta["stack_method"] == "expm"
    ref = _dop853_reference(h, collapse, rho0, times)
    assert np.max(np.abs(traj.full_states() - ref)) <= 1e-6


@pytest.mark.parametrize("axis, freq, order", [
    ("red_pair_center", 0.5, 6),
    ("red_pair_center", 1.0, 6),
    ("red_pair_center", 1.5, 4),
    ("red_pair_center", 2.0, 4),
    ("red_pair_center", 2.5, 4),
    ("qr_frequency", 0.5, 4),
])
def test_floquet_order_is_smallest_that_passes(axis, freq, order):
    """On the benchmark's sweep offsets the solver takes the smallest of
    M = 4, 6, 8 whose harmonics +-M pass the tail test; at the next smaller
    even order, where one is tried, the full-stack reference fails it."""
    h, collapse, psi0, times = _benchmark_sweep_case(axis, freq)
    assert solver.FLOQUET_ORDERS == (4, 6, 8)
    _, meta = solver._propagate_floquet(solver._block(h, collapse, psi0.to_density()), times)
    assert meta["method"] == "floquet" and meta["floquet_order"] == order
    assert meta["floquet_tail"] <= solver.FLOQUET_TAIL
    if order > solver.FLOQUET_ORDERS[0]:
        *_, smaller_tail = _full_stack_floquet(h, collapse, psi0.to_density().data.ravel(),
                                               times, order - 2)
        assert smaller_tail > solver.FLOQUET_TAIL


def test_floquet_stack_above_dense_cap_goes_to_rk45(monkeypatch):
    """The aqec red_pair_center +0.1 MHz offset drives one 0.9 MHz tone
    whose pruned M = 4 stack already exceeds DENSE_BLOCK_MAX: no stack is
    propagated, the block goes to RK45, and the answer agrees with the
    np.linspace grid point 0.10000000000000009, which drives two |freq|
    values one ulp apart and so takes RK45 directly."""
    propagated = []
    exact = solver._propagate_exact

    def counting(gen, v0, times, partner):
        propagated.append(gen.shape[0])
        return exact(gen, v0, times, partner)

    monkeypatch.setattr(solver, "_propagate_exact", counting)
    cfg, _, collapse = _preset("aqec")
    rho0 = basis_state(FULL_DIMS, "gf00").to_density()
    times = np.linspace(0.0, 3.0, 61)
    offsets = (0.1, np.linspace(-1.0, 1.0, 21)[11])
    assert offsets[1] == 0.10000000000000009
    trajs = [solver.evolve(model.build_static_hamiltonian(cfg.device, cfg.drive,
                                                          red_offset=off),
                           collapse, rho0, times) for off in offsets]
    assert propagated == []
    assert all(t.meta["method"] == "rk45" and t.meta["nfev"] > 0 for t in trajs)
    assert trajs[0].meta["floquet_rejected"] == "stack_dim"
    assert trajs[0].meta["floquet_order"] == solver.FLOQUET_ORDERS[0]
    assert trajs[0].meta["stack_dim"] > solver.DENSE_BLOCK_MAX
    assert "floquet_tail" not in trajs[0].meta
    assert "floquet_order" not in trajs[1].meta
    assert np.max(np.abs(trajs[0].full_states() - trajs[1].full_states())) <= 1e-10


def test_conjugation_map_is_unitary_and_real_on_hermitian_blocks():
    """T is unitary and T^H its adjoint, T^H v is real for a v closed under
    conjugation (the entries of a random Hermitian matrix on the aqec L0
    block), and T and the gathered map back both return v from those real
    coordinates."""
    _, h, collapse = _preset("aqec")
    block = solver._block(h, collapse, model.logical_state("L0").to_density())
    keep = block.keep
    real = solver._conjugation_map(block.partner)
    t = real.t.toarray()
    assert np.array_equal(real.t_h.toarray(), t.conj().T)
    eye = np.eye(len(keep))
    assert np.max(np.abs(t.conj().T @ t - eye)) <= 1e-15
    assert np.max(np.abs(t @ t.conj().T - eye)) <= 1e-15
    v = _random_density(np.random.default_rng(5), 36).ravel()[keep]
    x = real.t_h @ v
    assert not np.any(x.imag)
    assert np.array_equal(real.coords(v), x.real)
    assert np.max(np.abs(t @ x.real - v)) <= 1e-15
    assert np.array_equal(real.block(x.real[None, :])[0], real.t @ x.real)


def test_real_form_rejects_unclosed_blocks_and_non_hermitian_maps(monkeypatch):
    """Partners that are not an involution of the block, a Floquet stack
    with one partner index removed, a generator without a real form and a
    non-Hermitian rho0 are ValueErrors, raised before anything is
    propagated; rho0's is raised before the generator is assembled."""
    for partner in ([1, 2, 0], [0, 2], [1, 1]):
        with pytest.raises(ValueError, match="involution"):
            solver._conjugation_map(np.array(partner))
    _, h_free, collapse_free = _preset("free_decay")
    block = solver._block(h_free, collapse_free, model.logical_state("L0").to_density())
    with pytest.raises(ValueError, match="Hermiticity"):
        solver._conjugation_map(block.partner).form(1j * block.gen)
    h, collapse, psi0, times = _benchmark_sweep_case("qr_frequency", 0.5)
    block = solver._block(h, collapse, psi0.to_density())
    touched = solver._touched_block
    # the 4-state stack's last index is sigma_+1's |yx>, partner of sigma_-1's |xy>
    monkeypatch.setattr(solver, "_touched_block", lambda g, v: touched(g, v)[:-1])
    _forbid(monkeypatch, "_propagate_exact")
    with pytest.raises(ValueError, match="closed under conjugation"):
        solver._propagate_floquet(block, times)
    monkeypatch.undo()
    _forbid(monkeypatch, "_lindblad_generator", "_commutator")
    rho = psi0.to_density().data.copy()
    rho[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        solver.evolve(h, collapse, DensityMatrix(FULL_DIMS, rho), times)


def test_real_form_of_preset_blocks_and_floquet_stacks(monkeypatch):
    """T^H G T keeps an imaginary part of at most 1e-12 of G's largest entry
    on the nine preset blocks and on the Floquet stacks of the
    red_pair_center +0.2 MHz offset (M = 4, rejected, and M = 6) and the
    qr_frequency +0.5 MHz offset (M = 4)."""
    ratios = []
    form = solver._RealMap.form

    def recording(self, op):
        mapped = (self.t_h @ op @ self.t).toarray()
        ratios.append(np.max(np.abs(mapped.imag)) / np.max(np.abs(op.data)))
        return form(self, op)

    monkeypatch.setattr(solver._RealMap, "form", recording)
    for arm in ("free_decay", "echo_4qq", "aqec"):
        cfg, h, collapse = _preset(arm)
        times = np.linspace(0.0, cfg.scenario.tmax_us, cfg.scenario.snapshots)
        for initial in LOGICAL:
            traj = solver.evolve(h, collapse, model.logical_state(initial).to_density(),
                                 times, validate=False)
            assert traj.meta["block_dim"] == PRESET_BLOCKS[arm][initial]
    nu_r = config.load_preset("echo_4qq").drive.nu_r
    for axis, freq in (("red_pair_center", nu_r + 0.2), ("qr_frequency", 0.5)):
        h, collapse, psi0, times = _benchmark_sweep_case(axis, freq)
        traj = solver.evolve(h, collapse, psi0.to_density(), times, validate=False)
        assert traj.meta["method"] == "floquet"
    assert len(ratios) == 9 + 3
    assert max(ratios) <= 1e-12


def _complex_expm(gen, v0, times, partner):
    """Snapshots of dv/dt = gen v on a uniform grid by one complex dense
    propagator, with no real form: the reference for the real path."""
    prop = expm(gen.toarray() * (times[1] - times[0]))
    vecs = [v0.astype(complex)]
    for _ in times[1:]:
        vecs.append(prop @ vecs[-1])
    return np.array(vecs), "expm"


@pytest.mark.parametrize("case", ["aqec", "red_floquet"])
def test_real_path_matches_complex_expm(monkeypatch, case):
    """The real-coordinate snapshots equal those of a complex dense expm of
    the same block to 1e-12: aqec L0 over 27 us (109 snapshots, one dense
    propagator) and the lossy red_pair_center Floquet stack at
    nu_r + 0.5 MHz."""
    if case == "aqec":
        _, h, collapse = _preset("aqec")
        rho0 = model.logical_state("L0").to_density()
        times, key = np.linspace(0.0, 27.0, 109), "method"
    else:
        nu_r = config.load_preset("echo_4qq").drive.nu_r
        h, collapse, psi0, times = _benchmark_sweep_case("red_pair_center", nu_r + 0.5)
        rho0, key = psi0.to_density(), "stack_method"
    real = solver.evolve(h, collapse, rho0, times, validate=False)
    monkeypatch.setattr(solver, "_propagate_exact", _complex_expm)
    ref = solver.evolve(h, collapse, rho0, times, validate=False)
    assert real.meta[key] == "expm"
    assert np.array_equal(real.keep, ref.keep)
    assert np.max(np.abs(real.states - ref.states)) <= 1e-12


def test_tone_is_a_complex_exponential():
    """Tone(f)(t) = cos(2 pi f t) + i sin(2 pi f t) for either sign of f."""
    rng = np.random.default_rng(3)
    for t in rng.uniform(-5.0, 5.0, size=50):
        for f in (0.7, -1.3):
            theta = TWOPI * f * t
            assert model.Tone(f)(t) == pytest.approx(complex(math.cos(theta), math.sin(theta)),
                                                     abs=1e-12)


def test_evolve_rejects_unpaired_driven_terms(monkeypatch):
    """A driven term without its -f partner, or with a partner that is not
    its adjoint, is a ValueError raised before anything is assembled."""
    h, collapse = _red_sweep_hamiltonian(0.5)
    (plus, op), (minus, op_dag) = h.driven
    assert minus.freq == -plus.freq and np.array_equal(op_dag.data, op.data.conj().T)
    assert not np.array_equal(op.data, op_dag.data)
    _forbid(monkeypatch, "_lindblad_generator", "_commutator", "_touched_block",
            "_propagate_exact", "_propagate_floquet", "_integrate_rk45")
    rho0 = basis_state(FULL_DIMS, "gf00").to_density()
    for driven in (((plus, op),), ((plus, op), (minus, op))):
        spec = model.HamiltonianSpec(h.constant, driven)
        with pytest.raises(ValueError, match="adjoint"):
            solver.evolve(spec, collapse, rho0, np.linspace(0.0, 1.0, 3))


def test_zero_frequency_terms_take_the_exact_path():
    """A Hermitian O at Tone(0.0), here a 0.2 MHz shift of transmon 1, is
    constant: alone it takes the exact path, with one more +-f pair the
    Floquet path, and each run equals, bit for bit, the run with O folded
    into H's constant part."""
    h, collapse = _red_sweep_hamiltonian(0.5)
    static = TWOPI * 0.2 * model.transmon_number(1)
    folded = LabeledOperator(h.dims, h.constant.data + static.data)
    rho0 = basis_state(FULL_DIMS, "gf00").to_density()
    times = np.linspace(0.0, 1.0, 11)
    for driven, methods in (((), ("expm", "expm_multiply")), (h.driven, ("floquet",))):
        got = solver.evolve(model.HamiltonianSpec(h.constant, ((model.Tone(0.0), static),
                                                               *driven)),
                            collapse, rho0, times)
        ref = solver.evolve(model.HamiltonianSpec(folded, driven), collapse, rho0, times)
        assert got.meta["method"] in methods
        assert got.meta == ref.meta
        assert np.array_equal(got.keep, ref.keep) and np.array_equal(got.states, ref.states)


def test_terms_sharing_a_frequency_are_grouped(monkeypatch):
    """The red-sweep drive split into two halves at +f and two at -f takes one
    commutator superoperator per frequency and gives the states and meta of
    the unsplit drive bit for bit (O/2 + O/2 = O exactly)."""
    h, collapse = _red_sweep_hamiltonian(0.5)
    halves = []
    for tone, o in h.driven:
        half = (tone, LabeledOperator(h.dims, o.data / 2))
        halves += [half, half]
    rho0 = basis_state(FULL_DIMS, "gf00").to_density()
    times = np.linspace(0.0, 1.0, 11)
    ref = solver.evolve(h, collapse, rho0, times)
    commutators = []
    commutator = solver._commutator
    monkeypatch.setattr(solver, "_commutator",
                        lambda hmat: commutators.append(hmat) or commutator(hmat))
    got = solver.evolve(model.HamiltonianSpec(h.constant, tuple(halves)), collapse, rho0, times)
    assert len(commutators) == 2
    assert got.meta == ref.meta and got.meta["method"] == "floquet"
    assert np.array_equal(got.keep, ref.keep) and np.array_equal(got.states, ref.states)


def test_refill_rate_values_and_limits():
    assert solver.refill_rate(0.2, 0.5) == pytest.approx(
        0.2**2 * 0.5 / (0.2**2 + 2 * 0.5**2))
    assert solver.refill_rate(0.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        solver.refill_rate(-0.1, 0.5)
    with pytest.raises(ValueError):
        solver.refill_rate(0.5, 0.0)


def test_refill_rate_matches_simulation(device):
    """Exponential refill of the logical manifold from an error state follows
    the golden-rule two-step rate (single grid point; the acceptance suite
    covers the full grid)."""
    omega, kappa = 0.4, 0.5
    drive = model.DriveConfig(w_r=1.5, w_b=1.5, nu_r=0.85, nu_b=-0.85,
                              omega_qr1=omega, omega_qr2=omega)
    noise = model.NoiseModel(kappa=(kappa, kappa))
    h = model.build_rotating_hamiltonian(device, drive)
    gamma = TWOPI * solver.refill_rate(omega, kappa)
    times = np.linspace(0.0, 8.0 / gamma, 161)
    traj = solver.evolve(h, model.collapse_operators(noise),
                         model.logical_state("E01").to_density(), times)
    # project onto the refilled logical state regardless of the resonator,
    # which still holds the dumped photon during the second step
    target9 = model.logical_qutrit_state("L0").to_density()
    proj = tensor(LabeledOperator((3, 3), target9.data), identity(2), identity(2))
    y = solver.observable_series(traj, [proj])[:, 0]
    (_, g_fit), _ = curve_fit(lambda t, a, g: a * (1.0 - np.exp(-g * t)),
                              times, y, p0=(0.5, gamma))
    assert abs(g_fit - gamma) / g_fit <= 0.2


def test_fringe_frequency_synthetic():
    t = np.linspace(0.0, 6.0, 301)
    y = 0.4 * np.cos(TWOPI * 3.3 * t + 0.4) + 0.5
    assert solver.fringe_frequency(t, y) == pytest.approx(3.3, rel=0.01)
    assert solver.fringe_frequency(t, np.full_like(t, 0.7)) == 0.0
    with pytest.raises(ValueError):
        solver.fringe_frequency(t[:3], y[:3])


def test_sweep_chevron_center_and_validation(device):
    drive = model.DriveConfig(omega_qr1=1.0)
    times = np.linspace(0.0, 4.0, 81)
    rho0 = model.logical_state("E01").to_density()
    offsets = np.array([-1.0, 0.0, 1.0])
    cmap = solver.sweep_chevron(device, drive, "qr_frequency", offsets, times, rho0)
    assert cmap.n_q1.shape == (3, 81)
    fringe = [solver.fringe_frequency(times, row) for row in cmap.n_q1]
    assert int(np.argmin(fringe)) == 1  # slowest fringe on resonance
    with pytest.raises(ValueError):
        solver.sweep_chevron(device, drive, "purple_pair", offsets, times, rho0)
    with pytest.raises(ValueError):
        solver.sweep_chevron(device, drive, "qr_frequency", [], times, rho0)


def test_sweep_sees_dispersive_and_zz_shifts(device_with_shifts):
    """Sweeps run the shifted model that scenarios simulate.  From |fe00> the
    QR2 tone drives the L1 branch, which sits zz_ff2 off the tone's line, so
    the fringe on zero offset is sqrt(Omega^2 + zz_ff2^2), not Omega."""
    drive = model.DriveConfig(omega_qr2=1.0)
    times = np.linspace(0.0, 6.0, 241)
    rho0 = basis_state(FULL_DIMS, "fe00").to_density()
    cmap = solver.sweep_chevron(device_with_shifts, drive, "qr_frequency",
                                [0.0], times, rho0)
    fringe = solver.fringe_frequency(times, cmap.n_q2[0])
    assert fringe == pytest.approx(math.hypot(1.0, device_with_shifts.zz_ff2),
                                   rel=0.05)


def test_chevron_map_save(device, tmp_path):
    cmap = solver.ChevronMap("qr_frequency", np.array([0.0, 1.0]),
                             np.array([0.0, 0.5]), np.ones((2, 2)),
                             np.zeros((2, 2)))
    cmap.save(str(tmp_path / "sweep"))
    loaded = np.loadtxt(tmp_path / "sweep_n_q1.tsv", skiprows=1)
    assert loaded.shape == (2, 3)
    assert np.allclose(loaded[:, 0], [0.0, 1.0])
