"""The four benchmark workloads: inputs made from the seed, ops, oracles.

Each workload is a list of ops.  An op is one call sequence into aqecsim's
public API, timed from outside; its check runs after the timer stops and
compares the op's output with an oracle that does not share the code path
under test.  Everything the program receives (YAML configs, sampling seeds,
the confusion matrix) is generated here from the workload seed, so the same
seed gives byte-identical inputs.  See ``perfbench/README.md`` for why each
workload exists.
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import yaml

import oracles
from aqecsim import cli, config, model, tomography
from aqecsim.operators import DensityMatrix

SERIES_TOL = 1e-6  # series columns vs exact Liouvillian propagation
FIDELITY_MIN = 0.98  # criterion 08's bar for sampled reconstructions
FRINGE_REL_TOL = 0.05  # criterion 11's tolerance on sqrt(Omega^2 + Delta^2)
PHOTON_TOL = 1e-5  # red-pair sweep photon numbers vs exact propagation

NOISE_TIMESCALES = ("t1_ge", "t1_ef", "t_phi", "t1_up", "t_phi_ff")
JITTER = 0.02  # relative noise-timescale jitter written into configs
TOMO_LABELS = ("L0", "L1", "Lx", "E01", "E02", "E11", "E12")
TOMO_SHOTS = 5000


class OracleMiss(AssertionError):
    """An op's output disagrees with its oracle."""


@dataclasses.dataclass
class Op:
    name: str
    run: object  # () -> output, the timed part
    check: object  # (output) -> optional dict of findings; raises OracleMiss


def _preset_doc(name):
    return yaml.safe_load(config.preset_path(name).read_text())


def _jitter_noise(noise, rng):
    """Scale each noise timescale by a seed-drawn factor in 1 +- JITTER."""
    out = dict(noise)
    for key in NOISE_TIMESCALES:
        if key not in out:
            continue
        vals = out[key] if isinstance(out[key], list) else [out[key]]
        vals = [float(v) * (1.0 + rng.uniform(-JITTER, JITTER)) for v in vals]
        out[key] = vals if isinstance(out[key], list) else vals[0]
    return out


def _write_yaml(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    return path


# ---------------------------------------------------------------------------
# scenario workloads: cli.run_scenario, checked against exact propagation

def _arm_doc(preset, rng, tmax_us, snapshots):
    """The preset with jittered noise, shared by all initial states of the
    arm, so the states of one arm share one (H, collapse)."""
    doc = _preset_doc(preset)
    doc["noise"] = _jitter_noise(doc["noise"], rng)
    doc["scenario"].update(tmax_us=float(tmax_us), snapshots=int(snapshots))
    return doc


def _scenario_op(workdir, arm_doc, initial):
    doc = {**arm_doc, "scenario": {**arm_doc["scenario"], "initial": initial}}
    name = f"{doc['scenario']['name']}_{initial}"  # run_scenario's file stem
    cfg_path = _write_yaml(workdir / "configs" / f"{name}.yaml", doc)
    outdir = workdir / "out" / name
    expected = {}

    def run():
        return cli.run_scenario(str(cfg_path), outdir)

    def check(summary_path):
        if "series" not in expected:
            expected["series"] = oracles.scenario_series(cfg_path, initial)
        series = outdir / f"{name}_series.tsv"
        got = np.loadtxt(series, skiprows=1)
        want = expected["series"]
        if got.shape != want.shape:
            raise OracleMiss(f"{name}: series shape {got.shape} != {want.shape}")
        dev = float(np.max(np.abs(got - want)))
        if not dev <= SERIES_TOL:
            raise OracleMiss(f"{name}: series deviates by {dev:.3e} "
                             f"from exact propagation (tol {SERIES_TOL:g})")
        if not Path(summary_path).is_file():
            raise OracleMiss(f"{name}: summary {summary_path} missing")

    return Op(name, run, check)


def stiff_arms(workdir, rng, small=False):
    """Three echo_4qq arms at preset length, then a short aqec L0 window."""
    # small: one arm over a window its decay fit still converges on
    tmax, snaps, inits = ((2.0, 9, ("L0",)) if small
                          else (27.0, 109, ("L0", "L1", "Lx")))
    echo = _arm_doc("echo_4qq", rng, tmax, snaps)
    ops = [_scenario_op(workdir, echo, init) for init in inits]
    # the preset's 0.25 us spacing; ending at the 1.5 us fit skip leaves too
    # few points to fit, so this op is all propagation
    aqec_tmax = 0.25 if small else 1.5
    aqec = _arm_doc("aqec", rng, aqec_tmax, int(round(aqec_tmax / 0.25)) + 1)
    ops.append(_scenario_op(workdir, aqec, "L0"))
    return ops


def dense_series(workdir, rng, small=False):
    """free_decay for all three logical states on a dense snapshot grid."""
    arm = _arm_doc("free_decay", rng, 27.0, 41 if small else 1081)
    return [_scenario_op(workdir, arm, init) for init in ("L0", "L1", "Lx")]


# ---------------------------------------------------------------------------
# tomography: simulate_counts + mle_reconstruct + fidelity, no propagation

def confusion_matrix(rng):
    """Near-diagonal readout matrix, assignment fidelity 0.95-0.97 per row.

    The misassigned weight falls off with the level distance on each qutrit,
    as for thermal readout errors.
    """
    levels = [(a, b) for a in range(3) for b in range(3)]
    m = np.zeros((9, 9))
    for i, (a, b) in enumerate(levels):
        weights = np.array([0.0 if j == i else
                            rng.uniform(0.5, 1.5) / 4.0 ** (abs(a - c) + abs(b - d))
                            for j, (c, d) in enumerate(levels)])
        diag = rng.uniform(0.95, 0.97)
        m[i] = (1.0 - diag) * weights / weights.sum()
        m[i, i] = diag
    return m


def tomo_batch(workdir, rng, small=False):
    """One op per state: sample, reconstruct, score.  Shared rotations and
    confusion matrix, so a cached design matrix would show here."""
    rset = tomography.rotation_set()
    conf = tomography.ConfusionMatrix(confusion_matrix(rng))
    p = rng.uniform(0.6, 0.9)
    l0 = model.logical_qutrit_state("L0").to_density().data
    e01 = model.logical_qutrit_state("E01").to_density().data
    states = [(label, model.logical_qutrit_state(label).to_density())
              for label in TOMO_LABELS]
    states.append(("L0_E01_mix", DensityMatrix(model.QQ_DIMS,
                                                 p * l0 + (1 - p) * e01)))
    if small:
        states = states[:1] + states[-1:]
    seeds = rng.integers(0, 2**31 - 1, size=len(states))

    def make(label, rho, seed):
        def run():
            tomo = tomography.simulate_counts(rho, rset, conf, TOMO_SHOTS,
                                              int(seed))
            result = tomography.mle_reconstruct(tomo, rset, conf)
            return result, tomography.fidelity(result.rho, rho)

        def check(output):
            result, fid = output
            ref = oracles.fidelity(result.rho.data, rho.data)
            if not ref >= FIDELITY_MIN:
                raise OracleMiss(f"tomo {label}: fidelity {ref:.5f} "
                                 f"< {FIDELITY_MIN}")
            if abs(fid - ref) > 1e-6:
                raise OracleMiss(f"tomo {label}: reported fidelity {fid:.8f} "
                                 f"!= oracle {ref:.8f}")

        return Op(f"tomo_{label}", run, check)

    return [make(label, rho, seed) for (label, rho), seed in zip(states, seeds)]


# ---------------------------------------------------------------------------
# chevron sweeps: cli.run_sweep with one worker

def _sweep_op(workdir, name, doc, check_maps):
    cfg_path = _write_yaml(workdir / "configs" / f"{name}.yaml", doc)
    outdir = workdir / "out" / name
    prefix = outdir / f"sweep_{doc['sweep']['axis']}"

    def run():
        return cli.run_sweep(str(cfg_path), outdir, workers=1)

    def check(summary_path):
        sw = doc["sweep"]
        offsets = np.linspace(sw["start"], sw["stop"], sw["num"])
        return check_maps(cfg_path, prefix, offsets)

    return Op(name, run, check)


def _read_map(path):
    table = np.loadtxt(path, skiprows=1, ndmin=2)
    return table[:, 0], table[:, 1:]


def chevron_sweep(workdir, rng, small=False):
    """A lossless qr_frequency chevron and a lossy red_pair_center sweep."""
    base = _preset_doc("echo_4qq")
    rate = 1.0 * (1.0 + rng.uniform(-JITTER, JITTER))
    qr_doc = {
        "device": base["device"],
        "drive": {"omega_qr1": rate},
        "noise": {},
        "sweep": {"axis": "qr_frequency", "start": -2.0, "stop": 2.0,
                  "num": 3 if small else 9, "tmax_us": 6.0,
                  "snapshots": 241, "initial": "E01"},
    }

    def check_qr(cfg_path, prefix, offsets):
        off, fringe = _read_map(prefix.with_name(prefix.name + "_fringe.tsv"))
        if not np.allclose(off, offsets):
            raise OracleMiss("qr_frequency: fringe offsets do not match grid")
        expected = np.sqrt(rate**2 + offsets**2)
        dev = float(np.max(np.abs(fringe[:, 0] - expected) / expected))
        if not dev <= FRINGE_REL_TOL:
            raise OracleMiss(f"qr_frequency: fringe deviates by {dev:.2%} "
                             f"from sqrt(Omega^2+Delta^2)")

    red_doc = {
        "device": base["device"],
        "drive": base["drive"],
        "noise": _jitter_noise(base["noise"], rng),
        "sweep": {"axis": "red_pair_center", "start": -1.0, "stop": 1.0,
                  "num": 2 if small else 5, "tmax_us": 1.0 if small else 6.0,
                  "snapshots": 25 if small else 121, "initial": "gf00"},
    }
    expected = {}

    def check_red(cfg_path, prefix, offsets):
        if "maps" not in expected:
            expected["maps"] = oracles.red_sweep_photons(cfg_path, offsets)
        static, rotating = expected["maps"]
        frame_dev = 0.0
        for k, name in enumerate(("n_q1", "n_q2")):
            off, got = _read_map(prefix.with_name(f"{prefix.name}_{name}.tsv"))
            dev = float(np.max(np.abs(got - static[k])))
            if not dev <= PHOTON_TOL:
                raise OracleMiss(f"red_pair_center: {name} deviates by "
                                 f"{dev:.3e} from exact propagation")
            frame_dev = max(frame_dev, float(np.max(np.abs(got - rotating[k]))))
        # Reported, not failed: the frames disagree by construction of the
        # model (see oracles.red_sweep_photons), not through a solver error.
        return {"rotating_frame_deviation": frame_dev,
                "rotating_frame_within_tol": frame_dev <= PHOTON_TOL}

    return [_sweep_op(workdir, "qr_frequency", qr_doc, check_qr),
            _sweep_op(workdir, "red_pair_center", red_doc, check_red)]


WORKLOADS = {
    "stiff_arms": stiff_arms,
    "dense_series": dense_series,
    "tomo_batch": tomo_batch,
    "chevron_sweep": chevron_sweep,
}


def warm_up(workdir):
    """One small call into every traced layer, so lazy imports and first-call
    costs are paid in set-up rather than in the first timed op."""
    doc = _preset_doc("free_decay")
    doc["scenario"].update(name="warmup", tmax_us=1.0, snapshots=6)
    cli.run_scenario(str(_write_yaml(workdir / "configs" / "warmup.yaml", doc)),
                     workdir / "out" / "warmup")
    sweep = {"device": doc["device"], "drive": {"omega_qr1": 1.0}, "noise": {},
             "sweep": {"axis": "qr_frequency", "start": 0.0, "stop": 0.5,
                       "num": 2, "tmax_us": 0.2, "snapshots": 8,
                       "initial": "E01"}}
    cli.run_sweep(str(_write_yaml(workdir / "configs" / "warmup_sweep.yaml",
                                  sweep)), workdir / "out" / "warmup")
    rho = model.logical_qutrit_state("L0").to_density()
    rset = tomography.rotation_set()
    conf = tomography.ConfusionMatrix.identity()
    tomo = tomography.simulate_counts(rho, rset, conf, 100, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = tomography.mle_reconstruct(tomo, rset, conf, max_iter=5)
    tomography.fidelity(result.rho, rho)
