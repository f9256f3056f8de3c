"""Command-line scenario runner.

Verbs:

* ``run <config>``   -- simulate one experiment arm, write series + summary
* ``sweep <config>`` -- drive-frequency offset sweep, write 2-D maps
* ``tomo <tomogram> [confusion]`` -- reconstruct a state from saved counts
* ``fit <series>``   -- exponential decay fit of a series column
* ``rates``          -- print correction-rate and sideband-rate formulas

``<config>`` is a YAML file path or the name of a bundled preset
(``free_decay``, ``echo_4qq``, ``aqec``).  All outputs are plain columnar
text except density matrices (binary ``.npy``).  Identical configs and seeds
produce byte-identical summaries.  On failure a machine-readable JSON error
record goes to stderr and the exit code is nonzero (2 for configuration
errors, 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import analysis, model, solver, tomography
from .config import ConfigError, load_config, preset_path
from .operators import QQ_DIMS, DensityMatrix, trace_out
# Not called here; the benchmark's tracer wraps it under this name too.
from .operators import partial_trace  # noqa: F401

_FMT = "{:.12g}"


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FMT.format(value)
    return str(value)


def _write_summary(path, entries):
    lines = [f"{key}: {_fmt(value)}" for key, value in entries]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_summary(path):
    entries = {}
    for line in Path(path).read_text().splitlines():
        if ":" in line:
            key, _, value = line.partition(":")
            entries[key.strip()] = value.strip()
    return entries


def _resolve_config(token):
    path = Path(token)
    if path.exists():
        return load_config(path)
    if path.suffix == "":
        return load_config(preset_path(token))
    raise ConfigError(f"config file {token!r} not found")


def run_scenario(config_token, outdir=".", initial=None, baseline=None):
    """Simulate a scenario and write its series and summary files.

    Returns the summary file path.  ``initial`` and ``baseline`` override the
    config's initial state and baseline summary reference.
    """
    cfg = _resolve_config(config_token)
    if cfg.scenario is None:
        raise ConfigError("config has no scenario section")
    sc = cfg.scenario
    initial = initial or sc.initial
    baseline = baseline or sc.baseline
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{sc.name}_{initial}"

    h = model.build_rotating_hamiltonian(cfg.device, cfg.drive)
    collapse = model.collapse_operators(cfg.noise)
    rho0 = model.logical_state(initial).to_density()
    times = np.linspace(0.0, sc.tmax_us, sc.snapshots)
    traj = solver.evolve(h, collapse, rho0, times)

    _, r9 = trace_out(traj, range(len(QQ_DIMS)))
    err = analysis.error_population(r9, initial)
    coh = analysis.coherence_metric(r9, initial)
    nq = solver.observable_series(
        traj, [model.transmon_number(1), model.transmon_number(2)])

    series_path = outdir / f"{stem}_series.tsv"
    table = np.column_stack([times, err, coh, nq])
    np.savetxt(series_path, table, delimiter="\t", comments="",
               header="time_us\terror_population\tcoherence\tn_q1\tn_q2")

    entries = [
        ("scenario", sc.name),
        ("arm", sc.arm),
        ("initial", initial),
        ("tmax_us", float(sc.tmax_us)),
        ("snapshots", sc.snapshots),
        ("error_population_initial", float(err[0])),
        ("coherence_initial", float(coh[0])),
        ("error_population_final", float(err[-1])),
        ("coherence_final", float(coh[-1])),
    ]

    skip = sc.fit_skip_us
    if np.count_nonzero(times >= skip) >= 4:
        entries.append(("fit_skip_initial_us", float(skip)))
        try:
            fit = analysis.fit_exponential(times, coh, skip_initial=skip)
        except analysis.FitError as exc:
            # the series is already written; the summary says why it has no tau
            entries.append(("fit_error", str(exc)))
        else:
            entries.extend((f"fit_{k}", v) for k, v in fit.summary_fields().items())
            if baseline:
                base = _read_summary(baseline)
                if "fit_tau_us" not in base:
                    raise ConfigError(f"baseline summary {baseline!r} has no fit_tau_us")
                tau_b = float(base["fit_tau_us"])
                entries.append(("baseline_tau_us", tau_b))
                entries.append(("improvement_factor", fit.tau / tau_b))

    if sc.tomography is not None:
        tset = tomography.rotation_set()
        if sc.tomography.confusion:
            conf = tomography.ConfusionMatrix.load(sc.tomography.confusion)
        else:
            conf = tomography.ConfusionMatrix.identity()
        # indices naming the same snapshot reconstruct it once
        for i in dict.fromkeys(idx % len(traj) for idx in sc.tomography.snapshots):
            rho9 = DensityMatrix(QQ_DIMS, r9[i])
            tomo = tomography.simulate_counts(
                rho9, tset, conf, sc.tomography.shots,
                sc.tomography.seed + i)
            tomo.save(outdir / f"{stem}_tomogram_{i}.tsv")
            result = tomography.mle_reconstruct(tomo, tset, conf)
            np.save(outdir / f"{stem}_rho_{i}.npy", result.rho.data)
            fid = tomography.fidelity(result.rho, rho9)
            entries.append((f"tomography_fidelity_snapshot_{i}", float(fid)))

    summary_path = outdir / f"{stem}_summary.txt"
    _write_summary(summary_path, entries)
    return summary_path


def run_sweep(config_token, outdir=".", workers=1):
    """Run a drive-frequency offset sweep and write the photon-number maps."""
    cfg = _resolve_config(config_token)
    if cfg.sweep is None:
        raise ConfigError("config has no sweep section")
    sw = cfg.sweep
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    offsets = np.linspace(sw.start, sw.stop, sw.num)
    times = np.linspace(0.0, sw.tmax_us, sw.snapshots)
    rho0 = model.named_state(sw.initial).to_density()
    collapse = model.collapse_operators(cfg.noise)
    cmap = solver.sweep_chevron(cfg.device, cfg.drive, sw.axis, offsets, times,
                                rho0, collapse, workers=workers)
    prefix = outdir / f"sweep_{sw.axis}"
    cmap.save(str(prefix))

    entries = [("axis", sw.axis), ("num_offsets", sw.num),
               ("tmax_us", float(sw.tmax_us))]
    if sw.num > 1:
        fringe = np.array([solver.fringe_frequency(times, row)
                           for row in cmap.n_q1])
        center = float(offsets[int(np.argmin(fringe))])
        np.savetxt(prefix.with_name(prefix.name + "_fringe.tsv"),
                   np.column_stack([offsets, fringe]), delimiter="\t",
                   comments="", header="offset_mhz\tfringe_mhz")
        entries.append(("center_offset_mhz", center))
    summary_path = prefix.with_name(prefix.name + "_summary.txt")
    _write_summary(summary_path, entries)
    return summary_path


def run_tomo(tomogram_path, confusion_path=None, out=None):
    """Reconstruct a density matrix from a saved tomogram.

    Prints the saved state's path, the multinomial negative log-likelihood
    per count of the result (``cost``), the optimizer's iterations and
    convergence, and the purity.
    """
    tomo = tomography.Tomogram.load(tomogram_path)
    if confusion_path:
        conf = tomography.ConfusionMatrix.load(confusion_path)
    else:
        conf = tomography.ConfusionMatrix.identity()
    result = tomography.mle_reconstruct(tomo, tomography.rotation_set(), conf)
    out = Path(out) if out else Path(tomogram_path).with_suffix(".rho.npy")
    np.save(out, result.rho.data)
    purity = float(np.trace(result.rho.data @ result.rho.data).real)
    print(f"state: {out}")
    print(f"cost: {_fmt(result.cost)}")
    print(f"iterations: {result.n_iter}")
    print(f"converged: {_fmt(result.converged)}")
    print(f"purity: {_fmt(purity)}")
    return out


def run_fit(series_path, column="coherence", skip=0.0):
    """Fit a decaying exponential to one column of a series file."""
    with open(series_path) as fh:
        names = fh.readline().split()
    if column not in names:
        raise ConfigError(f"column {column!r} not in {names}")
    with warnings.catch_warnings():  # no data rows: the shape check below says so
        warnings.filterwarnings("ignore", "loadtxt", UserWarning)
        data = np.loadtxt(series_path, skiprows=1, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{series_path}: data of shape {data.shape} for {len(names)} columns")
    fit = analysis.fit_exponential(data[:, 0], data[:, names.index(column)],
                                   skip_initial=skip)
    for key, value in fit.summary_fields().items():
        print(f"{key}: {_fmt(value)}")
    return fit


def run_rates(args):
    """Print correction-cycle and sideband rate estimates."""
    gamma = solver.refill_rate(args.omega, args.kappa)
    print(f"refill_rate_mhz: {_fmt(gamma)}")
    print(f"refill_exponential_rate_per_us: {_fmt(2 * np.pi * gamma)}")
    if args.g_qr is not None:
        from .circuit import qr_sideband_rate
        rate = qr_sideband_rate(args.g_qr, args.eps_q, args.delta)
        print(f"qr_sideband_rate_mhz: {_fmt(rate)}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="aqecsim",
        description="Driven two-transmon logical-qubit simulation toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--outdir", default=".")
    p_run.add_argument("--initial", choices=model.LOGICAL_STATES)
    p_run.add_argument("--baseline", help="baseline summary file for the "
                                          "improvement factor")

    p_sweep = sub.add_parser("sweep", help="run a drive-offset sweep config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--outdir", default=".")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_tomo = sub.add_parser("tomo", help="reconstruct a state from a tomogram")
    p_tomo.add_argument("tomogram")
    p_tomo.add_argument("confusion", nargs="?", default=None)
    p_tomo.add_argument("--out")

    p_fit = sub.add_parser("fit", help="exponential fit of a series column")
    p_fit.add_argument("series")
    p_fit.add_argument("--column", default="coherence")
    p_fit.add_argument("--skip", type=float, default=0.0)

    p_rates = sub.add_parser("rates", help="print rate-formula evaluations")
    p_rates.add_argument("--omega", type=float, default=0.39)
    p_rates.add_argument("--kappa", type=float, default=0.53)
    p_rates.add_argument("--g-qr", type=float, default=None)
    p_rates.add_argument("--eps-q", type=float, default=100.0)
    p_rates.add_argument("--delta", type=float, default=1790.0)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            path = run_scenario(args.config, args.outdir, args.initial,
                                args.baseline)
            print(path)
        elif args.verb == "sweep":
            print(run_sweep(args.config, args.outdir, args.workers))
        elif args.verb == "tomo":
            run_tomo(args.tomogram, args.confusion, args.out)
        elif args.verb == "fit":
            run_fit(args.series, args.column, args.skip)
        elif args.verb == "rates":
            run_rates(args)
    except ConfigError as exc:
        json.dump({"error": "config", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (analysis.FitError, solver.SolverError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
