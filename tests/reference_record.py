"""Rewrite the committed reference record of the program's outputs.

    PYTHONPATH=src python tests/reference_record.py

The record, under ``tests/data/reference/``, holds

* the summary and series of the nine preset runs,
  ``cli.run_scenario(preset, initial=s)`` for the presets free_decay,
  echo_4qq and aqec and the states L0, L1 and Lx;
* the configs, summaries, photon-number maps and fringe tables of two
  chevron sweeps shaped like the benchmark's, at fixed (unjittered) inputs:
  the lossless ``qr_frequency`` chevron (9 offsets, 241 snapshots) and the
  lossy ``red_pair_center`` sweep (5 offsets, 121 snapshots);
* ``paths.json``: the path each of those runs' ``solver.evolve`` calls
  took, one entry per call in call order (nine presets, then 14 sweep
  offsets), with the meta keys of ``PATH_KEYS`` that the call records;
* ``provenance.json``: the commit, numpy, scipy and BLAS it came from.

``test_reference_record.py`` reruns the same calls and compares.  Rewrite
the record when a change moves outputs on purpose, or when a new numpy,
scipy or BLAS moves last digits, and state the diff of the record.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import numpy as np
import scipy
import yaml

from aqecsim import cli, config, model, solver

RECORD = Path(__file__).resolve().parent / "data" / "reference"
PRESETS = ("free_decay", "echo_4qq", "aqec")
PROVENANCE = "provenance.json"
PATHS = "paths.json"
# the meta of a run's path: everything but the float diagnostics
PATH_KEYS = ("method", "block_dim", "nfev", "floquet_order", "stack_method",
             "floquet_rejected", "stack_dim")


def _sweep_docs():
    """The benchmark's two chevron sweeps with its seed-drawn jitter left
    out: QR rate 1.0 MHz and the echo_4qq noise as written."""
    base = yaml.safe_load(config.preset_path("echo_4qq").read_text())
    qr = {"device": base["device"], "drive": {"omega_qr1": 1.0}, "noise": {},
          "sweep": {"axis": "qr_frequency", "start": -2.0, "stop": 2.0, "num": 9,
                    "tmax_us": 6.0, "snapshots": 241, "initial": "E01"}}
    red = {"device": base["device"], "drive": base["drive"], "noise": base["noise"],
           "sweep": {"axis": "red_pair_center", "start": -1.0, "stop": 1.0, "num": 5,
                     "tmax_us": 6.0, "snapshots": 121, "initial": "gf00"}}
    return qr, red


def write_outputs(outdir):
    """Run every recorded call, writing its files under ``outdir``, and the
    path of every ``solver.evolve`` call they make to ``PATHS``."""
    outdir = Path(outdir)
    paths, evolve = [], solver.evolve

    def recording(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        paths.append({key: traj.meta[key] for key in PATH_KEYS if key in traj.meta})
        return traj

    solver.evolve = recording
    try:
        for preset in PRESETS:
            for initial in model.LOGICAL_STATES:
                cli.run_scenario(preset, outdir, initial=initial)
        for doc in _sweep_docs():
            cfg_path = outdir / f"sweep_{doc['sweep']['axis']}.yaml"
            cfg_path.write_text(yaml.safe_dump(doc, sort_keys=False))
            cli.run_sweep(str(cfg_path), outdir, workers=1)
    finally:
        solver.evolve = evolve
    (outdir / PATHS).write_text(json.dumps(paths, indent=1) + "\n")


def _git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def provenance():
    """Commit, whether src/ differed from it, and the numerical libraries."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": _git("rev-parse", "HEAD"),
            "src_modified": bool(_git("status", "--porcelain", "--", "../src")),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main():
    if RECORD.exists():
        shutil.rmtree(RECORD)
    RECORD.mkdir(parents=True)
    write_outputs(RECORD)
    (RECORD / PROVENANCE).write_text(json.dumps(provenance(), indent=1) + "\n")
    print(f"wrote {len(list(RECORD.iterdir()))} files to {RECORD}")


if __name__ == "__main__":
    main()
