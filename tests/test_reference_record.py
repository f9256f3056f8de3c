"""The program's outputs against the committed reference record.

``reference_record.py`` (beside this file) documents the record and
rewrites it.  Summaries, configs and the path record ``paths.json`` must
match byte for byte; series, maps and fringe tables must keep their header
and shape and match to 1e-7 absolute, entry by entry.
"""

import numpy as np

import reference_record

SERIES_TOL = 1e-7


def _first_moved_line(got, want):
    for k, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), start=1):
        if a != b:
            return f"line {k}: {a!r} (record {b!r})"
    return "line count differs"


def _table_deviation(got, want, name):
    """Largest entrywise deviation of two tables with one header line."""
    g_head, w_head = got.split("\n", 1)[0], want.split("\n", 1)[0]
    assert g_head == w_head, f"{name}: header moved: {_first_moved_line(got, want)}"
    g = np.loadtxt(got.splitlines()[1:], ndmin=2)
    w = np.loadtxt(want.splitlines()[1:], ndmin=2)
    assert g.shape == w.shape, f"{name}: shape {g.shape}, record {w.shape}"
    dev = np.max(np.abs(g - w), axis=1)
    moved = np.flatnonzero(dev > SERIES_TOL)
    assert not moved.size, (f"{name}: line {moved[0] + 2} moved by {dev[moved[0]]:.3g} "
                            f"(largest {dev.max():.3g}, tolerance {SERIES_TOL:g})")
    return float(dev.max())


def test_outputs_match_reference_record(tmp_path):
    """The nine preset runs and two chevron sweeps rewrite every file of the
    record: summaries, configs and the path of every ``solver.evolve`` call
    byte for byte, tables to 1e-7."""
    reference_record.write_outputs(tmp_path)
    recorded = {p.name for p in reference_record.RECORD.iterdir()} - {
        reference_record.PROVENANCE}
    assert {p.name for p in tmp_path.iterdir()} == recorded
    worst, worst_name = 0.0, None
    for name in sorted(recorded):
        got = (tmp_path / name).read_text()
        want = (reference_record.RECORD / name).read_text()
        if name.endswith(".tsv"):
            dev = _table_deviation(got, want, name)
            if worst_name is None or dev > worst:
                worst, worst_name = dev, name
        else:
            assert got == want, f"{name} moved: {_first_moved_line(got, want)}"
    print(f"largest table deviation from the reference record: {worst:.3g} ({worst_name})")
