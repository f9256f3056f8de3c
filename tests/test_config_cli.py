"""Configuration parsing, bundled presets, and the command-line verbs."""

import json
import math
import warnings

import numpy as np
import pytest
import yaml

from aqecsim import analysis, cli, config, model, operators, solver, tomography
from aqecsim.operators import DensityMatrix

FAST_SCENARIO = """
device:
  omega_q1: 3204.9
  omega_q2: 3662.5
  alpha_1: -116.4
  alpha_2: -159.6
  omega_r1: 4994.6
  omega_r2: 5450.5
drive: {}
noise:
  t1_ge: [18.0, 8.0]
  t1_ef: [33.0, 33.0]
  t_phi: [15.0, 15.0]
  t_phi_ff: 4.4
scenario:
  name: fast
  arm: free_decay
  initial: L1
  tmax_us: 4.0
  snapshots: 17
"""


def _write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# config parsing

def test_presets_load_and_expose_expected_arms():
    for name, arm in (("free_decay", "free_decay"), ("echo_4qq", "echo_4qq"),
                      ("aqec", "aqec")):
        cfg = config.load_preset(name)
        assert cfg.scenario.arm == arm
        assert cfg.scenario.tmax_us == 27.0
        assert cfg.scenario.snapshots == 109
    aqec = config.load_preset("aqec")
    assert aqec.drive.omega_qr1 == 0.39
    assert aqec.device.zz_ff1 == 0.6
    assert aqec.noise.n_res == 0.03
    assert aqec.scenario.fit_skip_us == 1.5
    free = config.load_preset("free_decay")
    assert free.scenario.fit_skip_us == 0.0
    with pytest.raises(config.ConfigError):
        config.load_preset("nonexistent")


def test_presets_parse_alike_with_and_without_libyaml(tmp_path):
    """load_config's loader (libyaml's when PyYAML has it) reads every preset
    as the pure-Python safe loader does, and malformed YAML is still a
    ConfigError that names the file."""
    presets = sorted(config.preset_path("aqec").parent.glob("*.yaml"))
    assert len(presets) == 3
    for path in presets:
        text = path.read_text()
        assert yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) \
            == yaml.safe_load(text)
    bad = _write(tmp_path, "device: [unclosed\n", name="broken.yaml")
    with pytest.raises(config.ConfigError, match="broken.yaml: malformed document"):
        config.load_config(bad)


def test_unknown_keys_are_hard_errors(tmp_path):
    bad_section = FAST_SCENARIO + "\nextras: {}\n"
    with pytest.raises(config.ConfigError, match="unknown sections"):
        config.load_config(_write(tmp_path, bad_section))
    bad_key = FAST_SCENARIO.replace("t_phi_ff: 4.4", "t_phi_ff: 4.4\n  t_oops: 1.0")
    with pytest.raises(config.ConfigError, match="unknown keys"):
        config.load_config(_write(tmp_path, bad_key))
    with pytest.raises(config.ConfigError, match="missing required"):
        config.load_config(_write(tmp_path, "drive: {}\nnoise: {}\n"))
    # no builder reads an inter-transmon coupling table, so none is accepted
    coupling = _write(tmp_path, FAST_SCENARIO.replace(
        "omega_r2: 5450.5", "omega_r2: 5450.5\n  J: [[0, 1], [1, 0]]"))
    with pytest.raises(config.ConfigError, match="unknown keys"):
        config.load_config(coupling)
    assert cli.main(["run", str(coupling), "--outdir", str(tmp_path)]) == 2


def test_arm_drive_requirements(tmp_path):
    driven = FAST_SCENARIO.replace("drive: {}", "drive:\n  w_r: 1.0")
    with pytest.raises(config.ConfigError, match="must not set"):
        config.load_config(_write(tmp_path, driven))
    aqec_text = FAST_SCENARIO.replace("arm: free_decay", "arm: aqec")
    with pytest.raises(config.ConfigError, match="requires nonzero"):
        config.load_config(_write(tmp_path, aqec_text))


def test_scenario_validation():
    with pytest.raises(config.ConfigError):
        config.Scenario(name="x", arm="free_decay", initial="L5",
                        tmax_us=1.0, snapshots=3)
    with pytest.raises(config.ConfigError):
        config.Scenario(name="x", arm="mystery", initial="L0",
                        tmax_us=1.0, snapshots=3)
    with pytest.raises(config.ConfigError):
        config.SweepSpec(axis="qr_frequency", start=0, stop=1, num=0,
                         tmax_us=1.0, snapshots=5)
    with pytest.raises(config.ConfigError):
        config.TomographySettings(shots=0)
    # a grid of several snapshots needs a positive duration; one snapshot
    # at t = 0 is a valid zero-length run
    with pytest.raises(config.ConfigError, match="scenario.tmax_us"):
        config.Scenario(name="x", arm="free_decay", initial="L0",
                        tmax_us=0.0, snapshots=5)
    config.Scenario(name="x", arm="free_decay", initial="L0", tmax_us=0.0,
                    snapshots=1)
    for tmax in (0.0, -1.0):
        with pytest.raises(config.ConfigError, match="sweep.tmax_us"):
            config.SweepSpec(axis="qr_frequency", start=0, stop=1, num=3,
                             tmax_us=tmax, snapshots=5)
    # one snapshot is the initial state alone, so it needs zero duration
    with pytest.raises(config.ConfigError, match="scenario.tmax_us"):
        config.Scenario(name="x", arm="free_decay", initial="L0", tmax_us=27.0,
                        snapshots=1)
    # the fringe estimate needs at least 4 samples per offset
    with pytest.raises(config.ConfigError, match="sweep.snapshots"):
        config.SweepSpec(axis="qr_frequency", start=0, stop=1, num=3,
                         tmax_us=1.0, snapshots=3)
    config.SweepSpec(axis="qr_frequency", start=0, stop=1, num=3, tmax_us=1.0,
                     snapshots=4)
    # integer fields reject bools and floats, naming the field
    for value in (True, 10.5, 2.0):
        with pytest.raises(config.ConfigError, match="scenario.snapshots"):
            config.Scenario(name="x", arm="free_decay", initial="L0",
                            tmax_us=1.0, snapshots=value)
        for key in ("num", "snapshots"):
            kwargs = {"num": 3, "snapshots": 5, key: value}
            with pytest.raises(config.ConfigError, match=f"sweep.{key}"):
                config.SweepSpec(axis="qr_frequency", start=0, stop=1,
                                 tmax_us=1.0, **kwargs)
        for key in ("shots", "seed"):
            with pytest.raises(config.ConfigError,
                               match=f"scenario.tomography.{key}"):
                config.TomographySettings(**{key: value})
        with pytest.raises(config.ConfigError, match="scenario.tomography.snapshots"):
            config.TomographySettings(snapshots=(0, value))
    with pytest.raises(config.ConfigError, match="scenario.tomography.seed"):
        config.TomographySettings(seed=-1)
    assert config.TomographySettings(seed=np.int64(3), shots=np.int64(10)).seed == 3


def test_tomography_snapshot_indices_must_be_on_the_grid(tmp_path, capsys):
    """Indices run over [-snapshots, snapshots); one outside is a config
    error, not a silent wrap onto another snapshot."""
    base = FAST_SCENARIO.replace("snapshots: 17", "snapshots: 5")
    for snaps in ((0, 4), (-5, -1)):
        text = base + f"  tomography:\n    snapshots: {list(snaps)}\n"
        cfg = config.load_config(_write(tmp_path, text))
        assert cfg.scenario.tomography.snapshots == snaps
    for snaps in ([7], [5], [0, -6]):
        path = _write(tmp_path, base + f"  tomography:\n    snapshots: {snaps}\n")
        with pytest.raises(config.ConfigError, match="scenario.tomography.snapshots"):
            config.load_config(path)
        assert cli.main(["run", str(path), "--outdir", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not list(tmp_path.glob("*_tomogram_*"))


def test_sweep_initial_label_is_validated(tmp_path, capsys):
    text = FAST_SCENARIO.split("scenario:")[0] + """
sweep:
  axis: qr_frequency
  start: -1.0
  stop: 1.0
  num: 3
  tmax_us: 1.0
  snapshots: 5
  initial: INITIAL
"""
    for label in ("E01", "Lx", "gf00", "fe10"):
        cfg = config.load_config(_write(tmp_path, text.replace("INITIAL", label)))
        assert cfg.sweep.initial == label
    for label in ("gx00", "gf0", "gf02", "L7"):
        path = _write(tmp_path, text.replace("INITIAL", label))
        with pytest.raises(config.ConfigError, match="sweep.initial"):
            config.load_config(path)
        assert cli.main(["sweep", str(path), "--outdir", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
    for tmax in ("0.0", "-1.0"):
        path = _write(tmp_path, text.replace("INITIAL", "E01")
                      .replace("tmax_us: 1.0", f"tmax_us: {tmax}"))
        assert cli.main(["sweep", str(path), "--outdir", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "sweep.tmax_us" in err["message"]


# ---------------------------------------------------------------------------
# CLI run verb

def test_run_scenario_outputs_and_determinism(tmp_path):
    cfg_path = _write(tmp_path, FAST_SCENARIO)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    summary_a = cli.run_scenario(cfg_path, out_a)
    summary_b = cli.run_scenario(cfg_path, out_b)
    assert summary_a.name == "fast_L1_summary.txt"
    assert summary_a.read_bytes() == summary_b.read_bytes()
    series_a = (out_a / "fast_L1_series.tsv").read_bytes()
    series_b = (out_b / "fast_L1_series.tsv").read_bytes()
    assert series_a == series_b
    table = np.loadtxt(out_a / "fast_L1_series.tsv", skiprows=1)
    assert table.shape == (17, 5)
    entries = cli._read_summary(summary_a)
    assert entries["initial"] == "L1"
    assert float(entries["coherence_initial"]) == pytest.approx(1.0)
    assert float(entries["error_population_initial"]) == pytest.approx(0.0)
    assert "fit_tau_us" in entries


def test_run_scenario_zero_duration(tmp_path):
    text = FAST_SCENARIO.replace("tmax_us: 4.0", "tmax_us: 0.0") \
                        .replace("snapshots: 17", "snapshots: 1")
    summary = cli.run_scenario(_write(tmp_path, text), tmp_path / "out")
    entries = cli._read_summary(summary)
    assert float(entries["coherence_final"]) == pytest.approx(1.0)
    assert float(entries["error_population_final"]) == pytest.approx(0.0)
    assert "fit_tau_us" not in entries  # too few samples to fit
    # the default tomography indices (0, -1) name the one snapshot: it is
    # reconstructed once and reported once
    out = tmp_path / "tomo"
    summary = cli.run_scenario(_write(tmp_path, text + "  tomography:\n    shots: 100\n"), out)
    keys = [line.partition(":")[0] for line in summary.read_text().splitlines()]
    assert keys.count("tomography_fidelity_snapshot_0") == 1
    assert [p.name for p in out.glob("*_tomogram_*")] == ["fast_L1_tomogram_0.tsv"]


def test_run_scenario_unidentifiable_fit(tmp_path):
    """A 0.02 us window is under 1/100 of the fitted tau (about 3 us): the
    fit raises FitError, and the run still writes its series and a summary
    that says why it has no tau."""
    text = FAST_SCENARIO.replace("tmax_us: 4.0", "tmax_us: 0.02")
    base_path = tmp_path / "base_summary.txt"
    cli._write_summary(base_path, [("fit_tau_us", 2.0)])
    summary = cli.run_scenario(_write(tmp_path, text), tmp_path / "out",
                               baseline=str(base_path))
    entries = cli._read_summary(summary)
    assert "exceeds 100x the fitted span" in entries["fit_error"]
    assert "fit_tau_us" not in entries and "improvement_factor" not in entries
    assert float(entries["coherence_final"]) < 1.0
    assert np.loadtxt(tmp_path / "out" / "fast_L1_series.tsv", skiprows=1).shape == (17, 5)


def test_run_scenario_fit_without_overflow_warning(tmp_path):
    """free_decay from L1 on 1081 snapshots with jittered noise: the fit's
    trial points overflow exp, which the optimizer rejects without a
    RuntimeWarning, and the fit converges to its tau."""
    text = (FAST_SCENARIO
            .replace("t1_ge: [18.0, 8.0]", "t1_ge: [17.70166740034341, 7.915779362110752]")
            .replace("t1_ef: [33.0, 33.0]",
                     "t1_ef: [33.397682294072446, 33.108453887604966]")
            .replace("t_phi: [15.0, 15.0]",
                     "t_phi: [14.756477185344238, 14.959876164141885]")
            .replace("t_phi_ff: 4.4", "t_phi_ff: 4.396313028472787\n  kappa: [0.53, 0.48]")
            .replace("name: fast", "name: free_decay")
            .replace("tmax_us: 4.0", "tmax_us: 27.0")
            .replace("snapshots: 17", "snapshots: 1081"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        summary = cli.run_scenario(_write(tmp_path, text), tmp_path / "out")
    assert cli._read_summary(summary)["fit_tau_us"] == "3.07841517084"


def test_run_scenario_baseline_improvement(tmp_path):
    cfg_path = _write(tmp_path, FAST_SCENARIO)
    base_path = tmp_path / "base_summary.txt"
    cli._write_summary(base_path, [("fit_tau_us", 2.0)])
    summary = cli.run_scenario(cfg_path, tmp_path / "out", baseline=str(base_path))
    entries = cli._read_summary(summary)
    assert float(entries["improvement_factor"]) == pytest.approx(
        float(entries["fit_tau_us"]) / 2.0)
    cli._write_summary(base_path, [("note", "no fit here")])
    with pytest.raises(config.ConfigError, match="fit_tau_us"):
        cli.run_scenario(cfg_path, tmp_path / "out2", baseline=str(base_path))


def test_run_scenario_initial_override(tmp_path):
    cfg_path = _write(tmp_path, FAST_SCENARIO)
    summary = cli.run_scenario(cfg_path, tmp_path / "out", initial="L0")
    assert summary.name == "fast_L0_summary.txt"


def test_run_scenario_traces_resonators_out_once(tmp_path, monkeypatch):
    """A run with two tomography snapshots reduces its trajectory to the two
    transmons once: both metrics and both tomograms read that one stack."""
    calls = []
    original = operators.trace_out

    def counting(rho, kept):
        calls.append(type(rho))
        return original(rho, kept)

    for module in (operators, analysis, cli, solver, tomography):
        if getattr(module, "trace_out", None) is original:
            monkeypatch.setattr(module, "trace_out", counting)
    text = FAST_SCENARIO + "  tomography:\n    shots: 100\n    snapshots: [0, 8]\n"
    summary = cli.run_scenario(_write(tmp_path, text), tmp_path / "out")
    assert calls == [solver.Trajectory]
    entries = cli._read_summary(summary)
    assert {"tomography_fidelity_snapshot_0", "tomography_fidelity_snapshot_8"} <= set(entries)


# ---------------------------------------------------------------------------
# other verbs through main()

def test_main_fit_verb(tmp_path, capsys):
    cfg_path = _write(tmp_path, FAST_SCENARIO)
    cli.run_scenario(cfg_path, tmp_path)
    series = tmp_path / "fast_L1_series.tsv"
    assert cli.main(["fit", str(series), "--column", "coherence"]) == 0
    out = capsys.readouterr().out
    assert "tau_us:" in out
    assert cli.main(["fit", str(series), "--column", "bogus"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config"


def test_main_rates_verb(capsys):
    assert cli.main(["rates", "--omega", "0.39", "--kappa", "0.53"]) == 0
    out = capsys.readouterr().out
    expected = 0.39**2 * 0.53 / (0.39**2 + 2 * 0.53**2)
    line = [l for l in out.splitlines() if l.startswith("refill_rate_mhz")][0]
    assert float(line.split(":")[1]) == pytest.approx(expected)


def test_main_tomo_verb(tmp_path, capsys):
    rho = model.logical_qutrit_state("L0").to_density()
    tomo = tomography.simulate_counts(rho, tomography.rotation_set(),
                                      tomography.ConfusionMatrix.identity(),
                                      shots=2000, seed=1)
    tomo_path = tmp_path / "tomo.tsv"
    tomo.save(tomo_path)
    out_path = tmp_path / "rho.npy"
    assert cli.main(["tomo", str(tomo_path), "--out", str(out_path)]) == 0
    recon = np.load(out_path)
    fid = tomography.fidelity(DensityMatrix((3, 3), recon), rho)
    assert fid >= 0.95
    assert "purity:" in capsys.readouterr().out


def test_main_tomo_rejects_a_tomogram_without_header(tmp_path, capsys):
    tomo = tomography.simulate_counts(model.logical_qutrit_state("L0").to_density(),
                                      tomography.rotation_set(),
                                      tomography.ConfusionMatrix.identity(),
                                      shots=100, seed=1)
    tomo_path = tmp_path / "tomo.tsv"
    tomo.save(tomo_path)
    lines = tomo_path.read_text().splitlines(keepends=True)
    tomo_path.write_text("# counts\n" + "".join(lines[1:]))
    assert cli.main(["tomo", str(tomo_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "shots=" in err["message"]
    assert not tomo_path.with_suffix(".rho.npy").exists()


def test_main_tomo_rejects_short_tomograms(tmp_path, capsys):
    head = "# shots=100 seed=1\n# rotation\t" + "\t".join(tomography._BASIS_LABELS) + "\n"
    for rows in ("", "0" + "\t11" * 9 + "\n"):
        tomo_path = _write(tmp_path, head + rows, "short_tomo.tsv")
        assert cli.main(["tomo", str(tomo_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "81x9" in err["message"]


def test_main_error_exit_codes(tmp_path, capsys):
    assert cli.main(["run", "no_such_preset"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "config"
    assert cli.main(["fit", str(tmp_path / "missing.tsv")]) in (1, 2)
    capsys.readouterr()
    # several snapshots over zero duration: a config error naming the field
    flat = _write(tmp_path, FAST_SCENARIO.replace("tmax_us: 4.0", "tmax_us: 0"))
    assert cli.main(["run", str(flat), "--outdir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "scenario.tmax_us" in err["message"]
    # a non-integer or out-of-range integer field, one snapshot over a
    # nonzero duration, or a sweep grid too short for the fringe estimate:
    # each is a config error naming the field, before anything runs
    sweep = FAST_SCENARIO.split("scenario:")[0] + """
sweep:
  axis: qr_frequency
  start: -1.0
  stop: 1.0
  num: 2
  tmax_us: 1.0
  snapshots: 5
"""
    tomo = FAST_SCENARIO + "  tomography:\n    shots: 100\n"
    cases = [
        (FAST_SCENARIO.replace("snapshots: 17", "snapshots: 10.5"), "scenario.snapshots"),
        (FAST_SCENARIO.replace("snapshots: 17", "snapshots: true"), "scenario.snapshots"),
        (FAST_SCENARIO.replace("snapshots: 17", "snapshots: 1"), "scenario.tmax_us"),
        (tomo.replace("shots: 100", "shots: 100.5"), "scenario.tomography.shots"),
        (tomo.replace("shots: 100", "seed: -1"), "scenario.tomography.seed"),
        (tomo.replace("shots: 100", "snapshots: [1.7]"), "scenario.tomography.snapshots"),
        (sweep.replace("num: 2", "num: 2.5"), "sweep.num"),
        (sweep.replace("snapshots: 5", "snapshots: 3"), "sweep.snapshots"),
    ]
    for k, (text, field) in enumerate(cases):
        path = _write(tmp_path, text, f"bad_{k}.yaml")
        verb = "sweep" if "sweep:" in text else "run"
        outdir = tmp_path / f"bad_{k}"
        assert cli.main([verb, str(path), "--outdir", str(outdir)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["message"].startswith(field + ":")
        assert not outdir.exists()
    # a series with one data row or none is too short to fit: exit 1 with a record
    for rows in ("0.0\t1.0\n", ""):
        short = _write(tmp_path, "time_us\tcoherence\n" + rows, "short.tsv")
        assert cli.main(["fit", str(short)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


@pytest.mark.parametrize("old, new, field", [
    ("t1_ge: [18.0, 8.0]", "t1_ge: [.nan, 8.0]", "noise.t1_ge"),
    ("snapshots: 17", "snapshots: 17\n  skip_initial_us: .nan", "scenario.skip_initial_us"),
    ("t_phi_ff: 4.4", "t_phi_ff: 4.4\n  kappa: [.nan, 0.48]", "noise.kappa"),
    ("alpha_1: -116.4", "alpha_1: .nan", "device.alpha_1"),
    ("tmax_us: 4.0", "tmax_us: .inf", "scenario.tmax_us"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, old, new, field):
    """A NaN, or an infinity outside the noise timescales, is a config error
    naming the field (exit 2) before anything runs."""
    path = _write(tmp_path, FAST_SCENARIO.replace(old, new))
    outdir = tmp_path / "out"
    assert cli.main(["run", str(path), "--outdir", str(outdir)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and err["message"].startswith(field + ":")
    assert not outdir.exists()


def test_infinite_noise_timescales_stay_legal(tmp_path):
    """An infinite timescale switches its channel off, as the default does."""
    base = config.load_config(_write(tmp_path, FAST_SCENARIO, "base.yaml"))
    cfg = config.load_config(_write(tmp_path, FAST_SCENARIO.replace(
        "t_phi_ff: 4.4", "t_phi_ff: 4.4\n  t1_up: [.inf, .inf]")))
    assert cfg.noise.t1_up == (math.inf, math.inf)
    assert len(model.collapse_operators(cfg.noise)) == len(model.collapse_operators(base.noise))


def test_main_sweep_past_floquet_truncation(tmp_path):
    """The aqec red_pair_center offset +0.1 MHz drives one 0.9 MHz tone whose
    Floquet stack exceeds DENSE_BLOCK_MAX at every order tried: the sweep
    runs it on RK45 and exits 0."""
    text = config.preset_path("aqec").read_text().split("scenario:")[0] + """
sweep:
  axis: red_pair_center
  start: 0.1
  stop: 0.1
  num: 1
  tmax_us: 3.0
  snapshots: 61
  initial: gf00
"""
    cfg_path = _write(tmp_path, text)
    assert cli.main(["sweep", str(cfg_path), "--outdir", str(tmp_path)]) == 0
    n_q1 = np.loadtxt(tmp_path / "sweep_red_pair_center_n_q1.tsv", skiprows=1, ndmin=2)
    assert n_q1.shape == (1, 62) and np.all(np.isfinite(n_q1))


def test_main_sweep_verb(tmp_path, capsys):
    text = FAST_SCENARIO.split("scenario:")[0] + """
sweep:
  axis: qr_frequency
  start: -1.0
  stop: 1.0
  num: 3
  tmax_us: 3.0
  snapshots: 61
  initial: E01
"""
    text = text.replace("drive: {}", "drive:\n  omega_qr1: 1.0")
    cfg_path = _write(tmp_path, text)
    assert cli.main(["sweep", str(cfg_path), "--outdir", str(tmp_path)]) == 0
    entries = cli._read_summary(tmp_path / "sweep_qr_frequency_summary.txt")
    assert float(entries["center_offset_mhz"]) == pytest.approx(0.0)
    # a worker pool writes the same bytes as the serial path
    pooled = tmp_path / "pooled"
    assert cli.main(["sweep", str(cfg_path), "--outdir", str(pooled), "--workers", "2"]) == 0
    for suffix in ("n_q1.tsv", "n_q2.tsv", "fringe.tsv", "summary.txt"):
        name = f"sweep_qr_frequency_{suffix}"
        assert (pooled / name).read_bytes() == (tmp_path / name).read_bytes()
    # no worker at all is an input error, not a serial run
    assert cli.main(["sweep", str(cfg_path), "--outdir", str(tmp_path / "none"),
                     "--workers", "0"]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
