"""Experiment harness: configs, perturbations, drivers, report, CLI."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gkdv import (ConfigValidationError, Field, Grid, ParameterError,
                  read_snapshots)
from gkdv import solver as solver_mod
from gkdv.harness import runs as runs_mod
from gkdv.harness.cli import build_parser, main
from gkdv.harness.config import (ExperimentConfig, GridConfig,
                                 PerturbationConfig, SpongeSettings,
                                 config_from_dict, config_to_dict, load_config,
                                 preset, preset_names, save_config)
from gkdv.harness.perturbations import (band_noise, make_perturbation,
                                        smooth_bump)
from gkdv.harness.runs import execute, write_series_csv
from gkdv.profiles import SolitonState
from gkdv.solver import h1_norm


def _cfg(**kw):
    base = dict(family="simulate", speeds=(1.0,), positions=(0.0,))
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation

def test_config_accepts_minimal():
    cfg = _cfg()
    assert cfg.family == "simulate"
    assert cfg.speeds == (1.0,)


@pytest.mark.parametrize("kw", [
    dict(family="explode"),
    dict(p=5),
    dict(speeds=()),
    dict(speeds=(-1.0,)),
    dict(speeds=(2.0, 1.0), positions=(0.0, 10.0)),
    dict(speeds=(1.0, 2.0)),                                  # positions mismatch
    dict(dt=1.0),                                             # above the dt gate
    dict(t_final=10.00005),                                   # off the dt lattice
    dict(cadence=0.50005),
    dict(perturbation=PerturbationConfig(kind="wiggle")),
    dict(perturbation=PerturbationConfig(kind="bump", amplitude=0.0)),
    dict(perturbation=PerturbationConfig(kind="bump", amplitude=1.0, width=-1.0)),
    dict(perturbation=PerturbationConfig(kind="bump", amplitude=1.0, location="mid")),
    dict(perturbation=PerturbationConfig(kind="bump", amplitude=1.0, location="gap:1")),
    dict(perturbation=PerturbationConfig(kind="noise", amplitude=1.0, kmin=2.0, kmax=1.0)),
    dict(sponge=SpongeSettings(enabled=True, width_fraction=0.7)),
    dict(y0=-3.0),
    dict(ref_index=4),
    dict(grid=GridConfig(n=0)),
])
def test_config_rejects_bad_common_fields(kw):
    with pytest.raises(ConfigValidationError):
        _cfg(**kw)


def _two(family, **kw):
    base = dict(family=family, speeds=(1.0, 2.0), positions=(-30.0, 30.0),
                perturbation=PerturbationConfig(kind="bump", amplitude=1e-2,
                                                location="gap:1"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_family_rules():
    with pytest.raises(ConfigValidationError):
        _two("stability", speeds=(1.0,), positions=(0.0,))
    with pytest.raises(ConfigValidationError):
        _two("stability", positions=(30.0, -30.0), speeds=(1.0, 2.0))
    with pytest.raises(ConfigValidationError):
        _two("stability", alphas=(0.0,))
    with pytest.raises(ConfigValidationError):
        _two("stability", alphas=(0.01, 0.003))
    with pytest.raises(ConfigValidationError):
        _two("stability", perturbation=PerturbationConfig(kind="none"))
    with pytest.raises(ConfigValidationError):
        _two("monotonicity", speeds=(1.0, 2.0, 3.0), positions=(-30.0, 0.0, 30.0),
             sweep_separations=(60.0, 120.0))
    with pytest.raises(ConfigValidationError):
        _two("monotonicity", sweep_separations=(60.0,))
    with pytest.raises(ConfigValidationError):
        _two("monotonicity", sweep_separations=(60.0, 120.0), identity_cadence=0.00015)
    with pytest.raises(ConfigValidationError):
        _two("quadratic-control", alphas=(1e-3, 1e-2, 1e-1))   # fewer than 4
    with pytest.raises(ConfigValidationError):
        _two("quadratic-control", alphas=(1e-2, 2e-2, 3e-2, 4e-2))  # narrow span
    with pytest.raises(ConfigValidationError):
        # interaction tail at separation 20 dwarfs the smallest amplitude^2
        _two("quadratic-control", positions=(-10.0, 10.0),
             alphas=(1e-3, 3e-3, 1e-2, 3e-2, 1e-1))
    with pytest.raises(ConfigValidationError):
        _two("asymptotic", y0=25.0, ref_index=1)               # sponge disabled
    with pytest.raises(ConfigValidationError):
        _two("asymptotic", sponge=SpongeSettings(enabled=True))  # y0 missing
    with pytest.raises(ConfigValidationError):
        _two("nsoliton", p=3, speeds=(1.0, 4.0))
    with pytest.raises(ConfigValidationError):
        ExperimentConfig(family="nsoliton", speeds=(1.0,), positions=(0.0,))
    with pytest.raises(ConfigValidationError):
        ExperimentConfig(family="spectrum", speeds=(1.0, 2.0),
                         positions=(30.0, -30.0))


def test_config_rejects_cadence_off_the_output_lattice():
    # the nearest cadence multiple, 0.9, lies below t_final = 1.0
    with pytest.raises(ConfigValidationError, match="multiple of cadence"):
        preset("single-soliton").with_updates(t_final=1.0, cadence=0.3)
    # the identity run would only fail after the whole separation sweep
    with pytest.raises(ConfigValidationError, match="identity_t"):
        preset("mass-monotonicity").with_updates(identity_cadence=0.007)


def test_with_updates_revalidates():
    cfg = _cfg()
    with pytest.raises(ConfigValidationError):
        cfg.with_updates(p=7)


# ---------------------------------------------------------------------------
# JSON round trip and presets

def test_preset_names_cover_families():
    names = preset_names()
    assert len(names) == 8
    assert "single-soliton" in names and "stability-bound" in names
    with pytest.raises(ConfigValidationError):
        preset("does-not-exist")


@pytest.mark.parametrize("name", preset_names())
def test_preset_roundtrip(name, tmp_path):
    cfg = preset(name)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("name", preset_names())
def test_config_files_match_presets(name):
    # configs/*.json and the preset registry describe the same experiments
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    assert load_config(path) == preset(name)


def test_config_from_dict_errors(tmp_path):
    with pytest.raises(ConfigValidationError):
        config_from_dict({"family": "simulate", "bogus": 1})
    with pytest.raises(ConfigValidationError):
        config_from_dict({"speeds": [1.0]})
    with pytest.raises(ConfigValidationError):
        config_from_dict({"family": "simulate", "grid": {"n": 512, "bogus": 1}})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigValidationError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigValidationError):
        load_config(arr)


def test_config_to_dict_is_json_ready():
    d = config_to_dict(preset("drift-scaling"))
    json.dumps(d)
    assert isinstance(d["speeds"], list)
    assert d["family"] == "quadratic-control"


# ---------------------------------------------------------------------------
# perturbations

def test_smooth_bump_support():
    grid = Grid(1024, 128.0, -64.0)
    b = smooth_bump(grid, 10.0, 5.0)
    inside = np.abs(grid.x - 10.0) < 5.0
    assert np.all(b.values[~inside] == 0.0)
    assert np.all(b.values[inside] > 0.0)
    assert abs(b.values[np.argmin(np.abs(grid.x - 10.0))] - 1.0) < 1e-3
    with pytest.raises(ParameterError):
        smooth_bump(grid, 0.0, -1.0)


def test_band_noise_spectrum_and_determinism():
    grid = Grid(1024, 128.0, -64.0)
    f = band_noise(grid, seed=3, kmin=0.2, kmax=1.0)
    g = band_noise(grid, seed=3, kmin=0.2, kmax=1.0)
    other = band_noise(grid, seed=4, kmin=0.2, kmax=1.0)
    assert np.array_equal(f.values, g.values)
    assert not np.array_equal(f.values, other.values)
    k = grid.wavenumbers
    spec = np.abs(np.fft.rfft(f.values))
    outside = (k < 0.2) | (k > 1.0)
    assert np.max(spec[outside]) < 1e-10 * np.max(spec)
    with pytest.raises(ParameterError):
        band_noise(grid, 0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        band_noise(grid, 0, 0.001, 0.002)      # band misses every grid mode


def test_make_perturbation_h1_normalized():
    grid = Grid(1024, 128.0, -64.0)
    state = SolitonState((1.0, 2.0), (-20.0, 30.0))
    for kind, extra in (("bump", {}), ("noise", {"kmin": 0.2, "kmax": 1.0})):
        cfg = PerturbationConfig(kind=kind, amplitude=3e-2, location="gap:1", **extra)
        f = make_perturbation(cfg, grid, state)
        assert abs(h1_norm(f) - 3e-2) < 1e-14
    zero = make_perturbation(PerturbationConfig(kind="none"), grid, state)
    assert np.array_equal(zero.values, np.zeros(grid.n))


def test_make_perturbation_centering():
    grid = Grid(1024, 128.0, -64.0)
    state = SolitonState((1.0, 2.0), (-20.0, 30.0))
    cfg = PerturbationConfig(kind="bump", amplitude=1e-2, width=4.0, location="gap:1")
    f = make_perturbation(cfg, grid, state)
    assert abs(grid.x[int(np.argmax(f.values))] - 5.0) < grid.spacing
    at = make_perturbation(PerturbationConfig(kind="bump", amplitude=1e-2,
                                              width=4.0, location=-40.0), grid, state)
    assert abs(grid.x[int(np.argmax(at.values))] - (-40.0)) < grid.spacing
    with pytest.raises(ParameterError):
        make_perturbation(PerturbationConfig(kind="bump", amplitude=1e-2,
                                             location="gap:3"), grid, state)


# ---------------------------------------------------------------------------
# series writer

def test_series_csv_roundtrip(tmp_path):
    path = tmp_path / "series.csv"
    t = np.linspace(0.0, 1.0, 7)
    v = np.exp(-t) * np.pi
    write_series_csv(path, [("t", t), ("v", v)])
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert path.read_text().splitlines()[0] == "t,v"
    assert np.array_equal(data[:, 0], t)       # repr round-trips exactly
    assert np.array_equal(data[:, 1], v)
    with pytest.raises(ParameterError):
        write_series_csv(path, [("t", t), ("v", v[:-1])])


# ---------------------------------------------------------------------------
# drivers

@pytest.fixture()
def small_sim_cfg():
    return ExperimentConfig(
        family="simulate", label="small-sim", speeds=(1.0,), positions=(-20.0,),
        grid=GridConfig(1024, 128.0, -64.0), dt=1e-3, t_final=2.0, cadence=0.5,
        write_snapshots=True)


def test_execute_simulate_artifacts(tmp_path, small_sim_cfg):
    report = execute(small_sim_cfg, tmp_path)
    assert report.passed
    assert {c.name for c in report.checks} == {"mass-drift", "energy-drift",
                                               "propagation-error"}
    assert (tmp_path / "series.csv").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["passed"] is True
    assert payload["family"] == "simulate"
    assert payload["config"]["label"] == "small-sim"
    snaps = read_snapshots(tmp_path / "snapshots.bin")
    assert snaps.times.size == 5
    assert snaps.grid == Grid(1024, 128.0, -64.0)


def test_execute_deterministic(tmp_path, small_sim_cfg):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    execute(small_sim_cfg, a)
    execute(small_sim_cfg, b)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()


def test_execute_decompose_preset(tmp_path):
    report = execute(preset("newton-recovery"), tmp_path)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {"speed-recovery", "ortho-residual", "jacobian-diagonal",
                     "guess-free-agreement"}
    header = (tmp_path / "series.csv").read_text().splitlines()[0]
    assert header.startswith("t,c1,c2,c3,x1,x2,x3,eps_l2,eps_h1")


def test_execute_spectrum_small(tmp_path):
    cfg = ExperimentConfig(family="spectrum", speeds=(1.0, 2.0),
                           positions=(-20.0, 20.0),
                           grid=GridConfig(512, 128.0, -64.0))
    report = execute(cfg, tmp_path)
    assert report.passed
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["lambda_min"] > 0.0
    assert cert["constrained"] is True
    assert cert["constraint_residuals"] == report.extras["constraint_residuals"]
    assert cert["eigen_residual"] == report.extras["eigen_residual_constrained"]
    assert cert["matvecs"] == report.extras["matvecs_constrained"]
    assert report.extras["lambda_unconstrained"] < 0.0
    assert [c.name for c in report.checks] == ["constrained-positive",
                                               "unconstrained-negative"]


def test_tracked_run_computes_conserved_once_per_snapshot(tmp_path, monkeypatch):
    real = solver_mod.conserved
    calls = []

    def counting(u, params):
        calls.append(u)
        return real(u, params)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gkdv" and getattr(mod, "conserved", None) is real:
            monkeypatch.setattr(mod, "conserved", counting)
    cfg = ExperimentConfig(
        family="simulate", label="tracked", speeds=(1.0, 2.0), positions=(-20.0, 20.0),
        grid=GridConfig(1024, 128.0, -64.0), dt=1e-3, t_final=0.1, cadence=0.02,
        perturbation=PerturbationConfig(kind="bump", amplitude=1e-3, location="gap:1"))
    execute(cfg, tmp_path)
    header = (tmp_path / "series.csv").read_text().splitlines()[0].split(",")
    table = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1)
    assert len(calls) == table.shape[0] == 6
    col = {name: table[:, i] for i, name in enumerate(header)}
    assert header.index("mass_drift") == header.index("newton_iterations") + 1
    assert header.index("energy_drift") == header.index("mass_drift") + 1
    for q in ("mass", "energy"):
        drift = np.abs(col[q] - col[q][0]) / abs(col[q][0])
        assert np.array_equal(col[f"{q}_drift"], drift)


@pytest.fixture()
def small_stability_cfg():
    return ExperimentConfig(
        family="stability", label="small-stability", speeds=(1.0, 2.0),
        positions=(-30.0, 10.0), grid=GridConfig(1024, 128.0, -64.0),
        dt=1e-3, t_final=2.0, cadence=0.5,
        perturbation=PerturbationConfig(kind="bump", amplitude=1e-2, width=5.0,
                                        location="gap:1"),
        alphas=(0.0, 3e-3, 1e-2))


def test_stability_sweep_clean(tmp_path, small_stability_cfg):
    report = execute(small_stability_cfg, tmp_path)
    assert report.passed
    assert report.extras["failures"] == []
    assert report.extras["alphas"] == [0.0, 3e-3, 1e-2]
    sup = report.extras["sup_dist_frozen"]
    assert sup[0] < 1e-7                        # unperturbed limb: solver noise
    assert abs(sup[2] / 1e-2 - 1.0) < 0.1       # distance tracks amplitude
    header = (tmp_path / "series.csv").read_text().splitlines()[0]
    assert header.startswith("alpha,t,")


def test_stability_sweep_isolates_failed_limb(tmp_path, monkeypatch,
                                              small_stability_cfg):
    # a limb that blows up must be recorded and skipped, not abort the sweep:
    # the alpha = 3e-3 limb starts 300 times too large and really blows up
    real_initial_field = runs_mod._initial_field

    def oversized(cfg, *args):
        u0 = real_initial_field(cfg, *args)
        if cfg.perturbation.amplitude == 3e-3:
            return Field(u0.grid, 300.0 * u0.values)
        return u0

    monkeypatch.setattr(runs_mod, "_initial_field", oversized)
    with np.errstate(over="ignore", invalid="ignore"):
        report = execute(small_stability_cfg, tmp_path)
    assert not report.passed
    assert report.extras["alphas"] == [0.0, 1e-2]
    assert len(report.extras["failures"]) == 1
    rec = report.extras["failures"][0]
    assert rec["alpha"] == 3e-3
    assert rec["error"].startswith("BlowupError")
    assert 0.0 <= rec["t_last"] < small_stability_cfg.t_final
    by_name = {c.name: c for c in report.checks}
    assert by_name["baseline-distance"].passed
    assert by_name["distance-over-amplitude"].passed
    mono = by_name["distance-monotone-in-amplitude"]
    assert not mono.passed
    assert "failed limbs" in mono.detail
    assert (tmp_path / "series.csv").exists()   # survivors still recorded


# ---------------------------------------------------------------------------
# CLI

def test_cli_pass_and_output(tmp_path, capsys):
    code = main(["decompose", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASSED" in out
    assert "[PASS] ortho-residual" in out
    assert (tmp_path / "report.json").exists()


def test_cli_check_failure_exit_code(tmp_path):
    cfg = preset("newton-recovery").with_updates(
        thresholds={"residual": 1e-30})
    path = tmp_path / "impossible.json"
    save_config(cfg, path)
    code = main(["decompose", "--config", str(path), "--out",
                 str(tmp_path / "out")])
    assert code == 1


def test_cli_config_errors(tmp_path, capsys):
    assert main(["decompose", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["decompose", "--config", str(bad), "--out", str(tmp_path)]) == 2
    other = tmp_path / "spectrum.json"
    save_config(preset("positivity"), other)
    assert main(["decompose", "--config", str(other), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "does not match" in err


def test_cli_override_validation_failure(tmp_path):
    # dt pushed over the stability gate is rejected before any run
    assert main(["simulate", "--dt", "1.0", "--out", str(tmp_path)]) == 2


def test_cli_parser_and_overrides():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["unknown-family"])
    args = parser.parse_args(["spectrum", "--speeds", "1,2,3",
                              "--positions=-40,0,40", "--grid", "512"])
    assert args.speeds == (1.0, 2.0, 3.0)
    assert args.positions == (-40.0, 0.0, 40.0)
    assert args.grid == 512
