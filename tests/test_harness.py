"""Experiment harness: configs, perturbations, drivers, report, CLI."""

import inspect
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from gkdv import (BlowupError, ConfigValidationError, DecompositionFailureError,
                  Field, GkdvError, Grid, ModelParams, ParameterError, StepSizeError, Stepper,
                  dt_stability_bound, evolve, soliton_sum)
from gkdv import solver as solver_mod
from gkdv.harness import runs as runs_mod
from gkdv.harness.cli import _FAMILY_PRESET, _FLAGS, _apply_overrides, build_parser, main
from gkdv.harness.config import (_DEFAULT_THRESHOLDS, CHECKS, FAMILIES,
                                 ExperimentConfig, GridConfig,
                                 PerturbationConfig, SpongeSettings, TrackSettings,
                                 config_from_dict, config_to_dict, load_config,
                                 preset, preset_names, save_config)
from gkdv.harness.perturbations import band_noise, make_perturbation
from gkdv.harness.runs import execute, write_series_csv
from gkdv.profiles import SolitonState
from gkdv.solver import bump, h1_norm


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
    dict(p=2.0),                                              # a float, not an integer
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


def test_config_rejects_sweep_fields_the_family_ignores():
    # stability reads alphas, not sweep_separations
    with pytest.raises(ConfigValidationError, match="sweep_separations"):
        preset("stability-bound").with_updates(sweep_separations=(10.0, 20.0))
    with pytest.raises(ConfigValidationError, match="alphas"):
        preset("mass-monotonicity").with_updates(alphas=(1e-3, 1e-2))
    with pytest.raises(ConfigValidationError, match="alphas"):
        _cfg(alphas=(1e-3, 1e-2))
    # y0 and ref_index feed the edge probes of simulate, monotonicity and
    # asymptotic only, and ref_index only together with y0
    for name in ("stability-bound", "drift-scaling", "newton-recovery", "positivity",
                 "tau-collision"):
        with pytest.raises(ConfigValidationError, match="y0 is read only by"):
            preset(name).with_updates(y0=25.0, ref_index=0)
    with pytest.raises(ConfigValidationError, match="ref_index"):
        _cfg(ref_index=0)
    # only simulate writes snapshots.npz
    with pytest.raises(ConfigValidationError, match="write_snapshots is read only by simulate"):
        preset("stability-bound").with_updates(write_snapshots=True)
    # the sweep families and asymptotic always track, and an untracked
    # simulate run writes no edge probes
    untracked = TrackSettings(enabled=False)
    for name in ("stability-bound", "drift-scaling", "mass-monotonicity", "radiation-escape"):
        with pytest.raises(ConfigValidationError, match="tracking must be enabled"):
            preset(name).with_updates(track=untracked)
    for probes in ({"y0": 25.0}, {"y0": 25.0, "ref_index": 0}):
        with pytest.raises(ConfigValidationError, match="y0 is read only by a tracked"):
            preset("single-soliton").with_updates(track=untracked, **probes)
    preset("single-soliton").with_updates(track=untracked)
    for name in preset_names():
        preset(name)


def test_config_rejects_cadence_off_the_output_lattice():
    # the nearest cadence multiple, 0.9, lies below t_final = 1.0
    with pytest.raises(ConfigValidationError, match="multiple of cadence"):
        preset("single-soliton").with_updates(t_final=1.0, cadence=0.3)
    # the identity run would only fail after the whole separation sweep
    with pytest.raises(ConfigValidationError, match="identity_t"):
        preset("mass-monotonicity").with_updates(identity_cadence=0.007)


def test_config_rejects_a_seam_tail_before_any_work():
    # a c = 1 soliton keeps 8.2e-9 of its amplitude at L/2 = 20; this used
    # to validate and then fail in soliton_sum inside execute()
    small = GridConfig(512, 40.0, -20.0)
    with pytest.raises(ConfigValidationError, match="periodic seam"):
        preset("single-soliton").with_updates(grid=small, t_final=1.0)
    preset("single-soliton").with_updates(grid=GridConfig(512, 50.0, -25.0), t_final=1.0)
    # the spectrum builds the same minimal-image rows: at L = 32 a c = 0.04
    # soliton keeps 1.5e-1 at the seam, and its constrained lambda read -0.0291
    with pytest.raises(ConfigValidationError, match="periodic seam"):
        ExperimentConfig(family="spectrum", p=2, speeds=(0.04,), positions=(0.0,),
                         grid=GridConfig(256, 32.0, -16.0))


# configs that used to validate and then fail inside execute(): the first
# two in SolitonState, the others in make_perturbation, and the stability
# sweep only after evolving its alpha = 0 limb, as a failed experiment
_NOISE_WITHOUT_MODES = {"kind": "noise", "amplitude": 1e-3, "kmin": 0.0, "kmax": 0.01}
_SMALL_GRID = {"n": 512, "length": 64.0, "x0": -32.0}


@pytest.mark.parametrize("data, field", [
    ({"family": "simulate", "positions": [float("nan")]}, "speeds, positions"),
    ({"family": "simulate", "speeds": [float("inf")]}, "speeds, positions"),
    ({"family": "simulate", "speeds": [1.0, 2.0], "positions": [-15.0, 15.0],
      "grid": _SMALL_GRID, "perturbation": _NOISE_WITHOUT_MODES}, "perturbation"),
    ({"family": "simulate", "grid": {"n": 1024, "length": 128.0, "x0": -64.0},
      "perturbation": {"kind": "bump", "amplitude": 1e-3, "width": 0.01,
                       "location": 0.0625}},          # between two grid points
     "perturbation"),
    ({"family": "stability", "speeds": [1.0, 2.0], "positions": [-15.0, 15.0],
      "grid": _SMALL_GRID, "dt": 1e-3, "t_final": 1.0, "alphas": [0.0, 1e-3, 1e-2],
      "perturbation": _NOISE_WITHOUT_MODES}, "perturbation"),
], ids=["nan-position", "inf-speed", "empty-noise-band", "bump-between-points",
        "stability-empty-noise-band"])
def test_config_rejects_what_execute_would_fail_on(data, field, tmp_path, monkeypatch):
    with pytest.raises(ConfigValidationError, match=f"^{field}: "):
        config_from_dict(data)
    steps = []
    monkeypatch.setattr(solver_mod.Stepper, "step_hat",
                        lambda self, uhat: steps.append(uhat) or uhat)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main([data["family"], "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert steps == []
    assert not (tmp_path / "out" / "report.json").exists()


def test_noise_on_one_soliton_validates_and_runs(tmp_path):
    # the noise builder never reads location, so its default "gap:1" is no
    # reason to reject a single soliton
    cfg = _cfg(grid=GridConfig(1024, 128.0, -64.0), dt=1e-3, t_final=0.5,
               perturbation=PerturbationConfig(kind="noise", amplitude=1e-4,
                                               kmin=0.2, kmax=1.0))
    assert cfg.perturbation.location == "gap:1"
    report = execute(cfg, tmp_path)
    assert report.passed
    assert (tmp_path / "series.csv").exists()


def test_validation_and_stepper_share_one_step_size_gate():
    grid = Grid(1024, 128.0, -64.0)
    bound = dt_stability_bound(grid)

    def config(dt):
        return _cfg(grid=GridConfig(1024, 128.0, -64.0), dt=dt, t_final=256 * dt,
                    cadence=64 * dt)

    config(bound)
    Stepper(grid, bound, ModelParams(2))
    over = bound * (1 + 1e-9)
    with pytest.raises(StepSizeError) as stepper_err:
        Stepper(grid, over, ModelParams(2))
    with pytest.raises(ConfigValidationError) as config_err:
        config(over)
    assert str(config_err.value) == f"dt: {stepper_err.value}"


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


_PRESET_DIR = Path(__file__).resolve().parents[1] / "src" / "gkdv" / "harness" / "presets"


@pytest.mark.parametrize("name", preset_names())
def test_config_files_match_presets(name):
    # each preset file is named after its label and spells out every field,
    # so a changed default in the dataclasses cannot change a preset
    path = _PRESET_DIR / f"{name}.json"
    cfg = preset(name)
    assert cfg.label == name
    assert path.read_text() == json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def test_presets_are_the_shipped_files():
    assert preset_names() == tuple(sorted(p.stem for p in _PRESET_DIR.glob("*.json")))
    for family, name in _FAMILY_PRESET.items():
        assert preset(name).family == family


def test_config_rejects_bad_thresholds():
    # a misspelt key would otherwise fall back silently to the default
    with pytest.raises(ConfigValidationError, match="conservaton"):
        _cfg(thresholds={"conservaton": 1e-9})
    with pytest.raises(ConfigValidationError, match="lambda_min"):
        _cfg(thresholds={"conservation": 1e-9, "lambda_min": 0.0})
    # these would pass the key check and fail only when the checks run
    for bad in (["conservation"], {"conservation": "1e-9"}, {"conservation": True}):
        with pytest.raises(ConfigValidationError, match="must map names to numbers"):
            config_from_dict({"family": "simulate", "thresholds": bad})
    # an infinite threshold passes every <= check, a NaN fails every one
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ConfigValidationError, match="must be finite"):
            config_from_dict({"family": "simulate", "thresholds": {"conservation": bad}})
    # an empty range fails its in-range check on every run
    for lo in (3.0, 2.3):
        with pytest.raises(ConfigValidationError, match="speed_slope_lo = .* must be below"):
            preset("drift-scaling").with_updates(thresholds={"speed_slope_lo": lo})
    # run_monotonicity divides by ratio_min, run_asymptotic steps by block_time
    for name, key, value in (("mass-monotonicity", "ratio_min", 0.0),
                             ("radiation-escape", "block_time", 0.0),
                             ("radiation-escape", "block_time", -1.0)):
        with pytest.raises(ConfigValidationError, match=f"{key} must be positive"):
            preset(name).with_updates(thresholds={key: value})
    assert _cfg(thresholds={"conservation": 1e-9}).thresholds == {"conservation": 1e-9}


def test_config_from_dict_errors(tmp_path):
    with pytest.raises(ConfigValidationError):
        config_from_dict({"family": "simulate", "bogus": 1})
    with pytest.raises(ConfigValidationError):
        config_from_dict({"speeds": [1.0]})
    with pytest.raises(ConfigValidationError):
        config_from_dict({"family": "simulate", "grid": {"n": 512, "bogus": 1}})
    with pytest.raises(ConfigValidationError, match="unknown keys in track"):
        config_from_dict({"family": "simulate", "track": {"enabled": True, "tol": None}})
    # a list field holding anything but numbers names the field
    for speeds in (["a"], "1,2", 5):
        with pytest.raises(ConfigValidationError, match="speeds must be a list of numbers"):
            config_from_dict({"family": "simulate", "speeds": speeds})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigValidationError):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigValidationError):
        load_config(arr)


@pytest.mark.parametrize("key, value", [("grid", [512]), ("sponge", "on"),
                                        ("perturbation", None), ("track", True)])
def test_config_rejects_a_sub_config_that_is_no_object(key, value, tmp_path, capsys):
    # a validation error naming the key, not an AttributeError in a later
    # build, and never a config that validates with track: true
    data = {"family": "simulate", key: value}
    with pytest.raises(ConfigValidationError, match=f"^{key} must be an object with keys"):
        config_from_dict(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("data, name", [({"sponge": {"enabled": "false"}}, "sponge.enabled"),
                                        ({"track": {"enabled": "false"}}, "track.enabled"),
                                        ({"write_snapshots": "false"}, "write_snapshots")])
def test_config_rejects_a_flag_that_is_no_bool(data, name):
    # the string is truthy: the run would switch the layer on and drop the
    # checks that need it off, without notice
    with pytest.raises(ConfigValidationError, match=f"^{name} must be true or false, got 'false'"):
        config_from_dict({"family": "simulate", **data})


def test_config_to_dict_is_json_ready():
    d = config_to_dict(preset("drift-scaling"))
    json.dumps(d)
    assert isinstance(d["speeds"], list)
    assert d["family"] == "quadratic-control"


# ---------------------------------------------------------------------------
# perturbations

def test_smooth_bump_support():
    grid = Grid(1024, 128.0, -64.0)
    b = bump(grid, 10.0, 5.0)
    inside = np.abs(grid.x - 10.0) < 5.0
    assert np.all(b[~inside] == 0.0)
    assert np.all(b[inside] > 0.0)
    assert abs(b[np.argmin(np.abs(grid.x - 10.0))] - 1.0) < 1e-3
    cfg = PerturbationConfig(kind="bump", amplitude=1e-2, width=-1.0, location=0.0)
    with pytest.raises(ParameterError, match="bump width must be positive"):
        make_perturbation(cfg, grid, SolitonState((1.0,), (0.0,)))


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


def test_make_perturbation_owns_the_perturbation_rules():
    # config validation runs these; a malformed location used to escape as an
    # IndexError, and the kind and amplitude rules lived only in validation
    grid = Grid(1024, 128.0, -64.0)
    state = SolitonState((1.0, 2.0), (-20.0, 30.0))
    for kw, match in ((dict(kind="wiggle", amplitude=1e-2), "kind must be one of"),
                      (dict(kind="bump", amplitude=0.0), "amplitude must be positive"),
                      (dict(kind="noise", amplitude=-1e-2), "amplitude must be positive"),
                      (dict(kind="bump", amplitude=1e-2, location="mid"), "gap:<k>"),
                      (dict(kind="bump", amplitude=1e-2, location="gap:x"), "gap:<k>")):
        with pytest.raises(ParameterError, match=match):
            make_perturbation(PerturbationConfig(**kw), grid, state)


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
    assert _files(tmp_path) == ["report.json", "series.csv", "snapshots.npz"]
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["passed"] is True
    assert payload["family"] == "simulate"
    assert payload["config"]["label"] == "small-sim"
    assert payload["extras"]["tracking"] == {"t_failed": None, "error": None}
    with np.load(tmp_path / "snapshots.npz") as snaps:
        assert snaps["t"].size == 5
        assert Grid(int(snaps["n"]), float(snaps["length"]),
                    float(snaps["x0"])) == Grid(1024, 128.0, -64.0)


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
    assert _files(tmp_path) == ["report.json", "series.csv"]
    header = (tmp_path / "series.csv").read_text().splitlines()[0]
    assert header.startswith("t,c1,c2,c3,x1,x2,x3,eps_l2,eps_h1")


def test_execute_spectrum_small(tmp_path):
    cfg = ExperimentConfig(family="spectrum", speeds=(1.0, 2.0),
                           positions=(-20.0, 20.0),
                           grid=GridConfig(512, 128.0, -64.0))
    report = execute(cfg, tmp_path)
    assert report.passed
    assert _files(tmp_path) == ["certificate.json", "report.json", "series.csv"]
    cert = _strict_json(tmp_path / "certificate.json")
    assert cert["lambda_min"] == report.extras["lambda_constrained"] > 0.0
    assert cert["constrained"] is True
    assert cert["constraint_residuals"] == report.extras["constraint_residuals"]
    assert cert["eigen_residual"] == report.extras["eigen_residual_constrained"]
    assert cert["matvecs"] == report.extras["matvecs_constrained"]
    assert report.extras["lambda_unconstrained"] < 0.0
    assert [c.name for c in report.checks] == ["constrained-positive",
                                               "unconstrained-negative"]


def _files(outdir):
    return sorted(path.name for path in Path(outdir).iterdir())


def test_drivers_only_measure():
    # execute() writes every artifact; no driver is handed a place to write
    for driver in (*runs_mod._DISPATCH.values(), runs_mod._sweep):
        assert "outdir" not in inspect.signature(driver).parameters


def test_a_run_that_raises_writes_nothing(tmp_path, monkeypatch):
    # the sweep evolves its limbs as one stack; the single-field identity run
    # that follows blows up, after the sweep's series is complete
    real = runs_mod.evolve

    def identity_blows_up(u0, *args, **kwargs):
        if isinstance(u0, Field):
            raise BlowupError("injected in the identity run", t_last=0.0)
        return real(u0, *args, **kwargs)

    monkeypatch.setattr(runs_mod, "evolve", identity_blows_up)
    cfg = preset("mass-monotonicity").with_updates(
        grid=GridConfig(2048, 512.0, -256.0), positions=(-20.0, 20.0),
        sweep_separations=(40.0, 60.0), dt=1e-3, t_final=0.5, cadence=0.25,
        identity_t=0.3, identity_cadence=0.003)
    with pytest.raises(BlowupError, match="identity run"):
        execute(cfg, tmp_path)
    assert _files(tmp_path) == []


def test_tracked_run_computes_conserved_once_per_snapshot(tmp_path, monkeypatch):
    real = solver_mod.conserved
    calls = []

    def counting(u, params):
        calls.append(u)
        return real(u, params)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "gkdv" and getattr(mod, "conserved", None) is real:
            monkeypatch.setattr(mod, "conserved", counting)
    # FFT calls, and their count at the start and end of every step and at
    # the end of the evolution; the gap after a step is its snapshot's work
    ffts, marks = [], []

    def counted(fn):
        def call(*args, **kwargs):
            ffts.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    real_step, real_evolve = solver_mod.Stepper.step_hat, runs_mod.evolve

    def stepping(self, uhat):
        marks.append(len(ffts))
        out = real_step(self, uhat)
        marks.append(len(ffts))
        return out

    def evolving(*args, **kwargs):
        out = real_evolve(*args, **kwargs)
        marks.append(len(ffts))
        return out

    monkeypatch.setattr(solver_mod.Stepper, "step_hat", stepping)
    monkeypatch.setattr(runs_mod, "evolve", evolving)
    cfg = ExperimentConfig(
        family="simulate", label="tracked", speeds=(1.0, 2.0, 3.0),
        positions=(-40.0, 0.0, 40.0), grid=GridConfig(2048, 256.0, -128.0),
        dt=1e-3, t_final=0.1, cadence=0.02, y0=25.0, ref_index=1,
        perturbation=PerturbationConfig(kind="bump", amplitude=1e-3, location="gap:1"))
    execute(cfg, tmp_path)
    header = (tmp_path / "series.csv").read_text().splitlines()[0].split(",")
    table = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=1)
    assert len(calls) == table.shape[0] == 6
    col = {name: table[:, i] for i, name in enumerate(header)}
    assert np.all(np.isfinite(col["S1_3"])) and np.all(np.isfinite(col["eps_h1_ahead"]))
    assert header.index("mass_drift") == header.index("newton_iterations") + 1
    assert header.index("energy_drift") == header.index("mass_drift") + 1
    for q in ("mass", "energy"):
        drift = np.abs(col[q] - col[q][0]) / abs(col[q][0])
        assert np.array_equal(col[f"{q}_drift"], drift)
    # a snapshot after t = 0 makes 7 FFT calls: one irfft in evolve and one
    # derivative pair each for u, eps and the distance to the frozen speeds
    gaps = [b - a for a, b in zip(marks[1::2], marks[2::2])]
    assert gaps == [7 if i % 20 == 0 else 0 for i in range(1, 101)]


def test_tracking_failure_reaches_the_report(tmp_path, monkeypatch, small_sim_cfg):
    real = runs_mod.decompose
    calls = []

    def failing_third(u, guess, params, **kwargs):
        calls.append(guess)
        if len(calls) == 3:
            raise DecompositionFailureError("injected at the third snapshot")
        return real(u, guess, params, **kwargs)

    monkeypatch.setattr(runs_mod, "decompose", failing_third)
    execute(small_sim_cfg.with_updates(write_snapshots=False), tmp_path)
    tracking = json.loads((tmp_path / "report.json").read_text())["extras"]["tracking"]
    assert tracking == {"t_failed": 1.0,
                        "error": "DecompositionFailureError: injected at the third snapshot"}
    assert len(calls) == 3                      # no solve after the failure


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
    assert _files(tmp_path) == ["report.json", "series.csv"]
    header = (tmp_path / "series.csv").read_text().splitlines()[0]
    assert header.startswith("alpha,t,")


def test_stability_sweep_isolates_failed_limb(tmp_path, monkeypatch,
                                              small_stability_cfg):
    # a limb that blows up must be recorded and skipped, not abort the sweep:
    # the alpha = 3e-3 limb starts 300 times too large and really blows up
    real_initial_field = runs_mod._initial_field

    def oversized(perturbation, *args):
        u0 = real_initial_field(perturbation, *args)
        if perturbation.amplitude == 3e-3:
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


def test_sweep_reports_tracker_failures(tmp_path, monkeypatch, small_stability_cfg):
    # the limbs are decomposed in turn at each snapshot, so the tenth solve is
    # the alpha = 0 limb's at t = 1.5
    real = runs_mod.decompose
    calls = []

    def failing_tenth(u, guess, params, **kwargs):
        calls.append(guess)
        if len(calls) == 10:
            raise DecompositionFailureError("injected at the tenth solve")
        return real(u, guess, params, **kwargs)

    monkeypatch.setattr(runs_mod, "decompose", failing_tenth)
    report = execute(small_stability_cfg, tmp_path)
    text = (tmp_path / "report.json").read_text()
    assert "DecompositionFailureError: injected at the tenth solve" in text
    extras = json.loads(text)["extras"]
    failed = {"alpha": 0.0, "t_failed": 1.5,
              "error": "DecompositionFailureError: injected at the tenth solve"}
    assert extras["tracking"] == [
        failed,
        {"alpha": 3e-3, "t_failed": None, "error": None},
        {"alpha": 1e-2, "t_failed": None, "error": None}]
    # the limb that lost its last snapshots is not measured, so its checks fail
    assert extras["failures"] == [failed]
    assert extras["alphas"] == [3e-3, 1e-2]
    assert not report.passed
    cm = {c.name: c for c in report.checks}
    assert not cm["baseline-distance"].passed
    assert cm["baseline-distance"].detail == "unperturbed limb failed"


def test_monotonicity_checks_read_the_nearest_configured_separation(tmp_path, monkeypatch):
    # unbroken, this sweep fails max-weighted-mass-increase at separation 40
    # (2.8e-3 against 1e-3); the fourth solve, the 40 limb's at t = 0.25,
    # fails, and its checks must not pass on separation 60's 5.9e-5 instead
    cfg = preset("mass-monotonicity").with_updates(
        grid=GridConfig(2048, 512.0, -256.0), positions=(-20.0, 20.0),
        sweep_separations=(40.0, 60.0, 80.0), dt=1e-3, t_final=2.0, cadence=0.25,
        identity_t=0.3, identity_cadence=0.003)
    real = runs_mod.decompose
    calls = []

    def failing_fourth(u, guess, params, **kwargs):
        calls.append(guess)
        if len(calls) == 4:
            raise DecompositionFailureError("injected at the fourth solve")
        return real(u, guess, params, **kwargs)

    monkeypatch.setattr(runs_mod, "decompose", failing_fourth)
    report = execute(cfg, tmp_path)
    assert not report.passed
    assert report.extras["separations"] == [60.0, 80.0]
    assert report.extras["failures"] == [
        {"separation": 40.0, "t_failed": 0.25,
         "error": "DecompositionFailureError: injected at the fourth solve"}]
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [
        "max-weighted-mass-increase", "increase-decays-with-separation",
        "increase-bound-constant", "right-probe-almost-nonincreasing",
        "left-probe-almost-nondecreasing"]
    for c in failed:
        assert c.value is None and c.detail == "separation 40 failed"
    assert report.extras["bound_constant"] is None
    # the 3 limbs' solves at t = 0.25 all fail: the same checks fail, and the
    # identity run, whose solves follow, still checks the rate identity
    monkeypatch.undo()
    _failing_solve(monkeypatch, 4, 5, 6)
    report = execute(cfg, tmp_path / "every-separation-failed")
    assert report.extras["separations"] == []
    assert [c.name for c in report.checks] == [c.name for c in failed] + ["rate-identity"]
    for c in report.checks[:-1]:
        assert not c.passed and c.value is None and c.detail == "separation 40 failed"
    assert report.checks[-1].passed
    assert (tmp_path / "every-separation-failed" / "identity.csv").exists()
    # only the farther separations' solves at t = 0.25 fail: the near checks
    # are measured, and the decay check, which needs a farther one, fails
    # against the bound derived from the near increase
    monkeypatch.undo()
    _failing_solve(monkeypatch, 5, 6)
    report = execute(cfg, tmp_path / "farther-separations-failed")
    assert report.extras["separations"] == [40.0]
    decay = {c.name: c for c in report.checks}["increase-decays-with-separation"]
    assert not decay.passed and decay.value is None
    assert decay.threshold == max(report.extras["max_increases"][0] / 10.0, 1e-10)


def _strict_json(path):
    """report.json parsed with NaN and Infinity refused."""
    def refuse(token):
        raise ValueError(f"{path} holds the non-JSON constant {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def _failing_solve(monkeypatch, *solves):
    """Make the collector's k-th decompose call, for each k in solves, raise
    DecompositionFailureError."""
    real, calls = runs_mod.decompose, []

    def failing(u, guess, params, **kwargs):
        calls.append(guess)
        if len(calls) in solves:
            raise DecompositionFailureError(f"injected at solve {len(calls)}")
        return real(u, guess, params, **kwargs)

    monkeypatch.setattr(runs_mod, "decompose", failing)


def _series(path):
    header = Path(path).read_text().splitlines()[0].split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, i] for i, name in enumerate(header)}


def test_series_status_says_why_a_snapshot_is_empty(tmp_path, monkeypatch, small_sim_cfg):
    cfg = small_sim_cfg.with_updates(write_snapshots=False)
    execute(cfg, tmp_path / "clean")
    assert list(_series(tmp_path / "clean" / "series.csv")["status"]) == [0, 0, 0, 0, 0]
    # the fast soliton closes on the slow one at rate 1 from a gap of 40, so
    # the predicted gap falls below l_min = 39 from t = 1.5 on
    closing = cfg.with_updates(speeds=(1.0, 2.0), positions=(10.0, -30.0),
                               track=TrackSettings(l_min=39.0))
    execute(closing, tmp_path / "skipped")
    assert list(_series(tmp_path / "skipped" / "series.csv")["status"]) == [0, 0, 0, 1, 1]
    _failing_solve(monkeypatch, 3)
    execute(cfg, tmp_path / "failed")
    series = _series(tmp_path / "failed" / "series.csv")
    assert list(series["status"]) == [0, 0, 2, 2, 2]
    assert np.all(np.isnan(series["c1"][2:]))


def test_tracked_rows_leave_out_skips_and_refuse_gaps():
    # the closing pair above: the gap falls below l_min from t = 1.5 on, and
    # with the fast soliton behind, no tracked snapshot has a weighted mass I
    p2, grid = ModelParams(2), Grid(1024, 128.0, -64.0)
    state = SolitonState((1.0, 2.0), (10.0, -30.0))
    collector = runs_mod.DiagnosticsCollector(p2, state, l_min=39.0)
    evolve(soliton_sum(p2, state, grid), 2.0, p2, 1e-3, cadence=0.5,
           observer=collector, keep_fields=False)
    times, speeds = collector.tracked("c")
    assert list(times) == [0.0, 0.5, 1.0] and speeds.shape == (3, 2)
    assert collector.tracked("c", 1.5)[0].size == 0
    with pytest.raises(runs_mod.TrackingGapError, match="^t=1.5 was skipped: no baseline c$"):
        collector.tracked("c", 1.5, baseline=True)
    with pytest.raises(runs_mod.TrackingGapError, match="^no finite I at the tracked snapshot t=0$"):
        collector.tracked("I")


def test_asymptotic_checks_fail_when_the_tracker_fails(tmp_path, monkeypatch):
    # the radiation-escape preset shortened to 81 snapshots; the 77th solve
    # fails, so every window the checks read ends in failed snapshots
    cfg = preset("radiation-escape").with_updates(
        grid=GridConfig(2048, 512.0, -128.0), t_final=20.0, cadence=0.25, dt=0.0025,
        thresholds={"block_time": 2.5})
    _failing_solve(monkeypatch, 77)
    report = execute(cfg, tmp_path)
    assert not report.passed
    assert report.extras["tracking"]["t_failed"] == 19.0
    for c in report.checks:
        assert not c.passed and c.value is None and c.detail == "tracker failed at t=19"
    assert {"speed-plateau", "ray-mass-nonincreasing"} <= {c.name for c in report.checks}
    # the declared thresholds are reported; the run-derived one was not computed
    assert [c.threshold for c in report.checks] == [1e-4, 0.05, 1.0 / 3.0, None]
    payload = _strict_json(tmp_path / "report.json")
    assert all(c["value"] is None for c in payload["checks"])
    assert list(_series(tmp_path / "series.csv")["status"][75:]) == [0, 2, 2, 2, 2, 2]
    # untouched but with only 2 averaging blocks, the trend test cannot run,
    # and both of its checks fail
    monkeypatch.undo()
    report = execute(cfg.with_updates(thresholds={"block_time": 10.0}), tmp_path / "two-blocks")
    assert [c.name for c in report.checks] == [
        "speed-plateau", "ray-mass-nonincreasing", "ray-mass-final-fraction",
        "remainder-contraction"]
    for c in report.checks[1:3]:
        assert not c.passed and c.value is None
        assert c.detail.startswith("2 averaging blocks, 0 of them empty")


def test_identity_check_fails_when_its_tracker_fails(tmp_path, monkeypatch):
    # the sweep makes 27 solves (3 separations, 9 snapshots); the identity
    # run's 50th solve, at t = 49 * 0.003, fails
    cfg = preset("mass-monotonicity").with_updates(
        grid=GridConfig(2048, 512.0, -256.0), positions=(-20.0, 20.0),
        sweep_separations=(40.0, 60.0, 80.0), dt=1e-3, t_final=2.0, cadence=0.25,
        identity_t=0.3, identity_cadence=0.003)
    _failing_solve(monkeypatch, 77)
    report = execute(cfg, tmp_path)
    assert report.extras["failures"] == []
    identity = {c.name: c for c in report.checks}["rate-identity"]
    assert not identity.passed and identity.value is None
    assert identity.detail == "tracker failed at t=0.147"
    assert not (tmp_path / "identity.csv").exists()
    payload = _strict_json(tmp_path / "report.json")
    assert payload["extras"]["identity_sup_error"] is None


def test_report_writes_non_finite_numbers_as_null(tmp_path):
    report = runs_mod.RunReport("simulate", "nan", False,
                                [runs_mod._check("c", float("nan"), 1.0)],
                                extras={"blocks": [1.0, np.nan], "inf": np.float64(np.inf)})
    runs_mod.write_report(tmp_path / "report.json", report)
    payload = _strict_json(tmp_path / "report.json")
    assert payload["checks"][0]["value"] is None
    assert payload["extras"] == {"blocks": [1.0, None], "inf": None}


def test_check_compares_the_reported_value():
    check = runs_mod._check
    assert check("c", 1.0, 1.0).passed and check("c", 1.0, 1.0, ">=").passed
    assert not check("c", 1.0, 1.0, "<").passed
    assert not check("c", 1.0, 1.0, ">").passed
    assert check("c", 0.5, 1.0, "<").passed and check("c", 2.0, 1.0, ">").passed
    assert not check("c", float("nan"), 1.0).passed
    missing = check("c", None, 1.0, ">=", "nothing measured")
    assert not missing.passed
    assert (missing.value, missing.comparison, missing.detail) == (None, ">=", "nothing measured")


def test_check_table_reads_the_family_defaults():
    assert set(CHECKS) == set(_DEFAULT_THRESHOLDS) == set(FAMILIES)
    for family, rows in CHECKS.items():
        for name, comparison, key in rows:
            keys = key if comparison == "in-range" else (key,) if key is not None else ()
            assert set(keys) <= set(_DEFAULT_THRESHOLDS[family]), (family, name)


def test_checks_follow_the_table():
    cfg = preset("drift-scaling")                 # speed slope in [1.7, 2.3], eps in [0.8, 1.2]
    build = partial(runs_mod._checks, cfg)
    checks = build({"remainder-scaling": (1.2, ""), "speed-drift-scaling": (1.7, "")})
    assert [c.name for c in checks] == ["speed-drift-scaling", "remainder-scaling"]
    assert all(c.passed for c in checks)          # both ends of a range are inside it
    assert [(c.threshold, c.comparison, c.detail) for c in checks] == [
        (1.7, "in-range", "allowed [1.7, 2.3]"), (0.8, "in-range", "allowed [0.8, 1.2]")]
    assert build({"speed-drift-scaling": (2.3, "")})[0].passed
    assert not build({"speed-drift-scaling": (2.31, "")})[0].passed
    assert not build({"remainder-scaling": (0.79, "")})[0].passed
    missing = build({"speed-drift-scaling": (None, "too few amplitudes")})[0]
    assert not missing.passed
    assert (missing.value, missing.threshold, missing.comparison, missing.detail) == (
        None, 1.7, "in-range", "too few amplitudes")
    with pytest.raises(KeyError, match="mass-drift"):
        build({"mass-drift": (0.0, "")})
    # a threshold the table declares is never the run's
    with pytest.raises(KeyError, match="propagation"):
        runs_mod._checks(_cfg(), {"propagation-error": (0.0, "", 1.0)})


def test_readme_synopsis_lists_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    for flag in ("--config", "--out", *(row[0] for row in _FLAGS)):
        assert f"[{flag} " in synopsis or f"[{flag}=" in synopsis, flag


def test_readme_lists_every_check():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Checks\n", 1)[1].split("\n## ", 1)[0]
    for rows in CHECKS.values():
        for name, comparison, _ in rows:
            assert f"`{name}` | `{comparison}` |" in table, name


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
    letters = tmp_path / "letters.json"
    letters.write_text('{"family": "simulate", "speeds": ["a"]}')
    assert main(["simulate", "--config", str(letters), "--out", str(tmp_path)]) == 2
    assert "speeds must be a list of numbers" in capsys.readouterr().err
    other = tmp_path / "spectrum.json"
    save_config(preset("positivity"), other)
    assert main(["decompose", "--config", str(other), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "does not match" in err
    # 2.0 equals a supported p, but the stepper's powers need an integer
    float_p = tmp_path / "float_p.json"
    float_p.write_text(json.dumps({**config_to_dict(preset("single-soliton")), "p": 2.0}))
    assert main(["simulate", "--config", str(float_p), "--out", str(tmp_path)]) == 2
    assert "p: nonlinearity exponent p=2.0 unsupported" in capsys.readouterr().err


def test_cli_override_validation_failure(tmp_path, capsys):
    # dt pushed over the stability gate is rejected before any run
    assert main(["simulate", "--dt", "1.0", "--out", str(tmp_path)]) == 2
    # --alpha turns the preset's "none" into a bump at gap:1, which one soliton lacks
    assert main(["simulate", "--alpha", "0.01", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "needs two solitons" in err and "perturbation.location" in err


def test_cli_rejects_an_ignored_sweep(tmp_path, capsys):
    # stability has no separation sweep; the flag must not be dropped silently
    assert main(["stability", "--separations", "10,20", "--out", str(tmp_path)]) == 2
    assert "sweep_separations" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_cli_parser_and_overrides():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["unknown-family"])
    args = parser.parse_args(["spectrum", "--speeds", "1,2,3",
                              "--positions=-40,0,40", "--grid", "512"])
    assert args.speeds == (1.0, 2.0, 3.0)
    assert args.positions == (-40.0, 0.0, 40.0)
    assert args.grid == 512


def test_cli_overrides_land_in_their_fields():
    parser = build_parser()
    stab = preset("stability-bound")
    cfg = _apply_overrides(stab, parser.parse_args([
        "stability", "--p", "3", "--speeds", "1,1.5", "--positions=-40,40",
        "--alpha", "0.02", "--alphas", "0,0.01,0.02", "--grid", "8192",
        "--domain", "512", "--x0", "-200", "--dt", "2e-4", "--tfinal", "10",
        "--cadence", "0.5", "--seed", "3"]))
    assert (cfg.p, cfg.speeds, cfg.positions) == (3, (1.0, 1.5), (-40.0, 40.0))
    assert cfg.alphas == (0.0, 0.01, 0.02)
    assert cfg.grid == GridConfig(8192, 512.0, -200.0)
    assert (cfg.dt, cfg.t_final, cfg.cadence) == (2e-4, 10.0, 0.5)
    assert cfg.perturbation == replace(stab.perturbation, amplitude=0.02, seed=3)
    sweep = _apply_overrides(preset("mass-monotonicity"),
                             parser.parse_args(["monotonicity", "--separations", "50,100"]))
    assert sweep.sweep_separations == (50.0, 100.0)
    # one grid field keeps the others; no flag keeps the config
    assert _apply_overrides(stab, parser.parse_args(["stability", "--x0", "-90"])).grid == \
        GridConfig(stab.grid.n, stab.grid.length, -90.0)
    assert _apply_overrides(stab, parser.parse_args(["stability"])) is stab
    # --alpha turns a "none" perturbation into a bump
    single = preset("single-soliton")
    assert single.perturbation.kind == "none"
    bumped = _apply_overrides(single, parser.parse_args(
        ["simulate", "--speeds", "1,2", "--positions=-20,20", "--alpha", "0.01"]))
    assert bumped.perturbation == replace(single.perturbation, kind="bump", amplitude=0.01)
    with pytest.raises(GkdvError, match="--speeds changed the soliton count"):
        _apply_overrides(single, parser.parse_args(["simulate", "--speeds", "1,2"]))
