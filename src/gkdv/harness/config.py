"""Experiment configuration: dataclasses, JSON round trip, presets.

Each experiment family has its own semantic checks on top of the common
field validation; configuration problems raise ConfigValidationError with
a message naming the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..errors import ConfigValidationError, GkdvError
from ..grid import Grid
from ..profiles import SUPPORTED_P, sigma0_of_speeds
from ..solver import SpongeSettings, dt_stability_bound, sponge_profile

FAMILIES = ("simulate", "decompose", "spectrum", "stability", "monotonicity",
            "quadratic-control", "asymptotic", "nsoliton")

# families that only inspect t=0 data, so time-stepping fields are unused
STATIC_FAMILIES = ("decompose", "spectrum")

PERTURBATION_KINDS = ("none", "bump", "noise")


@dataclass(frozen=True)
class GridConfig:
    n: int = 4096
    length: float = 256.0
    x0: float | None = None

    def build(self) -> Grid:
        try:
            return Grid(self.n, self.length) if self.x0 is None else Grid(self.n, self.length, self.x0)
        except GkdvError as exc:
            raise ConfigValidationError(f"grid: {exc}") from exc


@dataclass(frozen=True)
class PerturbationConfig:
    """Initial perturbation, rescaled to exact H1 size `amplitude`.

    location is either a float (absolute center) or "gap:<k>" for the center
    of the gap between solitons k and k+1 (1-based).
    """

    kind: str = "none"
    amplitude: float = 0.0
    width: float = 5.0
    location: str | float = "gap:1"
    seed: int = 0
    kmin: float = 0.05
    kmax: float = 1.0


@dataclass(frozen=True)
class TrackSettings:
    enabled: bool = True
    l_min: float = 0.0
    tol: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    label: str = ""
    p: int = 2
    speeds: tuple = (1.0,)
    positions: tuple = (0.0,)
    grid: GridConfig = field(default_factory=GridConfig)
    dt: float = 1e-4
    t_final: float = 10.0
    cadence: float = 0.5
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)
    sponge: SpongeSettings = field(default_factory=SpongeSettings)
    track: TrackSettings = field(default_factory=TrackSettings)
    y0: float | None = None
    ref_index: int | None = None
    alphas: tuple = ()                # quadratic-control sweep
    sweep_separations: tuple = ()     # stability / monotonicity sweep
    identity_t: float = 1.5           # monotonicity: fine-cadence identity run
    identity_cadence: float = 0.0025
    write_snapshots: bool = False
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "speeds", tuple(float(v) for v in self.speeds))
        object.__setattr__(self, "positions", tuple(float(v) for v in self.positions))
        object.__setattr__(self, "alphas", tuple(float(v) for v in self.alphas))
        object.__setattr__(self, "sweep_separations", tuple(float(v) for v in self.sweep_separations))
        validate(self)

    def with_updates(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


def _fail(msg: str):
    raise ConfigValidationError(msg)


def _check_common(cfg: ExperimentConfig) -> None:
    if cfg.family not in FAMILIES:
        _fail(f"family must be one of {FAMILIES}, got {cfg.family!r}")
    if cfg.p not in SUPPORTED_P:
        _fail(f"p must be one of {SUPPORTED_P}, got {cfg.p}")
    c = np.asarray(cfg.speeds)
    if c.size == 0 or not np.all(c > 0):
        _fail(f"speeds must be positive, got {cfg.speeds}")
    if c.size > 1 and not np.all(np.diff(c) > 0):
        _fail(f"speeds must be strictly increasing, got {cfg.speeds}")
    if len(cfg.positions) != c.size:
        _fail(f"positions ({len(cfg.positions)}) must match speeds ({c.size})")
    grid = cfg.grid.build()

    if cfg.family not in STATIC_FAMILIES:
        if not (cfg.dt > 0):
            _fail(f"dt must be positive, got {cfg.dt}")
        bound = dt_stability_bound(grid)
        if cfg.dt > bound * (1 + 1e-12):
            _fail(f"dt={cfg.dt:g} exceeds the stability bound {bound:g} at h={grid.spacing:g}")
        if not (cfg.t_final > 0):
            _fail(f"t_final must be positive, got {cfg.t_final}")
        for total, name in ((cfg.t_final, "t_final"), (cfg.cadence, "cadence")):
            k = round(total / cfg.dt)
            if k < 1 or abs(k * cfg.dt - total) > 1e-9 * max(1.0, total):
                _fail(f"{name}={total:g} must be a positive integer multiple of dt={cfg.dt:g}")
        if abs(round(cfg.t_final / cfg.cadence) * cfg.cadence - cfg.t_final) > 1e-9:
            _fail(f"t_final={cfg.t_final:g} must be a multiple of cadence={cfg.cadence:g}")

    pert = cfg.perturbation
    if pert.kind not in PERTURBATION_KINDS:
        _fail(f"perturbation.kind must be one of {PERTURBATION_KINDS}, got {pert.kind!r}")
    if pert.kind != "none":
        if not (pert.amplitude > 0):
            _fail(f"perturbation.amplitude must be positive, got {pert.amplitude}")
        if not (pert.width > 0):
            _fail(f"perturbation.width must be positive, got {pert.width}")
        if isinstance(pert.location, str):
            if not pert.location.startswith("gap:"):
                _fail(f"perturbation.location string must be 'gap:<k>', got {pert.location!r}")
            try:
                k = int(pert.location.split(":", 1)[1])
            except ValueError:
                _fail(f"perturbation.location gap index not an integer: {pert.location!r}")
            if not (1 <= k <= c.size - 1):
                _fail(f"perturbation.location {pert.location!r} needs gap index in 1..{c.size - 1}")
        if not (0.0 <= pert.kmin < pert.kmax):
            _fail(f"perturbation band needs 0 <= kmin < kmax, got ({pert.kmin}, {pert.kmax})")

    try:
        sponge_profile(grid, cfg.sponge)
    except GkdvError as exc:
        _fail(str(exc))

    if cfg.y0 is not None and not (cfg.y0 > 0):
        _fail(f"y0 must be positive, got {cfg.y0}")
    if cfg.ref_index is not None and not (0 <= cfg.ref_index < c.size):
        _fail(f"ref_index {cfg.ref_index} outside 0..{c.size - 1}")


def _check_family(cfg: ExperimentConfig) -> None:
    n = len(cfg.speeds)
    if cfg.family == "spectrum":
        if n > 1 and not np.all(np.diff(cfg.positions) > 0):
            _fail("spectrum: positions must be sorted increasing")
    elif cfg.family == "stability":
        if n < 2:
            _fail(f"stability: need at least 2 solitons, got {n}")
        if not np.all(np.diff(cfg.positions) > 0):
            _fail("stability: positions must be sorted increasing")
        if cfg.track.enabled and cfg.track.l_min > 0:
            gap = float(np.min(np.diff(cfg.positions)))
            if gap < cfg.track.l_min:
                _fail(f"stability: initial gap {gap:g} is below the declared "
                      f"separation floor {cfg.track.l_min:g}")
        if cfg.alphas:
            a = np.asarray(cfg.alphas)
            if a.size < 2:
                _fail("stability: amplitude limbs need at least 2 values")
            if not np.all(a >= 0) or not np.all(np.diff(a) > 0):
                _fail("stability: amplitude limbs must be nonnegative and increasing")
            if not np.any(a > 0):
                _fail("stability: at least one amplitude limb must be positive")
        if cfg.perturbation.kind == "none":
            _fail("stability: perturbation.kind must not be 'none' (the "
                  "unperturbed limb is run automatically)")
    elif cfg.family == "monotonicity":
        if n != 2:
            _fail(f"monotonicity: separation sweep is defined for 2 solitons, got {n}")
        _check_sweep(cfg.sweep_separations, "monotonicity")
        for total, name in ((cfg.identity_t, "identity_t"), (cfg.identity_cadence, "identity_cadence")):
            if not (total > 0):
                _fail(f"monotonicity: {name} must be positive, got {total}")
        k = round(cfg.identity_cadence / cfg.dt)
        if k < 1 or abs(k * cfg.dt - cfg.identity_cadence) > 1e-12:
            _fail(f"monotonicity: identity_cadence={cfg.identity_cadence:g} must be a "
                  f"multiple of dt={cfg.dt:g}")
        if abs(round(cfg.identity_t / cfg.identity_cadence) * cfg.identity_cadence
               - cfg.identity_t) > 1e-9:
            _fail(f"monotonicity: identity_t={cfg.identity_t:g} must be a multiple of "
                  f"identity_cadence={cfg.identity_cadence:g}")
    elif cfg.family == "quadratic-control":
        if n < 2:
            _fail("quadratic-control: need at least 2 solitons")
        a = np.asarray(cfg.alphas)
        if a.size < 4:
            _fail(f"quadratic-control: need at least 4 amplitudes, got {a.size}")
        if not np.all(a > 0) or not np.all(np.diff(a) > 0):
            _fail("quadratic-control: amplitudes must be positive and increasing")
        decades = math.log10(a[-1] / a[0])
        if decades < 1.5 - 1e-12:
            _fail(f"quadratic-control: amplitudes span {decades:.2f} decades, need >= 1.5")
        sep = float(np.min(np.diff(np.sort(cfg.positions))))
        gamma0 = math.sqrt(sigma0_of_speeds(np.asarray(cfg.speeds))) / 16.0
        tail = math.exp(-gamma0 * sep)
        if tail >= a[0] ** 2:
            _fail(f"quadratic-control: interaction tail exp(-gamma0 L) = {tail:.3g} at "
                  f"separation {sep:g} is not below the smallest amplitude squared "
                  f"{a[0] ** 2:.3g}; increase the separation or the amplitudes")
        if cfg.perturbation.kind == "none":
            _fail("quadratic-control: perturbation.kind must not be 'none'")
    elif cfg.family == "asymptotic":
        if not cfg.sponge.enabled:
            _fail("asymptotic: sponge must be enabled to absorb escaping radiation")
        if cfg.y0 is None:
            _fail("asymptotic: y0 (edge-probe offset) is required")
        if not cfg.track.enabled:
            _fail("asymptotic: tracking must be enabled")
    elif cfg.family == "nsoliton":
        if cfg.p != 2:
            _fail(f"nsoliton: exact multi-soliton references exist only for p=2, got p={cfg.p}")
        if n < 2:
            _fail("nsoliton: need at least 2 solitons")


def _check_sweep(seps, family: str) -> None:
    s = np.asarray(seps)
    if s.size < 2:
        _fail(f"{family}: sweep_separations needs at least 2 values, got {s.size}")
    if not np.all(s > 0) or not np.all(np.diff(s) > 0):
        _fail(f"{family}: sweep_separations must be positive and increasing")


def validate(cfg: ExperimentConfig) -> None:
    _check_common(cfg)
    _check_family(cfg)


# ---------------------------------------------------------------------------
# JSON round trip

def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["speeds"] = list(cfg.speeds)
    d["positions"] = list(cfg.positions)
    d["alphas"] = list(cfg.alphas)
    d["sweep_separations"] = list(cfg.sweep_separations)
    return d


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        _fail(f"unknown config keys: {sorted(unknown)}")
    if "family" not in data:
        _fail("config is missing required key 'family'")
    for key, cls in (("grid", GridConfig), ("perturbation", PerturbationConfig),
                     ("sponge", SpongeSettings), ("track", TrackSettings)):
        if key in data and isinstance(data[key], dict):
            sub = data[key]
            sub_known = set(cls.__dataclass_fields__)
            sub_unknown = set(sub) - sub_known
            if sub_unknown:
                _fail(f"unknown keys in {key}: {sorted(sub_unknown)}")
            data[key] = cls(**sub)
    for key in ("speeds", "positions", "alphas", "sweep_separations"):
        if key in data:
            data[key] = tuple(data[key])
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise ConfigValidationError(f"malformed config: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        _fail(f"{path}: top-level JSON value must be an object")
    return config_from_dict(data)


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# presets: one per experiment family, tuned for the acceptance checks

def _preset_single_soliton() -> ExperimentConfig:
    return ExperimentConfig(
        family="simulate", label="single-soliton", p=2,
        speeds=(1.0,), positions=(0.0,),
        grid=GridConfig(n=4096, length=256.0, x0=-128.0),
        dt=1e-4, t_final=10.0, cadence=0.5,
        write_snapshots=True,
        thresholds={"conservation": 1e-9, "propagation": 1e-6},
    )


def _preset_tau_collision() -> ExperimentConfig:
    # fast soliton starts behind, overtakes near t = 13.3, fully separated by 26
    return ExperimentConfig(
        family="nsoliton", label="tau-collision", p=2,
        speeds=(1.0, 4.0), positions=(20.0, -20.0),
        grid=GridConfig(n=4096, length=256.0, x0=-128.0),
        dt=2e-4, t_final=26.0, cadence=0.5,
        track=TrackSettings(enabled=False),
        thresholds={"l2_distance": 1e-5, "refit_speeds": 1e-4},
    )


def _preset_newton_recovery() -> ExperimentConfig:
    return ExperimentConfig(
        family="decompose", label="newton-recovery", p=2,
        speeds=(1.0, 2.0, 3.0), positions=(-40.0, 0.0, 40.0),
        grid=GridConfig(n=4096, length=256.0, x0=-128.0),
        perturbation=PerturbationConfig(kind="bump", amplitude=1e-3, width=5.0,
                                        location="gap:1"),
        thresholds={"speed_recovery_factor": 5e-3, "residual": 1e-11,
                    "jacobian_diag_rel": 1e-5},
    )


def _preset_positivity() -> ExperimentConfig:
    return ExperimentConfig(
        family="spectrum", label="positivity", p=2,
        speeds=(1.0, 2.0), positions=(-20.0, 20.0),
        grid=GridConfig(n=2048, length=256.0, x0=-128.0),
        thresholds={"lambda_min": 0.0},
    )


def _preset_mass_monotonicity() -> ExperimentConfig:
    return ExperimentConfig(
        family="monotonicity", label="mass-monotonicity", p=2,
        speeds=(1.0, 2.0), positions=(-30.0, 30.0),
        grid=GridConfig(n=8192, length=1024.0, x0=-512.0),
        dt=1e-3, t_final=50.0, cadence=0.25,
        perturbation=PerturbationConfig(kind="bump", amplitude=1e-2, width=5.0,
                                        location="gap:1"),
        sweep_separations=(60.0, 120.0),
        identity_t=1.5, identity_cadence=0.003,
        y0=25.0, ref_index=1,
        thresholds={"max_increase": 1e-3, "ratio_min": 10.0,
                    "increase_floor": 1e-10, "identity_rel": 1e-5,
                    "bound_constant_max": 100.0, "probe_slack": 1e-6},
    )


def _preset_drift_scaling() -> ExperimentConfig:
    return ExperimentConfig(
        family="quadratic-control", label="drift-scaling", p=2,
        speeds=(1.0, 2.0), positions=(-135.0, 135.0),
        grid=GridConfig(n=8192, length=1024.0, x0=-512.0),
        dt=1e-3, t_final=30.0, cadence=0.25,
        perturbation=PerturbationConfig(kind="bump", amplitude=1e-2, width=5.0,
                                        location="gap:1"),
        alphas=(3e-3, 1e-2, 3e-2, 1e-1),
        thresholds={"speed_slope_lo": 1.7, "speed_slope_hi": 2.3,
                    "eps_slope_lo": 0.8, "eps_slope_hi": 1.2,
                    "drift_floor": 1e-11},
    )


def _preset_radiation_escape() -> ExperimentConfig:
    return ExperimentConfig(
        family="asymptotic", label="radiation-escape", p=2,
        speeds=(1.0, 2.0), positions=(0.0, 60.0),
        grid=GridConfig(n=8192, length=1024.0, x0=-256.0),
        dt=2e-3, t_final=300.0, cadence=0.5,
        perturbation=PerturbationConfig(kind="bump", amplitude=3e-2, width=5.0,
                                        location="gap:1"),
        sponge=SpongeSettings(enabled=True, width_fraction=0.05, strength=5.0),
        y0=25.0, ref_index=1,
        thresholds={"plateau_std": 1e-4, "block_time": 20.0,
                    "block_slack": 0.05, "final_fraction": 1.0 / 3.0,
                    "contraction_factor": 0.5, "contraction_floor": 1e-8},
    )


def _preset_stability_bound() -> ExperimentConfig:
    return ExperimentConfig(
        family="stability", label="stability-bound", p=2,
        speeds=(1.0, 2.0), positions=(-30.0, 30.0),
        grid=GridConfig(n=4096, length=256.0, x0=-80.0),
        dt=4e-4, t_final=50.0, cadence=0.25,
        perturbation=PerturbationConfig(kind="bump", amplitude=1e-2, width=5.0,
                                        location="gap:1"),
        track=TrackSettings(enabled=True, l_min=20.0),
        alphas=(0.0, 3e-3, 1e-2, 3e-2),
        thresholds={"baseline_sup": 5e-5, "distance_over_alpha": 10.0,
                    "monotone_frac": 0.9},
    )


_PRESETS = {
    "single-soliton": _preset_single_soliton,
    "tau-collision": _preset_tau_collision,
    "newton-recovery": _preset_newton_recovery,
    "positivity": _preset_positivity,
    "mass-monotonicity": _preset_mass_monotonicity,
    "drift-scaling": _preset_drift_scaling,
    "radiation-escape": _preset_radiation_escape,
    "stability-bound": _preset_stability_bound,
}


def preset_names() -> tuple:
    return tuple(sorted(_PRESETS))


def preset(name: str) -> ExperimentConfig:
    if name not in _PRESETS:
        raise ConfigValidationError(f"unknown preset {name!r}; choose from {preset_names()}")
    return _PRESETS[name]()
