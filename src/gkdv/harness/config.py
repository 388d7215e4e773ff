"""Experiment configuration: dataclasses, JSON round trip, presets.

Validation builds what execute() builds, with the library's own code:
ModelParams, SolitonState, the grid, the step-size gate and step lattice of
the solver, the perturbation, the sponge profile and soliton_sum's seam-tail
test. A library error comes back as ConfigValidationError, prefixed with the
config field it concerns. On top of these, each experiment family has its
own rules. The default thresholds and the checks of every family live here
too; a config may override the thresholds, and only them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from importlib import resources
from operator import attrgetter

import numpy as np

from ..errors import ConfigValidationError, GkdvError
from ..grid import Grid
from ..profiles import ModelParams, SolitonState, _check_seam_tails, sigma0_of_speeds
from ..solver import SpongeSettings, check_step_size, sponge_profile, step_counts
from .perturbations import PerturbationConfig, make_perturbation

FAMILIES = ("simulate", "decompose", "spectrum", "stability", "monotonicity",
            "quadratic-control", "asymptotic", "nsoliton")

# families that only inspect t=0 data, so time-stepping fields are unused
STATIC_FAMILIES = ("decompose", "spectrum")

# families that always track the decomposition; simulate tracks when asked
TRACKED_FAMILIES = ("stability", "monotonicity", "quadratic-control", "asymptotic")

# every threshold a family's checks read, with its default; cfg.thresholds
# may override these keys and no others
_DEFAULT_THRESHOLDS = {
    "simulate": {"conservation": 1e-8, "propagation": 1e-6},
    "decompose": {"speed_recovery_factor": 5e-3, "residual": 1e-11,
                  "jacobian_diag_rel": 1e-5, "guess_agreement": 1e-9},
    "spectrum": {"lambda_min": 0.0},
    "stability": {"baseline_sup": 5e-5, "distance_over_alpha": 10.0,
                  "monotone_frac": 0.9},
    "monotonicity": {"max_increase": 1e-3, "ratio_min": 10.0,
                     "increase_floor": 1e-10, "identity_rel": 1e-5,
                     "bound_constant_max": 100.0, "probe_slack": 1e-6},
    "quadratic-control": {"speed_slope_lo": 1.7, "speed_slope_hi": 2.3,
                          "eps_slope_lo": 0.8, "eps_slope_hi": 1.2,
                          "drift_floor": 1e-11},
    "asymptotic": {"plateau_std": 1e-4, "block_time": 20.0,
                   "block_slack": 0.05, "final_fraction": 1.0 / 3.0,
                   "contraction_factor": 0.5, "contraction_floor": 1e-8},
    "nsoliton": {"l2_distance": 1e-5, "refit_speeds": 1e-4},
}

# each family's checks in report order, as (name, comparison, threshold): the
# key of a default, the (lo, hi) keys of an in-range check, or None (the run's)
CHECKS = {
    "simulate": (("mass-drift", "<=", "conservation"),
                 ("energy-drift", "<=", "conservation"),
                 ("propagation-error", "<=", "propagation")),
    "decompose": (("speed-recovery", "<=", None),
                  ("ortho-residual", "<", "residual"),
                  ("jacobian-diagonal", "<=", "jacobian_diag_rel"),
                  ("guess-free-agreement", "<=", "guess_agreement")),
    "spectrum": (("constrained-positive", ">", "lambda_min"),
                 ("unconstrained-negative", "<", None)),
    "stability": (("baseline-distance", "<=", "baseline_sup"),
                  ("distance-over-amplitude", "<=", "distance_over_alpha"),
                  ("distance-monotone-in-amplitude", ">=", "monotone_frac")),
    "monotonicity": (("max-weighted-mass-increase", "<=", "max_increase"),
                     ("increase-decays-with-separation", "<=", None),
                     ("increase-bound-constant", "<=", "bound_constant_max"),
                     ("right-probe-almost-nonincreasing", "<=", "probe_slack"),
                     ("left-probe-almost-nondecreasing", "<=", "probe_slack"),
                     ("rate-identity", "<=", "identity_rel")),
    "quadratic-control": (("speed-drift-scaling", "in-range", ("speed_slope_lo", "speed_slope_hi")),
                          ("remainder-scaling", "in-range", ("eps_slope_lo", "eps_slope_hi"))),
    "asymptotic": (("speed-plateau", "<=", "plateau_std"),
                   ("ray-mass-nonincreasing", "<=", "block_slack"),
                   ("ray-mass-final-fraction", "<=", "final_fraction"),
                   ("remainder-contraction", "<=", None)),
    "nsoliton": (("profile-distance", "<=", "l2_distance"),
                 ("refit-speeds", "<=", "refit_speeds")),
}


# thresholds that a driver divides or steps by
_POSITIVE_THRESHOLDS = ("ratio_min", "block_time")

# the list fields of a config, held as tuples of floats
_LIST_FIELDS = ("speeds", "positions", "alphas", "sweep_separations")


@dataclass(frozen=True)
class GridConfig:
    n: int = 4096
    length: float = 256.0
    x0: float | None = None

    def build(self) -> Grid:
        return Grid(self.n, self.length, self.x0)


@dataclass(frozen=True)
class TrackSettings:
    enabled: bool = True
    l_min: float = 0.0


# the sub-configs of a config, each a JSON object in a config file
_SUB_CONFIGS = (("grid", GridConfig), ("perturbation", PerturbationConfig),
                ("sponge", SpongeSettings), ("track", TrackSettings))


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
    alphas: tuple = ()                # stability / quadratic-control amplitude limbs
    sweep_separations: tuple = ()     # monotonicity separation sweep
    identity_t: float = 1.5           # monotonicity: fine-cadence identity run
    identity_cadence: float = 0.0025
    write_snapshots: bool = False
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in _LIST_FIELDS:
            value = getattr(self, name)
            try:  # through numpy, so that a string or a scalar is no list
                object.__setattr__(self, name, tuple(float(v) for v in np.asarray(value, float)))
            except (TypeError, ValueError) as exc:
                raise ConfigValidationError(f"{name} must be a list of numbers, "
                                            f"got {value!r}") from exc
        validate(self)

    def with_updates(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


def _fail(msg: str):
    raise ConfigValidationError(msg)


def _built(what: str, build, *args):
    """build(*args), with a library error re-raised as ConfigValidationError
    prefixed by `what`, the config field it concerns."""
    try:
        return build(*args)
    except GkdvError as exc:
        raise ConfigValidationError(f"{what}: {exc}") from exc


def _check_common(cfg: ExperimentConfig) -> None:
    if cfg.family not in FAMILIES:
        _fail(f"family must be one of {FAMILIES}, got {cfg.family!r}")
    for name, cls in _SUB_CONFIGS:
        if not isinstance(getattr(cfg, name), cls):
            _fail(f"{name} must be an object with keys {sorted(cls.__dataclass_fields__)}, "
                  f"got {getattr(cfg, name)!r}")
    for name in ("sponge.enabled", "track.enabled", "write_snapshots"):
        value = attrgetter(name)(cfg)
        if not isinstance(value, bool):
            _fail(f"{name} must be true or false, got {value!r}")
    if not isinstance(cfg.thresholds, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in cfg.thresholds.values()):
        _fail(f"thresholds must map names to numbers, got {cfg.thresholds!r}")
    unknown = set(cfg.thresholds) - set(_DEFAULT_THRESHOLDS[cfg.family])
    if unknown:
        _fail(f"unknown {cfg.family} thresholds {sorted(unknown)}; "
              f"known: {sorted(_DEFAULT_THRESHOLDS[cfg.family])}")
    if not all(-math.inf < v < math.inf for v in cfg.thresholds.values()):
        _fail(f"thresholds must be finite, got {cfg.thresholds!r}")
    thr = thresholds_for(cfg)
    for key in _POSITIVE_THRESHOLDS:
        if key in thr and not thr[key] > 0:
            _fail(f"thresholds: {key} must be positive, got {thr[key]:g}")
    for lo, hi in (key for _, comparison, key in CHECKS[cfg.family] if comparison == "in-range"):
        if not thr[lo] < thr[hi]:
            _fail(f"thresholds: {lo} = {thr[lo]:g} must be below {hi} = {thr[hi]:g}")
    _built("p", ModelParams, cfg.p)
    state = _built("speeds, positions", SolitonState, cfg.speeds, cfg.positions)
    grid = _built("grid", cfg.grid.build)
    if cfg.family not in STATIC_FAMILIES:
        _built("dt", check_step_size, grid, cfg.dt)
        _built("t_final, cadence", step_counts, cfg.t_final, cfg.dt, cfg.cadence)
    _built("perturbation", make_perturbation, cfg.perturbation, grid, state)
    _built("sponge", sponge_profile, grid, cfg.sponge)
    # nsoliton evaluates its exact formula, not the minimal-image soliton sum
    if cfg.family != "nsoliton":
        _built("grid", _check_seam_tails, cfg.p, cfg.speeds, grid)

    if cfg.y0 is not None and not (cfg.y0 > 0):
        _fail(f"y0 must be positive, got {cfg.y0}")
    if cfg.ref_index is not None and not (0 <= cfg.ref_index < state.n):
        _fail(f"ref_index {cfg.ref_index} outside 0..{state.n - 1}")
    # a field that the family never reads would be silently ignored
    for name, readers in (("alphas", ("stability", "quadratic-control")),
                          ("sweep_separations", ("monotonicity",)),
                          ("y0", ("simulate", "monotonicity", "asymptotic")),
                          ("write_snapshots", ("simulate",))):
        if getattr(cfg, name) and cfg.family not in readers:
            _fail(f"{name} is read only by {' and '.join(readers)}, not by {cfg.family}")
    if cfg.ref_index is not None and cfg.y0 is None:
        _fail("ref_index is read only together with y0")
    if cfg.y0 is not None and cfg.family == "simulate" and not cfg.track.enabled:
        _fail("y0 is read only by a tracked simulate run, and track.enabled is false")
    if cfg.family in TRACKED_FAMILIES and not cfg.track.enabled:
        _fail(f"{cfg.family}: tracking must be enabled (track.enabled)")


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
        if cfg.track.l_min > 0:
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
        _built("monotonicity: identity run (identity_t, identity_cadence)", step_counts,
               cfg.identity_t, cfg.dt, cfg.identity_cadence)
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
        tail = interaction_tail(cfg.speeds, sep)[1]
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
    elif cfg.family == "nsoliton":
        if cfg.p != 2:
            _fail(f"nsoliton: exact multi-soliton references exist only for p=2, got p={cfg.p}")
        if n < 2:
            _fail("nsoliton: need at least 2 solitons")


def interaction_tail(speeds, gap: float):
    """(gamma0, exp(-gamma0 gap)): the rate gamma0 = sqrt(sigma0) / 16 at which
    the interaction of solitons with these speeds decays with their gap, and
    its size at this gap."""
    gamma0 = np.sqrt(sigma0_of_speeds(np.asarray(speeds))) / 16.0
    return gamma0, float(np.exp(-gamma0 * gap))


def _check_sweep(seps, family: str) -> None:
    s = np.asarray(seps)
    if s.size < 2:
        _fail(f"{family}: sweep_separations needs at least 2 values, got {s.size}")
    if not np.all(s > 0) or not np.all(np.diff(s) > 0):
        _fail(f"{family}: sweep_separations must be positive and increasing")


def validate(cfg: ExperimentConfig) -> None:
    _check_common(cfg)
    _check_family(cfg)


def thresholds_for(cfg: ExperimentConfig) -> dict:
    """The family's default thresholds with the config's overrides applied."""
    return {**_DEFAULT_THRESHOLDS[cfg.family], **cfg.thresholds}


# ---------------------------------------------------------------------------
# JSON round trip

def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    for name in _LIST_FIELDS:
        d[name] = list(d[name])
    return d


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(data) - known
    if unknown:
        _fail(f"unknown config keys: {sorted(unknown)}")
    if "family" not in data:
        _fail("config is missing required key 'family'")
    for key, cls in _SUB_CONFIGS:
        if isinstance(data.get(key), dict):
            sub = data[key]
            sub_known = set(cls.__dataclass_fields__)
            sub_unknown = set(sub) - sub_known
            if sub_unknown:
                _fail(f"unknown keys in {key}: {sorted(sub_unknown)}")
            data[key] = cls(**sub)
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
# presets: one JSON file per experiment family, shipped in presets/

def _preset_files():
    return resources.files(__package__) / "presets"


def preset_names() -> tuple:
    return tuple(sorted(f.name[:-5] for f in _preset_files().iterdir()
                        if f.name.endswith(".json")))


def preset(name: str) -> ExperimentConfig:
    if name not in preset_names():
        raise ConfigValidationError(f"unknown preset {name!r}; choose from {preset_names()}")
    with resources.as_file(_preset_files() / f"{name}.json") as path:
        return load_config(path)
