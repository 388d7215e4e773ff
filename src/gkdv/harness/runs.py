"""Drivers for the experiment families.

Each driver builds initial data, evolves it while streaming per-snapshot
diagnostics, evaluates the family's quantitative checks, and writes
series.csv (full time series) plus any family-specific artifacts into the
output directory. execute() dispatches on the config family and writes the
final report.json.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from ..errors import GkdvError, ParameterError
from ..functionals import (PsiWeight, constrained_spectrum,
                           linearized_energy_form, localized_mass_rate_terms,
                           localized_masses, write_spectral_certificate)
from ..grid import Field
from ..modulation import ModulationTracker, decompose, initial_guess, ortho_jacobian
from ..profiles import (ModelParams, SolitonBasis, SolitonState,
                        kdv_nsoliton_profile, profile_mass_constant,
                        soliton_energy, soliton_sum)
from ..snapio import write_snapshots
from ..solver import (Trajectory, evolve, h1_norm, l2_norm, l2_norm_right_of,
                      spectral_derivative)
from .config import ExperimentConfig, config_to_dict
from .perturbations import make_perturbation

# fallback thresholds; presets override through cfg.thresholds
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


def thresholds_for(cfg: ExperimentConfig) -> dict:
    out = dict(_DEFAULT_THRESHOLDS[cfg.family])
    out.update(cfg.thresholds)
    return out


# ---------------------------------------------------------------------------
# report containers

@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float | None
    threshold: float | None
    comparison: str = "<="
    detail: str = ""


@dataclass
class FitResult:
    """Least-squares line through (log x, log y) with the raw points kept."""

    name: str
    slope: float
    intercept: float
    xs: list
    ys: list


@dataclass
class RunReport:
    family: str
    label: str
    passed: bool
    checks: list
    fits: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def _report(cfg: ExperimentConfig, checks, fits=None, extras=None) -> RunReport:
    return RunReport(family=cfg.family, label=cfg.label,
                     passed=all(c.passed for c in checks), checks=checks,
                     fits=fits or [], extras=extras or {},
                     config=config_to_dict(cfg))


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def write_report(path, report: RunReport) -> None:
    payload = {
        "family": report.family,
        "label": report.label,
        "passed": bool(report.passed),
        "checks": [{"name": c.name, "passed": bool(c.passed), "value": c.value,
                    "threshold": c.threshold, "comparison": c.comparison,
                    "detail": c.detail} for c in report.checks],
        "fits": [{"name": f.name, "slope": f.slope, "intercept": f.intercept,
                  "points": {"x": list(f.xs), "y": list(f.ys)}} for f in report.fits],
        "extras": report.extras,
        "config": report.config,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def write_series_csv(path, pairs) -> None:
    """pairs: list of (name, 1d array); all columns must share a length."""
    names = [name for name, _ in pairs]
    cols = [np.asarray(col, dtype=np.float64) for _, col in pairs]
    if len({c.size for c in cols}) > 1:
        raise ParameterError("series columns have mismatched lengths")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# streaming diagnostics

class DiagnosticsCollector:
    """Observer for evolve(): tracks the modulation state and records, per
    snapshot, the remainder norms (global, on the rightward ray, and in the
    co-moving half-line), the distance to the frozen-speed soliton family,
    weighted masses with their rate-identity integrands, and edge probes.
    Conserved-quantity drift comes from the trajectory, in table()."""

    def __init__(self, params: ModelParams, state0: SolitonState, *,
                 l_min: float = 0.0, tol: float | None = None,
                 y0: float | None = None, ref_index: int | None = None,
                 weight: PsiWeight | None = None):
        self.params = params
        self.weight = weight if weight is not None else PsiWeight(params.p, state0.sigma0)
        self.tracker = ModulationTracker(params, state0, 0.0, l_min=l_min, tol=tol)
        self.y0 = y0
        self.ref_index = ref_index
        self.n_solitons = state0.n
        self.frozen_speeds = state0.speed_array.copy()
        # lab-frame ray x > x_min(0) + c_min(0) t / 10: solitons outrun it,
        # radiation falls behind it
        self.ray_origin = float(np.min(state0.position_array))
        self.ray_speed = 0.1 * float(np.min(state0.speed_array))
        self.times = []
        self.speeds = []
        self.positions = []
        self.eps_l2 = []
        self.eps_h1 = []
        self.eps_ray = []
        self.dist_frozen = []
        self.resid = []
        self.iters = []
        self.masses = []
        self.s1 = []
        self.s2 = []
        self.j_left = []
        self.j_right = []
        self.eps_ahead = []
        self.esol = []
        self.half_hessian = []

    def _nan_row(self, t: float) -> None:
        n, m = self.n_solitons, max(self.n_solitons - 1, 0)
        self.speeds.append(np.full(n, np.nan))
        self.positions.append(np.full(n, np.nan))
        for lst in (self.eps_l2, self.eps_h1, self.eps_ray, self.dist_frozen,
                    self.resid, self.iters, self.j_left, self.j_right,
                    self.eps_ahead, self.esol, self.half_hessian):
            lst.append(np.nan)
        self.masses.append(np.full(m, np.nan))
        self.s1.append(np.full(m, np.nan))
        self.s2.append(np.full(m, np.nan))

    def __call__(self, t: float, u: Field) -> None:
        self.times.append(float(t))
        dec = self.tracker.update(t, u)
        if dec is None:
            self._nan_row(t)
            return
        st = dec.state
        self.speeds.append(st.speed_array.copy())
        self.positions.append(st.position_array.copy())
        self.eps_l2.append(l2_norm(dec.epsilon))
        self.eps_h1.append(h1_norm(dec.epsilon))
        self.eps_ray.append(l2_norm_right_of(
            dec.epsilon, self.ray_origin + self.ray_speed * t))
        # frozen-speed profiles at the tracked positions, on the same offsets
        frozen = dec.basis.rows(0, speeds=self.frozen_speeds).sum(axis=0)
        self.dist_frozen.append(h1_norm(Field(u.grid, u.values - frozen)))
        self.resid.append(float(np.max(np.abs(dec.ortho_residuals))))
        self.iters.append(float(dec.iterations))
        if self.y0 is not None:
            # remainder norm in the half-line moving with the leftmost
            # soliton; radiation drops out of this window as it lags behind
            cut = float(np.min(st.position_array)) - self.y0
            wts = self.weight.psi(u.grid.x - cut)
            ev = dec.epsilon.values
            ex = spectral_derivative(dec.epsilon, 1).values
            self.eps_ahead.append(float(np.sqrt(
                u.grid.spacing * np.sum((ev * ev + ex * ex) * wts))))
        else:
            self.eps_ahead.append(np.nan)
        self.esol.append(sum(soliton_energy(self.params.p, c) for c in st.speeds))
        self.half_hessian.append(0.5 * linearized_energy_form(dec.epsilon, dec, self.params))
        x = st.position_array
        if st.n > 1 and np.all(np.diff(x) > 0):
            rec = localized_masses(t, u, st, self.weight, self.params,
                                   y0=self.y0, ref_index=self.ref_index)
            self.masses.append(rec.masses)
            rates = [localized_mass_rate_terms(u, m, self.weight, self.params)
                     for m in rec.midpoints]
            self.s1.append(np.array([r[0] for r in rates]))
            self.s2.append(np.array([r[1] for r in rates]))
            self.j_left.append(np.nan if rec.j_left is None else rec.j_left)
            self.j_right.append(np.nan if rec.j_right is None else rec.j_right)
        else:
            m = max(st.n - 1, 0)
            self.masses.append(np.full(m, np.nan))
            self.s1.append(np.full(m, np.nan))
            self.s2.append(np.full(m, np.nan))
            self.j_left.append(np.nan)
            self.j_right.append(np.nan)

    # -- assembled arrays ---------------------------------------------------

    def table(self, traj: Trajectory) -> dict:
        """Series columns; traj is the evolution this collector observed."""
        n, m = self.n_solitons, max(self.n_solitons - 1, 0)
        out = {"t": np.asarray(self.times)}
        speeds = np.vstack(self.speeds) if self.speeds else np.empty((0, n))
        pos = np.vstack(self.positions) if self.positions else np.empty((0, n))
        for j in range(n):
            out[f"c{j + 1}"] = speeds[:, j]
        for j in range(n):
            out[f"x{j + 1}"] = pos[:, j]
        out["eps_l2"] = np.asarray(self.eps_l2)
        out["eps_h1"] = np.asarray(self.eps_h1)
        out["eps_l2_ray"] = np.asarray(self.eps_ray)
        out["dist_frozen_h1"] = np.asarray(self.dist_frozen)
        out["max_ortho_residual"] = np.asarray(self.resid)
        out["newton_iterations"] = np.asarray(self.iters)
        out["mass_drift"], out["energy_drift"] = traj.drift_series()
        masses = np.vstack(self.masses) if self.masses else np.empty((0, m))
        s1 = np.vstack(self.s1) if self.s1 else np.empty((0, m))
        s2 = np.vstack(self.s2) if self.s2 else np.empty((0, m))
        for i in range(m):
            out[f"I{i + 2}"] = masses[:, i]
            out[f"S1_{i + 2}"] = s1[:, i]
            out[f"S2_{i + 2}"] = s2[:, i]
        if self.y0 is not None:
            out["j_left"] = np.asarray(self.j_left)
            out["j_right"] = np.asarray(self.j_right)
            out["eps_h1_ahead"] = np.asarray(self.eps_ahead)
        out["soliton_energy_sum"] = np.asarray(self.esol)
        out["half_energy_hessian"] = np.asarray(self.half_hessian)
        return out

    @property
    def speed_matrix(self) -> np.ndarray:
        return np.vstack(self.speeds) if self.speeds else np.empty((0, self.n_solitons))

    @property
    def position_matrix(self) -> np.ndarray:
        return np.vstack(self.positions) if self.positions else np.empty((0, self.n_solitons))

    @property
    def mass_matrix(self) -> np.ndarray:
        m = max(self.n_solitons - 1, 0)
        return np.vstack(self.masses) if self.masses else np.empty((0, m))


# ---------------------------------------------------------------------------
# shared helpers

def _build(cfg: ExperimentConfig):
    params = ModelParams(cfg.p)
    grid = cfg.grid.build()
    state = SolitonState(cfg.speeds, cfg.positions)
    return params, grid, state


def _initial_field(cfg: ExperimentConfig, params, grid, state) -> Field:
    base = soliton_sum(params, state, grid)
    pert = make_perturbation(cfg.perturbation, grid, state)
    return Field(grid, base.values + pert.values)


def _compose(*observers):
    funcs = [f for f in observers if f is not None]

    def call(t, u):
        for f in funcs:
            f(t, u)

    return call


def _fd4(times: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Fourth-order centered differences on a uniform time grid; NaN edges."""
    out = np.full_like(series, np.nan)
    dt = times[1] - times[0]
    out[2:-2] = (-series[4:] + 8.0 * series[3:-1]
                 - 8.0 * series[1:-3] + series[:-4]) / (12.0 * dt)
    return out


def _log_slope(xs, ys) -> tuple[float, float]:
    coeffs = np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)
    return float(coeffs[0]), float(coeffs[1])


# ---------------------------------------------------------------------------
# family drivers

def run_simulate(cfg: ExperimentConfig, outdir: Path) -> RunReport:
    params, grid, state = _build(cfg)
    u0 = _initial_field(cfg, params, grid, state)
    thr = thresholds_for(cfg)

    collector = None
    if cfg.track.enabled:
        collector = DiagnosticsCollector(params, state, l_min=cfg.track.l_min,
                                         tol=cfg.track.tol, y0=cfg.y0,
                                         ref_index=cfg.ref_index)
    holder = {}

    def capture(t, u):
        holder["final"] = u

    traj = evolve(u0, cfg.t_final, params, cfg.dt, cadence=cfg.cadence,
                  sponge=cfg.sponge, observer=_compose(collector, capture),
                  keep_fields=cfg.write_snapshots)

    checks = []
    if not cfg.sponge.enabled:
        dm, de = traj.relative_drift()
        checks.append(CheckResult("mass-drift", dm <= thr["conservation"], dm,
                                  thr["conservation"]))
        checks.append(CheckResult("energy-drift", de <= thr["conservation"], de,
                                  thr["conservation"]))
    extras = {}
    if state.n == 1 and cfg.perturbation.kind == "none":
        c, x0 = state.speeds[0], state.positions[0]
        moved = SolitonState((c,), (x0 + c * cfg.t_final,))
        exact = SolitonBasis(params, moved, grid).total
        err = l2_norm(Field(grid, holder["final"].values - exact))
        checks.append(CheckResult("propagation-error", err <= thr["propagation"],
                                  err, thr["propagation"]))
        extras["propagation_error"] = err

    if collector is not None:
        table = collector.table(traj)
    else:
        table = {"t": traj.times}
    table["mass"] = traj.mass
    table["energy"] = traj.energy
    write_series_csv(outdir / "series.csv", list(table.items()))
    if cfg.write_snapshots:
        write_snapshots(outdir / "snapshots.bin", params.p, grid, cfg.dt,
                        cfg.cadence, traj.times, traj.fields)
    return _report(cfg, checks, extras=extras)


def run_decompose(cfg: ExperimentConfig, outdir: Path) -> RunReport:
    params, grid, state = _build(cfg)
    u0 = _initial_field(cfg, params, grid, state)
    thr = thresholds_for(cfg)
    alpha = cfg.perturbation.amplitude

    dec = decompose(u0, state, params)
    checks = []
    if alpha > 0:
        dc = float(np.max(np.abs(dec.state.speed_array - np.asarray(cfg.speeds))))
        bound = thr["speed_recovery_factor"] * alpha
        checks.append(CheckResult("speed-recovery", dc <= bound, dc, bound))
    res = float(np.max(np.abs(dec.ortho_residuals)))
    checks.append(CheckResult("ortho-residual", res < thr["residual"], res,
                              thr["residual"], comparison="<"))

    # own-speed sensitivity of the profile overlap against its closed form
    J = ortho_jacobian(u0, dec.state, params)
    mp = profile_mass_constant(params.p)
    worst = 0.0
    diag_pairs = []
    for j, c in enumerate(dec.state.speeds):
        expected = -((5.0 - params.p) / (4.0 * (params.p - 1))) \
            * c ** ((7.0 - 3.0 * params.p) / (2.0 * (params.p - 1))) * mp
        got = J[2 * j, 2 * j]
        worst = max(worst, abs(got - expected) / abs(expected))
        diag_pairs.append({"speed": c, "value": got, "expected": expected})
    checks.append(CheckResult("jacobian-diagonal", worst <= thr["jacobian_diag_rel"],
                              worst, thr["jacobian_diag_rel"]))

    # peak-detection seeding must land in the same basin
    guess = initial_guess(u0, state.n, params)
    dec2 = decompose(u0, guess, params)
    agree = float(np.max(np.abs(dec2.state.speed_array - dec.state.speed_array)))
    checks.append(CheckResult("guess-free-agreement", agree <= thr["guess_agreement"],
                              agree, thr["guess_agreement"]))

    n = state.n
    pairs = [("t", [0.0])]
    pairs += [(f"c{j + 1}", [dec.state.speeds[j]]) for j in range(n)]
    pairs += [(f"x{j + 1}", [dec.state.positions[j]]) for j in range(n)]
    pairs += [("eps_l2", [l2_norm(dec.epsilon)]), ("eps_h1", [h1_norm(dec.epsilon)]),
              ("max_ortho_residual", [res]), ("newton_iterations", [float(dec.iterations)])]
    write_series_csv(outdir / "series.csv", pairs)
    extras = {"jacobian_diagonal": diag_pairs,
              "recovered_speeds": list(dec.state.speeds),
              "recovered_positions": list(dec.state.positions)}
    return _report(cfg, checks, extras=extras)


def run_spectrum(cfg: ExperimentConfig, outdir: Path) -> RunReport:
    params, grid, state = _build(cfg)
    thr = thresholds_for(cfg)
    w = PsiWeight(params.p, state.sigma0)
    res_c = constrained_spectrum(state, w, params, grid, constrained=True)
    res_u = constrained_spectrum(state, w, params, grid, constrained=False)
    checks = [
        CheckResult("constrained-positive", res_c.lambda_min > thr["lambda_min"],
                    res_c.lambda_min, thr["lambda_min"], comparison=">"),
        CheckResult("unconstrained-negative", res_u.lambda_min < 0.0,
                    res_u.lambda_min, 0.0, comparison="<"),
    ]
    write_spectral_certificate(outdir / "certificate.json", res_c, state, params,
                               grid, thr["lambda_min"])
    write_series_csv(outdir / "series.csv",
                     [("lambda_constrained", [res_c.lambda_min]),
                      ("lambda_unconstrained", [res_u.lambda_min])])
    return _report(cfg, checks, extras={"lambda_constrained": res_c.lambda_min,
                                        "lambda_unconstrained": res_u.lambda_min,
                                        "constraint_residuals": res_c.constraint_residuals,
                                        "eigen_residual_constrained": res_c.eigen_residual,
                                        "eigen_residual_unconstrained": res_u.eigen_residual,
                                        "matvecs_constrained": res_c.matvecs,
                                        "matvecs_unconstrained": res_u.matvecs})


def _sweep(cfg: ExperimentConfig, params, outdir: Path, key: str, limbs, build, measure):
    """Evolve every limb of a sweep as one stack and write series.csv.

    build(limb) gives the limb's (u0, collector) and measure(collector) its
    per-limb result. A GkdvError while building, evolving or measuring a limb
    becomes one failure record for it, with t_last when the evolution had
    started; the other limbs go on. Returns [(limb, collector, result)] for
    the completed limbs and the failure records, both in limb order. The
    series tables of the completed limbs are concatenated under a `key`
    column.
    """
    outcomes = []                                   # per limb: (u0, collector) or its error
    for limb in limbs:
        try:
            outcomes.append(build(limb))
        except GkdvError as exc:
            outcomes.append(exc)
    stack = [out for out in outcomes if not isinstance(out, GkdvError)]
    trajs = iter(evolve([u0 for u0, _ in stack], cfg.t_final, params, cfg.dt,
                        cadence=cfg.cadence, sponge=cfg.sponge,
                        observer=[c for _, c in stack], keep_fields=False))
    done, failures, columns = [], [], {}
    for limb, out in zip(limbs, outcomes):
        try:
            if isinstance(out, GkdvError):
                raise out
            collector, traj = out[1], next(trajs)
            if isinstance(traj, GkdvError):
                raise traj
            result = measure(collector)
        except GkdvError as exc:
            rec = {key: limb, "error": f"{type(exc).__name__}: {exc}"}
            if getattr(exc, "t_last", None) is not None:
                rec["t_last"] = exc.t_last
            failures.append(rec)
            continue
        done.append((limb, collector, result))
        table = collector.table(traj)
        for k, v in {key: np.full(table["t"].size, limb), **table}.items():
            columns.setdefault(k, []).append(v)
    if columns:
        write_series_csv(outdir / "series.csv",
                         [(k, np.concatenate(v)) for k, v in columns.items()])
    return done, failures


def _amplitude_limb(cfg: ExperimentConfig, params, grid, state, alpha: float):
    """Initial data and collector of one amplitude limb; alpha = 0 is the bare
    soliton sum."""
    if alpha > 0:
        acfg = cfg.with_updates(perturbation=replace(cfg.perturbation, amplitude=alpha))
        u0 = _initial_field(acfg, params, grid, state)
    else:
        u0 = soliton_sum(params, state, grid)
    return u0, DiagnosticsCollector(params, state, l_min=cfg.track.l_min, tol=cfg.track.tol)


def _sup_speed_drift(collector: DiagnosticsCollector) -> float:
    """sup over snapshots of the summed per-soliton speed deviation."""
    speeds = collector.speed_matrix
    finite = np.all(np.isfinite(speeds), axis=1)
    if not finite[0]:
        raise ParameterError("tracking failed at t=0; cannot measure speed drift")
    base = speeds[finite][0]
    return float(np.max(np.sum(np.abs(speeds[finite] - base), axis=1)))


def run_stability(cfg: ExperimentConfig, outdir: Path) -> RunReport:
    """Amplitude limbs at fixed geometry: the tracked distance to the
    frozen-speed soliton family must stay solver-small for the unperturbed
    limb and linearly bounded in the perturbation size for the others."""
    params, grid, state = _build(cfg)
    thr = thresholds_for(cfg)
    alphas = list(cfg.alphas) if cfg.alphas else [0.0, cfg.perturbation.amplitude]

    def measure(collector):
        return (float(np.nanmax(np.asarray(collector.dist_frozen))),
                _sup_speed_drift(collector))

    limbs, failures = _sweep(cfg, params, outdir, "alpha", alphas,
                             partial(_amplitude_limb, cfg, params, grid, state), measure)
    done = [alpha for alpha, _, _ in limbs]
    sup_dist, sup_dc = ([r[i] for _, _, r in limbs] for i in range(2))

    checks = []
    if alphas[0] == 0.0:
        if done and done[0] == 0.0:
            checks.append(CheckResult("baseline-distance",
                                      sup_dist[0] <= thr["baseline_sup"],
                                      sup_dist[0], thr["baseline_sup"],
                                      detail="unperturbed limb: solver error "
                                             "plus interaction tail only"))
        else:
            checks.append(CheckResult("baseline-distance", False, None,
                                      thr["baseline_sup"],
                                      detail="unperturbed limb failed"))
    ratios = [sup_dist[i] / a for i, a in enumerate(done) if a > 0]
    if ratios:
        worst = float(np.max(ratios))
        checks.append(CheckResult("distance-over-amplitude",
                                  worst <= thr["distance_over_alpha"], worst,
                                  thr["distance_over_alpha"],
                                  detail=f"per-limb ratios {['%.3f' % r for r in ratios]}"))
    else:
        checks.append(CheckResult("distance-over-amplitude", False, None,
                                  thr["distance_over_alpha"],
                                  detail="no perturbed limb completed"))
    if len(done) == len(alphas) and len(done) >= 2:
        drops = [sup_dist[i + 1] >= thr["monotone_frac"] * sup_dist[i]
                 for i in range(len(done) - 1)]
        frac = float(np.min([sup_dist[i + 1] / max(sup_dist[i], 1e-300)
                             for i in range(len(done) - 1)]))
        checks.append(CheckResult("distance-monotone-in-amplitude", all(drops),
                                  frac, thr["monotone_frac"], comparison=">=",
                                  detail=f"sup distances {['%.3e' % d for d in sup_dist]}"))
    else:
        checks.append(CheckResult("distance-monotone-in-amplitude", False,
                                  None, thr["monotone_frac"], comparison=">=",
                                  detail="failed limbs prevent the monotone sweep"))

    # the stability bound's fitted stand-in constant: sup distance against
    # alpha + exp(-gamma0 L) with L the initial gap
    gap = float(np.min(np.diff(state.position_array)))
    gamma0 = np.sqrt(state.sigma0) / 16.0
    tail = float(np.exp(-gamma0 * gap))
    a0_fit = (float(np.max([d / (a + tail) for d, a in zip(sup_dist, done)]))
              if done else None)
    extras = {"alphas": done, "sup_dist_frozen": sup_dist,
              "sup_speed_drift": sup_dc, "gamma0": gamma0,
              "gap": gap, "tail": tail, "A0_fit": a0_fit,
              "failures": failures}
    return _report(cfg, checks, extras=extras)


def run_monotonicity(cfg: ExperimentConfig, outdir: Path) -> RunReport:
    params = ModelParams(cfg.p)
    thr = thresholds_for(cfg)
    grid = cfg.grid.build()

    def build(sep):
        state = SolitonState(cfg.speeds, (-0.5 * sep, 0.5 * sep))
        return (_initial_field(cfg, params, grid, state),
                DiagnosticsCollector(params, state, l_min=cfg.track.l_min,
                                     tol=cfg.track.tol, y0=cfg.y0,
                                     ref_index=cfg.ref_index))

    def measure(collector):
        masses = collector.mass_matrix
        finite = np.all(np.isfinite(masses), axis=1)
        if not finite[0]:
            raise ParameterError("tracking failed at t=0; no baseline mass")
        return max(float(np.nanmax(masses[finite] - masses[finite][0])), 0.0)

    limbs, failures = _sweep(cfg, params, outdir, "separation", cfg.sweep_separations,
                             build, measure)
    seps = [sep for sep, _, _ in limbs]
    collectors = [collector for _, collector, _ in limbs]
    increases = [inc for _, _, inc in limbs]

    checks = []
    if not seps:
        checks.append(CheckResult("max-weighted-mass-increase", False, None,
                                  thr["max_increase"],
                                  detail="every separation failed"))
        return _report(cfg, checks, extras={"failures": failures})
    p_near = increases[0]
    p_far = increases[-1]
    checks.append(CheckResult("max-weighted-mass-increase",
                              p_near <= thr["max_increase"], p_near,
                              thr["max_increase"]))
    if len(seps) >= 2:
        ratio_bound = max(p_near / thr["ratio_min"], thr["increase_floor"])
        checks.append(CheckResult("increase-decays-with-separation",
                                  p_far <= ratio_bound, p_far, ratio_bound,
                                  detail=f"near-separation increase {p_near:.3e}"))
    else:
        checks.append(CheckResult("increase-decays-with-separation", False,
                                  None, None,
                                  detail="failed limbs prevent the separation sweep"))
    sigma0 = SolitonState(cfg.speeds, (0.0, seps[0])).sigma0
    anchor = float(np.exp(-np.sqrt(sigma0) * seps[0] / 8.0))
    k_fit = p_near / anchor
    checks.append(CheckResult("increase-bound-constant",
                              k_fit <= thr["bound_constant_max"], k_fit,
                              thr["bound_constant_max"],
                              detail=f"increase {p_near:.3e} against tail "
                                     f"anchor {anchor:.3e}"))

    # edge probes around the reference soliton: almost nonincreasing on the
    # right, almost nondecreasing on the left
    if cfg.y0 is not None:
        jl = np.asarray(collectors[0].j_left)
        jr = np.asarray(collectors[0].j_right)
        fin = np.isfinite(jl) & np.isfinite(jr)
        jr_up = float(np.max(jr[fin] - jr[fin][0]))
        jl_down = float(np.max(jl[fin][0] - jl[fin]))
        checks.append(CheckResult("right-probe-almost-nonincreasing",
                                  jr_up <= thr["probe_slack"], jr_up,
                                  thr["probe_slack"]))
        checks.append(CheckResult("left-probe-almost-nondecreasing",
                                  jl_down <= thr["probe_slack"], jl_down,
                                  thr["probe_slack"]))

    # fine-cadence identity verification at the smallest separation
    ident_cfg = cfg.with_updates(t_final=cfg.identity_t, cadence=cfg.identity_cadence)
    state = SolitonState(ident_cfg.speeds,
                         (-0.5 * cfg.sweep_separations[0], 0.5 * cfg.sweep_separations[0]))
    u0 = _initial_field(ident_cfg, params, grid, state)
    tight_tol = 1e-13 * l2_norm(u0)
    collector = DiagnosticsCollector(params, state, tol=tight_tol)
    evolve(u0, ident_cfg.t_final, params, ident_cfg.dt, cadence=ident_cfg.cadence,
           sponge=ident_cfg.sponge, observer=collector, keep_fields=False)
    times = np.asarray(collector.times)
    masses = collector.mass_matrix
    pos = collector.position_matrix
    mids = 0.5 * (pos[:, :-1] + pos[:, 1:])
    s1 = np.vstack(collector.s1)
    s2 = np.vstack(collector.s2)
    lhs = _fd4(times, masses)
    mdot = _fd4(times, mids)
    rhs = s1 - mdot * s2
    interior = slice(2, -2)
    err = np.max(np.abs(lhs[interior] - rhs[interior]))
    scale = max(np.max(np.abs(rhs[interior])), 1e-300)
    rel = float(err / scale)
    checks.append(CheckResult("rate-identity", rel <= thr["identity_rel"], rel,
                              thr["identity_rel"],
                              detail=f"sup |d/dt I - (S1 - mdot S2)| = {err:.3e} "
                                     f"against scale {scale:.3e}"))
    ident_pairs = [("t", times)]
    for i in range(masses.shape[1]):
        ident_pairs += [(f"I{i + 2}", masses[:, i]), (f"dIdt{i + 2}", lhs[:, i]),
                        (f"rhs{i + 2}", rhs[:, i])]
    write_series_csv(outdir / "identity.csv", ident_pairs)

    extras = {"separations": seps, "max_increases": increases,
              "bound_constant": k_fit, "tail_anchor": anchor,
              "identity_sup_error": err, "identity_scale": scale,
              "failures": failures}
    return _report(cfg, checks, extras=extras)


def run_quadratic_control(cfg: ExperimentConfig, outdir: Path) -> RunReport:
    params, grid, state = _build(cfg)
    thr = thresholds_for(cfg)

    def measure(collector):
        eps_series = np.asarray(collector.eps_h1)
        finite = eps_series[np.isfinite(eps_series)]
        return (_sup_speed_drift(collector), float(np.nanmax(eps_series)),
                float(finite[0]) if finite.size else float("nan"))

    limbs, failures = _sweep(cfg, params, outdir, "alpha", cfg.alphas,
                             partial(_amplitude_limb, cfg, params, grid, state), measure)
    done = [alpha for alpha, _, _ in limbs]
    sup_dc, sup_eps, eps0 = ([r[i] for _, _, r in limbs] for i in range(3))

    checks, fits = [], []
    usable = [i for i, v in enumerate(sup_dc) if v > thr["drift_floor"]]
    if len(usable) >= 3:
        xs = [eps0[i] for i in usable]
        ys = [sup_dc[i] for i in usable]
        slope, icpt = _log_slope(xs, ys)
        fits.append(FitResult("speed-drift-vs-remainder", slope, icpt, xs, ys))
        ok = thr["speed_slope_lo"] <= slope <= thr["speed_slope_hi"]
        checks.append(CheckResult("speed-drift-scaling", ok, slope,
                                  thr["speed_slope_lo"], comparison="in-range",
                                  detail=f"allowed [{thr['speed_slope_lo']}, "
                                         f"{thr['speed_slope_hi']}]"))
    else:
        checks.append(CheckResult("speed-drift-scaling", False, None, None,
                                  detail="fewer than 3 amplitudes produced speed "
                                         "drift above the measurement floor"))
    if len(done) >= 3:
        slope_e, icpt_e = _log_slope(done, sup_eps)
        fits.append(FitResult("h1-remainder-vs-amplitude", slope_e, icpt_e,
                              done, sup_eps))
        ok_e = thr["eps_slope_lo"] <= slope_e <= thr["eps_slope_hi"]
        checks.append(CheckResult("remainder-scaling", ok_e, slope_e,
                                  thr["eps_slope_lo"], comparison="in-range",
                                  detail=f"allowed [{thr['eps_slope_lo']}, "
                                         f"{thr['eps_slope_hi']}]"))
    else:
        checks.append(CheckResult("remainder-scaling", False, None, None,
                                  detail="fewer than 3 amplitudes completed"))
    extras = {"alphas": done, "sup_speed_drift": sup_dc,
              "sup_eps_h1": sup_eps, "eps_h1_initial": eps0,
              "failures": failures}
    return _report(cfg, checks, fits=fits, extras=extras)


def run_asymptotic(cfg: ExperimentConfig, outdir: Path) -> RunReport:
    params, grid, state = _build(cfg)
    thr = thresholds_for(cfg)
    u0 = _initial_field(cfg, params, grid, state)
    collector = DiagnosticsCollector(params, state, l_min=cfg.track.l_min,
                                     tol=cfg.track.tol, y0=cfg.y0,
                                     ref_index=cfg.ref_index)
    traj = evolve(u0, cfg.t_final, params, cfg.dt, cadence=cfg.cadence,
                  sponge=cfg.sponge, observer=collector, keep_fields=False)
    table = collector.table(traj)
    write_series_csv(outdir / "series.csv", list(table.items()))

    times = np.asarray(collector.times)
    speeds = collector.speed_matrix
    checks = []
    late = times >= 0.75 * cfg.t_final
    plateau = speeds[late]
    plateau = plateau[np.all(np.isfinite(plateau), axis=1)]
    if plateau.shape[0] < 8:
        checks.append(CheckResult("speed-plateau", False, None, thr["plateau_std"],
                                  detail="too few tracked snapshots in the final quarter"))
    else:
        worst = float(np.max(np.std(plateau, axis=0)))
        checks.append(CheckResult("speed-plateau", worst <= thr["plateau_std"],
                                  worst, thr["plateau_std"]))

    # trend test on the rightward-ray remainder mass: block-averaged, it must
    # be nonincreasing once past its transient peak and finish well below it
    ray = np.asarray(collector.eps_ray)
    edges = np.arange(0.0, cfg.t_final + 0.5 * thr["block_time"], thr["block_time"])
    blocks = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (times >= lo) & (times < hi) & np.isfinite(ray)
        blocks.append(float(np.mean(ray[sel])) if sel.any() else np.nan)
    blocks = np.asarray(blocks)
    if np.all(np.isfinite(blocks)) and blocks.size >= 4:
        peak_at = int(np.argmax(blocks))
        peak = float(blocks[peak_at])
        upticks = np.diff(blocks[peak_at:]) / peak
        worst_up = float(np.max(upticks)) if upticks.size else 0.0
        checks.append(CheckResult("ray-mass-nonincreasing",
                                  worst_up <= thr["block_slack"], worst_up,
                                  thr["block_slack"],
                                  detail=f"largest post-peak uptick over peak; "
                                         f"peak block {peak_at}"))
        final_frac = float(blocks[-1] / peak)
        checks.append(CheckResult("ray-mass-final-fraction",
                                  final_frac <= thr["final_fraction"],
                                  final_frac, thr["final_fraction"],
                                  detail=f"peak {peak:.3e}, final {blocks[-1]:.3e}"))
    else:
        checks.append(CheckResult("ray-mass-nonincreasing", False, None, None,
                                  detail="tracking gaps left empty averaging blocks"))

    # stronger localized diagnostic: the remainder norm on the half-line
    # moving with the slowest soliton. The raw edge probes (kept in the
    # series) never decay because the reference soliton's own mass leaks
    # through the ramp tail at a fixed offset; this windowed norm does.
    ea = np.asarray(collector.eps_ahead)
    sel = np.isfinite(ea)
    windows = np.array_split(ea[sel], 4)
    means = [float(np.mean(wd)) for wd in windows if wd.size]
    if len(means) == 4:
        bound = max(thr["contraction_factor"] * means[0], thr["contraction_floor"])
        checks.append(CheckResult("remainder-contraction", means[-1] <= bound,
                                  means[-1], bound,
                                  detail=f"window means {['%.3e' % v for v in means]}"))
    else:
        checks.append(CheckResult("remainder-contraction", False, None, None,
                                  detail="not enough tracked snapshots to form windows"))
    jl, jr = np.asarray(collector.j_left), np.asarray(collector.j_right)
    extras = {"ray_blocks": list(blocks), "window_means": means,
              "j_left_first_last": [float(jl[sel][0]), float(jl[sel][-1])] if sel.any() else [],
              "j_right_first_last": [float(jr[sel][0]), float(jr[sel][-1])] if sel.any() else [],
              "final_speeds": list(speeds[np.all(np.isfinite(speeds), axis=1)][-1])
              if np.any(np.all(np.isfinite(speeds), axis=1)) else []}
    return _report(cfg, checks, extras=extras)


def run_nsoliton(cfg: ExperimentConfig, outdir: Path) -> RunReport:
    params, grid, _ = _build(cfg)
    thr = thresholds_for(cfg)
    speeds = np.asarray(cfg.speeds)
    phases = np.asarray(cfg.positions)
    u0 = kdv_nsoliton_profile(cfg.speeds, cfg.positions, 0.0, grid, p=cfg.p)

    dists, times = [], []
    holder = {}

    def observer(t, u):
        ref = kdv_nsoliton_profile(cfg.speeds, cfg.positions, t, grid, p=cfg.p)
        dists.append(l2_norm(Field(grid, u.values - ref.values)))
        times.append(float(t))
        holder["final"] = u

    traj = evolve(u0, cfg.t_final, params, cfg.dt, cadence=cfg.cadence,
                  sponge=cfg.sponge, observer=observer, keep_fields=False)
    max_dist = float(np.max(dists))
    checks = [CheckResult("profile-distance", max_dist <= thr["l2_distance"],
                          max_dist, thr["l2_distance"])]

    # refit speeds and phase parameters against the evolved endpoint
    from scipy.optimize import least_squares

    u_final = holder["final"].values

    def residual(theta):
        c = np.sort(theta[: speeds.size])
        y = theta[speeds.size:]
        ref = kdv_nsoliton_profile(tuple(c), tuple(y), cfg.t_final, grid, p=cfg.p)
        return ref.values - u_final

    theta0 = np.concatenate([speeds, phases])
    lower = np.concatenate([np.full(speeds.size, 1e-6), np.full(phases.size, -np.inf)])
    upper = np.full(theta0.size, np.inf)
    sol = least_squares(residual, theta0, bounds=(lower, upper), xtol=1e-14,
                        ftol=1e-14, gtol=1e-14)
    c_fit = np.sort(sol.x[: speeds.size])
    dc = float(np.max(np.abs(c_fit - speeds)))
    checks.append(CheckResult("refit-speeds", dc <= thr["refit_speeds"], dc,
                              thr["refit_speeds"]))

    write_series_csv(outdir / "series.csv",
                     [("t", np.asarray(times)), ("l2_distance", np.asarray(dists)),
                      ("mass", traj.mass), ("energy", traj.energy)])
    extras = {"max_l2_distance": max_dist, "refit_speeds": list(c_fit),
              "refit_phases": list(sol.x[speeds.size:]),
              "final_l2_distance": dists[-1]}
    return _report(cfg, checks, extras=extras)


_DISPATCH = {
    "simulate": run_simulate,
    "decompose": run_decompose,
    "spectrum": run_spectrum,
    "stability": run_stability,
    "monotonicity": run_monotonicity,
    "quadratic-control": run_quadratic_control,
    "asymptotic": run_asymptotic,
    "nsoliton": run_nsoliton,
}


def execute(cfg: ExperimentConfig, outdir) -> RunReport:
    """Run one experiment family, writing series.csv and report.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report = _DISPATCH[cfg.family](cfg, outdir)
    write_report(outdir / "report.json", report)
    return report
