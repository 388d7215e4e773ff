"""Drivers for the experiment families.

Each driver builds initial data, evolves it while streaming per-snapshot
diagnostics and measures what its checks in config.CHECKS read. Drivers only
measure: each returns its results, fits and extras, and its artifacts keyed
by file name, series.csv (the full time series) plus any family-specific
file. execute() dispatches on the config family, builds the report and
writes every artifact and report.json, so a run that raises writes nothing.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from ..errors import (DecompositionFailureError, DegenerateConfigurationError,
                      GkdvError, ParameterError)
from ..functionals import (PsiWeight, constrained_spectrum,
                           linearized_energy_form, localized_mass_rate_terms,
                           localized_masses, midpoints)
from ..grid import Field
from ..modulation import decompose, initial_guess, ortho_jacobian
from ..profiles import (ModelParams, SolitonBasis, SolitonState,
                        kdv_nsoliton_profile, profile_mass_constant,
                        soliton_energy, soliton_sum)
from ..solver import Trajectory, evolve, h1_norm, l2_norm, l2_norm_right_of
from .config import CHECKS, ExperimentConfig, config_to_dict, interaction_tail, thresholds_for
from .perturbations import PerturbationConfig, make_perturbation

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
    """Least-squares line through (log x, log y); points keeps the raw x and y."""

    name: str
    slope: float
    intercept: float
    points: dict


@dataclass
class RunReport:
    family: str
    label: str
    passed: bool
    checks: list
    fits: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)


_COMPARE = {"<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt}


def _check(name: str, value, threshold, comparison: str = "<=", detail: str = "") -> CheckResult:
    """A check that passes when `value comparison threshold` holds; a None
    value (nothing could be measured) fails."""
    passed = value is not None and bool(_COMPARE[comparison](value, threshold))
    return CheckResult(name, passed, value, threshold, comparison, detail)


def _checks(cfg: ExperimentConfig, results: dict) -> list:
    """The report's checks from a driver's results, {name: (value, detail)}
    or, where CHECKS leaves the threshold to the run, {name: (value, detail,
    threshold)}: one per name, in CHECKS order, against its declared
    comparison and threshold. An in-range check reports its lo and, by
    default, its allowed range as detail. A None value fails, with the detail
    as its reason. A name CHECKS does not declare, or a run's threshold for a
    check whose threshold CHECKS declares, raises KeyError."""
    undeclared = set(results) - {name for name, _, _ in CHECKS[cfg.family]}
    if undeclared:
        raise KeyError(f"{cfg.family} declares no checks {sorted(undeclared)}")
    thr, checks = thresholds_for(cfg), []
    for name, comparison, key in (row for row in CHECKS[cfg.family] if row[0] in results):
        value, detail, derived = (*results[name], None)[:3]
        if derived is not None and key is not None:
            raise KeyError(f"{name} reads its declared threshold {key}, not the run's")
        if comparison == "in-range":
            lo, hi = thr[key[0]], thr[key[1]]
            checks.append(CheckResult(name, value is not None and lo <= value <= hi, value, lo,
                                      comparison, detail or f"allowed [{lo}, {hi}]"))
        else:
            checks.append(_check(name, value, derived if key is None else thr[key],
                                 comparison, detail))
    return checks


def _jsonable(o):
    """o with numpy values as Python ones and every NaN or infinity as None,
    so that the JSON artifacts are strict JSON."""
    if isinstance(o, (np.ndarray, np.generic)):
        o = o.tolist()
    if isinstance(o, dict):
        return {k: _jsonable(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_jsonable(v) for v in o]
    if isinstance(o, float) and (math.isnan(o) or math.isinf(o)):
        return None
    return o


def _write_json(path, payload) -> None:
    """payload as strict JSON with sorted keys, indented, newline-terminated."""
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_report(path, report: RunReport) -> None:
    """report.json: each field of the report, its checks and fits by name."""
    _write_json(path, asdict(report))


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

# scalar entries of a collector row, in series.csv order: those of every
# tracked snapshot, the edge probes (written only with y0), and the energies
_TRACKED = ("eps_l2", "eps_h1", "eps_l2_ray", "dist_frozen_h1",
            "max_ortho_residual", "newton_iterations")
_PROBES = ("j_left", "j_right", "eps_h1_ahead")
_ENERGIES = ("soliton_energy_sum", "half_energy_hessian")
TRACKED, SKIPPED, FAILED = 0, 1, 2  # snapshot status; FAILED holds from the first failure on


class TrackingGapError(GkdvError):
    """A check's window holds no value where it needs one."""


class DiagnosticsCollector:
    """Observer for evolve(): tracks the modulation state and records, per
    snapshot, the remainder norms (global, on the rightward ray, and in the
    co-moving half-line), the distance to the frozen-speed soliton family,
    weighted masses with their rate-identity integrands, and edge probes.
    Conserved-quantity drift comes from the trajectory, in table().

    Each snapshot's decomposition is seeded with the last decomposed state
    advanced ballistically to its time. A seed whose smallest gap is below
    l_min is SKIPPED; from the first failed decomposition on, every snapshot
    is FAILED.

    rows holds one dict per snapshot: its time "t" and "status", the vectors
    "c", "x" (per soliton), "I", "S1", "S2" (per midpoint) and the scalar
    series under their series.csv names. Every entry starts NaN; a tracked
    snapshot overwrites what it measures. Checks read them through tracked()."""

    def __init__(self, params: ModelParams, state0: SolitonState, *,
                 l_min: float = 0.0, tol: float | None = None,
                 y0: float | None = None, ref_index: int | None = None):
        self.params = params
        self.l_min = float(l_min)
        self.tol = tol
        self.weight = PsiWeight(params.p, state0.sigma0)
        self._last = (0.0, state0)   # time and state of the last decomposition
        self._failure = None         # (t, error) of the first failed one
        self.y0 = y0
        self.ref_index = ref_index
        self.frozen_speeds = state0.speed_array.copy()
        # lab-frame ray x > x_min(0) + c_min(0) t / 10: solitons outrun it,
        # radiation falls behind it
        self.ray_origin = float(np.min(state0.position_array))
        self.ray_speed = 0.1 * float(np.min(state0.speed_array))
        n, m = state0.n, max(state0.n - 1, 0)
        self._template = {
            "status": TRACKED, "c": np.full(n, np.nan), "x": np.full(n, np.nan),
            **dict.fromkeys(_TRACKED + _PROBES + _ENERGIES, np.nan),
            "I": np.full(m, np.nan), "S1": np.full(m, np.nan), "S2": np.full(m, np.nan)}
        self.rows = []

    def __call__(self, t: float, u: Field) -> None:
        row = {"t": float(t), **self._template}
        self.rows.append(row)
        if self._failure is not None:
            row["status"] = FAILED
            return
        t_last, last = self._last
        x = last.position_array + last.speed_array * (t - t_last)
        if x.size > 1 and self.l_min > 0.0 and float(np.min(np.diff(np.sort(x)))) < self.l_min:
            row["status"] = SKIPPED
            return
        try:
            dec = decompose(u, SolitonState(last.speeds, tuple(x)), self.params, tol=self.tol)
        except (DecompositionFailureError, DegenerateConfigurationError) as exc:
            self._failure = (float(t), exc)
            row["status"] = FAILED
            return
        self._last = (float(t), dec.state)
        st, eps = dec.state, dec.epsilon
        # frozen-speed profiles at the tracked positions, on the same offsets
        frozen = dec.basis.rows(0, speeds=self.frozen_speeds).sum(axis=0)
        row.update({
            "c": st.speed_array, "x": st.position_array,
            "eps_l2": l2_norm(eps), "eps_h1": h1_norm(eps),
            "eps_l2_ray": l2_norm_right_of(eps, self.ray_origin + self.ray_speed * t),
            "dist_frozen_h1": h1_norm(Field(u.grid, u.values - frozen)),
            "max_ortho_residual": float(np.max(np.abs(dec.ortho_residuals))),
            "newton_iterations": float(dec.iterations),
            "soliton_energy_sum": sum(soliton_energy(self.params.p, c) for c in st.speeds),
            "half_energy_hessian": 0.5 * linearized_energy_form(eps, dec.basis)})
        if self.y0 is not None:
            # remainder norm in the half-line moving with the leftmost
            # soliton; radiation drops out of this window as it lags behind
            wts = self.weight.psi(u.grid.x - (float(np.min(st.position_array)) - self.y0))
            ev, ex = eps.values, eps.dx
            row["eps_h1_ahead"] = float(np.sqrt(u.grid.spacing
                                                * np.sum((ev * ev + ex * ex) * wts)))
        if np.all(np.diff(st.position_array) > 0):
            masses, j_left, j_right = localized_masses(u, st, self.weight, self.y0,
                                                       self.ref_index)
            rates = [localized_mass_rate_terms(u, m, self.weight, self.params)
                     for m in midpoints(st)]
            row.update({"I": masses, "S1": np.array([r[0] for r in rates]),
                        "S2": np.array([r[1] for r in rates])})
            if self.y0 is not None:
                row.update({"j_left": j_left, "j_right": j_right})

    def tracked(self, key: str, t_from: float = 0.0, baseline: bool = False):
        """Times and values of `key` at the tracked snapshots from t_from on,
        the one way a check reads a tracked series; skipped snapshots are left
        out. Raises TrackingGapError, naming the time, when a snapshot in the
        window failed, when a tracked one has no finite value (I, S1, S2 and
        the probes need ordered positions) or, with baseline, when the
        window's first snapshot was skipped."""
        rows = [row for row in self.rows if row["t"] >= t_from]
        if any(row["status"] == FAILED for row in rows):
            raise TrackingGapError(f"tracker failed at t={self.tracking()['t_failed']:g}")
        if baseline and rows[0]["status"] == SKIPPED:
            raise TrackingGapError(f"t={rows[0]['t']:g} was skipped: no baseline {key}")
        rows = [row for row in rows if row["status"] == TRACKED]
        gaps = [row["t"] for row in rows if not np.all(np.isfinite(row[key]))]
        if gaps:
            raise TrackingGapError(f"no finite {key} at the tracked snapshot t={gaps[0]:g}")
        return (np.array([row["t"] for row in rows]),
                np.array([row[key] for row in rows], dtype=np.float64))

    def table(self, traj: Trajectory) -> dict:
        """Series columns; traj is the evolution this collector observed."""
        def column(key):  # (T,) for a scalar, (T, k) for "c", "x", "I", "S1", "S2"
            return np.array([row[key] for row in self.rows], dtype=np.float64)
        out = {"t": column("t"), "status": column("status")}
        for key in ("c", "x"):
            for j, col in enumerate(column(key).T, start=1):
                out[f"{key}{j}"] = col
        for key in _TRACKED:
            out[key] = column(key)
        out["mass_drift"], out["energy_drift"] = traj.drift_series()
        masses, s1, s2 = (column(key) for key in ("I", "S1", "S2"))
        for i in range(masses.shape[1]):
            for name, series in (("I", masses), ("S1_", s1), ("S2_", s2)):
                out[f"{name}{i + 2}"] = series[:, i]
        for key in (_PROBES if self.y0 is not None else ()) + _ENERGIES:
            out[key] = column(key)
        return out

    def tracking(self) -> dict:
        """Time and "<ErrorType>: <message>" of the first snapshot whose
        decomposition failed; None for both when none failed."""
        if self._failure is None:
            return {"t_failed": None, "error": None}
        t, exc = self._failure
        return {"t_failed": t, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# shared helpers

def _build(cfg: ExperimentConfig):
    params = ModelParams(cfg.p)
    grid = cfg.grid.build()
    state = SolitonState(cfg.speeds, cfg.positions)
    return params, grid, state


def _collector(cfg: ExperimentConfig, params, state) -> DiagnosticsCollector:
    """The collector of a tracked run from state, with the config's tracking
    settings and edge probes."""
    return DiagnosticsCollector(params, state, l_min=cfg.track.l_min,
                                y0=cfg.y0, ref_index=cfg.ref_index)


def _initial_field(perturbation: PerturbationConfig, params, grid, state) -> Field:
    base = soliton_sum(params, state, grid)
    pert = make_perturbation(perturbation, grid, state)
    return Field(grid, base.values + pert.values)


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

def run_simulate(cfg: ExperimentConfig):
    params, grid, state = _build(cfg)
    u0 = _initial_field(cfg.perturbation, params, grid, state)
    collector = _collector(cfg, params, state) if cfg.track.enabled else None
    traj = evolve(u0, cfg.t_final, params, cfg.dt, cadence=cfg.cadence,
                  sponge=cfg.sponge, observer=collector,
                  keep_fields=cfg.write_snapshots)

    results, extras = {}, {}
    if not cfg.sponge.enabled:
        dm, de = traj.relative_drift()
        results.update({"mass-drift": (dm, ""), "energy-drift": (de, "")})
    if state.n == 1 and cfg.perturbation.kind == "none":
        c, x0 = state.speeds[0], state.positions[0]
        moved = SolitonState((c,), (x0 + c * cfg.t_final,))
        exact = SolitonBasis(params, moved, grid).total
        err = l2_norm(Field(grid, traj.final.values - exact))
        results["propagation-error"] = (err, "")
        extras["propagation_error"] = err

    if collector is not None:
        table = collector.table(traj)
        extras["tracking"] = collector.tracking()
    else:
        table = {"t": traj.times}
    table["mass"] = traj.mass
    table["energy"] = traj.energy
    artifacts = {"series.csv": list(table.items())}
    if cfg.write_snapshots:
        artifacts["snapshots.npz"] = dict(
            t=traj.times, u=np.array([f.values for f in traj.fields]), p=params.p,
            n=grid.n, length=grid.length, x0=grid.x0, dt=cfg.dt, cadence=cfg.cadence)
    return results, [], extras, artifacts


def run_decompose(cfg: ExperimentConfig):
    params, grid, state = _build(cfg)
    u0 = _initial_field(cfg.perturbation, params, grid, state)
    thr = thresholds_for(cfg)
    alpha = cfg.perturbation.amplitude

    dec = decompose(u0, state, params)
    results = {}
    if alpha > 0:
        dc = float(np.max(np.abs(dec.state.speed_array - np.asarray(cfg.speeds))))
        results["speed-recovery"] = (dc, "", thr["speed_recovery_factor"] * alpha)
    res = float(np.max(np.abs(dec.ortho_residuals)))
    results["ortho-residual"] = (res, "")

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
    results["jacobian-diagonal"] = (worst, "")

    # peak-detection seeding must land in the same basin
    guess = initial_guess(u0, state.n, params)
    dec2 = decompose(u0, guess, params)
    agree = float(np.max(np.abs(dec2.state.speed_array - dec.state.speed_array)))
    results["guess-free-agreement"] = (agree, "")

    n = state.n
    pairs = [("t", [0.0])]
    pairs += [(f"c{j + 1}", [dec.state.speeds[j]]) for j in range(n)]
    pairs += [(f"x{j + 1}", [dec.state.positions[j]]) for j in range(n)]
    pairs += [("eps_l2", [l2_norm(dec.epsilon)]), ("eps_h1", [h1_norm(dec.epsilon)]),
              ("max_ortho_residual", [res]), ("newton_iterations", [float(dec.iterations)])]
    extras = {"jacobian_diagonal": diag_pairs,
              "recovered_speeds": list(dec.state.speeds),
              "recovered_positions": list(dec.state.positions)}
    return results, [], extras, {"series.csv": pairs}


def run_spectrum(cfg: ExperimentConfig):
    params, grid, state = _build(cfg)
    w = PsiWeight(params.p, state.sigma0)
    res_c = constrained_spectrum(state, w, params, grid, constrained=True)
    res_u = constrained_spectrum(state, w, params, grid, constrained=False)
    certificate = {
        "p": params.p, "N": state.n, "speeds": state.speeds,
        "separations": np.diff(state.position_array), "lambda_min": res_c.lambda_min,
        "constrained": True, "constraint_residuals": res_c.constraint_residuals,
        "eigen_residual": res_c.eigen_residual, "matvecs": res_c.matvecs,
        "grid": {"n": grid.n, "length": grid.length, "x0": grid.x0},
        "tolerance": thresholds_for(cfg)["lambda_min"]}
    series = [("lambda_constrained", [res_c.lambda_min]),
              ("lambda_unconstrained", [res_u.lambda_min])]
    results = {"constrained-positive": (res_c.lambda_min, ""),
               "unconstrained-negative": (res_u.lambda_min, "", 0.0)}
    extras = {"lambda_constrained": res_c.lambda_min,
              "lambda_unconstrained": res_u.lambda_min,
              "constraint_residuals": res_c.constraint_residuals,
              "eigen_residual_constrained": res_c.eigen_residual,
              "eigen_residual_unconstrained": res_u.eigen_residual,
              "matvecs_constrained": res_c.matvecs,
              "matvecs_unconstrained": res_u.matvecs}
    return results, [], extras, {"certificate.json": certificate, "series.csv": series}


def _sweep(cfg: ExperimentConfig, params, key: str, limbs, build, measure):
    """Evolve every limb of a sweep as one stack.

    build(limb) gives the limb's (u0, collector) and measure(collector) its
    per-limb result. A GkdvError while building, evolving or measuring a limb
    becomes one failure record for it, with t_last when the evolution had
    started; so does a tracker failure, with its t_failed. The other limbs go
    on. Returns [(limb, collector, result)] for the measured limbs, and the
    report extras "failures" (the failure records) and "tracking" (each
    evolved limb's tracker failure, see DiagnosticsCollector.tracking), both
    in limb order, and the artifacts: the series tables of the evolved limbs
    concatenated under a `key` column as series.csv, when any limb evolved.
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
    done, extras, columns = [], {"failures": [], "tracking": []}, {}
    for limb, out in zip(limbs, outcomes):
        try:
            if isinstance(out, GkdvError):
                raise out
            collector, traj = out[1], next(trajs)
            if isinstance(traj, GkdvError):
                raise traj
            tracking = {key: limb, **collector.tracking()}
            # a limb whose tracker failed is not measured: its checks would
            # read only the snapshots before the failure
            result = measure(collector) if tracking["t_failed"] is None else None
        except GkdvError as exc:
            rec = {key: limb, "error": f"{type(exc).__name__}: {exc}"}
            if getattr(exc, "t_last", None) is not None:
                rec["t_last"] = exc.t_last
            extras["failures"].append(rec)
            continue
        extras["tracking"].append(tracking)
        if tracking["t_failed"] is None:
            done.append((limb, collector, result))
        else:
            extras["failures"].append(dict(tracking))
        table = collector.table(traj)
        for k, v in {key: np.full(table["t"].size, limb), **table}.items():
            columns.setdefault(k, []).append(v)
    series = [(k, np.concatenate(v)) for k, v in columns.items()]
    return done, extras, {"series.csv": series} if series else {}


def _amplitude_limb(cfg: ExperimentConfig, params, grid, state, alpha: float):
    """Initial data and collector of one amplitude limb; alpha = 0 is the bare
    soliton sum."""
    u0 = (soliton_sum(params, state, grid) if alpha == 0 else
          _initial_field(replace(cfg.perturbation, amplitude=alpha), params, grid, state))
    return u0, _collector(cfg, params, state)


def _sup_speed_drift(collector: DiagnosticsCollector) -> float:
    """sup over tracked snapshots of the summed speed deviation from t = 0."""
    speeds = collector.tracked("c", baseline=True)[1]
    return float(np.max(np.sum(np.abs(speeds - speeds[0]), axis=1)))


def run_stability(cfg: ExperimentConfig):
    """Amplitude limbs at fixed geometry: the tracked distance to the
    frozen-speed soliton family must stay solver-small for the unperturbed
    limb and linearly bounded in the perturbation size for the others."""
    params, grid, state = _build(cfg)
    alphas = list(cfg.alphas) if cfg.alphas else [0.0, cfg.perturbation.amplitude]

    def measure(collector):
        return (float(np.max(collector.tracked("dist_frozen_h1")[1])),
                _sup_speed_drift(collector))

    limbs, records, artifacts = _sweep(cfg, params, "alpha", alphas,
                                       partial(_amplitude_limb, cfg, params, grid, state),
                                       measure)
    done = [alpha for alpha, _, _ in limbs]
    sup_dist, sup_dc = ([r[i] for _, _, r in limbs] for i in range(2))

    results = {}
    if alphas[0] == 0.0:
        results["baseline-distance"] = (
            (sup_dist[0], "unperturbed limb: solver error plus interaction tail only")
            if done and done[0] == 0.0 else (None, "unperturbed limb failed"))
    ratios = [sup_dist[i] / a for i, a in enumerate(done) if a > 0]
    results["distance-over-amplitude"] = (
        (float(np.max(ratios)), f"per-limb ratios {['%.3f' % r for r in ratios]}")
        if ratios else (None, "no perturbed limb completed"))
    if len(done) == len(alphas) and len(done) >= 2:
        frac = float(np.min([sup_dist[i + 1] / max(sup_dist[i], 1e-300)
                             for i in range(len(done) - 1)]))
        results["distance-monotone-in-amplitude"] = (
            frac, f"sup distances {['%.3e' % d for d in sup_dist]}")
    else:
        results["distance-monotone-in-amplitude"] = (
            None, "failed limbs prevent the monotone sweep")

    # the stability bound's fitted stand-in constant: sup distance against
    # alpha + exp(-gamma0 L) with L the initial gap
    gap = float(np.min(np.diff(state.position_array)))
    gamma0, tail = interaction_tail(state.speeds, gap)
    a0_fit = (float(np.max([d / (a + tail) for d, a in zip(sup_dist, done)]))
              if done else None)
    extras = {"alphas": done, "sup_dist_frozen": sup_dist,
              "sup_speed_drift": sup_dc, "gamma0": gamma0,
              "gap": gap, "tail": tail, "A0_fit": a0_fit, **records}
    return results, [], extras, artifacts


def run_monotonicity(cfg: ExperimentConfig):
    params = ModelParams(cfg.p)
    thr = thresholds_for(cfg)
    grid = cfg.grid.build()

    def build(sep):
        state = SolitonState(cfg.speeds, (-0.5 * sep, 0.5 * sep))
        return _initial_field(cfg.perturbation, params, grid, state), _collector(cfg, params, state)

    def measure(collector):
        # the largest mass increase; with y0, the right probe's rise and the left one's fall
        masses = collector.tracked("I", baseline=True)[1]
        increase = max(float(np.max(masses - masses[0])), 0.0)
        if cfg.y0 is None:
            return increase, None
        jl, jr = (collector.tracked(key, baseline=True)[1] for key in ("j_left", "j_right"))
        return increase, (float(np.max(jr - jr[0])), float(np.max(jl[0] - jl)))

    limbs, records, artifacts = _sweep(cfg, params, "separation", cfg.sweep_separations,
                                       build, measure)
    seps = [sep for sep, _, _ in limbs]
    increases = [inc for _, _, (inc, _) in limbs]

    # the near-separation checks read the smallest configured separation only
    near = cfg.sweep_separations[0]
    sigma0 = SolitonState(cfg.speeds, (0.0, near)).sigma0
    anchor = float(np.exp(-np.sqrt(sigma0) * near / 8.0))
    if not seps or seps[0] != near:
        k_fit = None
        results = {name: (None, f"separation {near:g} failed") for name, _, _ in CHECKS[cfg.family]
                   if name != "rate-identity" and (cfg.y0 is not None or "probe" not in name)}
    else:
        p_near, p_far = increases[0], increases[-1]
        k_fit = p_near / anchor
        decay = ((p_far, f"near-separation increase {p_near:.3e}") if len(seps) >= 2
                 else (None, "failed limbs prevent the separation sweep"))
        results = {"max-weighted-mass-increase": (p_near, ""),
                   "increase-decays-with-separation":
                       (*decay, max(p_near / thr["ratio_min"], thr["increase_floor"])),
                   "increase-bound-constant":
                       (k_fit, f"increase {p_near:.3e} against tail anchor {anchor:.3e}")}
        # edge probes around the reference soliton: almost nonincreasing on
        # the right, almost nondecreasing on the left
        if cfg.y0 is not None:
            rise, fall = limbs[0][2][1]
            results.update({"right-probe-almost-nonincreasing": (rise, ""),
                            "left-probe-almost-nondecreasing": (fall, "")})

    # fine-cadence identity verification at the smallest separation; its
    # collector skips nothing, so the tracked rows are the whole time lattice
    state = SolitonState(cfg.speeds, (-0.5 * near, 0.5 * near))
    u0 = _initial_field(cfg.perturbation, params, grid, state)
    collector = DiagnosticsCollector(params, state, tol=1e-13 * l2_norm(u0))
    evolve(u0, cfg.identity_t, params, cfg.dt, cadence=cfg.identity_cadence,
           sponge=cfg.sponge, observer=collector, keep_fields=False)
    try:
        times, masses = collector.tracked("I")
        pos, s1, s2 = (collector.tracked(key)[1] for key in ("x", "S1", "S2"))
    except TrackingGapError as exc:
        results["rate-identity"] = (None, str(exc))
        err = scale = None
    else:
        mids = 0.5 * (pos[:, :-1] + pos[:, 1:])
        lhs = _fd4(times, masses)
        mdot = _fd4(times, mids)
        rhs = s1 - mdot * s2
        interior = slice(2, -2)
        err = np.max(np.abs(lhs[interior] - rhs[interior]))
        scale = max(np.max(np.abs(rhs[interior])), 1e-300)
        results["rate-identity"] = (float(err / scale), f"sup |d/dt I - (S1 - mdot S2)| = "
                                                        f"{err:.3e} against scale {scale:.3e}")
        ident_pairs = [("t", times)]
        for i in range(masses.shape[1]):
            ident_pairs += [(f"I{i + 2}", masses[:, i]), (f"dIdt{i + 2}", lhs[:, i]),
                            (f"rhs{i + 2}", rhs[:, i])]
        artifacts["identity.csv"] = ident_pairs

    extras = {"separations": seps, "max_increases": increases,
              "bound_constant": k_fit, "tail_anchor": anchor,
              "identity_sup_error": err, "identity_scale": scale, **records}
    return results, [], extras, artifacts


def run_quadratic_control(cfg: ExperimentConfig):
    params, grid, state = _build(cfg)
    thr = thresholds_for(cfg)

    def measure(collector):
        eps_series = collector.tracked("eps_h1", baseline=True)[1]
        return (_sup_speed_drift(collector), float(np.max(eps_series)), float(eps_series[0]))

    limbs, records, artifacts = _sweep(cfg, params, "alpha", cfg.alphas,
                                       partial(_amplitude_limb, cfg, params, grid, state),
                                       measure)
    done = [alpha for alpha, _, _ in limbs]
    sup_dc, sup_eps, eps0 = ([r[i] for _, _, r in limbs] for i in range(3))

    results, fits = {}, []
    usable = [i for i, v in enumerate(sup_dc) if v > thr["drift_floor"]]
    if len(usable) >= 3:
        xs = [eps0[i] for i in usable]
        ys = [sup_dc[i] for i in usable]
        slope, icpt = _log_slope(xs, ys)
        fits.append(FitResult("speed-drift-vs-remainder", slope, icpt, {"x": xs, "y": ys}))
        results["speed-drift-scaling"] = (slope, "")
    else:
        results["speed-drift-scaling"] = (None, "fewer than 3 amplitudes produced speed "
                                                "drift above the measurement floor")
    if len(done) >= 3:
        slope_e, icpt_e = _log_slope(done, sup_eps)
        fits.append(FitResult("h1-remainder-vs-amplitude", slope_e, icpt_e,
                              {"x": done, "y": sup_eps}))
        results["remainder-scaling"] = (slope_e, "")
    else:
        results["remainder-scaling"] = (None, "fewer than 3 amplitudes completed")
    extras = {"alphas": done, "sup_speed_drift": sup_dc,
              "sup_eps_h1": sup_eps, "eps_h1_initial": eps0, **records}
    return results, fits, extras, artifacts


def run_asymptotic(cfg: ExperimentConfig):
    params, grid, state = _build(cfg)
    thr = thresholds_for(cfg)
    u0 = _initial_field(cfg.perturbation, params, grid, state)
    collector = _collector(cfg, params, state)
    traj = evolve(u0, cfg.t_final, params, cfg.dt, cadence=cfg.cadence,
                  sponge=cfg.sponge, observer=collector, keep_fields=False)
    artifacts = {"series.csv": list(collector.table(traj).items())}
    try:
        plateau = collector.tracked("c", 0.75 * cfg.t_final)[1]
        times, ray = collector.tracked("eps_l2_ray")
        ea, jl, jr, speeds = (collector.tracked(key)[1]
                              for key in ("eps_h1_ahead", "j_left", "j_right", "c"))
    except TrackingGapError as exc:
        results = {name: (None, str(exc)) for name, _, _ in CHECKS[cfg.family]}
        return results, [], {"tracking": collector.tracking()}, artifacts

    results = {"speed-plateau": (None, "too few tracked snapshots in the final quarter")
               if plateau.shape[0] < 8 else (float(np.max(np.std(plateau, axis=0))), "")}

    # trend test on the rightward-ray remainder mass: block-averaged, it must
    # be nonincreasing once past its transient peak and finish well below it
    edges = np.arange(0.0, cfg.t_final + 0.5 * thr["block_time"], thr["block_time"])
    blocks = [ray[(times >= lo) & (times < hi)] for lo, hi in zip(edges[:-1], edges[1:])]
    blocks = [float(np.mean(b)) if b.size else None for b in blocks]
    if None not in blocks and len(blocks) >= 4:
        peak_at = int(np.argmax(blocks))
        peak = blocks[peak_at]
        upticks = np.diff(blocks[peak_at:]) / peak
        results["ray-mass-nonincreasing"] = (float(np.max(upticks)) if upticks.size else 0.0,
                                             f"largest post-peak uptick over peak; "
                                             f"peak block {peak_at}")
        results["ray-mass-final-fraction"] = (float(blocks[-1] / peak),
                                              f"peak {peak:.3e}, final {blocks[-1]:.3e}")
    else:
        detail = (f"{len(blocks)} averaging blocks, {blocks.count(None)} of them empty; "
                  f"the trend test needs at least 4, none empty")
        results.update(dict.fromkeys(("ray-mass-nonincreasing", "ray-mass-final-fraction"),
                                     (None, detail)))

    # stronger localized diagnostic: the remainder norm on the half-line
    # moving with the slowest soliton. The raw edge probes (kept in the
    # series) never decay because the reference soliton's own mass leaks
    # through the ramp tail at a fixed offset; this windowed norm does.
    means = [float(np.mean(wd)) for wd in np.array_split(ea, 4) if wd.size]
    if len(means) == 4:
        results["remainder-contraction"] = (
            means[-1], f"window means {['%.3e' % v for v in means]}",
            max(thr["contraction_factor"] * means[0], thr["contraction_floor"]))
    else:
        results["remainder-contraction"] = (None, "not enough tracked snapshots to form windows")
    extras = {"ray_blocks": blocks, "window_means": means,
              "tracking": collector.tracking(),
              "j_left_first_last": [float(jl[0]), float(jl[-1])] if jl.size else [],
              "j_right_first_last": [float(jr[0]), float(jr[-1])] if jr.size else [],
              "final_speeds": list(speeds[-1]) if speeds.size else []}
    return results, [], extras, artifacts


def run_nsoliton(cfg: ExperimentConfig):
    params, grid, state = _build(cfg)
    u0 = kdv_nsoliton_profile(state, 0.0, grid, p=cfg.p)

    dists = []

    def observer(t, u):
        ref = kdv_nsoliton_profile(state, t, grid, p=cfg.p)
        dists.append(l2_norm(Field(grid, u.values - ref.values)))

    traj = evolve(u0, cfg.t_final, params, cfg.dt, cadence=cfg.cadence,
                  sponge=cfg.sponge, observer=observer, keep_fields=False)
    max_dist = float(np.max(dists))
    results = {"profile-distance": (max_dist, "")}

    # refit the speeds at the evolved endpoint, seeded by peak detection
    fit = decompose(traj.final, initial_guess(traj.final, len(cfg.speeds), params), params).state
    dc = float(np.max(np.abs(np.sort(fit.speed_array) - np.sort(cfg.speeds))))
    results["refit-speeds"] = (dc, "")

    series = [("t", traj.times), ("l2_distance", np.asarray(dists)),
              ("mass", traj.mass), ("energy", traj.energy)]
    extras = {"max_l2_distance": max_dist, "refit_speeds": list(fit.speeds),
              "refit_positions": list(fit.positions), "final_l2_distance": dists[-1]}
    return results, [], extras, {"series.csv": series}


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
    """Run one experiment family and write its artifacts, each by its
    suffix (.csv series, .json strict JSON, .npz numpy archive), and then
    report.json into outdir. Only here are files written: a run that raises
    leaves no artifact of its own."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results, fits, extras, artifacts = _DISPATCH[cfg.family](cfg)
    checks = _checks(cfg, results)
    report = RunReport(family=cfg.family, label=cfg.label,
                       passed=all(c.passed for c in checks), checks=checks,
                       fits=fits, extras=extras, config=config_to_dict(cfg))
    for name, payload in artifacts.items():
        if name.endswith(".csv"):
            write_series_csv(outdir / name, payload)
        elif name.endswith(".json"):
            _write_json(outdir / name, payload)
        else:
            np.savez(outdir / name, **payload)
    write_report(outdir / "report.json", report)
    return report
