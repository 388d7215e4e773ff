"""Workloads of the gkdv benchmark and the checks on their outputs.

A workload is a fixed list of operations. An operation is one
``gkdv.harness.execute()`` call on a config this module builds, followed by
its check. The seed moves soliton positions and perturbation centres by a few
units; it never changes the physics parameters, grid sizes, step counts or
thresholds, so every seed does the same amount of work.

The checks read only the files an operation writes (``report.json``,
``series.csv``, ``certificate.json``) and use numpy alone. They recompute
what they can from first principles (closed-form soliton masses, travelling
positions, the exact ground-state eigenvalue 1 - p, the localized-mass rate
identity) instead of comparing against a stored copy of an earlier output.
Each check returns ``(measures, failures)``: the measured quantities by name,
and one message per violated property.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Operation:
    name: str
    config: dict      # keyword arguments of gkdv.harness.ExperimentConfig
    check: Callable   # (outdir, config) -> (measures, failures)


def read_series(path) -> dict:
    """Columns of a series.csv written by the harness, as float arrays."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: {data.shape[1]} columns under {len(names)} names")
    return {name: data[:, i] for i, name in enumerate(names)}


def fd4(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fourth-order centred first derivative on a uniform grid; NaN at the
    two points next to each end."""
    step = float(t[1] - t[0])
    out = np.full(y.shape, np.nan)
    out[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * step)
    return out


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The seeded generator of one workload; any integer seed, negative too."""
    return np.random.default_rng([seed % 2**64, stream])


def _fail_if(failures: list, bad: bool, message: str) -> None:
    if bad:
        failures.append(message)


def _snapshot_count(cfg: dict) -> int:
    return int(round(cfg["t_final"] / cfg["cadence"])) + 1


def _travel_errors(series: dict, rows, cfg: dict):
    """Largest |c_j(t) - c_j| and |x_j(t) - x_j(0) - c_j t| over the rows,
    against the configured speeds and positions."""
    t = series["t"][rows]
    dc = dx = 0.0
    for j, (c, x0) in enumerate(zip(cfg["speeds"], cfg["positions"]), start=1):
        dc = max(dc, float(np.max(np.abs(series[f"c{j}"][rows] - c))))
        dx = max(dx, float(np.max(np.abs(series[f"x{j}"][rows] - x0 - c * t))))
    return dc, dx


def _passed_checks(report: dict, expected: tuple, failures: list) -> None:
    names = tuple(c["name"] for c in report["checks"])
    _fail_if(failures, names != expected,
             f"report checks {names}, expected {expected}")
    for c in report["checks"]:
        _fail_if(failures, not c["passed"],
                 f"report check {c['name']} failed: value {c['value']} "
                 f"against {c['threshold']}")
    _fail_if(failures, not report["passed"], "report.passed is false")


# ---------------------------------------------------------------------------
# limb-sweep: stability family, two p = 3 solitons, four amplitude limbs

LIMB_ALPHAS = (0.0, 3e-3, 1e-2, 3e-2)
LIMB_TOL = {
    "drift": 1e-9,       # per-limb relative mass and energy drift
    "speed": 1e-8,       # unperturbed limb: |c_j(t) - c_j|
    "position": 1e-7,    # unperturbed limb: |x_j(t) - x_j(0) - c_j t|
}


def limb_sweep(seed: int) -> list:
    rng = _rng(seed, 1)
    shift, widen, bump = rng.uniform(-3.0, 3.0, 3)
    positions = (-30.0 + shift - widen, 30.0 + shift + widen)
    cfg = {
        "family": "stability", "label": "limb-sweep", "p": 3,
        "speeds": (1.0, 2.0), "positions": positions,
        "grid": {"n": 4096, "length": 256.0, "x0": -80.0},
        "dt": 4e-4, "t_final": 0.25, "cadence": 0.25,
        "perturbation": {"kind": "bump", "amplitude": 1e-2, "width": 5.0,
                         "location": 0.5 * sum(positions) + bump},
        "track": {"enabled": True, "l_min": 20.0},
        "alphas": LIMB_ALPHAS,
        "thresholds": {"baseline_sup": 5e-5, "distance_over_alpha": 10.0,
                       "monotone_frac": 0.9},
    }
    return [Operation("stability", cfg, check_limb_sweep)]


def check_limb_sweep(outdir, cfg: dict):
    outdir = Path(outdir)
    failures = []
    report = json.loads((outdir / "report.json").read_text())
    _passed_checks(report, ("baseline-distance", "distance-over-amplitude",
                            "distance-monotone-in-amplitude"), failures)
    _fail_if(failures, report["extras"]["failures"] != [],
             f"failed limbs: {report['extras']['failures']}")
    series = read_series(outdir / "series.csv")
    per_limb = _snapshot_count(cfg)
    alphas = series["alpha"]
    _fail_if(failures, alphas.size != per_limb * len(cfg["alphas"]),
             f"{alphas.size} series rows, expected {per_limb} per limb")
    drift = 0.0
    for a in cfg["alphas"]:
        rows = alphas == a
        _fail_if(failures, int(rows.sum()) != per_limb,
                 f"limb alpha={a} has {int(rows.sum())} rows, expected {per_limb}")
        for col in ("mass_drift", "energy_drift"):
            d = float(np.max(series[col][rows]))
            drift = max(drift, d if np.isfinite(d) else math.inf)
    _fail_if(failures, drift > LIMB_TOL["drift"],
             f"conserved drift {drift:.3e} > {LIMB_TOL['drift']:.0e}")
    dc, dx = _travel_errors(series, alphas == 0.0, cfg)
    _fail_if(failures, not dc <= LIMB_TOL["speed"],
             f"unperturbed speed error {dc:.3e} > {LIMB_TOL['speed']:.0e}")
    _fail_if(failures, not dx <= LIMB_TOL["position"],
             f"unperturbed position error {dx:.3e} > {LIMB_TOL['position']:.0e}")
    return {"max_drift": drift, "speed_error": dc, "position_error": dx}, failures


# ---------------------------------------------------------------------------
# dense-tracking: simulate family with tracking and edge probes, three p = 2
# solitons, a bump in the first gap, the sponge on, a snapshot every 5 steps

DENSE_TOL = {
    "identity": 1e-6,    # sup |dI/dt - (S1 - mdot S2)| / sup |S1 - mdot S2|
    # the bump's overlap with a soliton tail moves the fitted speeds and
    # positions: by up to 1.4e-8 and 5e-8 at the seed offsets' extremes
    "speed": 1e-6,       # |c_j(t) - c_j|
    "position": 1e-6,    # |x_j(t) - x_j(0) - c_j t|
    "mass0": 1e-6,       # initial mass against sum_j 6 c_j^(3/2), relative
    "mass_drift": 1e-12,
    "newton": 1e-11,     # decompose's default tolerance, times sqrt(mass)
}


def dense_tracking(seed: int) -> list:
    rng = _rng(seed, 2)
    shifts = rng.uniform(-3.0, 3.0, 4)
    positions = (-60.0 + shifts[0], -20.0 + shifts[1], 20.0 + shifts[2])
    cfg = {
        "family": "simulate", "label": "dense-tracking", "p": 2,
        "speeds": (1.0, 2.0, 3.0), "positions": positions,
        "grid": {"n": 8192, "length": 512.0, "x0": -256.0},
        "dt": 2e-4, "t_final": 0.15, "cadence": 1e-3,
        "perturbation": {"kind": "bump", "amplitude": 1e-3, "width": 5.0,
                         "location": 0.5 * (positions[0] + positions[1]) + shifts[3]},
        "sponge": {"enabled": True, "width_fraction": 0.05, "strength": 5.0},
        "track": {"enabled": True},
        "y0": 25.0, "ref_index": 1,
    }
    return [Operation("simulate", cfg, check_dense_tracking)]


def check_dense_tracking(outdir, cfg: dict):
    outdir = Path(outdir)
    failures = []
    report = json.loads((outdir / "report.json").read_text())
    _passed_checks(report, (), failures)
    s = read_series(outdir / "series.csv")
    t = s["t"]
    _fail_if(failures, t.size != _snapshot_count(cfg),
             f"{t.size} snapshots, expected {_snapshot_count(cfg)}")
    _fail_if(failures, not np.allclose(np.diff(t), cfg["cadence"], rtol=0, atol=1e-12),
             "snapshot times are not uniform at the configured cadence")
    dc, dx = _travel_errors(s, slice(None), cfg)
    _fail_if(failures, not dc <= DENSE_TOL["speed"],
             f"speed error {dc:.3e} > {DENSE_TOL['speed']:.0e}")
    _fail_if(failures, not dx <= DENSE_TOL["position"],
             f"position error {dx:.3e} > {DENSE_TOL['position']:.0e}")

    # rate identity d/dt I_i = S1_i - mdot_i S2_i at the midpoints m_i
    worst = 0.0
    n = len(cfg["speeds"])
    for i in range(2, n + 1):
        mid = 0.5 * (s[f"x{i - 1}"] + s[f"x{i}"])
        lhs = fd4(t, s[f"I{i}"])[2:-2]
        rhs = (s[f"S1_{i}"] - fd4(t, mid) * s[f"S2_{i}"])[2:-2]
        err = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
        worst = max(worst, err if np.isfinite(err) else math.inf)
    _fail_if(failures, not worst <= DENSE_TOL["identity"],
             f"rate identity misses by {worst:.3e} > {DENSE_TOL['identity']:.0e}")

    mass = s["mass"]
    # for p = 2, Q_c(x) = (3c/2) sech^2(sqrt(c) x / 2) has mass 6 c^(3/2);
    # the bump adds at most amplitude^2
    exact = sum(6.0 * c ** 1.5 for c in cfg["speeds"])
    mass0 = float(abs(mass[0] - exact) / exact)
    _fail_if(failures, not mass0 <= DENSE_TOL["mass0"],
             f"initial mass off the soliton masses by {mass0:.3e}")
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    _fail_if(failures, not drift <= DENSE_TOL["mass_drift"],
             f"mass drift {drift:.3e} > {DENSE_TOL['mass_drift']:.0e}")
    resid = float(np.max(s["max_ortho_residual"] / np.sqrt(mass)))
    # decompose sums u^2 in another order than the mass column: allow round-off
    _fail_if(failures, not resid <= DENSE_TOL["newton"] * (1.0 + 1e-9),
             f"orthogonality residual {resid:.3e} sqrt(mass) above the Newton tolerance")
    return {"identity_rel": worst, "speed_error": dc, "position_error": dx,
            "mass0_rel": mass0, "mass_drift": drift, "ortho_over_sqrt_mass": resid}, failures


# ---------------------------------------------------------------------------
# spectrum-scan: constrained and unconstrained spectra, p in {2,3,4} x N in {1,2,3}

SPECTRUM_TOL = {"ground_state": 1e-10}   # |lambda_u - (1 - p)| at N = 1, c = 1
_BASE_POSITIONS = {1: (0.0,), 2: (-20.0, 20.0), 3: (-40.0, 0.0, 40.0)}


def spectrum_scan(seed: int) -> list:
    rng = _rng(seed, 3)
    ops = []
    for p in (2, 3, 4):
        for n in (1, 2, 3):
            positions = tuple(x + d for x, d in
                              zip(_BASE_POSITIONS[n], rng.uniform(-3.0, 3.0, n)))
            cfg = {
                "family": "spectrum", "label": f"spectrum-p{p}-N{n}", "p": p,
                "speeds": (1.0, 2.0, 3.0)[:n], "positions": positions,
                "grid": {"n": 2048, "length": 256.0, "x0": -128.0},
                "thresholds": {"lambda_min": 0.0},
            }
            ops.append(Operation(f"p{p}-N{n}", cfg, check_spectrum))
    return ops


def check_spectrum(outdir, cfg: dict):
    outdir = Path(outdir)
    failures = []
    report = json.loads((outdir / "report.json").read_text())
    _passed_checks(report, ("constrained-positive", "unconstrained-negative"), failures)
    s = read_series(outdir / "series.csv")
    lam_c = float(s["lambda_constrained"][0])
    lam_u = float(s["lambda_unconstrained"][0])
    cert = json.loads((outdir / "certificate.json").read_text())
    _fail_if(failures, cert["lambda_min"] != lam_c,
             f"certificate lambda_min {cert['lambda_min']} differs from the series {lam_c}")
    _fail_if(failures, not lam_c > 0.0, f"constrained lambda_min {lam_c} is not positive")
    _fail_if(failures, not lam_u < 0.0, f"unconstrained lambda_min {lam_u} is not negative")
    measures = {"lambda_constrained": lam_c, "lambda_unconstrained": lam_u}
    if len(cfg["speeds"]) == 1 and cfg["speeds"][0] == 1.0:
        # (1 - d^2) Q = Q^p and (-d^2 + 1 - p Q^(p-1)) Q = (1 - p) Q^p, so Q is
        # the ground state of the pencil with eigenvalue exactly 1 - p
        gap = abs(lam_u - (1.0 - cfg["p"]))
        measures["ground_state_error"] = gap
        _fail_if(failures, not gap <= SPECTRUM_TOL["ground_state"],
                 f"N=1 unconstrained lambda_min {lam_u!r} is not 1 - p = {1 - cfg['p']}")
    return measures, failures


WORKLOADS = {
    "limb-sweep": limb_sweep,
    "dense-tracking": dense_tracking,
    "spectrum-scan": spectrum_scan,
}

# the calibrate.py kernel whose work each workload's time resembles most
CALIBRATION = {"limb-sweep": "fft", "dense-tracking": "fft", "spectrum-scan": "eigh"}
