"""Each output check of the benchmark passes on consistent outputs and
rejects a deliberately corrupted one.

    python3 -m pytest perfbench/test_checks.py

The outputs are synthetic: written in the harness's file formats from
closed-form series that satisfy every checked property exactly, so a test
fails only through the corruption it applies.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

import workloads as W
from tracer import Tracer, span_table


def write_series(path, columns: dict) -> None:
    names = list(columns)
    rows = zip(*(np.asarray(columns[n], dtype=float) for n in names))
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_report(path, check_names, failures=None, passed=True) -> None:
    checks = [{"name": n, "passed": passed, "value": 0.0, "threshold": 1.0}
              for n in check_names]
    report = {"passed": passed, "checks": checks,
              "extras": {"failures": failures or []}}
    path.write_text(json.dumps(report))


def assert_rejects(check, outdir, cfg, fragment):
    _, failures = check(outdir, cfg)
    assert any(fragment in f for f in failures), failures


# ---------------------------------------------------------------------------
# limb-sweep

LIMB_CHECKS = ("baseline-distance", "distance-over-amplitude",
               "distance-monotone-in-amplitude")


def limb_outputs(tmp_path, cfg, edit=None):
    t = np.arange(W._snapshot_count(cfg)) * cfg["cadence"]
    cols = {"alpha": [], "t": []}
    for j in range(1, 3):
        cols[f"c{j}"], cols[f"x{j}"] = [], []
    cols["mass_drift"], cols["energy_drift"] = [], []
    for a in cfg["alphas"]:
        cols["alpha"].append(np.full(t.size, a))
        cols["t"].append(t)
        for j, (c, x0) in enumerate(zip(cfg["speeds"], cfg["positions"]), start=1):
            cols[f"c{j}"].append(np.full(t.size, c + 0.1 * a))
            cols[f"x{j}"].append(x0 + c * t)
        cols["mass_drift"].append(np.full(t.size, 1e-12))
        cols["energy_drift"].append(np.full(t.size, 2e-12))
    cols = {k: np.concatenate(v) for k, v in cols.items()}
    if edit is not None:
        edit(cols)
    write_series(tmp_path / "series.csv", cols)
    write_report(tmp_path / "report.json", LIMB_CHECKS)
    return tmp_path


def test_limb_sweep_accepts_consistent_outputs(tmp_path):
    cfg = W.limb_sweep(0)[0].config
    measures, failures = W.check_limb_sweep(limb_outputs(tmp_path, cfg), cfg)
    assert failures == []
    assert measures["speed_error"] == 0.0


def test_limb_sweep_rejects_failed_family_check(tmp_path):
    cfg = W.limb_sweep(0)[0].config
    limb_outputs(tmp_path, cfg)
    write_report(tmp_path / "report.json", LIMB_CHECKS, passed=False)
    assert_rejects(W.check_limb_sweep, tmp_path, cfg, "report check baseline-distance")


def test_limb_sweep_rejects_failed_limb(tmp_path):
    cfg = W.limb_sweep(0)[0].config
    limb_outputs(tmp_path, cfg)
    write_report(tmp_path / "report.json", LIMB_CHECKS,
                 failures=[{"alpha": 0.03, "error": "BlowupError"}])
    assert_rejects(W.check_limb_sweep, tmp_path, cfg, "failed limbs")


@pytest.mark.parametrize("column, fragment", [("mass_drift", "conserved drift"),
                                              ("energy_drift", "conserved drift")])
def test_limb_sweep_rejects_drift(tmp_path, column, fragment):
    cfg = W.limb_sweep(0)[0].config

    def edit(cols):
        cols[column][-1] = 1e-6
    assert_rejects(W.check_limb_sweep, limb_outputs(tmp_path, cfg, edit), cfg, fragment)


def test_limb_sweep_rejects_wrong_speed(tmp_path):
    cfg = W.limb_sweep(0)[0].config

    def edit(cols):
        cols["c2"][cols["alpha"] == 0.0] += 1e-6
    assert_rejects(W.check_limb_sweep, limb_outputs(tmp_path, cfg, edit), cfg,
                   "unperturbed speed error")


def test_limb_sweep_rejects_lagging_position(tmp_path):
    cfg = W.limb_sweep(0)[0].config

    def edit(cols):
        cols["x1"][cols["alpha"] == 0.0] -= 1e-5 * cols["t"][cols["alpha"] == 0.0]
    assert_rejects(W.check_limb_sweep, limb_outputs(tmp_path, cfg, edit), cfg,
                   "unperturbed position error")


def test_limb_sweep_rejects_truncated_series(tmp_path):
    cfg = W.limb_sweep(0)[0].config

    def edit(cols):
        for k in cols:
            cols[k] = cols[k][:-1]
    assert_rejects(W.check_limb_sweep, limb_outputs(tmp_path, cfg, edit), cfg,
                   "series rows")


# ---------------------------------------------------------------------------
# dense-tracking

def dense_outputs(tmp_path, cfg, edit=None):
    """Exact travelling solitons and masses I_i(t) that satisfy
    dI/dt = S1 - mdot S2 in closed form."""
    t = np.arange(W._snapshot_count(cfg)) * cfg["cadence"]
    cols = {"t": t}
    for j, (c, x0) in enumerate(zip(cfg["speeds"], cfg["positions"]), start=1):
        cols[f"c{j}"] = np.full(t.size, c)
        cols[f"x{j}"] = x0 + c * t
    for i in range(2, len(cfg["speeds"]) + 1):
        mdot = 0.5 * (cfg["speeds"][i - 2] + cfg["speeds"][i - 1])
        s2 = 3.0 + 0.5 * i
        cols[f"I{i}"] = 10.0 + 2.0 * np.sin(5.0 * t) - mdot * s2 * t
        cols[f"S1_{i}"] = 10.0 * np.cos(5.0 * t)
        cols[f"S2_{i}"] = np.full(t.size, s2)
    mass = sum(6.0 * c ** 1.5 for c in cfg["speeds"])
    cols["mass"] = np.full(t.size, mass)
    cols["max_ortho_residual"] = np.full(t.size, 0.5e-11 * np.sqrt(mass))
    if edit is not None:
        edit(cols)
    write_series(tmp_path / "series.csv", cols)
    write_report(tmp_path / "report.json", ())
    return tmp_path


def test_dense_tracking_accepts_consistent_outputs(tmp_path):
    cfg = W.dense_tracking(0)[0].config
    measures, failures = W.check_dense_tracking(dense_outputs(tmp_path, cfg), cfg)
    assert failures == []
    assert measures["identity_rel"] < 1e-6


@pytest.mark.parametrize("column, change, fragment", [
    ("I3", lambda t, v: v + 1e-4 * np.sin(40.0 * t), "rate identity"),
    ("S1_2", lambda t, v: v * (1.0 + 1e-3), "rate identity"),
    ("x2", lambda t, v: v + 0.1 * t, "rate identity"),
    ("c3", lambda t, v: v + 1e-5, "speed error"),
    ("x1", lambda t, v: v + 1e-4 * t, "position error"),
    ("mass", lambda t, v: v * (1.0 + 1e-10 * t), "mass drift"),
    ("mass", lambda t, v: v * (1.0 + 1e-4), "initial mass"),
    ("max_ortho_residual", lambda t, v: 10.0 * v, "orthogonality residual"),
])
def test_dense_tracking_rejects_corruption(tmp_path, column, change, fragment):
    cfg = W.dense_tracking(0)[0].config

    def edit(cols):
        cols[column] = change(cols["t"], cols[column])
    assert_rejects(W.check_dense_tracking, dense_outputs(tmp_path, cfg, edit), cfg, fragment)


def test_dense_tracking_rejects_missing_snapshots(tmp_path):
    cfg = W.dense_tracking(0)[0].config

    def edit(cols):
        for k in cols:
            cols[k] = cols[k][:-5]
    assert_rejects(W.check_dense_tracking, dense_outputs(tmp_path, cfg, edit), cfg,
                   "snapshots, expected")


# ---------------------------------------------------------------------------
# spectrum-scan

SPECTRUM_CHECKS = ("constrained-positive", "unconstrained-negative")


def spectrum_outputs(tmp_path, lam_c, lam_u, cert=None):
    write_series(tmp_path / "series.csv", {"lambda_constrained": [lam_c],
                                           "lambda_unconstrained": [lam_u]})
    write_report(tmp_path / "report.json", SPECTRUM_CHECKS)
    (tmp_path / "certificate.json").write_text(
        json.dumps({"lambda_min": lam_c if cert is None else cert}))
    return tmp_path


def spectrum_config(p, n):
    return next(op.config for op in W.spectrum_scan(0) if op.name == f"p{p}-N{n}")


def test_spectrum_accepts_consistent_outputs(tmp_path):
    for p in (2, 3, 4):
        cfg = spectrum_config(p, 1)
        _, failures = W.check_spectrum(spectrum_outputs(tmp_path, 0.3, 1.0 - p), cfg)
        assert failures == []
    _, failures = W.check_spectrum(spectrum_outputs(tmp_path, 0.3, -1.7),
                                   spectrum_config(2, 2))
    assert failures == []


@pytest.mark.parametrize("p, n, lam_c, lam_u, cert, fragment", [
    (2, 2, -1e-3, -1.7, None, "constrained lambda_min"),
    (3, 3, 0.3, 1e-3, None, "unconstrained lambda_min"),
    (2, 1, 0.3, -1.0 + 1e-8, None, "is not 1 - p"),
    (4, 1, 0.2, -2.0, None, "is not 1 - p"),
    (3, 2, 0.3, -3.2, 0.31, "certificate"),
])
def test_spectrum_rejects_corruption(tmp_path, p, n, lam_c, lam_u, cert, fragment):
    cfg = spectrum_config(p, n)
    assert_rejects(W.check_spectrum, spectrum_outputs(tmp_path, lam_c, lam_u, cert),
                   cfg, fragment)


# ---------------------------------------------------------------------------
# seeds and tracing

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(name):
    build = W.WORKLOADS[name]
    assert [op.config for op in build(5)] == [op.config for op in build(5)]
    assert [op.config for op in build(5)] != [op.config for op in build(6)]


def test_self_time_subtracts_direct_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        traced_leaf()
        traced_leaf()
        time.sleep(0.01)

    tracer.wrap("outer", outer)()
    table = span_table(tracer.arrays())
    assert table["leaf"]["calls"] == 2
    assert table["outer"]["s"] >= table["leaf"]["s"] + 0.01
    assert table["outer"]["self_s"] == pytest.approx(
        table["outer"]["s"] - table["leaf"]["s"], abs=1e-12)
