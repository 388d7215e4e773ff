"""Acceptance gate: one test per release criterion.

Each test computes its verdict first, records a one-line summary for the
terminal report (see conftest), and only then asserts, so a red criterion
still prints what was measured.
"""

import time

import numpy as np
import pytest

from conftest import check_map, record_criterion
from gkdv import (
    Grid,
    ModelParams,
    SolitonState,
    constrained_spectrum,
    decompose,
    energy_expansion_residual,
    evolve,
    ortho_jacobian,
    profile_mass_constant,
    soliton_sum,
    weight_for,
)

pytestmark = pytest.mark.acceptance


def _log_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs, dtype=float)),
                            np.log(np.asarray(ys, dtype=float)), 1)[0])


def test_criterion_1_solver_fidelity(preset_run):
    report, _, secs = preset_run("single-soliton")
    cm = check_map(report)
    prop = cm["propagation-error"].value
    dm = cm["mass-drift"].value
    de = cm["energy-drift"].value
    ok = prop <= 1e-6 and dm <= 1e-9 and de <= 1e-8 and secs <= 120.0
    detail = (f"l2 error {prop:.3e} (<=1e-6), mass drift {dm:.3e} (<=1e-9), "
              f"energy drift {de:.3e} (<=1e-8), {secs:.0f}s (<=120s)")
    record_criterion(1, ok, detail)
    assert ok, detail


def test_criterion_2_integrable_two_soliton(preset_run):
    report, _, secs = preset_run("tau-collision")
    cm = check_map(report)
    dist = cm["profile-distance"].value
    refit = cm["refit-speeds"].value
    ok = dist <= 1e-5 and refit <= 1e-4 and secs <= 300.0
    detail = (f"post-collision l2 distance {dist:.3e} (<=1e-5), refit speed "
              f"error {refit:.3e} (<=1e-4), {secs:.0f}s (<=300s)")
    record_criterion(2, ok, detail)
    assert ok, detail


def test_criterion_3_modulation_correctness(preset_run):
    # three-soliton recovery under a 1e-3 bump, then the closed-form check
    # of the own-speed Jacobian entry across nonlinearities and speeds
    report, _, _ = preset_run("newton-recovery")
    cm = check_map(report)
    dc = cm["speed-recovery"].value
    res = cm["ortho-residual"].value

    grid = Grid(2048, 256.0, -128.0)
    worst = 0.0
    for p in (2, 3, 4):
        params = ModelParams(p)
        mp = profile_mass_constant(p)
        for c in (1.0, 2.0):
            st = SolitonState((c,), (0.0,))
            J = ortho_jacobian(soliton_sum(params, st, grid), st, params)
            expected = (-((5.0 - p) / (4.0 * (p - 1)))
                        * c ** ((7.0 - 3.0 * p) / (2.0 * (p - 1))) * mp)
            worst = max(worst, abs(J[0, 0] - expected) / abs(expected))

    ok = dc <= 5e-3 * 1e-3 and res < 1e-11 and worst <= 1e-5
    detail = (f"speed recovery {dc:.3e} (<=5e-6), max ortho residual "
              f"{res:.3e} (<1e-11), jacobian diagonal rel error {worst:.3e} "
              f"(<=1e-5 over p in 2,3,4 and c in 1,2)")
    record_criterion(3, ok, detail)
    assert ok, detail


def test_criterion_4_quadratic_form_positivity():
    grid = Grid(2048, 256.0, -128.0)
    t0 = time.monotonic()
    lam_c_all, lam_u_all, bad = [], [], []
    for p in (2, 3, 4):
        params = ModelParams(p)
        cases = [SolitonState((1.0,), (0.0,))]
        for sep in (20.0, 40.0):
            cases.append(SolitonState((1.0, 2.0), (-sep / 2, sep / 2)))
            cases.append(SolitonState((1.0, 2.0, 3.0), (-sep, 0.0, sep)))
        for st in cases:
            w = weight_for(st, params)
            lc = constrained_spectrum(st, w, params, grid).lambda_min
            lu = constrained_spectrum(st, w, params, grid,
                                      constrained=False).lambda_min
            lam_c_all.append(lc)
            lam_u_all.append(lu)
            if not (lc > 0.0 and lu < 0.0):
                bad.append((p, st.n, st.positions, lc, lu))
    secs = time.monotonic() - t0
    ok = not bad and secs <= 600.0
    detail = (f"{len(lam_c_all)} cases (N=1 once per p, N=2,3 at separations "
              f"20 and 40): min constrained {min(lam_c_all):.4f} > 0, max "
              f"unconstrained {max(lam_u_all):.4f} < 0, {secs:.0f}s (<=600s)")
    if bad:
        detail += f"; sign failures {bad}"
    record_criterion(4, ok, detail)
    assert ok, detail


def test_criterion_5_mass_monotonicity(preset_run):
    report, _, secs = preset_run("mass-monotonicity")
    cm = check_map(report)
    increases = report.extras["max_increases"]
    p_near, p_far = increases[0], increases[-1]
    ident = cm["rate-identity"].value
    ok = p_near <= 1e-3 and p_far <= p_near / 10.0 and ident <= 1e-5
    detail = (f"max weighted-mass increase {p_near:.3e} at L=60 (<=1e-3), "
              f"{p_far:.3e} at L=120 (>=10x reduction), rate identity rel "
              f"error {ident:.3e} (<=1e-5), {secs:.0f}s")
    record_criterion(5, ok, detail)
    assert ok, detail


def test_criterion_6_quadratic_speed_control(preset_run):
    report, _, secs = preset_run("drift-scaling")
    done = report.extras["alphas"]
    drift = report.extras["sup_speed_drift"]
    sup_eps = report.extras["sup_eps_h1"]
    eps0 = report.extras["eps_h1_initial"]
    complete = list(done) == [3e-3, 1e-2, 3e-2, 1e-1]
    slope_dc = _log_slope(done, drift) if complete else float("nan")
    slope_eps = _log_slope(eps0, sup_eps) if complete else float("nan")
    ok = (complete and 1.7 <= slope_dc <= 2.3 and 0.8 <= slope_eps <= 1.2
          and secs <= 900.0)
    detail = (f"sup speed drift vs alpha slope {slope_dc:.3f} (in [1.7,2.3]), "
              f"sup remainder vs initial remainder slope {slope_eps:.3f} "
              f"(in [0.8,1.2]), {secs:.0f}s (<=900s)")
    record_criterion(6, ok, detail)
    assert ok, detail


def test_criterion_7_asymptotic_decay(radiation_escape):
    report, secs = radiation_escape         # the preset run, from tests/longruns.py
    cm = check_map(report)
    nonincreasing = cm["ray-mass-nonincreasing"].passed
    frac = cm["ray-mass-final-fraction"].value
    plateau = cm["speed-plateau"].value
    ok = (nonincreasing and frac <= 1.0 / 3.0 and plateau <= 1e-4
          and secs <= 1200.0)
    detail = (f"ray-window remainder nonincreasing after transient: "
              f"{nonincreasing}, final/peak {frac:.3f} (<=1/3), speed "
              f"plateau std {plateau:.3e} (<=1e-4), {secs:.0f}s (<=1200s)")
    record_criterion(7, ok, detail)
    assert ok, detail


def test_criterion_8_interaction_tail_exponents():
    # both ways of exposing the pairwise tail: the cross-speed entries of
    # the orthogonality Jacobian at the exact two-soliton sum, and the
    # energy-expansion residual after an actual evolution
    params = ModelParams(2)
    grid = Grid(2048, 256.0, -128.0)
    seps = (20.0, 30.0, 40.0)
    speeds = (0.25, 0.75)
    sigma0 = SolitonState(speeds, (0.0, seps[0])).sigma0
    floor = 0.9 * np.sqrt(sigma0) / 2.0

    static_vals, dynamic_vals = [], []
    for L in seps:
        st = SolitonState(speeds, (-L / 2, L / 2))
        u0 = soliton_sum(params, st, grid)
        static_vals.append(abs(ortho_jacobian(u0, st, params)[0, 2]))

        traj = evolve(u0, 10.0, params, 2e-3, cadence=10.0)
        seed = SolitonState(st.speeds,
                            tuple(st.position_array + st.speed_array * 10.0))
        dec = decompose(traj.fields[-1], seed, params)
        dynamic_vals.append(abs(energy_expansion_residual(
            traj.fields[-1], dec, st, params)))

    rate_static = -float(np.polyfit(seps, np.log(static_vals), 1)[0])
    rate_dynamic = -float(np.polyfit(seps, np.log(dynamic_vals), 1)[0])
    ok = rate_static >= floor and rate_dynamic >= floor
    detail = (f"jacobian off-diagonal exponent {rate_static:.3f}, "
              f"energy-residual exponent {rate_dynamic:.3f}, both >= "
              f"0.9*sqrt(sigma0)/2 = {floor:.3f} for speeds {speeds}")
    record_criterion(8, ok, detail)
    assert ok, detail
