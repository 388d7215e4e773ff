"""Transition weight, localized masses, quadratic forms and their spectrum."""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse.linalg import ArpackNoConvergence

from dense_spectrum import dense_constrained_spectrum
from gkdv import (Field, Grid, ModelParams, ParameterError, PsiWeight,
                  SolitonState, SpectralFailureError, UnsupportedModelError,
                  abel_resummed, bilinear_form, constrained_spectrum,
                  decompose, dj_sums, energy_expansion_residual, eval_Qc,
                  evolve, h1_norm, l2_norm, linearized_energy_form,
                  localized_mass_rate_terms, localized_masses, midpoints,
                  psi_eval, quadratic_form, soliton_sum, speed_ramp,
                  weight_for, write_spectral_certificate)

P2 = ModelParams(2)


# ---------------------------------------------------------------------------
# transition weight

def test_psi_validation():
    with pytest.raises(ParameterError):
        PsiWeight(2, 0.0)
    with pytest.raises(ParameterError):
        PsiWeight(2, -1.0)
    with pytest.raises(UnsupportedModelError):
        PsiWeight(5, 0.5)
    w = PsiWeight(2, 0.5)
    with pytest.raises(ParameterError):
        w.psi(0.0, deriv=2)
    with pytest.raises(ParameterError):
        w.psi(0.0, method="bogus")


@pytest.mark.parametrize("p,s0", [(2, 0.125), (2, 0.5), (3, 0.5), (4, 1.0)])
def test_psi_limits_and_monotonicity(p, s0):
    w = PsiWeight(p, s0)
    scale = 1.0 / np.sqrt(s0)
    assert abs(float(w.psi(0.0))) - 0.5 < 1e-14
    assert float(w.psi(-120.0 * scale)) < 1e-14
    assert abs(float(w.psi(120.0 * scale)) - 1.0) < 1e-14
    xs = np.linspace(-40.0, 40.0, 2001) * scale
    assert np.all(w.psi(xs, 1) > 0.0)
    assert np.all(np.diff(w.psi(xs)) > 0.0)


@pytest.mark.parametrize("p,s0", [(2, 0.125), (2, 0.5), (3, 0.5), (4, 1.0)])
def test_psi_closed_vs_numeric(p, s0):
    # the cumulative-quadrature path must reproduce the incomplete-beta path
    w = PsiWeight(p, s0)
    xs = np.linspace(-60.0, 60.0, 4001) / np.sqrt(s0)
    assert np.max(np.abs(w.psi(xs) - w.psi(xs, method="numeric"))) < 1e-10


def test_psi_derivatives_consistent():
    w = PsiWeight(2, 0.5)
    xs = np.linspace(-25.0, 25.0, 101)
    h = 1e-3
    fd1 = (w.psi(xs + h) - w.psi(xs - h)) / (2.0 * h)
    assert np.max(np.abs(fd1 - w.psi(xs, 1))) < 1e-8
    h = 1e-4
    fd3 = (w.psi(xs + h, 1) - 2.0 * w.psi(xs, 1) + w.psi(xs - h, 1)) / h**2
    assert np.max(np.abs(fd3 - w.psi(xs, 3))) < 1e-7


@pytest.mark.parametrize("p", [2, 3, 4])
def test_psi_derivative_pair_matches_single_calls(p):
    w = PsiWeight(p, 0.5)
    xs = np.linspace(-60.0, 60.0, 1001)
    phi, phi3 = w.psi(xs, (1, 3))
    assert np.array_equal(phi, w.psi(xs, 1))
    assert np.array_equal(phi3, w.psi(xs, 3))


def test_psi_increment_normalized():
    w = PsiWeight(3, 0.25)
    total, err = quad(lambda x: float(w.psi(np.array([x]), 1)[0]),
                      -300.0, 300.0, limit=400)
    assert err < 1e-10
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("p,s0", [(2, 0.125), (3, 0.5), (4, 1.0)])
def test_psi_damping_slack(p, s0):
    # psi''' <= (sigma0/4) psi' pointwise, with equality in the far tail;
    # this is the margin that makes the weighted-mass flux sign-definite
    w = PsiWeight(p, s0)
    xs = np.linspace(-80.0, 80.0, 8001) / np.sqrt(s0)
    # equality is approached from below in the tails, so leave round-off room
    assert np.all(w.psi(xs, 3) <= 0.25 * s0 * w.psi(xs, 1) * (1.0 + 1e-12))
    xt = np.array([-30.0 / np.sqrt(s0)])
    ratio = float(w.psi(xt, 3)[0] / w.psi(xt, 1)[0])
    assert abs(ratio - 0.25 * s0) < 1e-5


def test_psi_eval_wrapper_and_weight_for():
    w = PsiWeight(2, 0.125)
    xs = np.linspace(-4.0, 4.0, 9)
    assert np.array_equal(psi_eval(w, xs, 1), w.psi(xs, 1))
    st = SolitonState((0.25, 0.75), (-10.0, 10.0))
    built = weight_for(st, P2)
    assert built.p == 2
    assert built.sigma0 == 0.125


# ---------------------------------------------------------------------------
# localized masses

def test_midpoints_and_sorting():
    st = SolitonState((1.0, 2.0, 3.0), (-10.0, 4.0, 30.0))
    assert np.array_equal(midpoints(st), np.array([-3.0, 17.0]))
    bad = SolitonState((1.0, 2.0), (10.0, -10.0))
    with pytest.raises(ParameterError):
        midpoints(bad)


def test_localized_masses_two_solitons():
    grid = Grid(4096, 512.0, -256.0)
    st = SolitonState((1.0, 2.2), (-40.0, 40.0))
    u = soliton_sum(P2, st, grid)
    w = weight_for(st, P2)
    rec = localized_masses(0.0, u, st, w, P2, y0=25.0, ref_index=1)
    assert rec.midpoints.shape == (1,)
    assert rec.midpoints[0] == 0.0
    # the midpoint mass is the right soliton's mass up to weight tails
    assert abs(rec.masses[0] - 2.2**1.5 * 6.0) < 1e-4

    def total(x):
        return eval_Qc(2, 2.2, x - 40.0) + eval_Qc(2, 1.0, x + 40.0)

    jr, err = quad(lambda x: total(x)**2 * float(w.psi(np.array([x - 65.0]))[0]),
                   -256.0, 256.0, limit=400)
    assert err < 1e-8
    jl, err = quad(lambda x: total(x)**2 * (1.0 - float(w.psi(np.array([x - 15.0]))[0])),
                   -256.0, 256.0, limit=400)
    assert err < 1e-8
    assert abs(rec.j_right - jr) < 1e-10
    assert abs(rec.j_left - jl) < 1e-10


def test_localized_masses_validation():
    grid = Grid(1024, 256.0, -128.0)
    st = SolitonState((1.0, 2.0), (-30.0, 30.0))
    u = soliton_sum(P2, st, grid)
    w = weight_for(st, P2)
    with pytest.raises(ParameterError):
        localized_masses(0.0, u, st, w, P2, y0=-5.0, ref_index=1)
    with pytest.raises(ParameterError):
        localized_masses(0.0, u, st, w, P2, y0=10.0, ref_index=5)
    rec = localized_masses(0.0, u, st, w, P2)
    assert rec.j_left is None and rec.j_right is None and rec.ref_index is None


def test_localized_mass_rate_identity():
    # d/dt int u^2 psi(x - m) along the actual flow equals the flux integral
    # S1 when m is frozen; checked against a centered difference in time
    grid = Grid(1024, 128.0, -64.0)
    st = SolitonState((1.0, 2.2), (-20.0, 15.0))
    u0 = soliton_sum(P2, st, grid)
    u0 = Field(grid, u0.values + 1e-2 * np.exp(-((grid.x - 2.0) / 3.0)**2))
    w = weight_for(st, P2)
    dt = 1e-3
    traj = evolve(u0, 0.2, P2, dt, cadence=dt)
    m_fix = -2.5
    weights = w.psi(grid.x - m_fix)
    W = [grid.spacing * float(np.sum(f.values**2 * weights)) for f in traj.fields]
    i = 100
    fd = (W[i + 1] - W[i - 1]) / (2.0 * dt)
    S1, S2 = localized_mass_rate_terms(traj.fields[i], m_fix, w, P2)
    assert abs(fd - S1) < 1e-6 * abs(S1)
    assert S2 > 0.0


# ---------------------------------------------------------------------------
# partial speed sums

def test_dj_sums_anchors():
    st = SolitonState((1.0, 4.0), (-20.0, 20.0))
    assert np.array_equal(dj_sums(st, ModelParams(3)), np.array([3.0, 2.0]))
    assert np.array_equal(dj_sums(st, P2), np.array([9.0, 8.0]))


def test_abel_resummed_by_hand():
    s0 = SolitonState((1.0, 2.0), (-20.0, 20.0))
    st = SolitonState((1.1, 2.3), (-20.0, 20.0))
    d_t = np.array([1.1**1.5 + 2.3**1.5, 2.3**1.5])
    d_0 = np.array([1.0 + 2.0**1.5, 2.0**1.5])
    expected = 1.0 * (d_t[0] - d_0[0]) + (2.0 - 1.0) * (d_t[1] - d_0[1])
    assert abs(abel_resummed(st, s0, P2) - expected) < 1e-14
    assert abel_resummed(s0, s0, P2) == 0.0
    with pytest.raises(ParameterError):
        abel_resummed(SolitonState((1.0,), (0.0,)), s0, P2)


# ---------------------------------------------------------------------------
# speed ramp and quadratic forms

def test_speed_ramp_plateaus():
    grid = Grid(2048, 256.0, -128.0)
    st = SolitonState((1.0, 2.2, 3.0), (-60.0, 0.0, 60.0))
    ramp = speed_ramp(st, weight_for(st, P2), grid)
    assert abs(ramp[0] - 1.0) < 1e-12
    assert abs(ramp[-1] - 3.0) < 1e-12
    for xj, cj in zip(st.positions, st.speeds):
        i = int(np.argmin(np.abs(grid.x - xj)))
        assert abs(ramp[i] - cj) < 1e-3
    assert np.min(np.diff(ramp)) > -1e-14


def test_bilinear_symmetry_and_linearity():
    grid = Grid(1024, 256.0, -128.0)
    st = SolitonState((1.0, 2.0), (-30.0, 30.0))
    w = weight_for(st, P2)
    rng = np.random.default_rng(7)
    f = Field(grid, np.fft.irfft(np.fft.rfft(rng.standard_normal(grid.n))[:40], grid.n))
    g = Field(grid, np.exp(-((grid.x - 10.0) / 5.0)**2))
    e = Field(grid, np.exp(-((grid.x + 25.0) / 3.0)**2))
    fg = bilinear_form(f, g, st, w, P2)
    gf = bilinear_form(g, f, st, w, P2)
    assert abs(fg - gf) < 1e-12 * max(1.0, abs(fg))
    lhs = bilinear_form(f, Field(grid, g.values + e.values), st, w, P2)
    rhs = bilinear_form(f, g, st, w, P2) + bilinear_form(f, e, st, w, P2)
    assert abs(lhs - rhs) < 1e-10
    assert quadratic_form(g, st, w, P2) == bilinear_form(g, g, st, w, P2)


def test_quadratic_form_annihilates_translation_mode():
    # for one soliton the ramp is constant c, and the profile slope spans the
    # kernel of the operator behind the form
    grid = Grid(2048, 256.0, -128.0)
    st = SolitonState((1.3,), (5.0,))
    w = weight_for(st, P2)
    kv = Field(grid, eval_Qc(2, 1.3, grid.wrap(grid.x - 5.0), 1))
    assert abs(quadratic_form(kv, st, w, P2)) < 1e-10 * l2_norm(kv)**2


# ---------------------------------------------------------------------------
# constrained spectrum

@pytest.fixture(scope="module")
def spectrum_pair():
    grid = Grid(512, 128.0, -64.0)
    st = SolitonState((1.0, 2.0), (-20.0, 20.0))
    w = weight_for(st, P2)
    res_c = constrained_spectrum(st, w, P2, grid)
    res_u = constrained_spectrum(st, w, P2, grid, constrained=False)
    return grid, st, w, res_c, res_u


def test_spectrum_signs_and_values(spectrum_pair):
    grid, st, w, res_c, res_u = spectrum_pair
    assert res_c.constrained and not res_u.constrained
    assert res_c.lambda_min > 0.0
    assert res_u.lambda_min < 0.0
    # frozen references; stable to 10 digits against a 4x finer grid
    assert abs(res_c.lambda_min - 0.3506063578) < 1e-6
    assert abs(res_u.lambda_min - (-1.7385911025)) < 1e-6


def test_spectrum_eigenvector_properties(spectrum_pair):
    grid, st, w, res_c, _ = spectrum_pair
    v = res_c.eigenvector
    assert abs(l2_norm(v) - 1.0) < 1e-12
    # Rayleigh identity against the quadratic form and the H1 weight
    qv = quadratic_form(v, st, w, P2)
    assert abs(qv - res_c.lambda_min * h1_norm(v)**2) < 1e-10
    for c, x0 in zip(st.speeds, st.positions):
        y = grid.wrap(grid.x - x0)
        for d in (0, 1):
            overlap = grid.spacing * float(np.sum(v.values * eval_Qc(2, c, y, d)))
            assert abs(overlap) < 1e-12


def test_spectral_certificate_json(tmp_path, spectrum_pair):
    grid, st, w, res_c, _ = spectrum_pair
    path = tmp_path / "certificate.json"
    write_spectral_certificate(path, res_c, st, P2, grid, tolerance=0.0)
    data = json.loads(path.read_text())
    assert data["p"] == 2
    assert data["N"] == 2
    assert data["speeds"] == [1.0, 2.0]
    assert data["separations"] == [40.0]
    assert data["lambda_min"] == res_c.lambda_min
    assert data["constrained"] is True
    assert data["grid"] == {"n": 512, "length": 128.0, "x0": -64.0}
    assert data["constraint_residuals"] == res_c.constraint_residuals
    assert set(data["constraint_residuals"]) == {"profile", "slope"}
    assert max(data["constraint_residuals"].values()) < 1e-12
    assert data["eigen_residual"] == res_c.eigen_residual < 1e-10
    assert data["matvecs"] == res_c.matvecs > 0


_ORACLE_STATES = {1: SolitonState((1.0,), (0.3,)),
                  2: SolitonState((1.0, 2.0), (-20.0, 20.0)),
                  3: SolitonState((1.0, 2.0, 3.0), (-40.0, 0.0, 40.0))}


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("n_sol", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_spectrum_matches_dense_oracle(p, n_sol, constrained):
    grid = Grid(1024, 256.0, -128.0)
    params = ModelParams(p)
    st = _ORACLE_STATES[n_sol]
    w = weight_for(st, params)
    res = constrained_spectrum(st, w, params, grid, constrained=constrained)
    lam, vec = dense_constrained_spectrum(st, w, params, grid, constrained=constrained)
    assert abs(res.lambda_min - lam) <= 1e-10
    v = res.eigenvector.values
    dist = min(np.linalg.norm(v - vec), np.linalg.norm(v + vec)) * np.sqrt(grid.spacing)
    assert dist <= 1e-8


def test_spectrum_failure_names_its_state(monkeypatch):
    def no_convergence(op, k, which, tol, v0):
        op.matvec(v0)
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((op.shape[0], 0)))

    monkeypatch.setattr("gkdv.functionals.eigsh", no_convergence)
    grid = Grid(512, 128.0, -64.0)
    st = SolitonState((1.0, 2.0), (-20.0, 20.0))
    with pytest.raises(SpectralFailureError) as info:
        constrained_spectrum(st, weight_for(st, P2), P2, grid)
    msg = str(info.value)
    for part in ("n=512", "p=2", "N=2", "constrained=True", "best residual reached"):
        assert part in msg
    assert float(msg.rsplit(" ", 1)[1]) < np.inf


def test_spectrum_five_solitons_at_n8192():
    grid = Grid(8192, 256.0, -128.0)
    params = ModelParams(3)
    st = SolitonState((1.0, 2.0, 3.0, 4.0, 5.0), (-40.0, -20.0, 0.0, 20.0, 40.0))
    w = weight_for(st, params)
    t0 = time.monotonic()
    lam_c = constrained_spectrum(st, w, params, grid).lambda_min
    lam_u = constrained_spectrum(st, w, params, grid, constrained=False).lambda_min
    assert lam_c > 0.0 > lam_u
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize("p", [2, 3, 4])
def test_spectrum_single_soliton_ground_state_at_n8192(p):
    # (1 - d2) Q = Q^p and (-d2 + 1 - p Q^(p-1)) Q = (1 - p) Q^p: Q is the
    # ground state of the pencil with eigenvalue exactly 1 - p
    grid = Grid(8192, 256.0, -128.0)
    params = ModelParams(p)
    st = SolitonState((1.0,), (0.0,))
    res = constrained_spectrum(st, weight_for(st, params), params, grid, constrained=False)
    assert abs(res.lambda_min - (1.0 - p)) <= 1e-12


# ---------------------------------------------------------------------------
# energy linearization

def test_energy_residual_matches_hessian_on_clean_direction(spectrum_pair):
    # perturbing along the constrained eigenvector leaves the recovered state
    # untouched, so the residual must equal (alpha^2/2) times the Hessian form
    grid, st, w, res_c, _ = spectrum_pair
    v = res_c.eigenvector
    R = soliton_sum(P2, st, grid)
    half_hess = 0.5 * linearized_energy_form(v, st, P2)
    for alpha in (1e-3, 3e-3, 1e-2):
        u = Field(grid, R.values + alpha * v.values)
        dec = decompose(u, st, P2)
        r = energy_expansion_residual(u, dec, st, P2)
        assert abs(r / alpha**2 - half_hess) < 1e-9 * abs(half_hess)


def test_energy_residual_validation(spectrum_pair):
    grid, st, w, res_c, _ = spectrum_pair
    u = soliton_sum(P2, st, grid)
    dec = decompose(u, st, P2)
    with pytest.raises(ParameterError):
        energy_expansion_residual(u, dec, SolitonState((1.0,), (0.0,)), P2)
