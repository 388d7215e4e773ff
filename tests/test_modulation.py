"""Constrained decomposition: residuals, Jacobian, Newton solve, tracking."""

import types

import numpy as np
import pytest
from scipy.integrate import quad

from gkdv import (Field, Grid, ModelParams, ParameterError, SolitonState,
                  decompose, eval_Qc, evolve, initial_guess, l2_norm,
                  ortho_jacobian, ortho_residual, soliton_sum, track,
                  write_modulation_csv)
from gkdv.errors import (DecompositionFailureError,
                         DegenerateConfigurationError, GuessFailureError)
from gkdv.modulation import ModulationTracker, _fd_rates

P2 = ModelParams(2)
GRID = Grid(2048, 256.0, -128.0)


def _quad_overlap(f, g):
    val, err = quad(lambda x: f(x) * g(x), -80.0, 80.0, epsabs=1e-14,
                    epsrel=1e-13, limit=200)
    assert err < 1e-10
    return val


# ---------------------------------------------------------------------------
# residuals

def test_residual_zero_at_exact_state():
    st = SolitonState((1.0, 2.2), (-30.0, 25.0))
    u = soliton_sum(P2, st, GRID)
    res = ortho_residual(u, st, P2)
    assert res.shape == (4,)
    assert np.max(np.abs(res)) < 1e-12


def test_residual_matches_quadrature_oracle():
    # u is one soliton, the trial state another: the residuals reduce to
    # continuum overlap integrals evaluated independently with quad
    c0, x0, c1, x1 = 1.0, 3.0, 1.3, -4.0
    u = Field(GRID, eval_Qc(2, c0, GRID.x - x0))
    res = ortho_residual(u, SolitonState((c1,), (x1,)), P2)
    overlap = _quad_overlap(lambda x: eval_Qc(2, c1, x - x1),
                            lambda x: eval_Qc(2, c0, x - x0))
    overlap_x = _quad_overlap(lambda x: eval_Qc(2, c1, x - x1, 1),
                              lambda x: eval_Qc(2, c0, x - x0))
    mass1 = _quad_overlap(lambda x: eval_Qc(2, c1, x), lambda x: eval_Qc(2, c1, x))
    assert abs(res[0] - (overlap - mass1)) < 1e-9
    assert abs(res[1] - overlap_x) < 1e-9      # <R_x, R> vanishes by parity


# ---------------------------------------------------------------------------
# Jacobian

@pytest.mark.parametrize("p,c", [(2, 1.0), (2, 2.3), (3, 1.0), (3, 0.6), (4, 1.4)])
def test_jacobian_single_soliton_closed_form(p, c):
    # at the exact state eps = 0, so the 2x2 Jacobian is diagonal:
    # d<R, eps>/dc = -<Q_c, dQ_c/dc> and d<R_x, eps>/dx = +int (Q_c)_x^2
    params = ModelParams(p)
    grid = Grid(2048, 256.0, -128.0)
    st = SolitonState((c,), (4.0,))
    u = soliton_sum(params, st, grid)
    J = ortho_jacobian(u, st, params)
    def mass(cc):
        return _quad_overlap(lambda x: eval_Qc(p, cc, x), lambda x: eval_Qc(p, cc, x))

    d_mass_dc = (mass(c + 1e-5) - mass(c - 1e-5)) / 2e-5
    grad_sq = _quad_overlap(lambda x: eval_Qc(p, c, x, 1),
                            lambda x: eval_Qc(p, c, x, 1))
    assert abs(J[0, 0] - (-0.5 * d_mass_dc)) < 2e-6 * abs(J[0, 0])
    assert abs(J[1, 1] - grad_sq) < 1e-10
    assert abs(J[0, 1]) < 1e-10
    assert abs(J[1, 0]) < 1e-10


def test_jacobian_anchors_p2():
    # frozen anchors at p=2, c=1: -<Q, dQ/dc> = -(1/2)(3/2) int Q^2 = -4.5
    # and int Q_x^2 = M2/5 = 1.2
    st = SolitonState((1.0,), (0.0,))
    u = soliton_sum(P2, st, GRID)
    J = ortho_jacobian(u, st, P2)
    assert abs(J[0, 0] - (-4.5)) < 1e-9
    assert abs(J[1, 1] - 1.2) < 1e-9


def test_jacobian_fd_agreement():
    st_true = SolitonState((1.0, 2.2), (-25.0, 18.0))
    u = soliton_sum(P2, st_true, GRID)
    u = Field(GRID, u.values + 1e-3 * np.exp(-(GRID.x - 5.0) ** 2))
    st_off = SolitonState((0.95, 2.3), (-24.4, 18.5))
    Ja = ortho_jacobian(u, st_off, P2)
    Jf = ortho_jacobian(u, st_off, P2, mode="fd")
    assert np.max(np.abs(Ja - Jf)) < 1e-7 * np.max(np.abs(Ja))
    with pytest.raises(ParameterError):
        ortho_jacobian(u, st_off, P2, mode="bogus")


# ---------------------------------------------------------------------------
# Newton solve

def test_decompose_recovers_exact_sum():
    st_true = SolitonState((1.0, 2.2), (-25.0, 18.0))
    u = soliton_sum(P2, st_true, GRID)
    dec = decompose(u, SolitonState((0.95, 2.3), (-24.4, 18.5)), P2)
    assert np.max(np.abs(dec.state.speed_array - st_true.speed_array)) < 1e-9
    assert np.max(np.abs(dec.state.position_array - st_true.position_array)) < 1e-9
    assert l2_norm(dec.epsilon) < 1e-9
    assert dec.iterations <= 10
    assert np.max(np.abs(dec.ortho_residuals)) <= 1.1e-11 * l2_norm(u)


def test_decompose_with_additive_bump():
    # a localized bump must land in eps, leaving the recovered state intact
    st_true = SolitonState((1.0, 2.2), (-25.0, 18.0))
    clean = soliton_sum(P2, st_true, GRID)
    u = Field(GRID, clean.values + 1e-3 * np.exp(-(GRID.x - 5.0) ** 2))
    dec = decompose(u, SolitonState((0.95, 2.3), (-24.4, 18.5)), P2)
    assert np.max(np.abs(dec.state.speed_array - st_true.speed_array)) < 1e-8
    assert np.max(np.abs(dec.state.position_array - st_true.position_array)) < 1e-8
    bump_l2 = 1e-3 * (np.pi / 2.0) ** 0.25
    assert abs(l2_norm(dec.epsilon) - bump_l2) < 1e-6
    assert np.max(np.abs(dec.reconstruct(P2).values - u.values)) < 1e-13


def test_decompose_returns_its_final_residual_and_basis():
    st_true = SolitonState((1.0, 2.2), (-25.0, 18.0))
    u = Field(GRID, soliton_sum(P2, st_true, GRID).values
              + 1e-3 * np.exp(-(GRID.x - 5.0) ** 2))
    dec = decompose(u, SolitonState((0.95, 2.3), (-24.4, 18.5)), P2)
    assert dec.iterations > 0
    assert np.array_equal(dec.ortho_residuals, ortho_residual(u, dec.state, P2))
    assert dec.basis.state == dec.state
    assert np.array_equal(dec.epsilon.values, u.values - soliton_sum(P2, dec.state, GRID).values)
    # trajectories keep their decompositions but not the cached rows
    res = track(types.SimpleNamespace(times=[0.0, 0.1], fields=[u, u]), P2, guess=dec.state)
    assert all(d is not None and d.basis is None for d in res.decompositions)


def test_decompose_failure_carries_state():
    st_true = SolitonState((1.0, 2.2), (-25.0, 18.0))
    u = soliton_sum(P2, st_true, GRID)
    with pytest.raises(DecompositionFailureError) as err:
        decompose(u, SolitonState((0.95, 2.3), (-24.4, 18.5)), P2, max_iter=1)
    assert err.value.state is not None
    assert err.value.residuals.shape == (4,)
    assert err.value.iterations == 1


def test_decompose_degenerate_on_empty_field():
    with pytest.raises(DegenerateConfigurationError):
        decompose(Field(GRID, np.zeros(GRID.n)),
                  SolitonState((1.0, 2.0), (-20.0, 20.0)), P2)


def test_conditioning_insensitive_to_moderate_overlap():
    # overlapping profiles stay linearly independent: the solve degrades
    # gracefully rather than at some separation cliff
    for sep, limit in [(24.0, 10.0), (6.0, 10.0), (1.5, 200.0)]:
        st = SolitonState((1.0, 1.3), (-sep / 2, sep / 2))
        J = ortho_jacobian(soliton_sum(P2, st, GRID), st, P2)
        assert np.linalg.cond(J) < limit


# ---------------------------------------------------------------------------
# peak-based seeding

def test_initial_guess_two_solitons():
    st = SolitonState((1.0, 4.0), (-20.0, 20.0))
    u = soliton_sum(P2, st, GRID)
    g = initial_guess(u, 2, P2)
    assert np.max(np.abs(g.speed_array - st.speed_array) / st.speed_array) < 0.02
    assert np.max(np.abs(g.position_array - st.position_array)) < 0.1


def test_initial_guess_speed_from_height():
    u = soliton_sum(P2, SolitonState((4.0,), (7.0,)), GRID)
    g = initial_guess(u, 1, P2)
    assert abs(g.speeds[0] - 4.0) < 0.01      # height 6 -> c = (6/1.5)^(p-1)
    assert abs(g.positions[0] - 7.0) < 0.05


def test_initial_guess_failures():
    u = soliton_sum(P2, SolitonState((1.0, 4.0), (-20.0, 20.0)), GRID)
    with pytest.raises(GuessFailureError):
        initial_guess(u, 3, P2)                        # only two peaks exist
    with pytest.raises(GuessFailureError):
        initial_guess(u, 1, P2, amplitude_floor=10.0)  # floor above both peaks
    with pytest.raises(ParameterError):
        initial_guess(u, 0, P2)
    twin = soliton_sum(P2, SolitonState((2.0,), (-20.0,)), GRID)
    twin = Field(GRID, twin.values + eval_Qc(2, 2.0, GRID.wrap(GRID.x - 20.0)))
    with pytest.raises(GuessFailureError):
        initial_guess(twin, 2, P2)                     # equal heights, equal speeds


# ---------------------------------------------------------------------------
# tracking

def _ballistic_trajectory(st, times):
    fields = []
    for t in times:
        moved = SolitonState(st.speeds, tuple(st.position_array + st.speed_array * t))
        fields.append(soliton_sum(P2, moved, GRID))
    return types.SimpleNamespace(times=np.asarray(times), fields=fields)


def test_track_ballistic_sum():
    st = SolitonState((1.0, 2.2), (-60.0, 10.0))
    times = np.linspace(0.0, 4.0, 9)
    res = track(_ballistic_trajectory(st, times), P2, n_solitons=2)
    assert res.failure_index is None
    assert np.max(np.abs(res.speeds - st.speed_array)) < 1e-9
    expected_pos = st.position_array + np.outer(times, st.speed_array)
    assert np.max(np.abs(res.positions - expected_pos)) < 1e-9
    assert np.nanmax(np.abs(res.cdot)) < 1e-9
    assert np.nanmax(np.abs(res.xdot_minus_c)) < 1e-8


def test_track_csv_layout(tmp_path):
    st = SolitonState((1.0, 2.2), (-60.0, 10.0))
    times = np.linspace(0.0, 2.0, 5)
    res = track(_ballistic_trajectory(st, times), P2, n_solitons=2)
    path = tmp_path / "modulation.csv"
    write_modulation_csv(path, res)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,c1,c2,x1,x2,eps_l2,eps_h1,max_ortho_residual,iterations"
    assert len(lines) == 6


def test_tracker_skips_below_min_separation():
    st = SolitonState((1.0, 2.0), (-10.0, 10.0))
    tracker = ModulationTracker(P2, st, t0=0.0, l_min=50.0)
    out = tracker.update(1.0, soliton_sum(P2, st, GRID))
    assert out is None
    assert tracker.failure_index is None       # skipped, not failed


def test_tracker_records_first_failure():
    st = SolitonState((1.0, 2.2), (-60.0, 10.0))
    traj = _ballistic_trajectory(st, np.linspace(0.0, 2.0, 5))
    traj.fields[2] = Field(GRID, np.zeros(GRID.n))
    res = track(traj, P2, n_solitons=2)
    assert res.failure_index == 2
    assert np.all(np.isnan(res.speeds[2:]))    # no recovery after a hard failure
    assert np.all(np.isfinite(res.speeds[:2]))


def test_track_follows_evolution():
    grid = Grid(1024, 128.0, -64.0)
    st = SolitonState((1.0, 2.2), (-40.0, 5.0))
    u0 = soliton_sum(P2, st, grid)
    traj = evolve(u0, 2.0, P2, 1e-3, cadence=0.5)
    res = track(traj, P2, n_solitons=2)
    assert res.failure_index is None
    assert np.max(np.abs(res.speeds - st.speed_array)) < 1e-4
    drift = res.positions - st.position_array - np.outer(res.times, st.speed_array)
    assert np.max(np.abs(drift)) < 1e-3


def test_fd_rates_gap_handling():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    series = np.array([[0.0], [1.0], [np.nan], [9.0]])
    rates = _fd_rates(times, series)
    assert rates[0, 0] == 1.0                  # one-sided at the start
    assert rates[1, 0] == 1.0                  # falls back across the gap
    assert rates[2, 0] == 4.0                  # centered uses finite neighbors
    assert np.isnan(rates[3, 0])
