"""Constrained decomposition: residuals, Jacobian, Newton solve, tracking."""

import numpy as np
import pytest
from scipy.integrate import quad

from fd_jacobian import fd_jacobian
from gkdv import (Field, Grid, ModelParams, ParameterError, SolitonState,
                  decompose, eval_Qc, evolve, initial_guess, l2_norm,
                  ortho_jacobian, ortho_residual, soliton_sum)
from gkdv import modulation
from gkdv.errors import (DecompositionFailureError,
                         DegenerateConfigurationError, GuessFailureError)
from gkdv.harness.runs import FAILED, SKIPPED, TRACKED, DiagnosticsCollector

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
    Jf = fd_jacobian(u, st_off, P2)
    assert np.max(np.abs(Ja - Jf)) < 1e-7 * np.max(np.abs(Ja))


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
    assert np.max(np.abs(dec.epsilon.values + dec.basis.total - u.values)) < 1e-13


def test_decompose_returns_its_final_residual_and_basis():
    st_true = SolitonState((1.0, 2.2), (-25.0, 18.0))
    u = Field(GRID, soliton_sum(P2, st_true, GRID).values
              + 1e-3 * np.exp(-(GRID.x - 5.0) ** 2))
    dec = decompose(u, SolitonState((0.95, 2.3), (-24.4, 18.5)), P2)
    assert dec.iterations > 0
    assert np.array_equal(dec.ortho_residuals, ortho_residual(u, dec.state, P2))
    assert dec.basis.state == dec.state
    assert np.array_equal(dec.epsilon.values, u.values - soliton_sum(P2, dec.state, GRID).values)


def test_decompose_failure_carries_state(monkeypatch):
    st_true = SolitonState((1.0, 2.2), (-25.0, 18.0))
    u = soliton_sum(P2, st_true, GRID)
    monkeypatch.setattr(modulation, "_MAX_ITER", 1)
    with pytest.raises(DecompositionFailureError) as err:
        decompose(u, SolitonState((0.95, 2.3), (-24.4, 18.5)), P2)
    assert err.value.state is not None
    assert err.value.residuals.shape == (4,)
    assert err.value.iterations == 1


@pytest.mark.parametrize("guess, error, message, iterations", [
    (((0.95, 2.3), (-24.4, 18.5)), None, None, 5),
    (((0.6, 2.2), (-27.0, 18.0)), DecompositionFailureError, "no convergence after 50 iterations", 50),
    (((0.5, 3.0), (-22.0, 15.0)), DecompositionFailureError,
     "Newton step failed to decrease the residual after 6 halvings", 9),
    (((0.3, 1.0), (-25.0, 18.0)), DegenerateConfigurationError,
     "modulation Jacobian condition number", None),
], ids=["converges", "no-convergence", "failed-to-decrease", "degenerate"])
def test_decompose_exits(guess, error, message, iterations):
    # the four ways out of the Newton loop, on the bumped pair; the
    # failed-to-decrease guess also sends candidates out of the admissible cone
    u = Field(GRID, soliton_sum(P2, SolitonState((1.0, 2.2), (-25.0, 18.0)), GRID).values
              + 1e-3 * np.exp(-(GRID.x - 5.0) ** 2))
    if error is None:
        assert decompose(u, SolitonState(*guess), P2).iterations == iterations
        return
    with pytest.raises(error) as err:
        decompose(u, SolitonState(*guess), P2)
    assert str(err.value).startswith(message)
    if iterations is not None:
        assert err.value.iterations == iterations


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


def test_initial_guess_failures(monkeypatch):
    u = soliton_sum(P2, SolitonState((1.0, 4.0), (-20.0, 20.0)), GRID)
    with pytest.raises(GuessFailureError):
        initial_guess(u, 3, P2)                        # only two peaks exist
    with monkeypatch.context() as m, pytest.raises(GuessFailureError):
        m.setattr(modulation, "_AMPLITUDE_FLOOR", 10.0)
        initial_guess(u, 1, P2)                        # floor above both peaks
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
    return np.asarray(times), fields


def _track(times, fields, n_solitons):
    """Seed from the peaks of the first snapshot and observe every snapshot
    with a diagnostics collector; returns it and the speeds and positions,
    NaN where not tracked."""
    seed = initial_guess(fields[0], n_solitons, P2)
    collector = DiagnosticsCollector(P2, seed)
    for t, f in zip(times, fields):
        collector(float(t), f)
    speeds, positions = (np.array([row[key] for row in collector.rows]) for key in ("c", "x"))
    return collector, speeds, positions


def _statuses(collector):
    return [row["status"] for row in collector.rows]


def test_track_ballistic_sum():
    st = SolitonState((1.0, 2.2), (-60.0, 10.0))
    times, fields = _ballistic_trajectory(st, np.linspace(0.0, 4.0, 9))
    collector, speeds, positions = _track(times, fields, 2)
    assert collector.tracking() == {"t_failed": None, "error": None}
    assert _statuses(collector) == [TRACKED] * 9
    assert np.max(np.abs(speeds - st.speed_array)) < 1e-9
    expected_pos = st.position_array + np.outer(times, st.speed_array)
    assert np.max(np.abs(positions - expected_pos)) < 1e-9


def test_tracker_skips_below_min_separation():
    st = SolitonState((1.0, 2.0), (-10.0, 10.0))
    collector = DiagnosticsCollector(P2, st, l_min=50.0)
    collector(1.0, soliton_sum(P2, st, GRID))
    assert _statuses(collector) == [SKIPPED]
    assert np.all(np.isnan(collector.rows[0]["c"]))
    assert collector.tracking()["t_failed"] is None     # skipped, not failed


def test_tracker_records_first_failure():
    st = SolitonState((1.0, 2.2), (-60.0, 10.0))
    times, fields = _ballistic_trajectory(st, np.linspace(0.0, 2.0, 5))
    fields[2] = Field(GRID, np.zeros(GRID.n))
    collector, speeds, _ = _track(times, fields, 2)
    tracking = collector.tracking()
    assert tracking["t_failed"] == times[2]
    assert tracking["error"].startswith(f"{DegenerateConfigurationError.__name__}: ")
    assert _statuses(collector) == [TRACKED] * 2 + [FAILED] * 3
    assert np.all(np.isnan(speeds[2:]))        # no recovery after a hard failure
    assert np.all(np.isfinite(speeds[:2]))


def test_track_follows_evolution():
    grid = Grid(1024, 128.0, -64.0)
    st = SolitonState((1.0, 2.2), (-40.0, 5.0))
    u0 = soliton_sum(P2, st, grid)
    traj = evolve(u0, 2.0, P2, 1e-3, cadence=0.5)
    collector, speeds, positions = _track(traj.times, traj.fields, 2)
    assert collector.tracking()["t_failed"] is None
    assert np.max(np.abs(speeds - st.speed_array)) < 1e-4
    drift = positions - st.position_array - np.outer(traj.times, st.speed_array)
    assert np.max(np.abs(drift)) < 1e-3
