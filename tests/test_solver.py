"""Pseudospectral stepping: exactness, gates, conservation, convergence."""

import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gkdv import (BlowupError, Field, Grid, ModelParams, ParameterError,
                  SolitonState, SpongeSettings, StepSizeError, Stepper, conserved,
                  dt_stability_bound, eval_Qc, evolve, h1_norm,
                  kdv_nsoliton_profile, l2_norm, l2_norm_right_of,
                  soliton_sum, sponge_profile)
from gkdv.harness.config import ExperimentConfig, GridConfig
from gkdv.harness.runs import execute
from gkdv.solver import C_STAB, _int_power

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from convergence_study import temporal_errors  # noqa: E402
from stepper_oracle import OracleStepper  # noqa: E402

P2 = ModelParams(2)


# ---------------------------------------------------------------------------
# derivatives, norms, conserved quantities

def test_spectral_derivative_exact_on_modes():
    grid = Grid(256, 64.0, -32.0)
    k = 2 * np.pi * 5 / grid.length
    f = Field(grid, np.sin(k * (grid.x - grid.x0)))
    for order, ref in [(1, k * np.cos(k * (grid.x - grid.x0))),
                       (2, -k**2 * np.sin(k * (grid.x - grid.x0))),
                       (3, -k**3 * np.cos(k * (grid.x - grid.x0)))]:
        f = Field(grid, f.dx)                  # one more first derivative
        assert np.max(np.abs(f.values - ref)) < 1e-11 * max(1.0, k**order)


def test_field_is_frozen_and_caches_its_derivative():
    grid = Grid(256, 64.0, -32.0)
    f = Field(grid, np.sin(2 * np.pi * 3 * grid.x / grid.length))
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.values = np.zeros(grid.n)
    assert f.dx is f.dx
    k = grid.wavenumbers
    sym = grid.derivative_symbol
    assert sym[-1] == 0.0
    assert np.array_equal(sym[:-1].view(np.float64), ((1j * k) ** 1)[:-1].view(np.float64))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_int_power_within_two_eps_of_long_double(p):
    # a signed field over ten e-foldings of magnitude; the error is measured in
    # float64 epsilons relative to the extended-precision power
    rng = np.random.default_rng(p)
    v = rng.standard_normal(8192) * np.exp(rng.uniform(-5.0, 5.0, 8192))
    exact = v.astype(np.longdouble) ** (p + 1)
    err = np.abs(_int_power(v, p + 1) - exact) / (np.finfo(np.float64).eps * np.abs(exact))
    assert np.max(err) <= 2.0


def test_norms_against_gaussian():
    grid = Grid(1024, 64.0, -32.0)
    g = Field(grid, np.exp(-grid.x**2 / 2.0))
    pi4 = np.pi ** 0.25
    assert abs(l2_norm(g) - pi4) < 1e-12
    assert abs(h1_norm(g) - np.sqrt(np.sqrt(np.pi) * 1.5)) < 1e-12
    half = l2_norm_right_of(g, 0.0)
    assert abs(half**2 - 0.5 * np.sqrt(np.pi)) < 0.05 * np.sqrt(np.pi)
    assert l2_norm_right_of(g, grid.x0 - 1.0) == l2_norm(g)
    assert l2_norm_right_of(g, grid.x0 + grid.length) == 0.0


def test_conserved_on_soliton():
    grid = Grid(2048, 256.0, -128.0)
    u = soliton_sum(P2, SolitonState((1.0,), (0.0,)), grid)
    mass, energy = conserved(u, P2)
    assert abs(mass - 6.0) < 1e-9
    assert abs(energy - (-1.8)) < 1e-9


# ---------------------------------------------------------------------------
# stepping gates and trivial solutions

def test_stability_gate():
    grid = Grid(512, 64.0, -32.0)
    bound = dt_stability_bound(grid)
    assert abs(bound - C_STAB * grid.spacing**3) < 1e-18
    Stepper(grid, bound, P2)                     # at the gate: fine
    with pytest.raises(StepSizeError):
        Stepper(grid, bound * 1.01, P2)
    with pytest.raises(ParameterError):
        Stepper(grid, -1e-4, P2)


def test_zero_field_is_fixed_point():
    grid = Grid(256, 64.0, -32.0)
    z = Field(grid, np.zeros(grid.n))
    out = evolve(z, 1e-3, P2, 1e-3).fields[-1]
    assert np.array_equal(out.values, np.zeros(grid.n))
    traj = evolve(z, 0.1, P2, 1e-3)
    assert np.array_equal(traj.fields[-1].values, np.zeros(grid.n))


def test_constant_field_is_fixed_point():
    # (u^p)_x and u_xxx both vanish on constants; the mean mode is untouched
    grid = Grid(256, 64.0, -32.0)
    u = Field(grid, np.full(grid.n, 0.7))
    out = evolve(u, 1e-3, P2, 1e-3).fields[-1]
    assert np.max(np.abs(out.values - 0.7)) < 1e-14


def test_evolve_validation_and_snapshots():
    grid = Grid(256, 64.0, -32.0)
    z = Field(grid, np.zeros(grid.n))
    with pytest.raises(ParameterError):
        evolve(z, 0.1005, P2, 1e-3)                   # t_final not on the dt lattice
    with pytest.raises(ParameterError):
        evolve(z, 0.1, P2, 1e-3, cadence=0.0005)      # cadence below dt
    with pytest.raises(ParameterError):
        evolve(z, 0.1, P2, 1e-3, cadence=0.03)        # horizon not on cadence lattice
    with pytest.raises(ParameterError):
        evolve(z, 0.1, P2, 0.0)                       # no lattice; was a ZeroDivisionError
    seen = []
    traj = evolve(z, 0.1, P2, 1e-3, cadence=0.02, observer=lambda t, u: seen.append(t))
    assert np.allclose(traj.times, np.arange(6) * 0.02)
    assert seen[0] == 0.0 and len(seen) == 6
    assert len(traj.fields) == 6
    lean = evolve(z, 0.1, P2, 1e-3, cadence=0.02, keep_fields=False)
    assert lean.fields == []


def test_trajectory_final_is_the_last_snapshot():
    grid = Grid(512, 128.0, -64.0)
    u0 = soliton_sum(P2, SolitonState((1.0,), (-20.0,)), grid)
    kept = evolve(u0, 0.1, P2, 1e-3, cadence=0.02)
    assert kept.final is kept.fields[-1]
    streamed = evolve(u0, 0.1, P2, 1e-3, cadence=0.02, keep_fields=False)
    assert streamed.fields == []
    assert np.array_equal(streamed.final.values, kept.final.values)
    # a blowup's partial trajectory ends at its last finite snapshot
    coarse = Grid(512, 64.0, -32.0)
    big = Field(coarse, 300.0 * np.exp(-coarse.x**2))
    with pytest.raises(BlowupError) as err, np.errstate(over="ignore", invalid="ignore"):
        evolve(big, 1.0, P2, dt_stability_bound(coarse), keep_fields=False)
    final = err.value.trajectory.final
    assert final is not None and final.grid == coarse
    assert np.all(np.isfinite(final.values))


def test_kept_fields_hold_no_cached_derivative():
    grid = Grid(512, 128.0, -64.0)
    u0 = soliton_sum(P2, SolitonState((1.0,), (-20.0,)), grid)
    cached = []
    traj = evolve(u0, 0.1, P2, 1e-3, cadence=0.02,
                  observer=lambda t, u: cached.append("dx" in vars(u)))
    assert cached == [True] * 6                   # conserved() filled it for the observer
    assert len(traj.fields) == 6
    assert not any("dx" in vars(f) for f in traj.fields)


def test_evolve_deterministic():
    grid = Grid(512, 128.0, -64.0)
    u0 = soliton_sum(P2, SolitonState((1.0,), (-20.0,)), grid)
    a = evolve(u0, 1.0, P2, 1e-3).fields[-1].values
    b = evolve(u0, 1.0, P2, 1e-3).fields[-1].values
    assert np.array_equal(a, b)


def test_blowup_reports_last_finite_time():
    grid = Grid(512, 64.0, -32.0)
    u0 = Field(grid, 300.0 * np.exp(-grid.x**2))
    with pytest.raises(BlowupError) as err, np.errstate(over="ignore", invalid="ignore"):
        evolve(u0, 1.0, P2, dt_stability_bound(grid))
    assert err.value.t_last >= 0.0
    assert err.value.trajectory is not None
    assert err.value.trajectory.times.size >= 1


# ---------------------------------------------------------------------------
# the buffered step

def _evolved_stack(grid, params, dt, rows, sponge=None):
    """Spectra of two-soliton fields plus different signed sines, after 50
    oracle steps: fresh soliton_sum data puts subnormals into u^p on the
    first steps, and an evolved state has none."""
    base = soliton_sum(params, SolitonState((1.0, 2.0), (-20.0, 20.0)), grid).values
    wave = np.sin(2 * np.pi * 7 * (grid.x - grid.x0) / grid.length)
    uhat = np.fft.rfft(np.stack([base + 1e-3 * (r + 1) * wave for r in range(rows)]))
    oracle = OracleStepper(grid, dt, params, sponge)
    for _ in range(50):
        uhat = oracle.step_hat(uhat)
    return uhat


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("sponge", [False, True])
@pytest.mark.parametrize("rows", [None, 4])
def test_step_hat_matches_the_expression_oracle(p, sponge, rows):
    grid = Grid(2048, 128.0, -64.0)
    params, dt = ModelParams(p), 4e-4
    sp = SpongeSettings(enabled=True, width_fraction=0.1, strength=5.0) if sponge else None
    start = _evolved_stack(grid, params, dt, rows or 1, sp)
    uhat = ref = start if rows else start[0].copy()
    stepper, oracle = Stepper(grid, dt, params, sp), OracleStepper(grid, dt, params, sp)
    for _ in range(50):
        uhat, ref = stepper.step_hat(uhat), oracle.step_hat(ref)
    assert uhat.shape == ref.shape == start.shape[rows is None:]
    assert np.array_equal(uhat, ref)


def test_step_hat_allocates_only_the_spectrum_it_returns():
    grid = Grid(4096, 256.0, -80.0)                 # the limb-sweep stack
    params, dt = ModelParams(3), 4e-4
    start = _evolved_stack(grid, params, dt, 4)
    stepper = Stepper(grid, dt, params)
    uhat = stepper.step_hat(start)                  # sizes the buffers to the stack
    before = uhat.copy()
    tracemalloc.start()
    try:
        out = stepper.step_hat(uhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4096
    assert np.array_equal(uhat.view(np.uint64), before.view(np.uint64))
    owned = [v for v in vars(stepper).values() if isinstance(v, np.ndarray)] + stepper._stages
    assert not any(np.shares_memory(out, a) for a in owned + [uhat])
    # shrink the stack from 4 rows to 3, as evolve does when a member leaves
    uhat = out[[0, 2, 3]]
    for _ in range(5):
        uhat = stepper.step_hat(uhat)
    solo = Stepper(grid, dt, params)
    for row, got in zip((0, 2, 3), uhat):
        ref = start[row].copy()
        for _ in range(7):
            ref = solo.step_hat(ref)
        assert np.array_equal(got, ref)


# ---------------------------------------------------------------------------
# stacked evolution

def _recorder(seen):
    return lambda t, u: seen.append((t, u.values.copy()))


# (batch, sponge, p, grid, dt), each run for 100 steps: every small case, the
# limb-sweep stack and an n = 8192 stack with the sponge, all under the gate
_STACK_CASES = [pytest.param(batch, sponge, p, (512, 128.0, -64.0), 1e-3,
                             id=f"{batch}-{sponge}-{p}")
                for p in (2, 3, 4) for sponge in (False, True) for batch in (1, 3)] + [
    pytest.param(4, False, 3, (4096, 256.0, -80.0), 4e-4, id="4-False-3-n4096"),
    pytest.param(4, True, 2, (8192, 512.0, -256.0), 2e-4, id="4-True-2-n8192"),
]


@pytest.mark.parametrize("batch, sponge, p, grid, dt", _STACK_CASES)
def test_stacked_evolve_matches_sequential(batch, sponge, p, grid, dt):
    grid = Grid(*grid)
    params = ModelParams(p)
    sp = SpongeSettings(enabled=True, width_fraction=0.1, strength=5.0) if sponge else None
    base = soliton_sum(params, SolitonState((1.0, 2.0), (-20.0, 20.0)), grid).values
    u0s = [Field(grid, base + a * np.exp(-(grid.x - 3.0) ** 2 / 25.0))
           for a in (0.0, 1e-2, 3e-2, 5e-2)[:batch]]
    seen = [[] for _ in u0s]
    t_final, cadence = 100 * dt, 20 * dt
    stacked = evolve(u0s, t_final, params, dt, cadence=cadence, sponge=sp,
                     observer=[_recorder(s) for s in seen])
    assert len(stacked) == batch
    stepper = Stepper(grid, dt, params, sp)
    for u0, traj, got in zip(u0s, stacked, seen):
        mine = []
        solo = evolve(u0, t_final, params, dt, cadence=cadence, sponge=sp,
                      observer=_recorder(mine))
        for name in ("times", "mass", "energy"):
            assert np.array_equal(getattr(traj, name), getattr(solo, name))
        for a, b in zip(traj.fields, solo.fields):
            assert np.array_equal(a.values, b.values)
        assert [t for t, _ in got] == [t for t, _ in mine]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, mine))
        # and against one-dimensional stepping of the same row
        uhat = np.fft.rfft(u0.values)
        for _ in range(100):
            uhat = stepper.step_hat(uhat)
        assert np.array_equal(traj.fields[-1].values, np.fft.irfft(uhat, grid.n))


def test_stacked_evolve_isolates_failed_members():
    grid = Grid(512, 64.0, -32.0)
    dt = dt_stability_bound(grid)
    cadence = 32 * dt

    class Refuses:
        """Observer that raises a package error from t = 2 * cadence on."""

        def __init__(self):
            self.error = None

        def __call__(self, t, u):
            if t >= 2 * cadence:
                self.error = ParameterError("synthetic observer failure")
                raise self.error

    def fresh():
        return [soliton_sum(P2, SolitonState((1.0,), (-10.0,)), grid),
                Field(grid, 300.0 * np.exp(-grid.x**2)),         # blows up
                soliton_sum(P2, SolitonState((1.5,), (0.0,)), grid),
                soliton_sum(P2, SolitonState((2.0,), (10.0,)), grid)]

    u0s = fresh()
    refuses = Refuses()
    with np.errstate(over="ignore", invalid="ignore"):
        out = evolve(u0s, 1.0, P2, dt, cadence=cadence, observer=[None, None, refuses, None])
        with pytest.raises(BlowupError) as solo_blowup:
            evolve(u0s[1], 1.0, P2, dt, cadence=cadence)
    for k in (0, 3):                                    # survivors: as if run alone
        solo = evolve(u0s[k], 1.0, P2, dt, cadence=cadence)
        assert np.array_equal(out[k].times, solo.times)
        assert np.array_equal(out[k].mass, solo.mass)
        assert all(np.array_equal(a.values, b.values)
                   for a, b in zip(out[k].fields, solo.fields))
    blown = out[1]
    assert isinstance(blown, BlowupError)
    assert str(blown) == str(solo_blowup.value)
    assert blown.t_last == solo_blowup.value.t_last < 1.0
    assert np.array_equal(blown.trajectory.times, solo_blowup.value.trajectory.times)
    refused = out[2]
    assert refused is refuses.error
    assert refused.trajectory.times[-1] == 2 * cadence
    assert refused.t_last == 50 * dt                    # the last finite-value check
    with pytest.raises(ParameterError) as solo_refused:
        evolve(u0s[2], 1.0, P2, dt, cadence=cadence, observer=Refuses())
    assert solo_refused.value.t_last == refused.t_last
    assert np.array_equal(solo_refused.value.trajectory.mass, refused.trajectory.mass)


# ---------------------------------------------------------------------------
# propagation fidelity

def test_single_soliton_propagation_small_grid():
    grid = Grid(1024, 128.0, -64.0)
    u0 = Field(grid, eval_Qc(2, 1.0, grid.x + 20.0))
    traj = evolve(u0, 5.0, P2, 4e-4, cadence=5.0)
    exact = eval_Qc(2, 1.0, grid.x + 20.0 - 5.0)
    err = l2_norm(Field(grid, traj.fields[-1].values - exact))
    assert err < 1e-8


def test_reflection_symmetry():
    # u(-t,-x) solves the same equation: reflecting the final state and
    # evolving again returns the reflected initial state
    grid = Grid(2048, 128.0, -64.0)
    u0 = kdv_nsoliton_profile(SolitonState((1.0, 4.0), (6.0, -6.0)), 0.0, grid)
    T = 6.0
    uT = evolve(u0, T, P2, 4e-4, cadence=T).fields[-1]

    def reflect(f):
        idx = (-np.arange(grid.n)) % grid.n
        return Field(grid, f.values[idx])

    back = evolve(reflect(uT), T, P2, 4e-4, cadence=T).fields[-1]
    assert h1_norm(Field(grid, back.values - reflect(u0).values)) < 1e-6


# ---------------------------------------------------------------------------
# temporal convergence

@pytest.fixture(scope="module")
def soliton_dt_errors():
    # single soliton fast enough for the time-integration error to clear the
    # roundoff floor by orders of magnitude (errors ~1e-4..1e-7)
    dts = (4e-4, 2e-4, 1e-4)
    errs = temporal_errors(P2, Grid(2048, 128.0, -64.0), 8.0, 10.0, dts, x_start=-30.0)
    return dict(zip(dts, errs))


def _fit_slope(errs):
    xs = np.log(sorted(errs, reverse=True))
    ys = np.log([errs[d] for d in sorted(errs, reverse=True)])
    return float(np.polyfit(xs, ys, 1)[0])


@pytest.mark.slow
def test_temporal_convergence_at_least_fourth_order(soliton_dt_errors):
    # the integrator must not degrade below its design order; on traveling
    # waves the leading global error term nearly cancels, so the measured
    # slope sits near 4.9 rather than 4.0 (see the widened upper edge)
    slope = _fit_slope(soliton_dt_errors)
    assert 3.8 <= slope <= 5.2
    assert soliton_dt_errors[4e-4] > 1e-5      # far above the roundoff floor
    assert soliton_dt_errors[1e-4] > 1e-8


@pytest.mark.slow
@pytest.mark.xfail(strict=True,
                   reason="traveling-wave runs superconverge (measured slope "
                          "~4.89); the nominal 4.0 +/- 0.2 band is not "
                          "attainable above the double-precision floor")
def test_temporal_convergence_nominal_band(soliton_dt_errors):
    slope = _fit_slope(soliton_dt_errors)
    assert 3.8 <= slope <= 4.2


@pytest.mark.slow
def test_conservation_reference_resolution(conservation_drift):
    # drift gates at the reference configuration over a long horizon; the
    # run is longruns.conservation_drift, which goes on in the background
    # from the start of the session, so this test comes after the others
    # that evolve in this process
    dm, de = conservation_drift
    assert dm <= 1e-8
    assert de <= 1e-7


# ---------------------------------------------------------------------------
# absorbing layer

def test_sponge_profile_shape():
    grid = Grid(512, 128.0, -64.0)
    off = sponge_profile(grid, SpongeSettings(enabled=False))
    assert np.array_equal(off, np.zeros(grid.n))
    cfg = SpongeSettings(enabled=True, width_fraction=0.1, strength=3.0)
    sig = sponge_profile(grid, cfg)
    assert np.all(sig >= 0.0)
    assert sig.max() <= 3.0
    # supported only within half-width of the seam at x0
    w = 0.5 * 0.1 * grid.length
    dist = np.abs(grid.wrap(grid.x - grid.x0))
    assert np.all(sig[dist > w] == 0.0)
    assert sig[0] == 3.0                              # mollifier peaks at the seam


def test_sponge_config_validation():
    grid = Grid(512, 128.0, -64.0)
    for bad in (dict(width_fraction=0.6), dict(width_fraction=0.0), dict(strength=-1.0),
                dict(strength=0.0)):
        with pytest.raises(ParameterError):
            sponge_profile(grid, SpongeSettings(enabled=True, **bad))
    # a disabled layer is never built, so its ranges are not checked
    off = sponge_profile(grid, SpongeSettings(enabled=False, width_fraction=0.6))
    assert np.array_equal(off, np.zeros(grid.n))


def test_sponge_absorbs_escaping_soliton():
    grid = Grid(1024, 128.0, -64.0)
    u0 = soliton_sum(P2, SolitonState((2.0,), (45.0,)), grid)
    sp = SpongeSettings(enabled=True, width_fraction=0.1, strength=5.0)
    traj = evolve(u0, 12.0, P2, 1e-3, cadence=1.0, sponge=sp)
    assert traj.mass[-1] < 0.3 * traj.mass[0]


# ---------------------------------------------------------------------------
# snapshot container

def test_snapshot_roundtrip(tmp_path):
    # a simulate run's snapshots.npz holds the fields of a direct evolve of
    # the same config, bit for bit, with what it takes to rebuild the grid
    cfg = ExperimentConfig(family="simulate", speeds=(1.0,), positions=(0.0,),
                           grid=GridConfig(256, 64.0, -32.0), dt=1e-3,
                           t_final=0.1, cadence=0.05, write_snapshots=True)
    execute(cfg, tmp_path)
    grid = Grid(256, 64.0, -32.0)
    u0 = soliton_sum(P2, SolitonState((1.0,), (0.0,)), grid)
    traj = evolve(u0, 0.1, P2, 1e-3, cadence=0.05)
    with np.load(tmp_path / "snapshots.npz") as snaps:
        assert snaps["p"] == 2
        assert Grid(int(snaps["n"]), float(snaps["length"]), float(snaps["x0"])) == grid
        assert (snaps["dt"], snaps["cadence"]) == (1e-3, 0.05)
        assert np.array_equal(snaps["t"], traj.times)
        assert snaps["u"].shape == (len(traj.fields), grid.n)
        for i, f in enumerate(traj.fields):
            assert np.array_equal(snaps["u"][i], f.values)
