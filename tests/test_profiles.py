"""Ground profile, rescaling laws, sampled sums, and the exact p=2 family."""

import numpy as np
import pytest
from scipy.integrate import quad

from gkdv import (DomainTooSmallError, Field, Grid, ModelParams, ParameterError,
                  SolitonState, UnsupportedModelError, eval_Q, eval_Qc,
                  kdv_nsoliton_profile, profile_gradient_constant,
                  profile_integral_constant, profile_mass_constant,
                  sigma0_of_speeds, soliton_energy, soliton_mass, soliton_sum)
from gkdv.profiles import SolitonBasis

ALL_P = (2, 3, 4)


# ---------------------------------------------------------------------------
# ground profile

@pytest.mark.parametrize("p,peak", [(2, 1.5), (3, np.sqrt(2.0)), (4, 2.5 ** (1.0 / 3.0))])
def test_peak_value(p, peak):
    # Q(0) = ((p+1)/2)^(1/(p-1))
    assert abs(float(eval_Q(p, 0.0)) - peak) < 1e-14


@pytest.mark.parametrize("p", ALL_P)
def test_profile_ode(p):
    # Q'' + Q^p = Q is the defining equation; closed-form derivatives must
    # satisfy it pointwise
    x = np.linspace(-25.0, 25.0, 1201)
    Q = eval_Q(p, x)
    resid = eval_Q(p, x, 2) + Q**p - Q
    assert np.max(np.abs(resid)) < 1e-13


@pytest.mark.parametrize("p", ALL_P)
def test_shape(p):
    x = np.linspace(-30.0, 30.0, 601)
    Q = eval_Q(p, x)
    assert np.all(Q > 0)
    assert np.max(np.abs(Q - eval_Q(p, -x))) < 1e-15      # even
    assert abs(float(eval_Q(p, 0.0, 1))) < 1e-15          # critical point at 0
    # decay rate -1 regardless of p (linearization Q'' = Q at the tails)
    rate = (np.log(eval_Q(p, 20.0)) - np.log(eval_Q(p, 10.0))) / 10.0
    assert abs(rate + 1.0) < 1e-3


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("deriv", [1, 2])
def test_derivatives_match_finite_differences(p, deriv):
    x = np.linspace(-8.0, 8.0, 161)
    h = 1e-5
    fd = (eval_Q(p, x + h, deriv - 1) - eval_Q(p, x - h, deriv - 1)) / (2 * h)
    assert np.max(np.abs(eval_Q(p, x, deriv) - fd)) < 1e-8


def test_bad_inputs():
    with pytest.raises(UnsupportedModelError):
        eval_Q(5, 0.0)
    with pytest.raises(ParameterError):
        eval_Q(2, 0.0, deriv=3)
    with pytest.raises(ParameterError):
        eval_Qc(2, -1.0, 0.0)
    with pytest.raises(ParameterError):
        eval_Qc(2, np.inf, 0.0)


# ---------------------------------------------------------------------------
# rescaled profile

def test_qc_example_value():
    # c * Q(0) at p=2: 4 * 1.5
    assert abs(float(eval_Qc(2, 4.0, 0.0)) - 6.0) < 1e-14


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("c", [0.5, 1.0, 2.7])
def test_qc_scaling_identity(p, c):
    x = np.linspace(-12.0, 12.0, 241)
    lhs = eval_Qc(p, c, x)
    rhs = c ** (1.0 / (p - 1)) * eval_Q(p, np.sqrt(c) * x)
    assert np.array_equal(lhs, rhs)   # same floating-point expression by design


@pytest.mark.parametrize("p", ALL_P)
def test_qc_solves_traveling_ode(p):
    # Q_c'' + Q_c^p = c Q_c
    c = 1.7
    x = np.linspace(-15.0, 15.0, 301)
    Qc = eval_Qc(p, c, x)
    resid = eval_Qc(p, c, x, 2) + Qc**p - c * Qc
    assert np.max(np.abs(resid)) < 1e-12


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("c", [0.8, 2.0])
def test_speed_derivatives(p, c):
    # one soliton at the origin of a grid on [-10, 10): the offsets are x itself
    grid = Grid(256, 20.0, -10.0)
    basis = SolitonBasis(ModelParams(p), SolitonState((c,), (0.0,)), grid)
    x = grid.x
    h = 1e-6 * c
    fd0 = (eval_Qc(p, c + h, x) - eval_Qc(p, c - h, x)) / (2 * h)
    fd1 = (eval_Qc(p, c + h, x, 1) - eval_Qc(p, c - h, x, 1)) / (2 * h)
    assert np.max(np.abs(basis.dR_dc[0] - fd0)) < 1e-7
    assert np.max(np.abs(basis.dRx_dc[0] - fd1)) < 1e-7


# ---------------------------------------------------------------------------
# profile constants: quadrature oracles recomputed here, then the frozen values

def _quad_oracle(f):
    val, err = quad(f, -60.0, 60.0, epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-10
    return val


@pytest.mark.parametrize("p,frozen", [(2, 6.0), (3, 4.0), (4, 3.1769977022)])
def test_mass_constant(p, frozen):
    oracle = _quad_oracle(lambda x: float(eval_Q(p, x)) ** 2)
    assert abs(oracle - frozen) < 1e-9
    assert abs(profile_mass_constant(p) - oracle) < 1e-12


def test_gradient_constant_p2():
    # int (Q')^2 = 1.2 for p=2 (sech^4-sech^6 moments)
    oracle = _quad_oracle(lambda x: float(eval_Q(2, x, 1)) ** 2)
    assert abs(oracle - 1.2) < 1e-12
    assert abs(profile_gradient_constant(2) - oracle) < 1e-12


@pytest.mark.parametrize("p", (3, 4))
def test_gradient_constant_matches_quadrature(p):
    oracle = _quad_oracle(lambda x: float(eval_Q(p, x, 1)) ** 2)
    assert abs(profile_gradient_constant(p) - oracle) < 1e-12


@pytest.mark.parametrize("p", ALL_P)
def test_integral_constant(p):
    oracle = _quad_oracle(lambda x: float(eval_Q(p, x)))
    assert abs(profile_integral_constant(p) - oracle) < 1e-12
    if p == 2:
        assert abs(oracle - 6.0) < 1e-12   # 1.5 * int sech^2(x/2) = 6


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
def test_mass_scaling(p, c):
    oracle = _quad_oracle(lambda x: float(eval_Qc(p, c, x)) ** 2)
    assert abs(soliton_mass(p, c) - oracle) < 1e-9 * max(1.0, oracle)
    expo = (5.0 - p) / (2.0 * (p - 1))
    assert abs(soliton_mass(p, c) - c**expo * profile_mass_constant(p)) < 1e-12


def test_mass_example():
    assert abs(soliton_mass(2, 1.0) - 6.0) < 1e-8


def test_energy_example():
    assert abs(soliton_energy(2, 1.0) - (-1.8)) < 1e-6


@pytest.mark.parametrize("p", ALL_P)
@pytest.mark.parametrize("c", [0.7, 2.0])
def test_energy_matches_quadrature(p, c):
    kin = _quad_oracle(lambda x: float(eval_Qc(p, c, x, 1)) ** 2)
    pot = _quad_oracle(lambda x: float(eval_Qc(p, c, x)) ** (p + 1))
    oracle = 0.5 * kin - pot / (p + 1)
    assert abs(soliton_energy(p, c) - oracle) < 1e-9 * max(1.0, abs(oracle))


# ---------------------------------------------------------------------------
# modulation state

def test_state_validation():
    with pytest.raises(ParameterError):
        SolitonState((1.0, 0.5), (0.0, 10.0))      # not increasing
    with pytest.raises(ParameterError):
        SolitonState((1.0, -2.0), (0.0, 10.0))
    with pytest.raises(ParameterError):
        SolitonState((1.0, 2.0), (0.0,))
    with pytest.raises(ParameterError):
        SolitonState((), ())
    with pytest.raises(ParameterError):
        SolitonState((1.0, np.nan), (0.0, 1.0))


def test_sigma0():
    assert sigma0_of_speeds(np.array([1.0])) == 0.5
    assert SolitonState((1.0, 4.0), (0.0, 10.0)).sigma0 == 0.5
    assert SolitonState((0.25, 0.75), (0.0, 10.0)).sigma0 == 0.125
    assert SolitonState((2.0, 3.0, 7.0), (0.0, 10.0, 20.0)).sigma0 == 0.5


# ---------------------------------------------------------------------------
# sampled sums

def test_soliton_sum_superposition():
    grid = Grid(1024, 256.0, -128.0)
    params = ModelParams(2)
    s1 = soliton_sum(params, SolitonState((1.0,), (-30.0,)), grid)
    s2 = soliton_sum(params, SolitonState((2.0,), (30.0,)), grid)
    both = soliton_sum(params, SolitonState((1.0, 2.0), (-30.0, 30.0)), grid)
    assert np.max(np.abs(both.values - s1.values - s2.values)) < 1e-15


def test_soliton_sum_uses_minimal_image():
    grid = Grid(1024, 256.0, -128.0)
    params = ModelParams(2)
    a = soliton_sum(params, SolitonState((1.0,), (-120.0,)), grid)
    b = soliton_sum(params, SolitonState((1.0,), (136.0,)), grid)   # same point mod 256
    assert np.max(np.abs(a.values - b.values)) < 1e-15


@pytest.mark.parametrize("p", ALL_P)
def test_soliton_basis_rows(p):
    # positions on both sides of the seam at -64/+64, one of them unwrapped
    grid = Grid(512, 128.0, -64.0)
    state = SolitonState((0.7, 1.3, 2.1), (-50.0, 3.5, 110.25))
    basis = SolitonBasis(ModelParams(p), state, grid)
    total = np.zeros(grid.n)
    for j, (c, x0) in enumerate(zip(state.speeds, state.positions)):
        y = grid.wrap(grid.x - x0)
        assert np.array_equal(basis.offsets[j], y)
        for deriv, rows in enumerate((basis.R, basis.Rx, basis.Rxx)):
            assert np.array_equal(rows[j], eval_Qc(p, c, y, deriv))
        total += eval_Qc(p, c, y)
    assert np.array_equal(basis.total, total)
    assert np.array_equal(soliton_sum(ModelParams(p), state, grid).values, total)
    other = (1.0, 1.5, 2.5)
    assert np.array_equal(basis.rows(1, speeds=other),
                          np.stack([eval_Qc(p, c, y, 1) for c, y in zip(other, basis.offsets)]))
    # speed derivatives against central differences of the rows in c_j
    for j, c in enumerate(state.speeds):
        h = 1e-6 * c
        moved = [np.array(state.speeds) for _ in range(2)]
        moved[0][j] += h
        moved[1][j] -= h
        fd0 = (basis.rows(0, moved[0])[j] - basis.rows(0, moved[1])[j]) / (2 * h)
        fd1 = (basis.rows(1, moved[0])[j] - basis.rows(1, moved[1])[j]) / (2 * h)
        assert np.max(np.abs(basis.dR_dc[j] - fd0)) < 1e-7
        assert np.max(np.abs(basis.dRx_dc[j] - fd1)) < 1e-7


def test_soliton_sum_rejects_fat_tails():
    grid = Grid(256, 32.0, -16.0)
    with pytest.raises(DomainTooSmallError):
        soliton_sum(ModelParams(2), SolitonState((0.04,), (0.0,)), grid)


# ---------------------------------------------------------------------------
# exact two-plus-soliton family (p = 2 only)

def test_nsoliton_single_reduces_to_qc():
    grid = Grid(2048, 256.0, -128.0)
    for c, y, t in [(1.0, 0.0, 0.0), (4.0, -20.0, 3.0), (2.25, 10.0, -2.0)]:
        prof = kdv_nsoliton_profile((c,), (y,), t, grid)
        ref = eval_Qc(2, c, grid.x - c * t - y)
        assert np.max(np.abs(prof.values - ref)) < 1e-12


def _peaks(field, height):
    v = field.values
    idx = [i for i in range(1, len(v) - 1)
           if v[i] > height and v[i] >= v[i - 1] and v[i] >= v[i + 1]]
    out = []
    for i in idx:
        # quadratic refinement of the peak location and height
        a, b, c = v[i - 1], v[i], v[i + 1]
        off = 0.5 * (a - c) / (a - 2 * b + c)
        top = b - 0.125 * (a - c) ** 2 / (a - 2 * b + c)
        out.append((field.grid.x[i] + off * field.grid.spacing, top))
    return out


def test_nsoliton_separated_pair_is_near_sum():
    # the phase parameters are not positions (pairwise log-shifts enter), so
    # locate the solitons by their peaks and compare against a profile sum
    grid = Grid(2048, 256.0, -128.0)
    prof = kdv_nsoliton_profile((1.0, 4.0), (-40.0, 40.0), 0.0, grid)
    peaks = _peaks(prof, 0.5)
    assert len(peaks) == 2
    (xa, ha), (xb, hb) = sorted(peaks, key=lambda q: q[1])
    assert abs(ha - 1.5) < 1e-3 and abs(hb - 6.0) < 1e-3
    assert abs(xa - xb) > 50.0
    state = SolitonState((1.0, 4.0), tuple(sorted((xa, xb))))
    ref = soliton_sum(ModelParams(2), state, grid)
    assert np.max(np.abs(prof.values - ref.values)) < 2e-2


def test_nsoliton_peaks_travel_at_their_speeds():
    grid = Grid(2048, 256.0, -128.0)
    f0 = kdv_nsoliton_profile((1.0, 4.0), (-40.0, 40.0), 0.0, grid)
    f1 = kdv_nsoliton_profile((1.0, 4.0), (-40.0, 40.0), 1.0, grid)
    p0 = sorted(_peaks(f0, 0.5), key=lambda q: q[1])
    p1 = sorted(_peaks(f1, 0.5), key=lambda q: q[1])
    assert abs((p1[0][0] - p0[0][0]) - 1.0) < 1e-2
    assert abs((p1[1][0] - p0[1][0]) - 4.0) < 1e-2


def test_nsoliton_mass_independent_of_time():
    # the exact solution conserves int u^2; evaluate the formula at two times
    grid = Grid(4096, 512.0, -256.0)
    h = grid.spacing
    m0 = h * np.sum(kdv_nsoliton_profile((1.0, 4.0), (20.0, -20.0), 0.0, grid).values ** 2)
    m1 = h * np.sum(kdv_nsoliton_profile((1.0, 4.0), (20.0, -20.0), 13.0, grid).values ** 2)
    assert abs(m0 - m1) < 1e-9 * m0


def test_nsoliton_input_validation():
    grid = Grid(256, 64.0, -32.0)
    with pytest.raises(UnsupportedModelError):
        kdv_nsoliton_profile((1.0,), (0.0,), 0.0, grid, p=3)
    with pytest.raises(ParameterError):
        kdv_nsoliton_profile((2.0, 2.0), (0.0, 10.0), 0.0, grid)
    with pytest.raises(ParameterError):
        kdv_nsoliton_profile((1.0, -4.0), (0.0, 10.0), 0.0, grid)
    with pytest.raises(ParameterError):
        kdv_nsoliton_profile((1.0, 4.0), (0.0,), 0.0, grid)


def test_model_params():
    with pytest.raises(UnsupportedModelError):
        ModelParams(5)
    mp = ModelParams(3)
    assert mp.beta == 1.0
    assert mp.kappa == (5.0 - 3.0) / (3.0 + 3.0)
    assert abs(mp.mass_exponent - 0.5) < 1e-15
