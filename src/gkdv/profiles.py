"""Soliton profiles, their scalings, and the integrable two-plus-soliton family.

The ground profile solves Q'' + Q^p = Q and every derived quantity below is
expressed through it: the rescaled traveling wave Q_c, sums of separated
solitons on a periodic grid, closed-form mass/energy scalings, and (for the
quadratic model only) the exact multi-soliton family evaluated through its
determinant expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import DomainTooSmallError, ParameterError, UnsupportedModelError
from .grid import Field, Grid

SUPPORTED_P = (2, 3, 4)


def _check_p(p: int) -> int:
    if p not in SUPPORTED_P:
        raise UnsupportedModelError(f"nonlinearity exponent p={p} unsupported; must be one of {SUPPORTED_P}")
    return int(p)


@dataclass(frozen=True)
class ModelParams:
    """Model selector: u_t + (u_xx + u^p)_x = 0 with subcritical p."""

    p: int

    def __post_init__(self):
        _check_p(self.p)

    @property
    def beta(self) -> float:
        """Scaling exponent of the profile amplitude: Q_c = c^(beta/2) Q(sqrt(c) x)."""
        return 2.0 / (self.p - 1)

    @property
    def kappa(self) -> float:
        """Energy-to-mass ratio constant (5-p)/(p+3) of the rescaled soliton."""
        return (5.0 - self.p) / (self.p + 3.0)

    @property
    def mass_exponent(self) -> float:
        """d/dc exponent of the soliton mass: int Q_c^2 = c^mass_exponent int Q^2."""
        return self.beta - 0.5


@dataclass(frozen=True)
class SolitonState:
    """Modulation state: speeds sorted strictly increasing, one position each.

    Positions are unconstrained reals (they wrap on periodic grids and may be
    kept unwrapped for continuity along a trajectory).
    """

    speeds: tuple
    positions: tuple

    def __post_init__(self):
        c = np.asarray(self.speeds, dtype=np.float64)
        x = np.asarray(self.positions, dtype=np.float64)
        if c.ndim != 1 or c.size == 0 or x.shape != c.shape:
            raise ParameterError("speeds and positions must be 1d arrays of equal nonzero length")
        if not np.all(np.isfinite(c)) or not np.all(np.isfinite(x)):
            raise ParameterError("speeds and positions must be finite")
        if not np.all(c > 0):
            raise ParameterError("speeds must be positive")
        if c.size > 1 and not np.all(np.diff(c) > 0):
            raise ParameterError("speeds must be strictly increasing")
        object.__setattr__(self, "speeds", tuple(float(v) for v in c))
        object.__setattr__(self, "positions", tuple(float(v) for v in x))

    @property
    def n(self) -> int:
        return len(self.speeds)

    @property
    def speed_array(self) -> np.ndarray:
        return np.asarray(self.speeds)

    @property
    def position_array(self) -> np.ndarray:
        return np.asarray(self.positions)

    @property
    def sigma0(self) -> float:
        """Half the smallest of (c_1, consecutive speed gaps)."""
        return sigma0_of_speeds(self.speed_array)


def sigma0_of_speeds(speeds: np.ndarray) -> float:
    c = np.asarray(speeds, dtype=np.float64)
    gaps = np.concatenate(([c[0]], np.diff(c)))
    return 0.5 * float(gaps.min())


def _sech(z: np.ndarray) -> np.ndarray:
    # overflow-safe sech for large |z|
    az = np.abs(z)
    e = np.exp(-az)
    return 2.0 * e / (1.0 + e * e)


def eval_Q(p: int, x, deriv: int = 0):
    """Ground profile Q (or its first/second derivative) at x.

    Q(x) = ((p+1) / (2 cosh^2((p-1)x/2)))^(1/(p-1)); derivatives use the
    closed forms Q' = -a q Q tanh(ax), Q'' = a^2 q Q (q - (q+1) sech^2(ax))
    with a = (p-1)/2, q = 2/(p-1).
    """
    p = _check_p(p)
    x = np.asarray(x, dtype=np.float64)
    a = 0.5 * (p - 1)
    q = 2.0 / (p - 1)
    amp = ((p + 1) / 2.0) ** (1.0 / (p - 1))
    s = _sech(a * x)
    Q = amp * s**q
    if deriv == 0:
        return Q
    t = np.tanh(a * x)
    if deriv == 1:
        return -a * q * Q * t
    if deriv == 2:
        return a * a * q * Q * (q - (q + 1) * s * s)
    raise ParameterError(f"deriv must be 0, 1 or 2, got {deriv}")


def _check_speed(c: float) -> float:
    c = float(c)
    if not (c > 0) or not math.isfinite(c):
        raise ParameterError(f"soliton speed must be positive and finite, got {c}")
    return c


def eval_Qc(p: int, c: float, x, deriv: int = 0):
    """Rescaled profile Q_c(x) = c^(1/(p-1)) Q(sqrt(c) x) and derivatives."""
    p = _check_p(p)
    c = _check_speed(c)
    x = np.asarray(x, dtype=np.float64)
    rc = np.sqrt(c)
    # deriv 0 intentionally uses the same floating-point expression as the
    # scaling identity it must satisfy exactly
    if deriv == 0:
        return c ** (1.0 / (p - 1)) * eval_Q(p, rc * x)
    if deriv == 1:
        return c ** (1.0 / (p - 1) + 0.5) * eval_Q(p, rc * x, 1)
    if deriv == 2:
        return c ** (1.0 / (p - 1) + 1.0) * eval_Q(p, rc * x, 2)
    raise ParameterError(f"deriv must be 0, 1 or 2, got {deriv}")


# ---------------------------------------------------------------------------
# profile constants

_QUAD_HALF_WIDTH = 60.0  # adaptive quadrature window; tails appended analytically


def _tail_amplitude(p: int) -> float:
    # Q(x) ~ (2(p+1))^(1/(p-1)) exp(-|x|) for large |x|
    return (2.0 * (p + 1)) ** (1.0 / (p - 1))


@lru_cache(maxsize=None)
def profile_mass_constant(p: int) -> float:
    """int Q^2 dx, by adaptive quadrature on |x| <= 60 plus the analytic tail."""
    p = _check_p(p)
    val, _ = quad(lambda x: float(eval_Q(p, x)) ** 2, -_QUAD_HALF_WIDTH, _QUAD_HALF_WIDTH,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    tail = _tail_amplitude(p) ** 2 * math.exp(-2.0 * _QUAD_HALF_WIDTH)  # both sides of int e^{-2|x|}
    return val + tail


@lru_cache(maxsize=None)
def profile_gradient_constant(p: int) -> float:
    """int (Q')^2 dx, same quadrature scheme as the mass constant."""
    p = _check_p(p)
    val, _ = quad(lambda x: float(eval_Q(p, x, 1)) ** 2, -_QUAD_HALF_WIDTH, _QUAD_HALF_WIDTH,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    tail = _tail_amplitude(p) ** 2 * math.exp(-2.0 * _QUAD_HALF_WIDTH)
    return val + tail


@lru_cache(maxsize=None)
def profile_integral_constant(p: int) -> float:
    """int Q dx (normalization constant of the transition weight)."""
    p = _check_p(p)
    val, _ = quad(lambda x: float(eval_Q(p, x)), -_QUAD_HALF_WIDTH, _QUAD_HALF_WIDTH,
                  epsabs=1e-14, epsrel=1e-13, limit=200)
    tail = 2.0 * _tail_amplitude(p) * math.exp(-_QUAD_HALF_WIDTH)
    return val + tail


def soliton_mass(p: int, c: float) -> float:
    """int Q_c^2 = c^((5-p)/(2(p-1))) int Q^2."""
    p = _check_p(p)
    c = _check_speed(c)
    return c ** ((5.0 - p) / (2.0 * (p - 1))) * profile_mass_constant(p)


def soliton_energy(p: int, c: float) -> float:
    """E(Q_c) = -(kappa/2) c^((p+3)/(2(p-1))) int Q^2 with kappa = (5-p)/(p+3)."""
    p = _check_p(p)
    c = _check_speed(c)
    kappa = (5.0 - p) / (p + 3.0)
    return -0.5 * kappa * c ** ((p + 3.0) / (2.0 * (p - 1))) * profile_mass_constant(p)


# ---------------------------------------------------------------------------
# sampled sums on periodic grids

def _seam_tail_fraction(p: int, c: float, grid: Grid) -> float:
    # relative profile amplitude at the farthest minimal-image distance L/2
    a = 0.5 * (p - 1)
    q = 2.0 / (p - 1)
    return float(_sech(a * np.sqrt(c) * 0.5 * grid.length) ** q)


class SolitonBasis:
    """Rows R_j = Q_{c_j}(x - x_j) of a state on a grid, with their derivatives.

    The minimal-image offsets y_j = wrap(x - x_j) are computed once. Each row
    family has shape (N, n) and is evaluated on first use, then kept. The speed
    derivatives come from the scaling Q_c(y) = c^(1/(p-1)) Q(sqrt(c) y):
    d_c R_j = (2/(p-1) R_j + y_j (R_j)_x) / (2 c_j) and
    d_c (R_j)_x = ((2/(p-1) + 1) (R_j)_x + y_j (R_j)_xx) / (2 c_j).
    """

    def __init__(self, params: ModelParams, state: SolitonState, grid: Grid):
        self.params = params
        self.state = state
        self.grid = grid
        self.offsets = grid.wrap(grid.x - state.position_array[:, None])

    def rows(self, deriv: int = 0, speeds=None) -> np.ndarray:
        """Q_c, (Q_c)_x or (Q_c)_xx at each offset, for the state's speeds or
        for other speeds at the same positions."""
        speeds = self.state.speeds if speeds is None else speeds
        return np.stack([eval_Qc(self.params.p, c, y, deriv)
                         for c, y in zip(speeds, self.offsets)])

    @cached_property
    def R(self) -> np.ndarray:
        return self.rows(0)

    @cached_property
    def Rx(self) -> np.ndarray:
        return self.rows(1)

    @cached_property
    def Rxx(self) -> np.ndarray:
        return self.rows(2)

    @cached_property
    def dR_dc(self) -> np.ndarray:
        q = 2.0 / (self.params.p - 1)
        return (q * self.R + self.offsets * self.Rx) / (2.0 * self.state.speed_array[:, None])

    @cached_property
    def dRx_dc(self) -> np.ndarray:
        q = 2.0 / (self.params.p - 1) + 1.0
        return (q * self.Rx + self.offsets * self.Rxx) / (2.0 * self.state.speed_array[:, None])

    @cached_property
    def total(self) -> np.ndarray:
        """sum_j R_j."""
        return self.R.sum(axis=0)


def soliton_sum(params: ModelParams, state: SolitonState, grid: Grid,
                tail_threshold: float = 1e-10) -> Field:
    """Sum of rescaled profiles centered at the state's positions.

    Profiles are evaluated through the minimal periodic image; construction
    fails with DomainTooSmallError when any profile retains more than
    tail_threshold relative amplitude at the seam (distance length/2).
    """
    for c in state.speeds:
        frac = _seam_tail_fraction(params.p, c, grid)
        if frac > tail_threshold:
            raise DomainTooSmallError(
                f"soliton of speed {c} keeps relative amplitude {frac:.3e} at the periodic seam "
                f"(threshold {tail_threshold:.3e}); enlarge the domain")
    return Field(grid, SolitonBasis(params, state, grid).total)


# ---------------------------------------------------------------------------
# exact multi-soliton family of the quadratic model

def kdv_nsoliton_profile(speeds, phases, t: float, grid: Grid, p: int = 2) -> Field:
    """Exact N-soliton of u_t + (u_xx + u^2)_x = 0 sampled on the grid.

    Determinant expansion evaluated as a softmax variance: with subset slopes
    s and log-weights built from eta_j = k_j (x - c_j t - y_j), k_j = sqrt(c_j),
    the profile is 6 * Var(s), which is overflow-free for any x and t and
    reduces exactly to Q_c(x - c t - y) for N = 1.
    """
    if p != 2:
        raise UnsupportedModelError(f"the exact multi-soliton family exists here only for p=2, got p={p}")
    c = np.asarray(speeds, dtype=np.float64)
    y = np.asarray(phases, dtype=np.float64)
    if c.ndim != 1 or c.size == 0 or y.shape != c.shape:
        raise ParameterError("speeds and phases must be 1d arrays of equal nonzero length")
    if not np.all(c > 0) or not np.all(np.isfinite(c)) or not np.all(np.isfinite(y)):
        raise ParameterError("speeds must be positive finite and phases finite")
    nsol = c.size
    if nsol > 1:
        sep = np.abs(c[:, None] - c[None, :])
        np.fill_diagonal(sep, np.inf)
        if sep.min() <= 1e-9 * c.max():
            raise ParameterError("speeds must be pairwise distinct")

    k = np.sqrt(c)
    # pairwise interaction log-coefficients A_ij = 2 log |(k_i - k_j)/(k_i + k_j)|
    A = np.zeros((nsol, nsol))
    for i in range(nsol):
        for j in range(i + 1, nsol):
            A[i, j] = 2.0 * math.log(abs((k[i] - k[j]) / (k[i] + k[j])))

    subsets = np.array([[(m >> j) & 1 for j in range(nsol)] for m in range(2**nsol)], dtype=np.float64)
    slopes = subsets @ k                                  # (2^N,)
    offs = subsets @ (k * (-c * t - y))                   # linear part of each exponent
    for m in range(2**nsol):
        mu = subsets[m]
        offs[m] += mu @ A @ mu                            # upper-triangular A: sum_{i<j} mu_i mu_j A_ij

    expo = slopes[:, None] * grid.x[None, :] + offs[:, None]   # (2^N, n)
    expo -= expo.max(axis=0, keepdims=True)
    w = np.exp(expo)
    w /= w.sum(axis=0, keepdims=True)
    m1 = (w * slopes[:, None]).sum(axis=0)
    m2 = (w * (slopes**2)[:, None]).sum(axis=0)
    u = 6.0 * (m2 - m1 * m1)
    return Field(grid, u)
