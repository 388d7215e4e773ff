"""Weighted-mass and linearized-energy functionals around a decomposition.

The transition weight psi ramps from 0 to 1 over the length scale 4/sqrt(sigma0)
and is built from the ambient ground profile: psi' = c_psi Q(sqrt(sigma0) x / 2)
with c_psi fixed so that the total increment is exactly 1. Localized masses,
the speed-ramp quadratic form, its constrained spectrum, and the linearized
energy bookkeeping all live here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
from scipy.special import beta as beta_fn
from scipy.special import betainc

from .errors import ParameterError, SpectralFailureError
from .grid import Field, Grid
from .modulation import Decomposition
from .profiles import (ModelParams, SolitonBasis, SolitonState, _check_p, _sech,
                       soliton_energy)
from .solver import spectral_derivative


# ---------------------------------------------------------------------------
# transition weight

@dataclass(frozen=True)
class PsiWeight:
    """Monotone 0-to-1 transition weight for a given model and sigma0.

    Closed-form path: psi(x) = (1 + sign(x) I(tanh^2(b x); 1/2, 1/(p-1))) / 2
    with I the regularized incomplete beta and b = (p-1) sqrt(sigma0) / 4;
    its derivative is exactly c_psi Q(sqrt(sigma0) x / 2). The numeric path
    (cumulative spectral quadrature with an analytic left-tail correction)
    exists for cross-validation and must agree to 1e-10.
    """

    p: int
    sigma0: float

    def __post_init__(self):
        _check_p(self.p)
        if not (self.sigma0 > 0) or not math.isfinite(self.sigma0):
            raise ParameterError(f"sigma0 must be positive and finite, got {self.sigma0}")

    @property
    def q(self) -> float:
        return 2.0 / (self.p - 1)

    @property
    def b(self) -> float:
        return 0.25 * (self.p - 1) * math.sqrt(self.sigma0)

    @property
    def amplitude(self) -> float:
        return ((self.p + 1) / 2.0) ** (1.0 / (self.p - 1))

    @property
    def c_psi(self) -> float:
        """Normalization (2 intQ / sqrt(sigma0))^-1 with intQ in closed beta form."""
        intQ = self.amplitude * beta_fn(0.5, 0.5 * self.q) * 2.0 / (self.p - 1)
        return math.sqrt(self.sigma0) / (2.0 * intQ)

    # -- closed-form path ---------------------------------------------------

    def _phi(self, x: np.ndarray) -> np.ndarray:
        return self._phi_of(_sech(self.b * x))

    def _phi_of(self, s: np.ndarray) -> np.ndarray:
        """psi' from s = sech(b x)."""
        return self.c_psi * self.amplitude * s ** self.q

    def _phi2_of(self, s: np.ndarray) -> np.ndarray:
        """psi''' from s = sech(b x)."""
        q = self.q
        return self.c_psi * self.amplitude * self.b**2 * (q * q * s**q - q * (q + 1.0) * s ** (q + 2.0))

    def psi(self, x, deriv: int = 0, method: str = "closed"):
        """psi (deriv 0), psi' (deriv 1) or psi''' (deriv 3) at x; deriv=(1, 3)
        gives the pair (psi', psi''') from one sech evaluation."""
        x = np.asarray(x, dtype=np.float64)
        if deriv == 1:
            return self._phi(x)
        if deriv == 3:
            return self._phi2_of(_sech(self.b * x))
        if deriv == (1, 3):
            s = _sech(self.b * x)
            return self._phi_of(s), self._phi2_of(s)
        if deriv != 0:
            raise ParameterError(f"deriv must be 0, 1, 3 or (1, 3), got {deriv}")
        if method == "closed":
            # swapped-argument incomplete beta: sech^2 stays accurate where
            # tanh^2 would round to 1 and silently drop the far tail
            s2 = _sech(self.b * x) ** 2
            tail = 0.5 * betainc(0.5 * self.q, 0.5, s2)
            return np.where(x < 0, tail, 1.0 - tail)
        if method == "numeric":
            return self._psi_numeric(x)
        raise ParameterError(f"method must be 'closed' or 'numeric', got {method}")

    # -- numeric path (cumulative spectral quadrature) ----------------------

    @cached_property
    def _numeric_table(self):
        # tail decay rate of phi is q*b = sqrt(sigma0)/2 for every p
        rate = self.q * self.b
        half_width = 40.0 / rate  # 40 e-foldings of tail clearance
        m = 1 << max(12, int(np.ceil(np.log2(2.0 * half_width / (0.01 / math.sqrt(self.sigma0))))))
        xs = -half_width + (2.0 * half_width / m) * np.arange(m)
        phi = self._phi(xs)
        ds = xs[1] - xs[0]
        a0 = float(np.mean(phi))
        fh = np.fft.rfft(phi)
        kk = (2.0 * np.pi / (2.0 * half_width)) * np.arange(m // 2 + 1)
        H = np.zeros_like(fh)
        H[1:] = fh[1:] / (1j * kk[1:])
        if m % 2 == 0:
            H[-1] = 0.0
        G = np.fft.irfft(H, m)
        tail_left = self._phi(np.array([-half_width]))[0] / rate  # analytic e^{rate x} tail
        psi_ref = tail_left + a0 * (xs + half_width) + (G - G[0])
        from scipy.interpolate import CubicHermiteSpline
        spline = CubicHermiteSpline(xs, psi_ref, phi)
        return half_width, rate, tail_left, spline

    def _psi_numeric(self, x: np.ndarray) -> np.ndarray:
        half_width, rate, tail_left, spline = self._numeric_table
        shape = x.shape
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        lo = x < -half_width
        hi = x >= half_width - 2.0 / rate  # stay clear of the periodized right edge
        mid = ~(lo | hi)
        out[lo] = tail_left * np.exp(rate * (x[lo] + half_width))
        out[hi] = 1.0 - self._phi(x[hi]) / rate  # right tail, same asymptotic
        out[mid] = spline(x[mid])
        return out.reshape(shape)


def psi_eval(w: PsiWeight, x, deriv: int = 0, method: str = "closed"):
    """Module-level convenience wrapper around PsiWeight.psi."""
    return w.psi(x, deriv=deriv, method=method)


def _state_of(dec_or_state) -> SolitonState:
    return dec_or_state.state if isinstance(dec_or_state, Decomposition) else dec_or_state


def weight_for(dec_or_state, params: ModelParams) -> PsiWeight:
    return PsiWeight(params.p, _state_of(dec_or_state).sigma0)


# ---------------------------------------------------------------------------
# localized masses

def _require_sorted_positions(state: SolitonState) -> np.ndarray:
    x = state.position_array
    if x.size > 1 and not np.all(np.diff(x) > 0):
        raise ParameterError("localized functionals require positions sorted increasing")
    return x


def midpoints(state: SolitonState) -> np.ndarray:
    """Midpoints (x_{j-1} + x_j)/2 between consecutive solitons (length N-1)."""
    x = _require_sorted_positions(state)
    return 0.5 * (x[:-1] + x[1:])


@dataclass
class LocalizedMassRecord:
    """Weighted masses to the right of each midpoint, plus edge probes.

    masses[i] = int u^2 psi(x - m_{i+2}) for the midpoint between solitons
    i+1 and i+2 (1-based labels). j_left/j_right probe the mass beyond +-y0
    of the reference soliton.
    """

    t: float
    midpoints: np.ndarray
    masses: np.ndarray
    j_left: float | None
    j_right: float | None
    y0: float | None
    ref_index: int | None


def localized_masses(t: float, u: Field, dec_or_state, w: PsiWeight,
                     params: ModelParams, y0: float | None = None,
                     ref_index: int | None = None) -> LocalizedMassRecord:
    state = _state_of(dec_or_state)
    x = _require_sorted_positions(state)
    h = u.grid.spacing
    u2 = u.values**2
    mids = midpoints(state)
    masses = np.array([h * float(np.sum(u2 * w.psi(u.grid.x - m))) for m in mids])
    j_left = j_right = None
    if y0 is not None:
        if not (y0 > 0):
            raise ParameterError(f"edge-probe offset y0 must be positive, got {y0}")
        r = state.n - 1 if ref_index is None else int(ref_index)
        if not (0 <= r < state.n):
            raise ParameterError(f"ref_index {ref_index} outside 0..{state.n - 1}")
        j_left = h * float(np.sum(u2 * (1.0 - w.psi(u.grid.x - (x[r] - y0)))))
        j_right = h * float(np.sum(u2 * w.psi(u.grid.x - (x[r] + y0))))
    return LocalizedMassRecord(t=float(t), midpoints=mids, masses=masses,
                               j_left=j_left, j_right=j_right, y0=y0,
                               ref_index=ref_index if y0 is not None else None)


def localized_mass_rate_terms(u: Field, m: float, w: PsiWeight,
                              params: ModelParams) -> tuple[float, float]:
    """Pieces of the exact rate of int u^2 psi(x - m(t)).

    Returns (S1, S2) with d/dt = S1 - mdot * S2:
    S1 = int (-3 u_x^2 + (2p/(p+1)) u^(p+1)) psi' + u^2 psi''',
    S2 = int u^2 psi'.
    """
    h = u.grid.spacing
    xs = u.grid.x - m
    phi, phi2 = w.psi(xs, (1, 3))
    ux = spectral_derivative(u, 1).values
    v = u.values
    p = params.p
    S1 = h * float(np.sum((-3.0 * ux * ux + (2.0 * p / (p + 1.0)) * v ** (p + 1)) * phi
                          + v * v * phi2))
    S2 = h * float(np.sum(v * v * phi))
    return S1, S2


# ---------------------------------------------------------------------------
# partial speed sums

def dj_sums(dec_or_state, params: ModelParams) -> np.ndarray:
    """Tail sums d_j = sum_{k>=j} c_k^(beta - 1/2), j = 1..N."""
    c = _state_of(dec_or_state).speed_array
    powers = c ** params.mass_exponent
    return np.cumsum(powers[::-1])[::-1]


def abel_resummed(state_t, state_0, params: ModelParams) -> float:
    """Summation-by-parts combination of the d_j increments with frozen gaps."""
    s_t, s_0 = _state_of(state_t), _state_of(state_0)
    if s_t.n != s_0.n:
        raise ParameterError("states must have the same number of solitons")
    d_t = dj_sums(s_t, params)
    d_0 = dj_sums(s_0, params)
    c0 = s_0.speed_array
    val = c0[0] * (d_t[0] - d_0[0])
    for j in range(1, s_0.n):
        val += (c0[j] - c0[j - 1]) * (d_t[j] - d_0[j])
    return float(val)


# ---------------------------------------------------------------------------
# quadratic form and its constrained spectrum

def _basis_of(dec_or_state, params: ModelParams, grid: Grid) -> SolitonBasis:
    """A decomposition's own basis when it fits params and grid, else a new one."""
    basis = getattr(dec_or_state, "basis", None)
    if basis is None or basis.params != params or basis.grid != grid:
        basis = SolitonBasis(params, _state_of(dec_or_state), grid)
    return basis


def speed_ramp(dec_or_state, w: PsiWeight, grid: Grid) -> np.ndarray:
    """c(x) = c_1 + sum_{j>=2} (c_j - c_{j-1}) psi(x - m_j), on raw coordinates."""
    state = _state_of(dec_or_state)
    _require_sorted_positions(state)
    c = state.speed_array
    out = np.full(grid.n, c[0])
    for j, m in enumerate(midpoints(state), start=1):
        out += (c[j] - c[j - 1]) * w.psi(grid.x - m)
    return out


def bilinear_form(f: Field, g: Field, dec_or_state, w: PsiWeight,
                  params: ModelParams) -> float:
    """int f_x g_x - p R^(p-1) f g + c(x) f g with R the full profile sum."""
    grid = f.grid
    R = _basis_of(dec_or_state, params, grid).total
    ramp = speed_ramp(dec_or_state, w, grid)
    fx = spectral_derivative(f, 1).values
    gx = spectral_derivative(g, 1).values
    h = grid.spacing
    return h * float(np.sum(fx * gx + (-params.p * R ** (params.p - 1) + ramp) * f.values * g.values))


def quadratic_form(eps: Field, dec_or_state, w: PsiWeight, params: ModelParams) -> float:
    return bilinear_form(eps, eps, dec_or_state, w, params)


def linearized_energy_form(eps: Field, dec_or_state, params: ModelParams) -> float:
    """int eps_x^2 - p R^(p-1) eps^2 (no speed ramp), the energy Hessian term."""
    grid = eps.grid
    R = _basis_of(dec_or_state, params, grid).total
    ex = spectral_derivative(eps, 1).values
    h = grid.spacing
    return h * float(np.sum(ex * ex - params.p * R ** (params.p - 1) * eps.values**2))


@dataclass
class SpectrumResult:
    lambda_min: float
    eigenvector: Field
    constrained: bool
    eigen_residual: float  # ||(operator - lambda) w|| for the unit Lanczos vector w
    matvecs: int  # operator applications
    constraint_residuals: dict | None  # max |h<v, Q_{c_j}>|, max |h<v, d_x Q_{c_j}>|


def constrained_spectrum(dec_or_state, w: PsiWeight, params: ModelParams,
                         grid: Grid, constrained: bool = True) -> SpectrumResult:
    """Smallest eigenvalue of H = -d2/dx2 - p R^(p-1) + c(x) relative to the H1
    inner product, optionally restricted to the orthocomplement of every
    profile and profile slope.

    With S = (1 - d2/dx2)^(-1/2), diagonal in Fourier space, the pencil becomes
    A w = lambda w with A = S H S and v = S w. Lanczos runs on P A P + sigma Q Q^T,
    Q an orthonormal basis of S C for the constraint columns C, P = I - Q Q^T;
    sigma = 1 + max|V| >= ||A|| lifts span(Q) to the top of the spectrum.
    """
    state = _state_of(dec_or_state)
    _require_sorted_positions(state)
    n = grid.n
    k2 = grid.wavenumbers**2
    k2[-1] = 0.0  # Nyquist; grid sizes are even
    s_hat = 1.0 / np.sqrt(1.0 + k2)
    basis = _basis_of(dec_or_state, params, grid)
    V = -params.p * basis.total ** (params.p - 1) + speed_ramp(state, w, grid)
    sigma = 1.0 + float(np.max(np.abs(V)))
    Q = np.zeros((n, 0))
    if constrained:
        C = np.empty((n, 2 * state.n))  # columns R_1, (R_1)_x, R_2, (R_2)_x, ...
        C[:, 0::2], C[:, 1::2] = basis.R.T, basis.Rx.T
        Q = np.linalg.qr(np.fft.irfft(s_hat[:, None] * np.fft.rfft(C, axis=0), n, axis=0))[0]
    matvecs, best = 0, math.inf  # best: smallest Rayleigh residual, reported on failure

    def matvec(x):
        nonlocal matvecs, best
        matvecs += 1
        x = np.ravel(x)
        Qx = Q @ (Q.T @ x)
        xh = np.fft.rfft(x - Qx)
        Sx = np.fft.irfft(s_hat * xh, n)
        Ax = np.fft.irfft(k2 / (1.0 + k2) * xh + s_hat * np.fft.rfft(V * Sx), n)
        y = Ax - Q @ (Q.T @ Ax) + sigma * Qx
        best = min(best, float(np.linalg.norm(y - (x @ y) / (x @ x) * x) / np.linalg.norm(x)))
        return y

    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=matvec, dtype=np.float64), k=1,
                           which="SA", tol=0, v0=v0 - Q @ (Q.T @ v0))
    except ArpackNoConvergence as exc:
        raise SpectralFailureError(
            f"Lanczos did not converge (n={n}, p={params.p}, N={state.n}, constrained="
            f"{constrained}) in {matvecs} operator applications; best residual "
            f"reached {best:.3e}") from exc
    lam, wv = float(vals[0]), vecs[:, 0]
    eigen_residual = float(np.linalg.norm(matvec(wv) - lam * wv))
    vec = np.fft.irfft(s_hat * np.fft.rfft(wv), n)
    vec /= math.sqrt(grid.spacing * float(vec @ vec))
    overlaps = None
    if constrained:
        ov = np.abs(grid.spacing * (vec @ C))
        overlaps = {"profile": float(np.max(ov[0::2])), "slope": float(np.max(ov[1::2]))}
    return SpectrumResult(lam, Field(grid, vec), constrained, eigen_residual, matvecs, overlaps)


def write_spectral_certificate(path, result: SpectrumResult, dec_or_state,
                               params: ModelParams, grid: Grid,
                               tolerance: float) -> None:
    """JSON record of one positivity certificate."""
    state = _state_of(dec_or_state)
    seps = list(np.diff(state.position_array)) if state.n > 1 else []
    payload = {
        "p": params.p,
        "N": state.n,
        "speeds": list(state.speeds),
        "separations": [float(s) for s in seps],
        "lambda_min": result.lambda_min,
        "constrained": result.constrained,
        "constraint_residuals": result.constraint_residuals,
        "eigen_residual": result.eigen_residual,
        "matvecs": result.matvecs,
        "grid": {"n": grid.n, "length": grid.length, "x0": grid.x0},
        "tolerance": tolerance,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# linearized energy bookkeeping

def energy_expansion_residual(u: Field, dec: Decomposition, ref,
                              params: ModelParams) -> float:
    """Drift of the soliton energies plus half the energy Hessian of eps.

    Under exact evolution the total energy is conserved, so this combination
    is controlled by |eps(0)|^2, |eps(t)|^3 and the interaction tail; it is
    the quantity whose smallness certifies the energy linearization.
    """
    ref_state = _state_of(ref)
    state = dec.state
    if state.n != ref_state.n:
        raise ParameterError("reference state must have the same number of solitons")
    drift = sum(soliton_energy(params.p, ct) - soliton_energy(params.p, c0)
                for ct, c0 in zip(state.speeds, ref_state.speeds))
    basis = _basis_of(dec, params, u.grid)
    eps = Field(u.grid, u.values - basis.total)
    return float(drift + 0.5 * linearized_energy_form(eps, dec, params))
