"""Weighted-mass and linearized-energy functionals around a decomposition.

The transition weight psi ramps from 0 to 1 over the length scale 4/sqrt(sigma0)
and is built from the ambient ground profile: psi' = c_psi Q(sqrt(sigma0) x / 2)
with c_psi fixed so that the total increment is exactly 1; psi is elementary
for p = 2 and 3 and a regularized incomplete beta for p = 4. Localized
masses, the speed-ramp quadratic form, its constrained spectrum, and the
linearized energy bookkeeping all live here. The spectrum comes from Lanczos
with full reorthogonalization in numpy alone, stopped on the Ritz residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SpectralFailureError
from .grid import Field, Grid
from .modulation import Decomposition
from .profiles import (_PROFILE_INTEGRALS, ModelParams, SolitonBasis, SolitonState,
                       _check_p, _sech, soliton_energy)
from .solver import _int_power


# ---------------------------------------------------------------------------
# transition weight

@dataclass(frozen=True)
class PsiWeight:
    """Monotone 0-to-1 transition weight for a given model and sigma0.

    psi(x) = (1 + sign(x) I(tanh^2(b x); 1/2, 1/(p-1))) / 2 in closed form,
    with I the regularized incomplete beta and b = (p-1) sqrt(sigma0) / 4;
    its derivative is exactly c_psi Q(sqrt(sigma0) x / 2). Since psi' is
    proportional to sech^q(b x), psi is 1/(1 + e^(-2 b x)) for p = 2 (q = 2)
    and (2/pi) arctan(e^(b x)) for p = 3 (q = 1); only p = 4 (q = 2/3) needs
    the incomplete beta.
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
        """Normalization (2 intQ / sqrt(sigma0))^-1 with intQ = int Q dx."""
        return math.sqrt(self.sigma0) / (2.0 * _PROFILE_INTEGRALS[self.p][1])

    def _phi_of(self, s: np.ndarray) -> np.ndarray:
        """psi' from s = sech(b x)."""
        return self.c_psi * self.amplitude * s ** self.q

    def _phi2_of(self, s: np.ndarray) -> np.ndarray:
        """psi''' from s = sech(b x)."""
        q = self.q
        return self.c_psi * self.amplitude * self.b**2 * (q * q * s**q - q * (q + 1.0) * s ** (q + 2.0))

    def psi(self, x, deriv: int = 0):
        """psi (deriv 0), psi' (deriv 1) or psi''' (deriv 3) at x; deriv=(1, 3)
        gives the pair (psi', psi''') from one sech evaluation."""
        x = np.asarray(x, dtype=np.float64)
        if deriv == 1:
            return self._phi_of(_sech(self.b * x))
        if deriv == 3:
            return self._phi2_of(_sech(self.b * x))
        if deriv == (1, 3):
            s = _sech(self.b * x)
            return self._phi_of(s), self._phi2_of(s)
        if deriv != 0:
            raise ParameterError(f"deriv must be 0, 1, 3 or (1, 3), got {deriv}")
        # tail = psi(-|x|), the value on the far side, so the left tail keeps
        # its last bits; elementary for q = 2 and q = 1
        if self.p == 2:
            e2 = np.exp(-np.abs(self.b * x)) ** 2
            tail = e2 / (1.0 + e2)
        elif self.p == 3:
            tail = (2.0 / np.pi) * np.arctan(np.exp(-np.abs(self.b * x)))
        else:
            from scipy.special import beta, betainc
            # swapped-argument incomplete beta: sech^2 stays accurate where
            # tanh^2 would round to 1 and silently drop the far tail
            s2 = _sech(self.b * x) ** 2
            tail = np.asarray(0.5 * betainc(0.5 * self.q, 0.5, s2))
            # subnormal sech^2 (b|x| > 354): its leading term s^q / (q B(q/2, 1/2)), in logs
            far = s2 < np.finfo(np.float64).tiny
            bx = np.abs(self.b * x[far])
            tail[far] = (2.0**self.q / (self.q * beta(0.5 * self.q, 0.5))
                         * np.exp(-self.q * (bx + np.log1p(np.exp(-2.0 * bx)))))
        return np.where(x < 0, tail, 1.0 - tail)


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


def localized_masses(u: Field, state: SolitonState, w: PsiWeight,
                     y0: float | None = None, ref_index: int | None = None):
    """(masses, j_left, j_right) of u around the soliton positions of state.

    masses[i] = int u^2 psi(x - m_{i+2}) for the midpoint between solitons
    i+1 and i+2 (1-based labels). With y0, j_left and j_right probe the mass
    beyond -y0 and +y0 of the reference soliton (default the last); without
    it, both are None.
    """
    x = _require_sorted_positions(state)
    h = u.grid.spacing
    u2 = u.values**2
    masses = np.array([h * float(np.sum(u2 * w.psi(u.grid.x - m))) for m in midpoints(state)])
    if y0 is None:
        return masses, None, None
    if not (y0 > 0):
        raise ParameterError(f"edge-probe offset y0 must be positive, got {y0}")
    r = state.n - 1 if ref_index is None else int(ref_index)
    if not (0 <= r < state.n):
        raise ParameterError(f"ref_index {ref_index} outside 0..{state.n - 1}")
    j_left = h * float(np.sum(u2 * (1.0 - w.psi(u.grid.x - (x[r] - y0)))))
    j_right = h * float(np.sum(u2 * w.psi(u.grid.x - (x[r] + y0))))
    return masses, j_left, j_right


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
    ux = u.dx
    v = u.values
    p = params.p
    S1 = h * float(np.sum((-3.0 * ux * ux + (2.0 * p / (p + 1.0)) * _int_power(v, p + 1)) * phi
                          + v * v * phi2))
    S2 = h * float(np.sum(v * v * phi))
    return S1, S2


# ---------------------------------------------------------------------------
# quadratic form and its constrained spectrum

def speed_ramp(state: SolitonState, w: PsiWeight, grid: Grid) -> np.ndarray:
    """c(x) = c_1 + sum_{j>=2} (c_j - c_{j-1}) psi(x - m_j), on raw coordinates."""
    c = state.speed_array
    out = np.full(grid.n, c[0])
    for j, m in enumerate(midpoints(state), start=1):
        out += (c[j] - c[j - 1]) * w.psi(grid.x - m)
    return out


def linearized_energy_form(eps: Field, basis: SolitonBasis) -> float:
    """int eps_x^2 - p R^(p-1) eps^2 (no speed ramp), the energy Hessian term,
    with R the basis's soliton sum on eps's grid."""
    p = basis.params.p
    ex = eps.dx
    return eps.grid.spacing * float(np.sum(ex * ex - p * basis.total ** (p - 1) * eps.values**2))


@dataclass
class SpectrumResult:
    lambda_min: float
    eigenvector: Field
    eigen_residual: float  # ||(operator - lambda) z|| for the unit Ritz vector z; same in w
    matvecs: int  # operator applications
    constraint_residuals: dict | None  # max |h<v, Q_{c_j}>|, max |h<v, d_x Q_{c_j}>|


def _real_modes(spectra: np.ndarray) -> np.ndarray:
    """rfft output (last axis) as n reals Re 0, Re 1, Im 1, ..., Im n/2-1, Re n/2: a
    view, with Re 0 written over Im 0, which like Im n/2 is always zero."""
    r = spectra.view(np.float64)
    r[..., 1] = r[..., 0]
    return r[..., 1:-1]


_LANCZOS_MAX_STEPS = 300  # steps before SpectralFailureError; rows of the Lanczos basis


def constrained_spectrum(state: SolitonState, w: PsiWeight, params: ModelParams,
                         grid: Grid, constrained: bool = True) -> SpectrumResult:
    """Smallest eigenvalue of H = -d2/dx2 - p R^(p-1) + c(x) relative to the H1
    inner product, optionally restricted to the orthocomplement of every
    profile and profile slope.

    With S = (1 - d2/dx2)^(-1/2), diagonal in Fourier space, the pencil becomes
    A w = lambda w with A = S H S and v = S w. Lanczos runs on z, the n real
    coordinates of rfft(w) scaled so that |z| = |w|, and on P A P + sigma Q Q^T:
    Q an orthonormal basis of S C in z for the constraint columns C, P = I - Q Q^T;
    sigma = 1 + max|V| >= ||A|| lifts span(Q) to the top of the spectrum. S and
    -d2 S^2 are diagonal in z, so one application of A is irfft, times V, rfft.

    Lanczos starts from default_rng(0) projected off span(Q) and keeps every
    vector: a step is the three-term recurrence, one Gram-Schmidt pass against
    the kept vectors and a second if the first removed over 30% of the norm
    (Daniel, Gragg, Kaufman and Stewart 1976). Every fourth step and the last
    allowed one take the smallest eigenpair (theta, s) of the tridiagonal T_k:
    the run stops when the Ritz residual |beta_k s_k| is at most 1e-15 sigma,
    and raises SpectralFailureError after _LANCZOS_MAX_STEPS steps.
    """
    _require_sorted_positions(state)
    n = grid.n
    k2 = grid.wavenumbers**2
    k2[-1] = 0.0  # Nyquist; grid sizes are even
    s_hat = 1.0 / np.sqrt(1.0 + k2)
    # z scales Re and Im of mode k by d = sqrt(2/n), modes 0 and n/2 by sqrt(1/n);
    # multipliers on z, Im parts included: S then unscale, scale then S, -d2 S^2
    d_hat = np.sqrt(np.r_[1.0, np.full(k2.size - 2, 2.0), 1.0] / n)
    sx, sz, kz = (np.repeat(f, 2)[1:-1] for f in (s_hat / d_hat, s_hat * d_hat, k2 / (1 + k2)))
    basis = SolitonBasis(params, state, grid)
    V = -params.p * basis.total ** (params.p - 1) + speed_ramp(state, w, grid)
    sigma = 1.0 + float(np.max(np.abs(V)))
    Q = np.zeros((0, n))  # orthonormal rows
    if constrained:
        C = np.stack((basis.R, basis.Rx), axis=1).reshape(-1, n)  # R_1, (R_1)_x, R_2, ...
        Q = np.ascontiguousarray(np.linalg.qr((sz * _real_modes(np.fft.rfft(C))).T)[0].T)
    spectrum = np.zeros(n + 2)  # float64 view of the n/2 + 1 complex modes

    def S(z):  # S w on the grid for the w with coordinates z; Im 0, Im n/2 stay 0
        spectrum[1:-1] = sx * z
        spectrum[0], spectrum[1] = spectrum[1], 0.0
        return np.fft.irfft(spectrum.view(np.complex128), n)

    def apply(x):
        Qx = Q.T @ (Q @ x) if constrained else 0.0
        px = x - Qx
        y = kz * px + sz * _real_modes(np.fft.rfft(V * S(px)))
        if constrained:
            y += sigma * Qx - Q.T @ (Q @ y)
        return y

    steps = _LANCZOS_MAX_STEPS
    lanczos = np.empty((steps, n))  # orthonormal rows; pages are touched as they fill
    alpha, beta = np.zeros(steps), np.zeros(steps)
    v0 = np.random.default_rng(0).standard_normal(n)
    v0 -= Q.T @ (Q @ v0)
    lanczos[0] = v0 / np.linalg.norm(v0)
    tol, best = 1e-15 * sigma, math.inf  # best: smallest Ritz residual, reported on failure
    for k in range(steps):
        r = apply(lanczos[k])
        alpha[k] = lanczos[k] @ r
        r -= alpha[k] * lanczos[k] + (beta[k - 1] * lanczos[k - 1] if k else 0.0)
        kept = lanczos[:k + 1]
        for _ in range(2):
            norm = np.linalg.norm(r)
            r -= (kept @ r) @ kept
            beta[k] = np.linalg.norm(r)
            if beta[k] >= 0.7 * norm:
                break
        if k % 4 == 3 or k + 1 == steps or beta[k] <= tol:
            # eigh reads one triangle: both off-diagonals keep T whole
            theta, s = np.linalg.eigh(np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1)
                                      + np.diag(beta[:k], -1))
            best = min(best, beta[k] * abs(s[-1, 0]))
            if best <= tol:
                break
            if k + 1 == steps:
                raise SpectralFailureError(
                    f"Lanczos did not converge (n={n}, p={params.p}, N={state.n}, constrained="
                    f"{constrained}) in {steps} operator applications; last Ritz value "
                    f"{theta[0]:.16g}, best residual reached {best:.3e}",
                    matvecs=steps, residual=best, ritz_value=float(theta[0]))
        lanczos[k + 1] = r / beta[k]
    lam = float(theta[0])
    wv = s[:, 0] @ kept
    wv /= np.linalg.norm(wv)
    eigen_residual = float(np.linalg.norm(apply(wv) - lam * wv))
    vec = S(wv)
    vec /= math.sqrt(grid.spacing * float(vec @ vec))
    overlaps = None
    if constrained:
        ov = np.abs(grid.spacing * (C @ vec))
        overlaps = {"profile": float(np.max(ov[0::2])), "slope": float(np.max(ov[1::2]))}
    # k + 1 Lanczos steps and the residual's application
    return SpectrumResult(lam, Field(grid, vec), eigen_residual, k + 2, overlaps)


# ---------------------------------------------------------------------------
# linearized energy bookkeeping

def energy_expansion_residual(u: Field, dec: Decomposition, ref_state: SolitonState,
                              params: ModelParams) -> float:
    """Drift of the soliton energies from ref_state plus half the energy
    Hessian of eps, for dec the decomposition of u.

    Under exact evolution the total energy is conserved, so this combination
    is controlled by |eps(0)|^2, |eps(t)|^3 and the interaction tail; it is
    the quantity whose smallness certifies the energy linearization.
    """
    state = dec.state
    if state.n != ref_state.n:
        raise ParameterError("reference state must have the same number of solitons")
    drift = sum(soliton_energy(params.p, ct) - soliton_energy(params.p, c0)
                for ct, c0 in zip(state.speeds, ref_state.speeds))
    eps = Field(u.grid, u.values - dec.basis.total)
    return float(drift + 0.5 * linearized_energy_form(eps, dec.basis))
