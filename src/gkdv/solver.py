"""Pseudospectral time integration of u_t + (u_xx + u^p)_x = 0 on periodic grids.

The third derivative is integrated exactly through a Fourier integrating
factor; the remaining flux (and optional absorbing layer) is advanced with
classical RK4. The nonlinear product is dealiased with the 2/3 rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, GkdvError, ParameterError, StepSizeError
from .grid import Field, Grid
from .profiles import ModelParams

# dt gate: dt <= C_STAB * spacing^3. A bare explicit scheme on the dispersive
# term would need roughly dt <= 0.09 h^3; the integrating factor removes that
# constraint and leaves an O(h) advective limit, so this cubic envelope is a
# conservative gate that still admits every reference configuration used here.
C_STAB = 2.0

_BLOWUP_CHECK_EVERY = 25  # steps between finite-value checks in the hot loop


def dt_stability_bound(grid: Grid) -> float:
    """Largest admissible time step for the grid, C_STAB * spacing^3."""
    return C_STAB * grid.spacing**3


def spectral_derivative(f: Field, order: int = 1) -> Field:
    """Fourier derivative of the given order (1, 2 or 3).

    Odd orders zero the Nyquist mode, whose first derivative is not
    representable on the real grid.
    """
    if order not in (1, 2, 3):
        raise ParameterError(f"derivative order must be 1, 2 or 3, got {order}")
    k = f.grid.wavenumbers
    fh = np.fft.rfft(f.values)
    sym = (1j * k) ** order
    if order % 2 == 1 and f.grid.n % 2 == 0:
        sym = sym.copy()
        sym[-1] = 0.0
    return Field(f.grid, np.fft.irfft(sym * fh, f.grid.n))


@dataclass(frozen=True)
class ConservedQuantities:
    """Mass int u^2 and energy (1/2) int u_x^2 - 1/(p+1) int u^(p+1)."""

    mass: float
    energy: float


def conserved(u: Field, params: ModelParams) -> ConservedQuantities:
    h = u.grid.spacing
    v = u.values
    mass = h * float(np.sum(v * v))
    ux = spectral_derivative(u, 1).values
    energy = h * float(0.5 * np.sum(ux * ux) - np.sum(v ** (params.p + 1)) / (params.p + 1))
    return ConservedQuantities(mass=mass, energy=energy)


def l2_norm(u: Field) -> float:
    return math.sqrt(u.grid.spacing * float(np.sum(u.values**2)))


def h1_norm(u: Field) -> float:
    ux = spectral_derivative(u, 1).values
    return math.sqrt(u.grid.spacing * float(np.sum(u.values**2) + np.sum(ux * ux)))


def l2_norm_right_of(u: Field, x_cut: float) -> float:
    """L2 norm restricted to lab-frame points with x > x_cut."""
    mask = u.grid.x > x_cut
    return math.sqrt(u.grid.spacing * float(np.sum(u.values[mask] ** 2)))


def h1_distance(u: Field, v: Field) -> float:
    return h1_norm(Field(u.grid, u.values - v.values))


# ---------------------------------------------------------------------------
# absorbing layer

@dataclass(frozen=True)
class SpongeSettings:
    """Damping -sigma(x) u on a window of width_fraction*length centered on the
    periodic seam (the upstream edge), with a C-infinity mollifier profile.
    sponge_profile checks the ranges of an enabled layer."""

    enabled: bool = False
    width_fraction: float = 0.05
    strength: float = 5.0


def sponge_profile(grid: Grid, cfg: SpongeSettings) -> np.ndarray:
    """sigma(x) of the absorbing layer; identically zero when disabled."""
    if not cfg.enabled:
        return np.zeros(grid.n)
    if not (0.0 < cfg.width_fraction < 0.5):
        raise ParameterError(f"sponge width_fraction must lie in (0, 0.5), got {cfg.width_fraction}")
    if not (cfg.strength >= 0.0):
        raise ParameterError(f"sponge strength must be nonnegative, got {cfg.strength}")
    if cfg.strength == 0.0:
        return np.zeros(grid.n)
    w = 0.5 * cfg.width_fraction * grid.length          # half-width around the seam
    d = grid.wrap(grid.x - grid.x0)                     # signed distance to the seam
    r = np.clip(np.abs(d) / w, 0.0, 1.0)
    sig = np.zeros(grid.n)
    inside = r < 1.0
    sig[inside] = cfg.strength * np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return sig


# ---------------------------------------------------------------------------
# stepping

class Stepper:
    """Precomputed integrating-factor RK4 stepper for one (grid, dt, p) triple.
    Transforms write into buffers it owns, sized to the last stack stepped;
    with the absorbing layer on, u^p and sigma*u go through one two-row rfft."""

    def __init__(self, grid: Grid, dt: float, params: ModelParams,
                 sponge: SpongeSettings | None = None):
        if not (dt > 0) or not math.isfinite(dt):
            raise ParameterError(f"dt must be positive and finite, got {dt}")
        bound = dt_stability_bound(grid)
        if dt > bound * (1.0 + 1e-12):
            raise StepSizeError(
                f"dt={dt:g} exceeds the stability gate {bound:g} = C_STAB*spacing^3 for n={grid.n}, "
                f"length={grid.length:g}")
        self.grid = grid
        self.dt = float(dt)
        self.p = params.p
        k = grid.wavenumbers
        self.e_half = np.exp(0.5j * dt * k**3)          # exact factor for u_t = -u_xxx
        self.e_full = self.e_half**2
        self._two_e_half = 2.0 * self.e_half
        mask = np.zeros(k.size)
        mask[: grid.n // 3 + 1] = 1.0                   # 2/3 rule: keep |mode| <= n/3
        self._minus_ik_masked = -1j * k * mask
        sig = sponge_profile(grid, sponge) if sponge is not None else np.zeros(grid.n)
        self._sigma = sig if np.any(sig) else None
        self._buffers(())

    def _buffers(self, batch: tuple) -> None:
        """Transform buffers for a stack of the given leading shape: the field,
        and (u^p, sigma*u) with the layer on."""
        rows = 1 if self._sigma is None else 2
        self._u = np.empty(batch + (self.grid.n,))
        self._flux = np.empty(batch + (rows, self.grid.n))
        self._flux_hat = np.empty(batch + (rows, self.e_half.size), dtype=complex)

    def _rhs(self, uhat: np.ndarray) -> np.ndarray:
        """dt times the flux and damping terms at uhat, in Fourier space."""
        u = np.fft.irfft(uhat, self.grid.n, out=self._u)
        up = np.multiply(u, u, out=self._flux[..., 0, :])
        for _ in range(self.p - 2):                     # integer power by repeated multiply
            up *= u
        if self._sigma is not None:
            np.multiply(self._sigma, u, out=self._flux[..., 1, :])
        fh = np.fft.rfft(self._flux, out=self._flux_hat)
        out = self._minus_ik_masked * fh[..., 0, :]
        if self._sigma is not None:
            out -= fh[..., 1, :]
        out *= self.dt
        return out

    def step_hat(self, uhat: np.ndarray) -> np.ndarray:
        """One step of uhat, a spectrum or a (B, n//2 + 1) stack of them; rows
        are transformed along the last axis and never mix."""
        if self._u.shape[:-1] != uhat.shape[:-1]:
            self._buffers(uhat.shape[:-1])
        # keep each product's operand order: numpy's complex products are not
        # bitwise commutative, and this order reproduces earlier runs exactly
        E, E2 = self.e_half, self.e_full
        a = self._rhs(uhat)
        b = self._rhs(E * (uhat + 0.5 * a))
        c = self._rhs(E * uhat + 0.5 * b)
        e2u = E2 * uhat
        d = self._rhs(e2u + E * c)
        return e2u + (E2 * a + self._two_e_half * (b + c) + d) / 6.0


def step(u: Field, dt: float, params: ModelParams, sponge: SpongeSettings | None = None) -> Field:
    """Advance one time step (convenience wrapper building a one-shot stepper)."""
    st = Stepper(u.grid, dt, params, sponge)
    out = np.fft.irfft(st.step_hat(np.fft.rfft(u.values)), u.grid.n)
    if not np.all(np.isfinite(out)):
        raise BlowupError("non-finite values after a single step", t_last=0.0)
    return Field(u.grid, out)


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class Trajectory:
    """Snapshots of an evolution at uniform cadence, plus conserved series.

    conservative is False when the absorbing layer was active (mass/energy
    drift is then physical, not numerical).
    """

    params: ModelParams
    grid: Grid
    dt: float
    cadence: float
    times: np.ndarray
    fields: list
    mass: np.ndarray
    energy: np.ndarray
    conservative: bool

    def drift_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Relative mass and energy drift from the first snapshot, per snapshot."""
        return tuple(np.abs(q - q[0]) / max(abs(q[0]), 1e-300)
                     for q in (self.mass, self.energy))

    def relative_drift(self) -> tuple[float, float]:
        """Max relative mass and energy drift over the stored snapshots."""
        dm, de = self.drift_series()
        return float(np.max(dm)), float(np.max(de))


def _steps_for(total: float, dt: float, what: str) -> int:
    n = int(round(total / dt))
    if n < 1 or abs(n * dt - total) > 1e-9 * max(1.0, abs(total)):
        raise ParameterError(f"{what}={total:g} must be a positive integer multiple of dt={dt:g}")
    return n


def evolve(u0: Field | list, t_final: float, params: ModelParams, dt: float,
           cadence: float | None = None, sponge: SpongeSettings | None = None,
           observer=None, keep_fields: bool = True) -> Trajectory | list:
    """Evolve initial data to t_final, recording snapshots every `cadence`.

    observer(t, Field), when given, is called at every snapshot (including
    t=0); set keep_fields=False to stream through the observer without
    retaining snapshot fields in memory. On blowup a BlowupError is raised
    carrying the partial trajectory and the last time known finite.

    Given a list of fields on one grid, with a list of one observer (or None)
    per field, evolve steps them as one stack and returns a list holding each
    member's Trajectory or the GkdvError that stopped it. A member whose
    values go non-finite, or whose observer raises a GkdvError, leaves the
    stack, and that error carries its t_last and partial trajectory. Rows
    never mix, so the other members are unaffected.
    """
    single = isinstance(u0, Field)
    starts = [u0] if single else list(u0)
    observers = [observer] if single else list(observer or [None] * len(starts))
    if len(observers) != len(starts):
        raise ParameterError(f"{len(observers)} observers for {len(starts)} fields")
    n_steps = _steps_for(t_final, dt, "t_final")
    cadence = dt if cadence is None else cadence
    every = _steps_for(cadence, dt, "cadence")
    if n_steps % every != 0:
        raise ParameterError(f"t_final/dt={n_steps} must be a multiple of cadence/dt={every}")
    if not starts:
        return []
    grid = starts[0].grid
    if any(f.grid != grid for f in starts):
        raise ParameterError("stacked fields must share one grid")

    stepper = Stepper(grid, dt, params, sponge)
    series = [([], [], [], []) for _ in starts]       # times, fields, mass, energy per member
    results = [None] * len(starts)
    alive = list(range(len(starts)))                  # member of each stack row
    uhat = np.fft.rfft(np.stack([f.values for f in starts]))
    t_last_finite = 0.0

    def _partial(k: int) -> Trajectory:
        times, fields, mass, energy = series[k]
        return Trajectory(params=params, grid=grid, dt=dt, cadence=every * dt,
                          times=np.asarray(times), fields=fields,
                          mass=np.asarray(mass), energy=np.asarray(energy),
                          conservative=stepper._sigma is None)

    def _drop(failed: dict) -> None:
        """Take the failed rows (row -> error) out of the stack."""
        nonlocal uhat, alive
        for row, exc in failed.items():
            exc.t_last, exc.trajectory = t_last_finite, _partial(alive[row])
            results[alive[row]] = exc
        keep = [row for row in range(len(alive)) if row not in failed]
        uhat, alive = uhat[keep], [alive[row] for row in keep]

    def _snapshot(i_step: int) -> None:
        t = i_step * dt
        vals = np.fft.irfft(uhat, grid.n)             # one transform: check and snapshot
        failed = {}
        for row, finite in enumerate(np.isfinite(vals).all(axis=-1)):
            if not finite:
                failed[row] = BlowupError(f"blowup detected near t={t:g}")
                continue
            times, fields, mass, energy = series[alive[row]]
            u = Field(grid, vals[row])
            q = conserved(u, params)
            times.append(t)
            mass.append(q.mass)
            energy.append(q.energy)
            if keep_fields:
                fields.append(u)
            if observers[alive[row]] is not None:
                try:
                    observers[alive[row]](t, u)
                except GkdvError as exc:
                    failed[row] = exc
        if failed:
            _drop(failed)

    _snapshot(0)
    for i in range(1, n_steps + 1):
        if not alive:
            break
        uhat = stepper.step_hat(uhat)
        if i % _BLOWUP_CHECK_EVERY == 0 or i == n_steps:
            finite = np.isfinite(uhat).all(axis=-1)
            if not finite.all():
                _drop({int(row): BlowupError(f"blowup detected near t={i * dt:g}")
                       for row in np.flatnonzero(~finite)})
            t_last_finite = i * dt
        if i % every == 0 and alive:
            _snapshot(i)
    for k in alive:
        results[k] = _partial(k)
    if single and isinstance(results[0], GkdvError):
        raise results[0]
    return results[0] if single else results
