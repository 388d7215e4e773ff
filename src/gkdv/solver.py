"""Pseudospectral time integration of u_t + (u_xx + u^p)_x = 0 on periodic grids.

The third derivative is integrated exactly through a Fourier integrating
factor; the remaining flux (and optional absorbing layer) is advanced with
classical RK4. The nonlinear product is dealiased with the 2/3 rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def check_step_size(grid: Grid, dt: float) -> None:
    """The step-size gate, applied by Stepper and by config validation:
    ParameterError unless dt is positive and finite, StepSizeError above
    dt_stability_bound(grid)."""
    if not (dt > 0) or not math.isfinite(dt):
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    bound = dt_stability_bound(grid)
    if dt > bound * (1.0 + 1e-12):
        raise StepSizeError(
            f"dt={dt:g} exceeds the stability gate {bound:g} = C_STAB*spacing^3 for n={grid.n}, "
            f"length={grid.length:g}")


def _int_power(v: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """v**k for an integer k >= 2, by repeated multiplication.

    numpy's ** calls pow, which is slow on arrays with negative entries: on an
    n = 8192 float64 array, v**3 takes 735 us with negative entries and 41 us
    with none, while v*v*v takes 13 us (numpy 2.4.6, AVX-512 host). Each
    product rounds once, so the relative error stays within about (k - 1)/2
    machine epsilons, against about 1/2 for pow.
    """
    out = np.multiply(v, v, out=out)
    for _ in range(k - 2):
        out *= v
    return out


def conserved(u: Field, params: ModelParams) -> tuple[float, float]:
    """(mass, energy): int u^2 and (1/2) int u_x^2 - 1/(p+1) int u^(p+1)."""
    h = u.grid.spacing
    v = u.values
    mass = h * float(np.sum(v * v))
    ux = u.dx
    energy = h * float(0.5 * np.sum(ux * ux) - np.sum(_int_power(v, params.p + 1)) / (params.p + 1))
    return mass, energy


def l2_norm(u: Field) -> float:
    return math.sqrt(u.grid.spacing * float(np.sum(u.values**2)))


def h1_norm(u: Field) -> float:
    ux = u.dx
    return math.sqrt(u.grid.spacing * float(np.sum(u.values**2) + np.sum(ux * ux)))


def l2_norm_right_of(u: Field, x_cut: float) -> float:
    """L2 norm restricted to lab-frame points with x > x_cut."""
    mask = u.grid.x > x_cut
    return math.sqrt(u.grid.spacing * float(np.sum(u.values[mask] ** 2)))


# ---------------------------------------------------------------------------
# absorbing layer

def bump(grid: Grid, center: float, width: float) -> np.ndarray:
    """C-infinity bump exp(1 - 1/(1 - r^2)), r = (x - center)/width on the
    minimal image, supported on |r| < 1."""
    r = grid.wrap(grid.x - center) / width
    vals = np.zeros(grid.n)
    inside = np.abs(r) < 1.0
    vals[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return vals


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
    if not (cfg.strength > 0.0):
        raise ParameterError(f"sponge strength must be positive, got {cfg.strength}")
    return cfg.strength * bump(grid, grid.x0, 0.5 * cfg.width_fraction * grid.length)


# ---------------------------------------------------------------------------
# stepping

class Stepper:
    """Precomputed integrating-factor RK4 stepper for one (grid, dt, p) triple.

    It owns buffers shaped like the last stack stepped: the transform buffers
    (the field, and u^p with sigma*u as one two-row rfft when the absorbing
    layer is on), the four RK4 stages and two temporaries, and the factors E,
    E^2, 2E and -ik*mask tiled to the stack. Every stage writes into them, so
    a step allocates only the spectrum it returns. That spectrum is always a
    new array, never one of these buffers or the input: callers keep it and
    slice it.
    """

    def __init__(self, grid: Grid, dt: float, params: ModelParams,
                 sponge: SpongeSettings | None = None):
        check_step_size(grid, dt)
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
        """Buffers and tiled factors for a stack of the given leading shape.
        numpy's broadcasting loops cost about twice its equal-shape loops, and
        tiling leaves every product's operands, so its bits, unchanged."""
        rows = 1 if self._sigma is None else 2
        spectrum = batch + (self.e_half.size,)
        self._u = np.empty(batch + (self.grid.n,))
        self._flux = np.empty(batch + (rows, self.grid.n))
        self._flux_hat = np.empty(batch + (rows, self.e_half.size), dtype=complex)
        self._stages = [np.empty(spectrum, dtype=complex) for _ in range(6)]   # a, b, c, d, t1, t2
        self._e, self._e2, self._two_e, self._flux_symbol = (
            np.ascontiguousarray(np.broadcast_to(f, spectrum))
            for f in (self.e_half, self.e_full, self._two_e_half, self._minus_ik_masked))

    def _rhs(self, uhat: np.ndarray, out: np.ndarray) -> None:
        """dt times the flux and damping terms at uhat, in Fourier space, into out."""
        u = np.fft.irfft(uhat, self.grid.n, out=self._u)
        _int_power(u, self.p, out=self._flux[..., 0, :])
        if self._sigma is not None:
            np.multiply(self._sigma, u, out=self._flux[..., 1, :])
        fh = np.fft.rfft(self._flux, out=self._flux_hat)
        np.multiply(self._flux_symbol, fh[..., 0, :], out=out)
        if self._sigma is not None:
            out -= fh[..., 1, :]
        scaled = out.view(np.float64)                 # numpy's complex * dt, same values
        scaled *= self.dt

    def step_hat(self, uhat: np.ndarray) -> np.ndarray:
        """One step of uhat, a spectrum or a (B, n//2 + 1) stack of them; rows
        are transformed along the last axis and never mix. Returns a new
        array and leaves uhat unchanged."""
        if self._u.shape[:-1] != uhat.shape[:-1]:
            self._buffers(uhat.shape[:-1])
        # the steps of  a = f(uhat);  b = f(E*(uhat + 0.5*a));  c = f(E*uhat + 0.5*b);
        # d = f(E2*uhat + E*c);  E2*uhat + (E2*a + 2E*(b + c) + d)/6,  with each
        # product's operands in this order: numpy's complex products are not
        # bitwise commutative, and this order reproduces earlier runs exactly
        E, E2, two_e = self._e, self._e2, self._two_e
        a, b, c, d, t1, t2 = self._stages
        self._rhs(uhat, a)
        np.multiply(0.5, a, out=t1)
        np.add(uhat, t1, out=t1)
        np.multiply(E, t1, out=t1)
        self._rhs(t1, b)
        np.multiply(E, uhat, out=t1)
        np.multiply(0.5, b, out=t2)
        np.add(t1, t2, out=t1)
        self._rhs(t1, c)
        np.multiply(E2, uhat, out=t2)                 # E2*uhat, kept to the end
        np.multiply(E, c, out=t1)
        np.add(t2, t1, out=t1)
        self._rhs(t1, d)
        np.multiply(E2, a, out=a)
        np.add(b, c, out=b)
        np.multiply(two_e, b, out=b)
        np.add(a, b, out=a)
        np.add(a, d, out=a)
        scaled = a.view(np.float64)                   # numpy's complex / 6.0, same values
        scaled *= 1.0 / 6.0
        return t2 + a


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class Trajectory:
    """Snapshots of an evolution at uniform cadence, plus conserved series.

    final is the last snapshot, kept whether or not fields are.
    """

    times: np.ndarray
    fields: list
    final: Field | None
    mass: np.ndarray
    energy: np.ndarray

    def drift_series(self) -> tuple[np.ndarray, np.ndarray]:
        """Relative mass and energy drift from the first snapshot, per snapshot."""
        return tuple(np.abs(q - q[0]) / max(abs(q[0]), 1e-300)
                     for q in (self.mass, self.energy))

    def relative_drift(self) -> tuple[float, float]:
        """Max relative mass and energy drift over the stored snapshots."""
        dm, de = self.drift_series()
        return float(np.max(dm)), float(np.max(de))


def step_counts(t_final: float, dt: float, cadence: float | None = None) -> tuple[int, int]:
    """Steps to t_final and steps between snapshots, as evolve takes them and
    config validation checks them. t_final and cadence (dt when None) must be
    positive integer multiples of dt to 1e-9 relative, and t_final a multiple
    of cadence; ParameterError otherwise."""
    cadence = dt if cadence is None else cadence
    counts = []
    for total, what in ((t_final, "t_final"), (cadence, "cadence")):
        n = round(total / dt) if dt > 0 and math.isfinite(total / dt) else 0
        if n < 1 or abs(n * dt - total) > 1e-9 * max(1.0, abs(total)):
            raise ParameterError(f"{what}={total:g} must be a positive integer multiple of dt={dt:g}")
        counts.append(n)
    n_steps, every = counts
    if n_steps % every != 0:
        raise ParameterError(f"t_final={t_final:g} must be a multiple of cadence={cadence:g} "
                             f"(t_final/dt={n_steps}, cadence/dt={every})")
    return n_steps, every


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
    n_steps, every = step_counts(t_final, dt, cadence)
    if not starts:
        return []
    grid = starts[0].grid
    if any(f.grid != grid for f in starts):
        raise ParameterError("stacked fields must share one grid")

    stepper = Stepper(grid, dt, params, sponge)
    series = [([], [], [], []) for _ in starts]       # times, fields, mass, energy per member
    finals = [None] * len(starts)                     # last snapshot per member
    results = [None] * len(starts)
    alive = list(range(len(starts)))                  # member of each stack row
    uhat = np.fft.rfft(np.stack([f.values for f in starts]))
    t_last_finite = 0.0

    def _partial(k: int) -> Trajectory:
        times, fields, mass, energy = series[k]
        return Trajectory(times=np.asarray(times), fields=fields, final=finals[k],
                          mass=np.asarray(mass), energy=np.asarray(energy))

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
            m, e = conserved(u, params)
            times.append(t)
            finals[alive[row]] = u
            mass.append(m)
            energy.append(e)
            if keep_fields:
                fields.append(u)
            if observers[alive[row]] is not None:
                try:
                    observers[alive[row]](t, u)
                except GkdvError as exc:
                    failed[row] = exc
            vars(u).pop("dx", None)                   # a kept field holds its values only
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
