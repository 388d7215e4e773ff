"""Decomposition of a field into modulated solitons plus an orthogonal residue.

A field u is written as sum_j Q_{c_j}(x - x_j) + eps with 2N orthogonality
constraints <R_j, eps> = <(R_j)_x, eps> = 0. The constraint system is solved
by a damped Newton iteration with an analytic Jacobian; tracking along a
trajectory seeds each solve from the ballistically advanced previous state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DecompositionFailureError, DegenerateConfigurationError,
                     GuessFailureError, ParameterError)
from .grid import Field
from .profiles import ModelParams, SolitonBasis, SolitonState, eval_Q
from .solver import h1_norm, l2_norm

_COND_LIMIT = 1e12
_MAX_HALVINGS = 6


@dataclass
class Decomposition:
    """Result of one constrained solve.

    ortho_residuals holds (rho1_1, rho2_1, ..., rho1_N, rho2_N), i.e. the
    profile and profile-slope overlaps of eps for each soliton in turn.
    basis is the final state's SolitonBasis, for reuse by whoever consumes the
    decomposition right away; track() drops it so that stored decompositions
    do not keep (N, n) rows alive.
    """

    state: SolitonState
    epsilon: Field
    ortho_residuals: np.ndarray
    iterations: int
    basis: SolitonBasis | None = field(default=None, repr=False, compare=False)

    def reconstruct(self, params: ModelParams) -> Field:
        g = self.epsilon.grid
        return Field(g, self.epsilon.values + SolitonBasis(params, self.state, g).total)


def _residual(u: Field, basis: SolitonBasis) -> np.ndarray:
    eps = u.values - basis.total
    h = u.grid.spacing
    out = np.empty(2 * basis.state.n)
    out[0::2] = h * (basis.R @ eps)
    out[1::2] = h * (basis.Rx @ eps)
    return out


def ortho_residual(u: Field, state: SolitonState, params: ModelParams) -> np.ndarray:
    """The 2N orthogonality integrals (<R_j, eps>, <(R_j)_x, eps>)_j."""
    return _residual(u, SolitonBasis(params, state, u.grid))


def ortho_jacobian(u: Field, state: SolitonState, params: ModelParams,
                   mode: str = "analytic", basis: SolitonBasis | None = None) -> np.ndarray:
    """Jacobian of ortho_residual w.r.t. (c_1, x_1, ..., c_N, x_N).

    Rows follow the residual ordering (rho1_j, rho2_j); mode "fd" uses central
    differences with relative step 1e-6 for cross-validation. basis, when
    given, is the state's SolitonBasis and its cached rows are reused.
    """
    if mode == "fd":
        return _fd_jacobian(u, state, params)
    if mode != "analytic":
        raise ParameterError(f"jacobian mode must be 'analytic' or 'fd', got {mode}")
    b = SolitonBasis(params, state, u.grid) if basis is None else basis
    R, Rx, Rxx, dRdc, dRxdc = b.R, b.Rx, b.Rxx, b.dR_dc, b.dRx_dc
    eps = u.values - b.total
    h = u.grid.spacing
    N = state.n
    J = np.empty((2 * N, 2 * N))
    # own-parameter terms acting through R_j, plus coupling through eps
    eps_dRdc = h * (dRdc @ eps)
    eps_Rx = h * (Rx @ eps)
    eps_dRxdc = h * (dRxdc @ eps)
    eps_Rxx = h * (Rxx @ eps)
    G_R_dRdc = h * (R @ dRdc.T)      # [j,k] = <R_j, dR_k/dc_k>
    G_R_Rx = h * (R @ Rx.T)          # [j,k] = <R_j, (R_k)_x>
    G_Rx_dRdc = h * (Rx @ dRdc.T)
    G_Rx_Rx = h * (Rx @ Rx.T)
    for j in range(N):
        for k in range(N):
            J[2 * j, 2 * k] = (eps_dRdc[j] if j == k else 0.0) - G_R_dRdc[j, k]
            J[2 * j, 2 * k + 1] = (-eps_Rx[j] if j == k else 0.0) + G_R_Rx[j, k]
            J[2 * j + 1, 2 * k] = (eps_dRxdc[j] if j == k else 0.0) - G_Rx_dRdc[j, k]
            J[2 * j + 1, 2 * k + 1] = (-eps_Rxx[j] if j == k else 0.0) + G_Rx_Rx[j, k]
    return J


def _theta(state: SolitonState) -> np.ndarray:
    th = np.empty(2 * state.n)
    th[0::2] = state.speeds
    th[1::2] = state.positions
    return th


def _state_from(theta: np.ndarray) -> SolitonState:
    return SolitonState(tuple(theta[0::2]), tuple(theta[1::2]))


def _fd_jacobian(u: Field, state: SolitonState, params: ModelParams) -> np.ndarray:
    th0 = _theta(state)
    J = np.empty((2 * state.n, 2 * state.n))
    for i in range(th0.size):
        step = 1e-6 * max(1.0, abs(th0[i]))
        tp, tm = th0.copy(), th0.copy()
        tp[i] += step
        tm[i] -= step
        rp = ortho_residual(u, _state_from(tp), params)
        rm = ortho_residual(u, _state_from(tm), params)
        J[:, i] = (rp - rm) / (2.0 * step)
    return J


def decompose(u: Field, guess: SolitonState, params: ModelParams,
              tol: float | None = None, max_iter: int = 50) -> Decomposition:
    """Drive the orthogonality residuals to zero by damped Newton.

    tol defaults to 1e-11 * sqrt(mass of u). Steps are halved (at most 6
    times) until the residual norm decreases; a step that cannot decrease it
    aborts the iteration.
    """
    if tol is None:
        tol = 1e-11 * math.sqrt(u.grid.spacing * float(np.sum(u.values**2)))
        tol = max(tol, 1e-15)
    theta = _theta(guess)
    state = guess
    basis = SolitonBasis(params, state, u.grid)
    res = _residual(u, basis)
    rnorm = float(np.linalg.norm(res))
    iterations = 0
    for _ in range(max_iter):
        if float(np.max(np.abs(res))) <= tol:
            break
        J = ortho_jacobian(u, state, params, basis=basis)
        cond = np.linalg.cond(J)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise DegenerateConfigurationError(
                f"modulation Jacobian condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}")
        delta = np.linalg.solve(J, -res)
        lam = 1.0
        accepted = False
        for _halving in range(_MAX_HALVINGS + 1):
            try:
                cand = _state_from(theta + lam * delta)
            except ParameterError:
                lam *= 0.5  # step left the admissible cone; damp harder
                continue
            cand_basis = SolitonBasis(params, cand, u.grid)
            cand_res = _residual(u, cand_basis)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < rnorm:
                theta = theta + lam * delta
                state, basis, res, rnorm = cand, cand_basis, cand_res, cand_norm
                accepted = True
                break
            lam *= 0.5
        iterations += 1
        if not accepted:
            if float(np.max(np.abs(res))) <= tol:
                break
            raise DecompositionFailureError(
                f"Newton step failed to decrease the residual after {_MAX_HALVINGS} halvings "
                f"(|res|={rnorm:.3e}, tol={tol:.3e})", state=state, residuals=res,
                iterations=iterations)
    else:
        if float(np.max(np.abs(res))) > tol:
            raise DecompositionFailureError(
                f"no convergence after {max_iter} iterations (|res|_max="
                f"{float(np.max(np.abs(res))):.3e}, tol={tol:.3e})",
                state=state, residuals=res, iterations=iterations)

    return Decomposition(state=state, epsilon=Field(u.grid, u.values - basis.total),
                         ortho_residuals=res, iterations=iterations, basis=basis)


def initial_guess(u: Field, n_solitons: int, params: ModelParams,
                  amplitude_floor: float = 0.05,
                  min_separation: float = 2.0) -> SolitonState:
    """Peak detection with quadratic sub-grid refinement.

    Speeds come from peak heights via c = (height / Q(0))^(p-1); candidates
    closer than min_separation to a taller accepted peak are suppressed.
    """
    if n_solitons < 1:
        raise ParameterError("n_solitons must be >= 1")
    v = u.values
    left, right = np.roll(v, 1), np.roll(v, -1)
    idx = np.where((v > left) & (v >= right) & (v >= amplitude_floor))[0]
    if idx.size == 0:
        raise GuessFailureError(f"no peaks above amplitude floor {amplitude_floor}")
    order = idx[np.argsort(v[idx])[::-1]]
    kept = []
    for i in order:
        if all(abs(float(u.grid.wrap(u.grid.x[i] - u.grid.x[j]))) >= min_separation for j in kept):
            kept.append(i)
    if len(kept) < n_solitons:
        raise GuessFailureError(
            f"found only {len(kept)} separated peaks above the floor, need {n_solitons}")
    kept = kept[:n_solitons]

    h = u.grid.spacing
    q0 = float(eval_Q(params.p, 0.0))
    speeds, positions = [], []
    for i in kept:
        fm, f0, fp = v[(i - 1) % u.grid.n], v[i], v[(i + 1) % u.grid.n]
        denom = fm - 2.0 * f0 + fp
        shift = 0.0 if denom == 0.0 else 0.5 * h * (fm - fp) / denom
        height = f0 - 0.125 * (fm - fp) * (0.0 if denom == 0.0 else (fm - fp) / denom)
        positions.append(float(u.grid.x[i] + shift))
        speeds.append((max(height, 1e-300) / q0) ** (params.p - 1))
    order = np.argsort(speeds)
    speeds = [speeds[i] for i in order]
    positions = [positions[i] for i in order]
    if any(b <= a for a, b in zip(speeds, speeds[1:])):
        raise GuessFailureError("peak heights do not give strictly increasing speeds")
    try:
        return SolitonState(tuple(speeds), tuple(positions))
    except ParameterError as exc:
        raise GuessFailureError(f"peak detection produced an invalid state: {exc}") from exc


# ---------------------------------------------------------------------------
# tracking along trajectories

class ModulationTracker:
    """Streaming tracker: seed each snapshot from the ballistically advanced
    previous decomposition; skip snapshots whose predicted separation falls
    below l_min; stop at the first hard failure."""

    def __init__(self, params: ModelParams, first: SolitonState,
                 t0: float = 0.0, l_min: float = 0.0, tol: float | None = None):
        self.params = params
        self.l_min = float(l_min)
        self.tol = tol
        self.failure_index = None
        self.failure_error = None
        self._count = 0
        self._last_state = first
        self._last_t = float(t0)

    def predict(self, t: float) -> SolitonState:
        dt = t - self._last_t
        c = self._last_state.speed_array
        x = self._last_state.position_array + c * dt
        return SolitonState(tuple(c), tuple(x))

    def update(self, t: float, u: Field) -> Decomposition | None:
        """Decompose one snapshot; None when skipped (too close or after failure)."""
        index = self._count
        self._count += 1
        if self.failure_index is not None:
            return None
        seed = self.predict(t)
        x = seed.position_array
        if x.size > 1 and self.l_min > 0.0 and float(np.min(np.diff(np.sort(x)))) < self.l_min:
            return None
        try:
            dec = decompose(u, seed, self.params, tol=self.tol)
        except (DecompositionFailureError, DegenerateConfigurationError) as exc:
            self.failure_index = index
            self.failure_error = exc
            return None
        self._last_state = dec.state
        self._last_t = float(t)
        return dec


@dataclass
class TrackResult:
    """Per-snapshot decompositions with finite-difference rate estimates.

    decompositions[i] is None where tracking skipped the snapshot; cdot and
    xdot_minus_c are NaN there. failure_index marks the first snapshot whose
    solve failed (None when the whole trajectory tracked cleanly).
    """

    times: np.ndarray
    decompositions: list
    speeds: np.ndarray        # (count, N), NaN where skipped
    positions: np.ndarray
    cdot: np.ndarray
    xdot_minus_c: np.ndarray
    failure_index: int | None


def _fd_rates(times: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Centered differences where both neighbors exist, one-sided at the ends."""
    out = np.full_like(series, np.nan)
    m = series.shape[0]
    for i in range(m):
        lo, hi = i - 1, i + 1
        if lo >= 0 and hi < m and np.all(np.isfinite(series[lo])) and np.all(np.isfinite(series[hi])):
            out[i] = (series[hi] - series[lo]) / (times[hi] - times[lo])
        elif hi < m and np.all(np.isfinite(series[i])) and np.all(np.isfinite(series[hi])):
            out[i] = (series[hi] - series[i]) / (times[hi] - times[i])
        elif lo >= 0 and np.all(np.isfinite(series[i])) and np.all(np.isfinite(series[lo])):
            out[i] = (series[i] - series[lo]) / (times[i] - times[lo])
    return out


def track(trajectory, params: ModelParams, n_solitons: int | None = None,
          guess: SolitonState | None = None, l_min: float = 0.0,
          tol: float | None = None) -> TrackResult:
    """Track the modulation state across a stored trajectory."""
    if guess is None:
        if n_solitons is None:
            raise ParameterError("track needs either an explicit guess or n_solitons")
        guess = initial_guess(trajectory.fields[0], n_solitons, params)
    first = decompose(trajectory.fields[0], guess, params, tol=tol)
    tracker = ModulationTracker(params, first.state, t0=float(trajectory.times[0]),
                                l_min=l_min, tol=tol)
    N = first.state.n
    count = len(trajectory.times)
    decs: list = []
    speeds = np.full((count, N), np.nan)
    positions = np.full((count, N), np.nan)
    for i, (t, f) in enumerate(zip(trajectory.times, trajectory.fields)):
        dec = first if i == 0 else tracker.update(float(t), f)
        decs.append(dec)
        if dec is not None:
            dec.basis = None
            speeds[i] = dec.state.speeds
            positions[i] = dec.state.positions
    times = np.asarray(trajectory.times, dtype=np.float64)
    cdot = _fd_rates(times, speeds)
    xdot = _fd_rates(times, positions)
    # the tracker counts its own updates, which start at the second snapshot
    fail = None if tracker.failure_index is None else tracker.failure_index + 1
    return TrackResult(times=times, decompositions=decs, speeds=speeds,
                       positions=positions, cdot=cdot,
                       xdot_minus_c=xdot - speeds,
                       failure_index=fail)


def write_modulation_csv(path, result: TrackResult) -> None:
    """t, c_j, x_j, |eps|_L2, |eps|_H1, max residual, iterations per snapshot."""
    N = result.speeds.shape[1]
    cols = (["t"] + [f"c{j + 1}" for j in range(N)] + [f"x{j + 1}" for j in range(N)]
            + ["eps_l2", "eps_h1", "max_ortho_residual", "iterations"])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for i, t in enumerate(result.times):
            dec = result.decompositions[i]
            if dec is None:
                row = [t] + [np.nan] * (2 * N + 3) + [0]
            else:
                row = ([t] + list(dec.state.speeds) + list(dec.state.positions)
                       + [l2_norm(dec.epsilon), h1_norm(dec.epsilon),
                          float(np.max(np.abs(dec.ortho_residuals))), dec.iterations])
            fh.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                              for v in row) + "\n")
