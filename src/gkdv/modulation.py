"""Decomposition of a field into modulated solitons plus an orthogonal residue.

A field u is written as sum_j Q_{c_j}(x - x_j) + eps with 2N orthogonality
constraints <R_j, eps> = <(R_j)_x, eps> = 0. The constraint system is solved
by a damped Newton iteration with an analytic Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DecompositionFailureError, DegenerateConfigurationError,
                     GuessFailureError, ParameterError)
from .grid import Field
from .profiles import ModelParams, SolitonBasis, SolitonState, eval_Q

_COND_LIMIT = 1e12
_MAX_HALVINGS = 6
_MAX_ITER = 50
_AMPLITUDE_FLOOR = 0.05     # initial_guess: the lowest peak it accepts,
_MIN_SEPARATION = 2.0       # and its least distance from a taller accepted one


@dataclass
class Decomposition:
    """Result of one constrained solve.

    ortho_residuals holds (rho1_1, rho2_1, ..., rho1_N, rho2_N), i.e. the
    profile and profile-slope overlaps of eps for each soliton in turn.
    basis is the final state's SolitonBasis, for reuse by whoever consumes the
    decomposition right away.
    """

    state: SolitonState
    epsilon: Field
    ortho_residuals: np.ndarray
    iterations: int
    basis: SolitonBasis | None = field(default=None, repr=False, compare=False)


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
                   basis: SolitonBasis | None = None) -> np.ndarray:
    """Jacobian of ortho_residual w.r.t. (c_1, x_1, ..., c_N, x_N), analytic.

    Rows follow the residual ordering (rho1_j, rho2_j). basis, when given, is
    the state's SolitonBasis and its cached rows are reused.
    """
    b = SolitonBasis(params, state, u.grid) if basis is None else basis
    R, Rx, Rxx, dRdc, dRxdc = b.R, b.Rx, b.Rxx, b.dR_dc, b.dRx_dc
    eps = u.values - b.total
    h = u.grid.spacing
    N = state.n
    J = np.empty((2 * N, 2 * N))
    # d<R_j, eps> and d<(R_j)_x, eps> by c_k, x_k: the row's own derivative
    # against eps when j == k, plus the row against -dR_k/dc_k or (R_k)_x
    J[0::2, 0::2] = np.diag(h * (dRdc @ eps)) - h * (R @ dRdc.T)
    J[0::2, 1::2] = np.diag(-(h * (Rx @ eps))) + h * (R @ Rx.T)
    J[1::2, 0::2] = np.diag(h * (dRxdc @ eps)) - h * (Rx @ dRdc.T)
    J[1::2, 1::2] = np.diag(-(h * (Rxx @ eps))) + h * (Rx @ Rx.T)
    return J


def _theta(state: SolitonState) -> np.ndarray:
    th = np.empty(2 * state.n)
    th[0::2] = state.speeds
    th[1::2] = state.positions
    return th


def _state_from(theta: np.ndarray) -> SolitonState:
    return SolitonState(tuple(theta[0::2]), tuple(theta[1::2]))


def decompose(u: Field, guess: SolitonState, params: ModelParams,
              tol: float | None = None) -> Decomposition:
    """Drive the orthogonality residuals to zero by damped Newton.

    tol defaults to 1e-11 * sqrt(mass of u). Steps are halved (at most 6
    times) until the residual norm decreases; a step that cannot decrease it
    aborts the iteration.
    """
    if tol is None:
        tol = 1e-11 * math.sqrt(u.grid.spacing * float(np.sum(u.values**2)))
        tol = max(tol, 1e-15)
    state = guess
    basis = SolitonBasis(params, state, u.grid)
    res = _residual(u, basis)
    rnorm = float(np.linalg.norm(res))
    for iterations in range(_MAX_ITER + 1):
        if float(np.max(np.abs(res))) <= tol:
            break
        if iterations == _MAX_ITER:
            raise DecompositionFailureError(
                f"no convergence after {_MAX_ITER} iterations (|res|_max="
                f"{float(np.max(np.abs(res))):.3e}, tol={tol:.3e})",
                state=state, residuals=res, iterations=iterations)
        J = ortho_jacobian(u, state, params, basis=basis)
        cond = np.linalg.cond(J)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise DegenerateConfigurationError(
                f"modulation Jacobian condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}")
        delta = np.linalg.solve(J, -res)
        theta = _theta(state)
        for lam in 0.5 ** np.arange(_MAX_HALVINGS + 1):
            try:
                cand = _state_from(theta + lam * delta)
            except ParameterError:
                continue  # step left the admissible cone; damp harder
            cand_basis = SolitonBasis(params, cand, u.grid)
            cand_res = _residual(u, cand_basis)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < rnorm:
                state, basis, res, rnorm = cand, cand_basis, cand_res, cand_norm
                break
        else:
            raise DecompositionFailureError(
                f"Newton step failed to decrease the residual after {_MAX_HALVINGS} halvings "
                f"(|res|={rnorm:.3e}, tol={tol:.3e})", state=state, residuals=res,
                iterations=iterations + 1)

    return Decomposition(state=state, epsilon=Field(u.grid, u.values - basis.total),
                         ortho_residuals=res, iterations=iterations, basis=basis)


def initial_guess(u: Field, n_solitons: int, params: ModelParams) -> SolitonState:
    """Peak detection with quadratic sub-grid refinement.

    Speeds come from peak heights via c = (height / Q(0))^(p-1); candidates
    closer than _MIN_SEPARATION to a taller accepted peak are suppressed.
    """
    if n_solitons < 1:
        raise ParameterError("n_solitons must be >= 1")
    v = u.values
    left, right = np.roll(v, 1), np.roll(v, -1)
    idx = np.where((v > left) & (v >= right) & (v >= _AMPLITUDE_FLOOR))[0]
    if idx.size == 0:
        raise GuessFailureError(f"no peaks above amplitude floor {_AMPLITUDE_FLOOR}")
    order = idx[np.argsort(v[idx])[::-1]]
    kept = []
    for i in order:
        if all(abs(float(u.grid.wrap(u.grid.x[i] - u.grid.x[j]))) >= _MIN_SEPARATION for j in kept):
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

