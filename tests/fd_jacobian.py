"""Finite-difference reference for the orthogonality Jacobian.

Central differences of ortho_residual in each parameter of
(c_1, x_1, ..., c_N, x_N), with relative step 1e-6; columns follow that
ordering, rows the residual ordering (rho1_j, rho2_j), as in ortho_jacobian.
"""

import numpy as np

from gkdv import SolitonState, ortho_residual


def fd_jacobian(u, state, params) -> np.ndarray:
    theta = np.empty(2 * state.n)
    theta[0::2], theta[1::2] = state.speeds, state.positions
    J = np.empty((theta.size, theta.size))
    for i in range(theta.size):
        step = 1e-6 * max(1.0, abs(theta[i]))
        tp, tm = theta.copy(), theta.copy()
        tp[i] += step
        tm[i] -= step
        rp = ortho_residual(u, SolitonState(tuple(tp[0::2]), tuple(tp[1::2])), params)
        rm = ortho_residual(u, SolitonState(tuple(tm[0::2]), tuple(tm[1::2])), params)
        J[:, i] = (rp - rm) / (2.0 * step)
    return J
