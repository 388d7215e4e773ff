"""Dense reference for the constrained spectrum, for cross-checking at n <= 1024.

An independent path to the same eigenpair as the matrix-free solver: a dense
circulant for -d2/dx2, the n x n pencil (H, 1 - d2), an SVD null space Z of
the constraint columns and a generalized symmetric eigensolve of the reduced
pencil (Z^T H Z, Z^T (1 - d2) Z). It costs O(n^2) memory and O(n^3) time, so
keep it to small grids.
"""

import math

import numpy as np
import scipy.linalg

from gkdv import eval_Qc
from gkdv.functionals import speed_ramp


def second_derivative_matrix(grid) -> np.ndarray:
    """Dense matrix of -d2/dx2 as the square of the spectral first derivative.

    The symbol is k^2 with the Nyquist entry zeroed, which makes the matrix
    exactly D^T D for the first-derivative matrix D used by the quadrature
    forms, so discrete form values and matrix quadratic forms agree to
    round-off for every vector.
    """
    sym = grid.wavenumbers**2
    sym[-1] = 0.0
    kernel = np.fft.irfft(sym, grid.n)
    return scipy.linalg.circulant(kernel)


def dense_constrained_spectrum(state, w, params, grid, constrained=True):
    """(lambda_min, L2-normalized eigenvector) of the pencil, dense."""
    D2 = second_derivative_matrix(grid)
    offsets = [grid.wrap(grid.x - x0) for x0 in state.positions]
    R = sum(eval_Qc(params.p, c, y) for c, y in zip(state.speeds, offsets))
    V = -params.p * R ** (params.p - 1) + speed_ramp(state, w, grid)
    H = D2 + np.diag(V)
    M = np.eye(grid.n) + D2
    if constrained:
        cols = []
        for c, y in zip(state.speeds, offsets):
            cols.append(eval_Qc(params.p, c, y))
            cols.append(eval_Qc(params.p, c, y, 1))
        Z = scipy.linalg.null_space(np.stack(cols, axis=1).T)
        A, B = Z.T @ (H @ Z), Z.T @ (M @ Z)
    else:
        Z = None
        A, B = H, M
    vals, vecs = scipy.linalg.eigh(A, B, subset_by_index=(0, 0))
    vec = Z @ vecs[:, 0] if Z is not None else vecs[:, 0]
    return float(vals[0]), vec / math.sqrt(grid.spacing * float(vec @ vec))
