"""The quadratic form behind the constrained spectrum, for cross-checking.

B(f, g) = int f_x g_x + (c(x) - p R^(p-1)) f g, with R the profile sum and
c(x) the speed ramp, evaluated by quadrature on the grid. The eigenpair
(lambda, v) of constrained_spectrum must satisfy the Rayleigh identity
B(v, v) = lambda |v|_H1^2.
"""

import numpy as np

from gkdv import Field, ModelParams, PsiWeight, SolitonState
from gkdv.functionals import speed_ramp
from gkdv.profiles import SolitonBasis


def bilinear_form(f: Field, g: Field, state: SolitonState, w: PsiWeight,
                  params: ModelParams) -> float:
    """int f_x g_x - p R^(p-1) f g + c(x) f g with R the full profile sum."""
    grid = f.grid
    R = SolitonBasis(params, state, grid).total
    ramp = speed_ramp(state, w, grid)
    V = -params.p * R ** (params.p - 1) + ramp
    return grid.spacing * float(np.sum(f.dx * g.dx + V * f.values * g.values))
