"""Numerical laboratory for generalized KdV multi-soliton dynamics.

Evolves u_t + (u_xx + u^p)_x = 0 for p in {2, 3, 4} on a periodic grid,
decomposes states near soliton superpositions into modulated profiles plus
a constrained remainder, and measures the functionals (weighted masses,
speed drifts, linearized energy, constrained spectra) that quantify orbital
stability of the multi-soliton family.
"""

from .errors import (BlowupError, ConfigValidationError,
                     DecompositionFailureError, DegenerateConfigurationError,
                     DomainTooSmallError, GkdvError, GuessFailureError,
                     ParameterError, SpectralFailureError, StepSizeError,
                     UnsupportedModelError)
from .functionals import (PsiWeight, SpectrumResult, constrained_spectrum,
                          energy_expansion_residual, linearized_energy_form,
                          localized_mass_rate_terms, localized_masses,
                          midpoints, speed_ramp)
from .grid import Field, Grid
from .modulation import (Decomposition, decompose, initial_guess,
                         ortho_jacobian, ortho_residual)
from .profiles import (ModelParams, SolitonState, eval_Q, eval_Qc,
                       kdv_nsoliton_profile, profile_mass_constant,
                       sigma0_of_speeds, soliton_energy, soliton_sum)
from .solver import (SpongeSettings, Stepper, Trajectory, conserved,
                     dt_stability_bound, evolve, h1_norm, l2_norm,
                     l2_norm_right_of, sponge_profile)

__version__ = "0.1.0"

__all__ = [
    "BlowupError", "ConfigValidationError", "DecompositionFailureError",
    "DegenerateConfigurationError", "DomainTooSmallError", "GkdvError",
    "GuessFailureError", "ParameterError", "SpectralFailureError",
    "StepSizeError", "UnsupportedModelError",
    "PsiWeight", "SpectrumResult",
    "constrained_spectrum", "energy_expansion_residual",
    "linearized_energy_form", "localized_mass_rate_terms", "localized_masses",
    "midpoints", "speed_ramp",
    "Field", "Grid",
    "Decomposition", "decompose", "initial_guess",
    "ortho_jacobian", "ortho_residual",
    "ModelParams", "SolitonState", "eval_Q", "eval_Qc", "kdv_nsoliton_profile",
    "profile_mass_constant", "sigma0_of_speeds", "soliton_energy", "soliton_sum",
    "SpongeSettings", "Stepper", "Trajectory", "conserved",
    "dt_stability_bound", "evolve", "h1_norm", "l2_norm", "l2_norm_right_of",
    "sponge_profile",
]
