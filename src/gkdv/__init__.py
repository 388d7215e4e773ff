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
from .functionals import (LocalizedMassRecord, PsiWeight, SpectrumResult,
                          abel_resummed, bilinear_form, constrained_spectrum,
                          dj_sums, energy_expansion_residual,
                          linearized_energy_form, localized_mass_rate_terms,
                          localized_masses, midpoints, psi_eval,
                          quadratic_form, speed_ramp, weight_for,
                          write_spectral_certificate)
from .grid import Field, Grid, zero_field
from .modulation import (Decomposition, ModulationTracker, TrackResult,
                         decompose, initial_guess, ortho_jacobian,
                         ortho_residual, track, write_modulation_csv)
from .profiles import (ModelParams, SolitonState, eval_Q, eval_Qc,
                       kdv_nsoliton_profile, profile_gradient_constant,
                       profile_integral_constant, profile_mass_constant,
                       sigma0_of_speeds, soliton_energy, soliton_mass,
                       soliton_sum)
from .snapio import SnapshotSet, read_snapshots, snapshots_to_csv, write_snapshots
from .solver import (C_STAB, ConservedQuantities, SpongeSettings, Stepper,
                     Trajectory, conserved, dt_stability_bound, evolve,
                     h1_distance, h1_norm, l2_norm, l2_norm_right_of,
                     spectral_derivative, sponge_profile, step)

__version__ = "0.1.0"

__all__ = [
    "BlowupError", "ConfigValidationError", "DecompositionFailureError",
    "DegenerateConfigurationError", "DomainTooSmallError", "GkdvError",
    "GuessFailureError", "ParameterError", "SpectralFailureError",
    "StepSizeError", "UnsupportedModelError",
    "LocalizedMassRecord", "PsiWeight", "SpectrumResult", "abel_resummed",
    "bilinear_form", "constrained_spectrum", "dj_sums",
    "energy_expansion_residual", "linearized_energy_form",
    "localized_mass_rate_terms", "localized_masses", "midpoints", "psi_eval",
    "quadratic_form", "speed_ramp", "weight_for", "write_spectral_certificate",
    "Field", "Grid", "zero_field",
    "Decomposition", "ModulationTracker", "TrackResult", "decompose",
    "initial_guess", "ortho_jacobian", "ortho_residual", "track",
    "write_modulation_csv",
    "ModelParams", "SolitonState", "eval_Q", "eval_Qc", "kdv_nsoliton_profile",
    "profile_gradient_constant", "profile_integral_constant",
    "profile_mass_constant", "sigma0_of_speeds", "soliton_energy",
    "soliton_mass", "soliton_sum",
    "SnapshotSet", "read_snapshots", "snapshots_to_csv", "write_snapshots",
    "C_STAB", "ConservedQuantities", "SpongeSettings", "Stepper", "Trajectory",
    "conserved", "dt_stability_bound", "evolve", "h1_distance", "h1_norm",
    "l2_norm", "l2_norm_right_of", "spectral_derivative", "sponge_profile", "step",
]
