"""Initial perturbations: compactly supported bump and band-limited noise.

Both are rescaled so their H1 norm equals the requested amplitude exactly,
which is what every scaling experiment sweeps over. make_perturbation owns
the rules of a perturbation config; config validation runs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ParameterError
from ..grid import Field, Grid
from ..profiles import SolitonState
from ..solver import bump, h1_norm

PERTURBATION_KINDS = ("none", "bump", "noise")


@dataclass(frozen=True)
class PerturbationConfig:
    """Initial perturbation, rescaled to exact H1 size `amplitude`.

    A bump reads width and location: a float (absolute center) or "gap:<k>"
    for the center of the gap between solitons k and k+1 (1-based). Noise
    reads seed, kmin and kmax.
    """

    kind: str = "none"
    amplitude: float = 0.0
    width: float = 5.0
    location: str | float = "gap:1"
    seed: int = 0
    kmin: float = 0.05
    kmax: float = 1.0


def band_noise(grid: Grid, seed: int, kmin: float, kmax: float) -> Field:
    """Random-phase field with spectrum supported on kmin <= |k| <= kmax."""
    if not (0.0 <= kmin < kmax):
        raise ParameterError(f"need 0 <= kmin < kmax, got ({kmin}, {kmax})")
    rng = np.random.default_rng(seed)
    k = grid.wavenumbers
    band = (k >= kmin) & (k <= kmax) & (k > 0)
    if not np.any(band):
        raise ParameterError(f"no grid modes inside band ({kmin}, {kmax}) "
                             f"at spacing {grid.spacing:g}")
    coeff = np.zeros(k.size, dtype=complex)
    amp = rng.standard_normal(int(band.sum()))
    phase = rng.uniform(0.0, 2.0 * np.pi, int(band.sum()))
    coeff[band] = amp * np.exp(1j * phase)
    if grid.n % 2 == 0:
        coeff[-1] = 0.0  # keep the field band-limited below Nyquist
    return Field(grid, np.fft.irfft(coeff, grid.n))


def _resolve_center(location, state: SolitonState) -> float:
    if not isinstance(location, str):
        return float(location)
    head, _, index = location.partition(":")
    if head != "gap" or not index.isdecimal():
        raise ParameterError(f"location must be a number or 'gap:<k>', got {location!r}")
    k = int(index)
    if not (1 <= k <= state.n - 1):
        raise ParameterError(f"location {location!r} needs a gap index in 1..{state.n - 1}"
                             if state.n > 1 else f"location {location!r} needs two solitons; "
                             "for one soliton, set perturbation.location to a number")
    x = np.sort(state.position_array)
    return 0.5 * (x[k - 1] + x[k])


def make_perturbation(cfg: PerturbationConfig, grid: Grid,
                      state: SolitonState) -> Field:
    """Build the configured perturbation with H1 norm exactly cfg.amplitude."""
    if cfg.kind not in PERTURBATION_KINDS:
        raise ParameterError(f"kind must be one of {PERTURBATION_KINDS}, got {cfg.kind!r}")
    if cfg.kind == "none":
        return Field(grid, np.zeros(grid.n))
    if not (cfg.amplitude > 0):
        raise ParameterError(f"amplitude must be positive, got {cfg.amplitude}")
    if cfg.kind == "bump":
        center = _resolve_center(cfg.location, state)
        if not (cfg.width > 0):
            raise ParameterError(f"bump width must be positive, got {cfg.width}")
        raw = Field(grid, bump(grid, center, cfg.width))
    else:
        raw = band_noise(grid, cfg.seed, cfg.kmin, cfg.kmax)
    nrm = h1_norm(raw)
    if nrm == 0.0:
        raise ParameterError("perturbation is identically zero; cannot normalize")
    return Field(grid, raw.values * (cfg.amplitude / nrm))
