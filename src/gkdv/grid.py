"""Uniform periodic grids and real fields sampled on them."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid of n points on [x0, x0 + length).

    n must be a power of two (>= 256) so that transform sizes stay fast and
    the dealiasing cut sits on an integer mode index.
    """

    n: int
    length: float
    x0: float | None = None

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not _is_power_of_two(int(self.n)) or self.n < 256:
            raise ParameterError(f"grid size must be a power of two >= 256, got {self.n}")
        if not (float(self.length) > 0.0) or not np.isfinite(self.length):
            raise ParameterError(f"domain length must be positive and finite, got {self.length}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "length", float(self.length))
        x0 = -self.length / 2.0 if self.x0 is None else float(self.x0)
        if not np.isfinite(x0):
            raise ParameterError(f"grid origin must be finite, got {x0}")
        object.__setattr__(self, "x0", x0)

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return self.x0 + self.spacing * np.arange(self.n)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Nonnegative wavenumbers of the real transform, 2*pi*m/length."""
        return (2.0 * np.pi / self.length) * np.arange(self.n // 2 + 1)

    def wrap(self, dx: np.ndarray | float) -> np.ndarray | float:
        """Minimal-image displacement, mapped into [-length/2, length/2)."""
        half = 0.5 * self.length
        return np.mod(np.asarray(dx) + half, self.length) - half


@dataclass
class Field:
    """Real field sampled on a periodic grid. Values must be finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n,):
            raise ParameterError(f"field shape {v.shape} does not match grid size {self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise ParameterError("field contains non-finite values")
        self.values = v

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def zero_field(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.n))
