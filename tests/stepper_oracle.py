"""Reference integrating-factor RK4 step, written as expressions.

The expression tree of `Stepper.step_hat` and `Stepper._rhs` before the
stepper wrote its stages into buffers it owns: every stage allocates new
arrays, the factors broadcast against a stack, and dt and 1/6 are applied as
complex operations. The buffered step must match it bit for bit (up to the
signs of zeros), because it keeps each product's operands and their order.
"""

import numpy as np

from gkdv import sponge_profile


class OracleStepper:
    def __init__(self, grid, dt, params, sponge=None):
        self.n, self.dt, self.p = grid.n, float(dt), params.p
        k = grid.wavenumbers
        self.e_half = np.exp(0.5j * dt * k**3)
        self.e_full = self.e_half**2
        self.two_e_half = 2.0 * self.e_half
        mask = np.zeros(k.size)
        mask[: grid.n // 3 + 1] = 1.0
        self.minus_ik_masked = -1j * k * mask
        sig = sponge_profile(grid, sponge) if sponge is not None else np.zeros(grid.n)
        self.sigma = sig if np.any(sig) else None

    def rhs(self, uhat):
        u = np.fft.irfft(uhat, self.n)
        rows = 1 if self.sigma is None else 2
        flux = np.empty(uhat.shape[:-1] + (rows, self.n))
        np.multiply(u, u, out=flux[..., 0, :])
        for _ in range(self.p - 2):
            flux[..., 0, :] *= u
        if self.sigma is not None:
            np.multiply(self.sigma, u, out=flux[..., 1, :])
        fh = np.fft.rfft(flux)
        out = self.minus_ik_masked * fh[..., 0, :]
        if self.sigma is not None:
            out -= fh[..., 1, :]
        out *= self.dt
        return out

    def step_hat(self, uhat):
        E, E2 = self.e_half, self.e_full
        a = self.rhs(uhat)
        b = self.rhs(E * (uhat + 0.5 * a))
        c = self.rhs(E * uhat + 0.5 * b)
        e2u = E2 * uhat
        d = self.rhs(e2u + E * c)
        return e2u + (E2 * a + self.two_e_half * (b + c) + d) / 6.0
