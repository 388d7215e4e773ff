"""Quadrature reference for the transition weight psi, for cross-checking the
closed form.

An independent path to psi from its derivative alone: psi' = c_psi Q(...) is
sampled on a window of 40 e-foldings of tail clearance on each side,
integrated spectrally (cumulative quadrature of the periodized samples plus
the mean slope), anchored by the analytic left tail phi/rate, and
interpolated with a cubic Hermite spline. Outside the window both tails
follow the same exponential asymptotics.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.interpolate import CubicHermiteSpline

from gkdv import PsiWeight


@lru_cache(maxsize=None)
def _table(p: int, sigma0: float):
    w = PsiWeight(p, sigma0)
    # tail decay rate of psi' is q*b = sqrt(sigma0)/2 for every p
    rate = w.q * w.b
    half_width = 40.0 / rate
    m = 1 << max(12, int(np.ceil(np.log2(2.0 * half_width / (0.01 / math.sqrt(sigma0))))))
    xs = -half_width + (2.0 * half_width / m) * np.arange(m)
    phi = w.psi(xs, 1)
    a0 = float(np.mean(phi))
    fh = np.fft.rfft(phi)
    kk = (2.0 * np.pi / (2.0 * half_width)) * np.arange(m // 2 + 1)
    H = np.zeros_like(fh)
    H[1:] = fh[1:] / (1j * kk[1:])
    if m % 2 == 0:
        H[-1] = 0.0
    G = np.fft.irfft(H, m)
    tail_left = float(w.psi(np.array([-half_width]), 1)[0]) / rate  # analytic e^{rate x} tail
    psi_ref = tail_left + a0 * (xs + half_width) + (G - G[0])
    return half_width, rate, tail_left, CubicHermiteSpline(xs, psi_ref, phi)


def psi_numeric(w: PsiWeight, x) -> np.ndarray:
    """psi(x) by cumulative quadrature of psi'."""
    half_width, rate, tail_left, spline = _table(w.p, w.sigma0)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    lo = x < -half_width
    hi = x >= half_width - 2.0 / rate  # stay clear of the periodized right edge
    mid = ~(lo | hi)
    out[lo] = tail_left * np.exp(rate * (x[lo] + half_width))
    out[hi] = 1.0 - w.psi(x[hi], 1) / rate  # right tail, same asymptotic
    out[mid] = spline(x[mid])
    return out
