"""Periodized Gaussian heat kernels on the torus slice.

The backward-heat weight used by the localized torsion functionals is the
product over active axes of 1-d periodized Gaussians; inactive axes
integrate out exactly (the field is constant there and the kernel has unit
mass per axis).  Two series evaluate the 1-d kernel.  For 4 tau <= L^2 the
image sum truncates once the next image would change the running sum by
less than 1e-16 relatively.  For wider kernels its Poisson dual, the
Fourier series (1/L) (1 + 2 sum_k exp(-4 pi^2 k^2 tau / L^2) cos(2 pi k d / L)),
truncates once a mode's weight falls below 1e-17; there the k = 2 weight
is already below exp(-4 pi^2) = 7.2e-18.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeSpec

__all__ = ["periodized_gaussian_1d", "heat_weights"]


def periodized_gaussian_1d(d: np.ndarray, tau: float, period: float) -> np.ndarray:
    """Sum over images of exp(-(d+nL)^2/(4 tau)) / sqrt(4 pi tau), or for
    4 tau > L^2 the same kernel as its Fourier series."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    d = np.asarray(d, dtype=float)
    if 4.0 * tau > period**2:
        rate = 4.0 * np.pi**2 * tau / period**2
        total = np.ones_like(d)
        k = 1
        while (weight := np.exp(-rate * k * k)) >= 1e-17:
            total += 2.0 * weight * np.cos(2.0 * np.pi * k * d / period)
            k += 1
        return total / period
    total = np.exp(-d * d / (4.0 * tau))
    n = 1
    while True:
        term = (np.exp(-((d + n * period) ** 2) / (4.0 * tau))
                + np.exp(-((d - n * period) ** 2) / (4.0 * tau)))
        total = total + term
        if not float(term.max()) > 1e-16 * float(total.max()):    # NaN ends it too
            break
        n += 1
    return total / np.sqrt(4.0 * np.pi * tau)


def heat_weights(spec: LatticeSpec, center: tuple[int, ...], tau: float) -> np.ndarray:
    """Grid of kernel values u(x) centered at a grid point, time-to-center tau."""
    if len(center) != spec.n_axes:
        raise ValueError("center must give one grid index per active axis")
    out = np.ones(spec.grid_shape)
    x = np.arange(spec.points) * spec.spacing
    for axis, c in enumerate(center):
        w = periodized_gaussian_1d(x - x[int(c) % spec.points], tau, spec.period)
        shape = [1] * spec.n_axes
        shape[axis] = spec.points
        out = out * w.reshape(shape)
    # inactive axes: kernel integrates to 1 per axis, contributing 1/L per
    # axis as a density on the full torus
    out = out / spec.period ** (8 - spec.n_axes)
    return out
