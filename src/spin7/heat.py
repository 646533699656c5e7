"""Periodized Gaussian heat kernels on the torus slice.

The backward-heat weight used by the localized torsion functionals is the
product over active axes of 1-d periodized Gaussians; inactive axes
integrate out exactly (the field is constant there and the kernel has unit
mass per axis).  The image sum truncates once the next image would change
the running sum by less than 1e-16 relatively.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeSpec

__all__ = ["periodized_gaussian_1d", "heat_weights"]


def periodized_gaussian_1d(d: np.ndarray, tau: float, period: float) -> np.ndarray:
    """Sum over images of exp(-(d+nL)^2/(4 tau)) / sqrt(4 pi tau)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    d = np.asarray(d, dtype=float)
    total = np.exp(-d * d / (4.0 * tau))
    n = 1
    while True:
        term = (np.exp(-((d + n * period) ** 2) / (4.0 * tau))
                + np.exp(-((d - n * period) ** 2) / (4.0 * tau)))
        total = total + term
        if float(term.max()) <= 1e-16 * float(total.max()):
            break
        n += 1
        if n > 10_000:
            raise RuntimeError("image sum failed to converge")
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
