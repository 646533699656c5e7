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

__all__ = ["periodized_gaussian_1d", "center_index", "heat_weights", "heat_average"]


def periodized_gaussian_1d(d: np.ndarray, tau: float, period: float) -> np.ndarray:
    """Sum over images of exp(-(d+nL)^2/(4 tau)) / sqrt(4 pi tau), or for
    4 tau > L^2 the same kernel as its Fourier series."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    d = np.asarray(d, dtype=float)
    d = d - period * np.round(d / period)    # nearest image first
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


def _kernel_rows(spec: LatticeSpec, tau: float) -> np.ndarray:
    """(N, N) matrix of the 1-d kernel at x_i - x_c, centre c by row."""
    x = np.arange(spec.points) * spec.spacing
    return periodized_gaussian_1d(x[None, :] - x[:, None], tau, spec.period)


def center_index(spec: LatticeSpec, center: tuple[int, ...]) -> tuple[int, ...]:
    """One grid index per active axis, wrapped into [0, N)."""
    if len(center) != spec.n_axes:
        raise ValueError("center must give one grid index per active axis")
    return tuple(int(c) % spec.points for c in center)


def heat_weights(spec: LatticeSpec, center: tuple[int, ...], tau: float) -> np.ndarray:
    """Grid of kernel values u(x) centered at a grid point, time-to-center tau."""
    center = center_index(spec, center)
    rows = _kernel_rows(spec, tau)
    out = np.ones(())
    for c in center:
        out = np.multiply.outer(out, rows[c])
    # inactive axes: kernel integrates to 1 per axis, contributing 1/L per
    # axis as a density on the full torus
    return out / spec.period ** (8 - spec.n_axes)


def heat_average(spec: LatticeSpec, values: np.ndarray, tau: float) -> np.ndarray:
    """Integral of `values` against u_(c, tau) at every grid centre c, by
    one circulant product per active axis (the kernel is translation-invariant)."""
    rows = _kernel_rows(spec, tau)
    for _ in range(spec.n_axes):
        # contract the leading grid axis, append its centre axis last
        values = np.tensordot(values, rows, axes=([0], [1]))
    return values * (spec.cell_volume / spec.period ** (8 - spec.n_axes))
