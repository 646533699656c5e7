"""Periodic finite differences for 4-form fields on a flat torus slice.

A lattice discretizes a subset of the eight torus directions (the active
axes); fields are constant along the rest.  Grid arrays carry one leading
axis per active axis, then the tensor axes, e.g. a 4-form field is
(N, ..., N, 70) canonical, the storage every function here takes.  An axis
indexed by lattice direction (a derivative, the torsion's m-slot) holds the
active axes only, in `active_axes` order; the rest are zero, not stored.

Torsion and the curvature-identity residuals follow the coordinate
expressions valid on the flat torus, where the connection is plain
coordinate differentiation and the metric is the identity.  A parabolic
rescaling by c is the same form on the torus of period c * L, so no metric
factor threads through the contractions.

Derivative stencils are central, order 2 or 4, with periodic wrap; grid
reductions go through numpy's pairwise summation, which is deterministic
for a fixed shape.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

# unpack4 is unused here but stays bound: the benchmark tracer's own test
# (perfbench/test_spantrace.py) wraps and restores `lattice.unpack4`
from .algebra import _contract3, pi21, unpack4  # noqa: F401

__all__ = [
    "as_number",
    "as_object",
    "LatticeSpec",
    "fd_gradient_generic",
    "fd_gradient_embedded",
    "fd_laplacian",
    "torsion",
    "div_torsion",
    "energy",
    "max_torsion",
    "torsion_norm_sq",
    "omega21_defect",
    "bianchi_residual",
    "ricci_residual",
    "scalar_residual",
    "integrate",
    "grid_coordinates",
]


def as_number(kind: type, value, what: str):
    """A config or header number as `kind` (int or float): ValueError for a
    bool, a string, a number that is not finite as a float (NaN, +-Infinity,
    an integer past the float range) and, for int, a fraction, which int()
    would truncate."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real) or kind is int
            and not isinstance(value, numbers.Integral) and not float(value).is_integer()):
        raise ValueError(f"{what}: expected {kind.__name__}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValueError(f"{what}: the integer {value!r:.20}... is past the float range") from None
    if not finite:
        raise ValueError(f"{what}: expected a finite {kind.__name__}, got {value!r}")
    return kind(value)


def as_object(value, what: str, keys=None, required=()) -> dict:
    """A config or header JSON object: ValueError for a value that is not an
    object, a key outside `keys` (when given) or a missing `required` key."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = [k for k in value if keys is not None and k not in keys]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {what}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ValueError(f"missing required key {missing[0]!r} in {what}")
    return value


@dataclass(frozen=True)
class LatticeSpec:
    """Grid over a subset of the eight torus axes.

    active_axes are 0-based axis indices (ascending); fields depend only on
    these.  All eight axes share the period, so the total torus volume is
    period**8 regardless of how many axes are discretized.
    """

    active_axes: tuple[int, ...]
    points: int
    period: float = 1.0
    stencil_order: int = 2

    def __post_init__(self):
        axes = tuple(as_number(int, a, "active axis") for a in self.active_axes)
        object.__setattr__(self, "active_axes", axes)
        for name, kind in (("points", int), ("period", float), ("stencil_order", int)):
            object.__setattr__(self, name, as_number(kind, getattr(self, name), name))
        if not axes or any(a < 0 or a > 7 for a in axes) or list(axes) != sorted(set(axes)):
            raise ValueError(f"active_axes must be ascending distinct axes in 0..7, got {axes}")
        if self.stencil_order not in (2, 4):
            raise ValueError(f"stencil_order must be 2 or 4, got {self.stencil_order}")
        if self.points < 2 * self.stencil_order:
            raise ValueError(
                f"points={self.points} too small for stencil order {self.stencil_order}")
        if not self.period > 0:
            raise ValueError("period must be positive")
        try:
            volume = self.cell_volume
        except OverflowError:           # float ** int raises where it overflows
            volume = math.inf
        if not 0.0 < volume < math.inf:     # a float power underflows to 0 silently
            raise ValueError(f"period {self.period:g} puts the cell volume "
                             f"{self.spacing:g}^{self.n_axes} * {self.period:g}^"
                             f"{8 - self.n_axes} outside the float range")

    @property
    def n_axes(self) -> int:
        return len(self.active_axes)

    @property
    def spacing(self) -> float:
        return self.period / self.points

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return (self.points,) * self.n_axes

    @property
    def n_points(self) -> int:
        return self.points ** self.n_axes

    @property
    def cell_volume(self) -> float:
        """Coordinate volume per grid cell, inactive periods included."""
        return self.spacing ** self.n_axes * self.period ** (8 - self.n_axes)

    def to_dict(self) -> dict:
        return {
            "active_axes": [a + 1 for a in self.active_axes],
            "points": self.points,
            "period": self.period,
            "stencil_order": self.stencil_order,
        }

    @classmethod
    def from_dict(cls, value) -> "LatticeSpec":
        """The spec of a config or checkpoint-header lattice (1-based axes); ValueError
        for a value that is not an object, a missing or unknown key or a bad field."""
        d = as_object(value, "lattice", {f.name for f in fields(cls)},
                      ("active_axes", "points", "period"))
        axes = d["active_axes"]
        if not isinstance(axes, list):
            raise ValueError(f"active_axes must be a list of axes, got {axes!r}")
        # read by the number rule before the shift, or True would pass as axis 0
        return cls(**dict(d, active_axes=tuple(as_number(int, a, "active axis") - 1
                                               for a in axes)))


def grid_coordinates(spec: LatticeSpec) -> list[np.ndarray]:
    """Coordinate arrays (one per active axis) broadcast to the grid shape."""
    x = np.arange(spec.points) * spec.spacing
    return list(np.meshgrid(*([x] * spec.n_axes), indexing="ij"))


def _d1(values: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    if order == 2:
        return (np.roll(values, -1, axis) - np.roll(values, 1, axis)) / (2.0 * h)
    return (-np.roll(values, -2, axis) + 8.0 * np.roll(values, -1, axis)
            - 8.0 * np.roll(values, 1, axis) + np.roll(values, 2, axis)) / (12.0 * h)


def _d2(values: np.ndarray, axis: int, h: float, order: int) -> np.ndarray:
    if order == 2:
        return (np.roll(values, -1, axis) - 2.0 * values + np.roll(values, 1, axis)) / h**2
    return (-np.roll(values, -2, axis) + 16.0 * np.roll(values, -1, axis) - 30.0 * values
            + 16.0 * np.roll(values, 1, axis) - np.roll(values, 2, axis)) / (12.0 * h**2)


def fd_gradient_generic(spec: LatticeSpec, values: np.ndarray) -> np.ndarray:
    """Stack of active-axis derivatives, new axis after the grid axes.

    Output shape: grid_shape + (n_axes,) + tensor_shape.  Inactive-axis
    derivatives are identically zero and are not stored.
    """
    k = spec.n_axes
    out = np.stack([_d1(values, ax, spec.spacing, spec.stencil_order) for ax in range(k)],
                   axis=k)
    return out


def fd_laplacian(spec: LatticeSpec, values: np.ndarray) -> np.ndarray:
    """Sum of active-axis second derivatives (flat Laplacian)."""
    out = _d2(values, 0, spec.spacing, spec.stencil_order)
    for ax in range(1, spec.n_axes):
        out = out + _d2(values, ax, spec.spacing, spec.stencil_order)
    return out


def _embed_m_axis(spec: LatticeSpec, compact: np.ndarray, position: int) -> np.ndarray:
    """Scatter an (..., n_axes, ...) array into (..., 8, ...) with zeros."""
    out = np.zeros(compact.shape[:position] + (8,) + compact.shape[position + 1:],
                   dtype=compact.dtype)
    np.moveaxis(out, position, 0)[list(spec.active_axes)] = np.moveaxis(compact, position, 0)
    return out


def fd_gradient_embedded(spec: LatticeSpec, values: np.ndarray) -> np.ndarray:
    """`fd_gradient_generic` with the derivative axis embedded to size 8
    (zeros on inactive axes); shape grid_shape + (8,) + tensor_shape."""
    return _embed_m_axis(spec, fd_gradient_generic(spec, values), spec.n_axes)


def torsion(spec: LatticeSpec, phi_canon: np.ndarray) -> np.ndarray:
    """Torsion field T[..., i, a, b], skew in (a, b): slice i is T_m on the
    active axis m = spec.active_axes[i]; T_m = 0 off them is not stored.

    T_m = (1/96) triple_contract(d_m phi, phi).  The full contraction is 6
    times the sum over ascending triples, one product of slot matrices
    S(d_m phi) S(phi)^T per point and axis (`algebra._contract3`).
    """
    # 0.5 * 6 / 96 = 1/32, a power of two; triple_contract / 96 would round twice
    return _contract3(fd_gradient_generic(spec, phi_canon), phi_canon[..., None, :]) / 32.0


def div_torsion(spec: LatticeSpec, t_field: np.ndarray) -> np.ndarray:
    """Divergence over the m-slot, (Div T)_ab = d_m T_m;ab, unprojected.

    The flow's update generator is its pointwise pi7 part (`flow.evaluate`).
    """
    h, order = spec.spacing, spec.stencil_order
    out = _d1(t_field[..., 0, :, :], 0, h, order)
    for i in range(1, spec.n_axes):
        out = out + _d1(t_field[..., i, :, :], i, h, order)
    return out


def torsion_norm_sq(t_field: np.ndarray) -> np.ndarray:
    """Pointwise |T|^2, the full contraction over all three slots."""
    return np.einsum("...mab,...mab->...", t_field, t_field)


def energy(spec: LatticeSpec, t_field: np.ndarray) -> float:
    """Half the integral of |T|^2 over the full torus (Riemann sum)."""
    return 0.5 * float(np.sum(torsion_norm_sq(t_field))) * spec.cell_volume


def max_torsion(spec: LatticeSpec, t_field: np.ndarray) -> float:
    """Sup over the grid of the pointwise torsion norm."""
    return float(np.sqrt(np.max(torsion_norm_sq(t_field))))


def integrate(spec: LatticeSpec, pointwise: np.ndarray) -> float:
    """Riemann sum of a pointwise scalar over the torus."""
    return float(np.sum(pointwise)) * spec.cell_volume


def omega21_defect(spec: LatticeSpec, t_field: np.ndarray, phi_canon: np.ndarray) -> float:
    """Max over grid and m of the Frobenius norm of pi21(T_m)."""
    defect = pi21(np.moveaxis(t_field, -3, 0), phi_canon[None])
    return float(np.sqrt(np.max(np.sum(defect * defect, axis=(-1, -2)))))


def bianchi_residual(spec: LatticeSpec, t_field: np.ndarray) -> float:
    """Flat-torus residual of the first-order torsion identity.

    res_{ij;ab} = d_i T_{j;ab} - d_j T_{i;ab} - 2 T_{i;am} T_{j;mb}
                  + 2 T_{j;am} T_{i;mb};
    the curvature terms of the closed identity vanish on the flat torus, so
    this is O(h^p) on smooth admissible fields.  Returns the max norm.
    res_ij is zero when i or j is inactive, so only active pairs are formed.
    """
    gt = fd_gradient_generic(spec, t_field)                         # [i, j] = d_i T_j
    quad = np.matmul(t_field[..., :, None, :, :], t_field[..., None, :, :, :])  # [i, j] = T_i T_j
    res = gt - np.swapaxes(gt, -4, -3) - 2.0 * quad + 2.0 * np.swapaxes(quad, -4, -3)
    return float(np.abs(res).max())


def ricci_residual(spec: LatticeSpec, t_field: np.ndarray,
                   return_field: bool = False):
    """Flat-torus residual of the Ricci-curvature expression in T and dT.

    res_ij = 4 d_i T_{a;ja} - 4 d_a T_{i;ja} - 8 T_{i;jb} T_{a;ba}
             + 8 T_{a;jb} T_{i;ba};  O(h^p) on smooth admissible fields.
    Rows i on inactive axes are zero, and a runs over the active axes only.
    """
    cols = np.take(t_field, spec.active_axes, axis=-1)    # [i, j, a] = T_{i;ja}
    gc = fd_gradient_generic(spec, cols)                 # [d, i, j, a] = d_d T_{i;ja}
    res = (4.0 * np.einsum("...iaja->...ij", gc)
           - 4.0 * np.einsum("...aija->...ij", gc)
           - 8.0 * np.einsum("...ijb,...aba->...ij", t_field, cols)
           + 8.0 * np.einsum("...ajb,...iba->...ij", t_field, cols))
    res = _embed_m_axis(spec, res, res.ndim - 2)
    if return_field:
        return res
    return float(np.abs(res).max())


def scalar_residual(spec: LatticeSpec, t_field: np.ndarray) -> float:
    """Flat-torus scalar-curvature residual: the trace of `ricci_residual`.

    Equals 4 d_i T_{a;ia} - 4 d_a T_{i;ia} + 8 |v|^2 + 8 T_{a;jb} T_{j;ba}
    with v_b = T_{i;ib}.  Note the |v|^2: the commonly quoted variant with
    |T|^2 in its place is *not* the trace of the Ricci expression and does
    not vanish on flat-torus data (tests/test_lattice.py keeps it for
    comparison as `scalar_residual_printed`).
    """
    res = np.einsum("...ii->...", ricci_residual(spec, t_field, return_field=True))
    return float(np.abs(res).max())
