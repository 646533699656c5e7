"""Numerical laboratory for Cayley 4-form geometry on the flat 8-torus.

Subpackages:
  octonion  division-algebra arithmetic and the product table
  algebra   pointwise 4-form linear algebra (projections, diamond, metric)
  orbit     rotation orbit, matrix exponential, spinor parametrization
  lattice   periodic finite differences, torsion, identity residuals
  flow      the torsion gradient flow, diagnostics, localized functionals
  heat      periodized Gaussian kernels
  storage   checkpoints, manifests, CSV series
  verify    the exact-identity suite behind `spin7 verify`
"""

__version__ = "0.1.0"

from . import algebra, flow, heat, lattice, octonion, orbit, storage, verify  # noqa: F401
from .algebra import metric_from_form  # noqa: F401
from .flow import FlowConfig, FlowState, initial_data, run_flow  # noqa: F401
from .lattice import LatticeSpec  # noqa: F401
