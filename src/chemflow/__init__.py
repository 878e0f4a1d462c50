"""Finite element solver for a 2-D chemotaxis-Navier-Stokes system.

Mixed P1 / P1-bubble discretization with a gradient-flux splitting of the
chemical signal, skew-symmetrized transport, and first-order semi-coupled
time stepping, plus a manufactured-solution harness that measures the
spatial convergence orders of the scheme.
"""

from .mesh import Mesh, build_rect_mesh, classify_boundary
from .quadrature import TriangleRule, triangle_rule
from .scheme import InitialData, ModelParams, State, StepForcing, Stepper, TimeGrid
from .spaces import DofLayout, build_layout

__version__ = "0.1.0"

__all__ = [
    "Mesh",
    "build_rect_mesh",
    "classify_boundary",
    "TriangleRule",
    "triangle_rule",
    "DofLayout",
    "build_layout",
    "ModelParams",
    "TimeGrid",
    "StepForcing",
    "State",
    "InitialData",
    "Stepper",
    "__version__",
]
