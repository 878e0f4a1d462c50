"""Element-by-element geometry, basis evaluation and quadrature, one point at a time.

The tests check the vectorized kernels of the package against these
scalar versions, which share no code path with them beyond the reference
basis tables of ``chemflow.spaces``.
"""

from dataclasses import dataclass

import numpy as np

from chemflow.mesh import GeometryError
from chemflow.spaces import scalar_basis_gradient_table, scalar_basis_values


@dataclass(frozen=True)
class ElementGeometry:
    """Affine geometry of one triangle.

    ``grad_bary[i]`` is the (constant) physical gradient of the i-th
    barycentric coordinate; the three gradients sum to zero.
    """

    vertices: np.ndarray  # (3, 2)
    area: float
    grad_bary: np.ndarray  # (3, 2)


def element_geometry(mesh, elem):
    """Area and barycentric-coordinate gradients of one triangle.

    Raises
    ------
    GeometryError
        If the triangle is degenerate (collinear vertices).
    """
    verts = mesh.nodes[mesh.triangles[elem]]
    v0, v1, v2 = verts
    d1 = v1 - v0
    d2 = v2 - v0
    twice_area = d1[0] * d2[1] - d1[1] * d2[0]
    if twice_area <= 0.0:
        raise GeometryError(f"triangle {elem} has non-positive signed area {0.5 * twice_area}")
    # grad(lambda_i) = rot90(edge opposite to vertex i) / (2A)
    grads = np.empty((3, 2))
    for i in range(3):
        a = verts[(i + 1) % 3]
        b = verts[(i + 2) % 3]
        grads[i] = (a[1] - b[1], b[0] - a[0])
    grads /= twice_area
    return ElementGeometry(vertices=verts, area=0.5 * twice_area, grad_bary=grads)


@dataclass(frozen=True)
class BasisValue:
    value: float
    gradient: np.ndarray


def eval_basis(kind, geom, bary):
    """Scalar sub-basis values and physical gradients at one point.

    Returns a list of BasisValue, one per local scalar basis function
    (3 for P1 kinds, 4 for MINI with the bubble last).  Vector spaces use
    the same scalar sub-basis for each component.
    """
    bary = np.asarray(bary, dtype=float)
    vals = scalar_basis_values(kind, bary[None, :])[0]
    grads = scalar_basis_gradient_table(kind, bary[None, :])[0] @ geom.grad_bary
    return [BasisValue(value=float(v), gradient=g.copy()) for v, g in zip(vals, grads)]


def integrate(rule, geom, f):
    """Approximate the integral of ``f(x, y)`` over one element by ``rule``."""
    vals = np.array([f(x, y) for x, y in rule.points @ geom.vertices], dtype=float)
    return geom.area * float(rule.weights @ vals)
