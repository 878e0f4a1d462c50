"""Degree-of-freedom layouts and basis evaluation for the discrete spaces.

Four space kinds cover the five unknowns:

* ``scalar_p1`` -- continuous P1, used for the cell-density deviation
  (with a zero-mean constraint) and for the chemical concentration.
* ``vector_p1_sigma`` -- continuous P1 vectors with the normal component
  pinned to zero on the boundary of the rectangle (componentwise on the
  sides, both components at the corners).
* ``velocity_mini`` -- P1 enriched with one cubic bubble per triangle and
  per component, homogeneous Dirichlet on the whole boundary.
* ``pressure_p1`` -- continuous P1 with a zero-mean constraint.

Vector dofs are stored component-major: all x dofs first, then all y
dofs.  MINI dofs order the nodal values before the bubbles within each
component, so dof ``comp * (n_nodes + n_tri) + n_nodes + e`` is the
bubble of element ``e``.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import classify_boundary

SCALAR_P1 = "scalar_p1"
VECTOR_P1_SIGMA = "vector_p1_sigma"
VELOCITY_MINI = "velocity_mini"
PRESSURE_P1 = "pressure_p1"

SPACE_KINDS = (SCALAR_P1, VECTOR_P1_SIGMA, VELOCITY_MINI, PRESSURE_P1)

BUBBLE_SCALE = 27.0  # normalizes the bubble to value 1 at the barycenter


@dataclass(frozen=True)
class DofLayout:
    """Global dof bookkeeping for one discrete space on one mesh.

    ``element_dofs[e, i]`` is the global dof of local basis function i on
    element e (local order: per component, nodes then bubble).
    ``constrained_dofs`` are prescribed the value 0.  ``mean_constraint``
    marks spaces restricted to zero mean: the density system realizes it
    by one bordered Lagrange-multiplier row/column, the velocity/pressure
    solve by pinning one pressure dof and shifting the mean afterwards.
    ``plans`` caches the scatter plans assembly derives on the layout from
    its mesh's P1 plan (one component's, square per component, and
    against the pressure) and the MINI slots of a P1 layout's, so they
    are derived once and live as long as the layout does.
    """

    kind: str
    mesh: object
    n_dofs: int
    components: int
    n_scalar: int  # dofs per component
    element_dofs: np.ndarray
    constrained_dofs: np.ndarray
    mean_constraint: bool
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def local_size(self):
        return self.element_dofs.shape[1]

    @property
    def scalar_local_size(self):
        return self.local_size // self.components

    @property
    def has_bubble(self):
        return self.kind == VELOCITY_MINI

    def nodal_and_bubble_dofs(self):
        """Global dofs of the nodal values and of the bubbles, both sorted.

        The bubble set is empty for spaces without bubbles.
        """
        offsets = self.n_scalar * np.arange(self.components)[:, None]
        nodal = (offsets + np.arange(self.mesh.n_nodes)).ravel()
        bubble = (offsets + np.arange(self.mesh.n_nodes, self.n_scalar)).ravel()
        return nodal, bubble

    def vertex_values(self, x):
        """Values of the coefficient vector ``x`` at the mesh vertices, bubbles
        dropped: shape (n_nodes,) for a scalar space, else (n_nodes, components)."""
        nodal = np.reshape(x, (self.components, self.n_scalar))[:, : self.mesh.n_nodes]
        return nodal[0] if self.components == 1 else nodal.T

    def from_vertex_values(self, values):
        """The coefficient vector whose vertex values are ``values`` (shaped as
        ``vertex_values`` returns them), 0 at the bubbles and the pinned dofs."""
        x = np.zeros((self.components, self.n_scalar))
        x[:, : self.mesh.n_nodes] = np.asarray(values).T
        x = x.ravel()
        x[self.constrained_dofs] = 0.0
        return x


def build_layout(mesh, kind, zero_mean=False):
    """Build the dof layout of one space kind on a mesh.

    ``zero_mean`` applies to ``scalar_p1`` only (the cell-density space);
    ``pressure_p1`` always carries the mean constraint.
    """
    if kind not in SPACE_KINDS:
        raise ValueError(f"unknown space kind {kind!r}")
    nn, ne = mesh.n_nodes, mesh.n_triangles
    tri = mesh.triangles

    if kind in (SCALAR_P1, PRESSURE_P1):
        return DofLayout(
            kind=kind,
            mesh=mesh,
            n_dofs=nn,
            components=1,
            n_scalar=nn,
            element_dofs=tri.copy(),
            constrained_dofs=np.empty(0, dtype=np.int64),
            mean_constraint=bool(zero_mean) or kind == PRESSURE_P1,
        )

    corners, sides, boundary = classify_boundary(mesh)

    if kind == VECTOR_P1_SIGMA:
        elem = np.hstack([tri, nn + tri])
        x_pinned = np.concatenate([sides["left"], sides["right"], corners])
        y_pinned = np.concatenate([sides["bottom"], sides["top"], corners])
        constrained = np.unique(np.concatenate([x_pinned, nn + y_pinned]))
        return DofLayout(
            kind=kind,
            mesh=mesh,
            n_dofs=2 * nn,
            components=2,
            n_scalar=nn,
            element_dofs=elem,
            constrained_dofs=constrained,
            mean_constraint=False,
        )

    # velocity_mini: per component, node dofs then one bubble per element
    ns = nn + ne
    bub = nn + np.arange(ne)[:, None]
    elem = np.hstack([tri, bub, ns + tri, ns + bub])
    constrained = np.unique(np.concatenate([boundary, ns + boundary]))
    return DofLayout(
        kind=VELOCITY_MINI,
        mesh=mesh,
        n_dofs=2 * ns,
        components=2,
        n_scalar=ns,
        element_dofs=elem,
        constrained_dofs=constrained,
        mean_constraint=False,
    )


def scalar_basis_values(kind, bary):
    """Values of the scalar sub-basis at barycentric points.

    ``bary`` has shape (..., 3); the result has shape (..., nl) with
    nl = 3 for P1 kinds and 4 for MINI (bubble last).
    """
    bary = np.asarray(bary, dtype=float)
    if kind == VELOCITY_MINI:
        bubble = BUBBLE_SCALE * bary[..., 0] * bary[..., 1] * bary[..., 2]
        return np.concatenate([bary, bubble[..., None]], axis=-1)
    return bary


def scalar_basis_gradient_table(kind, bary):
    """Gradients of the scalar sub-basis in terms of the barycentric ones.

    Every basis gradient is a combination of the three barycentric
    gradients of its element, ``grad phi_i = sum_a T[..., i, a] grad
    lambda_a``, with coefficients that do not depend on the element.

    Parameters
    ----------
    bary : (nq, 3) barycentric evaluation points.

    Returns
    -------
    T : (nq, nl, 3) array.  The P1 rows are the identity at every point;
    the bubble row varies with the point.
    """
    bary = np.asarray(bary, dtype=float)
    nq = bary.shape[0]
    p1 = np.broadcast_to(np.eye(3), (nq, 3, 3))
    if kind != VELOCITY_MINI:
        return p1.copy()
    l1, l2, l3 = bary[:, 0], bary[:, 1], bary[:, 2]
    bub = BUBBLE_SCALE * np.stack([l2 * l3, l1 * l3, l1 * l2], axis=-1)
    return np.concatenate([p1, bub[:, None, :]], axis=1)
