"""Structured triangulations of axis-aligned rectangles.

Meshes are built once and never mutated; every downstream object (dof
layouts, assembled matrices) only reads from them, so sharing across
workers is safe.  A mesh keeps the scatter plan of its P1 node adjacency
(``Mesh.p1_plan``), built by one sort on first use; assembly derives the
plan of every other space on the mesh from it by index arithmetic.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linsolve import ScatterPlan

SIDE_TAGS = ("left", "right", "bottom", "top")

# absolute slack used when matching node coordinates against the domain
# boundary; node coordinates come from np.linspace so they are exact at
# the endpoints and this only guards against accumulated rounding
_BOUNDARY_TOL = 1e-14


class GeometryError(ValueError):
    """Raised for degenerate (zero-area / collinear) triangles."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of the rectangle [0, Lx] x [0, Ly].

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
        Vertex coordinates.
    triangles : (n_triangles, 3) int array
        Vertex indices per triangle, counterclockwise.
    h : float
        Mesh size: maximum triangle diameter (longest edge).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    h: float

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @functools.cached_property
    def p1_plan(self):
        """``ScatterPlan`` of the P1 element blocks, entries
        (triangles[e, i], triangles[e, j]) listed in (e, i, j) order: the one
        sorted pattern of the mesh, kept as long as the mesh lives."""
        full = (self.n_triangles, 3, 3)
        rows = np.broadcast_to(self.triangles[:, :, None], full)
        cols = np.broadcast_to(self.triangles[:, None, :], full)
        return ScatterPlan((self.n_nodes, self.n_nodes), rows, cols)

    @property
    def bounds(self):
        """((xmin, xmax), (ymin, ymax)) of the node set."""
        return (
            (self.nodes[:, 0].min(), self.nodes[:, 0].max()),
            (self.nodes[:, 1].min(), self.nodes[:, 1].max()),
        )


def is_integer(value, low):
    """Whether ``value`` is an integer >= ``low``, not a bool; numpy integers count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def build_rect_mesh(Lx, Ly, kx, ky):
    """Triangulate [0,Lx] x [0,Ly] with a uniform (kx x ky)-cell grid.

    Nodes are numbered row-major from the bottom row up; every cell is
    split along its lower-left to upper-right diagonal, so the mesh has
    (kx+1)(ky+1) nodes and 2*kx*ky triangles, all with the same
    orientation.

    Raises
    ------
    ValueError
        If a side length is not finite and positive, or a subdivision count
        is not an integer >= 1 (``is_integer``).
    """
    if not (0 < Lx < math.inf and 0 < Ly < math.inf):
        raise ValueError(f"side lengths must be finite and positive, got Lx={Lx}, Ly={Ly}")
    if not (is_integer(kx, 1) and is_integer(ky, 1)):
        raise ValueError(f"subdivision counts must be integers >= 1, got kx={kx!r}, ky={ky!r}")

    xs = np.linspace(0.0, Lx, kx + 1)
    ys = np.linspace(0.0, Ly, ky + 1)
    X, Y = np.meshgrid(xs, ys)  # row j = y level j
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # lower-left node a of each cell, row-major; its cell is (a, b, c) and (a, c, d)
    # with b = a + 1, c = a + kx + 2, d = a + kx + 1
    a = (np.arange(ky, dtype=np.int64)[:, None] * (kx + 1) + np.arange(kx)).ravel()
    triangles = np.column_stack([a, a + 1, a + kx + 2, a, a + kx + 2, a + kx + 1]).reshape(-1, 3)

    h = float(np.hypot(Lx / kx, Ly / ky))  # the diagonal is always the longest edge
    return Mesh(nodes=nodes, triangles=triangles, h=h)


def all_element_geometry(mesh):
    """Vectorized geometry of every triangle.

    Returns
    -------
    areas : (n_triangles,) array
    grads : (n_triangles, 3, 2) array
        Barycentric gradients per element.
    """
    verts = mesh.nodes[mesh.triangles]  # (ne, 3, 2)
    d1 = verts[:, 1] - verts[:, 0]
    d2 = verts[:, 2] - verts[:, 0]
    twice_area = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(twice_area <= 0.0):
        bad = int(np.argmin(twice_area))
        raise GeometryError(f"triangle {bad} has non-positive signed area")
    grads = np.empty((mesh.n_triangles, 3, 2))
    for i in range(3):
        a = verts[:, (i + 1) % 3]
        b = verts[:, (i + 2) % 3]
        grads[:, i, 0] = a[:, 1] - b[:, 1]
        grads[:, i, 1] = b[:, 0] - a[:, 0]
    grads /= twice_area[:, None, None]
    return 0.5 * twice_area, grads


def classify_boundary(mesh):
    """Partition the boundary nodes of a rectangle mesh by position.

    Returns
    -------
    corners : int array
        The four corner node indices.
    sides : dict
        Tag -> node indices strictly inside that side (corners excluded).
    boundary : int array
        All boundary nodes (sorted).
    """
    (xmin, xmax), (ymin, ymax) = mesh.bounds
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    scale = max(xmax - xmin, ymax - ymin)
    tol = _BOUNDARY_TOL * max(scale, 1.0)
    on = {
        "left": np.abs(x - xmin) <= tol,
        "right": np.abs(x - xmax) <= tol,
        "bottom": np.abs(y - ymin) <= tol,
        "top": np.abs(y - ymax) <= tol,
    }
    on_x = on["left"] | on["right"]
    on_y = on["bottom"] | on["top"]
    corners = np.flatnonzero(on_x & on_y)
    sides = {tag: np.flatnonzero(on[tag] & ~(on_x & on_y)) for tag in SIDE_TAGS}
    boundary = np.flatnonzero(on_x | on_y)
    return corners, sides, boundary
