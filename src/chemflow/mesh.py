"""Structured triangulations of axis-aligned rectangles.

Meshes are built once and never mutated; every downstream object (dof
layouts, assembled matrices) only reads from them, so sharing across
workers is safe.
"""

from dataclasses import dataclass

import numpy as np

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
    boundary_edges : list of (int, int, str)
        Boundary edges as (node, node, side tag), tag in SIDE_TAGS.
    h : float
        Mesh size: maximum triangle diameter (longest edge).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: list
    h: float

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def bounds(self):
        """((xmin, xmax), (ymin, ymax)) of the node set."""
        return (
            (self.nodes[:, 0].min(), self.nodes[:, 0].max()),
            (self.nodes[:, 1].min(), self.nodes[:, 1].max()),
        )


def build_rect_mesh(Lx, Ly, kx, ky):
    """Triangulate [0,Lx] x [0,Ly] with a uniform (kx x ky)-cell grid.

    Nodes are numbered row-major from the bottom row up; every cell is
    split along its lower-left to upper-right diagonal, so the mesh has
    (kx+1)(ky+1) nodes and 2*kx*ky triangles, all with the same
    orientation.

    Raises
    ------
    ValueError
        If a side length is not positive or a subdivision count is < 1.
    """
    if not (Lx > 0 and Ly > 0):
        raise ValueError(f"side lengths must be positive, got Lx={Lx}, Ly={Ly}")
    if kx < 1 or ky < 1:
        raise ValueError(f"subdivision counts must be >= 1, got kx={kx}, ky={ky}")

    xs = np.linspace(0.0, Lx, kx + 1)
    ys = np.linspace(0.0, Ly, ky + 1)
    X, Y = np.meshgrid(xs, ys)  # row j = y level j
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return j * (kx + 1) + i

    triangles = np.empty((2 * kx * ky, 3), dtype=np.int64)
    t = 0
    for j in range(ky):
        for i in range(kx):
            a = nid(i, j)
            b = nid(i + 1, j)
            c = nid(i + 1, j + 1)
            d = nid(i, j + 1)
            triangles[t] = (a, b, c)
            triangles[t + 1] = (a, c, d)
            t += 2

    boundary_edges = []
    for i in range(kx):
        boundary_edges.append((nid(i, 0), nid(i + 1, 0), "bottom"))
        boundary_edges.append((nid(i, ky), nid(i + 1, ky), "top"))
    for j in range(ky):
        boundary_edges.append((nid(0, j), nid(0, j + 1), "left"))
        boundary_edges.append((nid(kx, j), nid(kx, j + 1), "right"))

    hx, hy = Lx / kx, Ly / ky
    h = float(np.hypot(hx, hy))  # the diagonal is always the longest edge
    return Mesh(nodes=nodes, triangles=triangles, boundary_edges=boundary_edges, h=h)


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
