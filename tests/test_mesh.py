import numpy as np
import pytest

from chemflow.mesh import (
    GeometryError,
    all_element_geometry,
    build_rect_mesh,
    classify_boundary,
)
from oracles import rect_triangles_by_loop


class TestBuildRectMesh:
    def test_smallest_mesh(self):
        m = build_rect_mesh(1, 1, 1, 1)
        assert m.n_nodes == 4
        assert m.n_triangles == 2
        areas, _ = all_element_geometry(m)
        assert areas.sum() == pytest.approx(1.0, abs=1e-15)

    def test_counting_formulas(self):
        m = build_rect_mesh(1, 1, 10, 10)
        assert m.n_nodes == 121
        assert m.n_triangles == 200
        assert m.h == pytest.approx(np.sqrt(2) / 10, rel=1e-14)

    def test_plume_resolution(self):
        m = build_rect_mesh(2, 1, 80, 40)
        assert m.n_nodes == 3321
        assert m.n_triangles == 6400

    @pytest.mark.parametrize("bad", [
        (0, 1, 1, 1), (1, -2.0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0),
        (np.inf, 1, 2, 2), (1, np.nan, 2, 2), (-np.inf, 1, 2, 2),  # non-finite sides
        (1, 1, True, 2), (1, 1, 2, np.True_),  # a bool is not a count
        (1, 1, 2.0, 2), (1, 1, 2, np.float64(3.0)), (1, 1, "2", 2),  # nor a float or a string
    ])
    def test_invalid_arguments(self, bad):
        with pytest.raises(ValueError):
            build_rect_mesh(*bad)

    def test_numpy_integer_counts(self):
        m = build_rect_mesh(np.float64(2.0), 1, np.int64(4), np.int32(3))
        assert (m.n_nodes, m.n_triangles) == (20, 24)

    @pytest.mark.parametrize("kx,ky", [(1, 1), (1, 5), (6, 1), (3, 7), (80, 40)])
    def test_triangles_match_the_loop_over_cells(self, kx, ky):
        ref = rect_triangles_by_loop(kx, ky)
        got = build_rect_mesh(2.0, 1.0, kx, ky).triangles
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("kx,ky", [(1, 1), (3, 7), (10, 10), (100, 100), (33, 100)])
    def test_total_area(self, kx, ky):
        Lx, Ly = 2.0, 1.0
        m = build_rect_mesh(Lx, Ly, kx, ky)
        areas, _ = all_element_geometry(m)
        assert areas.sum() == pytest.approx(Lx * Ly, rel=1e-12)

    def test_positive_orientation(self):
        m = build_rect_mesh(3, 2, 5, 4)
        areas, _ = all_element_geometry(m)
        assert np.all(areas > 0)

    def test_edge_sharing(self):
        # an interior edge is shared by two triangles; the edges used once
        # are the boundary: 2 (kx + ky) of them, each along a side
        Lx, Ly, kx, ky = 1.5, 1.0, 4, 3
        m = build_rect_mesh(Lx, Ly, kx, ky)
        counts = {}
        for tri in m.triangles:
            for i in range(3):
                edge = tuple(sorted((tri[i], tri[(i + 1) % 3])))
                counts[edge] = counts.get(edge, 0) + 1
        assert set(counts.values()) == {1, 2}
        boundary = [edge for edge, cnt in counts.items() if cnt == 1]
        assert len(boundary) == 2 * (kx + ky)
        on_boundary = set(classify_boundary(m)[2])
        for a, b in boundary:
            assert a in on_boundary and b in on_boundary
            (xa, ya), (xb, yb) = m.nodes[a], m.nodes[b]
            assert (xa == xb and xa in (0.0, Lx)) or (ya == yb and ya in (0.0, Ly))

    def test_h_is_max_edge_length(self):
        m = build_rect_mesh(2, 1, 8, 3)
        longest = 0.0
        for tri in m.triangles:
            for i in range(3):
                d = m.nodes[tri[i]] - m.nodes[tri[(i + 1) % 3]]
                longest = max(longest, float(np.hypot(*d)))
        assert m.h == pytest.approx(longest, rel=1e-14)

    def test_quasi_uniform(self):
        Lx, Ly, kx, ky = 2.0, 1.0, 8, 3
        m = build_rect_mesh(Lx, Ly, kx, ky)
        diams = []
        for tri in m.triangles:
            edges = [np.hypot(*(m.nodes[tri[i]] - m.nodes[tri[(i + 1) % 3]])) for i in range(3)]
            diams.append(max(edges))
        ratio = max(diams) / min(diams)
        hx, hy = Lx / kx, Ly / ky
        assert ratio <= np.sqrt(2) * max(hx, hy) / min(hx, hy) + 1e-12


class TestElementGeometry:
    def test_reference_triangle(self):
        m = build_rect_mesh(1, 1, 1, 1)
        # second triangle is (0,0),(1,1),(0,1); first is (0,0),(1,0),(1,1)
        areas, grads = all_element_geometry(m)
        assert areas[0] == pytest.approx(0.5, abs=1e-15)
        assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-14)

    def test_unit_right_triangle_gradients(self):
        from chemflow.mesh import Mesh

        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        m = Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]), h=np.sqrt(2))
        areas, grads = all_element_geometry(m)
        assert areas[0] == pytest.approx(0.5)
        assert np.allclose(grads[0, 0], [-1.0, -1.0], atol=1e-15)
        assert np.allclose(grads[0, 1], [1.0, 0.0], atol=1e-15)
        assert np.allclose(grads[0, 2], [0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("h", [0.5, 0.1, 2.0])
    def test_scaled_triangle_area(self, h):
        from chemflow.mesh import Mesh

        nodes = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])
        m = Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]), h=h * np.sqrt(2))
        assert all_element_geometry(m)[0][0] == pytest.approx(h * h / 2, rel=1e-14)

    def test_collinear_nodes_raise(self):
        from chemflow.mesh import Mesh

        nodes = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        m = Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]), h=1.0)
        with pytest.raises(GeometryError):
            all_element_geometry(m)


class TestClassifyBoundary:
    def test_unit_cell(self):
        corners, sides, boundary = classify_boundary(build_rect_mesh(1, 1, 1, 1))
        assert len(corners) == 4
        assert all(len(v) == 0 for v in sides.values())
        assert len(boundary) == 4

    def test_two_by_two(self):
        corners, sides, boundary = classify_boundary(build_rect_mesh(1, 1, 2, 2))
        assert len(corners) == 4
        assert sorted(len(v) for v in sides.values()) == [1, 1, 1, 1]
        assert len(boundary) == 8

    def test_ten_by_ten(self):
        corners, sides, boundary = classify_boundary(build_rect_mesh(1, 1, 10, 10))
        assert len(boundary) == 40
        assert len(corners) == 4
        assert sum(len(v) for v in sides.values()) == 36

    def test_partition_is_geometric(self):
        m = build_rect_mesh(2, 1, 6, 5)
        corners, sides, boundary = classify_boundary(m)
        x, y = m.nodes[:, 0], m.nodes[:, 1]
        on_edge = (
            (np.abs(x) <= 1e-14) | (np.abs(x - 2) <= 1e-14)
            | (np.abs(y) <= 1e-14) | (np.abs(y - 1) <= 1e-14)
        )
        assert set(boundary) == set(np.flatnonzero(on_edge))
        grouped = set(corners)
        for v in sides.values():
            assert grouped.isdisjoint(v)
            grouped |= set(v)
        assert grouped == set(boundary)
