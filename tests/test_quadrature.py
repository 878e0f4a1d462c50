import math

import numpy as np
import pytest

from chemflow.mesh import Mesh
from chemflow.quadrature import MAX_DEGREE, triangle_rule
from oracles import element_geometry, integrate


def reference_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(nodes=nodes, triangles=np.array([[0, 1, 2]]), boundary_edges=[], h=np.sqrt(2))
    return element_geometry(m, 0)


def exact_reference_monomial(a, b):
    # int over the unit right triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestRuleData:
    @pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
    def test_weights_and_points(self, degree):
        r = triangle_rule(degree)
        assert abs(r.weights.sum() - 1.0) <= 1e-14
        assert np.all(r.points >= 0.0) and np.all(r.points <= 1.0)
        assert np.allclose(r.points.sum(axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("degree", [0, 9, -3])
    def test_unsupported_degree(self, degree):
        with pytest.raises(ValueError):
            triangle_rule(degree)

    @pytest.mark.parametrize("degree", [2.5, 3.0, True, False, "3", None, float("nan")])
    def test_degree_that_is_not_an_integer(self, degree):
        with pytest.raises(ValueError, match="must be an integer in 1..8"):
            triangle_rule(degree)

    def test_degree_of_a_rule_is_an_int(self):
        for degree in (3, np.int64(3), np.int32(7)):
            r = triangle_rule(degree)
            assert type(r.degree) is int and r.degree == int(degree)
            assert r is triangle_rule(int(degree))

    @pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
    def test_exactness_sweep(self, degree):
        geom = reference_triangle()
        r = triangle_rule(degree)
        xy = r.points @ geom.vertices
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = exact_reference_monomial(a, b)
                got = geom.area * float(r.weights @ (xy[:, 0] ** a * xy[:, 1] ** b))
                assert got == pytest.approx(exact, rel=1e-13)


class TestIntegrate:
    def test_constant_is_area(self):
        geom = reference_triangle()
        assert integrate(triangle_rule(1), geom, lambda x, y: 1.0) == pytest.approx(0.5)

    def test_bary_product(self):
        # l1 l2 l3 = (1-x-y) x y on the reference triangle
        geom = reference_triangle()
        got = integrate(triangle_rule(3), geom, lambda x, y: (1 - x - y) * x * y)
        assert got == pytest.approx(1.0 / 120.0, rel=1e-13)

    def test_quartic(self):
        geom = reference_triangle()
        got = integrate(triangle_rule(4), geom, lambda x, y: x**4)
        assert got == pytest.approx(1.0 / 30.0, rel=1e-13)

    def test_first_barycentric(self):
        geom = reference_triangle()
        got = integrate(triangle_rule(2), geom, lambda x, y: 1 - x - y)
        assert got == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_bubble(self):
        geom = reference_triangle()
        got = integrate(triangle_rule(3), geom, lambda x, y: 27 * (1 - x - y) * x * y)
        assert got == pytest.approx(0.225, rel=1e-13)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        verts = np.array([[0.3, -0.2], [1.7, 0.4], [0.9, 2.1]])
        m = Mesh(
            nodes=verts, triangles=np.array([[0, 1, 2]]), boundary_edges=[], h=1.0
        )
        geom = element_geometry(m, 0)
        ref = reference_triangle()
        rule = triangle_rule(5)

        def f(x, y):
            return 1.3 + x**2 * y - 0.5 * y**3 + x

        # pull back onto the reference triangle through the affine map
        a0, a1, a2 = verts

        def f_mapped(s, t):
            p = a0 + s * (a1 - a0) + t * (a2 - a0)
            return f(p[0], p[1])

        jac = 2.0 * geom.area  # |det| of the map from the reference triangle
        lhs = integrate(rule, ref, f_mapped) * jac
        rhs = integrate(rule, geom, f)
        assert lhs == pytest.approx(rhs, rel=1e-13)
