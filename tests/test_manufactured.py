import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from chemflow import manufactured as mf
from chemflow.assembly import AssemblyContext
from chemflow.mesh import build_rect_mesh
from chemflow.scheme import State, Stepper, StepForcing, TimeGrid
from oracles import (
    SOURCES, field_by_field_forcing, field_by_field_solution, level_errors_by_sums, per_call_forcing,
)

FD_H = 1e-3


def d1(f, x, h=FD_H):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def d2(f, x, h=FD_H):
    """Fourth-order central second derivative."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (
        12 * h * h
    )


def interior_points(rng, n):
    x = rng.uniform(0.05, 0.95, n)
    y = rng.uniform(0.05, 0.95, n)
    t = rng.uniform(0.002, 0.02, n)
    return x, y, t


class TestExactSolution:
    def setup_method(self):
        self.sol = mf.test2_solution()
        self.rng = np.random.default_rng(1234)

    def test_point_values(self):
        assert self.sol.eta(0.0, 0.0, 0.0) == pytest.approx(5.0)
        sig = self.sol.sigma(0.25, 0.0, 0.0)
        assert sig[0] == pytest.approx(-2 * math.pi, rel=1e-14)
        assert sig[1] == pytest.approx(0.0, abs=1e-14)

    def test_sigma_is_concentration_gradient(self):
        x, y, t = interior_points(self.rng, 100)
        assert np.abs(self.sol.sigma(x, y, t) - self.sol.grad_c(x, y, t)).max() <= 1e-12

    def test_velocity_divergence_free(self):
        x, y, t = interior_points(self.rng, 100)
        gu = self.sol.grad_u(x, y, t)
        div = gu[..., 0, 0] + gu[..., 1, 1]
        assert np.abs(div).max() <= 1e-12

    def test_velocity_no_slip(self):
        edge = np.linspace(0.0, 1.0, 37)
        for xv, yv in [(edge, 0.0), (edge, 1.0), (0.0, edge), (1.0, edge)]:
            u = self.sol.u(np.broadcast_to(xv, edge.shape), np.broadcast_to(yv, edge.shape), 0.01)
            assert np.abs(u).max() <= 1e-12

    def test_zero_normal_derivatives(self):
        edge = np.linspace(0.0, 1.0, 29)
        t = 0.004
        for field in (self.sol.grad_eta, self.sol.grad_c):
            g_b = field(edge, np.zeros_like(edge), t)
            g_t = field(edge, np.ones_like(edge), t)
            assert np.abs(g_b[..., 1]).max() <= 1e-12
            assert np.abs(g_t[..., 1]).max() <= 1e-12
            g_l = field(np.zeros_like(edge), edge, t)
            g_r = field(np.ones_like(edge), edge, t)
            assert np.abs(g_l[..., 0]).max() <= 1e-12
            assert np.abs(g_r[..., 0]).max() <= 1e-12

    def test_pressure_zero_mean(self):
        mesh = build_rect_mesh(1, 1, 16, 16)
        ctx = AssemblyContext(mesh)
        vals = self.sol.pi(ctx.points[..., 0], ctx.points[..., 1], 0.003)
        integral = float(np.einsum("q,eq->", ctx.weights, vals * ctx.areas[:, None]))
        assert abs(integral) <= 1e-12

    def test_density_mean_constant(self):
        mesh = build_rect_mesh(1, 1, 16, 16)
        ctx = AssemblyContext(mesh)
        for t in (0.0, 0.005, 0.01):
            vals = self.sol.eta(ctx.points[..., 0], ctx.points[..., 1], t)
            integral = float(np.einsum("q,eq->", ctx.weights, vals * ctx.areas[:, None]))
            assert integral == pytest.approx(mf.ETA_MEAN, abs=1e-12)


class TestForcing:
    """The closed-form sources against finite-difference residual oracles."""

    def setup_method(self):
        self.sol = mf.test2_solution()
        self.forcing = mf.test2_forcing()
        self.rng = np.random.default_rng(77)

    def oracle_g_n(self, x, y, t):
        s = self.sol
        eta_t = d1(lambda tt: s.eta(x, y, tt), t)
        ex = d1(lambda xx: s.eta(xx, y, t), x)
        ey = d1(lambda yy: s.eta(x, yy, t), y)
        lap = d2(lambda xx: s.eta(xx, y, t), x) + d2(lambda yy: s.eta(x, yy, t), y)
        u = s.u(x, y, t)
        # chemotaxis term as the divergence of eta * grad(c)
        fx = d1(lambda xx: s.eta(xx, y, t) * s.sigma(xx, y, t)[..., 0], x)
        fy = d1(lambda yy: s.eta(x, yy, t) * s.sigma(x, yy, t)[..., 1], y)
        return eta_t + u[..., 0] * ex + u[..., 1] * ey - lap + fx + fy

    def oracle_g_c(self, x, y, t):
        s = self.sol
        c_t = d1(lambda tt: s.c(x, y, tt), t)
        cx = d1(lambda xx: s.c(xx, y, t), x)
        cy = d1(lambda yy: s.c(x, yy, t), y)
        lap = d2(lambda xx: s.c(xx, y, t), x) + d2(lambda yy: s.c(x, yy, t), y)
        u = s.u(x, y, t)
        return c_t + u[..., 0] * cx + u[..., 1] * cy - lap + s.eta(x, y, t) * s.c(x, y, t)

    def oracle_g_u(self, x, y, t):
        s = self.sol
        comps = []
        for d in range(2):
            w = lambda xx, yy, tt: s.u(xx, yy, tt)[..., d]
            w_t = d1(lambda tt: w(x, y, tt), t)
            wx = d1(lambda xx: w(xx, y, t), x)
            wy = d1(lambda yy: w(x, yy, t), y)
            lap = d2(lambda xx: w(xx, y, t), x) + d2(lambda yy: w(x, yy, t), y)
            pd = (
                d1(lambda xx: s.pi(xx, y, t), x)
                if d == 0
                else d1(lambda yy: s.pi(x, yy, t), y)
            )
            u = s.u(x, y, t)
            comps.append(w_t + u[..., 0] * wx + u[..., 1] * wy - lap + pd)
        return np.stack(comps, axis=-1)

    def test_g_n_matches_residual(self):
        x, y, t = interior_points(self.rng, 100)
        assert np.abs(self.forcing.g_n(x, y, t) - self.oracle_g_n(x, y, t)).max() <= 1e-6

    def test_g_c_matches_residual(self):
        x, y, t = interior_points(self.rng, 100)
        assert np.abs(self.forcing.g_c(x, y, t) - self.oracle_g_c(x, y, t)).max() <= 1e-6

    def test_g_u_matches_residual(self):
        x, y, t = interior_points(self.rng, 100)
        assert np.abs(self.forcing.g_u(x, y, t) - self.oracle_g_u(x, y, t)).max() <= 1e-6

    def test_g_sigma_is_gradient_of_g_c(self):
        x, y, t = interior_points(self.rng, 100)
        gs = self.forcing.g_sigma(x, y, t)
        fd = np.stack(
            [
                d1(lambda xx: self.forcing.g_c(xx, y, t), x),
                d1(lambda yy: self.forcing.g_c(x, yy, t), y),
            ],
            axis=-1,
        )
        assert np.abs(gs - fd).max() <= 1e-6

    def test_sigma_forcing_vanishes_at_x_extrema_of_g_c(self):
        # where g_c is stationary in x, the first flux-source component is 0
        rng = np.random.default_rng(5)
        y, t = rng.uniform(0.1, 0.9), 0.01
        xs = np.linspace(0.05, 0.95, 2001)
        vals = self.forcing.g_c(xs, np.full_like(xs, y), np.full_like(xs, t))
        i = 1 + int(np.argmax(np.abs(np.diff(np.sign(np.diff(vals))))))  # interior extremum
        from scipy.optimize import brentq

        dgc = lambda xx: d1(lambda v: self.forcing.g_c(v, y, t), xx, h=1e-5)
        x_star = brentq(dgc, xs[i - 1], xs[i + 1])
        assert abs(self.forcing.g_sigma(x_star, y, t)[0]) <= 1e-6


class TestTableEquivalence:
    """Each field and source, built from one table per call, against the
    field-by-field composition it replaces."""

    @staticmethod
    def assert_close(new, old):
        assert new.shape == old.shape
        assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()

    @pytest.mark.parametrize("t", [0.0, 0.004, 0.37, "array"])
    def test_matches_field_by_field(self, t):
        rng = np.random.default_rng(2024)
        x, y = rng.uniform(0.0, 1.0, (2, 40, 16))
        if t == "array":
            t = rng.uniform(0.0, 1.0, (40, 16))
        sol, ref = mf.test2_solution(), field_by_field_solution()
        for f in fields(mf.ExactSolution):
            new, old = getattr(sol, f.name)(x, y, t), getattr(ref, f.name)(x, y, t)
            if f.name in ("rot_sigma", "div_u"):
                assert new.shape == old.shape and not new.any() and not old.any()
            else:
                self.assert_close(new, old)
        forcing, ref_forcing = mf.test2_forcing(), field_by_field_forcing(ref)
        for name in ("g_n", "g_c", "g_sigma", "g_u"):
            self.assert_close(getattr(forcing, name)(x, y, t), getattr(ref_forcing, name)(x, y, t))


class TestSharedSources:
    """The sources of one ``test2_forcing()`` call share one table; each call
    must equal one table per call bit for bit, whatever came before it."""

    @staticmethod
    def assert_equal(forcing, x, y, t, names=SOURCES):
        ref = per_call_forcing()
        for name in names:
            new, old = getattr(forcing, name)(x, y, t), getattr(ref, name)(x, y, t)
            assert new.shape == old.shape and np.array_equal(new, old), name

    @staticmethod
    def quadrature_points(k=6):
        ctx = AssemblyContext(build_rect_mesh(1.0, 1.0, k, k))
        return lambda: (ctx.points[..., 0], ctx.points[..., 1])  # a new view on each call

    def test_time_sequence_at_fixed_points(self):
        points, forcing = self.quadrature_points(), mf.test2_forcing()
        for t in (0.0, 2e-4, 4e-4, 4e-4, 0.37, 0.0, 2.5):
            self.assert_equal(forcing, *points(), t)
            self.assert_equal(forcing, *points(), t, names=SOURCES[::-1])

    def test_alternating_points_and_nodes(self):
        points, forcing = self.quadrature_points(), mf.test2_forcing()
        nodes = build_rect_mesh(1.0, 1.0, 6, 6).nodes
        for t in (0.0, 0.0, 1e-3, 1e-3, 2e-3):
            self.assert_equal(forcing, *points(), t)
            self.assert_equal(forcing, nodes[:, 0], nodes[:, 1], t)

    @pytest.mark.parametrize("moved", ["x", "y"])
    def test_points_changed_in_place(self, moved):
        rng = np.random.default_rng(7)
        xy = {"x": rng.uniform(0.0, 1.0, (30, 16)), "y": rng.uniform(0.0, 1.0, (30, 16))}
        forcing = mf.test2_forcing()
        for t in (0.0, 0.0, 1e-3):
            self.assert_equal(forcing, xy["x"], xy["y"], t)
            xy[moved][3, 5] += 1e-5  # a finite-difference probe, in the caller's array
            self.assert_equal(forcing, xy["x"], xy["y"], t)

    def test_array_t(self):
        rng = np.random.default_rng(11)
        x, y = rng.uniform(0.0, 1.0, (2, 40, 16))
        t = rng.uniform(0.0, 1.0, (40, 16))
        forcing = mf.test2_forcing()
        self.assert_equal(forcing, x, y, 0.5)
        self.assert_equal(forcing, x, y, t)
        self.assert_equal(forcing, x, y, t.copy())
        t[0, 0] += 0.25  # changed in place
        self.assert_equal(forcing, x, y, t)
        self.assert_equal(forcing, x, y, t[:, :1])  # broadcast against the points
        self.assert_equal(forcing, x, y, 0.5)

    def test_wrapped_as_plain_functions(self):
        # as the benchmark's tracer wraps each source: a new (x, y, t) callable
        # around the same closure
        points, shared = self.quadrature_points(), mf.test2_forcing()
        calls = []

        def wrap(fn):
            def traced(x, y, t):
                calls.append(fn.__name__)
                return fn(x, y, t)
            return traced

        forcing = StepForcing(**{name: wrap(getattr(shared, name)) for name in SOURCES})
        for t in (0.0, 2e-4, 4e-4):
            self.assert_equal(forcing, *points(), t)
        assert calls == list(SOURCES) * 3

    def test_caller_owns_each_result(self):
        points, forcing = self.quadrature_points(), mf.test2_forcing()
        for name in SOURCES:
            first = getattr(forcing, name)(*points(), 1e-3)
            first[...] = np.nan
            self.assert_equal(forcing, *points(), 1e-3)

    def test_step_states_and_lu_passes_match_per_call_sources(self):
        grid, data = TimeGrid(dt=2e-4, n_steps=5), mf.test2_initial_data()

        def levels(forcing):  # a stepper each: the first step of a stepper factors its LUs
            st = Stepper(build_rect_mesh(1.0, 1.0, 6, 6), mf.test2_params())
            return list(st.run(grid, data, mode="nodal", forcing=forcing))

        shared, per_call = levels(mf.test2_forcing()), levels(per_call_forcing())
        assert len(shared) == len(per_call) == 6
        for (s1, r1), (s2, r2) in zip(shared, per_call):
            for name in ("n", "c", "sigma", "u", "pi"):
                assert np.array_equal(getattr(s1, name), getattr(s2, name)), (s1.m, name)
            passes = [k for k in r1 if k.startswith(("solver_", "iterations_"))]
            assert [r1[k] for k in passes] == [r2[k] for k in passes]
            assert len(passes) == 8
            assert all((r1[k] is None) == (s1.m == 0) for k in passes)  # the init solves no step

    def test_sin_and_cos_once_per_mesh_exp_once_per_step(self, monkeypatch):
        st = Stepper(build_rect_mesh(1.0, 1.0, 6, 6), mf.test2_params())
        state = st.init_state(mf.test2_initial_data(), mode="nodal")
        forcing = mf.test2_forcing()
        counts = {}

        def counting(name, ufunc):
            def fn(*args, **kwargs):
                counts[name] += 1
                return ufunc(*args, **kwargs)
            return fn

        for name in ("sin", "cos", "exp"):
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        per_step = []
        for _ in range(4):
            counts.update(sin=0, cos=0, exp=0)
            state, _reports = st.step(state, 2e-4, forcing)
            per_step.append(dict(counts))
        assert per_step[0] == {"sin": 2, "cos": 2, "exp": 1}
        assert per_step[1:] == [{"sin": 0, "cos": 0, "exp": 1}] * 3

    def test_memory_does_not_grow_with_levels(self):
        # between levels the sources keep the spatial half and one level's
        # table; one level's table alone takes about 600 KiB here
        x, y = self.quadrature_points(k=10)()
        forcing = mf.test2_forcing()

        def peak(n_levels):
            tracemalloc.start()
            try:
                for m in range(n_levels):
                    for name in ("g_n", "g_c", "g_u"):
                        getattr(forcing, name)(x, y, m * 2e-4)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # the spatial half and the first level
        assert peak(40) <= peak(10) + 16 * 1024


@pytest.fixture(scope="module")
def test2_run():
    """A short test2 trajectory on a 6 x 6 mesh: its stepper and states."""
    st = Stepper(build_rect_mesh(1.0, 1.0, 6, 6), mf.test2_params())
    levels = st.run(TimeGrid(dt=1e-3, n_steps=4), mf.test2_initial_data(), mode="nodal",
                    forcing=mf.test2_forcing())
    return st, [state for state, _rec in levels]


class TestErrorTable:
    """The exact fields of the error norms, read from one table per level
    over a spatial half computed once."""

    @pytest.mark.parametrize("t", [0.0, 0.004, 0.37, 2.5])
    def test_fields_equal_the_callables_bit_for_bit(self, t):
        ctx = AssemblyContext(build_rect_mesh(1.0, 1.0, 6, 6))
        x, y = ctx.points[..., 0], ctx.points[..., 1]
        half, sol = mf._Test2(x, y, 0.0), mf.test2_solution()
        table = half.at(t)
        for name in ("sx", "cx", "sy", "cy"):
            assert getattr(table, name) is getattr(half, name)
        for f in fields(mf.ExactSolution):
            new, old = mf._array(getattr(table, f.name)), getattr(sol, f.name)(x, y, t)
            assert new.shape == old.shape and np.array_equal(new, old), f.name


class TestErrorNorms:
    @staticmethod
    def assert_norms_close(new, old, rtol=1e-13):
        for norm in ("linf_l2", "l2_h1", "linf_h1"):
            a, b = getattr(new, norm), getattr(old, norm)
            assert a.keys() == b.keys()
            for v in a:
                assert abs(a[v] - b[v]) <= rtol * abs(b[v]), (norm, v)

    def test_table_and_callable_paths_agree(self, test2_run):
        st, states = test2_run
        table = mf.error_norms(states, st, 1e-3)
        assert table.linf_l2["eta"] > 0.0
        self.assert_norms_close(table, mf.error_norms(states, st, 1e-3, sol=mf.test2_solution()))
        self.assert_norms_close(table, mf.error_norms(states, st, 1e-3, sol=field_by_field_solution()))

    def test_levels_match_one_sum_per_norm(self, test2_run):
        # one level at m >= 1 with dt = 1: linf(L2) is the L2 error and
        # l2(H1) the full H1 error of that level
        st, states = test2_run
        ref_sol = field_by_field_solution()
        for state in states[1:]:
            ref = level_errors_by_sums(st, state, ref_sol)
            for sol in (None, ref_sol):
                errs = mf.error_norms([state], st, 1.0, sol=sol)
                for v, (l2sq, h1sq) in ref.items():
                    assert errs.linf_l2[v] == pytest.approx(math.sqrt(l2sq), rel=1e-13)
                    assert errs.l2_h1[v] == pytest.approx(math.sqrt(l2sq + h1sq), rel=1e-13)

    def test_reads_a_generator_once(self, test2_run):
        st, states = test2_run
        levels = iter(states)
        errs = mf.error_norms(levels, st, 1e-3)
        assert next(levels, None) is None
        self.assert_norms_close(errs, mf.error_norms(list(states), st, 1e-3), rtol=0.0)

    @pytest.mark.parametrize("states", [[], (), "generator"])
    def test_empty_trajectory_rejected(self, test2_run, states):
        st, _ = test2_run
        if states == "generator":
            states = (s for s in ())
        with pytest.raises(ValueError, match="at least one time level"):
            mf.error_norms(states, st, 1e-3)

    def test_memory_does_not_grow_with_levels(self, test2_run):
        # north star 3: each level's tables and errors are dropped before
        # the next; one level's exact fields alone take about 100 KiB here
        st, _ = test2_run

        def peak(n_levels):
            levels = (_zero_state(st, m, 1e-3) for m in range(n_levels))
            tracemalloc.start()
            try:
                mf.error_norms(levels, st, 1e-3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-use allocations of the context and layouts
        assert peak(40) <= peak(10) + 16 * 1024

    def test_zero_trajectory_zero_solution(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        params = mf.test2_params()
        from chemflow.scheme import ModelParams

        params = ModelParams(
            chi=1, D_n=1, D_c=1, D_u=1, rho=1, gamma=1, grad_phi=(0, 0), alpha0=0.0
        )
        st = Stepper(mesh, params)
        zero_sol = _constant_solution(0.0)
        states = [_zero_state(st, m, 1e-3) for m in range(3)]
        errs = mf.error_norms(states, st, 1e-3, sol=zero_sol)
        for v in mf.VARIABLES:
            assert errs.linf_l2[v] == 0.0
            assert errs.l2_h1[v] == 0.0

    def test_linear_error_field_norms(self):
        # exact eta = x against a zero discrete field on the unit square:
        # L2 error 1/sqrt(3), H1 seminorm 1
        mesh = build_rect_mesh(1, 1, 8, 8)
        from chemflow.scheme import ModelParams

        params = ModelParams(
            chi=1, D_n=1, D_c=1, D_u=1, rho=1, gamma=1, grad_phi=(0, 0), alpha0=0.0
        )
        st = Stepper(mesh, params)
        sol = _constant_solution(0.0, eta_override=True)
        errs = mf.error_norms([_zero_state(st, 0, 1.0)], st, 1.0, sol=sol)
        assert errs.linf_l2["eta"] == pytest.approx(1 / math.sqrt(3), rel=1e-12)
        # single level at m=0 contributes nothing to the l2(H1) sum
        assert errs.l2_h1["eta"] == 0.0

    def test_order_of_identical_errors_is_zero(self):
        a = mf.MeshErrors(k=10, h=0.1, linf_l2={"eta": 1e-2}, l2_h1={"eta": 1e-1}, linf_h1={})
        b = mf.MeshErrors(k=20, h=0.05, linf_l2={"eta": 1e-2}, l2_h1={"eta": 1e-1}, linf_h1={})
        rep = mf.ErrorReport(meshes=[a, b])
        assert rep.orders("linf_l2", "eta") == [None, 0.0]

    def test_order_requires_positive_errors(self):
        a = mf.MeshErrors(k=10, h=0.1, linf_l2={"eta": 0.0}, l2_h1={}, linf_h1={})
        b = mf.MeshErrors(k=20, h=0.05, linf_l2={"eta": 1e-3}, l2_h1={}, linf_h1={})
        rep = mf.ErrorReport(meshes=[a, b])
        assert rep.orders("linf_l2", "eta") == [None, None]


class TestConvergenceStudy:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mf.convergence_study([20, 10], dt=2e-4, T=0.01)
        with pytest.raises(ValueError):
            mf.convergence_study([4, 8], dt=3e-4, T=0.01)

    @pytest.mark.parametrize("dt, T", [
        (0.0, 0.01), (-2e-4, 0.01), (math.nan, 0.01), (math.inf, 0.01), (True, 2.0), ("x", 0.01),
        (2e-4, math.inf), (2e-4, math.nan), (2e-4, 0.0), (2e-4, -0.01), (2e-4, None),
        (1e-300, 1e300),
    ])
    def test_rejects_a_bad_time_grid(self, dt, T):
        with pytest.raises(ValueError):
            mf.convergence_study([4], dt=dt, T=T)

    @pytest.mark.parametrize("sizes", [[], [True], [2.5], [0], [-4], ["4"], [4, None]])
    def test_rejects_bad_mesh_sizes(self, sizes):
        with pytest.raises(ValueError, match="mesh sizes"):
            mf.convergence_study(sizes, dt=2e-4, T=0.01)

    def test_accepts_integer_mesh_sizes_of_any_kind(self):
        rep = mf.convergence_study(iter([np.int64(2), 3]), dt=1e-3, T=2e-3, init_mode="nodal")
        assert [m.k for m in rep.meshes] == [2, 3]

    def test_single_mesh_error_magnitude(self):
        # coarsest tabulated mesh: density error within a factor 2 of the
        # reference 5.7265e-2
        rep = mf.convergence_study([10], dt=2e-4, T=0.01, init_mode="nodal")
        err = rep.meshes[0].linf_l2["eta"]
        assert 0.5 * 5.7265e-2 <= err <= 2.0 * 5.7265e-2

    def test_two_mesh_orders(self):
        rep = mf.convergence_study([10, 20], dt=2e-4, T=0.01, init_mode="nodal")
        assert abs(rep.orders("linf_l2", "eta")[1] - 1.9966) <= 0.25
        assert abs(rep.orders("linf_h1", "u1")[1] - 0.9747) <= 0.2
        assert 0.9 <= rep.orders("l2_h1", "c")[1] <= 1.1


def _zero_state(stepper, m, dt):
    return State(
        m=m,
        t=m * dt,
        n=np.zeros(stepper.layout_n.n_dofs),
        c=np.zeros(stepper.layout_c.n_dofs),
        sigma=np.zeros(stepper.layout_sigma.n_dofs),
        u=np.zeros(stepper.layout_u.n_dofs),
        pi=np.zeros(stepper.layout_pi.n_dofs),
    )


def _constant_solution(value, eta_override=False):
    """An ExactSolution that is identically `value` (or eta = x)."""
    z = lambda x, y, t: np.zeros(np.shape(x)) + value
    zv = lambda x, y, t: np.zeros(np.shape(x) + (2,))
    zm = lambda x, y, t: np.zeros(np.shape(x) + (2, 2))
    eta = (lambda x, y, t: np.asarray(x, dtype=float)) if eta_override else z
    grad_eta = (
        (lambda x, y, t: np.stack(np.broadcast_arrays(np.ones(np.shape(x)), np.zeros(np.shape(x))), axis=-1))
        if eta_override
        else zv
    )
    return mf.ExactSolution(
        eta=eta, eta_t=z, grad_eta=grad_eta, lap_eta=z,
        c=z, c_t=z, grad_c=zv,
        sigma=zv, sigma_t=zv, grad_sigma=zm,
        div_sigma=z, grad_div_sigma=zv, rot_sigma=z,
        u=zv, u_t=zv, grad_u=zm, lap_u=zv, div_u=z,
        pi=z, grad_pi=zv,
    )
