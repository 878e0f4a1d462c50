import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chemflow import assembly as asm
from chemflow import io_cli
from chemflow import linsolve
from chemflow import manufactured
from chemflow.mesh import build_rect_mesh
from chemflow.scheme import CondensedSaddle, InitialData, ModelParams, Stepper, TimeGrid


def constant_fields(cbar, alpha0):
    """Initial data with eta = alpha0, c = cbar, everything else at rest."""
    z = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)
    zv = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape + (2,))
    zg = lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape + (2, 2))
    return InitialData(
        eta0=lambda x, y: np.full(np.shape(x), alpha0),
        grad_eta0=zv,
        c0=lambda x, y: np.full(np.shape(x), cbar),
        grad_c0=zv,
        sigma0=zv, div_sigma0=z, rot_sigma0=z,
        u0=zv, grad_u0=zg, div_u0=z,
    )


def simple_params(**overrides):
    base = dict(chi=1.0, D_n=1.0, D_c=1.0, D_u=1.0, rho=1.0, gamma=1.0,
                grad_phi=(0.0, 0.0), alpha0=0.0)
    base.update(overrides)
    return ModelParams(**base)


class TestModelParams:
    def test_positive_checks(self):
        with pytest.raises(ValueError):
            simple_params(D_n=0.0)
        with pytest.raises(ValueError):
            simple_params(rho=-1.0)

    @pytest.mark.parametrize("name", ["D_n", "D_c", "D_u", "rho", "chi", "gamma", "alpha0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            simple_params(**{name: bad})

    def test_non_finite_gravity_rejected(self):
        with pytest.raises(ValueError, match="grad_phi"):
            simple_params(grad_phi=(0.0, math.inf))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=0.0, n_steps=3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(dt=bad, n_steps=3)
        grid = TimeGrid(dt=0.25, n_steps=4)
        assert grid.T == pytest.approx(1.0)
        assert np.allclose(grid.times(), [0, 0.25, 0.5, 0.75, 1.0])


class TestInitState:
    def test_constant_concentration_projection_exact(self):
        mesh = build_rect_mesh(1, 1, 5, 5)
        st = Stepper(mesh, simple_params(alpha0=2.0))
        cbar = 4.25
        state = st.init_state(constant_fields(cbar, 2.0), mode="elliptic_projection")
        assert np.abs(state.c - cbar).max() <= 1e-13

    def test_stokes_projection_divergence_orthogonality(self):
        mesh = build_rect_mesh(1, 1, 10, 10)
        st = Stepper(mesh, manufactured.test2_params())
        state = st.init_state(manufactured.test2_initial_data(), mode="elliptic_projection")
        assert st.divergence_residual(state) <= 1e-10

    def test_stokes_projection_independent_of_density(self):
        # the velocity/pressure projection is defined without the density
        # scaling, so changing rho must not change the projected state
        data = manufactured.test2_initial_data()
        mesh = build_rect_mesh(1, 1, 8, 8)
        base = manufactured.test2_params()
        heavy = ModelParams(
            chi=base.chi, D_n=base.D_n, D_c=base.D_c, D_u=base.D_u,
            rho=2.0, gamma=base.gamma, grad_phi=(0.0, 0.0), alpha0=base.alpha0,
        )
        s1 = Stepper(mesh, base).init_state(data, mode="elliptic_projection")
        s2 = Stepper(mesh, heavy).init_state(data, mode="elliptic_projection")
        assert np.allclose(s1.u, s2.u, atol=1e-11)
        assert np.allclose(s1.pi, s2.pi, atol=1e-11)

    def test_projection_modes_converge_together(self):
        # elliptic and nodal concentration projections differ at second order
        data = manufactured.test2_initial_data()
        diffs = []
        for k in (10, 20, 40):
            mesh = build_rect_mesh(1, 1, k, k)
            st = Stepper(mesh, manufactured.test2_params())
            ell = st.init_state(data, mode="elliptic_projection")
            nod = st.init_state(data, mode="nodal")
            d = ell.c - nod.c
            m = asm.assemble_mass(st.layout_c)
            diffs.append(math.sqrt(d @ (m @ d)))
        order1 = math.log2(diffs[0] / diffs[1])
        order2 = math.log2(diffs[1] / diffs[2])
        assert order1 >= 1.9 and order2 >= 1.9

    def test_initial_invariants_both_modes(self):
        mesh = build_rect_mesh(1, 1, 8, 8)
        st = Stepper(mesh, manufactured.test2_params())
        for mode in Stepper.INIT_MODES:
            state = st.init_state(manufactured.test2_initial_data(), mode=mode)
            assert abs(st.w_p1 @ state.n) <= 1e-11
            assert np.all(state.sigma[st.layout_sigma.constrained_dofs] == 0.0)
            assert np.all(state.u[st.layout_u.constrained_dofs] == 0.0)

    def test_unknown_mode(self):
        mesh = build_rect_mesh(1, 1, 2, 2)
        st = Stepper(mesh, simple_params())
        with pytest.raises(ValueError):
            st.init_state(constant_fields(1.0, 0.0), mode="l2")


class TestStep:
    def test_zero_state_stays_zero(self):
        # with zero mean density, gravity has nothing to act on
        mesh = build_rect_mesh(1, 1, 6, 6)
        st = Stepper(mesh, simple_params(grad_phi=(3.0, -9.0), alpha0=0.0))
        state = st.init_state(constant_fields(0.0, 0.0), mode="nodal")
        for _ in range(3):
            state, _reports = st.step(state, 1e-3)
        for arr in (state.n, state.c, state.sigma, state.u, state.pi):
            assert np.all(arr == 0.0)

    def test_constant_concentration_decay_recurrence(self):
        # eta = alpha0 and flat c: the mass matrix cancels and c follows
        # c^m = c^{m-1} (1 - gamma alpha0 dt) exactly, staying flat in space
        gamma, alpha0, cbar, dt = 8.0, 3.0, 2.0, 1e-3
        mesh = build_rect_mesh(1, 1, 5, 5)
        st = Stepper(mesh, simple_params(gamma=gamma, alpha0=alpha0))
        state = st.init_state(constant_fields(cbar, alpha0), mode="nodal")
        expected = cbar
        for _ in range(5):
            state, _ = st.step(state, dt)
            expected *= 1.0 - gamma * alpha0 * dt
            spread = state.c.max() - state.c.min()
            assert spread <= 1e-12 * abs(expected)
            assert state.c[0] == pytest.approx(expected, rel=1e-12)
            # side fields stay at rounding level (exact-arithmetic zero)
            assert np.abs(state.n).max() <= 1e-12
            assert np.abs(state.u).max() <= 1e-12
            assert np.abs(state.sigma).max() <= 1e-12

    def test_one_step_reports(self):
        mesh = build_rect_mesh(1, 1, 10, 10)
        st = Stepper(mesh, manufactured.test2_params())
        state = st.init_state(manufactured.test2_initial_data(), mode="nodal")
        new, reports = st.step(state, 2e-4, manufactured.test2_forcing())
        assert set(reports) == {"n", "sigma", "c", "u"}
        assert new.m == 1 and new.t == pytest.approx(2e-4)
        for rep in reports.values():
            assert np.isfinite(rep.residual_norm)

    def test_step_preserves_invariants(self):
        mesh = build_rect_mesh(1, 1, 8, 8)
        st = Stepper(mesh, manufactured.test2_params())
        state = st.init_state(manufactured.test2_initial_data(), mode="nodal")
        forcing = manufactured.test2_forcing()
        for _ in range(3):
            state, _ = st.step(state, 2e-4, forcing)
            assert abs(st.w_p1 @ state.n) <= 1e-11
            assert abs(st.w_p1 @ state.pi) <= 1e-11
            assert np.all(state.sigma[st.layout_sigma.constrained_dofs] == 0.0)
            assert np.all(state.u[st.layout_u.constrained_dofs] == 0.0)
            assert st.divergence_residual(state) <= 1e-9


class TestMassConservation:
    def test_mass_of_eta_formula(self):
        mesh = build_rect_mesh(2, 1, 4, 4)
        st = Stepper(mesh, simple_params(alpha0=3.0))
        state = st.init_state(constant_fields(0.0, 3.0), mode="nodal")
        assert st.mass_of_eta(state) == pytest.approx(6.0, rel=1e-13)

    def test_mass_conserved_with_transport_and_chemotaxis(self):
        # a small version of the plume physics: strong couplings, gravity
        from chemflow.io_cli import build_problem, default_config
        from dataclasses import replace

        cfg = replace(default_config("test1"), kx=12, ky=6)
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
        params, data, _ = build_problem(cfg, mesh)
        st = Stepper(mesh, params)
        result = st.run(TimeGrid(dt=1e-5, n_steps=10), data, mode="elliptic_projection")
        masses = np.array([rec["mass"] for rec in result.diagnostics])
        assert np.abs(masses - masses[0]).max() <= 1e-10 * abs(masses[0])


class TestRun:
    def test_zero_steps_returns_initial_state(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        st = Stepper(mesh, simple_params(alpha0=1.0))
        result = st.run(TimeGrid(dt=1e-3, n_steps=0), constant_fields(1.0, 1.0), mode="nodal")
        assert len(result.states) == 1
        assert result.states[0].m == 0

    def test_snapshots_on_grid(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        st = Stepper(mesh, simple_params(alpha0=1.0))
        result = st.run(
            TimeGrid(dt=1e-3, n_steps=4),
            constant_fields(1.0, 1.0),
            mode="nodal",
            snapshot_times=(0.0, 2e-3, 4e-3),
        )
        assert [idx for _t, idx in result.snapshots] == [0, 2, 4]

    def test_diagnostics_fields(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        st = Stepper(mesh, simple_params(alpha0=1.0, gamma=2.0))
        result = st.run(TimeGrid(dt=1e-3, n_steps=2), constant_fields(1.0, 1.0), mode="nodal")
        rec = result.diagnostics[-1]
        for key in ("m", "t", "mass", "div_residual", "residual_n", "max_c", "min_eta"):
            assert key in rec

    def test_diagnostics_carry_solver_timings(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        st = Stepper(mesh, manufactured.test2_params())
        result = st.run(TimeGrid(dt=2e-4, n_steps=2), manufactured.test2_initial_data(),
                        mode="nodal", forcing=manufactured.test2_forcing())
        for rec in result.diagnostics[1:]:
            for system in ("n", "sigma", "c", "u"):
                for key in ("residual", "factor_time", "solve_time"):
                    value = rec[f"{key}_{system}"]
                    assert np.isfinite(value) and value >= 0.0


class TestConsistency:
    def test_discrete_residual_first_order_sweep(self):
        # plugging exact-field interpolants (levels m and m-1) into the
        # forced concentration system: the residual shrinks by >= 1.8x per
        # simultaneous halving of dt and h (first order in dt plus h^2)
        sol = manufactured.test2_solution()
        forcing = manufactured.test2_forcing(sol)
        params = manufactured.test2_params()
        norms = []
        for k, dt in [(8, 4e-3), (16, 2e-3), (32, 1e-3)]:
            mesh = build_rect_mesh(1, 1, k, k)
            st = Stepper(mesh, params)
            x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
            c0 = sol.c(x, y, 0.0)
            c1 = sol.c(x, y, dt)
            n0 = sol.eta(x, y, 0.0) - params.alpha0
            ns = st.layout_u.n_scalar
            u0 = np.zeros(st.layout_u.n_dofs)
            uu = sol.u(x, y, 0.0)
            u0[: mesh.n_nodes] = uu[..., 0]
            u0[ns : ns + mesh.n_nodes] = uu[..., 1]
            u_prev = asm.DiscreteField(st.layout_u, u0)
            skew = asm.assemble_skew(st.layout_c, u_prev, st.ctx)
            a_c = st.M * (1.0 / dt) + st.K * params.D_c + skew
            rhs = st.M @ c0 / dt
            rhs += asm.assemble_consumption_rhs(
                st.layout_c,
                asm.DiscreteField(st.layout_c, n0),
                asm.DiscreteField(st.layout_c, c0),
                params.gamma, params.alpha0, st.ctx,
            )
            g_c = asm.AnalyticField(lambda px, py, _t=dt: forcing.g_c(px, py, _t))
            rhs += asm.assemble_load(st.layout_c, g_c, st.ctx)
            r = a_c @ c1 - rhs
            riesz, _ = linsolve.solve(st.M, r)
            norms.append(math.sqrt(abs(r @ riesz)))
        assert norms[0] / norms[1] >= 1.8
        assert norms[1] / norms[2] >= 1.8


def bordered_saddle_reference(st, s_matrix, rhs_u, rhs_pi):
    """The uncondensed (u, pi) solve: pinned velocity dofs made identity
    rows, the zero-mean pressure constraint bordered by a multiplier row,
    one LU of the whole system."""
    nu, npi = st.layout_u.n_dofs, st.layout_pi.n_dofs
    pinned = st.layout_u.constrained_dofs
    keep = np.ones(nu)
    keep[pinned] = 0.0
    p = sp.diags(keep)
    s_c = p @ s_matrix @ p + sp.diags(1.0 - keep)
    g_c = p @ st.G
    w = sp.csr_matrix(st.w_p1.reshape(-1, 1))
    big = sp.bmat(
        [[s_c, -g_c / st.params.rho, None], [g_c.T, None, w], [None, w.T, None]],
        format="csc",
    )
    rhs_u = np.array(rhs_u, dtype=float)
    rhs_u[pinned] = 0.0
    x = spla.splu(big).solve(np.concatenate([rhs_u, rhs_pi, [0.0]]))
    return x[:nu], x[nu : nu + npi]


def _captured_saddle_solves(monkeypatch):
    calls = []
    original = CondensedSaddle.solve

    def recording(self, skew, rhs_u, rhs_pi):
        out = original(self, skew, rhs_u, rhs_pi)
        calls.append((skew, np.array(rhs_u), np.array(rhs_pi), out))
        return out

    monkeypatch.setattr(CondensedSaddle, "solve", recording)
    return calls


def _counted_solve_passes(monkeypatch):
    """Number of passes of the approximate inverse in each checked solve."""
    passes = []
    original = linsolve.checked_solve

    def counting(b, solve, apply, fro):
        count = [0]

        def counted(rhs):
            count[0] += 1
            return solve(rhs)

        out = original(b, counted, apply, fro)
        passes.append(count[0])
        return out

    monkeypatch.setattr(linsolve, "checked_solve", counting)
    return passes


def _saddle_case(preset):
    """Stepper, initial data with a divergence source that has a nonzero
    integral, the step size and the forcing of one preset."""
    if preset == "test1":
        cfg = replace(io_cli.default_config("test1"), kx=12, ky=6)
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
        params, data, forcing = io_cli.build_problem(cfg, mesh)
        dt = cfg.dt
    else:
        mesh = build_rect_mesh(1, 1, 10, 10)
        params = manufactured.test2_params()
        data, forcing = manufactured.test2_initial_data(), manufactured.test2_forcing()
        dt = 2e-4
    data = replace(data, div_u0=lambda x, y: 1.0 + x * y)
    return Stepper(mesh, params), data, dt, forcing


class TestCondensedSaddle:
    @pytest.mark.parametrize("preset", ["test1", "test2"])
    @pytest.mark.parametrize("solve", ["stokes_init", "step"])
    def test_matches_bordered_solve(self, monkeypatch, preset, solve):
        st, data, dt, forcing = _saddle_case(preset)
        calls = _captured_saddle_solves(monkeypatch)
        passes = _counted_solve_passes(monkeypatch)
        state = st.init_state(data, mode="elliptic_projection")
        p = st.params
        if solve == "stokes_init":
            skew, rhs_u, rhs_pi, (u, pi, report) = calls[0]
            assert skew is None
            assert abs(rhs_pi.sum()) > 1e-3 * np.abs(rhs_pi).max()
            s_matrix = st.K_u * p.D_u
        else:
            state, _ = st.step(state, dt, forcing)  # test1 starts at rest
            state, _ = st.step(state, dt, forcing)
            skew, rhs_u, rhs_pi, (u, pi, report) = calls[-1]
            assert np.abs(state.u).max() > 0.0 and skew.count_nonzero() > 0
            s_matrix = (st.M_u / dt + st.K_u * (p.D_u / p.rho)) + skew
        u_ref, pi_ref = bordered_saddle_reference(st, s_matrix, rhs_u, rhs_pi)
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
        assert np.abs(pi - pi_ref).max() <= 1e-10 * np.abs(pi_ref).max()
        assert abs(st.w_p1 @ pi) <= 1e-12 * np.abs(pi).max()
        assert np.all(u[st.layout_u.constrained_dofs] == 0.0)
        # the saddle solve is the last one of init and of a step; it meets
        # the residual bound of the full system without a refinement pass
        assert passes[-1] == 1

    def test_condensed_system_size(self, monkeypatch):
        st, data, dt, forcing = _saddle_case("test2")
        sizes = []
        original = linsolve.Factorization.__init__

        def recording(self, a):
            sizes.append(a.shape[0])
            original(self, a)

        monkeypatch.setattr(linsolve.Factorization, "__init__", recording)
        st._saddle(dt).solve(None, np.zeros(st.layout_u.n_dofs), np.zeros(st.layout_pi.n_dofs))
        free_nodal = 2 * st.mesh.n_nodes - len(st.layout_u.constrained_dofs)
        assert sizes == [free_nodal + st.layout_pi.n_dofs - 1]

    def test_rejects_coupled_bubbles(self):
        st, _, dt, _ = _saddle_case("test2")
        _, bubble = st.layout_u.nodal_and_bubble_dofs()
        s = (st.M_u / dt).tolil()
        s[bubble[0], bubble[1]] = s[bubble[1], bubble[0]] = 1.0
        with pytest.raises(ValueError, match="not diagonal"):
            CondensedSaddle(s.tocsr(), st.G, st.layout_u, st.w_p1, st.params.rho)

    def test_residual_of_full_system_is_enforced(self, monkeypatch):
        # a transport block the condensation ignores (bubble-bubble coupling)
        # breaks the full system's residual bound
        st, _, dt, _ = _saddle_case("test2")
        _, bubble = st.layout_u.nodal_and_bubble_dofs()
        n = st.layout_u.n_dofs
        bad = sp.csr_matrix(([1e3, -1e3], ([bubble[0], bubble[1]], [bubble[1], bubble[0]])),
                            shape=(n, n))
        rhs_u = np.ones(n)
        with pytest.raises(linsolve.SingularSystemError):
            st._saddle(dt).solve(bad, rhs_u, np.zeros(st.layout_pi.n_dofs))
