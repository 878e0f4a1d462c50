import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _compressed
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from chemflow import assembly as asm
from chemflow import io_cli
from chemflow import linsolve
from chemflow import manufactured
from chemflow import mesh as mesh_module
from chemflow.mesh import build_rect_mesh
from chemflow.scheme import (
    DIVERGENCE_TOL,
    RECORD_KEYS,
    CondensedSaddle,
    InitialData,
    InvariantError,
    ModelParams,
    State,
    Stepper,
    TimeGrid,
)
from oracles import (
    apply_constraints,
    bordered_saddle_matrix,
    pivoting_solve,
    bordered_saddle_reference,
    componentwise_backward_error,
    divrot_matrix,
    exact_solve,
    lagged_forms_at_points,
    lagged_matrices,
    projector,
    recorded_sorts,
    skew_by_global_transpose,
    solved_projections,
    stepper_matrices_by_sorted_plans,
    stopped_step,
    transport_free_solver,
)


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
        div_sigma0=z,
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

    @pytest.mark.parametrize("name", ["D_n", "D_c", "D_u", "rho", "chi", "gamma", "alpha0"])
    def test_bool_rejected(self, name):
        # True would otherwise run as 1.0
        with pytest.raises(ValueError, match=f"{name} must be finite.*, got True"):
            simple_params(**{name: True})

    def test_bool_gravity_rejected(self):
        with pytest.raises(ValueError, match="grad_phi"):
            simple_params(grad_phi=(False, True))

    def test_non_finite_gravity_rejected(self):
        with pytest.raises(ValueError, match="grad_phi"):
            simple_params(grad_phi=(0.0, math.inf))

    @pytest.mark.parametrize("bad", [(5.0,), (0.0, 1.0, 2.0), ((0.0, 1.0),),
                                     lambda x, y: np.zeros(np.shape(x) + (2,))])
    def test_constant_gravity_must_be_a_two_vector(self, bad):
        # the buoyancy scales a table by the two entries of grad_phi, where a
        # single entry would silently act on both components; a callable
        # (a varying grad_phi) is not supported
        with pytest.raises(ValueError, match="2-vector"):
            simple_params(grad_phi=bad)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=0.0, n_steps=3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(dt=bad, n_steps=3)
        grid = TimeGrid(dt=0.25, n_steps=4)
        assert grid.T == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [True, False, "x", None, -1.0])
    def test_grid_rejects_a_non_real_dt(self, bad):
        # TimeGrid(dt=True, n_steps=2) used to give T=2, and "x" a TypeError
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            TimeGrid(dt=bad, n_steps=2)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, -1])
    def test_grid_needs_integral_step_count(self, bad):
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(dt=1e-3, n_steps=bad)
        assert TimeGrid(dt=1e-3, n_steps=np.int64(3)).T == 3 * 1e-3


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
            m = st.M
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


class TestInitialProjections:
    """A projection whose constrained data are exactly zero is zero and takes
    no LU, and the SPD c and sigma operators are factored without pivoting;
    ``oracles.solved_projections``, which solves every projection, whatever
    its data, through pivoting LUs, the Stokes one uncondensed, is the
    reference."""

    @staticmethod
    def case(preset, mesh=None):
        """Stepper, initial data, step size and forcing of one preset."""
        cfg = io_cli.default_config(preset)
        if mesh is not None:
            cfg = replace(cfg, kx=mesh[0], ky=mesh[1])
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
        params, data, forcing = io_cli.build_problem(cfg, mesh)
        return Stepper(mesh, params), data, cfg.dt, forcing

    @pytest.mark.parametrize("preset, mesh, saddles, factored", [
        ("test1", (16, 8), 0, ["n", "c", "sigma"]),  # the plume starts at rest
        ("test2", None, 1, ["n", "c", "sigma", "u"]),
    ])
    def test_match_the_solved_projections(self, monkeypatch, preset, mesh, saddles, factored):
        st, data, _, _ = self.case(preset, mesh)
        built, original = [], CondensedSaddle.__init__

        def counting(self, *args):
            built.append(args)
            original(self, *args)

        with monkeypatch.context() as m:
            m.setattr(CondensedSaddle, "__init__", counting)
            lus = _recorded_lus(m, st)
            state = st.init_state(data, mode="elliptic_projection")
        assert len(built) == saddles
        assert [system for system, _ in lus] == factored
        n0, c0, sigma0, u0, pi0 = solved_projections(st, data)
        for got, ref in ((state.n, n0), (state.c, c0), (state.sigma, sigma0)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        # (u, pi) against one LU of the uncondensed bordered Stokes matrix
        for got, ref in ((state.u, u0), (state.pi, pi0)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()
        assert (np.abs(state.u).max() > 0.0) == (saddles == 1)

    def test_constant_data_factor_only_the_concentration(self, monkeypatch):
        # criterion 10's data: only c is nonzero, and it is exact
        st = Stepper(build_rect_mesh(1.0, 1.0, 20, 20), manufactured.test2_params())
        lus = _recorded_lus(monkeypatch, st)
        cbar = 7.5
        state = st.init_state(constant_fields(cbar, st.params.alpha0), mode="elliptic_projection")
        assert [system for system, _ in lus] == ["c"]
        assert np.abs(state.c - cbar).max() <= 1e-13 * cbar
        for name in ("n", "sigma", "u", "pi"):
            assert not np.any(getattr(state, name)), name

    @pytest.mark.parametrize("preset, mesh, mode, at_init", [
        ("test1", (16, 8), "elliptic_projection", ["n", "c", "sigma"]),
        ("test2", None, "nodal", []),
    ])
    def test_lus_of_init_and_first_step(self, monkeypatch, preset, mesh, mode, at_init):
        # a factorization a later change brings back fails here
        st, data, dt, forcing = self.case(preset, mesh)
        lus = _recorded_lus(monkeypatch, st)
        state = st.init_state(data, mode=mode)
        assert [system for system, _ in lus] == at_init
        del lus[:]
        st.step(state, dt, forcing)
        assert [system for system, _ in lus] == ["n", "sigma", "c", "u"]

    def test_kept_lus_of_the_first_step_take_few_passes(self):
        # the mms-coarse run (test2 at k=10, nodal init, forced): the kept LUs
        # factor the first step's own operators, so step 1 is at its rounding
        # floor in one pass and a later step refines against a nearby matrix;
        # through the LUs of the transport-free operators every step took 6
        st, data, dt, forcing = self.case("test2")
        state = st.init_state(data, mode="nodal")
        for m in range(1, io_cli.default_config("test2").n_steps() + 1):
            state, reports = st.step(state, dt, forcing)
            for system in ("n", "c", "u"):
                assert reports[system].kind == ("lu" if m == 1 else "cached-lu")
                assert reports[system].iterations <= (2 if m == 1 else 4), (m, system)

    def test_first_step_from_rest_factors_the_transport_free_operators(self, monkeypatch):
        # the plume starts at rest: its first transports are exactly 0, so each
        # kept LU factors the transport-free operator, entry for entry
        st, data, dt, forcing = self.case("test1", (16, 8))
        ref = Stepper(st.mesh, st.params)
        state = st.init_state(data, mode="elliptic_projection")
        n_data, u_data, _ = st.lagged_forms(state, dt, forcing)
        assert not np.any(n_data) and not np.any(u_data)
        st.step(state, dt, forcing)
        monkeypatch.setattr(Stepper, "_solver", transport_free_solver)
        ref.step(ref.init_state(data, mode="elliptic_projection"), dt, forcing)

        def kept_lu(stepper, system):
            solver = stepper._solvers[(system, dt)]
            return solver.lu.lu if system == "u" else solver.lu

        for system in ("n", "sigma", "c", "u"):
            got, want = kept_lu(st, system).matrix, kept_lu(ref, system).matrix
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (system, name)

    def test_spd_lus_take_no_pivots(self, monkeypatch):
        # every LU of init and the first step factors its system in the given
        # order without interchanging a row, the singular-K density projection
        # included, and solves like SuperLU's COLAMD LU with partial pivoting
        st, data, dt, forcing = self.case("test1", (16, 8))
        with monkeypatch.context() as m:
            lus = _recorded_lus(m, st)
            st.step(st.init_state(data, mode="elliptic_projection"), dt, forcing)
        assert [system for system, _ in lus] == ["n", "c", "sigma", "n", "sigma", "c", "u"]
        rng = np.random.default_rng(3)
        for _, fact in lus:
            identity = np.arange(fact.matrix.shape[0])
            assert np.array_equal(fact._lu.perm_r, identity) and np.array_equal(fact._lu.perm_c, identity)
            assert not fact.pivoted
            b = rng.standard_normal(fact.matrix.shape[0])
            x, x_ref = fact.lu_solve(b), pivoting_solve(fact.matrix, b)
            x += fact.lu_solve(b - fact.matrix @ x)
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("preset, mesh, n_steps", [("test1", (16, 8), 10), ("test2", (10, 10), 50)])
    def test_runs_match_an_all_pivoting_run(self, monkeypatch, preset, mesh, n_steps):
        cfg = replace(io_cli.default_config(preset), kx=mesh[0], ky=mesh[1])
        got = _run_levels(cfg, n_steps)
        splu = spla.splu
        with monkeypatch.context() as m:  # every LU in COLAMD order with partial pivoting
            m.setattr(linsolve.spla, "splu", lambda a, **options: splu(a))
            ref = _run_levels(cfg, n_steps)
        _assert_levels_agree(got, ref)


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

    @pytest.mark.parametrize("bad", [-1e-3, math.inf, math.nan, 0.0, True, "x"])
    def test_step_rejects_a_bad_dt(self, bad):
        # rejected before anything is assembled or a solver is cached; True
        # would otherwise advance t by 1.0
        st = Stepper(build_rect_mesh(1, 1, 4, 4), simple_params(alpha0=1.0))
        state = st.init_state(constant_fields(1.0, 1.0), mode="nodal")
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            st.step(state, bad)
        assert st.assembly_time == 0.0
        assert st._solvers == {}

    @pytest.mark.parametrize("degree", [True, 2.5, 3.0, 0, 9])
    def test_stepper_rejects_a_bad_quadrature_degree(self, degree):
        with pytest.raises(ValueError, match="quadrature degree must be an integer in 1..8"):
            Stepper(build_rect_mesh(1, 1, 2, 2), simple_params(), quad_degree=degree)

    def test_stepper_takes_a_numpy_quadrature_degree(self):
        st = Stepper(build_rect_mesh(1, 1, 2, 2), simple_params(), quad_degree=np.int64(5))
        assert type(st.ctx.rule.degree) is int and st.ctx.rule.degree == 5

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
        levels = st.run(TimeGrid(dt=1e-5, n_steps=10), data, mode="elliptic_projection")
        masses = np.array([rec["mass"] for _state, rec in levels])
        assert np.abs(masses - masses[0]).max() <= 1e-10 * abs(masses[0])

    @settings(max_examples=25, deadline=None)
    @given(data=hst.data())
    def test_mass_conserved_from_random_data(self, data):
        # a random zero-mean density perturbation, transported by a random
        # (not divergence-free) velocity with chemotaxis and gravity on
        st = Stepper(build_rect_mesh(1.5, 1.0, 4, 3),
                     simple_params(chi=3.0, gamma=2.0, alpha0=2.0, grad_phi=(0.0, -50.0)))
        unit = hst.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
        n = data.draw(hnp.arrays(np.float64, st.layout_n.n_dofs, elements=unit))
        n -= (st.w_p1 @ n) / st.area
        u = data.draw(hnp.arrays(np.float64, st.layout_u.n_dofs, elements=unit))
        u[st.layout_u.constrained_dofs] = 0.0
        state = State(m=0, t=0.0, n=n, c=np.ones(st.layout_c.n_dofs),
                      sigma=np.zeros(st.layout_sigma.n_dofs), u=u,
                      pi=np.zeros(st.layout_pi.n_dofs))
        mass0 = st.mass_of_eta(state)
        for _ in range(3):
            state, _ = st.step(state, 1e-3)
            assert abs(st.mass_of_eta(state) - mass0) <= 1e-10 * abs(mass0)


class TestRun:
    def test_every_record_carries_its_assembly_time(self):
        mesh = build_rect_mesh(1, 1, 6, 6)
        st = Stepper(mesh, manufactured.test2_params())
        data = manufactured.test2_initial_data()
        for mode, init_assembles in (("nodal", False), ("elliptic_projection", True)):
            records = [rec for _state, rec in st.run(TimeGrid(dt=2e-4, n_steps=2), data, mode=mode,
                                                     forcing=manufactured.test2_forcing())]
            times = [rec["assembly_time"] for rec in records]
            assert (times[0] > 0.0) == init_assembles
            assert all(t > 0.0 for t in times[1:])
            assert all("factor_time_u" in rec for rec in records[1:])

    @pytest.mark.parametrize("mode", ["nodal", "elliptic_projection"])
    def test_every_level_has_the_record_keys(self, mode):
        st = Stepper(build_rect_mesh(1, 1, 4, 4), manufactured.test2_params())
        records = [rec for _state, rec in st.run(TimeGrid(dt=2e-4, n_steps=2),
                                                 manufactured.test2_initial_data(), mode=mode,
                                                 forcing=manufactured.test2_forcing())]
        assert len(records) == 3
        for rec in records:
            assert sorted(rec) == sorted(RECORD_KEYS) and len(RECORD_KEYS) == 37
        # the initial level solves no step: exactly its 20 solver entries are None
        none = [[k for k, v in rec.items() if v is None] for rec in records]
        assert len(none[0]) == 20 and none[1:] == [[], []]
        assert all(k.startswith(("solver_", "iterations_", "residual_", "factor_time_",
                                 "solve_time_")) for k in none[0])

    def test_zero_steps_returns_initial_state(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        st = Stepper(mesh, simple_params(alpha0=1.0))
        states = [state for state, _rec in st.run(TimeGrid(dt=1e-3, n_steps=0),
                                                  constant_fields(1.0, 1.0), mode="nodal")]
        assert len(states) == 1
        assert states[0].m == 0

    def test_memory_does_not_grow_with_steps(self):
        # each level is discarded as it is read, so the run must keep none
        st = Stepper(build_rect_mesh(1.0, 1.0, 10, 10), manufactured.test2_params())
        data, forcing = manufactured.test2_initial_data(), manufactured.test2_forcing()

        def peak(n_steps):
            tracemalloc.start()
            try:
                for _level in st.run(TimeGrid(dt=2e-4, n_steps=n_steps), data, mode="nodal",
                                     forcing=forcing):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # first-step factorizations of the cached operators
        assert peak(40) <= peak(10) + 64 * 1024

        # a step of a new dt drops the solvers of the last one: steps over
        # 30 step sizes (two each) keep four solvers, as over 5
        def varying(n_sizes):
            tracemalloc.start()
            try:
                state = st.init_state(data, mode="nodal")
                for m in range(2 * n_sizes):
                    state, _ = st.step(state, 2e-4 * (1.0 + (m // 2) / 100), forcing)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        varying(5)
        assert varying(30) <= varying(5) + 64 * 1024
        assert len(st._solvers) == 4

    def test_diagnostics_fields(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        st = Stepper(mesh, simple_params(alpha0=1.0, gamma=2.0))
        *_, (_state, rec) = st.run(TimeGrid(dt=1e-3, n_steps=2), constant_fields(1.0, 1.0),
                                   mode="nodal")
        for key in ("m", "t", "mass", "div_residual", "residual_n", "max_c", "min_eta"):
            assert key in rec

    def test_records_read_the_pinned_values(self):
        st = Stepper(build_rect_mesh(1, 1, 4, 4), manufactured.test2_params())
        state = st.init_state(manufactured.test2_initial_data(), mode="nodal")
        rec = st._diagnostics_record(state, {})
        assert rec["max_pinned_u"] == rec["max_pinned_sigma"] == 0.0
        state.u[st.layout_u.constrained_dofs[3]] = -2.5
        state.sigma[st.layout_sigma.constrained_dofs[-1]] = 0.75
        rec = st._diagnostics_record(state, {})
        assert (rec["max_pinned_u"], rec["max_pinned_sigma"]) == (2.5, 0.75)

    def test_diagnostics_carry_solver_timings(self):
        mesh = build_rect_mesh(1, 1, 4, 4)
        st = Stepper(mesh, manufactured.test2_params())
        levels = st.run(TimeGrid(dt=2e-4, n_steps=2), manufactured.test2_initial_data(),
                        mode="nodal", forcing=manufactured.test2_forcing())
        for _state, rec in list(levels)[1:]:
            for system in ("n", "sigma", "c", "u"):
                for key in ("residual", "factor_time", "solve_time"):
                    value = rec[f"{key}_{system}"]
                    assert np.isfinite(value) and value >= 0.0

    def test_records_name_each_solver(self):
        mesh = build_rect_mesh(1, 1, 6, 6)
        st = Stepper(mesh, manufactured.test2_params())
        levels = st.run(TimeGrid(dt=2e-4, n_steps=3), manufactured.test2_initial_data(),
                        mode="nodal", forcing=manufactured.test2_forcing())
        _initial, first, *later = [rec for _state, rec in levels]
        for system in ("n", "sigma", "c", "u"):
            assert first[f"solver_{system}"] == "lu"
            assert all(rec[f"solver_{system}"] == "cached-lu" for rec in later)
            for rec in [first, *later]:
                passes = rec[f"iterations_{system}"]
                assert isinstance(passes, int) and 1 <= passes <= linsolve.MAX_REFINE_PASSES

    def test_factor_time_counts_each_factorization_once(self, monkeypatch):
        # one flux factorization per dt, whatever the number of steps
        unpaid, original = [], linsolve.KeptLU.__init__

        def recording(self, *args, **kwargs):
            original(self, *args, **kwargs)
            if self.operator.matrix.shape[0] == st.layout_sigma.n_dofs:  # a sigma solver
                unpaid.append(self._unpaid)  # the time of its first sum and LU

        monkeypatch.setattr(linsolve.KeptLU, "__init__", recording)
        mesh = build_rect_mesh(1, 1, 6, 6)
        st = Stepper(mesh, manufactured.test2_params())
        data, forcing = manufactured.test2_initial_data(), manufactured.test2_forcing()
        records = []
        for dt in (2e-4, 1e-4):
            levels = st.run(TimeGrid(dt=dt, n_steps=4), data, mode="nodal", forcing=forcing)
            steps = [rec for _state, rec in levels][1:]
            records += steps
            paid = [rec["factor_time_sigma"] > 0 for rec in steps]
            assert paid == [True, False, False, False]
        assert len(unpaid) == 2  # the nodal init factors nothing
        assert sum(rec["factor_time_sigma"] for rec in records) == sum(unpaid)

    def test_blow_up_stops_the_run(self):
        # the lagged scheme blows up on test1 at dt=1e-2 while every solve
        # meets its residual bound: |u| grows from 1.4e3 to 2.6e4 to 3.7e6 over
        # steps 2-4 and would reach 2.5e11 by step 5.  Step 3's mass drift is
        # rounding (1.8e-10 or 2.5e-11 with another saddle LU ordering), near
        # the 1e-10 bound, so the test pins that the gates stop the run, not
        # the step at which they do.
        cfg = io_cli.default_config("test1")
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, 20, 20)
        params, data, _ = io_cli.build_problem(cfg, mesh)
        st = Stepper(mesh, params)
        grid = TimeGrid(dt=1e-2, n_steps=5)
        levels = []
        with pytest.raises(InvariantError) as e:
            for level in st.run(grid, data, mode="elliptic_projection"):
                levels.append(level)
        k = stopped_step(st, e.value, levels)
        assert k <= 4
        assert levels[k][1]["solver_u"] == "lu-fallback"


class TestCachedFactorizations:
    """The step solves n, c and (u, pi) through LUs of their transport-free
    operators, refined against the step's own; a fresh LU of each step's
    matrix, built from the operators directly, is the path it replaces."""

    @staticmethod
    def fresh_lu_step(st, prev, dt, forcing):
        p, npi = st.params, st.layout_pi.n_dofs
        n_skew, u_skew, loads = lagged_matrices(st, prev, prev.t + dt, forcing)
        a_n = st.M / dt + st.K * p.D_n + n_skew
        a_n = apply_constraints(a_n, st.layout_n, weight_vector=st.w_p1)
        rhs_n = asm.constrain_rhs(st.M @ prev.n / dt + loads["n"], st.layout_n)
        n = pivoting_solve(a_n, rhs_n)[: st.layout_n.n_dofs]
        a_c = st.M / dt + st.K * p.D_c + n_skew
        c = pivoting_solve(a_c, st.M @ prev.c / dt + loads["c"])
        s = st.M_u / dt + st.K_u * (p.D_u / p.rho) + u_skew
        u, pi = bordered_saddle_reference(st, s, st.M_u @ prev.u / dt + loads["u"], np.zeros(npi))
        return {"n": n, "c": c, "u": u, "pi": pi}

    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_matches_fresh_lu_steps(self, preset):
        st, state, dt, forcing = _preset_case(preset)
        for m in range(1, 6):
            fresh = self.fresh_lu_step(st, state, dt, forcing)
            state, reports = st.step(state, dt, forcing)
            for system in ("n", "c", "u"):
                assert reports[system].kind == ("lu" if m == 1 else "cached-lu")
            for name, ref in fresh.items():
                assert np.abs(getattr(state, name) - ref).max() <= 1e-10 * np.abs(ref).max(), name
        assert np.abs(state.u).max() > 0.0

    def test_diverging_refinement_falls_back(self, monkeypatch):
        # at dt=1e-2 the transport outweighs M/dt and the refinement diverges
        cfg = io_cli.default_config("test1")
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, 20, 20)
        params, data, _ = io_cli.build_problem(cfg, mesh)
        st = Stepper(mesh, params)
        dt = 1e-2
        prev = st.init_state(data, mode="elliptic_projection")
        for _ in range(2):
            prev, _ = st.step(prev, dt)
        factored, original = [], linsolve.Factorization.__init__

        def recording(self, a):
            original(self, a)
            factored.append(self.pivoted)

        monkeypatch.setattr(linsolve.Factorization, "__init__", recording)
        state, reports = st.step(prev, dt)
        assert {reports[s].kind for s in ("n", "c", "u")} == {"lu-fallback"}
        # the fresh LUs of n, c and the condensed (u, pi) include the skew
        # transport, which keeps their symmetric parts positive definite:
        # they take no pivots either
        assert factored == [False] * 3
        assert reports["sigma"].kind == "cached-lu"
        # the step's own concentration system, rebuilt, meets the bound
        n_skew, _, loads = lagged_matrices(st, prev, prev.t + dt)
        a_c = st.M / dt + st.K * params.D_c + n_skew
        b = st.M @ prev.c / dt + loads["c"]
        residual = np.linalg.norm(b - a_c @ state.c)
        assert residual <= linsolve.RTOL * (
            np.linalg.norm(a_c.data) * np.linalg.norm(state.c) + np.linalg.norm(b)
        )

    @pytest.mark.parametrize("k", [10, 20])
    def test_fallback_meets_the_divergence_gate(self, k):
        # criterion 7 at dt=1e-2: the first x of step 3's fresh (u, pi) LU
        # meets the RTOL bound but leaves the continuity rows at 2-3e-9, above
        # its rounding floor, so it takes a refinement pass (the relative mass
        # drift, 1e-11 to 2e-10 here, is the rounding of a blown-up density
        # and is not gated)
        cfg = io_cli.default_config("test1")
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, k, k)
        params, data, _ = io_cli.build_problem(cfg, mesh)
        st = Stepper(mesh, params)
        state = st.init_state(data, mode="elliptic_projection")
        for _ in range(3):
            state, reports = st.step(state, 1e-2)
            assert st.divergence_residual(state) <= DIVERGENCE_TOL
        assert reports["u"].kind == "lu-fallback"

    def test_slow_refinement_falls_back_early(self):
        # at dt=1e-3 on 10x10 the density refinement contracts too slowly to
        # meet the bound within the pass cap: the fresh LU takes over after
        # two passes, while c and u still converge through their cached LUs
        cfg = io_cli.default_config("test1")
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, 10, 10)
        params, data, _ = io_cli.build_problem(cfg, mesh)
        st = Stepper(mesh, params)
        state = st.init_state(data, mode="elliptic_projection")
        for _ in range(3):
            state, reports = st.step(state, 1e-3)
        assert (reports["n"].kind, reports["n"].iterations) == ("lu-fallback", 2 + 1)
        assert reports["c"].kind == reports["u"].kind == "cached-lu"

    def test_one_solver_class_for_every_system(self):
        st, state, dt, forcing = _preset_case("test2")
        st.step(state, dt, forcing)
        solvers = {system: st._solver(system, dt) for system in ("n", "sigma", "c", "u")}
        assert {type(solver) for solver in solvers.values()} == {linsolve.KeptLU}
        assert isinstance(solvers["u"].lu, CondensedSaddle)
        assert solvers["sigma"].operator.nnz == 0  # sigma's operator takes no transport

    def test_a_stepped_stepper_is_freed_without_the_cycle_collector(self):
        # no kept solver refers back to the object that keeps it (the (u, pi)
        # KeptLU holds its factored CondensedSaddle, which holds its LU), so
        # the last reference to a Stepper frees its LUs at once, not at the
        # next run of the cyclic garbage collector
        st, state, dt, forcing = _preset_case("test2")
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(2):
                state, _ = st.step(state, dt, forcing)
            solvers = list(st._solvers.values())
            kept = solvers + [s.lu for s in solvers if isinstance(s, linsolve.KeptLU)]
            kept += [st._solver("u", dt).lu.lu, st._operator("u").factor.__self__]  # the saddle
            refs = [weakref.ref(obj) for obj in [st] + kept]
            del st, solvers, kept
            assert [ref() is None for ref in refs] == [True] * len(refs)
        finally:
            if enabled:
                gc.enable()


class TestFirstStepLUs:
    """Each kept LU factors the operator of the first step of its dt, its
    transport included; ``oracles.transport_free_solver``, which keeps the LUs
    of the transport-free operators, is the path it replaces."""

    @pytest.mark.parametrize("mode", ["nodal", "elliptic"])
    @pytest.mark.parametrize("preset, mesh, n_steps", [("test1", (16, 8), 10), ("test2", (10, 10), 50)])
    def test_runs_match_the_transport_free_lus(self, monkeypatch, preset, mesh, n_steps, mode):
        cfg = replace(io_cli.default_config(preset), kx=mesh[0], ky=mesh[1], init_mode=mode)
        got = _run_levels(cfg, n_steps)
        with monkeypatch.context() as m:
            m.setattr(Stepper, "_solver", transport_free_solver)
            ref = _run_levels(cfg, n_steps)
        _assert_levels_agree(got, ref, lambda n, n_ref: n <= n_ref)
        if preset == "test1":  # from rest: the same LUs, bit-identical fields
            for (state, _), (ref_state, _) in zip(got, ref):
                for name in ("n", "c", "sigma", "u", "pi"):
                    assert getattr(state, name).tobytes() == getattr(ref_state, name).tobytes()


class TestOneTransportKernel:
    """Runs whose transports come from the one MINI element kernel agree with
    runs whose transports come from the per-layout kernel with a global
    transpose (``oracles.skew_by_global_transpose``), the path it replaces."""

    @pytest.mark.parametrize("preset, mesh, n_steps", [("test1", (16, 8), 10), ("test2", (10, 10), 50)])
    def test_runs_match_the_oracle_path(self, monkeypatch, preset, mesh, n_steps):
        cfg = replace(io_cli.default_config(preset), kx=mesh[0], ky=mesh[1])
        got = _run_levels(cfg, n_steps)
        with monkeypatch.context() as m:
            m.setattr(asm, "assemble_skew_data", lambda layouts, velocity, ctx: [
                skew_by_global_transpose(lay, velocity, ctx).data for lay in layouts])
            ref = _run_levels(cfg, n_steps)
        _assert_levels_agree(got, ref)


class TestCoefficientForms:
    """A step's loads and transports, built from element coefficients and
    reference integrals, against the point-value path they replace
    (``oracles.lagged_forms_at_points``: fields at the quadrature points,
    generic loads, the kernel's point table)."""

    @staticmethod
    def case(preset, degree, gravity="constant"):
        """A stepper of ``test1`` on 16x8 or ``test2`` at k=10 (forced) on the
        rule of ``degree``, three steps in, with the preset's grad_phi or, for
        ``gravity`` "tilted", one with both components nonzero."""
        cfg = io_cli.default_config(preset)
        if preset == "test1":
            cfg = replace(cfg, kx=16, ky=8)
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
        params, data, forcing = io_cli.build_problem(cfg, mesh)
        if gravity == "tilted":
            params = replace(params, grad_phi=(700.0, -1300.0))
        st = Stepper(mesh, params, quad_degree=degree)
        state = st.init_state(data, mode=io_cli.INIT_MODES[cfg.init_mode])
        for _ in range(3):  # test1 starts at rest
            state, _ = st.step(state, cfg.dt, forcing)
        return st, state, cfg.dt, forcing

    @pytest.mark.parametrize("gravity", ["constant", "tilted"])
    @pytest.mark.parametrize("degree", [8, 4, 2])
    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_match_the_point_value_path(self, preset, degree, gravity):
        st, state, dt, forcing = self.case(preset, degree, gravity)
        args = (state, state.t + dt, forcing)
        n_data, u_data, loads = st.lagged_forms(*args)
        n_ref, u_ref, loads_ref = lagged_forms_at_points(st, *args)
        assert loads.keys() == loads_ref.keys()
        for got, ref in [(n_data, n_ref), (u_data, u_ref)] + [(loads[k], loads_ref[k]) for k in loads]:
            assert got.shape == ref.shape and np.abs(ref).max() > 0.0
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("preset, mesh, n_steps", [("test1", (16, 8), 10), ("test2", (10, 10), 50)])
    def test_runs_match_the_point_value_path(self, monkeypatch, preset, mesh, n_steps):
        cfg = replace(io_cli.default_config(preset), kx=mesh[0], ky=mesh[1])
        got = _run_levels(cfg, n_steps)
        with monkeypatch.context() as m:
            m.setattr(Stepper, "lagged_forms", lagged_forms_at_points)
            ref = _run_levels(cfg, n_steps)
        _assert_levels_agree(got, ref)

    def test_forcing_free_forms_evaluate_no_field_at_the_points(self, monkeypatch):
        st, state, dt, _ = self.case("test1", 8)
        st = Stepper(st.mesh, st.params)  # its moment tables not built yet

        def refuse(*args):
            raise AssertionError("a field was evaluated at the quadrature points")

        monkeypatch.setattr(asm.DiscreteField, "values", refuse)
        monkeypatch.setattr(asm, "at_points", refuse)
        for _ in range(2):
            n_data, u_data, loads = st.lagged_forms(state, state.t + dt)
        assert np.abs(n_data).max() > 0.0 and np.abs(loads["u"]).max() > 0.0


class TestStepOperators:
    """Each step adds its transport to the kept transport-free operator in
    place, on the layout's pattern; the scipy sums it replaces are the
    reference."""

    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_equal_the_scipy_sums(self, preset):
        st, state, dt, forcing = _preset_case(preset)
        for _ in range(3):  # test1 starts at rest
            n_skew, u_skew, _ = lagged_matrices(st, state, state.t + dt, forcing)
            state, _ = st.step(state, dt, forcing)
        assert n_skew.count_nonzero() > 0 and u_skew.count_nonzero() > 0
        assert st.G.nnz == asm.pressure_plan(st.layout_u).nnz  # G keeps its exact zeros
        op_n, op_c = st._solver("n", dt).operator, st._solver("c", dt).operator
        kept_n, kept_c = st._solver("n", dt).kept, st._solver("c", dt).kept
        p = st.params
        a_n = apply_constraints(st.M * (1.0 / dt) + st.K * p.D_n, st.layout_n, weight_vector=st.w_p1)
        a_c = st.M * (1.0 / dt) + st.K * p.D_c
        s = st.M_u * (1.0 / dt) + st.K_u * (p.D_u / p.rho)
        t_ref = bordered_saddle_matrix(st, s)
        proj = projector(st.layout_u.n_dofs, st.layout_u.constrained_dofs)[0]

        def resized(skew, shape):
            skew = skew.copy()
            skew.resize(shape)
            return skew

        pairs = [  # n and c kept in node order
            (op_n.matrix, (a_n + resized(n_skew, a_n.shape))[kept_n][:, kept_n].sorted_indices()),
            (op_c.matrix, (a_c + n_skew)[kept_c][:, kept_c].sorted_indices()),
            # the transport is dropped in the pinned rows and columns
            (st._solver("u", dt).operator.matrix,
             t_ref + resized(proj @ u_skew @ proj, t_ref.shape)),
        ]
        for got, ref in pairs:
            assert_same_csr(got, ref)

    @pytest.mark.parametrize("preset, mesh", [("test1", None), ("test2", None), ("test2", (1, 1))])
    def test_pinned_dofs_are_identity_rows(self, preset, mesh):
        # sigma's kept matrix is the free block of the eliminated operator in
        # node order, bit for bit, then an identity block (on a 1x1 mesh every
        # sigma dof is pinned); the pinned rows and columns of it and of the
        # (u, pi) matrix T store their diagonal 1 alone
        if mesh is None:
            st, state, dt, forcing = _preset_case(preset)
        else:
            st, data, dt, forcing = TestInitialProjections.case(preset, mesh)
            state = st.init_state(data, mode="nodal")
        st.step(state, dt, forcing)
        got = st._solver("sigma", dt).operator.matrix
        kept, pinned = st._operator("sigma").selection.kept, st.layout_sigma.constrained_dofs
        a = divrot_matrix(st.mesh, st.divrot) + st.M_sigma * (1.0 / dt)
        ref = apply_constraints(a, st.layout_sigma)[kept][:, kept].sorted_indices()
        ref.eliminate_zeros()
        assert_same_csr(got, ref)
        n_free = len(kept) - len(pinned)
        assert np.array_equal(kept[n_free:], pinned)
        t, u_pinned = st._solver("u", dt).operator.matrix, st.layout_u.constrained_dofs
        for m, rows in ((got, np.arange(n_free, len(kept))), (t, u_pinned)):
            for part in (m[rows], m.T.tocsr()[rows]):  # the rows, then the columns
                assert part.nnz == len(rows)
                assert np.array_equal(part.indices, rows) and np.all(part.data == 1.0)

    def test_lus_factor_the_kept_operators(self, monkeypatch):
        # at dt = 1/1200, M/dt + K cancels exactly on some edges of the k=10
        # mesh: the LUs keep those positions of the node-ordered pattern,
        # sigma's holds its pinned dofs as identity rows, and none pivots
        st, state, _, forcing = _preset_case("test2")
        dt = 1.0 / 1200
        assert np.any((st.M * (1.0 / dt)).data + st.K.data == 0.0)
        lus = _recorded_lus(monkeypatch, st)
        st.step(state, dt, forcing)
        assert [system for system, _ in lus] == ["n", "sigma", "c", "u"]
        sizes = [st.mesh.n_nodes + 1, 2 * st.mesh.n_nodes, st.mesh.n_nodes, len(st._solver("u", dt).lu.kept)]
        assert [fact.matrix.shape[0] for _, fact in lus] == sizes
        assert not any(fact.pivoted for _, fact in lus)
        assert np.any(lus[2][1].matrix.data == 0.0)  # the cancelled entries stay stored

    @pytest.mark.parametrize("system", ["n", "c", "u"])
    def test_wrong_length_transport_rejected(self, system):
        # a transport is data in the slot order of its layout's scatter plan;
        # the data of the other layout, one slot short or as a matrix do not fit
        st, _, dt, _ = _preset_case("test2")
        own, other = (st.M_u, st.M) if system == "u" else (st.M, st.M_u)
        solver = st._solver(system, dt, np.zeros(own.nnz))
        b = np.zeros(solver.operator.matrix.shape[0])
        for bad in (other.data, own.data[:-1], own.data[:, None]):
            with pytest.raises(ValueError, match="transport data has shape"):
                solver.solve(b, bad)

    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_a_step_builds_only_its_transport_matrices(self, monkeypatch, preset):
        st, state, dt, forcing = _preset_case(preset)
        state, _ = st.step(state, dt, forcing)  # builds the cached operators
        built = []
        original = _compressed._cs_matrix.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self).__name__)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_compressed._cs_matrix, "__init__", counting)
        st.step(state, dt, forcing)
        assert built == []  # the transports are data on the kept operators' patterns


class TestOneOperatorForm:
    """Every LU's operator is mass A + diffusion B of its system's pair,
    formed by ``Stepper._kept_lu`` alone: the init projections and the step
    solvers differ only in the two scales.  The operators written out from
    the assembled matrices are the reference."""

    def test_init_operators_equal_their_formulas(self, monkeypatch):
        # test2's data at k=10 project to nonzero n, c, sigma and (u, pi);
        # D_c and D_u other than 1 tell each scale apart (rho stays 1: the
        # reference's sparse G / rho multiplies by 1 / rho, which rounds apart)
        cfg = io_cli.default_config("test2")
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
        p = replace(manufactured.test2_params(), D_c=0.5, D_u=2.0)
        st, made, original = Stepper(mesh, p), {}, Stepper._kept_lu

        def recording(self, system, *args):
            made[system] = original(self, system, *args)
            return made[system]

        monkeypatch.setattr(Stepper, "_kept_lu", recording)
        st.init_state(manufactured.test2_initial_data(), mode="elliptic_projection")
        assert list(made) == ["n", "c", "sigma", "u"]
        refs = {
            "n": apply_constraints(st.K, st.layout_n, weight_vector=st.w_p1),  # K bordered by w
            "c": st.K + st.M,
            # with sigma's pinned dofs as identity rows
            "sigma": apply_constraints(divrot_matrix(mesh, st.divrot) * (1.0 / p.D_c) + st.M_sigma,
                                       st.layout_sigma),
        }
        for system, ref in refs.items():  # each in its system's order
            kept = st._operator(system).selection.kept
            ref = ref[kept][:, kept].sorted_indices()
            ref.eliminate_zeros()
            assert_same_csr(made[system].operator.matrix, ref)
        assert_same_csr(made["u"].operator.matrix, bordered_saddle_matrix(st, st.K_u * p.D_u))
        assert all(solver.operator.nnz == 0 for solver in made.values())  # no transport

    def test_every_lu_but_a_fallback_is_built_by_kept_lu(self, monkeypatch):
        # test1 on 10x10 at dt = 1e-2: init factors n, c and sigma (the fluid
        # is at rest), step 1 the four kept LUs, and later steps fall back
        st, data, _, forcing = TestInitialProjections.case("test1", (10, 10))
        forming, made = [], []  # the system _kept_lu is forming; that of each LU
        kept_lu, factor = Stepper._kept_lu, linsolve.Factorization.__init__

        def counting(self, system, *args):
            forming.append(system)
            try:
                return kept_lu(self, system, *args)
            finally:
                forming.pop()

        def recording(self, a):
            factor(self, a)
            made.append(forming[-1] if forming else None)

        monkeypatch.setattr(Stepper, "_kept_lu", counting)
        monkeypatch.setattr(linsolve.Factorization, "__init__", recording)
        state, fallbacks = st.init_state(data, mode="elliptic_projection"), 0
        for _ in range(4):
            state, reports = st.step(state, 1e-2, forcing)
            fallbacks += sum(report.kind == "lu-fallback" for report in reports.values())
        assert made[:7] == ["n", "c", "sigma", "n", "sigma", "c", "u"]
        assert made[7:] == [None] * fallbacks and fallbacks > 0


class TestConsistency:
    def test_discrete_residual_first_order_sweep(self):
        # plugging exact-field interpolants (levels m and m-1) into the
        # forced concentration system: the residual shrinks by >= 1.8x per
        # simultaneous halving of dt and h (first order in dt plus h^2)
        sol = manufactured.test2_solution()
        forcing = manufactured.test2_forcing()
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
            prev = State(m=0, t=0.0, n=n0, c=c0, sigma=np.zeros(st.layout_sigma.n_dofs),
                         u=u0, pi=np.zeros(st.layout_pi.n_dofs))
            skew, _, loads = lagged_matrices(st, prev, dt, forcing)
            a_c = st.M * (1.0 / dt) + st.K * params.D_c + skew
            r = a_c @ c1 - (st.M @ c0 / dt + loads["c"])
            riesz, _ = exact_solve(st.M, r)
            norms.append(math.sqrt(abs(r @ riesz)))
        assert norms[0] / norms[1] >= 1.8
        assert norms[1] / norms[2] >= 1.8


class TestOneSortPerStepper:
    """A ``Stepper`` sorts one scatter plan, its mesh's P1 plan, and derives
    every other; its steps build none."""

    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_one_sorted_plan_and_none_per_step(self, monkeypatch, preset):
        made = recorded_sorts(monkeypatch)
        st, state, dt, forcing = _preset_case(preset)  # on a fresh mesh
        assert made == [(st.mesh.n_nodes, st.mesh.n_nodes)]
        for _ in range(3):
            state, _ = st.step(state, dt, forcing)
        assert len(made) == 1

    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_matrices_equal_the_sorted_plan_sums(self, preset):
        st = _preset_case(preset)[0]
        for name, ref in stepper_matrices_by_sorted_plans(st).items():
            got = divrot_matrix(st.mesh, st.divrot) if name == "divrot" else getattr(st, name)
            assert got.shape == ref.shape, name
            for field in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, field), getattr(ref, field)), (name, field)


def _recorded_lus(monkeypatch, st):
    """(system, Factorization) of each LU built from now on,
    the system told apart by its size against the layouts of ``st``."""
    sizes = {st.layout_n.n_dofs + 1: "n", st.layout_c.n_dofs: "c", st.layout_sigma.n_dofs: "sigma"}
    made, original = [], linsolve.Factorization.__init__

    def recording(self, a):
        original(self, a)
        made.append((sizes.get(a.shape[0], "u"), self))

    monkeypatch.setattr(linsolve.Factorization, "__init__", recording)
    return made


def _run_levels(cfg, n_steps):
    """(state, LU passes per system) of each level of a run of ``cfg``, the
    initial level (no passes) first."""
    mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, forcing = io_cli.build_problem(cfg, mesh)
    st = Stepper(mesh, params)
    state = st.init_state(data, mode=io_cli.INIT_MODES[cfg.init_mode])
    out = [(state, {})]
    for _ in range(n_steps):
        state, reports = st.step(state, cfg.dt, forcing)
        out.append((state, {name: rep.iterations for name, rep in reports.items()}))
    return out


def _assert_levels_agree(got, ref, passes_agree=lambda n, n_ref: abs(n - n_ref) <= 1):
    """Every field of every level within 1e-12 of ``ref``'s largest entry,
    and LU passes of each system and step that ``passes_agree``, by default
    within one."""
    assert len(got) == len(ref)
    for (state, passes), (ref_state, ref_passes) in zip(got, ref):
        for name in ("n", "c", "sigma", "u", "pi"):
            a, b = getattr(state, name), getattr(ref_state, name)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name
        assert passes.keys() == ref_passes.keys()
        assert all(passes_agree(passes[k], ref_passes[k]) for k in ref_passes)
    assert np.abs(got[-1][0].u).max() > 0.0


def assert_same_csr(got, ref):
    """``got`` without its stored zeros equals ``ref`` entry by entry, bit for bit."""
    got = got.copy()
    got.eliminate_zeros()
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def _saddle_solve(st, solver, transport, rhs_u, rhs_pi):
    """(u, pi, SolveReport) of the (u, pi) ``linsolve.KeptLU`` ``solver`` of
    ``st`` for ``transport``, its right-hand side bordered as ``Stepper.step``
    poses it: rhs_u without its pinned entries, rhs_pi, and the border's 0."""
    nu = st.layout_u.n_dofs
    b = np.concatenate([rhs_u, rhs_pi, [0.0]])
    b[st.layout_u.constrained_dofs] = 0.0
    x, report = solver.solve(b, transport)
    return x[:nu], x[nu:-1], report


def _captured_saddle_solves(monkeypatch, st):
    """(transport, rhs_u, rhs_pi, (u, pi, SolveReport)) of each (u, pi) solve of ``st``."""
    calls, original = [], linsolve.KeptLU.solve
    nu, npi = st.layout_u.n_dofs, st.layout_pi.n_dofs

    def recording(self, b, transport):
        x, report = original(self, b, transport)
        if len(b) == nu + npi + 1:
            calls.append((transport, b[:nu].copy(), b[nu:-1].copy(), (x[:nu], x[nu:-1], report)))
        return x, report

    monkeypatch.setattr(linsolve.KeptLU, "solve", recording)
    return calls


def _preset_case(preset):
    """Stepper, initial state, step size and forcing of ``test1`` on 12x6
    (elliptic init) or ``test2`` at k=10 (nodal init)."""
    if preset == "test1":
        cfg = replace(io_cli.default_config("test1"), kx=12, ky=6)
        mode = "elliptic_projection"
    else:
        cfg = io_cli.default_config("test2")  # k = 10
        mode = "nodal"
    mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
    params, data, forcing = io_cli.build_problem(cfg, mesh)
    st = Stepper(mesh, params)
    return st, st.init_state(data, mode=mode), cfg.dt, forcing


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
        calls = _captured_saddle_solves(monkeypatch, st)
        refined, original = [], linsolve.refined_solve

        def recording(b, inverse, a, abs_a, paid, fresh_inverse=None):
            out = original(b, inverse, a, abs_a, paid, fresh_inverse)
            refined.append((a.copy(), b, out[0]))
            return out

        monkeypatch.setattr(linsolve, "refined_solve", recording)
        state = st.init_state(data, mode="elliptic_projection")
        p = st.params
        if solve == "stokes_init":
            skew, rhs_u, rhs_pi, (u, pi, report) = calls[0]
            assert skew.shape == (0,)  # the Stokes projection takes no transport
            assert abs(rhs_pi.sum()) > 1e-3 * np.abs(rhs_pi).max()
            s_matrix = st.K_u * p.D_u
        else:
            state, _ = st.step(state, dt, forcing)  # test1 starts at rest
            state, _ = st.step(state, dt, forcing)
            skew, rhs_u, rhs_pi, (u, pi, report) = calls[-1]
            skew = asm.square_plan(st.layout_u).csr(skew)
            assert np.abs(state.u).max() > 0.0 and skew.count_nonzero() > 0
            s_matrix = (st.M_u / dt + st.K_u * (p.D_u / p.rho)) + skew
        u_ref, pi_ref = bordered_saddle_reference(st, s_matrix, rhs_u, rhs_pi)
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
        assert np.abs(pi - pi_ref).max() <= 1e-10 * np.abs(pi_ref).max()
        assert abs(st.w_p1 @ pi) <= 1e-12 * np.abs(pi).max()
        assert np.all(u[st.layout_u.constrained_dofs] == 0.0)
        # it meets the residual bound of the full system through the LU it
        # was given: the exact Stokes LU with one refinement pass at most, a
        # step's kept LU without a fallback; the accepted x of the bordered
        # system is at its rounding floor
        if solve == "stokes_init":
            assert report.kind == "lu" and report.iterations <= 2
        else:
            assert report.kind == "cached-lu"
        saddle_size = st.layout_u.n_dofs + st.layout_pi.n_dofs + 1
        a, b, x = [call for call in refined if len(call[1]) == saddle_size][-1]
        assert np.array_equal(x[:st.layout_u.n_dofs], u)
        assert componentwise_backward_error(a, x, b) <= linsolve.FLOOR * np.finfo(float).eps

    def test_condensed_system_size(self, monkeypatch):
        st, data, dt, forcing = _saddle_case("test2")
        sizes = []
        original = linsolve.Factorization.__init__

        def recording(self, a):
            sizes.append(a.shape[0])
            original(self, a)

        monkeypatch.setattr(linsolve.Factorization, "__init__", recording)
        zero = np.zeros(st.M_u.nnz)
        rhs_u, rhs_pi = np.ones(st.layout_u.n_dofs), np.zeros(st.layout_pi.n_dofs)
        _saddle_solve(st, st._solver("u", dt, zero), zero, rhs_u, rhs_pi)
        free_nodal = 2 * st.mesh.n_nodes - len(st.layout_u.constrained_dofs)
        assert sizes == [free_nodal + st.layout_pi.n_dofs - 1]

    # (solve, preset) of each kept condensed LU; "test2-dt1e-2" is test2 at
    # k=10 with elliptic init at dt=1e-2, the largest first transport
    KEPT = [("stokes_init", "test1"), ("stokes_init", "test2"),
            ("step", "test1"), ("step", "test2"), ("step", "test2-dt1e-2")]

    @staticmethod
    def kept_operator(preset, solve):
        """Condensed (u, pi) matrix of the kept LU of the first step of a
        ``_preset_case`` or of "test2-dt1e-2", or of its init Stokes
        projection, its LU, the number of its velocity unknowns and the
        permutation of its rows and columns from the node order to velocities
        first."""
        if preset == "test2-dt1e-2":
            st, data, _, forcing = TestInitialProjections.case("test2")
            state, dt = st.init_state(data, mode="elliptic_projection"), 1e-2
        else:
            st, state, dt, forcing = _preset_case(preset)
        p = st.params
        if solve == "step":
            st.step(state, dt, forcing)
            solver = st._solver("u", dt)
        else:  # as init_state builds it
            solver = st._kept_lu("u", 0.0, p.D_u, np.zeros(0))
        fact = solver.lu.lu
        velocity_first = np.argsort(solver.lu.kept >= st.layout_u.n_dofs, kind="stable")
        a = fact.matrix[velocity_first][:, velocity_first]
        return st, a, fact, a.shape[0] - (st.layout_pi.n_dofs - 1), velocity_first

    @pytest.mark.parametrize("solve, preset", KEPT)
    def test_condensed_operator_is_quasi_definite(self, preset, solve):
        # with its pressure rows scaled by 1/rho, the condensed operator has a
        # positive definite symmetric part, so every symmetric ordering has
        # nonzero pivots: the kept LU, in the node order, took
        # none.  Without transport (the Stokes projection, test1's first step
        # from rest) it is quasi-definite: [[A, B^T], [B, -C]] with A and C
        # positive definite once its pressure rows are scaled by -1/rho
        st, a, fact, n_vel, _ = self.kept_operator(preset, solve)
        scale = np.ones(a.shape[0])
        scale[n_vel:] = 1.0 / st.params.rho
        k = (sp.diags(scale) @ a).toarray()
        assert np.linalg.eigvalsh(k + k.T).min() > 0.0
        identity = np.arange(a.shape[0])
        assert np.array_equal(fact._lu.perm_r, identity) and np.array_equal(fact._lu.perm_c, identity)
        velocity = k[:n_vel, :n_vel]
        transported = np.abs(velocity - velocity.T).max() > 1e-14 * np.abs(k).max()
        assert transported == (solve == "step" and preset != "test1")
        if not transported:
            k[n_vel:] *= -1.0
            assert np.abs(k - k.T).max() <= 1e-14 * np.abs(k).max()
            assert np.linalg.eigvalsh(k[:n_vel, :n_vel]).min() > 0.0
            assert np.linalg.eigvalsh(k[n_vel:, n_vel:]).max() < 0.0

    @pytest.mark.parametrize("solve, preset", KEPT)
    def test_unpivoted_lu_matches_pivoting_lus(self, preset, solve):
        # the path replaced: SuperLU's COLAMD ordering with partial pivoting
        # on the same matrix, velocities first.  A single solve of the
        # condensed test1 operator (condition 3e10) through the unpivoted LU
        # differs from the dense LAPACK solve of that matrix by 1e-14 (from
        # LAPACK's solve of the node-ordered matrix by 4e-12, which is
        # LAPACK's own rounding: both LUs, refined, agree to 1e-15); after
        # one refinement pass against the matrix, it agrees with the refined
        # pivoting one to rounding
        st, a, fact, _, first = self.kept_operator(preset, solve)

        def lu_solve(r):  # the kept LU, in the order of ``a``
            y = np.empty_like(r)
            y[first] = r
            return fact.lu_solve(y)[first]

        b = np.random.default_rng(7).standard_normal(a.shape[0])
        x = lu_solve(b)
        assert np.linalg.norm(b - a @ x) <= 1e-15 * np.linalg.norm(a.data) * np.linalg.norm(x)
        x_dense = np.linalg.solve(a.toarray(), b)
        assert np.linalg.norm(x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)
        pivoting = spla.splu(a.tocsc())
        assert not np.array_equal(pivoting.perm_r, pivoting.perm_c)

        def refined(solve):
            y = solve(b)
            return y + solve(b - a @ y)

        x, x_ref = refined(lu_solve), refined(pivoting.solve)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_bookkeeping_matches_slicing(self, preset):
        # D^-1 and the condensed matrix, formed by sparse slicing and
        # products, against the dense Schur complement
        # T_kk - T_kb D^-1 T_bk that numpy forms from T; the saddle matrix,
        # its pinned dofs eliminated on its own pattern, against the
        # P s P + diag(pinned) construction
        st, state, dt, forcing = _preset_case(preset)
        st.step(state, dt, forcing)
        solver = st._solver("u", dt)
        saddle, t = solver.lu, solver.operator.matrix.toarray()  # holding step 1's transport
        _, bubble = st.layout_u.nodal_and_bubble_dofs()
        d = t[np.ix_(bubble, bubble)]
        assert np.array_equal(d, np.diag(np.diag(d)))
        assert np.array_equal(saddle.d_inv, 1.0 / np.diag(d))
        kept = saddle.kept
        ref = t[np.ix_(kept, kept)] - t[np.ix_(kept, bubble)] @ (t[np.ix_(bubble, kept)] / np.diag(d)[:, None])
        got = saddle.lu.matrix
        assert got.has_sorted_indices
        assert np.abs(got.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()
        s = st.M_u * (1.0 / dt) + st.K_u * (st.params.D_u / st.params.rho)
        t0 = st._kept_lu("u", 1.0 / dt, st.params.D_u / st.params.rho, np.zeros(0)).operator.matrix
        assert_same_csr(t0, bordered_saddle_matrix(st, s))
        assert t0.count_nonzero() < t0.nnz  # the pattern is kept

    def test_rejects_coupled_bubbles(self):
        st, _, dt, _ = _saddle_case("test2")
        _, bubble = st.layout_u.nodal_and_bubble_dofs()
        s = (st.M_u / dt).tolil()
        s[bubble[0], bubble[1]] = s[bubble[1], bubble[0]] = 1.0
        with pytest.raises(ValueError, match="not diagonal"):
            CondensedSaddle(s.tocsr(), st.G, st.layout_u, st.w_p1, st.params.rho)

    def test_residual_of_full_system_is_enforced(self, monkeypatch):
        # a condensation that solves a wrong system, the kept LU and every
        # fresh one alike, breaks the full system's residual bound
        st, _, dt, _ = _saddle_case("test2")
        exact = CondensedSaddle.lu_solve
        monkeypatch.setattr(CondensedSaddle, "lu_solve", lambda self, r: 0.5 * exact(self, r))
        rhs_u = np.ones(st.layout_u.n_dofs)
        zero = np.zeros(st.M_u.nnz)
        with pytest.raises(linsolve.SingularSystemError):
            _saddle_solve(st, st._solver("u", dt, zero), zero, rhs_u, np.zeros(st.layout_pi.n_dofs))

    def test_corrupted_condensed_lu_is_caught(self, monkeypatch):
        # the condensed LU is applied unchecked; a wrong one is still caught
        # by the residual check of the bordered system, and a fresh LU takes over
        st, data, dt, forcing = _saddle_case("test2")
        state, _ = st.step(st.init_state(data, mode="nodal"), dt, forcing)
        saddle = st._solver("u", dt)
        _, u_data, loads = st.lagged_forms(state, state.t + dt, forcing)
        u_skew = asm.square_plan(st.layout_u).csr(u_data)
        rhs_u, rhs_pi = st.M_u @ state.u / dt + loads["u"], np.zeros(st.layout_pi.n_dofs)
        assert _saddle_solve(st, saddle, u_data, rhs_u, rhs_pi)[2].kind == "cached-lu"
        fact = saddle.lu.lu
        exact = fact.lu_solve
        monkeypatch.setattr(fact, "lu_solve", lambda r: 0.5 * exact(r))
        u, pi, report = _saddle_solve(st, saddle, u_data, rhs_u, rhs_pi)
        assert report.kind == "lu-fallback"
        p = st.params
        s_matrix = st.M_u / dt + st.K_u * (p.D_u / p.rho) + u_skew
        u_ref, pi_ref = bordered_saddle_reference(st, s_matrix, rhs_u, rhs_pi)
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
        assert np.abs(pi - pi_ref).max() <= 1e-10 * np.abs(pi_ref).max()


class TestNodeOrder:
    """One node ordering per mesh, expanded to the kept unknowns of each
    system; every LU factors them in that order without pivoting."""

    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_each_order_is_a_permutation_of_the_kept_unknowns(self, preset):
        st, state, dt, forcing = _preset_case(preset)
        st.step(state, dt, forcing)
        order, nn = st.mesh.node_order, st.mesh.n_nodes
        assert np.array_equal(np.sort(order), np.arange(nn))
        kept = {system: st._operator(system).selection.kept for system in ("n", "c", "sigma")}
        kept["u"] = st._solver("u", dt).lu.kept
        assert np.array_equal(kept["c"], order)
        # n: the border (unknown nn) just before the last node
        assert np.array_equal(kept["n"], np.concatenate([order[:-1], [nn], order[-1:]]))
        pinned = st.layout_sigma.constrained_dofs
        free = len(kept["sigma"]) - len(pinned)
        assert np.array_equal(kept["sigma"][free:], pinned)  # the pinned dofs last
        kept["sigma"] = kept["sigma"][:free]
        assert np.array_equal(np.sort(kept["sigma"]), np.setdiff1d(np.arange(2 * nn), pinned))
        node = kept["sigma"] % nn  # a node's two components next to each other
        rank = np.argsort(order)[node]
        assert np.all(np.diff(rank) >= 0) and np.all(np.diff(kept["sigma"])[np.diff(rank) == 0] == nn)
        nu, ns = st.layout_u.n_dofs, st.layout_u.n_scalar
        nodal = np.setdiff1d(np.concatenate([np.arange(nn), ns + np.arange(nn)]), st.layout_u.constrained_dofs)
        assert np.array_equal(np.sort(kept["u"]), np.concatenate([nodal, nu + np.arange(1, nn)]))
        node = np.where(kept["u"] >= nu, kept["u"] - nu, kept["u"] % ns)
        kind = np.where(kept["u"] >= nu, 2, kept["u"] // ns)
        assert np.all(np.diff(np.argsort(order)[node] * 3 + kind) > 0)  # by node, then u1, u2, pi

    def test_border_last_leaves_a_zero_pivot(self):
        # the init density operator K, bordered: with the border just before
        # the last node every pivot is of the order of K's entries; with the
        # border last, the last node's pivot is the Schur complement of K,
        # which is singular, so it is 0 up to rounding
        st, data, _, _ = TestInitialProjections.case("test1", (24, 12))
        with linsolve.recorded_lus() as lus:
            st.init_state(data, mode="elliptic_projection")
        nn = st.mesh.n_nodes
        kept = st._operator("n").selection.kept
        assert kept[-2] == nn
        density = lus[0]
        assert density.matrix.shape == (nn + 1, nn + 1)

        def pivots(fact):
            d = np.abs(fact._lu.U.diagonal())
            return d.min() / d.max()

        assert pivots(density) > 1e-3
        last = np.concatenate([np.arange(nn - 1), [nn], [nn - 1]])  # swap the last two
        border_last = density.matrix[last][:, last].sorted_indices()
        assert pivots(linsolve.Factorization(border_last)) < 1e-12

    @pytest.mark.parametrize("preset, mesh, dt, n_steps", [
        ("test1", (16, 8), None, 3), ("test2", None, None, 3), ("test1", (10, 10), 1e-2, 4),
    ])
    def test_every_lu_of_a_run_takes_no_pivots(self, preset, mesh, dt, n_steps):
        st, data, cfg_dt, forcing = TestInitialProjections.case(preset, mesh)
        with linsolve.recorded_lus() as lus:
            state = st.init_state(data, mode="elliptic_projection")
            for _ in range(n_steps):
                state, reports = st.step(state, dt or cfg_dt, forcing)
        assert len(lus) >= 3 + 4 and not any(fact.pivoted for fact in lus)
        assert all(np.array_equal(fact._lu.perm_c, np.arange(fact.matrix.shape[0])) for fact in lus)
        if dt:  # the fresh LUs of the fallbacks at dt = 1e-2
            assert {reports[s].kind for s in ("n", "c", "u")} == {"lu-fallback"}

    def test_node_order_is_computed_once_per_mesh_at_the_first_lu(self, monkeypatch):
        calls, original = [], linsolve.graph_order

        def counting(plan):
            calls.append(plan.shape)
            return original(plan)

        monkeypatch.setattr(mesh_module, "graph_order", counting)
        cfg = replace(io_cli.default_config("test1"), kx=12, ky=6)
        mesh = build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky)
        params, data, forcing = io_cli.build_problem(cfg, mesh)
        st = Stepper(mesh, params)
        assert calls == [] and "node_order" not in vars(mesh)  # set-up orders nothing
        state = st.init_state(data, mode="nodal")
        assert calls == []  # the nodal init factors nothing
        state, _ = st.step(state, cfg.dt, forcing)
        assert len(calls) == 1
        other = Stepper(mesh, params)
        other.step(other.init_state(data, mode="elliptic_projection"), cfg.dt, forcing)
        assert len(calls) == 1  # the order is the mesh's, shared by both steppers' LUs
        assert other._operator("c").selection.kept is st._operator("c").selection.kept is mesh.node_order
        build_rect_mesh(cfg.Lx, cfg.Ly, cfg.kx, cfg.ky).node_order
        assert len(calls) == 2  # one per mesh


class TestEdgeMeshes:
    """On 1x1, 1x2 and 2x1 meshes every nodal velocity dof and, on 1x1,
    every sigma dof is pinned: the kept systems are small or empty."""

    @pytest.mark.parametrize("mode", ["elliptic_projection", "nodal"])
    @pytest.mark.parametrize("k", [(1, 1), (1, 2), (2, 1)])
    @pytest.mark.parametrize("preset", ["test1", "test2"])
    def test_init_and_steps_match_pivoting_solves(self, preset, k, mode):
        st, data, dt, forcing = TestInitialProjections.case(preset, k)
        state = st.init_state(data, mode=mode)
        if mode == "elliptic_projection":
            refs = dict(zip(("n", "c", "sigma", "u", "pi"), solved_projections(st, data)))
            for name, ref in refs.items():
                assert np.abs(getattr(state, name) - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)
        for _ in range(2):
            fresh = TestCachedFactorizations.fresh_lu_step(st, state, dt, forcing)
            state, _ = st.step(state, dt, forcing)
            for name, ref in fresh.items():
                assert np.abs(getattr(state, name) - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)
