import math
from unittest import mock

import numpy as np
import pytest

from multisurf import integrators, mlcp
from multisurf.experiments import (galias2007_system, hypomonotone_system,
                                   multisurface_system, simple_system,
                                   zoh_siso_data)
from multisurf.integrators import (SchemeConfig, StepFailure, newton_plan,
                                   simulate_linear, simulate_newton,
                                   simulate_zoh, step_plan, theta_plan,
                                   zoh_discretize)
from multisurf.systems import AffineGainSignSystem, LinearSignSystem


def rk4_matrix_pair(F, h, steps=10000):
    """Fine-step oracle for exp(F h) and its integral over [0, h]."""
    F = np.asarray(F, dtype=float)
    n = F.shape[0]
    X = np.eye(n)
    Y = np.zeros((n, n))
    dt = h / steps

    def rhs(X, Y):
        return F @ X, X

    for _ in range(steps):
        k1x, k1y = rhs(X, Y)
        k2x, k2y = rhs(X + dt / 2 * k1x, Y + dt / 2 * k1y)
        k3x, k3y = rhs(X + dt / 2 * k2x, Y + dt / 2 * k2y)
        k4x, k4y = rhs(X + dt * k3x, Y + dt * k3y)
        X = X + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        Y = Y + dt / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
    return X, Y


def linear_step(sys, x_k, cfg, scheme="implicit"):
    """(x, y, s) of one step of the theta-scheme plan that simulate_linear
    runs."""
    step = theta_plan(sys.E, sys.B, sys.C, sys.D, lambda t: cfg.h * sys.a,
                      cfg, scheme)
    x, y, s, _, _ = step(0, np.asarray(x_k, dtype=float), 0.0, None)
    return x, y, s


def zoh_step(pair, C, D, x_k, mode="implicit"):
    """(x, y, s) of one step of the ZOH plan that simulate_zoh runs."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_1d(np.asarray(D, dtype=float))
    solve = (mlcp.sign_step_solver(C @ pair.Gamma)
             if mode == "implicit" else None)
    x, y, s, _, _ = step_plan(pair.Phi, pair.Gamma, C, D, solve=solve)(
        0, np.asarray(x_k, dtype=float), 0.0, None)
    return x, y, s


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(h=-0.1)
        with pytest.raises(ValueError):
            SchemeConfig(h=float("nan"))
        with pytest.raises(ValueError):
            SchemeConfig(h=0.1, theta=1.5)


class TestStepLinear:
    cfg = SchemeConfig(h=0.2, theta=0.0)

    def test_sliding_approach(self):
        x, _, s = linear_step(simple_system(), [1.01], self.cfg)
        assert np.isclose(x[0], 0.81)
        assert np.isclose(s[0], 1.0)

    def test_sticking_step(self):
        x, _, s = linear_step(simple_system(), [0.01], self.cfg)
        assert abs(x[0]) <= 1e-15
        assert np.isclose(s[0], 0.05)

    def test_stay_at_zero(self):
        x, _, s = linear_step(simple_system(), [0.0], self.cfg)
        assert x[0] == 0.0 and s[0] == 0.0

    def test_singular_drift_rejected(self):
        sys = LinearSignSystem(n=1, m=1, E=[[10.0]], a=[0.0], B=[[1.0]],
                               C=[[1.0]], D=[0.0])
        with pytest.raises(StepFailure):
            linear_step(sys, [1.0], SchemeConfig(h=0.1, theta=1.0))


class TestStepExplicit:
    cfg = SchemeConfig(h=0.2)

    def test_overshoot(self):
        x, _, _ = linear_step(simple_system(), [0.01], self.cfg, "explicit")
        assert np.isclose(x[0], -0.19)

    def test_period2_return(self):
        x, _, _ = linear_step(simple_system(), [-0.19], self.cfg, "explicit")
        assert np.isclose(x[0], 0.01)

    def test_sgn_zero_convention(self):
        x, _, s = linear_step(simple_system(), [0.0], self.cfg, "explicit")
        assert x[0] == 0.0 and s[0] == 0.0


class TestStepNewton:
    def test_hypomonotone_closed_form(self):
        sys = hypomonotone_system()
        cfg = SchemeConfig(h=0.5)
        x1, s1, y1, it = newton_plan(sys, cfg)(np.array([2.0]), 0.0)
        assert abs(x1[0] - (2.0 - 0.5) / 1.5) <= 1e-12
        assert abs(s1[0] - 1.0) <= 1e-12
        assert it <= 10

    def test_hypomonotone_sticking(self):
        sys = hypomonotone_system()
        cfg = SchemeConfig(h=0.5)
        x1, s1, _, _ = newton_plan(sys, cfg)(np.array([0.2]), 0.0)
        assert abs(x1[0]) <= 1e-13
        assert abs(s1[0] - 0.4) <= 1e-12

    def test_rejects_linear_class(self):
        with pytest.raises(TypeError):
            newton_plan(simple_system(), SchemeConfig(h=0.1))(
                np.array([1.0]), 0.0)

    def test_plan_rejects_linear_class(self):
        with pytest.raises(TypeError, match="affine-gain or nonlinear"):
            newton_plan(simple_system(), SchemeConfig(h=0.1))

    def test_simulate_rejects_linear_class_before_any_step(self):
        # the class check comes before sys.surface(x0), which a linear
        # system does not have
        with pytest.raises(TypeError, match="affine-gain or nonlinear"):
            simulate_newton(simple_system(), [1.0], 0.0, 1.0,
                            SchemeConfig(h=0.1))

    def test_plan_reuses_across_steps_and_takes_lists(self):
        sys = hypomonotone_system()
        cfg = SchemeConfig(h=0.1, theta=0.5, gamma=0.5)
        plan = newton_plan(sys, cfg)
        x_k, s_k = [2.0], None
        for k in range(5):
            x, s, y, it = plan(x_k, 0.1 * k, s_k)
            ref = newton_plan(sys, cfg)(np.array(x_k), 0.1 * k, s_k)
            for got, want in zip((x, s, y), ref[:3]):
                assert got.tobytes() == want.tobytes()
            assert it == ref[3]
            x_k, s_k = list(x), s

    def test_drift_free_plan_reuses_the_inverse_of_its_last_s(self):
        # 6 iterations over 5 steps build M for s = 0 and for s = 1 only
        plan = newton_plan(hypomonotone_system(), SchemeConfig(h=0.1))
        x, s = np.array([2.0]), None
        with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
            iters = 0
            for k in range(5):
                x, s, _, it = plan(x, 0.1 * k, s)
                iters += it
        assert iters == 6 and inv.call_count == 2

    def test_inverse_memo_belongs_to_one_plan(self):
        # two plans of one system, with different M for the same s
        sys = hypomonotone_system()
        x_k, s_k = np.array([2.0]), np.array([1.0])
        first = newton_plan(sys, SchemeConfig(h=0.1))
        second = newton_plan(sys, SchemeConfig(h=0.5))
        for plan, h in ((first, 0.1), (second, 0.5), (first, 0.1)):
            got = plan(x_k, 0.0, s_k)
            want = newton_plan(sys, SchemeConfig(h=h))(x_k, 0.0, s_k)
            for a, b in zip(got[:3], want[:3]):
                assert a.tobytes() == b.tobytes()
            assert got[3] == want[3]

    def test_nan_drift_fails_the_step_with_its_residual(self):
        # a NaN iterate must not pass the convergence check
        sys = AffineGainSignSystem(
            n=1, m=1, A_list=([[0.0]],), B_list=([1.0],), C_rows=([1.0],),
            D=[0.0], f=lambda x, t: np.array([math.nan if t > 0.05
                                              else -x[0]]),
            f_jac=lambda x, t: np.array([[-1.0]]))
        traj = simulate_newton(sys, [2.0], 0.0, 1.0, SchemeConfig(h=0.01))
        assert traj.failure is not None
        assert traj.failure.step == 5
        assert traj.failure.message == ("Newton loop did not converge: "
                                        "residual nan after 25 iterations")
        assert np.all(np.isfinite(traj.states))


class TestZohDiscretize:
    def test_trivial_scalar(self):
        pair = zoh_discretize([[0.0]], [[1.0]], [[1.0]], 0.5)
        assert np.isclose(pair.Phi[0, 0], 1.0)
        assert np.isclose(pair.Gamma[0, 0], 0.5)

    def test_nilpotent_exact(self):
        F = [[0.0, 1.0], [0.0, 0.0]]
        pair = zoh_discretize(F, [[0.0], [1.0]], [[1.0, 1.0]], 0.3)
        eFh = np.array([[1.0, 0.3], [0.0, 1.0]])
        intexp = np.array([[0.3, 0.045], [0.0, 0.3]])
        K = np.array([[0.0], [1.0]])
        assert np.allclose(pair.Phi,
                           eFh - intexp @ K @ np.array([[1.0, 1.0]]) @ F,
                           atol=1e-14)
        assert np.allclose(pair.Gamma, intexp @ K, atol=1e-14)

    def test_matches_rk_oracle(self):
        F, G, C = zoh_siso_data()
        h = 0.3
        pair = zoh_discretize(F, G, C, h)
        eFh, intexp = rk4_matrix_pair(F, h)
        K = np.asarray(G) @ np.linalg.inv(np.asarray(C) @ np.asarray(G))
        Phi = eFh - intexp @ K @ np.asarray(C) @ np.asarray(F)
        Gamma = intexp @ K
        assert np.max(np.abs(pair.Phi - Phi)) <= 1e-11
        assert np.max(np.abs(pair.Gamma - Gamma)) <= 1e-11

    def test_singular_cg_rejected(self):
        with pytest.raises(ValueError):
            zoh_discretize([[0.0]], [[1.0]], [[0.0]], 0.1)


class TestStepZoh:
    def test_reduces_to_linear_step(self):
        pair = integrators.ZohPair(Phi=np.eye(1), Gamma=0.2 * np.eye(1))
        zx, _, zs = zoh_step(pair, [[1.0]], [0.0], [1.01])
        lx, _, ls = linear_step(simple_system(), [1.01],
                                SchemeConfig(h=0.2, theta=0.0))
        assert np.allclose(zx, lx, atol=1e-14)
        assert np.allclose(zs, ls, atol=1e-14)

    def test_surface_invariance(self):
        F, G, C = zoh_siso_data()
        pair = zoh_discretize(F, G, C, 0.3)
        # a point already on the surface stays on it
        x = np.array([1.0, -1.0])
        assert abs(np.asarray(C) @ x) <= 1e-14
        _, y, _ = zoh_step(pair, C, [0.0], x)
        assert np.max(np.abs(y)) <= 1e-12

    def test_explicit_mode(self):
        F, G, C = zoh_siso_data()
        pair = zoh_discretize(F, G, C, 0.3)
        x = np.array([0.55, 0.55])
        x1, _, s = zoh_step(pair, C, [0.0], x, mode="explicit")
        assert s[0] == 1.0
        assert np.allclose(x1, pair.Phi @ x - pair.Gamma @ s)


class TestSimulate:
    def test_exact_arrival_simple(self):
        traj = simulate_linear(simple_system(), [1.01], 0.0, 3.0,
                               SchemeConfig(h=0.2))
        assert np.all(np.abs(traj.states[6:, 0]) <= 1e-13)
        assert abs(traj.selections[6, 0] - 0.05) <= 1e-12

    def test_empty_interval(self):
        traj = simulate_linear(simple_system(), [1.0], 0.0, 0.0,
                               SchemeConfig(h=0.2))
        assert len(traj.times) == 1

    def test_multisurface_rest_at_origin(self):
        traj = simulate_linear(multisurface_system(), [1.0, -1.0], 0.0, 2.0,
                               SchemeConfig(h=0.02))
        assert np.max(np.abs(traj.states[-1])) <= 1e-10
        assert np.max(np.abs(traj.outputs[-1])) <= 1e-12

    def test_finite_time_stabilization_grid(self):
        sys = simple_system()
        for h in (1.0, 0.5, 0.2, 0.1, 0.01):
            for x0 in (1.01, -1.01, 0.3, -0.3, 0.0):
                traj = simulate_linear(sys, [x0], 0.0, abs(x0) + 5 * h,
                                       SchemeConfig(h=h))
                k0 = math.ceil(abs(x0) / h)
                assert np.all(np.abs(traj.states[k0:, 0]) <= 1e-13), (h, x0)
                diffs = np.diff(traj.states[k0:, 0]) / h
                assert np.all(np.abs(diffs) <= 1e-13)

    def test_selection_box_invariant(self):
        traj = simulate_linear(galias2007_system(), [0.0, 2.21], 0.0, 15.0,
                               SchemeConfig(h=0.3))
        assert np.max(np.abs(traj.selections[1:])) <= 1 + 1e-9

    def test_surface_persistence(self):
        for sys, x0, h in ((galias2007_system(), [0.0, 2.21], 0.3),
                           (multisurface_system(), [1.0, -1.0], 0.02)):
            traj = simulate_linear(sys, x0, 0.0, 10.0, SchemeConfig(h=h))
            for i in range(sys.m):
                y = np.abs(traj.outputs[:, i])
                hits = np.nonzero(y <= 1e-12)[0]
                assert len(hits) > 0
                assert np.all(y[hits[0]:] <= 1e-12)

    def test_newton_agrees_with_linear_on_affine_data(self):
        # affine-gain encoding of the scalar integrator: gain constant 1
        zero = np.zeros(1)
        affine = AffineGainSignSystem(
            n=1, m=1, A_list=(np.zeros((1, 1)),), B_list=([1.0],),
            C_rows=([1.0],), D=[0.0], f=lambda x, t: zero,
            f_jac=lambda x, t: np.zeros((1, 1)))
        cfg = SchemeConfig(h=0.2)
        for x0 in (1.01, 0.01, -0.4):
            xa, sa, _, it = newton_plan(affine, cfg)(np.array([x0]), 0.0)
            lx, _, ls = linear_step(simple_system(), [x0], cfg)
            assert abs(xa[0] - lx[0]) <= 1e-12
            assert abs(sa[0] - ls[0]) <= 1e-12
            assert it == 1

    def test_newton_termination_hypomonotone(self):
        traj = simulate_newton(hypomonotone_system(), [2.0], 0.0, 5.0,
                               SchemeConfig(h=0.5))
        assert int(np.max(traj.newton_iters)) <= 10

    def test_failure_returns_partial_trajectory(self):
        sys = LinearSignSystem(n=1, m=1, E=[[10.0]], a=[0.0], B=[[1.0]],
                               C=[[1.0]], D=[0.0])
        traj = simulate_linear(sys, [1.0], 0.0, 1.0,
                               SchemeConfig(h=0.1, theta=1.0))
        assert traj.failure is not None
        assert traj.failure.step == 0
        assert len(traj.times) == 1

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "state is not finite"),
        (math.inf, "state is not finite"),
        (-math.inf, "state is not finite"),
        (2e12, "state magnitude exceeded guard 1e+12"),
        (-2e12, "state magnitude exceeded guard 1e+12"),
    ])
    def test_state_check_names_the_failing_step(self, bad, message):
        # step 2 writes `bad` into x_3; the check before step 3 stops the run
        def step(k, x_k, t_k, s_prev):
            x = x_k + 1.0
            if k == 2:
                x[1] = bad
            return x, x[:1], np.zeros(1), None, 0

        traj = integrators.simulate(step, [0.0, 0.0], [0.0], 0.0, 1.0, 0.1)
        assert traj.failure.step == 3 and traj.failure.message == message
        assert traj.failure.time == traj.times[3] and len(traj.times) == 4
        assert traj.states[3, 1] == bad or math.isnan(traj.states[3, 1])

    def test_state_check_prefers_non_finite_and_keeps_the_guard_value(self):
        def step(k, x_k, t_k, s_prev):
            return (np.array([-3e12, math.nan]) if k == 1 else x_k,
                    np.zeros(1), np.zeros(1), None, 0)

        traj = integrators.simulate(step, [1e12, 0.0], [0.0], 0.0, 1.0, 0.1)
        assert traj.failure.step == 2
        assert traj.failure.message == "state is not finite"
        nan0 = integrators.simulate(step, [math.nan, 0.0], [0.0], 0.0, 1.0,
                                    0.1).failure
        assert (nan0.step, nan0.message) == (0, "state is not finite")

    def test_surface_count_comes_from_y0(self):
        def step(k, x_k, t_k, s_prev):
            return x_k, np.zeros(2), np.ones(2), None, 0

        traj = integrators.simulate(step, [1.0], [0.0, 0.0], 0.0, 0.3, 0.1)
        assert traj.m == 2 and traj.selections.shape == (4, 2)
        # a trailing positional m no longer lands in explicit_signs
        with pytest.raises(TypeError):
            integrators.simulate(step, [1.0], [0.0, 0.0], 0.0, 0.3, 0.1, 2)

    @pytest.mark.parametrize("run, x0", [
        (lambda x0: simulate_newton(hypomonotone_system(), x0, 0.0, 1.0,
                                    SchemeConfig(h=0.1)), [1.0, 2.0]),
        (lambda x0: simulate_zoh(zoh_discretize(*zoh_siso_data(), 0.3),
                                 [[1.0, 1.0]], [0.0], x0, 0.0, 1.0, 0.3),
         [1.0]),
    ], ids=["newton", "zoh"])
    def test_x0_length_is_checked(self, run, x0):
        with pytest.raises(ValueError, match="^x0 must have length"):
            run(x0)

    def test_grid_is_capped(self):
        cap = integrators.MAX_STEPS
        assert integrators.grid_steps(0.0, float(cap), 1.0) == cap
        with pytest.raises(ValueError, match=f"h = 1.0 and T = {cap + 1.0} "
                           f"give .* steps, more than the limit of {cap}"):
            integrators.grid_steps(0.0, cap + 1.0, 1.0)
        # (T - t0) / h overflows to inf, which math.ceil would not take
        with pytest.raises(ValueError, match="give inf steps"):
            integrators.grid_steps(-1e308, 1e308, 1.0)

    def test_capped_grid_fails_before_any_allocation(self):
        # 1e12 rows: numpy itself refuses that much memory at once
        with pytest.raises(ValueError, match="give 1e\\+12 steps"):
            integrators.simulate(lambda *a: pytest.fail("stepped"), [1.0],
                                 [0.0], 0.0, 1e12, 1.0)

    def test_grid_is_ceil(self):
        assert integrators.grid_steps(0.0, 3.0, 0.2) == 15
        assert integrators.grid_steps(0.0, 1.0, 0.3) == 4
        assert integrators.grid_steps(0.0, 0.0, 0.1) == 0

    @pytest.mark.parametrize("t0, T, h", [
        (0.0, 1.0, 0.0), (0.0, 1.0, -0.3), (0.0, 1.0, float("nan")),
        (0.0, 1.0, float("inf")), (0.0, float("nan"), 0.1),
        (0.0, float("inf"), 0.1), (float("-inf"), 1.0, 0.1)])
    def test_grid_rejects_bad_grids(self, t0, T, h):
        with pytest.raises(ValueError):
            integrators.grid_steps(t0, T, h)


class TestTrajectoryCsv:
    def test_header_and_precision(self, tmp_path):
        traj = simulate_linear(simple_system(), [1.01], 0.0, 1.0,
                               SchemeConfig(h=0.2))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x0,s0,y0"
        assert len(lines) == len(traj.times) + 1
        # full double precision round-trips
        first = [float(v) for v in lines[2].split(",")]
        assert first[1] == traj.states[1, 0]

    def test_controls_columns(self, tmp_path):
        from multisurf.controllers import EcbSmcController, simulate_ecb
        F, G, C = zoh_siso_data()
        ctl = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3)
        traj = simulate_ecb(ctl, [0.55, 0.55], 0.0, 3.0)
        path = tmp_path / "cl.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,x0,x1,s0,y0,u0"


class TestZohSimulation:
    def test_implicit_no_chatter(self):
        F, G, C = zoh_siso_data()
        pair = zoh_discretize(F, G, C, 0.3)
        traj = simulate_zoh(pair, C, [0.0], [0.55, 0.55], 0.0, 15.0, 0.3)
        y = np.abs(traj.outputs[:, 0])
        hits = np.nonzero(y <= 1e-12)[0]
        assert len(hits) > 0 and np.all(y[hits[0]:] <= 1e-12)

    def test_explicit_period2_tail(self):
        F, G, C = zoh_siso_data()
        pair = zoh_discretize(F, G, C, 0.3)
        traj = simulate_zoh(pair, C, [0.0], [0.55, 0.55], 0.0, 30.0, 0.3,
                            mode="explicit")
        tail = traj.outputs[-12:, 0]
        assert np.max(np.abs(tail[2:] - tail[:-2])) <= 1e-6
        assert np.min(np.abs(tail[1:] - tail[:-1])) > 1e-2
