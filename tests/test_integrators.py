import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisurf import controllers, integrators, mlcp
from multisurf.experiments import (galias2007_system, hypomonotone_system,
                                   lyapunov_system, multisurface_system,
                                   simple_system, zoh_mimo_data,
                                   zoh_siso_data)
from multisurf.integrators import (SchemeConfig, StepFailure, newton_plan,
                                   simulate, simulate_linear, simulate_newton,
                                   step_plan, theta_plan, zoh_discretize)
from multisurf.systems import AffineGainSignSystem, LinearSignSystem
from tests import stepwise


def hypomonotone_pair():
    """`hypomonotone_system` with a second state, dx_1/dt in -(x_0 / 2 +
    1 / 4) sgn(x_0): a drift-free plan with n = 2, which the array loop
    runs."""
    return AffineGainSignSystem(
        n=2, m=1, A_list=([[1.0, 0.0], [0.5, 0.0]],), B_list=([1.0, 0.25],),
        C_rows=([1.0, 0.0],), D=[0.0])


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
    plan = theta_plan(sys.E, sys.B, sys.C, sys.D, lambda t: cfg.h * sys.a,
                      cfg, scheme)
    x, y, s, _, _ = stepwise.row(plan, x_k, 0.0)
    return x, y, s


def zoh_plan(pair, h, C, D, mode="implicit"):
    """The ZOH loop of `pair`, sampled at h, as a bare `step_plan`; implicit
    mode solves the one-step MLCP with W = C Gamma."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_1d(np.asarray(D, dtype=float))
    solver = (mlcp.sign_step_solver(C @ pair.Gamma)
              if mode == "implicit" else None)
    return step_plan(h, pair.Phi, pair.Gamma, C, D, solver=solver)


def zoh_step(pair, h, C, D, x_k, mode="implicit"):
    """(x, y, s) of one step of the ZOH plan: row k + 1 as a run records
    it, so an explicit step's s is sgn(y)."""
    x, y, s, _, _ = stepwise.row(zoh_plan(pair, h, C, D, mode), x_k, 0.0)
    return x, y, s


PLAN_KINDS = ["theta", "newton", "ecb", "lyapunov", "zoh"]
# each kind with its schemes: the Newton plan has no explicit form
PLAN_SCHEMES = [(kind, scheme) for kind in PLAN_KINDS
                for scheme in ("implicit", "explicit")
                if kind != "newton" or scheme == "implicit"]
# each kind's `time_invariant` mark, as the README states it: a linear-class
# plan is marked unless its c is callable (the Lyapunov loop's disturbance
# is), and so is the Newton plan of an affine-gain system without drift
TIME_INVARIANT = {"theta": True, "newton": True, "ecb": True,
                  "lyapunov": False, "zoh": True}


def plan_kinds(scheme="implicit"):
    """A plan of each kind under scheme: the theta-scheme (n = 2), Newton
    (n = 1, implicit only), the ECB-SMC loop (n = 2), the Lyapunov loop
    (n = 1) and a bare ZOH `step_plan` (n = 2)."""
    F, G, C = zoh_siso_data()
    ctl = controllers.EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3,
                                       mode=scheme)
    cfg = SchemeConfig(h=0.1)
    sys = galias2007_system()
    plans = {
        "theta": theta_plan(sys.E, sys.B, sys.C, sys.D, cfg.h * sys.a, cfg,
                            scheme),
        "ecb": controllers.ecb_plan(ctl),
        "lyapunov": controllers.lyapunov_plan(lyapunov_system(), cfg, scheme),
        "zoh": zoh_plan(zoh_discretize(F, G, C, 0.3), 0.3, C, [0.0], scheme),
    }
    if scheme == "implicit":
        plans["newton"] = newton_plan(hypomonotone_system(), cfg)
    return plans


class TestSchemeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeConfig(h=-0.1)
        with pytest.raises(ValueError):
            SchemeConfig(h=float("nan"))
        with pytest.raises(ValueError):
            SchemeConfig(h=0.1, theta=1.5)

    # rejected before any plan multiplies by it
    @pytest.mark.filterwarnings("error")
    def test_infinite_h_is_rejected(self):
        with pytest.raises(ValueError, match="h must be finite and > 0"):
            SchemeConfig(h=float("inf"))


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
        x1, y1, s1, _, it = stepwise.row(newton_plan(sys, cfg), [2.0], 0.0)
        assert abs(x1[0] - (2.0 - 0.5) / 1.5) <= 1e-12
        assert abs(s1[0] - 1.0) <= 1e-12
        assert it <= 10

    def test_hypomonotone_sticking(self):
        sys = hypomonotone_system()
        cfg = SchemeConfig(h=0.5)
        x1, _, s1, _, _ = stepwise.row(newton_plan(sys, cfg), [0.2], 0.0)
        assert abs(x1[0]) <= 1e-13
        assert abs(s1[0] - 0.4) <= 1e-12

    def test_rejects_linear_class(self):
        with pytest.raises(TypeError):
            stepwise.row(newton_plan(simple_system(), SchemeConfig(h=0.1)),
                         [1.0], 0.0)

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
            x, y, s, _, it = stepwise.row(plan, x_k, 0.1 * k, s_k)
            ref = stepwise.row(newton_plan(sys, cfg), np.array(x_k), 0.1 * k,
                               s_k)
            for got, want in zip((x, y, s), ref[:3]):
                assert got.tobytes() == want.tobytes()
            assert it == ref[4]
            x_k, s_k = list(x), s

    def test_inverse_memo_belongs_to_one_plan(self):
        # two plans of one system, with different M for the same s
        sys = hypomonotone_system()
        x_k, s_k = np.array([2.0]), np.array([1.0])
        first = newton_plan(sys, SchemeConfig(h=0.1))
        second = newton_plan(sys, SchemeConfig(h=0.5))
        for plan, h in ((first, 0.1), (second, 0.5), (first, 0.1)):
            got = stepwise.row(plan, x_k, 0.0, s_k)
            want = stepwise.row(newton_plan(sys, SchemeConfig(h=h)), x_k,
                                0.0, s_k)
            for a, b in zip(got[:3], want[:3]):
                assert a.tobytes() == b.tobytes()
            assert got[4] == want[4]

    def test_drift_free_array_run_builds_no_solver(self):
        # the array loop, which n = 2 takes: from x0 = (2.5, 1) the run
        # takes 1,257 steps of 1,259 iterations before its fixed tail, and
        # each iterate's W goes to mlcp.sign_step, which builds no solver
        args = (hypomonotone_pair(), [2.5, 1.0], 0.0, 2.0,
                SchemeConfig(h=1e-3))
        with mock.patch.object(mlcp, "sign_step_solver",
                               side_effect=AssertionError("built")):
            traj = simulate_newton(*args)
        assert traj.steps_taken == 1257
        assert traj.newton_iters[:1258].sum() == 1259

    def test_nan_drift_fails_the_step_with_its_residual(self):
        # a NaN drift makes the step's sign problem NaN, which no solver
        # certifies: the step fails there, with the problem's dump
        sys = AffineGainSignSystem(
            n=1, m=1, A_list=([[0.0]],), B_list=([1.0],), C_rows=([1.0],),
            D=[0.0], f=lambda x, t: np.array([math.nan if t > 0.05
                                              else -x[0]]),
            f_jac=lambda x, t: np.array([[-1.0]]))
        traj = simulate_newton(sys, [2.0], 0.0, 1.0, SchemeConfig(h=0.01))
        assert traj.failure is not None
        assert traj.failure.step == 5
        assert traj.failure.message == ("one-step MLCP infeasible: no "
                                        "active set is feasible")
        assert traj.failure.detail.startswith("SignProblem dim=1\n")
        assert traj.failure.detail.endswith("\nb  nan")
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
        # det 4e-15, cond about 1e16: singular to working precision
        with pytest.raises(ValueError, match="CG must be nonsingular"):
            zoh_discretize(np.eye(2), np.eye(2),
                           [[1.0, 2.0], [2.0, 4.000000000000001]], 0.1)

    @pytest.mark.parametrize("data", [zoh_siso_data, zoh_mimo_data])
    def test_scaled_cg_accepted(self, data):
        # G and C scaled by 1e-8 make CG 1e-16 times the data's, as well
        # conditioned as before; the pair moves by rounding only
        F, G, C = (np.asarray(v, dtype=float) for v in data())
        ref = zoh_discretize(F, G, C, 0.3)
        got = zoh_discretize(F, 1e-8 * G, 1e-8 * C, 0.3)
        assert np.abs(got.Phi - ref.Phi).max() <= 1e-15
        assert np.abs(1e-8 * got.Gamma - ref.Gamma).max() <= 1e-15

    @pytest.mark.parametrize("name", ["F", "G", "C"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_data_rejected(self, name, value):
        # a NaN G once passed with a RuntimeWarning and gave a NaN pair
        data = dict(zip("FGC", (np.array(v, dtype=float)
                                for v in zoh_siso_data())))
        data[name][0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="CG must be nonsingular"):
                zoh_discretize(data["F"], data["G"], data["C"], 0.3)


class TestStepZoh:
    def test_reduces_to_linear_step(self):
        pair = integrators.ZohPair(Phi=np.eye(1), Gamma=0.2 * np.eye(1))
        zx, _, zs = zoh_step(pair, 0.2, [[1.0]], [0.0], [1.01])
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
        _, y, _ = zoh_step(pair, 0.3, C, [0.0], x)
        assert np.max(np.abs(y)) <= 1e-12

    def test_explicit_mode(self):
        F, G, C = zoh_siso_data()
        pair = zoh_discretize(F, G, C, 0.3)
        x = np.array([0.55, 0.55])
        x1, y1, s = zoh_step(pair, 0.3, C, [0.0], x, mode="explicit")
        # the step selects sgn(C x) = 1; the row it fills records sgn(y1)
        assert np.allclose(x1, pair.Phi @ x - pair.Gamma @ [1.0])
        assert s.tobytes() == np.sign(y1).tobytes()


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
            xa, _, sa, _, it = stepwise.row(newton_plan(affine, cfg), [x0],
                                            0.0)
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
        # step 2 adds `bad` to x_3; the check before step 3 stops the run
        def c(t):
            return np.array([1.0, bad if t == 0.2 else 1.0])

        plan = step_plan(0.1, np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                         c=c)
        with np.errstate(invalid="ignore"):
            traj = simulate(plan, [0.0, 0.0], 0.0, 1.0)
        assert traj.failure.step == 3 and traj.failure.message == message
        assert traj.failure.time == traj.times[3] and len(traj.times) == 4
        assert np.array_equal(traj.states[3], [3.0, 2.0 + bad],
                              equal_nan=True)

    def test_state_check_prefers_non_finite_and_keeps_the_guard_value(self):
        def c(t):
            return np.array([-4e12, math.nan] if t == 0.1 else [0.0, 0.0])

        plan = step_plan(0.1, np.eye(2), np.zeros((2, 1)), np.zeros((1, 2)),
                         c=c)
        with np.errstate(invalid="ignore"):
            traj = simulate(plan, [1e12, 0.0], 0.0, 1.0)
            nan0 = simulate(plan, [math.nan, 0.0], 0.0, 1.0).failure
        assert traj.failure.step == 2
        assert traj.failure.message == "state is not finite"
        assert (nan0.step, nan0.message) == (0, "state is not finite")

    def test_surface_count_comes_from_the_plan(self):
        plan = step_plan(0.1, np.eye(1), np.ones((1, 2)), np.ones((2, 1)))
        traj = simulate(plan, [1.0], 0.0, 0.3)
        assert plan.m == traj.m == 2 and traj.selections.shape == (4, 2)
        # a trailing positional m is rejected
        with pytest.raises(TypeError):
            simulate(plan, [1.0], 0.0, 0.3, 2)

    @pytest.mark.parametrize("kind", PLAN_KINDS)
    def test_x0_length_is_checked(self, kind):
        plan = plan_kinds()[kind]
        for x0 in ([1.0] * (plan.n + 1), [1.0] * (plan.n - 1)):
            with pytest.raises(ValueError,
                               match=f"^x0 must have length {plan.n}"):
                simulate(plan, x0, 0.0, 1.0)

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
        plan = step_plan(1.0, np.eye(1), np.eye(1), np.eye(1))
        plan.advance = lambda *a: pytest.fail("stepped")
        with pytest.raises(ValueError, match="give 1e\\+12 steps"):
            simulate(plan, [1.0], 0.0, 1e12)

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

    def test_streamed_rows_match_one_format_per_row(self, tmp_path):
        # the chunked `%.17g` writer against a writer that formats each
        # row with `{:.17g}`: signed zeros, NaN, the infinities, subnormals
        # and the largest finite value, over one row more than a chunk
        edge = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.2250738585072014e-308 / 3, 1.7976931348623157e308, 0.1,
                -1.0 / 3.0, 1e-300, 123456789.0]
        rows = integrators.CSV_ROWS + 1
        col = np.resize(np.array(edge), rows)
        traj = integrators.Trajectory(
            times=np.arange(rows) * 0.1, states=np.stack([col, col[::-1]], 1),
            selections=-col[:, None], outputs=np.roll(col, 5)[:, None],
            controls=np.roll(col, 2)[:, None])
        path = tmp_path / "edge.csv"
        traj.to_csv(path)
        row = ",".join(["{:.17g}"] * 6).format
        table = np.hstack([traj.times[:, None], traj.states,
                           traj.selections, traj.outputs, traj.controls])
        want = "t,x0,x1,s0,y0,u0\n" + "".join(
            row(*r) + "\n" for r in table.tolist())
        assert path.read_text() == want

    def test_controls_columns(self, tmp_path):
        F, G, C = zoh_siso_data()
        ctl = controllers.EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3)
        traj = simulate(controllers.ecb_plan(ctl), [0.55, 0.55], 0.0, 3.0)
        path = tmp_path / "cl.csv"
        traj.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,x0,x1,s0,y0,u0"


class TestZohSimulation:
    def test_implicit_no_chatter(self):
        F, G, C = zoh_siso_data()
        pair = zoh_discretize(F, G, C, 0.3)
        traj = simulate(zoh_plan(pair, 0.3, C, [0.0]), [0.55, 0.55], 0.0,
                        15.0)
        y = np.abs(traj.outputs[:, 0])
        hits = np.nonzero(y <= 1e-12)[0]
        assert len(hits) > 0 and np.all(y[hits[0]:] <= 1e-12)

    def test_explicit_period2_tail(self):
        F, G, C = zoh_siso_data()
        pair = zoh_discretize(F, G, C, 0.3)
        traj = simulate(zoh_plan(pair, 0.3, C, [0.0], "explicit"),
                        [0.55, 0.55], 0.0, 30.0)
        tail = traj.outputs[-12:, 0]
        assert np.max(np.abs(tail[2:] - tail[:-2])) <= 1e-6
        assert np.min(np.abs(tail[1:] - tail[:-1])) > 1e-2


class TestStepMarks:
    """What a plan carries -- h, n, m, its output map and whether it
    records controls -- is all that `simulate(plan, x0, t0, T)` reads, so
    a run takes no flag, step size or y0 that could contradict the plan.
    What the scheme asks for beyond that, an explicit run's selections and
    the last held control, the plan's `advance` records."""

    @pytest.mark.parametrize("flag", ["explicit_signs", "record_controls",
                                      "h", "y0"])
    def test_simulate_takes_no_flags(self, flag):
        plan = plan_kinds()["newton"]
        with pytest.raises(TypeError):
            simulate(plan, [1.0], 0.0, 0.3, **{flag: True})

    @pytest.mark.parametrize("kind", PLAN_KINDS)
    def test_time_step_is_the_plans(self, kind):
        plan = plan_kinds()[kind]
        traj = simulate(plan, [0.5] * plan.n, 0.0, 1.0)
        assert traj.times.tobytes() == \
            (plan.h * np.arange(len(traj.times))).tobytes()
        assert traj.m == plan.m
        assert (traj.controls is not None) == plan.controlled
        assert traj.outputs[0].tobytes() == \
            plan.output(np.full(plan.n, 0.5)).tobytes()

    @pytest.mark.parametrize("kind, scheme", PLAN_SCHEMES)
    def test_builders_return_a_plan_with_its_mark(self, kind, scheme):
        plan = plan_kinds(scheme)[kind]
        assert isinstance(plan, integrators.Plan)
        assert plan.time_invariant == TIME_INVARIANT[kind]

    @pytest.mark.parametrize("x0", [0.5, 2e12])
    @pytest.mark.parametrize("kind, scheme", PLAN_SCHEMES)
    def test_run_equals_the_stepwise_run(self, kind, scheme, x0):
        # array by array as bytes, from a state within the guard and from
        # one past it, whose failure at step 0 both record
        plan = plan_kinds(scheme)[kind]
        args = (plan, [x0] * plan.n, 0.0, 3.0)
        got = simulate(*args)
        ref = stepwise.run(*args, explicit=scheme == "explicit")
        for name in ("times", "states", "selections", "outputs", "controls",
                     "newton_iters"):
            a, b = getattr(got, name), getattr(ref, name)
            assert (a is None) == (b is None), name
            assert a is None or a.tobytes() == b.tobytes(), name
        assert got.failure == ref.failure
        assert (got.failure is None) == (x0 == 0.5)

    @pytest.mark.parametrize("control", [None, lambda x, s: -s])
    def test_singular_drift_fails_at_step_0(self, control):
        # I - h theta E = 1 - 0.5 * 2 is singular; the plan is built, and
        # its run fails at step 0 with the drift's message, after the guard
        plan = theta_plan(np.array([[2.0]]), np.eye(1), np.eye(1), None,
                          None, SchemeConfig(h=0.5), "implicit",
                          control=control)
        traj = simulate(plan, [1.0], 0.0, 2.0)
        assert (traj.failure.step, traj.failure.message) == (
            0, "singular implicit drift matrix I - h*theta*E")
        assert traj.failure.detail is None
        assert traj.steps_taken == 0 and len(traj.times) == 1
        assert (traj.controls is None) == (control is None)
        assert simulate(plan, [2e12], 0.0, 2.0).failure.message == \
            "state magnitude exceeded guard 1e+12"
        with pytest.raises(StepFailure, match="singular implicit drift"):
            stepwise.row(plan, np.ones(1), 0.0)

    @pytest.mark.parametrize("scheme", ["implicit", "explicit"])
    def test_selections_follow_the_scheme(self, scheme):
        sys, cfg, x0 = simple_system(), SchemeConfig(h=0.3), np.array([1.0])
        plan = theta_plan(sys.E, sys.B, sys.C, sys.D, cfg.h * sys.a, cfg,
                          scheme)
        assert not plan.controlled
        traj = simulate(plan, x0, 0.0, 3.0)
        # an implicit step's selection is s_{k+1}, in row k + 1; an
        # explicit one's is the sign of y_k, which the run holds in row k
        ref = stepwise.run(plan, x0, 0.0, 3.0,
                           explicit=scheme == "explicit")
        if scheme == "explicit":
            want = np.sign(traj.outputs)
        else:
            want = ref.selections
            # sliding: |s| < 1 holds the output at 0
            assert np.any(np.abs(want[1:, 0]) < 1.0)
        assert traj.selections.tobytes() == want.tobytes()
        assert traj.selections.tobytes() == ref.selections.tobytes()
        assert traj.controls is None

    @pytest.mark.parametrize("mode", ["implicit", "explicit"])
    def test_controlled_plan_records_its_controls(self, mode):
        F, G, C = zoh_siso_data()
        ctl = controllers.EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3,
                                           mode=mode)
        plan = controllers.ecb_plan(ctl)
        assert plan.controlled and plan.h == ctl.h
        traj = simulate(plan, [0.55, 0.55], 0.0, 3.0)
        # u_k = -(C G)^-1 (C F x_k + alpha s), s the selection of step k,
        # and the last held control repeated in the final row
        neg_CGinv, CF = -np.linalg.inv(ctl.C @ ctl.G), ctl.C @ ctl.F
        used = traj.selections[:-1] if mode == "explicit" \
            else traj.selections[1:]
        want = [neg_CGinv @ (CF @ x + ctl.alpha * s)
                for x, s in zip(traj.states[:-1], used)]
        assert traj.controls.tobytes() == np.array(
            want + want[-1:]).tobytes()


def product_step(Phi, Gamma, C, D, L, c, solver, rho):
    """`step_plan`'s step with every operator applied as a product."""
    def step(k, x_k, t_k, s_prev):
        free = Phi @ x_k if c is None else Phi @ x_k + c
        if solver is None:
            s = np.sign(C @ x_k if D is None else C @ x_k + D)
        else:
            b = C @ (free if L is None else L @ free)
            s = solver.solve(b if D is None else b + D)
        x = free - Gamma @ (s if rho is None else rho * s)
        if L is not None:
            x = L @ x
        return x, (C @ x if D is None else C @ x + D), s, None, 0
    return step


def _values(rng, k, kind):
    """None, or k entries of one kind: signed zeros alone, signed zeros
    among small values, or magnitudes near 1e300."""
    if kind == "none":
        return None
    if kind == "zero":
        return rng.choice([-0.0, 0.0], k)
    v = rng.uniform(-1.0, 1.0, k)
    if kind == "signed-zero":
        zero = rng.random(k) < 0.5
        v[zero] = rng.choice([-0.0, 0.0], zero.sum())
    else:
        v = rng.choice([-1.0, 1.0], k) * rng.uniform(0.5, 1.0, k) * 1e300
    return v


def operator_run(seed, E_kind, C_kind, c_kind, D_kind, theta, scheme, big,
                 with_rho):
    """A plan's arguments, with one solver each for it and a reference, and
    an x0 with signed zeros, subnormals and entries at +-STATE_GUARD."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = n if C_kind == "eye" else int(rng.integers(1, n + 1))
    h = 0.01
    E = (rng.choice([-0.0, 0.0], (n, n)) if E_kind == "zero"
         else 0.3 * rng.standard_normal((n, n)))
    if C_kind == "eye":
        C = np.eye(n)
    elif C_kind == "rows":
        C = np.zeros((m, n))
        C[np.arange(m), rng.integers(0, n, m)] = rng.uniform(0.5, 2.0, m) \
            * rng.choice([-1.0, 1.0], m)
    else:
        C = rng.standard_normal((m, n))
    Gamma = h * (rng.standard_normal((n, m)) + np.eye(n, m))
    if rng.random() < 0.5:
        # g_i = +0.0: x_i keeps the sign of a zero free_i
        Gamma[rng.integers(n)] = rng.choice([-0.0, 0.0])
    if big:
        # Gamma s overflows where two entries of s share a sign; W stays
        # finite when C does not read x_0 (lstsq can hang on an infinite W)
        Gamma[0] = 1e308 * rng.choice([-1.0, 1.0])
        if scheme == "implicit":
            C[:, 0] = 0.0
    rho = rng.uniform(0.5, 2.0, m) if with_rho else None
    x0 = rng.uniform(-1.0, 1.0, n)
    pick = rng.integers(0, 4, n)
    x0[pick == 1] = rng.choice([-0.0, -0.0, 0.0], (pick == 1).sum())
    x0[pick == 2] = rng.integers(-3, 4, (pick == 2).sum()) * 5e-324
    x0[pick == 3] = rng.choice([-1e12, 1e12], (pick == 3).sum())
    args = dict(h=h, C=C, D=_values(rng, m, D_kind),
                c=_values(rng, n, c_kind), rho=rho)
    if scheme == "explicit":
        args.update(Phi=np.eye(n) + h * E, Gamma=Gamma, L=None)
        solvers = (None, None)
    else:
        L = np.linalg.inv(np.eye(n) - h * theta * E)
        W = C @ L @ Gamma
        W = W if rho is None else W @ np.diag(rho)
        args.update(Phi=np.eye(n) + h * (1 - theta) * E, Gamma=Gamma, L=L)
        solvers = (mlcp.sign_step_solver(W), mlcp.sign_step_solver(W))
    return args, solvers, x0, h


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       E_kind=st.sampled_from(["zero", "general"]),
       C_kind=st.sampled_from(["eye", "rows", "general"]),
       c_kind=st.sampled_from(["none", "signed-zero", "huge"]),
       D_kind=st.sampled_from(["none", "zero", "signed-zero", "huge"]),
       theta=st.sampled_from([0.5, 1.0]),
       scheme=st.sampled_from(["implicit", "explicit"]),
       big=st.booleans(), with_rho=st.booleans())
# a zero D folded away under C = I, from an x0 with -0.0 entries, whose
# explicit sign is 0.0
@example(seed=0, E_kind="zero", C_kind="eye", c_kind="none", D_kind="zero",
         theta=1.0, scheme="explicit", big=False, with_rho=False)
@example(seed=0, E_kind="zero", C_kind="eye", c_kind="none", D_kind="zero",
         theta=1.0, scheme="implicit", big=False, with_rho=False)
def test_plan_step_equals_the_all_product_step(seed, E_kind, C_kind, c_kind,
                                               D_kind, theta, scheme, big,
                                               with_rho):
    # an operator that is exactly I applies as + 0.0 only where its operand
    # stays finite; a Gamma whose product overflows keeps the products, and
    # the run records the same states and failure
    args, (solver, ref_solver), x0, h = operator_run(
        seed, E_kind, C_kind, c_kind, D_kind, theta, scheme, big, with_rho)
    ref_step = product_step(**{k: args[k] for k in ("Phi", "Gamma", "C",
                                                    "D", "L", "c", "rho")},
                            solver=ref_solver)
    plan = step_plan(**args, solver=solver)
    with np.errstate(all="ignore"):
        # the reference takes h and y0 = C x0 + D from the plan, every step
        # from the all-product step
        ref = stepwise.run(plan, x0, 0.0, 4 * h, step=ref_step,
                           explicit=scheme == "explicit")
        got = simulate(plan, x0, 0.0, 4 * h)
    for name in ("times", "states", "selections", "outputs", "newton_iters"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), \
            name
    assert got.failure == ref.failure


def test_overflowing_gamma_keeps_its_products():
    # E = 0, so Phi and L are exactly I; C does not see x_0, whose step
    # overflows: L @ [-inf, v] is [-inf, nan], which the run records
    Gamma = np.array([[1.7e308], [0.01]])
    args = dict(h=0.01, Phi=np.eye(2), Gamma=Gamma,
                C=np.array([[0.0, 1.0]]), D=None, L=np.eye(2),
                c=np.array([-1e308, 1.0]), rho=None)
    x0 = np.array([0.5, 0.25])
    with np.errstate(all="ignore"):
        got = simulate(
            step_plan(**args, solver=mlcp.sign_step_solver([[0.01]])), x0,
            0.0, 0.03)
    assert got.failure.step == 1 and got.failure.message == \
        "state is not finite"
    assert got.states[1][0] == -np.inf and np.isnan(got.states[1][1])



GUARD = integrators.STATE_GUARD
# the guard's edge values: signed zeros, NaN, the infinities, the guard and
# its float neighbours, subnormals, and finite values whose sum overflows
GUARD_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, GUARD, -GUARD,
               np.nextafter(GUARD, 0.0), np.nextafter(GUARD, math.inf),
               -np.nextafter(GUARD, math.inf), 5e-324, -5e-324,
               2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
               0.6 * GUARD]


def _reduction_verdict(x):
    """The message of the guard as one reduction, or None where it passes."""
    mag = float(np.abs(x).max())
    if not mag < math.inf:
        return "state is not finite"
    if mag > GUARD:
        return "state magnitude exceeded guard 1e+12"
    return None


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.sampled_from(GUARD_EDGES), st.floats()),
                min_size=1, max_size=12))
@example([1e308, 1e308])                   # finite entries, the sum overflows
@example([1e308, 1e308, math.nan])
@example([0.6 * GUARD, 0.6 * GUARD])      # sum above the guard, max within
@example([GUARD, 5e-324])
def test_guard_accepts_what_the_reduction_accepts(x):
    x = np.array(x)
    try:
        integrators._check_state(x)
        verdict = None
    except StepFailure as exc:
        verdict = exc.message
    assert verdict == _reduction_verdict(x)


@contextlib.contextmanager
def counted_answers():
    """Patch `mlcp.sign_step_solver` so that the records it builds count
    the calls of their answer; yields the list of counts, one per record
    that has an answer."""
    build, counts = mlcp.sign_step_solver, []

    def counted(W):
        solver = build(W)
        if solver.answer is None:
            return solver
        counts.append(0)
        i = len(counts) - 1

        def answer(b):
            counts[i] += 1
            return solver.answer(b)
        return mlcp.SignSolver(solver.solve, solver.saturated_run, solver.W,
                               answer)
    with mock.patch.object(mlcp, "sign_step_solver", counted):
        yield counts


def flat_system(seed, m, h, saturated, scale):
    """(B, c, D, x0) of a flat plan (E = 0, C = I) built as the benchmark's
    `mimo-pivot` systems: B = I + 0.3 G / |G|_2, so W = h B is a P-matrix,
    the drift c = h B d with |d_i| in [1.5, 2.5] on `saturated` surfaces
    and |d_i| <= 0.4 on the rest, and -0.0 entries in c, D and x0, whose
    entries are up to `scale`."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, m))
    B = np.eye(m) + 0.3 * G / np.linalg.norm(G, 2)
    d = rng.uniform(-0.4, 0.4, m)
    sat = rng.permutation(m)[:saturated]
    d[sat] = rng.choice([-1.0, 1.0], saturated) * rng.uniform(1.5, 2.5,
                                                              saturated)
    c = h * (B @ d)
    c[rng.random(m) < 0.3] = -0.0
    x0 = scale * rng.uniform(-1.0, 1.0, m)
    x0[rng.random(m) < 0.3] = -0.0
    return B, c, rng.choice([-0.0, 0.0], m), x0


def flat_runs(B, c, D, x0, h, steps):
    """The run of the flat plan through `theta_plan`, whose warm solver's
    answer gives x_{k+1}, and through `step_plan` with a record of only the
    solve and saturated_run of a second solver of the same W, so that the
    step forms free - Gamma s."""
    m, cfg = len(B), SchemeConfig(h=h)
    E, C = np.zeros((m, m)), np.eye(m)
    plan = theta_plan(E, B, C, D, c, cfg, "implicit")
    warm = mlcp.sign_step_solver(h * C @ np.eye(m) @ B)
    ref = step_plan(h, np.eye(m), h * B, C, D, L=np.eye(m), c=c,
                    solver=mlcp.SignSolver(warm.solve, warm.saturated_run))
    return (simulate(plan, x0, 0.0, steps * h),
            simulate(ref, x0, 0.0, steps * h))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 8),
       h=st.floats(1e-3, 0.1), saturated=st.sampled_from(["none", "half",
                                                          "all"]),
       scale=st.sampled_from([0.0, 0.3, 5.0]), zero_drift=st.booleans())
# every surface saturated from far off: the reaching-phase block
@example(seed=2, m=4, h=0.01, saturated="all", scale=5.0, zero_drift=False)
# no drift: the state settles at +-0.0 and the run ends in the fixed tail
@example(seed=3, m=4, h=0.01, saturated="none", scale=0.3, zero_drift=True)
def test_flat_plan_answer_step_keeps_the_bytes(seed, m, h, saturated, scale,
                                               zero_drift):
    # x_{k+1} = y from the warm pivot, against free - Gamma s: the same
    # states, outputs, selections, steps taken and failure, byte for byte
    k = {"none": 0, "half": m // 2, "all": m}[saturated]
    B, c, D, x0 = flat_system(seed, m, h, k, scale)
    if zero_drift:
        c = np.where(np.signbit(c), -0.0, 0.0)
    with counted_answers() as counts:
        got, ref = flat_runs(B, c, D, x0, h, 60)
    # theta_plan's W = (h I) I B has the bytes of Gamma = h B
    assert counts == [got.steps_taken, 0]
    for name in ("states", "outputs", "selections"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), \
            name
    assert (got.steps_taken, got.failure) == (ref.steps_taken, ref.failure)


@pytest.mark.parametrize("change", [None, "rho", "D", "C", "E", "driven",
                                    "explicit", "layout"])
def test_answer_gives_the_step_of_flat_plans_only(change):
    # a flat plan (E = 0, C = I, no rho, a zero D, a constant c) calls its
    # solver's answer once per step taken; any other plan, never.  A
    # column-major B keeps Gamma = h B column-major while W is row-major,
    # and a product by either layout may round differently
    h, m = 0.01, 4
    B, c, D, x0 = flat_system(2, m, h, m, 5.0)
    E, C, rho, scheme = np.zeros((m, m)), np.eye(m), None, "implicit"
    if change == "rho":
        rho = np.full(m, 1.5)
    elif change == "D":
        D = np.full(m, 0.1)
    elif change == "C":
        C = 2.0 * np.eye(m)
    elif change == "E":
        E = -0.1 * np.eye(m)
    elif change == "driven":
        c = lambda t, c=c: c  # noqa: E731
    elif change == "explicit":
        scheme = "explicit"
    elif change == "layout":
        B = np.asfortranarray(B)
    with counted_answers() as counts:
        plan = theta_plan(E, B, C, D, c, SchemeConfig(h=h), scheme, rho=rho)
        traj = simulate(plan, x0, 0.0, 1.0)
    assert traj.failure is None
    if change is None:
        # the reaching-phase block fills rows that take no step
        assert counts == [traj.steps_taken] and traj.steps_taken < 100
    else:
        assert sum(counts) == 0
