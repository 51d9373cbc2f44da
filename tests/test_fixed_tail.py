"""The fixed tail: a time-invariant plan stops once a step repeats.

A marked plan is a function of (x_k, s_k) alone: a linear-class plan
without a time-driven input, or the Newton plan of an affine-gain system
without smooth drift, which warm-starts from s_k.  Once a marked plan's
step returns both x_k and s_k byte for byte every later step returns the
same results, and the plan's `advance` fills the remaining rows instead of
stepping.  Each run here is compared, array by array as bytes, with a
step-by-step reference: the same plan run by `tests/stepwise.py`, which
calls its `advance` once for every row.  `Trajectory.steps_taken` counts
the steps a run took.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisurf import controllers, integrators, mlcp
from multisurf.experiments import (hypomonotone_system, run_experiment,
                                   simple_system)
from multisurf.integrators import SchemeConfig
from multisurf.systems import (AffineGainSignSystem, LinearSignSystem,
                               NonlinearSignSystem)
from tests import stepwise as reference

SIMULATE = integrators.simulate
FIELDS = ("times", "states", "selections", "outputs", "controls",
          "newton_iters")


def stepwise(run, *args, explicit=False, **kwargs):
    """run(*args, **kwargs) with every step taken: `integrators.simulate`
    is the step-by-step reference run, told whether the plan is
    explicit."""
    def simulate(plan, x0, t0, T):
        return reference.run(plan, x0, t0, T, explicit=explicit)
    with mock.patch.object(integrators, "simulate", simulate):
        return run(*args, **kwargs)


def assert_same(got, ref):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
    assert got.failure == ref.failure
    assert ref.steps_taken == len(ref.times) - 1


# dyadic entries and step sizes make exact fixed points common; the
# uniform draws cover the rest
DYADIC = [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0]
SIGNED_ZEROS = DYADIC + [-0.0, -0.0, 0.0]


def linear_run(rng):
    """(system, x0, T, cfg, scheme): n <= 3, m <= 2, implicit or explicit,
    theta in {0.5, 1}, h from 1e-3 to 0.5, up to 400 steps."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, min(n, 2) + 1))
    dyadic = rng.random() < 0.5

    def mat(r, c):
        return (rng.choice(DYADIC, (r, c)) if dyadic
                else rng.uniform(-2.0, 2.0, (r, c)))

    C = mat(m, n)
    B = C.T + 0.25 * mat(n, m) if rng.random() < 0.75 else mat(n, m)
    sys = LinearSignSystem(n=n, m=m, E=0.25 * mat(n, n) - 0.25 * np.eye(n),
                           a=0.25 * mat(n, 1)[:, 0] * (rng.random() < 0.5),
                           B=B, C=C,
                           D=0.25 * mat(m, 1)[:, 0] * (rng.random() < 0.5))
    h = float(rng.choice([0.5, 0.25, 0.125, 2.0 ** -5, 2.0 ** -7])
              if rng.random() < 0.5 else rng.uniform(1e-3, 0.5))
    cfg = SchemeConfig(h=h, theta=float(rng.choice([0.5, 1.0])))
    T = h * int(rng.integers(0, 401))
    return sys, mat(n, 1)[:, 0], T, cfg, str(rng.choice(["implicit",
                                                         "explicit"]))


def linear_pair(seed):
    """The run of `linear_run` skipped and step by step, and the number
    of steps the skipped one took."""
    sys, x0, T, cfg, scheme = linear_run(np.random.default_rng(seed))
    with np.errstate(all="ignore"):
        got = integrators.simulate_linear(sys, x0, 0.0, T, cfg, scheme)
        ref = stepwise(integrators.simulate_linear, sys, x0, 0.0, T, cfg,
                       scheme, explicit=scheme == "explicit")
    return got, ref, got.steps_taken


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_skipped_run_equals_stepwise_run(seed):
    got, ref, _ = linear_pair(seed)
    assert_same(got, ref)


def test_linear_runs_reach_fixed_points():
    # the property above meets skipped runs, not only full ones: 12 of
    # these 60 stop early
    skipped = 0
    for seed in range(60):
        got, ref, taken = linear_pair(seed)
        assert_same(got, ref)
        skipped += taken < len(got.times) - 1
    assert skipped >= 8


def test_fixed_point_on_the_last_step():
    # x = 1 - k/4 reaches 0 at step 4 with s = 1; step 4 returns 0 again
    # but with s = 0, so the tail begins at step 5, the last of T = 1.5,
    # which leaves nothing to fill
    sys, cfg = simple_system(), SchemeConfig(h=0.25)
    for T, taken in ((1.25, 5), (1.5, 6), (3.0, 6)):
        ref = stepwise(integrators.simulate_linear, sys, [1.0], 0.0, T, cfg)
        got = integrators.simulate_linear(sys, [1.0], 0.0, T, cfg)
        assert got.steps_taken == taken and got.states[-1, 0] == 0.0
        assert_same(got, ref)


@pytest.mark.parametrize("mode", ["implicit", "explicit"])
def test_zoh_run_skips_its_fixed_tail(mode):
    # F = 0, G = C = 1: x_{k+1} = x_k - h s reaches 0 at step 4 either way;
    # s falls from 1 to 0 on step 4, so step 5 is the first repeat
    pair = integrators.zoh_discretize([[0.0]], [[1.0]], [[1.0]], 0.25)
    solve = (mlcp.sign_step_solver(pair.Gamma) if mode == "implicit"
             else None)
    plan = integrators.step_plan(0.25, pair.Phi, pair.Gamma, np.eye(1),
                                 np.zeros(1), solve=solve)
    ref = reference.run(plan, [1.0], 0.0, 5.0, explicit=mode == "explicit")
    got = integrators.simulate(plan, [1.0], 0.0, 5.0)
    assert got.steps_taken == 6 and len(got.times) == 21
    assert_same(got, ref)


def test_advance_says_where_and_why_it_stopped():
    # x = 1 - k/4 repeats x and s on step 5 (row 6); a grid of 3 steps ends
    # first; from a state past the guard step 0 fails
    h = 0.25
    plan = integrators.step_plan(h, np.eye(1), h * np.eye(1), np.eye(1),
                                 solve=mlcp.sign_step_solver(h * np.eye(1)))
    for x0, N, want in ((1.0, 12, (6, 6, "tail")), (1.0, 3, (3, 3, "end")),
                        (2e12, 12, (0, 0, "state magnitude exceeded "
                                          "guard 1e+12"))):
        X, Y, S = (np.zeros((N + 1, 1)) for _ in range(3))
        X[0] = Y[0] = x0
        rows = integrators.Trajectory(times=h * np.arange(N + 1), states=X,
                                      selections=S, outputs=Y)
        k, taken, why = plan.advance(rows, 0, N)
        assert (k, taken, getattr(why, "message", why)) == want


def _control_run(h, T):
    plan = integrators.step_plan(
        h, np.eye(1), h * np.eye(1), np.eye(1),
        solve=mlcp.sign_step_solver(h * np.eye(1)),
        control=lambda x, s: 1.0 - 2.0 * s + x)
    return integrators.simulate(plan, [0.7], 0.0, T)


def test_recorded_controls_fill_the_fixed_tail():
    # no registry ECB-SMC run reaches a fixed point (both decay
    # geometrically), so the scalar system carries the control here
    ref = stepwise(_control_run, 0.1, 2.0)
    got = _control_run(0.1, 2.0)
    assert got.steps_taken < 20 and got.controls[-1, 0] == 1.0
    assert_same(got, ref)


def test_signed_zero_is_not_a_repeat():
    # from x0 = -0.0 the simple plan's first step returns +0.0 under the
    # placeholder selection 0.0: equal to x_0, but not its bytes, so the
    # tail starts one step later, at the first repeat byte for byte
    args = (simple_system(), [-0.0], 0.0, 1.0, SchemeConfig(h=0.1))
    got = integrators.simulate_linear(*args)
    assert got.steps_taken == 2 and got.states[1, 0] == got.states[0, 0]
    assert [np.signbit(x) for x in got.states[:, 0]] == [True] + [False] * 10
    assert_same(got, stepwise(integrators.simulate_linear, *args))


def test_lyapunov_run_repeats_before_it_settles():
    # the disturbance drives the registry Lyapunov loop: its state repeats
    # exactly at step 10 and moves again later, so its plan must not skip
    got = run_experiment("lyapunov", {}).trajectories["traj"]
    ref = stepwise(run_experiment, "lyapunov", {}).trajectories["traj"]
    assert_same(got, ref)
    rows = [row.tobytes() for row in got.states]
    first = next(k for k in range(len(rows) - 1) if rows[k + 1] == rows[k])
    assert first == 10
    assert any(rows[k + 1] != rows[k] for k in range(first, len(rows) - 1))


def _marks(name):
    """The `time_invariant` marks of the plans the registry run `name`
    hands to `simulate`."""
    seen = []

    def capture(plan, *a):
        seen.append(plan.time_invariant)
        return SIMULATE(plan, *a)

    with mock.patch.object(integrators, "simulate", capture):
        run_experiment(name, {})
    return seen


def test_driven_steps_are_never_marked():
    one = np.eye(1)
    assert integrators.step_plan(0.1, one, one, one).time_invariant
    assert integrators.step_plan(0.1, one, one, one,
                                 c=np.ones(1)).time_invariant
    assert not integrators.step_plan(0.1, one, one, one,
                                     c=lambda t: np.ones(1)).time_invariant
    assert not integrators.theta_plan(
        one, one, one, None, lambda t: np.ones(1), SchemeConfig(h=0.1),
        "implicit").time_invariant
    assert _marks("lyapunov") == [False]


def _drifting_affine():
    # no drift until t = 1.5, then a constant push that the sign term holds
    return AffineGainSignSystem(
        n=1, m=1, A_list=([[1.0]],), B_list=([1.0],), C_rows=([1.0],),
        D=[0.0], f=lambda x, t: np.array([0.5 if t > 1.5 else 0.0]),
        f_jac=lambda x, t: np.zeros((1, 1)))


def test_drift_free_newton_steps_are_marked():
    cfg = SchemeConfig(h=0.1)
    assert integrators.newton_plan(hypomonotone_system(), cfg).time_invariant
    assert _marks("hypomonotone") == [True]
    assert not integrators.newton_plan(_drifting_affine(),
                                       cfg).time_invariant
    nonlinear = NonlinearSignSystem(
        n=1, m=1, f=lambda x, t: np.zeros(1),
        f_jac=lambda x, t: np.zeros((1, 1)), g=lambda x: np.ones((1, 1)),
        g_jac=lambda x: np.zeros((1, 1, 1)), h=lambda x: x,
        h_jac=lambda x: np.ones((1, 1)))
    assert not integrators.newton_plan(nonlinear, cfg).time_invariant


def test_drifting_affine_run_takes_every_step():
    # x = 0 and s = 0 repeat from step 3 until the drift starts, which
    # moves s to 0.5: a fixed tail there would miss it
    args = (_drifting_affine(), [0.25], 0.0, 3.0, SchemeConfig(h=0.125))
    got = integrators.simulate_newton(*args)
    assert got.steps_taken == 24 and got.selections[-1, 0] == 0.5
    assert_same(got, stepwise(integrators.simulate_newton, *args))


def _changed_selection_run(kind):
    """(run, step-by-step run) of a marked plan whose state repeats first on
    a step that changes the selection: x = (1, 0.5) - k h s on two
    decoupled surfaces, or the hypomonotone Newton plan from 0.5, both at
    h = 0.25."""
    h = 0.25
    if kind == "newton":
        args = (hypomonotone_system(), [0.5], 0.0, 3.0, SchemeConfig(h=h))
        return (integrators.simulate_newton(*args),
                stepwise(integrators.simulate_newton, *args))
    plan = integrators.step_plan(h, np.eye(2), h * np.eye(2), np.eye(2),
                                 solve=mlcp.sign_step_solver(h * np.eye(2)))
    args = ([1.0, 0.5], 0.0, 3.0)
    return integrators.simulate(plan, *args), reference.run(plan, *args)


def test_changed_selection_is_not_a_repeat():
    # the step on which x_k first repeats moves s, so the run takes one
    # step more, and the tail starts on the step after it
    for kind in ("linear", "newton"):
        got, ref = _changed_selection_run(kind)
        X, S = got.states, got.selections
        r = next(k for k in range(1, len(X))
                 if X[k].tobytes() == X[k - 1].tobytes())
        assert S[r].tobytes() != S[r - 1].tobytes(), kind
        assert S[r + 1].tobytes() == S[r].tobytes(), kind
        assert got.steps_taken == r + 1 < len(got.times) - 1, kind
        assert_same(got, ref)


def newton_run(rng, wide=False):
    """(system, x0, T, cfg): a drift-free affine-gain system, n <= 2,
    m <= n, rho >= 0, theta and gamma in {0.5, 1}, x0 with zeros among
    its entries, h from 1e-3 to 0.25, up to 200 steps.  A wide run has
    n <= 3 (so m <= 3) and signed zeros among the entries of x0 and D,
    which start the run from -0.0 in x_k and y_k."""
    n = int(rng.integers(1, 4 if wide else 3))
    m = int(rng.integers(1, n + 1))
    C = rng.choice(DYADIC, (m, n))
    C[np.arange(m), np.arange(m)] = 1.0
    B = C.T + 0.25 * rng.choice(DYADIC, (n, m))
    zeros = SIGNED_ZEROS if wide else DYADIC
    sys = AffineGainSignSystem(
        n=n, m=m, A_list=tuple(0.25 * rng.choice(DYADIC, (n, n))
                               for _ in range(m)),
        B_list=tuple(B.T), C_rows=tuple(C),
        D=(rng.choice(zeros, m) if wide and rng.random() < 0.5
           else 0.25 * rng.choice(DYADIC, m) * (rng.random() < 0.5)),
        rho=float(sum(rng.choice([0.0, 0.0, 0.1, 0.25], m))))
    h = float(rng.choice([0.25, 0.125, 2.0 ** -5])
              if rng.random() < 0.5 else rng.uniform(1e-3, 0.25))
    cfg = SchemeConfig(h=h, theta=float(rng.choice([0.5, 1.0])),
                       gamma=float(rng.choice([0.5, 1.0])))
    x0 = rng.choice(zeros, n) * (rng.random() < 0.9)
    return sys, x0, h * int(rng.integers(0, 201)), cfg


def newton_pair(seed):
    """The run of `newton_run` skipped and step by step, and the number
    of steps the skipped one took."""
    sys, x0, T, cfg = newton_run(np.random.default_rng(seed))
    with np.errstate(all="ignore"):
        got = integrators.simulate_newton(sys, x0, 0.0, T, cfg)
        ref = stepwise(integrators.simulate_newton, sys, x0, 0.0, T, cfg)
    return got, ref, got.steps_taken


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_skipped_newton_run_equals_stepwise_run(seed):
    got, ref, _ = newton_pair(seed)
    assert_same(got, ref)


def test_newton_runs_reach_fixed_points():
    # the property above meets skipped Newton runs, not only full ones
    skipped = 0
    for seed in range(40):
        got, ref, taken = newton_pair(seed)
        assert_same(got, ref)
        skipped += taken < len(got.times) - 1
    assert skipped >= 10


def with_zero_drift(sys):
    """sys with f and f_jac given as functions that return zeros: a system
    with a drift, whose Newton plan is unmarked and builds M every
    iteration."""
    n = sys.n
    return dataclasses.replace(sys, f=lambda x, t: np.zeros(n),
                               f_jac=lambda x, t: np.zeros((n, n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_drift_free_run_equals_zero_drift_run(seed):
    # the drift-free plan builds its zero drift terms once, reuses the
    # inverse of its last s with (h H) M^-1 and its last gain, takes
    # iteration 1's r_smooth and b without their products and stops at
    # its fixed tail; none of that may show in the rows, the iterations
    # or the failure, from signed zeros in x_k and y_k and at m <= 3
    sys, x0, T, cfg = newton_run(np.random.default_rng(seed), wide=True)
    with np.errstate(all="ignore"):
        got = integrators.simulate_newton(sys, x0, 0.0, T, cfg)
        ref = integrators.simulate_newton(with_zero_drift(sys), x0, 0.0, T,
                                          cfg)
    assert_same(got, ref)


def _step_outcome(plan, x_k, y_k):
    """The bytes of plan's row from x_k (s_k None), or its failure."""
    try:
        return [v.tobytes() if isinstance(v, np.ndarray) else v
                for v in reference.row(plan, x_k, 0.0, y_k=y_k)]
    except mlcp.StepFailure as exc:
        return [exc.message, exc.problem_text, exc.residual]


# the constructor rejects non-finite data; these systems are built past
# that check, so that the plan's non-finite paths, which an overflow can
# reach, stay pinned
UNCHECKED = mock.patch("multisurf.systems._require_finite")


def _scalar_affine(A=1.0, B=1.0, C=1.0, D=0.0, rho=0.0):
    with UNCHECKED:
        return AffineGainSignSystem(n=1, m=1, A_list=([[A]],),
                                    B_list=([B],), C_rows=([C],), D=[D],
                                    rho=rho)


# a NaN gain or M^-1, and an infinite h rho or H, make iteration 1's r_smooth
# or b non-finite, where b = y + 0.0 does not hold
NON_FINITE = {"hypomonotone": _scalar_affine(),
              "NaN gain": _scalar_affine(B=np.nan, D=-0.0),
              "NaN M": _scalar_affine(A=np.nan),
              "inf rho": _scalar_affine(rho=np.inf),
              "inf H": _scalar_affine(C=np.inf)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sys", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("x_k, y_k", [
    ([-0.0], np.array([-0.0])), ([0.5], np.array([-0.0])), ([-0.0], None)])
def test_drift_free_step_equals_zero_drift_step(sys, x_k, y_k):
    # iteration 1 takes b = y + 0.0 only with h rho, H and M^-1 finite;
    # the one-step problem's dump (q = -b) shows the sign of a zero b, and
    # a NaN gain fails that problem
    cfg = SchemeConfig(h=0.25)
    with UNCHECKED:
        drift = with_zero_drift(sys)
    assert _step_outcome(integrators.newton_plan(sys, cfg), x_k, y_k) == \
        _step_outcome(integrators.newton_plan(drift, cfg), x_k, y_k)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sys", NON_FINITE.values(), ids=NON_FINITE)
@pytest.mark.parametrize("x_k", [np.inf, -np.inf, np.nan])
def test_non_finite_state_fails_at_the_guard(sys, x_k):
    # the Newton step takes x_k as finite: `advance` fails a non-finite
    # x_k at the guard, before the step, on either plan
    cfg = SchemeConfig(h=0.25)
    with UNCHECKED:
        drift = with_zero_drift(sys)
    for plan_sys in (sys, drift):
        assert _step_outcome(integrators.newton_plan(plan_sys, cfg),
                             [x_k], None) == \
            ["state is not finite", None, None]


def test_hypomonotone_run_stops_at_its_tail():
    # x0 = 2.5 reaches zero at t = ln(3.5) < 1.26: the state first repeats
    # on step 1255 and state and selection on step 1256, of 2000
    args = (hypomonotone_system(), [2.5], 0.0, 2.0, SchemeConfig(h=1e-3))
    got = integrators.simulate_newton(*args)
    assert got.steps_taken == 1257 and len(got.times) == 2001
    assert_same(got, stepwise(integrators.simulate_newton, *args))


def _nan_drift_affine():
    # a drift that turns NaN after t = 1: the one-step MLCP fails with a dump
    return AffineGainSignSystem(
        n=1, m=1, A_list=([[1.0]],), B_list=([1.0],), C_rows=([1.0],),
        D=[0.0], f=lambda x, t: np.array([np.nan if t > 1.0 else 0.5]),
        f_jac=lambda x, t: np.zeros((1, 1)))


def _failing_run(case, plain):
    """A run that fails, through the plans or (plain) step by step."""
    def through(run, *args, explicit=False):
        return (stepwise(run, *args, explicit=explicit) if plain
                else run(*args))
    if case == "simple-overflow":
        # as `multisurf run simple --x0 1e308`: the guard fails step 0
        return through(run_experiment, "simple",
                       {"x0": 1e308}).trajectories["traj"]
    if case == "explicit-guard":
        # forward Euler grows x_0 by 1.5 a step past the guard
        sys = LinearSignSystem(n=2, m=1, E=[[1.0, 0.0], [0.0, -1.0]],
                               a=[0.0, 0.0], B=[[0.5], [1.0]],
                               C=[[0.0, 1.0]], D=[0.0])
        return through(integrators.simulate_linear, sys, [1.0, 0.5], 0.0,
                       50.0, SchemeConfig(h=0.5), "explicit", explicit=True)
    if case == "ecb-controls":
        # x_0 grows as e^{2t} off the surface, and the recorded control
        # -(x_0 + s) with it
        ctl = controllers.EcbSmcController(
            F=[[2.0, 0.0], [1.0, 0.0]], G=[[0.0], [1.0]], C=[[0.0, 1.0]],
            alpha=1.0, h=0.1)
        args = (controllers.ecb_plan(ctl), [1.0, 0.5], 0.0, 20.0)
        return reference.run(*args) if plain else integrators.simulate(*args)
    args = (_nan_drift_affine(), [0.25], 0.0, 3.0, SchemeConfig(h=0.125))
    return through(integrators.simulate_newton, *args)


@pytest.mark.parametrize("case, step", [
    ("simple-overflow", 0), ("explicit-guard", 69), ("ecb-controls", 139),
    ("newton-mlcp", 8)])
def test_failure_through_a_plan_matches_the_stepwise_run(case, step):
    # the failure's step, time, message and MLCP dump, the controls and the
    # Newton iterations, byte for byte
    got = _failing_run(case, plain=False)
    assert got.failure.step == step and got.steps_taken == step
    assert (got.failure.detail is not None) == (case == "newton-mlcp")
    if case == "ecb-controls":
        assert got.controls[step - 1, 0] != 0.0
    assert_same(got, _failing_run(case, plain=True))
