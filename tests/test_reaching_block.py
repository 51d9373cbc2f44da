"""The reaching-phase block: saturated steps of E = 0 plans in one array
operation.

While every surface stays saturated, a step of an implicit plan with
Phi = L = I is x_{k+1} = (x_k + c) - g with a constant g, and the plan's
`advance` hands the rows ahead to its `block`, which predicts them by one
accumulate and keeps those that the solver's vectorised decision
(`saturated_run`) answers with the same selection.  Each run here is
compared, array by array as bytes, with the same plan run by
`tests/stepwise.py`, which calls its `advance` once for every row.
`Trajectory.steps_taken` counts the steps a run took.
"""

import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisurf import integrators, mlcp
from multisurf.experiments import (filippov_system, run_experiment,
                                   simple_system)
from multisurf.integrators import SchemeConfig
from multisurf.mlcp import CERT_TOL, FEAS_TOL
from multisurf.systems import LinearSignSystem
from tests import stepwise

FIELDS = ("times", "states", "selections", "outputs", "newton_iters")


def assert_same(got, ref):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.failure == ref.failure
    assert ref.steps_taken == len(ref.times) - 1


def linear_plan(sys, h):
    return integrators.theta_plan(sys.E, sys.B, sys.C, sys.D, h * sys.a,
                                  SchemeConfig(h=h), "implicit")


def linear_pair(sys, x0, T, h):
    """(block run, per-step run, steps the block run took) of a linear
    system."""
    got = integrators.simulate(linear_plan(sys, h), x0, 0.0, T)
    ref = stepwise.run(linear_plan(sys, h), x0, 0.0, T)
    return got, ref, got.steps_taken


# ---------------------------------------------------------------------------
# which plans get a block

def test_only_identity_plans_with_a_decision_get_a_block():
    one, h = np.eye(1), 0.1
    solver = mlcp.sign_step_solver(h * one)
    assert integrators.step_plan(h, one, h * one, one,
                                 solver=solver).block is not None
    assert integrators.step_plan(h, one, h * one, one, L=one, c=np.ones(1),
                                 solver=solver).block is not None
    # the controls are formed from the rows after the loop, so a control
    # does not bar the block
    assert integrators.step_plan(h, one, h * one, one, solver=solver,
                                 control=lambda X, S: S).block is not None
    others = [
        dict(Phi=2 * one),                            # Phi != I
        dict(L=0.5 * one),                            # L != I
        dict(c=lambda t: np.ones(1)),                 # driven
        dict(solver=None),                            # explicit
        dict(solver=mlcp.sign_step_solver(-h * one)),  # cold solver only
    ]
    for kw in others:
        args = dict(h=h, Phi=one, Gamma=h * one, C=one, solver=solver) | kw
        assert integrators.step_plan(**args).block is None, kw
    # a row of C with two nonzero entries
    C = np.array([[1.0, 1.0]])
    solver2 = mlcp.sign_step_solver(h * C @ np.ones((2, 1)))
    assert integrators.step_plan(h, np.eye(2), h * np.ones((2, 1)), C,
                                 solver=solver2).block is None
    # E != 0 gives Phi or L other than I
    E = [[-1.0]]
    assert integrators.theta_plan(
        np.array(E), one, one, None, None, SchemeConfig(h=h),
        "implicit").block is None
    # every W gets a record; the closed form (m = 1, W > 0) and the warm
    # pivot (W + W^T positive definite) carry the decision, and the cold
    # path does not: W <= 0 or NaN at m = 1, and a P-matrix W whose
    # W + W^T is not positive definite
    for W in ([[h]], [[1.0, 0.2], [0.0, 1.0]]):
        solver = mlcp.sign_step_solver(W)
        assert isinstance(solver, mlcp.SignSolver)
        assert solver.saturated_run is not None, W
    for W in ([[-h]], [[-0.0]], [[np.nan]], [[1.0, 3.0], [0.0, 1.0]]):
        solver = mlcp.sign_step_solver(W)
        assert isinstance(solver, mlcp.SignSolver)
        assert solver.saturated_run is None, W
    # a singular implicit drift (I - h theta E = 1 - 0.1 * 10) builds no
    # plan at all
    with pytest.raises(ValueError, match=r"I - h\*theta\*E is singular"):
        integrators.theta_plan(np.array([[10.0]]), one, one, None, None,
                               SchemeConfig(h=h), "implicit")


@pytest.mark.parametrize("name, block", [
    ("simple", True), ("convergence", True), ("filippov", True),
    # C = B = [[1, 2], [2, -1]] has two nonzero entries per row
    ("multisurface", False), ("galias2007", False), ("zoh-siso", False),
    ("zoh-mimo", False), ("lyapunov", False), ("observer", False),
    ("hypomonotone", False)])
def test_registry_experiments_that_take_the_block(name, block, monkeypatch):
    # every registry run hands `simulate` a plan, which runs its own loop
    seen = []
    simulate = integrators.simulate

    def capture(plan, *a):
        seen.append(plan.block is not None)
        return simulate(plan, *a)
    monkeypatch.setattr(integrators, "simulate", capture)
    run_experiment(name, {})
    assert seen and all(b == block for b in seen)


def test_block_takes_no_step_that_stepping_would_not():
    # x_{k+1} = x_k - 1e5 s with s decided on x_1 (W = 1e5): from -0.0 (I @ x
    # would turn it into 0.0), from a state past the guard (`simulate` would
    # fail that step, though the next state is back within it) and under a
    # selection that is not saturated, the block leaves the rows alone
    Gamma = np.array([[1e5], [1e5]])
    C = np.array([[0.0, 1.0]])
    plan = integrators.step_plan(1.0, np.eye(2), Gamma, C,
                                 solver=mlcp.sign_step_solver(C @ Gamma))
    for x, s in (([-0.0, 3e5], 1.0), ([1e12 + 1.0, 3e5], 1.0),
                 ([0.0, 3e5], 0.5)):
        X = np.zeros((5, 2))
        X[0] = x
        assert plan.block(X, np.array([s])) == 0
        assert not X[1:].any()
    # from 0.0 and from the guard itself: z = 3, then 2, then 1 (interior)
    for x0 in (0.0, 1e12):
        X = np.zeros((5, 2))
        X[0] = [x0, 3e5]
        assert plan.block(X, np.array([1.0])) == 2
        assert X[1:3].tolist() == [[x0 - 1e5, 2e5], [x0 - 2e5, 1e5]]
        assert not X[3:].any()


# ---------------------------------------------------------------------------
# the vectorised decision

@st.composite
def closed_form_rows(draw):
    """(W, s, b): b near the saturation threshold W (1 + FEAS_TOL), deep
    inside, interior, or not finite."""
    W = draw(st.floats(1e-6, 1e2))
    s = draw(st.sampled_from([-1.0, 1.0]))
    edge = s * W * (1.0 + FEAS_TOL)
    pool = [s * np.nextafter(abs(edge), np.inf * k) for k in (-1, 1)]
    b = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["ulps", "deep", "interior", "odd"]))
        if kind == "ulps":
            v = edge
            for _ in range(draw(st.integers(0, 6))):
                v = np.nextafter(v, draw(st.sampled_from([-np.inf, np.inf])))
            b.append(v)
        elif kind == "deep":
            b.append(s * draw(st.floats(1.5, 1e12)) * W)
        elif kind == "interior":
            b.append(draw(st.floats(-1.0, 1.0)) * W)
        else:
            b.append(draw(st.sampled_from(pool + [0.0, -0.0, np.nan, np.inf,
                                                  -np.inf, 1e308, -1e308])))
    return W, s, np.array(b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(closed_form_rows())
def test_closed_form_decision_matches_the_scalar_step(case):
    W, s, b = case
    solver = mlcp.sign_step_solver(np.array([[W]]))
    answers = [mlcp._sign_step_1d(W, float(v)) for v in b]
    lead = next((i for i, z in enumerate(answers) if z != s), len(b))
    with np.errstate(all="ignore"):
        assert solver.saturated_run(b[:, None], np.array([s])) == lead
    # the closed form is what the step would answer
    for v in b[:lead]:
        assert solver.solve(np.array([v])).tobytes() == \
            np.array([s]).tobytes()


def p_matrix(rng, m):
    G = rng.standard_normal((m, m))
    return np.eye(m) + 0.3 * G / np.linalg.norm(G, 2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 4),
       h=st.sampled_from([1e-3, 0.05, 1.0]))
def test_warm_decision_matches_the_warm_steps(seed, m, h):
    rng = np.random.default_rng(seed)
    W = h * p_matrix(rng, m)
    s = rng.choice([-1.0, 1.0], m)
    Ws = W @ s
    rows = []
    for _ in range(int(rng.integers(1, 10))):
        # y = b - W s with s y deep above CERT_TOL, or on one index within
        # a few ulps of it, or s y = inf, or NaN
        b = Ws + s * rng.uniform(2, 5, m)
        i = int(rng.integers(m))
        kind = rng.choice(["deep", "edge", "edge", "inf", "nan"])
        if kind == "edge":
            b[i] = Ws[i] + s[i] * CERT_TOL
            for _ in range(int(rng.integers(0, 6))):
                b[i] = np.nextafter(b[i], rng.choice([-np.inf, np.inf]))
        elif kind != "deep":
            b[i] = s[i] * np.inf if kind == "inf" else np.nan
        rows.append(b)
    B = np.array(rows)
    solver = mlcp.sign_step_solver(W)
    with np.errstate(all="ignore"):
        # no warm start before the first step
        assert solver.saturated_run(B, s) == 0
        # one step into s's all-bound set, then the rows
        assert solver.solve(Ws + 10 * s).tobytes() == s.tobytes()
        count = solver.saturated_run(B, s)
    # the rows that the same solver, stepping, answers with s on the warm
    # path, without the cold ladder
    ref = mlcp.sign_step_solver(W).solve
    ref(Ws + 10 * s)
    lead = 0
    for b in B:
        with mock.patch.object(mlcp, "solve", wraps=mlcp.solve) as cold, \
                np.errstate(all="ignore"):
            try:
                z = ref(b)
            except mlcp.StepFailure:
                z = None
        if cold.call_count or z is None or z.tobytes() != s.tobytes():
            break
        lead += 1
    assert count == lead


@pytest.mark.parametrize("s", [[1.0, -1.0], [-1.0, 1.0]])
def test_warm_decision_is_strict_at_the_certificate_bound(s):
    # W s has a zero entry, so r_0 = -b_0 exactly: at s_0 r_0 = -CERT_TOL
    # `_certified` refuses the warm answer, one ulp further it keeps it
    s = np.array(s)
    W = np.array([[1.0, 1.0], [0.5, 1.0]])
    solver = mlcp.sign_step_solver(W)
    Ws = W @ s
    assert Ws[0] == 0.0
    solver.solve(Ws + 10 * s)
    edge = s[0] * CERT_TOL
    rows = np.array([[np.nextafter(edge, s[0] * np.inf), Ws[1] + s[1]],
                     [edge, Ws[1] + s[1]]])
    assert solver.saturated_run(rows, s) == 1
    assert solver.saturated_run(rows[::-1], s) == 0


# ---------------------------------------------------------------------------
# whole runs, block against per-step

CASES = ["plain", "signed-zero", "threshold", "frozen", "c-equals-g"]


def block_run(seed, case):
    """(plan arguments with h, x0, T) of an E = 0 plan with m <= 4 surfaces:
    C has one nonzero entry per row, on distinct columns, with values other
    than 1; L is None or I, and c, D and rho are each present or not."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = m + int(rng.integers(0, 3))
    cols = rng.permutation(n)[:m]
    cvals = rng.choice([1.0, -1.0, 0.5, -2.0, 3.0, 0.1], m)
    C = np.zeros((m, n))
    C[np.arange(m), cols] = cvals
    B = rng.uniform(-1.0, 1.0, (n, m))
    B[cols] = p_matrix(rng, m) / cvals[:, None]       # C B is a P-matrix
    rho = rng.uniform(0.5, 2.0, m) if rng.random() < 0.3 else None
    L = np.eye(n) if rng.random() < 0.5 else None
    D = rng.uniform(-0.1, 0.1, m) if rng.random() < 0.5 else None
    h = float(rng.choice([1e-3, 0.01, 0.05, 0.25]))
    c = h * rng.uniform(-0.3, 0.3, n) if rng.random() < 0.6 else None
    x0 = rng.uniform(-2.0, 2.0, n)
    T = h * int(rng.integers(5, 300))
    if case == "signed-zero":
        x0[rng.random(n) < 0.5] = 0.0
        x0[rng.random(n) < 0.5] *= -1.0
        x0[rng.random(n) < 0.3] = -0.0
    elif case in ("threshold", "frozen", "c-equals-g"):
        rho = None
        s = rng.choice([-1.0, 1.0], m)
        W = h * C @ B
        Dv = np.zeros(m) if D is None else D
        if case == "threshold":
            # x_j, j steps in, has b = C x_j + D within a few ulps of the
            # saturation threshold: W (1 + FEAS_TOL) at m = 1, on one index
            # W s + s CERT_TOL at m > 1; the rest deep in saturation
            j = int(rng.integers(1, 12))
            target = W @ s + s * rng.uniform(1.0, 3.0, m)
            i = int(rng.integers(m))
            target[i] = (W[0, 0] * s[0] * (1.0 + FEAS_TOL) if m == 1
                         else (W @ s)[i] + s[i] * CERT_TOL)
            for _ in range(int(rng.integers(0, 6))):
                target[i] = np.nextafter(target[i],
                                         rng.choice([-np.inf, np.inf]))
            x = rng.uniform(-1.0, 1.0, n)
            x[cols] = (target - Dv) / cvals
            step = (np.zeros(n) if c is None else c) - h * B @ s
            x0 = x - j * step
            T = h * (j + int(rng.integers(2, 40)))
        elif case == "frozen":
            # |x| near 2^e with the per-step change below half an ulp: the
            # moving components climb one ulp a step to 2^e, where the ulp
            # doubles and every component stops: the fixed tail starts
            # inside the saturated phase
            e = int(rng.integers(30, 39))
            ulp = 2.0 ** (e - 53)
            h = 0.2 * ulp / np.abs(B).sum(axis=1).max()
            sign = rng.choice([-1.0, 1.0], n)
            x0 = sign * (2.0 ** e - rng.integers(0, 30, n) * ulp)
            c = sign * 0.75 * ulp
            L = None if rng.random() < 0.5 else np.eye(n)
            T = h * int(rng.integers(5, 80))
        else:
            # c = Gamma s exactly, for the selection the run saturates at
            x0[cols] = s * rng.uniform(5.0, 50.0, m) * h / cvals
            x0[cols] += np.sign(x0[cols]) * np.abs(Dv / cvals)
            s = np.sign(C @ x0 + Dv)
            c = (h * B) @ s
            T = h * int(rng.integers(5, 60))
    args = dict(h=h, Phi=np.eye(n), Gamma=h * B, C=C, D=D, L=L, c=c,
                rho=rho)
    return args, x0, T


def plan_of(args):
    """A fresh plan of `block_run`'s arguments, with its own solver."""
    C, Gamma, rho, L = args["C"], args["Gamma"], args["rho"], args["L"]
    W = C @ (Gamma if L is None else L @ Gamma)
    W = W if rho is None else W @ np.diag(rho)
    return integrators.step_plan(**args, solver=mlcp.sign_step_solver(W))


def test_flat_plan_with_a_control_takes_the_block():
    # the controls are formed from the rows once the loop is done, so the
    # block's rows get theirs too: u_k = K x_k + s / 2 here, with s
    # saturated at (1, -1) until x_1 reaches its surface near t = 2.9
    h, K = 0.01, np.array([[0.5, -1.0], [2.0, 0.25]])
    B, C = np.array([[1.0, 0.2], [-0.1, 0.8]]), np.diag([2.0, 1.5])

    def plan():
        return integrators.step_plan(
            h, np.eye(2), h * B, C, np.array([0.1, -0.05]),
            c=h * np.array([0.3, -0.2]),
            solver=mlcp.sign_step_solver(C @ (h * B)),
            control=lambda X, S: integrators._rows_by(K, X) + 0.5 * S)
    got_plan, rows = plan(), []
    block = got_plan.block
    assert block is not None

    def tally(X, s):
        rows.append(block(X, s))
        return rows[-1]
    got_plan.block = tally
    got = integrators.simulate(got_plan, [3.0, -2.0], 0.0, 4.0)
    ref = stepwise.run(plan(), [3.0, -2.0], 0.0, 4.0)
    for name in FIELDS + ("controls",):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), \
            name
    assert got.failure is ref.failure is None
    assert sum(rows) > 0 and got.steps_taken < len(got.times) - 1


def run_pair(seed, case):
    args, x0, T = block_run(seed, case)
    with np.errstate(all="ignore"):
        plan = plan_of(args)
        rows = []
        if plan.block is not None:
            block = plan.block

            def tally(X, s):
                rows.append(block(X, s))
                return rows[-1]
            plan.block = tally
        got = integrators.simulate(plan, x0, 0.0, T)
        ref = stepwise.run(plan_of(args), x0, 0.0, T)
    return got, ref, sum(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), case=st.sampled_from(CASES))
def test_block_run_equals_per_step_run(seed, case):
    got, ref, _ = run_pair(seed, case)
    assert_same(got, ref)


@pytest.mark.parametrize("case", [c for c in CASES if c != "c-equals-g"])
def test_every_case_takes_block_rows(case):
    # the property above meets block rows in these cases, not only runs the
    # block turns down; with c = g the state mostly stops at once, and the
    # fixed tail takes over
    taken = [run_pair(seed, case)[2] for seed in range(40)]
    assert sum(t > 0 for t in taken) >= 5, taken


def test_frozen_case_starts_its_tail_inside_the_phase():
    # the fixed tail fills rows after some saturated steps moved the state
    hits = 0
    for seed in range(40):
        got, ref, taken = run_pair(seed, "frozen")
        assert_same(got, ref)
        S = got.states
        moved = (S[1:] != S[:-1]).any(axis=1)
        saturated = (np.abs(got.selections[1:]) == 1.0).all(axis=1)
        hits += bool(moved[:3].any() and not moved[-1] and saturated.all())
    assert hits >= 5


# ---------------------------------------------------------------------------
# engagement, chunks and the guard

def test_simple_reaching_phase_takes_a_few_steps():
    # x0 = 1.5 at h = 1e-3: 1,499 saturated steps, then x = 0 repeats
    sys, h = simple_system(), 1e-3
    got, ref, taken = linear_pair(sys, [1.5], 3.0, h)
    assert_same(got, ref)
    assert taken <= 10


def longest_phase(traj):
    """The most consecutive steps that repeat one saturated selection."""
    S = traj.selections[1:]
    best = run = 0
    for k in range(1, len(S)):
        same = (np.abs(S[k]) == 1.0).all() and S[k].tobytes() == \
            S[k - 1].tobytes()
        run = run + 1 if same else 0
        best = max(best, run)
    return best


@pytest.mark.parametrize("system, x0, T, h", [
    (simple_system(), [0.1], 0.11, 1e-5),
    (simple_system(), [-0.57], 0.6, 1e-4),
    (filippov_system(), [1.0, -1.5], 1.2, 1e-4),
])
def test_phases_longer_than_one_chunk(system, x0, T, h):
    got, ref, taken = linear_pair(system, x0, T, h)
    assert_same(got, ref)
    assert longest_phase(got) > integrators.BLOCK_ROWS
    assert taken < 100


def growing_system():
    # x grows by 1e10 a step under s = 1 and crosses STATE_GUARD at step
    # 100; C = 1e296 makes C x overflow once x passes about 1.8e12, which
    # only predictions past the guard reach
    return LinearSignSystem(n=1, m=1, E=[[0.0]], a=[1e10], B=[[1e-296]],
                            C=[[1e296]], D=[0.0])


def test_guard_crossing_fails_like_the_per_step_run():
    sys = growing_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ref, taken = linear_pair(sys, [1.0], 200.0, 1.0)
    assert_same(got, ref)
    assert got.failure.step == 100 and "guard" in got.failure.message
    assert taken < 10


# ---------------------------------------------------------------------------
# the size of a prediction

def counted(solver, log):
    """solver, with a `saturated_run` that appends (rows offered, rows
    kept) to log on every call."""
    run = solver.saturated_run

    def saturated_run(b, s):
        log.append((len(b), run(b, s)))
        return log[-1][1]
    return dataclasses.replace(solver, saturated_run=saturated_run)


def counting_solvers(monkeypatch):
    """One log per solver with a decision that `mlcp.sign_step_solver`
    builds from now on."""
    logs, build = [], mlcp.sign_step_solver

    def solver(W):
        built = build(W)
        if built.saturated_run is None:
            return built
        logs.append([])
        return counted(built, logs[-1])
    monkeypatch.setattr(mlcp, "sign_step_solver", solver)
    return logs


def assert_sized(logs, runs):
    # every run takes its reaching phase in one prediction, which reaches
    # a little past the row where the surface leaves saturation
    assert len(logs) == runs and all(len(log) == 1 for log in logs), logs
    offered = sum(n for log in logs for n, _ in log)
    kept = sum(j for log in logs for _, j in log)
    assert kept > 0 and offered <= 1.1 * kept, (offered, kept)


def test_scalar_long_runs_predict_their_phase_once(monkeypatch):
    # 64 runs of perfbench's scalar-long kind: |x0| / h saturated steps
    logs = counting_solvers(monkeypatch)
    rng = np.random.default_rng(5)
    x0 = rng.choice([-1.0, 1.0], 64) * rng.uniform(0.5, 2.0, 64)
    for v in x0:
        integrators.simulate_linear(simple_system(), [v], 0.0, 3.0,
                                    SchemeConfig(h=1e-3))
    assert_sized(logs, 64)


def test_convergence_sweep_predicts_each_phase_once(monkeypatch):
    logs = counting_solvers(monkeypatch)
    run_experiment("convergence", {})
    assert_sized(logs, 8)


def sized_plan(sys, h, scale=1.0, c=None):
    """(plan, its log) of an E = 0 system whose solver is built from
    scale W, where the plan's W s is C g, so the quotient is wrong unless
    scale is 1; c defaults to the system's h a."""
    log = []
    solver = counted(mlcp.sign_step_solver(scale * h * sys.C @ sys.B), log)
    plan = integrators.step_plan(h, np.eye(sys.n), h * sys.B, sys.C, sys.D,
                                 c=h * sys.a if c is None else c,
                                 solver=solver)
    return plan, log


# (system, x0, T, h, scale of W, c): the solver's W off by 0.5, where c =
# 0.9 g slows the phase to a tenth of g a step, so its switch comes five
# rows after the quotient's (the first prediction is kept whole), and by 2,
# where it comes earlier; and c that moves every surface away from its
# switch, r_i = h > 0.  At m = 2 (filippov's system) the second surface of
# the two W cases moves away from its switch while the first reaches it.
# `test_phases_longer_than_one_chunk` takes phases longer than BLOCK_ROWS
SIZING = {
    "half-W": (simple_system(), [0.15], 3.0, 1e-3, 0.5, np.array([9e-4])),
    "double-W": (simple_system(), [-1.5], 3.0, 1e-3, 2.0, None),
    "half-W-m2": (filippov_system(), [0.5, -1.0], 2.0, 2e-3, 0.5,
                  np.array([5.4e-3, 1.8e-3])),
    "double-W-m2": (filippov_system(), [1.0, -1.0], 2.0, 2e-3, 2.0, None),
    "away": (simple_system(), [0.5], 3.0, 1e-3, 1.0, np.array([2e-3])),
    "away-m2": (filippov_system(), [1.0, -1.0], 2.0, 2e-3, 1.0,
                np.array([8e-3, -4e-3])),
}


@pytest.mark.parametrize("case", SIZING)
def test_wrong_or_absent_quotient_moves_no_byte(case):
    sys, x0, T, h, scale, c = SIZING[case]
    plan, log = sized_plan(sys, h, scale, c)
    with np.errstate(all="ignore"):
        got = integrators.simulate(plan, x0, 0.0, T)
        ref = stepwise.run(sized_plan(sys, h, scale, c)[0], x0, 0.0, T)
    assert_same(got, ref)
    assert sum(j for _, j in log) > 0
    if case.startswith("half-W"):
        # a prediction kept whole, then the 16x growth
        assert len(log) >= 2 and log[0][1] == log[0][0], log
