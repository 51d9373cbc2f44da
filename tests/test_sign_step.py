"""Property tests for the one-step sign problem s in Sgn(b - W s).

`mlcp.sign_step_solver` answers m = 1 with W > 0 by the projection
proj_[-1,1](b / W).  It must give solve_pivoting's selection bit for bit,
agree with the enumerative oracle, and certify; every other case must go
through the general MLCP path.  For m > 1 it answers a run of steps with
one P-matrix W by pivoting from the previous step's active set, and must
give what a cold start gives, bit for bit.  The `auto` ladder must
answer W < 0 without running to a pivot cap or through projected SOR.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisurf import mlcp
from multisurf.experiments import run_experiment
from multisurf.mlcp import FEAS_TOL

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)

W_VALUES = st.floats(1e-6, 1e2)
SIGNS = st.sampled_from([-1.0, 1.0])


@st.composite
def positive_scalar_steps(draw):
    """(W, b) with W in [1e-6, 1e2] and b / W in one of the edge regimes."""
    W = draw(W_VALUES)
    sign = draw(SIGNS)
    case = draw(st.sampled_from(
        ["zero", "near-bound", "past-bound", "large", "interior"]))
    if case == "zero":
        b = sign * 0.0
    elif case == "near-bound":
        b = W * sign * (1.0 + draw(st.floats(-FEAS_TOL / 2, FEAS_TOL / 2)))
    elif case == "past-bound":
        b = W * sign * (1.0 + FEAS_TOL + draw(st.floats(1e-13, 1e-9)))
    elif case == "large":
        b = sign * draw(st.floats(1e2, 1e12))
    else:
        b = W * draw(st.floats(-1.0, 1.0))
    return W, b


def sign_problem(W, b):
    return mlcp.encode([[W]], [b])


@SETTINGS
@given(positive_scalar_steps())
def test_closed_form_matches_pivoting_bitwise(step):
    W, b = step
    closed = mlcp._sign_step_1d(W, b)
    assert closed is not None
    prob = sign_problem(W, b)
    ref = mlcp.solve_pivoting(prob)
    assert ref.status == "solved"
    for method in ("auto", "pivot"):
        z = mlcp.sign_step_solver(np.array([[W]]), method)(np.array([b]))
        assert z.tobytes() == ref.z.tobytes()
    assert np.array([closed]).tobytes() == ref.z.tobytes()


@SETTINGS
@given(positive_scalar_steps())
def test_closed_form_matches_oracle_and_certifies(step):
    W, b = step
    prob = sign_problem(W, b)
    z = mlcp.sign_step_solver(prob.M)(-prob.q)
    oracle = mlcp.solve_enumerative(prob)
    assert oracle.status == "solved"
    assert abs(z[0] - oracle.z[0]) <= 1e-12
    w, v = mlcp._split_slacks(prob.M @ z + prob.q)
    sol = mlcp.MlcpSolution(z=z, w=w, v=v, residual=0.0, status="solved")
    assert mlcp.certify(prob, sol) <= 1e2 * FEAS_TOL


def _general_path(W, b, method):
    with mock.patch.object(mlcp, "_sign_step_1d",
                           side_effect=AssertionError("closed form taken")):
        try:
            return mlcp.sign_step_solver(np.array([[W]]),
                                         method)(np.array([b]))
        except mlcp.StepFailure:
            return None


@SETTINGS
@given(st.floats(-1e2, 0.0), st.floats(-1e3, 1e3))
def test_nonpositive_W_takes_the_general_path(W, b):
    z = _general_path(W, b, "auto")
    if z is not None:
        assert z.shape == (1,)


@pytest.mark.parametrize("method", ["psor", "enumerative"])
@SETTINGS
@given(step=positive_scalar_steps())
def test_other_methods_take_the_general_path(method, step):
    W, b = step
    z = _general_path(W, b, method)
    assert z is not None
    assert abs(z[0] - mlcp.solve_enumerative(sign_problem(W, b)).z[0]) \
        <= 1e-8


def test_uncertified_closed_form_falls_back():
    # b / W is interior but the equation residual W z - b exceeds the
    # tolerance at this scale: the full solve ladder answers instead
    W, b = 1298011.9315177805, -975370.0
    assert abs(W * (b / W) - b) > FEAS_TOL
    assert mlcp._sign_step_1d(W, b) is None
    prob = sign_problem(W, b)
    z = mlcp.sign_step_solver(prob.M)(-prob.q)
    assert z.tobytes() == mlcp.solve(prob).z.tobytes()


# per-index kinds of a step's solution: interior well inside the box, at a
# bound with a clear slack, or at a bound with zero slack (degenerate)
KINDS = ["interior", "interior", "lower", "upper", "lower", "upper",
         "lower-0", "upper-0"]


@st.composite
def warm_runs(draw):
    """(W, bs, degenerate): a P-matrix W = h (I + 0.3 G / |G|_2), whose
    symmetric part is positive definite, at m = 2..12, and a run of up to
    12 right-hand sides b = W z + y built from known solutions z with
    slacks y, each drawn from a list of active sets so that short lists
    make later steps revisit a set; degenerate[k] says step k has a bound
    index with zero slack."""
    m = draw(st.integers(2, 12))
    h = draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.standard_normal((m, m))
    W = h * (np.eye(m) + 0.3 * G / np.linalg.norm(G, 2))
    sets = draw(st.lists(st.lists(st.sampled_from(KINDS), min_size=m,
                                  max_size=m), min_size=1, max_size=12))
    steps = draw(st.lists(st.sampled_from(sets), min_size=2, max_size=12))
    bs, degenerate = [], []
    for kinds in steps:
        z = rng.uniform(-0.9, 0.9, m)
        y = np.zeros(m)
        for i, kind in enumerate(kinds):
            if kind != "interior":
                z[i] = 1.0 if kind.startswith("upper") else -1.0
                if not kind.endswith("-0"):
                    y[i] = z[i] * h * rng.uniform(0.1, 1.0)
        bs.append(W @ z + y)
        degenerate.append(any(k.endswith("-0") for k in kinds))
    return W, bs, degenerate


def _cold(W, b, method):
    return mlcp.solve(mlcp.encode(W, b), method=method).z


@pytest.mark.parametrize("method", ["auto", "pivot"])
@SETTINGS
@given(run=warm_runs())
def test_warm_solver_matches_cold_pivoting_bitwise(method, run):
    W, bs, _ = run
    solve = mlcp.sign_step_solver(W, method)
    for b in bs:
        ref = mlcp.solve_pivoting(mlcp.encode(W, b))
        assert ref.status == "solved"
        z = solve(b)
        assert z.tobytes() == ref.z.tobytes()
        assert z.tobytes() == _cold(W, b, method).tobytes()


@pytest.mark.parametrize("method", ["auto", "pivot"])
def test_warm_solver_matches_cold_on_a_singular_block(method):
    # W is symmetric positive definite with determinant 2e-13, but LU
    # rounds its second pivot to exactly 0: np.linalg.solve raises on the
    # all-interior block and `_set_point` takes lstsq.  The gate refuses
    # such a W (see test_gate_refuses_numerically_singular_W); forced past
    # it, every step but 3 and 5 (answered cold) meets that set on the
    # warm path, from step 2 on through the block cached at step 1.
    W = np.array([[60.0, -59.875], [-59.875, 59.75026041666667]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(W, np.ones(2))
    runs = [([0.3, -0.3], [0.0, 0.0]), ([1.0, 0.5], [2.0, 0.0]),
            ([0.25, -0.25], [0.0, 0.0]), ([-1.0, -0.5], [-3.0, 0.0]),
            ([0.3, -0.3], [0.0, 0.0]), ([0.6, 0.6], [0.0, 0.0]),
            ([0.4, -0.4], [0.0, 0.0])]
    with mock.patch.object(mlcp, "_sym_part_pd", return_value=True):
        solve = mlcp.sign_step_solver(W, method)
    warm_lstsq = []
    for z0, y in runs:
        b = W @ np.array(z0) + np.array(y)
        ref = mlcp.solve_pivoting(mlcp.encode(W, b))
        assert ref.status == "solved"
        with mock.patch.object(mlcp, "solve", wraps=mlcp.solve) as cold, \
                mock.patch.object(np.linalg, "lstsq",
                                  wraps=np.linalg.lstsq) as lstsq:
            z = solve(b)
        warm_lstsq.append(cold.call_count == 0 and lstsq.call_count > 0)
        assert z.tobytes() == ref.z.tobytes()
        assert z.tobytes() == _cold(W, b, method).tobytes()
    assert warm_lstsq == [True, True, False, True, False, True, True]


# [[25, 10], [10, 4]] has determinant 0, yet the Cholesky factorization of
# W + W^T succeeds; warm-started, the third of these steps ended one bit
# away from `solve`'s answer.  The W of the singular-block test above is
# singular in floating point.
SINGULAR_RUNS = [
    ([[25.0, 10.0], [10.0, 4.0]],
     [[27.224625168965147, -1.0361851869861098],
      [26.867734881199496, -26.818671128175524],
      [-28.352212794585483, -21.17907506378886]]),
    ([[60.0, -59.875], [-59.875, 59.75026041666667]],
     [[2.0, 0.0], [0.0, 0.0], [-3.0, 0.0]]),
]


@pytest.mark.parametrize("W, bs", SINGULAR_RUNS)
def test_gate_refuses_numerically_singular_W(W, bs):
    W = np.array(W)
    np.linalg.cholesky(W + W.T)
    assert mlcp._sym_part_pd(W) is False
    solve = mlcp.sign_step_solver(W)
    for b in bs:
        with mock.patch.object(mlcp, "solve", wraps=mlcp.solve) as cold:
            z = solve(np.array(b))
        assert cold.call_count == 1
        assert z.tobytes() == _cold(W, np.array(b), "auto").tobytes()


@SETTINGS
@given(run=warm_runs())
def test_warm_answer_depends_only_on_b(run):
    # after any history, the same b answered twice in a row gives the same
    # bytes, and `solve`'s: a run whose state repeats may skip its tail
    W, bs, _ = run
    solve = mlcp.sign_step_solver(W)
    for b in bs[:-1]:
        solve(b)
    first, second = solve(bs[-1]), solve(bs[-1])
    assert first.tobytes() == second.tobytes()
    assert first.tobytes() == _cold(W, bs[-1], "auto").tobytes()


@SETTINGS
@given(run=warm_runs())
def test_degenerate_steps_take_the_cold_path(run):
    # the guard hands exactly the degenerate steps to `solve`; every other
    # step is answered by the warm start alone
    W, bs, degenerate = run
    solve = mlcp.sign_step_solver(W)
    with mock.patch.object(mlcp, "solve", wraps=mlcp.solve) as cold:
        for b, degen in zip(bs, degenerate):
            cold.reset_mock()
            solve(b)
            assert cold.call_count == int(degen)


def test_warm_solver_starts_from_the_last_cold_answer():
    # step 1 is degenerate (z_1 within 1e2 * FEAS_TOL of its bound) and goes
    # cold; step 2 pivots from that answer's active set, once
    W = 0.1 * np.array([[1.0, 0.2], [-0.3, 1.0]])
    slack = np.array([0.005, 0.0])
    solve = mlcp.sign_step_solver(W)
    with mock.patch.object(mlcp, "solve", wraps=mlcp.solve) as cold:
        z = solve(W @ np.array([1.0, 1.0 - 5e-9]) + slack)
        assert cold.call_count == 1 and z[0] == 1.0 and z[1] < 1.0
        with mock.patch.object(mlcp, "_set_point",
                               wraps=mlcp._set_point) as point:
            z = solve(W @ np.array([1.0, 0.5]) + slack)
        assert cold.call_count == 1 and point.call_count == 1
    assert z[0] == 1.0 and abs(z[1] - 0.5) <= 1e-12


NEGATIVE_W = [-1e-6, -5e-324, -1.0]
B_VALUES = [3.0, 1e-3, 0.0, -0.5, -1e3]


@pytest.mark.parametrize("W", NEGATIVE_W)
@pytest.mark.parametrize("b", B_VALUES)
def test_auto_ladder_on_negative_W(W, b):
    prob = sign_problem(W, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(mlcp, "solve_psor",
                               wraps=mlcp.solve_psor) as psor:
            z = mlcp.sign_step_solver(np.array([[W]]))(np.array([b]))
        assert psor.call_count == 0
        assert z.tobytes() == mlcp.solve_enumerative(prob).z.tobytes()
        # pivoting stops at its first repeated active set: at most the
        # three sets of m = 1, where the parent ran to its 200-pivot cap
        with mock.patch.object(mlcp, "_set_point",
                               wraps=mlcp._set_point) as point:
            piv = mlcp.solve_pivoting(prob)
        assert point.call_count <= 3
    if piv.status != "solved":
        assert piv.status == "infeasible"
        assert piv.reason == "W is not a P-matrix (pivoting cycled)"


def test_psor_reports_an_uncertified_answer():
    prob = sign_problem(-1.0, 3.0)
    sol = mlcp.solve_psor(prob)
    assert sol.status == "uncertified" and sol.residual == 4.0
    with pytest.raises(mlcp.StepFailure, match="uncertified.*residual 4"):
        mlcp.sign_step_solver(np.array([[-1.0]]), "psor")(np.array([3.0]))


def test_psor_failure_names_a_non_symmetric_W():
    # filippov's W = h [[1, -2], [2, 1]] is positive definite but not
    # symmetric; projected SOR stalls there at step 496
    res = run_experiment("filippov", {"solver": "psor"})
    fail = res.trajectories["traj"].failure
    assert fail.step == 496
    assert fail.message == (
        "one-step MLCP max-iterations: sweep change 2 after 5000 sweeps; "
        "M is not symmetric, and projected SOR is only guaranteed to "
        "converge for symmetric positive definite M")
