"""Property tests for the m = 1 closed form of the one-step sign problem.

`mlcp.solve_sign_step` answers s in Sgn(b - W s) with m = 1 and W > 0 by
the projection proj_[-1,1](b / W).  It must give solve_pivoting's selection
bit for bit, agree with the enumerative oracle, and certify; every other
case must go through the general MLCP path.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisurf import mlcp
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
    return mlcp.from_sign_step(mlcp.SignStepProblem(W=[[W]], b=[b]))


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
        z = mlcp.solve_sign_step(np.array([[W]]), np.array([b]), method)
        assert z.tobytes() == ref.z.tobytes()
    assert np.array([closed]).tobytes() == ref.z.tobytes()


@SETTINGS
@given(positive_scalar_steps())
def test_closed_form_matches_oracle_and_certifies(step):
    W, b = step
    prob = sign_problem(W, b)
    z = mlcp.solve_sign_step(prob.M, -prob.q)
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
            return mlcp.solve_sign_step(np.array([[W]]), np.array([b]),
                                        method)
        except mlcp.StepFailure:
            return None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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
    z = mlcp.solve_sign_step(prob.M, -prob.q)
    assert z.tobytes() == mlcp.solve(prob).z.tobytes()
