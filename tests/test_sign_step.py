"""Property tests for the one-step sign problem s in Sgn(b - W s).

`mlcp.sign_step_solver` answers m = 1 with W > 0 by the projection
proj_[-1,1](b / W).  It must give solve_pivoting's selection bit for bit,
agree with the enumerative oracle, and certify; every other case must go
through the general MLCP path.  For m > 1 it answers a run of steps with
one P-matrix W by pivoting from the previous step's active set, and must
give what a cold start gives, bit for bit.  The cold ladder `solve` must
answer W < 0 without running to a pivot cap or through projected SOR.
"""

import math
import warnings
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
    z = mlcp.sign_step_solver(np.array([[W]]))(np.array([b]))
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


@SETTINGS
@given(st.floats(-1e2, 0.0), st.floats(-1e3, 1e3))
def test_nonpositive_W_takes_the_general_path(W, b):
    with mock.patch.object(mlcp, "_sign_step_1d",
                           side_effect=AssertionError("closed form taken")):
        try:
            z = mlcp.sign_step_solver(np.array([[W]]))(np.array([b]))
        except mlcp.StepFailure:
            return
    assert z.shape == (1,)


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


def _cold(W, b):
    return mlcp.solve(mlcp.encode(W, b)).z


# the cold starts a warm answer must equal bit for bit: the `solve` ladder
# (auto) and plain least-index pivoting (pivot)
COLD = {"auto": mlcp.solve, "pivot": mlcp.solve_pivoting}


@pytest.mark.parametrize("cold", COLD)
@SETTINGS
@given(run=warm_runs())
def test_warm_solver_matches_cold_pivoting_bitwise(cold, run):
    W, bs, _ = run
    solve = mlcp.sign_step_solver(W)
    for b in bs:
        ref = COLD[cold](mlcp.encode(W, b))
        assert ref.status == "solved"
        assert solve(b).tobytes() == ref.z.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cold", COLD)
def test_warm_solver_matches_cold_on_a_singular_block(cold):
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
        solve = mlcp.sign_step_solver(W)
    warm_lstsq = []
    for z0, y in runs:
        b = W @ np.array(z0) + np.array(y)
        ref = COLD[cold](mlcp.encode(W, b))
        assert ref.status == "solved"
        with mock.patch.object(mlcp, "solve", wraps=mlcp.solve) as ladder, \
                mock.patch.object(np.linalg, "lstsq",
                                  wraps=np.linalg.lstsq) as lstsq:
            z = solve(b)
        warm_lstsq.append(ladder.call_count == 0 and lstsq.call_count > 0)
        assert z.tobytes() == ref.z.tobytes()
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
        assert z.tobytes() == _cold(W, np.array(b)).tobytes()


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
    assert first.tobytes() == _cold(W, bs[-1]).tobytes()


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


def test_cached_block_calls_lapack_directly_after_its_first_solve():
    # three steps on the all-interior set: np.linalg.solve accepts its
    # block at step 1, and steps 2 and 3 call the gufunc behind it
    W = 0.1 * np.array([[1.0, 0.2], [-0.3, 1.0]])
    solve = mlcp.sign_step_solver(W)
    calls = []
    for z0 in ([0.5, -0.5], [0.25, 0.1], [-0.4, 0.3]):
        b = W @ np.array(z0)
        with mock.patch.object(np.linalg, "solve",
                               wraps=np.linalg.solve) as checked, \
                mock.patch.object(mlcp, "_solve1",
                                  wraps=mlcp._solve1) as direct:
            z = solve(b)
        calls.append((checked.call_count, direct.call_count))
        assert z.tobytes() == _cold(W, b).tobytes()
    assert calls == [(1, 0), (0, 1), (0, 1)]


@pytest.mark.parametrize("m", range(1, 13))
def test_direct_lapack_solve_equals_numpy_solve_bitwise(m):
    # `_set_point` calls this private gufunc of numpy on blocks that
    # np.linalg.solve has accepted; a numpy without it fails here
    from numpy.linalg._umath_linalg import solve1
    assert mlcp._solve1 is solve1
    rng = np.random.default_rng(m)
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-4, 4)
        M = scale * (rng.standard_normal((m + 2, m + 2))
                     + (m + 2) * np.eye(m + 2))
        I = np.sort(rng.choice(m + 2, m, replace=False))
        MI = M[np.ix_(I, I)]
        rhs = rng.standard_normal(m) * 10.0 ** rng.uniform(-4, 4)
        want = np.linalg.solve(MI, rhs)
        assert solve1(MI, rhs, signature="dd->d").tobytes() == want.tobytes()


# W by path: m = 1 closed form and cold ladder, m = 2 warm pivoting and
# (symmetric part not positive definite) cold ladder
NAN_W = {"m1-closed": [[0.1]], "m1-cold": [[-0.1]],
         "m2-warm": [[0.1, 0.02], [-0.03, 0.1]],
         "m2-cold": [[0.1, 0.2], [0.3, 0.1]]}


@pytest.mark.parametrize("path", NAN_W)
def test_nan_b_fails_the_step_with_the_problem(path):
    # the certificate dropped a NaN, so `solve` returned a selection for
    # a NaN b; a step from a finite b comes first, so the warm path has
    # its active set and cached block
    W = np.array(NAN_W[path])
    solve = mlcp.sign_step_solver(W)
    solve(W @ np.full(len(W), 0.5))
    b = np.full(len(W), 0.01)
    b[-1] = np.nan
    with pytest.raises(mlcp.StepFailure) as exc:
        solve(b)
    assert exc.value.message.startswith("one-step MLCP ")
    assert exc.value.problem_text == mlcp.format_problem(mlcp.encode(W, b))


IN, LO, UP = mlcp._INTERIOR, mlcp._LOWER, mlcp._UPPER
LIM = mlcp.CERT_TOL
# the values at which the certificate's decisions turn, each with its two
# float neighbours, and NaN, the infinities and both zeros
EDGES = [e for x in (LIM, -LIM, 1.0 - LIM, LIM - 1.0, 1.0, -1.0)
         for e in (x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf))] \
    + [0.0, -0.0, 2.0 * LIM, 0.5, np.inf, -np.inf, np.nan]
EDGE_VALUES = st.one_of(st.sampled_from(EDGES),
                        st.floats(-2 * LIM, 2 * LIM),
                        st.floats(1.0 - 2 * LIM, 1.0 + 2 * LIM),
                        st.floats(-1.0 - 2 * LIM, -1.0 + 2 * LIM),
                        st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def pivot_answers(draw):
    """(states, zl, rl) as `_pivot` returns them on [-1, 1]^m: a bound
    index at exactly -1.0 or 1.0, an interior z and every r drawn near
    the certificate's edges."""
    m = draw(st.integers(1, 6))
    states = draw(st.lists(st.sampled_from([IN, LO, UP]), min_size=m,
                           max_size=m))
    zl = [-1.0 if s == LO else 1.0 if s == UP else draw(EDGE_VALUES)
          for s in states]
    rl = [draw(EDGE_VALUES) for _ in range(m)]
    return states, zl, rl


def _certified_by_definition(states, zl, rl):
    """`certify` at CERT_TOL, with w and v as pivoting builds them, plus
    the degeneracy guard; M = 0 and q = r give M z + q = r."""
    m = len(states)
    p = mlcp.MlcpProblem(dim=m, M=np.zeros((m, m)), q=rl, l=-np.ones(m),
                         u=np.ones(m))
    with np.errstate(invalid="ignore"):
        sol = mlcp._solution(p, states, np.array(zl), rl)
    degenerate = any(abs(z) >= 1.0 - LIM if s == IN else abs(r) <= LIM
                     for s, z, r in zip(states, zl, rl))
    return bool(sol.residual <= LIM) and not degenerate


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(pivot_answers())
def test_short_certificate_matches_its_definition(answer):
    assert mlcp._certified(*answer) == _certified_by_definition(*answer)


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
    assert sol.reason.startswith("certified residual 4 above")


def test_psor_failure_names_a_non_symmetric_W():
    # filippov's W = h [[1, -2], [2, 1]] is positive definite but not
    # symmetric; projected SOR stalls on its step-496 problem
    W = 0.002 * np.array([[1.0, -2.0], [2.0, 1.0]])
    sol = mlcp.solve_psor(mlcp.encode(W, [-1.9290125052862095e-14, 0.0]))
    assert sol.status == "max-iterations"
    assert sol.reason == (
        "sweep change 2 after 5000 sweeps; M is not symmetric, and "
        "projected SOR is only guaranteed to converge for symmetric "
        "positive definite M")


@SETTINGS
@given(positive_scalar_steps())
def test_one_step_entry_builds_no_solver_at_m1(step):
    # the Newton loop's entry: the closed form, with no solver built
    W, b = step
    want = mlcp.sign_step_solver([[W]])([b])
    with mock.patch.object(mlcp, "sign_step_solver",
                           side_effect=AssertionError("solver built")):
        got = mlcp.sign_step(np.array([[W]]), np.array([b]))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _outcome(call):
    """The answer's bytes, or the StepFailure's message, dump and residual."""
    try:
        z = call()
    except mlcp.StepFailure as exc:
        return exc.message, exc.problem_text, exc.residual
    return z.dtype.str, z.shape, z.tobytes()


INFEASIBLE = "one-step MLCP infeasible: no active set is feasible"
# (W, b) that the m = 1 entry hands to the cold ladder, and the dump of
# the StepFailure that `sign_step_solver(W)(b)` raises on it, or None
ONE_STEP_COLD = {
    "W < 0": ([[-0.1]], [0.5], None),
    "W = 0": ([[0.0]], [1.0], None),
    "W = -0.0": ([[-0.0]], [-1.0], None),
    "NaN W": ([[math.nan]], [0.5], "MLCP dim=1\nM  nan\nq  -0.5\nl  -1\nu  1"),
    "uncertified b": ([[1298011.9315177805]], [-975370.0], None),
    "NaN b": ([[1.0]], [math.nan], "MLCP dim=1\nM  1\nq  nan\nl  -1\nu  1"),
    "inf b": ([[1.0]], [math.inf], "MLCP dim=1\nM  1\nq  -inf\nl  -1\nu  1"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ONE_STEP_COLD)
def test_one_step_entry_falls_back_as_the_solver_does(case):
    W, b, dump = ONE_STEP_COLD[case]
    W, b = np.array(W), np.array(b)
    want = _outcome(lambda: mlcp.sign_step_solver(W)(b))
    with mock.patch.object(mlcp, "_cold", wraps=mlcp._cold) as cold:
        got = _outcome(lambda: mlcp.sign_step(W, b))
    assert cold.call_count == 1 and got == want
    if dump is not None:
        assert got == (INFEASIBLE, dump, None)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(run=warm_runs())
def test_one_step_entry_takes_the_solver_above_m1(run):
    W, bs, _ = run
    for b in bs:
        want = _outcome(lambda: mlcp.sign_step_solver(W)(b))
        assert _outcome(lambda: mlcp.sign_step(W, b)) == want
