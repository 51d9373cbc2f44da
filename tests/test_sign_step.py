"""Property tests for the one-step sign problem s in Sgn(b - W s).

`mlcp.sign_step_solver` answers m = 1 with W > 0 by the projection
proj_[-1,1](b / W).  It must give solve_pivoting's selection bit for bit,
agree with the enumerative oracle, and certify; every other case must go
through the cold ladder.  For m > 1 it answers a run of steps with
one P-matrix W by pivoting from the previous step's active set, its first
step from the answer of W's diagonal alone, and must give what a cold
start gives, bit for bit.  The cold ladder `solve` must
answer W < 0 without running to a pivot cap.
"""

import math
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisurf import integrators, mlcp, systems
from multisurf.mlcp import FEAS_TOL
from perfbench import workloads
from tests import box_certificate
from tests.test_golden import _newton_affine_m2

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
    return mlcp.SignProblem([[W]], [b])


@SETTINGS
@given(positive_scalar_steps())
def test_closed_form_matches_pivoting_bitwise(step):
    W, b = step
    closed = mlcp._sign_step_1d(W, b)
    assert closed is not None
    prob = sign_problem(W, b)
    ref = mlcp.solve_pivoting(prob)
    assert ref.status == "solved"
    z = mlcp.sign_step_solver(np.array([[W]])).solve(np.array([b]))
    assert z.tobytes() == ref.z.tobytes()
    assert np.array([closed]).tobytes() == ref.z.tobytes()


@SETTINGS
@given(positive_scalar_steps())
def test_closed_form_matches_oracle_and_certifies(step):
    W, b = step
    prob = sign_problem(W, b)
    z = mlcp.sign_step_solver(prob.W).solve(prob.b)
    oracle = mlcp.solve_enumerative(prob)
    assert oracle.status == "solved"
    assert abs(z[0] - oracle.z[0]) <= 1e-12
    states = [LO if z[0] == -1.0 else UP if z[0] == 1.0 else IN]
    zl, yl = z.tolist(), (prob.b - prob.W @ z).tolist()
    assert mlcp._residual(states, zl, yl) <= 1e2 * FEAS_TOL
    assert box_certificate.residual(states, zl,
                                    [-y for y in yl]) <= 1e2 * FEAS_TOL


@SETTINGS
@given(st.floats(-1e2, 0.0), st.floats(-1e3, 1e3))
def test_nonpositive_W_takes_the_general_path(W, b):
    with mock.patch.object(mlcp, "_sign_step_1d",
                           side_effect=AssertionError("closed form taken")):
        try:
            z = mlcp.sign_step_solver(np.array([[W]])).solve(np.array([b]))
        except mlcp.StepFailure:
            return
    assert z.shape == (1,)


def test_closed_form_answers_a_badly_scaled_step():
    # b / W is interior and its equation residual W z - b is one ulp at
    # this scale, above FEAS_TOL itself but within the mixed bound: the
    # closed form answers b / W, with the bytes of `solve`, and no cold solve
    W, b = 1298011.9315177805, -975370.0
    assert abs(W * (b / W) - b) > FEAS_TOL
    assert mlcp._sign_step_1d(W, b) == b / W
    prob = sign_problem(W, b)
    with mock.patch.object(mlcp, "_cold", wraps=mlcp._cold) as cold:
        z = mlcp.sign_step_solver(prob.W).solve(prob.b)
        one = mlcp.sign_step(prob.W, prob.b)
    assert cold.call_count == 0
    ref = mlcp.solve(prob)
    assert ref.status == "solved"
    assert z.tobytes() == one.tobytes() == ref.z.tobytes()


def full_certificate_1d(W, b):
    """The m = 1 closed form with the whole box-MLCP certificate
    (`box_certificate`) in scalar form -- box, equation, complementarity
    and sign -- the reference for the lean `_sign_step_1d`, which tests
    only the terms that can fail."""
    tol, lim = FEAS_TOL, mlcp.CERT_TOL
    z = (b + 0.0) / W
    if -1.0 - tol <= z <= 1.0 + tol:
        r = W * z - b
        if abs(r) > tol and not abs(r) <= tol * (
                abs(W) * abs(z) + abs(b)) < math.inf:
            return None
        w = v = 0.0
    else:
        z = 1.0 if z > 0 else -1.0
        r = W * z - b
        if z * r > tol:
            return None
        w, v = (0.0, max(-r, 0.0)) if z > 0 else (max(r, 0.0), 0.0)
    box = max(-1.0 - z, z - 1.0, 0.0)
    eq = abs(r - w + v)
    comp = max(abs((z + 1.0) * w), abs((1.0 - z) * v))
    sign = max(-w, -v, 0.0)
    return z if box <= lim and eq <= lim and comp <= lim and sign <= lim \
        else None


# W > 0 from the least subnormal to inf; b at the signed zeros, the
# subnormals, the infinities, NaN and within 1e-10 of +-W
EDGE_W = [5e-324, 2.2250738585072014e-308, 1e-6, 0.5, 1.0, 1.3e8, 1e300,
          1.5e308, 1.7976931348623157e308, math.inf]
EDGE_B = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e308,
          -1.7976931348623157e308]
BOUND_OFFSETS = [0.0, 1e-10, -1e-10, 2e-10, -2e-10, 1e-11, 1e-9]


def _same_answer(W, b):
    got, ref = mlcp._sign_step_1d(W, b), full_certificate_1d(W, b)
    assert (got is None) == (ref is None), (W, b)
    if got is not None:
        assert np.array([got]).tobytes() == np.array([ref]).tobytes(), (W, b)


def test_lean_certificate_matches_the_full_one_on_edge_values():
    for W in EDGE_W:
        near = [sign * W * (1.0 + e) for sign in (-1.0, 1.0)
                for e in BOUND_OFFSETS]
        for b in EDGE_B + near + [np.nextafter(v, -v) for v in near]:
            _same_answer(W, float(b))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from(EDGE_W),
                 st.floats(min_value=0.0, exclude_min=True)),
       st.one_of(st.sampled_from(EDGE_B), st.floats()),
       st.sampled_from([None] + BOUND_OFFSETS), SIGNS)
def test_lean_certificate_matches_the_full_one(W, b, offset, sign):
    # offset puts b next to the bound +-W instead
    _same_answer(W, b if offset is None else sign * W * (1.0 + offset))


def test_uncertified_closed_form_falls_back():
    # b / W is interior and its equation residual W z - b is within the
    # mixed bound, but at this scale it exceeds CERT_TOL: the closed form
    # declines, and the full solve ladder answers, here with the
    # StepFailure of an uncertified answer
    W, b = 162910815.15397093, 85430911.0
    assert abs(W * (b / W) - b) > mlcp.CERT_TOL
    assert mlcp._sign_step_1d(W, b) is None
    prob = sign_problem(W, b)
    assert mlcp.solve(prob).status == "uncertified"
    with mock.patch.object(mlcp, "_cold", wraps=mlcp._cold) as cold:
        with pytest.raises(mlcp.StepFailure, match="uncertified"):
            mlcp.sign_step_solver(prob.W).solve(prob.b)
    assert cold.call_count == 1


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
    return mlcp.solve(mlcp.SignProblem(W, b)).z


# the cold starts a warm answer must equal bit for bit: the `solve` ladder
# (auto) and plain least-index pivoting (pivot)
COLD = {"auto": mlcp.solve, "pivot": mlcp.solve_pivoting}


@pytest.mark.parametrize("cold", COLD)
@SETTINGS
@given(run=warm_runs())
def test_warm_solver_matches_cold_pivoting_bitwise(cold, run):
    W, bs, _ = run
    solve = mlcp.sign_step_solver(W).solve
    for b in bs:
        ref = COLD[cold](mlcp.SignProblem(W, b))
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
        solve = mlcp.sign_step_solver(W).solve
    warm_lstsq = []
    for z0, y in runs:
        b = W @ np.array(z0) + np.array(y)
        ref = COLD[cold](mlcp.SignProblem(W, b))
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


@pytest.mark.parametrize("W, pd", [
    (5 * np.eye(2), True), ([[1.0]], True), ([[-1.0]], False),
    # W + W^T = [[49, -35], [-35, 25]] has determinant exactly 0; a rounded
    # det of its halved form came out at 4.35e-14, which a leading-minor
    # test read as positive
    ([[24.5, -23.5], [-11.5, 12.5]], False),
    # only the symmetric part counts: a large skew part leaves I + K
    # positive definite, and a symmetric indefinite W is refused
    ([[1.0, 10.0], [-10.0, 1.0]], True), ([[1.0, 2.0], [2.0, 1.0]], False)])
def test_sym_part_pd(W, pd):
    assert mlcp._sym_part_pd(np.array(W)) is pd


@pytest.mark.parametrize("W, bs", SINGULAR_RUNS)
def test_gate_refuses_numerically_singular_W(W, bs):
    W = np.array(W)
    np.linalg.cholesky(W + W.T)
    assert mlcp._sym_part_pd(W) is False
    solve = mlcp.sign_step_solver(W).solve
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
    solve = mlcp.sign_step_solver(W).solve
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
    solve = mlcp.sign_step_solver(W).solve
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
    solve = mlcp.sign_step_solver(W).solve
    with mock.patch.object(mlcp, "solve", wraps=mlcp.solve) as cold:
        z = solve(W @ np.array([1.0, 1.0 - 5e-9]) + slack)
        assert cold.call_count == 1 and z[0] == 1.0 and z[1] < 1.0
        with mock.patch.object(mlcp, "_set_point",
                               wraps=mlcp._set_point) as point:
            z = solve(W @ np.array([1.0, 0.5]) + slack)
        assert cold.call_count == 1 and point.call_count == 1
    assert z[0] == 1.0 and abs(z[1] - 0.5) <= 1e-12


def test_every_block_visit_calls_lapack_directly():
    # three steps on the all-interior set, one gufunc call each: the first
    # inside np.linalg.solve's error state, where a singular block raises,
    # the cached ones without it; np.linalg.solve itself is never called,
    # by the warm steps or by the cold ladder and the oracle
    W = 0.1 * np.array([[1.0, 0.2], [-0.3, 1.0]])
    solve1, default = mlcp._solve1, np.geterr()["invalid"]
    modes = []

    def direct(*args, **kwargs):
        modes.append(np.geterr()["invalid"])
        return solve1(*args, **kwargs)

    with mock.patch.object(np.linalg, "solve", side_effect=AssertionError(
            "np.linalg.solve called")):
        solve = mlcp.sign_step_solver(W).solve
        for z0 in ([0.5, -0.5], [0.25, 0.1], [-0.4, 0.3]):
            b = W @ np.array(z0)
            with mock.patch.object(mlcp, "_solve1", side_effect=direct):
                z = solve(b)
            assert z.tobytes() == _cold(W, b).tobytes()
            assert z.tobytes() == mlcp.solve_enumerative(
                mlcp.SignProblem(W, b)).z.tobytes()
    assert modes == ["call", default, default]


IN, LO, UP = mlcp._INTERIOR, mlcp._LOWER, mlcp._UPPER


def _numpy_point(M, b, key):
    """`_set_point`'s first visit by its definition: the interior block
    M[ix_(I, I)] solved by np.linalg.solve, and on its LinAlgError lstsq,
    or NaN for a non-finite block.  Returns (z, regular)."""
    z = np.array([-1.0 if st == LO else 1.0 if st == UP else 0.0
                  for st in key])
    I = np.array([i for i, st in enumerate(key) if st == IN])
    MI = M[np.ix_(I, I)]
    with np.errstate(invalid="ignore"):
        rhs = b[I] - M[I] @ z + MI @ z[I]
    try:
        z[I] = np.linalg.solve(MI, rhs)
        return z, True
    except np.linalg.LinAlgError:
        z[I] = np.linalg.lstsq(MI, rhs, rcond=None)[0] \
            if np.isfinite(MI).all() else np.nan
        return z, False


@pytest.mark.parametrize("m", range(1, 13))
def test_direct_lapack_solve_equals_numpy_solve_bitwise(m):
    # `_set_point` calls this private gufunc of numpy; a numpy without it
    # fails here
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
    # a first visit of a regular, an exactly singular (a zero column) and
    # a non-finite interior block: np.linalg.solve's bytes, or its
    # LinAlgError and then lstsq or NaN, and no warning
    for kind in ("regular", "singular", "inf", "-inf", "nan") * 10:
        M = rng.standard_normal((m + 2, m + 2)) + (m + 2) * np.eye(m + 2)
        key = [IN] * (m + 2)
        for i in rng.choice(m + 2, 2, replace=False):
            key[i] = LO if rng.random() < 0.5 else UP
        I = [i for i, st in enumerate(key) if st == IN]
        if kind == "singular":
            M[:, rng.choice(I)] = 0.0
        elif kind != "regular":
            M[rng.choice(I), rng.choice(I)] = float(kind)
        b = rng.standard_normal(m + 2)
        want = _numpy_point(M, b, key)
        if kind in ("regular", "singular"):
            assert want[1] == (kind == "regular")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mlcp._set_point(M, b, tuple(key))
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]


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
    solve = mlcp.sign_step_solver(W).solve
    solve(W @ np.full(len(W), 0.5))
    b = np.full(len(W), 0.01)
    b[-1] = np.nan
    with pytest.raises(mlcp.StepFailure) as exc:
        solve(b)
    assert exc.value.message.startswith("one-step MLCP ")
    assert exc.value.problem_text == mlcp.format_problem(
        mlcp.SignProblem(W, b))


LIM = mlcp.CERT_TOL
# the values at which the certificate's and the keep scan's decisions
# turn, each with its two float neighbours; NaN, the infinities, both
# zeros, the signed least and largest subnormals and least normal, and
# the signed largest float
EDGES = [e for x in (LIM, -LIM, 1.0 - LIM, LIM - 1.0, 1.0, -1.0, 1.0 + LIM,
                     -1.0 - LIM, FEAS_TOL, -FEAS_TOL)
         for e in (x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf))] \
    + [0.0, -0.0, 2.0 * LIM, 0.5, np.inf, -np.inf, np.nan] \
    + [sign * x for x in (5e-324, 2.225073858507201e-308,
                          2.2250738585072014e-308, 1.7976931348623157e308)
       for sign in (1.0, -1.0)]
# the ranges a drawn value comes from when it is not an edge
EDGE_RANGES = [(-2 * LIM, 2 * LIM), (1.0 - 2 * LIM, 1.0 + 2 * LIM),
               (-1.0 - 2 * LIM, -1.0 + 2 * LIM)]
EDGE_VALUES = st.one_of(st.sampled_from(EDGES),
                        *(st.floats(lo, hi) for lo, hi in EDGE_RANGES),
                        st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def pivot_answers(draw):
    """(states, zl, yl) as `_pivot` returns them on [-1, 1]^m: a bound
    index at exactly -1.0 or 1.0, an interior z and every y drawn near
    the certificate's edges."""
    m = draw(st.integers(1, 6))
    states = draw(st.lists(st.sampled_from([IN, LO, UP]), min_size=m,
                           max_size=m))
    zl = [-1.0 if s == LO else 1.0 if s == UP else draw(EDGE_VALUES)
          for s in states]
    yl = [draw(EDGE_VALUES) for _ in range(m)]
    return states, zl, yl


def _edge_draws(rng, shape):
    """`EDGE_VALUES` drawn by numpy: half edges, the rest evenly from each
    range and from all float bit patterns (NaNs and infinities among
    them)."""
    kind = rng.integers(0, 2 * (len(EDGE_RANGES) + 1), shape)
    out = np.array(EDGES)[rng.integers(0, len(EDGES), shape)]
    for j, (lo, hi) in enumerate(EDGE_RANGES):
        out = np.where(kind == j, rng.uniform(lo, hi, shape), out)
    bits = rng.integers(0, 2 ** 63, shape, dtype=np.uint64) * np.uint64(2) \
        + rng.integers(0, 2, shape, dtype=np.uint64)
    return np.where(kind == len(EDGE_RANGES), bits.view(np.float64), out)


def _same_verdict(states, zl, yl):
    """`_residual` against the box-MLCP certificate, which reads
    r = W z - b = -y: the same value, NaN included, so the same "solved"
    verdict at CERT_TOL."""
    got = mlcp._residual(states, zl, yl)
    ref = box_certificate.residual(states, zl, [-y for y in yl])
    assert (got <= LIM) == (ref <= LIM), (states, zl, yl)
    assert got == ref or (math.isnan(got) and math.isnan(ref)), \
        (states, zl, yl)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(pivot_answers())
def test_residual_is_the_box_certificate(answer):
    _same_verdict(*answer)


def test_residual_is_the_box_certificate_on_100000_answers():
    rng = np.random.default_rng(27)
    count = 0
    for m in range(1, 7):
        k = 100_000 // 6 + 1
        states = rng.integers(0, 3, (k, m))
        zs = np.where(states == LO, -1.0, np.where(
            states == UP, 1.0, _edge_draws(rng, (k, m))))
        ys = _edge_draws(rng, (k, m))
        for st_, zl, yl in zip(states.tolist(), zs.tolist(), ys.tolist()):
            _same_verdict(st_, zl, yl)
            count += 1
    assert count >= 100_000


def _certified_by_definition(states, zl, yl):
    """`_residual` at most CERT_TOL, plus the degeneracy guard."""
    degenerate = any(abs(z) >= 1.0 - LIM if s == IN else abs(y) <= LIM
                     for s, z, y in zip(states, zl, yl))
    return mlcp._residual(states, zl, yl) <= LIM and not degenerate


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(pivot_answers())
def test_short_certificate_matches_its_definition(answer):
    assert mlcp._certified(*answer) == _certified_by_definition(*answer)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(pivot_answers())
def test_keep_scan_is_the_certificate_with_exact_equations(answer):
    # the warm step keeps a set on this one scan; where it does,
    # `_violation` (here W = 0 and b = y, so b - W z = y) names nothing
    states, zl, yl = answer
    kept = mlcp._certified(states, zl, yl, FEAS_TOL)
    exact = all(abs(y) <= FEAS_TOL for s, y in zip(states, yl) if s == IN)
    assert kept == (_certified_by_definition(states, zl, yl) and exact)
    if kept:
        m = len(states)
        assert mlcp._violation(states, np.zeros((m, m)), yl, np.array(zl),
                               zl, yl) is None


NEGATIVE_W = [-1e-6, -5e-324, -1.0]
B_VALUES = [3.0, 1e-3, 0.0, -0.5, -1e3]


@pytest.mark.parametrize("W", NEGATIVE_W)
@pytest.mark.parametrize("b", B_VALUES)
def test_auto_ladder_on_negative_W(W, b):
    prob = sign_problem(W, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = mlcp.sign_step_solver(np.array([[W]])).solve(np.array([b]))
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


@SETTINGS
@given(positive_scalar_steps())
def test_one_step_entry_builds_no_solver_at_m1(step):
    # the Newton loop's entry: the closed form, with no solver built
    W, b = step
    want = mlcp.sign_step_solver([[W]]).solve([b])
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
# the StepFailure that `sign_step_solver(W).solve(b)` raises on it, or None
ONE_STEP_COLD = {
    "W < 0": ([[-0.1]], [0.5], None),
    "W = 0": ([[0.0]], [1.0], None),
    "W = -0.0": ([[-0.0]], [-1.0], None),
    "NaN W": ([[math.nan]], [0.5], "SignProblem dim=1\nW  nan\nb  0.5"),
    "NaN b": ([[1.0]], [math.nan], "SignProblem dim=1\nW  1\nb  nan"),
    "inf b": ([[1.0]], [math.inf], "SignProblem dim=1\nW  1\nb  inf"),
    "uncertified b": ([[162910815.15397093]], [85430911.0], None),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ONE_STEP_COLD)
def test_one_step_entry_falls_back_as_the_solver_does(case):
    W, b, dump = ONE_STEP_COLD[case]
    W, b = np.array(W), np.array(b)
    want = _outcome(lambda: mlcp.sign_step_solver(W).solve(b))
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
        want = _outcome(lambda: mlcp.sign_step_solver(W).solve(b))
        assert _outcome(lambda: mlcp.sign_step(W, b)) == want


# ---------------------------------------------------------------------------
# a fresh solver's first step starts at the answer of W's diagonal

# b_i against the guess's thresholds +-W_ii: on one, one ulp past it or one
# ulp inside it, a signed zero, or anywhere within 3 W_ii
GUESS_EDGES = ["at", "past", "inside", "+0", "-0", "free"]
HUGE = st.floats(1e307, 1.7976931348623157e308)


@st.composite
def first_steps(draw):
    """(W, b) of a fresh solver's first step: W = h (I + 0.3 G / |G|_2),
    whose symmetric part is positive definite, or that W scaled to 1e-300,
    with each b_i on an edge of the guess, or near 1e308, or with one NaN
    or infinite b_i.  A b with a huge or non-finite entry sends `solve`'s
    all-interior start to a NaN point and so to the oracle's 3^m sweep
    (8 s at m = 12), so those regimes stay at m <= 6; the others run to
    m = 12."""
    regime = draw(st.sampled_from(["edges", "huge", "tiny-edges",
                                   "tiny-huge", "non-finite"]))
    m = draw(st.integers(2, 12 if regime.endswith("edges") else 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    G = rng.standard_normal((m, m))
    h = 1e-300 if regime.startswith("tiny") else draw(
        st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    W = h * (np.eye(m) + 0.3 * G / np.linalg.norm(G, 2))
    b = np.empty(m)
    for i in range(m):
        sign, w = draw(SIGNS), W[i, i]
        # a tiny W takes b near 1e308 on every index or on none: mixed,
        # `solve`'s absolute FEAS_TOL can accept a set whose r_i have the
        # wrong sign at W's scale, where the warm start keeps the true one
        edge = "huge" if regime == "tiny-huge" else draw(st.sampled_from(
            GUESS_EDGES + ["huge"] if regime == "huge" else GUESS_EDGES))
        if edge == "huge":
            b[i] = sign * draw(HUGE)
        elif edge == "at":
            b[i] = sign * w
        elif edge == "past":
            b[i] = np.nextafter(sign * w, sign * np.inf)
        elif edge == "inside":
            b[i] = np.nextafter(sign * w, 0.0)
        elif edge in ("+0", "-0"):
            b[i] = 0.0 if edge == "+0" else -0.0
        else:
            b[i] = sign * w * draw(st.floats(0.0, 3.0))
    if regime == "non-finite":
        b[draw(st.integers(0, m - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return W, b


@SETTINGS
@given(step=first_steps())
def test_first_warm_step_starts_at_the_diagonal_answer(step):
    # the first warm pivot starts upper where b_i > W_ii, lower where
    # b_i < -W_ii and interior otherwise (NaN included), and ends in the
    # bytes of `solve`, or in the StepFailure of `_cold`, with no warning
    W, b = step
    starts = []

    def pivot(W, b, states, *args, **kwargs):
        starts.append(list(states))
        return _pivot(W, b, states, *args, **kwargs)

    _pivot = mlcp._pivot
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve = mlcp.sign_step_solver(W).solve
        with mock.patch.object(mlcp, "_pivot", side_effect=pivot):
            got = _outcome(lambda: solve(b))
        want = _outcome(lambda: mlcp._cold(W, b))
    assert starts[0] == [UP if bi > wi else LO if bi < -wi else IN
                         for bi, wi in zip(b.tolist(), np.diag(W).tolist())]
    assert got == want
    if not np.isfinite(b).all():
        assert got[0].startswith("one-step MLCP ")
        assert got[1] == mlcp.format_problem(mlcp.SignProblem(W, b))


# (W, b, answer or None for a StepFailure) where the cold rungs' point
# overflows: W + W^T of the first is singular, so the gate sends every step
# cold, and the oracle's set (interior, lower) has r_1 = 2e308 - 1; the
# second's all-interior start takes an infinite right-hand side
OVERFLOWED = [([[1.0, 0.0], [2.0, 1.0]], [1e308, 0.0], [1.0, -1.0]),
              ([[0.1, 0.02], [-0.03, 0.1]], [math.inf, 0.01], None)]


@pytest.mark.parametrize("W, b, want", OVERFLOWED)
def test_cold_rungs_raise_no_warning_on_an_overflowed_point(W, b, want):
    W, b = np.array(W), np.array(b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda: mlcp.sign_step_solver(W).solve(b))
        for rung in (mlcp.solve_pivoting, mlcp.solve_enumerative):
            rung(mlcp.SignProblem(W, b))
    if want is None:
        assert got[0] == INFEASIBLE
    else:
        assert got[2] == np.array(want).tobytes()


@pytest.mark.parametrize("seed", [1, 7])
def test_a_runs_first_step_visits_at_most_two_sets(seed):
    # the first steps of the `mimo-pivot` workload's jobs 0-3 (216 runs):
    # from the all-interior set they walked 5.1, 9.6 and 13.9 sets on
    # average at m = 4, 8 and 12 (seed 1), up to 22; from the diagonal's
    # answer 207 take one set and 9 two (209 and 7 at seed 7).  Two is what
    # these seeds show, not a bound: seed 21 has one first step of three
    lib = types.SimpleNamespace(integrators=integrators, systems=systems)
    bench = workloads.MimoPivot(lib, seed)
    visits = []
    for (_, sys), x0s in zip(bench.systems, bench.x0):
        for x0 in x0s[:4]:
            with mock.patch.object(mlcp, "_set_point",
                                   wraps=mlcp._set_point) as point:
                traj = integrators.simulate_linear(sys, x0, 0.0, bench.H,
                                                   bench.cfg)
            assert traj.steps_taken == 1
            visits.append(point.call_count)
    assert len(visits) == 216 and max(visits) <= 2, visits


def test_newton_solves_visit_one_set_each():
    # the outer Newton loop builds a fresh solver for each iterate's W: on
    # the m = 2 affine-gain golden run each of its 473 solves is answered
    # at its first set (989 visits from the all-interior set)
    with mock.patch.object(mlcp, "sign_step_solver",
                           wraps=mlcp.sign_step_solver) as solvers, \
            mock.patch.object(mlcp, "_set_point",
                              wraps=mlcp._set_point) as point:
        _newton_affine_m2(1.0, 1.0)
    assert solvers.call_count == point.call_count == 473
