import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisurf import mlcp
from tests import box_certificate

IN, LO, UP = mlcp._INTERIOR, mlcp._LOWER, mlcp._UPPER


def random_spd_problem(rng, m):
    A = rng.standard_normal((m, m))
    W = A @ A.T + 0.1 * np.eye(m)
    b = rng.standard_normal(m)
    return mlcp.SignProblem(W, b)


def answer_r(p, sol):
    """r = W z - b of an answer, as the solvers compute it."""
    return p.W @ sol.z - p.b


class TestProblemValidation:
    """`mlcp.MlcpProblem`, the box-MLCP spelling that the benchmark's
    oracle re-solve builds, takes the box [-1, 1]^m only."""

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            mlcp.MlcpProblem(dim=1, M=[[1.0]], q=[0.0], l=[1.0], u=[-1.0])
        # a finite box other than [-1, 1]^m, or bounds of another length
        for l, u in (([0.0, -1.0], [2.0, 1.0]), ([-1.0, -1.0], [1.0, 0.5]),
                     ([-2.0, -2.0], [2.0, 2.0]), ([-1.0], [1.0])):
            with pytest.raises(ValueError):
                mlcp.MlcpProblem(dim=2, M=np.eye(2), q=[0.5, -0.5], l=l,
                                 u=u)

    @pytest.mark.parametrize("l, u", [(np.inf, np.inf), (np.nan, 1.0),
                                      (-1.0, np.nan), (-np.inf, 1.0),
                                      (-1.0, np.inf)])
    def test_infinite_wrong_side(self, l, u):
        with pytest.raises(ValueError):
            mlcp.MlcpProblem(dim=1, M=[[1.0]], q=[0.0], l=[l], u=[u])

    def test_benchmark_call_is_the_sign_problem_bitwise(self):
        # the oracle re-solve's exact call, against the sign step it spells
        rng = np.random.default_rng(7)
        cases = []
        for m in range(1, 9):
            for _ in range(6):
                G = rng.standard_normal((m, m))
                W = (0.05 * (G @ G.T + m * np.eye(m)) if rng.random() < 0.5
                     else G)
                cases.append((W, 0.3 * rng.standard_normal(m)))
        cases += [(np.eye(2), np.array([-0.0, 0.0])),
                  (np.eye(2), np.array([np.nan, 0.5])),
                  (np.array([[-1.0]]), np.array([0.25]))]
        for W, b in cases:
            m = len(b)
            held = mlcp.solve_enumerative(mlcp.MlcpProblem(
                dim=m, M=W, q=-b, l=-np.ones(m), u=np.ones(m)))
            ref = mlcp.solve_enumerative(mlcp.SignProblem(W, b))
            assert held.z.tobytes() == ref.z.tobytes()
            assert held.status == ref.status


class TestEncode:
    """The sign step's one record, `SignProblem(W, b)`."""

    def test_field_mapping(self):
        p = mlcp.SignProblem([[0.2]], [0.1])
        assert p.W.shape == (1, 1) and p.b.shape == (1,) and p.dim == 1
        assert p.W[0, 0] == 0.2 and p.b[0] == 0.1
        assert p.W.dtype == p.b.dtype == np.float64

    def test_two_surface_encoding(self):
        W = 0.02 * 5 * np.eye(2)
        b = np.array([0.05, -0.08])
        sol = mlcp.solve_enumerative(mlcp.SignProblem(W, b))
        assert sol.status == "solved"
        y = b - W @ sol.z
        # interior selections zero the output
        assert np.allclose(sol.z, [0.5, -0.8])
        assert np.allclose(y, 0.0, atol=1e-14)

    def test_shape_mismatch(self):
        for W, b in ((np.eye(2), [1.0]), (np.ones((2, 3)), [1.0, 2.0]),
                     (np.eye(2), np.ones((2, 1)))):
            with pytest.raises(ValueError):
                mlcp.SignProblem(W, b)

    def test_degenerate_empty(self):
        p = mlcp.SignProblem(np.zeros((0, 0)), np.zeros(0))
        for solver in (mlcp.solve_enumerative, mlcp.solve_pivoting,
                       mlcp.solve):
            sol = solver(p)
            assert sol.status == "solved" and sol.z.shape == (0,)
            assert sol.residual == 0.0


class TestEnumerative:
    def test_interior(self):
        sol = mlcp.solve_enumerative(mlcp.SignProblem([[1.0]], [0.5]))
        assert sol.status == "solved"
        assert np.isclose(sol.z[0], 0.5)
        assert sol.residual == 0.0

    def test_upper_bound(self):
        p = mlcp.SignProblem([[1.0]], [2.0])
        sol = mlcp.solve_enumerative(p)
        assert sol.z[0] == 1.0 and sol.residual == 0.0
        # the output y = b - W s is positive, as s = 1 needs
        assert answer_r(p, sol)[0] == -1.0

    def test_sticking_selection(self):
        # interior solve z = b / W, the one-step selection x_k / h
        sol = mlcp.solve_enumerative(mlcp.SignProblem([[0.2]], [0.01]))
        assert np.isclose(sol.z[0], 0.05)

    def test_infeasible(self):
        # W = 0 and b = -1: y = -1 < 0 whatever s is, so s = -1
        sol = mlcp.solve_enumerative(mlcp.SignProblem([[0.0]], [-1.0]))
        assert sol.status == "solved" and sol.z[0] == -1.0

    def test_cap(self):
        with pytest.raises(ValueError):
            mlcp.solve_enumerative(mlcp.SignProblem(np.eye(13),
                                                    np.zeros(13)))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_b_rejects_every_set(self, entry):
        # every assignment's W z - b is non-finite, so the sweep finds no
        # set, and `solve` at m = 12 answers as soon as pivoting has failed
        # (the 3^12 sweep took about 10 s)
        rng = np.random.default_rng(5)
        small = random_spd_problem(rng, 4)
        b = small.b.copy()
        b[2] = entry
        small = mlcp.SignProblem(small.W, b)
        assert all(mlcp._assignment_solution(small, states) is None
                   for states in itertools.product((IN, LO, UP), repeat=4))
        big = random_spd_problem(rng, 12)
        b = big.b.copy()
        b[7] = entry
        start = time.perf_counter()
        sol = mlcp.solve(mlcp.SignProblem(big.W, b))
        assert time.perf_counter() - start < 0.5
        for got in (sol, mlcp.solve_enumerative(small)):
            assert got.status == "infeasible"
            assert got.reason == "no active set is feasible"
            assert np.isnan(got.z).all() and got.residual == np.inf


class TestPivoting:
    def test_matches_enumerative_on_examples(self):
        for W, b in ([[1.0]], [0.5]), ([[1.0]], [2.0]), ([[0.2]], [0.01]):
            p = mlcp.SignProblem(W, b)
            ref, piv = mlcp.solve_enumerative(p), mlcp.solve_pivoting(p)
            assert piv.status == "solved"
            assert np.allclose(ref.z, piv.z, atol=1e-10)

    def test_degenerate_row_canonical_zero(self):
        sol = mlcp.solve_pivoting(mlcp.SignProblem([[0.0]], [0.0]))
        assert sol.status == "solved" and sol.z[0] == 0.0

    def test_random_spd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_spd_problem(rng, 6)
            a = mlcp.solve_enumerative(p)
            b = mlcp.solve_pivoting(p)
            assert np.allclose(a.z, b.z, atol=1e-8)


# each call in a child process, so a solve that never returns fails the
# test at the timeout instead of holding the suite
INFINITE_ENTRY = """
import numpy as np
from multisurf import mlcp
for i, entry in ((1, np.inf), (2, -np.inf)):
    W = np.eye(3)
    W[i, 0] = entry
    b = np.array([0.5, 0.1, 0.2])
    p = mlcp.SignProblem(W, b)
    print(mlcp.solve_pivoting(p).status, mlcp.solve_enumerative(p).status)
    try:
        mlcp.sign_step_solver(W).solve(b)
    except mlcp.StepFailure as exc:
        print(exc.message)
"""


def test_an_infinite_W_entry_ends_the_solve():
    # lstsq on the singular interior block spun in OpenBLAS DLASCL, and
    # the set's products warned of inf * 0.0
    src = os.path.dirname(os.path.dirname(mlcp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", INFINITE_ENTRY],
                         capture_output=True, text=True, env=env, timeout=30,
                         check=True)
    failure = "one-step MLCP infeasible: no active set is feasible"
    assert run.stdout.splitlines() == ["uncertified infeasible", failure] * 2
    assert run.stderr == ""


class TestCertify:
    """The certificate `_residual`: the sign inclusion's own residual per
    index of the answer's active set."""

    def test_exact_solution(self):
        p = mlcp.SignProblem([[1.0]], [0.5])
        sol = mlcp.solve_enumerative(p)
        assert sol.residual <= 1e-14

    def test_perturbed_interior(self):
        p = mlcp.SignProblem([[2.0]], [0.5])
        z = mlcp.solve_enumerative(p).z + 1e-3
        res = mlcp._residual([IN], z.tolist(), (p.W @ z - p.b).tolist())
        assert np.isclose(res, 2.0 * 1e-3)

    def test_negated_slack(self):
        # s = 1 with y = b - W s = 1 >= 0; the same |y| on the wrong side
        # violates the upper index's condition by |y|
        p = mlcp.SignProblem([[1.0]], [2.0])
        sol = mlcp.solve_enumerative(p)
        r = answer_r(p, sol)
        assert mlcp._residual([UP], sol.z.tolist(), (-r).tolist()) >= 1.0

    @pytest.mark.parametrize("part", ["z", "w", "v"])
    @pytest.mark.parametrize("i", [0, 1])
    def test_nan_in_any_entry_propagates(self, part, i):
        # z: an interior z_i; w and v: the r_i of an index at its lower
        # bound (the box form's slack w_i = r_i) or its upper bound
        # (v_i = -r_i).  Python's max() keeps its first argument over a
        # later NaN, which once dropped it
        p = mlcp.SignProblem([[1.0, 0.2], [-0.3, 1.0]], [0.5, -0.25])
        sol = mlcp.solve_enumerative(p)
        states = [IN, IN]
        zl, rl = sol.z.tolist(), answer_r(p, sol).tolist()
        if part == "z":
            zl[i] = np.nan
        else:
            states[i] = LO if part == "w" else UP
            zl[i], rl[i] = (-1.0 if part == "w" else 1.0), np.nan
        assert np.isnan(mlcp._residual(states, zl, rl))
        assert np.isnan(box_certificate.residual(states, zl, rl))

    @pytest.mark.parametrize("solver", [mlcp.solve, mlcp.solve_pivoting,
                                        mlcp.solve_enumerative])
    @pytest.mark.parametrize("q", [[np.nan, 0.0], [0.0, np.nan]])
    def test_nan_problem_is_not_certified(self, solver, q):
        # q = -b, NaN at one index: pivoting meets no violation in NaN; its
        # answer had residual 0.0 and a NaN slack, and `solve` returned it
        # as solved
        sol = solver(mlcp.SignProblem([[1.0, 0.2], [-0.3, 1.0]],
                                      -np.array(q)))
        assert not (sol.status == "solved" and sol.residual <= mlcp.CERT_TOL)
        if solver is mlcp.solve_pivoting:
            # its status comes from the certificate
            assert sol.status == "uncertified"
            assert sol.reason == "certified residual nan above 1e-08"


class TestSolverAgreement:
    def test_oracle_equivalence_200_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            p = random_spd_problem(rng, m)
            ref = mlcp.solve_enumerative(p)
            assert ref.status == "solved"
            sol = mlcp.solve_pivoting(p)
            assert sol.status == "solved"
            assert np.max(np.abs(sol.z - ref.z)) <= 1e-8
            assert sol.residual <= 1e-9

    def test_encoding_soundness(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            A = rng.standard_normal((m, m))
            W = A @ A.T + 0.1 * np.eye(m)
            b = rng.standard_normal(m)
            sol = mlcp.solve_enumerative(mlcp.SignProblem(W, b))
            y = b - W @ sol.z
            for i in range(m):
                assert abs(sol.z[i]) <= 1 + 1e-12
                if abs(sol.z[i]) < 1 - 1e-9:
                    assert abs(y[i]) <= 1e-9
                elif sol.z[i] >= 1 - 1e-9:
                    assert y[i] >= -1e-9
                else:
                    assert y[i] <= 1e-9

    def test_scaling_covariance(self):
        rng = np.random.default_rng(9)
        p = random_spd_problem(rng, 4)
        scaled = mlcp.SignProblem(3.0 * p.W, 3.0 * p.b)
        a = mlcp.solve_enumerative(p)
        b = mlcp.solve_enumerative(scaled)
        assert np.allclose(a.z, b.z, atol=1e-10)
        assert np.allclose(3.0 * answer_r(p, a), answer_r(scaled, b),
                           atol=1e-9)


class TestSolvePolicy:
    def test_auto_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_spd_problem(rng, 4)
            a = mlcp.solve(p)
            b = mlcp.solve_enumerative(p)
            assert np.allclose(a.z, b.z, atol=1e-8)

    def test_dump_format(self):
        p = mlcp.SignProblem([[1.0, 0.25], [-0.5, 2.0]], [0.1, -np.inf])
        assert mlcp.format_problem(p) == (
            "SignProblem dim=2\nW  1  0.25\nW  -0.5  2\n"
            "b  0.10000000000000001  -inf")


# ---------------------------------------------------------------------------
# oracle net: every solver against the enumerative oracle on generated sign
# problems, m <= 8, scaled by h in [1e-6, 1], and for scales past 1 in
# [1, 1e6], where the interior equation test is relative

P_KINDS = ["spd", "pd-nonsymmetric", "p-matrix"]
OTHER_KINDS = ["singular-minor", "positive-diagonal", "symmetric-indefinite",
               "arbitrary"]
B_KINDS = ["random", "zero", "degenerate"]
LIM = 1e2 * mlcp.FEAS_TOL


def generated_problem(rng, m, w_kind, b_kind, h):
    """One sign problem (h W, h b) of a matrix and a b class.

    P-matrix classes: "spd"; "pd-nonsymmetric", an SPD part plus a skew
    part; "p-matrix", a positive diagonal times an SPD matrix, which need
    not be positive definite.  Others: "singular-minor" (G G^T with G of
    rank m - 1, so W itself is a singular principal minor), "positive-
    diagonal" (arbitrary off the diagonal), "symmetric-indefinite" and
    "arbitrary".  b is "random", "zero", or "degenerate": built from a
    known solution in which one bound index has r = 0.
    """
    G = rng.standard_normal((m, m))
    spd = G @ G.T / m + 0.5 * np.eye(m)
    if w_kind == "spd":
        W = spd
    elif w_kind == "pd-nonsymmetric":
        W = spd + (G - G.T)
    elif w_kind == "p-matrix":
        W = np.diag(rng.uniform(0.1, 10.0, m)) @ spd
    elif w_kind == "singular-minor":
        W = G[:, 1:] @ G[:, 1:].T
    elif w_kind == "positive-diagonal":
        W = G - np.diag(np.diag(G)) + np.diag(rng.uniform(0.1, 2.0, m))
    elif w_kind == "symmetric-indefinite":
        W = (G + G.T) / 2
    else:
        W = G
    if b_kind == "random":
        b = 2.0 * rng.standard_normal(m)
    elif b_kind == "zero":
        b = np.zeros(m)
    else:
        # z at a bound where r = W z - b is nonzero, plus index 0 at a
        # bound with r = 0
        z = rng.uniform(-0.9, 0.9, m)
        r = np.zeros(m)
        for i in range(m):
            if i == 0 or rng.random() < 0.4:
                z[i] = rng.choice([-1.0, 1.0])
                r[i] = 0.0 if i == 0 else -z[i] * rng.uniform(0.1, 1.0)
        b = W @ z - r
    return mlcp.SignProblem(h * W, h * b)


@st.composite
def problems(draw, kinds, log_scales=(-6.0, 0.0)):
    m = draw(st.integers(1, 8))
    w_kind = draw(st.sampled_from(kinds))
    b_kind = draw(st.sampled_from(B_KINDS))
    h = 10.0 ** draw(st.floats(*log_scales))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return generated_problem(rng, m, w_kind, b_kind, h)


ORACLE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                           database=None)


def _box_certificate(p, sol):
    """The box-MLCP certificate of an answer, with the slacks of r at its
    bound indices."""
    r = answer_r(p, sol)
    w = np.where(sol.z == -1.0, np.maximum(r, 0.0), 0.0)
    v = np.where(sol.z == 1.0, np.maximum(-r, 0.0), 0.0)
    return box_certificate.certify(p.W, -p.b, sol.z, w, v)


def _check_solved_answers(p):
    """Every solver's "solved" answer certifies at CERT_TOL, by its own
    residual and by the box-MLCP certificate, and `solve` answers wherever
    the oracle does."""
    oracle = mlcp.solve_enumerative(p)
    answers = {"oracle": oracle, "pivot": mlcp.solve_pivoting(p),
               "auto": mlcp.solve(p)}
    for name, sol in answers.items():
        if sol.status == "solved":
            assert sol.residual <= LIM, name
            assert _box_certificate(p, sol) <= LIM, name
    if oracle.status == "solved":
        assert answers["auto"].status == "solved"


@ORACLE_SETTINGS
@given(problems(P_KINDS + OTHER_KINDS))
def test_solved_answers_certify_and_auto_answers_where_the_oracle_does(p):
    _check_solved_answers(p)


@ORACLE_SETTINGS
@given(problems(P_KINDS + OTHER_KINDS, log_scales=(0.0, 6.0)))
def test_solved_answers_certify_at_scales_past_one(p):
    _check_solved_answers(p)


def test_an_answer_above_the_certificate_bound_is_not_solved():
    # the interior set passes the mixed equation test, but its certified
    # residual is 2.98e-8 > CERT_TOL: no solver calls it solved
    W = [[1e9, 3e8], [2e8, 1.1e9]]
    b = [3e8 + 0.1234567, -2e8 + 0.7654321]
    p = mlcp.SignProblem(W, b)
    for solver in (mlcp.solve_pivoting, mlcp.solve_enumerative, mlcp.solve):
        sol = solver(p)
        assert sol.status == "uncertified" and sol.residual > mlcp.CERT_TOL
    with pytest.raises(mlcp.StepFailure, match="^one-step MLCP uncertified"):
        mlcp.sign_step_solver(W).solve(np.array(b))


@ORACLE_SETTINGS
@given(problems(P_KINDS))
def test_pivoting_and_auto_match_the_oracle_on_p_matrices(p):
    oracle = mlcp.solve_enumerative(p)
    assert oracle.status == "solved"
    for sol in (mlcp.solve_pivoting(p), mlcp.solve(p)):
        assert sol.status == "solved"
        assert np.max(np.abs(sol.z - oracle.z)) <= 1e-8
