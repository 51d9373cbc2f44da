import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multisurf import mlcp


def box_problem(M, q):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    m = len(q)
    return mlcp.MlcpProblem(dim=m, M=M, q=q, l=-np.ones(m), u=np.ones(m))


def random_spd_problem(rng, m):
    A = rng.standard_normal((m, m))
    M = A @ A.T + 0.1 * np.eye(m)
    q = rng.standard_normal(m)
    return box_problem(M, q)


class TestProblemValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            mlcp.MlcpProblem(dim=1, M=[[1.0]], q=[0.0], l=[1.0], u=[-1.0])

    @pytest.mark.parametrize("l, u", [(np.inf, np.inf), (np.nan, 1.0),
                                      (-1.0, np.nan), (-np.inf, 1.0),
                                      (-1.0, np.inf)])
    def test_infinite_wrong_side(self, l, u):
        # only finite boxes are accepted; a NaN bound fails no comparison
        with pytest.raises(ValueError):
            mlcp.MlcpProblem(dim=1, M=[[1.0]], q=[0.0], l=[l], u=[u])


class TestEncode:
    def test_field_mapping(self):
        p = mlcp.encode([[0.2]], [0.1])
        assert p.M[0, 0] == 0.2 and p.q[0] == -0.1
        assert p.l[0] == -1 and p.u[0] == 1

    def test_two_surface_encoding(self):
        W = 0.02 * 5 * np.eye(2)
        b = np.array([0.05, -0.08])
        sol = mlcp.solve_enumerative(mlcp.encode(W, b))
        assert sol.status == "solved"
        y = b - W @ sol.z
        # interior selections zero the output
        assert np.allclose(sol.z, [0.5, -0.8])
        assert np.allclose(y, 0.0, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mlcp.encode(np.eye(2), [1.0])

    def test_degenerate_empty(self):
        sol = mlcp.solve_enumerative(mlcp.encode(np.zeros((0, 0)),
                                                 np.zeros(0)))
        assert sol.status == "solved" and sol.z.shape == (0,)


class TestEnumerative:
    def test_interior(self):
        sol = mlcp.solve_enumerative(box_problem([[1.0]], [-0.5]))
        assert sol.status == "solved"
        assert np.isclose(sol.z[0], 0.5)
        assert sol.w[0] == 0.0 and sol.v[0] == 0.0

    def test_upper_bound(self):
        sol = mlcp.solve_enumerative(box_problem([[1.0]], [-2.0]))
        assert np.isclose(sol.z[0], 1.0)
        assert np.isclose(sol.v[0], 1.0) and sol.w[0] == 0.0

    def test_sticking_selection(self):
        # interior solve z = -q/M, the one-step selection x_k/h
        sol = mlcp.solve_enumerative(box_problem([[0.2]], [-0.01]))
        assert np.isclose(sol.z[0], 0.05)

    def test_infeasible(self):
        # z must satisfy 0*z + 1 = w - v with w only at l, v only at u
        p = mlcp.MlcpProblem(dim=1, M=[[0.0]], q=[1.0], l=[-1.0], u=[1.0])
        sol = mlcp.solve_enumerative(p)
        # q > 0 needs w > 0, feasible only with z at the lower bound
        assert sol.status == "solved" and sol.z[0] == -1.0

    def test_cap(self):
        with pytest.raises(ValueError):
            mlcp.solve_enumerative(box_problem(np.eye(13), np.zeros(13)))


class TestPivoting:
    def test_matches_enumerative_on_examples(self):
        for M, q in ([[1.0]], [-0.5]), ([[1.0]], [-2.0]), ([[0.2]], [-0.01]):
            p = box_problem(M, q)
            a = mlcp.solve_enumerative(p)
            b = mlcp.solve_pivoting(p)
            assert b.status == "solved"
            assert np.allclose(a.z, b.z, atol=1e-10)

    def test_degenerate_row_canonical_zero(self):
        sol = mlcp.solve_pivoting(box_problem([[0.0]], [0.0]))
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
    p = mlcp.encode(W, b)
    print(mlcp.solve_pivoting(p).status, mlcp.solve_enumerative(p).status)
    try:
        mlcp.sign_step_solver(W)(b)
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
    def test_exact_solution(self):
        p = box_problem([[1.0]], [-0.5])
        sol = mlcp.solve_enumerative(p)
        assert mlcp.certify(p, sol) <= 1e-14

    def test_perturbed_interior(self):
        p = box_problem([[2.0]], [-0.5])
        sol = mlcp.solve_enumerative(p)
        bad = mlcp.MlcpSolution(z=sol.z + 1e-3, w=sol.w, v=sol.v,
                                residual=0.0, status="solved")
        assert np.isclose(mlcp.certify(p, bad), 2.0 * 1e-3)

    def test_negated_slack(self):
        p = box_problem([[1.0]], [-2.0])
        sol = mlcp.solve_enumerative(p)
        bad = mlcp.MlcpSolution(z=sol.z, w=sol.w, v=-sol.v, residual=0.0,
                                status="solved")
        assert mlcp.certify(p, bad) >= np.max(np.abs(sol.v))

    @pytest.mark.parametrize("part", ["z", "w", "v"])
    @pytest.mark.parametrize("i", [0, 1])
    def test_nan_in_any_entry_propagates(self, part, i):
        # max() kept its first argument and dropped a NaN after it
        p = box_problem([[1.0, 0.2], [-0.3, 1.0]], [-0.5, 0.25])
        sol = mlcp.solve_enumerative(p)
        bad = getattr(sol, part).copy()
        bad[i] = np.nan
        assert np.isnan(mlcp.certify(p, replace(sol, **{part: bad})))

    @pytest.mark.parametrize("solver", [mlcp.solve, mlcp.solve_pivoting,
                                        mlcp.solve_enumerative])
    @pytest.mark.parametrize("q", [[np.nan, 0.0], [0.0, np.nan]])
    def test_nan_problem_is_not_certified(self, solver, q):
        # pivoting meets no violation in NaN; its answer had residual 0.0
        # and w = [nan, 0], and `solve` returned it as solved
        sol = solver(box_problem([[1.0, 0.2], [-0.3, 1.0]], q))
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
            assert mlcp.certify(p, sol) <= 1e-9

    def test_encoding_soundness(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            A = rng.standard_normal((m, m))
            W = A @ A.T + 0.1 * np.eye(m)
            b = rng.standard_normal(m)
            sol = mlcp.solve_enumerative(mlcp.encode(W, b))
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
        scaled = mlcp.MlcpProblem(dim=4, M=3.0 * p.M, q=3.0 * p.q,
                                  l=p.l, u=p.u)
        a = mlcp.solve_enumerative(p)
        b = mlcp.solve_enumerative(scaled)
        assert np.allclose(a.z, b.z, atol=1e-10)
        assert np.allclose(3.0 * a.w, b.w, atol=1e-9)
        assert np.allclose(3.0 * a.v, b.v, atol=1e-9)


class TestSolvePolicy:
    def test_auto_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_spd_problem(rng, 4)
            a = mlcp.solve(p)
            b = mlcp.solve_enumerative(p)
            assert np.allclose(a.z, b.z, atol=1e-8)

    def test_dump_format(self):
        text = mlcp.format_problem(box_problem([[1.0]], [-0.5]))
        assert text.splitlines()[0] == "MLCP dim=1"
        assert any(line.startswith("q") for line in text.splitlines())


# ---------------------------------------------------------------------------
# oracle net: every solver against the enumerative oracle on generated box
# MLCPs, m <= 8, scaled by h in [1e-6, 1], and for scales past 1 in
# [1, 1e6], where the interior equation test is relative

P_KINDS = ["spd", "pd-nonsymmetric", "p-matrix"]
OTHER_KINDS = ["singular-minor", "positive-diagonal", "symmetric-indefinite",
               "arbitrary"]
Q_KINDS = ["random", "zero", "degenerate"]
LIM = 1e2 * mlcp.FEAS_TOL


def generated_problem(rng, m, m_kind, q_kind, h):
    """One box MLCP h (M z + q) on [-1, 1]^m of a matrix and a q class.

    P-matrix classes: "spd"; "pd-nonsymmetric", an SPD part plus a skew
    part; "p-matrix", a positive diagonal times an SPD matrix, which need
    not be positive definite.  Others: "singular-minor" (G G^T with G of
    rank m - 1, so M itself is a singular principal minor), "positive-
    diagonal" (arbitrary off the diagonal), "symmetric-indefinite" and
    "arbitrary".  q is "random", "zero", or "degenerate": built from a
    known solution in which one bound index has zero slack.
    """
    G = rng.standard_normal((m, m))
    spd = G @ G.T / m + 0.5 * np.eye(m)
    if m_kind == "spd":
        M = spd
    elif m_kind == "pd-nonsymmetric":
        M = spd + (G - G.T)
    elif m_kind == "p-matrix":
        M = np.diag(rng.uniform(0.1, 10.0, m)) @ spd
    elif m_kind == "singular-minor":
        M = G[:, 1:] @ G[:, 1:].T
    elif m_kind == "positive-diagonal":
        M = G - np.diag(np.diag(G)) + np.diag(rng.uniform(0.1, 2.0, m))
    elif m_kind == "symmetric-indefinite":
        M = (G + G.T) / 2
    else:
        M = G
    if q_kind == "random":
        q = 2.0 * rng.standard_normal(m)
    elif q_kind == "zero":
        q = np.zeros(m)
    else:
        # z at a bound where the slack w - v is nonzero, plus index 0 at a
        # bound with zero slack
        z = rng.uniform(-0.9, 0.9, m)
        slack = np.zeros(m)
        for i in range(m):
            if i == 0 or rng.random() < 0.4:
                z[i] = rng.choice([-1.0, 1.0])
                slack[i] = 0.0 if i == 0 else -z[i] * rng.uniform(0.1, 1.0)
        q = slack - M @ z
    return box_problem(h * M, h * q)


@st.composite
def problems(draw, kinds, log_scales=(-6.0, 0.0)):
    m = draw(st.integers(1, 8))
    m_kind = draw(st.sampled_from(kinds))
    q_kind = draw(st.sampled_from(Q_KINDS))
    h = 10.0 ** draw(st.floats(*log_scales))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return generated_problem(rng, m, m_kind, q_kind, h)


ORACLE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                           database=None)


def _check_solved_answers(p):
    """Every solver's "solved" answer certifies at CERT_TOL, and `solve`
    answers wherever the oracle does."""
    oracle = mlcp.solve_enumerative(p)
    answers = {"oracle": oracle, "pivot": mlcp.solve_pivoting(p),
               "auto": mlcp.solve(p)}
    for name, sol in answers.items():
        if sol.status == "solved":
            assert mlcp.certify(p, sol) <= LIM, name
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
    p = mlcp.encode(W, b)
    for solver in (mlcp.solve_pivoting, mlcp.solve_enumerative, mlcp.solve):
        sol = solver(p)
        assert sol.status == "uncertified" and sol.residual > mlcp.CERT_TOL
    with pytest.raises(mlcp.StepFailure, match="^one-step MLCP uncertified"):
        mlcp.sign_step_solver(W)(np.array(b))


@ORACLE_SETTINGS
@given(problems(P_KINDS))
def test_pivoting_and_auto_match_the_oracle_on_p_matrices(p):
    oracle = mlcp.solve_enumerative(p)
    assert oracle.status == "solved"
    for sol in (mlcp.solve_pivoting(p), mlcp.solve(p)):
        assert sol.status == "solved"
        assert np.max(np.abs(sol.z - oracle.z)) <= 1e-8
