"""Box-constrained mixed linear complementarity problems.

Problem: find z with l <= z <= u, w >= 0, v >= 0 such that

    M z + q = w - v,   (z - l)^T w = 0,   (u - z)^T v = 0.

The set-valued sign inclusion s in Sgn(y) with y = b - W s maps onto this
with M = W, q = -b and the box [-1, 1]^m; the recovered output is
y = -(M z + q) = v - w.

Three solvers share the same contract: an enumerative oracle (exponential,
reference only), a Murty least-index principal pivoting method, and a
projected SOR iteration backed by the compiled kernel when available.
`solve_sign_step` is the entry for one implicit time step; it answers the
one-surface case in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from multisurf import _kernels

FEAS_TOL = 1e-10
PSOR_OMEGA = 1.0
PSOR_MAX_ITER = 5000

# per-index active states, enumerated lexicographically
_INTERIOR, _LOWER, _UPPER = 0, 1, 2


class StepFailure(Exception):
    """A time step could not be completed.

    Carries a plain-text dump of the offending MLCP (when one exists) and
    the last residual of the Newton loop (when one ran).
    """

    def __init__(self, message, problem_text=None, residual=None):
        super().__init__(message)
        self.message = message
        self.problem_text = problem_text
        self.residual = residual


@dataclass(frozen=True)
class MlcpProblem:
    dim: int
    M: np.ndarray
    q: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        m = self.dim
        M = np.asarray(self.M, dtype=float).reshape(m, m)
        q = np.asarray(self.q, dtype=float).reshape(m)
        l = np.asarray(self.l, dtype=float).reshape(m)
        u = np.asarray(self.u, dtype=float).reshape(m)
        if np.any(l > u):
            raise ValueError("need l <= u componentwise")
        if np.any(l == np.inf) or np.any(u == -np.inf):
            raise ValueError("l must be < +inf and u > -inf")
        for name, val in (("M", M), ("q", q), ("l", l), ("u", u)):
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class MlcpSolution:
    z: np.ndarray
    w: np.ndarray
    v: np.ndarray
    residual: float
    status: str  # solved | infeasible | max-iterations


@dataclass(frozen=True)
class SignStepProblem:
    """One-step sign inclusion data: s in Sgn(b - W s)."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if W.shape[0] != W.shape[1] or W.shape[0] != b.shape[0]:
            raise ValueError("W must be square with matching b")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def dim(self):
        return self.b.shape[0]


def from_sign_step(p: SignStepProblem) -> MlcpProblem:
    """Encode the sign inclusion as a box MLCP on [-1, 1]^m."""
    m = p.dim
    return MlcpProblem(dim=m, M=p.W, q=-p.b, l=-np.ones(m), u=np.ones(m))


def recover_output(p: SignStepProblem, sol: MlcpSolution) -> np.ndarray:
    """The output y = b - W z realized by a solved sign-step problem."""
    return p.b - p.W @ sol.z


def _empty_solution():
    e = np.zeros(0)
    return MlcpSolution(z=e, w=e.copy(), v=e.copy(), residual=0.0,
                        status="solved")


def _split_slacks(r):
    return np.maximum(r, 0.0), np.maximum(-r, 0.0)


def certify(p: MlcpProblem, s: MlcpSolution) -> float:
    """Max violation of box, equation, complementarity and sign conditions."""
    if p.dim == 0:
        return 0.0
    box = max(np.max(p.l - s.z, initial=0.0), np.max(s.z - p.u, initial=0.0))
    eq = np.max(np.abs(p.M @ s.z + p.q - s.w + s.v))
    # complementarity products ignore infinite bounds (slack must be 0 there)
    gap_l = np.where(np.isfinite(p.l), s.z - p.l, 0.0)
    gap_u = np.where(np.isfinite(p.u), p.u - s.z, 0.0)
    comp = max(abs(gap_l @ s.w), abs(gap_u @ s.v))
    sign = max(np.max(-s.w, initial=0.0), np.max(-s.v, initial=0.0))
    return float(max(box, eq, comp, sign))


def _assignment_solution(p, states, tol):
    """Solve one active-set assignment; None when infeasible or singular."""
    m = p.dim
    z = np.zeros(m)
    interior = [i for i in range(m) if states[i] == _INTERIOR]
    for i in range(m):
        if states[i] == _LOWER:
            z[i] = p.l[i]
        elif states[i] == _UPPER:
            z[i] = p.u[i]
    if interior:
        I = np.array(interior)
        MI = p.M[np.ix_(I, I)]
        rhs = -p.q[I] - p.M[I] @ z + MI @ z[I]
        try:
            zI = np.linalg.solve(MI, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(zI)):
            return None
        z[I] = zI
        if np.any(zI < p.l[I] - tol) or np.any(zI > p.u[I] + tol):
            return None
    r = p.M @ z + p.q
    w = np.zeros(m)
    v = np.zeros(m)
    for i in range(m):
        if states[i] == _INTERIOR:
            if abs(r[i]) > tol:
                return None
        elif states[i] == _LOWER:
            if r[i] < -tol:
                return None
            w[i] = max(r[i], 0.0)
        else:
            if r[i] > tol:
                return None
            v[i] = max(-r[i], 0.0)
    return z, w, v


def solve_enumerative(p: MlcpProblem, tol=FEAS_TOL, cap=12) -> MlcpSolution:
    """Brute-force active-set enumeration, the reference oracle.

    Tries all 3^m assignments (interior < lower < upper, lexicographic) and
    returns the first feasible one; deterministic on degenerate problems.
    """
    m = p.dim
    if m == 0:
        return _empty_solution()
    if m > cap:
        raise ValueError(f"enumerative solver capped at m <= {cap}")
    choices = []
    for i in range(m):
        states = [_INTERIOR]
        if np.isfinite(p.l[i]):
            states.append(_LOWER)
        if np.isfinite(p.u[i]):
            states.append(_UPPER)
        choices.append(states)
    for states in itertools.product(*choices):
        got = _assignment_solution(p, states, tol)
        if got is not None:
            z, w, v = got
            sol = MlcpSolution(z=z, w=w, v=v, residual=0.0, status="solved")
            return MlcpSolution(z=z, w=w, v=v, residual=certify(p, sol),
                                status="solved")
    bad = np.full(m, np.nan)
    return MlcpSolution(z=bad, w=bad, v=bad, residual=np.inf,
                        status="infeasible")


def solve_psor(p: MlcpProblem, omega=PSOR_OMEGA, max_iter=PSOR_MAX_ITER,
               tol=FEAS_TOL) -> MlcpSolution:
    """Projected SOR sweep; needs a nonzero diagonal.

    The sweep itself runs in the compiled kernel when available.
    """
    m = p.dim
    if m == 0:
        return _empty_solution()
    if not 0 < omega < 2:
        raise ValueError("omega must lie in (0, 2)")
    if np.any(p.M.diagonal() == 0):
        raise ValueError("PSOR needs a nonzero diagonal")
    z = np.clip(np.zeros(m), p.l, p.u)
    # sweep to a tighter iterate tolerance: the certified residual trails
    # the per-sweep change by the contraction rate
    _, delta = _kernels.psor_sweeps(np.ascontiguousarray(p.M), p.q.copy(),
                                    p.l.copy(), p.u.copy(), z,
                                    float(omega), int(max_iter),
                                    float(tol) * 1e-2)
    r = p.M @ z + p.q
    w, v = _split_slacks(r)
    # slack parts on interior coordinates are residual noise, not activity
    interior = (z > p.l + tol) & (z < p.u - tol)
    w[interior & (np.abs(r) <= tol)] = 0.0
    v[interior & (np.abs(r) <= tol)] = 0.0
    sol = MlcpSolution(z=z, w=w, v=v, residual=0.0, status="solved")
    res = certify(p, sol)
    status = "solved" if delta < tol else "max-iterations"
    return MlcpSolution(z=z, w=w, v=v, residual=res, status=status)


def solve_pivoting(p: MlcpProblem, tol=FEAS_TOL, max_pivots=None) -> MlcpSolution:
    """Murty-style least-index principal pivoting on the box formulation."""
    m = p.dim
    if m == 0:
        return _empty_solution()
    if max_pivots is None:
        max_pivots = max(200, 3 ** min(m, 10))
    states = [_INTERIOR] * m
    for _ in range(max_pivots):
        z = np.zeros(m)
        for i in range(m):
            if states[i] == _LOWER:
                z[i] = p.l[i]
            elif states[i] == _UPPER:
                z[i] = p.u[i]
        interior = [i for i in range(m) if states[i] == _INTERIOR]
        if interior:
            I = np.array(interior)
            MI = p.M[np.ix_(I, I)]
            rhs = -p.q[I] - p.M[I] @ z + MI @ z[I]
            try:
                zI = np.linalg.solve(MI, rhs)
            except np.linalg.LinAlgError:
                # singular block: minimum-norm solve, canonical on degenerate rows
                zI = np.linalg.lstsq(MI, rhs, rcond=None)[0]
            z[I] = zI
        r = p.M @ z + p.q
        # least-index violated condition decides the next pivot
        flip = -1
        for i in range(m):
            if states[i] == _INTERIOR:
                if np.isfinite(p.l[i]) and z[i] < p.l[i] - tol:
                    flip, new = i, _LOWER
                    break
                if np.isfinite(p.u[i]) and z[i] > p.u[i] + tol:
                    flip, new = i, _UPPER
                    break
                if abs(r[i]) > tol:
                    # lstsq left the interior equation unsatisfied
                    flip, new = i, (_LOWER if r[i] > 0 else _UPPER)
                    break
            elif states[i] == _LOWER:
                if r[i] < -tol:
                    flip, new = i, _INTERIOR
                    break
            else:
                if r[i] > tol:
                    flip, new = i, _INTERIOR
                    break
        if flip < 0:
            w = np.zeros(m)
            v = np.zeros(m)
            for i in range(m):
                if states[i] == _LOWER:
                    w[i] = max(r[i], 0.0)
                elif states[i] == _UPPER:
                    v[i] = max(-r[i], 0.0)
            sol = MlcpSolution(z=z, w=w, v=v, residual=0.0, status="solved")
            return MlcpSolution(z=z, w=w, v=v, residual=certify(p, sol),
                                status="solved")
        states[flip] = new
    bad = np.full(m, np.nan)
    return MlcpSolution(z=bad, w=bad, v=bad, residual=np.inf,
                        status="infeasible")


def solve(p: MlcpProblem, method="auto", tol=FEAS_TOL) -> MlcpSolution:
    """Solve with the given method, or pivoting / PSOR / enumerative fallback."""
    if method == "enumerative":
        return solve_enumerative(p, tol=tol)
    if method == "psor":
        return solve_psor(p, tol=tol)
    if method == "pivot":
        return solve_pivoting(p, tol=tol)
    if method != "auto":
        raise ValueError(f"unknown MLCP method {method!r}")
    sol = solve_pivoting(p, tol=tol)
    if sol.status == "solved" and sol.residual <= 1e2 * tol:
        return sol
    if np.all(p.M.diagonal() != 0):
        sol = solve_psor(p, tol=tol)
        if sol.status == "solved" and sol.residual <= 1e2 * tol:
            return sol
    if p.dim <= 12:
        return solve_enumerative(p, tol=tol)
    return sol


def _sign_step_1d(W, b):
    """Closed form proj_[-1,1](b / W) of the m = 1 sign step with W > 0.

    Reproduces solve_pivoting's m = 1 answer bit for bit: its right-hand
    side is b + 0.0 (-0.0 becomes 0.0), its 1x1 solve is b / W, and it
    saturates only past 1 + FEAS_TOL.  Returns None where pivoting would
    pivot again (an interior residual above FEAS_TOL, or a bound slack of
    the wrong sign) or where the scalar certificate -- box, equation,
    complementarity and sign, as `certify` computes them -- exceeds
    1e2 * FEAS_TOL.
    """
    tol = FEAS_TOL
    z = (b + 0.0) / W
    if -1.0 - tol <= z <= 1.0 + tol:
        r = W * z - b
        if abs(r) > tol:
            return None
        w = v = 0.0
    else:
        z = 1.0 if z > 0 else -1.0
        r = W * z - b
        if z * r > tol:
            return None
        w, v = (0.0, max(-r, 0.0)) if z > 0 else (max(r, 0.0), 0.0)
    lim = 1e2 * tol
    box = max(-1.0 - z, z - 1.0, 0.0)
    eq = abs(r - w + v)
    comp = max(abs((z + 1.0) * w), abs((1.0 - z) * v))
    sign = max(-w, -v, 0.0)
    return z if box <= lim and eq <= lim and comp <= lim and sign <= lim \
        else None


def solve_sign_step(W, b, method="auto") -> np.ndarray:
    """The selection s in Sgn(b - W s) of one implicit step.

    At m = 1 with W > 0, `auto` and `pivot` take the certified closed form
    of `_sign_step_1d`; every other case, and a closed form that does not
    certify, encodes the problem and runs `solve`.  Raises StepFailure with
    the MLCP dump when the solve fails.
    """
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    if (method in ("auto", "pivot") and W.shape == (1, 1) and b.shape == (1,)
            and W[0, 0] > 0):
        z = _sign_step_1d(float(W[0, 0]), float(b[0]))
        if z is not None:
            return np.array([z])
    enc = from_sign_step(SignStepProblem(W=W, b=b))
    sol = solve(enc, method=method)
    if sol.status != "solved":
        raise StepFailure(f"one-step MLCP {sol.status}",
                          problem_text=format_problem(enc))
    return sol.z


def format_problem(p: MlcpProblem) -> str:
    """Plain-text dump (M rows, q, l, u) for failing instances."""
    lines = [f"MLCP dim={p.dim}"]
    for i in range(p.dim):
        lines.append("M  " + "  ".join(f"{x:.17g}" for x in p.M[i]))
    for name, vec in (("q", p.q), ("l", p.l), ("u", p.u)):
        lines.append(f"{name}  " + "  ".join(f"{x:.17g}" for x in vec))
    return "\n".join(lines)
