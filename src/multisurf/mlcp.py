"""Box-constrained mixed linear complementarity problems.

Problem: find z with l <= z <= u, w >= 0, v >= 0 such that

    M z + q = w - v,   (z - l)^T w = 0,   (u - z)^T v = 0.

The set-valued sign inclusion s in Sgn(y) with y = b - W s maps onto this
with M = W, q = -b and the box [-1, 1]^m; the recovered output is
y = -(M z + q) = v - w.

Three solvers share the same contract: an enumerative oracle (exponential,
reference only), a Murty least-index principal pivoting method, and a
projected SOR iteration.  `sign_step_solver(W)` is the one entry point for
the sign step, with the one-surface case in closed form: a run whose W stays
the same builds it once, and the outer Newton loop, whose W changes with
every iterate, builds one per iteration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# one numerical policy for every solver: the feasibility tolerance, the
# certified residual a "solved" answer must meet, the PSOR sweep cap
FEAS_TOL = 1e-10
CERT_TOL = 1e2 * FEAS_TOL
PSOR_MAX_ITER = 5000
# largest m the 3^m enumerative oracle takes
ENUM_MAX_M = 12

# per-index active states, enumerated lexicographically
_INTERIOR, _LOWER, _UPPER = 0, 1, 2
# active sets whose blocks one solver keeps (about 1.5 MB at m = 12)
_MAX_BLOCKS = 1024


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
        if not (np.all(np.isfinite(l)) and np.all(np.isfinite(u))):
            raise ValueError("l and u must be finite")
        if np.any(l > u):
            raise ValueError("need l <= u componentwise")
        for name, val in (("M", M), ("q", q), ("l", l), ("u", u)):
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class MlcpSolution:
    z: np.ndarray
    w: np.ndarray
    v: np.ndarray
    residual: float
    status: str  # solved | infeasible | max-iterations | uncertified
    reason: str = ""  # why the status is not "solved"


def encode(W, b) -> MlcpProblem:
    """The sign step s in Sgn(b - W s) as a box MLCP: M = W, q = -b on
    [-1, 1]^m.  A solution's output is y = b - W z."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = b.shape[0]
    if W.shape != (m, m):
        raise ValueError("W must be square with matching b")
    return MlcpProblem(dim=m, M=W, q=-b, l=-np.ones(m), u=np.ones(m))


def _empty_solution():
    e = np.zeros(0)
    return MlcpSolution(z=e, w=e.copy(), v=e.copy(), residual=0.0,
                        status="solved")


def _unsolved(m, status, reason):
    bad = np.full(m, np.nan)
    return MlcpSolution(z=bad, w=bad, v=bad, residual=np.inf, status=status,
                        reason=reason)


def _split_slacks(r):
    return np.maximum(r, 0.0), np.maximum(-r, 0.0)


def certify(p: MlcpProblem, s: MlcpSolution) -> float:
    """Max violation of box, equation, complementarity and sign conditions."""
    if p.dim == 0:
        return 0.0
    box = max(np.max(p.l - s.z, initial=0.0), np.max(s.z - p.u, initial=0.0))
    eq = np.max(np.abs(p.M @ s.z + p.q - s.w + s.v))
    comp = max(abs((s.z - p.l) @ s.w), abs((p.u - s.z) @ s.v))
    sign = max(np.max(-s.w, initial=0.0), np.max(-s.v, initial=0.0))
    return float(max(box, eq, comp, sign))


def _set_point(M, q, l, u, states, blocks=None):
    """The point of one active set: bound indices at their bounds, the
    interior block of M z + q = 0 solved for the rest.

    Returns (z, regular).  A singular interior block takes the minimum-norm
    least-squares solve, canonical on degenerate rows, and regular False.
    `blocks`, a dict kept by a caller whose M, l and u stay the same, holds
    each visited set's indexing and the products that do not involve q, so
    a set met again repeats only the arithmetic on q and the solve.
    """
    key = tuple(states)
    blk = None if blocks is None else blocks.get(key)
    if blk is None:
        z0 = np.zeros(len(key))
        for i, st in enumerate(key):
            if st == _LOWER:
                z0[i] = l[i]
            elif st == _UPPER:
                z0[i] = u[i]
        interior = [i for i, st in enumerate(key) if st == _INTERIOR]
        blk = (z0, None, None, None, None)
        if interior:
            I = np.array(interior)
            MI = M[np.ix_(I, I)]
            # M[I] @ z and MI @ z[I] of the set's z before its interior solve
            blk = (z0, I, MI, M[I] @ z0, MI @ z0[I])
        if blocks is not None and len(blocks) < _MAX_BLOCKS:
            blocks[key] = blk
    z0, I, MI, fixed, free = blk
    z = z0.copy()
    if I is None:
        return z, True
    rhs = -q[I] - fixed + free
    try:
        z[I] = np.linalg.solve(MI, rhs)
    except np.linalg.LinAlgError:
        z[I] = np.linalg.lstsq(MI, rhs, rcond=None)[0]
        return z, False
    return z, True


def _assignment_solution(p, states):
    """Solve one active-set assignment; None when infeasible or singular."""
    m, tol = p.dim, FEAS_TOL
    z, regular = _set_point(p.M, p.q, p.l, p.u, states)
    if not regular:
        return None
    I = [i for i in range(m) if states[i] == _INTERIOR]
    if I:
        zI = z[I]
        if (not np.all(np.isfinite(zI)) or np.any(zI < p.l[I] - tol)
                or np.any(zI > p.u[I] + tol)):
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


def solve_enumerative(p: MlcpProblem) -> MlcpSolution:
    """Brute-force active-set enumeration, the reference oracle.

    Tries all 3^m assignments (interior < lower < upper, lexicographic) and
    returns the first feasible one; deterministic on degenerate problems.
    """
    m = p.dim
    if m == 0:
        return _empty_solution()
    if m > ENUM_MAX_M:
        raise ValueError(f"enumerative solver capped at m <= {ENUM_MAX_M}")
    for states in itertools.product((_INTERIOR, _LOWER, _UPPER), repeat=m):
        got = _assignment_solution(p, states)
        if got is not None:
            z, w, v = got
            sol = MlcpSolution(z=z, w=w, v=v, residual=0.0, status="solved")
            return MlcpSolution(z=z, w=w, v=v, residual=certify(p, sol),
                                status="solved")
    return _unsolved(m, "infeasible", "no active set is feasible")


def solve_psor(p: MlcpProblem) -> MlcpSolution:
    """Projected SOR sweep at omega = 1 (projected Gauss-Seidel); needs a
    nonzero diagonal.

    Reports "solved" only for an answer whose certified residual is at most
    CERT_TOL; a converged sweep with a larger residual is "uncertified".
    The reason of an unsolved answer says when M is not symmetric.
    """
    m = p.dim
    if m == 0:
        return _empty_solution()
    if np.any(p.M.diagonal() == 0):
        raise ValueError("PSOR needs a nonzero diagonal")
    M, q, l, u = np.ascontiguousarray(p.M), p.q, p.l, p.u
    z = np.clip(np.zeros(m), l, u)
    # z_i <- clamp(z_i - (M z + q)_i / M_ii) coordinate by coordinate, to a
    # tighter iterate tolerance: the certified residual trails the per-sweep
    # change by the contraction rate
    tol, sweep_tol = FEAS_TOL, FEAS_TOL * 1e-2
    delta = 0.0
    for _ in range(PSOR_MAX_ITER):
        delta = 0.0
        for i in range(m):
            zi = z[i] - (M[i] @ z + q[i]) / M[i, i]
            if zi < l[i]:
                zi = l[i]
            elif zi > u[i]:
                zi = u[i]
            delta = max(delta, abs(zi - z[i]))
            z[i] = zi
        if delta < sweep_tol:
            break
    r = p.M @ z + p.q
    w, v = _split_slacks(r)
    # slack parts on interior coordinates are residual noise, not activity
    interior = (z > p.l + tol) & (z < p.u - tol)
    w[interior & (np.abs(r) <= tol)] = 0.0
    v[interior & (np.abs(r) <= tol)] = 0.0
    sol = MlcpSolution(z=z, w=w, v=v, residual=0.0, status="solved")
    res = certify(p, sol)
    status, reason = "solved", ""
    if not delta < tol:
        status = "max-iterations"
        reason = f"sweep change {delta:.3g} after {PSOR_MAX_ITER} sweeps"
    elif not res <= CERT_TOL:
        status = "uncertified"
        reason = f"certified residual {res:.3g} above {CERT_TOL:.0e}"
    if reason and not np.array_equal(p.M, p.M.T):
        # Cottle, Pang & Stone (1992), ch. 5
        reason += ("; M is not symmetric, and projected SOR is only "
                   "guaranteed to converge for symmetric positive definite M")
    return MlcpSolution(z=z, w=w, v=v, residual=res, status=status,
                        reason=reason)


def _pivot(M, q, l, u, states, blocks=None):
    """Murty's least-index principal pivoting from the active set `states`.

    l and u are the bounds as lists of floats.  Flips `states` in place,
    each pivot at the least index whose condition the current set's point
    violates, and returns (z, zl, rl) of the first set that violates none:
    z, and z and r = M z + q as lists.  Returns the reason as a string
    after max(200, 3^min(m, 10)) pivots, or as soon as a set comes back: the
    rule is deterministic, so a repeated set is a cycle that would run to
    the cap, and least-index pivoting does not cycle on a P-matrix.
    `blocks` is passed on to `_set_point`.
    """
    m, tol = len(states), FEAS_TOL
    max_pivots = max(200, 3 ** min(m, 10))
    seen = set()
    for _ in range(max_pivots):
        key = tuple(states)
        if key in seen:
            return "W is not a P-matrix (pivoting cycled)"
        seen.add(key)
        z, _ = _set_point(M, q, l, u, key, blocks)
        r = M @ z + q
        zl, rl = z.tolist(), r.tolist()
        # least-index violated condition decides the next pivot
        flip = -1
        for i in range(m):
            if states[i] == _INTERIOR:
                if zl[i] < l[i] - tol:
                    flip, new = i, _LOWER
                    break
                if zl[i] > u[i] + tol:
                    flip, new = i, _UPPER
                    break
                if abs(rl[i]) > tol:
                    # lstsq left the interior equation unsatisfied
                    flip, new = i, (_LOWER if rl[i] > 0 else _UPPER)
                    break
            elif states[i] == _LOWER:
                if rl[i] < -tol:
                    flip, new = i, _INTERIOR
                    break
            else:
                if rl[i] > tol:
                    flip, new = i, _INTERIOR
                    break
        if flip < 0:
            return z, zl, rl
        states[flip] = new
    return f"no solution within {max_pivots} pivots"


def solve_pivoting(p: MlcpProblem) -> MlcpSolution:
    """Murty-style least-index principal pivoting on the box formulation,
    started from the all-interior active set."""
    m = p.dim
    if m == 0:
        return _empty_solution()
    states = [_INTERIOR] * m
    got = _pivot(p.M, p.q, p.l.tolist(), p.u.tolist(), states)
    if isinstance(got, str):
        return _unsolved(m, "infeasible", got)
    z, _, rl = got
    w = np.array([max(r, 0.0) if st == _LOWER else 0.0
                  for st, r in zip(states, rl)])
    v = np.array([max(-r, 0.0) if st == _UPPER else 0.0
                  for st, r in zip(states, rl)])
    sol = MlcpSolution(z=z, w=w, v=v, residual=0.0, status="solved")
    return MlcpSolution(z=z, w=w, v=v, residual=certify(p, sol),
                        status="solved")


def solve(p: MlcpProblem, method="auto") -> MlcpSolution:
    """Solve with the given method, or pivoting / PSOR / enumerative fallback."""
    if method == "enumerative":
        return solve_enumerative(p)
    if method == "psor":
        return solve_psor(p)
    if method == "pivot":
        return solve_pivoting(p)
    if method != "auto":
        raise ValueError(f"unknown MLCP method {method!r}")
    sol = solve_pivoting(p)
    if sol.status == "solved" and sol.residual <= CERT_TOL:
        return sol
    # projected SOR can not converge on a diagonal entry <= 0
    if np.all(p.M.diagonal() > 0):
        sol = solve_psor(p)
        if sol.status == "solved":
            return sol
    if p.dim <= ENUM_MAX_M:
        return solve_enumerative(p)
    return sol


def _sign_step_1d(W, b):
    """Closed form proj_[-1,1](b / W) of the m = 1 sign step with W > 0.

    Reproduces solve_pivoting's m = 1 answer bit for bit: its right-hand
    side is b + 0.0 (-0.0 becomes 0.0), its 1x1 solve is b / W, and it
    saturates only past 1 + FEAS_TOL.  Returns None where pivoting would
    pivot again (an interior residual above FEAS_TOL, or a bound slack of
    the wrong sign) or where the scalar certificate -- box, equation,
    complementarity and sign, as `certify` computes them -- exceeds
    CERT_TOL.
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
    lim = CERT_TOL
    box = max(-1.0 - z, z - 1.0, 0.0)
    eq = abs(r - w + v)
    comp = max(abs((z + 1.0) * w), abs((1.0 - z) * v))
    sign = max(-w, -v, 0.0)
    return z if box <= lim and eq <= lim and comp <= lim and sign <= lim \
        else None


def _sym_part_pd(W):
    """True when W + W^T is positive definite, which makes W a P-matrix,
    by a margin: its least squared Cholesky pivot exceeds m * eps times its
    largest entry, so a singular W such as [[25, 10], [10, 4]] fails."""
    S = W + W.T
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    eps = np.finfo(float).eps
    return bool(np.diag(L).min() ** 2 > len(S) * eps * np.abs(S).max())


def _certified(states, zl, rl):
    """Whether a pivoting answer on the box [-1, 1]^m is kept: `certify`'s
    box, equation, complementarity and sign conditions hold at
    lim = CERT_TOL and no index is degenerate (a bound index with
    |r_i| <= lim, or an interior one with |z_i| >= 1 - lim).  One pass of
    Python floats over z and r = W z - b, with w and v the bound slacks as
    `solve_pivoting` builds them; false on any NaN or infinity, which fails
    every comparison."""
    lim = CERT_TOL
    comp_l = comp_u = 0.0
    for st, z, r in zip(states, zl, rl):
        w = max(r, 0.0) if st == _LOWER else 0.0
        v = max(-r, 0.0) if st == _UPPER else 0.0
        if st == _INTERIOR:
            kept = abs(z) < 1.0 - lim
        else:
            kept = abs(r) > lim
        if not (kept and -1.0 - z <= lim and z - 1.0 <= lim
                and abs(r - w + v) <= lim and -w <= lim and -v <= lim):
            return False
        comp_l += (z + 1.0) * w
        comp_u += (1.0 - z) * v
    return abs(comp_l) <= lim and abs(comp_u) <= lim


def sign_step_solver(W, method="auto"):
    """The map b -> s in Sgn(b - W s) for the one-step problems of a run
    whose W stays the same; W is checked and converted once, here.

    Under `auto` and `pivot`, m = 1 with W > 0 takes the closed form of
    `_sign_step_1d`.  For m > 1 with W + W^T positive definite (so W is a
    P-matrix and each step has one solution), least-index pivoting starts
    from the previous step's final active set.  The solver keeps each
    visited set's interior block, so a step on a known set pays for one
    solve.  A warm answer is kept only if `_certified` passes it: it
    certifies at CERT_TOL, is finite, and no index is degenerate,
    because there a cold start may end at another active set and round
    differently.  All other steps encode the MLCP and run `solve`, and the
    next warm start begins from that answer, so every answer is
    bit-identical to `solve`'s.  Raises StepFailure with the reason and the
    MLCP dump when `solve` fails.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim < 2:
        W = np.atleast_2d(W)
    m = W.shape[0]
    if W.ndim != 2 or W.shape[1] != m:
        raise ValueError("W must be square")

    def cold(b):
        enc = encode(W, b)
        sol = solve(enc, method=method)
        if sol.status != "solved":
            raise StepFailure(f"one-step MLCP {sol.status}: {sol.reason}",
                              problem_text=format_problem(enc))
        return sol.z

    fast = method in ("auto", "pivot")
    if fast and m == 1 and W[0, 0] > 0:
        w11 = float(W[0, 0])

        def closed_form(b):
            b = np.asarray(b, dtype=float)
            if b.shape == (1,):
                z = _sign_step_1d(w11, float(b[0]))
                if z is not None:
                    return np.array([z])
            return cold(b)
        return closed_form
    if not (fast and m > 1 and _sym_part_pd(W)):
        return cold

    lower, upper = [-1.0] * m, [1.0] * m
    states = [_INTERIOR] * m
    blocks = {}

    def warm(b):
        b = np.asarray(b, dtype=float)
        if b.shape == (m,):
            got = _pivot(W, -b, lower, upper, states, blocks)
            if not isinstance(got, str):
                z, zl, rl = got
                if _certified(states, zl, rl):
                    return z
        z = cold(b)
        states[:] = [_LOWER if zi <= -1.0 else _UPPER if zi >= 1.0
                     else _INTERIOR for zi in z.tolist()]
        return z
    return warm


def format_problem(p: MlcpProblem) -> str:
    """Plain-text dump (M rows, q, l, u) for failing instances."""
    lines = [f"MLCP dim={p.dim}"]
    for i in range(p.dim):
        lines.append("M  " + "  ".join(f"{x:.17g}" for x in p.M[i]))
    for name, vec in (("q", p.q), ("l", p.l), ("u", p.u)):
        lines.append(f"{name}  " + "  ".join(f"{x:.17g}" for x in vec))
    return "\n".join(lines)
