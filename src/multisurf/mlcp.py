"""Box-constrained mixed linear complementarity problems.

Problem: find z with l <= z <= u, w >= 0, v >= 0 such that

    M z + q = w - v,   (z - l)^T w = 0,   (u - z)^T v = 0.

The set-valued sign inclusion s in Sgn(y) with y = b - W s maps onto this
with M = W, q = -b and the box [-1, 1]^m; the recovered output is
y = -(M z + q) = v - w.

Two solvers share the same contract: an enumerative oracle (exponential,
reference only) and a Murty least-index principal pivoting method; `solve`
tries pivoting, then the oracle.  Both test an active set by one rule,
`_violation`, and report "solved" only for an answer that certifies at
CERT_TOL (`_solution`).  `sign_step_solver(W)` is the one entry point for
the sign step, with the one-surface case in closed form: a run whose W stays
the same builds it once; the outer Newton loop, whose W changes with every
iterate, calls `sign_step(W, b)`.  For m > 1 it pivots warm from the
previous step's active set over cached interior blocks.  Every interior
block, cached or not, is solved by one direct call of the LAPACK gufunc
behind `np.linalg.solve`, on a set's first visit inside the error state
that `np.linalg.solve` sets (`_set_point`).  A warm answer is kept on one
bound test per index (`_certified`) and otherwise re-solved by `solve`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
# the gufunc behind np.linalg.solve with a vector right-hand side
from numpy.linalg._umath_linalg import solve1 as _solve1

# one numerical policy for every solver: the feasibility tolerance (an
# interior equation's, relative to its scale past 1; see `_violation`) and
# the certified residual a "solved" answer must meet
FEAS_TOL = 1e-10
CERT_TOL = 1e2 * FEAS_TOL
# largest m the 3^m enumerative oracle takes
ENUM_MAX_M = 12

# per-index active states, enumerated lexicographically
_INTERIOR, _LOWER, _UPPER = 0, 1, 2
# active sets whose blocks one solver keeps (about 1.5 MB at m = 12)
_MAX_BLOCKS = 1024


def _singular(err, flag):
    """np.linalg.solve's error-state call: LAPACK found the block singular."""
    raise np.linalg.LinAlgError("Singular matrix")


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


def certify(p: MlcpProblem, s: MlcpSolution) -> float:
    """Max violation of box, equation, complementarity and sign conditions;
    NaN when any of them is NaN."""
    if p.dim == 0:
        return 0.0
    parts = (np.max(p.l - s.z, initial=0.0), np.max(s.z - p.u, initial=0.0),
             np.max(np.abs(p.M @ s.z + p.q - s.w + s.v)),
             abs((s.z - p.l) @ s.w), abs((p.u - s.z) @ s.v),
             np.max(-s.w, initial=0.0), np.max(-s.v, initial=0.0))
    # max() keeps an earlier argument over a later NaN
    if any(map(math.isnan, parts)):
        return math.nan
    return float(max(parts))


def _set_point(M, b, l, u, key, blocks=None):
    """The point of the active set `key` (a tuple of states): bound indices
    at their bounds, the interior block of M z = b solved for the rest.

    Returns (z, regular).  The LAPACK gufunc behind `np.linalg.solve`
    solves the block, called directly; on a set's first visit inside the
    error state that `np.linalg.solve` sets, so the bytes and the singular
    verdict are its own.  A singular interior block takes the minimum-norm
    least-squares solve, canonical on degenerate rows, and regular False;
    a non-finite one makes the interior NaN, as lstsq never returns on some
    blocks with an infinite entry (OpenBLAS DLASCL spins).  The set's
    products do not warn where an infinite entry of M meets a zero of z.
    `blocks`, a dict kept by a caller whose M, l and u stay the same, holds
    each visited set's indexing, the products that do not involve b and the
    verdict, so a set met again repeats only the arithmetic on b and the
    solve: the gufunc without the error state on a regular block (LAPACK's
    verdict depends on the block alone), lstsq on a singular one.
    """
    blk = None if blocks is None else blocks.get(key)
    stored = False
    if blk is None:
        z0 = np.zeros(len(key))
        for i, st in enumerate(key):
            if st == _LOWER:
                z0[i] = l[i]
            elif st == _UPPER:
                z0[i] = u[i]
        interior = [i for i, st in enumerate(key) if st == _INTERIOR]
        blk = (z0, None, None, None, None, None)
        if interior:
            I = np.array(interior)
            rows = M.take(I, 0)
            MI = rows.take(I, 1)
            # M[I] @ z and MI @ z[I] of the set's z before its interior solve
            with np.errstate(invalid="ignore"):
                blk = (z0, I, MI, rows @ z0, MI @ z0[I], None)
        stored = blocks is not None and len(blocks) < _MAX_BLOCKS
        if stored:
            blocks[key] = blk
    # regular: None before the block's first solve, then LAPACK's verdict
    z0, I, MI, fixed, free, regular = blk
    z = z0.copy()
    if I is None:
        return z, True
    rhs = b[I] - fixed + free
    if regular:
        z[I] = _solve1(MI, rhs, signature="dd->d")
        return z, True
    if regular is None:
        try:
            with np.errstate(call=_singular, invalid="call", over="ignore",
                             divide="ignore", under="ignore"):
                z[I] = _solve1(MI, rhs, signature="dd->d")
            regular = True
        except np.linalg.LinAlgError:
            regular = False
        if stored:
            blocks[key] = blk[:-1] + (regular,)
        if regular:
            return z, True
    z[I] = np.linalg.lstsq(MI, rhs, rcond=None)[0] \
        if np.isfinite(MI).all() else np.nan
    return z, False


def _violation(states, M, b, z, zl, rl, l, u):
    """The least index whose condition the point z of the active set
    `states` violates, with the state that a pivot gives it; None when it
    violates none.  An interior index must lie in [l_i, u_i] and solve its
    equation, a lower one needs r_i >= 0 and an upper one r_i <= 0, all to
    FEAS_TOL, the equation to FEAS_TOL max(1, sum_j |M_ij| |z_j| + |b_i|)
    (a componentwise backward error, Higham ch. 7), which one ulp of a
    large row passes.  zl, rl = M z - b, l and u are lists of floats."""
    tol = FEAS_TOL
    for i, st in enumerate(states):
        if st == _INTERIOR:
            if zl[i] < l[i] - tol:
                return i, _LOWER
            if zl[i] > u[i] + tol:
                return i, _UPPER
            r = abs(rl[i])
            # the scale is computed only past the absolute bound; a NaN or
            # infinite scale fails
            if r > tol and not r <= tol * (
                    float(np.abs(M[i]) @ np.abs(z)) + abs(b[i])) < math.inf:
                # a singular block (lstsq) left the equation unsatisfied
                return i, (_LOWER if rl[i] > 0 else _UPPER)
        elif st == _LOWER:
            if rl[i] < -tol:
                return i, _INTERIOR
        elif rl[i] > tol:
            return i, _INTERIOR
    return None


def _solution(p, states, z, rl):
    """The answer of the active set `states` with point z and r = M z + q
    (a list): w and v are the bound indices' slacks.  Every solver's one
    rule for "solved": a certified residual at most CERT_TOL; any other,
    NaN included, is "uncertified"."""
    w = np.array([max(r, 0.0) if st == _LOWER else 0.0
                  for st, r in zip(states, rl)])
    v = np.array([max(-r, 0.0) if st == _UPPER else 0.0
                  for st, r in zip(states, rl)])
    res = certify(p, MlcpSolution(z=z, w=w, v=v, residual=0.0,
                                  status="solved"))
    if res <= CERT_TOL:
        return MlcpSolution(z=z, w=w, v=v, residual=res, status="solved")
    return MlcpSolution(z=z, w=w, v=v, residual=res, status="uncertified",
                        reason=f"certified residual {res:.3g} above "
                        f"{CERT_TOL:.0e}")


def _assignment_solution(p, states, l, u):
    """The answer of one active-set assignment; None when its interior
    block is singular, its point z or r = M z + q is not finite, or the
    point violates a condition."""
    b = -p.q
    z, regular = _set_point(p.M, b, l, u, states)
    if not (regular and np.all(np.isfinite(z))):
        return None
    r = p.M @ z + p.q
    if not np.all(np.isfinite(r)):
        return None
    rl = r.tolist()
    if _violation(states, p.M, b, z, z.tolist(), rl, l, u) is not None:
        return None
    return _solution(p, states, z, rl)


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
    l, u = p.l.tolist(), p.u.tolist()
    for states in itertools.product((_INTERIOR, _LOWER, _UPPER), repeat=m):
        sol = _assignment_solution(p, states, l, u)
        if sol is not None:
            return sol
    return _unsolved(m, "infeasible", "no active set is feasible")


def _pivot(M, b, l, u, states, blocks=None, certified=False):
    """Murty's least-index principal pivoting from the active set `states`
    on M z - b = w - v, the box MLCP with q = -b.

    l and u are the bounds as lists of floats.  Flips `states` in place,
    each pivot at the index that `_violation` names, and returns (z, zl, rl)
    of the first set that violates none: z, and z and r = M z - b as lists
    (the bytes of M z + q, as a - b is a + (-b) for a b that is not NaN).
    Returns the reason as a string after max(200, 3^min(m, 10)) pivots, or
    as soon as a set comes back: the rule is deterministic, so a repeated
    set is a cycle that would run to the cap, and least-index pivoting does
    not cycle on a P-matrix.  `blocks` is passed on to `_set_point`.

    With `certified`, on the box [-1, 1]^m, only an answer that
    `_certified` keeps is returned, any other as a reason.  A set is kept
    on one scan, `_certified` with every interior |r_i| <= FEAS_TOL, under
    which `_violation` names nothing; only a set that fails it goes
    through `_violation`.
    """
    key, seen = tuple(states), None
    while True:
        z, _ = _set_point(M, b, l, u, key, blocks)
        r = M @ z - b
        zl, rl = z.tolist(), r.tolist()
        if certified and _certified(key, zl, rl, FEAS_TOL):
            return z, zl, rl
        # least-index violated condition decides the next pivot
        flip = _violation(key, M, b, z, zl, rl, l, u)
        if flip is None:
            if certified and not _certified(key, zl, rl):
                return "uncertified or degenerate answer"
            return z, zl, rl
        states[flip[0]] = flip[1]
        if seen is None:
            seen, cap = set(), max(200, 3 ** min(len(key), 10))
        seen.add(key)
        if len(seen) == cap:
            return f"no solution within {cap} pivots"
        key = tuple(states)
        if key in seen:
            return "W is not a P-matrix (pivoting cycled)"


def solve_pivoting(p: MlcpProblem) -> MlcpSolution:
    """Murty-style least-index principal pivoting on the box formulation,
    started from the all-interior active set."""
    m = p.dim
    if m == 0:
        return _empty_solution()
    states = [_INTERIOR] * m
    got = _pivot(p.M, -p.q, p.l.tolist(), p.u.tolist(), states)
    if isinstance(got, str):
        return _unsolved(m, "infeasible", got)
    return _solution(p, states, got[0], got[2])


def solve(p: MlcpProblem) -> MlcpSolution:
    """The cold ladder: pivoting, then the enumerative oracle when pivoting
    does not answer and m <= ENUM_MAX_M.  Returns the last rung's answer."""
    sol = solve_pivoting(p)
    if sol.status == "solved" or p.dim > ENUM_MAX_M:
        return sol
    return solve_enumerative(p)


def _sign_step_1d(W, b):
    """Closed form proj_[-1,1](b / W) of the m = 1 sign step with W > 0.

    Reproduces solve_pivoting's m = 1 answer bit for bit: its right-hand
    side is b + 0.0 (-0.0 becomes 0.0), its 1x1 solve is b / W, and it
    saturates only past 1 + FEAS_TOL.  Returns None where pivoting would
    pivot again (an interior residual above `_violation`'s mixed bound, or
    a bound slack of the wrong sign) or where `certify` would exceed
    CERT_TOL.  Of that certificate only two terms can fail: an interior
    z has box <= FEAS_TOL and no slacks, so it needs eq = |r| <= CERT_TOL;
    a saturated one needs a finite b (see `_saturated_1d`).
    """
    tol = FEAS_TOL
    z = (b + 0.0) / W
    if -1.0 - tol <= z <= 1.0 + tol:
        r = abs(W * z - b)
        if r > tol and not r <= tol * (W * abs(z) + abs(b)) < math.inf:
            return None
        return z if r <= CERT_TOL else None
    z = 1.0 if z > 0 else -1.0
    return z if z * (W * z - b) <= tol and math.isfinite(b) else None


def _saturated_1d(W, b, s):
    """Where `_sign_step_1d(W, b_i)` returns s = 1.0 or -1.0, by its
    operations on an array b: (b_i + 0.0) / W beyond 1 + FEAS_TOL on the
    side of s, s (W s - b_i) <= FEAS_TOL and b_i finite.  Its certificate
    then holds (box, comp 0; sign <= 0; eq 0 or |r| <= FEAS_TOL), and an
    infinite b_i makes eq NaN."""
    z = (b + 0.0) / W
    beyond = z > 1.0 + FEAS_TOL if s > 0 else z < -1.0 - FEAS_TOL
    return beyond & (s * (W * s - b) <= FEAS_TOL) & np.isfinite(b)


def _leading(ok):
    """The number of leading True entries of a boolean vector."""
    j = int(ok.argmin()) if ok.size else 0
    return ok.size if ok.size and ok[j] else j


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


def _certified(states, zl, rl, eq_tol=CERT_TOL):
    """Whether a pivoting answer on the box [-1, 1]^m is kept: `certify`'s
    conditions hold at lim = CERT_TOL and no index is degenerate (a bound
    index with |r_i| <= lim, or an interior one with |z_i| >= 1 - lim).
    A pivoting answer puts every bound index at exactly -1.0 or 1.0, where
    w and v are its slack r or -r, so those conditions come down to one
    test per index on z and r = W z - b (Python floats): an interior index
    needs |z_i| < 1 - lim and |r_i| <= eq_tol (lim unless a tighter bound
    is asked for), a lower one lim < r_i < inf and an upper one -inf < r_i
    < -lim.  NaN fails every comparison."""
    lim = CERT_TOL
    inner = 1.0 - lim
    for st, z, r in zip(states, zl, rl):
        if st == _INTERIOR:
            if not (abs(z) < inner and abs(r) <= eq_tol):
                return False
        elif st == _LOWER:
            if not lim < r < math.inf:
                return False
        elif not -math.inf < r < -lim:
            return False
    return True


def _cold(W, b):
    """`solve`'s answer to the sign step with W and b, or StepFailure with
    the reason and the MLCP dump."""
    enc = encode(W, b)
    sol = solve(enc)
    if sol.status != "solved":
        raise StepFailure(f"one-step MLCP {sol.status}: {sol.reason}",
                          problem_text=format_problem(enc))
    return sol.z


def _closed_form(W, w11, b):
    """A 1 x 1 W = [[w11]] > 0: `_sign_step_1d`, or `_cold` where it fails."""
    b = np.asarray(b, dtype=float)
    if b.shape == (1,):
        z = _sign_step_1d(w11, float(b[0]))
        if z is not None:
            return np.array([z])
    return _cold(W, b)


def sign_step(W, b):
    """`sign_step_solver(W)(b)` for a W used once, as in the outer Newton
    loop; a 1 x 1 W > 0 takes the closed form without building a solver."""
    W = np.asarray(W, dtype=float)
    w11 = W.item() if W.shape == (1, 1) else 0.0
    return _closed_form(W, w11, b) if w11 > 0 else sign_step_solver(W)(b)


def sign_step_solver(W):
    """The map b -> s in Sgn(b - W s) for the one-step problems of a run
    whose W stays the same; W is checked and converted once, here.

    `solve`'s ladder is the only selector: no caller picks a solver.  m = 1
    with W > 0 takes the closed form of `_sign_step_1d`.  For m > 1 with
    W + W^T positive definite (so W is a P-matrix and each step has one
    solution), least-index pivoting starts from the previous step's final
    active set.  The solver keeps each visited set's interior block (see
    `_set_point`), so a step on a known set pays for one direct LAPACK
    solve.  A warm answer is kept only if `_certified` passes it: it
    certifies at CERT_TOL, is finite, and no index is degenerate, because
    there a cold start may end at another active set and round differently.
    Its bound indices sit at exactly -1.0 or 1.0, which reduces that test to
    one bound test per index.  All other steps, a NaN b among them, encode
    the MLCP and run `solve`, and the next warm start begins from that
    answer, so every answer is bit-identical to `solve`'s.  Raises
    StepFailure with the reason and the MLCP dump when `solve` fails.

    The closed form and the warm pivot carry one vectorised decision:
    saturated_run(b, s) is the number of leading rows of b (shape (k, m))
    that the solver would answer with exactly the saturated s (each s_i
    1.0 or -1.0), by its own operations on each row: `_saturated_1d` at
    m = 1; at m > 1, W s once, W s - b per row and `_certified`'s bound
    tests, which apply while the warm start is s's all-bound set, as after
    a step that answered s.  The cold solver has none.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim < 2:
        W = np.atleast_2d(W)
    m = W.shape[0]
    if W.ndim != 2 or W.shape[1] != m:
        raise ValueError("W must be square")
    w11 = float(W[0, 0]) if m == 1 else 0.0
    if w11 > 0:
        def closed_form(b):
            return _closed_form(W, w11, b)

        def saturated_run(b, s):
            s = float(s[0])
            return _leading(_saturated_1d(w11, b[:, 0], s)) \
                if abs(s) == 1.0 else 0
        closed_form.saturated_run = saturated_run
        return closed_form
    if not (m > 1 and _sym_part_pd(W)):
        return lambda b: _cold(W, b)

    lower, upper = [-1.0] * m, [1.0] * m
    states = [_INTERIOR] * m
    blocks = {}

    def warm(b):
        b = np.asarray(b, dtype=float)
        if b.shape == (m,):
            got = _pivot(W, b, lower, upper, states, blocks, certified=True)
            if not isinstance(got, str):
                return got[0]
        z = _cold(W, b)
        states[:] = [_LOWER if zi <= -1.0 else _UPPER if zi >= 1.0
                     else _INTERIOR for zi in z.tolist()]
        return z

    def saturated_run(b, s):
        # from s's all-bound set, a warm step keeps that set's point, a
        # copy of s, when `_certified` passes: -inf < s_i r_i < -CERT_TOL
        # with r = W s - b as `_pivot` computes it
        if states != [_UPPER if v == 1.0 else _LOWER if v == -1.0 else None
                      for v in s.tolist()]:
            return 0
        sr = ((W @ s) - b) * s
        return _leading(((sr < -CERT_TOL) & (sr > -math.inf)).all(axis=1))
    warm.saturated_run = saturated_run
    return warm


def format_problem(p: MlcpProblem) -> str:
    """Plain-text dump (M rows, q, l, u) for failing instances."""
    lines = [f"MLCP dim={p.dim}"]
    for i in range(p.dim):
        lines.append("M  " + "  ".join(f"{x:.17g}" for x in p.M[i]))
    for name, vec in (("q", p.q), ("l", p.l), ("u", p.u)):
        lines.append(f"{name}  " + "  ".join(f"{x:.17g}" for x in vec))
    return "\n".join(lines)
