"""The one-step sign problem of every implicit scheme.

Problem: given W (m x m) and b, find s in [-1, 1]^m with

    s in Sgn(y),  y = b - W s,

that is, each index i is interior (|s_i| <= 1, y_i = 0), lower (s_i = -1,
y_i <= 0) or upper (s_i = 1, y_i >= 0): the box MLCP of Acary & Brogliato
(2008) on [-1, 1]^m, whose slacks are y's two signs.  Every rule below is
stated in y, the inclusion's own variable.

`SignProblem(W, b)` is one instance and `SignSolution` one answer: s as z,
its certified residual, a status and the reason for any status other than
"solved".  Two solvers share the same contract: an enumerative oracle
(exponential, reference only) and a Murty least-index principal pivoting
method; `solve` tries pivoting, then the oracle.  Both test an active set
by one rule, `_violation`, and report "solved" only for an answer whose
residual, the sign inclusion's own per index (`_residual`), is at most
CERT_TOL (`_solution`).  `sign_step_solver(W)` is the one entry point for
the sign step, with the one-surface case in closed form: a run whose W stays
the same builds it once, as a `SignSolver` record of its map b -> s and,
where it has them, its vectorised decision `saturated_run` and its `answer`,
b -> (s, y); the outer Newton loop, whose W changes with every iterate,
calls `sign_step(W, b)`.  For m > 1 it pivots warm over cached interior
blocks, from the previous step's active set, or on a solver's first step
from the answer of W's diagonal alone; on a P-matrix no start can move a
byte of the unique answer that pivoting reaches (at a sane scale; see
`sign_step_solver`), and `solve` keeps the all-interior start.  Every
interior block, cached or not, is solved by one direct call of the LAPACK
gufunc behind `np.linalg.solve`, on a set's first visit inside the error
state that `np.linalg.solve` sets (`_set_point`).  A warm answer is kept on
one bound test per index (`_certified`) and otherwise re-solved by `solve`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

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

    Carries a plain-text dump of the offending sign problem (when one
    exists) and the last residual of the Newton loop (when one ran).
    """

    def __init__(self, message, problem_text=None, residual=None):
        super().__init__(message)
        self.message = message
        self.problem_text = problem_text
        self.residual = residual


@dataclass(frozen=True)
class SignProblem:
    """The sign step s in Sgn(b - W s), W and b as float arrays."""

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if b.ndim != 1 or W.shape != (len(b), len(b)):
            raise ValueError("W must be square with matching b")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def dim(self):
        return len(self.b)


@dataclass(frozen=True)
class SignSolution:
    z: np.ndarray
    residual: float
    status: str  # solved | infeasible | uncertified
    reason: str = ""  # why the status is not "solved"


@dataclass
class SignSolver:
    """What `sign_step_solver(W)` returns: solve(b) -> s answers one step,
    and saturated_run(b, s), None on the cold path, is the vectorised
    decision that the reaching-phase block reads.  The warm m > 1 solver
    also holds its W and answer(b) -> (s, y), with y = b - W s the array
    its certificate read (see `sign_step_solver`); others leave them None."""

    solve: Callable
    saturated_run: Optional[Callable] = None
    W: Optional[np.ndarray] = None
    answer: Optional[Callable] = None


def MlcpProblem(dim, M, q, l, u):
    """The box MLCP M z + q = w - v on [-1, 1]^m as SignProblem(M, -q).

    Kept for the benchmark's enumerative-oracle re-solve
    (`perfbench/workloads.py`), which builds its problem by this call; it
    goes when that check builds a SignProblem.  Any other box is a
    ValueError: the solvers take [-1, 1]^m only.
    """
    box = np.ones(dim)
    if not (np.array_equal(l, -box) and np.array_equal(u, box)):
        raise ValueError("the sign step's box is [-1, 1]^m")
    return SignProblem(M, -np.asarray(q, dtype=float).reshape(dim))


def _unsolved(m, reason):
    return SignSolution(np.full(m, np.nan), math.inf, "infeasible", reason)


def _residual(states, zl, yl):
    """The sign inclusion's residual of the point z of the active set
    `states`, with y = b - W z (zl and yl lists of floats, a bound index at
    exactly -1.0 or 1.0): the largest over the indices of an interior one's
    max(|z_i| - 1, |y_i|), a lower one's y_i and an upper one's -y_i, each
    floored at 0.  NaN when a NaN y_i, an interior z_i that is not finite,
    or a bound index's y_i infinite on its own side (a slack inf - inf)
    makes the index's condition undecidable."""
    worst = 0.0
    for st, z, y in zip(states, zl, yl):
        if st == _INTERIOR:
            # max keeps its first argument over a later NaN: |y| goes first
            e = max(abs(y), abs(z) - 1.0) if abs(z) < math.inf else math.nan
        elif st == _LOWER:
            e = y if y > -math.inf else math.nan
        else:
            e = -y if y < math.inf else math.nan
        if not e <= worst:
            if e != e:
                return math.nan
            worst = e
    return worst


def _set_point(W, b, key, blocks=None):
    """The point of the active set `key` (a tuple of states): bound indices
    at -1.0 or 1.0, the interior block of W z = b solved for the rest.

    Returns (z, regular).  The LAPACK gufunc behind `np.linalg.solve`
    solves the block, called directly; on a set's first visit inside the
    error state that `np.linalg.solve` sets, so the bytes and the singular
    verdict are its own.  A singular interior block takes the minimum-norm
    least-squares solve, canonical on degenerate rows, and regular False;
    a non-finite one makes the interior NaN, as lstsq never returns on some
    blocks with an infinite entry (OpenBLAS DLASCL spins).  The set's
    products do not warn where an infinite entry of W meets a zero of z.
    `blocks`, a dict kept by a caller whose W stays the same, holds each
    visited set's indexing, the products that do not involve b and the
    verdict, so a set met again repeats only the arithmetic on b and the
    solve: the gufunc without the error state on a regular block (LAPACK's
    verdict depends on the block alone), lstsq on a singular one.
    """
    blk = None if blocks is None else blocks.get(key)
    stored = False
    if blk is None:
        z0 = np.array([-1.0 if st == _LOWER else 1.0 if st == _UPPER
                       else 0.0 for st in key])
        interior = [i for i, st in enumerate(key) if st == _INTERIOR]
        blk = (z0, None, None, None, None, None)
        if interior:
            I = np.array(interior)
            rows = W.take(I, 0)
            WI = rows.take(I, 1)
            # W[I] @ z and WI @ z[I] of the set's z before its interior solve
            with np.errstate(invalid="ignore"):
                blk = (z0, I, WI, rows @ z0, WI @ z0[I], None)
        stored = blocks is not None and len(blocks) < _MAX_BLOCKS
        if stored:
            blocks[key] = blk
    # regular: None before the block's first solve, then LAPACK's verdict
    z0, I, WI, fixed, free, regular = blk
    z = z0.copy()
    if I is None:
        return z, True
    rhs = b[I] - fixed + free
    if regular:
        z[I] = _solve1(WI, rhs, signature="dd->d")
        return z, True
    if regular is None:
        try:
            with np.errstate(call=_singular, invalid="call", over="ignore",
                             divide="ignore", under="ignore"):
                z[I] = _solve1(WI, rhs, signature="dd->d")
            regular = True
        except np.linalg.LinAlgError:
            regular = False
        if stored:
            blocks[key] = blk[:-1] + (regular,)
        if regular:
            return z, True
    z[I] = np.linalg.lstsq(WI, rhs, rcond=None)[0] \
        if np.isfinite(WI).all() else np.nan
    return z, False


def _violation(states, W, b, z, zl, yl):
    """The least index whose condition the point z of the active set
    `states` violates, with the state that a pivot gives it; None when it
    violates none.  An interior index must lie in [-1, 1] and solve its
    equation, a lower one needs y_i <= 0 and an upper one y_i >= 0, all to
    FEAS_TOL, the equation to FEAS_TOL max(1, sum_j |W_ij| |z_j| + |b_i|)
    (a componentwise backward error, Higham ch. 7), which one ulp of a
    large row passes.  zl and yl = b - W z are lists of floats."""
    tol = FEAS_TOL
    for i, st in enumerate(states):
        if st == _INTERIOR:
            if zl[i] < -1.0 - tol:
                return i, _LOWER
            if zl[i] > 1.0 + tol:
                return i, _UPPER
            y = abs(yl[i])
            # the scale is computed only past the absolute bound; a NaN or
            # infinite scale fails
            if y > tol and not y <= tol * (
                    float(np.abs(W[i]) @ np.abs(z)) + abs(b[i])) < math.inf:
                # a singular block (lstsq) left the equation unsatisfied
                return i, (_LOWER if yl[i] < 0 else _UPPER)
        elif st == _LOWER:
            if yl[i] > tol:
                return i, _INTERIOR
        elif yl[i] < -tol:
            return i, _INTERIOR
    return None


def _solution(states, z, zl, yl):
    """The answer of the active set `states` with point z and y = b - W z
    (zl and yl lists).  Every solver's one rule for "solved": a residual
    (`_residual`) at most CERT_TOL; any other, NaN included, is
    "uncertified"."""
    res = _residual(states, zl, yl)
    if res <= CERT_TOL:
        return SignSolution(z, res, "solved")
    return SignSolution(z, res, "uncertified", f"certified residual "
                        f"{res:.3g} above {CERT_TOL:.0e}")


def _assignment_solution(p, states):
    """The answer of one active-set assignment; None when its interior
    block is singular, its point z or y = b - W z is not finite, or the
    point violates a condition."""
    z, regular = _set_point(p.W, p.b, states)
    if not (regular and np.all(np.isfinite(z))):
        return None
    y = p.b - p.W @ z
    if not np.all(np.isfinite(y)):
        return None
    zl, yl = z.tolist(), y.tolist()
    if _violation(states, p.W, p.b, z, zl, yl) is not None:
        return None
    return _solution(states, z, zl, yl)


def solve_enumerative(p: SignProblem) -> SignSolution:
    """Brute-force active-set enumeration, the reference oracle.

    Tries all 3^m assignments (interior < lower < upper, lexicographic) and
    returns the first feasible one; deterministic on degenerate problems.
    A non-finite b_i makes every assignment's b - W z non-finite, which
    `_assignment_solution` rejects, so such a b fails without the sweep.
    """
    if p.dim > ENUM_MAX_M:
        raise ValueError(f"enumerative solver capped at m <= {ENUM_MAX_M}")
    if not np.isfinite(p.b).all():
        return _unsolved(p.dim, "no active set is feasible")
    with np.errstate(invalid="ignore", over="ignore"):
        for states in itertools.product((_INTERIOR, _LOWER, _UPPER),
                                        repeat=p.dim):
            sol = _assignment_solution(p, states)
            if sol is not None:
                return sol
    return _unsolved(p.dim, "no active set is feasible")


def _pivot(W, b, states, blocks=None, certified=False):
    """Murty's least-index principal pivoting from the active set `states`
    on the sign step with W and b.

    Flips `states` in place, each pivot at the index that `_violation`
    names, and returns (z, y, zl, yl) of the first set that violates none:
    z, y = b - W z, and both as lists.  Returns the reason as a string after
    max(200, 3^min(m, 10)) pivots, or as soon as a set comes back: the rule
    is deterministic, so a repeated set is a cycle that would run to the
    cap, and least-index pivoting does not cycle on a P-matrix.  `blocks`
    is passed on to `_set_point`.

    With `certified`, only an answer that `_certified` keeps is returned,
    any other as a reason.  A set is kept on one scan, `_certified` with
    every interior |y_i| <= FEAS_TOL, under which `_violation` names
    nothing; only a set that fails it goes through `_violation`.
    """
    key, seen = tuple(states), None
    while True:
        z, _ = _set_point(W, b, key, blocks)
        y = b - W @ z
        zl, yl = z.tolist(), y.tolist()
        if certified and _certified(key, zl, yl, FEAS_TOL):
            return z, y, zl, yl
        # least-index violated condition decides the next pivot
        flip = _violation(key, W, b, z, zl, yl)
        if flip is None:
            if certified and not _certified(key, zl, yl):
                return "uncertified or degenerate answer"
            return z, y, zl, yl
        states[flip[0]] = flip[1]
        if seen is None:
            seen, cap = set(), max(200, 3 ** min(len(key), 10))
        seen.add(key)
        if len(seen) == cap:
            return f"no solution within {cap} pivots"
        key = tuple(states)
        if key in seen:
            return "W is not a P-matrix (pivoting cycled)"


def solve_pivoting(p: SignProblem) -> SignSolution:
    """Murty-style least-index principal pivoting, started from the
    all-interior active set.  Like the oracle's, its products on a point
    that overflowed (a huge or infinite b) raise no floating-point warning:
    the certificate refuses such a point."""
    states = [_INTERIOR] * p.dim
    with np.errstate(invalid="ignore", over="ignore"):
        got = _pivot(p.W, p.b, states)
    if isinstance(got, str):
        return _unsolved(p.dim, got)
    z, _, zl, yl = got
    return _solution(states, z, zl, yl)


def solve(p: SignProblem) -> SignSolution:
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
    a saturated y of the wrong sign) or where `_residual` would exceed
    CERT_TOL: an interior z has |z| - 1 <= FEAS_TOL, so it needs
    |y| <= CERT_TOL; a saturated one needs a finite b (see `_saturated_1d`).
    """
    tol = FEAS_TOL
    z = (b + 0.0) / W
    if -1.0 - tol <= z <= 1.0 + tol:
        y = abs(b - W * z)
        if y > tol and not y <= tol * (W * abs(z) + abs(b)) < math.inf:
            return None
        return z if y <= CERT_TOL else None
    z = 1.0 if z > 0 else -1.0
    return z if z * (b - W * z) >= -tol and math.isfinite(b) else None


def _saturated_1d(W, b, s):
    """Where `_sign_step_1d(W, b_i)` returns s = 1.0 or -1.0, by its
    operations on an array b: (b_i + 0.0) / W beyond 1 + FEAS_TOL on the
    side of s, s (b_i - W s) >= -FEAS_TOL and b_i finite.  Its residual,
    the larger of -s y_i and 0, is then at most FEAS_TOL; an infinite b_i
    makes it NaN."""
    z = (b + 0.0) / W
    beyond = z > 1.0 + FEAS_TOL if s > 0 else z < -1.0 - FEAS_TOL
    return beyond & (s * (b - W * s) >= -FEAS_TOL) & np.isfinite(b)


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


def _certified(states, zl, yl, eq_tol=CERT_TOL):
    """Whether a pivoting answer is kept: its `_residual` is at most
    lim = CERT_TOL and no index is degenerate (a bound index with
    |y_i| <= lim, or an interior one with |z_i| >= 1 - lim).  Per index on
    z and y = b - W z (Python floats) that is one test: an interior index
    needs |z_i| < 1 - lim and |y_i| <= eq_tol (lim unless a tighter bound
    is asked for), a lower one -inf < y_i < -lim and an upper one lim < y_i
    < inf.  NaN fails every comparison."""
    lim = CERT_TOL
    inner = 1.0 - lim
    for st, z, y in zip(states, zl, yl):
        if st == _INTERIOR:
            if not (abs(z) < inner and abs(y) <= eq_tol):
                return False
        elif st == _LOWER:
            if not -math.inf < y < -lim:
                return False
        elif not lim < y < math.inf:
            return False
    return True


def _cold(W, b):
    """`solve`'s answer to the sign step with W and b, or StepFailure with
    the reason and the problem's dump."""
    p = SignProblem(W, b)
    sol = solve(p)
    if sol.status != "solved":
        raise StepFailure(f"one-step MLCP {sol.status}: {sol.reason}",
                          problem_text=format_problem(p))
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
    """`sign_step_solver(W).solve(b)` for a W used once, as in the outer
    Newton loop; a 1 x 1 W > 0 takes the closed form without building a
    solver."""
    W = np.asarray(W, dtype=float)
    w11 = W.item() if W.shape == (1, 1) else 0.0
    return (_closed_form(W, w11, b) if w11 > 0
            else sign_step_solver(W).solve(b))


def sign_step_solver(W):
    """The `SignSolver` of the one-step problems of a run whose W stays the
    same: its solve maps b -> s in Sgn(b - W s); W is checked and converted
    once, here.

    `solve`'s ladder is the only selector: no caller picks a solver.  m = 1
    with W > 0 takes the closed form of `_sign_step_1d`.  For m > 1 with
    W + W^T positive definite (so W is a P-matrix and each step has one
    solution), least-index pivoting starts from the previous step's final
    active set, and a fresh solver's first step from the answer of the
    decoupled problem diag(W) s in Sgn(b - diag(W) s): index i upper where
    b_i > W_ii, lower where b_i < -W_ii, interior otherwise.  On a P-matrix
    the answer is unique and pivoting reaches it from any start, so where
    it starts changes how many sets it visits, not the bytes, as long as
    the absolute CERT_TOL is small against W and b (at W near 1e-300 the
    cold ladder can accept a set whose y_i have the wrong sign at that
    scale); `solve` itself starts all-interior.  The solver keeps each
    visited set's interior block (see `_set_point`), so a step on a known
    set pays for one direct LAPACK solve.  A warm answer is kept only if
    `_certified` passes it: it certifies at CERT_TOL, is finite, and no
    index is degenerate, because there a cold start may end at another
    active set and round differently.
    Its bound indices sit at exactly -1.0 or 1.0, which reduces that test to
    one bound test per index.  All other steps, a NaN b among them, go to
    `solve`, and the next warm start begins from that answer, so every
    answer is bit-identical to `solve`'s.  Raises StepFailure with the
    reason and the problem's dump when `solve` fails.

    The closed form and the warm pivot also set the record's vectorised
    decision: saturated_run(b, s) is the number of leading rows of b
    (shape (k, m)) that the solver would answer with exactly the saturated
    s (each s_i 1.0 or -1.0), by its own operations on each row:
    `_saturated_1d` at m = 1; at m > 1, W s once, b - W s per row and
    `_certified`'s bound tests, which apply while the warm start is s's
    all-bound set, as after a step that answered s (0 before the first
    step).  The cold solver's is None.  The warm pivot alone sets W and
    answer(b) -> (s, y): y = b - W s is the array its certificate read, or
    on the cold fallback that difference formed after `solve`; its solve
    is answer(b)[0].
    """
    W = np.asarray(W, dtype=float)
    if W.ndim < 2:
        W = np.atleast_2d(W)
    m = W.shape[0]
    if W.ndim != 2 or W.shape[1] != m:
        raise ValueError("W must be square")
    w11 = float(W[0, 0]) if m == 1 else 0.0
    if w11 > 0:
        def saturated_run(b, s):
            s = float(s[0])
            return _leading(_saturated_1d(w11, b[:, 0], s)) \
                if abs(s) == 1.0 else 0
        return SignSolver(lambda b: _closed_form(W, w11, b), saturated_run)
    if not (m > 1 and _sym_part_pd(W)):
        return SignSolver(lambda b: _cold(W, b))

    states = []  # no active set before the first step
    blocks = {}
    diag = np.diag(W).tolist()  # each W_ii > 0, as W + W^T is definite

    def answer(b):
        b = np.asarray(b, dtype=float)
        if b.shape == (m,):
            if not states:
                # the answer of diag(W) s in Sgn(b - diag(W) s), by float
                # comparisons only: a NaN b_i starts interior
                states[:] = [_UPPER if bi > wi else _LOWER if bi < -wi
                             else _INTERIOR
                             for bi, wi in zip(b.tolist(), diag)]
            got = _pivot(W, b, states, blocks, certified=True)
            if not isinstance(got, str):
                return got[:2]
        z = _cold(W, b)
        states[:] = [_LOWER if zi <= -1.0 else _UPPER if zi >= 1.0
                     else _INTERIOR for zi in z.tolist()]
        return z, b - W @ z

    def saturated_run(b, s):
        # from s's all-bound set, a warm step keeps that set's point, a
        # copy of s, when `_certified` passes: CERT_TOL < s_i y_i < inf
        # with y = b - W s as `_pivot` computes it
        if states != [_UPPER if v == 1.0 else _LOWER if v == -1.0 else None
                      for v in s.tolist()]:
            return 0
        sy = (b - (W @ s)) * s
        return _leading(((sy > CERT_TOL) & (sy < math.inf)).all(axis=1))
    return SignSolver(lambda b: answer(b)[0], saturated_run, W, answer)


def format_problem(p: SignProblem) -> str:
    """Plain-text dump (W rows, then b) for failing instances."""
    lines = [f"SignProblem dim={p.dim}"]
    lines += ["W  " + "  ".join(f"{x:.17g}" for x in row) for row in p.W]
    lines.append("b  " + "  ".join(f"{x:.17g}" for x in p.b))
    return "\n".join(lines)
