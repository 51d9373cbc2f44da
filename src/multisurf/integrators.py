"""Time-stepping schemes for the sign-inclusion system classes.

Each implicit step reduces the inclusion s in Sgn(y) to a small box MLCP
via the one-step problem y = b - W s.  The linear classes -- theta-scheme,
ZOH, ECB-SMC and Lyapunov loops, implicit or explicit -- share one affine
step plan (`step_plan`) with a single solve per step; the nonlinear/
affine-gain classes run an outer Newton loop that re-linearizes the residual
around the current iterate (`newton_plan`).  A ZOH path discretizes sampled
closed loops exactly through matrix exponentials.

Every builder returns a `Plan`: its step size h, its state and surface
counts n and m, its output map, whether it records controls, its
`time_invariant` mark, and the loop over the rows (`advance`).
`simulate(plan, x0, t0, T)` is the one way to run a plan: it checks x0,
builds the grid and the rows, and keeps the failure record.
`simulate_linear` and `simulate_newton` compose the two for the
theta-scheme and the Newton classes.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from multisurf import mlcp
from multisurf.mlcp import StepFailure
from multisurf.systems import (AffineGainSignSystem, LinearSignSystem,
                               NonlinearSignSystem, _as_vector)

# the outer Newton loop stops once the residual's max-norm is below
# NEWTON_TOL, and fails after NEWTON_MAX_ITER iterations
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
# a run stops at a state whose magnitude exceeds this (blow-up)
STATE_GUARD = 1e12
# `simulate` allocates every row of the grid before the first step; the
# largest default run has 3,000 steps, and a grid of MAX_STEPS rows already
# takes tens of MB per run
MAX_STEPS = 1_000_000
# a plan's `advance` calls its reaching-phase block (see `step_plan`) once
# a step has repeated the selection before it BLOCK_AFTER times: one call
# costs about as much as that many saturated steps, so shorter phases step
# on.  It predicts the steps to the first surface's switch plus
# BLOCK_MARGIN rows (BLOCK_FIRST where none nears it), then 16 times more
# after each prediction it keeps whole, up to BLOCK_ROWS
BLOCK_AFTER, BLOCK_FIRST, BLOCK_MARGIN, BLOCK_ROWS = 6, 16, 1, 4096
# `Trajectory.to_csv` formats and writes this many rows at a time
CSV_ROWS = 4096


@dataclass(frozen=True)
class SchemeConfig:
    """Step size and implicitness parameters.

    theta blends the smooth drift (0 explicit, 1 implicit), gamma blends the
    gain evaluation point in the nonlinear classes.  The sign term itself is
    always implicit.  All three are kept as Python floats, so a numpy
    float32 h rounds no product to float32.
    """

    h: float
    theta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError(f"h must be finite and > 0, got {self.h}")
        if not 0 <= self.theta <= 1 or not 0 <= self.gamma <= 1:
            raise ValueError("theta and gamma must lie in [0, 1]")
        for name in ("h", "theta", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class FailureInfo:
    step: int
    time: float
    message: str
    detail: Optional[str] = None


@dataclass
class Trajectory:
    """Uniform-grid record of a simulation.

    selections[0] is a placeholder 0 for implicit schemes (the scheme only
    defines s from step 1 on); explicit schemes store sgn(y_k) at every k.
    controls[k], when present, is the input held on [t_k, t_{k+1}).
    steps_taken counts the rows a step computed, not the rows filled.
    """

    times: np.ndarray
    states: np.ndarray
    selections: np.ndarray
    outputs: np.ndarray
    controls: Optional[np.ndarray] = None
    newton_iters: Optional[np.ndarray] = None
    failure: Optional[FailureInfo] = None
    steps_taken: int = 0

    @property
    def n(self):
        return self.states.shape[1]

    @property
    def m(self):
        return self.outputs.shape[1]

    def to_csv(self, path):
        blocks = [("x", self.states), ("s", self.selections),
                  ("y", self.outputs)]
        if self.controls is not None:
            blocks.append(("u", self.controls))
        cols = ["t"] + [f"{p}{i}" for p, v in blocks
                        for i in range(v.shape[1])]
        arrays = [self.times[:, None]] + [v for _, v in blocks]
        row = ",".join(["%.17g"] * len(cols)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(0, len(self.times), CSV_ROWS):
                chunk = np.hstack([v[i:i + CSV_ROWS] for v in arrays])
                fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


@dataclass
class Plan:
    """What a builder returns and `simulate` runs.

    h is the grid's step, n and m the state and surface counts, output(x)
    the surface at x, and controlled whether the plan records the control
    held on each step.  A `time_invariant` plan's step is a function of
    (x_k, s_k) alone, which its fixed tail relies on.
    advance(rows, k0, N) fills rows k0 + 1 to N of the `Trajectory` rows
    from row k0 and returns (k, taken, why): the row it stopped at, the
    steps it evaluated, and the StepFailure of step k, "tail" or "end".
    block, when not None, is the reaching-phase block that the plan's
    `advance` reads from this field (see `step_plan`).
    """

    h: float
    n: int
    m: int
    output: Callable
    controlled: bool
    time_invariant: bool
    advance: Callable
    block: Optional[Callable] = None


def step_plan(h, Phi, Gamma, C, D=None, L=None, c=None, solver=None,
              rho=None, control=None):
    """The affine step shared by every linear-class loop, built once per run.

    With free = Phi x_k + c_k, a step selects s = solver.solve(C L free +
    D) (implicit, solver an `mlcp.SignSolver`) or s = sgn(C x_k + D)
    (explicit, solver None, sgn(0) = 0) and moves to x_{k+1} = L (free -
    Gamma (rho s)) with output y_{k+1} = C x_{k+1} + D; c is None, a
    constant vector or a callable c_k = c(t_k).  A missing c, D, L or rho is
    skipped rather than applied as zero, identity or one, so no -0.0 turns
    into 0.0.  control(x_k, s), when given, is the input held on [t_k,
    t_{k+1}).  solver.solve and control must be functions of their
    arguments alone (a warm start may keep state, not change an answer); a
    solve may raise StepFailure.  h is the grid's step, which the operators
    already hold.  Returns a `Plan` with output(x) = C x + D, controlled
    when control is given, and time_invariant unless c is callable: the
    step then depends on x_k alone.  The step's contract, which `advance`
    and the `mlcp` solvers keep: x_k is finite with |x_k| <= STATE_GUARD,
    and s lies in [-1, 1]^m to rounding.

    Operators that are exactly I, resolved once per plan with c constant.
    I @ v has the bytes of v + 0.0 for a finite v, and (v + 0.0) + d those
    of v + (d + 0.0), so such an operator folds into the constant added
    after it, formed once.  Phi = I steps free = x_k + (c + 0.0), which
    holds no -0.0, and neither does x = free - Gamma (rho s).  When L is
    exactly I too and STATE_GUARD + |c| + |D| + 2 |Gamma diag(rho)| (max
    norms) is below 1e308, free, x, b and y are finite: L is dropped (it
    would add +0.0 to vectors without -0.0), and C = I makes b = free +
    (D + 0.0) and y = x + (D + 0.0), or b = free and y = x where D is
    absent or all +-0.0 (and the explicit sign takes sgn(x_k), as sgn(-0.0)
    is 0.0).  Otherwise, as under a callable c, L and C stay products,
    since I @ v turns an infinite entry into NaN.

    advance(rows, k0, N) fills rows k0 + 1 to N of the `Trajectory` rows in
    one loop that owns every rule of a linear run: the guard before each
    step (see `_check_state`), the fixed tail and the block.  It records u
    in the controls when control is given, repeating the last held one in
    row N once the run completes, no iterations, and the outputs as a copy
    of the states where y is x.  An explicit run's selections are the signs
    of its outputs, the selection of step k in row k.  The fixed tail: once
    a time-invariant step returns x_k and s_k byte for byte (-0.0 is not
    0.0), every later step would repeat it, so its results fill the
    remaining rows and the run stops.

    The reaching-phase block.  An implicit, time-invariant plan without
    control, with Phi and L (when given) exactly I, at most one nonzero
    entry in each row of C and a solver whose `saturated_run` is not None
    (see `mlcp.sign_step_solver`) also has a block(X, Y, s): from the state
    X[0] under a saturated s, each step is x_{k+1} = (x_k + c) - g with
    constant g = Gamma (rho s), predicted up to BLOCK_ROWS at a time by one
    `np.add.accumulate` over [x_k, c, -g, c, -g, ...] (a - b is a + (-b)).
    The first prediction is the reaching time, min s_i y_i / -r_i over the
    rates r_i = s_i (C (c - g))_i < 0 with y = C X[0] + D, rounded up, plus
    BLOCK_MARGIN (C g is W s, so row j keeps s_i while s_i y_i + (j + 1)
    r_i > 0), else BLOCK_FIRST; after one kept whole, 16 times more.
    It writes the leading steps that the solver answers with s and whose
    states are finite and within STATE_GUARD to X[1:] and Y[1:] (advance
    copies X to Y where y is x), and returns their count; `saturated_run`
    alone decides them.  These are stepping's bytes: I @ v is v for a
    finite v without -0.0, which the block starts from and a sum does not
    make, and an entry of a product by C has at most one nonzero term, so
    a batch rounds as each row does (an exact zero is +0.0 either way, and
    the decision ignores its sign).  advance calls its plan's block once
    BLOCK_AFTER steps in a row repeated the selection before them, but not
    for the selection it last took no row for.  Plans of E != 0, ZOH, ECB,
    Lyapunov, explicit and Newton runs get no block.
    """
    solve, run = ((None, None) if solver is None
                  else (solver.solve, solver.saturated_run))
    driven = callable(c)
    eye = np.eye(len(Phi))
    ident = not driven and np.array_equal(Phi, eye)
    flat = ident and (L is None or np.array_equal(L, eye))
    c0, D0 = (0.0 if v is None or driven else np.add(v, 0.0) for v in (c, D))
    with np.errstate(over="ignore", invalid="ignore"):
        G_rho = np.abs(np.multiply(Gamma, 1.0 if rho is None else rho))
        reach = (STATE_GUARD + np.max(np.abs(c0)) + np.max(np.abs(D0))
                 + 2 * np.max(G_rho.sum(axis=1), initial=0.0))
    bare = flat and reach < 1e308
    # the operators as a step applies them, None where one is folded
    Phi_op, c_op = (None, c0) if ident else (Phi, c)
    L_op = None if bare else L
    if bare and np.array_equal(C, eye):
        # adding a zero D changes only a -0.0, which b and y do not hold
        # and np.sign maps to 0.0
        C_op, D_op = None, (D0 if np.any(D0) else None)
    else:
        C_op, D_op = C, D

    invariant, y_is_x = not driven, C_op is None and D_op is None

    def advance(rows, k0, N):
        X, Y, S, U = rows.states, rows.outputs, rows.selections, rows.controls
        times, block, record = rows.times, plan.block, control is not None
        x_k, last = X[k0], S[k0].tobytes()
        k, taken, repeats, idle, why = k0, 0, 0, None, "end"
        while k < N:
            try:
                _check_state(x_k)
                c_k = c(times[k]) if driven else c_op
                free = (x_k + c_k if Phi_op is None else Phi_op @ x_k
                        if c_k is None else Phi_op @ x_k + c_k)
                b = (x_k if solve is None else free if L_op is None
                     else L_op @ free)
                b = b if C_op is None else C_op @ b
                b = b if D_op is None else b + D_op
                s = np.sign(b) if solve is None else solve(b)
                x = free - Gamma @ (s if rho is None else rho * s)
                if L_op is not None:
                    x = L_op @ x
                y = x if C_op is None else C_op @ x
                y = y if D_op is None else y + D_op
                u = control(x_k, s) if record else None
            except StepFailure as exc:
                why = exc
                break
            k, taken = k + 1, taken + 1
            X[k], S[k] = x, s
            if not y_is_x:
                Y[k] = y
            if record:
                U[k - 1] = u
            if invariant:
                key = s.tobytes()
                if key != last:
                    last, repeats = key, 0
                elif x.tobytes() == x_k.tobytes():
                    X[k + 1:], Y[k + 1:], S[k + 1:] = x, y, s
                    if record:
                        U[k:N] = u
                    why = "tail"
                    break
                else:
                    repeats += 1
                    if (block is not None and repeats >= BLOCK_AFTER
                            and key != idle):
                        j = block(X[k:], Y[k:], s)
                        S[k + 1:k + 1 + j] = s
                        k += j
                        x = X[k]
                        if not j:
                            idle = key
            x_k = x
        if y_is_x:
            Y[k0 + 1:] = X[k0 + 1:]
        if solve is None:
            S[k0:] = np.sign(Y[k0:])
        if record and not isinstance(why, StepFailure):
            U[N] = U[N - 1]
        return k, taken, why

    def block(X, Y, s):
        # stepping fails from a state past the guard, I @ x turns -0.0 into
        # 0.0, and a sliding selection takes no prediction
        if not (all(abs(v) == 1.0 for v in s.tolist()) and all(
                abs(v) <= STATE_GUARD and (v or math.copysign(1.0, v) > 0)
                for v in X[0].tolist())):
            return 0
        g = Gamma @ (s if rho is None else rho * s)
        cols = [np.reshape(v, (-1, 1)) for v in ([-g] if c is None
                                                 else [c, -g])]
        p, done, rows = len(cols), 0, BLOCK_FIRST
        # predictions past the guard may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            rate = s * (C @ (-g if c is None else c - g))
            dist = s * (C @ X[0] if D is None else C @ X[0] + D)
            steps = min((a / -r for a, r in zip(dist.tolist(), rate.tolist())
                         if r < 0), default=math.inf)
            if math.isfinite(steps):
                rows = min(math.ceil(max(steps, 0.0)) + BLOCK_MARGIN,
                           BLOCK_ROWS)
            while done < len(X) - 1:
                rows = min(rows, len(X) - 1 - done)
                # column j p holds x_{k+j}; with c, column j p + 1 holds
                # the free response x_{k+j} + c
                seq = np.empty((len(g), 1 + p * rows))
                seq[:, 0] = X[done]
                for i, col in enumerate(cols):
                    seq[:, 1 + i::p] = col
                np.add.accumulate(seq, axis=1, out=seq)
                S, b = seq[:, p::p], (C @ seq[:, p - 1:-1:p]).T
                j = min(mlcp._leading((np.abs(S) <= STATE_GUARD).all(axis=0)),
                        run(b if D is None else b + D, s))
                X[done + 1:done + 1 + j] = S[:, :j].T
                if not y_is_x:  # else advance copies the states
                    Y[done + 1:done + 1 + j] = (S[:, :j].T @ C.T if D is None
                                                else S[:, :j].T @ C.T + D)
                done += j
                if j < rows:
                    break
                rows = min(16 * rows, BLOCK_ROWS)
        return done

    blocks = (run is not None and control is None and flat
              and (np.count_nonzero(C, axis=1) <= 1).all())
    # `advance` reads the block from this plan, where a caller may swap it
    plan = Plan(h, len(Phi), len(C),
                lambda x: C @ x if D is None else C @ x + D,
                control is not None, invariant, advance,
                block if blocks else None)
    return plan


def theta_plan(E, B, C, D, c, cfg: SchemeConfig, scheme, rho=None,
               control=None):
    """The step plan of dx/dt in E x + c / h - B (rho Sgn(C x + D)), with c
    passed on to `step_plan` (None, a constant vector or a callable of t).

    The implicit scheme blends the drift by cfg.theta: Phi = I + h(1-theta)E,
    L = (I - h theta E)^-1, Gamma = h B and W = h C L B diag(rho), whose
    one-step solver is built here; under a singular I - h theta E the
    solve fails, so the run fails at step 0 (after the guard).  The
    explicit scheme is forward Euler, Phi = I + h E.
    """
    h, n = cfg.h, E.shape[0]
    if scheme == "explicit":
        return step_plan(h, np.eye(n) + h * E, h * B, C, D, c=c, rho=rho,
                         control=control)
    if scheme != "implicit":
        raise ValueError(f"unknown scheme {scheme!r}")
    try:
        L = np.linalg.inv(np.eye(n) - h * cfg.theta * E)
    except np.linalg.LinAlgError:
        L, solver = None, mlcp.SignSolver(_singular_drift)
    else:
        W = h * C @ L @ B
        solver = mlcp.sign_step_solver(W if rho is None else W @ np.diag(rho))
    return step_plan(h, np.eye(n) + h * (1 - cfg.theta) * E, h * B, C, D,
                     L=L, c=c, solver=solver, rho=rho, control=control)


def _singular_drift(b):
    raise StepFailure("singular implicit drift matrix I - h*theta*E")


def newton_plan(sys, cfg: SchemeConfig):
    """The plan of the outer Newton loop of the affine-gain and nonlinear
    classes, built once per run.  Its step(x_k, t_k, s_k, y_k) -> (x, s, y,
    iters) takes y_k, the surface at x_k, and returns y, the surface at x.
    A step linearizes the one-step residual

        R(x, s) = x - x_k - h f(x_th) + h g(x_ga) s - h rho (x - x_k)

    around the current iterate, solves the resulting box MLCP for s, and
    applies the Newton state update with the inverse of the iteration
    matrix M = (1 - h rho) I - h theta f_jac(x_th) + h gamma (grad g . s).
    The rho shift moves hypomonotone sign terms into the monotone regime.
    Warm starts from s_k.  On affine data the residual is affine and one
    iteration suffices.  f, f_jac, the gain and the surface must be
    functions of their arguments: an iterate's drift, gain and surface
    serve both its residual and the next iteration.

    Built once per run: (1 - h rho) I, h rho, h theta, h gamma and an
    affine-gain system's constant surface Jacobian H.  An affine-gain system
    without f (no smooth drift) has no h f term in its residual, no x_th
    blend and no h theta f_jac term in M (h theta >= 0 times a zero f_jac
    is +0.0, and subtracting +0.0 keeps every entry's bytes).  Its step is a
    function of (x_k, s_k): its plan is `time_invariant`.  Nonlinear and
    drifting affine-gain plans are unmarked.

    Its `advance` is the run's loop, as in `step_plan`: the guard, the step
    from the s_k and y_k the last one returned (rows k0 first), its
    iterations, and a marked plan's fixed tail.  The plan's output is
    sys.surface, and it records no controls.

    The float step.  A drift-free affine-gain plan with n = m = 1 and h rho
    and H finite runs that loop on Python floats (`_newton_float_plan`),
    where each one-entry array operation would cost numpy's per-call
    overhead; every other plan runs it on arrays (`_newton_array_plan`),
    which forms M, its inverse, W and b on every iteration.
    The float loop takes the array loop's operations in their order on the
    same doubles, so its rows, iterations and failures have the array
    loop's bytes.  Two of its shortcuts are byte-equal to operations that
    the array loop repeats: it keeps M^-1 while s keeps its value (inv is
    deterministic), and its iteration 1 from a finite x_k, with M^-1
    finite, takes r_smooth = +0.0 and b = y + 0.0 without their products
    (x_k - x_k and h rho times it are +0.0, and numpy's matmul sums each
    entry of a finite matrix times +0.0 from +0.0, which stays +0.0).
    The rest rests on identities of the pinned numpy / OpenBLAS
    build (see tests/test_golden.py), which tests/test_float_step.py pins
    over +-0, subnormals, +-inf and NaN: a 1 x 1 `@`, the 1-D dot and the
    einsum of M are a b + 0.0, and inv([[m]]) is 1.0 / m, raising exactly
    at m = +-0.0.
    """
    if not isinstance(sys, (AffineGainSignSystem, NonlinearSignSystem)):
        raise TypeError("newton_plan needs an affine-gain or nonlinear system")
    if (isinstance(sys, AffineGainSignSystem) and sys.f is None
            and sys.n == sys.m == 1 and math.isfinite(cfg.h * sys.rho)
            and math.isfinite(sys.C_rows[0][0])):
        return _newton_float_plan(sys, cfg)
    return _newton_array_plan(sys, cfg)


def _newton_float_plan(sys, cfg):
    """`_newton_array_plan`'s plan of an n = m = 1 drift-free system with
    h rho and H finite, on floats.  It keeps M^-1 while s keeps its value:
    s enters M as a s + 0.0, the same for s = +-0."""
    h, ga, tol = cfg.h, cfg.gamma, NEWTON_TOL
    h_rho, h_ga, ka = h * sys.rho, h * ga, 1 - ga
    one = 1 - h_rho
    A, B = float(sys.A_list[0][0, 0]), float(sys.B_list[0][0])
    C, D = float(sys.C_rows[0][0]), float(sys.D[0])
    hC, closed, pack = h * C, mlcp._sign_step_1d, struct.Struct("2d").pack
    memo = (None, 0.0, 0.0, False)  # s, M^-1, (h H) M^-1, finite M^-1

    def step(x_k, s, y):
        nonlocal memo
        x, d, last = x_k, 0.0, math.inf
        g = (A * (ga * x + ka * x_k) + 0.0) + B
        for it in range(1, NEWTON_MAX_ITER + 1):
            if s != memo[0]:
                M = one + h_ga * (A * s + 0.0)
                if M == 0.0:
                    raise StepFailure("singular Newton iteration matrix",
                                      residual=last)
                Minv = 1.0 / M
                memo = s, Minv, hC * Minv + 0.0, math.isfinite(Minv)
            _, Minv, hHMinv, finite = memo
            W = hHMinv * g + 0.0
            if it == 1 and finite:
                r, b = 0.0, y + 0.0
            else:
                r = (x_k - x) + h_rho * d
                b = y + (C * (Minv * r + 0.0) + 0.0)
            s = closed(W, b) if W > 0 else None
            if s is None:
                s = float(mlcp.sign_step(np.array([[W]]), np.array([b]))[0])
            x = x + (Minv * (r - (h * g * s + 0.0)) + 0.0)
            g = (A * (ga * x + ka * x_k) + 0.0) + B
            y = (C * x + 0.0) + D
            d = x - x_k
            last = abs((d + (h * g * s + 0.0)) - h_rho * d)
            if last < tol:
                return x, s, y, it
        raise StepFailure(f"Newton loop did not converge: residual "
                          f"{last:.3g} after {it} iterations", residual=last)

    def advance(rows, k0, N):
        X, Y, S, iters = (rows.states, rows.outputs, rows.selections,
                          rows.newton_iters)
        x_k, s_k, y_k = float(X[k0, 0]), float(S[k0, 0]), float(Y[k0, 0])
        xs, ys, ss, its = (array("d"), array("d"), array("d"), array("l"))
        why = "end"
        for k in range(k0, N):
            try:
                if not abs(x_k) <= STATE_GUARD:
                    _check_magnitude(abs(x_k))
                x, s, y, it = step(x_k, s_k, y_k)
            except StepFailure as exc:
                why = exc
                break
            xs.append(x), ys.append(y), ss.append(s), its.append(it)
            if x == x_k and s == s_k and pack(x, s) == pack(x_k, s_k):
                why = "tail"
                break
            x_k, s_k, y_k = x, s, y
        j = k0 + len(xs)
        X[k0 + 1:j + 1, 0], Y[k0 + 1:j + 1, 0] = xs, ys
        S[k0 + 1:j + 1, 0], iters[k0 + 1:j + 1] = ss, its
        if why == "tail":
            X[j + 1:], Y[j + 1:], S[j + 1:], iters[j + 1:] = x, y, s, it
        return j, j - k0, why

    return Plan(h, 1, 1, sys.surface, False, True, advance)


def _newton_array_plan(sys, cfg):
    """The plan of `newton_plan` on arrays, for any n and m."""
    h, th, ga, tol, n = cfg.h, cfg.theta, cfg.gamma, NEWTON_TOL, sys.n
    h_rho, h_th, h_ga = h * sys.rho, h * th, h * ga
    shift = (1 - h_rho) * np.eye(n)
    affine = isinstance(sys, AffineGainSignSystem)
    f, f_jac = sys.f, sys.f_jac
    drift_free = affine and f is None
    H_affine = sys.surface_jac(np.zeros(n)) if affine else None

    def linearize(x, x_k, t_th):
        # x_th and h f are None without smooth drift, where h f would add
        # zeros
        x_ga = ga * x + (1 - ga) * x_k
        if drift_free:
            return None, x_ga, None, sys.gain(x_ga)
        x_th = th * x + (1 - th) * x_k
        return x_th, x_ga, h * np.asarray(f(x_th, t_th)), sys.gain(x_ga)

    zero = np.zeros(n)

    def step(x_k, t_k, s_k, y_k):
        # x, s and y are only ever rebound, so no input is copied
        x, s, y = x_k, s_k, y_k
        t_th = t_k + h_th
        x_th, x_ga, h_f, g_val = linearize(x, x_k, t_th)
        # x - x_k, formed once per iteration: +0.0, as `advance` checks x_k
        d = zero
        last_res = np.inf
        for it in range(1, NEWTON_MAX_ITER + 1):
            H = H_affine if affine else sys.surface_jac(x)
            # (grad g obar s)_{kp} = sum_l dg[k,l]/dx[p] * s[l]; without
            # smooth drift M has no h theta f_jac term
            gs = np.einsum("klp,l->kp", sys.gain_jac(x_ga), s)
            M = (shift if h_f is None
                 else shift - h_th * np.asarray(f_jac(x_th, t_th)))
            try:
                Minv = np.linalg.inv(M + h_ga * gs)
            except np.linalg.LinAlgError:
                raise StepFailure("singular Newton iteration matrix",
                                  residual=last_res) from None
            W = h * H @ Minv @ g_val
            r_smooth = (x_k - x if h_f is None else x_k - x + h_f) + h_rho * d
            b = y + H @ (Minv @ r_smooth)
            s = mlcp.sign_step(W, b)
            x = x + Minv @ (r_smooth - h * g_val @ s)
            x_th, x_ga, h_f, g_val = linearize(x, x_k, t_th)
            y = sys.surface(x)
            # stop once the updated pair satisfies R (the warm start can zero
            # R without the sign inclusion); unlike max(), .max() keeps a NaN
            d = x - x_k
            res = d if h_f is None else d - h_f
            last_res = float(np.abs(res + h * g_val @ s - h_rho * d).max())
            if last_res < tol:
                return x, s, y, it
        raise StepFailure(f"Newton loop did not converge: residual "
                          f"{last_res:.3g} after {it} iterations",
                          residual=last_res)

    def advance(rows, k0, N):
        X, Y, S, iters = (rows.states, rows.outputs, rows.selections,
                          rows.newton_iters)
        times, x_k, s_k, y_k = rows.times, X[k0], S[k0], Y[k0]
        for k in range(k0, N):
            try:
                _check_state(x_k)
                x, s, y, it = step(x_k, times[k], s_k, y_k)
            except StepFailure as exc:
                return k, k - k0, exc
            X[k + 1], Y[k + 1], S[k + 1], iters[k + 1] = x, y, s, it
            if (drift_free and x.tobytes() == x_k.tobytes()
                    and s.tobytes() == s_k.tobytes()):
                X[k + 2:], Y[k + 2:], S[k + 2:], iters[k + 2:] = x, y, s, it
                return k + 1, k + 1 - k0, "tail"
            x_k, s_k, y_k = x, s, y
        return N, N - k0, "end"

    return Plan(h, n, sys.m, sys.surface, False, drift_free, advance)


@dataclass(frozen=True)
class ZohPair:
    """Exact sampled closed-loop transition x_{k+1} = Phi x_k - Gamma s."""

    Phi: np.ndarray
    Gamma: np.ndarray


def zoh_discretize(F, G, C, h, alpha=1.0) -> ZohPair:
    """Exact ZOH discretization of the equivalent-control closed loop.

    exp(F h) and its integral come from the augmented matrix exponential
    expm([[F, I], [0, 0]] h); alpha scales the sign channel so the MLCP
    unknown stays in [-1, 1].  F, G and C must be finite and CG
    nonsingular to working precision: its condition number, which scaling
    G or C by a number does not change, below 1 / eps; anything else is a
    ValueError.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = F.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        CG = C @ G
    # cond's SVD raises LinAlgError on a NaN entry, so finiteness goes first
    if not (all(np.isfinite(v).all() for v in (F, G, C, CG))
            and np.linalg.cond(CG) < 1 / np.finfo(float).eps):
        raise ValueError("CG must be nonsingular")
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = F
    aug[:n, n:] = np.eye(n)
    expo = scipy.linalg.expm(aug * h)
    eFh = expo[:n, :n]
    intexp = expo[:n, n:]
    K = G @ np.linalg.inv(CG)
    Phi = eFh - intexp @ K @ C @ F
    Gamma = alpha * intexp @ K
    return ZohPair(Phi=Phi, Gamma=Gamma)


def grid_steps(t0, T, h):
    """Number of steps on the uniform grid (last step may overshoot T); as
    every loop runs on it, the one check of h, t0 and T.  More than
    MAX_STEPS steps is an error."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and > 0, got {h}")
    if not (math.isfinite(t0) and math.isfinite(T)):
        raise ValueError(f"t0 and T must be finite, got {t0} and {T}")
    if T < t0:
        raise ValueError("need T >= t0")
    # a float first: (T - t0) / h may overflow to inf, which ceil rejects
    steps = (T - t0) / h
    if not steps <= MAX_STEPS:
        raise ValueError(f"h = {h} and T = {T} give {steps:.3g} steps, more "
                         f"than the limit of {MAX_STEPS}")
    return max(0, math.ceil(steps))


def _check_state(x):
    """Fail a step from x unless x is finite with max |x_i| <= STATE_GUARD,
    checked in that order.  fsum(|x_i|) <= STATE_GUARD accepts soundly on
    every Python: fsum rounds the exact sum once, which is at least the
    largest |x_i|, and rounding is monotone; NaN or inf fails <=, and a
    finite sum that overflows raises.  The rest takes one reduction: NaN
    propagates through .max(), and |x_i| = inf fails `< inf`.
    """
    try:
        if math.fsum(map(abs, x.tolist())) <= STATE_GUARD:
            return
    except OverflowError:
        pass
    _check_magnitude(float(np.abs(x).max()))


def _check_magnitude(mag):
    """`_check_state`'s failure of a state whose max-norm is mag."""
    if not mag < math.inf:
        raise StepFailure("state is not finite")
    if mag > STATE_GUARD:
        raise StepFailure(f"state magnitude exceeded guard {STATE_GUARD:g}")


def simulate(plan, x0, t0, T):
    """Run a `Plan` (see `step_plan` and `newton_plan`) from t0 to T on the
    uniform grid of the plan's step plan.h, and record everything.

    simulate checks that x0 has the plan's n entries, starts the outputs
    from y0 = plan.output(x0) and owns the grid, the one preallocated
    `Trajectory` of every row (m selections and outputs, controls when the
    plan records them), which plan.advance(rows, 0, N) fills, and the
    failure record.  The plan's `advance` owns the loop and the plan's
    rules, the fixed tail, the block, an explicit run's selections and the
    last held control among them.  A state that is not finite or exceeds
    STATE_GUARD (blow-up) fails the step (see `_check_state`); on
    StepFailure the partial trajectory is returned with failure
    diagnostics attached.
    """
    x0 = _as_vector(x0, plan.n, "x0")
    h, m = plan.h, plan.m
    N = grid_steps(t0, T, h)
    rows = Trajectory(
        times=t0 + h * np.arange(N + 1), states=np.zeros((N + 1, plan.n)),
        selections=np.zeros((N + 1, m)), outputs=np.zeros((N + 1, m)),
        controls=np.zeros((N + 1, m)) if plan.controlled else None,
        newton_iters=np.zeros(N + 1, dtype=int))
    rows.states[0] = x0
    rows.outputs[0] = plan.output(x0)
    k, rows.steps_taken, why = plan.advance(rows, 0, N)
    if isinstance(why, StepFailure):
        kept = {name: v[:k + 1] for name, v in vars(rows).items()
                if isinstance(v, np.ndarray)}  # the rows up to step k
        rows = replace(rows, **kept, failure=FailureInfo(
            step=k, time=float(rows.times[k]), message=why.message,
            detail=why.problem_text))
    return rows


def simulate_linear(sys: LinearSignSystem, x0, t0, T, cfg: SchemeConfig,
                    scheme="implicit"):
    """The theta-scheme plan of the linear class, run by `simulate`."""
    return simulate(theta_plan(sys.E, sys.B, sys.C, sys.D, cfg.h * sys.a,
                               cfg, scheme), x0, t0, T)


def simulate_newton(sys, x0, t0, T, cfg: SchemeConfig):
    """The Newton plan of the affine-gain / nonlinear classes, run by
    `simulate`."""
    return simulate(newton_plan(sys, cfg), x0, t0, T)
