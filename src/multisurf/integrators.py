"""Time-stepping schemes for the sign-inclusion system classes.

Each implicit step reduces the inclusion s in Sgn(y) to a small box MLCP
via the one-step problem y = b - W s.  The linear classes -- theta-scheme,
ZOH, ECB-SMC and Lyapunov loops, implicit or explicit -- share one affine
step plan (`step_plan`) with a single solve per step; the nonlinear/
affine-gain classes run an outer Newton loop that re-linearizes the residual
around the current iterate.  A ZOH path discretizes sampled closed loops
exactly through matrix exponentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from multisurf import mlcp
from multisurf.mlcp import StepFailure
from multisurf.systems import (AffineGainSignSystem, LinearSignSystem,
                               NonlinearSignSystem, _as_vector, output)

# the outer Newton loop stops once the residual's max-norm is below
# NEWTON_TOL, and fails after NEWTON_MAX_ITER iterations
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 25
# `simulate` stops a run whose state magnitude exceeds this (blow-up)
STATE_GUARD = 1e12
# `simulate` allocates every row of the grid before the first step; the
# largest default run has 3,000 steps, and a grid of MAX_STEPS rows already
# takes tens of MB per run
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SchemeConfig:
    """Step size and implicitness parameters.

    theta blends the smooth drift (0 explicit, 1 implicit), gamma blends the
    gain evaluation point in the nonlinear classes.  The sign term itself is
    always implicit.
    """

    h: float
    theta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("h must be > 0")
        if not 0 <= self.theta <= 1 or not 0 <= self.gamma <= 1:
            raise ValueError("theta and gamma must lie in [0, 1]")


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
    """

    times: np.ndarray
    states: np.ndarray
    selections: np.ndarray
    outputs: np.ndarray
    controls: Optional[np.ndarray] = None
    newton_iters: Optional[np.ndarray] = None
    failure: Optional[FailureInfo] = None

    @property
    def n(self):
        return self.states.shape[1]

    @property
    def m(self):
        return self.outputs.shape[1]

    @property
    def h(self):
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def to_csv(self, path):
        blocks = [("x", self.states), ("s", self.selections),
                  ("y", self.outputs)]
        if self.controls is not None:
            blocks.append(("u", self.controls))
        cols = ["t"] + [f"{p}{i}" for p, v in blocks
                        for i in range(v.shape[1])]
        table = np.hstack([self.times[:, None]] + [v for _, v in blocks])
        row = (",".join(["{:.17g}"] * len(cols)) + "\n").format
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n"
                     + "".join(row(*r) for r in table.tolist()))


def step_plan(Phi, Gamma, C, D=None, L=None, c=None, solve=None, rho=None,
              control=None):
    """The affine step shared by every linear-class loop, built once per run.

    With free = Phi x_k + c_k, a step selects s = solve(C L free + D)
    (implicit) or s = sgn(C x_k + D) (explicit, solve None, sgn(0) = 0) and
    moves to x_{k+1} = L (free - Gamma (rho s)) with output
    y_{k+1} = C x_{k+1} + D; c is None, a constant vector or a callable
    c_k = c(t_k).  A missing c, D, L or rho is skipped rather than applied
    as zero, identity or one, so no -0.0 turns into 0.0.  control(x_k, s),
    when given, is the input held on [t_k, t_{k+1}).  solve and control
    must be functions of their arguments alone (a warm start may keep
    state, not change an answer).  Returns step(k, x_k, t_k, s_prev) ->
    (x, y, s, u, iters) for `simulate`.  Unless c is callable the step
    depends on x_k alone, and its `time_invariant` attribute is true.
    """
    driven = callable(c)

    def affine(M, v, d):
        return M @ v if d is None else M @ v + d

    def step(k, x_k, t_k, s_prev):
        free = affine(Phi, x_k, c(t_k) if driven else c)
        if solve is None:
            s = np.sign(affine(C, x_k, D))
        else:
            s = solve(affine(C, free if L is None else L @ free, D))
        x = free - Gamma @ (s if rho is None else rho * s)
        if L is not None:
            x = L @ x
        u = None if control is None else control(x_k, s)
        return x, affine(C, x, D), s, u, 0

    step.time_invariant = not driven
    return step


def theta_plan(E, B, C, D, c, cfg: SchemeConfig, scheme, rho=None,
               control=None):
    """The step plan of dx/dt in E x + c / h - B (rho Sgn(C x + D)), with c
    passed on to `step_plan` (None, a constant vector or a callable of t).

    The implicit scheme blends the drift by cfg.theta: Phi = I + h(1-theta)E,
    L = (I - h theta E)^-1, Gamma = h B and W = h C L B diag(rho), whose
    one-step solver is built here; a singular I - h theta E fails the first
    step.  The explicit scheme is forward Euler, Phi = I + h E.
    """
    h, n = cfg.h, E.shape[0]
    if scheme == "explicit":
        return step_plan(np.eye(n) + h * E, h * B, C, D, c=c, rho=rho,
                         control=control)
    if scheme != "implicit":
        raise ValueError(f"unknown scheme {scheme!r}")
    try:
        L = np.linalg.inv(np.eye(n) - h * cfg.theta * E)
    except np.linalg.LinAlgError:
        def fail(k, x_k, t_k, s_prev):
            raise StepFailure("singular implicit drift matrix I - h*theta*E")
        return fail
    W = h * C @ L @ B
    solve = mlcp.sign_step_solver(W if rho is None else W @ np.diag(rho))
    return step_plan(np.eye(n) + h * (1 - cfg.theta) * E, h * B, C, D, L=L,
                     c=c, solve=solve, rho=rho, control=control)


def newton_plan(sys, cfg: SchemeConfig):
    """The outer Newton loop of the affine-gain and nonlinear classes, built
    once per run: step(x_k, t_k, s_k) -> (x, s, y, iters).  A step
    linearizes the one-step residual

        R(x, s) = x - x_k - h f(x_th) + h g(x_ga) s - h rho (x - x_k)

    around the current iterate, solves the resulting box MLCP for s, and
    applies the Newton state update with the inverse of the iteration
    matrix M = (1 - h rho) I - h theta f_jac(x_th) + h gamma (grad g . s).
    The rho shift moves hypomonotone sign terms into the monotone regime.
    Warm starts from s_k (0 when None).  On affine data the residual is
    affine and one iteration suffices.  f, f_jac and the gain must be
    functions of their arguments: an iterate's drift and gain serve both
    its residual and the next iteration.

    Built once per run: (1 - h rho) I, h rho, h theta, h gamma and an
    affine-gain system's constant surface Jacobian.  An affine-gain system
    without f (no smooth drift) also gets its zero drift terms h 0 and
    (1 - h rho) I - h theta 0, and no x_th blend.  Its M depends on s
    alone: the plan reuses its last inverse while s has the same bytes (inv
    is deterministic).  That step is a function of (x_k, s_k): its
    `time_invariant` attribute is true, so `simulate` may stop once a step
    returns x_k and s_k byte for byte.  Nonlinear and drifting affine-gain
    plans are unmarked and build M every iteration.
    """
    if not isinstance(sys, (AffineGainSignSystem, NonlinearSignSystem)):
        raise TypeError("newton_plan needs an affine-gain or nonlinear system")
    h, th, ga, tol, n = cfg.h, cfg.theta, cfg.gamma, NEWTON_TOL, sys.n
    h_rho, h_th, h_ga = h * sys.rho, h * th, h * ga
    shift = (1 - h_rho) * np.eye(n)
    affine = isinstance(sys, AffineGainSignSystem)
    drift_free = affine and sys.f is None
    H_affine = sys.surface_jac(np.zeros(n)) if affine else None
    if drift_free:
        base, h_f = shift - h_th * np.zeros((n, n)), h * np.zeros(n)
        gain_jac = sys.gain_jac(np.zeros(n))

        def linearize(x, x_k, t_th):
            return None, None, h_f, sys.gain(ga * x + (1 - ga) * x_k)

        def matrix(x_th, x_ga, t_th, s):
            return base + h_ga * np.einsum("klp,l->kp", gain_jac, s)
    else:
        f, f_jac = sys.f, sys.f_jac

        def linearize(x, x_k, t_th):
            x_th = th * x + (1 - th) * x_k
            x_ga = ga * x + (1 - ga) * x_k
            return x_th, x_ga, h * np.asarray(f(x_th, t_th)), sys.gain(x_ga)

        def matrix(x_th, x_ga, t_th, s):
            # (grad g obar s)_{kp} = sum_l dg[k,l]/dx[p] * s[l]
            gs = np.einsum("klp,l->kp", sys.gain_jac(x_ga), s)
            return shift - h_th * np.asarray(f_jac(x_th, t_th)) + h_ga * gs
    # the drift-free plan's last inverse and the bytes of the s it was
    # built for, replaced as one pair; other plans leave it unset
    memo = (None, None)

    def step(x_k, t_k, s_k=None):
        nonlocal memo
        # x and s are only ever rebound, so neither input is copied
        x = x_k = np.asarray(x_k, dtype=float)
        s = np.zeros(sys.m) if s_k is None else np.asarray(s_k, dtype=float)
        t_th = t_k + h_th
        x_th, x_ga, h_f, g_val = linearize(x, x_k, t_th)
        last_res = np.inf
        for it in range(1, NEWTON_MAX_ITER + 1):
            key = s.tobytes()
            memo_key, Minv = memo
            if key != memo_key:
                M = matrix(x_th, x_ga, t_th, s)
                try:
                    Minv = np.linalg.inv(M)
                except np.linalg.LinAlgError:
                    raise StepFailure("singular Newton iteration matrix",
                                      residual=last_res) from None
                if drift_free:
                    memo = key, Minv
            H = H_affine if affine else sys.surface_jac(x)
            r_smooth = x_k - x + h_f + h_rho * (x - x_k)
            W = h * H @ Minv @ g_val
            b = sys.surface(x) + H @ (Minv @ r_smooth)
            s = mlcp.sign_step_solver(W)(b)
            x = x + Minv @ (r_smooth - h * g_val @ s)
            x_th, x_ga, h_f, g_val = linearize(x, x_k, t_th)
            # stop once the updated pair satisfies R (the warm start can zero
            # R without the sign inclusion); unlike max(), .max() keeps a NaN
            last_res = float(np.abs(x - x_k - h_f + h * g_val @ s
                                    - h_rho * (x - x_k)).max())
            if last_res < tol:
                return x, s, sys.surface(x), it
        raise StepFailure(f"Newton loop did not converge: residual "
                          f"{last_res:.3g} after {it} iterations",
                          residual=last_res)

    step.time_invariant = drift_free
    return step


@dataclass(frozen=True)
class ZohPair:
    """Exact sampled closed-loop transition x_{k+1} = Phi x_k - Gamma s."""

    Phi: np.ndarray
    Gamma: np.ndarray


def zoh_discretize(F, G, C, h, alpha=1.0) -> ZohPair:
    """Exact ZOH discretization of the equivalent-control closed loop.

    exp(F h) and its integral come from the augmented matrix exponential
    expm([[F, I], [0, 0]] h); alpha scales the sign channel so the MLCP
    unknown stays in [-1, 1].
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = F.shape[0]
    CG = C @ G
    if abs(np.linalg.det(CG)) < 1e-14:
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


def simulate(step, x0, y0, t0, T, h, *, explicit_signs=False,
             record_controls=False):
    """Drive a one-step map over the uniform grid and record everything.

    step(k, x_k, t_k, s_k) returns (x, y, s, u, iters): the next state and
    output, the selection the step used (s_{k+1} of an implicit step,
    sgn(y_k) of an explicit one), the control held on [t_k, t_{k+1}) or
    None, and the Newton iterations.  s_k is the previous selection (warm
    start), 0 initially, and y0 fixes the number of surfaces m.  On
    StepFailure the partial trajectory is returned with failure diagnostics
    attached; a state magnitude above STATE_GUARD (blow-up) fails the step.

    A step whose `time_invariant` attribute is true is a function of
    (x_k, s_k) alone: a linear-class plan without a time-driven input (see
    `step_plan`) or the Newton plan of a drift-free affine-gain system (see
    `newton_plan`), which warm-starts from s_k.  Once such a step returns
    x_k and s_k byte for byte, every later step would repeat it: its state,
    output, selection, control and iterations fill the remaining rows and
    the run stops.  s is compared only once x has repeated.  Unmarked
    (driven, drifting Newton, user-supplied) steps run on.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    n, m = x0.shape[0], y0.shape[0]
    N = grid_steps(t0, T, h)
    times = t0 + h * np.arange(N + 1)
    states = np.zeros((N + 1, n))
    selections = np.zeros((N + 1, m))
    outputs = np.zeros((N + 1, m))
    controls = np.zeros((N + 1, m)) if record_controls else None
    iters = np.zeros(N + 1, dtype=int)
    states[0] = x0
    outputs[0] = y0
    failure = None
    s_prev = np.zeros(m)
    end = N + 1
    fixed_tail = getattr(step, "time_invariant", False)
    guard = STATE_GUARD
    for k in range(N):
        try:
            # one reduction: NaN propagates through max, and |x| = inf
            # also fails `< inf`
            mag = float(np.abs(states[k]).max())
            if not mag < math.inf:
                raise StepFailure("state is not finite")
            if mag > guard:
                raise StepFailure(f"state magnitude exceeded guard {guard:g}")
            x, y, s, u, it = step(k, states[k], times[k], s_prev)
        except StepFailure as exc:
            failure = FailureInfo(step=k, time=float(times[k]),
                                  message=exc.message,
                                  detail=exc.problem_text)
            end = k + 1
            break
        states[k + 1] = x
        outputs[k + 1] = y
        selections[k + 1] = s_prev = s
        if record_controls and u is not None:
            controls[k] = u
        iters[k + 1] = it
        # bytes, not ==: a step from -0.0 need not repeat one from 0.0
        if (fixed_tail and states[k + 1].tobytes() == states[k].tobytes()
                and selections[k + 1].tobytes() == selections[k].tobytes()):
            states[k + 2:] = x
            outputs[k + 2:] = y
            selections[k + 2:] = s
            if record_controls and u is not None:
                controls[k + 1:N] = u
            iters[k + 2:] = it
            break
    if explicit_signs:
        selections[:end] = np.sign(outputs[:end])
    if record_controls and failure is None and N > 0:
        controls[N] = controls[N - 1]
    return Trajectory(times=times[:end], states=states[:end],
                      selections=selections[:end], outputs=outputs[:end],
                      controls=controls[:end] if record_controls else None,
                      newton_iters=iters[:end], failure=failure)


def simulate_linear(sys: LinearSignSystem, x0, t0, T, cfg: SchemeConfig,
                    scheme="implicit"):
    """Convenience loop for the linear class (implicit or explicit)."""
    step = theta_plan(sys.E, sys.B, sys.C, sys.D, cfg.h * sys.a, cfg, scheme)
    x0 = _as_vector(x0, sys.n, "x0")
    return simulate(step, x0, output(sys, x0), t0, T, cfg.h,
                    explicit_signs=(scheme == "explicit"))


def simulate_newton(sys, x0, t0, T, cfg: SchemeConfig):
    """Convenience loop for the affine-gain / nonlinear classes."""
    plan = newton_plan(sys, cfg)
    x0 = _as_vector(x0, sys.n, "x0")
    y0 = sys.surface(x0)

    def step(k, x_k, t_k, s_prev):
        x, s, y, it = plan(x_k, t_k, s_prev)
        return x, y, s, None, it

    step.time_invariant = plan.time_invariant
    return simulate(step, x0, y0, t0, T, cfg.h)


def simulate_zoh(pair: ZohPair, C, D, x0, t0, T, h, mode="implicit"):
    """Convenience loop for a ZOH-discretized closed loop; implicit mode
    solves the one-step MLCP with W = C Gamma."""
    if mode not in ("implicit", "explicit"):
        raise ValueError(f"unknown ZOH mode {mode!r}")
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_1d(np.asarray(D, dtype=float))
    x0 = _as_vector(x0, pair.Phi.shape[0], "x0")
    solve = (mlcp.sign_step_solver(C @ pair.Gamma)
             if mode == "implicit" else None)
    step = step_plan(pair.Phi, pair.Gamma, C, D, solve=solve)
    return simulate(step, x0, C @ x0 + D, t0, T, h,
                    explicit_signs=(mode == "explicit"))
