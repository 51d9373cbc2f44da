"""Time-stepping schemes for the sign-inclusion system classes.

Each implicit step reduces the inclusion s in Sgn(y) to a small box MLCP
via the one-step problem y = b - W s.  The linear classes need a single
solve per step; the nonlinear/affine-gain classes run an outer Newton loop
that re-linearizes the residual around the current iterate.  A ZOH path
discretizes sampled closed loops exactly through matrix exponentials.
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
                               NonlinearSignSystem, output)


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
    newton_tol: float = 1e-10
    newton_max_iter: int = 25
    solver: str = "auto"

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be > 0")
        if not 0 <= self.theta <= 1 or not 0 <= self.gamma <= 1:
            raise ValueError("theta and gamma must lie in [0, 1]")
        if self.newton_tol <= 0 or self.newton_max_iter < 1:
            raise ValueError("invalid Newton parameters")


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
        n, m = self.n, self.m
        cols = (["t"] + [f"x{i}" for i in range(n)]
                + [f"s{i}" for i in range(m)] + [f"y{i}" for i in range(m)])
        if self.controls is not None:
            cols += [f"u{i}" for i in range(self.controls.shape[1])]
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for k in range(len(self.times)):
                row = [self.times[k], *self.states[k], *self.selections[k],
                       *self.outputs[k]]
                if self.controls is not None:
                    row.extend(self.controls[k])
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class StepResult:
    """One-step outcome handed back to the simulate loop.

    s is the implicit selection s_{k+1}; explicit steppers leave it None and
    the loop derives sgn(y_k) for every row instead.
    """

    x: np.ndarray
    y: np.ndarray
    s: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    iters: int = 0


def _linear_stepper(sys: LinearSignSystem, cfg: SchemeConfig):
    """The theta-scheme step x_k -> (x_{k+1}, s_{k+1}, y_{k+1}) of one run.

    (I - h theta E)^-1, I + h (1 - theta) E, h a, h B and W are the same at
    every step, so they are built here once; the returned closure does only
    the per-step arithmetic, one MLCP and no Newton loop.
    """
    h, th = cfg.h, cfg.theta
    n = sys.n
    try:
        Ainv = np.linalg.inv(np.eye(n) - h * th * sys.E)
    except np.linalg.LinAlgError:
        # the failure belongs to the first step, where simulate records it
        def fail(x_k):
            raise StepFailure("singular implicit drift matrix I - h*theta*E")
        return fail
    P = np.eye(n) + h * (1 - th) * sys.E
    ha, hB = h * sys.a, h * sys.B
    C, D, solver = sys.C, sys.D, cfg.solver
    W = h * C @ Ainv @ sys.B

    def advance(x_k):
        free = P @ x_k + ha
        s = mlcp.solve_sign_step(W, C @ (Ainv @ free) + D, solver)
        x_next = Ainv @ (free - hB @ s)
        return x_next, s, C @ x_next + D

    return advance


def step_linear(sys: LinearSignSystem, x_k, t_k, cfg: SchemeConfig):
    """theta-scheme implicit step for the linear class; one MLCP, no Newton."""
    return _linear_stepper(sys, cfg)(x_k)


def step_explicit(sys: LinearSignSystem, x_k, t_k, h):
    """Forward Euler with the single-valued convention sgn(0) = 0."""
    s = np.sign(sys.C @ x_k + sys.D)
    x_next = x_k + h * (sys.E @ x_k + sys.a) - h * sys.B @ s
    return x_next, s


def step_newton(sys, x_k, t_k, cfg: SchemeConfig, s_k=None):
    """Outer Newton loop for the affine-gain and nonlinear classes.

    Linearizes the one-step residual

        R(x, s) = x - x_k - h f(x_th) + h g(x_ga) s - h rho (x - x_k)

    around the current iterate, solves the resulting box MLCP for s, and
    applies the Newton state update.  The rho shift moves hypomonotone sign
    terms into the monotone regime.  Warm starts from s_k (0 on the first
    step).  On affine data the residual is affine and one iteration suffices.
    """
    if not isinstance(sys, (AffineGainSignSystem, NonlinearSignSystem)):
        raise TypeError("step_newton needs an affine-gain or nonlinear system")
    h, th, ga = cfg.h, cfg.theta, cfg.gamma
    n, m = sys.n, sys.m
    rho = sys.rho
    if s_k is None:
        s_k = np.zeros(m)
    x = np.array(x_k, dtype=float)
    s = np.array(s_k, dtype=float)
    t_th = t_k + th * h

    def residual(x, s):
        x_th = th * x + (1 - th) * x_k
        x_ga = ga * x + (1 - ga) * x_k
        return (x - x_k - h * np.asarray(sys.f(x_th, t_th))
                + h * sys.gain(x_ga) @ s - h * rho * (x - x_k))

    last_res = np.inf
    for it in range(1, cfg.newton_max_iter + 1):
        x_th = th * x + (1 - th) * x_k
        x_ga = ga * x + (1 - ga) * x_k
        f_val = np.asarray(sys.f(x_th, t_th))
        g_val = sys.gain(x_ga)
        # (grad g obar s)_{kp} = sum_l dg[k,l]/dx[p] * s[l]
        gs = np.einsum("klp,l->kp", sys.gain_jac(x_ga), s)
        M = ((1 - h * rho) * np.eye(n)
             - h * th * np.asarray(sys.f_jac(x_th, t_th)) + h * ga * gs)
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise StepFailure("singular Newton iteration matrix",
                              residual=last_res) from None
        H = sys.surface_jac(x)
        r_smooth = x_k - x + h * f_val + h * rho * (x - x_k)
        W = h * H @ Minv @ g_val
        b = sys.surface(x) + H @ (Minv @ r_smooth)
        s = mlcp.solve_sign_step(W, b, cfg.solver)
        x = x + Minv @ (r_smooth - h * g_val @ s)
        # stop only once the updated pair satisfies the residual: the warm
        # start can zero R without satisfying the sign inclusion
        last_res = float(np.max(np.abs(residual(x, s))))
        if last_res < cfg.newton_tol:
            return x, s, sys.surface(x), it
    raise StepFailure("Newton loop did not converge", residual=last_res)


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


def _zoh_stepper(pair: ZohPair, C, D, mode, solver):
    """The ZOH step x_k -> (x_{k+1}, s, y_{k+1}) of one run; W = C Gamma is
    built once."""
    if mode not in ("implicit", "explicit"):
        raise ValueError(f"unknown ZOH mode {mode!r}")
    Phi, Gamma = pair.Phi, pair.Gamma
    W = C @ Gamma

    def advance(x_k):
        if mode == "implicit":
            s = mlcp.solve_sign_step(W, C @ (Phi @ x_k) + D, solver)
        else:
            s = np.sign(C @ x_k + D)
        x_next = Phi @ x_k - Gamma @ s
        return x_next, s, C @ x_next + D

    return advance


def step_zoh(pair: ZohPair, C, D, x_k, mode="implicit", solver="auto"):
    """One ZOH step; implicit mode solves the MLCP with W = C Gamma."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_1d(np.asarray(D, dtype=float))
    return _zoh_stepper(pair, C, D, mode, solver)(x_k)


def grid_steps(t0, T, h):
    """Number of steps on the uniform grid (last step may overshoot T)."""
    if T < t0:
        raise ValueError("need T >= t0")
    return max(0, math.ceil((T - t0) / h))


def simulate(step, x0, y0, t0, T, h, m, explicit_signs=False,
             record_controls=False, guard=1e12):
    """Drive a one-step map over the uniform grid and record everything.

    step(k, x_k, t_k, s_k) returns a StepResult; s_k is the previous
    selection (warm start), 0 initially.  On StepFailure the partial
    trajectory is returned with failure diagnostics attached; the guard
    aborts once the state magnitude exceeds it (blow-up).
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    n = x0.shape[0]
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
    for k in range(N):
        try:
            if not np.all(np.isfinite(states[k])):
                raise StepFailure("state is not finite")
            if np.max(np.abs(states[k])) > guard:
                raise StepFailure(f"state magnitude exceeded guard {guard:g}")
            res = step(k, states[k], times[k], s_prev)
        except StepFailure as exc:
            failure = FailureInfo(step=k, time=float(times[k]),
                                  message=exc.message,
                                  detail=exc.problem_text)
            end = k + 1
            break
        states[k + 1] = res.x
        outputs[k + 1] = res.y
        if res.s is not None:
            selections[k + 1] = res.s
            s_prev = res.s
        if record_controls and res.u is not None:
            controls[k] = res.u
        iters[k + 1] = res.iters
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
    y0 = output(sys, np.atleast_1d(np.asarray(x0, dtype=float)))
    if scheme == "implicit":
        advance = _linear_stepper(sys, cfg)

        def step(k, x, t, s_prev):
            x1, s1, y1 = advance(x)
            return StepResult(x=x1, y=y1, s=s1)
        return simulate(step, x0, y0, t0, T, cfg.h, sys.m)
    if scheme == "explicit":
        def step(k, x, t, s_prev):
            x1, _ = step_explicit(sys, x, t, cfg.h)
            return StepResult(x=x1, y=sys.C @ x1 + sys.D)
        return simulate(step, x0, y0, t0, T, cfg.h, sys.m,
                        explicit_signs=True)
    raise ValueError(f"unknown scheme {scheme!r}")


def simulate_newton(sys, x0, t0, T, cfg: SchemeConfig):
    """Convenience loop for the affine-gain / nonlinear classes."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = sys.surface(x0)

    def step(k, x, t, s_prev):
        x1, s1, y1, it = step_newton(sys, x, t, cfg, s_k=s_prev)
        return StepResult(x=x1, y=y1, s=s1, iters=it)

    return simulate(step, x0, y0, t0, T, cfg.h, sys.m)


def simulate_zoh(pair: ZohPair, C, D, x0, t0, T, h, mode="implicit",
                 solver="auto"):
    """Convenience loop for a ZOH-discretized closed loop."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_1d(np.asarray(D, dtype=float))
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = C @ x0 + D

    advance = _zoh_stepper(pair, C, D, mode, solver)

    def step(k, x, t, s_prev):
        x1, s1, y1 = advance(x)
        return StepResult(x=x1, y=y1, s=s1 if mode == "implicit" else None)

    return simulate(step, x0, y0, t0, T, h, C.shape[0],
                    explicit_signs=(mode == "explicit"))
