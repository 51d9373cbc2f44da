"""Discrete-time sliding-mode controllers.

The implicit controllers are causal: the selection s_{k+1} consumed at step
k is the solution of a small MLCP whose data depend only on x_k, so the
control is computable at t_k.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from multisurf import mlcp
from multisurf.integrators import (SchemeConfig, StepResult, ZohPair,
                                   simulate, zoh_discretize)
from multisurf.systems import DisturbedLinearSystem


def iec_control(x_k, h):
    """Scalar implicit Euler controller u_k = -proj_[-1,1](x_k / h)."""
    if h <= 0:
        raise ValueError("h must be > 0")
    return -float(np.clip(x_k / h, -1.0, 1.0))


@dataclass(frozen=True)
class EcbSmcController:
    """Equivalent-control-based SMC under ZOH sampling.

    Continuous law u = -(CG)^{-1}(C F x + alpha Sgn(C x)); the gain alpha is
    folded into Gamma so the discrete selection stays in [-1, 1].
    """

    F: np.ndarray
    G: np.ndarray
    C: np.ndarray
    alpha: float
    h: float
    mode: str = "implicit"
    pair: ZohPair = None

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.mode not in ("implicit", "explicit"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "C", C)
        if self.pair is None:
            object.__setattr__(
                self, "pair",
                zoh_discretize(F, G, C, self.h, alpha=self.alpha))

    @property
    def n(self):
        return self.F.shape[0]

    @property
    def m(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class ControlRecord:
    """Control held on [t_k, t_{k+1}) and the selection it consumed."""

    u_k: np.ndarray
    s_used: np.ndarray


def _ecb_stepper(ctl: EcbSmcController, solver):
    """The sampled closed-loop step x_k -> (x_{k+1}, ControlRecord) of one
    run; the one-step solver of W = C Gamma, (C G)^-1 and C F are built
    once."""
    C, Phi, Gamma = ctl.C, ctl.pair.Phi, ctl.pair.Gamma
    implicit, alpha = ctl.mode == "implicit", ctl.alpha
    solve = mlcp.sign_step_solver(C @ Gamma, solver)
    neg_CGinv = -np.linalg.inv(C @ ctl.G)
    CF = C @ ctl.F

    def advance(x_k):
        if implicit:
            s = solve(C @ (Phi @ x_k))
        else:
            s = np.sign(C @ x_k)
        u = neg_CGinv @ (CF @ x_k + alpha * s)
        return Phi @ x_k - Gamma @ s, ControlRecord(u_k=u, s_used=s)

    return advance


def ecb_step(ctl: EcbSmcController, x_k, solver="auto"):
    """One sampled closed-loop step under the ECB-SMC controller."""
    x_k = np.atleast_1d(np.asarray(x_k, dtype=float))
    return _ecb_stepper(ctl, solver)(x_k)


def simulate_ecb(ctl: EcbSmcController, x0, t0, T, solver="auto"):
    """Closed-loop ECB-SMC run; controls recorded per held interval."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = ctl.C @ x0
    advance = _ecb_stepper(ctl, solver)

    def step(k, x, t, s_prev):
        x1, rec = advance(x)
        s = rec.s_used if ctl.mode == "implicit" else None
        return StepResult(x=x1, y=ctl.C @ x1, s=s, u=rec.u_k)

    return simulate(step, x0, y0, t0, T, ctl.h, ctl.m,
                    explicit_signs=(ctl.mode == "explicit"),
                    record_controls=True)


def _lyapunov_stepper(sys: DisturbedLinearSystem, cfg: SchemeConfig, solver):
    """The implicit Lyapunov-loop step (x_k, t_k) -> (x_{k+1}, u_k, s) of
    one run.  (I - h theta E)^-1, I + h (1 - theta) E and the one-step
    solver of W are built once; only the disturbance g(t_k) is sampled per
    step."""
    h, th = cfg.h, cfg.theta
    n = sys.n
    S = sys.surface_matrix()
    Ainv = np.linalg.inv(np.eye(n) - h * th * sys.E)
    P = np.eye(n) + h * (1 - th) * sys.E
    a, B, rho, hB = sys.a, sys.B, sys.rho, h * sys.B
    solve = mlcp.sign_step_solver(h * S @ Ainv @ B @ np.diag(rho), solver)

    def advance(x_k, t_k):
        free = P @ x_k + h * (a + B @ sys.disturbance(t_k))
        s = solve(S @ (Ainv @ free))
        u = rho * s
        return Ainv @ (free - hB @ u), u, s

    return advance


def lyapunov_control_step(sys: DisturbedLinearSystem, x_k, t_k,
                          cfg: SchemeConfig, solver="auto"):
    """Implicit Euler step of the Lyapunov-based discontinuous control loop.

    The drift uses the theta blend, the disturbance is sampled explicitly at
    t_k, and the sign inclusion on the surface B^T P x is fully implicit.
    Returns the next state and the realized control u_k = rho * s_{k+1},
    which lives inside the multivalued band once the state sticks at 0.
    """
    x_k = np.atleast_1d(np.asarray(x_k, dtype=float))
    return _lyapunov_stepper(sys, cfg, solver)(x_k, t_k)


def lyapunov_explicit_step(sys: DisturbedLinearSystem, x_k, t_k, h):
    """Forward Euler comparison step, sgn(0) = 0."""
    x_k = np.atleast_1d(np.asarray(x_k, dtype=float))
    s = np.sign(sys.surface_matrix() @ x_k)
    u = sys.rho * s
    x_next = x_k + h * (sys.E @ x_k + sys.a
                        - sys.B @ u + sys.B @ sys.disturbance(t_k))
    return x_next, u, s


def simulate_lyapunov(sys: DisturbedLinearSystem, x0, t0, T,
                      cfg: SchemeConfig, scheme="implicit", solver="auto"):
    """Closed-loop run of the disturbed Lyapunov-controlled system."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    S = sys.surface_matrix()
    y0 = S @ x0

    if scheme == "implicit":
        advance = _lyapunov_stepper(sys, cfg, solver)

        def step(k, x, t, s_prev):
            x1, u, s = advance(x, t)
            return StepResult(x=x1, y=S @ x1, s=s, u=u)
        explicit = False
    elif scheme == "explicit":
        def step(k, x, t, s_prev):
            x1, u, s = lyapunov_explicit_step(sys, x, t, cfg.h)
            return StepResult(x=x1, y=S @ x1, u=u)
        explicit = True
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    return simulate(step, x0, y0, t0, T, cfg.h, sys.m,
                    explicit_signs=explicit, record_controls=True)
