"""Discrete-time sliding-mode controllers.

The implicit controllers are causal: the selection s_{k+1} consumed at step
k is the solution of a small MLCP whose data depend only on x_k, so the
control is computable at t_k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from multisurf import mlcp
from multisurf.integrators import (SchemeConfig, ZohPair, simulate,
                                   step_plan, theta_plan, zoh_discretize)
from multisurf.systems import DisturbedLinearSystem, _as_vector


def iec_control(x_k, h):
    """Scalar implicit Euler controller u_k = -proj_[-1,1](x_k / h)."""
    if not h > 0:
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
    pair: ZohPair = field(init=False)

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
        object.__setattr__(self, "pair",
                           zoh_discretize(F, G, C, self.h, alpha=self.alpha))

    @property
    def n(self):
        return self.F.shape[0]

    @property
    def m(self):
        return self.C.shape[0]


def simulate_ecb(ctl: EcbSmcController, x0, t0, T):
    """Closed-loop ECB-SMC run: the ZOH step of ctl.pair, with the control
    u_k = -(C G)^-1 (C F x_k + alpha s) recorded per held interval."""
    x0 = _as_vector(x0, ctl.n, "x0")
    C, Gamma, alpha = ctl.C, ctl.pair.Gamma, ctl.alpha
    implicit = ctl.mode == "implicit"
    neg_CGinv, CF = -np.linalg.inv(C @ ctl.G), C @ ctl.F
    step = step_plan(
        ctl.pair.Phi, Gamma, C,
        solve=mlcp.sign_step_solver(C @ Gamma) if implicit else None,
        control=lambda x, s: neg_CGinv @ (CF @ x + alpha * s))
    return simulate(step, x0, C @ x0, t0, T, ctl.h,
                    explicit_signs=not implicit, record_controls=True)


def simulate_lyapunov(sys: DisturbedLinearSystem, x0, t0, T,
                      cfg: SchemeConfig, scheme="implicit"):
    """Closed-loop run of the disturbed Lyapunov-controlled system.

    The drift uses the theta blend (forward Euler under the explicit
    scheme), the disturbance is sampled at t_k, and the sign inclusion on
    the surface B^T P x is fully implicit.  The recorded control
    u_k = rho * s_{k+1} lives inside the multivalued band once the state
    sticks at 0.
    """
    x0 = _as_vector(x0, sys.n, "x0")
    h, a, B, rho, S = cfg.h, sys.a, sys.B, sys.rho, sys.surface_matrix()
    step = theta_plan(sys.E, B, S, None,
                      lambda t: h * (a + B @ sys.disturbance(t)), cfg, scheme,
                      rho=rho, control=lambda x, s: rho * s)
    return simulate(step, x0, S @ x0, t0, T, h,
                    explicit_signs=(scheme == "explicit"),
                    record_controls=True)
