"""Discrete-time sliding-mode controllers.

The implicit controllers are causal: the selection s_{k+1} consumed at step
k is the solution of a small MLCP whose data depend only on x_k, so the
control is computable at t_k.  `ecb_plan` and `lyapunov_plan` build the
step plans of the two closed loops, with their controls recorded; run one
with `integrators.simulate(plan, x0, t0, T)`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from multisurf import mlcp
from multisurf.integrators import (SchemeConfig, ZohPair, _rows_by,
                                   step_plan, theta_plan, zoh_discretize)
from multisurf.systems import DisturbedLinearSystem


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


def ecb_plan(ctl: EcbSmcController):
    """The closed-loop ECB-SMC plan: the ZOH step of ctl.pair, with the
    control u_k = -(C G)^-1 (C F x_k + alpha s) recorded per held interval,
    formed for every row at once."""
    C, Gamma, alpha = ctl.C, ctl.pair.Gamma, ctl.alpha
    implicit = ctl.mode == "implicit"
    neg_CGinv, CF = -np.linalg.inv(C @ ctl.G), C @ ctl.F
    return step_plan(
        ctl.h, ctl.pair.Phi, Gamma, C,
        solver=mlcp.sign_step_solver(C @ Gamma) if implicit else None,
        control=lambda X, S: _rows_by(neg_CGinv, _rows_by(CF, X) + alpha * S))


def lyapunov_plan(sys: DisturbedLinearSystem, cfg: SchemeConfig,
                  scheme="implicit"):
    """The closed-loop plan of the disturbed Lyapunov-controlled system.

    The drift uses the theta blend (forward Euler under the explicit
    scheme), the disturbance is sampled at t_k, and the sign inclusion on
    the surface B^T P x is fully implicit.  The recorded control
    u_k = rho * s, s the selection of step k (s_{k+1} under the implicit
    scheme), lives inside the multivalued band once the state sticks at 0.
    """
    h, a, B, rho = cfg.h, sys.a, sys.B, sys.rho
    return theta_plan(sys.E, B, sys.surface_matrix(), None,
                      lambda t: h * (a + B @ sys.disturbance(t)), cfg, scheme,
                      rho=rho, control=lambda X, S: rho * S)
