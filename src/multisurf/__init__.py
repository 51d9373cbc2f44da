"""Implicit time-stepping for sliding-mode / set-valued sign systems.

The library discretizes differential inclusions of the form

    dx/dt in f(x, t) - g(x) Sgn(h(x))

with implicit (backward) Euler theta/gamma schemes and exact ZOH sampling,
reducing each step to a small box-constrained mixed linear complementarity
problem.  The implicit treatment of the sign term gives chattering-free,
finite-time-exact stabilization on the sliding surfaces.
"""

from multisurf._kernels import COMPILED
from multisurf.analysis import (ErrorReport, arrival_step, convergence_slope,
                                detect_period2, error_norms)
from multisurf.controllers import (ControlRecord, EcbSmcController, ecb_step,
                                   iec_control, lyapunov_control_step,
                                   simulate_ecb, simulate_lyapunov)
from multisurf.integrators import (SchemeConfig, StepFailure, Trajectory,
                                   ZohPair, simulate, simulate_linear,
                                   simulate_newton, simulate_zoh,
                                   step_explicit, step_linear, step_newton,
                                   step_zoh, zoh_discretize)
from multisurf.mlcp import (MlcpProblem, MlcpSolution, SignStepProblem,
                            certify, from_sign_step, solve, solve_enumerative,
                            solve_pivoting, solve_psor, solve_sign_step)
from multisurf.systems import (AffineGainSignSystem, DisturbedLinearSystem,
                               LinearSignSystem, NonlinearSignSystem,
                               check_cb_positive, linear_system_from_json,
                               output)

__version__ = "0.1.0"
