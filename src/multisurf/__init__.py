"""Implicit time-stepping for sliding-mode / set-valued sign systems.

The library discretizes differential inclusions of the form

    dx/dt in f(x, t) - g(x) Sgn(h(x))

with implicit (backward) Euler theta/gamma schemes and exact ZOH sampling,
reducing each step to the sign inclusion s in Sgn(b - W s) on [-1, 1]^m, a
small box-constrained mixed linear complementarity problem.  The implicit
treatment of the sign term gives chattering-free, finite-time-exact
stabilization on the sliding surfaces.
"""

from multisurf.analysis import (ErrorReport, arrival_step, convergence_slope,
                                detect_period2, error_norms)
from multisurf.controllers import (EcbSmcController, ecb_plan, iec_control,
                                   lyapunov_plan)
from multisurf.integrators import (Plan, SchemeConfig, StepFailure,
                                   Trajectory, ZohPair, newton_plan, simulate,
                                   theta_plan, simulate_linear,
                                   simulate_newton, step_plan, zoh_discretize)
from multisurf.mlcp import (SignProblem, SignSolution, SignSolver,
                            sign_step_solver, solve, solve_enumerative,
                            solve_pivoting)
from multisurf.systems import (AffineGainSignSystem, DisturbedLinearSystem,
                               LinearSignSystem, NonlinearSignSystem,
                               check_cb_positive, output)

__version__ = "0.1.0"
