"""The step-by-step reference run that the tests compare plans against.

`run` has `integrators.simulate`'s signature but none of a plan's loop: it
takes every step of the plan's one-row step in turn, with the guard before
each, and writes out on its own what a plan's `advance` does for a run as
a whole -- an explicit run's selections sgn(y_k) and the last held control
repeated in the final row.  No fixed tail and no reaching-phase block, so
`steps_taken` is every row.
"""

import numpy as np

from multisurf import integrators
from multisurf.integrators import FailureInfo, StepFailure, Trajectory


def run(plan, x0, t0, T, *, explicit=False, step=None):
    """The run of plan(k, x_k, t_k, s_prev) -> (x, y, s, u, iters), or of
    `step` with that signature, over plan's grid, step by step.  explicit
    says that the plan's selections are sgn(y_k) of each row, which the
    reference records without asking the plan."""
    step = plan if step is None else step
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    y0 = np.atleast_1d(np.asarray(plan.output(x0), dtype=float))
    h, n, m = plan.h, len(x0), len(y0)
    N = integrators.grid_steps(t0, T, h)
    times = t0 + h * np.arange(N + 1)
    X, Y, S = np.zeros((N + 1, n)), np.zeros((N + 1, m)), np.zeros((N + 1, m))
    U = np.zeros((N + 1, m)) if plan.controlled else None
    iters = np.zeros(N + 1, dtype=int)
    X[0], Y[0] = x0, y0
    failure, end, s = None, N + 1, S[0].copy()
    for k in range(N):
        try:
            integrators._check_state(X[k])
            x, y, s, u, it = step(k, X[k], times[k], s)
        except StepFailure as exc:
            failure = FailureInfo(step=k, time=float(times[k]),
                                  message=exc.message,
                                  detail=exc.problem_text)
            end = k + 1
            break
        X[k + 1], Y[k + 1], S[k + 1], iters[k + 1] = x, y, s, it
        if U is not None:
            U[k] = u
    if explicit:
        S[:end] = np.sign(Y[:end])
    if U is not None and failure is None and N > 0:
        U[N] = U[N - 1]
    return Trajectory(times=times[:end], states=X[:end], selections=S[:end],
                      outputs=Y[:end],
                      controls=None if U is None else U[:end],
                      newton_iters=iters[:end], failure=failure,
                      steps_taken=end - 1)


def newton(sys, x0, t0, T, cfg):
    """`simulate_newton` step by step: the Newton plan's step, which
    evaluates the surface at x_k itself, one row at a time."""
    plan = integrators.newton_plan(sys, cfg)

    def step(k, x_k, t_k, s_k):
        x, s, y, it = plan(x_k, t_k, s_k)
        return x, y, s, None, it
    return run(plan, x0, t0, T, step=step)
