"""The step-by-step reference run that the tests compare plans against.

`row` takes one step of any plan, Newton included: one call of the plan's
`advance` over a two-row `Trajectory`.  `run` has `integrators.simulate`'s
signature but none of a plan's loop: it takes `row` for every row in turn
and writes out on its own what a plan's `advance` does for a run as a
whole -- an explicit run's selections sgn(y_k) and the last held control
repeated in the final row.  No fixed tail and no reaching-phase block, so
`steps_taken` is every row.
"""

import numpy as np

from multisurf import integrators
from multisurf.integrators import FailureInfo, StepFailure, Trajectory


def _rows(plan, times):
    """A Trajectory of zeros on `times`, shaped for plan."""
    k, m = len(times), plan.m
    return Trajectory(times=times, states=np.zeros((k, plan.n)),
                      selections=np.zeros((k, m)), outputs=np.zeros((k, m)),
                      controls=np.zeros((k, m)) if plan.controlled else None,
                      newton_iters=np.zeros(k, dtype=int))


def row(plan, x_k, t_k, s_k=None, y_k=None):
    """(x, y, s, u, iters), row k + 1 of a run from x_k at t_k as the run
    records it, by plan.advance(rows, 0, 1): the guard, then the step from
    the selection s_k (zeros when None) and the output y_k (plan.output(x_k)
    when None).  u is the control held on [t_k, t_{k+1}), None unless the
    plan records controls.  Raises the step's StepFailure."""
    x_k = np.asarray(x_k, dtype=float)
    rows = _rows(plan, np.array([t_k, t_k + plan.h]))
    rows.states[0] = x_k
    rows.outputs[0] = plan.output(x_k) if y_k is None else y_k
    if s_k is not None:
        rows.selections[0] = s_k
    _, _, why = plan.advance(rows, 0, 1)
    if isinstance(why, StepFailure):
        raise why
    u = None if rows.controls is None else rows.controls[0]
    return (rows.states[1], rows.outputs[1], rows.selections[1], u,
            rows.newton_iters[1])


def run(plan, x0, t0, T, *, explicit=False, step=None):
    """The run of plan over its grid, one `row` at a time, or of `step`
    with the signature step(k, x_k, t_k, s_prev) -> (x, y, s, u, iters) in
    its place.  Each step starts from the selection the last one returned.
    explicit says that the plan's selections are sgn(y_k) of each row,
    which the reference records without asking the plan."""
    if step is None:
        def step(k, x_k, t_k, s_prev):
            return row(plan, x_k, t_k, s_prev)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    N = integrators.grid_steps(t0, T, plan.h)
    traj = _rows(plan, t0 + plan.h * np.arange(N + 1))
    X, Y, S, U = traj.states, traj.outputs, traj.selections, traj.controls
    X[0], Y[0] = x0, plan.output(x0)
    end, s = N + 1, S[0].copy()
    for k in range(N):
        try:
            integrators._check_state(X[k])
            x, y, s, u, it = step(k, X[k], traj.times[k], s)
        except StepFailure as exc:
            traj.failure = FailureInfo(step=k, time=float(traj.times[k]),
                                       message=exc.message,
                                       detail=exc.problem_text)
            end = k + 1
            break
        X[k + 1], Y[k + 1], S[k + 1], traj.newton_iters[k + 1] = x, y, s, it
        if U is not None:
            U[k] = u
    if explicit:
        S[:end] = np.sign(Y[:end])
    if U is not None and traj.failure is None and N > 0:
        U[N] = U[N - 1]
    return Trajectory(times=traj.times[:end], states=X[:end],
                      selections=S[:end], outputs=Y[:end],
                      controls=None if U is None else U[:end],
                      newton_iters=traj.newton_iters[:end],
                      failure=traj.failure, steps_taken=end - 1)
