"""The float Newton step of n = m = 1 drift-free affine-gain plans.

`integrators.newton_plan` runs such a plan's loop on Python floats
(`integrators._newton_float_plan`) and every other plan's on arrays
(`integrators._newton_array_plan`).  The two give the same bytes because of
identities of one-entry numpy operations on the pinned numpy / OpenBLAS
build, the build note of `tests/test_golden.py`: the first two tests pin
them over edge floats, so another numpy or BLAS that breaks one fails here,
by name, before any golden digest does.  The property after them runs
generated systems through both loops and compares whole runs byte for byte.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisurf import integrators
from multisurf.integrators import SchemeConfig
from multisurf.systems import AffineGainSignSystem
from tests import stepwise

MAX, TINY = float(np.finfo(float).max), float(np.finfo(float).tiny)
EDGES = [0.0, -0.0, 5e-324, -5e-324, TINY / 3, -TINY / 3, TINY, -TINY,
         1.0, -1.0, 0.1, -3.7, MAX, -MAX, math.inf, -math.inf, math.nan,
         -math.nan]
edge = st.sampled_from(EDGES) | st.floats()


def bits(v):
    return struct.pack("<d", float(v))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(a=edge, b=edge)
def test_one_entry_products_are_a_product_plus_zero(a, b):
    # the float step's a * b + 0.0 for each product of the array step
    want = bits(a * b + 0.0)
    a2, a1, b1 = np.array([[a]]), np.array([a]), np.array([b])
    with np.errstate(all="ignore"):
        got = {"1x1 @ 1x1": (a2 @ np.array([[b]]))[0, 0],
               "1x1 @ 1": (a2 @ b1)[0], "1-D dot": a1 @ b1,
               "einsum klp,l->kp": np.einsum("klp,l->kp", a2[None], b1)[0, 0]}
    for name, v in got.items():
        assert bits(v) == want, name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m=edge)
def test_one_entry_inverse_is_a_quotient(m):
    # the float step's 1.0 / M, and its singular test M == 0.0
    if m == 0.0:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.array([[m]]))
    else:
        with np.errstate(all="ignore"):
            assert bits(np.linalg.inv(np.array([[m]]))[0, 0]) == \
                bits(1.0 / m)


def outcome(plan, x0, s0, N):
    """The bytes of plan's run of N steps from x0 with selection s0, by
    plan.advance as `integrators.simulate` calls it, with its failure's
    message, dump and residual."""
    rows = stepwise._rows(plan, plan.h * np.arange(N + 1))
    rows.states[0], rows.selections[0] = x0, s0
    rows.outputs[0] = plan.output(np.array([x0]))
    k, taken, why = plan.advance(rows, N)
    if isinstance(why, integrators.StepFailure):
        why = (why.message, why.problem_text,
               None if why.residual is None else bits(why.residual))
    return [getattr(rows, name).tobytes() for name in
            ("states", "outputs", "selections", "newton_iters")] + \
        [k, taken, why]


DYADIC = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0]
entry = st.sampled_from(DYADIC) | st.floats(-4.0, 4.0)
blend = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
step = (st.sampled_from([2.0 ** -12, 2.0 ** -7, 0.125, 0.5, 1.0, 2.0])
        | st.floats(1e-4, 4.0))
start = (st.sampled_from(DYADIC + [1e12, -1e12, 2e12, math.inf, math.nan])
         | st.floats(-1e3, 1e3))


@st.composite
def runs(draw):
    """(system, cfg, x0, s0, N): signed gains and surfaces (a negative
    gain reaches the cold solve), rho >= 0 (1 / h makes M singular at
    s = 0), theta and gamma in [0, 1], h over four decades, x0 of both
    signs and past the guard, up to 40 steps."""
    h = draw(step)
    rho = draw(st.sampled_from([0.0, 0.25, 1.0 / h]) | st.floats(0.0, 8.0))
    sys = AffineGainSignSystem(
        n=1, m=1, A_list=([[draw(entry)]],), B_list=([draw(entry)],),
        C_rows=([draw(entry)],), D=[draw(entry)], rho=rho)
    cfg = SchemeConfig(h=h, theta=draw(blend), gamma=draw(blend))
    return (sys, cfg, draw(start), draw(st.sampled_from([0.0, -0.0, 1.0])),
            draw(st.integers(0, 40)))


def scalar(A=1.0, B=1.0, rho=0.0):
    """dx/dt in -(A x + B) sgn(x), `hypomonotone_system` at the defaults."""
    return AffineGainSignSystem(n=1, m=1, A_list=([[A]],), B_list=([B],),
                                C_rows=([1.0],), D=[0.0], rho=rho)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(run=runs())
# M = 1 - h rho = 0 at s = 0: "singular Newton iteration matrix" at step 0
@example(run=(scalar(rho=2.0), SchemeConfig(h=0.5), 1.0, 0.0, 3))
# a negative gain drives x from 1e11 past STATE_GUARD at step 6, and from
# 1 it leaves a step unconverged after 25 iterations at step 34
@example(run=(scalar(-2.0, -1.0), SchemeConfig(h=0.25, gamma=0.0), 1e11,
              0.0, 40))
@example(run=(scalar(-2.0, -1.0), SchemeConfig(h=0.25, gamma=0.0), 1.0,
              0.0, 40))
# a step from the guard whose stopping test reads a residual that another
# grouping of h g s, h (g s), rounds differently
@example(run=(AffineGainSignSystem(n=1, m=1, A_list=([[1.5]],),
                                   B_list=([0.0],), C_rows=([2.5],), D=[0.0]),
              SchemeConfig(h=2.75, gamma=0.5), 1e12, 0.0, 1))
def test_float_plan_equals_array_plan(run):
    sys, cfg, x0, s0, N = run
    plan = integrators.newton_plan(sys, cfg)
    assert plan.advance.__qualname__.startswith("_newton_float_plan")
    with np.errstate(all="ignore"):
        want = outcome(integrators._newton_array_plan(sys, cfg), x0, s0, N)
        assert outcome(plan, x0, s0, N) == want


@pytest.mark.parametrize("kind", [np.float32, np.float16, int])
def test_scalar_types_give_both_loops_one_run(kind):
    # h, gamma and rho are taken as Python floats: a numpy float32 h
    # would round h rho to float32 in one loop and not in the other
    sys = scalar(rho=kind(1) if kind is int else kind(0.3))
    cfg = SchemeConfig(h=kind(1) if kind is int else kind(0.1),
                       gamma=kind(1) if kind is int else kind(0.7))
    assert type(cfg.h) is type(cfg.gamma) is type(sys.rho) is float
    with np.errstate(all="ignore"):
        want = outcome(integrators._newton_array_plan(sys, cfg), 2.0, 0.0, 30)
        assert outcome(integrators.newton_plan(sys, cfg), 2.0, 0.0, 30) == \
            want
