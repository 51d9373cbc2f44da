"""The box-MLCP certificate, the reference for the sign step's residual.

The sign step s in Sgn(b - W s) is the box MLCP

    M z + q = w - v,  -1 <= z <= 1,  w, v >= 0,
    (z + 1)^T w = 0,  (1 - z)^T v = 0,

with M = W, q = -b and slacks w and v.  Its certificate is the largest
violation of seven conditions: the two box sides, the equation, the two
complementarity products and the signs of w and v; NaN when any of them is
NaN.  The solvers certified their answers by it before `mlcp._residual`,
which tests the same conditions per index from the active set; the tests
hold the two to the same verdict.
"""

import math

import numpy as np

LOWER, UPPER = 1, 2


def certify(M, q, z, w, v):
    """The seven-part certificate of (z, w, v) on [-1, 1]^m."""
    if len(z) == 0:
        return 0.0
    top = np.maximum.reduce  # np.max without its wrapper
    parts = (top(-1.0 - z, initial=0.0), top(z - 1.0, initial=0.0),
             top(np.abs(M @ z + q - w + v)),
             abs((z + 1.0) @ w), abs((1.0 - z) @ v),
             top(-w, initial=0.0), top(-v, initial=0.0))
    # max() keeps an earlier argument over a later NaN
    if any(map(math.isnan, parts)):
        return math.nan
    return float(max(parts))


def residual(states, zl, rl):
    """`certify` of the point z of an active set with r = W z - b, as the
    solvers built its slacks: w = max(r_i, 0) at a lower index, v =
    max(-r_i, 0) at an upper one, 0 elsewhere.  M = 0 and q = r give
    M z + q = r (NaN in every row where z is not finite)."""
    m = len(states)
    w = np.array([max(r, 0.0) if st == LOWER else 0.0
                  for st, r in zip(states, rl)])
    v = np.array([max(-r, 0.0) if st == UPPER else 0.0
                  for st, r in zip(states, rl)])
    with np.errstate(invalid="ignore", over="ignore"):
        return certify(np.zeros((m, m)), np.array(rl, dtype=float),
                       np.array(zl, dtype=float), w, v)
