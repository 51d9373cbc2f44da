"""Projected SOR sweep for `mlcp.solve_psor`, in Python over numpy arrays."""


def psor_sweeps(M, q, l, u, z, omega, max_iter, tol):
    """Run projected Gauss-Seidel/SOR sweeps on z in place.

    Updates z_i <- clamp(z_i - omega * (M z + q)_i / M_ii) coordinate by
    coordinate.  Returns (sweeps_done, last_delta) where last_delta is the
    infinity norm of the final sweep's change.
    """
    m = z.shape[0]
    delta = 0.0
    for sweep in range(max_iter):
        delta = 0.0
        for i in range(m):
            zi = z[i] - omega * (M[i] @ z + q[i]) / M[i, i]
            if zi < l[i]:
                zi = l[i]
            elif zi > u[i]:
                zi = u[i]
            d = abs(zi - z[i])
            if d > delta:
                delta = d
            z[i] = zi
        if delta < tol:
            return sweep + 1, delta
    return max_iter, delta
