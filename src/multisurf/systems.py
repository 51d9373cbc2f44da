"""System classes with a set-valued sign term on the right-hand side.

Three continuous-time classes are supported, all of the shape

    dx/dt  in  drift(x, t) - gain(x) * Sgn(surface(x))

* :class:`LinearSignSystem`      -- affine drift ``E x + a``, constant gain
  matrix ``B`` and affine surfaces ``C x + D``.
* :class:`AffineGainSignSystem`  -- per-surface affine gain columns
  ``A_i x + B_i`` with scalar affine surfaces.
* :class:`NonlinearSignSystem`   -- fully nonlinear ``f``, ``g``, ``h``
  supplied as callables together with their analytic Jacobians.

:class:`DisturbedLinearSystem` is the closed loop of a linear plant under a
Lyapunov-based discontinuous controller with a bounded matched disturbance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from multisurf import mlcp


def _as_matrix(a, rows, cols, name):
    m = np.asarray(a, dtype=float)
    if m.shape != (rows, cols):
        raise ValueError(f"{name} must have shape ({rows}, {cols}), got {m.shape}")
    return m


def _as_vector(a, length, name):
    v = np.atleast_1d(np.asarray(a, dtype=float))
    if v.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {v.shape}")
    return v


def _require_finite(system, names):
    """ValueError naming the first field in `names` that is not finite."""
    for name in names:
        if not np.isfinite(getattr(system, name)).all():
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class LinearSignSystem:
    """dx/dt in E x + a - B Sgn(C x + D)."""

    n: int
    m: int
    E: np.ndarray
    a: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 and m >= 1")
        object.__setattr__(self, "E", _as_matrix(self.E, self.n, self.n, "E"))
        object.__setattr__(self, "a", _as_vector(self.a, self.n, "a"))
        object.__setattr__(self, "B", _as_matrix(self.B, self.n, self.m, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, self.m, self.n, "C"))
        object.__setattr__(self, "D", _as_vector(self.D, self.m, "D"))
        _require_finite(self, ("E", "a", "B", "C", "D"))


@dataclass(frozen=True)
class AffineGainSignSystem:
    """dx/dt in f(x,t) - sum_i (A_i x + B_i) sgn(C_i x + D_i).

    ``f`` and ``f_jac`` evaluate the smooth drift and its state Jacobian;
    both None (the default) means no smooth drift, and giving only one of
    the two is an error.  The gain and surface never read t, so a system
    without f is time-invariant: its Newton plan is marked for the fixed-tail
    skip (see `integrators.newton_plan`), one with an f is not.
    ``rho`` is the hypomonotonicity shift used by the implicit one-step
    problem (0 disables the shift), kept as a Python float.  The gain and surface Jacobians are
    constant: they are built once and returned read-only.
    """

    n: int
    m: int
    A_list: tuple
    B_list: tuple
    C_rows: tuple
    D: np.ndarray
    f: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    f_jac: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    rho: float = 0.0

    def __post_init__(self):
        if (self.f is None) != (self.f_jac is None):
            raise ValueError("give f and f_jac together, or neither")
        for name in ("A_list", "B_list", "C_rows"):
            if len(getattr(self, name)) != self.m:
                raise ValueError(f"{name} must have {self.m} entries")
        object.__setattr__(
            self, "A_list",
            tuple(_as_matrix(A, self.n, self.n, f"A_list[{i}]")
                  for i, A in enumerate(self.A_list)))
        object.__setattr__(
            self, "B_list",
            tuple(_as_vector(B, self.n, f"B_list[{i}]")
                  for i, B in enumerate(self.B_list)))
        object.__setattr__(
            self, "C_rows",
            tuple(_as_vector(C, self.n, f"C_rows[{i}]")
                  for i, C in enumerate(self.C_rows)))
        object.__setattr__(self, "D", _as_vector(self.D, self.m, "D"))
        _require_finite(self, ("A_list", "B_list", "C_rows", "D", "rho"))
        object.__setattr__(self, "rho", float(self.rho))
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        T, H = np.stack(self.A_list, axis=1), np.vstack(self.C_rows)
        T.flags.writeable = H.flags.writeable = False
        object.__setattr__(self, "_jacobians", (T, H))

    def gain(self, x):
        """n x m matrix with columns A_i x + B_i."""
        G = np.empty((self.n, self.m))
        for l, (A, b) in enumerate(zip(self.A_list, self.B_list)):
            G[:, l] = A @ x + b
        return G

    def gain_jac(self, x):
        """Third-order tensor T[k, l, p] = d gain[k, l] / d x[p]."""
        return self._jacobians[0]

    def surface(self, x):
        return np.array([c @ x + d for c, d in zip(self.C_rows, self.D)])

    def surface_jac(self, x):
        return self._jacobians[1]


@dataclass(frozen=True)
class NonlinearSignSystem:
    """dx/dt in f(x,t) - g(x) Sgn(h(x)) with user-supplied analytic Jacobians.

    ``g_jac(x)`` returns the n x m x n tensor T[k, l, p] = d g[k, l] / d x[p];
    ``h_jac(x)`` the m x n surface Jacobian.  Finite-difference fallbacks are
    deliberately not provided: the one-step Newton loop requires exact
    derivatives for deterministic behaviour.
    """

    n: int
    m: int
    f: Callable[[np.ndarray, float], np.ndarray]
    f_jac: Callable[[np.ndarray, float], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    g_jac: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    h_jac: Callable[[np.ndarray], np.ndarray]
    rho: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("rho",))
        if self.rho < 0:
            raise ValueError("rho must be >= 0")

    def gain(self, x):
        g = np.asarray(self.g(x), dtype=float)
        if g.shape != (self.n, self.m):
            raise ValueError(f"g(x) must return shape ({self.n}, {self.m})")
        return g

    def gain_jac(self, x):
        T = np.asarray(self.g_jac(x), dtype=float)
        if T.shape != (self.n, self.m, self.n):
            raise ValueError("g_jac(x) must return shape (n, m, n)")
        return T

    def surface(self, x):
        return _as_vector(self.h(x), self.m, "h(x)")

    def surface_jac(self, x):
        return _as_matrix(self.h_jac(x), self.m, self.n, "h_jac(x)")


@dataclass(frozen=True)
class DisturbedLinearSystem:
    """Closed loop dx/dt in E x + a - B diag(rho) Sgn(B^T P x) + B gamma(t).

    The control u_i = rho_i * sgn((B^T P x)_i) is the discontinuous feedback
    derived from the quadratic Lyapunov function V(x) = x^T P x / 2; gamma is
    a bounded matched disturbance with |gamma_i(t)| < rho_bounds_i.
    """

    n: int
    m: int
    E: np.ndarray
    a: np.ndarray
    B: np.ndarray
    rho: np.ndarray
    P: np.ndarray
    gamma: Callable[[float], np.ndarray]
    rho_bounds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "E", _as_matrix(self.E, self.n, self.n, "E"))
        object.__setattr__(self, "a", _as_vector(self.a, self.n, "a"))
        object.__setattr__(self, "B", _as_matrix(self.B, self.n, self.m, "B"))
        object.__setattr__(self, "rho", _as_vector(self.rho, self.m, "rho"))
        object.__setattr__(self, "P", _as_matrix(self.P, self.n, self.n, "P"))
        object.__setattr__(self, "rho_bounds",
                           _as_vector(self.rho_bounds, self.m, "rho_bounds"))
        # a NaN P would pass both tests below
        _require_finite(self, ("E", "a", "B", "rho", "P", "rho_bounds"))
        if np.max(np.abs(self.P - self.P.T)) > 1e-12:
            raise ValueError("P must be symmetric (within 1e-12)")
        try:
            np.linalg.cholesky(self.P)
        except np.linalg.LinAlgError:
            raise ValueError("P must be positive definite") from None

    def surface_matrix(self):
        """The m x n surface map B^T P."""
        return self.B.T @ self.P

    def disturbance(self, t):
        g = _as_vector(self.gamma(t), self.m, "gamma(t)")
        return g

    def check_disturbance_bound(self, t_grid):
        """True when |gamma_i(t)| < rho_bounds_i on every sampled t."""
        for t in t_grid:
            if np.any(np.abs(self.disturbance(t)) >= self.rho_bounds):
                return False
        return True

    def rhs(self, x, t):
        """Single-valued closed-loop right-hand side (sgn(0) = 0)."""
        x = _as_vector(x, self.n, "x")
        s = np.sign(self.surface_matrix() @ x)
        return (self.E @ x + self.a - self.B @ (self.rho * s)
                + self.B @ self.disturbance(t))


def output(system, x):
    """Surface output y: C x + D for the matrix classes, h(x) otherwise."""
    x = _as_vector(x, system.n, "x")
    if isinstance(system, LinearSignSystem):
        return system.C @ x + system.D
    if isinstance(system, (AffineGainSignSystem, NonlinearSignSystem)):
        return system.surface(x)
    if isinstance(system, DisturbedLinearSystem):
        return system.surface_matrix() @ x
    raise TypeError(f"unsupported system type {type(system).__name__}")


@dataclass(frozen=True)
class CbReport:
    """Advisory relative-degree-one check on the surface/gain pairing."""

    CB: np.ndarray
    is_positive_definite: bool


def check_cb_positive(system) -> CbReport:
    """Compute C B and test positive definiteness of its symmetric part
    with the warm-start gate's test, `mlcp._sym_part_pd`: Cholesky of
    CB + CB^T with a margin, so an exactly singular symmetric part fails.

    Advisory only: a failing check does not prevent simulation (several
    well-behaved examples violate it), it merely flags that the sufficient
    finite-time-sliding condition does not hold.
    """
    if isinstance(system, LinearSignSystem):
        CB = system.C @ system.B
    elif isinstance(system, AffineGainSignSystem):
        B = np.column_stack(system.B_list)
        C = np.vstack(system.C_rows)
        CB = C @ B
    else:
        raise TypeError("check_cb_positive needs a linear or affine-gain system")
    return CbReport(CB=CB, is_positive_definite=mlcp._sym_part_pd(CB))
