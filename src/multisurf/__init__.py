"""Implicit time-stepping for sliding-mode / set-valued sign systems.

The library discretizes differential inclusions of the form

    dx/dt in f(x, t) - g(x) Sgn(h(x))

with implicit (backward) Euler theta/gamma schemes and exact ZOH sampling,
reducing each step to the sign inclusion s in Sgn(b - W s) on [-1, 1]^m, a
small box-constrained mixed linear complementarity problem.  The implicit
treatment of the sign term gives chattering-free, finite-time-exact
stabilization on the sliding surfaces.

The package re-exports the four names of the README's library example;
every other name is imported from its module (multisurf.systems,
multisurf.integrators, multisurf.controllers, multisurf.mlcp, ...).
"""

from multisurf.integrators import SchemeConfig, simulate, theta_plan
from multisurf.systems import LinearSignSystem

__version__ = "0.1.0"
