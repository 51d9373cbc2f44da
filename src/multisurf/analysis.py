"""Trajectory post-processing.

Error norms against analytic references, log-log convergence slopes,
period-2 (chattering) detection and sliding-arrival detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

EXACT_ZERO_TOL = 1e-12
TAIL_FRACTION = 0.25
TAIL_MIN = 8


@dataclass(frozen=True)
class ErrorReport:
    """Grid norms of a sampled error signal.

    l1 and l2 are the discrete (h-weighted) norms (h sum |e|^p)^(1/p);
    inf_norm is the plain maximum over the grid.
    """

    inf_norm: float
    l1_norm: float
    l2_norm: float


def error_norms(times, values, reference) -> ErrorReport:
    """Norms of values minus reference(t) sampled on the trajectory grid."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    ref = np.array([reference(t) for t in times], dtype=float)
    e = np.abs(values - ref)
    h = float(times[1] - times[0]) if len(times) > 1 else 1.0
    return ErrorReport(inf_norm=float(np.max(e)),
                       l1_norm=float(h * np.sum(e)),
                       l2_norm=float(np.sqrt(h * np.sum(e ** 2))))


def convergence_slope(points) -> float:
    """Least-squares slope of log(error) against log(h)."""
    pts = [(float(h), float(e)) for h, e in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 (h, error) points")
    if any(h <= 0 or e <= 0 for h, e in pts):
        raise ValueError("h and error values must be positive")
    hs = np.log([h for h, _ in pts])
    es = np.log([e for _, e in pts])
    return float(np.polyfit(hs, es, 1)[0])


def tail(values):
    """Last TAIL_FRACTION of a sequence, at least TAIL_MIN samples."""
    values = np.asarray(values, dtype=float)
    k = max(int(np.ceil(TAIL_FRACTION * len(values))), TAIL_MIN)
    return values[-k:]


def detect_period2(values, tol) -> bool:
    """True for a genuine alternating 2-cycle in the given tail sequence.

    Requires |v_{k+2} - v_k| <= tol throughout and |v_{k+1} - v_k| > 10 tol
    (a fixed point is not a cycle).
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 8:
        raise ValueError("need a tail of at least 8 samples")
    if np.max(np.abs(v[2:] - v[:-2])) > tol:
        return False
    return bool(np.min(np.abs(v[1:] - v[:-1])) > 10 * tol)


def arrival_step(traj, surface_index, tol=EXACT_ZERO_TOL) -> Optional[int]:
    """Smallest k with |y_k'| <= tol for all k' >= k on the given surface.

    None when the surface value is still above tol at the end of the run.
    """
    y = np.abs(np.asarray(traj.outputs, dtype=float)[:, surface_index])
    bad = np.nonzero(y > tol)[0]
    if len(bad) == 0:
        return 0
    k = int(bad[-1]) + 1
    return k if k < len(y) else None
