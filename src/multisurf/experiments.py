"""Experiment registry: the desk-scale studies behind the library.

Each experiment bundles a system, default numerical parameters and a set of
checkable properties (finite-time arrival, chattering detection, convergence
slopes).  `run_experiment` merges overrides into the defaults, simulates and
evaluates the properties; the CLI layers argument parsing and CSV output on
top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from multisurf import analysis, controllers, integrators
from multisurf.integrators import SchemeConfig
from multisurf.systems import (AffineGainSignSystem, DisturbedLinearSystem,
                               LinearSignSystem)

PERIOD2_TOL = 1e-6
DRIFT_RADIUS_TOL = 1e-9
# a slope fit over a decade or two needs a handful of step sizes; each point
# is a full run, so the convergence sweep takes at most this many
SWEEP_MAX_POINTS = 100


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ExperimentResult:
    name: str
    trajectories: dict
    properties: list
    tables: dict = field(default_factory=dict)

    @property
    def all_passed(self):
        return all(p.passed for p in self.properties)


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    description: str
    defaults: dict
    runner: Callable[[dict], ExperimentResult]


# ---------------------------------------------------------------------------
# systems

def simple_system():
    """Scalar integrator with unit sign feedback: dx/dt in -sgn(x)."""
    return LinearSignSystem(n=1, m=1, E=[[0.0]], a=[0.0], B=[[1.0]],
                            C=[[1.0]], D=[0.0])


def simple_selection_ref(x0):
    sgn = np.sign(x0)
    return lambda t: np.where(t < abs(x0), sgn, 0.0)


def galias2007_system():
    return LinearSignSystem(n=2, m=1, E=[[0.0, 1.0], [0.0, -1.0]],
                            a=[0.0, 0.0], B=[[0.0], [1.0]], C=[[1.0, 1.0]],
                            D=[0.0])


def multisurface_system():
    BC = [[1.0, 2.0], [2.0, -1.0]]
    return LinearSignSystem(n=2, m=2, E=np.zeros((2, 2)), a=[0.0, 0.0],
                            B=BC, C=BC, D=[0.0, 0.0])


def filippov_system():
    return LinearSignSystem(n=2, m=2, E=np.zeros((2, 2)), a=[0.0, 0.0],
                            B=[[1.0, -2.0], [2.0, 1.0]],
                            C=np.eye(2), D=[0.0, 0.0])


def zoh_siso_data():
    F = [[0.0, 1.0], [2.0, -2.0]]
    G = [[0.0], [1.0]]
    C = [[1.0, 1.0]]
    return F, G, C


def zoh_mimo_data():
    F = [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [-1.0, -3.0, 1.0]]
    G = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    C = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    return F, G, C


def lyapunov_system(alpha=0.1):
    return DisturbedLinearSystem(
        n=1, m=1, E=[[-1.0]], a=[0.0], B=[[1.0]], rho=[1.0], P=[[1.0]],
        gamma=lambda t: np.array([alpha * np.sin(t)]), rho_bounds=[1.0])


def observer_system(k=1.0, tau=0.001):
    if not tau > 0:
        raise ValueError(f"observer time constant tau must be > 0, got {tau}")
    # tau * tau underflows to 0 below about 1.6e-162, and 1 / tau^2
    # overflows below about 7.5e-155
    t2 = tau * tau
    if not (t2 > 0 and math.isfinite(1.0 / t2) and math.isfinite(2.0 / tau)):
        raise ValueError(f"observer time constant tau = {tau} is too small: "
                         f"1/tau^2 or 2/tau is not finite")
    E = [[0.0, 0.0, 0.0, 0.0],
         [k, -k, -k, 0.0],
         [0.0, 0.0, 0.0, 1.0],
         [1.0 / t2, 0.0, -1.0 / t2, -2.0 / tau]]
    return LinearSignSystem(n=4, m=1, E=E, a=np.zeros(4),
                            B=[[1.0], [0.0], [0.0], [0.0]],
                            C=[[1.0, -1.0, 0.0, 0.0]], D=[0.0])


def hypomonotone_system():
    """Scalar dx/dt in -(x+1) sgn(x); the gain x+1 is hypomonotone in x."""
    return AffineGainSignSystem(
        n=1, m=1, A_list=([[1.0]],), B_list=([1.0],), C_rows=([1.0],),
        D=[0.0])


# ---------------------------------------------------------------------------
# property helpers

def _prop(name, passed, detail=""):
    return PropertyResult(name=name, passed=bool(passed), detail=detail)


def _selection_box(traj):
    if len(traj.times) < 2:
        return _prop("selection-box", True, "no steps taken")
    peak = float(np.max(np.abs(traj.selections[1:])))
    return _prop("selection-box", peak <= 1 + 1e-9, f"max |s| = {peak:.3e}")


def _surface_zero_persist(traj, idx):
    k = analysis.arrival_step(traj, idx)
    ok = k is not None and traj.failure is None
    detail = f"arrival step {k}" if k is not None else "surface never settles"
    return _prop(f"surface{idx}-zero-persist", ok, detail)


def _arrival(traj):
    """Arrival step on surface 0, and whether a step follows it."""
    k = analysis.arrival_step(traj, 0)
    return k, k is not None and k < len(traj.times) - 1


def _period2(traj, idx, *, expected, tol=PERIOD2_TOL):
    """Whether the tail of y_idx is a 2-cycle, checked against `expected`:
    explicit schemes chatter, implicit ones settle."""
    v = analysis.tail(traj.outputs[:, idx])
    hit = len(v) >= 8 and analysis.detect_period2(v, tol)
    if not expected:
        return _prop(f"no-period2-y{idx}", not hit,
                     f"tail of {len(v)} samples")
    drift = float(np.max(np.abs(v[2:] - v[:-2]))) if len(v) >= 3 else np.nan
    return _prop(f"period2-detected-y{idx}", hit, f"tail drift {drift:.3e}")


def _chatters(values, idx):
    v = analysis.tail(values)
    flips = float(np.mean(v[1:] * v[:-1] < 0))
    return _prop(f"chatters-y{idx}", flips >= 0.5,
                 f"{flips:.0%} sign flips over {len(v)} samples")


def _completed(traj):
    msg = traj.failure.message if traj.failure else "completed"
    return _prop("completed", traj.failure is None, msg)


# ---------------------------------------------------------------------------
# runners

def _cfg(params):
    """The scheme the entry's keys set; a key it lacks keeps its default."""
    return SchemeConfig(**{k: params[k] for k in ("h", "theta", "gamma")
                           if k in params})


def run_simple(params):
    sys = simple_system()
    x0 = np.atleast_1d(np.asarray(params["x0"], dtype=float))
    h, T = params["h"], params["T"]
    traj = integrators.simulate_linear(sys, x0, 0.0, T, _cfg(params),
                                       scheme=params["scheme"])
    props = [_completed(traj)]
    if params["scheme"] == "implicit":
        # ceil of the exact quotient q = |x0| / h of the float inputs
        # (0.5 / 1e-6 rounds to 500000.0, below q) plus q^2 / 2^52 for the
        # rounding of the steps x - h (derived in tests/test_experiments.py);
        # inf where |x0| / h overflows
        k0_bound = abs(float(x0[0])) / h
        if k0_bound < math.inf:
            q = Fraction(abs(float(x0[0]))) / Fraction(h)
            k0_bound = math.ceil(q + q * q / 2 ** 52)
        k = analysis.arrival_step(traj, 0)
        ok = k is not None and k <= k0_bound
        props.append(_prop("finite-time-zero", ok,
                           f"arrival {k}, bound {k0_bound}"))
        props.append(_selection_box(traj))
    else:
        props.append(_period2(traj, 0, expected=True, tol=1e-9))
    return ExperimentResult("simple", {"traj": traj}, props)


def _simple_error_point(h, x0, T):
    traj = integrators.simulate_linear(simple_system(), [x0], 0.0, T,
                                       SchemeConfig(h=h))
    rep = analysis.error_norms(traj.times, traj.selections[:, 0],
                               simple_selection_ref(x0))
    return h, rep


def run_convergence(params):
    x0 = float(np.atleast_1d(np.asarray(params["x0"], dtype=float))[0])
    h_min, h_max, n = params["h_min"], params["h_max"], params["points"]
    if not (h_min > 0 and h_max > 0 and 3 <= n <= SWEEP_MAX_POINTS):
        raise ValueError(f"the sweep needs h_min, h_max > 0 and 3 to "
                         f"{SWEEP_MAX_POINTS} points, got {h_min}, {h_max} "
                         f"and {n}")
    hs = np.logspace(np.log10(h_min), np.log10(h_max), n)
    points = [_simple_error_point(h, x0, params["T"]) for h in np.sort(hs)]
    props = []
    inf_ok = all(abs(rep.inf_norm - 1.0) <= 1e-9 for _, rep in points)
    worst = max(abs(rep.inf_norm - 1.0) for _, rep in points)
    props.append(_prop("inf-norm-unity", inf_ok,
                       f"max | |e|_inf - 1 | = {worst:.3e}"))
    l1_slope = analysis.convergence_slope(
        [(h, rep.l1_norm) for h, rep in points])
    props.append(_prop("l1-slope-order-1", 0.85 <= l1_slope <= 1.15,
                       f"slope {l1_slope:.4f}"))
    l2_slope = analysis.convergence_slope(
        [(h, rep.l2_norm) for h, rep in points])
    lines = ["h,inf,l1,l2"]
    for h, rep in points:
        lines.append(f"{h:.17g},{rep.inf_norm:.17g},"
                     f"{rep.l1_norm:.17g},{rep.l2_norm:.17g}")
    lines.append(f"# slopes: l1={l1_slope:.17g}, l2={l2_slope:.17g}")
    return ExperimentResult("convergence", {}, props,
                            tables={"convergence.csv": "\n".join(lines) + "\n"})


def run_galias2007(params):
    sys = galias2007_system()
    traj = integrators.simulate_linear(sys, params["x0"], 0.0, params["T"],
                                       _cfg(params), scheme=params["scheme"])
    props = [_completed(traj)]
    if params["scheme"] == "implicit":
        props.append(_surface_zero_persist(traj, 0))
        props.append(_period2(traj, 0, expected=False))
        props.append(_selection_box(traj))
    else:
        props.append(_period2(traj, 0, expected=True))
    return ExperimentResult("galias2007", {"traj": traj}, props)


def run_multisurface(params):
    sys = multisurface_system()
    traj = integrators.simulate_linear(sys, params["x0"], 0.0, params["T"],
                                       _cfg(params), scheme=params["scheme"])
    props = [_completed(traj)]
    if params["scheme"] == "implicit":
        k0 = analysis.arrival_step(traj, 0)
        k1 = analysis.arrival_step(traj, 1)
        props.append(_surface_zero_persist(traj, 0))
        props.append(_surface_zero_persist(traj, 1))
        ordered = k0 is not None and k1 is not None and k0 < k1
        props.append(_prop("ordered-arrival", ordered,
                           f"surface0 at {k0}, surface1 at {k1}"))
        final = float(np.max(np.abs(traj.states[-1])))
        props.append(_prop("origin-reached", final <= 1e-10,
                           f"final |x| = {final:.3e}"))
        props.append(_selection_box(traj))
    else:
        props.append(_period2(traj, 0, expected=True))
    return ExperimentResult("multisurface", {"traj": traj}, props)


def run_filippov(params):
    sys = filippov_system()
    traj = integrators.simulate_linear(sys, params["x0"], 0.0, params["T"],
                                       _cfg(params), scheme=params["scheme"])
    props = [_completed(traj)]
    if params["scheme"] == "implicit":
        props.append(_surface_zero_persist(traj, 0))
        props.append(_surface_zero_persist(traj, 1))
        final = float(np.max(np.abs(traj.states[-1])))
        props.append(_prop("origin-reached", final <= 1e-10,
                           f"final |x| = {final:.3e}"))
        props.append(_selection_box(traj))
    return ExperimentResult("filippov", {"traj": traj}, props)


def _run_zoh(name, data, params):
    F, G, C = data
    mode = "implicit" if params["scheme"] in ("implicit", "zoh-implicit") \
        else "explicit"
    ctl = controllers.EcbSmcController(F=F, G=G, C=C, alpha=params["alpha"],
                                      h=params["h"], mode=mode)
    traj = controllers.simulate_ecb(ctl, params["x0"], 0.0, params["T"])
    props = [_completed(traj)]
    m = ctl.m
    if mode == "implicit":
        for i in range(m):
            props.append(_surface_zero_persist(traj, i))
        props.append(_selection_box(traj))
    elif name == "zoh-siso":
        props.append(_period2(traj, 0, expected=True))
    else:
        # recurrent tail deviation: chattering without a clean 2-cycle
        ytail = analysis.tail(np.max(np.abs(traj.outputs), axis=1))
        frac = float(np.mean(ytail > params["h"] / 10))
        props.append(_prop("recurrent-deviation", frac >= 0.25,
                           f"{frac:.0%} of tail above h/10"))
    return ExperimentResult(name, {"traj": traj}, props)


def run_zoh_siso(params):
    return _run_zoh("zoh-siso", zoh_siso_data(), params)


def run_zoh_mimo(params):
    return _run_zoh("zoh-mimo", zoh_mimo_data(), params)


def run_lyapunov(params):
    sys = lyapunov_system(alpha=params["alpha"])
    h = params["h"]
    traj = controllers.simulate_lyapunov(sys, params["x0"], 0.0, params["T"],
                                         _cfg(params),
                                         scheme=params["scheme"])
    props = [_completed(traj)]
    if params["scheme"] == "implicit":
        k, arrived = _arrival(traj)
        props.append(_prop("finite-time-zero", arrived, f"arrival step {k}"))
        if arrived:
            tail_k = np.arange(k, len(traj.times) - 1)
            dev = np.abs(traj.controls[tail_k, 0]
                         - params["alpha"] * np.sin(traj.times[tail_k]))
            worst = float(np.max(dev))
            props.append(_prop("control-tracks-disturbance", worst <= 2 * h,
                               f"max |u - gamma| = {worst:.3e}"))
        props.append(_selection_box(traj))
    else:
        u = analysis.tail(traj.controls[:-1, 0])
        # saturated both ways with frequent sign flips: the disturbance
        # breaks strict alternation without taming the chattering
        saturated = np.all(np.abs(np.abs(u) - 1.0) < 1e-12)
        flips = float(np.mean(u[1:] * u[:-1] < 0))
        props.append(_prop("control-chatters",
                           saturated and flips >= 0.5,
                           f"{flips:.0%} sign flips over {len(u)} controls"))
    return ExperimentResult("lyapunov", {"traj": traj}, props)


def _drift_radius(E, h, theta):
    """Spectral radius of the theta-scheme drift map.

    The map is (I - h theta E)^-1 (I + h (1 - theta) E); theta = 0 is forward
    Euler, whose radius exceeds 1 once h passes 2 / |lambda| for a real
    eigenvalue lambda < 0 of E.
    """
    eye = np.eye(len(E))
    try:
        M = np.linalg.solve(eye - h * theta * E, eye + h * (1 - theta) * E)
    except np.linalg.LinAlgError:
        raise ValueError(f"I - h*theta*E is singular at h = {h}, theta = "
                         f"{theta}: the drift map is undefined") from None
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def run_observer(params):
    sys = observer_system(k=params["k"], tau=params["tau"])
    theta = 0.0 if params["scheme"] == "explicit" else params["theta"]
    radius = _drift_radius(sys.E, params["h"], theta)
    traj = integrators.simulate_linear(sys, params["x0"], 0.0, params["T"],
                                       _cfg(params), scheme=params["scheme"])
    props = []
    peak = float(np.max(np.abs(traj.states))) if len(traj.states) else 0.0
    blew_up = traj.failure is not None or peak > 1e6
    detail = f"peak |x| = {peak:.3e}, drift radius {radius:.12g}"
    # the integrator mode of E (eigenvalue 0) holds the radius at 1 for
    # every h; above 1 the parasitic dynamics grow geometrically
    if radius > 1 + DRIFT_RADIUS_TOL:
        props.append(_prop("unstable-expected", blew_up, detail))
    else:
        props.append(_prop("bounded", not blew_up, detail))
        # once y first changes sign, the explicit sign term switches on most
        # steps, but its cycle need not have period 2; a run that has not
        # crossed yet (or sits on the surface, where sgn(0) = 0) is judged
        # as an implicit one
        y = traj.outputs[:, 0]
        cross = np.flatnonzero(y[1:] * y[:-1] < 0)
        if (params["scheme"] == "explicit" and len(cross)
                and len(y) - cross[0] - 1 >= analysis.TAIL_MIN):
            props.append(_chatters(y[cross[0] + 1:], 0))
        else:
            props.append(_period2(traj, 0, expected=False))
        props.append(_selection_box(traj))
    return ExperimentResult("observer", {"traj": traj}, props)


def run_hypomonotone(params):
    sys = hypomonotone_system()
    h = params["h"]
    traj = integrators.simulate_newton(sys, params["x0"], 0.0, params["T"],
                                       _cfg(params))
    props = [_completed(traj)]
    # closed form away from the sticking band [-h, h]
    worst = 0.0
    for k in range(len(traj.times) - 1):
        xk = traj.states[k, 0]
        if abs(xk) > h:
            sg = np.sign(xk)
            pred = (xk - h * sg) / (1 + h * sg)
            worst = max(worst, abs(traj.states[k + 1, 0] - pred),
                        abs(traj.selections[k + 1, 0] - sg))
    props.append(_prop("closed-form-match", worst <= 1e-12,
                       f"max deviation {worst:.3e}"))
    k, arrived = _arrival(traj)
    props.append(_prop("finite-time-zero", arrived,
                       f"exact zero from step {k}"))
    peak_it = int(np.max(traj.newton_iters))
    props.append(_prop("newton-terminates", peak_it <= 10,
                       f"max iterations {peak_it}"))
    return ExperimentResult("hypomonotone", {"traj": traj}, props)


# ---------------------------------------------------------------------------
# registry

def _theta_scheme(h, T, x0, **extra):
    return {"h": h, "T": T, "x0": x0, "scheme": "implicit", "theta": 1.0,
            **extra}


# an entry's defaults are exactly the keys its runner reads
REGISTRY = {
    "simple": ExperimentSpec(
        "simple", "scalar sign system, finite-time exact stabilization",
        _theta_scheme(0.2, 3.0, [1.01]), run_simple),
    "convergence": ExperimentSpec(
        "convergence", "h-sweep of the selection error on the scalar system",
        dict(T=3.0, x0=[1.01], h_min=1e-3, h_max=1e-1, points=8),
        run_convergence),
    "galias2007": ExperimentSpec(
        "galias2007", "second-order SMC loop, implicit vs explicit Euler",
        _theta_scheme(0.3, 15.0, [0.0, 2.21]), run_galias2007),
    "multisurface": ExperimentSpec(
        "multisurface", "two sliding surfaces reached in sequence",
        _theta_scheme(0.02, 2.0, [1.0, -1.0]), run_multisurface),
    "filippov": ExperimentSpec(
        "filippov", "codimension-2 sliding at the origin",
        _theta_scheme(0.002, 2.0, [1.0, -1.0]), run_filippov),
    "zoh-siso": ExperimentSpec(
        "zoh-siso", "sampled ECB-SMC, single surface, implicit vs explicit",
        dict(h=0.3, T=30.0, x0=[0.55, 0.55], scheme="zoh-implicit",
             alpha=1.0), run_zoh_siso),
    "zoh-mimo": ExperimentSpec(
        "zoh-mimo", "sampled ECB-SMC with two inputs and two surfaces",
        dict(h=0.3, T=15.0, x0=[0.05, -0.5, 0.02], scheme="zoh-implicit",
             alpha=1.0), run_zoh_mimo),
    "lyapunov": ExperimentSpec(
        "lyapunov", "discontinuous robust control under a sine disturbance",
        _theta_scheme(0.1, 15.0, [1.0], alpha=0.1), run_lyapunov),
    "observer": ExperimentSpec(
        "observer", "observer-based SMC with fast parasitic dynamics",
        _theta_scheme(0.1, 10.0, [2.0, 0.0, 0.0, 0.0], k=1.0, tau=0.001),
        run_observer),
    "hypomonotone": ExperimentSpec(
        "hypomonotone", "scalar hypomonotone gain, Newton one-step problems",
        dict(h=0.5, T=5.0, x0=[2.0], theta=1.0, gamma=1.0), run_hypomonotone),
}


def run_experiment(name, overrides=None) -> ExperimentResult:
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}")
    spec = REGISTRY[name]
    params = dict(spec.defaults)
    if overrides:
        unknown = set(overrides) - set(params)
        if unknown:
            raise KeyError(f"unknown overrides for {name}: {sorted(unknown)}")
        params.update({k: v for k, v in overrides.items() if v is not None})
    for k, v in params.items():
        if not isinstance(v, str) and not np.all(np.isfinite(v)):
            raise ValueError(f"{k} must be finite, got {v}")
    return spec.runner(params)
