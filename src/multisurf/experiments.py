"""Experiment registry: the desk-scale studies behind the library.

An experiment is a step plan, its defaults and the checks of each scheme
(finite-time arrival, chattering, convergence slopes).  `run_experiment`
merges overrides into the defaults and runs it; the CLI adds argument
parsing and CSV output.
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
                               LinearSignSystem, _as_vector)

PERIOD2_TOL = 1e-6
# the peak |x| past which a run counts as blown up
BLOWUP = 1e6
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
# checks

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
    """Arrival step on surface 0 and whether a step follows it."""
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


def _flips(v):
    """Share of sign flips between neighbours of v; 0 below two."""
    return float(np.mean(v[1:] * v[:-1] < 0)) if len(v) > 1 else 0.0


def _on(check, *args, **kwargs):
    """`check(traj, *args, **kwargs)` as a check of (traj, params)."""
    return lambda traj, params: [check(traj, *args, **kwargs)]


def _completed(traj, params):
    msg = traj.failure.message if traj.failure else "completed"
    return [_prop("completed", traj.failure is None, msg)]


def _simple_arrival(traj, params):
    # ceil of the exact quotient q = |x0| / h of the float inputs
    # (0.5 / 1e-6 rounds to 500000.0, below q) plus q^2 / 2^52 for the
    # rounding of the steps x - h (derived in the tests);
    # inf where |x0| / h overflows
    x0, h = abs(float(traj.states[0, 0])), params["h"]
    k0_bound = x0 / h
    if k0_bound < math.inf:
        q = Fraction(x0) / Fraction(h)
        k0_bound = math.ceil(q + q * q / 2 ** 52)
    k = analysis.arrival_step(traj, 0)
    return [_prop("finite-time-zero", k is not None and k <= k0_bound,
                  f"arrival {k}, bound {k0_bound}")]


def _ordered_arrival(traj, params):
    k0, k1 = analysis.arrival_step(traj, 0), analysis.arrival_step(traj, 1)
    return [_prop("ordered-arrival", k0 is not None and k1 is not None
                  and k0 < k1, f"surface0 at {k0}, surface1 at {k1}")]


def _origin_reached(traj, params):
    final = float(np.max(np.abs(traj.states[-1])))
    return [_prop("origin-reached", final <= 1e-10,
                  f"final |x| = {final:.3e}")]


def _recurrent_deviation(traj, params):
    # chattering without a clean 2-cycle
    ytail = analysis.tail(np.max(np.abs(traj.outputs), axis=1))
    frac = float(np.mean(ytail > params["h"] / 10))
    return [_prop("recurrent-deviation", frac >= 0.25,
                  f"{frac:.0%} of tail above h/10")]


def _tracks_disturbance(traj, params):
    k, arrived = _arrival(traj)
    props = [_prop("finite-time-zero", arrived, f"arrival step {k}")]
    if arrived:
        tail_k = np.arange(k, len(traj.times) - 1)
        dev = np.abs(traj.controls[tail_k, 0]
                     - params["alpha"] * np.sin(traj.times[tail_k]))
        worst = float(np.max(dev))
        props.append(_prop("control-tracks-disturbance",
                           worst <= 2 * params["h"],
                           f"max |u - gamma| = {worst:.3e}"))
    return props


def _control_chatters(traj, params):
    u = analysis.tail(traj.controls[:-1, 0])
    # saturated both ways with frequent sign flips: the disturbance
    # breaks strict alternation without taming the chattering
    saturated = np.all(np.abs(np.abs(u) - 1.0) < 1e-12)
    flips = _flips(u)
    return [_prop("control-chatters", saturated and flips >= 0.5,
                  f"{flips:.0%} sign flips over {len(u)} controls")]


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


def _blowup_expected(radius, steps):
    """Whether a run of `steps` steps of a drift map with spectral radius
    `radius` is expected to blow up past BLOWUP.

    Along its dominant mode the drift map multiplies the state by the
    radius each step, so N steps allow a growth of radius^N: a blow-up is
    expected only where that passes BLOWUP, N log(radius) > log(BLOWUP).
    The integrator mode of E (eigenvalue 0) holds the radius at 1 for
    every h, which never passes it; nor does a short unstable run (k = -1:
    radius 1.11 over 100 steps, growth 3.8e4).
    """
    return radius > 1 and steps * math.log(radius) > math.log(BLOWUP)


def _stability(traj, params):
    """The observer's stability rule: a blow-up where the drift map allows
    one over the run, else a bounded run that chatters or settles."""
    h, explicit = params["h"], params["scheme"] == "explicit"
    radius = _drift_radius(observer_system(params["k"], params["tau"]).E, h,
                           0.0 if explicit else params["theta"])
    peak = float(np.max(np.abs(traj.states)))
    blew_up = traj.failure is not None or peak > BLOWUP
    detail = f"peak |x| = {peak:.3e}, drift radius {radius:.12g}"
    if _blowup_expected(radius, integrators.grid_steps(0.0, params["T"], h)):
        return [_prop("unstable-expected", blew_up, detail)]
    # once y first changes sign, the explicit sign term switches on most
    # steps, in a cycle not always of period 2; a run that has not crossed
    # (or sits on y = 0, where sgn(0) = 0) is judged as an implicit one
    y = traj.outputs[:, 0]
    cross = np.flatnonzero(y[1:] * y[:-1] < 0)
    if explicit and len(cross) and len(y) - cross[0] - 1 >= analysis.TAIL_MIN:
        v = analysis.tail(y[cross[0] + 1:])
        settles = _prop("chatters-y0", _flips(v) >= 0.5,
                        f"{_flips(v):.0%} sign flips over {len(v)} samples")
    else:
        settles = _period2(traj, 0, expected=False)
    return [_prop("bounded", not blew_up, detail), settles,
            _selection_box(traj)]


def _closed_form_match(traj, params):
    """Steps whose one-step problem has one solution, s = sgn(x_k) = sg,
    against their closed form.

    With the gain x + 1 taken at x_k + gamma (x - x_k), the step at a fixed
    s is d x = r, d = 1 + h gamma s, r = x_k - h ((1 - gamma) x_k + 1) s.
    Its candidates are x = r / d of sign s = +-1 (where s r d > 0) and x = 0
    at s = x_k / (h ((1 - gamma) x_k + 1)) in [-1, 1]; below x = -1, where
    the gain is negative, more than one can hold.  A Newton residual below
    NEWTON_TOL leaves x within NEWTON_TOL / |d|, plus 16 ulps of
    (1 + h)(1 + |x_k| + |x|) for rounding.
    """
    h, gamma = params["h"], params["gamma"]
    worst, ok = 0.0, True
    for k in range(len(traj.times) - 1):
        xk = traj.states[k, 0]
        sg = np.sign(xk)
        # predict where the s = -sg form (d2, r2) and x = 0 both fail
        d, d2 = 1 + h * gamma * sg, 1 - h * gamma * sg
        r = xk * (1 - h * (1 - gamma) * sg) - h * sg
        r2 = xk * (1 + h * (1 - gamma) * sg) + h * sg
        if (sg * r * d > 0 and sg * r2 * d2 > 0
                and abs(xk) > h * abs((1 - gamma) * xk + 1)):
            pred = r / d
            dev = max(abs(traj.states[k + 1, 0] - pred),
                      abs(traj.selections[k + 1, 0] - sg))
            bound = (integrators.NEWTON_TOL + 2.0 ** -48 * (1 + h)
                     * (1 + abs(xk) + abs(pred))) / abs(d)
            worst, ok = max(worst, dev), ok and dev <= bound
    return [_prop("closed-form-match", ok, f"max deviation {worst:.3e}")]


def _exact_zero(traj, params):
    k, arrived = _arrival(traj)
    return [_prop("finite-time-zero", arrived, f"exact zero from step {k}")]


def _newton_terminates(traj, params):
    peak_it = int(np.max(traj.newton_iters))
    return [_prop("newton-terminates", peak_it <= 10,
                  f"max iterations {peak_it}")]


_BOX = _on(_selection_box)
_SETTLES = (_on(_surface_zero_persist, 0), _on(_surface_zero_persist, 1))
_PERIOD2 = _on(_period2, 0, expected=True)


# ---------------------------------------------------------------------------
# plans and runners

def _cfg(params):
    """The scheme the entry's keys set; a key it lacks keeps its default."""
    return SchemeConfig(**{k: params[k] for k in ("h", "theta", "gamma")
                           if k in params})


def _theta(system, *keys):
    """The theta-scheme plan of system(*params[keys]), as simulate_linear's."""
    def plan(params):
        sys, cfg = system(*(params[k] for k in keys)), _cfg(params)
        return integrators.theta_plan(sys.E, sys.B, sys.C, sys.D,
                                      cfg.h * sys.a, cfg, params["scheme"])
    return plan


def _zoh(data):
    """The ECB-SMC plan of the ZOH data() = (F, G, C)."""
    return lambda params: controllers.ecb_plan(controllers.EcbSmcController(
        *data(), alpha=params["alpha"], h=params["h"],
        mode=params["scheme"]))


def _study(name, description, defaults, plan, implicit, explicit=()):
    """A registry entry whose runner simulates plan(params) from x0 over
    [0, T], then runs the checks of its scheme (implicit if it has no scheme
    key) in order; a check maps (traj, params) to a list of properties."""
    def run(params):
        traj = integrators.simulate(plan(params), params["x0"], 0.0,
                                    params["T"])
        checks = (explicit if "scheme" in params
                  and params["scheme"] == "explicit" else implicit)
        return ExperimentResult(name, {"traj": traj}, [
            prop for check in checks for prop in check(traj, params)])
    # the name a trace or a profile shows, as for run_convergence
    run.__name__ = run.__qualname__ = "run_" + name.replace("-", "_")
    return ExperimentSpec(name, description, defaults, run)


def _simple_error_point(h, x0, T):
    traj = integrators.simulate_linear(simple_system(), [x0], 0.0, T,
                                       SchemeConfig(h=h))
    rep = analysis.error_norms(traj.times, traj.selections[:, 0],
                               simple_selection_ref(x0))
    return h, rep


def run_convergence(params):
    x0 = float(_as_vector(params["x0"], 1, "x0")[0])
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


# ---------------------------------------------------------------------------
# registry

def _scheme(h, T, x0, **extra):
    """The keys of a run under the implicit or explicit scheme; an entry
    whose system has a smooth drift (E != 0) adds theta."""
    return {"h": h, "T": T, "x0": x0, "scheme": "implicit", **extra}


_DONE = (_completed,)

# an entry's defaults are exactly the keys its runner reads
REGISTRY = {spec.name: spec for spec in (
    _study("simple", "scalar sign system, finite-time exact stabilization",
           _scheme(0.2, 3.0, [1.01]), _theta(simple_system),
           implicit=(*_DONE, _simple_arrival, _BOX),
           explicit=(*_DONE, _on(_period2, 0, expected=True, tol=1e-9))),
    ExperimentSpec(
        "convergence", "h-sweep of the selection error on the scalar system",
        dict(T=3.0, x0=[1.01], h_min=1e-3, h_max=1e-1, points=8),
        run_convergence),
    _study("galias2007", "second-order SMC loop, implicit vs explicit Euler",
           _scheme(0.3, 15.0, [0.0, 2.21], theta=1.0),
           _theta(galias2007_system),
           implicit=(*_DONE, _SETTLES[0], _on(_period2, 0, expected=False),
                     _BOX),
           explicit=(*_DONE, _PERIOD2)),
    _study("multisurface", "two sliding surfaces reached in sequence",
           _scheme(0.02, 2.0, [1.0, -1.0]), _theta(multisurface_system),
           implicit=(*_DONE, *_SETTLES, _ordered_arrival, _origin_reached,
                     _BOX),
           explicit=(*_DONE, _PERIOD2)),
    _study("filippov", "codimension-2 sliding at the origin",
           _scheme(0.002, 2.0, [1.0, -1.0]), _theta(filippov_system),
           implicit=(*_DONE, *_SETTLES, _origin_reached, _BOX),
           explicit=_DONE),
    _study("zoh-siso", "sampled ECB-SMC, single surface, implicit vs explicit",
           _scheme(0.3, 30.0, [0.55, 0.55], alpha=1.0), _zoh(zoh_siso_data),
           implicit=(*_DONE, _SETTLES[0], _BOX),
           explicit=(*_DONE, _PERIOD2)),
    _study("zoh-mimo", "sampled ECB-SMC with two inputs and two surfaces",
           _scheme(0.3, 15.0, [0.05, -0.5, 0.02], alpha=1.0),
           _zoh(zoh_mimo_data), implicit=(*_DONE, *_SETTLES, _BOX),
           explicit=(*_DONE, _recurrent_deviation)),
    _study("lyapunov", "discontinuous robust control under a sine disturbance",
           _scheme(0.1, 15.0, [1.0], theta=1.0, alpha=0.1),
           lambda p: controllers.lyapunov_plan(lyapunov_system(p["alpha"]),
                                               _cfg(p), p["scheme"]),
           implicit=(*_DONE, _tracks_disturbance, _BOX),
           explicit=(*_DONE, _control_chatters)),
    _study("observer", "observer-based SMC with fast parasitic dynamics",
           _scheme(0.1, 10.0, [2.0, 0.0, 0.0, 0.0], theta=1.0, k=1.0,
                   tau=0.001), _theta(observer_system, "k", "tau"),
           implicit=(_stability,), explicit=(_stability,)),
    _study("hypomonotone",
           "scalar hypomonotone gain, Newton one-step problems",
           dict(h=0.5, T=5.0, x0=[2.0], gamma=1.0),
           lambda p: integrators.newton_plan(hypomonotone_system(), _cfg(p)),
           implicit=(*_DONE, _closed_form_match, _exact_zero,
                     _newton_terminates)),
)}


def run_experiment(name, overrides=None) -> ExperimentResult:
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}")
    spec = REGISTRY[name]
    params = dict(spec.defaults)
    if overrides:
        unknown = sorted(set(overrides) - set(params))
        if unknown:
            # spelled as the CLI options they come from
            raise KeyError(f"{name} takes no " + ", ".join(
                "--" + k.replace("_", "-") for k in unknown))
        params.update({k: v for k, v in overrides.items() if v is not None})
        if overrides.get("theta") is not None and \
                params.get("scheme") == "explicit":
            raise ValueError(f"{name} takes no theta under scheme "
                             f"'explicit' (forward Euler)")
    for k, v in params.items():
        if not isinstance(v, str) and not np.all(np.isfinite(v)):
            raise ValueError(f"{k} must be finite, got {v}")
    return spec.runner(params)
