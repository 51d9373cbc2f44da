"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion is checked at its stated tolerance against trajectories and
solver outputs produced fresh in this module; nothing is cached between
criteria.
"""

import math
import time

import numpy as np

from multisurf import analysis, mlcp
from multisurf.controllers import EcbSmcController, ecb_plan, lyapunov_plan
from multisurf.experiments import (galias2007_system, hypomonotone_system,
                                   lyapunov_system, multisurface_system,
                                   observer_system, simple_selection_ref,
                                   simple_system, zoh_mimo_data,
                                   zoh_siso_data)
from multisurf.integrators import (SchemeConfig, simulate, simulate_linear,
                                   simulate_newton, zoh_discretize)
from tests.test_integrators import rk4_matrix_pair


def verdict(num, label, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{mark} criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_criterion_1_finite_time_exact_stabilization():
    t0 = time.perf_counter()
    sys = simple_system()
    ok = True
    detail = ""
    traj = simulate_linear(sys, [1.01], 0.0, 3.0, SchemeConfig(h=0.2))
    ok &= bool(np.all(np.abs(traj.states[6:, 0]) <= 1e-13))
    ok &= abs(traj.selections[6, 0] - 0.05) <= 1e-12
    ok &= bool(np.all(np.abs(traj.selections[7:, 0]) <= 1e-13))
    for h in (1.0, 0.1, 0.01):
        tr = simulate_linear(sys, [1.01], 0.0, 1.01 + 5 * h,
                             SchemeConfig(h=h))
        k = analysis.arrival_step(tr, 0, tol=1e-13)
        if k is None or k > math.ceil(1.01 / h):
            ok = False
            detail = f"h={h}: arrival {k}"
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(1, "finite-time exact stabilization",
            ok, detail or f"{elapsed:.2f} s")


def test_criterion_2_infinity_norm_nonconvergence():
    sys = simple_system()
    worst = 0.0
    for h in (0.2, 0.02, 0.01):
        traj = simulate_linear(sys, [1.01], 0.0, 3.0, SchemeConfig(h=h))
        rep = analysis.error_norms(traj.times, traj.selections[:, 0],
                                   simple_selection_ref(1.01))
        worst = max(worst, abs(rep.inf_norm - 1.0))
    verdict(2, "selection error has unit infinity norm for every h",
            worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_3_order_1_convergence_l1_l2():
    t0 = time.perf_counter()
    sys = simple_system()
    points = []
    for h in np.logspace(-3, -1, 8):
        traj = simulate_linear(sys, [1.01], 0.0, 3.0, SchemeConfig(h=h))
        rep = analysis.error_norms(traj.times, traj.selections[:, 0],
                                   simple_selection_ref(1.01))
        points.append((h, rep))
    l1 = analysis.convergence_slope([(h, r.l1_norm) for h, r in points])
    l2 = analysis.convergence_slope([(h, r.l2_norm) for h, r in points])
    elapsed = time.perf_counter() - t0
    # The reference selection jumps from 1 to 0 at t = 1.01, so the grid
    # error is not small pointwise: it is 1 at t_0 (the placeholder
    # selections[0] = 0 against sgn(x0) = 1), some e_K in [0, 1] on the
    # arrival cell and 0 elsewhere.  Hence ||e||_1 = h (1 + e_K) and
    # ||e||_2^2 = h (1 + e_K^2): order 1 in L1 and order 1/2 in L2.  Between
    # the ends of the two decades of h, the factor 1 + e_K in [1, 2] moves
    # the L1 slope by at most ln 2 / ln 100 ~ 0.15, and sqrt(1 + e_K^2) in
    # [1, sqrt 2] moves the L2 slope by at most half that, ~ 0.075; the
    # bands are 1 and 1/2 widened by these amounts.
    ok = 0.85 <= l1 <= 1.15 and 0.425 <= l2 <= 0.575 and elapsed < 5.0
    verdict(3, "order 1 in L1, order 1/2 in L2",
            ok, f"l1 slope {l1:.3f}, l2 slope {l2:.3f}, {elapsed:.2f} s")


def test_criterion_4_solver_oracle_equivalence():
    rng = np.random.default_rng(1234)
    worst_z = 0.0
    worst_res = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        A = rng.standard_normal((m, m))
        W = A @ A.T + 0.1 * np.eye(m)
        p = mlcp.SignProblem(W, -rng.standard_normal(m))
        ref = mlcp.solve_enumerative(p)
        for solver in (mlcp.solve_pivoting, mlcp.solve):
            sol = solver(p)
            worst_z = max(worst_z, float(np.max(np.abs(sol.z - ref.z))))
            worst_res = max(worst_res, sol.residual)
    ok = worst_z <= 1e-8 and worst_res <= 1e-9
    verdict(4, "pivoting and solve match the enumerative oracle",
            ok, f"max dz {worst_z:.2e}, max residual {worst_res:.2e}")


def test_criterion_5_galias2007_implicit_vs_explicit():
    t0 = time.perf_counter()
    sys = galias2007_system()
    ok = True
    detail = ""
    for h in (1.0, 0.3, 0.1, 0.05):
        traj = simulate_linear(sys, [0.0, 2.21], 0.0, 15.0, SchemeConfig(h=h))
        k = analysis.arrival_step(traj, 0, tol=1e-12)
        cycling = analysis.detect_period2(
            analysis.tail(traj.outputs[:, 0]), 1e-6)
        if k is None or cycling:
            ok = False
            detail = f"implicit h={h}: arrival {k}, cycling {cycling}"
            break
    expl = simulate_linear(sys, [0.0, 2.21], 0.0, 15.0, SchemeConfig(h=0.3),
                           scheme="explicit")
    ok &= analysis.detect_period2(analysis.tail(expl.outputs[:, 0]), 1e-6)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 2.0
    verdict(5, "implicit Euler slides, explicit Euler cycles",
            ok, detail or f"{elapsed:.2f} s")


def test_criterion_6_multiple_sliding_surfaces():
    traj = simulate_linear(multisurface_system(), [1.0, -1.0], 0.0, 2.0,
                           SchemeConfig(h=0.02))
    k0 = analysis.arrival_step(traj, 0, tol=1e-12)
    k1 = analysis.arrival_step(traj, 1, tol=1e-12)
    final = float(np.max(np.abs(traj.states[-1])))
    ok = k0 is not None and k1 is not None and k0 < k1 and final <= 1e-10
    verdict(6, "surfaces reached in order, state rests at the origin",
            ok, f"arrivals {k0} < {k1}, final |x| {final:.2e}")


def test_criterion_7_zoh_siso():
    F, G, C = zoh_siso_data()
    ctl_x = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3,
                             mode="explicit")
    expl = simulate(ecb_plan(ctl_x), [0.55, 0.55], 0.0, 30.0)
    cycling = analysis.detect_period2(analysis.tail(expl.outputs[:, 0]), 1e-6)
    ctl_i = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3)
    impl = simulate(ecb_plan(ctl_i), [0.55, 0.55], 0.0, 30.0)
    k = analysis.arrival_step(impl, 0, tol=1e-12)
    pair = zoh_discretize(F, G, C, 0.3)
    eFh, intexp = rk4_matrix_pair(F, 0.3)
    K = np.asarray(G) @ np.linalg.inv(np.asarray(C) @ np.asarray(G))
    dphi = float(np.max(np.abs(
        pair.Phi - (eFh - intexp @ K @ np.asarray(C) @ np.asarray(F)))))
    dgam = float(np.max(np.abs(pair.Gamma - intexp @ K)))
    ok = cycling and k is not None and dphi <= 1e-11 and dgam <= 1e-11
    verdict(7, "sampled loop: explicit 2-cycle, implicit exact sliding, "
            "transition matrices match the fine-step oracle",
            ok, f"arrival {k}, dPhi {dphi:.1e}, dGamma {dgam:.1e}")


def test_criterion_8_zoh_mimo():
    F, G, C = zoh_mimo_data()
    x0 = [0.05, -0.5, 0.02]
    ctl_i = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3)
    impl = simulate(ecb_plan(ctl_i), x0, 0.0, 15.0)
    ok = True
    for i in range(2):
        if analysis.arrival_step(impl, i, tol=1e-12) is None:
            ok = False
    ctl_x = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3,
                             mode="explicit")
    expl = simulate(ecb_plan(ctl_x), x0, 0.0, 15.0)
    ytail = analysis.tail(np.max(np.abs(expl.outputs), axis=1))
    frac = float(np.mean(ytail > 0.3 / 10))
    ok &= frac >= 0.25
    verdict(8, "two-surface sampled loop: implicit slides, explicit does not",
            ok, f"{frac:.0%} of explicit tail above h/10")


def test_criterion_9_hypomonotone_scalar():
    sys = hypomonotone_system()
    ok = True
    detail = ""
    for h in (0.5, 0.1, 0.01):
        traj = simulate_newton(sys, [2.0], 0.0, 2.0 + 10 * h,
                               SchemeConfig(h=h))
        worst = 0.0
        for k in range(len(traj.times) - 1):
            xk = traj.states[k, 0]
            if abs(xk) > h:
                sg = np.sign(xk)
                pred = (xk - h * sg) / (1 + h * sg)
                worst = max(worst, abs(traj.states[k + 1, 0] - pred),
                            abs(traj.selections[k + 1, 0] - sg))
        xs = np.abs(traj.states[:, 0])
        bad = np.nonzero(xs > 1e-13)[0]
        settled = len(bad) > 0 and bad[-1] + 1 < len(xs) - 1
        if worst > 1e-12 or not settled:
            ok = False
            detail = f"h={h}: deviation {worst:.2e}, settled {settled}"
            break
    verdict(9, "hypomonotone iterates match the closed form then stick at 0",
            ok, detail)


def test_criterion_10_lyapunov_robust_control():
    sys = lyapunov_system(0.1)
    cfg = SchemeConfig(h=0.1)
    impl = simulate(lyapunov_plan(sys, cfg), [1.0], 0.0, 15.0)
    xs = np.abs(impl.states[:, 0])
    bad = np.nonzero(xs > 1e-12)[0]
    k = int(bad[-1]) + 1 if len(bad) else 0
    ok = k < len(xs) - 1
    worst = 0.0
    if ok:
        for j in range(k, len(impl.times) - 1):
            worst = max(worst, abs(impl.controls[j, 0]
                                   - 0.1 * np.sin(impl.times[j])))
        ok &= worst <= 2 * cfg.h
    expl = simulate(lyapunov_plan(sys, cfg, "explicit"), [1.0], 0.0, 15.0)
    u = analysis.tail(expl.controls[:-1, 0])
    ok &= bool(np.all(np.abs(np.abs(u) - 1.0) < 1e-12))
    ok &= float(np.mean(u[1:] * u[:-1] < 0)) >= 0.5
    verdict(10, "implicit control absorbs the disturbance, explicit chatters",
            ok, f"arrival {k}, max |u - gamma| {worst:.2e}")


def test_criterion_11_observer_based_smc():
    tau = 0.001
    sys = observer_system(k=1.0, tau=tau)
    x0 = [2.0, 0.0, 0.0, 0.0]

    def peak_of(traj):
        return float(np.max(np.abs(traj.states))) if len(traj.states) \
            else np.inf

    def euler_radius(h):
        # forward Euler drift map I + h E; the parasitic block of E has a
        # near-double eigenvalue at -1/tau, so the radius is
        # max(1, |1 - h/tau|) and exceeds 1 exactly when h > 2 tau
        return float(np.max(np.abs(np.linalg.eigvals(np.eye(4) + h * sys.E))))

    ok = True
    details = []
    stable = simulate_linear(sys, x0, 0.0, 10.0,
                             SchemeConfig(h=0.1, theta=1.0))
    peak = peak_of(stable)
    cycling = analysis.detect_period2(analysis.tail(stable.outputs[:, 0]),
                                      1e-6)
    ok &= stable.failure is None and peak <= 1e6 and not cycling
    details.append(f"theta=1 peak {peak:.1e}")
    for h in (0.1, 0.004):
        unstable = simulate_linear(sys, x0, 0.0, 10.0,
                                   SchemeConfig(h=h, theta=0.0))
        blew_up = unstable.failure is not None or peak_of(unstable) > 1e6
        radius = euler_radius(h)
        ok &= blew_up and radius > 1 + 1e-9
        details.append(f"theta=0 h={h} radius {radius:.3g} blow-up {blew_up}")
    # strictly inside the stability bound h < 2 tau; h = 2 tau is marginal
    h_small = 1.5 * tau
    small = simulate_linear(sys, x0, 0.0, 10.0,
                            SchemeConfig(h=h_small, theta=0.0))
    peak_small = peak_of(small)
    cycling = analysis.detect_period2(analysis.tail(small.outputs[:, 0]),
                                      1e-6)
    radius = euler_radius(h_small)
    ok &= small.failure is None and peak_small <= 1e6 and not cycling
    ok &= radius <= 1 + 1e-9
    details.append(f"theta=0 h={h_small:g} radius {radius:.3g} "
                   f"peak {peak_small:.1e}")
    verdict(11, "observer loop: implicit drift stable, explicit drift "
            "unstable for h > 2 tau and bounded for h < 2 tau",
            ok, "; ".join(details))
