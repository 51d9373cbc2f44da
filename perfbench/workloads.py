"""The four benchmark workloads: inputs from a seed, one job, its checks.

Each workload class builds its inputs and systems in `__init__` (timed as
set-up).  `parts(i)` lists job i as (key, call) pairs; the runner times each
call on its own.  Calls under one key do the same amount of work, so their
times are comparable across jobs.  `check(i, outs)` (untimed) takes the
calls' results in order and returns the number of time steps each completed
and a list of problems; an empty list means the job passed.

Every implicit step solves s in Sgn(y) with y = b - W s.  The checks
recompute that one-step problem from the recorded states and certify the
recorded (s, y) pair against it: box |s_i| <= 1, the equation b - W s = y,
and complementarity (1 - s_i) max(y_i, 0) = (1 + s_i) max(-y_i, 0) = 0.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import shutil
import types
from pathlib import Path

import numpy as np

# 1e2 * mlcp.FEAS_TOL at the commit that defined the benchmark; kept as a
# constant so that a change to the library's tolerance can not loosen it
RESIDUAL_LIMIT = 1e-8
EXACT_ZERO = 1e-12
N_INPUTS = 256

HERE = Path(__file__).resolve().parent
OUT_ROOT = HERE.parent / ".perfbench_out"  # registry CSVs, removed on exit


def sign_residual(S, Y):
    """Largest box or complementarity violation of rows s in Sgn(y)."""
    box = float(np.max(np.abs(S), initial=0.0)) - 1.0
    comp_u = np.sum((1.0 - S) * np.maximum(Y, 0.0), axis=1)
    comp_l = np.sum((1.0 + S) * np.maximum(-Y, 0.0), axis=1)
    return max(box, float(np.max(comp_u, initial=0.0)),
               float(np.max(comp_l, initial=0.0)))


def linear_residual(sys, h, states, S, Y, drive=None):
    """Certified residual of backward-Euler (theta = 1) steps of the linear
    class E x + a - B Sgn(C x + D).

    `drive` adds a per-step known input h * drive[k] to the free response.
    """
    n = sys.E.shape[0]
    Ainv = np.linalg.inv(np.eye(n) - h * sys.E)
    free = states[:-1] + h * sys.a
    if drive is not None:
        free = free + h * drive
    CA = sys.C @ Ainv
    b = free @ CA.T + sys.D
    W = h * CA @ sys.B
    eq = float(np.max(np.abs(b - S @ W.T - Y), initial=0.0))
    return max(eq, sign_residual(S, Y))


def zoh_residual(pair, C, states, S, Y):
    """Certified residual of x_{k+1} = Phi x_k - Gamma s, y = C x."""
    b = states[:-1] @ (C @ pair.Phi).T
    W = C @ pair.Gamma
    eq = float(np.max(np.abs(b - S @ W.T - Y), initial=0.0))
    return max(eq, sign_residual(S, Y))


def newton_residual(h, states, S, Y):
    """Residual of x1 - x0 + h (x1 + 1) s = 0, y = x1 (hypomonotone_system)."""
    x0, x1 = states[:-1, 0], states[1:, 0]
    eq = np.abs(x1 - x0 + h * (x1 + 1.0) * S[:, 0])
    eq = max(float(np.max(eq, initial=0.0)),
             float(np.max(np.abs(Y[:, 0] - x1), initial=0.0)))
    return max(eq, sign_residual(S, Y))


def trajectory_problems(traj, residual):
    """Failure, non-finite, and residual checks shared by all trajectories."""
    problems = []
    if traj.failure is not None:
        problems.append(f"step failure at step {traj.failure.step}: "
                        f"{traj.failure.message}")
    if not (np.all(np.isfinite(traj.states))
            and np.all(np.isfinite(traj.selections))
            and np.all(np.isfinite(traj.outputs))):
        problems.append("non-finite state, selection or output")
    elif residual > RESIDUAL_LIMIT:
        problems.append(f"certified residual {residual:.3e} above "
                        f"{RESIDUAL_LIMIT:.0e}")
    return problems


class _Workload:
    def close(self):
        """Remove what the workload wrote; most write nothing."""


# Trajectories per job on scalar-long and newton, each timed on its own
TRAJECTORIES_PER_JOB = 4


class ScalarLong(_Workload):
    """simple_system (m=1, constant W), implicit, h=1e-3, T=3."""

    H, T = 1e-3, 3.0

    def __init__(self, lib, seed):
        rng = np.random.default_rng(seed)
        self.lib = lib
        self.sys = lib.experiments.simple_system()
        self.cfg = lib.integrators.SchemeConfig(h=self.H)
        self.x0 = (rng.choice([-1.0, 1.0], N_INPUTS)
                   * rng.uniform(0.5, 2.0, N_INPUTS))

    def parts(self, i):
        sim = self.lib.integrators.simulate_linear
        return [("trajectory", functools.partial(
                    sim, self.sys, [self.x0[k % N_INPUTS]], 0.0, self.T,
                    self.cfg))
                for k in job_inputs(i)]

    def check(self, i, trajs):
        steps, problems = [], []
        for traj in trajs:
            res = linear_residual(self.sys, self.H, traj.states,
                                  traj.selections[1:], traj.outputs[1:])
            found = trajectory_problems(traj, res)
            # finite-time exact arrival: T exceeds every |x0| in the range
            if not found and abs(traj.states[-1, 0]) > EXACT_ZERO:
                found.append(f"final |x| {abs(traj.states[-1, 0]):.3e} "
                             "is not an exact zero")
            steps.append(len(traj.times) - 1)
            problems += found
        return steps, problems


def job_inputs(i):
    """Indices of the inputs used by job i."""
    return range(i * TRAJECTORIES_PER_JOB, (i + 1) * TRAJECTORIES_PER_JOB)


class MimoPivot(_Workload):
    """Synthetic LinearSignSystem, n = m in {4, 8, 12}, C = I, E = 0.

    B = I + 0.3 G / |G|_2 with Gaussian G: non-symmetric with a positive
    definite symmetric part, so W = h B is a P-matrix and every step has a
    unique solution.  The drift a = B d has |d_i| in [1.5, 2.5] on a seeded
    half of the surfaces, which stay saturated, and |d_i| <= 0.4 on the
    rest, which slide; a draw is kept only when the sliding selections
    predicted at steady state stay inside [-0.9, 0.9].  Pivots per step
    differ from system to system, so one job runs every system of the seed,
    each timed under its own key: the work per job then varies little from
    seed to seed.
    """

    H, T = 1e-2, 1.2
    SIZES = (4, 8, 12)
    SYSTEMS_PER_SIZE = 18
    ORACLE_MAX_M = 8  # sizes re-solved with solve_enumerative in `check`

    def __init__(self, lib, seed):
        rng = np.random.default_rng(seed)
        self.lib = lib
        self.seed = seed
        self.cfg = lib.integrators.SchemeConfig(h=self.H)
        self.systems = [(m, self._system(rng, m)) for m in self.SIZES
                        for _ in range(self.SYSTEMS_PER_SIZE)]
        self.x0 = [rng.uniform(-0.3, 0.3, (N_INPUTS, m))
                   for m, _ in self.systems]

    def _system(self, rng, m):
        while True:
            G = rng.standard_normal((m, m))
            B = np.eye(m) + 0.3 * G / np.linalg.norm(G, 2)
            try:
                np.linalg.cholesky(0.5 * (B + B.T))
            except np.linalg.LinAlgError:
                raise RuntimeError("generated B has a symmetric part that "
                                   "is not positive definite") from None
            sat = np.zeros(m, dtype=bool)
            sat[rng.permutation(m)[:m // 2]] = True
            d = rng.uniform(-0.4, 0.4, m)
            d[sat] = (rng.choice([-1.0, 1.0], sat.sum())
                      * rng.uniform(1.5, 2.5, sat.sum()))
            S, U = ~sat, sat
            s_slide = d[S] + np.linalg.solve(
                B[np.ix_(S, S)], B[np.ix_(S, U)] @ (d[U] - np.sign(d[U])))
            if np.max(np.abs(s_slide)) <= 0.9:
                return self.lib.systems.LinearSignSystem(
                    n=m, m=m, E=np.zeros((m, m)), a=B @ d, B=B,
                    C=np.eye(m), D=np.zeros(m))

    def parts(self, i):
        sim = self.lib.integrators.simulate_linear
        return [(f"system{j}", functools.partial(
                    sim, sys, x0[i % N_INPUTS], 0.0, self.T, self.cfg))
                for j, ((_, sys), x0) in enumerate(zip(self.systems, self.x0))]

    def check(self, i, trajs):
        rng = np.random.default_rng([self.seed, i])
        steps, problems = [], []
        for (m, sys), traj in zip(self.systems, trajs):
            res = linear_residual(sys, self.H, traj.states,
                                  traj.selections[1:], traj.outputs[1:])
            problems += [f"m={m}: {p}" for p in trajectory_problems(traj, res)]
            steps.append(len(traj.times) - 1)
        if problems:
            return steps, problems
        # one seeded step of one system per job, sizes m <= ORACLE_MAX_M in
        # turn: the oracle costs up to 0.2 s at m = 8
        sizes = [m for m in self.SIZES if m <= self.ORACLE_MAX_M]
        m = sizes[i % len(sizes)]
        j = self.SIZES.index(m) * self.SYSTEMS_PER_SIZE + int(
            rng.integers(self.SYSTEMS_PER_SIZE))
        traj = trajs[j]
        k = int(rng.integers(len(traj.times) - 1))
        return steps, self._oracle_mismatch(self.systems[j][1], traj, k)

    def _oracle_mismatch(self, sys, traj, k):
        mlcp, m = self.lib.mlcp, sys.m
        b = traj.states[k] + self.H * sys.a
        prob = mlcp.MlcpProblem(dim=m, M=self.H * sys.B, q=-b,
                                l=-np.ones(m), u=np.ones(m))
        ref = mlcp.solve_enumerative(prob)
        gap = float(np.max(np.abs(ref.z - traj.selections[k + 1])))
        if ref.status == "solved" and gap <= RESIDUAL_LIMIT:
            return []
        return [f"m={m} step {k}: enumerative oracle {ref.status}, "
                f"|z - s| = {gap:.3e}"]


class Newton(_Workload):
    """hypomonotone_system through simulate_newton, h=1e-3, x0 in [0.5, 3]."""

    H, T = 1e-3, 2.0

    def __init__(self, lib, seed):
        rng = np.random.default_rng(seed)
        self.lib = lib
        self.sys = lib.experiments.hypomonotone_system()
        self.cfg = lib.integrators.SchemeConfig(h=self.H)
        self.x0 = rng.uniform(0.5, 3.0, N_INPUTS)

    def parts(self, i):
        sim = self.lib.integrators.simulate_newton
        return [("trajectory", functools.partial(
                    sim, self.sys, [self.x0[k % N_INPUTS]], 0.0, self.T,
                    self.cfg))
                for k in job_inputs(i)]

    def check(self, i, trajs):
        steps, problems = [], []
        for traj in trajs:
            res = newton_residual(self.H, traj.states, traj.selections[1:],
                                  traj.outputs[1:])
            steps.append(len(traj.times) - 1)
            problems += trajectory_problems(traj, res)
        return steps, problems


class _CsvTrajectory:
    """The columns of a trajectory CSV written by Trajectory.to_csv."""

    failure = None

    def __init__(self, path):
        with open(path) as fh:
            self._cols = fh.readline().strip().split(",")
        self._data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        self.times = self._data[:, 0]
        self.states = self._columns("x")
        self.selections = self._columns("s")
        self.outputs = self._columns("y")

    def _columns(self, prefix):
        idx = [j for j, c in enumerate(self._cols)
               if c[0] == prefix and c[1:].isdigit()]
        return self._data[:, idx]


class Registry(_Workload):
    """All ten registry experiments at their defaults through cli.main.

    The systems and controllers built here recompute each trajectory's
    one-step problems in `check`; `cli.main` builds its own.
    """

    BASELINE = HERE / "registry_verdicts.json"

    def __init__(self, lib, seed):
        exp, integ = lib.experiments, lib.integrators
        self.lib = lib
        self.out = OUT_ROOT / str(os.getpid())
        with open(self.BASELINE) as fh:
            self.baseline = json.load(fh)
        self.names = list(exp.REGISTRY)
        if sorted(self.names) != sorted(self.baseline):
            raise RuntimeError("registry experiments differ from "
                               f"{self.BASELINE.name}")
        p = {n: exp.REGISTRY[n].defaults for n in self.names}
        conv = p["convergence"]
        hs = np.logspace(np.log10(conv["h_min"]), np.log10(conv["h_max"]),
                         conv["points"])
        self.sweep_steps = sum(integ.grid_steps(0.0, conv["T"], h) for h in hs)
        ecb = {name: lib.controllers.EcbSmcController(
                   *data, alpha=p[name]["alpha"], h=p[name]["h"])
               for name, data in (("zoh-siso", exp.zoh_siso_data()),
                                  ("zoh-mimo", exp.zoh_mimo_data()))}
        linear = {"simple": exp.simple_system(),
                  "galias2007": exp.galias2007_system(),
                  "multisurface": exp.multisurface_system(),
                  "filippov": exp.filippov_system(),
                  "observer": exp.observer_system(k=p["observer"]["k"],
                                                  tau=p["observer"]["tau"])}
        lyap = exp.lyapunov_system(alpha=p["lyapunov"]["alpha"])
        self.residual = {name: self._linear_check(sys, p[name]["h"])
                         for name, sys in linear.items()}
        for name, ctl in ecb.items():
            self.residual[name] = (lambda t, ctl=ctl: zoh_residual(
                ctl.pair, ctl.C, t.states, t.selections[1:], t.outputs[1:]))
        self.residual["lyapunov"] = self._lyapunov_check(lyap,
                                                         p["lyapunov"]["h"])
        self.residual["hypomonotone"] = (lambda t: newton_residual(
            p["hypomonotone"]["h"], t.states, t.selections[1:],
            t.outputs[1:]))

    @staticmethod
    def _linear_check(sys, h):
        return lambda t: linear_residual(sys, h, t.states, t.selections[1:],
                                         t.outputs[1:])

    @staticmethod
    def _lyapunov_check(sys, h):
        """The Lyapunov loop as a linear system in s with a sampled input."""
        as_linear = types.SimpleNamespace(
            E=sys.E, a=sys.a, B=sys.B @ np.diag(sys.rho),
            C=sys.surface_matrix(), D=np.zeros(sys.m))

        def check(t):
            drive = np.array([sys.B @ sys.disturbance(tk)
                              for tk in t.times[:-1]])
            return linear_residual(as_linear, h, t.states, t.selections[1:],
                                   t.outputs[1:], drive=drive)
        return check

    def parts(self, i):
        return [(name, functools.partial(self._run, name))
                for name in self.names]

    def _run(self, name):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(
                ["run", name, "--out", str(self.out / name)])
        return code, buf.getvalue()

    def check(self, i, outs):
        codes = {name: code for name, (code, _) in zip(self.names, outs)}
        verdicts = {name: [] for name in self.names}
        for _, text in outs:
            for line in text.splitlines():
                mark, _, rest = line.partition(" ")
                if mark in ("PASS", "FAIL"):
                    name, _, prop = rest.partition(":")
                    verdicts.setdefault(name, []).append(
                        f"{mark} {prop.split(' (')[0]}")
        steps, problems = [], []
        for name in self.names:
            want = self.baseline[name]
            if codes[name] != want["exit"] or verdicts[name] != want["verdicts"]:
                problems.append(f"{name}: exit {codes[name]} and verdicts "
                                f"{verdicts[name]} differ from the baseline")
            steps.append(self.sweep_steps if name == "convergence" else 0)
            for path in sorted((self.out / name).glob("*.csv")):
                if name == "convergence":
                    continue
                traj = _CsvTrajectory(path)
                steps[-1] += len(traj.times) - 1
                res = self.residual[name](traj)
                problems += [f"{name}/{path.name}: {p}"
                             for p in trajectory_problems(traj, res)]
        return steps, problems

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_ROOT.rmdir()  # only when no other run still uses it


WORKLOADS = {"scalar-long": ScalarLong, "mimo-pivot": MimoPivot,
             "newton": Newton, "registry": Registry}
