"""Golden digests: every registry experiment writes bit-identical CSVs.

Each of the ten experiments runs at its defaults through `cli.main`, and the
SHA-256 of every CSV it writes is compared with a recorded digest.  A change
that alters any trajectory, selection, control or convergence number by one
bit fails here.  `LIBRARY_DIGESTS` does the same for implicit library runs
that no registry default reaches: Lyapunov loops with rho != 1, the
theta = 0.5 scheme, the ZOH loop, an m = 4 P-matrix system (recorded when
a run could still pick `pivot` as its solver; the default gives the same
bytes), an m = 12 one whose every step takes the warm-started pivoting,
`filippov` to T = 20, whose warm m = 2 run takes 499 of its 10,000
steps and fills the other 9,501 rows from the fixed point it reaches, and
six outer-Newton runs beyond the scalar `hypomonotone` default: an m = 2
affine-gain system with a time-dependent drift and rho > 0 at
(theta, gamma) = (1, 1) and (0.5, 0.5), an m = 1 nonlinear system, and
three drift-free runs that reach a fixed tail -- an m = 2 affine-gain
system with rho > 0 at the same two (theta, gamma), and
`hypomonotone_system` from x0 = 2.5 with h = 1e-3 to T = 2.  Two E = 0
runs, whose step plans have Phi and L exactly I, pin the identity rule of
`integrators.step_plan`: an m = 4 system with C = I and -0.0 entries in a,
D and x0, and an m = 3 one at theta = 0.5 whose C has one nonzero entry in
each row, none of them 1.  Three flat warm runs at m = 4, 8 and 12, built
as the benchmark's `mimo-pivot` systems with E = 0, C = I and D all +0.0 or
all -0.0, pin the step that takes x_{k+1} from the warm pivot's y.

The digests are tied to the numpy / LAPACK build they were recorded with
(numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64): another BLAS or LAPACK
may round a matrix product or a solve differently and change the last digit
of a `%.17g` field without any fault in the library.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from multisurf import cli, controllers, experiments, integrators, mlcp
from multisurf.integrators import SchemeConfig
from multisurf.systems import (AffineGainSignSystem, DisturbedLinearSystem,
                               LinearSignSystem, NonlinearSignSystem)

DIGESTS = {
    "simple": {"traj.csv": "4ef7a694c571328f26684d3354a760cd"
                           "5d28684b5f1414375e827fa7cdd4699a"},
    "convergence": {"convergence.csv": "cc74ac8e8fd59f74378862dbe45edba7"
                                       "9a849d42cf10438a2e1516c76f380d89"},
    "galias2007": {"traj.csv": "280cc726328662ce2f93d0f8e17a8fce"
                               "1c3947e2f1fe5a98ed4e98123dfcb1f0"},
    "multisurface": {"traj.csv": "23aa06f1f82ed6697a7667fad7dd8cb5"
                                 "40e12b6ac95efe74e3905ce0f279d93d"},
    "filippov": {"traj.csv": "3fcfaa97dba8c70e4f1eaa3ce1d31f91"
                             "2a069d11923970b5cdc3f42976c8dd55"},
    "zoh-siso": {"traj.csv": "c12959ddb5bb02be300c3e3f22b599a3"
                             "1d27782398eea9b1cdd68b5060581661"},
    "zoh-mimo": {"traj.csv": "db6d4b0d774966610335eb6d02a35585"
                             "7253054e563de383d4fec9d60f7d1e19"},
    "lyapunov": {"traj.csv": "592a40d9ec7d571a5513748da0226f86"
                             "08d6b7ee0d0d8ca89adb2979861ca2de"},
    "observer": {"traj.csv": "d295121376b1b2714d1736dcec25ddd4"
                             "fd4b9d2908424d7c9e63d4a381eda36d"},
    "hypomonotone": {"traj.csv": "8b5acf2e4c700d5d983de5c7676df48e"
                                 "740c6916c85721414db4398819049947"},
}


def test_digests_cover_the_registry():
    assert sorted(DIGESTS) == sorted(experiments.REGISTRY)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_registry_csv_digest(name, tmp_path):
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", name, "--out", str(out)])
    assert code == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.glob("*.csv"))}
    assert got == DIGESTS[name]


def _lyapunov_rho(rho):
    sys = DisturbedLinearSystem(
        n=1, m=1, E=[[-1.0]], a=[0.0], B=[[1.0]], rho=[rho], P=[[1.0]],
        gamma=lambda t: np.array([0.1 * np.sin(t)]), rho_bounds=[rho])
    plan = controllers.lyapunov_plan(sys, SchemeConfig(h=0.1))
    return integrators.simulate(plan, [1.0], 0.0, 15.0)


def _galias_theta_half():
    res = experiments.run_experiment("galias2007", {"theta": 0.5})
    return res.trajectories["traj"]


def _zoh(data, x0, T):
    F, G, C = data
    pair = integrators.zoh_discretize(F, G, C, 0.3)
    C = np.asarray(C, dtype=float)
    plan = integrators.step_plan(0.3, pair.Phi, pair.Gamma, C,
                                 np.zeros(len(C)),
                                 solver=mlcp.sign_step_solver(C @ pair.Gamma))
    return integrators.simulate(plan, x0, 0.0, T)


def _pivot_m4():
    # C B = B has a positive definite symmetric part, so every step's W is
    # a P-matrix and the run takes the warm-started pivoting
    sys = LinearSignSystem(
        n=4, m=4,
        E=[[-0.5, 1.0, 0.0, 0.0], [0.0, -0.3, 1.0, 0.0],
           [0.0, 0.0, -0.2, 1.0], [-1.0, 0.0, 0.0, -0.4]],
        a=[0.1, -0.2, 0.05, 0.0],
        B=[[2.0, 0.5, -0.3, 0.2], [-0.4, 1.5, 0.6, -0.1],
           [0.3, -0.5, 1.8, 0.4], [0.1, 0.2, -0.6, 1.2]],
        C=np.eye(4), D=[0.0, 0.1, -0.05, 0.0])
    return integrators.simulate_linear(sys, [1.0, -0.5, 0.3, 0.8], 0.0, 3.0,
                                       SchemeConfig(h=0.01))


def _warm_m12():
    # B = I + 0.3 G / |G|_2 has a positive definite symmetric part and so has
    # W = h (I - h E)^-1 B here: all 200 steps pivot from the previous
    # step's active set, through 11 sets, saturated and sliding
    rng = np.random.default_rng(12)
    m = 12
    G = rng.standard_normal((m, m))
    B = np.eye(m) + 0.3 * G / np.linalg.norm(G, 2)
    d = rng.uniform(-0.4, 0.4, m)
    d[::2] = [2.0, -1.8, 1.6, -2.2, 1.9, -1.7]
    E = -0.2 * np.eye(m) + 0.05 * np.roll(np.eye(m), 1, axis=1)
    sys = LinearSignSystem(n=m, m=m, E=E, a=B @ d, B=B, C=np.eye(m),
                           D=np.zeros(m))
    return integrators.simulate_linear(sys, rng.uniform(-0.5, 0.5, m), 0.0,
                                       2.0, SchemeConfig(h=0.01))


def _signed_zero_m4():
    # E = 0 and C = I: every operator of the step but Gamma is exactly I
    sys = LinearSignSystem(
        n=4, m=4, E=np.zeros((4, 4)), a=[0.3, -0.0, -0.25, -0.0],
        B=[[1.0, 0.2, -0.1, 0.05], [-0.15, 1.2, 0.1, 0.0],
           [0.1, -0.2, 0.9, 0.2], [0.0, 0.1, -0.25, 1.1]],
        C=np.eye(4), D=[-0.0, 0.1, -0.0, -0.05])
    return integrators.simulate_linear(sys, [0.5, -0.0, -0.4, -0.0], 0.0,
                                       2.0, SchemeConfig(h=0.01))


def _flat_warm(m, D):
    # built as perfbench's MimoPivot builds a system: B = I + 0.3 G / |G|_2
    # has a positive definite symmetric part, half the surfaces saturate and
    # the rest slide; E = 0 and C = I make every operator of the step but
    # Gamma exactly I, with -0.0 in a and x0 and D all +0.0 or all -0.0
    rng = np.random.default_rng(m)
    G = rng.standard_normal((m, m))
    B = np.eye(m) + 0.3 * G / np.linalg.norm(G, 2)
    sat = rng.permutation(m)
    d = rng.uniform(-0.4, 0.4, m)
    d[sat[:m // 2]] = (rng.choice([-1.0, 1.0], m // 2)
                       * rng.uniform(1.5, 2.5, m // 2))
    a, x0 = B @ d, rng.uniform(-0.3, 0.3, m)
    a[sat[-1]] = x0[sat[0]] = x0[sat[-1]] = -0.0
    sys = LinearSignSystem(n=m, m=m, E=np.zeros((m, m)), a=a, B=B,
                           C=np.eye(m), D=np.full(m, D))
    return integrators.simulate_linear(sys, x0, 0.0, 2.0,
                                       SchemeConfig(h=0.01))


def _scaled_rows_m3():
    # E = 0 with C a signed, scaled permutation: C B has a positive definite
    # symmetric part, so the run pivots warm
    sys = LinearSignSystem(
        n=3, m=3, E=np.zeros((3, 3)), a=[0.3, -0.2, 0.1],
        B=[[0.2, -2.0, -0.4], [0.5, 0.1, -0.05], [0.1, -0.2, 1.0]],
        C=[[0.0, 2.0, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 1.5]],
        D=[0.1, -0.05, 0.0])
    return integrators.simulate_linear(sys, [0.4, -0.3, 0.6], 0.0, 2.0,
                                       SchemeConfig(h=0.01, theta=0.5))


def _newton_affine_m2(theta, gamma):
    # both surfaces slide (|s_i| < 1 on most steps) and the x-dependent gain
    # makes most steps take two Newton iterations
    sys = AffineGainSignSystem(
        n=2, m=2,
        A_list=([[0.2, 0.0], [0.1, -0.1]], [[0.0, 0.1], [-0.2, 0.3]]),
        B_list=([1.0, 0.2], [-0.1, 0.8]),
        C_rows=([1.0, 0.5], [-0.3, 1.0]), D=[0.05, -0.1],
        f=lambda x, t: np.array([x[1] + 0.3 * np.sin(2.0 * t),
                                 -0.5 * x[0] - 0.2 * x[1] + 0.2 * np.cos(t)]),
        f_jac=lambda x, t: np.array([[0.0, 1.0], [-0.5, -0.2]]),
        rho=0.1 + 0.2)
    return integrators.simulate_newton(
        sys, [1.0, -0.6], 0.0, 4.0,
        SchemeConfig(h=0.01, theta=theta, gamma=gamma))


def _newton_nonlinear_m1():
    # a damped pendulum pushed onto x0 + x1 = 0 by a state-dependent gain
    sys = NonlinearSignSystem(
        n=2, m=1,
        f=lambda x, t: np.array([x[1], -np.sin(x[0]) - 0.2 * x[1]]),
        f_jac=lambda x, t: np.array([[0.0, 1.0], [-np.cos(x[0]), -0.2]]),
        g=lambda x: np.array([[0.0], [1.0 + 0.5 * x[0] ** 2]]),
        g_jac=lambda x: np.array([[[0.0, 0.0]], [[x[0], 0.0]]]),
        h=lambda x: np.array([x[0] + x[1]]),
        h_jac=lambda x: np.array([[1.0, 1.0]]))
    return integrators.simulate_newton(sys, [1.2, 0.5], 0.0, 5.0,
                                       SchemeConfig(h=0.01))


def _newton_drift_free_m2(theta, gamma):
    # no smooth drift: both surfaces reach zero, the state first repeats
    # byte for byte at step 96 (theta = gamma = 1) or 83 (0.5) and the
    # state and selection together one step later
    sys = AffineGainSignSystem(
        n=2, m=2,
        A_list=([[0.5, 0.0], [0.0, 0.25]], [[0.0, 0.25], [0.5, 0.0]]),
        B_list=([1.0, 0.25], [0.25, 1.0]), C_rows=([1.0, 0.0], [0.0, 1.0]),
        D=[0.0, 0.0], rho=0.1 + 0.2)
    return integrators.simulate_newton(
        sys, [0.8, -0.6], 0.0, 2.0,
        SchemeConfig(h=0.01, theta=theta, gamma=gamma))


def _hypomonotone_long():
    # x0 = 2.5 reaches zero at t = ln(3.5) < 1.26, well before T = 2
    return integrators.simulate_newton(experiments.hypomonotone_system(),
                                       [2.5], 0.0, 2.0, SchemeConfig(h=1e-3))


NEWTON_RUNS = {
    "newton-affine-m2": lambda: _newton_affine_m2(1.0, 1.0),
    "newton-affine-m2-half": lambda: _newton_affine_m2(0.5, 0.5),
    "newton-nonlinear-m1": _newton_nonlinear_m1,
    "newton-drift-free-m2": lambda: _newton_drift_free_m2(1.0, 1.0),
    "newton-drift-free-m2-half": lambda: _newton_drift_free_m2(0.5, 0.5),
    "newton-hypomonotone-T2": _hypomonotone_long,
}

LIBRARY_RUNS = {
    "lyapunov-rho0.7": lambda: _lyapunov_rho(0.7),
    "lyapunov-rho1.3": lambda: _lyapunov_rho(1.3),
    "galias2007-theta0.5": _galias_theta_half,
    "zoh-siso-implicit": lambda: _zoh(experiments.zoh_siso_data(),
                                      [0.55, 0.55], 15.0),
    "zoh-mimo-implicit": lambda: _zoh(experiments.zoh_mimo_data(),
                                      [0.05, -0.5, 0.02], 15.0),
    "pivot-m4": _pivot_m4,
    "warm-m12": _warm_m12,
    "identity-signed-zero-m4": _signed_zero_m4,
    "identity-scaled-rows-m3-half": _scaled_rows_m3,
    "flat-warm-m4": lambda: _flat_warm(4, 0.0),
    "flat-warm-m8-signed-zero-D": lambda: _flat_warm(8, -0.0),
    "flat-warm-m12": lambda: _flat_warm(12, 0.0),
    "filippov-T20": lambda: experiments.run_experiment(
        "filippov", {"T": 20.0}).trajectories["traj"],
    **NEWTON_RUNS,
}

LIBRARY_DIGESTS = {
    "filippov-T20": ("439bfed37ed0d06eb7e8752011f2ef18"
                     "1a242d68ccf75df4cd0e2f6e3740d621"),
    "flat-warm-m12": ("bc91c3830139ae9a71450d026ca27d38"
                      "b6a10b62f5d3094321a1eae929eb9e03"),
    "flat-warm-m4": ("95ccf5e9eda9240b6187434631f0ad64"
                     "a8eb5738a06950e762f5c63ca27b79d1"),
    "flat-warm-m8-signed-zero-D": ("a735e7f027bb33ab5802974876f0e90f"
                                   "dbd2d85c60f084e058c1bffba2c922e5"),
    "galias2007-theta0.5": ("8c44290a53d3eb3923063853b682a6e6"
                            "08640bdd49fd6c1c1460aac43969f4ea"),
    "identity-scaled-rows-m3-half": ("6bc863e4696f98622ef957bd8e88d850"
                                     "9e91333a3e15263c1daf6a4df54ab0df"),
    "identity-signed-zero-m4": ("d478524f29c05798523861e588f01cbd"
                                "89163ced09bd5fa8e6a2501e298fc99a"),
    "lyapunov-rho0.7": ("73ab9455ea303097d1f57a4077aef690"
                        "29c8c7728d3d6732fdc5067d35b8e6b1"),
    "lyapunov-rho1.3": ("222aa19b36a57177ffa75406b4634265"
                        "6693fbe0daf57e17bf5d93639664fb97"),
    "newton-affine-m2": ("6472801b39a106f17b8948cd78f113d9"
                         "a4224fdf629fd80f9a28fca96248488a"),
    "newton-affine-m2-half": ("71f7890528a39a3d5cf6043658dc29a3"
                              "2ff94aa867c78a81254b0a9f6b40abda"),
    "newton-drift-free-m2": ("90076643e0ffcf8eba5df85372c4462a"
                             "858a76c7a2b8361f6ea90272793743b8"),
    "newton-drift-free-m2-half": ("adfc312a92a0cb282fe0e8d68a85f409"
                                  "e64d42b8a99b6ab9a235528a11ce18a0"),
    "newton-hypomonotone-T2": ("5962d9e6cd635742eb7bf0e4729f014f"
                               "f1144819c45f6d08fa23092f7aaa0d05"),
    "newton-nonlinear-m1": ("3fc2ee9ff84a4b093c2480e1456ea37a"
                            "4dfae969c4681f5110e5a053fa8a8edf"),
    "pivot-m4": ("07f4cadffb5c0305e16d7bc6dab285c3"
                 "d7cc4711fedf47d9289af172320b675c"),
    "warm-m12": ("6f1e7d29dda67ec401115ee3a47189e6"
                 "c0746151332b59527e68ea8447f01473"),
    "zoh-mimo-implicit": ("1c12301bac9df6fd35648d1bacfe29cf"
                          "e4058fe1d876a1625e159319b6c76eb8"),
    "zoh-siso-implicit": ("c8ea1b2754f976ffd334d2c04fbb7577"
                          "085060166c5ab0f4148bf32fa3320973"),
}


def test_library_digests_cover_the_runs():
    assert sorted(LIBRARY_DIGESTS) == sorted(LIBRARY_RUNS)
    assert set(NEWTON_RUNS) <= set(LIBRARY_DIGESTS)


@pytest.mark.parametrize("name", sorted(LIBRARY_RUNS))
def test_library_csv_digest(name, tmp_path):
    traj = LIBRARY_RUNS[name]()
    assert traj.failure is None
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        LIBRARY_DIGESTS[name]
