import numpy as np
import pytest

from multisurf.systems import (AffineGainSignSystem, DisturbedLinearSystem,
                               LinearSignSystem, NonlinearSignSystem,
                               check_cb_positive, output)


def example2_system():
    BC = [[1.0, 2.0], [2.0, -1.0]]
    return LinearSignSystem(n=2, m=2, E=np.zeros((2, 2)), a=[0, 0],
                            B=BC, C=BC, D=[0, 0])


class TestLinearSignSystem:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            LinearSignSystem(n=2, m=1, E=np.zeros((2, 2)), a=[0, 0],
                             B=[[1.0], [0.0]], C=[[1.0, 0.0, 0.0]], D=[0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearSignSystem(n=0, m=1, E=np.zeros((0, 0)), a=[],
                             B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=[0.0])

    def test_output_example2(self):
        sys = example2_system()
        y = output(sys, np.array([1.0, -1.0]))
        assert np.allclose(y, [-1.0, 3.0])

    def test_output_wrong_length(self):
        sys = example2_system()
        with pytest.raises(ValueError):
            output(sys, np.array([1.0, 2.0, 3.0]))

    def test_output_zero(self):
        sys = LinearSignSystem(n=2, m=2, E=np.zeros((2, 2)), a=[0, 0],
                               B=np.eye(2), C=np.eye(2), D=[0, 0])
        assert np.allclose(output(sys, np.zeros(2)), 0.0)


class TestCheckCbPositive:
    def test_example2_is_5I(self):
        rep = check_cb_positive(example2_system())
        assert np.allclose(rep.CB, 5 * np.eye(2))
        assert rep.is_positive_definite

    def test_scalar_second_order(self):
        sys = LinearSignSystem(n=2, m=1, E=[[0, 1], [0, -1]], a=[0, 0],
                               B=[[0.0], [1.0]], C=[[1.0, 1.0]], D=[0.0])
        rep = check_cb_positive(sys)
        assert rep.CB.shape == (1, 1) and rep.CB[0, 0] == 1.0
        assert rep.is_positive_definite

    def test_negative_scalar(self):
        sys = LinearSignSystem(n=1, m=1, E=[[0.0]], a=[0.0], B=[[1.0]],
                               C=[[-1.0]], D=[0.0])
        rep = check_cb_positive(sys)
        assert rep.CB[0, 0] == -1.0
        assert not rep.is_positive_definite

    def test_singular_symmetric_part(self):
        # CB + CB^T = [[49, -35], [-35, 25]] has determinant exactly 0; a
        # rounded det of its halved form came out at 4.35e-14, which a
        # leading-minor test read as positive
        sys = LinearSignSystem(n=2, m=2, E=np.zeros((2, 2)), a=[0, 0],
                               B=[[24.5, -23.5], [-11.5, 12.5]], C=np.eye(2),
                               D=[0, 0])
        rep = check_cb_positive(sys)
        assert rep.CB.tolist() == [[24.5, -23.5], [-11.5, 12.5]]
        assert not rep.is_positive_definite


def smooth_nonlinear_system():
    def f(x, t):
        return np.array([np.sin(x[0]) + x[1], x[0] * x[1]])

    def f_jac(x, t):
        return np.array([[np.cos(x[0]), 1.0], [x[1], x[0]]])

    def g(x):
        return np.array([[1.0 + x[0] ** 2], [np.cos(x[1])]])

    def g_jac(x):
        T = np.zeros((2, 1, 2))
        T[0, 0, 0] = 2 * x[0]
        T[1, 0, 1] = -np.sin(x[1])
        return T

    def h(x):
        return np.array([x[0] + np.exp(x[1]) - 1.0])

    def h_jac(x):
        return np.array([[1.0, np.exp(x[1])]])

    return NonlinearSignSystem(n=2, m=1, f=f, f_jac=f_jac, g=g, g_jac=g_jac,
                               h=h, h_jac=h_jac)


class TestNonlinearSignSystem:
    def test_shapes(self):
        sys = smooth_nonlinear_system()
        x = np.array([0.3, -0.2])
        assert sys.gain(x).shape == (2, 1)
        assert sys.gain_jac(x).shape == (2, 1, 2)
        assert sys.surface(x).shape == (1,)
        assert sys.surface_jac(x).shape == (1, 2)

    def test_jacobians_match_finite_differences(self):
        sys = smooth_nonlinear_system()
        rng = np.random.default_rng(7)
        d = 1e-6
        for _ in range(5):
            x = rng.uniform(-1, 1, size=2)
            for p in range(2):
                e = np.zeros(2)
                e[p] = d
                fd_f = (sys.f(x + e, 0.0) - sys.f(x - e, 0.0)) / (2 * d)
                assert np.allclose(fd_f, sys.f_jac(x, 0.0)[:, p],
                                   rtol=1e-5, atol=1e-7)
                fd_g = (sys.gain(x + e) - sys.gain(x - e)) / (2 * d)
                assert np.allclose(fd_g, sys.gain_jac(x)[:, :, p],
                                   rtol=1e-5, atol=1e-7)
                fd_h = (sys.surface(x + e) - sys.surface(x - e)) / (2 * d)
                assert np.allclose(fd_h, sys.surface_jac(x)[:, p],
                                   rtol=1e-5, atol=1e-7)

    def test_negative_rho_rejected(self):
        base = smooth_nonlinear_system()
        with pytest.raises(ValueError):
            NonlinearSignSystem(n=2, m=1, f=base.f, f_jac=base.f_jac,
                                g=base.g, g_jac=base.g_jac, h=base.h,
                                h_jac=base.h_jac, rho=-1.0)


class TestAffineGainSignSystem:
    def test_gain_and_surface(self):
        zero = np.zeros(1)
        sys = AffineGainSignSystem(
            n=1, m=1, A_list=([[1.0]],), B_list=([1.0],), C_rows=([1.0],),
            D=[0.0], f=lambda x, t: zero, f_jac=lambda x, t: np.zeros((1, 1)))
        x = np.array([2.0])
        assert sys.gain(x)[0, 0] == 3.0
        assert sys.gain_jac(x)[0, 0, 0] == 1.0
        assert sys.surface(x)[0] == 2.0
        assert sys.rho == 0.0

    def test_constant_jacobians_are_built_once_and_read_only(self):
        A = ([[0.2, 0.0], [0.1, -0.1]], [[0.0, 0.1], [-0.2, 0.3]])
        B = ([1.0, 0.2], [-0.1, 0.8])
        sys = AffineGainSignSystem(
            n=2, m=2, A_list=A, B_list=B, C_rows=([1.0, 0.5], [-0.3, 1.0]),
            D=[0.05, -0.1], f=lambda x, t: np.zeros(2),
            f_jac=lambda x, t: np.zeros((2, 2)))
        x = np.array([0.7, -1.3])
        assert sys.gain_jac(x) is sys.gain_jac(-x)
        assert sys.surface_jac(x) is sys.surface_jac(-x)
        assert np.array_equal(sys.gain_jac(x),
                              np.stack(np.asarray(A), axis=1))
        assert np.array_equal(sys.surface_jac(x), [[1.0, 0.5], [-0.3, 1.0]])
        for jac in (sys.gain_jac(x), sys.surface_jac(x)):
            with pytest.raises(ValueError):
                jac[0, 0] = 1.0
        ref = np.column_stack([np.asarray(a) @ x + b for a, b in zip(A, B)])
        assert sys.gain(x).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("drift", [
        {"f": lambda x, t: np.zeros(1)},
        {"f_jac": lambda x, t: np.zeros((1, 1))},
    ])
    def test_f_and_f_jac_come_together(self, drift):
        # neither means no smooth drift; one alone is a mistake
        args = dict(n=1, m=1, A_list=([[1.0]],), B_list=([1.0],),
                    C_rows=([1.0],), D=[0.0])
        sys = AffineGainSignSystem(**args)
        assert sys.f is None and sys.f_jac is None
        with pytest.raises(ValueError, match="f and f_jac"):
            AffineGainSignSystem(**args, **drift)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="^rho must be >= 0$"):
            AffineGainSignSystem(n=1, m=1, A_list=([[1.0]],), B_list=([1.0],),
                                 C_rows=([1.0],), D=[0.0], rho=-0.1)

    def test_length_mismatch(self):
        zero = np.zeros(1)
        with pytest.raises(ValueError):
            AffineGainSignSystem(
                n=1, m=2, A_list=([[1.0]],), B_list=([1.0],),
                C_rows=([1.0],), D=[0.0, 0.0], f=lambda x, t: zero,
                f_jac=lambda x, t: np.zeros((1, 1)))


LINEAR_ARGS = dict(n=2, m=1, E=np.zeros((2, 2)), a=[0.0, 0.0],
                   B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[0.0])
AFFINE_ARGS = dict(n=1, m=2, A_list=([[1.0]], [[0.0]]),
                   B_list=([1.0], [0.5]), C_rows=([1.0], [-1.0]),
                   D=[0.0, 0.1], rho=0.0 + 0.2)

NONLINEAR_ARGS = dict(n=1, m=1, f=lambda x, t: -x,
                      f_jac=lambda x, t: -np.eye(1),
                      g=lambda x: np.ones((1, 1)),
                      g_jac=lambda x: np.zeros((1, 1, 1)), h=lambda x: x,
                      h_jac=lambda x: np.eye(1), rho=0.5)
DISTURBED_ARGS = dict(n=1, m=1, E=[[-1.0]], a=[0.0], B=[[1.0]], rho=[1.0],
                      P=[[1.0]], gamma=lambda t: np.zeros(1),
                      rho_bounds=[1.0])


def _with_entry(value, entry):
    """`value` (an array, or a tuple of them) with its last entry set."""
    if isinstance(value, tuple):
        return value[:-1] + (_with_entry(value[-1], entry),)
    a = np.array(value, dtype=float)
    a.flat[-1] = entry
    return a


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls, args, name", [
    *[(LinearSignSystem, LINEAR_ARGS, name)
      for name in ("E", "a", "B", "C", "D")],
    *[(AffineGainSignSystem, AFFINE_ARGS, name)
      for name in ("A_list", "B_list", "C_rows", "D", "rho")],
    (NonlinearSignSystem, NONLINEAR_ARGS, "rho"),
    *[(DisturbedLinearSystem, DISTURBED_ARGS, name)
      for name in ("E", "a", "B", "rho", "P", "rho_bounds")]])
def test_non_finite_system_data_is_named(cls, args, name, entry):
    # a NaN rho passed `r < 0` and the run failed at step 0 with a NaN dump;
    # an infinite nonlinear rho failed step 0 as an infeasible MLCP, and a
    # NaN P passed both the symmetry test and the Cholesky factorization
    cls(**args)
    bad = {**args, name: _with_entry(args[name], entry)}
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        cls(**bad)


class TestDisturbedLinearSystem:
    def make(self, alpha=0.1):
        return DisturbedLinearSystem(
            n=1, m=1, E=[[-1.0]], a=[0.0], B=[[1.0]], rho=[1.0], P=[[1.0]],
            gamma=lambda t: np.array([alpha * np.sin(t)]), rho_bounds=[1.0])

    def test_rhs_matches_substitution(self):
        sys = self.make()
        for x in (np.array([0.5]), np.array([-2.0])):
            want = -x - np.sign(x) + 0.1 * np.sin(1.3)
            assert np.allclose(sys.rhs(x, 1.3), want)

    def test_disturbance_bound_check(self):
        sys = self.make()
        assert sys.check_disturbance_bound(np.linspace(0, 10, 50))
        loud = self.make(alpha=2.0)
        assert not loud.check_disturbance_bound(np.linspace(0, 10, 50))

    def test_p_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            DisturbedLinearSystem(
                n=1, m=1, E=[[-1.0]], a=[0.0], B=[[1.0]], rho=[1.0],
                P=[[-1.0]], gamma=lambda t: np.zeros(1), rho_bounds=[1.0])

