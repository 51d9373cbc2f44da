import numpy as np
import pytest

from multisurf import mlcp
from multisurf.controllers import (EcbSmcController, iec_control,
                                   simulate_ecb, simulate_lyapunov)
from multisurf.experiments import (lyapunov_system, zoh_mimo_data,
                                   zoh_siso_data)
from multisurf.integrators import SchemeConfig, zoh_discretize


class TestIecControl:
    def test_saturation(self):
        assert iec_control(5.0, 0.2) == -1.0

    def test_zero(self):
        assert iec_control(0.0, 0.2) == 0.0

    def test_inside_band(self):
        assert np.isclose(iec_control(0.1, 0.2), -0.5)

    def test_bad_h(self):
        with pytest.raises(ValueError):
            iec_control(1.0, 0.0)
        with pytest.raises(ValueError):
            iec_control(1.0, float("nan"))

    def test_equals_negated_mlcp_selection(self):
        # the control is minus the one-step selection of the scalar system
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-3, 3)
            h = rng.uniform(0.01, 1.0)
            sol = mlcp.solve_enumerative(mlcp.encode([[h]], [x]))
            assert abs(iec_control(x, h) + sol.z[0]) <= 1e-12


class TestEcbSmc:
    def test_invalid_alpha(self):
        F, G, C = zoh_siso_data()
        with pytest.raises(ValueError):
            EcbSmcController(F=F, G=G, C=C, alpha=0.0, h=0.3)

    def test_pair_is_derived_not_passed(self):
        F, G, C = zoh_siso_data()
        ctl = EcbSmcController(F=F, G=G, C=C, alpha=2.0, h=0.3)
        ref = zoh_discretize(F, G, C, 0.3, alpha=2.0)
        assert ctl.pair.Phi.tobytes() == ref.Phi.tobytes()
        assert ctl.pair.Gamma.tobytes() == ref.Gamma.tobytes()
        with pytest.raises(TypeError):
            EcbSmcController(F=F, G=G, C=C, alpha=2.0, h=0.3, pair=ref)

    def test_x0_length_is_checked(self):
        ctl = EcbSmcController(*zoh_siso_data(), alpha=1.0, h=0.3)
        with pytest.raises(ValueError, match="^x0 must have length 2"):
            simulate_ecb(ctl, [0.55], 0.0, 1.0)

    def test_siso_implicit_reaches_surface(self):
        F, G, C = zoh_siso_data()
        ctl = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3)
        traj = simulate_ecb(ctl, [0.55, 0.55], 0.0, 15.0)
        y = np.abs(traj.outputs[:, 0])
        hits = np.nonzero(y <= 1e-12)[0]
        assert len(hits) > 0 and np.all(y[hits[0]:] <= 1e-12)

    def test_siso_explicit_period2(self):
        F, G, C = zoh_siso_data()
        ctl = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3,
                               mode="explicit")
        traj = simulate_ecb(ctl, [0.55, 0.55], 0.0, 30.0)
        tail = traj.outputs[-12:, 0]
        assert np.max(np.abs(tail[2:] - tail[:-2])) <= 1e-6

    def test_mimo_implicit_both_surfaces(self):
        F, G, C = zoh_mimo_data()
        ctl = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3)
        traj = simulate_ecb(ctl, [0.05, -0.5, 0.02], 0.0, 15.0)
        for i in range(2):
            y = np.abs(traj.outputs[:, i])
            hits = np.nonzero(y <= 1e-12)[0]
            assert len(hits) > 0 and np.all(y[hits[0]:] <= 1e-12)

    def test_selection_box_in_implicit_mode(self):
        F, G, C = zoh_siso_data()
        ctl = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3)
        traj = simulate_ecb(ctl, [0.55, 0.55], 0.0, 15.0)
        assert np.max(np.abs(traj.selections[1:])) <= 1 + 1e-9

    def test_causality_replay(self):
        # re-deriving each control from the recorded state reproduces it
        F, G, C = zoh_siso_data()
        ctl = EcbSmcController(F=F, G=G, C=C, alpha=1.0, h=0.3)
        traj = simulate_ecb(ctl, [0.55, 0.55], 0.0, 6.0)
        for k in range(len(traj.times) - 1):
            # one step of the plan, started from the recorded x_k alone
            step = simulate_ecb(ctl, traj.states[k], 0.0, ctl.h)
            assert len(step.times) == 2
            assert np.allclose(step.states[1], traj.states[k + 1], atol=1e-13)
            assert np.allclose(step.controls[0], traj.controls[k],
                               atol=1e-13)


class TestLyapunovControl:
    def test_x0_length_is_checked(self):
        with pytest.raises(ValueError, match="^x0 must have length 1"):
            simulate_lyapunov(lyapunov_system(0.1), [1.0, 2.0], 0.0, 1.0,
                              SchemeConfig(h=0.1))

    def test_implicit_reaches_zero_and_tracks(self):
        sys = lyapunov_system(0.1)
        cfg = SchemeConfig(h=0.1)
        traj = simulate_lyapunov(sys, [1.0], 0.0, 15.0, cfg)
        xs = np.abs(traj.states[:, 0])
        bad = np.nonzero(xs > 1e-12)[0]
        k = int(bad[-1]) + 1
        assert k < len(xs) - 1
        for j in range(k, len(traj.times) - 1):
            assert abs(traj.controls[j, 0]
                       - 0.1 * np.sin(traj.times[j])) <= 2 * cfg.h

    def test_zero_disturbance_equilibrium(self):
        sys = lyapunov_system(0.0)
        cfg = SchemeConfig(h=0.1)
        traj = simulate_lyapunov(sys, [0.0], 0.0, 2.0, cfg)
        assert np.all(traj.states == 0.0)
        assert np.all(traj.controls == 0.0)

    def test_explicit_chatters(self):
        sys = lyapunov_system(0.1)
        cfg = SchemeConfig(h=0.1)
        traj = simulate_lyapunov(sys, [1.0], 0.0, 15.0, cfg,
                                 scheme="explicit")
        u = traj.controls[-40:-1, 0]
        assert np.all(np.abs(np.abs(u) - 1.0) < 1e-12)
        assert np.mean(u[1:] * u[:-1] < 0) >= 0.5

    def test_single_step_identity_at_origin(self):
        sys = lyapunov_system(0.1)
        cfg = SchemeConfig(h=0.1)
        t = 2.0
        step = simulate_lyapunov(sys, [0.0], t, t + cfg.h / 2, cfg)
        assert len(step.times) == 2
        assert abs(step.states[1, 0]) <= 1e-15
        assert abs(step.controls[0, 0] - 0.1 * np.sin(t)) <= 1e-14
