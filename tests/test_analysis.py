from types import SimpleNamespace

import numpy as np
import pytest

from multisurf import analysis
from multisurf.experiments import simple_selection_ref, simple_system
from multisurf.integrators import SchemeConfig, simulate_linear


class TestErrorNorms:
    def test_zero_error(self):
        t = np.arange(5) * 0.1
        rep = analysis.error_norms(t, np.sin(t), np.sin)
        assert rep.inf_norm == 0.0 and rep.l1_norm == 0.0 and rep.l2_norm == 0.0

    def test_constant_error_closed_form(self):
        h, N, c = 0.1, 40, 0.3
        t = np.arange(N + 1) * h
        rep = analysis.error_norms(t, np.full(N + 1, c), lambda s: 0.0)
        assert np.isclose(rep.inf_norm, c)
        assert np.isclose(rep.l1_norm, h * (N + 1) * c)
        assert np.isclose(rep.l2_norm, c * np.sqrt(h * (N + 1)))

    def test_selection_inf_norm_is_one(self):
        for h in (0.2, 0.05):
            traj = simulate_linear(simple_system(), [1.01], 0.0, 3.0,
                                   SchemeConfig(h=h))
            rep = analysis.error_norms(traj.times, traj.selections[:, 0],
                                       simple_selection_ref(1.01))
            assert abs(rep.inf_norm - 1.0) <= 1e-9

    def test_reference_is_called_once_on_the_grid(self):
        # one call with the whole times array; the selection reference
        # gives each row what the per-time reference gave
        t = np.arange(40) * 0.05
        calls = []

        def ref(times):
            calls.append(times)
            return simple_selection_ref(-1.01)(times)

        rep = analysis.error_norms(t, np.zeros(40), ref)
        assert len(calls) == 1 and calls[0].shape == (40,)
        old = [-1.0 if v < 1.01 else 0.0 for v in t]
        assert calls and ref(t).tolist() == old
        assert rep.l1_norm == 0.05 * sum(abs(v) for v in old)

    def test_monotone_under_domination(self):
        t = np.arange(10) * 0.1
        small = analysis.error_norms(t, 0.1 * np.ones(10), lambda s: 0.0)
        big = analysis.error_norms(t, 0.2 * np.ones(10), lambda s: 0.0)
        assert small.inf_norm <= big.inf_norm
        assert small.l1_norm <= big.l1_norm
        assert small.l2_norm <= big.l2_norm


class TestConvergenceSlope:
    def test_linear_law(self):
        hs = np.logspace(-3, -1, 6)
        slope = analysis.convergence_slope([(h, 2.7 * h) for h in hs])
        assert abs(slope - 1.0) <= 1e-12

    def test_sqrt_law(self):
        hs = np.logspace(-3, -1, 6)
        slope = analysis.convergence_slope([(h, np.sqrt(h)) for h in hs])
        assert abs(slope - 0.5) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            analysis.convergence_slope([(0.1, 1.0), (0.01, 0.0), (0.001, 1.0)])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            analysis.convergence_slope([(0.1, 1.0), (0.01, 0.1)])


class TestDetectPeriod2:
    def test_alternating_cycle(self):
        v = np.tile([0.01, -0.19], 6)
        assert analysis.detect_period2(v, 1e-9)

    def test_constant_zero_is_not_a_cycle(self):
        assert not analysis.detect_period2(np.zeros(12), 1e-9)

    def test_implicit_tail_is_clean(self):
        traj = simulate_linear(simple_system(), [1.01], 0.0, 3.0,
                               SchemeConfig(h=0.2))
        tail = analysis.tail(traj.states[:, 0])
        assert not analysis.detect_period2(tail, 1e-9)

    def test_short_tail_rejected(self):
        with pytest.raises(ValueError):
            analysis.detect_period2(np.zeros(5), 1e-9)


class TestArrivalStep:
    def test_simple_system_arrival(self):
        traj = simulate_linear(simple_system(), [1.01], 0.0, 3.0,
                               SchemeConfig(h=0.2))
        assert analysis.arrival_step(traj, 0, tol=1e-13) == 6

    def test_never_arrives_explicit(self):
        traj = simulate_linear(simple_system(), [1.01], 0.0, 3.0,
                               SchemeConfig(h=0.2), scheme="explicit")
        assert analysis.arrival_step(traj, 0, tol=1e-13) is None

    def test_starts_on_surface(self):
        traj = simulate_linear(simple_system(), [0.0], 0.0, 1.0,
                               SchemeConfig(h=0.2))
        assert analysis.arrival_step(traj, 0, tol=1e-13) == 0

    def test_exclusive_with_period2(self):
        # the two detectors never fire on the same channel
        for scheme in ("implicit", "explicit"):
            traj = simulate_linear(simple_system(), [1.01], 0.0, 3.0,
                                   SchemeConfig(h=0.2), scheme=scheme)
            arrived = analysis.arrival_step(traj, 0, tol=1e-12) is not None
            cycling = analysis.detect_period2(
                analysis.tail(traj.outputs[:, 0]), 1e-11)
            assert not (arrived and cycling)

    def test_nan_sample_has_not_arrived(self):
        # NaN fails every comparison, including `|y| <= tol`: not arrived
        nan = float("nan")
        traj = SimpleNamespace(outputs=np.array([[1.0], [0.0], [nan], [0.0],
                                                 [0.0]]))
        assert analysis.arrival_step(traj, 0) == 3
        traj.outputs[-1] = nan
        assert analysis.arrival_step(traj, 0) is None
