from unittest import mock

import numpy as np
import pytest

from multisurf import experiments
from multisurf.experiments import observer_system, run_experiment

BOUNDED = ["bounded", "no-period2-y0", "selection-box"]


def names(result):
    return [p.name for p in result.properties]


class TestObserverStabilityRule:
    def test_defaults_keep_their_properties(self):
        res = run_experiment("observer")
        assert names(res) == BOUNDED
        assert res.all_passed

    def test_explicit_drift_above_two_tau_blows_up(self):
        res = run_experiment("observer", {"theta": 0.0, "h": 0.004})
        assert names(res) == ["unstable-expected"]
        assert res.all_passed

    def test_explicit_drift_with_slow_parasitics_is_bounded(self):
        res = run_experiment("observer", {"theta": 0.0, "h": 0.1,
                                          "tau": 0.1})
        assert names(res) == BOUNDED
        assert res.all_passed

    def test_explicit_scheme_counts_as_theta_zero(self):
        res = run_experiment("observer", {"scheme": "explicit", "h": 0.004})
        assert names(res) == ["unstable-expected"]
        assert res.all_passed

    @pytest.mark.parametrize("h", [0.0005, 0.00125, 0.0015, 0.0019])
    def test_bounded_explicit_scheme_expects_chattering(self, h):
        # h < 2 tau: the drift stays bounded and the explicit sign term
        # switches on most steps; at 1.25 tau the tail of y is not a
        # period-2 cycle, so the check counts sign flips instead
        res = run_experiment("observer", {"scheme": "explicit", "h": h})
        assert names(res) == ["bounded", "chatters-y0", "selection-box"]
        assert res.all_passed

    @pytest.mark.parametrize("T, expected", [
        (1.0, BOUNDED),
        (2.1, ["bounded", "chatters-y0", "selection-box"])])
    def test_explicit_chattering_is_judged_after_the_first_crossing(
            self, T, expected):
        # from x0 = [2, 0, 0, 0] at h = 1.5 tau, y first changes sign
        # between samples 1334 and 1335: a run that stops before has nothing
        # to chatter, and one that stops 66 samples later flips on each
        res = run_experiment("observer", {"scheme": "explicit", "h": 0.0015,
                                          "T": T})
        assert names(res) == expected
        assert res.all_passed

    def test_explicit_scheme_on_the_surface_does_not_chatter(self):
        # sgn(0) = 0 keeps y at exactly 0, so there is nothing to chatter
        res = run_experiment("observer", {"scheme": "explicit", "h": 0.0015,
                                          "x0": [0.0, 0.0, 0.0, 0.0]})
        assert names(res) == BOUNDED
        assert res.all_passed
        assert not np.any(res.trajectories["traj"].outputs)

    def test_drift_radius_forward_euler(self):
        tau = 0.001
        E = observer_system(tau=tau).E
        for h in (0.1, 0.004, 0.0015, 0.0005):
            radius = experiments._drift_radius(E, h, 0.0)
            assert np.isclose(radius, max(1.0, abs(1 - h / tau)), rtol=1e-6)

    @pytest.mark.parametrize("tau", [0.0, -0.001, float("nan")])
    def test_tau_must_be_positive(self, tau):
        with pytest.raises(ValueError, match="tau must be > 0"):
            observer_system(tau=tau)

    @pytest.mark.parametrize("tau", [1e-170, 1e-160])
    def test_tau_whose_drift_is_not_finite_is_rejected(self, tau):
        # tau * tau underflows to 0 at 1e-170; 1 / tau^2 overflows at 1e-160
        with pytest.raises(ValueError, match=f"tau = {tau} is too small"):
            observer_system(tau=tau)
        assert np.all(np.isfinite(observer_system(tau=1e-150).E))

    def test_drift_radius_implicit_is_one(self):
        E = observer_system(tau=0.001).E
        for h in (0.1, 0.004):
            assert abs(experiments._drift_radius(E, h, 1.0) - 1.0) <= 1e-12


class TestBadParameters:
    @pytest.mark.parametrize("name, overrides, key", [
        ("simple", {"T": float("inf")}, "T"),
        ("galias2007", {"x0": [float("nan"), 0.0]}, "x0"),
        ("zoh-siso", {"alpha": float("nan")}, "alpha"),
        ("convergence", {"h_max": float("nan")}, "h_max"),
    ])
    def test_non_finite_parameter_is_named(self, name, overrides, key):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            run_experiment(name, overrides)

    @pytest.mark.parametrize("overrides", [
        {"h_min": 0.0}, {"h_max": -0.1}, {"points": 0}, {"points": 2},
    ])
    def test_sweep_is_checked_before_it_runs(self, overrides):
        with mock.patch.object(experiments, "_simple_error_point") as point:
            with pytest.raises(ValueError, match="the sweep needs h_min"):
                run_experiment("convergence", overrides)
        assert point.call_count == 0
