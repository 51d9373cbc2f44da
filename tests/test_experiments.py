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

    def test_drift_radius_implicit_is_one(self):
        E = observer_system(tau=0.001).E
        for h in (0.1, 0.004):
            assert abs(experiments._drift_radius(E, h, 1.0) - 1.0) <= 1e-12
