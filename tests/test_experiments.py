import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from multisurf import analysis, experiments
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

    @pytest.mark.parametrize("k, h", [(-1.0, 1.0), (-10.0, 0.1)])
    def test_singular_drift_is_named(self, k, h):
        # E has the eigenvalue -k = 1 / h, so I - h E is singular
        with pytest.raises(ValueError, match=r"I - h\*theta\*E is singular "
                           f"at h = {h}, theta = 1.0"):
            run_experiment("observer", {"k": k, "h": h})


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


class _Recorded(dict):
    """A parameter mapping that records every key a runner reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", sorted(experiments.REGISTRY))
def test_runner_reads_every_default(name):
    # an entry's defaults are exactly what its runner reads: a key it never
    # reads would be an override that changes nothing
    spec = experiments.REGISTRY[name]
    params = _Recorded(spec.defaults)
    assert spec.runner(params).all_passed
    assert params.read == set(spec.defaults)


class TestSimpleArrivalBound:
    """`simple`'s finite-time-zero bound on the arrival step.

    With q = |x0| / h taken exactly from the float inputs, exact arithmetic
    arrives at step ceil(q) at the latest: the implicit step saturates
    while x_k / h > 1 + FEAS_TOL, and the step after the last saturated one
    lands on 0.  In floats, take x0 > 0 (the run is odd in x0); the system
    has W = Gamma = h and b = x_k exactly, and the interior step leaves a
    residue of order u h, within arrival_step's tolerance.  A
    saturated step computes fl(x_k - h) = (x_k - h)(1 + e) with |e| <= u =
    2^-53, and x_k - h lies in (0, x0], so after k such steps the state is
    x0 - k h + E_k with |E_k| <= k u x0.  A step k saturates only if
    fl(x_k / h) > 1 + FEAS_TOL, so x_k > h (1 + FEAS_TOL) / (1 + u) > h,
    which gives k < q - 1 + E_k / h <= q - 1 + k u q, so the last saturated
    step K has K (1 - u q) < q - 1, and K < 2 q while u q <= 1/2.  Arrival
    is at K + 2 < q + 1 + K u q < q + 1 + 2 u q^2: the arrival step is at
    most ceil(q + q^2 / 2^52).  The allowance stays below 1 for q below
    about 6.7e7, above any grid of MAX_STEPS rows.
    """

    @staticmethod
    def sweep(seed, count, q_max):
        """(x0, h): x0 a few ulps from a multiple of h below q_max h,
        where rounding can carry the arrival past ceil(q)."""
        rng = np.random.default_rng(seed)
        cases = []
        for _ in range(count):
            h = float(10 ** rng.uniform(-4, 0))
            x0 = int(rng.integers(1, q_max)) * h
            for _ in range(int(rng.integers(0, 4))):
                x0 = np.nextafter(x0, rng.choice([-np.inf, np.inf]))
            cases.append((float(x0 * rng.choice([-1.0, 1.0])), h))
        return cases

    def test_bound_is_the_exact_quotient_ceiling(self):
        # 0.5 / 1e-6 rounds to 500000.0, but the float 1e-6 lies below
        # 1e-6, and the run arrives at 500001; a 1,000,000-row grid
        res = run_experiment("simple", {"x0": [0.5], "h": 1e-6, "T": 1.0})
        assert res.all_passed
        assert res.properties[1].detail == "arrival 500001, bound 500001"
        assert math.ceil(Fraction(0.5) / Fraction(1e-6)) == 500001

    def test_seeded_sweep_stays_within_the_derived_bound(self):
        past_exact = 0
        for x0, h in self.sweep(2026, 200, 20000):
            q = Fraction(abs(x0)) / Fraction(h)
            res = run_experiment("simple", {"x0": [x0], "h": h,
                                            "T": (math.ceil(q) + 5) * h})
            k = analysis.arrival_step(res.trajectories["traj"], 0)
            assert res.all_passed, (x0, h, k)
            assert k <= math.ceil(q + q * q / 2 ** 52)
            past_exact += k > math.ceil(q)
        # rounding carries some runs one step past ceil(q) (36 of these
        # 200): without the allowance they would fail
        assert past_exact > 0
