"""Verdict lines: every registry run prints the same verdicts, detail and all.

Each of the ten experiments runs at its defaults through `cli.main`, and
every line it prints other than a "wrote" line is compared in full with a
recorded one: the mark, the experiment and property name, and the detail in
parentheses.  The explicit run of every entry that has one is pinned too,
since no default reaches an explicit check.  The golden digests guard the
trajectories; these lines guard the arrival steps, tails and drifts that the
properties derive from them.
"""

import contextlib
import io

import pytest

from multisurf import cli, experiments

DEFAULT_VERDICTS = {
    "convergence": [
        "PASS convergence:inf-norm-unity (max | |e|_inf - 1 | = 2.289e-13)",
        "PASS convergence:l1-slope-order-1 (slope 0.9452)",
    ],
    "filippov": [
        "PASS filippov:completed (completed)",
        "PASS filippov:surface0-zero-persist (arrival step 496)",
        "PASS filippov:surface1-zero-persist (arrival step 496)",
        "PASS filippov:origin-reached (final |x| = 0.000e+00)",
        "PASS filippov:selection-box (max |s| = 1.000e+00)",
    ],
    "galias2007": [
        "PASS galias2007:completed (completed)",
        "PASS galias2007:surface0-zero-persist (arrival step 8)",
        "PASS galias2007:no-period2-y0 (tail of 13 samples)",
        "PASS galias2007:selection-box (max |s| = 1.000e+00)",
    ],
    "hypomonotone": [
        "PASS hypomonotone:completed (completed)",
        "PASS hypomonotone:closed-form-match (max deviation 5.551e-17)",
        "PASS hypomonotone:finite-time-zero (exact zero from step 3)",
        "PASS hypomonotone:newton-terminates (max iterations 2)",
    ],
    "lyapunov": [
        "PASS lyapunov:completed (completed)",
        "PASS lyapunov:finite-time-zero (arrival step 8)",
        "PASS lyapunov:control-tracks-disturbance "
        "(max |u - gamma| = 2.776e-17)",
        "PASS lyapunov:selection-box (max |s| = 1.000e+00)",
    ],
    "multisurface": [
        "PASS multisurface:completed (completed)",
        "PASS multisurface:surface0-zero-persist (arrival step 10)",
        "PASS multisurface:surface1-zero-persist (arrival step 30)",
        "PASS multisurface:ordered-arrival (surface0 at 10, surface1 at 30)",
        "PASS multisurface:origin-reached (final |x| = 0.000e+00)",
        "PASS multisurface:selection-box (max |s| = 1.000e+00)",
    ],
    "observer": [
        "PASS observer:bounded (peak |x| = 1.863e+01, drift radius 1)",
        "PASS observer:no-period2-y0 (tail of 26 samples)",
        "PASS observer:selection-box (max |s| = 1.000e+00)",
    ],
    "simple": [
        "PASS simple:completed (completed)",
        "PASS simple:finite-time-zero (arrival 6, bound 6)",
        "PASS simple:selection-box (max |s| = 1.000e+00)",
    ],
    "zoh-mimo": [
        "PASS zoh-mimo:completed (completed)",
        "PASS zoh-mimo:surface0-zero-persist (arrival step 1)",
        "PASS zoh-mimo:surface1-zero-persist (arrival step 3)",
        "PASS zoh-mimo:selection-box (max |s| = 1.000e+00)",
    ],
    "zoh-siso": [
        "PASS zoh-siso:completed (completed)",
        "PASS zoh-siso:surface0-zero-persist (arrival step 5)",
        "PASS zoh-siso:selection-box (max |s| = 1.000e+00)",
    ],
}

EXPLICIT_VERDICTS = {
    ("filippov", "explicit"): [
        "PASS filippov:completed (completed)",
    ],
    ("galias2007", "explicit"): [
        "PASS galias2007:completed (completed)",
        "PASS galias2007:period2-detected-y0 (tail drift 5.551e-17)",
    ],
    ("lyapunov", "explicit"): [
        "PASS lyapunov:completed (completed)",
        "PASS lyapunov:control-chatters (97% sign flips over 38 controls)",
    ],
    ("multisurface", "explicit"): [
        "PASS multisurface:completed (completed)",
        "PASS multisurface:period2-detected-y0 (tail drift 0.000e+00)",
    ],
    ("observer", "explicit"): [
        "PASS observer:unstable-expected "
        "(peak |x| = 9.610e+13, drift radius 99)",
    ],
    ("simple", "explicit"): [
        "PASS simple:completed (completed)",
        "PASS simple:period2-detected-y0 (tail drift 0.000e+00)",
    ],
    ("zoh-mimo", "explicit"): [
        "PASS zoh-mimo:completed (completed)",
        "PASS zoh-mimo:recurrent-deviation (100% of tail above h/10)",
    ],
    ("zoh-siso", "explicit"): [
        "PASS zoh-siso:completed (completed)",
        "PASS zoh-siso:period2-detected-y0 (tail drift 2.578e-07)",
    ],
}


def _verdicts(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    lines = [ln for ln in buf.getvalue().splitlines()
             if not ln.startswith("wrote ")]
    return code, lines


def test_verdicts_cover_the_registry():
    assert sorted(DEFAULT_VERDICTS) == sorted(experiments.REGISTRY)


@pytest.mark.parametrize("name", sorted(DEFAULT_VERDICTS))
def test_default_verdict_lines(name, tmp_path):
    code, lines = _verdicts(["run", name, "--out", str(tmp_path)])
    assert (code, lines) == (0, DEFAULT_VERDICTS[name])


@pytest.mark.parametrize("name, scheme", sorted(EXPLICIT_VERDICTS))
def test_explicit_verdict_lines(name, scheme, tmp_path):
    code, lines = _verdicts(["run", name, "--scheme", scheme,
                             "--out", str(tmp_path)])
    assert (code, lines) == (0, EXPLICIT_VERDICTS[name, scheme])
