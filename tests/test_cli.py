import argparse
import hashlib
import json
import subprocess
import sys
from unittest import mock

import pytest

from multisurf import cli, experiments, integrators
from tests.test_golden import DIGESTS
from tests.test_verdicts import DEFAULT_VERDICTS

# the entries whose defaults include a scheme
SCHEMED = sorted(n for n, spec in experiments.REGISTRY.items()
                 if "scheme" in spec.defaults)


def _subparsers():
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "multisurf.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestList:
    def test_ten_entries(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 10

    def test_json_form(self, capsys):
        assert cli.main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in payload} == set(experiments.REGISTRY)


class TestRun:
    def test_simple_passes(self, tmp_path, capsys):
        rc = cli.main(["run", "simple", "--h", "0.2", "--x0", "1.01",
                       "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS simple:finite-time-zero" in out
        header = (tmp_path / "traj.csv").read_text().splitlines()[0]
        assert header == "t,x0,s0,y0"

    def test_explicit_galias_period2(self, tmp_path, capsys):
        rc = cli.main(["run", "galias2007", "--h", "0.3", "--scheme",
                       "explicit", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS galias2007:period2-detected-y0" in out

    def test_observer_gain(self, tmp_path, capsys):
        rc = cli.main(["run", "observer", "--k", "0.5", "--out",
                       str(tmp_path)])
        out = capsys.readouterr().out
        res = experiments.run_experiment("observer", {"k": 0.5})
        assert rc == 0 and res.all_passed
        lines = out.splitlines()
        assert [ln for ln in lines if not ln.startswith("wrote")] == [
            f"PASS observer:{p.name}" + (f" ({p.detail})" if p.detail else "")
            for p in res.properties]
        # the gain reaches the run: its states are not the default gain's
        ref = tmp_path / "ref.csv"
        res.trajectories["traj"].to_csv(ref)
        assert (tmp_path / "traj.csv").read_bytes() == ref.read_bytes()
        experiments.run_experiment("observer").trajectories["traj"].to_csv(ref)
        assert (tmp_path / "traj.csv").read_bytes() != ref.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["--k", "-1"],
        ["--scheme", "explicit", "--h", "0.0021", "--T", "0.01"]])
    def test_short_unstable_observer_run_passes(self, argv, tmp_path, capsys):
        # a drift radius above 1 whose growth over the run stays short of
        # the blow-up threshold: no blow-up is expected, and none happens
        assert cli.main(["run", "observer", *argv, "--out",
                         str(tmp_path)]) == 0
        assert "PASS observer:bounded" in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert cli.main(["run", "nonsense", "--out", "/tmp/x"]) == 2

    def test_bad_vector_syntax(self):
        res = run_cli(["run", "simple", "--x0", "1.0;2.0"])
        assert res.returncode != 0

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = cli.main(["run", "multisurface", "--out", str(out)])
            assert rc == 0
        assert (a / "traj.csv").read_bytes() == (b / "traj.csv").read_bytes()


class TestBadInput:
    # exit 1 means a property failed; bad input exits 2 with one line on
    # stderr, as an unknown experiment does
    @pytest.mark.parametrize("argv", [
        ["run", "simple", "--h", "0"],
        ["run", "simple", "--h", "nan"],
        ["run", "simple", "--T", "nan"],
        ["run", "simple", "--x0", "1,2"],
        ["run", "zoh-siso", "--h", "-0.3"],
        ["run", "zoh-siso", "--h", "0"],
        ["run", "observer", "--tau", "0"],
        ["run", "convergence", "--points", "2"],
        ["run", "simple", "--x0", "inf"],
        ["run", "simple", "--x0", "nan"],
        ["run", "galias2007", "--x0", "nan,0"],
        ["run", "lyapunov", "--x0", "nan"],
        ["run", "zoh-siso", "--alpha", "nan"],
        ["run", "convergence", "--points", "0"],
        ["run", "convergence", "--h-min", "0"],
        ["run", "convergence", "--h-min=-1e-3"],
        ["run", "convergence", "--h-max", "0"],
        ["run", "simple", "--tau", "5"],
        ["run", "simple", "--alpha", "1"],
        ["run", "galias2007", "--tau", "0.01"],
        ["run", "simple", "--h", "1e-300"],
        ["run", "simple", "--T", "1e10", "--h", "1e-300"],
        ["run", "simple", "--T", "1e12", "--h", "1"],
        ["run", "convergence", "--h-min", "1e-9", "--h-max", "1e-9",
         "--points", "3"],
        ["run", "observer", "--tau", "1e-170"],
        ["run", "observer", "--tau", "1e-160"],
        ["run", "hypomonotone", "--x0", "1,2"],
        ["run", "zoh-siso", "--x0", "1"],
        ["run", "lyapunov", "--x0", "1,2"],
        ["run", "galias2007", "--scheme", "explicit", "--theta", "0.5"],
        ["run", "observer", "--scheme", "explicit", "--theta", "0.5"],
        ["run", "convergence", "--x0", ""],
        ["run", "convergence", "--x0", "1,2"],
        # expm of h F overflows: the sampled pair is not finite
        ["run", "zoh-mimo", "--h", "1000"],
        ["run", "zoh-siso", "--h", "1e300"],
        ["run", "observer", "--k", "-1", "--h", "1"],
    ])
    # bad input is reported before any numpy RuntimeWarning can be raised
    @pytest.mark.filterwarnings("error")
    def test_exits_2_with_an_error_line(self, argv, tmp_path, capsys):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("argv, text", [
        (["run", "simple", "--T", "1e12", "--h", "1"],
         "h = 1.0 and T = 1000000000000.0 give 1e+12 steps, more than the "
         "limit of 1000000"),
        (["run", "convergence", "--h-min", "1e-9", "--h-max", "1e-9",
          "--points", "3"], "h = 1e-09 and T = 3.0 give 3e+09 steps"),
        (["run", "observer", "--tau", "1e-170"],
         "tau = 1e-170 is too small: 1/tau^2 or 2/tau is not finite"),
        (["run", "hypomonotone", "--x0", "1,2"], "x0 must have length 1"),
        (["run", "zoh-siso", "--x0", "1"], "x0 must have length 2"),
        (["run", "lyapunov", "--x0", "1,2"], "x0 must have length 1"),
        (["run", "galias2007", "--x0", "1"], "x0 must have length 2"),
        # forward Euler never reads theta
        *[(["run", name, "--scheme", "explicit", "--theta", "0.5"],
           f"{name} takes no theta under scheme 'explicit'")
          for name in ("galias2007", "observer")],
        (["run", "convergence", "--x0", "1,2"], "x0 must have length 1"),
        (["run", "zoh-mimo", "--h", "1000"],
         "h = 1000.0 overflows the sampled pair Phi, Gamma"),
        (["run", "zoh-siso", "--h", "1e300"],
         "h = 1e+300 overflows the sampled pair Phi, Gamma"),
        (["run", "observer", "--k", "-1", "--h", "1"],
         "I - h*theta*E is singular at h = 1.0, theta = 1.0: the drift map "
         "is undefined"),
    ])
    def test_error_names_the_bad_input(self, argv, text, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err

    def test_option_the_experiment_does_not_take(self, capsys):
        assert cli.main(["run", "simple", "--tau", "5", "--alpha", "1"]) == 2
        assert capsys.readouterr().err == \
            "error: simple takes no --alpha, --tau\n"

    @pytest.mark.parametrize("name", SCHEMED)
    def test_unknown_scheme(self, name, tmp_path, capsys):
        # one spelling, implicit or explicit: any other is bad input, not a
        # quiet forward Euler run
        argv = ["run", name, "--scheme", "bogus", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'bogus'" in err
        assert not any(tmp_path.iterdir())

    # a key the runner never reads is not in its entry's defaults, so
    # setting it is rejected instead of quietly changing nothing
    @pytest.mark.parametrize("name, key, value", [
        *[(name, "gamma", "0.5") for name in
          ("simple", "convergence", "galias2007", "multisurface", "filippov",
           "zoh-siso", "zoh-mimo", "lyapunov", "observer")],
        *[(name, "theta", "0.5") for name in
          ("zoh-siso", "zoh-mimo", "convergence")],
        # E = 0: the theta blend of a zero drift is the identity
        *[(name, "theta", "0.5") for name in
          ("simple", "multisurface", "filippov")],
        ("convergence", "scheme", "explicit"),
        ("hypomonotone", "scheme", "explicit"),
        # the system has no smooth drift for theta to blend
        ("hypomonotone", "theta", "0.5"),
        ("convergence", "h", "0.05"),
    ])
    def test_key_the_runner_does_not_read(self, name, key, value, tmp_path,
                                          capsys):
        argv = ["run", name, f"--{key}", value, "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {name} takes no --{key}\n")
        assert not any(tmp_path.iterdir())

    def test_too_many_sweep_points_start_no_run(self, capsys):
        # checked before numpy builds the grid; no step size is ever run
        with mock.patch.object(integrators, "simulate",
                               side_effect=AssertionError("ran")):
            assert cli.main(["run", "convergence", "--points",
                             "100000000"]) == 2
            assert cli.main(["run", "convergence", "--points",
                             str(experiments.SWEEP_MAX_POINTS + 1)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and "3 to 100 points" in err

    def test_huge_x0_fails_without_a_traceback(self, tmp_path):
        # |x0| / h overflows; the guard stops the run at step 0
        res = run_cli(["run", "simple", "--x0", "1e308", "--out",
                       str(tmp_path)])
        assert res.returncode == 1 and res.stderr == ""
        assert "FAIL simple:completed (state magnitude exceeded guard " \
            "1e+12)" in res.stdout
        assert "FAIL simple:finite-time-zero (arrival None, bound inf)" \
            in res.stdout


class TestConvergence:
    def test_sweep_writes_table(self, tmp_path, capsys):
        # every key of the sweep has its option
        rc = cli.main(["run", "convergence", "--h-min", "1e-3", "--h-max",
                       "1e-1", "--points", "8", "--T", "3", "--x0", "1.01",
                       "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "h,inf,l1,l2"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 9
        assert lines[-1].startswith("# slopes:")
        assert "PASS convergence:l1-slope-order-1" in out


class TestGeneratedOptions:
    """`run` has one option per registry key, typed by its default."""

    def test_run_options_are_the_registry_keys(self):
        opts = {o for a in _subparsers()["run"]._actions
                for o in a.option_strings} - {"-h", "--help"}
        keys = {k for spec in experiments.REGISTRY.values()
                for k in spec.defaults}
        assert opts == {"--out"} | {"--" + k.replace("_", "-") for k in keys}

    def test_each_key_has_one_type(self):
        kinds = {}
        for spec in experiments.REGISTRY.values():
            for key, value in spec.defaults.items():
                kinds.setdefault(key, set()).add(type(value))
        assert {k: v for k, v in kinds.items() if len(v) > 1} == {}

    @pytest.mark.parametrize("name", sorted(experiments.REGISTRY))
    def test_every_default_given_as_an_option(self, name, tmp_path, capsys):
        # each default, spelled out, reaches the run unchanged: the same
        # verdict lines and the same bytes as the bare run
        argv = ["run", name, "--out", str(tmp_path)]
        for key, value in experiments.REGISTRY[name].defaults.items():
            text = (",".join(map(str, value)) if isinstance(value, list)
                    else str(value))
            argv += ["--" + key.replace("_", "-"), text]
        assert cli.main(argv) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if not ln.startswith("wrote ")]
        assert lines == DEFAULT_VERDICTS[name]
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.glob("*.csv"))}
        assert got == DIGESTS[name]


class TestParser:
    def test_parses_are_independent(self):
        # one parser serves every call in a process: an option given to
        # one call does not carry over to the next
        seen = []
        with mock.patch.object(cli, "_run_and_report",
                               lambda name, over, out: seen.append(over)):
            cli.main(["run", "simple", "--h", "0.01"])
            cli.main(["run", "simple"])
        assert seen == [{"h": 0.01}, {}]
        assert cli.build_parser() is cli.build_parser()


class TestUsage:
    def test_docstring_lists_every_option(self):
        # the module docstring is the usage text; every parser option
        # appears in its command's block, bracketed as optional
        blocks = cli.__doc__.split("\n\n")[1].split("multisurf ")[1:]
        for name, parser in _subparsers().items():
            block = next(b for b in blocks if b.startswith(name))
            for action in parser._actions:
                for opt in action.option_strings:
                    if opt not in ("-h", "--help"):
                        assert f"[{opt}" in block, (name, opt)


class TestEntryPoint:
    def test_module_invocation(self):
        res = run_cli(["list"])
        assert res.returncode == 0
        assert "hypomonotone" in res.stdout
