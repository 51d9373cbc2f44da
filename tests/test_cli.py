import argparse
import json
import subprocess
import sys

import pytest

from multisurf import cli, experiments


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
        ["convergence", "--points", "2"],
        ["run", "simple", "--x0", "inf"],
        ["run", "simple", "--x0", "nan"],
        ["run", "galias2007", "--x0", "nan,0"],
        ["run", "lyapunov", "--x0", "nan"],
        ["run", "zoh-siso", "--alpha", "nan"],
        ["convergence", "--points", "0"],
        ["convergence", "--h-min", "0"],
        ["convergence", "--h-min=-1e-3"],
        ["convergence", "--h-max", "0"],
    ])
    # bad input is reported before any numpy RuntimeWarning can be raised
    @pytest.mark.filterwarnings("error")
    def test_exits_2_with_an_error_line(self, argv, tmp_path, capsys):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())


class TestConvergence:
    def test_sweep_writes_table(self, tmp_path, capsys):
        rc = cli.main(["convergence", "--h-min", "1e-3", "--h-max", "1e-1",
                       "--points", "8", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "h,inf,l1,l2"
        assert len([ln for ln in lines if not ln.startswith("#")]) == 9
        assert lines[-1].startswith("# slopes:")
        assert "PASS convergence:l1-slope-order-1" in out


class TestUsage:
    def test_docstring_lists_every_option(self):
        # the module docstring is the usage text; every parser option
        # appears in its command's block, bracketed as optional
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        blocks = cli.__doc__.split("\n\n")[1].split("multisurf ")[1:]
        for name, parser in sub.choices.items():
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
