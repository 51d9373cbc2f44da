"""Golden digests: every registry experiment writes bit-identical CSVs.

Each of the ten experiments runs at its defaults through `cli.main`, and the
SHA-256 of every CSV it writes is compared with a recorded digest.  A change
that alters any trajectory, selection, control or convergence number by one
bit fails here.

The digests are tied to the numpy / LAPACK build they were recorded with
(numpy 2.4.6 with scipy-openblas 0.3.31 on x86-64): another BLAS or LAPACK
may round a matrix product or a solve differently and change the last digit
of a `%.17g` field without any fault in the library.
"""

import contextlib
import hashlib
import io

import pytest

from multisurf import cli, experiments

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
