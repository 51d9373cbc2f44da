"""multisurf benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload scalar-long --seed 1 --seconds 25 \
        --trace 0

Run it from the repository root; the library is imported from `src/`.  The
load is a closed loop in one process: each job starts when the previous one
has returned, and the benchmark starts no threads (the registry's
convergence sweep starts its own thread pool).  Every job's outputs are
checked outside the timed region; a job fails on a step failure, a
non-finite value, |s| > 1 + 1e-8, a certified residual above 1e-8, or a
registry verdict or exit code that differs from `registry_verdicts.json`.

`--trace 0` prints the end-to-end metrics; their times are reference times,
scaled to the host's speed around each timed call (see `timed_calls`).
`--trace 1` alternates untraced and traced jobs and prints the per-layer
metrics taken from the traced ones (see tracer.py), plus the tracing
overhead.  The last line of standard
output is one JSON object; the line before it reports job-time
percentiles, failures and the environment.
The exit code is 0 only when every job passed; a broken set-up exits 2
without a result.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  imported before the timed set-up

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("mlcp", "integrators", "controllers", "analysis", "experiments",
           "cli", "systems")
PIVOT_SIZES = (1, 2, 4, 8, 12)
# The calibration loop runs before and after every timed call, and the
# call's time is scaled to a host on which the loop takes CAL_REF_S (about
# its fast-mode time on the host the benchmark was defined on).  See
# `timed_calls`.
CAL_N = 500
CAL_REF_S = 7.0e-3
CAL_A = np.eye(6) + 0.1
CAL_B = np.ones(6)
RUNNERS = ("run_simple", "run_convergence", "run_galias2007",
           "run_multisurface", "run_filippov", "run_zoh_siso", "run_zoh_mimo",
           "run_lyapunov", "run_observer", "run_hypomonotone")


def import_library():
    """Import multisurf afresh from src/ and return its modules by name."""
    for name in [n for n in sys.modules
                 if n == "multisurf" or n.startswith("multisurf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("multisurf")
    if Path(pkg.__file__).resolve().parent != SRC / "multisurf":
        raise RuntimeError(f"multisurf imported from {pkg.__file__}, "
                           f"not from {SRC}")
    lib = {"multisurf": pkg}
    for name in MODULES:
        lib[name] = importlib.import_module(f"multisurf.{name}")
    return types.SimpleNamespace(**lib)


def spin_ms():
    """A fixed pure-Python loop, timed to track the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1_000_000):
        acc += k & 7
    return (time.perf_counter() - t0) * 1e3


def calibrate():
    """Time a fixed loop shaped like the library's work: small dense solves
    through numpy and LAPACK between stretches of pure-Python arithmetic."""
    t0 = time.perf_counter()
    x, acc = CAL_B, 0
    for _ in range(CAL_N):
        x = np.linalg.solve(CAL_A, CAL_B) + 0.5 * x
        for k in range(200):
            acc += k & 7
    return time.perf_counter() - t0


def timed_calls(calls):
    """Run each call in turn; return the results, the wall times and the
    reference times.

    The shared host the benchmark was defined on runs the same code up to
    2x slower from one moment to the next (the loop of `host.spin_ms` took
    39 to 86 ms), and two sets of runs of one commit saw different mixes
    of fast and slow time.  The reference time of a call is its wall time
    divided by the host's slowdown measured around it: the calibration
    loop's mean time just before and just after the call, over CAL_REF_S.
    Consecutive calls share the loop run between them.
    """
    outs, walls, cals = [], [], [calibrate()]
    for call in calls:
        t0 = time.perf_counter()
        outs.append(call())
        walls.append(time.perf_counter() - t0)
        cals.append(calibrate())
    refs = [w * 2 * CAL_REF_S / (a + b)
            for w, a, b in zip(walls, cals, cals[1:])]
    return outs, walls, refs


def set_up(workload, seed):
    """Import the library, generate the inputs and build the workload.

    Returns the library, the workload and the set-up's reference time.
    """
    def build():
        lib = import_library()
        return lib, WORKLOADS[workload](lib, seed)

    [(lib, wl)], _, [ref] = timed_calls([build])
    return lib, wl, ref


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(lib, spin):
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "multisurf.COMPILED": getattr(lib.multisurf, "COMPILED", None),
            "host.spin_ms": spin}


def expected_names(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_job(wl, i, tracer=None):
    """Run and check job i, timing each part on its own.

    Returns (keys, walls, refs, steps, problems), one entry of `walls`,
    `refs` (see `timed_calls`) and `steps` per part; `steps` is None when
    the job raised.
    """
    keys, calls = zip(*wl.parts(i))
    walls, refs = [], []
    if tracer is not None:
        tracer.install()
    try:
        try:
            outs, walls, refs = timed_calls(calls)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.fold(tracer.jobs)
        steps, problems = wl.check(i, outs)
    except Exception:  # a job that raises is a failed job; keep measuring
        return keys, walls, refs, None, [traceback.format_exc(limit=3)]
    return keys, walls, refs, steps, problems


def steps_per_ref_s(parts):
    """Steps of one job over its reference time, each part at its median.

    `parts` maps a part key to the (reference seconds, steps) of that part
    in every passing untraced job.
    """
    if not parts:  # every job failed
        return 0.0
    steps = sum(statistics.median(n for _, n in v) for v in parts.values())
    secs = sum(statistics.median(t for t, _ in v) for v in parts.values())
    return steps / secs


def layer_metrics(tr, jobs, steps, overhead, spin):
    """Per-layer metrics from the traced jobs; see README.md."""
    t = tr.jobs
    n = max(jobs, 1)

    def self_us(label):
        calls = t.calls.get(label, 0)
        return t.self_ns.get(label, 0) / calls / 1e3 if calls else 0.0

    def self_ms_per_job(*labels):
        return sum(t.self_ns.get(k, 0) for k in t.self_ns
                   if tracing.base_label(k) in labels) / n / 1e6

    enc_calls = t.calls.get("mlcp.from_sign_step", 0)
    enc_ns = t.self_ns.get("mlcp.from_sign_step", 0) + t.self_ns.get(
        "mlcp.SignStepProblem", 0)
    solves = t.calls_of("mlcp.solve")
    zoh_calls = (t.calls.get("integrators.zoh_discretize", 0)
                 + tr.setup.calls.get("integrators.zoh_discretize", 0))
    zoh_ns = (t.incl_ns.get("integrators.zoh_discretize", 0)
              + tr.setup.incl_ns.get("integrators.zoh_discretize", 0))
    sweep_ns = t.incl_ns.get(tracing.SWEEP_LABEL, 0)
    iters = t.newton_iters
    out = {
        "mlcp.encode.self_us": enc_ns / enc_calls / 1e3 if enc_calls else 0.0,
        "mlcp.certify.self_us": self_us("mlcp.certify"),
    }
    for m in PIVOT_SIZES:
        out[f"mlcp.solve_pivoting.self_us.m{m}"] = self_us(
            ("mlcp.solve_pivoting", m))
    for m in PIVOT_SIZES:
        out[f"mlcp.solve.calls.m{m}"] = t.calls.get(("mlcp.solve", m), 0) / n
    out.update({
        "mlcp.solve_psor.calls": t.calls.get("mlcp.solve_psor", 0) / n,
        "mlcp.solve_enumerative.calls":
            t.calls.get("mlcp.solve_enumerative", 0) / n,
        "mlcp.fallback_ratio": t.fallbacks / solves if solves else 0.0,
        "mlcp.residual_max": t.residual_max,
        "integrators.step_linear.self_us": self_us("integrators.step_linear"),
        "integrators.simulate.self_us_per_step":
            t.self_ns.get("integrators.simulate", 0) / max(steps, 1) / 1e3,
        "integrators.step_newton.self_us": self_us("integrators.step_newton"),
        "integrators.newton_iters.mean":
            sum(iters) / len(iters) if iters else 0.0,
        "integrators.Trajectory.to_csv.self_ms":
            self_ms_per_job("integrators.Trajectory.to_csv"),
        "integrators.Trajectory.to_csv.bytes": t.csv_bytes / n,
        "integrators.zoh_discretize.ms":
            zoh_ns / zoh_calls / 1e6 if zoh_calls else 0.0,
        "controllers.ecb_step.self_us": self_us("controllers.ecb_step"),
        "controllers.lyapunov_control_step.self_us":
            self_us("controllers.lyapunov_control_step"),
        "analysis.self_ms": self_ms_per_job(*[
            f"analysis.{f}" for f in tracing.FUNCTIONS["analysis"]]),
    })
    for name in RUNNERS:
        out[f"experiments.{name}.ms"] = t.incl_ns.get(
            f"experiments.{name}", 0) / n / 1e6
    out.update({
        "experiments.run_convergence.busy_over_wall":
            t.incl_ns.get(tracing.WORKER_LABEL, 0) / sweep_ns
            if sweep_ns else 0.0,
        "cli.main.self_ms": self_ms_per_job("cli.main"),
        "trace.overhead_frac": overhead,
        "trace.min_self_us": t.min_self_ns / 1e3,
        "host.spin_ms": spin,
    })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "multisurf" / "__init__.py").is_file():
        print(f"error: no multisurf sources under {SRC}", file=sys.stderr)
        return 2
    names = expected_names(args.trace)
    sys.path.insert(0, str(SRC))
    spin = statistics.median(spin_ms() for _ in range(3))

    lib, wl, first_setup = set_up(args.workload, args.seed)
    setup_s = [first_setup]
    tracer = None
    if args.trace:
        # one more set-up, traced, for the layers that run during set-up
        tracer = tracing.Tracer({m: getattr(lib, m) for m in MODULES})
        tracer.install()
        try:
            wl.close()
            wl = WORKLOADS[args.workload](lib, args.seed)
        finally:
            tracer.uninstall()
        tracer.fold(tracer.setup)

    times = {False: [], True: []}  # job wall seconds, summed over parts
    steps = {False: 0, True: 0}
    parts = {}  # part key -> (reference seconds, steps), untraced and passed
    failures = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    try:
        while i < 2 or time.perf_counter() < deadline:
            if i and not args.trace:
                # set up again before every job, so that the median set-up
                # time samples the host over the whole run, not one moment
                wl.close()
                lib, wl, dt = set_up(args.workload, args.seed)
                setup_s.append(dt)
            traced = bool(args.trace) and i % 2 == 1
            gc.collect()
            keys, walls, refs, n_steps, problems = run_job(
                wl, i, tracer if traced else None)
            times[traced].append(sum(walls))
            if problems:
                failures.append({"job": i, "problems": problems})
            else:
                steps[traced] += sum(n_steps)
                if not traced:
                    for key, ref, n in zip(keys, refs, n_steps):
                        parts.setdefault(key, []).append((ref, n))
            i += 1
    finally:
        wl.close()

    attempted = i
    untraced = times[False]
    if args.trace:
        overhead = (statistics.median(times[True])
                    / statistics.median(untraced) - 1.0)
        metrics = layer_metrics(tracer, len(times[True]), steps[True],
                                overhead, spin)
        trace_ok = tracer.jobs.min_self_ns >= 0
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "steps_per_s": steps_per_ref_s(parts),
            "jobs_ok_frac": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        trace_ok = True
    correct = not failures and trace_ok
    report = {"workload": args.workload, "seed": args.seed,
              "jobs": attempted, "traced_jobs": len(times[True]),
              "failed_frac": len(failures) / attempted,
              "job_s_p50": statistics.median(untraced),
              "job_s_p90": float(np.percentile(untraced, 90)),
              "job_s_min": min(untraced),
              "steps_per_wall_s": steps[False] / sum(untraced),
              "failures": failures[:5], "trace_ok": trace_ok,
              "env": environment(lib, spin)}
    if set(metrics) != set(names):
        raise RuntimeError("metric names differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(names))}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": names[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # set-up or reporting broke: no result, exit 2
        traceback.print_exc()
        sys.exit(2)
