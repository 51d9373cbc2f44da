"""Command-line front end.

    multisurf run <name> [--h F] [--T F] [--theta F] [--gamma F]
                         [--scheme S] [--x0 v1,v2,...] [--out DIR]
                         [--tau F] [--alpha F]
    multisurf list [--json]
    multisurf convergence [--h-min F] [--h-max F] [--points N] [--out DIR]

Each run writes trajectory CSVs under out/<experiment>/run/ (override with
--out) and prints one verdict line per checked property.  Exit codes: 0 when
every property passes, 1 when one fails, 2 on bad input, an option the
experiment does not take or an unknown experiment (with the reason as
"error: ..." on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from multisurf import experiments


def _parse_vector(text):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}") from None


@functools.cache
def build_parser():
    """Built once per process: parse_args leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="multisurf",
        description="implicit time-stepping for sliding-mode systems")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a registered experiment")
    run.add_argument("name")
    run.add_argument("--h", type=float)
    run.add_argument("--T", type=float)
    run.add_argument("--theta", type=float)
    run.add_argument("--gamma", type=float)
    run.add_argument("--scheme",
                     choices=["implicit", "explicit", "zoh-implicit",
                              "zoh-explicit"])
    run.add_argument("--x0", type=_parse_vector)
    run.add_argument("--out", default=None)
    run.add_argument("--tau", type=float, help="observer parasitic constant")
    run.add_argument("--alpha", type=float, help="controller/disturbance gain")

    lst = sub.add_parser("list", help="list registered experiments")
    lst.add_argument("--json", action="store_true")

    conv = sub.add_parser("convergence", help="run the h-sweep study")
    conv.add_argument("--h-min", type=float, dest="h_min")
    conv.add_argument("--h-max", type=float, dest="h_max")
    conv.add_argument("--points", type=int)
    conv.add_argument("--out", default=None)
    return parser


def _write_outputs(result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for label, traj in result.trajectories.items():
        path = os.path.join(out_dir, f"{label}.csv")
        traj.to_csv(path)
        written.append(path)
    for fname, text in result.tables.items():
        path = os.path.join(out_dir, fname)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(path)
    return written


def _run_and_report(name, overrides, out_dir):
    try:
        result = experiments.run_experiment(name, overrides)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    out_dir = out_dir or os.path.join("out", name, "run")
    for path in _write_outputs(result, out_dir):
        print(f"wrote {path}")
    for p in result.properties:
        mark = "PASS" if p.passed else "FAIL"
        detail = f" ({p.detail})" if p.detail else ""
        print(f"{mark} {result.name}:{p.name}{detail}")
    return 0 if result.all_passed else 1


def _do_run(args, overrides):
    spec = experiments.REGISTRY.get(args.name)
    extra = [k for k in overrides if k not in spec.defaults] if spec else []
    if extra:
        print(f"error: {args.name} takes no --{extra[0]}", file=sys.stderr)
        return 2
    return _run_and_report(args.name, overrides, args.out)


def _do_list(args):
    if args.json:
        payload = [{"name": s.name, "description": s.description,
                    "defaults": s.defaults}
                   for s in experiments.REGISTRY.values()]
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(n) for n in experiments.REGISTRY)
        for spec in experiments.REGISTRY.values():
            print(f"{spec.name:<{width}}  {spec.description}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _do_list(args)
    # the options given, under their parser names (the one list of flags)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "name", "out") and v is not None}
    if args.command == "run":
        return _do_run(args, overrides)
    return _run_and_report("convergence", overrides, args.out)


if __name__ == "__main__":
    sys.exit(main())
