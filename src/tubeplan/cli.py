"""Command-line front end.

Subcommands mirror the library surface: plan on a sphere, plan through
a tube or the arm map, sample fibers and links, transport monodromy,
emit certificates, and run randomized verification suites. All output
is JSON (or CSV sample tables) and is byte-identical for identical
flags and seeds; wall-clock timings are deliberately left out.

Exit codes: 0 success, 1 contract failure, 2 argument/parse error,
3 lift failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import (
    AmbiguousAssignment,
    BadMargin,
    GermFileError,
    LiftFailure,
    TooFewPoints,
    Uncovered,
)
from .fibration import pullback_planner, rr_arm_workmap
from .geometry import write_path_csv
from .milnor import (
    hopf_germ,
    load_germ,
    monodromy_components,
    permutation_cycles,
    polish_to_tube,
    sample_fiber,
    sample_link,
    tube_fibration,
)
from .sphere_planner import DEFAULT_MARGIN, build_planner
from .verify import certify_sec, certify_tc, continuity_probe, run_contract_suite

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_PARSE = 2
EXIT_LIFT = 3

# Typed failures a command may raise: the stderr kind and exit code of each.
FAILURES = {
    Uncovered: ("uncovered", EXIT_CONTRACT),
    LiftFailure: ("lift_failure", EXIT_LIFT),
    TooFewPoints: ("too_few_points", EXIT_CONTRACT),
    AmbiguousAssignment: ("ambiguous_assignment", EXIT_CONTRACT),
    BadMargin: ("bad_margin", EXIT_PARSE),
    GermFileError: ("bad_germ_file", EXIT_PARSE),
}


def _parse_vec(parser: argparse.ArgumentParser, text: str, what: str) -> np.ndarray:
    try:
        v = np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError:
        parser.error(f"cannot parse {what} {text!r} as comma-separated floats")
    if not np.isfinite(v).all():
        parser.error(f"{what} {text!r} holds a value that is not finite")
    return v


def _unit_vec(parser: argparse.ArgumentParser, text: str, dim: int, what: str) -> np.ndarray:
    v = _parse_vec(parser, text, what)
    if v.shape != (dim,):
        parser.error(f"{what} must have {dim} coordinates, got {v.shape[0]}")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > 1e-6:
        parser.error(f"{what} norm {n:.9f} is more than 1e-6 off the unit sphere")
    return v / n


def _emit(args, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_path(args, payload: dict, path, samples: int) -> None:
    ts = np.linspace(0.0, 1.0, samples)
    if args.format == "csv":
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                write_path_csv(path, ts, fh)
        else:
            write_path_csv(path, ts, sys.stdout)
        return
    payload["path"] = path.to_dict()
    payload["samples"] = [
        [float(t)] + [float(v) for v in row] for t, row in zip(ts, path.sample(ts))
    ]
    _emit(args, payload)


def cmd_plan_sphere(parser, args) -> int:
    planner = build_planner(args.dim, args.margin)
    start = _unit_vec(parser, args.start, args.dim + 1, "--start")
    goal = _unit_vec(parser, args.goal, args.dim + 1, "--goal")
    idx, path = planner.plan(start, goal)
    _emit_path(
        args,
        {"region": idx, "dim": args.dim, "margin": planner.delta},
        path,
        args.samples,
    )
    return EXIT_OK


def cmd_plan_tube(parser, args) -> int:
    germ = load_germ(args.germ)
    raw = _parse_vec(parser, args.start, "--start")
    if raw.shape != (germ.n,):
        parser.error(f"--start must have {germ.n} coordinates for germ {germ.name!r}")
    try:
        start = polish_to_tube(germ, raw)
    except ValueError as ex:
        parser.error(str(ex))
    wm = tube_fibration(germ)
    planner = pullback_planner(wm, delta=args.margin)
    goal = germ.eta * np.array([math.cos(args.angle), math.sin(args.angle)])
    idx, path = planner.plan(start, goal)
    residual = float(np.linalg.norm(wm.f(path.at(1.0)) - goal))
    _emit_path(
        args,
        {
            "region": idx,
            "germ": germ.name,
            "eta": germ.eta,
            "goal": [float(g) for g in goal],
            "endpoint_residual": residual,
        },
        path,
        args.samples,
    )
    return EXIT_OK


def cmd_plan_arm(parser, args) -> int:
    wm = rr_arm_workmap()
    start = _parse_vec(parser, args.start, "--start")
    if start.shape != (2,):
        parser.error("--start must be the two joint angles")
    goal = _unit_vec(parser, args.goal, 3, "--goal")
    planner = pullback_planner(wm, delta=args.margin)
    idx, path = planner.plan(start, goal)
    residual = float(np.linalg.norm(wm.f(path.at(1.0)) - goal))
    _emit_path(
        args,
        {"region": idx, "goal": [float(g) for g in goal], "endpoint_residual": residual},
        path,
        args.samples,
    )
    return EXIT_OK


def _verify_planner(parser, args):
    picked = [
        args.sphere is not None,
        args.germ is not None,
        args.hopf,
        args.rr_arm,
    ]
    if sum(picked) != 1:
        parser.error("pick exactly one of --sphere / --germ / --hopf / --rr-arm")
    if args.sphere is not None:
        return build_planner(args.sphere, args.margin)
    if args.germ is not None:
        return pullback_planner(tube_fibration(load_germ(args.germ)), delta=args.margin)
    wm = hopf_germ() if args.hopf else rr_arm_workmap()
    return pullback_planner(wm, delta=args.margin)


def cmd_verify(parser, args) -> int:
    planner = _verify_planner(parser, args)
    probe = args.probe_region
    if probe is not None and not 1 <= probe <= len(planner.regions):
        n = len(planner.regions)
        parser.error(f"argument --probe-region: must lie in 1..{n} for this planner, got {probe}")
    report = run_contract_suite(
        planner, args.queries, seed=args.seed, knots=args.knots, deep=args.deep
    )
    out = report.to_dict()
    if probe is not None:
        out["continuity"] = continuity_probe(planner, probe, seed=args.seed)
    _emit(args, out)
    return EXIT_OK if report.passed else EXIT_CONTRACT


def cmd_fiber(parser, args) -> int:
    germ = load_germ(args.germ)
    fs = sample_fiber(germ, phi=args.angle, n_seeds=args.seeds, seed=args.seed)
    _emit(
        args,
        {
            "germ": germ.name,
            "angle": args.angle,
            "base_point": [float(v) for v in fs.base_point],
            "components": fs.n_components,
            "component_sizes": fs.component_sizes().tolist(),
            "converged": fs.n_converged,
            "n_seeds": fs.n_seeds,
            "radius": fs.radius,
            "seed": fs.seed,
        },
    )
    return EXIT_OK


def cmd_monodromy(parser, args) -> int:
    germ = load_germ(args.germ)
    fs = sample_fiber(germ, phi=args.angle, n_seeds=args.seeds, seed=args.seed)
    perm = monodromy_components(germ, fs)
    _emit(
        args,
        {
            "germ": germ.name,
            "components": fs.n_components,
            "permutation": perm.tolist(),
            "cycle_lengths": sorted(len(c) for c in permutation_cycles(perm)),
            "seed": args.seed,
        },
    )
    return EXIT_OK


def cmd_certify(parser, args) -> int:
    if (args.germ is None) == (not args.hopf):
        parser.error("pick exactly one of --germ / --hopf")
    if (args.hopf or args.quantity == "tc") and (args.seed, args.seeds) != (None, None):
        parser.error("--seed and --seeds are read only by --quantity sec on a germ")
    if args.hopf:
        if args.quantity == "sec":
            parser.error("section certificates need a plane-valued germ")
        _emit(args, certify_tc(hopf_germ()).to_dict())
        return EXIT_OK
    germ = load_germ(args.germ)
    if args.quantity == "tc":
        cert = certify_tc(germ)
    else:
        n_seeds = 1500 if args.seeds is None else args.seeds
        fs = sample_fiber(germ, n_seeds=n_seeds, seed=0 if args.seed is None else args.seed)
        cert = certify_sec(germ, fiber_components=fs.n_components)
    _emit(args, cert.to_dict())
    return EXIT_OK


def cmd_link(parser, args) -> int:
    germ = load_germ(args.germ)
    ls = sample_link(germ, n_seeds=args.seeds, seed=args.seed)
    _emit(
        args,
        {
            "germ": germ.name,
            "evidence": ls.evidence,
            "converged": int(ls.points.shape[0]),
            "n_seeds": ls.n_seeds,
            "seed": ls.seed,
        },
    )
    return EXIT_OK


def _at_least(least: int, name: str):
    """An argparse type: an int of at least `least` ("invalid <name> value" if no int)."""

    def parse(text: str) -> int:
        if (n := int(text)) < least:
            raise argparse.ArgumentTypeError(f"must be {least} or more, got {n}")
        return n

    parse.__name__ = name
    return parse


sample_count = _at_least(0, "sample_count")
positive_int = _at_least(1, "positive_int")
seed_count = _at_least(100, "seed_count")  # fewer leave a fiber too thin to cluster


def finite_float(text: str) -> float:
    if not math.isfinite(x := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {x}")
    return x


def _add_common(sp, func, *, seed: bool = False, margin: bool = False, path: bool = False):
    """The options several subcommands share, and func to run the subcommand."""
    sp.set_defaults(func=func)
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    if margin:
        sp.add_argument("--margin", type=float, default=DEFAULT_MARGIN, help="region margin delta")
    sp.add_argument("--out", default=None, help="write output to this file instead of stdout")
    if path:
        sp.add_argument("--samples", type=sample_count, default=65, help="samples along the path")
        sp.add_argument("--format", choices=("json", "csv"), default="json")


def _add_plan_sphere(sp) -> None:
    sp.add_argument("--dim", type=positive_int, required=True, help="sphere dimension m")
    sp.add_argument("--start", required=True, help="comma-separated unit vector")
    sp.add_argument("--goal", required=True, help="comma-separated unit vector")
    _add_common(sp, cmd_plan_sphere, margin=True, path=True)


def _add_plan_tube(sp) -> None:
    sp.add_argument("--germ", required=True, help="germ JSON file")
    sp.add_argument("--start", required=True, help="comma-separated tube configuration")
    sp.add_argument("--angle", type=finite_float, required=True, help="goal value angle (radians)")
    _add_common(sp, cmd_plan_tube, margin=True, path=True)


def _add_plan_arm(sp) -> None:
    sp.add_argument("--start", required=True, help="joint angles 'alpha,beta'")
    sp.add_argument("--goal", required=True, help="unit direction 'x,y,z'")
    _add_common(sp, cmd_plan_arm, margin=True, path=True)


def _add_verify(sp) -> None:
    sp.add_argument("--sphere", type=positive_int, default=None, help="sphere dimension m")
    sp.add_argument("--germ", default=None, help="germ JSON file")
    sp.add_argument("--hopf", action="store_true", help="check the quadratic sphere map")
    sp.add_argument("--rr-arm", action="store_true", help="check the two-joint arm map")
    sp.add_argument("--queries", type=sample_count, default=1000)
    sp.add_argument("--knots", type=positive_int, default=256)
    sp.add_argument("--deep", type=sample_count, default=None,
                    help="dense-check only this many queries")
    sp.add_argument("--probe-region", type=int, default=None, help="attach a continuity probe")
    _add_common(sp, cmd_verify, seed=True, margin=True)


def _add_fiber(sp, func=cmd_fiber) -> None:
    sp.add_argument("--germ", required=True)
    sp.add_argument("--angle", type=finite_float, default=0.0)
    sp.add_argument("--seeds", type=seed_count, default=1500)
    _add_common(sp, func, seed=True)


def _add_certify(sp) -> None:
    sp.add_argument("--germ", default=None)
    sp.add_argument("--hopf", action="store_true")
    sp.add_argument("--quantity", choices=("tc", "sec"), default="tc")
    # read only by --quantity sec on a germ, which samples the fiber; None
    # marks a flag left unset, so that the other modes can reject it
    sp.add_argument("--seeds", type=seed_count, default=None, help="fiber seeds (default 1500)")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    _add_common(sp, cmd_certify)


def _add_link(sp) -> None:
    sp.add_argument("--germ", required=True)
    sp.add_argument("--seeds", type=seed_count, default=1000)
    _add_common(sp, cmd_link, seed=True)


# (name, help, argument adder) of every subcommand, in the order help lists them
COMMANDS = (
    ("plan-sphere", "plan between two points on S^m", _add_plan_sphere),
    ("plan-tube", "plan from a tube point to a value angle", _add_plan_tube),
    ("plan-arm", "plan the two-joint arm to a direction goal", _add_plan_arm),
    ("verify", "run the randomized contract suite", _add_verify),
    ("fiber", "sample one fiber and count components", _add_fiber),
    ("monodromy", "full-circle component permutation", lambda sp: _add_fiber(sp, cmd_monodromy)),
    ("certify", "complexity certificate for a work map", _add_certify),
    ("link", "sample the zero set on the epsilon sphere", _add_link),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the CLI. Every subcommand is registered with its help, but
    only the one named `command` gets its arguments; all do when it names none.
    The parser reads such a command line as the full parser does, byte for byte."""
    parser = argparse.ArgumentParser(
        prog="tubeplan",
        description="plan motions on spheres and through tube fibrations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every = command not in (name for name, _, _ in COMMANDS)
    for name, text, add in COMMANDS:
        sp = sub.add_parser(name, help=text)
        if every or name == command:
            add(sp)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except tuple(FAILURES) as ex:
        kind, code = FAILURES[type(ex)]
        obj = {"error": str(ex), "kind": kind}
        if isinstance(ex, LiftFailure):
            obj["t_star"] = ex.t_star
        sys.stderr.write(json.dumps(obj, sort_keys=True) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
