#!/usr/bin/env python3
"""Write the stdout, stderr and exit code of a fixed list of CLI commands.

    python3 scripts/cli_snapshot.py OUTDIR
    python3 scripts/cli_snapshot.py --against REV

Each command runs in-process through `tubeplan.cli.main`, from the root
of the checkout that holds this script and against its `src/`. OUTDIR gets
one NN-name.out, NN-name.err and NN-name.code file per command, so two
checkouts compare byte for byte with `diff -r OUTDIR1 OUTDIR2`.

--against REV does that comparison in one step: REV is extracted with
`git archive` (as `scripts/bench_pairs.py` does), this script is copied
into it, each checkout runs the same command list in a fresh interpreter
with its snapshot in a temporary directory, and the commands whose files
differ are printed. Where both stdouts of such a command parse as JSON of
the same shape, or as CSV tables with the same header and as many rows,
differing in numbers alone, the largest absolute change of a number is
printed beside it. Exit status 1 when any command differs, 0
when all are identical.
"""

import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from tubeplan import cli, load_germ, tube_fibration  # noqa: E402

B23 = "germs/brieskorn_2_3.json"
CUBE = "germs/cube.json"
# spelled out, not read from cli: --against runs this list on older checkouts too
SUBCOMMANDS = ("plan-sphere", "plan-tube", "plan-arm", "verify", "fiber", "monodromy",
               "certify", "link")


def _tube_start() -> str:
    """The README's plan-tube start: one tube point of z^2+w^3, seed 0."""
    wm = tube_fibration(load_germ(B23))
    return ",".join(repr(float(v)) for v in wm.sample(np.random.default_rng(0), 1)[0])


def _opposite_angle() -> str:
    """The value angle opposite the README start's, which plan-tube reaches by the detour."""
    wm = tube_fibration(load_germ(B23))
    v = wm.f(wm.sample(np.random.default_rng(0), 1)[0])
    return repr(float(np.arctan2(v[1], v[0]) + np.pi))


def _unit(n: int, seed: int) -> str:
    """A unit vector in R^n with no zero coordinate, as a flag value; with zeros,
    a sum of squares would have too few terms to tell one order from another."""
    v = np.random.default_rng(seed).standard_normal(n)
    return ",".join(repr(float(x)) for x in v / np.linalg.norm(v))


def commands() -> list[tuple[str, list[str]]]:
    arm_goal = ["--start", "0.3,0.4", "--goal", "0.6,0.0,0.8"]
    return [
        ("plan-sphere-poles", ["plan-sphere", "--dim", "2", "--start", "0,0,1",
                               "--goal=0,0,-1", "--samples", "9"]),
        ("plan-sphere-s3-csv", ["plan-sphere", "--dim", "3", "--start", "1,0,0,0",
                                "--goal", "0,0,0,1", "--format", "csv"]),
        ("plan-sphere-bad-goal", ["plan-sphere", "--dim", "2", "--start", "0,0,1",
                                  "--goal", "0,1,x"]),
        ("plan-tube", ["plan-tube", "--germ", B23, f"--start={_tube_start()}",
                       "--angle", "1.5708"]),
        ("plan-arm", ["plan-arm", *arm_goal]),
        ("plan-arm-refused", ["plan-arm", "--start", "0.3,0.4",
                              "--goal", "0.0003,0.0004,0.9999999"]),
        ("plan-arm-csv", ["plan-arm", *arm_goal, "--format", "csv"]),
        ("verify-sphere-probe", ["verify", "--sphere", "2", "--probe-region", "1"]),
        ("verify-circle-deep", ["verify", "--sphere", "1", "--queries", "3000", "--seed", "5",
                                "--deep", "40", "--probe-region", "2"]),
        ("verify-germ", ["verify", "--germ", B23, "--queries", "200"]),
        ("verify-germ-probe", ["verify", "--germ", B23, "--queries", "30",
                               "--probe-region", "1"]),
        ("verify-hopf", ["verify", "--hopf", "--queries", "60", "--deep", "10"]),
        ("verify-hopf-probe", ["verify", "--hopf", "--queries", "30", "--probe-region", "2",
                               "--seed", "4"]),
        ("verify-arm-probe", ["verify", "--rr-arm", "--queries", "60", "--probe-region", "1"]),
        ("fiber-cube", ["fiber", "--germ", CUBE]),
        ("fiber-two-factor", ["fiber", "--germ", "germs/two_factor.json", "--angle", "0.7",
                              "--seed", "3"]),
        ("monodromy", ["monodromy", "--germ", CUBE]),
        ("certify-sec", ["certify", "--germ", B23, "--quantity", "sec"]),
        ("certify-sec-cube", ["certify", "--germ", CUBE, "--quantity", "sec", "--seed", "3",
                              "--seeds", "700"]),
        ("certify-tc", ["certify", "--germ", B23, "--quantity", "tc"]),
        ("certify-hopf", ["certify", "--hopf"]),
        ("link", ["link", "--germ", B23]),
        ("bad-margin", ["plan-sphere", "--dim", "3", "--start", "0,0,0,1", "--goal", "0,1,0,0",
                        "--margin", "0.2"]),
        ("missing-germ", ["fiber", "--germ", "germs/missing.json"]),
        ("verify-sphere-3", ["verify", "--sphere", "3"]),
        ("verify-sphere-4-deep", ["verify", "--sphere", "4", "--deep", "50"]),
        ("verify-two-factor", ["verify", "--germ", "germs/two_factor.json"]),
        ("verify-cube-deep", ["verify", "--germ", CUBE, "--deep", "20"]),
        # a negative count is a usage error (exit 2), rejected before any planning
        ("plan-sphere-negative-samples", ["plan-sphere", "--dim", "2", "--start", "0,0,1",
                                          "--goal=0,0,-1", "--samples", "-3"]),
        # the block path shapes: a Concat of exact lifts, the odd detour, the chart region
        ("plan-tube-detour", ["plan-tube", "--germ", B23, f"--start={_tube_start()}",
                              f"--angle={_opposite_angle()}"]),
        ("plan-sphere-s1-antipodal", ["plan-sphere", "--dim", "1", "--start", "1,0",
                                      "--goal=-1,0"]),
        ("plan-sphere-s4-chart", ["plan-sphere", "--dim", "4", "--start", "0,0,0,1,0",
                                  "--goal", "0,1,0,0,0"]),
        ("verify-two-factor-probe", ["verify", "--germ", "germs/two_factor.json",
                                     "--probe-region", "2"]),
        # bad numbers are usage errors (exit 2)
        ("plan-tube-angle-nan", ["plan-tube", "--germ", B23, f"--start={_tube_start()}",
                                 "--angle", "nan"]),
        ("verify-probe-region-7", ["verify", "--sphere", "2", "--queries", "10",
                                   "--probe-region", "7"]),
        ("verify-negative-deep", ["verify", "--sphere", "2", "--queries", "5", "--deep", "-3"]),
        # two-variable monodromy transport
        ("monodromy-b23", ["monodromy", "--germ", B23, "--seed", "3"]),
        ("monodromy-two-factor", ["monodromy", "--germ", "germs/two_factor.json", "--seed", "3"]),
        # ROADMAP item 1's row 143, 8.75e-3 from the south pole: 268 knots, 12 of them sub-knots
        ("plan-arm-near-pole", ["plan-arm", "--start", "2.885024882791609,0.12717603675929734",
                                "--goal",
                                "0.7420295021146448,0.0913614848024416,0.6641124129890854"]),
        # the parser's help and usage-error bytes
        ("help", ["--help"]),
        *((f"help-{name}", [name, "--help"]) for name in SUBCOMMANDS),
        ("no-subcommand", []),
        ("unknown-subcommand", ["bogus"]),
        ("verify-bogus-flag", ["verify", "--bogus"]),
        # 8 or more components, which numpy sums pairwise: a segment in R^8, a chart
        # segment whose chart is R^8, and the suite on S^8
        ("plan-sphere-s7-segment", ["plan-sphere", "--dim", "7", f"--start={_unit(8, 1)}",
                                    f"--goal={_unit(8, 2)}"]),
        ("plan-sphere-s8-chart", ["plan-sphere", "--dim", "8", f"--start={_unit(9, 1)}",
                                  f"--goal={_unit(9, 2)}"]),
        ("verify-sphere-8", ["verify", "--sphere", "8", "--queries", "200"]),
    ]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as ex:  # argparse errors
            code = ex.code
        except Exception as ex:  # a crash is an outcome to compare too: exit 1, last line
            code = 1
            print(f"{type(ex).__name__}: {ex}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def snapshot(outdir: pathlib.Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)  # germ paths, and the error messages naming them, are relative
    os.environ["COLUMNS"] = "80"  # argparse wraps help at the terminal's width
    for n, (name, argv) in enumerate(commands(), 1):
        code, out, err = run(argv)
        stem = outdir / f"{n:02d}-{name}"
        stem.with_suffix(".out").write_text(out)
        stem.with_suffix(".err").write_text(err)
        stem.with_suffix(".code").write_text(f"{code}\n")
        print(f"{n:02d} {name}: exit {code}")


def largest_number_change(a, b):
    """max |x - y| over the numbers at the same places of two parsed JSON
    values; None where they differ in shape or in anything but numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        pairs = list(zip(a, b))
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return 0.0 if a == b else abs(a - b)
    else:
        return 0.0 if type(a) is type(b) and a == b else None
    worst = 0.0
    for x, y in pairs:
        d = largest_number_change(x, y)
        if d is None:
            return None
        worst = max(worst, d)
    return worst


def csv_table(out: bytes):
    """A CSV stdout as a header of names and rows of numbers, each row as long
    as the header; None for anything else."""
    header, *rows = (line.split(",") for line in out.decode().splitlines() or [""])
    if not rows or any(len(row) != len(header) for row in rows):
        return None
    try:
        return [header, [[float(v) for v in row] for row in rows]]
    except ValueError:
        return None


def number_drift(out0: bytes, out1: bytes):
    """largest_number_change of two stdouts, or None unless both parse as JSON
    or both as CSV tables."""
    try:
        return largest_number_change(json.loads(out0), json.loads(out1))
    except ValueError:
        tables = csv_table(out0), csv_table(out1)
        return None if None in tables else largest_number_change(*tables)


def against(rev: str) -> int:
    """Snapshot REV and this checkout with this command list, each in a fresh
    interpreter; report the commands whose files differ or exist on one side only."""
    from bench_pairs import extract

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        extract(rev, tmp / "rev")
        (tmp / "rev" / "scripts").mkdir(exist_ok=True)
        shutil.copy(__file__, tmp / "rev" / "scripts" / "cli_snapshot.py")
        outs = []
        for root in (tmp / "rev", ROOT):
            outs.append(tmp / f"out-{len(outs)}")
            subprocess.run([sys.executable, str(root / "scripts" / "cli_snapshot.py"),
                            str(outs[-1])], check=True, stdout=subprocess.DEVNULL)
        sides = [{}, {}]  # per side: command stem -> {suffix: bytes}
        for side, out in zip(sides, outs):
            for path in out.iterdir():
                side.setdefault(path.stem, {})[path.suffix] = path.read_bytes()
    stems = sorted(sides[0].keys() | sides[1].keys())
    differ = [stem for stem in stems if sides[0].get(stem) != sides[1].get(stem)]
    for stem in differ:
        drift = number_drift(*(side.get(stem, {}).get(".out", b"") for side in sides))
        print(f"differs: {stem}" + ("" if drift is None else f" (numbers only, by {drift:.3g})"))
    print(f"{len(stems) - len(differ)} of {len(stems)} commands identical to {rev}")
    return 1 if differ else 0


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--against":
        return against(sys.argv[2])
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    snapshot(pathlib.Path(sys.argv[1]).resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
