#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written to a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent REV --workload certify --seeds 1-5

The change side is this checkout as it stands; the parent side is REV,
extracted with `git archive` into a temporary directory (no network, no
worktree metadata). For each seed, each side runs its own
`perfbench/run.py --workload W --seed S --seconds T --trace 0` in a
subprocess, T being BENCHMARK.json's run_seconds; the side that runs
first alternates from one seed to the next. The result goes to
`BENCH_<workload>_<parent src>-<change src>_seeds<seeds>.json` at the root of
the checkout, named by the git tree hashes of the two `src/` directories
(`dirty` when what the benchmark reads has uncommitted changes) and the seed
list (`seeds1-10`, `seeds1-3,9`), so a run with other seeds writes another
file. It holds the machine, both commits, every end-to-end metric per pair,
the medians, the change/parent ratio of the medians, win counts and failures.

Exit status: 0 when every run passed its checks; 2 when a run of either
side failed (the file is still written) or an argument is bad.
"""

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_INPUTS = ("src", "perfbench", "germs", "BENCHMARK.json")  # what a run reads


def parse_seeds(text: str) -> list[int]:
    """'1-5' or '1,3,7' or a mix such as '1-3,9'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError("no seeds")
    return seeds


def output_name(workload: str, parent_src: str, change_src: str, seeds: list[int]) -> str:
    """The BENCH_*.json file name; the seed list is written as runs, 1-3,9."""
    runs = []
    for s in seeds:
        if runs and s == runs[-1][1] + 1:
            runs[-1][1] = s
        else:
            runs.append([s, s])
    text = ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)
    return f"BENCH_{workload}_{parent_src[:7]}-{change_src[:7]}_seeds{text}.json"


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(rev: str, dest: pathlib.Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_side(root: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run of the checkout at root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(ln[len("machine "):]) for ln in lines
                    if ln.startswith("machine ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"attempted": 0, "failed": None, "metrics": {}}
    return {
        "exit": proc.returncode,
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "machine": machine,
        "stderr_tail": proc.stderr.strip().splitlines()[-3:] if proc.returncode else [],
    }


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(spec: dict, pairs: list[dict]) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"]["metrics"].get(name) for p in pairs]
        chg = [p["change"]["metrics"].get(name) for p in pairs]
        if None in par or None in chg:
            out[name] = {"unit": m["unit"], "missing": True}
            continue
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(par, chg))
        pm, cm = statistics.median(par), statistics.median(chg)
        spread = quartile_spread(par)
        ratio = cm / pm if pm else None
        worse = ratio is not None and ((ratio - 1.0) if lower else (1.0 - ratio)) > m["bound"]
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": par, "change": chg,
            "parent_median": pm, "change_median": cm, "ratio": ratio,
            "parent_quartile_spread": spread,
            "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
            "gain_beyond_spread": wins >= 0.9 * len(pairs)
            and ((pm - cm) if lower else (cm - pm)) > spread,
            "worse_than_bound": worse,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-5")
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        ap.error(f"bad --seeds {args.seeds!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    seconds = float(spec["run_seconds"])
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", *BENCH_INPUTS))
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        extract(parent, pathlib.Path(tmp))
        sides = {"parent": pathlib.Path(tmp), "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], args.workload, seed, seconds)
                print(f"seed {seed} {side}: exit {pair[side]['exit']} "
                      f"failed {pair[side]['failed']}", file=sys.stderr)
            pairs.append(pair)
    machine = next((p[s]["machine"] for p in pairs for s in ("change", "parent")
                    if p[s]["machine"]), None)
    for pair in pairs:
        for side in ("parent", "change"):
            pair[side].pop("machine")
    failures = [{"seed": p["seed"], "side": s, "exit": p[s]["exit"], "failed": p[s]["failed"]}
                for p in pairs for s in ("parent", "change")
                if p[s]["exit"] != 0 or p[s]["failed"] != 0]
    parent_src = git("rev-parse", f"{parent}:src")
    change_src = None if dirty else git("rev-parse", f"{change}:src")
    doc = {
        "workload": args.workload,
        "command": f"perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "machine": machine,
        "parent": {"rev": args.parent, "commit": parent, "src_tree": parent_src},
        "change": {"commit": change, "uncommitted_bench_inputs": dirty, "src_tree": change_src},
        "seeds": seeds,
        "pairs": pairs,
        "metrics": summarize(spec, pairs),
        "failures": failures,
    }
    out = ROOT / output_name(args.workload, parent_src, change_src or "dirty", seeds)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.name}", file=sys.stderr)
    for name, m in doc["metrics"].items():
        if not m.get("missing"):
            print(f"  {name}: parent {m['parent_median']:.4g} change {m['change_median']:.4g} "
                  f"ratio {m['ratio']} wins {m['wins']}/{len(pairs)}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
