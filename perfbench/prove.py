#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/prove.py --workloads plan_exact,certify --seeds 1-10
    python3 perfbench/prove.py --workloads certify --seeds 1-10 --record workload_seeds
    python3 perfbench/prove.py --workloads plan_exact --trace-seed 7

For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles with n=4) and the quartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json.
--record NAME stores these numbers under baseline[NAME] in
perfbench/baseline.json. --trace-seed runs the traced benchmark twice
on one seed and checks that the exact counts agree between the two
processes. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
EXACT_COUNTS = (
    "sphere_planner.region_hits.1", "sphere_planner.region_hits.2",
    "sphere_planner.region_hits.3", "geometry.at_calls_per_plan",
    "fibration.f_rows_per_knot", "fibration.jac_rows_per_knot", "fibration.newton_rows",
    "fibration.newton_converged_ratio", "milnor.converged_ratio", "cli.bytes_out",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--record", default=None, help="store the result under this baseline key")
    p.add_argument("--trace-seed", type=int, default=None)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",")

    if args.trace_seed is not None:
        ok = True
        for w in workloads:
            a, b = (run(w, args.trace_seed, spec["run_seconds"], 1)["metrics"] for _ in range(2))
            for k in EXACT_COUNTS:
                same = a[k]["value"] == b[k]["value"]
                ok &= same
                print(f"{w} {k}: {a[k]['value']!r} {b[k]['value']!r} {'same' if same else 'DIFFER'}")
        return 0 if ok else 1

    seeds = seed_list(args.seeds)
    table = {}
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for s in seeds:
            res = run(w, s, spec["run_seconds"], 0)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {s}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
                  flush=True)
        table[w] = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            table[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                   "unit": m["unit"], "values": v}
            flag = "ok" if spread < m["bound"] / 3 else ("WIDE" if spread > m["bound"] else "near")
            print(f"  {w} {m['name']}: median {med:.5g} {m['unit']} q1 {q1:.5g} q3 {q3:.5g} "
                  f"spread {spread:.4f} bound {m['bound']} [{flag}]", flush=True)
    if args.record:
        base = json.loads(BASELINE.read_text(encoding="utf-8"))
        entry = base.setdefault("baseline", {}).setdefault(args.record, {})
        entry["seeds"] = seeds
        entry["run_seconds"] = spec["run_seconds"]
        entry.setdefault("workloads", {}).update(table)
        BASELINE.write_text(json.dumps(base, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
