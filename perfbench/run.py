#!/usr/bin/env python3
"""Benchmark runner for tubeplan.

    python3 perfbench/run.py --workload plan_exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The package is imported from `src/`
as it stands; nothing is installed or built. Workloads (see
`workloads.py`): plan_exact, plan_numeric, certify.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: the
import is timed here and in IMPORT_REPEATS fresh interpreters, set-up
runs SETUP_REPEATS times, then rounds of the workload repeat until
--seconds is spent. Times are normalised for the machine's speed
(`clock.py`). --trace 1 runs one untraced round, then wraps the
package's public entry points (`spans.py`) and runs two traced rounds
of the same inputs; it reports the per-layer metrics, the tracing
overhead, and fails if an exact count differs between the two rounds.
Spans are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Any failed check makes the exit code 1.
"""

import os

# BLAS and OpenMP run single-threaded in this process only; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from clock import CAL_REF_S, Clock  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 3  # fresh interpreters that time `import tubeplan`, besides this one
# Run in a fresh interpreter: print the normalised time of `import tubeplan`.
IMPORT_PROBE = """
import importlib, sys
sys.path[:0] = sys.argv[1:3]
from clock import Clock
clock, rec = Clock(), []
clock.start()
clock.timed(rec, importlib.import_module, "tubeplan")
clock.stop()
print(repr(clock.seconds(rec)[0]))
"""
TRACED_ROUNDS = 2
WORKLOAD_NAMES = ("plan_exact", "plan_numeric", "certify")
# Counters that must repeat exactly between two rounds of one seed.
EXACT_COUNTS = (
    "region_hits.1", "region_hits.2", "region_hits.3", "plans", "at_calls_in_plans",
    "f_rows", "jac_rows", "numeric_knots", "newton_rows", "newton_converged",
    "fiber_seeds", "fiber_converged",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="tubeplan benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def noop(_query: int) -> None:
    pass


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def import_seconds() -> list[float]:
    """Normalised import times of tubeplan in IMPORT_REPEATS fresh interpreters."""
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def measure(wl, seed: int, seconds: float, import_rec, tally) -> tuple[dict, dict]:
    clock = tally.clock
    imports = import_seconds()
    builds = []
    for _ in range(SETUP_REPEATS):
        st = clock.timed(builds, wl.setup, seed)
    t_start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        wl.run_round(st, tally, noop)
        rounds += 1
        now = time.perf_counter()
        if now + (now - t0) > t_start + seconds:
            break
    wall = time.perf_counter() - t_start
    clock.stop()
    sec = clock.seconds
    latencies_ms = [1e3 * t for t in sec(tally.latencies)]
    imports.append(sec([import_rec])[0])
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(sec(builds)),
        "query_p50_ms": percentile(latencies_ms, 50),
        "query_p90_ms": percentile(latencies_ms, 90),
        "batch_s": statistics.median([sum(sec(r)) for r in tally.batches]),
        "cli_wall_s": statistics.median([sum(sec(r)) for r in tally.cli_passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"rounds": rounds, "wall_s": wall, "import_s": statistics.median(imports),
            "build_s": statistics.median(sec(builds)), "speed": clock.speed()}
    return metrics, info


def trace(wl, seed: int, tally, out_dir: pathlib.Path, tag: str) -> tuple[dict, dict]:
    import spans

    clock = tally.clock
    rounds = []
    clock.timed(rounds, wl.run_round, wl.setup(seed), tally, noop)

    tracer = spans.Tracer()
    tracer.install()
    try:
        def mark(query: int) -> None:
            tracer.query_id = query

        k0 = len(clock.probes)
        st = wl.setup(seed)
        setup_counts = dict(tracer.counts)
        per_round = []
        for _ in range(TRACED_ROUNDS):
            before = dict(tracer.counts)
            clock.timed(rounds, wl.run_round, st, tally, mark)
            per_round.append({k: tracer.counts.get(k, 0) - before.get(k, 0) for k in EXACT_COUNTS})
    finally:
        tracer.uninstall()
    clock.stop()
    for k in EXACT_COUNTS:
        counts = [r[k] for r in per_round]
        tally.check(len(set(counts)) == 1, f"exact count {k} differs between rounds: {counts}")
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{tag}.npz")
    counts = {k: setup_counts.get(k, 0) + per_round[0][k] for k in EXACT_COUNTS}
    metrics = layer_metrics(tracer, counts, tally.cli_bytes)
    speed = CAL_REF_S / statistics.median(clock.probes[k0:])
    for name in metrics:
        if "_us" in name or "_ms" in name:  # times, in normalised units like the rest
            metrics[name] *= speed
    untraced, *traced = clock.seconds(rounds)
    overhead = statistics.median(traced) - untraced
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / untraced
    metrics["trace.spans"] = tracer.spans()
    info = {"untraced_round_s": untraced, "traced_round_s": traced}
    return metrics, info


def layer_metrics(tr, c: dict, cli_bytes: int) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "sphere_planner.dispatch_us": tr.mean("SpherePlanner.dispatch", scale=1e6),
        "sphere_planner.build_us": tr.mean("Region.build", scale=1e6),
        "sphere_planner.region_hits.1": c["region_hits.1"],
        "sphere_planner.region_hits.2": c["region_hits.2"],
        "sphere_planner.region_hits.3": c["region_hits.3"],
        "geometry.sample_us.closed_form": tr.mean("PathExpr.sample", "closed_form", 1e6),
        "geometry.sample_us.numeric_lift": tr.mean("PathExpr.sample", "numeric_lift", 1e6),
        "geometry.at_calls_per_plan": ratio(c["at_calls_in_plans"], c["plans"]),
        "geometry.json_us": tr.mean(("path_to_json", "path_from_json"), scale=1e6),
        "fibration.exact_lift_us": tr.mean("ExactCircleOracle.lift", scale=1e6),
        "fibration.numeric_lift_ms": tr.mean("NumericOracle.lift", "ok", 1e3),
        "fibration.f_rows_per_knot": ratio(c["f_rows"], c["numeric_knots"]),
        "fibration.jac_rows_per_knot": ratio(c["jac_rows"], c["numeric_knots"]),
        "fibration.refusal_ms": tr.mean("NumericOracle.lift", "refused", 1e3),
        "fibration.newton_project_ms": tr.mean("newton_project", scale=1e3),
        "fibration.newton_rows": c["newton_rows"],
        "fibration.newton_converged_ratio": ratio(c["newton_converged"], c["newton_rows"]),
        "milnor.sample_fiber_ms.point": tr.mean("sample_fiber", "point", 1e3),
        "milnor.sample_fiber_ms.continuous": tr.mean("sample_fiber", "continuous", 1e3),
        "milnor.cluster_ms": tr.mean("sample_fiber", ("point", "continuous"), 1e3, True),
        "milnor.converged_ratio": ratio(c["fiber_converged"], c["fiber_seeds"]),
        "milnor.monodromy_ms": tr.mean("monodromy_components", scale=1e3),
        "milnor.link_ms": tr.mean("sample_link", scale=1e3),
        "milnor.regularity_probe_ms": tr.mean("regularity_probe", scale=1e3),
        "milnor.tube_sample_ms": tr.mean("WorkMap.sample", "tube", 1e3),
        "verify.suite_self_ms": tr.mean("run_contract_suite", scale=1e3, self_time=True),
    }
    for sub in ("plan-sphere", "plan-tube", "plan-arm", "verify", "fiber", "monodromy",
                "certify", "link"):
        m[f"cli.{sub}_ms"] = tr.mean("cli.main", sub, 1e3)
    m["cli.bytes_out"] = cli_bytes
    return m


def summary(name: str, seed: int, m: dict, info: dict, tally) -> list[str]:
    """Human-readable lines under the per-workload names: suite_qps or certify_wall_s,
    plan_p50_ms and plan_p90_ms, and fail_ratio."""
    n = len(tally.latencies)
    lines = [f"{name} seed={seed} " + " ".join(f"{k}={v:.4g}" for k, v in info.items())]
    lines.append(f"  setup_s {m['setup_s']:.4f} s")
    if name == "certify":
        lines.append(f"  certify_wall_s {m['batch_s']:.4f} s ({tally.batch_items} checked tasks)")
        lines.append(f"  monodromy query p50 {m['query_p50_ms']:.4f} ms, "
                     f"p90 {m['query_p90_ms']:.4f} ms (n={n})")
    else:
        lines.append(f"  suite_qps {tally.batch_items / m['batch_s']:.2f} 1/s "
                     f"({tally.batch_items} suite queries)")
        lines.append(f"  plan_p50_ms {m['query_p50_ms']:.4f} ms, "
                     f"plan_p90_ms {m['query_p90_ms']:.4f} ms (n={n})")
    lines.append(f"  cli_wall_s {m['cli_wall_s']:.4f} s")
    lines.append(f"  fail_ratio {tally.failed / max(tally.attempted, 1):.4g} "
                 f"({tally.failed}/{tally.attempted})")
    lines.append(f"  peak_rss_mb {m['peak_rss_mb']:.1f} MB")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tubeplan" / "__init__.py").is_file() or not (ROOT / "germs").is_dir():
        print(f"error: no tubeplan sources under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    clock = Clock()
    clock.start()
    try:
        import_rec = []
        clock.timed(import_rec, importlib.import_module, "tubeplan")
        import workloads

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wl = workloads.WORKLOADS[args.workload]
        tally = workloads.Tally(clock=clock)
        print("machine " + json.dumps(machine(), sort_keys=True))
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            values, info = trace(wl, args.seed, tally, HERE / "out", tag)
            wanted = spec["per_layer"]
        else:
            values, info = measure(wl, args.seed, args.seconds, import_rec[0], tally)
            wanted = spec["end_to_end"]
            print("\n".join(summary(args.workload, args.seed, values, info, tally)))
    finally:
        clock.stop()
    if args.trace:
        print(f"{args.workload} seed={args.seed} traced " + json.dumps(info))
        for k, v in values.items():
            print(f"  {k} {v:.6g}")
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(missing)}", file=sys.stderr)
        return 2
    for what in tally.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
