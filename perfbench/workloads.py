"""The three closed-loop workloads of the tubeplan benchmark.

Each workload is driven by one caller in one process. `setup(seed)`
builds planners and germs and draws every input from the seed;
`run_round` runs one fixed round of work on those inputs and checks
every output against its tolerance or known answer. A round is the unit
the runner repeats until its time is spent, so every round of one seed
does exactly the same work.

Every round has three phases:

* a latency phase of single closed-loop operations, each timed with
  its check (`Tally.latencies`);
* a batch phase timed as a whole (`Tally.batches`): the contract suite
  on the planning workloads, the certify task list on `certify`;
* the workload's CLI script, run in-process through `tubeplan.cli.main`
  several times per round between the other phases' work
  (`Tally.cli_passes`); every pass must print the same bytes as the
  first pass of the run.

Phases record (start, end, raw seconds) of every timed call through
the run's `clock.Clock`; the runner turns them into normalised seconds
at the end of the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tubeplan import cli, fibration, geometry, milnor, sphere_planner, verify
from tubeplan.errors import LiftFailure

from clock import Clock

ROOT = pathlib.Path(__file__).resolve().parent.parent
GERM_FILES = {
    "z^2+w^3": ROOT / "germs" / "brieskorn_2_3.json",
    "z*w": ROOT / "germs" / "two_factor.json",
    "z^3": ROOT / "germs" / "cube.json",
}

# Acceptance tolerances of the package's contract.
SPHERE_TOL = 1e-9
EXACT_ENDPOINT_TOL = 1e-10
EXACT_PROJECTION_TOL = 1e-12
NUMERIC_TOL = 1e-6
JSON_TOL = 1e-12
JSON_EVERY = 10  # one latency query in ten also round-trips its path through JSON
SUITE_CHUNK = 10  # queries per run_contract_suite call; the first of each is dense-checked
QUERY_IDS = 1000  # span query ids of certify's monodromy queries start here


@dataclass
class Tally:
    """Checks, timings and CLI output of one run."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    clock: Clock = field(default_factory=Clock)
    latencies: list = field(default_factory=list)  # one record per latency query
    batches: list = field(default_factory=list)    # per round, the batch phase's records
    batch_items: int = 0
    cli_passes: list = field(default_factory=list)  # per CLI pass, its invocations' records
    cli_first: dict = field(default_factory=dict)   # argv -> first (exit code, stdout, stderr)
    cli_bytes: int = 0                              # stdout bytes of one pass

    def check(self, ok: bool, what: str, n: int = 1, bad: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += min(n, bad)
            if len(self.failures) < 20:
                self.failures.append(what)


def _fmt(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run `tubeplan.cli.main` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as ex:  # argparse errors exit with code 2
            rc = ex.code
    return rc, out.getvalue(), err.getvalue()


def cli_pass(script, tally: Tally) -> None:
    """Run the CLI script once; the pass is one `cli_passes` sample.

    script is a list of (argv, expected exit code, check of the parsed
    output). The first pass of the run checks exit codes and outputs;
    every later pass must print the same bytes.
    """
    records = []
    runs = [tally.clock.timed(records, run_cli, argv) for argv, _, _ in script]
    tally.cli_passes.append(records)
    tally.cli_bytes = sum(len(out.encode()) for _, out, _ in runs)
    for (argv, want_rc, check), run in zip(script, runs):
        name = argv[0]
        first = tally.cli_first.setdefault(tuple(argv), run)
        if first is not run:
            tally.check(run == first, f"cli {name}: a later run differs from the first")
            continue
        rc, out, err = run
        if rc != want_rc:
            tally.check(False, f"cli {name}: exit {rc}, expected {want_rc}: {err.strip()[:200]}")
            continue
        try:
            ok = check(json.loads(out) if out else json.loads(err))
        except (ValueError, KeyError, TypeError) as ex:
            ok = False
            err = f"{type(ex).__name__}: {ex}"
        tally.check(bool(ok), f"cli {name}: output check failed {err.strip()[:200]}")


def _json_roundtrip(path, tally: Tally, what: str) -> None:
    text = geometry.path_to_json(path)
    back = geometry.path_from_json(text)
    ts = np.linspace(0.0, 1.0, 9)
    gap = float(np.abs(back.sample(ts) - path.sample(ts)).max())
    tally.check(
        gap <= JSON_TOL and geometry.path_to_json(back) == text,
        f"{what}: JSON round trip moved the path by {gap:.3e}",
    )


def _unit(rng, k: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((k, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _far_arm_goals(rng, k: int) -> np.ndarray:
    # goals at least 0.1 away from both rank-drop poles +-e3; |g -+ e3|^2 = 2(1 -+ g3)
    out = []
    while len(out) < k:
        g = _unit(rng, 1, 3)[0]
        if 2.0 * (1.0 - abs(g[2])) >= 0.1**2:
            out.append(g)
    return np.array(out)


def _near_pole_goals(rng, k: int) -> np.ndarray:
    # goals within 1e-3 of a pole, alternating north and south
    out = np.empty((k, 3))
    for i in range(k):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        off = rng.uniform(0.0, 1e-3) / math.sqrt(2.0)
        g = np.array([off * math.cos(phi), off * math.sin(phi), 1.0 if i % 2 == 0 else -1.0])
        out[i] = g / np.linalg.norm(g)
    return out


def _angle_goals(rng, eta: float, k: int) -> np.ndarray:
    phis = rng.uniform(0.0, 2.0 * math.pi, k)
    return eta * np.stack([np.cos(phis), np.sin(phis)], axis=1)


@dataclass
class Query:
    """One latency query; refuse marks a goal the planner must refuse with LiftFailure."""

    label: str
    planner: object
    start: np.ndarray
    goal: np.ndarray
    refuse: bool = False


def _plan_and_check(q: Query):
    """One latency query: plan, then check the endpoints (inside the timing)."""
    pl = q.planner
    try:
        _, path = pl.plan(q.start, q.goal)
    except Exception as ex:  # a refusal, or a failed query; the caller decides
        return None, None, ex
    if isinstance(pl, sphere_planner.SpherePlanner):
        end = path.at(1.0)
        tol = SPHERE_TOL
    else:
        end = pl.workmap.f(path.at(1.0))
        tol = NUMERIC_TOL if pl.oracle.kind == "numeric" else EXACT_ENDPOINT_TOL
    err = max(
        float(np.linalg.norm(path.at(0.0) - q.start)),
        float(np.linalg.norm(end - q.goal)),
    )
    return path, err > tol and f"endpoint error {err:.3e} > {tol:.0e}", None


def _latency_phase(queries, tally: Tally, mark: Callable[[int], None], first: int = 0) -> None:
    for i, q in enumerate(queries, first):
        mark(i)
        path, bad, ex = tally.clock.timed(tally.latencies, _plan_and_check, q)
        what = f"{q.label} #{i}"
        if ex is not None:
            refused = isinstance(ex, LiftFailure) and q.refuse
            tally.check(refused, f"{what}: {type(ex).__name__}: {ex}")
        elif q.refuse:
            tally.check(False, f"{what}: near-pole goal was planned, not refused")
        else:
            tally.check(not bad, f"{what}: {bad}")
            if i % JSON_EVERY == 0:
                _json_roundtrip(path, tally, what)
    mark(-1)


def _suite_phase(suites, tally: Tally, seed: int, mark: Callable[[int], None]) -> None:
    """run_contract_suite on fixed queries, SUITE_CHUNK queries per call.

    The time of all calls is one batch sample.
    """
    records = []
    results = []
    for i, (label, planner, starts, goals, tol, proj_tol) in enumerate(suites):
        mark(i)
        reports = []
        for c in range(0, starts.shape[0], SUITE_CHUNK):
            chunk = (starts[c : c + SUITE_CHUNK], goals[c : c + SUITE_CHUNK])
            reports.append(tally.clock.timed(
                records, verify.run_contract_suite, planner, chunk[0].shape[0],
                seed=seed, knots=256, deep=1, queries=chunk,
            ))
        results.append((label, starts.shape[0], reports, tol, proj_tol))
    mark(-1)
    tally.batches.append(records)
    tally.batch_items = sum(r[1] for r in results)
    for label, n, reports, tol, proj_tol in results:
        bad = sum(len(r.failures) + len(r.lift_failures) for r in reports)
        endpoint = max(r.max_endpoint_error for r in reports)
        proj = max(r.max_projection_residual or 0.0 for r in reports)
        ok = (
            all(r.passed for r in reports)
            and endpoint <= tol
            and (proj_tol is None or proj <= proj_tol)
        )
        tally.check(
            ok,
            f"suite {label}: {bad} failures, endpoint {endpoint:.3e}, projection {proj:.3e}",
            n=n,
            bad=max(bad, 1),
        )


# --- plan_exact ---------------------------------------------------------------


class PlanExact:
    """Closed-form planning: spheres S^1..S^4 and exact tube pullbacks."""

    name = "plan_exact"
    SPHERE_LAT = 150      # latency queries per sphere dimension
    TUBE_LAT = 100        # latency queries per germ
    SPHERE_SUITE = 300    # suite queries per sphere dimension
    TUBE_SUITE = 100      # suite queries per germ
    CLI_PASSES = 2

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        spheres = {m: sphere_planner.build_planner(m) for m in (1, 2, 3, 4)}
        tubes = {}
        for label, path in GERM_FILES.items():
            wm = milnor.tube_fibration(milnor.load_germ(path))
            tubes[label] = fibration.pullback_planner(wm)
        queries, suites = [], []
        for m, pl in spheres.items():
            a, b = _unit(rng, self.SPHERE_LAT, m + 1), _unit(rng, self.SPHERE_LAT, m + 1)
            queries += [Query(f"S^{m}", pl, a[i], b[i]) for i in range(self.SPHERE_LAT)]
            a, b = _unit(rng, self.SPHERE_SUITE, m + 1), _unit(rng, self.SPHERE_SUITE, m + 1)
            suites.append((f"S^{m}", pl, a, b, SPHERE_TOL, None))
        for label, pl in tubes.items():
            wm = pl.workmap
            starts = wm.sample(rng, self.TUBE_LAT + self.TUBE_SUITE)
            goals = _angle_goals(rng, wm.eta, self.TUBE_LAT + self.TUBE_SUITE)
            queries += [
                Query(label, pl, starts[i], goals[i]) for i in range(self.TUBE_LAT)
            ]
            suites.append(
                (label, pl, starts[self.TUBE_LAT :], goals[self.TUBE_LAT :],
                 EXACT_ENDPOINT_TOL, EXACT_PROJECTION_TOL)
            )
        order = rng.permutation(len(queries))
        # a fixed script, the same for every seed: a tube start drawn from seed 0
        e = tubes["z^2+w^3"].workmap.sample(np.random.default_rng(0), 1)[0]
        script = [
            (["plan-sphere", "--dim", "2", "--start", "0,0,1", "--goal=0,0,-1", "--samples", "9"],
             0, lambda o: o["region"] == 3 and _ends(o, [0, 0, 1], [0, 0, -1], SPHERE_TOL)),
            (["plan-tube", "--germ", str(GERM_FILES["z^2+w^3"]), f"--start={_fmt(e)}",
              "--angle", "1.5708"], 0,
             lambda o: o["endpoint_residual"] <= EXACT_ENDPOINT_TOL),
            (["verify", "--sphere", "2", "--probe-region", "1"], 0,
             lambda o: o["passed"] and verify.probe_is_monotone(o["continuity"])),
        ]
        return {"seed": seed, "queries": [queries[i] for i in order], "suites": suites,
                "script": script}

    def run_round(self, st: dict, tally: Tally, mark) -> None:
        _planning_round(st, tally, mark, self.CLI_PASSES)


def _planning_round(st: dict, tally: Tally, mark, cli_passes: int) -> None:
    # the CLI passes are spread over the latency phase, so that they see the
    # machine over the whole round and not in one short stretch
    queries = st["queries"]
    step = -(-len(queries) // cli_passes)
    for first in range(0, len(queries), step):
        _latency_phase(queries[first : first + step], tally, mark, first)
        cli_pass(st["script"], tally)
    _suite_phase(st["suites"], tally, st["seed"], mark)


def _ends(out: dict, a, b, tol: float) -> bool:
    """The sampled CLI path starts at a and ends at b."""
    s = np.asarray(out["samples"])
    return bool(np.linalg.norm(s[0, 1:] - a) <= tol and np.linalg.norm(s[-1, 1:] - b) <= tol)


# --- plan_numeric -------------------------------------------------------------


class PlanNumeric:
    """Numeric pullbacks through the arm and the Hopf map, with refusals."""

    name = "plan_numeric"
    ARM_FAR = 80
    ARM_NEAR = 32         # near-pole arm goals, all refused up front
    HOPF = 80
    SUITE = 50            # suite queries per work map
    CLI_PASSES = 12       # the script takes ~0.05 s; one pass is too short to time alone

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        arm = fibration.pullback_planner(
            fibration.rr_arm_workmap(), oracle=fibration.NumericOracle()
        )
        hopf = fibration.pullback_planner(milnor.hopf_germ(), oracle=fibration.NumericOracle())
        n_arm = self.ARM_FAR + self.ARM_NEAR + self.SUITE
        arm_starts = arm.workmap.sample(rng, n_arm)
        far = _far_arm_goals(rng, self.ARM_FAR + self.SUITE)
        near = _near_pole_goals(rng, self.ARM_NEAR)
        hopf_starts = hopf.workmap.sample(rng, self.HOPF + self.SUITE)
        hopf_goals = hopf.eta * _unit(rng, self.HOPF + self.SUITE, 3)
        queries = [Query("arm", arm, arm_starts[i], far[i]) for i in range(self.ARM_FAR)]
        queries += [
            Query("arm-near-pole", arm, arm_starts[self.ARM_FAR + i], near[i], refuse=True)
            for i in range(self.ARM_NEAR)
        ]
        queries += [Query("hopf", hopf, hopf_starts[i], hopf_goals[i]) for i in range(self.HOPF)]
        s0 = self.ARM_FAR + self.ARM_NEAR
        suites = [
            ("arm", arm, arm_starts[s0 : s0 + self.SUITE],
             far[self.ARM_FAR : self.ARM_FAR + self.SUITE], NUMERIC_TOL, NUMERIC_TOL),
            ("hopf", hopf, hopf_starts[self.HOPF :], hopf_goals[self.HOPF :],
             NUMERIC_TOL, NUMERIC_TOL),
        ]
        order = rng.permutation(len(queries))
        script = [  # fixed: the same for every seed
            (["plan-arm", "--start", "0.3,0.4", "--goal", "0.6,0.0,0.8"], 0,
             lambda o: o["endpoint_residual"] <= NUMERIC_TOL),
            (["plan-arm", "--start", "0.3,0.4", "--goal", "0.0003,0.0004,0.9999999"], 3,
             lambda o: o["kind"] == "lift_failure"),
        ]
        return {"seed": seed, "queries": [queries[i] for i in order], "suites": suites,
                "script": script}

    def run_round(self, st: dict, tally: Tally, mark) -> None:
        _planning_round(st, tally, mark, self.CLI_PASSES)


# --- certify ------------------------------------------------------------------


class Certify:
    """Fiber sampling, link, regularity, monodromy and TC/sec certificates."""

    name = "certify"
    N_SEEDS = 1500
    MONODROMY_SLICE = 20  # monodromy queries after each of the 26 tasks but the first
    CLI_AFTER = (1, 3)    # CLI passes after these z^d tasks, and one at the end of the round

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        point = [milnor.power_germ(d) for d in range(1, 6)]
        continuous = [milnor.load_germ(GERM_FILES[k]) for k in ("z^2+w^3", "z*w")]
        hopf = milnor.hopf_germ()

        def draw():
            return float(rng.uniform(0.0, 2.0 * math.pi)), int(rng.integers(1 << 31))

        cube, bri = str(GERM_FILES["z^3"]), str(GERM_FILES["z^2+w^3"])
        script = [  # fixed: the same for every seed
            (["fiber", "--germ", cube], 0, lambda o: o["components"] == 3),
            (["monodromy", "--germ", cube], 0,
             lambda o: o["components"] == 3 and o["cycle_lengths"] == [3]),
            (["certify", "--germ", bri, "--quantity", "tc"], 0,
             lambda o: (o["lower"], o["upper"], o["exact"]) == (2, 2, 2)),
            (["link", "--germ", bri], 0,
             lambda o: o["evidence"] == "yes" and o["converged"] >= 1),
        ]
        return {
            "point": [(g, *draw()) for g in point],
            "continuous": [(g, *draw(), int(rng.integers(1 << 31))) for g in continuous],
            "hopf": hopf,
            "script": script,
        }

    def run_round(self, st: dict, tally: Tally, mark) -> None:
        records, checks, fibers = [], [], []
        n_queries = 0

        def timed(task: int, fn, *args, **kwargs):
            nonlocal n_queries
            mark(task)
            result = tally.clock.timed(records, fn, *args, **kwargs)
            # The latency phase is spread over the whole round, a slice after
            # every task, so that it sees the machine as the tasks do: monodromy
            # queries round-robin over the fibers sampled so far.
            for _ in range(self.MONODROMY_SLICE if fibers else 0):
                g, fs = fibers[n_queries % len(fibers)]
                mark(QUERY_IDS + n_queries)
                perm = tally.clock.timed(tally.latencies, milnor.monodromy_components, g, fs)
                cycles = sorted(len(c) for c in milnor.permutation_cycles(perm))
                tally.check(cycles == [g.degree], f"{g.name}: monodromy query gave {cycles}")
                n_queries += 1
            return result

        for i, (g, phi, fseed) in enumerate(st["point"]):
            fs = timed(i, milnor.sample_fiber, g, phi=phi, n_seeds=self.N_SEEDS, seed=fseed)
            fibers.append((g, fs))
            perm = timed(i, milnor.monodromy_components, g, fs)
            sec = timed(i, verify.certify_sec, g, fiber_components=fs.n_components)
            d = g.degree
            cycles = sorted(len(c) for c in milnor.permutation_cycles(perm))
            want_sec = (1, "yes") if d == 1 else (2, "no")
            checks += [
                (fs.n_components == d and fs.n_converged >= 500,
                 f"{g.name}: {fs.n_components} components from {fs.n_converged} points"),
                (cycles == [d], f"{g.name}: monodromy cycles {cycles}"),
                ((sec.exact, sec.section_exists) == want_sec, f"{g.name}: sec {sec.exact}"),
            ]
            if d in self.CLI_AFTER:
                cli_pass(st["script"], tally)
        for i, (g, phi, fseed, lseed) in enumerate(st["continuous"], len(st["point"])):
            fs = timed(i, milnor.sample_fiber, g, phi=phi, n_seeds=self.N_SEEDS, seed=fseed)
            link = timed(i, milnor.sample_link, g, n_seeds=1000, seed=lseed)
            probe = timed(i, milnor.regularity_probe, g, n_samples=2000, seed=lseed)
            tc = timed(i, verify.certify_tc, g)
            sec = timed(i, verify.certify_sec, g, fiber_components=fs.n_components)
            checks += [
                (fs.n_components == 1, f"{g.name}: {fs.n_components} components"),
                (link.evidence == "yes" and link.points.shape[0] >= 1, f"{g.name}: no link"),
                (probe.verdict == "probably regular", f"{g.name}: probe {probe.verdict}"),
                ((tc.lower, tc.upper, tc.exact) == (2, 2, 2), f"{g.name}: TC {tc.exact}"),
                ((sec.exact, sec.section_exists) == (1, "yes"), f"{g.name}: sec {sec.exact}"),
            ]
        tc = timed(len(st["point"]) + len(st["continuous"]), verify.certify_tc, st["hopf"])
        checks.append(((tc.lower, tc.upper, tc.exact) == (2, 3, None), f"hopf: TC {tc.exact}"))
        mark(-1)
        tally.batches.append(records)
        tally.batch_items = len(checks)
        for ok, what in checks:
            tally.check(ok, what)
        cli_pass(st["script"], tally)


WORKLOADS = {w.name: w for w in (PlanExact(), PlanNumeric(), Certify())}
