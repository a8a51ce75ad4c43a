"""Row-by-row reference of the contract suite's checks and of the continuity probe.

`run_contract_suite` checks a block of queries at a time: one base-pair
call, one endpoint sample per path and one work-map call per block. This
is the plain form it must equal: every query is checked on its own, with
the 1-D `np.linalg.norm`, `path.at(0)` and `path.at(1)`, and failures are
listed in the order the rows are checked.

`continuity_probe` perturbs all its pairs in one `perturb` call per planner.
Its plain form perturbs one pair at a time at each scale, from a fresh
Generator of the pair's seed, with `numeric_reference.perturb_on_sphere`.
"""

import numpy as np

import numeric_reference
from tubeplan.errors import LiftFailure, Uncovered
from tubeplan.geometry import NORM_TOL, Scaled, normalize
from tubeplan.sphere_planner import SpherePlanner
from tubeplan.verify import PROBE_KNOTS, PROBE_SCALES, SUITE_BLOCK, VerificationReport


def _pair(planner, a, b):
    if isinstance(planner, SpherePlanner):
        return normalize(a), normalize(b)
    return normalize(planner.workmap.f(a)), normalize(b)


def run_contract_suite(planner, n_queries, seed=0, knots=256, deep=None, queries=None) -> dict:
    """The report dict of `verify.run_contract_suite` with the same arguments."""
    rng = np.random.default_rng(seed)
    is_sphere = isinstance(planner, SpherePlanner)
    starts, goals = queries if queries is not None else planner.sample_queries(rng, n_queries)
    n_queries = starts.shape[0]
    deep_count = n_queries if deep is None else min(deep, n_queries)
    ts = np.linspace(0.0, 1.0, knots)
    tol = NORM_TOL if is_sphere else planner.oracle.lift_tol
    value = (lambda x: x) if is_sphere else planner.workmap.f
    report = VerificationReport(
        planner=planner.label, queries=n_queries, regions=len(planner.regions),
        seed=seed, knots=knots, deep_queries=deep_count,
    )
    max_proj = max_surface = 0.0
    any_deep = False
    planned_all = []
    for b0 in range(0, n_queries, SUITE_BLOCK):
        rows = slice(b0, b0 + SUITE_BLOCK)
        planned_all += planner.plan_batch(starts[rows], goals[rows])
    for i, planned in enumerate(planned_all):
        a, b = starts[i], goals[i]
        if isinstance(planned, Uncovered):
            report.coverage_failures += 1
            report.failures.append({"index": i, "kind": "uncovered", "detail": str(planned)})
            continue
        if isinstance(planned, LiftFailure):
            report.lift_failures.append(
                {"index": i, "t_star": planned.t_star, "message": str(planned)}
            )
            continue
        idx, path = planned
        th1, th2 = _pair(planner, a, b)
        scan = next(
            (r.index for r in planner.regions if r.member(th1, th2, planner.delta)), None
        )
        if scan != idx:
            report.dispatch_mismatches += 1
            report.failures.append(
                {"index": i, "kind": "dispatch", "detail": f"planner {idx}, scan {scan}"}
            )
        err = max(
            float(np.linalg.norm(path.at(0.0) - a)),
            float(np.linalg.norm(value(path.at(1.0)) - b)),
        )
        report.max_endpoint_error = max(report.max_endpoint_error, err)
        if err > tol:
            report.failures.append({"index": i, "kind": "endpoint", "detail": f"error {err:.3e}"})
        if i >= deep_count:
            continue
        any_deep = True
        pts = path.sample(ts)
        if is_sphere:
            dev = float(np.abs(np.linalg.norm(pts, axis=1) - 1.0).max())
            max_surface = max(max_surface, dev)
            if dev > NORM_TOL:
                report.failures.append(
                    {"index": i, "kind": "off-sphere", "detail": f"deviation {dev:.3e}"}
                )
        else:
            vals = planner.workmap.f(pts)
            gamma = Scaled(planner.regions[idx - 1].build(th1, th2, planner.delta), planner.eta)
            proj = float(np.linalg.norm(vals - gamma.sample(ts), axis=1).max())
            dev = float(np.abs(np.linalg.norm(vals, axis=1) - planner.eta).max())
            max_proj = max(max_proj, proj)
            max_surface = max(max_surface, dev)
            if proj > tol:
                report.failures.append(
                    {"index": i, "kind": "projection", "detail": f"residual {proj:.3e}"}
                )
    if any_deep:
        report.max_surface_deviation = max_surface
        if not is_sphere:
            report.max_projection_residual = max_proj
    return report.to_dict()


def perturb(planner, rng, t1, t2, scale):
    """One pair moved at one scale: a sphere moves both ends, t1 first, and a
    pullback only the goal, since its start is pinned to a fiber."""
    if isinstance(planner, SpherePlanner):
        t1 = numeric_reference.perturb_on_sphere(rng, t1, scale)
    return t1, numeric_reference.perturb_on_sphere(rng, t2, scale)


def continuity_probe(planner, region_index, n_pairs=64, seed=0) -> list[dict]:
    """The rows `verify.continuity_probe` returns with the same arguments."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, PROBE_KNOTS)
    region = planner.regions[region_index - 1]
    need = 1.5 * planner.delta + 4.0 * PROBE_SCALES[0]
    starts, pairs, subs = [], [], []
    while len(pairs) < n_pairs:  # one query at a time, as the probe draws them
        (e,), (th1,), (th2,) = planner.sample_pairs(rng, 1)
        if region.margin(th1, th2) >= need:
            starts.append(e)
            pairs.append((th1, th2))
            subs.append(rng.integers(1 << 31))

    def sampled(pairs):
        th1s, th2s = (np.array(side) for side in zip(*pairs))
        pts = {}
        for _, rows, path in planner.region_paths(region_index, np.array(starts), th1s, th2s):
            pts.update(zip(rows.tolist(), path.sample(ts).reshape(rows.size, len(ts), -1)))
        return [pts[i] for i in range(n_pairs)]

    ref = sampled(pairs)
    out = []
    for scale in PROBE_SCALES:
        moved = [perturb(planner, np.random.default_rng(sub), *pair, scale)
                 for pair, sub in zip(pairs, subs)]
        devs = np.array([np.linalg.norm(a - b, axis=-1).max() for a, b in zip(ref, sampled(moved))])
        worst = float(devs.max())
        out.append({"scale": scale, "pairs": n_pairs, "max_deviation": worst,
                    "mean_deviation": float(devs.mean()), "lipschitz_ratio": worst / scale})
    return out
