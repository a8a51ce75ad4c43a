"""Row-by-row reference of the contract suite's checks.

`run_contract_suite` checks a block of queries at a time: one base-pair
call, one endpoint sample per path and one work-map call per block. This
is the plain form it must equal: every query is checked on its own, with
the 1-D `np.linalg.norm`, `path.at(0)` and `path.at(1)`, and failures are
listed in the order the rows are checked.
"""

import numpy as np

from tubeplan.errors import LiftFailure, Uncovered
from tubeplan.geometry import NORM_TOL, Scaled, normalize
from tubeplan.sphere_planner import SpherePlanner
from tubeplan.verify import SUITE_BLOCK, VerificationReport


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
