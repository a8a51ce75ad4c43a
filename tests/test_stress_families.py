"""The planners on the stress families of `stress_families`.

Each dispatch-boundary family goes through the contract suite, whose
minimal-index scan runs row by row with `Region.member`, and through
`plan_batch` against `plan`, which dispatches one row at a time: a block
margin that differs from its row margin by an ulp shows as another region.
The arm's near-pole and margin families go through the numeric pullback
planner and the arm's closed-form lift.
"""

import numpy as np
import pytest

import stress_families as fam
from numeric_reference import arm_lift_reference
from tubeplan.errors import LiftFailure
from tubeplan.fibration import NumericOracle, pullback_planner, rr_arm_workmap
from tubeplan.geometry import path_to_json
from tubeplan.sphere_planner import build_planner
from tubeplan.verify import run_contract_suite

SPHERES = [1, 2, 3, 4]
K = 40  # pairs per family and sphere


def _region_kinds(m):
    """(region index, margin kind of `margin_pairs`) for each region of the S^m planner."""
    if m % 2:
        return [(1, "segment"), (2, "odd-detour")]
    return [(1, "chart"), (2, "segment"), (3, "even-detour")]


def _families(m, seed):
    rng = np.random.default_rng(seed)
    out = {}
    for index, kind in _region_kinds(m):
        for rel in (-1e-6, 1e-6):
            out[f"{kind}{rel:+.0e}"] = (index, rel, fam.margin_pairs(rng, m, kind, K, rel))
    out["near-antipodal"] = (None, None, fam.near_antipodal_pairs(rng, m, K))
    out["near-field-zero"] = (None, None, fam.near_field_zero_goals(rng, m, K))
    return out


@pytest.mark.parametrize("m", SPHERES)
def test_margin_families_sit_on_the_boundary(m):
    planner = build_planner(m)
    for name, (index, rel, (t1s, t2s)) in _families(m, 100 + m).items():
        assert np.allclose(np.linalg.norm(t1s, axis=1), 1.0, atol=1e-14, rtol=0), name
        assert np.allclose(np.linalg.norm(t2s, axis=1), 1.0, atol=1e-14, rtol=0), name
        if index is None:
            continue
        margin = planner.regions[index - 1].margin
        rels = np.array([margin(a, b) for a, b in zip(t1s, t2s)]) / planner.delta - 1.0
        assert np.allclose(rels, rel, atol=1e-12, rtol=0), name


@pytest.mark.parametrize("m", SPHERES)
def test_families_pass_the_contract_suite(m):
    planner = build_planner(m)
    for name, (_, _, queries) in _families(m, 200 + m).items():
        report = run_contract_suite(planner, K, queries=queries, knots=64)
        assert report.passed, (name, report.failures[:3])


@pytest.mark.parametrize("m", SPHERES)
def test_families_plan_batch_equals_plan(m):
    planner = build_planner(m)
    for name, (_, _, (t1s, t2s)) in _families(m, 300 + m).items():
        batch = planner.plan_batch(t1s, t2s)
        for i, (a, b) in enumerate(zip(t1s, t2s)):
            idx, path = planner.plan(a, b)
            assert batch[i][0] == idx, (name, i)
            assert path_to_json(batch[i][1]) == path_to_json(path), (name, i)


@pytest.mark.parametrize("m", SPHERES)
def test_a_margin_equal_to_delta_dispatches_alike(m):
    # delta is set to one row's own margin, so only a block margin equal to the
    # row margin to the last bit keeps that row in the region
    for index, kind in _region_kinds(m):
        t1s, t2s = fam.margin_pairs(np.random.default_rng(400 + m), m, kind, 8, 1e-6)
        for i in range(8):
            row = build_planner(m).regions[index - 1].margin(t1s[i], t2s[i])
            planner = build_planner(m, delta=float(row))
            assert planner.regions[index - 1].member(t1s[i], t2s[i], planner.delta)
            batch = planner.plan_batch(t1s, t2s)
            for j in range(8):
                assert batch[j][0] == planner.plan(t1s[j], t2s[j])[0], (kind, i, j)


@pytest.mark.parametrize("d", [1e-2, 3e-3, 1e-3, 3e-4])
def test_arm_near_pole_family_stays_on_its_sheet_or_is_refused(d):
    # Near a pole sigma_min(Df) = |cos a| is about d, and the azimuth of the lift
    # turns by about |dgamma| / d per step: tracked in steps of one knot, 21, 36,
    # 35 and 40 of these 40 rows land on the other sheet (pi - a, b + pi) at the
    # four distances, and only the step rule's sub-knots keep them on their own.
    # The corrector stops within 1e-10 of the base path, which moves b by
    # up to 1e-10 / |cos a|, so b is compared on the fiber's scale, |cos a| db.
    starts, goals = fam.arm_near_pole_queries(np.random.default_rng(500), d, 40)
    batch = pullback_planner(rr_arm_workmap()).plan_batch(starts, goals)
    for k, e in enumerate(starts):
        if isinstance(batch[k], LiftFailure):
            continue
        region, lam = batch[k]
        assert region == 1, k  # the chart segment that passes the pole
        _assert_on_the_closed_form(lam, e, k)


def _assert_on_the_closed_form(lam, start, k):
    """The arm lift lam equals the closed-form lift from start on the fiber's
    scale: a to 1e-8, and b to 1e-8 once weighted by |cos a|."""
    closed = arm_lift_reference(lam.base, lam.knots, start)
    gap = np.abs(lam.points - closed)
    assert gap[:, 0].max() <= 1e-8, k
    assert (np.abs(np.cos(closed[:, 0])) * gap[:, 1]).max() <= 1e-8, k


def test_arm_goals_at_the_singular_margin_track_or_are_refused():
    # Goals just outside the margin are tracked onto their own sheet or refused
    # with a LiftFailure, never silently wrong; goals inside it are refused
    # before any tracking.
    margin = NumericOracle.singular_margin
    planner = pullback_planner(rr_arm_workmap())
    rng = np.random.default_rng(501)
    starts, goals = fam.arm_margin_queries(rng, 80, 1.0001 * margin, 1.5 * margin)
    batch = planner.plan_batch(starts, goals)
    for k, e in enumerate(starts):
        if not isinstance(batch[k], LiftFailure):
            _assert_on_the_closed_form(batch[k][1], e, k)
    starts, goals = fam.arm_margin_queries(rng, 20, 0.1 * margin, 0.9999 * margin)
    for k, row in enumerate(planner.plan_batch(starts, goals)):
        assert isinstance(row, LiftFailure) and row.t_star == 1.0, k
