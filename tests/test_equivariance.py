"""Planners commute with the symmetries of their work maps.

Each work map below carries a group action that it turns into an action on
its task sphere, and the sphere planners respect that action in the regions
named. So planning a moved query gives the moved path, up to rounding:

* germs: plan(rho_t x, e^{i d t} g) = rho_t plan(x, g), with rho_t the
  weighted circle action and d the degree;
* Hopf: plan(e^{ia} x, g) = e^{ia} plan(x, g);
* the arm, in regions 1 and 2: plan(x + (0, b), R_z(b) g) = plan(x, g) + (0, b).

These guard the dispatch, region builders and lift plumbing; the numeric
maps run through `plan_batch`, so each test stays well under two seconds.
"""

import pathlib

import numpy as np
import pytest

from conftest import random_unit
from tubeplan.fibration import pullback_planner, rr_arm_workmap
from tubeplan.milnor import hopf_germ, load_germ, tube_fibration

GERMS = pathlib.Path(__file__).resolve().parent.parent / "germs"
TS = np.linspace(0.0, 1.0, 65)


def _rotate_pairs(x: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Multiply each interleaved complex coordinate z_j of the rows of x by e^{i angles_j}."""
    z = (x[..., 0::2] + 1j * x[..., 1::2]) * np.exp(1j * angles)
    out = np.empty_like(x)
    out[..., 0::2], out[..., 1::2] = z.real, z.imag
    return out


def _planned(results):
    assert not any(isinstance(r, Exception) for r in results)
    return [r[0] for r in results], [r[1] for r in results]


@pytest.mark.parametrize("name", ["brieskorn_2_3", "two_factor", "cube"])
def test_germ_plans_commute_with_the_circle_action(name):
    wm = tube_fibration(load_germ(GERMS / f"{name}.json"))
    germ, planner = wm.germ, pullback_planner(wm)
    rng = np.random.default_rng(31)
    starts = wm.sample(rng, 300)
    goals = wm.eta * random_unit(rng, 2, 300)
    thetas = rng.uniform(0.0, 2.0 * np.pi, 300)
    weights = np.asarray(germ.weights, dtype=float)
    moved_starts = _rotate_pairs(starts, thetas[:, None] * weights)
    moved_goals = _rotate_pairs(goals, germ.degree * thetas[:, None])
    regions, paths = _planned(planner.plan_batch(starts, goals))
    moved_regions, moved_paths = _planned(planner.plan_batch(moved_starts, moved_goals))
    assert moved_regions == regions
    worst = max(
        float(np.abs(q.sample(TS) - _rotate_pairs(p.sample(TS), t * weights)).max())
        for p, q, t in zip(paths, moved_paths, thetas)
    )
    assert worst <= 1e-13


def test_hopf_plans_commute_with_the_phase():
    wm = hopf_germ()
    planner = pullback_planner(wm)
    rng = np.random.default_rng(32)
    starts = wm.sample(rng, 100)
    goals = wm.eta * random_unit(rng, 3, 100)
    alphas = rng.uniform(0.0, 2.0 * np.pi, 100)
    regions, lifts = _planned(planner.plan_batch(starts, goals))
    moved_regions, moved_lifts = _planned(
        planner.plan_batch(_rotate_pairs(starts, alphas[:, None]), goals)
    )
    assert moved_regions == regions
    worst = max(
        float(np.abs(q.points - _rotate_pairs(p.points, a)).max())
        for p, q, a in zip(lifts, moved_lifts, alphas)
    )
    assert worst <= 1e-13


def test_arm_plans_commute_with_turns_about_the_vertical():
    wm = rr_arm_workmap()
    planner = pullback_planner(wm)
    rng = np.random.default_rng(33)
    starts = wm.sample(rng, 300)
    goals = random_unit(rng, 3, 300)
    goals = goals[np.abs(goals[:, 2]) < 0.99]  # clear of the rank-drop poles +-e3
    starts = starts[: len(goals)]
    betas = rng.uniform(-np.pi, np.pi, len(goals))
    c, s = np.cos(betas), np.sin(betas)
    moved_goals = np.stack(
        [c * goals[:, 0] - s * goals[:, 1], s * goals[:, 0] + c * goals[:, 1], goals[:, 2]], axis=1
    )
    moved_starts = starts + np.stack([np.zeros_like(betas), betas], axis=1)
    regions, lifts = _planned(planner.plan_batch(starts, goals))
    moved = planner.plan_batch(moved_starts, moved_goals)
    # the chart and segment regions commute with R_z; the even detour's pivot
    # field fixes e1, so its region does not
    rows = [i for i, r in enumerate(regions) if r in (1, 2)]
    assert len(rows) > 250
    assert all(moved[i][0] == regions[i] for i in rows)
    worst = max(
        float(np.abs(moved[i][1].points - (lifts[i].points + [0.0, betas[i]])).max())
        for i in rows
    )
    assert worst <= 1e-12
