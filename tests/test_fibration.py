"""Work map, lifting oracle, and pullback planner tests.

The z^2 lift expectations are frozen from the closed form: multiplying
the start by exp(i * phi / 2) lifts a value rotation of phi.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeplan import fibration, geometry, milnor
from tubeplan.errors import LiftFailure
from tubeplan.fibration import (
    HALVING_BUDGET,
    ExactCircleOracle,
    NumericOracle,
    TaskingPlanner,
    WorkMap,
    newton_project,
    pullback_planner,
    rr_arm_workmap,
)
from tubeplan.geometry import (
    LIFT_NEWTON_ITERS,
    NormalizedSegment,
    NumericLift,
    Scaled,
    normalize,
    path_from_json,
    path_to_json,
)
from tubeplan.milnor import brieskorn_germ, hopf_germ, power_germ, tube_fibration
from tubeplan.sphere_planner import build_planner
from tubeplan.verify import run_contract_suite

from conftest import random_unit
import numeric_reference as ref
import stress_families as fam
from numeric_reference import jacobian_fd

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# --- the arm work map -------------------------------------------------------


def test_arm_reference_values():
    wm = rr_arm_workmap()
    assert np.allclose(wm.f(np.array([0.0, 0.0])), [1.0, 0.0, 0.0], atol=1e-15)
    # alpha = pi/2 pins the end effector at the top regardless of beta
    assert np.allclose(wm.f(np.array([math.pi / 2, 0.7])), [0.0, 0.0, 1.0], atol=1e-15)


def test_arm_jacobian_drops_rank_at_pole():
    wm = rr_arm_workmap()
    J = wm.jac(np.array([math.pi / 2, 0.0]))
    assert J.shape == (3, 2)
    assert np.linalg.matrix_rank(J, tol=1e-10) == 1
    # generic configuration has full rank 2
    assert np.linalg.matrix_rank(wm.jac(np.array([0.3, 0.4]))) == 2


@settings(deadline=None, max_examples=30)
@given(seeds)
def test_arm_jacobian_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    wm = rr_arm_workmap()
    x = rng.uniform(-math.pi, math.pi, 2)
    J = wm.jac(x)
    Jfd = jacobian_fd(wm, x)
    assert np.abs(J - Jfd).max() < 1e-5 * max(1.0, np.abs(J).max())


def test_germ_workmap_jacobian_matches_finite_differences(rng):
    for germ in (brieskorn_germ(2, 3), power_germ(3)):
        wm = tube_fibration(germ)
        for _ in range(25):
            x = rng.standard_normal(wm.n) * 0.3
            assert np.abs(wm.jac(x) - jacobian_fd(wm, x)).max() < 1e-5


# --- newton projection -------------------------------------------------------


def _circle_f(x):
    x = np.atleast_2d(x)
    return np.sum(x * x, axis=1, keepdims=True) - 1.0


def _circle_jac(x):
    x = np.atleast_2d(x)
    return 2.0 * x[:, None, :]


def test_newton_project_onto_circle(rng):
    x0 = rng.standard_normal((200, 2)) * 2.0
    keep = np.linalg.norm(x0, axis=1) > 0.3
    x0 = x0[keep]
    targets = np.zeros((x0.shape[0], 1))
    xs, ok = newton_project(_circle_f, _circle_jac, x0, targets, tol=1e-12)
    assert ok.all()
    assert np.abs(np.linalg.norm(xs, axis=1) - 1.0).max() < 1e-12


def test_newton_project_flags_degenerate_seed():
    # the Jacobian vanishes at the origin; that row must fail, not blow up
    x0 = np.array([[0.0, 0.0], [1.5, 0.0]])
    xs, ok = newton_project(_circle_f, _circle_jac, x0, np.zeros((2, 1)))
    assert not ok[0]
    assert ok[1]


def test_newton_project_reports_rows_live_at_max_iter():
    # two steps cannot bring (100, 0) onto the unit circle; (0, 1) is on it
    x0 = np.array([[100.0, 0.0], [0.0, 1.0]])
    xs, ok = newton_project(_circle_f, _circle_jac, x0, np.zeros((2, 1)), max_iter=2)
    assert ok.tolist() == [False, True]
    assert np.all(np.isfinite(xs[0])) and xs[0, 0] > 1.0
    assert xs[1].tolist() == [0.0, 1.0]


def test_newton_project_keeps_a_non_finite_start_unconverged():
    x0 = np.array([[np.nan, 1.0], [1.5, 0.0], [0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, ok = newton_project(_circle_f, _circle_jac, x0, np.zeros((3, 1)))
    assert ok.tolist() == [False, True, True]
    assert np.isnan(xs[0]).all()
    assert np.abs(np.linalg.norm(xs[1:], axis=1) - 1.0).max() < 1e-12


@pytest.mark.parametrize("b", [0.0, 1e-14, 1e-12, 1e-10, 1e-6, 0.3, 1.0, 1e6])
def test_squared_bound_is_the_exact_cut_of_sqrt(b):
    s = float(geometry._squared_bound(b))
    assert math.sqrt(s) <= b < math.sqrt(np.nextafter(s, np.inf))
    near = np.array([b * b, s]) * (1.0 + np.arange(-200, 201)[:, None] * 2.0**-52)
    assert np.array_equal(np.sqrt(near) <= b, near <= s)


# One block per shape (arm: tall 3x2; Hopf: wide 3x4) holding a finite row,
# a NaN row, an exactly singular normal matrix and a row with an inf entry.
def _degenerate_block(p, n):
    rng = np.random.default_rng(3)
    J = rng.uniform(0.5, 1.5, (4, p, n))
    J[1, 0, 1] = np.nan
    J[2] = 0.0
    J[2, 0, 0] = 1.0
    J[3, 1, 0] = np.inf
    return J, rng.uniform(0.5, 1.5, (4, p))


@pytest.mark.parametrize("shape", [(3, 2), (3, 4)], ids=["tall", "wide"])
def test_gauss_newton_step_degenerate_rows(shape):
    J, r = _degenerate_block(*shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dx, ok = geometry.gauss_newton_step(J.copy(), r)
        solo, solo_ok = geometry.gauss_newton_step(J[:1].copy(), r[:1])
    assert ok.tolist() == [True, False, False, False]
    assert np.isnan(dx[1:]).all()
    assert solo_ok.tolist() == [True]
    assert np.array_equal(dx[:1], solo)
    ref_dx, _ = ref.gauss_newton_step(J[:1].copy(), r[:1])
    assert np.array_equal(solo, ref_dx)


@pytest.mark.parametrize("shape", [(3, 2), (3, 4), (2, 2)], ids=["tall", "wide", "square"])
def test_gauss_newton_bound_lies_below_sigma_min(shape):
    # the tracker's step rule reads sigma_min(Df) from this bound
    rng = np.random.default_rng(9)
    J = rng.standard_normal((200, *shape)) * rng.choice([1e-6, 1.0, 1e3], (200, 1, 1))
    J[0] = 0.0
    r = rng.standard_normal((200, shape[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dx, ok, sigma2 = geometry.gauss_newton_step(J.copy(), r, bound=True)
    assert np.array_equal(dx[1:], geometry.gauss_newton_step(J[1:].copy(), r[1:])[0])
    assert sigma2[0] == 0.0 and np.all(sigma2[1:] > 0.0)
    assert np.all(sigma2 <= np.linalg.svd(J, compute_uv=False)[:, -1] ** 2 * (1.0 + 1e-9))
    assert np.array_equal(sigma2, ref.gauss_newton_step(J.copy(), r, bound=True)[2])


_SHIPPED_JACOBIANS = {
    "arm": rr_arm_workmap,
    "hopf": hopf_germ,
    "tube": lambda: tube_fibration(brieskorn_germ(2, 3)),
}


@pytest.mark.parametrize("name", sorted(_SHIPPED_JACOBIANS))
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3])
def test_adjugate_step_agrees_with_lapack(name, scale):
    # the closed form fill's large blocks take: the arm's 3 x 2, Hopf's 3 x 4 and
    # a tube germ's 2 x 4 Jacobians at sampled configurations, then degenerate rows
    wm = _SHIPPED_JACOBIANS[name]()
    rng = np.random.default_rng(23)
    J = wm.jac(wm.sample(rng, 300)) * scale
    r = rng.standard_normal((300, wm.p))
    J[:3] = np.array([0.0, np.nan, np.inf])[:, None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dx, ok = geometry.gauss_newton_step(J.copy(), r, adjugate=True)
        rows = [geometry.gauss_newton_step(J[i : i + 1].copy(), r[i : i + 1], adjugate=True)
                for i in range(300)]
    lapack, lapack_ok = geometry.gauss_newton_step(J[3:].copy(), r[3:])
    assert ok.tolist() == [False] * 3 + lapack_ok.tolist() and lapack_ok.all()
    assert np.isnan(dx[:3]).all()
    gap = np.linalg.norm(dx[3:] - lapack, axis=1) / np.linalg.norm(lapack, axis=1)
    assert gap.max() <= 1e-13
    # a row's bits do not depend on its block, so plan_batch rows equal plan
    assert np.array_equal(dx, np.concatenate([d for d, _ in rows]), equal_nan=True)
    assert np.array_equal(ok, np.concatenate([o for _, o in rows]))
    ref_dx, ref_ok = ref.adjugate_step(J.copy(), r)
    assert np.array_equal(dx, ref_dx, equal_nan=True) and np.array_equal(ok, ref_ok)


# --- bit-identity of the numeric core against its plain reference ---------------

_REF_MAPS = {"rr_arm": (ref.rr_f, ref.rr_jac), "hopf": (ref.hopf_f, milnor._hopf_jac)}


def _track_tables(reference_maps=False):
    """Knot tables (or refusals) of 20 one-row plans and one 40-row plan_batch
    per numeric map, optionally tracked through the reference maps."""
    tables = []
    for wm in (rr_arm_workmap(), hopf_germ()):
        if reference_maps:
            f, jac = _REF_MAPS[wm.name]
            wm = dataclasses.replace(wm, f=f, jac=jac)
        planner = pullback_planner(wm, oracle=NumericOracle())
        rng = np.random.default_rng(29)
        starts = wm.sample(rng, 60)
        goals = wm.eta * np.array([random_unit(rng, 3) for _ in range(60)])
        results = []
        for e, w in zip(starts[:20], goals[:20]):
            try:
                results.append(planner.plan(e, w))
            except LiftFailure as ex:
                results.append(ex)
        results += planner.plan_batch(starts[20:], goals[20:])
        tables += [
            (type(r).__name__, str(r)) if isinstance(r, Exception) else r[1].points
            for r in results
        ]
    return tables


def _reference_adjugate(fast):
    """The package's step with its closed-form solve swapped for the plain one."""

    def step(J, r, bound=False, adjugate=False):
        return ref.adjugate_step(J, r) if adjugate else fast(J, r, bound)

    return step


@pytest.mark.parametrize(
    "layer", ["gauss_newton_step", "adjugate_step", "newton_project", "maps"]
)
def test_tracking_is_bit_identical_to_the_reference(layer, monkeypatch):
    """The tracked knot tables do not change when a layer of the numeric core
    is swapped for its plain reference (the reference loop takes the
    reference step, and the reference step the reference closed form)."""
    fast = _track_tables()
    name, plain = layer, getattr(ref, layer, None)
    if layer == "adjugate_step":  # the closed form alone, in the package's step
        name, plain = "gauss_newton_step", _reference_adjugate(geometry.gauss_newton_step)
    if layer != "maps":
        for mod in (geometry, fibration):
            monkeypatch.setattr(mod, name, plain)
    slow = _track_tables(reference_maps=layer == "maps")
    assert len(fast) == len(slow) == 120
    assert sum(isinstance(a, np.ndarray) for a in fast) >= 110
    for a, b in zip(fast, slow):
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray) and np.array_equal(a, b)
        else:
            assert a == b


def test_numeric_maps_equal_their_column_formulas():
    rng = np.random.default_rng(11)
    ang = rng.uniform(-4.0, 4.0, (100_000, 2))
    assert np.array_equal(fibration._rr_f(ang), ref.rr_f(ang))
    assert np.array_equal(fibration._rr_jac(ang), ref.rr_jac(ang))
    for a in (*ang[:2000], *np.split(ang[2000:4000], 2000)):  # rows, and 1-row blocks
        assert np.array_equal(fibration._rr_f(a), ref.rr_f(a))
        assert np.array_equal(fibration._rr_jac(a), ref.rr_jac(a))
    x = rng.standard_normal((100_000, 4)) * rng.choice([1e-160, 1e-3, 1.0, 1e150], (100_000, 4))
    x[:100] = np.copysign(0.0, x[:100])
    assert np.array_equal(milnor._hopf_f(x), ref.hopf_f(x))
    assert np.array_equal(np.signbit(milnor._hopf_f(x)), np.signbit(ref.hopf_f(x)))
    for row in (*x[:2000], *np.split(x[2000:4000], 2000)):
        assert np.array_equal(milnor._hopf_f(row), ref.hopf_f(row))


# --- exact circle-action lifting ------------------------------------------------


def test_exact_lift_quarter_turn_closed_form():
    germ = power_germ(2)
    wm = tube_fibration(germ)
    eta = germ.eta
    e = np.array([math.sqrt(eta), 0.0])  # real start on the tube
    base = Scaled(
        NormalizedSegment(a=np.array([1.0, 0.0]), b=np.array([0.0, 1.0])), eta
    )
    lam = ExactCircleOracle().lift(wm, e, base)
    want = cmath.exp(1j * math.pi / 4) * math.sqrt(eta)
    end = lam.at(1.0)
    assert abs(complex(end[0], end[1]) - want) < 1e-15


def test_exact_lift_constant_base_is_constant():
    germ = power_germ(2)
    wm = tube_fibration(germ)
    e = np.array([math.sqrt(germ.eta), 0.0])
    u = np.array([1.0, 0.0])  # f(e) = eta: the constant base is the chord from u to u
    lam = ExactCircleOracle().lift(wm, e, Scaled(NormalizedSegment(u, u), germ.eta))
    for t in (0.0, 0.5, 1.0):
        assert np.linalg.norm(lam.at(t) - e) < 1e-15


def test_exact_lift_rejects_detached_start():
    germ = power_germ(2)
    wm = tube_fibration(germ)
    e = np.array([math.sqrt(germ.eta) * 1.5, 0.0])
    u = np.array([1.0, 0.0])
    base = Scaled(NormalizedSegment(u, u), germ.eta)
    with pytest.raises(ValueError):
        ExactCircleOracle().lift(wm, e, base)


def test_exact_lift_projection_property(rng):
    germ = brieskorn_germ(2, 3)
    wm = tube_fibration(germ)
    planner = pullback_planner(wm)
    ts = np.linspace(0, 1, 256)
    for _ in range(40):
        e = wm.sample(rng, 1)[0]
        w = germ.eta * random_unit(rng, 2)
        idx, lam = planner.plan(e, w)
        (th1,), (th2,) = planner.base_pairs(e[None], w[None])
        gamma = Scaled(planner.base.regions[idx - 1].build(th1, th2, planner.delta), germ.eta)
        resid = np.linalg.norm(wm.f(lam.sample(ts)) - gamma.sample(ts), axis=1).max()
        assert resid <= 1e-12, f"projection residual {resid:.3e}"


# --- numeric lifting --------------------------------------------------------------


def test_numeric_lift_hopf_meridian():
    wm = hopf_germ()
    planner = pullback_planner(wm, oracle=NumericOracle())
    assert len(planner.regions) == 3
    e = np.array([0.1, 0.0, 0.0, 0.0])  # maps to the top of the value sphere
    w = np.array([0.0, 0.0, -wm.eta])
    idx, lam = planner.plan(e, w)
    assert idx == 3
    assert np.linalg.norm(lam.at(0.0) - e) < 1e-9
    assert np.linalg.norm(wm.f(lam.at(1.0)) - w) < 1e-6
    vals = wm.f(lam.sample(np.linspace(0, 1, 256)))
    assert np.abs(np.linalg.norm(vals, axis=1) - wm.eta).max() < 1e-6


def test_numeric_lift_identity_query():
    wm = rr_arm_workmap()
    planner = pullback_planner(wm, oracle=NumericOracle())
    e = np.array([0.5, -1.1])
    idx, lam = planner.plan(e, wm.f(e))
    assert idx == 1
    assert np.linalg.norm(lam.at(0.0) - e) < 1e-9
    assert np.linalg.norm(wm.f(lam.at(1.0)) - wm.f(e)) < 1e-6


def test_numeric_lift_refuses_goal_at_rank_drop():
    wm = rr_arm_workmap()
    planner = pullback_planner(wm, oracle=NumericOracle())
    near_pole = np.array([1e-4, 0.0, 1.0])
    near_pole = near_pole / np.linalg.norm(near_pole)
    with pytest.raises(LiftFailure) as err:
        planner.plan(np.array([0.2, 0.3]), near_pole)
    assert 0.0 <= err.value.t_star <= 1.0


def test_numeric_lift_serialization_round_trip(rng):
    wm = rr_arm_workmap()
    planner = pullback_planner(wm, oracle=NumericOracle())
    e = rng.uniform(-math.pi, math.pi, 2)
    w = random_unit(rng, 3)
    while min(np.linalg.norm(w - [0, 0, 1]), np.linalg.norm(w + [0, 0, 1])) < 0.2:
        w = random_unit(rng, 3)
    _, lam = planner.plan(e, w)
    again = path_from_json(path_to_json(lam))
    ts = np.linspace(0, 1, 113)
    assert np.array_equal(lam.sample(ts), again.sample(ts))


def test_numeric_lift_arm_samples_between_knots_sit_on_base_path():
    # the arm maps R^2 to R^3, so refinement needs the least-squares step
    wm = rr_arm_workmap()
    planner = pullback_planner(wm, oracle=NumericOracle())
    _, lam = planner.plan(np.array([0.3, 0.4]), np.array([0.6, 0.0, 0.8]))
    ts = np.linspace(0, 1, 65)  # the CLI's default grid: only 0 and 1 are knots
    resid = np.linalg.norm(wm.f(lam.sample(ts)) - lam.base.sample(ts), axis=1).max()
    assert resid <= 1e-9, f"samples sit {resid:.3e} off the base path"


def test_numeric_lift_refinement_failure_raises():
    # no arm configuration maps to a value of norm 2, so refinement cannot converge
    up = np.array([0.0, 0.0, 1.0])
    lam = NumericLift(
        knots=np.array([0.0, 1.0]),
        points=np.array([[0.1, 0.2], [0.3, 0.4]]),
        workmap=rr_arm_workmap(),
        base=Scaled(NormalizedSegment(up, up), 2.0),
    )
    assert np.array_equal(lam.at(1.0), [0.3, 0.4])  # knots are returned as stored
    with pytest.raises(LiftFailure) as err:
        lam.sample(np.array([0.0, 0.25, 0.5]))
    assert err.value.t_star == 0.25


def test_numeric_lift_polish_off_the_sheet_raises():
    # Every knot of a real arm lift turned by pi in azimuth: the polish between two
    # knots then lands on the base value's other preimage (pi - a, b + pi), about
    # 1.9 away, while the knots are 3e-3 apart.
    wm = rr_arm_workmap()
    _, lam = pullback_planner(wm).plan(np.array([0.3, 0.4]), np.array([0.6, 0.0, 0.8]))
    points = lam.points + [0.0, math.pi]
    t = 0.5 * (lam.knots[100] + lam.knots[101])
    guess = 0.5 * (points[100] + points[101])
    polished, ok = newton_project(wm.f, wm.jac, guess[None], lam.base.sample(np.array([t])))
    assert ok[0] and np.cos(polished[0, 0]) < 0.0 < np.cos(lam.points[100, 0])
    corrupted = NumericLift(lam.knots, points, wm, lam.base)
    with pytest.raises(LiftFailure, match="left the knot gap") as err:
        corrupted.sample(np.array([0.0, t]))
    assert err.value.t_star == t
    # the uncorrupted lift polishes the same parameter within its knot gap
    assert np.linalg.norm(wm.f(lam.at(t)) - lam.base.at(t)) <= 1e-9


# --- batched numeric lifting -------------------------------------------------------


def _far_goals(rng, k):
    goals = []
    while len(goals) < k:
        g = random_unit(rng, 3)
        if min(np.linalg.norm(g - [0, 0, 1]), np.linalg.norm(g + [0, 0, 1])) >= 0.2:
            goals.append(g)
    return np.array(goals)


def _assert_same_as_solo(planner, starts, goals, results):
    """Every row of a batch equals planning its query alone, bit for bit, and
    every knot of its table is finite."""
    for e, w, got in zip(starts, goals, results):
        try:
            idx, lam = planner.plan(e, w)
        except LiftFailure as ex:
            assert isinstance(got, LiftFailure)
            assert (got.t_star, str(got)) == (ex.t_star, str(ex))
            continue
        assert not isinstance(got, LiftFailure), f"batch row failed: {got}"
        assert got[0] == idx
        assert np.array_equal(got[1].knots, lam.knots)
        assert np.array_equal(got[1].points, lam.points)
        assert np.isfinite(lam.points).all()


@pytest.mark.parametrize("name", ["arm", "hopf"])
def test_plan_batch_equals_plan_per_query(name):
    rng = np.random.default_rng(17)
    wm = rr_arm_workmap() if name == "arm" else hopf_germ()
    planner = pullback_planner(wm)
    starts = wm.sample(rng, 5)
    if name == "arm":
        goals = _far_goals(rng, 5)
        goals[2] = [0.0, 1e-4, 1.0] / np.linalg.norm([0.0, 1e-4, 1.0])  # near the pole
    else:
        goals = wm.eta * np.array([random_unit(rng, 3) for _ in range(5)])
    results = planner.plan_batch(starts, goals)
    _assert_same_as_solo(planner, starts, goals, results)
    failed = [i for i, r in enumerate(results) if isinstance(r, LiftFailure)]
    assert failed == ([2] if name == "arm" else [])
    if name == "arm":
        assert results[2].t_star == 1.0
    # chain's steps see all 70 rows here and one row alone: a step that chose
    # its solve by block size, not by call, would split these rows from plan
    starts, goals = planner.sample_queries(np.random.default_rng(17), 70)
    _assert_same_as_solo(planner, starts, goals, planner.plan_batch(starts, goals))


@pytest.mark.parametrize("d", [1e-2, 3e-3, 1e-3, 3e-4])
def test_near_pole_plan_batch_equals_plan(d):
    # near the pole the rows of a batch cut their strides and take sub-knots,
    # each row at its own knot; planned alone, each is its batch's only row
    starts, goals = fam.arm_near_pole_queries(np.random.default_rng(500), d, 40)
    planner = pullback_planner(rr_arm_workmap())
    results = planner.plan_batch(starts[:10], goals[:10])
    _assert_same_as_solo(planner, starts[:10], goals[:10], results)


def _tables_before_fill(monkeypatch, plan):
    """Run plan() and return, for each tracker it makes, the tracker, a copy of
    its knot table before `fill` (the anchors alone) and its sub-knot times."""
    seen, fill = [], fibration._Tracker.fill

    def spy(track):
        seen.append((track, track.table.copy(), [[t for t, _ in sub] for sub in track.subs]))
        fill(track)

    monkeypatch.setattr(fibration._Tracker, "fill", spy)
    plan()
    return seen


def _corrector_converges(wm, x, J, g0, g1) -> bool:
    dx = ref.gauss_newton_step(J, (g1 - g0)[None])[0]
    tol, iters = geometry.LIFT_NEWTON_TOL, LIFT_NEWTON_ITERS
    return bool(ref.newton_project(wm.f, wm.jac, x + dx, g1[None], tol=tol, max_iter=iters)[1][0])


def _assert_strides_are_the_longest_kept(track, table, subs, cap):
    """Each stride between consecutive anchors of a row keeps the step rule at its
    anchor and is the longest that does (`numeric_reference.stride_cut`), up to
    the end and to the stride allowed there (cap at first, then twice the last
    stride, up to cap), unless each longer halving of it failed its corrector; a
    one-knot step with sub-knots in it is one where even that step failed."""
    wm, G, R, ts = track.wm, track.gammas, track.reach, track.ts
    end = ts.size - 1
    for c in range(table.shape[0]):
        anchors = np.flatnonzero(~np.isnan(table[c, :, 0])).tolist()
        split = set((np.searchsorted(ts, subs[c]) - 1).tolist())  # knots a sub-knot follows
        allowed = cap
        for a, b in zip(anchors[:-1], anchors[1:]):
            x = table[c, a][None]
            J = wm.jac(x)
            sigma2 = ref.gauss_newton_step(J, (G[c, b] - G[c, a])[None], bound=True)[2][0]
            longest = ref.stride_cut(R[c], a, min(a + allowed, end), sigma2)
            if a in split:
                assert b == a + 1, (c, a, b)
            else:
                assert (R[c, b] - R[c, a]) ** 2 <= sigma2, (c, a, b)
            tried, taken = longest, (0 if a in split else b - a)
            while tried > taken:
                assert not _corrector_converges(wm, x, J, G[c, a], G[c, a + tried]), (c, a, tried)
                tried //= 2
            assert tried == taken, (c, a, b, longest)
            allowed = min(2 * (b - a), cap)


@pytest.mark.parametrize("d", [1e-2, 3e-3, 1e-3, 3e-4])
def test_near_pole_strides_equal_the_loop_cut(d, monkeypatch):
    starts, goals = fam.arm_near_pole_queries(np.random.default_rng(500), d, 40)
    planner = pullback_planner(rr_arm_workmap())
    (seen,) = _tables_before_fill(monkeypatch, lambda: planner.plan_batch(starts, goals))
    _assert_strides_are_the_longest_kept(*seen, fibration.STRIDE_CAP)


def test_arm_strides_equal_the_loop_cut(monkeypatch):
    wm = rr_arm_workmap()
    planner = pullback_planner(wm)
    rng = np.random.default_rng(3)
    starts, goals = wm.sample(rng, 200), normalize(rng.standard_normal((200, 3)))
    (seen,) = _tables_before_fill(monkeypatch, lambda: planner.plan_batch(starts, goals))
    _assert_strides_are_the_longest_kept(*seen, fibration.STRIDE_CAP)
    for e, w in zip(starts[:20], goals[:20]):
        (seen,) = _tables_before_fill(monkeypatch, lambda: planner.plan(e, w))
        _assert_strides_are_the_longest_kept(*seen, fibration.STRIDE_CAP)
    # the middle row's corrector fails where f turns NaN, so a stride is halved
    nan_map, starts, goals = _nan_past_azimuth()
    planner = pullback_planner(nan_map)
    (seen,) = _tables_before_fill(monkeypatch, lambda: planner.plan_batch(starts, goals))
    _assert_strides_are_the_longest_kept(*seen, fibration.STRIDE_CAP)


class _NoHalving(NumericOracle):
    max_halvings = 0


# Three arm queries: the first crosses azimuths 0.1-0.13, the other two stay clear.
_ARM_STARTS = np.array([[0.2, -0.1], [0.2, -0.3], [-0.3, 0.5]])
_ARM_GOAL_ANGLES = np.array([[0.3, 0.4], [0.4, -0.05], [-0.1, 0.7]])


def test_lift_batch_halves_a_row_and_keeps_it_in_the_batch():
    # A Jacobian scaled by 0.65 makes the corrector overshoot, so steps
    # only converge once halved. Scaled everywhere, one arm plan takes
    # thousands of halvings; inside a thin azimuth band it takes about 80.
    wm = rr_arm_workmap()

    def jac(x):
        x = np.asarray(x, dtype=float)
        band = (x[..., 1] > 0.1) & (x[..., 1] < 0.13)
        return np.where(band, 0.65, 1.0)[..., None, None] * wm.jac(x)

    weak = dataclasses.replace(wm, jac=jac)
    goals = wm.f(_ARM_GOAL_ANGLES)
    results = pullback_planner(weak).plan_batch(_ARM_STARTS, goals)
    assert not any(isinstance(r, LiftFailure) for r in results)
    _assert_same_as_solo(pullback_planner(weak), _ARM_STARTS, goals, results)
    unhalved = pullback_planner(weak, oracle=_NoHalving()).plan_batch(_ARM_STARTS, goals)
    assert [isinstance(r, LiftFailure) for r in unhalved] == [True, False, False]


def _nan_past_azimuth():
    """The arm with f NaN beyond azimuth 0.4, and three queries of which only the
    middle one must cross it."""
    wm = rr_arm_workmap()

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where((x[..., 1] > 0.4)[..., None], np.nan, wm.f(x))

    starts = np.array([[0.2, -0.1], [0.3, 0.0], [0.2, -0.3]])
    goals = np.array([wm.f(np.array([0.5, 0.3])), [0.6, 0.8, 0.0], wm.f(np.array([0.4, -0.05]))])
    return dataclasses.replace(wm, f=f), starts, goals


def test_lift_batch_failing_row_leaves_the_others_alone():
    wm, starts, goals = _nan_past_azimuth()
    planner = pullback_planner(wm)
    results = planner.plan_batch(starts, goals)
    assert [isinstance(r, LiftFailure) for r in results] == [False, True, False]
    assert str(results[1]) == "corrector diverged after 12 halvings"
    assert 0.5 < results[1].t_star < 0.52
    _assert_same_as_solo(planner, starts, goals, results)


def test_halving_budget_ends_a_runaway_lift():
    # Scaled by 0.65 everywhere, the corrector converges only deep in the
    # halving tree: without a budget this query takes minutes.
    wm = rr_arm_workmap()
    jac_calls = [0]

    def jac(x):
        jac_calls[0] += 1
        return 0.65 * wm.jac(x)

    weak = dataclasses.replace(wm, jac=jac)
    rng = np.random.default_rng(5)
    start, goal = weak.sample(rng, 1)[0], normalize(rng.standard_normal(3))
    with pytest.raises(LiftFailure) as err:
        pullback_planner(weak).plan(start, goal)
    assert str(err.value) == f"halving budget of {HALVING_BUDGET} sub-steps spent"
    assert 0.0 < err.value.t_star < 1.0
    # every knot and every sub-step takes one predictor and at most
    # LIFT_NEWTON_ITERS corrector Jacobians
    steps = NumericOracle.n_knots - 1 + HALVING_BUDGET
    assert jac_calls[0] <= steps * (1 + LIFT_NEWTON_ITERS)


# --- independent checks of the numeric lifts ------------------------------------


def test_arm_plans_equal_the_closed_form_lift():
    # Row 143 passes 8.75e-3 from the south pole. Knot-sized steps there turn the
    # azimuth by more than a radian, and the corrector lands on the other sheet
    # unless the step rule splits them into sub-knots.
    wm = rr_arm_workmap()
    planner = pullback_planner(wm)
    rng = np.random.default_rng(3)
    starts = wm.sample(rng, 200)
    goals = normalize(rng.standard_normal((200, 3)))
    batch = planner.plan_batch(starts, goals)
    for k, (e, w) in enumerate(zip(starts, goals)):
        for _, lam in (batch[k], planner.plan(e, w)):
            closed = ref.arm_lift_reference(lam.base, lam.knots, e)
            assert np.abs(lam.points - closed).max() <= 1e-8, k


def _horizontal_gap(points: np.ndarray) -> float:
    """max over the steps of a Hopf knot table of |Im<x_k, dx_k>| / ||dx_k||, with
    z = x1 + i x2 and w = x3 + i x4; the circle fibers run along i x."""
    x = points[:, 0::2] + 1j * points[:, 1::2]
    dx = np.diff(x, axis=0)
    im = np.abs(np.sum(np.conj(x[:-1]) * dx, axis=1).imag)
    return float(np.max(im / np.linalg.norm(dx, axis=1)))


def test_hopf_lifts_are_horizontal():
    # strides of many knots are turned along the circle fibers afterwards, so
    # that the lift stays orthogonal to them, as minimum-norm one-knot steps keep it
    planner = pullback_planner(hopf_germ())
    # drawn as acceptance criterion 5's contract suite draws its queries
    starts, goals = planner.sample_queries(np.random.default_rng(42), 40)
    batch = planner.plan_batch(starts, goals)
    for k in range(40):
        for _, lam in (batch[k], planner.plan(starts[k], goals[k])):
            assert _horizontal_gap(lam.points) <= 1e-13, k


def _hopf_seed5_lifts(k, wm=None):
    """The lifts of k seed-5 Hopf queries, from one-row plans and from one plan_batch."""
    planner = pullback_planner(hopf_germ() if wm is None else wm)
    starts, goals = planner.sample_queries(np.random.default_rng(5), k)
    batch = planner.plan_batch(starts, goals)
    solo = [planner.plan(e, w)[1] for e, w in zip(starts, goals)]
    return starts, [row[1] for row in batch], solo


def test_hopf_plans_equal_the_holonomy_reference():
    starts, batch, solo = _hopf_seed5_lifts(200)
    wm = hopf_germ()
    for k, e in enumerate(starts):
        for lam in (batch[k], solo[k]):
            closed = ref.hopf_lift_reference(lam.base, lam.knots, e)
            assert np.abs(lam.points - closed).max() <= 1e-5, k
            assert _horizontal_gap(lam.points) <= 1e-12, k
            resid = np.linalg.norm(wm.f(lam.points) - lam.base.sample(lam.knots), axis=1)
            assert resid.max() <= geometry.LIFT_NEWTON_TOL, k
            assert np.array_equal(lam.points[0], e)


def test_declared_fiber_generators_turn_each_fiber_into_itself():
    maps = [make() for make in milnor.NAMED_WORKMAPS.values()]
    maps += [tube_fibration(g) for g in (power_germ(2), brieskorn_germ(2, 3))]
    declared = [wm for wm in maps if wm.fiber_generator is not None]
    assert declared
    for wm in declared:
        A = wm.fiber_generator
        assert A.shape == (wm.n, wm.n)
        assert np.array_equal(A.T @ A, np.eye(wm.n))
        assert np.array_equal(A @ A, -np.eye(wm.n))
        x = wm.sample(np.random.default_rng(13), 1000)
        ax = x @ A.T
        for theta in (0.3, 1.0, math.pi / 2, 2.5, -2.0, math.pi):
            turned = math.cos(theta) * x + math.sin(theta) * ax
            assert np.abs(wm.f(turned) - wm.f(x)).max() <= 1e-15 * wm.eta, (wm.name, theta)
        assert np.abs(np.einsum("kpn,kn->kp", wm.jac(x), ax)).max() <= 1e-15 * wm.eta


def test_hopf_without_its_generator_tracks_one_knot_at_a_time():
    # n > p with no declared generator keeps the one-knot cap and its horizontal
    # minimum-norm steps; the strided, rephased tables agree with them
    bare = dataclasses.replace(hopf_germ(), fiber_generator=None)
    _, batch, solo = _hopf_seed5_lifts(40)
    _, bare_batch, bare_solo = _hopf_seed5_lifts(40, bare)
    for lams, bare_lams in ((batch, bare_batch), (solo, bare_solo)):
        for lam, one in zip(lams, bare_lams):
            assert np.array_equal(lam.knots, one.knots)
            assert np.abs(lam.points - one.points).max() <= 1e-9


def _jacobians_per_plan(wm, seed: int, k: int) -> list[int]:
    """The `jac` calls of each of k one-row plans of seed's queries."""
    calls = [0]

    def jac(x):
        calls[0] += 1
        return wm.jac(x)

    planner = pullback_planner(dataclasses.replace(wm, jac=jac))
    counts = []
    for e, w in zip(*planner.sample_queries(np.random.default_rng(seed), k)):
        calls[0] = 0
        planner.plan(e, w)
        counts.append(calls[0])
    return counts


def test_one_row_hopf_plan_takes_few_jacobians():
    # knot-by-knot tracking takes two Jacobians a knot, 512 a plan; strides of
    # up to 16 knots with one-anchor predictors took up to 58
    assert max(_jacobians_per_plan(hopf_germ(), 5, 50)) <= 32


def test_one_row_arm_plan_takes_few_jacobians():
    # strides of up to 16 knots with one-anchor predictors took a median of 57
    assert np.median(_jacobians_per_plan(rr_arm_workmap(), 5, 50)) <= 40


# --- planner structure ------------------------------------------------------------


def test_region_count_preserved_from_base():
    assert len(pullback_planner(tube_fibration(brieskorn_germ(2, 3))).regions) == 2
    assert len(pullback_planner(rr_arm_workmap(), oracle=NumericOracle()).regions) == 3


def test_single_region_base_is_refused():
    base = build_planner(2)
    crippled = type(base)(m=2, delta=base.delta, regions=base.regions[:1])
    with pytest.raises(ValueError, match="single-region"):
        TaskingPlanner(workmap=rr_arm_workmap(), base=crippled, oracle=NumericOracle())


def test_base_dimension_must_match_codomain():
    with pytest.raises(ValueError):
        TaskingPlanner(
            workmap=rr_arm_workmap(), base=build_planner(1), oracle=NumericOracle()
        )


def test_goal_radius_is_validated():
    germ = brieskorn_germ(2, 3)
    wm = tube_fibration(germ)
    planner = pullback_planner(wm)
    rng = np.random.default_rng(0)
    e = wm.sample(rng, 1)[0]
    with pytest.raises(ValueError):
        planner.plan(e, 2.0 * germ.eta * np.array([1.0, 0.0]))


def test_default_oracle_choice():
    assert pullback_planner(tube_fibration(power_germ(2))).oracle.kind == "exact"
    assert pullback_planner(rr_arm_workmap()).oracle.kind == "numeric"


def test_pullback_contract_via_suite():
    germ = brieskorn_germ(2, 3)
    report = run_contract_suite(pullback_planner(tube_fibration(germ)), 200, seed=5)
    assert report.passed
    assert report.max_endpoint_error < 1e-10
    assert report.max_projection_residual < 1e-12
