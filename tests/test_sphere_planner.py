import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeplan.errors import AntipodalPair, AtPole, BadMargin, EqualPair, PoleOfField, Uncovered
from tubeplan.geometry import normalize
from tubeplan.sphere_planner import (
    DEFAULT_MARGIN,
    build_planner,
    chart_planner,
    detour_planner_even,
    detour_planner_odd,
    segment_planner,
)

from conftest import random_unit, unit

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_region_counts_match_sphere_complexity_table():
    # 2 for odd m, 3 for even m
    assert [len(build_planner(m).regions) for m in (1, 2, 3, 4)] == [2, 3, 2, 3]


def test_margin_bounds():
    with pytest.raises(BadMargin):
        build_planner(2, 0.0)
    with pytest.raises(BadMargin):
        build_planner(2, 0.11)
    with pytest.raises(BadMargin):
        build_planner(2, -0.05)
    build_planner(2, 0.1)  # boundary value accepted


def test_bad_dim():
    with pytest.raises(ValueError):
        build_planner(0)


# --- the individual local rules -------------------------------------------------


def test_segment_planner_constant_on_equal_points():
    th = unit([0.6, 0.8])
    path = segment_planner(th, th)
    for t in (0.0, 0.3, 1.0):
        assert np.linalg.norm(path.at(t) - th) < 1e-15


def test_segment_planner_midpoint():
    path = segment_planner(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    r = math.sqrt(0.5)
    assert np.allclose(path.at(0.5), [r, r], atol=1e-15)


def test_segment_planner_rejects_antipodes():
    with pytest.raises(AntipodalPair):
        segment_planner(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))


def test_detour_odd_passes_through_rotated_start():
    # start (1,0), goal (-1,0): at t=3/4 the path sits at the quarter-turn
    # image of the start, which is (0,1)
    e1 = np.array([1.0, 0.0])
    path = detour_planner_odd(e1, -e1)
    assert np.linalg.norm(path.at(0.75) - np.array([0.0, 1.0])) < 1e-12
    assert np.linalg.norm(path.at(0.0) - e1) < 1e-12
    assert np.linalg.norm(path.at(1.0) + e1) < 1e-12


def test_detour_odd_on_s3():
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    path = detour_planner_odd(e1, -e1)
    assert np.linalg.norm(path.at(0.75) - np.array([0.0, 1.0, 0.0, 0.0])) < 1e-12


def test_detour_odd_rejects_equal_points():
    th = unit([3.0, 4.0])
    with pytest.raises(EqualPair):
        detour_planner_odd(th, th)


def test_detour_odd_junction_is_minus_goal():
    rng = np.random.default_rng(7)
    a, b = random_unit(rng, 2), random_unit(rng, 2)
    path = detour_planner_odd(a, b)
    assert np.linalg.norm(path.at(0.5) + b) < 1e-12


def test_chart_planner_antipodal_equator_passes_south_pole():
    e1 = np.array([1.0, 0.0, 0.0])
    path = chart_planner(e1, -e1)
    assert np.allclose(path.at(0.5), [0.0, 0.0, -1.0], atol=1e-15)


def test_chart_planner_rejects_near_pole():
    pole = np.array([0.0, 0.0, 1.0])
    with pytest.raises(AtPole):
        chart_planner(pole, np.array([1.0, 0.0, 0.0]))


def test_detour_even_through_field_direction():
    # goal = south pole: detour waypoint at t=3/4 is the unit field
    # vector at the north pole, (0,-1,0)
    pn = np.array([0.0, 0.0, 1.0])
    path = detour_planner_even(pn, -pn)
    assert np.linalg.norm(path.at(0.75) - np.array([0.0, -1.0, 0.0])) < 1e-12
    assert np.linalg.norm(path.at(0.0) - pn) < 1e-12
    assert np.linalg.norm(path.at(1.0) + pn) < 1e-12


def test_detour_even_rejects_field_zeros():
    e1 = np.array([1.0, 0.0, 0.0])
    x = unit([0.0, 1.0, 1.0])
    with pytest.raises(PoleOfField):
        detour_planner_even(x, e1)
    with pytest.raises(PoleOfField):
        detour_planner_even(x, -e1)


def test_detour_even_rejects_equal_points():
    x = unit([0.2, 0.9, 0.4])
    with pytest.raises(EqualPair):
        detour_planner_even(x, x)


# --- dispatch --------------------------------------------------------------------


def test_dispatch_m1_equal_points_region1():
    pl = build_planner(1)
    th = unit([0.6, -0.8])
    idx, _ = pl.plan(th, th)
    assert idx == 1


def test_dispatch_m1_antipodes_region2():
    pl = build_planner(1)
    th = unit([0.6, -0.8])
    idx, _ = pl.plan(th, -th)
    assert idx == 2


def test_dispatch_m2_pole_antipodes_region3():
    # both chart membership (start at the pole) and the segment rule
    # (antipodal pair) fail; the goal is far from the field zeros
    pl = build_planner(2)
    pn = np.array([0.0, 0.0, 1.0])
    idx, path = pl.plan(pn, -pn)
    assert idx == 3
    assert np.linalg.norm(path.at(1.0) + pn) < 1e-9


def test_dispatch_rejects_off_sphere_queries():
    pl = build_planner(2)
    with pytest.raises(ValueError):
        pl.plan(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 2.0]))


def test_planner_uncovered_reports_margins():
    # shrink region list by hand to force Uncovered and check the message
    pl = build_planner(1)
    broken = type(pl)(m=1, delta=pl.delta, regions=pl.regions[:1])
    th = unit([1.0, 0.0])
    with pytest.raises(Uncovered) as err:
        broken.plan(th, -th)
    assert "margin" in str(err.value)


@settings(deadline=None, max_examples=40)
@given(seeds, st.sampled_from([1, 2, 3, 4]))
def test_endpoint_contract_random(seed, m):
    rng = np.random.default_rng(seed)
    pl = build_planner(m)
    a, b = random_unit(rng, m + 1), random_unit(rng, m + 1)
    idx, path = pl.plan(a, b)
    assert 1 <= idx <= len(pl.regions)
    assert np.linalg.norm(path.at(0.0) - a) < 1e-9
    assert np.linalg.norm(path.at(1.0) - b) < 1e-9


@settings(deadline=None, max_examples=25)
@given(seeds, st.sampled_from([1, 2, 3, 4]))
def test_paths_stay_on_sphere(seed, m):
    rng = np.random.default_rng(seed)
    pl = build_planner(m)
    a, b = random_unit(rng, m + 1), random_unit(rng, m + 1)
    _, path = pl.plan(a, b)
    pts = path.sample(np.linspace(0, 1, 256))
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-9


def test_coverage_bulk(rng):
    # minimal-index dispatch must always find a region; 4 dims x 5000 pairs
    for m in (1, 2, 3, 4):
        pl = build_planner(m)
        for _ in range(5000):
            a = normalize(rng.standard_normal(m + 1))
            b = normalize(rng.standard_normal(m + 1))
            idx = pl.dispatch(a, b)
            assert 1 <= idx <= len(pl.regions)


def test_odd_coverage_is_forced_by_parallelogram_law(rng):
    # max(nrm(a+b), nrm(a-b)) >= sqrt 2 for unit a, b, so one of the two
    # margins always clears any delta <= 0.1
    pl = build_planner(3, 0.1)
    a = random_unit(rng, 4, 2000)
    b = random_unit(rng, 4, 2000)
    s = np.linalg.norm(a + b, axis=1)
    d = np.linalg.norm(a - b, axis=1)
    assert np.maximum(s, d).min() >= math.sqrt(2) - 1e-12
    for i in range(0, 2000, 100):
        assert pl.dispatch(a[i], b[i]) in (1, 2)


def test_dispatch_is_minimal_index(rng):
    pl = build_planner(2)
    hits = set()
    for _ in range(3000):
        a, b = normalize(rng.standard_normal(3)), normalize(rng.standard_normal(3))
        idx = pl.dispatch(a, b)
        hits.add(idx)
        for r in pl.regions:
            if r.member(a, b, pl.delta):
                assert r.index == idx
                break
    assert hits == {1, 2, 3}, f"sampling never reached regions {set((1,2,3)) - hits}"


def test_same_query_same_path(rng):
    pl = build_planner(2)
    a, b = normalize(rng.standard_normal(3)), normalize(rng.standard_normal(3))
    _, p1 = pl.plan(a, b)
    _, p2 = pl.plan(a, b)
    ts = np.linspace(0, 1, 64)
    assert np.array_equal(p1.sample(ts), p2.sample(ts))
