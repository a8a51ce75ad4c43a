"""Path expression and chart tests.

Frozen values below were computed by hand from the closed formulas
(chart images, normalized midpoints) before the module was written.
"""

import functools
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeplan.errors import (
    AtPole,
    DomainError,
    EvenAmbientDim,
    OddAmbientDim,
    ZeroVector,
)
from tubeplan.fibration import NumericOracle, pullback_planner, rr_arm_workmap
from tubeplan.geometry import (
    Concat,
    NormalizedSegment,
    NumericLift,
    Scaled,
    StereoSegment,
    normalize,
    path_from_dict,
    path_from_json,
    path_to_json,
    stereo_inv,
    stereo_proj,
    tangent_even,
    tangent_odd,
    write_path_csv,
)
from tubeplan.milnor import brieskorn_germ, hopf_germ, tube_fibration

from conftest import random_unit, unit

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# frozen oracle values, worked out from the formulas by hand
SQRT_HALF = math.sqrt(0.5)


# --- charts ------------------------------------------------------------------


def test_stereo_proj_south_pole_is_origin():
    assert np.allclose(stereo_proj(np.array([0.0, 0.0, -1.0])), [0.0, 0.0], atol=0)


def test_stereo_proj_equator_is_identity():
    # x_{m+1} = 0, so the denominator is 1
    x = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(stereo_proj(x), [1.0, 0.0])


def test_stereo_proj_refuses_north_pole():
    with pytest.raises(AtPole):
        stereo_proj(np.array([0.0, 0.0, 1.0]))


def test_stereo_inv_origin_is_south_pole():
    assert np.allclose(stereo_inv(np.zeros(2)), [0.0, 0.0, -1.0], atol=0)


def test_stereo_inv_unit_circle_lands_on_equator():
    # (1,0): 2y/(1+1) = (1,0), last coordinate (1-1)/(1+1) = 0
    y = np.array([1.0, 0.0])
    assert np.allclose(stereo_inv(y), [1.0, 0.0, 0.0], atol=1e-15)


@settings(deadline=None, max_examples=60)
@given(seeds, st.integers(min_value=1, max_value=6))
def test_chart_round_trip_sphere_side(seed, m):
    rng = np.random.default_rng(seed)
    x = random_unit(rng, m + 1)
    if x[-1] > 1.0 - 1e-6:
        x[-1] = -x[-1]
    back = stereo_inv(stereo_proj(x))
    assert np.linalg.norm(back - x) < 1e-10


@settings(deadline=None, max_examples=60)
@given(seeds, st.integers(min_value=1, max_value=6))
def test_chart_round_trip_plane_side(seed, m):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(m) * 3.0
    back = stereo_proj(stereo_inv(y))
    assert np.linalg.norm(back - y) < 1e-10


def test_chart_round_trip_bulk(rng):
    # 10^4 samples each way, the tolerance from the module contract
    for m in (2, 4):
        x = random_unit(rng, m + 1, 10_000)
        x = x[x[:, -1] < 1.0 - 1e-6]
        assert np.abs(stereo_inv(stereo_proj(x)) - x).max() < 1e-10
        y = rng.standard_normal((10_000, m)) * 2.0
        assert np.abs(stereo_proj(stereo_inv(y)) - y).max() < 1e-10
    inv = stereo_inv(rng.standard_normal((5_000, 3)) * 5.0)
    assert np.abs(np.linalg.norm(inv, axis=1) - 1.0).max() < 1e-9


# --- tangent fields -----------------------------------------------------------


def test_tangent_odd_frozen_values():
    assert np.array_equal(tangent_odd(np.array([1.0, 0.0, 0.0, 0.0])), [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(tangent_odd(np.array([0.0, 1.0])), [-1.0, 0.0])


def test_tangent_even_frozen_values():
    assert np.array_equal(tangent_even(np.array([1.0, 0.0, 0.0])), [0.0, 0.0, 0.0])
    assert np.array_equal(tangent_even(np.array([0.0, 0.0, 1.0])), [0.0, -1.0, 0.0])


def test_tangent_parity_guards():
    with pytest.raises(OddAmbientDim):
        tangent_odd(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(EvenAmbientDim):
        tangent_even(np.array([1.0, 0.0]))


@settings(deadline=None, max_examples=50)
@given(seeds)
def test_tangency_odd(seed):
    rng = np.random.default_rng(seed)
    x = random_unit(rng, 4)
    v = tangent_odd(x)
    assert abs(float(v @ x)) <= 1e-12
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


@settings(deadline=None, max_examples=50)
@given(seeds)
def test_tangency_even(seed):
    rng = np.random.default_rng(seed)
    x = random_unit(rng, 5)
    assert abs(float(tangent_even(x) @ x)) <= 1e-12


def test_tangent_even_vanishes_only_at_first_axis(rng):
    e1 = np.zeros(3)
    e1[0] = 1.0
    x = random_unit(rng, 3, 1000)
    keep = (np.linalg.norm(x - e1, axis=1) > 0.01) & (np.linalg.norm(x + e1, axis=1) > 0.01)
    nrm = np.linalg.norm(tangent_even(x[keep]), axis=1)
    assert nrm.min() > 0.0


def test_parallelogram_law_bulk(rng):
    a = random_unit(rng, 3, 10_000)
    b = random_unit(rng, 3, 10_000)
    lhs = np.linalg.norm(a + b, axis=1) ** 2 + np.linalg.norm(a - b, axis=1) ** 2
    assert np.abs(lhs - 4.0).max() <= 1e-12
    # consequence used by the two-region coverage argument
    assert np.maximum(np.linalg.norm(a + b, axis=1), np.linalg.norm(a - b, axis=1)).min() >= math.sqrt(2) - 1e-12


# --- path expressions ----------------------------------------------------------


def test_constant_everywhere():
    # a constant path is the chord from a unit point to itself: (1-t)x + t x
    # rounds to x, and x / ||x|| is x, bit for bit for this x
    x = np.array([0.6, -0.8, 0.0])
    c = NormalizedSegment(a=x, b=x)
    for t in (0.0, 0.25, 1.0):
        assert np.array_equal(c.at(t), x)
    assert np.array_equal(c.sample(np.linspace(0, 1, 33)), np.tile(x, (33, 1)))


def test_normalized_segment_midpoint():
    seg = NormalizedSegment(a=np.array([1.0, 0.0]), b=np.array([0.0, 1.0]))
    assert np.allclose(seg.at(0.5), [SQRT_HALF, SQRT_HALF], atol=1e-15)


def test_normalized_segment_endpoints_are_normalized():
    seg = NormalizedSegment(a=np.array([2.0, 0.0]), b=np.array([0.0, 0.5]))
    assert np.allclose(seg.at(0.0), [1.0, 0.0])
    assert np.allclose(seg.at(1.0), [0.0, 1.0])


def test_normalized_segment_rejects_through_origin():
    with pytest.raises(ZeroVector):
        NormalizedSegment(a=np.array([1.0, 0.0]), b=np.array([-1.0, 0.0]))


def test_stereo_segment_avoids_pole_and_hits_endpoints():
    a = unit([1.0, 0.2, -0.3])
    b = unit([-0.5, 0.8, 0.1])
    seg = StereoSegment(a=a, b=b)
    assert np.linalg.norm(seg.at(0.0) - a) < 1e-12
    assert np.linalg.norm(seg.at(1.0) - b) < 1e-12
    pts = seg.sample(np.linspace(0, 1, 257))
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-9
    assert pts[:, -1].max() < 1.0


def test_stereo_segment_rejects_pole_endpoint():
    with pytest.raises(AtPole):
        StereoSegment(a=np.array([0.0, 0.0, 1.0]), b=np.array([1.0, 0.0, 0.0]))


def test_concat_midpoint_is_left_endpoint():
    a, b, c = unit([1.0, 0.0]), unit([0.0, 1.0]), unit([-1.0, 0.0])
    path = Concat(left=NormalizedSegment(a=a, b=b), right=NormalizedSegment(a=b, b=c))
    assert np.allclose(path.at(0.5), b, atol=1e-15)
    assert np.allclose(path.at(0.25), NormalizedSegment(a=a, b=b).at(0.5))
    assert np.allclose(path.at(0.75), NormalizedSegment(a=b, b=c).at(0.5))


def test_concat_rejects_junction_gap():
    with pytest.raises(ValueError):
        Concat(
            left=NormalizedSegment(a=np.array([1.0, 0.0]), b=np.array([0.0, 1.0])),
            right=NormalizedSegment(a=np.array([0.1, 1.0]), b=np.array([-1.0, 0.0])),
        )


@settings(deadline=None, max_examples=40)
@given(seeds, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_concat_matches_reparametrization_rule(seed, t):
    rng = np.random.default_rng(seed)
    a, b = random_unit(rng, 3), random_unit(rng, 3)
    if np.linalg.norm(a + b) < 1e-3 or np.linalg.norm(b + a) < 1e-3:
        return
    mid = normalize(a + b)
    left = NormalizedSegment(a=a, b=mid)
    right = NormalizedSegment(a=mid, b=b)
    path = Concat(left=left, right=right)
    want = left.at(2 * t) if t <= 0.5 else right.at(2 * t - 1)
    assert np.linalg.norm(path.at(t) - want) < 1e-14


def test_scaled_path():
    seg = NormalizedSegment(a=np.array([1.0, 0.0]), b=np.array([0.0, 1.0]))
    sc = Scaled(path=seg, factor=2.5)
    assert np.allclose(sc.at(0.5), [2.5 * SQRT_HALF, 2.5 * SQRT_HALF])


def test_domain_guard():
    c = NormalizedSegment(a=np.array([1.0, 0.0]), b=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        c.at(1.001)
    with pytest.raises(DomainError):
        c.at(-0.001)
    # tiny float slop inside 1e-12 is clamped, not rejected
    assert np.array_equal(c.at(1.0 + 5e-13), c.at(1.0))


def test_sample_agrees_with_at(rng):
    a, b = random_unit(rng, 4), random_unit(rng, 4)
    seg = NormalizedSegment(a=a, b=b)
    ts = rng.uniform(0, 1, 64)
    pts = seg.sample(ts)
    for t, p in zip(ts, pts):
        assert np.array_equal(seg.at(float(t)), p)


# --- serialization --------------------------------------------------------------


def test_json_round_trip_nested():
    a, b, c = unit([1.0, 0.1, 0.0]), unit([0.0, 1.0, 0.2]), unit([-1.0, 0.3, 0.1])
    path = Scaled(
        path=Concat(
            left=NormalizedSegment(a=a, b=b),
            right=NormalizedSegment(a=b, b=c),
        ),
        factor=0.125,
    )
    text = path_to_json(path)
    again = path_from_json(text)
    ts = np.linspace(0, 1, 97)
    assert np.array_equal(path.sample(ts), again.sample(ts))
    # serialized form is valid JSON with a kind tag on every node
    d = json.loads(text)
    assert d["kind"] == "scaled"
    assert d["path"]["kind"] == "concat"


NODE_KINDS = ["normalized_segment", "stereo_segment", "concat", "scaled",
              "exact_tube", "arm", "hopf", "germ_tube_numeric", "no_workmap"]


def _path_of_kind(kind):
    """One path whose tree holds the named node kind or work-map descriptor."""
    a, b, c = unit([1.0, 0.1, 0.0]), unit([0.0, 1.0, 0.2]), unit([-1.0, 0.3, 0.1])
    if kind == "normalized_segment":
        return NormalizedSegment(a=a, b=b)
    if kind == "stereo_segment":
        return StereoSegment(a=a, b=c)
    if kind == "concat":
        return Concat(left=NormalizedSegment(a=a, b=b), right=StereoSegment(a=b, b=c))
    if kind == "scaled":
        return Scaled(path=StereoSegment(a=a, b=b), factor=0.125)
    if kind == "no_workmap":
        return NumericLift(knots=[0.0, 0.3, 1.0], points=[[0.1, 0.2], [0.4, 0.1], [0.5, -0.3]])
    rng = np.random.default_rng(3)
    germ = brieskorn_germ(2, 3)
    tube = tube_fibration(germ)
    wm = {"arm": rr_arm_workmap(), "hopf": hopf_germ()}.get(kind, tube)
    oracle = NumericOracle() if kind != "exact_tube" else None
    goal = wm.eta * normalize(np.array([0.6, 0.3, 0.5][: wm.p]))
    return pullback_planner(wm, oracle=oracle).plan(wm.sample(rng, 1)[0], goal)[1]


@pytest.mark.parametrize("kind", NODE_KINDS)
def test_json_round_trip_every_node_kind(kind):
    path = _path_of_kind(kind)
    text = path_to_json(path)
    again = path_from_json(text)
    assert path_to_json(again) == text
    # bit-equal between knots too, where a numeric lift polishes with its
    # work map: so the work map was rebuilt from its descriptor
    ts = np.linspace(0, 1, 41)
    assert np.array_equal(path.sample(ts), again.sample(ts))


@pytest.mark.parametrize("kind", NODE_KINDS)
def test_nan_path_parameter_is_a_domain_error(kind):
    # NaN fails every comparison: "t < 0 or t > 1" is false for it, so the
    # range check must be one that NaN fails
    path = _path_of_kind(kind)
    with pytest.raises(DomainError):
        path.at(float("nan"))
    with pytest.raises(DomainError):
        path.sample(np.array([0.0, np.nan, 1.0]))
    with pytest.raises(DomainError):
        path.sample(np.array([np.nan]))


def test_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        path_from_dict({"kind": "wormhole"})
    with pytest.raises(ValueError):
        path_from_dict({})
    # no node is constant: a constant path is the chord from a point to itself
    with pytest.raises(ValueError, match="unknown path node kind 'constant'"):
        path_from_dict({"kind": "constant", "point": [1.0]})


@pytest.mark.parametrize("dphi", [None, 2.0 * math.pi], ids=["no-dphi", "full-arc"])
def test_from_dict_rejects_a_circle_action_lift_without_base(dphi):
    # a circle-action lift always lifts a base path: a null base is malformed,
    # with or without a dphi
    d = json.loads(_node_json("exact_tube"))
    while d["kind"] != "circle_action_lift":
        d = d["left"] if d["kind"] == "concat" else d["path"]
    assert d["dphi"] is None and d["base"] is not None
    path_from_dict(d)
    with pytest.raises(ValueError):
        path_from_dict({**d, "dphi": dphi, "base": None})


@pytest.mark.parametrize(
    "kind, field", [("concat", "left"), ("concat", "right"), ("circle_action_lift", "base")]
)
def test_from_dict_names_the_null_child_and_its_parent(kind, field):
    if kind == "concat":
        e1, e2, e3 = np.eye(3)
        d = Concat(NormalizedSegment(e1, e2), NormalizedSegment(e2, e3)).to_dict()
    else:
        d = json.loads(_node_json("exact_tube"))
        while d["kind"] != kind:
            d = d["left"] if d["kind"] == "concat" else d["path"]
    path_from_dict(d)
    with pytest.raises(ValueError) as err:
        path_from_dict({**d, field: None})
    assert str(err.value) == (
        f"malformed {kind!r} path node: TypeError(\"field {field!r} is null\")"
    )


@pytest.mark.parametrize(
    "d",
    [
        {"kind": "scaled", "path": {"kind": "normalized_segment", "a": [1.0], "b": [1.0]},
         "factor": None},
        {"kind": "concat", "left": {"kind": "normalized_segment", "a": [1.0], "b": [1.0]}},
        {"kind": "normalized_segment", "a": [1.0, 0.0]},
        {"kind": "numeric_lift", "knots": [0.0, 1.0], "points": [[0.0], [1.0]],
         "workmap": {"kind": "named", "name": "x"}},
    ],
    ids=lambda d: d["kind"],
)
def test_from_dict_rejects_malformed_known_kind(d):
    with pytest.raises(ValueError, match=f"malformed '{d['kind']}' path node"):
        path_from_dict(d)


@functools.cache
def _node_json(kind):
    return path_to_json(_path_of_kind(kind))


def _dict_keys(node, at=()):
    """(path to a dict, key) for every key of every dict nested in node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield at, key
            yield from _dict_keys(value, at + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _dict_keys(value, at + (i,))


@pytest.mark.parametrize("kind", NODE_KINDS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_from_dict_mutations_parse_or_raise_value_error(kind, data):
    d = json.loads(_node_json(kind))
    at, key = data.draw(st.sampled_from(list(_dict_keys(d))))
    node = functools.reduce(lambda n, k: n[k], at, d)
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = None
    try:
        path_from_dict(d)
    except ValueError:
        pass


def test_csv_output_shape():
    seg = NormalizedSegment(a=np.array([1.0, 0.0, 0.0]), b=np.array([0.0, 1.0, 0.0]))
    buf = io.StringIO()
    write_path_csv(seg, np.linspace(0, 1, 5), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 1.0, 0.0, 0.0]
