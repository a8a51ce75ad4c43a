"""Seeded query families aimed at the sphere planners' dispatch boundaries.

Uniform queries seldom land where a region's margin meets delta, where a
block margin one ulp off its row margin would send a row to another
region. Each generator draws k pairs (t1, t2) of unit vectors on S^m from
a seeded generator and returns them as two (k, m+1) blocks:

* `margin_pairs`: one region's margin is delta (1 + rel) exactly up to
  rounding, for each region kind of `sphere_planner.build_planner`;
* `near_antipodal_pairs`: t2 within 1e-12..1e-2 of -t1, where the segment
  region gives out;
* `near_field_zero_goals`: goals within 1e-12..1e-1 of +-e1, where the even
  detour's pivot field vanishes, with starts near the north pole half the
  time so that the chart region gives out too.

`arm_near_pole_queries` and `arm_margin_queries` aim at the arm's rank drops
instead: the first's base paths pass a given distance from a pole, where a
numeric lift that steps too far lands on the other preimage sheet; the
second's goals lie a given distance from a pole, near the margin inside which
the numeric oracle refuses them.
"""

import math

import numpy as np

from tubeplan.geometry import stereo_inv
from tubeplan.sphere_planner import DEFAULT_MARGIN


def _units(rng, k: int, d: int) -> np.ndarray:
    v = rng.standard_normal((k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _at_cosine(rng, v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unit rows u with <u, v> = c, each in a random direction about its row of v."""
    g = rng.standard_normal(v.shape)
    g -= np.sum(g * v, axis=1, keepdims=True) * v
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return c[:, None] * v + np.sqrt(1.0 - c * c)[:, None] * g


def _near(rng, v: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Unit rows at chord distance dist from the unit rows of v."""
    return _at_cosine(rng, v, 1.0 - 0.5 * dist * dist)


def margin_pairs(rng, m: int, region: str, k: int, rel: float, delta: float = DEFAULT_MARGIN):
    """k pairs on S^m whose margin for `region` is delta (1 + rel).

    region is one of "segment" (||t1 + t2||), "odd-detour" (||t1 - t2||),
    "chart" (min(1 - t1[-1], 1 - t2[-1])) and "even-detour"
    (min(||t1 - t2||, ||t2 - e1||, ||t2 + e1||)).
    """
    mu = np.full(k, delta * (1.0 + rel))
    d = m + 1
    t1 = _units(rng, k, d)
    if region == "segment":
        return t1, _near(rng, -t1, mu)
    if region == "odd-detour":
        return t1, _near(rng, t1, mu)
    if region == "chart":
        # one point at height 1 - mu, the other at most that high; which is which varies
        low = _units(rng, k, d)
        low[:, -1] = -np.abs(low[:, -1])
        high = _at_cosine(rng, np.tile(np.eye(d)[-1], (k, 1)), 1.0 - mu)
        swap = rng.random(k) < 0.5
        return np.where(swap[:, None], low, high), np.where(swap[:, None], high, low)
    if region == "even-detour":
        # half the rows: t2 at mu from +-e1 and t1 far from t2; the others: t1 at mu
        # from t2, with t2 far from +-e1
        e1 = np.tile(np.eye(d)[0], (k, 1)) * rng.choice([-1.0, 1.0], (k, 1))
        t2 = _near(rng, e1, mu)
        far = _units(rng, k, d)
        far[:, 0] = 0.1 * far[:, 0]
        far /= np.linalg.norm(far, axis=1, keepdims=True)
        pole = rng.random(k) < 0.5
        t2 = np.where(pole[:, None], t2, far)
        t1 = np.where(pole[:, None], -t2 + 0.5 * _units(rng, k, d), _near(rng, far, mu))
        return t1 / np.linalg.norm(t1, axis=1, keepdims=True), t2
    raise ValueError(f"unknown region kind {region!r}")


def near_antipodal_pairs(rng, m: int, k: int):
    """k pairs with t2 at chord distance 10^-12..10^-2 from -t1."""
    t1 = _units(rng, k, m + 1)
    return t1, _near(rng, -t1, 10.0 ** rng.uniform(-12.0, -2.0, k))


def near_field_zero_goals(rng, m: int, k: int):
    """k pairs with t2 at chord distance 10^-12..10^-1 from +e1 or -e1; half the
    starts lie within 10^-3 of the north pole."""
    d = m + 1
    e1 = np.tile(np.eye(d)[0], (k, 1)) * rng.choice([-1.0, 1.0], (k, 1))
    t2 = _near(rng, e1, 10.0 ** rng.uniform(-12.0, -1.0, k))
    north = _near(rng, np.tile(np.eye(d)[-1], (k, 1)), 10.0 ** rng.uniform(-6.0, -3.0, k))
    t1 = np.where((rng.random(k) < 0.5)[:, None], north, _units(rng, k, d))
    return t1, t2


def arm_near_pole_queries(rng, d: float, k: int):
    """k arm queries (starts, goals) whose base path passes at chord distance d
    from the south pole -e3.

    The S^2 planner's first region joins the two values by a straight segment
    in the stereographic chart from the north pole, whose origin is -e3. Here
    that segment lies on a line at chart distance d / sqrt(4 - d^2) from the
    origin, which is chord distance d on the sphere, and its ends lie 0.3..2
    from the line's foot on either side. Starts alternate between the two
    preimage sheets of the start value, (a, b) and (pi - a, b + pi), each
    shifted by a random multiple of 2 pi.
    """
    u = _units(rng, k, 2)
    foot = d / math.sqrt(4.0 - d * d) * np.stack([-u[:, 1], u[:, 0]], axis=1)
    t1 = stereo_inv(foot - rng.uniform(0.3, 2.0, (k, 1)) * u)
    t2 = stereo_inv(foot + rng.uniform(0.3, 2.0, (k, 1)) * u)
    a = np.arctan2(t1[:, 2], np.hypot(t1[:, 0], t1[:, 1]))
    b = np.arctan2(t1[:, 1], t1[:, 0])
    other = np.arange(k) % 2 == 1
    starts = np.stack([np.where(other, np.pi - a, a), np.where(other, b + np.pi, b)], axis=1)
    return starts + 2.0 * np.pi * rng.integers(-1, 2, (k, 2)), t2


def arm_margin_queries(rng, k: int, lo: float, hi: float):
    """k arm queries (starts, goals) with uniform start angles and goals at chord
    distance lo..hi from the poles, +e3 and -e3 in turn."""
    poles = np.zeros((k, 3))
    poles[:, 2] = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    return rng.uniform(-math.pi, math.pi, (k, 2)), _near(rng, poles, rng.uniform(lo, hi, k))
