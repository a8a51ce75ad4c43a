"""Optimal motion planners on round spheres.

Odd-dimensional spheres get a two-region planner, even-dimensional ones
a three-region planner; those counts are the smallest possible, so the
planners double as upper-bound witnesses for the navigation complexity
of the sphere. Region membership is expressed through a margin
function, and a query belongs to a region when its margin clears the
planner's tolerance delta. Dispatch always picks the lowest-index
matching region, which keeps outputs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AntipodalPair, AtPole, BadMargin, EqualPair, PoleOfField, Uncovered
from .geometry import (
    Concat,
    NormalizedSegment,
    PathExpr,
    StereoSegment,
    normalize,
    row_norms,
    tangent_even,
    tangent_odd,
)

DEFAULT_MARGIN = 0.05
# Choice: 0.1 keeps every pair of query points covered by some region on
# even spheres (the chart region needs the poles' caps left over for the
# other two regions); larger margins start to open gaps.
MAX_MARGIN = 0.1

QUERY_NORM_TOL = 1e-6  # how far off the sphere a query point may sit


def segment_planner(t1: np.ndarray, t2: np.ndarray, delta: float = DEFAULT_MARGIN) -> PathExpr:
    """Normalized straight chord from t1 to t2.

    Needs the pair to be non-antipodal: ||t1 + t2|| >= delta.
    """
    if float(np.linalg.norm(t1 + t2)) < delta:
        raise AntipodalPair("segment planner undefined on near-antipodal pairs")
    return NormalizedSegment(t1, t2)


def _pivot_swing(a: np.ndarray, b: np.ndarray, field) -> PathExpr:
    # quarter-turn detour a -> field(a) -> b; field(a) is orthogonal to a,
    # so neither chord can cross the origin
    pivot = field(a)
    return Concat(NormalizedSegment(a, pivot), NormalizedSegment(pivot, b))


def detour_planner_odd(t1: np.ndarray, t2: np.ndarray, delta: float = DEFAULT_MARGIN) -> PathExpr:
    """Route t1 -> -t2 -> t2 using the quarter-turn tangent field.

    Needs t1 != t2 (within delta); covers exactly the pairs the segment
    planner misses.
    """
    if float(np.linalg.norm(t1 - t2)) < delta:
        raise EqualPair("detour planner undefined on near-equal pairs")
    first = NormalizedSegment(t1, -t2)
    return Concat(first, _pivot_swing(-t2, t2, tangent_odd))


def chart_planner(t1: np.ndarray, t2: np.ndarray, delta: float = DEFAULT_MARGIN) -> PathExpr:
    """Straight-line interpolation in the stereographic chart.

    Needs both points at least delta below the north pole (in the last
    coordinate).
    """
    if t1[-1] > 1.0 - delta or t2[-1] > 1.0 - delta:
        raise AtPole("chart planner undefined near the north pole")
    return StereoSegment(t1, t2)


def detour_planner_even(t1: np.ndarray, t2: np.ndarray, delta: float = DEFAULT_MARGIN) -> PathExpr:
    """Route t1 -> -t2 -> t2 using the skew tangent field.

    Needs t1 != t2 and t2 away from both zeros +-e1 of the field.
    """
    if float(np.linalg.norm(t1 - t2)) < delta:
        raise EqualPair("detour planner undefined on near-equal pairs")
    e1 = np.zeros_like(t2)
    e1[0] = 1.0
    if min(float(np.linalg.norm(t2 - e1)), float(np.linalg.norm(t2 + e1))) < delta:
        raise PoleOfField("detour pivot field vanishes at +-e1")
    first = NormalizedSegment(t1, -t2)
    return Concat(first, _pivot_swing(-t2, t2, tangent_even))


@dataclass(frozen=True)
class Region:
    """One continuity region of a planner with its local rule."""

    index: int
    name: str
    margin: Callable[[np.ndarray, np.ndarray], float]
    build: Callable[[np.ndarray, np.ndarray, float], PathExpr]

    def member(self, t1: np.ndarray, t2: np.ndarray, delta: float) -> bool:
        return self.margin(t1, t2) >= delta


def _margin_sum(t1, t2):
    return float(np.linalg.norm(t1 + t2))


def _margin_diff(t1, t2):
    return float(np.linalg.norm(t1 - t2))


def _margin_off_pole(t1, t2):
    return float(min(1.0 - t1[-1], 1.0 - t2[-1]))


def _margin_detour_even(t1, t2):
    e1 = np.zeros_like(t2)
    e1[0] = 1.0
    return float(
        min(
            np.linalg.norm(t1 - t2),
            np.linalg.norm(t2 - e1),
            np.linalg.norm(t2 + e1),
        )
    )


@dataclass(frozen=True)
class SpherePlanner:
    """Region-based planner on the unit sphere S^m in R^{m+1}."""

    m: int
    delta: float
    regions: tuple[Region, ...]

    def _check_point(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if t.shape != (self.m + 1,):
            raise ValueError(f"expected a point in R^{self.m + 1}, got shape {t.shape}")
        if not np.all(np.isfinite(t)):
            raise ValueError("query point has non-finite coordinates")
        n = float(np.linalg.norm(t))
        if abs(n - 1.0) > QUERY_NORM_TOL:
            raise ValueError(f"query point norm {n:.9f} too far from 1")
        return t / n

    def dispatch(self, t1: np.ndarray, t2: np.ndarray) -> int:
        """Lowest region index whose margin clears delta, else Uncovered."""
        for r in self.regions:
            if r.member(t1, t2, self.delta):
                return r.index
        margins = {r.name: r.margin(t1, t2) for r in self.regions}
        raise Uncovered(f"no region accepts the query; margins {margins}")

    def plan(self, t1: np.ndarray, t2: np.ndarray) -> tuple[int, PathExpr]:
        """Return (region index, path from t1 to t2)."""
        t1 = self._check_point(t1)
        t2 = self._check_point(t2)
        idx = self.dispatch(t1, t2)
        region = self.regions[idx - 1]
        return idx, region.build(t1, t2, self.delta)

    def plan_batch(self, starts: np.ndarray, goals: np.ndarray) -> list:
        """Plan every row: (region index, path), or the Uncovered that refused it.

        The points are checked and normalized a block at a time, dispatch and
        the paths are per row. A bad row raises what `plan` raises on it.
        """
        if len(starts) == len(goals) == 0:
            return []
        blocks = [np.asarray(b, dtype=float) for b in (starts, goals)]
        if any(b.shape[1:] != (self.m + 1,) for b in blocks):
            self.plan(blocks[0][0], blocks[1][0])  # no row has the right shape: row 0 raises
        norms = [row_norms(b) for b in blocks]
        ok = [np.abs(n - 1.0) <= QUERY_NORM_TOL for n in norms]  # NaN fails too
        for i in np.flatnonzero(~(ok[0] & ok[1]))[:1]:
            self.plan(blocks[0][i], blocks[1][i])  # raises the first bad row's error
        t1s, t2s = (b / n[:, None] for b, n in zip(blocks, norms))
        results: list = []
        for t1, t2 in zip(t1s, t2s, strict=True):
            try:
                idx = self.dispatch(t1, t2)
            except Uncovered as ex:
                results.append(ex)
                continue
            results.append((idx, self.regions[idx - 1].build(t1, t2, self.delta)))
        return results


def build_planner(m: int, delta: float = DEFAULT_MARGIN) -> SpherePlanner:
    """Planner on S^m: two regions for odd m, three for even m."""
    if not (0.0 < delta <= MAX_MARGIN):
        raise BadMargin(f"margin must lie in (0, {MAX_MARGIN}], got {delta!r}")
    if m < 1:
        raise ValueError("sphere dimension must be at least 1")
    if m % 2 == 1:
        regions = (
            Region(1, "segment", _margin_sum, segment_planner),
            Region(2, "detour", _margin_diff, detour_planner_odd),
        )
    else:
        regions = (
            Region(1, "chart", _margin_off_pole, chart_planner),
            Region(2, "segment", _margin_sum, segment_planner),
            Region(3, "detour", _margin_detour_even, detour_planner_even),
        )
    return SpherePlanner(m=m, delta=float(delta), regions=regions)


def random_sphere_point(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform point on S^m (normalized Gaussian)."""
    return normalize(rng.standard_normal(m + 1))
