"""Optimal motion planners on round spheres.

Odd-dimensional spheres get a two-region planner, even-dimensional ones
a three-region planner; those counts are the smallest possible, so the
planners double as upper-bound witnesses for the navigation complexity
of the sphere. Region membership is expressed through a margin
function, and a query belongs to a region when its margin clears the
planner's tolerance delta. Dispatch always picks the lowest-index
matching region, which keeps outputs reproducible. The region builders
take one pair of unit vectors, or a block of pairs as the rows of
(k, m+1) arrays, which gives a block path; any row outside the region
raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AntipodalPair, AtPole, BadMargin, EqualPair, PoleOfField, Uncovered
from .geometry import (
    NORM_TOL,
    Concat,
    NormalizedSegment,
    PathExpr,
    StereoSegment,
    normalize,
    perturb_on_sphere,
    point_norms,
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
    if np.count_nonzero(_margin_sum(t1, t2) < delta):
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
    if np.count_nonzero(_margin_diff(t1, t2) < delta):
        raise EqualPair("detour planner undefined on near-equal pairs")
    first = NormalizedSegment(t1, -t2)
    return Concat(first, _pivot_swing(-t2, t2, tangent_odd))


def chart_planner(t1: np.ndarray, t2: np.ndarray, delta: float = DEFAULT_MARGIN) -> PathExpr:
    """Straight-line interpolation in the stereographic chart.

    Needs both points at least delta below the north pole (in the last
    coordinate).
    """
    if np.count_nonzero((t1.T[-1] > 1.0 - delta) | (t2.T[-1] > 1.0 - delta)):
        raise AtPole("chart planner undefined near the north pole")
    return StereoSegment(t1, t2)


def detour_planner_even(t1: np.ndarray, t2: np.ndarray, delta: float = DEFAULT_MARGIN) -> PathExpr:
    """Route t1 -> -t2 -> t2 using the skew tangent field.

    Needs t1 != t2 and t2 away from both zeros +-e1 of the field.
    """
    if np.count_nonzero(_margin_diff(t1, t2) < delta):
        raise EqualPair("detour planner undefined on near-equal pairs")
    if np.count_nonzero(_margin_detour_even(t1, t2) < delta):  # so t2 lies near +-e1
        raise PoleOfField("detour pivot field vanishes at +-e1")
    first = NormalizedSegment(t1, -t2)
    return Concat(first, _pivot_swing(-t2, t2, tangent_even))


@dataclass(frozen=True)
class Region:
    """One continuity region of a planner with its local rule."""

    index: int
    name: str
    # the margin of one pair, or the (k,) margins of a block of pairs; a
    # block's margins equal its rows' margins bit for bit (`row_norms`)
    margin: Callable[[np.ndarray, np.ndarray], np.ndarray]
    build: Callable[[np.ndarray, np.ndarray, float], PathExpr]

    def member(self, t1: np.ndarray, t2: np.ndarray, delta: float) -> bool:
        return bool(self.margin(t1, t2) >= delta)


def _margin_sum(t1, t2):
    return row_norms(t1 + t2)


def _margin_diff(t1, t2):
    return row_norms(t1 - t2)


def _margin_off_pole(t1, t2):
    return 1.0 - np.maximum(t1.T[-1], t2.T[-1])  # .T[-1]: the last coordinates


def _margin_detour_even(t1, t2):
    e1 = np.eye(t2.shape[-1])[0]  # the skew field vanishes at +-e1
    return np.minimum(_margin_diff(t1, t2), np.minimum(row_norms(t2 - e1), row_norms(t2 + e1)))


class Planned:
    """What `plan_batch` made of a batch of queries, one region block at a time.

    blocks holds (region index, rows, path) per block: rows are positions in
    the batch, ascending, and row j of the block path belongs to rows[j] (a
    numeric lift is a block of one row with a one-row path). refused maps
    the other positions to their Uncovered or LiftFailure. Position i reads
    (and iterates) as `plan` returns it: (region index, path), the path made
    by `row` only then, or the refusal.
    """

    def __init__(self, size: int, blocks: list, refused: dict):
        self.size, self.blocks, self.refused = size, blocks, refused

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int):
        if i in self.refused:
            return self.refused[i]
        for idx, rows, path in self.blocks:
            j = int(np.searchsorted(rows, i))
            if j < rows.size and rows[j] == i:
                return idx, path if len(path.shape) == 1 else path.row(j)
        raise IndexError(i)

    def sample(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The planned positions, block by block, and their paths sampled at
        ts: (K,) and (K, T, d), from one `sample` call per block."""
        rows = np.concatenate([rows for _, rows, _ in self.blocks])
        pts = [path.sample(ts).reshape(r.size, len(ts), -1) for _, r, path in self.blocks]
        return rows, np.concatenate(pts)


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
        if not np.isfinite(t).all():
            raise ValueError("query point has non-finite coordinates")
        n = float(row_norms(t))
        if abs(n - 1.0) > QUERY_NORM_TOL:
            raise ValueError(f"query point norm {n:.9f} too far from 1")
        return t / n

    def dispatch(self, t1: np.ndarray, t2: np.ndarray) -> int:
        """Lowest region index whose margin clears delta, else Uncovered."""
        for r in self.regions:
            if r.member(t1, t2, self.delta):
                return r.index
        raise self._uncovered([r.margin(t1, t2) for r in self.regions])

    def _uncovered(self, margins) -> Uncovered:
        named = {r.name: float(m) for r, m in zip(self.regions, margins)}
        return Uncovered(f"no region accepts the query; margins {named}")

    def margins(self, t1s: np.ndarray, t2s: np.ndarray) -> np.ndarray:
        """(k, R): the margin of every region on every row of a block of unit pairs."""
        return np.stack([r.margin(t1s, t2s) for r in self.regions], axis=1)

    def plan(self, t1: np.ndarray, t2: np.ndarray) -> tuple[int, PathExpr]:
        """Return (region index, path from t1 to t2)."""
        t1 = self._check_point(t1)
        t2 = self._check_point(t2)
        idx = self.dispatch(t1, t2)
        region = self.regions[idx - 1]
        return idx, region.build(t1, t2, self.delta)

    def plan_batch(self, starts: np.ndarray, goals: np.ndarray) -> Planned:
        """Plan every row (see `Planned`); Uncovered refuses a row."""
        if len(starts) == len(goals) == 0:
            return Planned(0, [], {})
        return self.plan_units(*self.base_pairs(starts, goals))

    def base_pairs(self, starts: np.ndarray, goals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both blocks of points checked and normalized in one pass; the first
        bad row raises what `plan` raises on it."""
        blocks = [np.asarray(b, dtype=float) for b in (starts, goals)]
        if any(b.shape[1:] != (self.m + 1,) for b in blocks):
            for b in blocks:  # no row has the right shape: row 0 raises
                self._check_point(b[0])
        norms = [row_norms(b) for b in blocks]
        ok = [np.abs(n - 1.0) <= QUERY_NORM_TOL for n in norms]  # NaN fails too
        for i in np.flatnonzero(~(ok[0] & ok[1]))[:1]:
            for b in blocks:  # the first bad row's error: its start, then its goal
                self._check_point(b[i])
        t1s, t2s = (b / n[:, None] for b, n in zip(blocks, norms))
        return t1s, t2s

    def plan_units(self, t1s: np.ndarray, t2s: np.ndarray) -> Planned:
        """Plan a block of unit pairs: every row goes to the lowest region whose
        margin clears delta, as `dispatch` sends it, and each region builds
        its rows as one block path."""
        margins = self.margins(t1s, t2s)
        ok = margins >= self.delta
        pick = np.where(ok.any(axis=1), ok.argmax(axis=1) + 1, 0)  # the region index, or 0
        blocks = [(r.index, rows, r.build(t1s[rows], t2s[rows], self.delta))
                  for r in self.regions if (rows := np.flatnonzero(pick == r.index)).size]
        refused = {i: self._uncovered(margins[i]) for i in np.flatnonzero(pick == 0).tolist()}
        return Planned(len(t1s), blocks, refused)

    # the planner protocol of `verify` (README): a pullback planner has the same members
    end_tol = NORM_TOL  # how far a path end may sit from its query point

    @property
    def label(self) -> str:
        return f"sphere(m={self.m}, delta={self.delta})"

    def sample_queries(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        starts = normalize(rng.standard_normal((k, self.m + 1)))
        return starts, normalize(rng.standard_normal((k, self.m + 1)))

    def sample_pairs(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, ...]:
        """(starts, t1s, t2s) of k queries: sampled points are their own unit pairs."""
        t1s, t2s = self.sample_queries(rng, k)
        return t1s, t1s, t2s

    def end_value(self, x: np.ndarray) -> np.ndarray:
        return x

    def deep_check(self, idx: int, t1s, t2s, pts: np.ndarray, ts: np.ndarray) -> tuple:
        """(failure kind, detail word, per-row values checked against end_tol, report
        maxima) of the block rows whose paths pts samples at ts."""
        devs = np.abs(point_norms(pts) - 1.0).max(axis=1)
        return "off-sphere", "deviation", devs, {"max_surface_deviation": devs}

    def perturb(self, rngs: list, t1s: np.ndarray, t2s: np.ndarray, scales) -> list:
        """The pairs (t1s, t2s), both ends moved, at each scale: pair i's noise, for
        t1 and then for t2, is drawn once from rngs[i]."""
        xi = np.array([rng.standard_normal((2, t1s.shape[1])) for rng in rngs])
        return [(perturb_on_sphere(xi[:, 0], t1s, s), perturb_on_sphere(xi[:, 1], t2s, s))
                for s in scales]

    def region_paths(self, idx: int, starts, t1s: np.ndarray, t2s: np.ndarray) -> list:
        """Region idx's (region index, rows, path) blocks for a block of pairs, no dispatch."""
        return [(idx, np.arange(len(t1s)), self.regions[idx - 1].build(t1s, t2s, self.delta))]


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
