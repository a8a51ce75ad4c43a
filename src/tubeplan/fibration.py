"""Work maps, path-lifting oracles, and pullback tasking planners.

A work map sends configurations in R^n to task values on a sphere of
radius eta in R^p. Planning a task means: project the start
configuration down, plan on the sphere with the region planners from
`sphere_planner`, and lift the base path back up through the map. The
lift is what distinguishes maps: plane-valued weighted-homogeneous
germs admit an exact lift through their circle action, everything else
is tracked numerically by a predictor-corrector continuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import LiftFailure
from .geometry import (
    LIFT_NEWTON_ITERS,
    LIFT_NEWTON_TOL,
    CircleActionLift,
    Concat,
    NormalizedSegment,
    NumericLift,
    PathExpr,
    Scaled,
    gauss_newton_step,
    newton_project,
    normalize,
    perturb_on_sphere,
    row_norms,
)
from .sphere_planner import DEFAULT_MARGIN, QUERY_NORM_TOL, Planned, SpherePlanner, build_planner

# Choice: 10x the per-kind lift tolerance is how far a start configuration
# may sit off the base point before lifting refuses the query.
EXACT_LIFT_TOL = 1e-12
NUMERIC_LIFT_TOL = 1e-6
# Halved sub-steps (corrector calls) one row may spend over one lift. The
# tests, the acceptance criteria and the benchmark reach at most 78; a
# corrector that converges only deep in the halving tree would otherwise
# pay up to 2^max_halvings calls per knot.
HALVING_BUDGET = 1024


@dataclass(frozen=True)
class WorkMap:
    """A smooth map R^n -> R^p restricted over the radius-eta task sphere.

    f and jac must accept batches over leading axes: f maps (..., n) to
    (..., p) and jac maps (..., n) to (..., p, n). sampler(rng, k) draws
    k configurations over uniformly random task values.
    """

    n: int
    p: int
    f: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    eta: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    name: str = ""
    germ: Optional[object] = None
    singular_values: Optional[np.ndarray] = None
    flags: Optional[dict] = None

    def descriptor(self) -> Optional[dict]:
        from .milnor import NAMED_WORKMAPS  # milnor imports this module
        if self.germ is not None:
            return {"kind": "germ", "germ": self.germ.to_dict()}
        if self.name in NAMED_WORKMAPS:
            return {"kind": "named", "name": self.name}
        return None

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        return self.sampler(rng, k)


@dataclass(frozen=True)
class ExactCircleOracle:
    """Exact lifting through the weighted circle action of a plane germ.

    Only defined for work maps carrying a weighted-homogeneous germ
    with a plane target. Base paths must be built from normalized
    chords (each piece sweeps less than a half turn, so the relative
    plane angle is unambiguous pointwise).
    """

    lift_tol = EXACT_LIFT_TOL
    kind = "exact"

    def lift(self, wm: WorkMap, e: np.ndarray, path: PathExpr) -> PathExpr:
        """Lift path from e: one start and a one-row path, or a (k, n) block of
        starts and a block path, which gives a block lift."""
        if wm.germ is None or wm.p != 2:
            raise ValueError("exact lifting needs a plane-valued germ work map")
        e = np.asarray(e, dtype=float)
        gaps = np.atleast_1d(row_norms(wm.f(e) - path.at(0.0)))
        off = gaps > 10.0 * self.lift_tol
        if off.any():
            raise ValueError(f"start sits {gaps[off][0]:.3e} off the base point")
        return self._lift(wm.germ, e, path, None)

    def lift_batch(self, wm: WorkMap, starts: np.ndarray, planned: Planned) -> Planned:
        """`lift` on each block of base paths; the first block with a start off
        its base point raises."""
        starts = np.asarray(starts, dtype=float)
        lifts = [(i, rows, self.lift(wm, starts[rows], path)) for i, rows, path in planned.blocks]
        return Planned(planned.size, lifts, planned.refused)

    def _lift(self, germ, x0: np.ndarray, path: PathExpr, factor: Optional[float]) -> PathExpr:
        """Lift path from x0, where factor, unless None, scales every leaf of it."""
        if isinstance(path, Scaled) and factor is None:
            return self._lift(germ, x0, path.path, path.factor)
        if isinstance(path, Concat):
            left = self._lift(germ, x0, path.left, factor)
            return Concat(left, self._lift(germ, left.at(1.0), path.right, factor))
        if not isinstance(path, NormalizedSegment):
            raise ValueError(
                f"cannot lift {type(path).__name__} exactly; only normalized chords sweep < pi"
            )
        base = path if factor is None else Scaled(path, factor)
        return CircleActionLift(germ=germ, start=x0, base=base)


@dataclass(frozen=True)
class NumericOracle:
    """Predictor-corrector continuation lift along the base path.

    Tangent predictor from the Gauss-Newton step for Df . dx = dgamma,
    Newton corrector (`newton_project`) back onto the level set with the
    same step, recursive step halving on corrector failure. The rows of
    a batch are tracked in lockstep, knot by knot (Allgower & Georg,
    Introduction to Numerical Continuation Methods, SIAM 2003, ch. 6);
    a single lift is a batch of one. Each result is a dense knot table
    wrapped in a NumericLift node.

    Goals within singular_margin of a declared rank-drop value of the
    work map are refused up front: the fiber degenerates there and the
    tracked endpoint could not be certified.
    """

    lift_tol = NUMERIC_LIFT_TOL
    n_knots = 256
    max_halvings = 12
    singular_margin = 1e-2
    kind = "numeric"

    def lift(self, wm: WorkMap, e: np.ndarray, path: PathExpr) -> PathExpr:
        one = Planned(1, [(0, np.zeros(1, dtype=int), path.row(None))], {})
        (lam,) = self.lift_batch(wm, np.asarray(e, dtype=float)[None], one)
        if isinstance(lam, LiftFailure):
            raise lam
        return lam[1]

    def lift_batch(self, wm: WorkMap, starts: np.ndarray, planned: Planned) -> Planned:
        """Lift every planned row from its start, tracking all rows in lockstep.

        Each row's lift is a one-row NumericLift, or the LiftFailure that
        ended it joins the refusals. The base blocks are sampled once at the
        knots. Each knot takes one predictor step and one corrector call over
        the whole batch of live rows; a row whose corrector fails is halved on
        its own and either rejoins the batch or fails.
        """
        if not planned.blocks:
            return planned
        starts = np.asarray(starts, dtype=float)
        refused = dict(planned.refused)
        ts = np.linspace(0.0, 1.0, self.n_knots)
        rows, gammas = planned.sample(ts)  # (rows, knots, p); knot 0 is t = 0, the last t = 1
        paths = [(idx, path.row(j)) for idx, r, path in planned.blocks for j in range(r.size)]
        gaps = row_norms(wm.f(starts[rows]) - gammas[:, 0])
        off = gaps > 10.0 * self.lift_tol
        if off.any():
            raise ValueError(f"start sits {gaps[off][0]:.3e} off the base point")
        if wm.singular_values is not None:
            d = np.linalg.norm(wm.singular_values - gammas[:, -1, None], axis=-1).min(axis=1)
            near = d < self.singular_margin
            for i, di in zip(rows[near].tolist(), d[near]):
                refused[i] = LiftFailure(
                    1.0,
                    f"goal lies {di:.3e} from a rank-drop value of {wm.name!r}; "
                    f"tracking is refused inside margin {self.singular_margin:.0e}",
                )
            keep = np.flatnonzero(~near)
            rows, gammas, paths = rows[keep], gammas[keep], [paths[c] for c in keep]
        if rows.size == 0:
            return Planned(planned.size, [], refused)
        # knot-major tables, so that each knot's block of rows is contiguous
        gammas = np.ascontiguousarray(gammas.transpose(1, 0, 2))  # (knots, rows, p)
        steps = np.diff(gammas, axis=0)
        table = np.empty((self.n_knots, rows.size, starts.shape[1]), dtype=float)
        table[0] = x = starts[rows]
        live = np.arange(rows.size)  # columns of the tables still tracked
        spent = [[0] for _ in paths]  # halving sub-steps per row
        for k in range(self.n_knots - 1):
            xnew, ok = self._advance(wm, x, steps[k], gammas[k + 1])
            if np.count_nonzero(ok) < ok.size:
                keep = np.ones(live.size, dtype=bool)
                for j in np.flatnonzero(~ok):
                    c = live[j]
                    try:
                        xnew[j] = self._halve(
                            wm, paths[c][1], x[j : j + 1], ts[k], ts[k + 1],
                            gammas[k, j : j + 1], gammas[k + 1, j : j + 1], 0, spent[c],
                        )[0]
                    except LiftFailure as ex:
                        refused[int(rows[c])] = ex
                        keep[j] = False
                xnew, live = xnew[keep], live[keep]
                gammas, steps = gammas[:, keep], steps[:, keep]
            if live.size == rows.size:
                table[k + 1] = x = xnew
            else:
                table[k + 1, live] = x = xnew
        blocks = [
            (idx, rows[c : c + 1], NumericLift(ts, np.ascontiguousarray(table[:, c]), wm, path))
            for c, (idx, path) in enumerate(paths)
            if int(rows[c]) not in refused
        ]
        return Planned(planned.size, blocks, refused)

    def _advance(self, wm, x, step, target) -> tuple[np.ndarray, np.ndarray]:
        # tangent predictor along the base step, then the corrector onto the target
        # fiber; a singular step is NaN, which the corrector fails, so it halves
        xpred = x + gauss_newton_step(wm.jac(x), step)[0]
        return newton_project(
            wm.f, wm.jac, xpred, target, tol=LIFT_NEWTON_TOL, max_iter=LIFT_NEWTON_ITERS
        )

    def _halve(self, wm, path, x, t0, t1, g0, g1, depth, spent) -> np.ndarray:
        """Track the 1-row block x over [t0, t1] in two halves, after the
        corrector failed over the whole of it `depth` halvings deep. spent[0]
        counts the row's sub-steps in this lift, up to HALVING_BUDGET."""
        if depth >= self.max_halvings:
            raise LiftFailure(t0, f"corrector diverged after {depth} halvings")
        spent[0] += 2
        if spent[0] > HALVING_BUDGET:
            raise LiftFailure(t0, f"halving budget of {HALVING_BUDGET} sub-steps spent")
        tm = 0.5 * (t0 + t1)
        gm = path.at(tm)[None]
        for a, b, ga, gb in ((t0, tm, g0, gm), (tm, t1, gm, g1)):
            xnew, ok = self._advance(wm, x, gb - ga, gb)
            x = xnew if ok[0] else self._halve(wm, path, x, a, b, ga, gb, depth + 1, spent)
        return x


@dataclass(frozen=True)
class TaskingPlanner:
    """Pullback of a sphere planner through a work map.

    Regions are the preimages of the base regions, so the region count
    is inherited; membership of (e, w) is membership of the projected
    pair (f(e)/eta, w/eta) downstairs.
    """

    workmap: WorkMap
    base: SpherePlanner
    oracle: object

    def __post_init__(self):
        if len(self.base.regions) < 2:
            raise ValueError(
                "refusing a single-region planner over a sphere base: "
                "spheres admit no global planning rule"
            )
        if self.base.m != self.workmap.p - 1:
            raise ValueError(
                f"base planner lives on S^{self.base.m} but the work map "
                f"targets S^{self.workmap.p - 1}"
            )

    @property
    def regions(self):
        return self.base.regions

    @property
    def delta(self) -> float:
        return self.base.delta

    @property
    def eta(self) -> float:
        return self.workmap.eta

    def base_pairs(self, starts: np.ndarray, goals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows (f(e)/eta, w/eta) on the base sphere, from one work map call;
        the first row with a start or goal off the task sphere raises."""
        fe = self.workmap.f(np.asarray(starts, dtype=float))
        goals = np.asarray(goals, dtype=float)
        tol = QUERY_NORM_TOL * max(1.0, self.eta)
        off_start = np.abs(row_norms(fe) - self.eta) > tol
        off_goal = np.abs(row_norms(goals) - self.eta) > tol
        off = off_start | off_goal
        if off.any():
            if off_start[off][0]:
                raise ValueError("start configuration does not sit over the task sphere")
            raise ValueError("goal value does not sit on the task sphere")
        return normalize(fe), normalize(goals)

    def plan(self, e: np.ndarray, w: np.ndarray) -> tuple[int, PathExpr]:
        """Return (region index, lifted path from e onto the fiber of w), one
        row as `plan_batch` plans it, with no block built."""
        e, w = np.asarray(e, dtype=float), np.asarray(w, dtype=float)
        (th1,), (th2,) = self.base_pairs(e[None], w[None])
        idx = self.base.dispatch(th1, th2)
        gamma = Scaled(self.base.regions[idx - 1].build(th1, th2, self.delta), self.eta)
        return idx, self.oracle.lift(self.workmap, e, gamma)

    def plan_batch(self, starts: np.ndarray, goals: np.ndarray) -> Planned:
        """Plan every row (see `Planned`); Uncovered or LiftFailure refuses a row.

        The block's base pairs come from one `base_pairs` call, the base planner
        plans them a region block at a time, and the oracle lifts every block
        in one call.
        """
        if len(starts) == len(goals) == 0:
            return Planned(0, [], {})
        starts = np.asarray(starts, dtype=float)
        base = self.base.plan_units(*self.base_pairs(starts, goals))
        scaled = [(idx, rows, Scaled(path, self.eta)) for idx, rows, path in base.blocks]
        return self.oracle.lift_batch(self.workmap, starts, Planned(base.size, scaled, base.refused))

    # the planner protocol of `verify`: see SpherePlanner
    @property
    def end_tol(self) -> float:
        return self.oracle.lift_tol

    @property
    def label(self) -> str:
        return f"pullback({self.workmap.name}, oracle={self.oracle.kind}, delta={self.delta})"

    def sample_queries(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        starts = self.workmap.sample(rng, k)
        return starts, self.eta * normalize(rng.standard_normal((k, self.workmap.p)))

    def sample_pairs(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, ...]:
        starts, goals = self.sample_queries(rng, k)
        return (starts, *self.base_pairs(starts, goals))

    def end_value(self, x: np.ndarray) -> np.ndarray:
        return self.workmap.f(x)

    def deep_check(self, idx: int, t1s, t2s, pts: np.ndarray, ts: np.ndarray) -> tuple:
        """Checks each row's projection residual against its base path and records
        its distance from the task sphere."""
        vals = self.workmap.f(pts)
        gamma = Scaled(self.regions[idx - 1].build(t1s, t2s, self.delta), self.eta)
        projs = np.linalg.norm(vals - gamma.sample(ts), axis=-1).max(axis=1)
        devs = np.abs(np.linalg.norm(vals, axis=-1) - self.eta).max(axis=1)
        measured = {"max_projection_residual": projs, "max_surface_deviation": devs}
        return "projection", "residual", projs, measured

    def perturb(self, rng: np.random.Generator, t1: np.ndarray, t2: np.ndarray, scale: float):
        return t1, perturb_on_sphere(rng, t2, scale)  # the start stays pinned to its fiber

    def region_paths(self, idx: int, starts, t1s: np.ndarray, t2s: np.ndarray) -> list:
        """The base region's paths lifted from starts; the first refused row raises."""
        base = self.base.region_paths(idx, starts, t1s, t2s)
        scaled = [(i, rows, Scaled(path, self.eta)) for i, rows, path in base]
        lifted = self.oracle.lift_batch(self.workmap, starts, Planned(len(t1s), scaled, {}))
        if lifted.refused:
            raise lifted.refused[min(lifted.refused)]
        return lifted.blocks


def pullback_planner(
    wm: WorkMap, oracle: Optional[object] = None, delta: float = DEFAULT_MARGIN
) -> TaskingPlanner:
    """Tasking planner over a work map, defaulting to the right oracle.

    Germ-backed plane-valued maps lift exactly; everything else gets the
    numeric continuation oracle.
    """
    if oracle is None:
        if wm.germ is not None and wm.p == 2:
            oracle = ExactCircleOracle()
        else:
            oracle = NumericOracle()
    return TaskingPlanner(workmap=wm, base=build_planner(wm.p - 1, delta), oracle=oracle)


# --- concrete non-germ work maps -------------------------------------------


def _rr_f(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    c, s = np.cos(x), np.sin(x)
    ca = c[..., 0]
    out = np.empty(x.shape[:-1] + (3,), dtype=float)
    out[..., 0] = ca * c[..., 1]
    out[..., 1] = ca * s[..., 1]
    out[..., 2] = s[..., 0]
    return out


def _rr_jac(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    c, s = np.cos(x), np.sin(x)
    ca, nsa, cb, sb = c[..., 0], -s[..., 0], c[..., 1], s[..., 1]
    J = np.zeros(x.shape[:-1] + (3, 2), dtype=float)
    J[..., 0, 0] = nsa * cb
    J[..., 0, 1] = -ca * sb
    J[..., 1, 0] = nsa * sb
    J[..., 1, 1] = ca * cb
    J[..., 2, 0] = ca
    return J


def rr_arm_workmap() -> WorkMap:
    """Two-joint arm direction map: angles (shoulder, azimuth) -> S^2.

    Not a fibration: the differential drops rank where the arm points
    straight up or down, and the fiber over those two values is a whole
    circle instead of two points. Declared as rank-drop values so the
    numeric oracle refuses goals too close to them.
    """
    return WorkMap(
        n=2,
        p=3,
        f=_rr_f,
        jac=_rr_jac,
        eta=1.0,
        name="rr_arm",
        sampler=lambda rng, k: rng.uniform(-math.pi, math.pi, (k, 2)),
        singular_values=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
    )
