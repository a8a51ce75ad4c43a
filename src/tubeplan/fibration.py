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

from .errors import LiftFailure, Uncovered
from .geometry import (
    LIFT_NEWTON_ITERS,
    LIFT_NEWTON_TOL,
    CircleActionLift,
    Concat,
    Constant,
    NormalizedSegment,
    NumericLift,
    PathExpr,
    Scaled,
    gauss_newton_step,
    newton_project,  # re-exported: tests and tools import it from here
    normalize,
    row_norms,
)
from .sphere_planner import DEFAULT_MARGIN, SpherePlanner, build_planner

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
        (lam,) = self.lift_batch(wm, [e], [path])
        return lam

    def lift_batch(self, wm: WorkMap, starts: np.ndarray, paths: list) -> list:
        """`lift` on every row: one gap check over the block, then each closed-form lift."""
        if wm.germ is None or wm.p != 2:
            raise ValueError("exact lifting needs a plane-valued germ work map")
        starts = np.asarray(starts, dtype=float)
        gaps = row_norms(wm.f(starts) - np.array([path.at(0.0) for path in paths]))
        off = gaps > 10.0 * self.lift_tol
        if off.any():
            raise ValueError(f"start sits {gaps[off][0]:.3e} off the base point")
        return [self._lift(wm.germ, e, path) for e, path in zip(starts, paths, strict=True)]

    def _lift(self, germ, x0: np.ndarray, path: PathExpr) -> PathExpr:
        if isinstance(path, Scaled):
            inner = path.path
            if isinstance(inner, Concat):
                path = Concat(
                    Scaled(inner.left, path.factor), Scaled(inner.right, path.factor)
                )
            elif isinstance(inner, Constant):
                return Constant(x0)
        if isinstance(path, Concat):
            left = self._lift(germ, x0, path.left)
            right = self._lift(germ, left.at(1.0), path.right)
            return Concat(left, right)
        if isinstance(path, Constant):
            return Constant(x0)
        leaf = path.path if isinstance(path, Scaled) else path
        if not isinstance(leaf, NormalizedSegment):
            raise ValueError(
                f"cannot lift {type(leaf).__name__} exactly; only normalized chords sweep < pi"
            )
        return CircleActionLift(germ=germ, start=x0, base=path)


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
        (lam,) = self.lift_batch(wm, [e], [path])
        if isinstance(lam, LiftFailure):
            raise lam
        return lam

    def lift_batch(self, wm: WorkMap, starts: np.ndarray, paths: list) -> list:
        """Lift paths[i] from starts[i] for every row, tracking all rows in lockstep.

        Returns one NumericLift, or the LiftFailure that ended the row,
        per row. Each knot takes one predictor step and one corrector
        call over the whole block of live rows; a row whose corrector
        fails is halved on its own and either rejoins the block or fails.
        """
        starts = np.asarray(starts, dtype=float)
        out: list = [None] * len(paths)
        for i, (e, path) in enumerate(zip(starts, paths, strict=True)):
            gap = float(np.linalg.norm(wm.f(e) - path.at(0.0)))
            if gap > 10.0 * self.lift_tol:
                raise ValueError(f"start sits {gap:.3e} off the base point")
            if wm.singular_values is not None:
                d = float(np.min(np.linalg.norm(wm.singular_values - path.at(1.0), axis=1)))
                if d < self.singular_margin:
                    out[i] = LiftFailure(
                        1.0,
                        f"goal lies {d:.3e} from a rank-drop value of {wm.name!r}; "
                        f"tracking is refused inside margin {self.singular_margin:.0e}",
                    )
        rows = np.array([i for i, o in enumerate(out) if o is None], dtype=int)
        if rows.size == 0:
            return out
        ts = np.linspace(0.0, 1.0, self.n_knots)
        # knot-major tables, so that each knot's block of rows is contiguous
        gammas = np.stack([paths[i].sample(ts) for i in rows], axis=1)  # (knots, rows, p)
        steps = np.diff(gammas, axis=0)
        table = np.empty((self.n_knots, rows.size, starts.shape[1]), dtype=float)
        table[0] = x = starts[rows]
        live = np.arange(rows.size)  # columns of the tables still tracked
        spent = {i: [0] for i in rows}  # halving sub-steps per row
        for k in range(self.n_knots - 1):
            xnew, ok = self._advance(wm, x, steps[k], gammas[k + 1])
            if np.count_nonzero(ok) < ok.size:
                keep = np.ones(live.size, dtype=bool)
                for j in np.flatnonzero(~ok):
                    i = rows[live[j]]
                    try:
                        xnew[j] = self._halve(
                            wm, paths[i], x[j : j + 1], ts[k], ts[k + 1],
                            gammas[k, j : j + 1], gammas[k + 1, j : j + 1], 0, spent[i],
                        )[0]
                    except LiftFailure as ex:
                        out[i] = ex
                        keep[j] = False
                xnew, live = xnew[keep], live[keep]
                gammas, steps = gammas[:, keep], steps[:, keep]
            if live.size == rows.size:
                table[k + 1] = x = xnew
            else:
                table[k + 1, live] = x = xnew
        for j, i in enumerate(rows):
            if out[i] is None:
                out[i] = NumericLift(ts, np.ascontiguousarray(table[:, j]), wm, paths[i])
        return out

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
        tol = 1e-6 * max(1.0, self.eta)
        off_start = np.abs(row_norms(fe) - self.eta) > tol
        off_goal = np.abs(row_norms(goals) - self.eta) > tol
        off = off_start | off_goal
        if off.any():
            if off_start[off][0]:
                raise ValueError("start configuration does not sit over the task sphere")
            raise ValueError("goal value does not sit on the task sphere")
        return normalize(fe), normalize(goals)

    def plan(self, e: np.ndarray, w: np.ndarray) -> tuple[int, PathExpr]:
        """Return (region index, lifted path from e onto the fiber of w)."""
        e, w = np.asarray(e, dtype=float), np.asarray(w, dtype=float)
        (result,) = self.plan_batch(e[None], w[None])
        if isinstance(result, Exception):
            raise result
        return result

    def plan_batch(self, starts: np.ndarray, goals: np.ndarray) -> list:
        """Plan every row: (region index, lifted path), or the Uncovered or
        LiftFailure that refused it.

        The block's base pairs come from one `base_pairs` call, dispatch and the
        base paths are per query, and all lifts go to the oracle in one call.
        """
        if len(starts) == len(goals) == 0:
            return []
        starts = np.asarray(starts, dtype=float)
        results: list = [None] * len(starts)
        todo, gammas = [], []
        for i, (th1, th2) in enumerate(zip(*self.base_pairs(starts, goals), strict=True)):
            try:
                idx = self.base.dispatch(th1, th2)
            except Uncovered as ex:
                results[i] = ex
                continue
            region = self.base.regions[idx - 1]
            todo.append((i, idx))
            gammas.append(Scaled(region.build(th1, th2, self.base.delta), self.eta))
        if todo:
            lifts = self.oracle.lift_batch(self.workmap, starts[[i for i, _ in todo]], gammas)
            for (i, idx), lam in zip(todo, lifts):
                results[i] = lam if isinstance(lam, LiftFailure) else (idx, lam)
        return results


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
