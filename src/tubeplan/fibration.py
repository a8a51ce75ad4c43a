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
from numpy._core.multiarray import count_nonzero  # without np.count_nonzero's Python layer

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
# Halved sub-steps (the sub-knot steps below one knot) one row may spend over
# one lift. The tests and the acceptance criteria reach at most 78, and 62
# under the step rule alone; the benchmark's rounds reach at most 12. A
# corrector that converges only deep in the halving tree would otherwise pay
# up to 2^max_halvings calls per knot.
HALVING_BUDGET = 1024
# Choice: the tracker's step-length rule (Allgower & Georg, ch. 6). A stride's
# base length may be at most STEP_RULE * sigma_min(Df) at its anchor. Near a
# rank drop of the arm, sigma_min is about the base path's distance d from the
# pole and the lift's azimuth turns by about length / d, so under the rule it
# turns by at most about half a radian a stride.
STEP_RULE = 0.5
# Choice: the longest stride, in knots, where `NumericOracle` lets strides grow.
# Away from the poles most strides reach it: a one-row plan takes about 10
# rounds of strides on the arm and 4 on Hopf, against 18 and 16 at a cap of 16.
# Longer caps save few arm rounds (9.3 at 256) and make 10-row batches slower.
STRIDE_CAP = 64
# Choice: Newton iterations of the block correction. A knot predicted through
# the anchors of its stride under the step rule converges quadratically, in at
# most 3 iterations over 400 seed-3 arm plans; a knot that needs more is poorly
# predicted or poorly conditioned, and its stride is tracked again knot by knot.
BLOCK_NEWTON_ITERS = 8


@dataclass(frozen=True)
class WorkMap:
    """A smooth map R^n -> R^p restricted over the radius-eta task sphere.

    f and jac must accept batches over leading axes: f maps (..., n) to
    (..., p) and jac maps (..., n) to (..., p, n). sampler(rng, k) draws
    k configurations over uniformly random task values. fiber_generator is
    an orthogonal (n, n) matrix A with A^2 = -I, if the circle action
    x -> cos(theta) x + sin(theta) A x maps each fiber onto itself.
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
    fiber_generator: Optional[np.ndarray] = None

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
    """Predictor-corrector continuation lift along the base path, coarse to
    fine (Allgower & Georg, Introduction to Numerical Continuation Methods,
    SIAM 2003, ch. 6). A single lift is a batch of one.

    The base path is sampled at n_knots uniform knots, and the lift takes
    two phases:

    * Anchors. Each row advances a chain of anchors in strides of whole
      knots: a tangent predictor (the Gauss-Newton step for
      Df . dx = dgamma) and a Newton corrector (`newton_project`) onto the
      fiber over the stride's last knot. The rows take their strides in
      lockstep, one predictor and one corrector call per round over all of
      them, each row at its own knot. A stride is taken only when the base
      path's length over it (the sum of its knot-to-knot chords, which
      bounds the chord to every knot inside) is at most STEP_RULE times a
      lower bound on sigma_min(Df) at the anchor, which the predictor's
      normal matrix gives. A stride that breaks this rule is cut to its
      longest prefix that keeps it, and one whose corrector fails is halved;
      each taken stride doubles the next one, up to the stride cap. A
      one-knot step that breaks the rule or fails its corrector is halved
      below the knot grid, into sub-knots: they are tracked at once, stay
      in the row's knot table and count against HALVING_BUDGET. Near a rank
      drop sigma_min shrinks and the strides with it, so the lift cannot
      slip onto another preimage.
    * Block correction. The anchors are the only knots the first phase
      fills, so the knots left unfilled are the ones inside strides. Each is
      predicted through both anchors of its stride, the filled knots before
      and after it: the tangent predictor from the first, plus its miss at
      the second scaled by the square of the knot's place in the stride. All
      of them are corrected by one `newton_project` call at the same
      tolerance, within BLOCK_NEWTON_ITERS iterations. A stride with a knot
      that fails is tracked again from its anchor, one knot at a time.

    The stride cap is STRIDE_CAP knots where the fibers are discrete
    (n <= p, the arm): continuity alone then fixes the lift, whatever route
    the corrector takes. Where they are circles (n > p) the route picks the
    point on the fiber, and only minimum-norm one-knot steps keep the lift
    horizontal; so the cap is one knot, unless the map declares its fiber
    generator (Hopf). Its table is then turned along the fibers afterwards
    (`_Tracker.knot_table`): the discrete parallel transport those steps give.

    Each result is a knot table wrapped in a NumericLift node. Goals within
    singular_margin of a declared rank-drop value of the work map are
    refused up front: the fiber degenerates there and the tracked endpoint
    could not be certified.
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
        """Lift every planned row from its start, all rows in one tracker.

        Each row's lift is a one-row NumericLift, or the LiftFailure that
        ended it joins the refusals. The base blocks are sampled once at the
        knots.
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
        track = _Tracker(self, wm, ts, gammas, [path for _, path in paths])
        cap = STRIDE_CAP if wm.n <= wm.p or wm.fiber_generator is not None else 1
        n = rows.size
        track.chain(
            np.arange(n), starts[rows], np.zeros(n, dtype=int), np.full(n, self.n_knots - 1), cap
        )
        track.fill()
        blocks = []
        for c, (idx, path) in enumerate(paths):
            if c in track.failed:
                refused[int(rows[c])] = track.failed[c]
            else:
                blocks.append((idx, rows[c : c + 1], NumericLift(*track.knot_table(c), wm, path)))
        return Planned(planned.size, blocks, refused)


class _Tracker:
    """The knot tables of one `NumericOracle.lift_batch` call while it tracks.

    Row c of the batch owns gammas[c], its base path at the knots; reach[c],
    the base length from knot 0 to each knot along the chords over STEP_RULE,
    so that a stride from knot i to knot j keeps the step rule when
    reach[c, j] - reach[c, i] is at most sigma_min at its anchor (reach never
    falls along a row, so the knots that keep the rule from an anchor are the
    first ones, and a stride is cut to them by counting them); table[c],
    its lift at the knots, NaN until a knot is tracked, so that the knots
    inside its strides are the ones left unfilled; and subs[c], its
    sub-knots as (t, x). `chain` fills the anchors, `fill` the knots between
    them, and `knot_table` reads a row back.
    """

    def __init__(self, oracle: NumericOracle, wm: WorkMap, ts, gammas, paths):
        self.oracle, self.wm, self.ts, self.gammas, self.paths = oracle, wm, ts, gammas, paths
        rows, knots = gammas.shape[:2]
        self.reach = np.zeros((rows, knots))
        np.cumsum(row_norms(np.diff(gammas, axis=1)) / STEP_RULE, axis=1, out=self.reach[:, 1:])
        self.table = np.full((rows, knots, wm.n), np.nan)
        self.subs = [[] for _ in range(rows)]
        self.spent = [0] * rows  # halving sub-steps per row, up to HALVING_BUDGET
        self.failed = {}  # row -> the LiftFailure that ended it

    def chain(self, cols, x, i, end, cap: int) -> None:
        """Advance the rows cols from x at knots i to knots end, each row at its
        own knot, in strides of at most cap knots; only the anchors, the knots
        where the strides end, are written to the table."""
        wm, G, R = self.wm, self.gammas, self.reach
        s = np.full(cols.size, cap)
        gc = G[cols, i]
        self.table[cols, i] = x
        while True:
            j = np.minimum(i + s, end)
            gt = G[cols, j]
            reach = R[cols, j] - R[cols, i]
            J = wm.jac(x)
            dx, _, sigma2 = gauss_newton_step(J, gt - gc, bound=True)
            fits = reach * reach <= sigma2
            if count_nonzero(fits) == cols.size:
                xnew, ok = self._correct(x + dx, gt)
            else:
                # cut each stride that breaks the rule to its longest prefix that
                # keeps it: reach grows along the stride, so the knots that keep it
                # come first; a stride with none is cut to one knot and goes to
                # _subdivide without a corrector call
                r = np.flatnonzero(~fits)
                inner = np.minimum(i[r, None] + np.arange(1, cap), j[r, None])
                part = R[cols[r, None], inner] - R[cols[r], i[r]][:, None]
                cut = np.count_nonzero(part * part <= sigma2[r, None], axis=1)
                j[r] = i[r] + np.maximum(cut, 1)
                gt = G[cols, j]
                r = r[cut > 0]
                dx[r] = gauss_newton_step(J[r], gt[r] - gc[r])[0]
                fits[r] = True
                xnew, ok = x.copy(), fits.copy()
                xnew[fits], ok[fits] = self._correct(x[fits] + dx[fits], gt[fits])
            if count_nonzero(ok) == cols.size:
                self.table[cols, j] = xnew
                s = np.minimum(2 * (j - i), cap)
                i, x, gc = j, xnew, gt
                keep = i < end
            else:
                retry = ~ok & (j - i > 1)
                s = np.where(retry, (j - i) // 2, s)  # from the same anchor with half the stride
                moved, dead = ok, np.zeros(cols.size, dtype=bool)
                for r in np.flatnonzero(~ok & ~retry).tolist():
                    c = int(cols[r])
                    why = "corrector diverged" if fits[r] else "step-length rule unmet"
                    try:
                        xnew[r] = self._subdivide(
                            c, x[r : r + 1], self.ts[i[r]], self.ts[j[r]],
                            gc[r : r + 1], gt[r : r + 1], 0, why,
                        )[0]
                        moved[r] = True
                    except LiftFailure as ex:
                        self.failed[c] = ex
                        dead[r] = True
                self.table[cols[moved], j[moved]] = xnew[moved]
                s = np.where(moved, np.minimum(2 * (j - i), cap), s)
                i = np.where(moved, j, i)
                x = np.where(moved[:, None], xnew, x)
                gc = np.where(moved[:, None], gt, gc)
                keep = ~dead & (i < end)
            live = count_nonzero(keep)
            if live == 0:
                return
            if live < cols.size:
                cols, x, gc, i, s, end = (v[keep] for v in (cols, x, gc, i, s, end))

    def _correct(self, x0, g):
        """The Newton corrector of a tracked step: x0 projected onto the fibers over g."""
        wm = self.wm
        return newton_project(wm.f, wm.jac, x0, g, tol=LIFT_NEWTON_TOL, max_iter=LIFT_NEWTON_ITERS)

    def _subdivide(self, c: int, x, t0, t1, g0, g1, depth: int, why: str) -> np.ndarray:
        """Track row c, the 1-row block x, over [t0, t1] in two halves, after `why`
        stopped it over the whole of it `depth` halvings deep. A half that breaks
        the step rule or fails its corrector is halved in turn, and the midpoint
        joins the row's sub-knots."""
        if depth >= self.oracle.max_halvings:
            raise LiftFailure(t0, f"{why} after {depth} halvings")
        self.spent[c] += 2
        if self.spent[c] > HALVING_BUDGET:
            raise LiftFailure(t0, f"halving budget of {HALVING_BUDGET} sub-steps spent")
        wm = self.wm
        tm = 0.5 * (t0 + t1)
        gm = self.paths[c].at(tm)[None]
        for a, b, ga, gb in ((t0, tm, g0, gm), (tm, t1, gm, g1)):
            step = gb - ga
            dx, _, sigma2 = gauss_newton_step(wm.jac(x), step, bound=True)
            why = "step-length rule unmet"
            if (row_norms(step)[0] / STEP_RULE) ** 2 <= sigma2[0]:
                xnew, ok = self._correct(x + dx, gb)
                why = None if ok[0] else "corrector diverged"
            x = xnew if why is None else self._subdivide(c, x, a, b, ga, gb, depth + 1, why)
            if b == tm:
                self.subs[c].append((tm, x[0]))
        return x

    def fill(self) -> None:
        """Correct every knot left unfilled inside a stride in one block, each
        predicted through both anchors of its stride, the filled knots a before
        it and b after it; a stride with a knot that fails is tracked again from
        its anchor a, one knot at a time.

        The prediction at k, with s = (k - a) / (b - a), is the tangent predictor
        x_a + J_a^+ (gamma_k - gamma_a) plus s^2 times its miss at b, so that it
        would end on x_b; it takes the tangent predictor's one Gauss-Newton step
        from J_a, with another right-hand side."""
        hole = np.isnan(self.table[:, :, 0])
        hole[list(self.failed)] = False
        c, k = np.nonzero(hole)
        if c.size == 0:
            return
        knots = np.arange(hole.shape[1])
        a = np.maximum.accumulate(np.where(hole, 0, knots), axis=1)[c, k]
        b = np.minimum.accumulate(np.where(hole, knots[-1], knots)[:, ::-1], axis=1)[c, -1 - k]
        wm, G, T = self.wm, self.gammas, self.table
        xa, ga, s2 = T[c, a], G[c, a], (((k - a) / (b - a)) ** 2)[:, None]
        dx = gauss_newton_step(wm.jac(xa), G[c, k] - ga - s2 * (G[c, b] - ga))[0]
        xk, ok = newton_project(
            wm.f, wm.jac, xa + s2 * (T[c, b] - xa) + dx, G[c, k],
            tol=LIFT_NEWTON_TOL, max_iter=BLOCK_NEWTON_ITERS,
        )
        T[c, k] = xk
        if count_nonzero(ok) < ok.size:
            c, a, k = c[~ok], a[~ok], k[~ok]  # each stride's failing knots, then its last one
            last = np.append((c[1:] != c[:-1]) | (a[1:] != a[:-1]), True)
            c, a, k = c[last], a[last], k[last]
            self.chain(c, T[c, a], a, k, 1)

    def knot_table(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Row c's knots, the uniform ones and its sub-knots, and its lift at them.
        Under a fiber generator A each knot turns along its fiber, by the phases of
        <y_j, y_j+1> before it, to the point nearest the knot before; knot 0 stays."""
        knots, xs = self.ts, self.table[c].copy()
        if self.subs[c]:
            ts, subs = zip(*self.subs[c])
            knots, xs = np.concatenate([knots, ts]), np.concatenate([xs, np.stack(subs)])
            order = np.argsort(knots, kind="stable")
            knots, xs = knots[order], xs[order]
        A = self.wm.fiber_generator
        if A is not None:
            ay = xs @ A.T
            phase = np.cumsum(np.arctan2(np.vecdot(ay[:-1], xs[1:]), np.vecdot(xs[:-1], xs[1:])))
            xs[1:] = np.cos(phase)[:, None] * xs[1:] - np.sin(phase)[:, None] * ay[1:]
        return knots, xs


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
