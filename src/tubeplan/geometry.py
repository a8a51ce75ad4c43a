"""Sphere charts, tangent fields, and a serializable path expression tree.

Points are plain float ndarrays. Complex coordinates are realified by
interleaving, z_j = x[2j] + i*x[2j+1]; every module uses this layout.

Paths are closed expression trees evaluated lazily on [0, 1]. Nodes are
small dataclasses; evaluation has a scalar form (`at`) and a vectorized
form (`sample`) because the verification suites evaluate dense knot
grids per query. A block path is one tree for k paths of one shape: its
leaves carry a leading row axis, and `row(i)` gives row i's own tree.

The package's one Gauss-Newton step lives here too: the numeric lift
node below and the lifts and fiber samplers above all project onto
level sets {f(x) = c} with it.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

# np.einsum and np.count_nonzero without their Python layers
from numpy._core.multiarray import c_einsum, count_nonzero

from .errors import AtPole, DomainError, EvenAmbientDim, LiftFailure, OddAmbientDim, ZeroVector

# Choice: absolute tolerances; all live quantities here are O(1) or scaled
# explicitly by callers, so relative forms buy nothing.
NORM_TOL = 1e-9       # on-sphere / endpoint checks
ZERO_TOL = 1e-12      # refuse to normalize below this norm
POLE_MARGIN = 1e-9    # stereographic chart domain guard: last coord < 1 - this
JUNCTION_TOL = 1e-9   # concatenation continuity at the midpoint
DOMAIN_TOL = 1e-12    # slack outside [0, 1] before DomainError
NEWTON_BLOWUP = 1e6   # a Gauss-Newton step longer than this abandons its row
# Newton corrector of numeric lifts: the tracker's per-knot corrector and the
# polish of a NumericLift between its knots
LIFT_NEWTON_TOL = 1e-10
LIFT_NEWTON_ITERS = 25


def normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||, raising ZeroVector when ||v|| <= ZERO_TOL."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(n <= ZERO_TOL):
        raise ZeroVector(f"cannot normalize vector with norm {float(n.min()):.3e}")
    return v / n


def row_norms(x: np.ndarray) -> np.ndarray:
    """||x_i|| of every row of a (k, d) block, bit for bit the 1-D np.linalg.norm of
    the row (a dot product); np.linalg.norm(x, axis=-1) is an ulp off on some rows.
    A 1-D x gives its own norm."""
    return np.sqrt(np.vecdot(x, x))


def perturb_on_sphere(rng: np.random.Generator, t: np.ndarray, scale: float) -> np.ndarray:
    """The unit point t moved by scale along a random tangent direction."""
    xi = rng.standard_normal(t.shape[0])
    xi -= (xi @ t) * t
    xi = scale * xi / np.linalg.norm(xi)
    return normalize(t + xi)


def stereo_proj(x: np.ndarray) -> np.ndarray:
    """Chart S^m minus the north pole -> R^m.

    y_i = x_i / (1 - x_{m+1}). Accepts batches over leading axes.
    """
    x = np.asarray(x, dtype=float)
    denom = 1.0 - x[..., -1]
    if np.any(denom < POLE_MARGIN):
        raise AtPole("stereographic chart undefined this close to the north pole")
    return x[..., :-1] / denom[..., None]


def stereo_inv(y: np.ndarray) -> np.ndarray:
    """Inverse chart R^m -> S^m minus the north pole.

    (2y, ||y||^2 - 1) / (||y||^2 + 1). Never returns the pole itself.
    """
    y = np.asarray(y, dtype=float)
    s = np.sum(y * y, axis=-1)
    out = np.empty(y.shape[:-1] + (y.shape[-1] + 1,), dtype=float)
    out[..., :-1] = 2.0 * y / (s[..., None] + 1.0)
    out[..., -1] = (s - 1.0) / (s + 1.0)
    return out


def tangent_odd(x: np.ndarray) -> np.ndarray:
    """Unit tangent field on odd-dimensional spheres (even ambient dim).

    Rotates each coordinate pair a quarter turn:
    (x1, y1, ..., xl, yl) -> (-y1, x1, ..., -yl, xl).
    Nowhere zero; ||field(x)|| = ||x|| and <field(x), x> = 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2 != 0:
        raise OddAmbientDim("quarter-turn field needs an even number of coordinates")
    out = np.empty_like(x)
    out[..., 0::2] = -x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    return out


def tangent_even(x: np.ndarray) -> np.ndarray:
    """Tangent field on even-dimensional spheres (odd ambient dim).

    Fixes the first coordinate at zero and rotates the remaining pairs:
    (x1, x2, x3, ..., xm, x_{m+1}) -> (0, -x3, x2, ..., -x_{m+1}, xm).
    Vanishes exactly where all but the first coordinate vanish, i.e. at
    +-e1 on the unit sphere.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2 != 1:
        raise EvenAmbientDim("skew field needs an odd number of coordinates")
    out = np.empty_like(x)
    out[..., 0] = 0.0
    out[..., 1::2] = -x[..., 2::2]
    out[..., 2::2] = x[..., 1::2]
    return out


def _chord_near_origin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether min over t in [0, 1] of ||(1-t)a + t b|| is at most ZERO_TOL, per row:
    the closed-form minimizer t of ||a + t (b - a)||^2, clipped to [0, 1]."""
    d = b - a
    dd, ad = np.vecdot(d, d), np.vecdot(a, d)
    t = np.minimum(1.0, np.maximum(0.0, -ad / (dd + (dd == 0.0))))  # t = 0 where a = b
    return np.vecdot(a, a) + t * (2.0 * ad + t * dd) <= _squared_bound(ZERO_TOL)


def _lerp(a: np.ndarray, b: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """(1-t)a + t b for every t of ts, over the leading axes of a and b: (..., T, d).
    Each product is the one np.outer(1 - ts, a) and np.outer(ts, b) form."""
    return (1.0 - ts)[:, None] * a[..., None, :] + ts[:, None] * b[..., None, :]


def gauss_newton_step(J: np.ndarray, r: np.ndarray, bound: bool = False) -> tuple:
    """Batched Gauss-Newton step: dx with J dx = r as nearly as possible.

    J has shape (k, p, n) and r shape (k, p). Wide or square rows
    (p <= n) take the minimum-norm step J^T (J J^T)^{-1} r; tall rows
    (p > n, such as the arm's R^2 -> R^3) take the least-squares step
    (J^T J)^{-1} J^T r, since J J^T is singular there. ok flags the rows
    whose normal matrix is finite and nonsingular; the other rows of dx
    are NaN. See Allgower & Georg, Introduction to Numerical Continuation
    Methods (SIAM 2003).

    With bound, a third array gives each row's lower bound on
    sigma_min(J)^2 from its m x m normal matrix N: det N / (tr N)^(m-1),
    since each other eigenvalue of N is at most tr N. It reuses the
    determinant the step takes anyway; a zero or non-finite J gives 0.
    """
    wide = J.shape[-2] <= J.shape[-1]
    Jt = J.transpose(0, 2, 1)
    normal, rhs = (J @ Jt, r) if wide else (Jt @ J, c_einsum("kpn,kp->kn", J, r))
    # LAPACK through numpy's gufuncs: np.linalg's wrapping costs more than a small
    # block's solve. det flags a non-finite matrix, and J is finite iff sum J^2 is.
    if not np.vdot(J, J) < np.inf:
        normal[~np.isfinite(normal).all(axis=(1, 2))] = 0.0  # singular, so not ok
    det = _umath_linalg.det(normal, signature="d->d")
    ok = np.abs(det) > 1e-300
    degenerate = count_nonzero(ok) < ok.size
    if bound:
        m = normal.shape[-1]
        tr = c_einsum("kii->k", normal)
        if degenerate:
            tr[tr == 0.0] = np.inf  # N = 0: the bound is 0, not 0/0
        sigma2 = det / tr ** (m - 1)
    if degenerate:
        normal[~ok] = np.eye(normal.shape[-1])  # a solvable stand-in; its rows turn NaN
    sol = _umath_linalg.solve1(normal, rhs, signature="dd->d")
    dx = c_einsum("kpn,kp->kn", J, sol) if wide else sol
    if degenerate:
        dx[~ok] = np.nan
    return (dx, ok, sigma2) if bound else (dx, ok)


@functools.lru_cache(maxsize=None)
def _squared_bound(b: float) -> np.ndarray:
    """The largest s with sqrt(s) <= b: sqrt is correctly rounded and monotone,
    so a row norm is <= b exactly when its sum of squares is <= s."""
    s = b * b
    while math.sqrt(math.nextafter(s, math.inf)) <= b:
        s = math.nextafter(s, math.inf)
    while math.sqrt(s) > b:
        s = math.nextafter(s, -math.inf)
    return np.array(s)  # numpy compares with a 0-d array faster than with a float


def newton_project(
    f: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0s: np.ndarray,
    targets: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Gauss-Newton projection onto {f(x) = target}.

    f maps a (k, n) block of rows to (k, p) values and jac to (k, p, n)
    Jacobians. Each iteration takes `gauss_newton_step`. Rows whose
    normal matrix degenerates or whose iterates blow up are reported as
    not converged; survivors satisfy ||f(x) - target|| <= tol.
    """
    xs = np.array(x0s, dtype=float)
    ok = np.zeros(xs.shape[0], dtype=bool)
    # x holds the live rows and t their targets. Until the first row leaves,
    # x is xs itself, stepped whole with no index arrays; from then on, live
    # maps the rows of x back to rows of xs.
    x, t, live = xs, np.asarray(targets, dtype=float), None
    # max_iter steps, each after a residual check; one last check follows
    for it in range(max_iter + 1):
        if x.shape[0] == 0:
            break
        r = f(x) - t
        done = np.add.reduce(r * r, 1) <= _squared_bound(tol)
        n_done = count_nonzero(done)
        if n_done == x.shape[0]:
            if live is None:
                return xs, done
            ok[live] = True
            break
        if n_done:
            live = np.arange(xs.shape[0]) if live is None else live
            ok[live[done]] = True
            xs[live[done]] = x[done]
            x, t, r, live = x[~done], t[~done], r[~done], live[~done]
        if it == max_iter:
            break
        dx, _ = gauss_newton_step(jac(x), r)
        x -= dx
        # a degenerate normal matrix gives a NaN step, which fails the
        # comparison; that or a blow-up gives up on the row
        tame = np.add.reduce(dx * dx, 1) <= _squared_bound(NEWTON_BLOWUP)
        if count_nonzero(tame) < tame.size:
            live = np.arange(xs.shape[0]) if live is None else live
            xs[live[~tame]] = np.nan
            x, t, live = x[tame], t[tame], live[tame]
    if live is not None:
        xs[live] = x
    return xs, ok


class PathExpr:
    """A path [0, 1] -> R^d, or a block of k paths that share one tree shape.

    A block's leaves carry a leading row axis: its shape is (k, d) where a
    one-row path's is (d,), `at` gives (k, d) and `sample` (k, T, d). The
    nodes check every row of a block in one pass when they are made.
    Subclasses implement shape, _eval, _eval_batch and to_dict, and list in
    _rowwise the attributes that carry the row axis.
    """

    _rowwise: tuple = ()

    def at(self, t: float) -> np.ndarray:
        t = float(t)
        if not -DOMAIN_TOL <= t <= 1.0 + DOMAIN_TOL:  # NaN fails too
            raise DomainError(f"path parameter {t!r} outside [0, 1]")
        return self._eval(min(1.0, max(0.0, t)))

    def sample(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.size and not (ts.min() >= -DOMAIN_TOL and ts.max() <= 1.0 + DOMAIN_TOL):
            raise DomainError("sample grid leaves [0, 1] or holds NaN")
        return self._eval_batch(np.clip(ts, 0.0, 1.0))

    def row(self, i) -> "PathExpr":
        """Row i of a block as its own one-row path; an index array or a slice
        gives a smaller block, and None a one-row path as a block of one row.
        The rows were checked when the block was made: no check runs again."""
        out = object.__new__(type(self))
        for name, v in vars(self).items():
            if isinstance(v, PathExpr):
                v = v.row(i)
            elif name in self._rowwise:
                v = v[i]
            object.__setattr__(out, name, v)
        return out


def _endpoints(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise ValueError("segment endpoints must be 1-d arrays (or (k, d) blocks) of equal shape")
    return a, b


@dataclass(frozen=True)
class NormalizedSegment(PathExpr):
    """t -> ((1-t)a + t b) / ||.||; endpoints a/||a|| and b/||b||.

    Valid only when the chord avoids the origin; checked once at
    construction via the closed-form minimum of the chord norm.
    """

    a: np.ndarray
    b: np.ndarray

    _rowwise = ("a", "b")

    def __post_init__(self):
        a, b = _endpoints(self.a, self.b)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("segment endpoints must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if np.count_nonzero(_chord_near_origin(a, b)):
            raise ZeroVector("chord passes through the origin; no normalized segment")

    @property
    def shape(self) -> tuple:
        return self.a.shape

    def _eval(self, t: float) -> np.ndarray:
        return normalize((1.0 - t) * self.a + t * self.b)

    def _eval_batch(self, ts: np.ndarray) -> np.ndarray:
        pts = _lerp(self.a, self.b, ts)
        return pts / np.linalg.norm(pts, axis=-1, keepdims=True)

    def to_dict(self) -> dict:
        return {"kind": "normalized_segment", "a": self.a.tolist(), "b": self.b.tolist()}


@dataclass(frozen=True)
class StereoSegment(PathExpr):
    """Straight chart-plane interpolation pulled back to the sphere.

    t -> inv_chart((1-t) chart(a) + t chart(b)); both endpoints must be
    unit vectors away from the north pole.
    """

    a: np.ndarray
    b: np.ndarray

    _rowwise = ("a", "b", "_ya", "_yb")

    def __post_init__(self):
        a, b = _endpoints(self.a, self.b)
        if np.count_nonzero((a.T[-1] >= 1.0 - POLE_MARGIN) | (b.T[-1] >= 1.0 - POLE_MARGIN)):
            raise AtPole("chart segment endpoint sits at the north pole")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_ya", stereo_proj(a))
        object.__setattr__(self, "_yb", stereo_proj(b))

    @property
    def shape(self) -> tuple:
        return self.a.shape

    def _eval(self, t: float) -> np.ndarray:
        return stereo_inv((1.0 - t) * self._ya + t * self._yb)

    def _eval_batch(self, ts: np.ndarray) -> np.ndarray:
        return stereo_inv(_lerp(self._ya, self._yb, ts))

    def to_dict(self) -> dict:
        return {"kind": "stereo_segment", "a": self.a.tolist(), "b": self.b.tolist()}


@dataclass(frozen=True)
class Concat(PathExpr):
    """left on [0, 1/2], right on [1/2, 1], both at doubled speed."""

    left: PathExpr
    right: PathExpr

    def __post_init__(self):
        gap = row_norms(self.left.at(1.0) - self.right.at(0.0))
        if np.count_nonzero(gap > JUNCTION_TOL):
            raise ValueError(
                f"concatenation junction gap {gap.max():.3e} exceeds {JUNCTION_TOL:.0e}"
            )

    @property
    def shape(self) -> tuple:
        return self.left.shape

    def _eval(self, t: float) -> np.ndarray:
        if t <= 0.5:
            return self.left.at(2.0 * t)
        return self.right.at(2.0 * t - 1.0)

    def _eval_batch(self, ts: np.ndarray) -> np.ndarray:
        out = np.empty(self.shape[:-1] + ts.shape + self.shape[-1:], dtype=float)
        lo = ts <= 0.5
        if lo.any():
            out[..., lo, :] = self.left.sample(2.0 * ts[lo])
        if not lo.all():
            out[..., ~lo, :] = self.right.sample(2.0 * ts[~lo] - 1.0)
        return out

    def to_dict(self) -> dict:
        return {"kind": "concat", "left": self.left.to_dict(), "right": self.right.to_dict()}


@dataclass(frozen=True)
class Scaled(PathExpr):
    """Pointwise rescaling factor * path(t); moves unit-sphere paths to radius eta."""

    path: PathExpr
    factor: float

    @property
    def shape(self) -> tuple:
        return self.path.shape

    def _eval(self, t: float) -> np.ndarray:
        return self.factor * self.path.at(t)

    def _eval_batch(self, ts: np.ndarray) -> np.ndarray:
        return self.factor * self.path.sample(ts)

    def to_dict(self) -> dict:
        return {"kind": "scaled", "factor": float(self.factor), "path": self.path.to_dict()}


def _interleaved_to_complex(x: np.ndarray) -> np.ndarray:
    return x[..., 0::2] + 1j * x[..., 1::2]


def _complex_to_interleaved(z: np.ndarray) -> np.ndarray:
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


@dataclass(frozen=True)
class CircleActionLift(PathExpr):
    """Lift of a plane-valued base path through the weighted circle action
    of a germ.

    Rotates the start point by angle(t)/degree in each weighted
    coordinate, where angle(t) is the plane angle of base(t) relative to
    base(0). Pointwise exact provided the base piece sweeps less than a
    half turn, which holds for every normalized chord.
    """

    germ: object                      # needs .weights, .degree, .to_dict()
    start: np.ndarray
    base: PathExpr

    _rowwise = ("start", "_z0", "_w0")

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        object.__setattr__(self, "_z0", _interleaved_to_complex(self.start))
        object.__setattr__(self, "_w", np.asarray(self.germ.weights, dtype=float))
        w0 = self.base.at(0.0)
        if w0.shape != self.start.shape[:-1] + (2,):
            raise ValueError("circle-action lifting needs a plane-valued base path")
        object.__setattr__(self, "_w0", w0)

    @property
    def shape(self) -> tuple:
        return self.start.shape

    def _eval(self, t: float) -> np.ndarray:
        return self._eval_batch(np.array([t]))[..., 0, :]

    def _eval_batch(self, ts: np.ndarray) -> np.ndarray:
        w0 = self._w0[..., None, :]
        wt = self.base.sample(ts)
        # relative plane angle in (-pi, pi]; exact for sub-half-turn pieces
        dot = wt[..., 0] * w0[..., 0] + wt[..., 1] * w0[..., 1]
        crs = wt[..., 1] * w0[..., 0] - wt[..., 0] * w0[..., 1]
        theta = np.arctan2(crs, dot) / float(self.germ.degree)
        # theta[..., None] * w holds the products np.outer(theta, w) forms
        z = self._z0[..., None, :] * np.exp(1j * (theta[..., None] * self._w))
        return _complex_to_interleaved(z)

    def to_dict(self) -> dict:
        return {
            "kind": "circle_action_lift",
            "germ": self.germ.to_dict(),
            "start": self.start.tolist(),
            "dphi": None,  # always null; kept so that path JSON keeps its bytes
            "base": self.base.to_dict(),
        }


@dataclass(frozen=True)
class NumericLift(PathExpr):
    """Tracked lift stored as a dense knot table plus Newton refinement.

    Evaluation interpolates the table linearly and, when the work map
    and base path are attached, polishes the interpolant back onto the
    level set {f(x) = base(t)} with `newton_project`; a parameter whose
    polish does not converge, or moves the point farther than the gap
    between its two bracketing knots, raises LiftFailure there (such a
    polish has left the lift's sheet). Deserialized
    nodes without a work map fall back to plain interpolation.
    """

    knots: np.ndarray                 # (k,)
    points: np.ndarray                # (k, n)
    workmap: Optional[object] = None  # needs .f / .jac accepting batches
    base: Optional[PathExpr] = None

    def __post_init__(self):
        object.__setattr__(self, "knots", np.asarray(self.knots, dtype=float))
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        if self.knots.ndim != 1 or self.points.shape[0] != self.knots.shape[0]:
            raise ValueError("knot vector and point table sizes disagree")

    @property
    def shape(self) -> tuple:
        return self.points.shape[1:]

    def _eval(self, t: float) -> np.ndarray:
        return self._eval_batch(np.array([t]))[0]

    def _eval_batch(self, ts: np.ndarray) -> np.ndarray:
        k = self.knots
        idx = np.clip(np.searchsorted(k, ts, side="right") - 1, 0, k.size - 2)
        span = k[idx + 1] - k[idx]
        lam = np.where(span > 0, (ts - k[idx]) / np.where(span > 0, span, 1.0), 0.0)
        out = (1.0 - lam)[:, None] * self.points[idx] + lam[:, None] * self.points[idx + 1]
        exact = np.minimum(np.abs(ts - k[idx]), np.abs(ts - k[idx + 1])) <= 1e-12
        if self.workmap is None or self.base is None or bool(np.all(exact)):
            return out
        need = np.flatnonzero(~exact)
        guess = out[need]
        out[need], ok = newton_project(
            self.workmap.f,
            self.workmap.jac,
            guess,
            self.base.sample(ts[need]),
            tol=LIFT_NEWTON_TOL,
            max_iter=LIFT_NEWTON_ITERS,
        )
        if not np.all(ok):
            t = float(ts[need[~ok][0]])
            raise LiftFailure(t, f"refinement did not reach the fiber over t = {t:.6g}")
        far = row_norms(out[need] - guess) > row_norms(np.diff(self.points, axis=0))[idx[need]]
        if far.any():
            t = float(ts[need[far][0]])
            raise LiftFailure(t, f"refinement left the knot gap at t = {t:.6g}")
        return out

    def to_dict(self) -> dict:
        wm = None
        descr = getattr(self.workmap, "descriptor", None)
        if callable(descr):
            wm = descr()
        return {
            "kind": "numeric_lift",
            "knots": self.knots.tolist(),
            "points": self.points.tolist(),
            "newton_tol": LIFT_NEWTON_TOL,
            "newton_iters": LIFT_NEWTON_ITERS,
            "workmap": wm,
            "base": None if self.base is None else self.base.to_dict(),
        }


# --- serialization ---------------------------------------------------------


def path_from_dict(d: dict) -> PathExpr:
    """Rebuild a path from its `to_dict` form. An unknown kind, or a known
    kind with a missing or mistyped field, raises ValueError."""
    kind = d.get("kind") if isinstance(d, dict) else None
    try:
        if kind == "normalized_segment":
            return NormalizedSegment(np.asarray(d["a"]), np.asarray(d["b"]))
        if kind == "stereo_segment":
            return StereoSegment(np.asarray(d["a"]), np.asarray(d["b"]))
        if kind == "concat":
            return Concat(path_from_field(d, "left"), path_from_field(d, "right"))
        if kind == "scaled":
            return Scaled(path_from_field(d, "path"), float(d["factor"]))
        if kind in ("circle_action_lift", "numeric_lift"):
            from .milnor import lift_from_dict  # these carry germs and work maps

            return lift_from_dict(d)
    except (AttributeError, IndexError, KeyError, TypeError) as ex:
        raise ValueError(f"malformed {kind!r} path node: {ex!r}") from ex
    raise ValueError(f"unknown path node kind {kind!r}")


def path_from_field(d: dict, field: str) -> PathExpr:
    """The child node in field of the node d; a null child raises TypeError,
    which `path_from_dict` reports as a malformed node of d's kind."""
    if d[field] is None:
        raise TypeError(f"field {field!r} is null")
    return path_from_dict(d[field])


def path_to_json(path: PathExpr) -> str:
    return json.dumps(path.to_dict(), sort_keys=True)


def path_from_json(s: str) -> PathExpr:
    return path_from_dict(json.loads(s))


def write_path_csv(path: PathExpr, ts: np.ndarray, fh) -> None:
    """Write sampled path rows `t,x1,...,xk` with a header line."""
    ts = np.asarray(ts, dtype=float)
    pts = path.sample(ts)
    writer = csv.writer(fh)
    writer.writerow(["t"] + [f"x{i + 1}" for i in range(pts.shape[1])])
    for t, row in zip(ts, pts):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
