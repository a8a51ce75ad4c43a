"""Weighted-homogeneous plane-valued germs and their tube fibrations.

A germ here is a polynomial map C^k -> C whose monomials all satisfy
sum_j weight_j * exponent_j = degree. Such maps carry a weighted circle
action rho_theta(z)_j = exp(i w_j theta) z_j with
f(rho_theta z) = exp(i d theta) f(z), which is what makes exact path
lifting and monodromy transport possible.

The tube of a germ is the set of ball points whose value lands on the
radius-eta circle. Fibers over single values are sampled by Newton
projection of random seeds and split into connected components through
a proximity graph.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AmbiguousAssignment, GermFileError, TooFewPoints
from .fibration import WorkMap, rr_arm_workmap
from .geometry import (
    CircleActionLift,
    NumericLift,
    PathExpr,
    _complex_to_interleaved,
    _interleaved_to_complex,
    newton_project,
    normalize,
    path_from_dict,
    path_from_field,
)
from .sphere_planner import QUERY_NORM_TOL

TRI_STATES = ("yes", "no", "unknown")

TUBE_TOL = 1e-9        # slack on the ball radius for tube and fiber points
# Choice: floor under the adaptive proximity radius; zero-dimensional fibers
# collapse each root to a cluster of Newton duplicates whose spacing is pure
# roundoff, and 3x the median neighbor gap alone would underrate it.
RADIUS_FLOOR = 1e-9
# Choice: neighbours per sample behind the candidate edges of the proximity
# graph; the repair keeps any value exact. Over the seven certify fibers 8
# was fastest at 5000 seeds (6: +10%, 12: +1%, 16: +14%) and within 15% of
# 6 at 1500 seeds, where fewer neighbours leave more for the repair to join.
CLUSTER_K = 8
PROBE_THRESHOLD = 1e-6  # regularity verdict needs the smallest sigma of Df above this


def _check_tri(value: str, what: str) -> str:
    if value not in TRI_STATES:
        raise ValueError(f"{what} must be one of {TRI_STATES}, got {value!r}")
    return value


@dataclass(frozen=True)
class GermFlags:
    """Declared topological facts; 'unknown' keeps certificates honest."""

    link_nonempty: str = "unknown"
    pi_trivial: str = "unknown"

    def __post_init__(self):
        _check_tri(self.link_nonempty, "link_nonempty")
        _check_tri(self.pi_trivial, "pi_trivial")

    def to_dict(self) -> dict:
        return {"link_nonempty": self.link_nonempty, "pi_trivial": self.pi_trivial}


@dataclass(frozen=True)
class Germ:
    """Weighted-homogeneous polynomial germ C^ncx -> C.

    Real layout: a configuration is a float vector of length 2*ncx with
    z_j = x[2j] + i x[2j+1]; values are (Re f, Im f).
    """

    name: str
    ncx: int
    monomials: tuple[tuple[complex, tuple[int, ...]], ...]
    weights: tuple[int, ...]
    degree: int
    epsilon: float = 0.5
    eta: Optional[float] = None
    flags: GermFlags = field(default_factory=GermFlags)

    def __post_init__(self):
        if self.ncx < 1:
            raise ValueError("need at least one complex variable")
        if len(self.weights) != self.ncx or any(
            not isinstance(w, int) or w < 1 for w in self.weights
        ):
            raise ValueError("weights must be positive integers, one per variable")
        if not isinstance(self.degree, int) or self.degree < 1:
            raise ValueError("degree must be a positive integer")
        if not self.monomials:
            raise ValueError("germ needs at least one monomial")
        for coeff, expo in self.monomials:
            if len(expo) != self.ncx or any(not isinstance(e, int) or e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo!r}")
            if complex(coeff) == 0:
                raise ValueError("zero monomial coefficient")
            graded = sum(w * e for w, e in zip(self.weights, expo))
            if graded != self.degree:
                raise ValueError(
                    f"monomial {expo!r} has graded degree {graded}, expected {self.degree}"
                )
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        bound = self.eta_bound()
        if self.eta is None:
            object.__setattr__(self, "eta", bound)
        elif not (0.0 < self.eta <= bound * (1.0 + 1e-9)):
            raise ValueError(
                f"eta = {self.eta!r} outside (0, {bound:.6g}]; small tube radii keep "
                "the tube inside the ball"
            )

    def eta_bound(self) -> float:
        """Default tube radius: epsilon^(degree/min weight) with headroom 10."""
        return self.epsilon ** (self.degree / min(self.weights)) / 10.0

    @property
    def n(self) -> int:
        return 2 * self.ncx

    # -- evaluation ----------------------------------------------------------

    def eval_complex(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape[:-1], dtype=complex)
        for coeff, expo in self.monomials:
            out = out + coeff * np.multiply.reduce(z ** np.asarray(expo), axis=-1)
        return out

    def grad_complex(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        g = np.zeros(z.shape, dtype=complex)
        for coeff, expo in self.monomials:
            for j, e in enumerate(expo):
                if e == 0:
                    continue
                shifted = list(expo)
                shifted[j] = e - 1
                g[..., j] += coeff * e * np.prod(z ** np.asarray(shifted), axis=-1)
        return g

    def f_real(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = self.eval_complex(x[..., 0::2] + 1j * x[..., 1::2])
        out = np.empty(v.shape + (2,))  # np.stack's wrapping costs more than a row's f
        out[..., 0] = v.real
        out[..., 1] = v.imag
        return out

    def jac_real(self, x: np.ndarray) -> np.ndarray:
        """Realified Jacobian (..., 2, 2*ncx) of (Re f, Im f)."""
        x = np.asarray(x, dtype=float)
        g = self.grad_complex(x[..., 0::2] + 1j * x[..., 1::2])
        J = np.empty(x.shape[:-1] + (2, 2 * self.ncx), dtype=float)
        J[..., 0, 0::2] = g.real
        J[..., 0, 1::2] = -g.imag
        J[..., 1, 0::2] = g.imag
        J[..., 1, 1::2] = g.real
        return J

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "complex_vars": self.ncx,
            "monomials": [
                {"coeff": [complex(c).real, complex(c).imag], "exponents": list(e)}
                for c, e in self.monomials
            ],
            "weights": list(self.weights),
            "degree": self.degree,
            "epsilon": self.epsilon,
            "eta": self.eta,
            "flags": self.flags.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "Germ":
        flags = d.get("flags") or {}
        monomials = tuple(
            (complex(m["coeff"][0], m["coeff"][1]), tuple(int(e) for e in m["exponents"]))
            for m in d["monomials"]
        )
        return Germ(
            name=str(d["name"]),
            ncx=int(d["complex_vars"]),
            monomials=monomials,
            weights=tuple(int(w) for w in d["weights"]),
            degree=int(d["degree"]),
            epsilon=float(d["epsilon"]),
            eta=None if d.get("eta") is None else float(d["eta"]),
            flags=GermFlags(
                link_nonempty=flags.get("link_nonempty", "unknown"),
                pi_trivial=flags.get("pi_trivial", "unknown"),
            ),
        )


def load_germ(path) -> Germ:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise GermFileError(f"cannot read germ file {str(path)!r}: {ex.strerror}") from ex
    except ValueError as ex:  # bad JSON or bad UTF-8
        raise GermFileError(f"germ file {str(path)!r} is not valid JSON: {ex}") from ex
    try:
        return Germ.from_dict(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as ex:
        raise GermFileError(f"germ file {str(path)!r} is not a valid germ: {ex!r}") from ex


def save_germ(germ: Germ, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(germ.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


# --- standard examples -------------------------------------------------------


def power_germ(d: int) -> Germ:
    """z^d: the zero set is one point, so the link is empty; the fiber is
    d isolated points, connected only for d = 1."""
    return Germ(
        name=f"z^{d}",
        ncx=1,
        monomials=((1.0 + 0.0j, (d,)),),
        weights=(1,),
        degree=d,
        flags=GermFlags(link_nonempty="no", pi_trivial="yes" if d == 1 else "no"),
    )


def brieskorn_germ(a: int, b: int) -> Germ:
    """z^a + w^b with the canonical weights; isolated singularity at 0,
    torus-knot link, connected fiber."""
    d = math.lcm(a, b)
    return Germ(
        name=f"z^{a}+w^{b}",
        ncx=2,
        monomials=((1.0 + 0.0j, (a, 0)), (1.0 + 0.0j, (0, b))),
        weights=(d // a, d // b),
        degree=d,
        flags=GermFlags(link_nonempty="yes", pi_trivial="yes"),
    )


def product_germ() -> Germ:
    """z*w: normal crossing; the zero set is two lines, the fiber an annulus."""
    return Germ(
        name="z*w",
        ncx=2,
        monomials=((1.0 + 0.0j, (1, 1)),),
        weights=(1, 1),
        degree=2,
        flags=GermFlags(link_nonempty="yes", pi_trivial="yes"),
    )


# --- tube machinery ----------------------------------------------------------


def _sphere_seeds(rng: np.random.Generator, k: int, n: int, radius: float) -> np.ndarray:
    dirs = rng.standard_normal((k, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radius * dirs


def _ball_seeds(rng: np.random.Generator, k: int, n: int, radius: float) -> np.ndarray:
    dirs = _sphere_seeds(rng, k, n, 1.0)
    r = radius * rng.uniform(size=k) ** (1.0 / n)
    return dirs * r[:, None]


def _germ_tube_sampler(germ: Germ):
    def sample(rng: np.random.Generator, k: int) -> np.ndarray:
        out = np.empty((k, germ.n), dtype=float)
        have = 0
        for _ in range(50):
            want = k - have
            phis = rng.uniform(0.0, 2.0 * math.pi, want)
            targets = germ.eta * np.stack([np.cos(phis), np.sin(phis)], axis=1)
            seeds = _ball_seeds(rng, want, germ.n, germ.epsilon)
            # near machine precision: exact lifts inherit any radial offset
            # of the start for the whole path, so 1e-12 is not enough here
            xs, ok = newton_project(germ.f_real, germ.jac_real, seeds, targets, tol=1e-14)
            ok &= np.linalg.norm(xs, axis=1) <= germ.epsilon + TUBE_TOL
            took = int(np.sum(ok))
            out[have : have + took] = xs[ok]
            have += took
            if have == k:
                return out
        raise TooFewPoints(f"could only place {have}/{k} start points on the tube")

    return sample


def tube_fibration(germ: Germ) -> WorkMap:
    """Work map of the germ restricted over its radius-eta value circle."""
    return WorkMap(
        n=germ.n,
        p=2,
        f=germ.f_real,
        jac=germ.jac_real,
        eta=germ.eta,
        name=germ.name,
        germ=germ,
        sampler=_germ_tube_sampler(germ),
        flags=germ.flags.to_dict(),
    )


def polish_to_tube(germ: Germ, x: np.ndarray) -> np.ndarray:
    """Newton-project a nearly-on-tube configuration onto the exact fiber
    through its current angle. Accepts starts within QUERY_NORM_TOL of the
    tube and returns the polished configuration, inside the ball."""
    x = np.asarray(x, dtype=float)
    v = germ.f_real(x)
    off = abs(float(np.linalg.norm(v)) - germ.eta)
    if off > QUERY_NORM_TOL:
        raise ValueError(f"start is {off:.3e} off the tube (tol {QUERY_NORM_TOL:.0e})")
    target = germ.eta * normalize(v)
    xs, ok = newton_project(germ.f_real, germ.jac_real, x[None, :], target[None, :], tol=1e-14)
    if not ok[0]:
        raise ValueError("could not polish the start onto the tube")
    if float(np.linalg.norm(xs[0])) > germ.epsilon + TUBE_TOL:
        raise ValueError("point leaves the ball")
    return xs[0]


# --- fiber and link sampling -------------------------------------------------


@dataclass(frozen=True)
class FiberSample:
    """Converged Newton projections onto one fiber, split into components."""

    base_point: np.ndarray
    points: np.ndarray
    labels: np.ndarray
    n_components: int
    radius: float
    n_seeds: int
    seed: int
    tree: object = field(repr=False, compare=False)  # _cluster's k-d tree; monodromy reuses it

    @property
    def n_converged(self) -> int:
        return self.points.shape[0]

    def component_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_components)


def _kdtree(points: np.ndarray):
    # deferred: at module level scipy.spatial makes `import tubeplan`,
    # which every CLI call pays, several times slower
    from scipy.spatial import cKDTree

    return cKDTree(points)


def _union_roots(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union-find over edges (a, b) by hooking and pointer jumping; every
    point ends pointing at the lowest index of its component."""
    while True:
        pa, pb = parent[a], parent[b]
        split = pa != pb
        if not split.any():
            return parent
        pa, pb = pa[split], pb[split]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while not np.array_equal(parent, jumped := parent[parent]):
            parent = jumped


def _cluster(points: np.ndarray) -> tuple[np.ndarray, int, float, object]:
    """Components of the graph joining samples at most `radius` apart, and the k-d tree.

    Labels number the components by their lowest point index. The graph is
    never listed: its k-NN edges plus one exact repair pass join the same
    components in O(n k) memory.
    """
    # Radius keys off the sparsest local density (the largest nearest
    # neighbor gap), not the median: on a continuous fiber the largest
    # sampling void grows like log(n) times the typical gap and a
    # median-based radius falsely fragments it. Point-like fibers have
    # near-duplicate samples, so max-NN stays many orders below the
    # spacing between distinct roots and never over-merges them.
    tree = _kdtree(points)
    dist, idx = tree.query(points, k=CLUSTER_K + 1)
    radius = max(3.0 * float(dist[:, 1].max()), RADIUS_FLOOR)
    near = dist <= radius
    root = _union_roots(np.arange(points.shape[0]), np.nonzero(near)[0], idx[near])
    # Exact repair. A radius edge (a, b) missing from the k-NN edges has
    # all k+1 neighbours of a, and of b, within |a - b| <= radius: both ends
    # are saturated. For every component, the nearest saturated point of it
    # to each saturated point elsewhere is then within radius whenever such
    # an edge joins them, so one pass of these genuine edges merges exactly
    # the components the missing edges would.
    sat = np.nonzero(dist[:, -1] <= radius)[0]
    comps = np.unique(root[sat])
    if comps.size > 1:
        ea, eb = [], []
        for c in comps:
            mine, other = sat[root[sat] == c], sat[root[sat] != c]
            d, j = _kdtree(points[mine]).query(points[other], k=1)
            ea.append(other[d <= radius])
            eb.append(mine[j][d <= radius])
        root = _union_roots(root, np.concatenate(ea), np.concatenate(eb))
    roots, labels = np.unique(root, return_inverse=True)
    return labels, roots.size, radius, tree


def sample_workmap_fiber(
    wm: WorkMap,
    base_point: np.ndarray,
    n_seeds: int = 1500,
    seed: int = 0,
) -> FiberSample:
    """Sample the fiber of a work map over one base value.

    Uniform seeds in the germ's epsilon ball (the unit ball if no germ) are
    Newton-projected onto {f(x) = base}; failures and points off a germ's ball
    drop out. Components: a proximity graph of radius 3x the largest neighbor gap.
    """
    if n_seeds < 100:
        raise ValueError("need at least 100 seeds for a meaningful fiber sample")
    base_point = np.asarray(base_point, dtype=float)
    rng = np.random.default_rng(seed)
    germ = wm.germ
    seeds = _ball_seeds(rng, n_seeds, wm.n, 1.0 if germ is None else germ.epsilon)
    targets = np.broadcast_to(base_point, (n_seeds, wm.p)).copy()
    xs, ok = newton_project(wm.f, wm.jac, seeds, targets, tol=1e-12)
    if germ is not None:
        ok &= np.linalg.norm(xs, axis=1) <= germ.epsilon + TUBE_TOL
    points = xs[ok]
    if points.shape[0] < 20:
        raise TooFewPoints(
            f"only {points.shape[0]} of {n_seeds} seeds converged onto the fiber"
        )
    labels, n_comp, radius, tree = _cluster(points)
    return FiberSample(
        base_point=base_point,
        points=points,
        labels=labels,
        n_components=n_comp,
        radius=radius,
        n_seeds=n_seeds,
        seed=seed,
        tree=tree,
    )


def sample_fiber(germ: Germ, phi: float = 0.0, n_seeds: int = 1500, seed: int = 0) -> FiberSample:
    """Sample the germ fiber over eta * exp(i phi) inside the epsilon ball."""
    base = germ.eta * np.array([math.cos(phi), math.sin(phi)])
    return sample_workmap_fiber(tube_fibration(germ), base, n_seeds, seed)


@dataclass(frozen=True)
class LinkSample:
    """Converged samples of the zero set on the epsilon sphere."""

    points: np.ndarray
    evidence: str  # "yes" if any point converged, else "no"
    n_seeds: int
    seed: int


def sample_link(germ: Germ, n_seeds: int = 1000, seed: int = 0) -> LinkSample:
    """Newton-project sphere seeds onto {f = 0, ||x|| = epsilon}.

    The sampler is evidence, not proof: convergence anywhere certifies a
    nonempty link, an empty result merely suggests emptiness.
    """
    if n_seeds < 100:
        raise ValueError("need at least 100 seeds for link evidence")
    rng = np.random.default_rng(seed)
    seeds = _sphere_seeds(rng, n_seeds, germ.n, germ.epsilon)
    eps2 = germ.epsilon**2

    def f(x: np.ndarray) -> np.ndarray:
        vals = germ.f_real(x)
        sphere = (np.sum(x * x, axis=1) - eps2)[:, None]
        return np.concatenate([vals, sphere], axis=1)

    def jac(x: np.ndarray) -> np.ndarray:
        Jf = germ.jac_real(x)
        Js = (2.0 * x)[:, None, :]
        return np.concatenate([Jf, Js], axis=1)

    xs, ok = newton_project(f, jac, seeds, np.zeros((n_seeds, 3)), tol=1e-12)
    points = xs[ok]
    return LinkSample(
        points=points,
        evidence="yes" if points.shape[0] > 0 else "no",
        n_seeds=n_seeds,
        seed=seed,
    )


# --- monodromy ----------------------------------------------------------------


def monodromy_components(germ: Germ, fiber: FiberSample) -> np.ndarray:
    """Transport one representative per component around the full value
    circle and return the induced permutation of component labels."""
    perm = np.full(fiber.n_components, -1, dtype=int)
    # the loop's endpoint is h(z)_j = exp(2 pi i w_j / d) z_j, the circle action at 2 pi / d
    weights = np.asarray(germ.weights, dtype=float)
    turn = np.exp(1j * ((2.0 * math.pi / float(germ.degree)) * weights))
    for comp in range(fiber.n_components):
        rep = fiber.points[int(np.argmax(fiber.labels == comp))]
        end = _complex_to_interleaved(_interleaved_to_complex(rep) * turn)
        hit_labels = fiber.labels[fiber.tree.query_ball_point(end, fiber.radius)]
        if hit_labels.size == 0 or hit_labels.min() != hit_labels.max():
            raise AmbiguousAssignment(
                f"loop endpoint of component {comp} lands near "
                f"{np.unique(hit_labels).tolist()}"
            )
        perm[comp] = hit_labels[0]
    if sorted(perm.tolist()) != list(range(fiber.n_components)):
        raise AmbiguousAssignment(f"induced map {perm.tolist()} is not a permutation")
    return perm


def permutation_cycles(perm: np.ndarray) -> list[list[int]]:
    perm = np.asarray(perm, dtype=int)
    seen = np.zeros(perm.shape[0], dtype=bool)
    cycles = []
    for start in range(perm.shape[0]):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = int(perm[start])
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = int(perm[nxt])
        cycles.append(cyc)
    return cycles


# --- regularity probes ---------------------------------------------------------


@dataclass(frozen=True)
class RegularityProbe:
    """Sampled evidence that the tube of a germ fibres (Milnor 1968, ch. 9).

    min_sigma_map is the smallest singular value of Df over tube samples.
    Fibers may touch smaller spheres inside the ball; only transversality to
    the boundary S_eps matters. By the Euler relation sum_i w_i z_i df/dz_i =
    d f, a fiber over |c| = eta is tangent to S_eps only where |df| <= d eta /
    (w_min eps), the transversality_bound; min_boundary_gradient is the least
    |df| over samples of S_eps. Evidence, not proof: a pass says no sampled
    point breaks that sufficient condition, not that none does.
    """

    workmap_name: str
    n_samples: int
    min_sigma_map: float
    min_boundary_gradient: float
    transversality_bound: float
    threshold: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "workmap": self.workmap_name,
            "samples": self.n_samples,
            "min_sigma_map": self.min_sigma_map,
            "min_boundary_gradient": self.min_boundary_gradient,
            "transversality_bound": self.transversality_bound,
            "threshold": self.threshold,
            "verdict": self.verdict,
        }


def regularity_probe(germ: Germ, n_samples: int = 2000, seed: int = 0) -> RegularityProbe:
    """Scan tube samples for rank drops of Df, and samples of the boundary S_eps
    (never inner points) for |df| at or below the bound of `RegularityProbe`."""
    if n_samples < 1000:
        raise ValueError("probe needs at least 1000 samples to mean anything")
    wm = tube_fibration(germ)
    rng = np.random.default_rng(seed)
    pts = wm.sample(rng, n_samples)
    min_map = float(np.linalg.svd(wm.jac(pts), compute_uv=False)[..., -1].min())
    # f is holomorphic, so |df| is the Frobenius norm of its real Jacobian over sqrt(2)
    edge = wm.jac(_sphere_seeds(rng, n_samples, germ.n, germ.epsilon))
    min_grad = float(np.linalg.norm(edge, axis=(-2, -1)).min()) / math.sqrt(2.0)
    bound = germ.degree * germ.eta / (min(germ.weights) * germ.epsilon)
    regular = min_map > PROBE_THRESHOLD and min_grad > bound
    return RegularityProbe(
        workmap_name=germ.name,
        n_samples=n_samples,
        min_sigma_map=min_map,
        min_boundary_gradient=min_grad,
        transversality_bound=bound,
        threshold=PROBE_THRESHOLD,
        verdict="probably regular" if regular else "suspect",
    )


# --- the Hopf work map ----------------------------------------------------------


def _hopf_f(x: np.ndarray) -> np.ndarray:
    # p[..., i, j] = x_{i+1} x_{j+3}; b - a is b + (-1) a exactly, so one call does both
    x = np.asarray(x, dtype=float)
    p = x[..., :2, None] * x[..., None, 2:]
    q = x * x
    out = np.empty(x.shape[:-1] + (3,), dtype=float)
    out[..., :2] = 2.0 * (p[..., :, 0] + p[..., ::-1, 1] * _PLUS_MINUS)
    out[..., 2] = q[..., 0] + q[..., 1] - q[..., 2] - q[..., 3]
    return out


# Every entry of the Hopf Jacobian is +-2 x_j: row i, column c holds
# _HOPF_SIGN[i, c] * 2 x[_HOPF_COLS[i, c]].
_HOPF_COLS = np.array([[2, 3, 0, 1], [3, 2, 1, 0], [0, 1, 2, 3]])
_HOPF_SIGN = np.array([[1.0, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
_PLUS_MINUS = np.array([1.0, -1.0])
# multiplication by i on (z, w) = (x1 + i x2, x3 + i x4)
_HOPF_GENERATOR = np.kron(np.eye(2, dtype=int), [[0, -1], [1, 0]]).astype(float)


def _hopf_jac(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return (2.0 * x)[..., _HOPF_COLS] * _HOPF_SIGN


HOPF_ETA = 0.01  # tube = the 3-sphere of radius 0.1, since ||f(x)|| = ||x||^2


def hopf_germ() -> WorkMap:
    """Quadratic sphere map (z, w) -> (2 z conj(w), |z|^2 - |w|^2).

    Target dimension three; the zero set is the origin alone, so the
    link is empty, and the fiber is a circle, so the relevant homotopy
    group is not trivial. Both facts are declared on the work map, and so
    is the circle action (z, w) -> e^{i theta} (z, w) along the fibers.
    """
    return WorkMap(
        n=4,
        p=3,
        f=_hopf_f,
        jac=_hopf_jac,
        eta=HOPF_ETA,
        name="hopf",
        sampler=lambda rng, k: _sphere_seeds(rng, k, 4, math.sqrt(HOPF_ETA)),
        flags={"link_nonempty": "no", "pi_trivial": "no"},
        fiber_generator=_HOPF_GENERATOR,
    )


# --- deserialization -------------------------------------------------------------

# Germless work maps that path JSON names (`WorkMap.descriptor`, `lift_from_dict`)
NAMED_WORKMAPS = {"rr_arm": rr_arm_workmap, "hopf": hopf_germ}


def lift_from_dict(d: dict) -> PathExpr:
    """The lift nodes of `geometry.path_from_dict`, which carry germs and work maps."""
    if d["kind"] == "circle_action_lift":
        return CircleActionLift(
            germ=Germ.from_dict(d["germ"]),
            start=np.asarray(d["start"], dtype=float),
            base=path_from_field(d, "base"),
        )
    base = path_from_dict(d["base"]) if d.get("base") else None
    w = d.get("workmap") or {}
    if w.get("kind") == "germ":
        wm = tube_fibration(Germ.from_dict(w["germ"]))
    elif w.get("kind") == "named":
        wm = NAMED_WORKMAPS[w["name"]]()
    else:
        wm = None
    return NumericLift(
        knots=np.asarray(d["knots"], dtype=float),
        points=np.asarray(d["points"], dtype=float),
        workmap=wm,
        base=base,
    )
