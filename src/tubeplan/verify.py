"""Certificates and statistical contract checks for planners.

Two complementary verdict sources live here. `certify_tc` and
`certify_sec` turn declared or sampled topological facts into interval
certificates for the navigation complexity of a work map restricted
over its task sphere. `run_contract_suite` hammers a planner with
randomized queries and reports every contract violation it can detect;
a planner that survives with k regions is itself an upper-bound witness
that must agree with the certificate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import Uncovered, WrongCodomain
from .fibration import WorkMap
from .geometry import point_norms, row_norms
from .milnor import Germ, tube_fibration

# --- certificates -----------------------------------------------------------


@dataclass(frozen=True)
class CertifyInputs:
    """Echo of the facts a certificate was computed from."""

    p: int
    link_nonempty: str = "unknown"
    pi_trivial: str = "unknown"
    fiber_components: Optional[int] = None
    provenance: str = "declared"
    name: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "target_dim": self.p,
            "link_nonempty": self.link_nonempty,
            "pi_trivial": self.pi_trivial,
            "fiber_components": self.fiber_components,
            "provenance": self.provenance,
        }


def _as_inputs(source) -> CertifyInputs:
    if isinstance(source, CertifyInputs):
        return source
    if isinstance(source, Germ):
        source = tube_fibration(source)  # the same name, p = 2 and flags
    if not isinstance(source, WorkMap):
        raise TypeError(f"cannot certify a {type(source).__name__}")
    flags = source.flags or {}
    return CertifyInputs(
        p=source.p,
        link_nonempty=flags.get("link_nonempty", "unknown"),
        pi_trivial=flags.get("pi_trivial", "unknown"),
        name=source.name,
    )


@dataclass(frozen=True)
class Certificate:
    """Interval certificate for a complexity quantity.

    exact is set only when the hypotheses pin the value; otherwise the
    truth lies in [lower, upper]. tags name the rules that fired,
    assumptions name the hypotheses taken on trust.
    """

    quantity: str
    lower: int
    upper: int
    exact: Optional[int]
    tags: tuple[str, ...]
    assumptions: tuple[str, ...]
    inputs: dict
    section_exists: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "section_exists": self.section_exists,
            "tags": list(self.tags),
            "assumptions": list(self.assumptions),
            "inputs": self.inputs,
        }


def certify_tc(source) -> Certificate:
    """Navigation-complexity certificate for a tube planner.

    The base sphere S^{p-1} forces the lower bound 2; the pullback
    planner over it forces the upper bound 2 (p even) or 3 (p odd).
    For odd p the value settles at 3 when the link is nonempty or when
    the relevant homotopy group of the fiber is trivial.
    """
    ci = _as_inputs(source)
    if ci.p < 2:
        raise ValueError("need a target dimension of at least 2")
    tags = ["lower-bound-from-base-sphere-category"]
    assumptions: list[str] = []
    lower = 2
    if ci.p % 2 == 0:
        upper = 2
        exact = 2
        tags += ["upper-bound-from-pullback-planner", "even-target-odd-base-sphere"]
    else:
        upper = 3
        tags.append("upper-bound-from-pullback-planner")
        if ci.link_nonempty == "yes":
            exact = 3
            tags.append("nonempty-link-forces-maximum")
            assumptions.append("isolated-singularity")
        elif ci.pi_trivial == "yes":
            exact = 3
            tags.append("trivial-fiber-homotopy-forces-maximum")
            assumptions.append("link-cells-dimension-bound")
        else:
            exact = None
            tags.append("parity-bounds-only")
    return Certificate(
        quantity="TC",
        lower=lower,
        upper=upper,
        exact=exact,
        tags=tuple(tags),
        assumptions=tuple(assumptions),
        inputs=ci.to_dict(),
    )


def certify_sec(source, fiber_components: Optional[int] = None) -> Certificate:
    """Section-number certificate for a plane-valued tube map.

    A disconnected fiber rules out any global section (value 2); a
    connected fiber yields one (value 1). A count passed as
    `fiber_components` comes from `sample_fiber` and is recorded as
    'sampled'; a count already on the inputs keeps its provenance.
    """
    ci = _as_inputs(source)
    if fiber_components is not None:
        ci = replace(ci, fiber_components=int(fiber_components), provenance="sampled")
    if ci.p != 2:
        raise WrongCodomain(f"section certificates need a plane target, got p = {ci.p}")
    comps = ci.fiber_components
    if comps is None:
        raise ValueError("need a fiber component count; run sample_fiber first")
    if comps < 1:
        raise ValueError("component count must be positive")
    connected = comps == 1
    value = 1 if connected else 2
    return Certificate(
        quantity="sec",
        lower=value,
        upper=value,
        exact=value,
        section_exists="yes" if connected else "no",
        tags=(
            "fiber-connected-global-section" if connected else "fiber-disconnected-blocks-sections",
        ),
        assumptions=("component-count-is-exhaustive",) if ci.provenance == "sampled" else (),
        inputs=ci.to_dict(),
    )


# --- randomized contract suite ------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one randomized planner check run."""

    planner: str
    queries: int
    regions: int
    seed: int
    knots: int
    deep_queries: int
    coverage_failures: int = 0
    dispatch_mismatches: int = 0
    max_endpoint_error: float = 0.0
    max_projection_residual: Optional[float] = None
    max_surface_deviation: Optional[float] = None
    lift_failures: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.coverage_failures == 0
            and self.dispatch_mismatches == 0
            and not self.failures
            and not self.lift_failures
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


# Queries planned per `plan_batch` call; it bounds how many planned paths
# the suite holds at once.
SUITE_BLOCK = 256
# Rows of a block path sampled on the dense grid per `sample` call; it bounds
# the suite's transient arrays (rows x knots x dim) to a few hundred kB.
DENSE_ROWS = 8
ENDS = np.array([0.0, 1.0])  # a path's two endpoints as one sample grid


def _dense(blocks: list, ts: np.ndarray, below: int):
    """(region index, rows, points) of the rows below `below` of (region index,
    rows, path) blocks, each path sampled at ts in slices of DENSE_ROWS rows."""
    for idx, rows, path in blocks:
        n = int(np.searchsorted(rows, below))
        for lo in range(0, n, DENSE_ROWS):
            part = rows[lo : min(n, lo + DENSE_ROWS)]
            sub = path if part.size == rows.size else path.row(slice(lo, lo + part.size))
            yield idx, part, sub.sample(ts).reshape(part.size, len(ts), -1)


def run_contract_suite(
    planner,
    n_queries: int,
    seed: int = 0,
    knots: int = 256,
    deep: Optional[int] = None,
    queries: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> VerificationReport:
    """Randomized planner check: coverage, minimal-index dispatch,
    endpoint contracts, and (on the first `deep` queries) the planner's
    dense check along the whole path.

    Any planner with the members README lists works: the checks go through
    them only. Reports are deterministic functions of (planner, n_queries,
    seed); failures carry the query index so a run can be replayed.
    """
    rng = np.random.default_rng(seed)
    if queries is not None:
        starts, goals = np.asarray(queries[0], float), np.asarray(queries[1], float)
        n_queries = starts.shape[0]
    else:
        starts, goals = planner.sample_queries(rng, n_queries)
    deep_count = n_queries if deep is None else min(deep, n_queries)
    ts = np.linspace(0.0, 1.0, knots)
    tol = planner.end_tol

    report = VerificationReport(
        planner=planner.label, queries=n_queries, regions=len(planner.regions), seed=seed,
        knots=knots, deep_queries=deep_count,
    )
    maxima = {}  # report field -> the largest value the dense checks fed it

    for b0 in range(0, n_queries, SUITE_BLOCK):
        a, b = starts[b0 : b0 + SUITE_BLOCK], goals[b0 : b0 + SUITE_BLOCK]
        planned = planner.plan_batch(a, b)
        th1s, th2s = planner.base_pairs(a, b)  # the pairs dispatch used
        found = [[] for _ in range(len(a))]  # each row's failures, in the order it is checked
        for i, ex in sorted(planned.refused.items()):
            if isinstance(ex, Uncovered):
                report.coverage_failures += 1
                found[i].append({"index": b0 + i, "kind": "uncovered", "detail": str(ex)})
            else:
                report.lift_failures.append(
                    {"index": b0 + i, "t_star": ex.t_star, "message": str(ex)}
                )
        for idx, rows, _ in planned.blocks:
            # independent minimal-index scan over the (base) regions, row by row
            for i in rows.tolist():
                th1, th2 = th1s[i], th2s[i]
                scan = next(
                    (r.index for r in planner.regions if r.member(th1, th2, planner.delta)), None
                )
                if scan != idx:
                    report.dispatch_mismatches += 1
                    detail = f"planner {idx}, scan {scan}"
                    found[i].append({"index": b0 + i, "kind": "dispatch", "detail": detail})
        if planned.blocks:
            # every path's endpoints from one sample per block and one value call
            rows, ends = planned.sample(ENDS)
            err = np.maximum(
                row_norms(ends[:, 0] - a[rows]), row_norms(planner.end_value(ends[:, 1]) - b[rows])
            )
            report.max_endpoint_error = max(report.max_endpoint_error, float(err.max()))
            for i, e in zip(rows[err > tol].tolist(), err[err > tol]):
                found[i].append({"index": b0 + i, "kind": "endpoint", "detail": f"error {e:.3e}"})
        for idx, deep, pts in _dense(planned.blocks, ts, deep_count - b0):
            kind, word, values, measured = planner.deep_check(idx, th1s[deep], th2s[deep], pts, ts)
            for key, v in measured.items():
                maxima[key] = max(maxima.get(key, 0.0), float(v.max()))
            for i, v in zip(deep.tolist(), values):
                if v > tol:
                    found[i].append({"index": b0 + i, "kind": kind, "detail": f"{word} {v:.3e}"})
        report.failures += [f for row in found for f in row]

    for key, v in maxima.items():
        setattr(report, key, v)
    return report


# --- continuity probe ----------------------------------------------------------

# Perturbation scales, largest first, and the sample grid of the probe.
PROBE_SCALES = (1e-3, 1e-4, 1e-5)
PROBE_KNOTS = 256


def continuity_probe(
    planner, region_index: int, n_pairs: int = 64, seed: int = 0
) -> list[dict]:
    """Max pointwise path deviation under query perturbations of
    shrinking scale, within one region.

    Base queries sit well inside the region (margin at least
    delta + delta/2 plus slack for the perturbation) and are shared
    across scales, so the returned max deviations of a continuous local
    rule decrease monotonically along `PROBE_SCALES`. Each scale's paths
    are built as one block.
    """
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, PROBE_KNOTS)
    regions = planner.regions
    if not 1 <= region_index <= len(regions):
        raise ValueError(f"region index {region_index} outside 1..{len(regions)} of this planner")
    region = regions[region_index - 1]
    # margin head-room: interior by delta/2 plus room for the perturbation
    need = 1.5 * planner.delta + 4.0 * PROBE_SCALES[0]

    starts, pairs, subs = [], [], []  # the query starts, (base) pairs and perturbation seeds
    attempts = 0
    while len(pairs) < n_pairs:
        attempts += 1
        if attempts > 200 * n_pairs:
            raise RuntimeError(f"cannot place queries inside region {region_index}")
        (e,), (th1,), (th2,) = planner.sample_pairs(rng, 1)
        if region.margin(th1, th2) < need:
            continue
        starts.append(e)
        pairs.append((th1, th2))
        subs.append(rng.integers(1 << 31))

    starts = np.array(starts)
    th1s, th2s = (np.array(side) for side in zip(*pairs))
    ref = planner.region_paths(region_index, starts, th1s, th2s)  # the same at every scale
    rngs = [np.random.default_rng(sub) for sub in subs]
    out = []
    for scale, moved in zip(PROBE_SCALES, planner.perturb(rngs, th1s, th2s, PROBE_SCALES)):
        devs = np.empty(n_pairs)
        near_paths = planner.region_paths(region_index, starts, *moved)
        for (_, rows, near), (_, _, pts) in zip(_dense(ref, ts, n_pairs),
                                                _dense(near_paths, ts, n_pairs)):
            devs[rows] = point_norms(near - pts).max(axis=1)
        worst = float(devs.max())
        out.append({"scale": scale, "pairs": n_pairs, "max_deviation": worst,
                    "mean_deviation": float(devs.mean()), "lipschitz_ratio": worst / scale})
    return out


def probe_is_monotone(rows: list[dict]) -> bool:
    """True when max deviation strictly decreases as the scale shrinks."""
    devs = [r["max_deviation"] for r in rows]
    return all(b < a for a, b in zip(devs, devs[1:]))
