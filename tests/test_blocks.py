"""Block-at-a-time exact planning and suite checks equal their row-by-row forms."""

import dataclasses
import pathlib

import numpy as np
import pytest

import numeric_reference
import suite_reference
from tubeplan.errors import Uncovered
from tubeplan.fibration import TaskingPlanner, pullback_planner, rr_arm_workmap
from tubeplan.geometry import (
    Concat,
    NormalizedSegment,
    Scaled,
    _lerp,
    normalize,
    path_to_json,
    point_norms,
    row_norms,
    stereo_inv,
    stereo_proj,
)
from tubeplan.milnor import hopf_germ, load_germ, tube_fibration
from tubeplan.sphere_planner import Planned, SpherePlanner, build_planner
from tubeplan.verify import run_contract_suite

GERMS = pathlib.Path(__file__).resolve().parent.parent / "germs"
PLANNERS = ["S1", "S2", "S3", "S4", "brieskorn_2_3", "two_factor", "cube"]
TS = np.linspace(0.0, 1.0, 65)


def _planner(name):
    if name.startswith("S"):
        return build_planner(int(name[1:]))
    return pullback_planner(tube_fibration(load_germ(GERMS / f"{name}.json")))


def _queries(planner, rng, k):
    if isinstance(planner, SpherePlanner):
        a, b = rng.standard_normal((2, k, planner.m + 1))
        return (a / np.linalg.norm(a, axis=1, keepdims=True),
                b / np.linalg.norm(b, axis=1, keepdims=True))
    g = rng.standard_normal((k, 2))
    return planner.workmap.sample(rng, k), planner.eta * g / np.linalg.norm(g, axis=1)[:, None]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_row_norms_equal_the_one_row_norm(d):
    rng = np.random.default_rng(d)
    x = rng.standard_normal((10_000, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (10_000, 1))
    want = np.array([np.linalg.norm(row) for row in x])
    assert np.array_equal(row_norms(x), want)


# numpy adds fewer than 8 squares from the left and 8 or more pairwise
@pytest.mark.parametrize("d", range(1, 13))
def test_point_norms_equal_the_last_axis_norm(d):
    rng = np.random.default_rng(10 + d)
    x = rng.standard_normal((40, 50, d)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 50, 1))
    blocks = [
        x[0, 0],  # 1-D
        x[0],  # (k, d)
        x,  # (k, T, d)
        x[::3, 1::2],  # strided
        np.asfortranarray(x),
        x.transpose(1, 0, 2),  # the rows of another axis order
        np.moveaxis(x.reshape(2000, d).T.copy(), 0, -1),  # the components far apart
    ]
    for block in blocks:
        want = np.linalg.norm(block, axis=-1)
        got = point_norms(block)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(normalize(block), block / want[..., None])


@pytest.mark.parametrize("m", [2, 4, 8, 12])
def test_stereo_inv_equals_the_sum_form_on_chart_blocks(m):
    rng = np.random.default_rng(m)
    a, b = (v / np.linalg.norm(v, axis=1, keepdims=True)
            for v in rng.standard_normal((2, 300, m + 1)))
    ya, yb = stereo_proj(a), stereo_proj(b)
    for y in (ya, ya[7], _lerp(ya, yb, TS), 1e3 * ya):
        assert np.array_equal(stereo_inv(y), numeric_reference.stereo_inv(y))


@pytest.mark.parametrize("name", PLANNERS)
def test_plan_batch_of_no_rows_is_empty(name):
    planner = _planner(name)
    assert list(planner.plan_batch([], [])) == []
    starts, goals = _queries(planner, np.random.default_rng(1), 0)
    assert list(planner.plan_batch(starts, goals)) == []


@pytest.mark.parametrize("name", PLANNERS)
def test_plan_batch_equals_plan_row_by_row(name):
    planner = _planner(name)
    starts, goals = _queries(planner, np.random.default_rng(8), 120)
    results = planner.plan_batch(starts, goals)
    assert len(results) == 120
    for a, b, got in zip(starts, goals, results):
        idx, path = planner.plan(a, b)
        assert got[0] == idx
        assert path_to_json(got[1]) == path_to_json(path)
        assert np.array_equal(got[1].sample(TS), path.sample(TS))


@pytest.mark.parametrize("name", PLANNERS)
def test_a_block_path_samples_its_rows_bit_for_bit(name):
    planner = _planner(name)
    planned = planner.plan_batch(*_queries(planner, np.random.default_rng(12), 200))
    for _, rows, path in planned.blocks:
        assert path.shape == (rows.size, path.row(0).shape[0])
        for t in (0.0, 0.3, 0.5, 1.0):
            rows_at = np.stack([path.row(j).at(t) for j in range(rows.size)])
            assert np.array_equal(path.at(t), rows_at)
        want = np.stack([path.row(j).sample(TS) for j in range(rows.size)])
        assert np.array_equal(path.sample(TS), want)
        assert np.array_equal(path.row(slice(2, 5)).sample(TS), want[2:5])
    rows, pts = planned.sample(TS)
    assert sorted(rows.tolist()) == [i for i in range(200) if i not in planned.refused]
    assert all(np.array_equal(p, planned[i][1].sample(TS)) for i, p in zip(rows, pts))


def _every_region_queries(planner, rng, k):
    """2k queries. On a sphere: random pairs, then starts near the north pole,
    each half with antipodal goals in every other row. On a pullback: drawn
    starts, with goals over the antipode of the start's value in every other
    row. Both reach every region of a sphere planner or a pullback over S^1."""
    m = planner.m if isinstance(planner, SpherePlanner) else planner.workmap.p - 1
    t1s, t2s = (normalize(v) for v in rng.standard_normal((2, 2 * k, m + 1)))
    t1s[k:] = normalize(np.eye(m + 1)[m] + 0.01 * t1s[k:])
    t2s[k // 2 :: 2] = -t1s[k // 2 :: 2]
    if isinstance(planner, SpherePlanner):
        return t1s, t2s
    starts = planner.workmap.sample(rng, 2 * k)
    return starts, planner.eta * np.where(
        (np.arange(2 * k) % 2 == 1)[:, None], -normalize(planner.workmap.f(starts)), t2s
    )


AT_PLANNERS = ["S1", "S2", "S3", "S4", "S7", "S8", "brieskorn_2_3", "arm", "hopf"]


@pytest.mark.parametrize("name", AT_PLANNERS)
def test_at_equals_the_one_point_reference(name):
    # at evaluates a one-point grid from the root down; the reference takes each
    # node's plain one-point formula, down to the leaves
    if name in ("arm", "hopf"):
        planner = pullback_planner(rr_arm_workmap() if name == "arm" else hopf_germ())
        k = 3
    else:
        planner, k = _planner(name), 12
    planned = planner.plan_batch(*_every_region_queries(planner, np.random.default_rng(3), k))
    regions = {idx for idx, _, _ in planned.blocks}
    if name not in ("arm", "hopf"):  # numeric lifts are refused near the poles
        assert regions == {r.index for r in planner.regions}
    for _, rows, path in planned.blocks:
        paths = [path] if len(path.shape) == 1 else [path, path.row(0), path.row(rows.size - 1)]
        for p in paths:
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert np.array_equal(p.at(t), numeric_reference.at_reference(p, t)), t


def test_at_reads_the_left_piece_at_an_inexact_junction():
    # the planners' junctions are bit-exact, so only a junction some ulps off
    # shows which piece t = 1/2 (and t = 3/4, inside the right piece) reads
    a, b, c = (normalize(v) for v in np.random.default_rng(4).standard_normal((3, 5, 3)))
    right = Concat(NormalizedSegment(b + 1e-12, c), NormalizedSegment(c + 1e-12, a))
    path = Scaled(Concat(NormalizedSegment(a, b), right), 2.0)
    assert not np.array_equal(path.path.left.at(1.0), right.at(0.0))
    for p in (path, path.row(2)):
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert np.array_equal(p.at(t), numeric_reference.at_reference(p, t)), t


def _plan_one_row(planner, a, b):
    """Plan one query with the checks written out row by row: a pullback's
    projection checks in plain code, then `plan`; a refusal is no error."""
    if isinstance(planner, TaskingPlanner):
        tol = 1e-6 * max(1.0, planner.eta)
        if abs(float(np.linalg.norm(planner.workmap.f(a))) - planner.eta) > tol:
            raise ValueError("start configuration does not sit over the task sphere")
        if abs(float(np.linalg.norm(b)) - planner.eta) > tol:
            raise ValueError("goal value does not sit on the task sphere")
    try:
        planner.plan(a, b)
    except Uncovered:
        pass


# (row, which side, how it is broken); rows are listed in the order the loop meets them
BAD_ROWS = {
    "start-norm": [(7, 0, "norm")],
    "goal-norm": [(7, 1, "norm")],
    "goal-before-start": [(3, 1, "norm"), (7, 0, "norm")],
    "same-row": [(5, 0, "norm"), (5, 1, "norm")],
    "start-nan": [(4, 0, "nan"), (9, 1, "norm")],
    # on the task sphere to 1e-6 but 1e-9 off the base point: only the exact
    # lift's gap check refuses it, so it exists on pullbacks alone
    "start-off-base-point": [(6, 0, "gap")],
}


@pytest.mark.parametrize(
    "name, case",
    [(n, c) for n in PLANNERS for c in BAD_ROWS if not (n[0] == "S" and c.endswith("point"))],
)
def test_a_bad_row_raises_what_the_row_loop_raises(name, case):
    planner = _planner(name)
    starts, goals = _queries(planner, np.random.default_rng(9), 12)
    for row, side, how in BAD_ROWS[case]:
        block = (starts, goals)[side]
        if how == "nan":
            block[row, 0] = np.nan
        elif how == "gap":
            block[row] *= 1.0 + 1e-9
        else:
            block[row] *= 1.0 + 1e-3 * (1 + row)  # each row's message names its own norm
    with pytest.raises(Exception) as per_row:
        for a, b in zip(starts, goals):
            _plan_one_row(planner, a, b)
    with pytest.raises(type(per_row.value)) as batched:
        planner.plan_batch(starts, goals)
    assert str(batched.value) == str(per_row.value)


@pytest.mark.parametrize("how", ["nan", "shape"])
def test_a_bad_row_raises_without_a_scalar_plan(how, monkeypatch):
    # the point checks alone raise a bad row's error: a call to plan would be
    # one more plan to whatever counts plans
    planner = build_planner(2)
    starts, goals = _queries(planner, np.random.default_rng(9), 12)
    if how == "nan":
        goals[4, 0] = np.nan
    else:
        goals = goals[:, :2]

    def no_plan(*args):
        raise AssertionError("plan_batch called SpherePlanner.plan")

    monkeypatch.setattr(SpherePlanner, "plan", no_plan)
    with pytest.raises(ValueError, match="non-finite" if how == "nan" else "expected a point"):
        planner.plan_batch(starts, goals)


@dataclasses.dataclass(frozen=True)
class _LastRegion(SpherePlanner):
    """Sends a query to the highest-index region that accepts it, so the
    suite's minimal-index scan disagrees wherever two regions accept it."""

    def margins(self, t1s, t2s):
        # an accepting region keeps its margin only when no higher one accepts
        margins = super().margins(t1s, t2s)
        ok = margins >= self.delta
        last = ok.shape[1] - 1 - np.argmax(ok[:, ::-1], axis=1)
        keep = ~ok.any(axis=1)[:, None] | (np.arange(ok.shape[1]) == last[:, None])
        return np.where(keep, margins, -np.inf)

    def plan_batch(self, starts, goals):
        return _stretched(super().plan_batch(starts, goals))


@dataclasses.dataclass(frozen=True)
class _StretchedTasking(TaskingPlanner):
    def plan_batch(self, starts, goals):
        return _stretched(super().plan_batch(starts, goals))


def _stretched(planned):
    """Every third path scaled by 1 + 1e-6: off its endpoints and off the sphere
    or the fiber, so those rows fail two or three checks at once."""
    blocks = []
    for idx, rows, path in planned.blocks:
        third = rows % 3 == 0
        for part, factor in ((third, 1.0 + 1e-6), (~third, None)):
            if part.any():
                sub = path.row(np.flatnonzero(part))
                blocks.append((idx, rows[part], sub if factor is None else Scaled(sub, factor)))
    return Planned(planned.size, blocks, planned.refused)


def _skewed(planner):
    if isinstance(planner, SpherePlanner):
        return _LastRegion(m=planner.m, delta=planner.delta, regions=planner.regions)
    base = _LastRegion(m=planner.base.m, delta=planner.delta, regions=planner.regions)
    return _StretchedTasking(workmap=planner.workmap, base=base, oracle=planner.oracle)


@pytest.mark.parametrize("deep", [1, None])
@pytest.mark.parametrize("name", PLANNERS)
def test_suite_equals_the_row_by_row_reference(name, deep):
    # 300 queries span two plan_batch blocks
    planner = _planner(name)
    got = run_contract_suite(planner, 300, seed=5, deep=deep).to_dict()
    assert got == suite_reference.run_contract_suite(planner, 300, seed=5, deep=deep)
    assert got["passed"]
    skewed = _skewed(planner)
    got = run_contract_suite(skewed, 300, seed=5, deep=deep).to_dict()
    assert got == suite_reference.run_contract_suite(skewed, 300, seed=5, deep=deep)
    kinds = {f["kind"] for f in got["failures"]}
    assert {"dispatch", "endpoint"} <= kinds
    if deep is None:
        assert kinds & {"off-sphere", "projection"}


@pytest.mark.parametrize("name", ["S2", "S4", "two_factor"])
def test_suite_endpoint_error_is_the_row_norm_bit_for_bit(name):
    # a one-query suite reports that query's own endpoint error; every path of a
    # one-row block is stretched, so the error is a full vector of small terms
    planner = _skewed(_planner(name))
    starts, goals = _queries(planner, np.random.default_rng(4), 100)
    for i in range(100):
        q = (starts[i : i + 1], goals[i : i + 1])
        got = run_contract_suite(planner, 1, deep=0, queries=q).max_endpoint_error
        want = suite_reference.run_contract_suite(planner, 1, deep=0, queries=q)
        assert got == want["max_endpoint_error"]
