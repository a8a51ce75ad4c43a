"""Germ, tube, fiber, link, monodromy, and probe tests.

Frozen tube radii come from solving |z|^d = eta by hand:
power d=2 has eta = 0.5^2/10 = 0.025, radius 0.025^(1/2);
power d=3 has eta = 0.5^3/10 = 0.0125, radius 0.0125^(1/3).
"""

import cmath
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import tubeplan
from tubeplan import milnor
from tubeplan.errors import AmbiguousAssignment, TooFewPoints
from tubeplan.fibration import rr_arm_workmap
from tubeplan.milnor import (
    CLUSTER_K,
    _cluster,
    Germ,
    GermFlags,
    brieskorn_germ,
    hopf_germ,
    load_germ,
    monodromy_components,
    permutation_cycles,
    polish_to_tube,
    power_germ,
    product_germ,
    regularity_probe,
    sample_fiber,
    sample_link,
    sample_workmap_fiber,
    save_germ,
    tube_fibration,
)

from conftest import random_unit
from numeric_reference import jacobian_fd

GERM_DIR = pathlib.Path(__file__).resolve().parent.parent / "germs"

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# --- evaluation -----------------------------------------------------------------


def test_power_germ_value():
    v = power_germ(2).f_real(np.array([0.1, 0.0]))
    assert np.allclose(v, [0.01, 0.0], atol=1e-18)


def test_brieskorn_value():
    # z^2 + w^3 at (0, 0.1) is 0.001
    v = brieskorn_germ(2, 3).f_real(np.array([0.0, 0.0, 0.1, 0.0]))
    assert np.allclose(v, [0.001, 0.0], atol=1e-18)


def test_complex_coefficients_respected():
    g = Germ(
        name="iz",
        ncx=1,
        monomials=(((0.0 + 1.0j), (1,)),),
        weights=(1,),
        degree=1,
    )
    v = g.f_real(np.array([0.2, 0.0]))
    assert np.allclose(v, [0.0, 0.2])


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_weighted_equivariance(seed):
    # f(rho_theta z) = e^{i d theta} f(z) with rho scaling each variable
    # by e^{i w_j theta}
    rng = np.random.default_rng(seed)
    germ = brieskorn_germ(2, 3)
    theta = rng.uniform(0, 2 * math.pi)
    z = rng.standard_normal(2) * 0.4 + 1j * rng.standard_normal(2) * 0.4
    rotated = z * np.exp(1j * np.array(germ.weights) * theta)
    lhs = complex(*germ.f_real(_interleave(rotated)))
    rhs = cmath.exp(1j * germ.degree * theta) * complex(*germ.f_real(_interleave(z)))
    assert abs(lhs - rhs) < 1e-10


def _interleave(z):
    x = np.empty(2 * z.shape[0])
    x[0::2], x[1::2] = z.real, z.imag
    return x


def test_equivariance_bulk(rng):
    germ = brieskorn_germ(2, 3)
    w = np.array(germ.weights)
    for _ in range(1000):
        theta = rng.uniform(0, 2 * math.pi)
        z = rng.standard_normal(2) * 0.5 + 1j * rng.standard_normal(2) * 0.5
        x = np.empty(4)
        x[0::2], x[1::2] = z.real, z.imag
        zr = z * np.exp(1j * w * theta)
        xr = np.empty(4)
        xr[0::2], xr[1::2] = zr.real, zr.imag
        lhs = germ.f_real(xr)
        rhs_c = cmath.exp(1j * germ.degree * theta) * complex(*germ.f_real(x))
        assert abs(complex(*lhs) - rhs_c) < 1e-10


# --- construction and io -----------------------------------------------------------


def test_homogeneity_is_validated():
    with pytest.raises(ValueError):
        Germ(name="bad", ncx=2, monomials=((1.0, (2, 0)), (1.0, (0, 3))), weights=(1, 1), degree=2)


def test_eta_ceiling_is_enforced():
    with pytest.raises(ValueError):
        replace(power_germ(2), eta=0.2)  # bound is 0.5^2/10 = 0.025


def test_eta_default_follows_epsilon():
    assert power_germ(2).eta == pytest.approx(0.025, abs=0)
    assert power_germ(3).eta == pytest.approx(0.0125, abs=0)
    assert brieskorn_germ(2, 3).eta == pytest.approx(0.5**3 / 10, abs=0)


def test_flags_tri_state_validated():
    with pytest.raises(ValueError):
        GermFlags(link_nonempty="maybe")


def test_json_round_trip(tmp_path):
    g = brieskorn_germ(2, 3)
    path = tmp_path / "g.json"
    save_germ(g, path)
    g2 = load_germ(path)
    assert g2 == g
    assert g2.flags.link_nonempty == "yes"


def test_load_rejects_tampered_homogeneity(tmp_path):
    import json

    g = power_germ(2)
    path = tmp_path / "g.json"
    save_germ(g, path)
    doc = json.loads(path.read_text())
    doc["degree"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_germ(path)


# --- the tube -----------------------------------------------------------------------


def test_tube_radius_closed_form(rng):
    for d, radius in ((2, 0.025 ** (1 / 2)), (3, 0.0125 ** (1 / 3))):
        wm = tube_fibration(power_germ(d))
        pts = wm.sample(rng, 200)
        assert np.abs(np.linalg.norm(pts, axis=1) - radius).max() < 1e-9


def test_sampled_tube_points_map_to_radius_eta(rng):
    germ = brieskorn_germ(2, 3)
    wm = tube_fibration(germ)
    pts = wm.sample(rng, 300)
    vals = wm.f(pts)
    assert np.abs(np.linalg.norm(vals, axis=1) - germ.eta).max() < 1e-9
    assert np.linalg.norm(pts, axis=1).max() <= germ.epsilon + 1e-9


def test_polish_within_tolerance_only():
    germ = power_germ(2)
    r = math.sqrt(germ.eta)
    x = np.array([r + 1e-7, 0.0])
    tp = polish_to_tube(germ, x)
    assert abs(np.linalg.norm(germ.f_real(tp)) - germ.eta) < 1e-12
    with pytest.raises(ValueError):
        polish_to_tube(germ, np.array([r + 0.01, 0.0]))


# --- the monodromy map h -----------------------------------------------------------

MONODROMY_GERMS = {
    **{f"z^{d}": power_germ(d) for d in range(1, 6)},
    "z^2+w^3": brieskorn_germ(2, 3),
    "z*w": load_germ(GERM_DIR / "two_factor.json"),
}


def _h(germ, x):
    """h(z)_j = exp(2 pi i w_j / d) z_j on interleaved rows: the weighted
    circle action at angle 2 pi / d, the monodromy of a weighted-homogeneous germ."""
    turn = np.exp(2j * np.pi * np.array(germ.weights) / germ.degree)
    z = (x[..., 0::2] + 1j * x[..., 1::2]) * turn
    out = np.empty_like(x)
    out[..., 0::2], out[..., 1::2] = z.real, z.imag
    return out


def test_circle_action_preserves_norm_and_projects():
    # h keeps ||x||, keeps f(x) (f(h z) = exp(2 pi i) f(z)), and has order d
    for name, germ in MONODROMY_GERMS.items():
        x = tube_fibration(germ).sample(np.random.default_rng(7), 200)
        hx = _h(germ, x)
        assert np.abs(np.linalg.norm(hx, axis=1) - np.linalg.norm(x, axis=1)).max() <= 1e-15, name
        assert np.abs(germ.f_real(hx) - germ.f_real(x)).max() <= 1e-15, name
        hdx = x
        for _ in range(germ.degree):
            hdx = _h(germ, hdx)
        assert np.abs(hdx - x).max() <= 1e-14, name


@pytest.mark.parametrize("name", ["z^3", "z^2+w^3", "z*w"])
def test_monodromy_looks_up_h_of_each_representative(name):
    germ = MONODROMY_GERMS[name]
    fs = sample_fiber(germ, phi=0.3, n_seeds=600, seed=1)
    asked = []

    class Recorder:
        def query_ball_point(self, x, r):
            asked.append(x)
            return fs.tree.query_ball_point(x, r)

    monodromy_components(germ, replace(fs, tree=Recorder()))
    reps = fs.points[[int(np.argmax(fs.labels == c)) for c in range(fs.n_components)]]
    assert np.abs(np.array(asked) - _h(germ, reps)).max() <= 1e-15


# --- fiber sampling ----------------------------------------------------------------


def test_fiber_counts_small_powers():
    for d in (1, 2, 3):
        fs = sample_fiber(power_germ(d), n_seeds=500, seed=3)
        assert fs.n_components == d, f"z^{d} gave {fs.n_components} components"
        assert fs.n_converged >= 100


def test_fiber_points_satisfy_constraint():
    germ = power_germ(3)
    fs = sample_fiber(germ, phi=0.7, n_seeds=400, seed=1)
    want = germ.eta * np.array([math.cos(0.7), math.sin(0.7)])
    resid = np.linalg.norm(germ.f_real(fs.points) - want, axis=1).max()
    assert resid <= 1e-12
    # closed form: the roots all sit at radius eta^(1/3)
    assert np.abs(np.linalg.norm(fs.points, axis=1) - germ.eta ** (1 / 3)).max() < 1e-9


def test_fiber_brieskorn_connected():
    fs = sample_fiber(brieskorn_germ(2, 3), n_seeds=800, seed=2)
    assert fs.n_components == 1
    assert fs.n_converged >= 100


def test_fiber_determinism():
    a = sample_fiber(power_germ(2), n_seeds=300, seed=9)
    b = sample_fiber(power_germ(2), n_seeds=300, seed=9)
    assert np.array_equal(a.points, b.points)
    assert a.n_components == b.n_components


def test_fiber_too_few_seeds_rejected():
    with pytest.raises(ValueError):
        sample_fiber(power_germ(2), n_seeds=50)


def test_arm_fiber_sampler_converges_onto_the_fiber():
    # the arm maps R^2 to R^3, so projection needs the least-squares step;
    # unit-ball seeds all reach the preimage (asin 0.8, 0)
    fs = sample_workmap_fiber(rr_arm_workmap(), np.array([0.6, 0.0, 0.8]), n_seeds=500)
    assert fs.n_converged == 500
    assert np.abs(fs.points - [math.asin(0.8), 0.0]).max() < 1e-9


@pytest.mark.parametrize("germ", [power_germ(3), brieskorn_germ(2, 3)], ids=lambda g: g.name)
def test_workmap_fiber_of_a_tube_is_the_germ_fiber(germ):
    # the work map decides the seed ball and the ball filter: a germ-backed
    # map seeds in, and keeps only points inside, the epsilon ball
    phi = 0.4
    base = germ.eta * np.array([math.cos(phi), math.sin(phi)])
    got = sample_workmap_fiber(tube_fibration(germ), base, 400, 3)
    want = sample_fiber(germ, phi, 400, 3)
    assert np.array_equal(got.points, want.points)
    assert np.array_equal(got.labels, want.labels)
    assert got.radius == want.radius
    assert np.linalg.norm(got.points, axis=1).max() <= germ.epsilon + 1e-9


def test_one_kdtree_serves_clustering_and_monodromy(monkeypatch):
    germ = power_germ(3)
    real, built = milnor._kdtree, []

    def counted(points):
        built.append(points.shape[0])
        return real(points)

    monkeypatch.setattr(milnor, "_kdtree", counted)
    fs = sample_fiber(germ, n_seeds=400, seed=0)
    monodromy_components(germ, fs)
    assert built.count(fs.n_converged) == 1


def _reference_labels(points, radius):
    """Plain union-find over the proximity pairs; components are numbered
    in the order of their lowest point index."""
    parent = list(range(points.shape[0]))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in cKDTree(points).query_pairs(radius):
        parent[find(i)] = find(j)
    seen = {}
    return np.array([seen.setdefault(find(i), len(seen)) for i in range(points.shape[0])])


CLUSTER_GERMS = {p.name: load_germ(p) for p in GERM_DIR.glob("*.json")}
CLUSTER_GERMS.update({f"z^{d}": power_germ(d) for d in range(1, 6)})


@pytest.mark.parametrize("name", sorted(CLUSTER_GERMS))
def test_cluster_labels_match_reference_union_find(name):
    points = sample_fiber(CLUSTER_GERMS[name], n_seeds=600, seed=5).points
    labels, n_comp, radius, _ = _cluster(points)
    want = _reference_labels(points, radius)
    assert np.array_equal(labels, want)
    assert n_comp == want.max() + 1


def _adversarial_cloud(rng):
    """Clumps with spreads 1e-13 to 1e-1, an optional bridge between two
    clumps and optional uniform noise: at most 300 points in R^2 to R^4."""
    dim = int(rng.integers(2, 5))
    parts = [
        rng.uniform(-1, 1, dim)
        + 10.0 ** rng.uniform(-13, -1) * rng.standard_normal((int(rng.integers(2, 60)), dim))
        for _ in range(int(rng.integers(1, 6)))
    ]
    if rng.uniform() < 0.5:
        a, b = parts[0][0], parts[-1][0]
        parts.append(a + np.linspace(0, 1, int(rng.integers(3, 40)))[:, None] * (b - a))
    if rng.uniform() < 0.5:
        parts.append(rng.uniform(-1, 1, (int(rng.integers(1, 40)), dim)))
    points = np.concatenate(parts)[:300]
    return points[rng.permutation(points.shape[0])]


def test_cluster_matches_reference_on_adversarial_clouds():
    for seed in range(300):
        points = _adversarial_cloud(np.random.default_rng(seed))
        labels, n_comp, radius, _ = _cluster(points)
        want = _reference_labels(points, radius)
        assert np.array_equal(labels, want), seed
        assert n_comp == want.max() + 1


def test_cluster_joins_clumps_whose_knn_graphs_are_disjoint():
    # Two dense clumps of 2(K+1) points 0.1 apart, and a far pair 0.05 apart
    # that sets the radius to 0.15: every k-NN edge stays inside its clump,
    # yet the radius graph joins the clumps.
    rng = np.random.default_rng(0)
    clump = 1e-3 * rng.standard_normal((2 * (CLUSTER_K + 1), 2))
    points = np.concatenate([clump, clump + [0.1, 0.0], [[5.0, 0.0], [5.05, 0.0]]])
    near = cKDTree(points).query(points, k=CLUSTER_K + 1)[1]
    side = np.arange(points.shape[0]) // clump.shape[0]
    assert np.all(side[near[: 2 * clump.shape[0]]] == side[: 2 * clump.shape[0], None])
    labels, n_comp, radius, _ = _cluster(points)
    assert radius == pytest.approx(0.15)
    assert n_comp == 2
    assert np.array_equal(labels, _reference_labels(points, radius))


def test_cluster_memory_stays_linear_on_a_point_fiber():
    # all 5000 samples of z^1 sit within the radius floor of each other, so a
    # listing of the radius graph would hold n^2/2 edges
    points = sample_fiber(power_germ(1), n_seeds=5000, seed=1).points
    tracemalloc.start()
    try:
        _cluster(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_component_sizes_sum():
    fs = sample_fiber(power_germ(3), n_seeds=500, seed=3)
    assert fs.component_sizes().sum() == fs.n_converged


# --- link sampling -----------------------------------------------------------------


def test_link_nonempty_for_brieskorn():
    germ = brieskorn_germ(2, 3)
    ls = sample_link(germ, n_seeds=300, seed=0)
    assert ls.evidence == "yes"
    assert ls.points.shape[0] >= 1
    vals = germ.f_real(ls.points)
    assert np.linalg.norm(vals, axis=1).max() <= 1e-12
    assert np.abs(np.linalg.norm(ls.points, axis=1) - germ.epsilon).max() < 1e-9


def test_link_empty_for_one_variable_power():
    # z = 0 never meets the epsilon circle
    ls = sample_link(power_germ(1), n_seeds=300, seed=0)
    assert ls.evidence == "no"
    assert ls.points.shape[0] == 0


# --- monodromy ----------------------------------------------------------------------


def test_monodromy_cycles():
    germ = power_germ(3)
    fs = sample_fiber(germ, n_seeds=600, seed=4)
    perm = monodromy_components(germ, fs)
    cyc = permutation_cycles(perm)
    assert sorted(len(c) for c in cyc) == [3]


def test_monodromy_identity_on_single_component():
    for germ in (power_germ(1), brieskorn_germ(2, 3)):
        fs = sample_fiber(germ, n_seeds=600, seed=4)
        perm = monodromy_components(germ, fs)
        assert perm.tolist() == list(range(fs.n_components))


def test_monodromy_refuses_no_hit_and_several_labels():
    germ = power_germ(3)
    fs = sample_fiber(germ, n_seeds=600, seed=4)
    with pytest.raises(AmbiguousAssignment, match=r"lands near \[\]"):
        monodromy_components(germ, replace(fs, radius=1e-300))
    with pytest.raises(AmbiguousAssignment, match=r"lands near \[0, 1, 2\]"):
        monodromy_components(germ, replace(fs, radius=1.0))


def test_permutation_cycles_shape():
    assert sorted(map(len, permutation_cycles(np.array([1, 0, 2])))) == [1, 2]


def test_import_leaves_scipy_sparse_and_spatial_unloaded():
    # only fiber clustering and monodromy need them; every CLI call pays the import
    code = (
        "import sys, tubeplan; "
        "print(sorted(m for m in ('scipy.sparse', 'scipy.spatial') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(tubeplan.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


# --- regularity probes ----------------------------------------------------------------


# seeds 16, 18 and 733587778 drew z*w tube points where a fiber touches the
# sphere |x| = 0.224 < epsilon, which a check taken inside the ball calls suspect
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 16, 18, 733587778])
@pytest.mark.parametrize("germ", [brieskorn_germ(2, 3), product_germ()], ids=lambda g: g.name)
def test_probe_verdict_for_isolated_singularity(germ, seed):
    probe = regularity_probe(germ, n_samples=2000, seed=seed)
    assert probe.verdict == "probably regular"
    assert probe.min_sigma_map > 1e-6
    assert probe.min_boundary_gradient > probe.transversality_bound


@pytest.mark.parametrize("seed", range(3))
def test_probe_suspects_a_non_reduced_germ(seed):
    # (z^2+w^3)^2: df vanishes on the curve z^2 + w^3 = 0, which meets the boundary
    # sphere, so the Euler-relation condition for transversality fails there
    germ = Germ(
        name="(z^2+w^3)^2",
        ncx=2,
        monomials=((1.0 + 0.0j, (4, 0)), (2.0 + 0.0j, (2, 3)), (1.0 + 0.0j, (0, 6))),
        weights=(3, 2),
        degree=12,
    )
    probe = regularity_probe(germ, n_samples=2000, seed=seed)
    assert probe.verdict == "suspect"
    assert probe.min_sigma_map > 1e-6  # Df keeps full rank on the tube itself
    assert probe.min_boundary_gradient < probe.transversality_bound


def test_probe_bound_is_the_euler_relation_bound():
    # z*w: d = 2, w_min = 1, so d eta / (w_min eps) with the germ's eta and epsilon;
    # |df| = |(w, z)| is epsilon everywhere on the boundary sphere
    germ = product_germ()
    probe = regularity_probe(germ, n_samples=1000, seed=0)
    assert probe.transversality_bound == pytest.approx(2 * germ.eta / germ.epsilon)
    assert probe.min_boundary_gradient == pytest.approx(germ.epsilon)


def test_probe_requires_enough_samples():
    with pytest.raises(ValueError):
        regularity_probe(power_germ(2), n_samples=100)


def test_probe_to_dict_keys():
    probe = regularity_probe(power_germ(2), n_samples=1000, seed=1)
    d = probe.to_dict()
    want = {"workmap", "samples", "min_sigma_map", "min_boundary_gradient",
            "transversality_bound", "verdict"}
    assert set(d) >= want


# --- the quadratic sphere map ------------------------------------------------------------


def test_hopf_reference_value():
    wm = hopf_germ()
    assert np.allclose(wm.f(np.array([1.0, 0.0, 0.0, 0.0])), [0.0, 0.0, 1.0], atol=0)


def test_hopf_norm_identity(rng):
    wm = hopf_germ()
    x = rng.standard_normal((1000, 4))
    lhs = np.linalg.norm(wm.f(x), axis=1)
    rhs = np.sum(x * x, axis=1)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_hopf_fiber_is_connected():
    wm = hopf_germ()
    fs = sample_workmap_fiber(wm, np.array([0.0, 0.0, wm.eta]), n_seeds=600, seed=0)
    assert fs.n_components == 1
    assert fs.n_converged >= 100


def test_hopf_jacobian_matches_finite_differences(rng):
    wm = hopf_germ()
    for _ in range(20):
        x = rng.standard_normal(4) * 0.5
        assert np.abs(wm.jac(x) - jacobian_fd(wm, x)).max() < 1e-5


def test_hopf_flags_block_exactness():
    wm = hopf_germ()
    assert wm.flags["link_nonempty"] == "no"
    assert wm.flags["pi_trivial"] == "no"
