import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubeplan.errors import WrongCodomain
from tubeplan.fibration import NumericOracle, pullback_planner, rr_arm_workmap
from tubeplan.milnor import brieskorn_germ, hopf_germ, power_germ, tube_fibration
from tubeplan.sphere_planner import build_planner
from tubeplan.verify import (
    Certificate,
    CertifyInputs,
    certify_sec,
    certify_tc,
    continuity_probe,
    probe_is_monotone,
    run_contract_suite,
)

tri = st.sampled_from(["yes", "no", "unknown"])


# --- complexity certificates -----------------------------------------------------


def test_tc_plane_valued_germ_is_exactly_two():
    cert = certify_tc(brieskorn_germ(2, 3))
    assert (cert.lower, cert.upper, cert.exact) == (2, 2, 2)
    assert "even-target-odd-base-sphere" in cert.tags


def test_tc_odd_target_with_link_is_exactly_three():
    cert = certify_tc(CertifyInputs(p=3, link_nonempty="yes"))
    assert (cert.lower, cert.upper, cert.exact) == (2, 3, 3)
    assert "nonempty-link-forces-maximum" in cert.tags
    assert "isolated-singularity" in cert.assumptions


def test_tc_odd_target_trivial_homotopy_is_exactly_three():
    cert = certify_tc(CertifyInputs(p=3, pi_trivial="yes"))
    assert cert.exact == 3
    assert "trivial-fiber-homotopy-forces-maximum" in cert.tags


def test_tc_hopf_gets_bounds_only():
    cert = certify_tc(hopf_germ())
    assert (cert.lower, cert.upper) == (2, 3)
    assert cert.exact is None
    assert "parity-bounds-only" in cert.tags
    assert cert.inputs["target_dim"] == 3


def test_tc_rejects_tiny_codomain():
    with pytest.raises(ValueError):
        certify_tc(CertifyInputs(p=1))


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=9), tri, tri)
def test_certificates_are_internally_consistent(p, link, pi):
    cert = certify_tc(CertifyInputs(p=p, link_nonempty=link, pi_trivial=pi))
    assert cert.lower <= cert.upper
    if cert.exact is not None:
        assert cert.lower <= cert.exact <= cert.upper
    if p % 2 == 0:
        assert cert.upper == 2
    else:
        assert cert.upper == 3
    assert cert.quantity == "TC"


def test_sec_disconnected_fiber():
    cert = certify_sec(power_germ(3), fiber_components=3)
    assert cert.exact == 2
    assert cert.section_exists == "no"
    assert cert.inputs["provenance"] == "sampled"


def test_sec_connected_fiber():
    cert = certify_sec(brieskorn_germ(2, 3), fiber_components=1)
    assert cert.exact == 1
    assert cert.section_exists == "yes"
    assert "fiber-connected-global-section" in cert.tags


def test_sec_keeps_a_declared_count_declared():
    cert = certify_sec(CertifyInputs(p=2, fiber_components=2, provenance="declared"))
    assert cert.exact == 2
    assert cert.inputs["provenance"] == "declared"
    assert cert.assumptions == ()


def test_sec_requires_plane_codomain():
    with pytest.raises(WrongCodomain):
        certify_sec(hopf_germ(), fiber_components=1)


def test_sec_requires_component_count():
    with pytest.raises(ValueError):
        certify_sec(power_germ(2))
    with pytest.raises(ValueError):
        certify_sec(power_germ(2), fiber_components=0)


def test_certificate_serialization_keys():
    d = certify_tc(brieskorn_germ(2, 3)).to_dict()
    assert list(d)[:4] == ["quantity", "lower", "upper", "exact"]
    json.dumps(d)  # must be serializable as-is


def test_upper_bound_agreement():
    germ = brieskorn_germ(2, 3)
    planner = pullback_planner(tube_fibration(germ))
    assert len(planner.regions) == certify_tc(germ).upper
    hopf = pullback_planner(hopf_germ(), oracle=NumericOracle())
    assert len(hopf.regions) == certify_tc(hopf_germ()).upper


# --- randomized contract suite ------------------------------------------------------


def test_suite_sphere_m2():
    report = run_contract_suite(build_planner(2), 1500, seed=42, deep=64)
    assert report.passed
    assert report.coverage_failures == 0
    assert report.dispatch_mismatches == 0
    assert report.max_endpoint_error < 1e-9
    assert report.max_surface_deviation < 1e-9
    assert report.regions == 3


def test_suite_exact_pullback():
    planner = pullback_planner(tube_fibration(brieskorn_germ(2, 3)))
    report = run_contract_suite(planner, 250, seed=1)
    assert report.passed
    assert report.max_endpoint_error < 1e-10
    assert report.max_projection_residual < 1e-12


def test_suite_deterministic():
    a = run_contract_suite(build_planner(1), 400, seed=7, deep=16)
    b = run_contract_suite(build_planner(1), 400, seed=7, deep=16)
    assert a.to_dict() == b.to_dict()
    # no timing in the serialized form
    assert "wall_time" not in a.to_dict()


def test_suite_records_lift_failures():
    planner = pullback_planner(rr_arm_workmap(), oracle=NumericOracle())
    pole = np.array([0.0, 0.0, 1.0])
    goals = np.tile(pole, (3, 1))
    starts = np.array([[0.1, 0.2], [0.5, -0.4], [1.0, 1.0]])
    report = run_contract_suite(planner, 3, queries=(starts, goals))
    assert len(report.lift_failures) == 3
    assert not report.passed
    for entry in report.lift_failures:
        assert 0.0 <= entry["t_star"] <= 1.0


def test_suite_lifts_numeric_queries_in_blocks():
    wm = rr_arm_workmap()
    shapes = []

    def jac(x):
        shapes.append(np.shape(x))
        return wm.jac(x)

    planner = pullback_planner(dataclasses.replace(wm, jac=jac))
    run_contract_suite(planner, 20, seed=3)
    assert any(len(s) == 2 and s[0] > 1 for s in shapes), "every Jacobian call took one row"


def test_report_json_round_trip():
    report = run_contract_suite(build_planner(1), 50, seed=3)
    d = report.to_dict()
    assert json.loads(json.dumps(d)) == d


# --- continuity probes -----------------------------------------------------------------


def test_probe_monotone_on_sphere_regions():
    for m, region in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3)):
        rows = continuity_probe(build_planner(m), region, n_pairs=24, seed=11)
        assert probe_is_monotone(rows), f"m={m} region {region}: {rows}"
        assert rows[-1]["lipschitz_ratio"] <= 1e4


def test_probe_monotone_on_pullback():
    planner = pullback_planner(tube_fibration(brieskorn_germ(2, 3)))
    rows = continuity_probe(planner, 1, n_pairs=12, seed=2)
    assert probe_is_monotone(rows)


def test_probe_deterministic():
    a = continuity_probe(build_planner(2), 1, n_pairs=16, seed=5)
    b = continuity_probe(build_planner(2), 1, n_pairs=16, seed=5)
    assert a == b


@pytest.mark.parametrize("m, region", [(1, 3), (1, 0), (2, 4), (2, -1)])
def test_probe_rejects_a_region_the_planner_lacks(m, region):
    with pytest.raises(ValueError, match=r"outside 1\.\.\d"):
        continuity_probe(build_planner(m), region, n_pairs=4)
    with pytest.raises(ValueError, match=r"outside 1\.\.\d"):
        continuity_probe(pullback_planner(tube_fibration(power_germ(2))), region, n_pairs=4)


def test_probe_is_monotone_helper():
    assert probe_is_monotone([{"max_deviation": 3.0}, {"max_deviation": 1.0}])
    assert not probe_is_monotone([{"max_deviation": 1.0}, {"max_deviation": 1.0}])


# --- the planner protocol ---------------------------------------------------------------

# every member `run_contract_suite` and `continuity_probe` may read (README)
PROTOCOL = (
    "regions", "delta", "label", "plan_batch", "base_pairs", "sample_queries", "sample_pairs",
    "end_value", "end_tol", "deep_check", "perturb", "region_paths",
)


class _ProtocolOnly:
    """Subclasses no planner class and forwards the protocol members alone, so a
    check that reads anything else (or tests the planner's class) breaks."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name not in PROTOCOL:
            raise AttributeError(name)
        return getattr(self._inner, name)


@pytest.mark.parametrize(
    "make, region",
    [
        (lambda: build_planner(2), 3),
        (lambda: pullback_planner(tube_fibration(brieskorn_germ(2, 3))), 2),
        (lambda: pullback_planner(rr_arm_workmap()), 1),
    ],
    ids=["sphere", "exact-pullback", "numeric-pullback"],
)
def test_checks_use_the_planner_protocol_only(make, region):
    planner = make()
    double = _ProtocolOnly(planner)
    for deep in (None, 3):
        want = run_contract_suite(planner, 40, seed=6, deep=deep).to_dict()
        assert run_contract_suite(double, 40, seed=6, deep=deep).to_dict() == want
    want = continuity_probe(planner, region, n_pairs=6, seed=6)
    assert continuity_probe(double, region, n_pairs=6, seed=6) == want
