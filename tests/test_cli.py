"""End-to-end command line checks, run in-process through main()."""

import json
import math

import numpy as np
import pytest

from tubeplan import cli
from tubeplan.cli import main
from tubeplan.errors import LiftFailure, TooFewPoints
from tubeplan.milnor import brieskorn_germ, power_germ, save_germ, tube_fibration


@pytest.fixture
def cube_file(tmp_path):
    p = tmp_path / "cube.json"
    save_germ(power_germ(3), p)
    return str(p)


@pytest.fixture
def brieskorn_file(tmp_path):
    p = tmp_path / "b23.json"
    save_germ(brieskorn_germ(2, 3), p)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_plan_sphere_quarter_arc(capsys):
    code, out, _ = run_cli(
        capsys, "plan-sphere", "--dim", "1", "--start", "1,0", "--goal", "0,1", "--samples", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["region"] == 1
    assert doc["samples"][0][1:] == [1.0, 0.0]
    assert doc["samples"][-1][1:] == [0.0, 1.0]
    r = math.sqrt(0.5)
    assert abs(doc["samples"][1][1] - r) < 1e-12 and abs(doc["samples"][1][2] - r) < 1e-12


def test_plan_sphere_identical_endpoints_region1(capsys):
    code, out, _ = run_cli(
        capsys, "plan-sphere", "--dim", "2", "--start", "0,1,0", "--goal", "0,1,0"
    )
    doc = json.loads(out)
    assert code == 0 and doc["region"] == 1
    for row in doc["samples"]:
        assert np.allclose(row[1:], [0.0, 1.0, 0.0], atol=1e-12)


def test_plan_sphere_pole_antipodes_region3(capsys):
    code, out, _ = run_cli(
        capsys, "plan-sphere", "--dim", "2", "--start", "0,0,1", "--goal=0,0,-1"
    )
    assert code == 0
    assert json.loads(out)["region"] == 3


def test_plan_sphere_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "plan-sphere", "--dim", "1", "--start", "1,0", "--goal", "0,1",
        "--samples", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 4


def test_plan_sphere_rejects_bad_vector(capsys):
    with pytest.raises(SystemExit) as err:
        main(["plan-sphere", "--dim", "1", "--start", "1,0", "--goal", "0.5,0"])
    assert err.value.code == 2


def test_plan_tube_power_germ_quarter_turn(capsys, tmp_path):
    germ = power_germ(2)
    p = tmp_path / "sq.json"
    save_germ(germ, p)
    r = math.sqrt(germ.eta)
    code, out, _ = run_cli(
        capsys,
        "plan-tube", "--germ", str(p), "--start", f"{r!r},0.0",
        "--angle", str(math.pi / 2), "--samples", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["endpoint_residual"] < 1e-12
    end = doc["samples"][-1][1:]
    want = r * np.exp(1j * math.pi / 4)
    assert abs(complex(*end) - want) < 1e-12


def test_plan_tube_exact_residuals(capsys, brieskorn_file, rng):
    germ = brieskorn_germ(2, 3)
    wm = tube_fibration(germ)
    start = wm.sample(rng, 1)[0]
    text = ",".join(repr(float(v)) for v in start)
    for angle in (0.5, 2.0, -1.2):
        code, out, _ = run_cli(
            capsys,
            "plan-tube", "--germ", brieskorn_file, f"--start={text}", "--angle", str(angle),
        )
        assert code == 0
        assert json.loads(out)["endpoint_residual"] < 1e-10


def test_plan_tube_rejects_off_tube_start(capsys, cube_file):
    with pytest.raises(SystemExit) as err:
        main(["plan-tube", "--germ", cube_file, "--start", "0.4,0.0", "--angle", "1.0"])
    assert err.value.code == 2


def test_plan_arm_success(capsys):
    code, out, _ = run_cli(
        capsys, "plan-arm", "--start", "0.3,0.4", "--goal", "0.6,0.0,0.8"
    )
    assert code == 0
    assert json.loads(out)["endpoint_residual"] < 1e-6


def test_plan_arm_lift_failure_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "plan-arm", "--start", "0.3,0.4", "--goal", "0.0003,0.0004,0.9999999"
    )
    assert code == 3
    doc = json.loads(err)
    assert doc["kind"] == "lift_failure"
    assert 0.0 <= doc["t_star"] <= 1.0


def _raiser(ex):
    def raise_it(*args, **kwargs):
        raise ex

    return raise_it


def test_monodromy_too_few_points_kind(capsys, monkeypatch, cube_file):
    monkeypatch.setattr(cli, "sample_fiber", _raiser(TooFewPoints("only 3 seeds converged")))
    code, out, err = run_cli(capsys, "monodromy", "--germ", cube_file)
    assert code == 1 and out == ""
    assert json.loads(err)["kind"] == "too_few_points"


def test_verify_probe_lift_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "continuity_probe", _raiser(LiftFailure(0.5)))
    code, out, err = run_cli(
        capsys, "verify", "--rr-arm", "--queries", "2", "--probe-region", "1"
    )
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["kind"] == "lift_failure" and doc["t_star"] == 0.5


def test_verify_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--sphere", "2", "--queries", "300", "--seed", "42", "--deep", "16"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["coverage_failures"] == 0
    assert "wall_time" not in doc


def test_verify_byte_identical_given_seed(capsys):
    args = ["verify", "--germ", None, "--queries", "200", "--seed", "9", "--sphere", "1"]
    args = [a for a in args if a is not None]
    args.remove("--germ")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_requires_one_target(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--sphere", "2", "--hopf"])
    assert err.value.code == 2


def test_fiber_command(capsys, cube_file):
    code, out, _ = run_cli(capsys, "fiber", "--germ", cube_file, "--seeds", "600")
    assert code == 0
    doc = json.loads(out)
    assert doc["components"] == 3
    assert doc["converged"] >= 100


def test_monodromy_command(capsys, cube_file):
    code, out, _ = run_cli(capsys, "monodromy", "--germ", cube_file, "--seeds", "600")
    assert code == 0
    doc = json.loads(out)
    assert doc["cycle_lengths"] == [3]


def test_certify_tc_command(capsys, brieskorn_file):
    code, out, _ = run_cli(capsys, "certify", "--germ", brieskorn_file)
    doc = json.loads(out)
    assert code == 0
    assert doc["quantity"] == "TC" and doc["exact"] == 2


def test_certify_sec_command(capsys, cube_file):
    code, out, _ = run_cli(
        capsys, "certify", "--germ", cube_file, "--quantity", "sec", "--seeds", "600"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["exact"] == 2 and doc["section_exists"] == "no"


def test_certify_hopf(capsys):
    code, out, _ = run_cli(capsys, "certify", "--hopf")
    doc = json.loads(out)
    assert code == 0
    assert (doc["lower"], doc["upper"], doc["exact"]) == (2, 3, None)


def test_certify_hopf_sec_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["certify", "--hopf", "--quantity", "sec"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["plan-sphere", "--dim", "1", "--start", "1,0", "--goal", "0,1", "--seed", "3"],
        ["fiber", "--germ", "germs/cube.json", "--margin", "0.05"],
        ["certify", "--hopf", "--seed", "3"],
        ["certify", "--germ", "germs/cube.json", "--quantity", "tc", "--seeds", "600"],
    ],
    ids=["plan-sphere-seed", "fiber-margin", "certify-hopf-seed", "certify-tc-seeds"],
)
def test_flag_the_command_never_reads_is_rejected(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["plan-sphere", "--dim", "3", "--start", "0,0,0,1", "--goal", "0,1,0,0",
          "--margin", "0.2"], "bad_margin"),
        (["verify", "--sphere", "2", "--margin", "0.15"], "bad_margin"),
        (["fiber", "--germ", "{missing}"], "bad_germ_file"),
        (["fiber", "--germ", "{not_json}"], "bad_germ_file"),
        (["fiber", "--germ", "{empty}"], "bad_germ_file"),
        (["fiber", "--germ", "{bad_degree}"], "bad_germ_file"),
        (["fiber", "--germ", "{big_eta}"], "bad_germ_file"),
        (["fiber", "--germ", "{a_list}"], "bad_germ_file"),
    ],
    ids=["plan-sphere-margin", "verify-margin", "missing-germ", "germ-not-json",
         "germ-empty", "germ-bad-degree", "germ-big-eta", "germ-a-list"],
)
def test_bad_input_is_a_one_line_error(capsys, tmp_path, argv, kind):
    files = {k: tmp_path / f"{k}.json" for k in
             ("missing", "not_json", "empty", "bad_degree", "big_eta", "a_list")}
    files["not_json"].write_text("{not json")
    files["empty"].write_text("{}")
    files["a_list"].write_text("[]")
    bad_degree = brieskorn_germ(2, 3).to_dict()
    bad_degree["monomials"][0]["exponents"] = [3, 0]  # graded degree 9, not 6
    files["bad_degree"].write_text(json.dumps(bad_degree))
    files["big_eta"].write_text(json.dumps(brieskorn_germ(2, 3).to_dict() | {"eta": 5.0}))
    code, out, err = run_cli(capsys, *[a.format(**files) for a in argv])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["kind"] == kind


@pytest.mark.parametrize(
    "argv",
    [
        ["plan-sphere", "--dim", "2", "--start", "nan,0,1", "--goal", "0,0,1"],
        ["plan-arm", "--start", "nan,0.4", "--goal", "0.6,0,0.8"],
        ["plan-arm", "--start", "0.3,0.4", "--goal", "nan,0,1"],
        ["plan-tube", "--germ", "germs/cube.json", "--start", "inf,0", "--angle", "0"],
    ],
    ids=["plan-sphere-nan-start", "plan-arm-nan-start", "plan-arm-nan-goal", "plan-tube-inf"],
)
def test_non_finite_vector_flag_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "not finite" in capsys.readouterr().err


def test_link_command(capsys, brieskorn_file):
    code, out, _ = run_cli(capsys, "link", "--germ", brieskorn_file, "--seeds", "200")
    doc = json.loads(out)
    assert code == 0
    assert doc["evidence"] == "yes"


def test_out_file(tmp_path, capsys, cube_file):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "fiber", "--germ", cube_file, "--seeds", "600", "--out", str(dest)
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["components"] == 3


_PLAN_COMMANDS = {
    "plan-sphere": ["plan-sphere", "--dim", "2", "--start", "0,0,1", "--goal=0,0,-1"],
    "plan-tube": ["plan-tube", "--germ", "germs/brieskorn_2_3.json", "--angle", "1.5708"],
    "plan-arm": ["plan-arm", "--start", "0.3,0.4", "--goal", "0.6,0.0,0.8"],
}


def _plan_argv(command):
    argv = list(_PLAN_COMMANDS[command])
    if command == "plan-tube":
        wm = tube_fibration(brieskorn_germ(2, 3))
        start = wm.sample(np.random.default_rng(0), 1)[0]
        argv.append("--start=" + ",".join(repr(float(v)) for v in start))
    return argv


@pytest.mark.parametrize("command", _PLAN_COMMANDS)
def test_negative_sample_count_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([*_plan_argv(command), "--samples", "-3"])
    assert err.value.code == 2
    out, text = capsys.readouterr()
    assert out == ""
    assert text.splitlines()[-1].endswith("argument --samples: must be 0 or more, got -3")


@pytest.mark.parametrize("command", _PLAN_COMMANDS)
def test_zero_samples_prints_an_empty_sample_list(capsys, command):
    code, out, _ = run_cli(capsys, *_plan_argv(command), "--samples", "0")
    assert code == 0
    assert json.loads(out)["samples"] == []


_CUBE_START = ["--germ", "germs/cube.json", "--start", "0.23,0.0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["plan-tube", *_CUBE_START, "--angle", "inf"],
         "argument --angle: must be finite, got inf"),
        (["plan-tube", *_CUBE_START, "--angle", "nan"],
         "argument --angle: must be finite, got nan"),
        (["monodromy", "--germ", "germs/cube.json", "--angle", "inf"],
         "argument --angle: must be finite, got inf"),
        (["fiber", "--germ", "germs/cube.json", "--angle=-inf"],
         "argument --angle: must be finite, got -inf"),
        (["verify", "--sphere", "2", "--queries", "-5"],
         "argument --queries: must be 0 or more, got -5"),
        (["verify", "--sphere", "2", "--queries", "5", "--deep", "-3"],
         "argument --deep: must be 0 or more, got -3"),
        (["verify", "--sphere", "2", "--knots", "0"], "argument --knots: must be 1 or more, got 0"),
        (["verify", "--sphere", "0"], "argument --sphere: must be 1 or more, got 0"),
        (["plan-sphere", "--dim", "0", "--start", "1", "--goal", "1"],
         "argument --dim: must be 1 or more, got 0"),
        (["fiber", "--germ", "germs/cube.json", "--seeds", "-4"],
         "argument --seeds: must be 100 or more, got -4"),
        (["link", "--germ", "germs/cube.json", "--seeds", "5"],
         "argument --seeds: must be 100 or more, got 5"),
        (["certify", "--germ", "germs/cube.json", "--quantity", "sec", "--seeds", "99"],
         "argument --seeds: must be 100 or more, got 99"),
        (["verify", "--sphere", "2", "--queries", "10", "--probe-region", "7"],
         "argument --probe-region: must lie in 1..3 for this planner, got 7"),
        (["verify", "--sphere", "3", "--queries", "10", "--probe-region", "-1"],
         "argument --probe-region: must lie in 1..2 for this planner, got -1"),
        (["verify", "--hopf", "--queries", "10", "--probe-region", "0"],
         "argument --probe-region: must lie in 1..3 for this planner, got 0"),
    ],
    ids=[
        "plan-tube-angle-inf", "plan-tube-angle-nan", "monodromy-angle-inf", "fiber-angle-inf",
        "verify-negative-queries", "verify-negative-deep", "verify-zero-knots", "verify-sphere-0", "plan-sphere-dim-0",
        "fiber-negative-seeds", "link-few-seeds", "certify-few-seeds", "verify-probe-region-7",
        "verify-probe-region-minus-1", "verify-probe-region-0",
    ],
)
def test_bad_number_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    out, text = capsys.readouterr()
    assert out == ""
    assert text.splitlines()[-1].endswith(f"error: {message}")
