"""The repository's scripts and benchmark harness against the current package.

`perfbench/spans.py` patches tubeplan's public names by attribute; a rename
in the package breaks `perfbench/run.py --trace 1`, and the guard below makes
that a test failure. Both files are loaded read-only by path.
"""

import importlib.util
import pathlib

import numpy as np

from tubeplan import sphere_planner

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(relpath: str, name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_names_its_file_by_the_seed_list():
    name = _load("scripts/bench_pairs.py", "bench_pairs").output_name
    first = name("certify", "1111111aaa", "2222222bbb", list(range(1, 11)))
    assert first == "BENCH_certify_1111111-2222222_seeds1-10.json"
    other = name("certify", "1111111aaa", "2222222bbb", list(range(1001, 1006)))
    assert other == "BENCH_certify_1111111-2222222_seeds1001-1005.json"
    assert name("certify", "1111111", "2222222", [1, 2, 3, 9]).endswith("_seeds1-3,9.json")
    assert name("certify", "1111111", "2222222", [1, 3]).endswith("_seeds1,3.json")


def test_cli_snapshot_reports_numeric_drift():
    snap = _load("scripts/cli_snapshot.py", "cli_snapshot")
    old = b'{"name": "hopf", "max": 2.29e-11, "rows": [1, 2.5], "passed": true}'
    new = b'{"name": "hopf", "max": 9.99e-11, "rows": [1, 2.0], "passed": true}'
    assert snap.number_drift(old, new) == 0.5
    assert snap.number_drift(old, old) == 0.0
    assert snap.number_drift(old, new.replace(b"hopf", b"arm")) is None
    assert snap.number_drift(old, new.replace(b"true", b"false")) is None
    assert snap.number_drift(old, new.replace(b"2.0]", b"2.0, 3]")) is None
    assert snap.number_drift(old, b'{"rows": 1}') is None
    assert snap.number_drift(b"plain text", b"plain text") is None
    assert snap.number_drift(b"1", b"true") is None
    # a CSV table: a header of names, then rows of numbers
    old = b"t,x1,x2\n0.0,0.3,0.4\n0.5,0.25,1e-3\n"
    new = b"t,x1,x2\n0.0,0.3,0.4\n0.5,0.5,1e-3\n"
    assert snap.number_drift(old, new) == 0.25
    assert snap.number_drift(old, old) == 0.0
    assert snap.number_drift(old, new.replace(b"x2", b"y2")) is None
    assert snap.number_drift(old, new + b"1.0,0.1,0.2\n") is None
    assert snap.number_drift(old, new.replace(b"0.5,0.5", b"0.5")) is None
    assert snap.number_drift(old, new.replace(b"1e-3", b"nope")) is None
    assert snap.number_drift(old, b'{"t": [0.0, 0.5]}') is None
    assert snap.number_drift(b"t,x1\n", b"t,x1\n") is None
    assert snap.number_drift(b"", b"") is None


def test_span_tracer_installs_plans_and_uninstalls():
    spans = _load("perfbench/spans.py", "spans")
    plan = sphere_planner.SpherePlanner.plan
    tracer = spans.Tracer()
    tracer.install()
    try:
        planner = sphere_planner.build_planner(2)  # after install: regions carry the wrapped rules
        idx, path = planner.plan(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    finally:
        tracer.uninstall()
    assert sphere_planner.SpherePlanner.plan is plan
    assert tracer.counts["plans"] == 1
    assert tracer.counts[f"region_hits.{idx}"] == 1
    assert tracer.spans() > 0
    assert np.allclose(path.at(1.0), [1.0, 0.0, 0.0])
