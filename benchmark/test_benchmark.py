"""Tests of the benchmark itself: generators, checks, tracer, failure exit.

    python3 -m pytest benchmark/test_benchmark.py

Run from the root of the checkout; they import lindyn from ``src/`` and use
only small inputs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import work  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def L():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return work.import_lindyn()
    finally:
        os.chdir(cwd)


def loaded(L, tmp_path, d):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(d))
    return L.cli.load_input(str(path))


# -- generators -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generators_deterministic_per_seed(workload):
    make = gen.WORKLOADS[workload]
    assert json.dumps(make(3)) == json.dumps(make(3))
    assert json.dumps(make(3)) != json.dumps(make(4))


def test_fixture_documents_match_fixture_files(L, tmp_path):
    for name, d in gen.fixture_docs().items():
        G, points = loaded(L, tmp_path, d)
        ref, ref_points = L.cli.load_input(os.path.join(ROOT, "fixtures", f"{name}.json"))
        assert [g.entries() for g in G.generators] == [g.entries() for g in ref.generators]
        assert {k: L.linalg.as_vector(v) for k, v in points.items()} == \
            {k: L.linalg.as_vector(v) for k, v in ref_points.items()}


def test_random_families_match_test_suite_helper():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    conftest = pytest.importorskip("conftest")
    rng = random.Random(gen.DEFECT_SEED)
    for fam in gen.defect_families():
        G = conftest.random_commuting_family(rng, rng.randint(3, 6))
        assert [[[str(e) for e in row] for row in g.entries()] for g in G.generators] == \
            [gen.str_rows(m) for m in fam]


def test_jordan_family_commutes_and_parses(L, tmp_path):
    rng = random.Random(0)
    for field in ("real", "complex"):
        gens, _ = gen.jordan_family(rng, 5, field)
        G, _ = loaded(L, tmp_path, gen.doc(field, gens))
        G.validate(L.numeric.NumericContext(precision=128))


# -- checks -----------------------------------------------------------------


def orbit_item(point, kind, hull_dim):
    return {"id": "t", "doc": "shear3", "run": "orbit", "point": point,
            "kind": kind, "hull_dim": hull_dim}


def test_check_passes_documented_verdict(L, tmp_path):
    G, points = loaded(L, tmp_path, gen.fixture_docs()["shear3"])
    work.run_orbit(L, orbit_item("closed", "DISCRETE", 1), G, points)


def test_check_flags_wrong_expected_verdict(L, tmp_path):
    G, points = loaded(L, tmp_path, gen.fixture_docs()["shear3"])
    with pytest.raises(work.CheckFailed):
        work.run_orbit(L, orbit_item("closed", "DENSE_IN_AFFINE", 1), G, points)
    with pytest.raises(work.CheckFailed):
        work.run_orbit(L, orbit_item("closed", "DISCRETE", 2), G, points)


def test_check_flags_wrong_depth(L, tmp_path):
    G, points = loaded(L, tmp_path, gen.fixture_docs()["shear3"])
    item = {"id": "t", "doc": "shear3", "run": "structure", "depth": 3}
    assert work.run_structure(L, item, G, points)["depth"] == 3
    with pytest.raises(work.CheckFailed):
        work.run_structure(L, dict(item, depth=2), G, points)


def test_exception_is_tallied_and_pass_continues(L, tmp_path):
    G, points = loaded(L, tmp_path, gen.fixture_docs()["shear3"])
    items = [orbit_item("missing", "DISCRETE", 1), orbit_item("hyperplane", "DISCRETE", 1)]
    out = work.run_pass(L, items, {"shear3": (G, points)})
    assert [r["error"] for r in out["items"]] == ["KeyError", None]
    assert not any(r["wrong"] for r in out["items"])


# -- tracer -----------------------------------------------------------------


def test_tracer_reaches_recursion_and_uninstalls(L, tmp_path):
    G, points = loaded(L, tmp_path, gen.fixture_docs()["shear4"])
    original = L.invariants.invariant_family
    tracer = work.install_tracer(L)
    try:
        tree = L.invariants.invariant_tree(G, L.numeric.NumericContext(precision=128))
    finally:
        tracer.uninstall()
    assert L.invariants.invariant_family is original
    totals = tracer.layer_totals()
    # one family per non-leaf node: the recursion in _tree_node is wrapped
    assert totals["invariants.invariant_family"]["calls"] == tree.depth
    assert tracer.counts["invariants.tree_nodes"] == tree.depth + 1
    for row in totals.values():
        assert row["self_s"] <= row["s"] + 1e-9


def test_self_time_excludes_children():
    t = Tracer()
    t.spans = [[0, None, "a", None, 0.0, 10.0, None],
               [1, 0, "b", None, 1.0, 4.0, None],
               [2, 1, "a", None, 2.0, 3.0, None]]
    totals = t.layer_totals()
    assert totals["a"] == {"calls": 2, "s": 10.0, "self_s": 8.0}
    assert totals["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}


# -- the command ------------------------------------------------------------


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "orbit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
