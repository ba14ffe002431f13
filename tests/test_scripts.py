import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import lindyn_env

ROOT = Path(__file__).resolve().parent.parent

# stdout of the survey at these arguments, recorded before the spectral core
# was folded into one routine per job; the script drives random families
# through the 53-bit numeric path
SURVEY_STDOUT = """\
surveyed 4 families (seed 0)

subspace count by dimension (n, r): families
  (2, 1): 2
  (3, 2): 1
  (3, 3): 1

codimension mix: {1: 5, 2: 2}

tree depth by dimension (n, depth): families
  (2, 1): 1
  (2, 2): 1
  (3, 2): 1
  (3, 3): 1
"""


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=lindyn_env(), timeout=60,
    )


def test_random_family_survey_smoke():
    proc = run_script("random_family_survey.py", "--families", "4", "--max-dim", "4",
                      "--seed", "0")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SURVEY_STDOUT


# the same arguments at 128 bits, the CLI default, recorded while the
# characteristic polynomial's roots came from mpmath.eig and unchanged since
# they are refined on fixed-point integers: two families are refused by name
SURVEY_128_STDOUT = """\
surveyed 4 families (seed 0)
failed families: {'SpectrumNotCertified': 2}

subspace count by dimension (n, r): families
  (2, 1): 2

codimension mix: {1: 1, 2: 1}

tree depth by dimension (n, depth): families
  (2, 1): 1
  (2, 2): 1
"""


def test_random_family_survey_at_128_bits():
    proc = run_script("random_family_survey.py", "--families", "4", "--max-dim", "4",
                      "--seed", "0", "--precision", "128")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == SURVEY_128_STDOUT


def test_random_family_survey_outlives_a_failing_family():
    # at 128 bits these arguments draw families whose spectrum is not
    # certified exactly; the survey tallies them and goes on.  How many fail
    # is the spectral core's business, not pinned here.
    proc = run_script("random_family_survey.py", "--families", "30", "--max-dim", "6",
                      "--seed", "0", "--precision", "128")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert proc.stdout.startswith("surveyed 30 families")
    assert "failed families: {'SpectrumNotCertified': " in proc.stdout


def test_analyze_examples_smoke(tmp_path):
    proc = run_script("analyze_examples.py", "--out", str(tmp_path), "--max-exponent", "64")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    table = lines[lines.index("") + 2:]
    rows = [re.match(r"(\S+) +\d+ \[[\d, ]*\] +(\d+)  ", row) for row in table]
    depths = [(m[1], int(m[2])) for m in rows]
    assert depths == [("shear3", 3), ("shear4", 4), ("cshear5", 5), ("radical4", 4)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name, _ in depths
    )


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_script("bench_pairs")


def _result_line(wall_s, ok_frac):
    """The last line of a benchmark/run.py run, as it prints it."""
    metrics = {"setup_s": {"value": 0.15, "unit": "s"}, "wall_s": {"value": wall_s, "unit": "s"},
               "ok_frac": {"value": ok_frac, "unit": "frac"}}
    return json.dumps({"correct": True, "attempted": 12, "failed": 0, "metrics": metrics})


def _canned_pairs():
    # wall_s: parent 0.20, 0.19, 0.21, 0.18, change 0.16, 0.17, 0.22, 0.15, so
    # the change wins pairs 1, 2 and 4; the fifth pair's change run failed
    walls = [(0.20, 0.16), (0.19, 0.17), (0.21, 0.22), (0.18, 0.15), (0.20, None)]
    pairs = []
    for seed, (parent, change) in enumerate(walls, 1):
        pair = {"seed": seed}
        for side, wall in (("parent", parent), ("change", change)):
            if wall is None:
                pair[side] = bench_pairs.parse_result(1, "item a 0.1 ok\n")
            else:
                out = f"item a {wall} ok\nwall_s {wall} s\n{_result_line(wall, 1.0)}\n"
                pair[side] = bench_pairs.parse_result(0, out)
        pairs.append(pair)
    return pairs


def test_bench_pairs_parses_run_output():
    run = bench_pairs.parse_result(0, "item a 0.1 ok\n" + _result_line(0.2, 0.625) + "\n")
    assert run == {"exit": 0, "attempted": 12, "failed": 0,
                   "metrics": {"setup_s": 0.15, "wall_s": 0.2, "ok_frac": 0.625}}
    assert bench_pairs.parse_result(2, "") == {"exit": 2}
    assert bench_pairs.parse_result(1, "Traceback ...\nValueError: x\n") == {"exit": 1}


def test_bench_pairs_summary_of_canned_runs():
    summary = bench_pairs.summarize(_canned_pairs(), {"wall_s": "lower", "ok_frac": "higher",
                                                      "peak_rss_mb": "lower"})
    assert set(summary) == {"wall_s", "ok_frac"}  # no run reported peak_rss_mb
    wall = summary["wall_s"]
    assert wall["pairs"] == 4 and wall["change_better_pairs"] == 3
    # statistics.quantiles' default (exclusive) method on four values
    assert wall["parent_median_q1_q3"] == pytest.approx([0.195, 0.1825, 0.2075])
    assert wall["change_median_q1_q3"] == pytest.approx([0.165, 0.1525, 0.2075])
    assert summary["ok_frac"]["change_better_pairs"] == 0  # equal is not better
    lines = bench_pairs.format_summary("structure-rational", summary, {"wall_s": "s"})
    assert lines[1] == ("  wall_s: 0.195 [0.1825, 0.2075] -> 0.165 [0.1525, 0.2075] s "
                        "(change better in 3/4)")
    assert bench_pairs.median_quartiles([0.3]) == [0.3, 0.3, 0.3]


def test_bench_pairs_alternates_sides(monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((seed, checkout))
        return {"exit": 0, "metrics": {"wall_s": float(seed)}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    pairs = bench_pairs.run_pairs("P", "C", "orbit", [1, 2, 3, 7], 40)
    assert calls == [(1, "P"), (1, "C"), (2, "C"), (2, "P"), (3, "P"), (3, "C"),
                     (7, "P"), (7, "C")]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent", "parent"]


def test_bench_pairs_runs_for_the_benchmarks_seconds(monkeypatch, capsys):
    seen = []

    def fake_run(checkout, workload, seed, seconds):
        seen.append(seconds)
        return {"exit": 0, "metrics": {"wall_s": 0.1}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    assert bench_pairs.main(["--parent", "P", "--change", str(ROOT), "--workload", "orbit",
                             "--seeds", "1-2"]) == 0
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert seen == [run_seconds] * 4
    assert "change better in 0/2" in capsys.readouterr().out


def test_bench_pairs_summarizes_a_saved_file(tmp_path):
    saved = tmp_path / "pairs.json"
    saved.write_text(json.dumps({"workload": "structure-rational", "runs": _canned_pairs()}))
    proc = run_script("bench_pairs.py", "--change", str(ROOT), "--summarize", str(saved))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "structure-rational",
        "  setup_s: 0.15 [0.15, 0.15] -> 0.15 [0.15, 0.15] s (change better in 0/4)",
        "  wall_s: 0.195 [0.1825, 0.2075] -> 0.165 [0.1525, 0.2075] s (change better in 3/4)",
        "  ok_frac: 1 [1, 1] -> 1 [1, 1] frac (change better in 0/4)",
    ]


def test_bench_pairs_records_line_counts(monkeypatch, tmp_path, capsys):
    # each checkout's src/lindyn/*.py newlines, as cat | wc -l counts them:
    # a last line without a newline is not counted
    for side, texts in (("P", ["a\nb\n", "c\n"]), ("C", ["a\n", "b\nc"])):
        package = tmp_path / side / "src" / "lindyn"
        package.mkdir(parents=True)
        for k, text in enumerate(texts):
            (package / f"m{k}.py").write_text(text)
        (package / "notes.txt").write_text("x\n" * 9)
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda checkout, workload, seed, seconds: {"exit": 0, "metrics": {}})
    monkeypatch.setattr(bench_pairs, "benchmark_spec", lambda checkout: (40, {}, {}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "P"), "--change", str(tmp_path / "C"),
                             "--workload", "orbit", "--seeds", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["orbit", "src/lindyn lines: 3 -> 2"]
    assert json.loads(out.read_text())["lines"] == {"parent": 3, "change": 2}
    assert bench_pairs.main(["--summarize", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == printed


def test_bench_pairs_keys_runs_by_workload(monkeypatch, tmp_path, capsys):
    def fake_run(checkout, workload, seed, seconds):
        wall = {"structure-radical": 0.2, "orbit": 1.0}[workload] * (1 if checkout == "P" else 0.9)
        return {"exit": 0, "metrics": {"wall_s": wall + seed / 1000}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", "P", "--change", str(ROOT), "--seeds", "1-3",
                             "--workload", "structure-radical,orbit", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "structure-radical" and "orbit" in printed
    assert ("  wall_s: 1.002 [1.001, 1.003] -> 0.902 [0.901, 0.903] s "
            "(change better in 3/3)") in printed
    saved = json.loads(out.read_text())
    assert set(saved) == {"runs", "summary", "lines"}
    assert list(saved["runs"]) == list(saved["summary"]) == ["structure-radical", "orbit"]
    assert [p["seed"] for p in saved["runs"]["orbit"]] == [1, 2, 3]
    assert saved["summary"]["structure-radical"]["wall_s"]["change_better_pairs"] == 3
    # the saved file summarises to the same lines
    assert bench_pairs.main(["--change", str(ROOT), "--summarize", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == printed


same_bytes = _load_script("same_bytes")


def test_same_bytes_on_one_fixture(tmp_path):
    fixture = tmp_path / "shear3.json"
    fixture.write_text((ROOT / "fixtures" / "shear3.json").read_text())
    cases = [case for case in same_bytes.build_cases([str(fixture)], [])
             if case[0] == "analyze"]
    cases_path = tmp_path / "cases.json"
    cases_path.write_text(json.dumps(cases))
    # the checkout against itself: no case differs
    here = same_bytes.run_checkout(str(ROOT), str(cases_path))
    assert [r["exit"] for r in here] == [0] * 4
    again = same_bytes.run_checkout(str(ROOT), str(cases_path))
    assert same_bytes.differences(cases, here, again) == []
    # a checkout whose lindyn prints one byte and fails the 53-bit runs,
    # reached through a symlink
    fake = tmp_path / "fake" / "src" / "lindyn"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text(
        "import sys\n"
        "def main(argv):\n"
        "    sys.stdout.write('x')\n"
        "    return 1 if '53' in argv else 0\n"
    )
    (tmp_path / "link").symlink_to(tmp_path / "fake")
    other = same_bytes.run_checkout(str(tmp_path / "link"), str(cases_path))
    assert same_bytes.differences(cases, other, here) == [
        "DIFFERS analyze shear3.json --precision 53: exit, stdout",
        "DIFFERS analyze shear3.json --precision 128: stdout",
        "DIFFERS analyze shear3.json --classify-points --precision 53: exit, stdout",
        "DIFFERS analyze shear3.json --classify-points --precision 128: stdout",
    ]


def test_same_bytes_compares_dumped_points(tmp_path):
    fixture = tmp_path / "shear3.json"
    fixture.write_text((ROOT / "fixtures" / "shear3.json").read_text())
    orbit = [case for case in same_bytes.build_cases([str(fixture)], []) if case[0] == "orbit"]
    dump = str(tmp_path / "points.csv")
    assert [case[3] for case in orbit] == ["1,1,0", "1,sqrt(2),0", "0,1,0"]
    assert all(case[4:] == ["--dump-points", dump] for case in orbit)
    assert same_bytes.case_id(orbit[0]) == "orbit shear3.json --point 1,1,0 --dump-points points.csv"
    cases_path = tmp_path / "cases.json"
    cases_path.write_text(json.dumps(orbit[:1]))
    here = same_bytes.run_checkout(str(ROOT), str(cases_path))
    # the CSV is recorded and deleted, so the next case cannot read it
    assert here[0]["exit"] == 0 and here[0]["dump"].startswith("x0,x1,x2\n")
    assert not os.path.exists(dump)
    other = [dict(here[0], dump=here[0]["dump"] + "0,0,0\n")]
    assert same_bytes.differences(orbit[:1], here, other) == [
        f"DIFFERS {same_bytes.case_id(orbit[0])}: dump"]


def test_same_bytes_shows_the_first_differing_line(monkeypatch, capsys):
    # canned results of two checkouts: a report whose residual line changed,
    # an error line and a dump that only one side writes, a changed line
    # longer than the printed width, and a case whose exit code alone differs
    report = '{\n  "commutativity": {\n    "max_residual": "%s"\n  },\n  "x": 1\n}\n'
    width = same_bytes.WIDTH
    same = {"exit": 0, "stdout": "ok\n", "stderr": "", "dump": None}
    pairs = [
        (dict(same, stdout=report % "1.13686837722e-13"), dict(same, stdout=report % "0")),
        (same, dict(same, exit=1, stderr="error: no\n", dump="x0,x1\n1,0\n")),
        (dict(same, stdout="head\n" + "a" * 200 + "\n"),
         dict(same, stdout="head\n" + "b" + "a" * 199 + "\n")),
        (same, dict(same, exit=1)),
    ]
    want = [
        ["""    stdout line 3: parent '    "max_residual": "1.13686837722e-13"\\n'""",
         """    stdout line 3: change '    "max_residual": "0"\\n'"""],
        ["    stderr line 1: parent <none>",
         "    stderr line 1: change 'error: no\\n'",
         "    dump line 1: parent <none>",
         "    dump line 1: change 'x0,x1\\n'"],
        [f"    stdout line 2: parent {'a' * width!r}...",
         f"    stdout line 2: change {'b' + 'a' * (width - 1)!r}..."],
        [],
    ]
    assert [same_bytes.first_differences(a, b) for a, b in pairs] == want

    # main prints each DIFFERS line followed by its first differing lines;
    # the canned results take the place of cases 0, 5, 6 and the last one
    def run_checkout(checkout, cases_path):
        with open(cases_path) as fh:
            results = [same] * len(json.load(fh))
        for index, pair in zip((0, 5, 6, -1), pairs):
            results[index] = pair[checkout != "parent"]
        return results

    monkeypatch.setattr(same_bytes, "run_checkout", run_checkout)
    assert same_bytes.main(["--parent", "parent", "--change", str(ROOT)]) == 1
    out = capsys.readouterr().out.splitlines()
    differs = [line for line in out if line.startswith("DIFFERS")]
    assert differs[-1] == "DIFFERS verify-examples: exit"
    assert differs[0].endswith("--precision 53: stdout")
    # the residual pair's stdouts are JSON objects, so their differing
    # top-level key follows its first differing line
    want[0].append("    stdout keys: commutativity")
    detail = [line for line in out if not line.startswith("DIFFERS")][:-1]
    assert detail == [line for lines in want for line in lines]
    assert [out.index(line) for line in differs] == [0, 4, 9, 12]
    assert out[-1].endswith(", 4 differ")


def test_same_bytes_names_the_differing_report_keys(monkeypatch, capsys):
    # canned reports of two checkouts: one whose tree section changed, one
    # with a key on each side only, a reordered object that differs in bytes
    # alone, and stdouts that are not both JSON objects
    parent = {"config": {"eps": "1e-09"}, "invariant_tree": {"depth": 2, "nodes": []},
              "points": []}
    change = dict(parent, invariant_tree={"depth": 2, "units": [], "node_count": 4})
    result = {"exit": 0, "stderr": "", "dump": None}

    def dumped(doc):
        return dict(result, stdout=json.dumps(doc, indent=2) + "\n")

    pairs = [
        (dumped(parent), dumped(change)),
        (dumped({"a": 1, "b": 2}), dumped({"a": 1, "c": 2})),
        (dumped({"a": 1, "b": 2}), dumped({"b": 2, "a": 1})),
        (dumped([1]), dumped([2])),
        (dumped(parent), dict(result, stdout="error\n")),
        (dumped(parent), dumped(parent)),
    ]
    assert [same_bytes.differing_keys(a, b) for a, b in pairs] == [
        ["    stdout keys: invariant_tree"],
        ["    stdout keys: b, c"],
        ["    stdout keys: <none>"],
        [], [], [],
    ]

    def run_checkout(checkout, cases_path):
        with open(cases_path) as fh:
            results = [pairs[-1][0]] * len(json.load(fh))
        results[0] = pairs[0][checkout != "parent"]
        return results

    monkeypatch.setattr(same_bytes, "run_checkout", run_checkout)
    assert same_bytes.main(["--parent", "parent", "--change", str(ROOT)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("DIFFERS ") and out[0].endswith(": stdout")
    assert out[1:] == same_bytes.first_differences(*pairs[0]) + [
        "    stdout keys: invariant_tree", out[-1]]
    assert out[-1].endswith(", 1 differ")
