#!/usr/bin/env python3
"""Check that two checkouts of lindyn print the same bytes.

    python3 scripts/same_bytes.py --parent ../parent --change .

The cases are ``lindyn analyze`` at ``--precision`` 53 and 128 on the four
fixtures and on every document that ``benchmark/gen.py`` (of the change,
imported read-only) makes for seeds 1 and 2, duplicates dropped;
``analyze --classify-points`` on the fixtures at both precisions;
``orbit --point P --dump-points F`` for each point of each fixture, at the
default ``--max-exponent``; and ``verify-examples``.  The documents are
written once to a temporary directory, so both sides read the same files,
and every dump goes to one path in it, so that stdout, which names the path,
compares equal.  Each checkout runs every case in one interpreter, through
``lindyn.cli.main`` with its own ``src`` first on the path, and records the
exit code, stdout, stderr and the dumped CSV, which it then deletes; an
exception that escapes ``main`` is recorded as exit ``"raised"`` with its
traceback as stderr.  The script prints one line per case that differs, each
followed by the first differing line of each differing stream (stdout,
stderr or dump) on both sides, and exits 1 when any case differs, 0 when none
does.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback

FIXTURE_NAMES = ("shear3", "shear4", "cshear5", "radical4")
PRECISIONS = ("53", "128")
SEEDS = (1, 2)
WIDTH = 160  # characters of each side's differing line that are printed


def load_gen(change: str):
    path = os.path.join(change, "benchmark", "gen.py")
    spec = importlib.util.spec_from_file_location("benchmark_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_documents(change: str, outdir: str) -> tuple[list[str], list[str]]:
    """Write the fixtures and the generated documents to ``outdir``, each
    distinct document once; returns the fixture paths and the generated paths."""
    fixtures, generated, seen = [], [], set()
    for name in FIXTURE_NAMES:
        with open(os.path.join(change, "fixtures", f"{name}.json")) as fh:
            text = fh.read()
        seen.add(json.dumps(json.loads(text), sort_keys=True))
        path = os.path.join(outdir, f"fixture-{name}.json")
        with open(path, "w") as fh:
            fh.write(text)
        fixtures.append(path)
    gen = load_gen(change)
    for seed in SEEDS:
        for workload, make in gen.WORKLOADS.items():
            docs, _ = make(seed)
            for name, doc in docs.items():
                key = json.dumps(doc, sort_keys=True)
                if key in seen:
                    continue
                seen.add(key)
                path = os.path.join(outdir, f"{workload}-s{seed}-{name}.json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                generated.append(path)
    return fixtures, generated


def build_cases(fixtures: list[str], generated: list[str]) -> list[list[str]]:
    """Each case as the argv of ``lindyn``."""
    cases = [["analyze", path, "--precision", p] for path in fixtures + generated
             for p in PRECISIONS]
    cases += [["analyze", path, "--classify-points", "--precision", p] for path in fixtures
              for p in PRECISIONS]
    for path in fixtures:
        with open(path) as fh:
            points = json.load(fh).get("points", {})
        dump = os.path.join(os.path.dirname(path), "points.csv")
        cases += [["orbit", path, "--point", ",".join(coords), "--dump-points", dump]
                  for coords in points.values()]
    cases.append(["verify-examples"])
    return cases


def case_id(argv: list[str]) -> str:
    # a point such as 1/3 is not a path
    return " ".join(os.path.basename(a) if os.path.isabs(a) else a for a in argv)


def run_cases(cases: list[list[str]]) -> list[dict]:
    """Run each case through ``lindyn.cli.main`` in this interpreter."""
    from lindyn.cli import main

    results = []
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception:  # a crash is an outcome to compare
                code = "raised"
                err.write(traceback.format_exc())
        dump = None
        if "--dump-points" in argv:
            path = argv[argv.index("--dump-points") + 1]
            if os.path.exists(path):
                with open(path) as fh:
                    dump = fh.read()
                os.remove(path)
        results.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                        "dump": dump})
    return results


def run_checkout(checkout: str, cases_path: str) -> list[dict]:
    """The results of the cases in ``cases_path``, run by one interpreter on
    ``checkout``'s ``src``."""
    src = os.path.join(os.path.abspath(checkout), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", cases_path],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(cases: list[list[str]], parent: list[dict], change: list[dict]) -> list[str]:
    """One line per case whose exit code, stdout, stderr or dumped CSV differs."""
    lines = []
    for argv, a, b in zip(cases, parent, change):
        parts = [k for k in ("exit", "stdout", "stderr", "dump") if a[k] != b[k]]
        if parts:
            lines.append(f"DIFFERS {case_id(argv)}: {', '.join(parts)}")
    return lines


def first_differences(a: dict, b: dict) -> list[str]:
    """For each of stdout, stderr and the dump that differs between two
    results, two indented lines: the number of the first line where they
    differ, and each side's text of it as a Python literal cut to ``WIDTH``
    characters; a side with no such line (or no dump at all) reads ``<none>``."""
    lines = []
    for stream in ("stdout", "stderr", "dump"):
        if a[stream] == b[stream]:
            continue
        a_lines = (a[stream] or "").splitlines(keepends=True)
        b_lines = (b[stream] or "").splitlines(keepends=True)
        k = 0
        while k < min(len(a_lines), len(b_lines)) and a_lines[k] == b_lines[k]:
            k += 1
        for side, side_lines in (("parent", a_lines), ("change", b_lines)):
            if k < len(side_lines):
                text = side_lines[k]
                shown = repr(text[:WIDTH]) + ("..." if len(text) > WIDTH else "")
            else:
                shown = "<none>"
            lines.append(f"    {stream} line {k + 1}: {side} {shown}")
    return lines


def worker(cases_path: str) -> int:
    import lindyn

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(lindyn.__file__).startswith(src + os.sep):
        print(f"lindyn imported from {lindyn.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(cases_path) as fh:
        cases = json.load(fh)
    results = run_cases(cases)
    sys.stdout.write(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="root of the parent checkout")
    ap.add_argument("--change", default=".", help="root of the changed checkout (default .)")
    ap.add_argument("--worker", metavar="CASES", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args.worker)
    if not args.parent:
        ap.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        fixtures, generated = write_documents(args.change, tmp)
        cases = build_cases(fixtures, generated)
        cases_path = os.path.join(tmp, "cases.json")
        with open(cases_path, "w") as fh:
            json.dump(cases, fh)
        parent = run_checkout(args.parent, cases_path)
        change = run_checkout(args.change, cases_path)
    diff = differences(cases, parent, change)
    # a result holds exactly the four fields differences compares
    differing = [(a, b) for a, b in zip(parent, change) if a != b]
    for line, (a, b) in zip(diff, differing):
        print(line)
        for detail in first_differences(a, b):
            print(detail)
    nonzero = sum(a["exit"] != 0 and b["exit"] != 0 for a, b in zip(parent, change))
    print(f"{len(cases)} cases, {nonzero} exit nonzero on both sides, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
