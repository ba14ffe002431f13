#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload structure-radical,structure-rational --seeds 1-10 --out pairs.json

``--workload`` names one workload or a comma list; the pairs of each run in
turn.  Pair k runs seed k in both checkouts, ``python3 benchmark/run.py --workload W
--seed k --seconds S --trace 0`` from the root of each, S the ``run_seconds``
of the change's ``BENCHMARK.json``; odd seeds run the parent first and even
seeds the change first, so that neither side always meets the machine in the
same state.  Each run's last line of output is its
JSON result.  For every end-to-end metric of the change's ``BENCHMARK.json``
the script prints each side's median [q1, q3] (quartiles by
``statistics.quantiles``) and in how many pairs the change was strictly
better, in the direction that file gives, and then each checkout's count of
``src/lindyn`` lines, as ``cat src/lindyn/*.py | wc -l`` prints it.
``--out`` saves the runs and that summary as JSON, both keyed by workload,
and the line counts keyed by side; ``--summarize`` prints the summary of a
saved file again, and also reads files without line counts and the
single-workload layout (``{"workload": W, "runs": [...]}``) that earlier
versions wrote.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def parse_result(returncode: int, stdout: str) -> dict:
    """One run: its exit code and, when its last line is the JSON result, the
    counts and the value of each metric."""
    run = {"exit": returncode}
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if isinstance(result, dict) and "metrics" in result:
        run["attempted"] = result.get("attempted")
        run["failed"] = result.get("failed")
        run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return run


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    return parse_result(proc.returncode, proc.stdout)


def run_pairs(parent: str, change: str, workload: str, seeds: list[int],
              seconds: float) -> list[dict]:
    checkouts = {"parent": parent, "change": change}
    pairs = []
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(checkouts[side], workload, seed, seconds)
            print(f"seed {seed} {side}: exit {pair[side]['exit']}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def median_quartiles(values: list[float]) -> list[float]:
    """[median, q1, q3]; one value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [med, q1, q3]


def summarize(pairs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    """Per metric, over the pairs where both sides report it: each side's
    [median, q1, q3] and the count of pairs the change was strictly better."""
    out = {}
    for name, direction in better.items():
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if all(name in p[side].get("metrics", {}) for side in SIDES)]
        if not both:
            continue
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in both)
        out[name] = {
            "parent_median_q1_q3": median_quartiles([p for p, _ in both]),
            "change_median_q1_q3": median_quartiles([c for _, c in both]),
            "change_better_pairs": won,
            "pairs": len(both),
        }
    return out


def format_summary(workload: str, summary: dict[str, dict], units: dict[str, str]) -> list[str]:
    """One line per metric: parent median [q1, q3] -> change median [q1, q3] unit (won/pairs)."""
    def fmt(mq):
        return "{:.4g} [{:.4g}, {:.4g}]".format(*mq)

    lines = [workload]
    for name, s in summary.items():
        unit = units.get(name, "")
        lines.append(f"  {name}: {fmt(s['parent_median_q1_q3'])} -> "
                     f"{fmt(s['change_median_q1_q3'])} {unit} "
                     f"(change better in {s['change_better_pairs']}/{s['pairs']})")
    return lines


def line_count(checkout: str) -> int:
    """The newlines of the checkout's src/lindyn/*.py, as ``cat src/lindyn/*.py | wc -l`` counts them."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "lindyn", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' or a mix: '1-4,9'."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def benchmark_spec(checkout: str) -> tuple[float, dict[str, str], dict[str, str]]:
    """The run length of BENCHMARK.json, and the direction and unit of each of
    its end-to-end metrics."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    return (spec["run_seconds"], {m["name"]: m["better"] for m in metrics},
            {m["name"]: m["unit"] for m in metrics})


def saved_runs(saved: dict) -> dict[str, list[dict]]:
    """The pairs of a file written by --out, keyed by workload."""
    if "workload" in saved:  # the single-workload layout
        return {saved["workload"]: saved["runs"]}
    return saved["runs"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="root of the parent checkout")
    ap.add_argument("--change", default=".", help="root of the changed checkout (default .)")
    ap.add_argument("--workload", help="benchmark workload name, or a comma list of them")
    ap.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 1,3,5 (default 1-10)")
    ap.add_argument("--out", help="write the runs and the summary to this JSON file")
    ap.add_argument("--summarize", metavar="FILE", help="summarise a file written by --out")
    args = ap.parse_args(argv)
    seconds, better, units = benchmark_spec(args.change)
    if args.summarize:
        with open(args.summarize) as fh:
            saved = json.load(fh)
        runs, lines = saved_runs(saved), saved.get("lines")
    else:
        if not (args.parent and args.workload):
            ap.error("--parent and --workload are required unless --summarize is given")
        seeds = parse_seeds(args.seeds)
        runs = {workload: run_pairs(args.parent, args.change, workload, seeds, seconds)
                for workload in args.workload.split(",")}
        lines = {"parent": line_count(args.parent), "change": line_count(args.change)}
    summary = {workload: summarize(pairs, better) for workload, pairs in runs.items()}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": runs, "summary": summary, "lines": lines}, fh, indent=1)
    for workload, s in summary.items():
        print("\n".join(format_summary(workload, s, units)))
    if lines:
        print(f"src/lindyn lines: {lines['parent']} -> {lines['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
