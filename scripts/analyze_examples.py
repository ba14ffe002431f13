#!/usr/bin/env python3
"""Run the full analysis pipeline on every built-in fixture.

Writes one analysis report per fixture plus orbit verdicts for its declared
points, then prints a summary table.  Output lands in ./out by default.
"""

import argparse
import json
import time
from pathlib import Path

from lindyn.dynamics import ClosureConfig, classify_stabilized
from lindyn.fixtures import all_fixtures
from lindyn.invariants import invariant_tree, membership
from lindyn.numeric import NumericContext
from lindyn.report import analysis_report, dumps_report, membership_dict, verdict_dict


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    parser.add_argument("--max-exponent", type=int, default=256)
    parser.add_argument("--precision", type=int, default=128)
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = NumericContext(precision=args.precision)
    cfg = ClosureConfig()

    rows = []
    for f in all_fixtures():
        t0 = time.time()
        tree = invariant_tree(f.group, ctx)
        fam = tree.family
        sections = []
        for name, point in f.points.items():
            verdict, K = classify_stabilized(
                f.group, point, cfg, max_exponent=args.max_exponent
            )
            sections.append(
                {
                    "name": name,
                    "point": [str(c) for c in point],
                    "membership": membership_dict(membership(fam, point, ctx)),
                    "closure": verdict_dict(verdict, K),
                }
            )
        report = analysis_report(
            f.group, fam, tree.root, tree.depth, ctx, cfg, 0,
            args.max_exponent, sections, f.group.commutator_residual(ctx),
        )
        path = outdir / f"{f.name}.json"
        path.write_text(dumps_report(report))
        rows.append(
            (f.name, fam.count, [s.dim for s in fam.subspaces], tree.depth,
             {s["name"]: s["closure"]["kind"] for s in sections},
             time.time() - t0)
        )
        print(f"wrote {path}")

    print()
    print(f"{'fixture':<10} {'r':>2} {'dims':<12} {'depth':>5}  verdicts")
    for name, r, dims, depth, verdicts, dt in rows:
        vs = ", ".join(f"{k}:{v}" for k, v in verdicts.items())
        print(f"{name:<10} {r:>2} {str(dims):<12} {depth:>5}  {vs}  ({dt:.1f}s)")


if __name__ == "__main__":
    main()
