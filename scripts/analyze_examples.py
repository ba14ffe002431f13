#!/usr/bin/env python3
"""Run `lindyn analyze --classify-points` on every fixture in fixtures/.

Writes one analysis report per fixture, with membership and orbit verdicts
for its declared points, then prints a summary table read from the reports.
Output lands in ./out by default.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from lindyn.cli import FIXTURES, main as lindyn
from lindyn.verify import CLAIMS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    parser.add_argument("--max-exponent", type=int, default=256)
    parser.add_argument("--precision", type=int, default=128)
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for name in CLAIMS:
        path = outdir / f"{name}.json"
        t0 = time.time()
        code = lindyn(["analyze", str(FIXTURES / f"{name}.json"), "--classify-points",
                       "--max-exponent", str(args.max_exponent),
                       "--precision", str(args.precision), "--output", str(path)])
        if code != 0:
            sys.exit(code)
        report = json.loads(path.read_text())
        fam = report["invariant_family"]
        rows.append(
            (name, fam["count"], [s["dimension"] for s in fam["subspaces"]],
             report["invariant_tree"]["depth"],
             {p["name"]: p["closure"]["kind"] for p in report["points"]},
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
