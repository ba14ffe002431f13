#!/usr/bin/env python3
"""Survey invariant structure over random commuting families.

Samples invertible polynomial families in a random integer matrix, runs the
decomposition, and tabulates subspace counts, codimension mix and tree depths.
Useful for eyeballing how the structure bounds behave away from the built-in
fixtures.  ``--precision`` sets the bits of the NumericContext the families
run under.  Every exact spectrum is proposed in the same order at every
precision, the roots of the characteristic polynomial refined at that
precision; what is not certified exactly is split numerically at the
library default, 53, while above 53 bits (128 is the CLI default) such a
family fails with SpectrumNotCertified.
"""

import argparse
import random
from collections import Counter

from lindyn.errors import LindynError
from lindyn.groups import GeneratorSet
from lindyn.invariants import invariant_tree
from lindyn.linalg import Matrix
from lindyn.numeric import NumericContext


def random_family(rng: random.Random, n: int) -> GeneratorSet:
    while True:
        R = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        gens = []
        ok = True
        for _ in range(2):
            for _attempt in range(8):
                c = [rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2)]
                M = Matrix.identity(n).scale(c[0])
                P = R
                for coeff in c[1:]:
                    if coeff:
                        M = M + P.scale(coeff)
                    P = P * R
                if not M.det().is_zero():
                    gens.append(M)
                    break
            else:
                ok = False
                break
        if ok:
            return GeneratorSet("real", n, gens)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--families", type=int, default=50)
    parser.add_argument("--max-dim", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--precision", type=int, default=53)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    ctx = NumericContext(precision=args.precision)
    counts = Counter()
    codims = Counter()
    depths = Counter()
    failed = Counter()
    for i in range(args.families):
        n = rng.randint(2, args.max_dim)
        G = random_family(rng, n)
        try:
            tree = invariant_tree(G, ctx)
        except LindynError as exc:  # a family the numeric path cannot decompose
            failed[type(exc).__name__] += 1
            continue
        fam = tree.family
        counts[(n, fam.count)] += 1
        for s in fam.subspaces:
            codims[n - s.dim] += 1
        depths[(n, tree.depth)] += 1

    print(f"surveyed {args.families} families (seed {args.seed})")
    if failed:
        print("failed families:", dict(sorted(failed.items())))
    print("\nsubspace count by dimension (n, r): families")
    for key in sorted(counts):
        print(f"  {key}: {counts[key]}")
    print("\ncodimension mix:", dict(sorted(codims.items())))
    print("\ntree depth by dimension (n, depth): families")
    for key in sorted(depths):
        print(f"  {key}: {depths[key]}")


if __name__ == "__main__":
    main()
