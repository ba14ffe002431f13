"""Command-line interface: analyze, orbit, verify-examples.

Exit codes: 0 success, 2 non-commuting generators, 3 unresolved numeric
ambiguity of a 53-bit split or an ill-conditioned numeric family, 1 any other
input or processing error (a spectrum not certified above 53 bits among them).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from ._numpy import np

from .dynamics import FIRST_BOX, ClosureConfig, classify_stabilized, enumerate_orbit
from .errors import ClusterAmbiguity, LindynError, NotAbelian
from .groups import COMPLEX, GeneratorSet
from .invariants import invariant_family, invariant_tree, membership
from .linalg import Matrix, as_vector
from .numeric import NumericContext
from .report import (
    analysis_report,
    dumps_report,
    json_key,
    membership_dict,
    verdict_dict,
)
from .verify import CLAIMS, verify_fixture

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_ABELIAN = 2
EXIT_AMBIGUOUS = 3

# the checkout's fixtures/, found from this file so that verify-examples does
# not depend on the working directory (a source checkout or editable install)
FIXTURES = Path(__file__).resolve().parents[2] / "fixtures"


def load_input(path: str) -> tuple[GeneratorSet, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except RecursionError:
        raise LindynError("input is nested too deeply to read as JSON") from None
    if not isinstance(doc, dict):
        raise LindynError("input is not a JSON object")
    fieldname = doc["field"]
    n = _dimension(doc["dimension"])
    if not isinstance(doc["generators"], list):
        raise LindynError("generators must be a list")
    gens = []
    names = []
    for gi, entry in enumerate(doc["generators"]):
        if isinstance(entry, dict):
            names.append(entry.get("name", f"g{gi}"))
            if "rows" not in entry:
                raise LindynError(f"generator {names[-1]} has no rows")
            rows = entry["rows"]
        else:
            names.append(f"g{gi}")
            rows = entry
        if not isinstance(rows, list):
            raise LindynError(f"generator {names[-1]} is not a list of rows")
        for row in rows:
            _check_scalars(f"a row of generator {names[-1]}", row, "entries")
        gens.append(Matrix.from_rows(rows))
    keys: dict[str, object] = {}  # each name is written as a report key
    for name in names:
        try:
            first = keys.setdefault(json_key(name), name)
        except TypeError:
            raise LindynError(f"generator name {json.dumps(name)} is not a string, "
                              "a number, a boolean or null") from None
        if first is not name and first != name:  # equal names are GeneratorSet's duplicate
            raise LindynError(f"generator names {json.dumps(first)} and {json.dumps(name)} "
                              f"are both written as the key {json.dumps(json_key(name))}")
    G = GeneratorSet(fieldname, n, gens, names)
    points = doc.get("points", {})
    if isinstance(points, list):
        points = {f"p{i}": p for i, p in enumerate(points)}
    if not isinstance(points, dict):
        raise LindynError("points must be a list or an object")
    for name, coords in points.items():
        _check_point(f"point {name}", coords, n)
    return G, points


def _dimension(value) -> int:
    """A JSON integer (not a bool) or a decimal integer string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise LindynError(f"dimension {json.dumps(value)} is not an integer")


def _check_scalars(what: str, values, items: str) -> None:
    """A JSON list of scalar expressions: strings or finite numbers (not bools)."""
    if not isinstance(values, list):
        raise LindynError(f"{what} is not a list of {items}")
    for v in values:
        if (
            not isinstance(v, (str, int, float))
            or isinstance(v, bool)
            or (isinstance(v, float) and not math.isfinite(v))
        ):
            raise LindynError(f"{what} has {json.dumps(v)} among its {items}")


def _check_point(what: str, coords, n: int) -> None:
    _check_scalars(what, coords, "coordinates")
    if len(coords) != n:
        raise LindynError(f"{what} has {len(coords)} coordinates, expected {n}")


def _contexts(args) -> tuple[NumericContext, ClosureConfig]:
    if args.precision < 53:
        raise LindynError(f"precision {args.precision} is below 53 bits")
    # verify-examples has no --max-exponent
    max_exponent = getattr(args, "max_exponent", FIRST_BOX)
    if max_exponent < FIRST_BOX:
        raise LindynError(f"max exponent {max_exponent} is below the first box {FIRST_BOX}")
    for flag, value in (("--tol", args.tol), ("--gap-threshold", args.gap_threshold)):
        if not 0 < value < math.inf:
            problem = "finite" if value > 0 else "positive"
            raise LindynError(f"{flag} must be {problem}, got {value:g}")
    ctx = NumericContext(precision=args.precision, eps=args.tol)
    cfg = ClosureConfig(
        gap_threshold=args.gap_threshold,
        dedup_eps=min(args.tol, 1e-6),
    )
    return ctx, cfg


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=int, default=128,
                   help="precision in bits of the characteristic-polynomial roots "
                   "proposed as exact eigenvalues, at least 53 (default 128); "
                   "numeric splitting runs only at 53")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="relative tolerance, positive and finite (default 1e-9)")
    p.add_argument("--gap-threshold", type=float, default=0.01,
                   help="max window gap for a dense verdict, positive and finite (default 0.01)")


def cmd_analyze(args) -> int:
    G, points = load_input(args.input)
    ctx, cfg = _contexts(args)
    G.validate(ctx)
    residual = G.commutator_residual(ctx)
    tree = invariant_tree(G, ctx)
    family = tree.family
    point_sections = []
    for name, coords in points.items():
        vec = as_vector(coords)
        section = {
            "name": name,
            "point": [str(c) for c in vec],
            "membership": membership_dict(membership(family, vec, ctx)),
        }
        if args.classify_points:
            verdict, K = classify_stabilized(G, vec, cfg, max_exponent=args.max_exponent)
            section["closure"] = verdict_dict(verdict, K)
        point_sections.append(section)
    report = analysis_report(
        G, family, tree.root, tree.depth, ctx, cfg,
        0, args.max_exponent, point_sections, residual,
    )
    text = dumps_report(report)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_orbit(args) -> int:
    G, _ = load_input(args.input)
    ctx, cfg = _contexts(args)
    G.validate(ctx)
    coords = args.point.split(",")
    if not all(c.strip() for c in coords):
        raise LindynError(f"point {args.point!r} has an empty coordinate")
    _check_point("point", coords, G.dimension)
    vec = as_vector(coords)
    family = invariant_family(G, ctx)
    mem = membership(family, vec, ctx)
    verdict, K = classify_stabilized(G, vec, cfg, max_exponent=args.max_exponent)
    out = {
        "point": [str(c) for c in vec],
        "membership": membership_dict(mem),
        "closure": verdict_dict(verdict, K),
    }
    if args.dump_points:
        cloud = enumerate_orbit(G, vec, K, cfg)
        _dump_points_csv(cloud.points, G.field, args.dump_points)
        out["dump"] = {"path": args.dump_points, "points": int(cloud.count)}
    sys.stdout.write(json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _dump_points_csv(points: np.ndarray, fieldname: str, path: str) -> None:
    """The realified points as CSV: columns re0,im0,re1,... over C, x0,x1,... over R."""
    if fieldname == COMPLEX:
        header = ",".join(f"re{j},im{j}" for j in range(points.shape[1] // 2))
    else:
        header = ",".join(f"x{j}" for j in range(points.shape[1]))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, points, fmt="%.17g", delimiter=",")


def cmd_verify_examples(args) -> int:
    ctx, cfg = _contexts(args)
    if args.dense_exponent is not None and args.dense_exponent < 1:
        raise LindynError(f"dense exponent {args.dense_exponent} is below 1")
    results = []
    for name in CLAIMS:
        G, points = load_input(str(FIXTURES / f"{name}.json"))
        results.extend(verify_fixture(name, G, points, ctx, cfg, args.dense_exponent))
    failures = 0
    for r in results:
        sys.stdout.write(r.line() + "\n")
        failures += 0 if r.ok else 1
    sys.stdout.write(
        f"{len(results) - failures}/{len(results)} claims passed\n"
    )
    return EXIT_OK if failures == 0 else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindyn",
        description="Invariant-structure and orbit-closure analysis for "
        "abelian matrix groups over exact radical arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="compute invariant subspaces, basis changes and the invariant tree")
    pa.add_argument("input", help="JSON input file (field, dimension, generators, optional points)")
    pa.add_argument("--output", help="write the report here instead of stdout")
    pa.add_argument("--max-exponent", type=int, default=256,
                    help="orbit exponent bound for --classify-points (default 256)")
    pa.add_argument("--classify-points", action="store_true",
                    help="also classify orbit closures of the input points")
    _add_common(pa)
    pa.set_defaults(func=cmd_analyze)

    po = sub.add_parser("orbit", help="classify the orbit closure through one point")
    po.add_argument("input", help="JSON input file")
    po.add_argument("--point", required=True,
                    help="comma-separated scalar expressions, e.g. '1,sqrt(2),0'")
    po.add_argument("--max-exponent", type=int, default=256,
                    help="largest exponent box (default 256)")
    po.add_argument("--dump-points", help="write the sampled cloud to this CSV file")
    _add_common(po)
    po.set_defaults(func=cmd_orbit)

    pv = sub.add_parser("verify-examples", help="run every claim of the fixtures in fixtures/")
    pv.add_argument("--dense-exponent", type=int, default=None,
                    help="override the exponent bound of the dense-orbit claims")
    _add_common(pv)
    pv.set_defaults(func=cmd_verify_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotAbelian as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_ABELIAN
    except ClusterAmbiguity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (LindynError, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
