"""The workload process: loads the generated inputs, runs and checks items.

Run by ``run.py`` in a fresh interpreter with a pinned environment:

    python3 benchmark/work.py setup DIR
    python3 benchmark/work.py run DIR SECONDS TRACE

``setup`` times importing lindyn from ``src/`` and loading and validating
every input document, and prints that time with the reference kernel's
time right after it.  ``run`` does the same set-up,
runs every item of ``DIR/items.json`` once, then times the items that took
under a second again in up to two more passes, none expected to end after
SECONDS, and writes ``DIR/result.json``.  With TRACE=1 it runs one untraced
pass and then one traced pass, and writes the spans to ``DIR/spans.json``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

perf = time.perf_counter

# CLI defaults of `lindyn analyze` / `lindyn orbit`
PRECISION = 128
TOL = 1e-9
GAP_THRESHOLD = 0.01
MAX_EXPONENT = 256

HERE = os.path.dirname(os.path.abspath(__file__))

LIGHT_S = 1.0       # items faster than this in the first pass are timed again
LIGHT_PASSES = 2    # at most this many extra passes over them
SETUP_REF_RUNS = 8  # reference-kernel runs after each set-up sample


class CheckFailed(Exception):
    """The program returned an answer that contradicts a known fact."""


class WrongVerdict(Exception):
    """A sampled orbit verdict on an undocumented input contradicts the
    exact density verdict.  The program documents sampled verdicts as
    heuristics, so this is a failed item but not a broken guarantee."""


class Inconclusive(Exception):
    """The program returned its explicit INCONCLUSIVE orbit verdict."""


def import_lindyn():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import lindyn
    import lindyn.cli
    import lindyn.density
    import lindyn.dynamics
    import lindyn.groups
    import lindyn.invariants
    import lindyn.linalg
    import lindyn.numeric
    import lindyn.report
    import lindyn.scalars
    import lindyn.spectral

    if not os.path.abspath(lindyn.__file__).startswith(src + os.sep):
        raise SystemExit(f"lindyn imported from {lindyn.__file__}, not from {src}")
    return lindyn


def load_all(L, dirname: str, names) -> dict:
    """load_input and validate every document, as `lindyn analyze` starts."""
    ctx = L.numeric.NumericContext(precision=PRECISION, eps=TOL)
    out = {}
    for name in names:
        G, points = L.cli.load_input(os.path.join(dirname, "docs", name + ".json"))
        G.validate(ctx)
        out[name] = (G, points)
    return out


# ---------------------------------------------------------------------------
# items: every call goes through a module attribute, so the traced run's
# wrappers see it


def contexts(L):
    ctx = L.numeric.NumericContext(precision=PRECISION, eps=TOL)
    cfg = L.dynamics.ClosureConfig(gap_threshold=GAP_THRESHOLD, dedup_eps=min(TOL, 1e-6))
    return ctx, cfg


def run_structure(L, item, G, points) -> dict:
    """validate -> residual -> family -> tree -> membership -> report."""
    ctx, cfg = contexts(L)
    n = G.dimension
    G.validate(ctx)
    residual = G.commutator_residual(ctx)
    family = L.invariants.invariant_family(G, ctx)
    tree = L.invariants.invariant_tree(G, ctx)
    sections = []
    for name, coords in points.items():
        vec = L.linalg.as_vector(coords)
        mem = L.invariants.membership(family, vec, ctx)
        sections.append({"name": name, "point": [str(c) for c in vec],
                         "membership": L.report.membership_dict(mem)})
    report = L.report.analysis_report(G, family, tree.root, tree.depth, ctx, cfg,
                                      0, MAX_EXPONENT, sections, residual)
    text = L.report.dumps_report(report)

    if family.count > n:
        raise CheckFailed(f"{family.count} invariant subspaces for n={n}")
    for s in family.subspaces:
        if n - s.dim not in (1, 2):
            raise CheckFailed(f"invariant subspace of codimension {n - s.dim}")
        if s.exact and s.invariance_residual != 0.0:
            raise CheckFailed(f"exact subspace with residual {s.invariance_residual}")
    expected = item["depth"]
    if tree.depth > n or (expected is not None and tree.depth != expected):
        raise CheckFailed(f"tree depth {tree.depth}, expected {expected} (n={n})")
    if not json.loads(text):
        raise CheckFailed("empty report")
    return {"depth": tree.depth, "family": family.count}


def increment_span(L, G, u):
    """Integer span of the per-generator increments of a last-row shear."""
    n = G.dimension
    incs = []
    for g in G.generators:
        inc = L.scalars.Scalar.zero()
        for j in range(n - 1):
            inc = inc + g[n - 1, j] * u[j]
        incs.append(inc)
    if G.field == "complex":
        return L.density.IntegerSpan.of([(c.real_part(), c.imag_part()) for c in incs], 2)
    return L.density.IntegerSpan.of([(c,) for c in incs], 1)


def expected_verdict(L, item, G, u) -> tuple[str, int, type]:
    """(kind, hull dimension, exception raised on a mismatch)."""
    if item["kind"] is not None:
        return item["kind"], item["hull_dim"], CheckFailed
    span = increment_span(L, G, u)
    exact = L.density.dense_in(span)
    if exact.kind == L.density.CLOSED:
        return L.dynamics.DISCRETE, span.dim, WrongVerdict
    if exact.kind == L.density.DENSE:
        return L.dynamics.DENSE_IN_AFFINE, span.dim, WrongVerdict
    raise CheckFailed(f"no sampled-verdict expectation for exact verdict {exact.kind}")


def check_verdict(L, verdict, kind: str, hull_dim: int, mismatch=CheckFailed) -> None:
    if verdict.kind == L.dynamics.INCONCLUSIVE:
        raise Inconclusive(f"expected {kind}({hull_dim}): {verdict.notes}")
    if (verdict.kind, verdict.hull_dim) != (kind, hull_dim):
        raise mismatch(f"verdict {verdict.kind}({verdict.hull_dim}), expected {kind}({hull_dim})")


def run_orbit(L, item, G, points) -> dict:
    """What `lindyn orbit` does for one point."""
    ctx, cfg = contexts(L)
    G.validate(ctx)
    u = L.linalg.as_vector(points[item["point"]])
    family = L.invariants.invariant_family(G, ctx)
    L.invariants.membership(family, u, ctx)
    kind, hull_dim, mismatch = expected_verdict(L, item, G, u)
    verdict, K = L.dynamics.classify_stabilized(G, u, cfg, max_exponent=MAX_EXPONENT)
    check_verdict(L, verdict, kind, hull_dim, mismatch)
    return {"K": K}


def run_dense(L, item, G, points) -> dict:
    """A documented dense claim at its documented box, gated by dense_in."""
    _, cfg = contexts(L)
    u = L.linalg.as_vector(points[item["point"]])
    exact = L.density.dense_in(increment_span(L, G, u))
    if exact.kind != L.density.DENSE:
        raise CheckFailed(f"precondition: exact verdict {exact.kind}, not DENSE")
    cloud = L.dynamics.enumerate_orbit(G, u, item["K"], cfg)
    verdict = L.dynamics.classify_closure(cloud, cfg)
    check_verdict(L, verdict, item["kind"], item["hull_dim"])
    if verdict.hull_dim == 1 and not (verdict.gap is not None and verdict.gap < GAP_THRESHOLD + 1e-12):
        raise CheckFailed(f"window gap {verdict.gap} above {GAP_THRESHOLD}")
    return {"tuples": int(cloud.total_tuples)}


RUNNERS = {"structure": run_structure, "orbit": run_orbit, "dense": run_dense}


def reference_kernel() -> float:
    """Seconds for a fixed piece of exact rational arithmetic.

    It is the kind of work the structure workloads spend their time on, and
    it is run between items, so that run.py can tell how fast the shared
    machine was during the run.
    """
    start = perf()
    x, counts = Fraction(1, 3), {}
    for k in range(1, 2500):
        x = x * Fraction(k % 7 + 1, k % 5 + 2) + Fraction(1, k)
        x = Fraction(x.numerator % 1000003, x.denominator % 999983 + 1)
        counts[k % 97] = counts.get(k % 97, 0) + 1
    return perf() - start


def run_pass(L, items, loaded, tracer=None) -> dict:
    records = []
    ref = [reference_kernel()]
    for item in items:
        G, points = loaded[item["doc"]]
        if tracer is not None:
            tracer.item = item["id"]
        rec = {"id": item["id"], "error": None, "wrong": False}
        start = perf()
        try:
            rec["info"] = RUNNERS[item["run"]](L, item, G, points)
        except Exception as exc:  # every failure is tallied, and the pass goes on
            rec["error"] = type(exc).__name__
            rec["detail"] = str(exc)[:300]
            rec["wrong"] = isinstance(exc, CheckFailed)
        rec["s"] = perf() - start
        records.append(rec)
        ref.append(reference_kernel())
    return {"wall_s": sum(rec["s"] for rec in records), "items": records, "ref": ref}


# ---------------------------------------------------------------------------
# traced run


def install_tracer(L):
    sys.path.insert(0, HERE)
    from tracer import Tracer

    t = Tracer()

    def blocks(counts, out):
        for b in out:
            counts["spectral.blocks_exact" if b.exact else "spectral.blocks_numeric"] += 1

    def tree_nodes(counts, out):
        stack = [out.root]
        while stack:
            node = stack.pop()
            counts["invariants.tree_nodes"] += 1
            stack.extend(node.children)

    def cloud(counts, out):
        counts["dynamics.tuples"] += out.total_tuples
        counts["dynamics.points_stored"] += out.count
        counts["dynamics.streamed_calls"] += bool(out.subsampled)

    def stabilized(counts, out):
        counts["dynamics.K_final"] += out[1]

    def report_bytes(counts, out):
        counts["report.bytes"] += len(out.encode())

    t.wrap_function(L.cli, "load_input", "cli.load_input")
    t.wrap_method(L.groups.GeneratorSet, "validate", "groups.validate")
    t.count_method(L.scalars.Scalar, "inverse", "scalars.inverse.calls")
    t.count_method(L.scalars.Scalar, "__mul__", "scalars.mul.calls")
    for fn in ("rank", "kernel", "restrict"):
        t.wrap_function(L.linalg, fn, f"linalg.{fn}")
    t.wrap_method(L.linalg.Matrix, "det", "linalg.det")
    for fn in ("neig", "nkernel", "nsolve_cols", "nrank"):
        t.wrap_function(L.numeric, fn, f"numeric.{fn}")
    t.wrap_function(L.spectral, "eigenvalues", "spectral.eigenvalues")
    t.wrap_function(L.spectral, "simultaneous_refinement", "spectral.simultaneous_refinement",
                    blocks)
    t.wrap_function(L.spectral, "pair_conjugates", "spectral.pair_conjugates")
    t.wrap_function(L.spectral, "triangularize", "spectral.triangularize")
    t.wrap_function(L.invariants, "invariant_family", "invariants.invariant_family")
    t.wrap_function(L.invariants, "invariant_tree", "invariants.invariant_tree", tree_nodes)
    t.wrap_function(L.invariants, "membership", "invariants.membership")
    t.wrap_function(L.report, "analysis_report", "report.analysis_report")
    t.wrap_function(L.report, "dumps_report", "report.dumps_report", report_bytes)
    t.wrap_function(L.dynamics, "enumerate_orbit", "dynamics.enumerate_orbit", cloud)
    t.wrap_function(L.dynamics, "classify_closure", "dynamics.classify_closure")
    t.wrap_function(L.dynamics, "classify_stabilized", "dynamics.classify_stabilized", stabilized)
    t.wrap_function(L.density, "dense_in", "density.dense_in")
    return t


def main(argv) -> int:
    mode, dirname = argv[0], argv[1]
    with open(os.path.join(dirname, "items.json")) as fh:
        spec = json.load(fh)
    t0 = perf()
    L = import_lindyn()
    loaded = load_all(L, dirname, spec["docs"])
    setup_s = perf() - t0
    # the machine's speed right after set-up, to scale set-up time by
    setup_ref = sum(reference_kernel() for _ in range(SETUP_REF_RUNS)) / SETUP_REF_RUNS
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "ref_s": setup_ref}))
        return 0

    seconds, trace = float(argv[2]), argv[3] == "1"
    items = spec["items"]
    start = perf()
    first = run_pass(L, items, loaded)
    out = {"setup_s": setup_s, "setup_ref_s": setup_ref, "passes": [first]}
    # Short items are timed again in later passes: one sample of a
    # sub-second item is at the mercy of whatever shares the core.
    light = [it for it, rec in zip(items, first["items"]) if rec["s"] < LIGHT_S]
    estimate = sum(rec["s"] for rec in first["items"] if rec["s"] < LIGHT_S)
    for _ in range(LIGHT_PASSES):
        if trace or not light or perf() - start + estimate > seconds:
            break
        out["passes"].append(run_pass(L, light, loaded))
        estimate = out["passes"][-1]["wall_s"]
    if trace:
        tracer = install_tracer(L)
        load_all(L, dirname, spec["docs"])
        traced = run_pass(L, items, loaded, tracer)
        tracer.uninstall()
        out["traced"] = traced
        out["layers"] = tracer.layer_totals()
        out["counts"] = dict(tracer.counts)
        tracer.write(os.path.join(dirname, "spans.json"))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(os.path.join(dirname, "result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
