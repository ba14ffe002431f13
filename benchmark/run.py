"""lindyn benchmark: one workload, one seed, one line of JSON.

    python3 benchmark/run.py --workload orbit --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; lindyn is imported from ``src/``.
The script generates the workload's input documents from the seed, times
set-up in fresh interpreters, runs the workload process (``work.py``) with
its BLAS thread count pinned, checks every item, and prints the metrics.  The
last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced pass with
``--trace 1``.  See ``benchmark/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUP_PROBES = 4          # fresh interpreters timed for set-up, besides the run itself
TIME_LIMIT = 170          # seconds for all processes of one run together

# One BLAS thread: the machine has 2 shared cores, and OpenBLAS would start
# one thread per core by default.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}

# Times are scaled to a nominal machine speed.  On the shared cores the speed
# of the same work drifts by 20-40% within minutes.  A fixed arithmetic
# kernel timed next to the work drifts with it: over ten runs, scaling took
# the spread of structure-rational's wall_s from 22% to 10%, and between two
# sets of orbit runs half an hour apart it cut the change of the median wall
# time from 38% to 12%.
REF_NOMINAL_S = 0.015     # reference_kernel() on the unloaded machine

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_max_s": "s", "ok_frac": "frac",
                    "peak_rss_mb": "MB"}

FAIL_TYPES = ("NoCommonEigenvector", "ZeroDivisionError", "ClusterAmbiguity",
              "InvarianceViolation", "NotInvariant", "UnmatchedConjugate", "CheckFailed",
              "WrongVerdict", "Inconclusive")


def write_inputs(workload: str, seed: int, dirname: str) -> list[dict]:
    docs, items = gen.WORKLOADS[workload](seed)
    if os.path.isdir(dirname):
        shutil.rmtree(dirname)
    os.makedirs(os.path.join(dirname, "docs"))
    for name, d in docs.items():
        with open(os.path.join(dirname, "docs", name + ".json"), "w") as fh:
            json.dump(d, fh, indent=1)
    with open(os.path.join(dirname, "items.json"), "w") as fh:
        json.dump({"docs": sorted(docs), "items": items}, fh, indent=1)
    return items


DEADLINE = time.monotonic() + TIME_LIMIT


def work(args: list[str]) -> subprocess.CompletedProcess:
    """Run work.py to completion; on the deadline it is killed and waited for."""
    env = dict(os.environ, **PINNED_ENV)
    return subprocess.run([sys.executable, os.path.join(HERE, "work.py")] + args,
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE - time.monotonic()))


class ProbeFailed(Exception):
    pass


def probe_setup(dirname: str, count: int, samples: list[float]) -> None:
    for _ in range(count):
        probe = work(["setup", dirname])
        if probe.returncode != 0:
            raise ProbeFailed(f"set-up probe failed:\n{probe.stderr}")
        sample = json.loads(probe.stdout.splitlines()[-1])
        samples.append(sample["setup_s"] * REF_NOMINAL_S / sample["ref_s"])


def fail(msg: str) -> int:
    print(f"benchmark error: {msg}", file=sys.stderr)
    return 1


def item_medians(passes: list[dict]) -> dict[str, float]:
    by_id: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["items"]:
            by_id.setdefault(rec["id"], []).append(rec["s"])
    return {k: statistics.median(v) for k, v in by_id.items()}


def failed_items(records: list[dict]) -> set[str]:
    """Items that failed in any of their runs."""
    return {rec["id"] for rec in records if rec["error"] is not None}


def reference_s(result: dict) -> float:
    """Mean time of the reference kernel over the run's untraced passes.

    The machine switches between a fast and a slow state many times a run;
    the mean, not the median, follows the share of time spent slow.
    """
    return statistics.mean(r for p in result["passes"] for r in p["ref"])


def end_to_end(result: dict, setup_samples: list[float], n_items: int,
               n_failed: int, scale: float) -> dict[str, float]:
    per_item = item_medians(result["passes"])
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": scale * sum(per_item.values()),
        "item_max_s": scale * max(per_item.values()),
        "ok_frac": 1.0 - n_failed / n_items,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, scale: float) -> dict[str, tuple[float, str]]:
    layers, counts, traced = result["layers"], result["counts"], result["traced"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def lay(name):
        return layers.get(name, zero)

    out: dict[str, tuple[float, str]] = {
        "cli.load_input.s": (lay("cli.load_input")["s"], "s"),
        "groups.validate.s": (lay("groups.validate")["s"], "s"),
        "scalars.inverse.calls": (counts.get("scalars.inverse.calls", 0), "count"),
        "scalars.mul.calls": (counts.get("scalars.mul.calls", 0), "count"),
    }
    for mod, fns in (("linalg", ("rank", "kernel", "restrict", "det")),
                     ("numeric", ("neig", "nkernel", "nsolve_cols", "nrank")),
                     ("spectral", ("eigenvalues", "simultaneous_refinement",
                                   "pair_conjugates", "triangularize")),
                     ("invariants", ("invariant_family",)),
                     ("dynamics", ("enumerate_orbit", "classify_closure"))):
        for fn in fns:
            row = lay(f"{mod}.{fn}")
            out[f"{mod}.{fn}.calls"] = (row["calls"], "count")
            out[f"{mod}.{fn}.self_s"] = (row["self_s"], "s")
    exact = counts.get("spectral.blocks_exact", 0)
    numeric = counts.get("spectral.blocks_numeric", 0)
    out["spectral.blocks_exact"] = (exact, "count")
    out["spectral.blocks_numeric"] = (numeric, "count")
    out["spectral.exact_block_frac"] = (exact / (exact + numeric) if exact + numeric else 0.0, "frac")
    out["invariants.invariant_tree.s"] = (lay("invariants.invariant_tree")["s"], "s")
    out["invariants.tree_nodes"] = (counts.get("invariants.tree_nodes", 0), "count")
    out["invariants.membership.s"] = (lay("invariants.membership")["s"], "s")
    out["report.analysis_report.self_s"] = (lay("report.analysis_report")["self_s"], "s")
    out["report.dumps_report.self_s"] = (lay("report.dumps_report")["self_s"], "s")
    out["report.bytes"] = (counts.get("report.bytes", 0), "bytes")
    tuples = counts.get("dynamics.tuples", 0)
    stored = counts.get("dynamics.points_stored", 0)
    out["dynamics.tuples"] = (tuples, "count")
    out["dynamics.points_stored"] = (stored, "count")
    out["dynamics.stored_per_tuple"] = (stored / tuples if tuples else 0.0, "frac")
    out["dynamics.streamed_calls"] = (counts.get("dynamics.streamed_calls", 0), "count")
    out["dynamics.K_final"] = (counts.get("dynamics.K_final", 0), "count")
    out["density.dense_in.calls"] = (lay("density.dense_in")["calls"], "count")
    out["density.dense_in.s"] = (lay("density.dense_in")["s"], "s")
    errors = [rec["error"] for rec in traced["items"] if rec["error"]]
    for t in FAIL_TYPES:
        out[f"fail.{t}"] = (errors.count(t), "count")
    out["fail.other"] = (sum(e not in FAIL_TYPES for e in errors), "count")
    out["fail_frac"] = (len(errors) / len(traced["items"]), "frac")
    # the median item moves with the machine by up to 25% from run to run on
    # the orbit workload, too much for a gated metric, so it is reported here
    out["item_p50_s"] = (scale * statistics.median(item_medians(result["passes"]).values()), "s")
    out["ref.kernel_s"] = (reference_s(result), "s")
    # each pass's wall time at its own reference-kernel speed, so that drift
    # between the two passes does not read as overhead
    untraced = result["passes"][0]

    def speed_free(p):
        return p["wall_s"] / statistics.mean(p["ref"])

    out["trace.overhead_frac"] = (speed_free(traced) / speed_free(untraced) - 1.0, "frac")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure for this long; at least one full pass over the items")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "lindyn", "__init__.py")):
        return fail("run from the root of a lindyn checkout: src/lindyn is missing")
    dirname = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    items = write_inputs(args.workload, args.seed, dirname)

    # half the set-up probes before the workload process and half after, so
    # that the median spans the machine's state over the whole run
    setup_samples: list[float] = []
    try:
        probe_setup(dirname, SETUP_PROBES // 2, setup_samples)
        proc = work(["run", dirname, str(args.seconds), str(args.trace)])
        if proc.returncode != 0:
            return fail(f"workload process failed:\n{proc.stderr}")
        probe_setup(dirname, SETUP_PROBES - SETUP_PROBES // 2, setup_samples)
    except (subprocess.TimeoutExpired, ProbeFailed) as exc:
        return fail(str(exc))
    with open(os.path.join(dirname, "result.json")) as fh:
        result = json.load(fh)
    setup_samples.append(result["setup_s"] * REF_NOMINAL_S / result["setup_ref_s"])

    records = [rec for p in result["passes"] for rec in p["items"]]
    if args.trace:
        records += result["traced"]["items"]
    n_failed = len(failed_items(records))
    if [rec["id"] for rec in result["passes"][0]["items"]] != [it["id"] for it in items]:
        return fail("the first pass did not account for every item")
    for rec in result["passes"][0]["items"]:
        outcome = "ok" if rec["error"] is None else f"{rec['error']}: {rec.get('detail', '')}"
        print(f"item {rec['id']:<28} {rec['s']:9.4f} s  {outcome}")

    scale = REF_NOMINAL_S / reference_s(result)
    print(f"reference kernel {reference_s(result):.6f} s; item times scaled by {scale:.4f}")
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer(result, scale).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(result, setup_samples, len(items), n_failed,
                                          scale).items()}
    for k, m in metrics.items():
        print(f"metric {k:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not any(rec["wrong"] for rec in records),
        "attempted": len(items),
        "failed": n_failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
