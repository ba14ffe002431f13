"""Analysis report assembly: a self-contained, deterministic JSON document.

Exact quantities are rendered as expression strings with a decimal value side
by side; every knob needed to re-run the analysis (precision, tolerances,
exponent bounds) is echoed into the report.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from . import __version__
from .dynamics import ClosureConfig, ClosureVerdict
from .groups import GeneratorSet
from .invariants import InvariantFamily, InvariantTreeNode, Membership
from .linalg import Matrix
from .numeric import CLUSTER_DELTA, NumericContext, as_complex
from .scalars import Scalar


def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return f"{re:.12g}"
    sign = "+" if im >= 0 else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}i"


def _scalar_approx(x: Scalar) -> complex:
    """``complex(x.evaluate(64))``, which a rational q = a/b with
    bitlen(b) <= bitlen(a) + 24 takes from the correctly rounded ``float(q)``.

    ``evaluate(64)`` rounds q to P = 80 + bitlen(a) bits and ``complex()``
    rounds that to 53, to nearest.  That differs from ``float(q)`` only if
    the P-bit value is a midpoint m between two doubles and m != q, so
    |q - m| <= 2^(e-P-1), half a P-bit ulp, where 2^(e-1) <= |q| < 2^e.  As
    m is a multiple of 2^(e-54), |q - m| >= 1/(b 2^(54-e)), which is larger
    whenever b < 2^(P-53), so the condition has 3 bits to spare (for e > 54,
    |q - m| >= 1/b and a >= b 2^(e-1) gives b < 2^(P+1-e)).  It also keeps
    q far from subnormals; past 2^1000, where ``float`` may overflow, q
    keeps ``evaluate``.
    """
    q = x.rational_value()
    if q is not None and -24 <= q.numerator.bit_length() - q.denominator.bit_length() <= 1000:
        return complex(float(q))
    return complex(x.evaluate(64))


def render_value(x) -> dict[str, Any]:
    """{"exact": expression-or-null, "approx": decimal string}."""
    if isinstance(x, Scalar):
        return {"exact": str(x), "approx": _fmt_complex(_scalar_approx(x))}
    return {"exact": None, "approx": _fmt_complex(as_complex(x))}


def render_matrix(M) -> list[list[dict[str, Any]]]:
    if isinstance(M, Matrix):
        return [[render_value(e) for e in row] for row in M.entries()]
    arr = np.asarray(M)
    return [[render_value(arr[i, j]) for j in range(arr.shape[1])] for i in range(arr.shape[0])]


def render_tree(root: InvariantTreeNode) -> list[dict[str, Any]]:
    """The distinct nodes breadth-first from the root; a child is named by its index."""
    order, index = [root], {root: 0}
    for node in order:
        for child in node.children:
            if child not in index:
                index[child] = len(order)
                order.append(child)
    return [{"dimension": node.dimension, "family_size": node.family_size,
             "children": [{"node": index[c], "case": case}
                          for c, case in zip(node.children, node.cases)]}
            for node in order]


def membership_dict(m: Membership) -> dict[str, Any]:
    return {"in_U": m.in_U, "containing": m.containing}


def verdict_dict(v: ClosureVerdict, K: int | None = None) -> dict[str, Any]:
    out = {
        "kind": v.kind,
        "hull_dim": v.hull_dim,
        "gap": None if v.gap is None else f"{v.gap:.12g}",
        "min_distance": None if v.min_distance is None else f"{v.min_distance:.12g}",
        "notes": list(v.notes),
    }
    if K is not None:
        out["exponent_bound"] = K
    return out


def analysis_report(
    G: GeneratorSet,
    family: InvariantFamily,
    tree_root: InvariantTreeNode,
    tree_depth: int,
    ctx: NumericContext,
    cfg: ClosureConfig,
    seed: int,  # unused: benchmark/work.py passes the arguments positionally
    max_exponent: int,
    point_sections: list[dict[str, Any]],
    commutator_residual: float,
) -> dict[str, Any]:
    blocks = [
        {
            "dimension": b.dim,
            "exact": b.exact,
            "eigenvalues": {
                name: render_value(b.eigen_numeric[gi] if b.eigen_exact.get(gi) is None
                                   else b.eigen_exact[gi])
                for gi, name in enumerate(G.names)
            },
            "conjugate_partner": b.conj_partner,
        }
        for b in family.blocks
    ]
    subspaces = [
        {
            "case": s.case,
            "dimension": s.dim,
            "block": s.block_index,
            "functionals": render_matrix(s.functionals),
            "basis": render_matrix(s.subspace.basis),
            "invariance_residual": f"{s.invariance_residual:.12g}",
        }
        for s in family.subspaces
    ]
    triangular_forms = [
        {
            "diagonal": {name: render_value(mu) for name, mu in zip(G.names, tf.diagonal)},
            "triangular": [render_matrix(T) for T in tf.triangular],
        }
        for tf in family.forms
    ]
    return {
        "tool": {"name": "lindyn", "version": __version__},
        "config": {
            "precision": ctx.precision,
            "eps": f"{ctx.eps:.12g}",
            "cluster_delta": f"{CLUSTER_DELTA:.12g}",
            "max_exponent": max_exponent,
            "window": f"{cfg.window:.12g}",
            "gap_threshold": f"{cfg.gap_threshold:.12g}",
        },
        "input": {
            "field": G.field,
            "dimension": G.dimension,
            "generator_names": list(G.names),
            "generators": [
                [[str(e) for e in row] for row in g.entries()]
                if isinstance(g, Matrix)
                else render_matrix(g)
                for g in G.generators
            ],
        },
        "commutativity": {
            "abelian": True,
            "max_residual": f"{commutator_residual:.12g}",
        },
        "spectral_blocks": blocks,
        "triangular_forms": triangular_forms,
        "invariant_family": {
            "count": family.count,
            "subspaces": subspaces,
            "complement": "U = complement of the union of the subspaces above",
        },
        "basis_change": {
            "Q": render_matrix(family.block_change),
            "P": render_matrix(family.triangular_change),
        },
        "invariant_tree": {"depth": tree_depth, "nodes": render_tree(tree_root)},
        "points": point_sections,
    }


def dumps_report(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"
