"""Analysis report assembly: a self-contained, deterministic JSON document.

Exact quantities are rendered as expression strings with a decimal value side
by side; every knob needed to re-run the analysis (precision, tolerances,
exponent bounds) is echoed into the report.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

from ._numpy import np

from . import __version__
from .dynamics import ClosureConfig, ClosureVerdict
from .groups import GeneratorSet
from .invariants import InvariantFamily, InvariantTreeNode, Membership
from .linalg import Matrix
from .numeric import CLUSTER_DELTA, NumericContext
from .scalars import Scalar


def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return f"{re:.12g}"
    sign = "+" if im >= 0 else "-"
    return f"{re:.12g}{sign}{abs(im):.12g}i"


def _scalar_approx(x: Scalar) -> complex:
    """``x.evaluate_complex(64)``, which a rational q = a/b with
    bitlen(b) <= bitlen(a) + 24 takes from the correctly rounded ``float(q)``.

    ``evaluate(64)`` rounds q to P = 80 + bitlen(a) bits and
    ``evaluate_complex`` rounds that to 53, each to nearest with ties to
    even.  That differs from ``float(q)`` only if the P-bit value is a
    midpoint m between two doubles and m != q, so |q - m| <= 2^(e-P-1),
    half a P-bit ulp, where 2^(e-1) <= |q| < 2^e.  As m is a multiple of
    2^(e-54), |q - m| >= 1/(b 2^(54-e)), which is larger whenever
    b < 2^(P-53), so the condition has 3 bits to spare (for e > 54,
    |q - m| >= 1/b and a >= b 2^(e-1) gives b < 2^(P+1-e)).  It also keeps
    q far from subnormals; past 2^1000, where ``float`` may overflow, q
    keeps ``evaluate_complex``, which reads an overflow as +-inf.
    """
    q = x.rational_value()
    if q is not None and -24 <= q.numerator.bit_length() - q.denominator.bit_length() <= 1000:
        return complex(float(q))
    return x.evaluate_complex(64)


def render_value(x, rendered: dict[Scalar, tuple[str, str]] | None = None) -> dict[str, Any]:
    """{"exact": expression-or-null, "approx": decimal string}.

    ``rendered`` maps each Scalar already rendered to its two strings, so a
    value repeated across a report is rendered once; each call returns a
    fresh dict."""
    if isinstance(x, Scalar):
        if rendered is None:
            rendered = {}
        pair = rendered.get(x)
        if pair is None:
            pair = rendered[x] = (str(x), _fmt_complex(_scalar_approx(x)))
        return {"exact": pair[0], "approx": pair[1]}
    return {"exact": None, "approx": _fmt_complex(complex(x))}


def render_matrix(M, rendered: dict[Scalar, tuple[str, str]]) -> list[list[dict[str, Any]]]:
    if isinstance(M, Matrix):
        return [[render_value(e, rendered) for e in row] for row in M.entries()]
    arr = np.asarray(M)
    return [[render_value(arr[i, j]) for j in range(arr.shape[1])] for i in range(arr.shape[0])]


def membership_dict(m: Membership) -> dict[str, Any]:
    return {"in_U": m.in_U, "containing": m.containing}


def verdict_dict(v: ClosureVerdict, K: int) -> dict[str, Any]:
    return {
        "kind": v.kind,
        "hull_dim": v.hull_dim,
        "gap": None if v.gap is None else f"{v.gap:.12g}",
        "min_distance": None if v.min_distance is None else f"{v.min_distance:.12g}",
        "notes": list(v.notes),
        "exponent_bound": K,
    }


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
    """The report as nested dicts for ``dumps_report``; the invariant tree is
    rendered from its root's units, one per family subspace, and node_count,
    prod(width / codim + 1), counts its nodes without listing them.  Each
    distinct Scalar is rendered once per report (see ``render_value``)."""
    rendered: dict[Scalar, tuple[str, str]] = {}
    blocks = [
        {
            "dimension": b.dim,
            "exact": b.exact,
            "eigenvalues": {
                name: render_value(b.eigen_numeric[gi] if b.eigen_exact.get(gi) is None
                                   else b.eigen_exact[gi], rendered)
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
            "functionals": render_matrix(s.functionals, rendered),
            "basis": render_matrix(s.subspace.basis, rendered),
            "invariance_residual": f"{s.invariance_residual:.12g}",
        }
        for s in family.subspaces
    ]
    triangular_forms = [
        {
            "diagonal": {name: render_value(mu, rendered)
                         for name, mu in zip(G.names, tf.diagonal)},
            "triangular": [render_matrix(T, rendered) for T in tf.triangular],
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
            "generators": [[[str(e) for e in row] for row in g.entries()] for g in G.generators],
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
            "Q": render_matrix(family.block_change, rendered),
            "P": render_matrix(family.triangular_change, rendered),
        },
        "invariant_tree": {"depth": tree_depth, "units": [
            {"subspace": k, "case": case, "width": w, "codim": codim}
            for k, ((case, codim), w) in enumerate(zip(tree_root.units, tree_root.widths))
        ], "node_count": tree_root.node_count},
        "points": point_sections,
    }


def dumps_report(report: dict[str, Any]) -> str:
    """``json.dumps(report, indent=2) + "\\n"``, byte for byte.

    With an indent ``json`` falls back to its pure-Python encoder; this
    writer walks the containers itself, leaves strings to the C escaper
    ``encode_basestring_ascii``, writes None and ints as json does, and
    hands every other leaf to ``json.dumps``.
    """
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(o, newline: str, out: list[str]) -> None:
    """Append o as indent-2 JSON; ``newline`` is a newline and o's indent."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif type(o) is int:
        out.append(repr(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in o.items():
            out.append(sep)
            out.append(_encode_str(json_key(key)))
            out.append(": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:  # bools, floats, int subclasses
        out.append(json.dumps(o))


def json_key(key) -> str:
    """The string json writes for a dict key: a str itself, and the JSON text
    of a number, a bool or null, which generator names from the input may
    be.  ``cli.load_input`` rejects names that this maps to one key."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
