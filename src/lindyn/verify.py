"""Claim harness for the fixtures in ``fixtures/``.

Every documented behaviour of a fixture becomes one checkable claim with its
preconditions validated first, so an edited fixture whose certificate no
longer applies is reported as a mismatch instead of silently passing.  A
claim is called as ``claim(name, G, points, ctx, cfg, dense_K)`` on the
fixture's group and its named points (vectors).
"""

from __future__ import annotations

import math

from .density import CLOSED, DENSE, IntegerSpan, dense_in, relation_basis
from .dynamics import (
    DENSE_IN_AFFINE,
    DISCRETE,
    ClosureConfig,
    Hull,
    _frame,
    approximate_target,
    classify_closure,
    classify_stabilized,
    enumerate_orbit,
    inverse_recurrence_check,
)
from .invariants import (
    bounded_restriction_witness,
    invariant_family,
    invariant_hull,
    invariant_tree,
    membership,
)
from .groups import GeneratorSet
from .linalg import as_vector
from .numeric import NumericContext


class ClaimResult:
    __slots__ = ("fixture", "claim", "ok", "detail")

    def __init__(self, fixture: str, claim: str, ok: bool, detail: str):
        self.fixture = fixture
        self.claim = claim
        self.ok = ok
        self.detail = detail

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.fixture}.{self.claim}: {self.detail}"


def _structure_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                     cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    n = G.dimension
    tree = invariant_tree(G, ctx)
    fam = tree.family
    ok = (
        fam.count <= n
        and all(s.dim in (n - 1, n - 2) for s in fam.subspaces)
        and all(s.invariance_residual == 0.0 for s in fam.subspaces)
        and tree.depth <= n
    )
    detail = (
        f"{fam.count} invariant subspace(s), dims "
        f"{[s.dim for s in fam.subspaces]}, tree depth {tree.depth}"
    )
    return ClaimResult(name, "structure", ok, detail)


def _translation_lattice(G: GeneratorSet, point) -> tuple[Hull, IntegerSpan | None, str]:
    """The hull of G's orbit through the point, the lattice sum Z t_i of the
    translations by which G moves its hull coordinates (see dynamics._frame),
    and the lattice's dense_in kind; no lattice when some generator does not
    act on them by a translation."""
    hull = _frame(G, tuple(point))
    if hull.translations is None:
        return hull, None, "not a translation group"
    span = IntegerSpan.of(hull.translations, len(hull.pivots))
    return hull, span, dense_in(span).kind


def _closed_orbit_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                        cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    key = "closed"
    point = points[key]
    _, span, exact = _translation_lattice(G, point)
    if span is None or not all(c.is_rational() for v in span.vectors for c in v):
        return ClaimResult(
            name, f"closed-orbit[{key}]", False,
            "precondition violated: the hull translations are not rational, "
            "the closed verdict certificate does not apply",
        )
    verdict_cloud, K = classify_stabilized(G, point, cfg, max_exponent=64)
    fam = invariant_family(G, ctx)
    ok = (
        exact == CLOSED
        and verdict_cloud is not None
        and verdict_cloud.kind == DISCRETE
        and membership(fam, point, ctx).in_U
    )
    return ClaimResult(
        name, f"closed-orbit[{key}]", ok,
        f"exact {exact}, sampled {verdict_cloud.kind} at K={K}",
    )


def _dense_line_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                      cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    key = "dense_line"
    K = 1000 if dense_K is None else dense_K
    point = points[key]
    hull, _, exact = _translation_lattice(G, point)
    if exact != DENSE:
        return ClaimResult(
            name, f"dense-line[{key}]", False,
            f"precondition violated: the translation lattice is {exact}, "
            "the density certificate does not apply",
        )
    cloud = enumerate_orbit(G, point, K, cfg, hull=hull)
    verdict = classify_closure(cloud, cfg)
    ok = verdict.kind == DENSE_IN_AFFINE and verdict.hull_dim == 1 and (
        verdict.gap is not None and verdict.gap < cfg.gap_threshold + 1e-12
    )
    return ClaimResult(
        name, f"dense-line[{key}]", ok,
        f"exact DENSE; sampled {verdict.kind}({verdict.hull_dim}) at K={K}, "
        f"max gap {verdict.gap:.3g}" if verdict.gap is not None else f"sampled {verdict.kind}",
    )


def _closed_complex_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                          cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    key = "closed"
    point = points[key]
    precondition = True
    for c in point[:3]:
        re, im = c.real_part(), c.imag_part()
        if not (re.is_rational() and im.is_rational()) or re.is_zero() or im.is_zero():
            precondition = False
    if not precondition:
        return ClaimResult(
            name, f"closed-orbit[{key}]", False,
            "precondition violated: leading coordinates are not nonzero "
            "rational complex numbers, the closed verdict certificate does not apply",
        )
    exact = _translation_lattice(G, point)[2]
    verdict_cloud, K = classify_stabilized(G, point, cfg, max_exponent=64)
    ok = exact == CLOSED and verdict_cloud.kind == DISCRETE
    return ClaimResult(
        name, f"closed-orbit[{key}]", ok,
        f"exact {exact}, sampled {verdict_cloud.kind} at K={K}",
    )


def _dense_plane_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                       cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    key = "dense_plane"
    K = 200 if dense_K is None else dense_K
    point = points[key]
    hull, _, exact = _translation_lattice(G, point)
    if exact != DENSE:
        return ClaimResult(
            name, f"dense-plane[{key}]", False,
            f"precondition violated: exact verdict is {exact}",
        )
    cloud = enumerate_orbit(G, point, K, cfg, hull=hull)
    verdict = classify_closure(cloud, cfg)
    ok = verdict.kind == DENSE_IN_AFFINE and verdict.hull_dim == 2
    return ClaimResult(
        name, f"dense-plane[{key}]", ok,
        f"exact DENSE, sampled {verdict.kind}({verdict.hull_dim}) at K={K}",
    )


def _approach_words(G: GeneratorSet, points):
    """Exponent tuples driving the base point of radical4 toward its limit,
    with the values and the target they approach: the translations of the
    base's hull line, and the limit's hull coordinate less the base's.  The
    group is real, so the realified coordinates are the points' own."""
    base, limit = points["base"], points["limit"]
    hull = _frame(G, tuple(base))
    if hull.translations is None or len(hull.pivots) != 1:
        raise ValueError("the group does not translate the base point's hull line")
    (p,) = hull.pivots
    values = [t for (t,) in hull.translations]
    target = limit[p] - base[p]
    return approximate_target(values, target), values, target


def _closure_minus_orbit_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                               cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    approx, values, target = _approach_words(G, points)
    relations = relation_basis(IntegerSpan.of([(v,) for v in values + [target]], 1))
    if relations:
        return ClaimResult(
            name, "closure-minus-orbit", False,
            f"altered expected verdict: the limit coordinate satisfies the "
            f"integer relation {relations[0]} with the increments, so the "
            "non-membership certificate fails",
        )
    return ClaimResult(
        name, "closure-minus-orbit", approx.achieved < 1e-4,
        f"residual {approx.achieved:.2e} after {len(approx.tuples)} improvements; "
        f"limit is rationally independent of the increments, so it is not attained",
    )


def _unbounded_sequence_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                              cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    approx, _, _ = _approach_words(G, points)
    norms = [G.word(w).max_abs() for w in approx.tuples]
    ok = max(norms) > 1e3
    return ClaimResult(
        name, "unbounded-sequence", ok,
        f"max entry along the sequence {max(norms):.4g}",
    )


def _bounded_restriction_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                               cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    base = points["base"]
    approx, _, _ = _approach_words(G, points)
    hull = invariant_hull(G, base)
    witness = bounded_restriction_witness(G, base, approx.tuples)
    bound_limit = 1 + math.sqrt(3) + 1e-3
    ok = hull.dim == 2 and witness.bound <= bound_limit
    return ClaimResult(
        name, "bounded-restriction", ok,
        f"hull dim {hull.dim}, restricted sup max-entry {witness.bound:.6f} "
        f"<= {bound_limit:.6f}",
    )


def _recurrence_claim(name: str, G: GeneratorSet, points, ctx: NumericContext,
                      cfg: ClosureConfig, dense_K: int | None) -> ClaimResult:
    base, limit = points["base"], points["limit"]
    approx, _, _ = _approach_words(G, points)
    fam = invariant_family(G, ctx)
    rep = inverse_recurrence_check(G, fam, base, limit, approx.tuples, ctx)
    return ClaimResult(
        name, "inverse-recurrence", rep.tends_to_zero,
        f"tail max of ||B^-1 v - u|| is {rep.tail_max:.2e}",
    )


# The claims of each fixture, in the order verify-examples runs them.
CLAIMS = {
    "shear3": (_structure_claim, _closed_orbit_claim, _dense_line_claim),
    "shear4": (_structure_claim, _closed_orbit_claim, _dense_line_claim),
    "cshear5": (_structure_claim, _closed_complex_claim, _dense_plane_claim),
    "radical4": (_structure_claim, _closure_minus_orbit_claim, _unbounded_sequence_claim,
                 _bounded_restriction_claim, _recurrence_claim),
}


def verify_fixture(
    name: str,
    G: GeneratorSet,
    points: dict,
    ctx: NumericContext,
    cfg: ClosureConfig,
    dense_K: int | None = None,
) -> list[ClaimResult]:
    """Run the claims of fixture ``name`` on its group and its points, given
    as coordinate lists; ``dense_K`` overrides the dense claims' exponent bound."""
    vectors = {key: as_vector(coords) for key, coords in points.items()}
    return [claim(name, G, vectors, ctx, cfg, dense_K) for claim in CLAIMS[name]]
