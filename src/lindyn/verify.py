"""Claim harness for the built-in fixtures.

Every documented behaviour of a fixture becomes one checkable claim with its
preconditions validated first, so an edited fixture whose certificate no
longer applies is reported as a mismatch instead of silently passing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .density import CLOSED, DENSE, IntegerSpan, dense_in, determinant_zero_search
from .dynamics import (
    DENSE_IN_AFFINE,
    DISCRETE,
    ClosureConfig,
    approximate_target,
    classify_closure,
    classify_stabilized,
    enumerate_orbit,
    inverse_recurrence_check,
)
from .fixtures import Fixture, all_fixtures
from .invariants import (
    bounded_restriction_witness,
    invariant_family,
    invariant_hull,
    invariant_tree,
    membership,
)
from .numeric import NumericContext
from .scalars import Scalar, is_rationally_independent


@dataclass
class ClaimResult:
    fixture: str
    claim: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.fixture}.{self.claim}: {self.detail}"


def _structure_claim(f: Fixture, ctx: NumericContext) -> ClaimResult:
    n = f.group.dimension
    tree = invariant_tree(f.group, ctx)
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
    return ClaimResult(f.name, "structure", ok, detail)


def _increments(f: Fixture, point) -> list[Scalar]:
    """Per-generator last-coordinate increments of a shear orbit at the point:
    the last row of g - I applied to it."""
    n = f.group.dimension
    increments = []
    for g in f.group.generators:
        inc = Scalar.zero()
        for j in range(n - 1):
            inc = inc + g[n - 1, j] * point[j]
        increments.append(inc)
    return increments


def _first_coords_subgroup(f: Fixture, point) -> IntegerSpan:
    """The coefficient subgroup driving the last coordinate of a shear orbit."""
    coeffs = _increments(f, point)
    if f.group.field == "complex":
        return IntegerSpan.of([(c.real_part(), c.imag_part()) for c in coeffs], 2)
    return IntegerSpan.of([(c,) for c in coeffs], 1)


def _closed_orbit_claim(f: Fixture, key: str, ctx: NumericContext, cfg: ClosureConfig,
                        max_exponent: int = 64) -> ClaimResult:
    point = f.points[key]
    span = _first_coords_subgroup(f, point)
    rational = all(
        c.is_rational() for v in span.vectors for c in v
    )
    if not rational:
        return ClaimResult(
            f.name, f"closed-orbit[{key}]", False,
            "precondition violated: increments are not rational, the closed "
            "verdict certificate does not apply",
        )
    verdict_exact = dense_in(span)
    verdict_cloud, K = classify_stabilized(f.group, point, cfg, max_exponent=max_exponent)
    fam = invariant_family(f.group, ctx)
    ok = (
        verdict_exact.kind == CLOSED
        and verdict_cloud is not None
        and verdict_cloud.kind == DISCRETE
        and membership(fam, point, ctx).in_U
    )
    return ClaimResult(
        f.name, f"closed-orbit[{key}]", ok,
        f"exact {verdict_exact.kind}, sampled {verdict_cloud.kind} at K={K}",
    )


def _dense_line_claim(f: Fixture, key: str, ctx: NumericContext, cfg: ClosureConfig,
                      K: int = 1000) -> ClaimResult:
    point = f.points[key]
    span = _first_coords_subgroup(f, point)
    verdict_exact = dense_in(span)
    if verdict_exact.kind != DENSE:
        return ClaimResult(
            f.name, f"dense-line[{key}]", False,
            f"precondition violated: coefficient subgroup is {verdict_exact.kind}, "
            "the density certificate does not apply",
        )
    cloud = enumerate_orbit(f.group, point, K, cfg)
    verdict = classify_closure(cloud, cfg)
    ok = verdict.kind == DENSE_IN_AFFINE and verdict.hull_dim == 1 and (
        verdict.gap is not None and verdict.gap < cfg.gap_threshold + 1e-12
    )
    return ClaimResult(
        f.name, f"dense-line[{key}]", ok,
        f"exact DENSE; sampled {verdict.kind}({verdict.hull_dim}) at K={K}, "
        f"max gap {verdict.gap:.3g}" if verdict.gap is not None else f"sampled {verdict.kind}",
    )


def _closed_complex_claim(f: Fixture, key: str, ctx: NumericContext, cfg: ClosureConfig) -> ClaimResult:
    point = f.points[key]
    precondition = True
    for c in point[:3]:
        re, im = c.real_part(), c.imag_part()
        if not (re.is_rational() and im.is_rational()) or re.is_zero() or im.is_zero():
            precondition = False
    if not precondition:
        return ClaimResult(
            f.name, f"closed-orbit[{key}]", False,
            "precondition violated: leading coordinates are not nonzero "
            "rational complex numbers, the closed verdict certificate does not apply",
        )
    span = _first_coords_subgroup(f, point)
    verdict_exact = dense_in(span)
    verdict_cloud, K = classify_stabilized(f.group, point, cfg, max_exponent=64)
    ok = verdict_exact.kind == CLOSED and verdict_cloud.kind == DISCRETE
    return ClaimResult(
        f.name, f"closed-orbit[{key}]", ok,
        f"exact {verdict_exact.kind}, sampled {verdict_cloud.kind} at K={K}",
    )


def _dense_plane_claim(f: Fixture, key: str, ctx: NumericContext, cfg: ClosureConfig,
                       K: int = 200, brute_bound: int = 50) -> ClaimResult:
    point = f.points[key]
    span = _first_coords_subgroup(f, point)
    verdict_exact = dense_in(span)
    zeros = determinant_zero_search(span, brute_bound) if span.count == 3 and span.dim == 2 else []
    if verdict_exact.kind != DENSE:
        return ClaimResult(
            f.name, f"dense-plane[{key}]", False,
            f"precondition violated: exact verdict is {verdict_exact.kind}",
        )
    cloud = enumerate_orbit(f.group, point, K, cfg)
    verdict = classify_closure(cloud, cfg)
    ok = not zeros and verdict.kind == DENSE_IN_AFFINE and verdict.hull_dim == 2
    return ClaimResult(
        f.name, f"dense-plane[{key}]", ok,
        f"exact DENSE, determinant zero-search empty up to {brute_bound}, "
        f"sampled {verdict.kind}({verdict.hull_dim}) at K={K}",
    )


def _approach_words(f: Fixture, target: Scalar, bound: int = 10**4):
    """Exponent tuples driving the base point of radical4 toward its limit."""
    values = _increments(f, f.points["base"])
    return approximate_target(values, target, bound), values


def _closure_minus_orbit_claim(f: Fixture, ctx: NumericContext) -> ClaimResult:
    base, limit = f.points["base"], f.points["limit"]
    target = limit[-1]
    approx, values = _approach_words(f, target)
    reach = approx.achieved < 1e-4
    independent, relation = is_rationally_independent(values + [target])
    if not independent:
        return ClaimResult(
            f.name, "closure-minus-orbit", False,
            f"altered expected verdict: the limit coordinate satisfies the "
            f"integer relation {relation} with the increments, so the "
            "non-membership certificate fails",
        )
    ok = reach
    return ClaimResult(
        f.name, "closure-minus-orbit", ok,
        f"residual {approx.achieved:.2e} after {len(approx.tuples)} improvements; "
        f"limit is rationally independent of the increments, so it is not attained",
    )


def _unbounded_sequence_claim(f: Fixture, ctx: NumericContext) -> ClaimResult:
    approx, _ = _approach_words(f, f.points["limit"][-1])
    norms = [f.group.word(w).max_abs() for w in approx.tuples]
    ok = max(norms) > 1e3
    return ClaimResult(
        f.name, "unbounded-sequence", ok,
        f"max entry along the sequence {max(norms):.4g}",
    )


def _bounded_restriction_claim(f: Fixture, ctx: NumericContext) -> ClaimResult:
    base = f.points["base"]
    approx, _ = _approach_words(f, f.points["limit"][-1])
    hull = invariant_hull(f.group, base)
    witness = bounded_restriction_witness(f.group, base, approx.tuples, ctx)
    bound_limit = 1 + math.sqrt(3) + 1e-3
    ok = hull.dim == 2 and witness.bound <= bound_limit
    return ClaimResult(
        f.name, "bounded-restriction", ok,
        f"hull dim {hull.dim}, restricted sup max-entry {witness.bound:.6f} "
        f"<= {bound_limit:.6f}",
    )


def _recurrence_claim(f: Fixture, ctx: NumericContext) -> ClaimResult:
    base, limit = f.points["base"], f.points["limit"]
    approx, _ = _approach_words(f, limit[-1])
    fam = invariant_family(f.group, ctx)
    rep = inverse_recurrence_check(f.group, fam, base, limit, approx.tuples, ctx)
    return ClaimResult(
        f.name, "inverse-recurrence", rep.tends_to_zero,
        f"tail max of ||B^-1 v - u|| is {rep.tail_max:.2e}",
    )


def verify_fixture(
    f: Fixture,
    ctx: NumericContext | None = None,
    cfg: ClosureConfig | None = None,
    dense_K: int | None = None,
) -> list[ClaimResult]:
    ctx = ctx or NumericContext()
    cfg = cfg or ClosureConfig()
    line_K, plane_K = (1000, 200) if dense_K is None else (dense_K, dense_K)
    out = [_structure_claim(f, ctx)]
    if f.name in ("shear3", "shear4"):
        out.append(_closed_orbit_claim(f, "closed", ctx, cfg))
        out.append(_dense_line_claim(f, "dense_line", ctx, cfg, K=line_K))
    elif f.name == "cshear5":
        out.append(_closed_complex_claim(f, "closed", ctx, cfg))
        out.append(_dense_plane_claim(f, "dense_plane", ctx, cfg, K=plane_K))
    elif f.name == "radical4":
        out.append(_closure_minus_orbit_claim(f, ctx))
        out.append(_unbounded_sequence_claim(f, ctx))
        out.append(_bounded_restriction_claim(f, ctx))
        out.append(_recurrence_claim(f, ctx))
    return out


def verify_all(
    ctx: NumericContext | None = None,
    cfg: ClosureConfig | None = None,
    dense_K: int | None = None,
) -> list[ClaimResult]:
    results = []
    for f in all_fixtures():
        results.extend(verify_fixture(f, ctx, cfg, dense_K=dense_K))
    return results
