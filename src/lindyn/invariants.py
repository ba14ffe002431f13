"""Invariant-subspace structure of an abelian matrix group.

Computes the family H_1..H_r of invariant subspaces of codimension 1 or 2
whose complement U is a dense open set, the nilpotent-direction span and
invariant hull that drive the bounded-restriction recursion, and the
invariant tree certifying that chains of invariant subspaces have length at
most n.  The tree is read off the family's triangular basis P: every
generator is lower triangular on each unit of P's columns, so a node is the
tuple of its units' remaining widths, made only when read, and no family
below the root is computed.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import NamedTuple

from ._numpy import np

from .errors import (
    ClusterAmbiguity,
    FirstCoordinateZero,
    InvarianceViolation,
    NotConvergent,
)
from .groups import COMPLEX, GeneratorSet
from .linalg import (
    BasisChange,
    Matrix,
    Subspace,
    Vector,
    independent_columns,
    restrict,
)
from .numeric import (
    NumericContext,
    NumSubspace,
    max_abs,
    nrestrict,
    to_numeric,
    vec_to_numeric,
)
from .scalars import Scalar
from .spectral import (
    SpectralBlock,
    TriangularForm,
    _triangularize_exact,
    leading_one,
    pair_conjugates,
    re_im_columns,
    simultaneous_refinement,
    triangularize,
)

CASE_COMPLEX_HYPERPLANE = "complex-hyperplane"
CASE_REAL_HYPERPLANE = "real-hyperplane"
CASE_CONJUGATE_PAIR = "real-conjugate-pair"

CONVERGENCE_TOL = 1e-2  # largest relative drift of u's images along a witness tail


# ---------------------------------------------------------------------------
# S-form helpers and the nilpotent-direction family


def s_form_diagonal(g: Matrix) -> Scalar:
    """The repeated diagonal value of a lower-triangular generator."""
    if not g.is_lower_triangular():
        raise ValueError("generator is not lower triangular")
    mu = g.constant_diagonal()
    if mu is None:
        raise ValueError("generator diagonal is not constant")
    return mu


class NilpotentSpan:
    """Spanning family {(B - mu_B I) e_i} of the nilpotent directions."""

    __slots__ = ("vectors", "chosen", "rank", "span")

    def __init__(self, vectors: list[tuple[int, int, Vector]], chosen: list[int], rank: int,
                 span: Subspace):
        self.vectors = vectors  # (generator idx, column idx, vector)
        self.chosen = chosen    # indices of a maximal independent subset
        self.rank = rank
        self.span = span

    def chosen_vectors(self) -> list[Vector]:
        return [self.vectors[i][2] for i in self.chosen]


def nilpotent_span(G: GeneratorSet) -> NilpotentSpan:
    """Span of (B - mu_B I) e_i over generators B and columns i < n.

    Generators must be exact and in S-form (lower triangular, constant
    diagonal).  Vector order is generator-major then column, which fixes the
    chosen independent subset deterministically.
    """
    if not G.exact:
        raise ValueError("nilpotent span requires exact generators")
    n = G.dimension
    vectors: list[tuple[int, int, Vector]] = []
    for gi, g in enumerate(G.generators):
        mu = s_form_diagonal(g)
        N = g - Matrix.identity(n).scale(mu)
        for i in range(n - 1):
            vec = N.col(i)
            if not vec[0].is_zero():
                raise InvarianceViolation("nilpotent direction has nonzero first coordinate")
            vectors.append((gi, i, vec))
    chosen = independent_columns(Matrix.from_cols([vec for _, _, vec in vectors]))
    span = Subspace.span(n, [vectors[idx][2] for idx in chosen])
    return NilpotentSpan(vectors, chosen, len(chosen), span)


def invariant_hull(G: GeneratorSet, u) -> Subspace:
    """Smallest computed invariant subspace containing u: span{u, v_1..v_r}."""
    fam = nilpotent_span(G)
    n = G.dimension
    u = tuple(u)
    vecs = [list(u)] + [list(v) for v in fam.chosen_vectors()]
    hull = Subspace.span(n, vecs)
    for name, g in zip(G.names, G.generators):
        for j in range(hull.dim):
            img = g.matvec(hull.basis.col(j))
            if not hull.contains(img):
                raise InvarianceViolation(
                    f"hull of u is not invariant under {name}"
                )
    return hull


# ---------------------------------------------------------------------------
# the invariant family


class InvariantSubspace:
    __slots__ = ("subspace", "case", "block_index", "functionals", "invariance_residual", "width")

    def __init__(self, subspace: Subspace | NumSubspace, case: str, block_index: int,
                 functionals: Matrix | np.ndarray, invariance_residual: float, width: int):
        self.subspace = subspace
        self.case = case
        self.block_index = block_index
        self.functionals = functionals  # rows; H = joint kernel of these
        self.invariance_residual = invariance_residual
        self.width = width              # columns of its unit in P; it drops the leading codim

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def exact(self) -> bool:
        return isinstance(self.subspace, Subspace)


class InvariantFamily:
    __slots__ = ("field", "dimension", "subspaces", "block_change", "triangular_change",
                 "blocks", "forms")

    def __init__(self, field: str, dimension: int, subspaces: list[InvariantSubspace],
                 block_change: Matrix | np.ndarray, triangular_change: Matrix | np.ndarray,
                 blocks: list[SpectralBlock], forms: list[TriangularForm]):
        self.field = field
        self.dimension = dimension
        self.subspaces = subspaces
        self.block_change = block_change            # Q: stacked block bases
        self.triangular_change = triangular_change  # P: triangularized composite basis
        self.blocks = blocks
        self.forms = forms

    @property
    def count(self) -> int:
        return len(self.subspaces)


def invariant_family(G: GeneratorSet, ctx: NumericContext) -> InvariantFamily:
    """The invariant subspaces H_1..H_r (codim 1 or 2) with complement U."""
    n = G.dimension
    blocks = simultaneous_refinement(G, ctx)

    units: list[tuple[str, object, object]] = []  # (case, pre-basis, triangular-basis)
    forms: list[TriangularForm] = []
    if G.field == COMPLEX:
        paired, case = [(blk, False) for blk in blocks], CASE_COMPLEX_HYPERPLANE
    else:
        paired, case = pair_conjugates(blocks, G, ctx), CASE_REAL_HYPERPLANE
    for blk, is_pair in paired:
        tf = triangularize(G, blk, ctx)
        if is_pair:  # the leader's Re/Im columns span the pair's real subspace
            units.append((CASE_CONJUGATE_PAIR, re_im_columns(blk.basis()), re_im_columns(tf.basis)))
        else:
            units.append((case, blk.basis(), tf.basis))
        forms.append(tf)

    exact_all = all(isinstance(tb, Matrix) for _, _, tb in units)
    if exact_all:
        Q = reduce(Matrix.hstack, [pb for _, pb, _ in units])
        P = reduce(Matrix.hstack, [tb for _, _, tb in units])
        P_inv = BasisChange.of(P).inverse
    else:
        Q = np.hstack([to_numeric(pb) for _, pb, _ in units])
        P = np.hstack([to_numeric(tb) for _, _, tb in units])
        P_inv = np.linalg.inv(P)
        _check_conditioning(P, P_inv, ctx)

    subspaces: list[InvariantSubspace] = []
    offset = 0
    for ui, (case, _, tb) in enumerate(units):
        width = tb.cols if isinstance(tb, Matrix) else tb.shape[1]
        omit = 2 if case == CASE_CONJUGATE_PAIR else 1
        keep = [offset + j for j in range(omit, width)]
        others = [j for j in range(n) if not (offset <= j < offset + width)]
        col_idx = sorted(others + keep)
        if exact_all:
            # P's inverse is verified, so these columns of P are independent
            sub = Subspace._of_independent(n, P.submatrix(range(n), col_idx))
            functionals = P_inv.submatrix(range(offset, offset + omit), range(n))
        else:
            sub = NumSubspace(n, P[:, col_idx])
            functionals = P_inv[offset : offset + omit, :]
        residual = _invariance_residual(G, sub, functionals, ctx)
        subspaces.append(InvariantSubspace(sub, case, ui, functionals, residual, width))
        offset += width

    if len(subspaces) > n:
        raise InvarianceViolation(
            f"computed {len(subspaces)} invariant subspaces for n={n}; input defies the n bound"
        )
    for s in subspaces:
        if s.dim not in (n - 1, n - 2):
            raise InvarianceViolation(
                f"invariant subspace has dimension {s.dim}, expected {n-1} or {n-2}"
            )
    return InvariantFamily(G.field, n, subspaces, Q, P, blocks, forms)


def _check_conditioning(P: np.ndarray, P_inv: np.ndarray, ctx: NumericContext) -> None:
    """Refuse a numeric basis P whose functionals are not accurate to ctx.eps.

    The functionals are rows of P^-1, accurate to about cond(P) 2^-precision
    relative, and membership compares them with ctx.eps.  A defective
    cluster split into nearby eigenvalues gives units whose leading columns
    are nearly parallel, so cond(P) grows like 2^(precision/2) and the
    family it yields is not the group's.
    """
    kappa = max_abs(P) * max_abs(P_inv)
    if kappa * 2.0 ** -ctx.precision > ctx.eps:
        raise ClusterAmbiguity(
            f"family basis has condition {kappa:.3g}, so its functionals are not "
            f"accurate to {ctx.eps:g} at precision {ctx.precision}; "
            "a defective cluster was likely split"
        )


def _invariance_residual(G: GeneratorSet, sub: Subspace | NumSubspace,
                         functionals: Matrix | np.ndarray, ctx: NumericContext) -> float:
    """Worst relative residual of restricting every generator to sub.

    This is the invariance check: it raises when sub is not invariant, for a
    numeric sub when the residual relative to the operands exceeds 1e3 eps.

    An exact sub is decided by ``F g B == 0`` for its basis B and its
    functionals F, no restriction computed.  F is ``omit`` rows of P^-1 (the
    basis change verified exactly) and B the other n - omit columns of P, so
    F B = 0 and F has rank omit: span(B) lies in ker F and both have
    dimension n - omit, so span(B) = ker F.  Hence g maps span(B) into itself
    exactly when F g B = 0.  A generator that fails is restricted, which
    raises the NotInvariant of :func:`restrict`.
    """
    if sub.dim == 0:
        return 0.0
    if isinstance(sub, Subspace):
        for g in G.generators:
            if not (functionals * g * sub.basis).is_zero():
                restrict(g, sub.basis)  # raises: g B leaves ker F = span(B)
        return 0.0
    worst = max((nrestrict(g, sub.basis)[1] for g in G.generators), default=0.0)
    if worst > 1e3 * ctx.eps:
        raise InvarianceViolation(
            f"numeric invariant subspace residual {worst:.3g} exceeds tolerance"
        )
    return worst


# ---------------------------------------------------------------------------
# membership


class Membership:
    __slots__ = ("in_U", "containing")

    def __init__(self, in_U: bool, containing: list[int]):
        self.in_U = in_U
        self.containing = containing


def membership(family: InvariantFamily, x: Vector, ctx: NumericContext) -> Membership:
    """Which H_k contain x, a vector of Scalars; x lies in U exactly when the list is empty."""
    containing = []
    for k, sub in enumerate(family.subspaces):
        if isinstance(sub.functionals, Matrix):
            vals = sub.functionals.matvec(tuple(x))
            if all(v.is_zero() for v in vals):
                containing.append(k)
        else:
            fn = to_numeric(sub.functionals)
            xn = vec_to_numeric(x)
            vals = fn @ xn.reshape(-1, 1)
            scale = max_abs(fn) * max(1.0, max_abs(xn.reshape(-1, 1)))
            if max_abs(vals) <= ctx.eps * max(scale, 1e-300):
                containing.append(k)
    return Membership(in_U=not containing, containing=containing)


# ---------------------------------------------------------------------------
# the invariant tree


class InvariantTreeNode(NamedTuple):
    """One invariant subspace of K^n, as a value: the remaining width of each
    unit of the root's basis P, with each unit's (case, codim).  Each child
    drops the leading codim columns of one unit that still has columns."""

    widths: tuple[int, ...]
    units: tuple[tuple[str, int], ...]

    @property
    def dimension(self) -> int:
        return sum(self.widths)

    @property
    def family_size(self) -> int:
        return sum(1 for w in self.widths if w)

    @property
    def children(self) -> list["InvariantTreeNode"]:
        w = self.widths
        return [InvariantTreeNode(w[:i] + (w[i] - codim,) + w[i + 1:], self.units)
                for i, (_, codim) in enumerate(self.units) if w[i]]

    @property
    def node_count(self) -> int:
        """The nodes reached from this one, itself included: prod(w_i / codim_i + 1)."""
        return math.prod(w // codim + 1 for (_, codim), w in zip(self.units, self.widths))


class InvariantTree:
    __slots__ = ("root", "depth", "family")

    def __init__(self, root: InvariantTreeNode, depth: int, family: InvariantFamily):
        self.root = root
        self.depth = depth
        self.family = family  # the root's


def invariant_tree(G: GeneratorSet, ctx: NumericContext) -> InvariantTree:
    """Invariant subspaces along every chain K^n ⊃ H ⊃ ... ⊃ {0}.

    Only the root's family is computed.  Its basis P lays out one unit of
    columns per block (per conjugate pair over R), and every generator is
    lower triangular on each unit (2x2 block triangular on a pair's Re/Im
    columns).  Dropping a unit's leading codim columns (1, or 2 for a pair)
    therefore leaves an invariant subspace whose group has one family member
    per non-empty unit, with that unit's case.  A node is the tuple w of
    remaining unit widths: it has dimension sum(w), family size the number of
    non-zero w_i, and a child w - codim_i e_i for each w_i > 0.  So the root is
    the tree, of prod(w_i / codim_i + 1) nodes and depth sum(w_i / codim_i) <= n.
    """
    family = invariant_family(G, ctx)
    units = tuple((s.case, G.dimension - s.dim) for s in family.subspaces)
    widths = tuple(s.width for s in family.subspaces)
    depth = sum(w // codim for (_, codim), w in zip(units, widths))
    return InvariantTree(InvariantTreeNode(widths, units), depth, family)


# ---------------------------------------------------------------------------
# bounded restriction witness (the case-split recursion)


class BoundedRestrictionWitness:
    __slots__ = ("subspace", "basis", "bound", "case_trace")

    def __init__(self, subspace: Subspace, basis: Matrix, bound: float, case_trace: list[str]):
        self.subspace = subspace  # in original coordinates, contains u
        self.basis = basis        # ambient columns, first column is u
        self.bound = bound        # sup of max-entry norms over the sequence
        self.case_trace = case_trace


def bounded_restriction_witness(
    G: GeneratorSet,
    u,
    words: list[tuple[int, ...]],
) -> BoundedRestrictionWitness:
    """Invariant H containing u on which the convergent sequence stays bounded.

    Implements the rank case split: full rank keeps the whole space, rank
    zero is the homothety case, and intermediate rank recurses on the
    invariant hull of u with a triangular basis of the nilpotent span.
    """
    if not G.exact:
        raise ValueError("witness recursion requires exact generators")
    u = tuple(u)
    if u[0].is_zero():
        raise FirstCoordinateZero("u must have nonzero first coordinate")

    images = []
    for word in words:
        img = G.word(word).matvec(u)
        images.append(np.array([c.to_complex() for c in img]))
    if len(images) >= 2:
        tail = images[len(images) // 2 :]
        worst = max(
            float(np.max(np.abs(a - tail[-1]))) for a in tail
        )
        scale = max(1.0, float(np.max(np.abs(tail[-1]))))
        if worst > CONVERGENCE_TOL * scale:
            raise NotConvergent(
                f"images of u along the sequence drift by {worst:.3g}"
            )

    trace: list[str] = []
    embed, gens = _witness_recurse(G, u, trace)
    bound = 0.0
    for word in words:
        acc = Matrix.identity(gens[0].rows)
        for g, k in zip(gens, word):
            if k:
                acc = acc * g.power(k)
        bound = max(bound, acc.max_abs())
    return BoundedRestrictionWitness(Subspace(G.dimension, embed), embed, bound, trace)


def _witness_recurse(G: GeneratorSet, u: Vector, trace: list[str]) -> tuple[Matrix, list[Matrix]]:
    """Returns (ambient basis with first column u, restricted generators)."""
    n = G.dimension
    fam = nilpotent_span(G)
    r = fam.rank
    if r == n - 1 or r == 0:
        trace.append("full-rank" if r == n - 1 else "homothety")
        cols = [list(u)] + [
            [Scalar.one() if i == j else Scalar.zero() for i in range(n)]
            for j in range(1, n)
        ]
        P = Matrix.from_cols(cols)
        return P, [restrict(g, P) for g in G.generators]

    trace.append(f"recurse-hull(rank={r})")
    f_basis = Matrix.from_cols([list(v) for v in fam.chosen_vectors()])
    f_restrictions = [restrict(g, f_basis) for g in G.generators]
    mus = [s_form_diagonal(g) for g in G.generators]
    coeff_change, _ = _triangularize_exact(f_restrictions, mus)
    w_cols = [leading_one(w) for w in (f_basis * coeff_change).columns()]
    hull_basis = Matrix.from_cols([list(u)] + w_cols)
    restricted = [restrict(g, hull_basis) for g in G.generators]
    if not all(sol.is_lower_triangular() for sol in restricted):
        raise InvarianceViolation("restricted generator is not lower triangular")
    sub_group = GeneratorSet(G.field, r + 1, restricted, list(G.names))
    sub_u = tuple([Scalar.one()] + [Scalar.zero()] * r)
    sub_embed, gens = _witness_recurse(sub_group, sub_u, trace)
    return hull_basis * sub_embed, gens
