"""Exact density decisions for integer spans Z v_1 + ... + Z v_k in R^d.

Everything reduces to rational linear algebra over the radical-basis
coefficient vectors: integer relations among the generators decide the free
rank, and integer vectors s with <t, v_i> = s_i for some real t (characters of
the closure) decide density.  A finitely generated subgroup is closed exactly
when its free rank equals the dimension of its real span; it is dense exactly
when it spans R^d and admits no nonzero character.

:func:`dense_in` is the one density decision and :func:`relation_basis` the
one integer-relation decision; the d = 2 determinant-criterion brute force
that checks them lives in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import Matrix, kernel, rank as exact_rank, rational_kernel
from .scalars import Scalar, integerize

CLOSED = "CLOSED"
DENSE = "DENSE"
DENSE_IN_PROPER_SUBGROUP = "DENSE_IN_PROPER_SUBGROUP"


class IntegerSpan:
    """Generators v_1..v_k of a subgroup of R^d, entries real radical scalars."""

    __slots__ = ("vectors", "dim")

    def __init__(self, vectors: tuple[tuple[Scalar, ...], ...], dim: int):
        for v in vectors:
            if len(v) != dim:
                raise ValueError("vector length does not match ambient dimension")
            for c in v:
                if not c.is_real():
                    raise ValueError(f"integer-span entries must be real, got {c}")
        self.vectors = vectors
        self.dim = dim

    @staticmethod
    def of(vectors, dim: int | None = None) -> "IntegerSpan":
        vecs = tuple(tuple(v) for v in vectors)
        d = dim if dim is not None else (len(vecs[0]) if vecs else 1)
        return IntegerSpan(vecs, d)

    @property
    def count(self) -> int:
        return len(self.vectors)

    def matrix(self) -> Matrix:
        """d x k matrix with the generators as columns."""
        return Matrix.from_cols([list(v) for v in self.vectors])


def _coefficient_rows(vectors) -> list[list[Fraction]]:
    """Rational expansion rows indexed by (coordinate, radical key)."""
    keys = sorted({k for v in vectors for c in v for k in c.terms})
    if not keys:
        keys = [(1, False)]
    rows = []
    d = len(vectors[0]) if vectors else 0
    for coord in range(d):
        for key in keys:
            rows.append([v[coord].terms.get(key, Fraction(0)) for v in vectors])
    return rows


def relation_basis(span: IntegerSpan) -> list[list[int]]:
    """Basis of the integer relations {s : sum s_i v_i = 0}."""
    rows = _coefficient_rows(span.vectors)
    return [integerize(v) for v in rational_kernel(rows, span.count)]


def character_basis(span: IntegerSpan) -> list[list[int]]:
    """Integer vectors s lying in the real row space of the generator matrix.

    Each such s comes from a real functional t with <t, v_i> = s_i for all i,
    i.e. a character of the closure; a nonzero one obstructs density.
    """
    k = span.count
    M = span.matrix()
    ker = kernel(M)  # right kernel: x with sum x_j v_j = 0 coordinatewise
    if ker.dim == 0:
        # row space is all of R^k: every integer vector qualifies
        return [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    # s must satisfy sum_i x_i s_i = 0 for every kernel vector x; expanding
    # each x_i over the radical basis turns this into rational rows acting on
    # s, one per (kernel vector, key), read off the kernel basis's k rows
    rows = _coefficient_rows(ker.basis.entries())
    return [integerize(v) for v in rational_kernel(rows, k)]


class DensityVerdict:
    __slots__ = ("kind", "free_rank", "span_dim", "relations", "character", "notes")

    def __init__(self, kind: str, free_rank: int, span_dim: int,
                 relations: list[list[int]] | None = None, character: list[int] | None = None,
                 notes: list[str] | None = None):
        self.kind = kind
        self.free_rank = free_rank
        self.span_dim = span_dim
        self.relations = [] if relations is None else relations
        self.character = character
        self.notes = [] if notes is None else notes


def dense_in(span: IntegerSpan) -> DensityVerdict:
    """Classify the closure of Z v_1 + ... + Z v_k in R^d exactly.

    CLOSED when the group is a discrete lattice, DENSE when the closure is
    all of R^d, DENSE_IN_PROPER_SUBGROUP otherwise; the certificate carries
    the relation basis and/or the obstructing character.
    """
    rels = relation_basis(span)
    free_rank = span.count - len(rels)
    span_dim = exact_rank(span.matrix())
    if free_rank == span_dim:
        return DensityVerdict(
            CLOSED,
            free_rank,
            span_dim,
            rels,
            notes=[f"free rank {free_rank} equals span dimension: discrete lattice"],
        )
    chars = character_basis(span)
    nonzero_char = next((c for c in chars if any(c)), None)
    if nonzero_char is None:
        if span_dim == span.dim:
            return DensityVerdict(
                DENSE,
                free_rank,
                span_dim,
                rels,
                notes=["no nonzero integer character and the generators span R^d"],
            )
        return DensityVerdict(
            DENSE_IN_PROPER_SUBGROUP,
            free_rank,
            span_dim,
            rels,
            notes=[f"dense in its {span_dim}-dimensional span, a proper subspace"],
        )
    return DensityVerdict(
        DENSE_IN_PROPER_SUBGROUP,
        free_rank,
        span_dim,
        rels,
        character=nonzero_char,
        notes=["nonzero integer character obstructs density"],
    )
