"""Exact matrices and subspaces over the radical scalar field.

A matrix whose entries are all rational keeps an integer form, computed on
first use: each row times the lcm of its denominators, with that lcm.  A
product of two rational matrices sums, in ints, the rows of the right one
(at one common scale) that the left one's nonzero entries select, and makes
one Fraction per nonzero result.  Any other product runs on Scalars.

Rank, kernel, solve and determinant share one fraction-free (Bareiss)
forward elimination, which avoids coefficient blow-up.  A rational matrix is
eliminated on its integer form, which changes neither the pivot columns, the
kernel nor the solution of an augmented system, and each update divides
exactly by the previous pivot; any other runs on Scalars.  Kernels and
solves finish with exact back-substitution (in Fractions on the integer path)
so basis vectors come out with unit entries at their free coordinates, which
keeps every derived basis deterministic.

A :class:`Subspace` checks that its basis is independent.  It first looks for
a private row per column, a row where that column alone is nonzero; when
every column has one the columns are independent, at the cost of one pass
over the entries.  Kernel bases (a unit at each free coordinate) and
reduced-echelon span bases (a unit at each pivot) always have them, so only
other bases pay for an elimination.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import NotInvariant
from .scalars import _RATIONAL_KEY, Scalar, parse_scalar

Vector = tuple[Scalar, ...]

_ZERO = Scalar.zero()


def _to_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return Scalar._canonical({_RATIONAL_KEY: x}) if x else _ZERO


def _rational(num: int, den: int) -> Scalar:
    return Scalar._canonical({_RATIONAL_KEY: Fraction(num, den)}) if num else _ZERO


def _integer_row(row: Sequence[Scalar]) -> tuple[list[int], int] | None:
    """The row times the lcm of its denominators, with that lcm; None when
    some entry is not rational."""
    fracs = [a.rational_value() for a in row]
    if any(q is None for q in fracs):
        return None
    lcm = math.lcm(*(q.denominator for q in fracs))
    return [q.numerator * (lcm // q.denominator) for q in fracs], lcm


def as_vector(entries: Iterable) -> Vector:
    return tuple(_to_scalar(x) for x in entries)


class Matrix:
    """Immutable matrix with Scalar entries."""

    __slots__ = ("_rows", "_ints")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        self._rows = tuple(tuple(row) for row in rows)
        self._ints = None
        if self._rows:
            w = len(self._rows[0])
            if any(len(r) != w for r in self._rows):
                raise ValueError("ragged rows")

    def _integer_form(self) -> list[tuple[list[int], int]] | bool:
        """The :func:`_integer_row` of each row, computed once; False unless all are rational."""
        if self._ints is None:
            form = [_integer_row(row) for row in self._rows]
            self._ints = False if None in form else form
        return self._ints

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        return Matrix([[_to_scalar(x) for x in row] for row in rows])

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        cols = [list(c) for c in cols]
        return Matrix.from_rows(list(map(list, zip(*cols)))) if cols else Matrix([])

    @staticmethod
    def identity(n: int) -> "Matrix":
        one, zero = Scalar.one(), Scalar.zero()
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        zero = Scalar.zero()
        return Matrix([[zero] * c for _ in range(r)])

    # -- shape and access -------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._rows[i][j]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self._rows)

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self.cols)]

    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        return self._rows

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._rows, other._rows)]
        )

    def scale(self, s) -> "Matrix":
        s = _to_scalar(s)
        return Matrix([[s * a for a in r] for r in self._rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        fa = self._integer_form()
        fb = fa is not False and other._integer_form()
        if fb is False:
            ocols = other.columns()
            return Matrix([[_dot(row, col) for col in ocols] for row in self._rows])
        # the rows of other at one common scale, as their nonzero (column, value)
        scale = math.lcm(*(lb for _, lb in fb))
        sparse = [[(j, b * (scale // lb)) for j, b in enumerate(ints) if b] for ints, lb in fb]
        rows = []
        for ints, la in fa:
            acc = [0] * other.cols
            for a, brow in zip(ints, sparse):
                if a:
                    for j, b in brow:
                        acc[j] += a * b
            rows.append([_rational(x, la * scale) for x in acc])
        return Matrix(rows)

    def matvec(self, v: Sequence[Scalar]) -> Vector:
        fa = self._integer_form()
        fv = fa is not False and _integer_row(v)
        if not fv:
            return tuple(_dot(row, v) for row in self._rows)
        vints, lv = fv
        return tuple(_rational(sum(map(operator.mul, ints, vints)), la * lv) for ints, la in fa)

    def transpose(self) -> "Matrix":
        return Matrix(list(map(list, zip(*self._rows)))) if self._rows else self

    def conjugate(self) -> "Matrix":
        return Matrix([[a.conjugate() for a in r] for r in self._rows])

    def hstack(self, other: "Matrix") -> "Matrix":
        return Matrix([ra + rb for ra, rb in zip(self._rows, other._rows)])

    def vstack(self, other: "Matrix") -> "Matrix":
        return Matrix(self._rows + other._rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix([[self._rows[i][j] for j in col_idx] for i in row_idx])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self._rows for a in r)

    def is_real(self) -> bool:
        return all(a.is_real() for r in self._rows for a in r)

    def is_lower_triangular(self) -> bool:
        return all(
            self._rows[i][j].is_zero()
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def constant_diagonal(self) -> Scalar | None:
        """The repeated diagonal value, or None if the diagonal varies."""
        if self.rows != self.cols or self.rows == 0:
            return None
        mu = self._rows[0][0]
        return mu if all(self._rows[i][i] == mu for i in range(self.rows)) else None

    # -- elimination-based operations --------------------------------------

    def det(self) -> Scalar:
        """Determinant: the last fraction-free pivot at full rank, else 0."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return Scalar.one()
        ech, pivots, sign = _forward_echelon(*_elimination_rows(self))
        if len(pivots) < self.rows:
            return _ZERO
        form = self._integer_form()
        if form is False:
            return sign * ech[-1][-1]
        return _rational(sign * ech[-1][-1], math.prod(lcm for _, lcm in form))

    def power(self, k: int) -> "Matrix":
        """Integer matrix power by repeated squaring; negative k via inverse."""
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return self.inverse().power(-k)
        if k == 0:
            return Matrix.identity(self.rows)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def inverse(self) -> "Matrix":
        sol = solve(self, Matrix.identity(self.rows))
        if sol is None:
            raise ZeroDivisionError("matrix is singular")
        return sol

    # -- numeric views ------------------------------------------------------

    def to_complex_array(self) -> np.ndarray:
        return np.array(
            [[a.to_complex() for a in r] for r in self._rows], dtype=complex
        )

    def max_abs(self) -> float:
        """Largest entry magnitude (double precision estimate)."""
        vals = [abs(a.to_complex()) for r in self._rows for a in r]
        return max(vals, default=0.0)

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self._rows)
        return f"Matrix[{body}]"


def _dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    acc = Scalar.zero()
    for a, b in zip(u, v):
        if not (a.is_zero() or b.is_zero()):
            acc = acc + a * b
    return acc


# -- elimination -----------------------------------------------------------


def _elimination_rows(M: Matrix) -> tuple[list[list], bool]:
    """Fresh rows of M to eliminate, and whether they are its integer form."""
    form = M._integer_form()
    if form is False:
        return [list(r) for r in M.entries()], False
    return [list(ints) for ints, _ in form], True


def _forward_echelon(m: list[list], integer: bool) -> tuple[list[list], list[int], int]:
    """Fraction-free (Bareiss) forward elimination of the rows m, in place.

    Returns the echelon rows, the pivot columns and the sign of the row
    swaps: a square matrix of full rank has determinant ``sign *
    ech[-1][-1]`` divided by the product of the row scales.  Integer rows
    divide exactly with ``//``; Scalar rows divide in the field.
    """
    sign = 1
    zero, div = (0, operator.floordiv) if integer else (_ZERO, operator.truediv)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = div(row[j] * p - f * prow[j], prev)
            row[c] = zero
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, sign


def _back_substitute(ech, pivots: list[int], rhs: list, x: list) -> list:
    """Fill the pivot coordinates of x from the pivot rows of ``ech``.

    ``rhs`` holds one right-hand side per pivot row and x arrives with its
    free coordinates set.  Integer rows are divided in Fractions.
    """
    width = len(x)
    for ri in range(len(pivots) - 1, -1, -1):
        pc, row = pivots[ri], ech[ri]
        acc = rhs[ri]
        for j in range(pc + 1, width):
            if row[j] and x[j]:
                acc = acc - row[j] * x[j]
        p = row[pc]
        if not acc:
            x[pc] = 0
        else:
            x[pc] = Fraction(acc, p) if isinstance(p, int) else acc / p
    return x


def rank(M: Matrix) -> int:
    """Exact rank via fraction-free elimination."""
    if M.rows == 0 or M.cols == 0:
        return 0
    _, pivots, _ = _forward_echelon(*_elimination_rows(M))
    return len(pivots)


def kernel(M: Matrix) -> "Subspace":
    """Exact null space; basis vectors carry a unit at their free coordinate."""
    n = M.cols
    if M.rows == 0 or n == 0:
        return Subspace(n, Matrix.identity(n))
    ech, pivots, _ = _forward_echelon(*_elimination_rows(M))
    free = [c for c in range(n) if c not in pivots]
    basis_cols = []
    for fc in free:
        x = [0] * n
        x[fc] = 1
        basis_cols.append(_back_substitute(ech, pivots, [0] * len(pivots), x))
    return Subspace(n, Matrix.from_cols(basis_cols) if basis_cols else Matrix.zeros(n, 0))


def rational_kernel(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The :func:`kernel` basis of a matrix of Fractions, as Fraction vectors.

    A matrix given by no rows has no known width and gives no vectors.
    """
    if not rows:
        return []
    basis = kernel(Matrix.from_rows(rows)).basis
    return [[c.rational_value() for c in col] for col in basis.columns()]


def solve(A: Matrix, B: Matrix) -> Matrix | None:
    """Exact solution X of A X = B, or None when inconsistent.

    For a singular consistent system the free variables are set to zero.
    """
    n, k = A.rows, A.cols
    fa = A._integer_form()
    fb = fa is not False and B._integer_form()
    if fb is False:
        aug = [list(ra + rb) for ra, rb in zip(A.entries(), B.entries())]
    else:  # each augmented row times the product of its two scales
        aug = [[x * lb for x in ra] + [x * la for x in rb] for (ra, la), (rb, lb) in zip(fa, fb)]
    ech, pivots, _ = _forward_echelon(aug, fb is not False)
    pivots = [p for p in pivots if p < k]
    # a nonzero right-hand side below the coefficient rank is inconsistent
    for i in range(len(pivots), n):
        if any(ech[i][j] for j in range(k, k + B.cols)):
            return None
    cols = [
        _back_substitute(ech, pivots, [row[k + bc] for row in ech], [0] * k)
        for bc in range(B.cols)
    ]
    return Matrix.from_cols(cols)


# -- subspaces and basis changes ---------------------------------------------


@dataclass(frozen=True)
class BasisChange:
    """An invertible matrix with its inverse computed once and verified."""

    matrix: Matrix
    inverse: Matrix

    def __post_init__(self):
        if not (self.matrix * self.inverse) == Matrix.identity(self.matrix.rows):
            raise ValueError("inverse does not verify against the matrix")

    @staticmethod
    def of(P: Matrix) -> "BasisChange":
        return BasisChange(P, P.inverse())


def _has_private_rows(M: Matrix) -> bool:
    """True when every column has a private row, one where it alone is nonzero.

    A combination of the columns that vanishes is zero in each column's
    private row, so its coefficients are all zero: the columns are
    independent, certified without elimination.
    """
    found = set()
    for row in M.entries():
        nonzero = [j for j, a in enumerate(row) if a]
        if len(nonzero) == 1:
            found.add(nonzero[0])
    return len(found) == M.cols


@dataclass(frozen=True)
class Subspace:
    """Span of the columns of ``basis`` inside an ambient exact space."""

    ambient: int
    basis: Matrix

    def __post_init__(self):
        if self.basis.cols and self.basis.rows != self.ambient:
            raise ValueError("basis vectors have wrong length")
        cols = self.basis.cols
        if cols and not _has_private_rows(self.basis) and rank(self.basis) != cols:
            raise ValueError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return self.basis.cols

    @staticmethod
    def span(ambient: int, vectors: Sequence[Sequence[Scalar]]) -> "Subspace":
        """Canonical subspace spanned by the given (column) vectors."""
        if not vectors:
            return Subspace(ambient, Matrix.zeros(ambient, 0))
        reduced = row_reduce_basis([tuple(v) for v in vectors])
        if not reduced:
            return Subspace(ambient, Matrix.zeros(ambient, 0))
        return Subspace(ambient, Matrix.from_cols(reduced))

    def canonical(self) -> "Subspace":
        return Subspace.span(self.ambient, self.basis.columns())

    def contains(self, v: Sequence[Scalar]) -> bool:
        if self.dim == 0:
            return all(x.is_zero() for x in v)
        aug = self.basis.hstack(Matrix.from_cols([list(v)]))
        return rank(aug) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace) or self.ambient != other.ambient:
            return NotImplemented
        return self.canonical().basis == other.canonical().basis


class RowEchelon:
    """Reduced row-echelon basis of a span, grown one vector at a time.

    Inserting a vector reduces it against the rows kept so far, so testing a
    candidate for independence costs one reduction, not a full rank.
    """

    def __init__(self):
        self._rows: list[list[Scalar]] = []
        self._pivots: list[int] = []

    def insert(self, v: Sequence[Scalar]) -> bool:
        """Add v to the span; False (and nothing kept) when v already lies in it."""
        row = list(v)
        for p, prow in zip(self._pivots, self._rows):
            f = row[p]
            if f:
                row = [a - f * b if b else a for a, b in zip(row, prow)]
        lead = next((j for j, a in enumerate(row) if a), None)
        if lead is None:
            return False
        inv = row[lead].inverse()
        row = [a * inv for a in row]
        for idx, other in enumerate(self._rows):
            f = other[lead]
            if f:
                self._rows[idx] = [a - f * b if b else a for a, b in zip(other, row)]
        self._rows.append(row)
        self._pivots.append(lead)
        return True

    def basis(self) -> list[Vector]:
        """The reduced rows in order of their pivot columns."""
        order = sorted(range(len(self._rows)), key=self._pivots.__getitem__)
        return [tuple(self._rows[idx]) for idx in order]


def row_reduce_basis(vectors: Sequence[Vector]) -> list[Vector]:
    """Reduced-echelon basis of the span (vectors treated as rows)."""
    ech = RowEchelon()
    for v in vectors:
        ech.insert(v)
    return ech.basis()


def restrict(A: Matrix, basis: Matrix) -> Matrix:
    """Matrix of A restricted to the A-invariant span of the basis columns.

    Raises NotInvariant when some basis image leaves the span.
    """
    if basis.cols == 0:
        return Matrix.zeros(0, 0)
    target = A * basis
    sol = solve(basis, target)
    if sol is None or basis * sol != target:
        # locate the offending column for the error report
        for j in range(basis.cols):
            col = Matrix.from_cols([list(target.col(j))])
            col_sol = solve(basis, col)
            if col_sol is None:
                raise NotInvariant(j, "exact solve inconsistent")
            resid = basis * col_sol - col
            if not resid.is_zero():
                raise NotInvariant(j, [str(x) for x in resid.col(0)])
        raise NotInvariant(-1, "inconsistent restriction")
    return sol
