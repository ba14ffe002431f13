"""Exact matrices and subspaces over the radical scalar field.

A matrix whose entries are all rational has one integer form, its canonical
integer rows: each row times the lcm of its entries' reduced denominators,
with that lcm.  Rational results are born in this form: ``*``, ``+``, ``-``
and ``scale`` by a rational, the stacks, ``transpose``, ``submatrix``,
``identity`` and ``zeros``, ``kernel`` and ``solve`` on the integer path
(whose back-substitution gives the rows directly), and
``restrict``'s read-off of a rational basis.  Such a matrix builds its
Scalar rows only when an entry is read.  A matrix made from Scalars (the
input, or a basis built from read vectors) computes its integer form on
first use.  Whichever way a matrix was made, the rule is the same: when it
is rational, every operation above, ``==``, ``is_zero``,
``is_lower_triangular`` and the private-row search run on its ints.

A product of two rational matrices sums, in ints, the rows of the right one
(at one common scale) that the left one's nonzero entries select, and
divides each result row by the gcd of its ints and its scale.  Any other
product, and ``matvec`` with any non-rational operand, runs on term forms,
also computed once per matrix: each entry as its (basis key, int) pairs at the row's common denominator,
the lcm over all of the row's terms.  The ints are summed per (row, column,
key) through the key product's integer cofactor, again with one Fraction per
nonzero result term.

One fraction-free (Bareiss) forward elimination on integers, which avoids
coefficient blow-up, serves rank and independence (the pivot columns,
:func:`independent_columns`), reduced row-echelon bases
(:func:`row_space_basis`), kernel, solve and determinant; no other module
eliminates.  A rational matrix is eliminated on its integer form, any other
on its term form with each entry a ring element: its ints over the basis
elements sqrt(d) i^e, whose span over Z is closed under products.  Scaling
rows changes neither the pivot columns, the kernel nor the solution of an
augmented system.  Each update divides exactly by the previous pivot, as
Bareiss's method allows in any integral domain: an int with ``//``, a ring
element by multiplying with the pivot's adjugate (the product of its
nontrivial conjugates under i -> -i and sqrt(p) -> -sqrt(p)) and dividing
each int by the norm, pivot times adjugate; one adjugate per pivot step.
Reduced bases, kernels and solves finish with back-substitution at the
scale of the last pivot's norm, where by Cramer's rule every coordinate is
again an int or a ring element.  No Fraction is made there: a rational
result's canonical integer rows are read off, and each ring entry becomes
one Scalar.  Basis vectors have unit entries at their free coordinates (a
kernel's) or pivots (a reduced basis's), which keeps every derived basis
deterministic.

:meth:`Matrix.charpoly` is Berkowitz's division-free recursion, on the ints
of a rational matrix at one common scale and on Scalars otherwise, and
:func:`squarefree_factors` splits its result by Yun's exact gcds.

A private row of a column is a row where that column alone is nonzero
(:func:`_private_rows`).  Kernel bases (a unit at each free coordinate) and
reduced-echelon span bases (a unit at each pivot) have one per column, and
so do the block bases of the spectral refinement, which are products of
kernel bases.  A :class:`Subspace` whose basis has them is independent, at
the cost of one pass over the entries; only other bases pay for a rank.
:func:`restrict` reads the restricted matrix off the private rows of ``A
basis`` and eliminates only for a basis without them, such as the
triangular bases of the invariant family; either way it checks ``basis X ==
A basis`` exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import NotInvariant
from .scalars import (
    _RATIONAL_KEY,
    Key,
    Scalar,
    _adjugate,
    _mul_key,
    _ring_mul,
    _ring_mul_add,
    parse_scalar,
)

Vector = tuple[Scalar, ...]
# a rational row as ints at one scale, the lcm of its reduced denominators, with it
IntRow = tuple[list[int], int]
# a row's entries as (key, int) pairs at one common denominator, with it
TermRow = tuple[list[tuple[tuple[Key, int], ...]], int]

_ZERO = Scalar.zero()
_ONE = Scalar.one()
_RING_ZERO: dict[Key, int] = {}
_RING_ONE: dict[Key, int] = {_RATIONAL_KEY: 1}


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


def _fraction_row(row: Sequence[Fraction | int]) -> IntRow:
    """A row of ints and Fractions times the lcm of its denominators, with
    that lcm: its canonical integer row."""
    lcm = math.lcm(*(q.denominator for q in row))
    return [q.numerator * (lcm // q.denominator) for q in row], lcm


def _integer_row(row: Sequence[Scalar]) -> IntRow | None:
    """The canonical integer row of a row of Scalars; None when some entry is
    not rational."""
    fracs = [a.rational_value() for a in row]
    return None if any(q is None for q in fracs) else _fraction_row(fracs)


def _canonical_row(ints: list[int], den: int) -> IntRow:
    """The row ``ints / den`` as its canonical integer row: both divided by
    their gcd, which leaves den the lcm of the entries' reduced denominators."""
    g = math.gcd(den, *ints)
    return (ints, den) if g == 1 else ([a // g for a in ints], den // g)


def _term_row(row: Sequence[Scalar]) -> TermRow:
    """Each entry of the row as its (key, int) pairs at one scale, the lcm of
    the denominators of all the row's terms, with that lcm."""
    lcm = math.lcm(*(c.denominator for a in row for c in a._terms.values()))
    return [tuple((k, c.numerator * (lcm // c.denominator)) for k, c in a._terms.items())
            for a in row], lcm


def _term_product(fa: list[TermRow], fb: list[TermRow], width: int) -> list[list[Scalar]]:
    """The rows of A B, with ``width`` columns, from the term rows of A and B.

    The rows of B are brought to one common scale.  A term of A[i][t] times
    a term of B[t][j] is an int times one basis element (its ``_mul_key``
    cofactor folded in), summed into row i's int for (j, key); each nonzero
    sum becomes one Fraction.
    """
    scale = math.lcm(*(lb for _, lb in fb))
    sparse = [[(j, k, b * (scale // lb)) for j, entry in enumerate(entries) for k, b in entry]
              for entries, lb in fb]
    by_key: dict[tuple[int, Key], list] = {}  # (t, key of A's term) -> [((j, key), int)]
    rows = []
    for entries, la in fa:
        acc: dict[tuple[int, Key], int] = {}
        for t, entry in enumerate(entries):
            for k1, a in entry:
                products = by_key.get((t, k1))
                if products is None:
                    products = by_key[t, k1] = []
                    for j, k2, b in sparse[t]:
                        key, cofactor = _mul_key(k1, k2)
                        products.append(((j, key), b * cofactor))
                for jk, b in products:
                    acc[jk] = acc.get(jk, 0) + a * b
        den = la * scale
        out: list[dict[Key, Fraction]] = [{} for _ in range(width)]
        for (j, key), x in sorted(acc.items()):  # each entry's keys in sorted order
            if x:
                out[j][key] = Fraction(x, den)
        rows.append([Scalar._canonical(terms) if terms else _ZERO for terms in out])
    return rows


def as_vector(entries: Iterable) -> Vector:
    return tuple(_to_scalar(x) for x in entries)


class Matrix:
    """Immutable matrix with Scalar entries.

    A rational matrix made by an operation on rational matrices holds only
    its integer rows; its Scalar rows are built when an entry is first read.
    """

    __slots__ = ("_rows", "_ints", "_term_rows")

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        self._rows = tuple(tuple(row) for row in rows)
        self._ints = None
        self._term_rows = None
        if self._rows:
            w = len(self._rows[0])
            if any(len(r) != w for r in self._rows):
                raise ValueError("ragged rows")

    @staticmethod
    def _of_ints(form: list[IntRow]) -> "Matrix":
        """The matrix of the given canonical integer rows, with no Scalar rows yet."""
        M = object.__new__(Matrix)
        M._rows = None
        M._ints = form
        M._term_rows = None
        return M

    def _integer_form(self) -> list[IntRow] | bool:
        """The canonical integer rows, computed once; False unless all entries are rational."""
        if self._ints is None:
            form = []
            for row in self._rows:
                ints = _integer_row(row)
                if ints is None:
                    form = False
                    break
                form.append(ints)
            self._ints = form
        return self._ints

    def _term_form(self) -> list[TermRow]:
        """The :func:`_term_row` of each row, computed once."""
        if self._term_rows is None:
            if self._rows is None:
                self._term_rows = [([((_RATIONAL_KEY, a),) if a else () for a in ints], den)
                                   for ints, den in self._ints]
            else:
                self._term_rows = [_term_row(row) for row in self._rows]
        return self._term_rows

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
        return Matrix._of_ints([([int(i == j) for j in range(n)], 1) for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return Matrix._of_ints([([0] * c, 1) for _ in range(r)])

    # -- shape and access -------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._ints if self._rows is None else self._rows)

    @property
    def cols(self) -> int:
        if self._rows is None:
            return len(self._ints[0][0]) if self._ints else 0
        return len(self._rows[0]) if self._rows else 0

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if self._rows is None:
            ints, den = self._ints[i]
            return _rational(ints[j], den)
        return self._rows[i][j]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries())

    def columns(self) -> list[Vector]:
        return [self.col(j) for j in range(self.cols)]

    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        if self._rows is None:
            self._rows = tuple(tuple(_rational(a, den) for a in ints) for ints, den in self._ints)
        return self._rows

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, sign 1 or -1."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        fa = self._integer_form()
        fb = fa is not False and other._integer_form()
        if fb is False:
            op = operator.add if sign > 0 else operator.sub
            return Matrix([list(map(op, ra, rb)) for ra, rb in zip(self.entries(), other.entries())])
        rows = []
        for (ia, la), (ib, lb) in zip(fa, fb):
            den = math.lcm(la, lb)
            ma, mb = den // la, sign * (den // lb)
            rows.append(_canonical_row([a * ma + b * mb for a, b in zip(ia, ib)], den))
        return Matrix._of_ints(rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def scale(self, s) -> "Matrix":
        s = _to_scalar(s)
        q = s.rational_value()
        form = q is not None and self._integer_form()
        if form is False:
            return Matrix([[s * a for a in r] for r in self.entries()])
        return Matrix._of_ints([_canonical_row([a * q.numerator for a in ints], den * q.denominator)
                                for ints, den in form])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        fa = self._integer_form()
        fb = fa is not False and other._integer_form()
        if fb is False:
            return Matrix(_term_product(self._term_form(), other._term_form(), other.cols))
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
            rows.append(_canonical_row(acc, la * scale))
        return Matrix._of_ints(rows)

    def matvec(self, v: Sequence[Scalar]) -> Vector:
        fa = self._integer_form()
        fv = fa is not False and _integer_row(v)
        if not fv:
            column = [_term_row((x,)) for x in v]
            return tuple(row[0] for row in _term_product(self._term_form(), column, 1))
        vints, lv = fv
        return tuple(_rational(sum(map(operator.mul, ints, vints)), la * lv) for ints, la in fa)

    def transpose(self) -> "Matrix":
        form = self._integer_form()
        if form is False:
            rows = self.entries()
            return Matrix(list(map(list, zip(*rows)))) if rows else self
        den = math.lcm(*(lcm for _, lcm in form))
        scaled = [[a * (den // lcm) for a in ints] for ints, lcm in form]
        return Matrix._of_ints([_canonical_row(list(col), den) for col in zip(*scaled)])

    def conjugate(self) -> "Matrix":
        if self._integer_form() is not False:
            return self
        return Matrix([[a.conjugate() for a in r] for r in self._rows])

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("shape mismatch")
        fa = self._integer_form()
        fb = fa is not False and other._integer_form()
        if fb is False:
            return Matrix([ra + rb for ra, rb in zip(self.entries(), other.entries())])
        rows = []
        for (ia, la), (ib, lb) in zip(fa, fb):
            den = math.lcm(la, lb)
            rows.append(_canonical_row([a * (den // la) for a in ia] + [b * (den // lb) for b in ib],
                                       den))
        return Matrix._of_ints(rows)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.rows and other.rows and self.cols != other.cols:
            raise ValueError("shape mismatch")
        fa = self._integer_form()
        fb = fa is not False and other._integer_form()
        if fb is False:
            return Matrix(self.entries() + other.entries())
        return Matrix._of_ints(fa + fb)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        form = self._integer_form()
        if form is False:
            rows = self.entries()
            return Matrix([[rows[i][j] for j in col_idx] for i in row_idx])
        return Matrix._of_ints([_canonical_row([form[i][0][j] for j in col_idx], form[i][1])
                                for i in row_idx])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return False
        fa, fb = self._integer_form(), other._integer_form()
        if fa is False and fb is False:
            return self._rows == other._rows
        return fa == fb

    def __hash__(self):
        form = self._integer_form()
        if form is False:
            return hash(self._rows)
        return hash(tuple((tuple(ints), den) for ints, den in form))

    def is_zero(self) -> bool:
        form = self._integer_form()
        if form is not False:
            return not any(any(ints) for ints, _ in form)
        return all(a.is_zero() for r in self._rows for a in r)

    def is_real(self) -> bool:
        return self._integer_form() is not False or all(a.is_real() for r in self._rows for a in r)

    def is_lower_triangular(self) -> bool:
        form = self._integer_form()
        if form is not False:
            return not any(any(ints[i + 1:]) for i, (ints, _) in enumerate(form))
        return all(
            self._rows[i][j].is_zero()
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def constant_diagonal(self) -> Scalar | None:
        """The repeated diagonal value, or None if the diagonal varies."""
        if self.rows != self.cols or self.rows == 0:
            return None
        mu = self[0, 0]
        return mu if all(self[i, i] == mu for i in range(self.rows)) else None

    # -- elimination-based operations --------------------------------------

    def det(self) -> Scalar:
        """Determinant: the last fraction-free pivot at full rank, else 0."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return Scalar.one()
        rows, integer = _elimination_rows(self)
        ech, pivots, sign, _ = _forward_echelon(rows, integer)
        if len(pivots) < self.rows:
            return _ZERO
        last = ech[-1][-1]
        scales = math.prod(lcm for _, lcm in (self._integer_form() or self._term_form()))
        if integer:
            return _rational(sign * last, scales)
        return _ring_scalar({k: sign * c for k, c in last.items()}, scales)

    def charpoly(self) -> list:
        """Coefficients of det(xI - A), highest first: Fractions when A is
        rational, else Scalars.

        Berkowitz's division-free recursion runs on the ints of a rational A
        brought to one common scale L (A = B / L), whose polynomial's i-th
        coefficient is that of B divided by L^i, and on the Scalars otherwise.
        """
        if self.rows != self.cols:
            raise ValueError("characteristic polynomial of a non-square matrix")
        form = self._integer_form()
        if form is False:
            return [_to_scalar(c) for c in _berkowitz([list(r) for r in self._rows])]
        scale = math.lcm(*(lcm for _, lcm in form))
        poly = _berkowitz([[a * (scale // lcm) for a in ints] for ints, lcm in form])
        return [Fraction(c, scale**i) for i, c in enumerate(poly)]

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
            [[a.to_complex() for a in r] for r in self.entries()], dtype=complex
        )

    def max_abs(self) -> float:
        """Largest entry magnitude (double precision estimate)."""
        vals = [abs(a.to_complex()) for r in self.entries() for a in r]
        return max(vals, default=0.0)

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self.entries())
        return f"Matrix[{body}]"


# -- characteristic polynomial ---------------------------------------------


def _berkowitz(m: list[list]) -> list:
    """Coefficients of det(xI - m), highest first, from the ring elements m.

    Each trailing principal block [[a, R], [C, S]] multiplies the polynomial
    of S by the lower triangular Toeplitz matrix whose first column is
    1, -a, -R C, -R S C, ..., -R S^(k-1) C, k the size of S (Berkowitz 1984).
    """
    n = len(m)
    poly = [1]
    for k in range(n - 1, -1, -1):
        row, col = m[k][k + 1:], [m[i][k] for i in range(k + 1, n)]
        toeplitz = [1, -m[k][k]]
        for t in range(n - k - 1):
            if t:  # col = S^t C
                col = [sum(map(operator.mul, m[i][k + 1:], col)) for i in range(k + 1, n)]
            toeplitz.append(-sum(map(operator.mul, row, col)))
        product = [0] * len(toeplitz)
        for j, p in enumerate(poly):
            for i, t in enumerate(toeplitz[:len(product) - j]):
                product[i + j] += t * p
        poly = product
    return poly


# Polynomials over the field of their coefficients (Fractions or Scalars) are
# coefficient lists, highest first, with no leading zero; [] is 0.


def _strip(f: list) -> list:
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    return f[i:]


def _monic(f: list) -> list:
    return f if f[0] == 1 else [c / f[0] for c in f]


def _derivative(f: list) -> list:
    d = len(f) - 1
    return [c * (d - i) for i, c in enumerate(f[:-1])]


def _difference(f: list, g: list) -> list:
    width = max(len(f), len(g))
    f = [0] * (width - len(f)) + f
    g = [0] * (width - len(g)) + g
    return _strip([a - b for a, b in zip(f, g)])


def _divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder of f by a monic g."""
    r = list(f)
    steps = len(f) - len(g) + 1
    for i in range(steps):
        if q := r[i]:
            for j in range(1, len(g)):
                r[i + j] = r[i + j] - q * g[j]
    return r[:max(steps, 0)], _strip(r[max(steps, 0):])


def _gcd(f: list, g: list) -> list:
    """The monic gcd of f and g, not both 0, by Euclid's algorithm."""
    while g:
        f, g = g, _divmod(f, _monic(g))[1]
    return _monic(f)


def squarefree_factors(f: list) -> list[tuple[list, int]]:
    """Yun's squarefree factorization of a monic f of degree >= 1.

    Returns (a_k, k) for each a_k of degree >= 1, k increasing: the a_k are
    monic, squarefree and pairwise coprime, and f is the product of the
    a_k^k.  Every step is an exact gcd or an exact division in the field of
    f's coefficients (Yun 1976).
    """
    df = _derivative(f)
    g = _gcd(f, df)
    b, c = _divmod(f, g)[0], _divmod(df, g)[0]
    out, k = [], 1
    while len(b) > 1:
        d = _difference(c, _derivative(b))
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, k))
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        k += 1
    return out


# -- elimination -----------------------------------------------------------


def _elimination_rows(M: Matrix) -> tuple[list[list], bool]:
    """Fresh rows of M to eliminate, and whether they are its integer form;
    otherwise they are its term form, each entry a ring element."""
    form = M._integer_form()
    if form is False:
        return [[dict(entry) for entry in entries] for entries, _ in M._term_form()], False
    return [list(ints) for ints, _ in form], True


def _ring_scalar(x: dict[Key, int], den: int) -> Scalar:
    """The Scalar x / den of a ring element x and a positive int den."""
    return Scalar._canonical({k: Fraction(c, den) for k, c in sorted(x.items())})


def _ring_combination(x: dict, a: dict, y: dict, b: dict, norm: int) -> dict:
    """(x a - y b) / norm for ring elements, when norm divides it."""
    acc: dict[Key, int] = {}
    _ring_mul_add(acc, x, a, 1)
    _ring_mul_add(acc, y, b, -1)
    return {k: v // norm for k, v in acc.items() if v}


def _forward_echelon(m: list[list], integer: bool) -> tuple[list[list], list[int], int, list]:
    """Fraction-free (Bareiss) forward elimination of the rows m, in place.

    Returns the echelon rows, the pivot columns, the sign of the row swaps
    and the adjugates it computed: a square matrix of full rank has
    determinant ``sign * ech[-1][-1]`` divided by the product of the row
    scales.  Each update divides exactly by the previous pivot, which every
    entry's being a minor of m guarantees: ints with ``//``, ring elements
    by multiplying with the previous pivot's adjugate and dividing each int
    by its norm.  That (adjugate, norm) is computed once per pivot step and
    listed, in pivot order, for back-substitution.
    """
    sign = 1
    zero = 0 if integer else _RING_ZERO
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    adjugates: list[tuple[dict, int]] = []
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
        if not integer and r + 1 < nrows:
            if r:
                adjugates.append(_adjugate(prev))
            adj, norm = adjugates[-1] if r else (_RING_ONE, 1)
            pa = _ring_mul(adj, p)
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            if integer:
                for j in range(c + 1, ncols):
                    row[j] = (row[j] * p - f * prow[j]) // prev
            else:
                fa = _ring_mul(adj, f)
                for j in range(c + 1, ncols):
                    row[j] = _ring_combination(row[j], pa, prow[j], fa, norm)
            row[c] = zero
        prev = p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, sign, adjugates


def _back_substitute(ech, pivots: list[int], adjugates: list, rhs: list[list],
                     units: list[list[bool]], integer: bool) -> tuple[list[list], int]:
    """Solve the pivot rows of ``ech`` once per right-hand side ``rhs[c]``
    (its value per pivot row), with 1 at each free coordinate that
    ``units[c]`` marks and 0 at the others.

    Every coordinate is carried times N, the norm of d, the last pivot (|d|
    for an int; ``adjugates`` holds those of the first pivots, and the rest
    are computed here, once per pivot).  d is the determinant of the pivot
    rows and columns, so by Cramer's rule d x is a minor, and N x = adj(d)
    (d x) is an int or ring element: each pivot divides exactly.  Returns
    the columns as numerators over N.
    """
    width = len(units[0]) if units else 0
    if integer:
        norm = abs(ech[len(pivots) - 1][pivots[-1]]) if pivots else 1
    else:
        adjugates = adjugates + [_adjugate(ech[ri][pivots[ri]])
                                 for ri in range(len(adjugates), len(pivots))]
        norm = adjugates[-1][1] if pivots else 1
    zero, unit = (0, norm) if integer else (_RING_ZERO, {_RATIONAL_KEY: norm})
    xs = [[unit if u else zero for u in x] for x in units]
    for ri in range(len(pivots) - 1, -1, -1):
        pc, row = pivots[ri], ech[ri]
        p = row[pc]
        tail = [j for j in range(pc + 1, width) if row[j]]
        if integer:
            for x, b in zip(xs, rhs):
                acc = b[ri] * norm
                for j in tail:
                    if x[j]:
                        acc -= row[j] * x[j]
                x[pc] = acc // p
            continue
        adj, n = adjugates[ri]
        unit_adj = _ring_mul(unit, adj)
        tail = [(j, _ring_mul(adj, row[j])) for j in tail]
        for x, b in zip(xs, rhs):
            acc: dict[Key, int] = {}
            _ring_mul_add(acc, b[ri], unit_adj, 1)
            for j, a in tail:
                _ring_mul_add(acc, a, x[j], -1)
            x[pc] = {k: v // n for k, v in acc.items() if v}
    return xs, norm


def independent_columns(M: Matrix) -> list[int]:
    """The pivot columns of M's echelon form: the first maximal independent
    set of M's columns, in order."""
    if M.rows == 0 or M.cols == 0:
        return []
    return _forward_echelon(*_elimination_rows(M))[1]


def rank(M: Matrix) -> int:
    """Exact rank via fraction-free elimination."""
    return len(independent_columns(M))


def row_space_basis(M: Matrix) -> Matrix:
    """The reduced row-echelon basis of M's row space, as the columns of a matrix.

    Row i of the reduced form holds, at each column j, the coefficient of
    the i-th pivot column in column j: the solution of the pivot rows with
    column j of the echelon as right-hand side, 0 at every free coordinate.
    """
    n = M.cols
    rows, integer = _elimination_rows(M)
    ech, pivots, _, adjugates = _forward_echelon(rows, integer)
    rhs = [[row[j] for row in ech[:len(pivots)]] for j in range(n)]
    xs, den = _back_substitute(ech, pivots, adjugates, rhs, [[False] * n] * n, integer)
    return _matrix_of_cols([[x[pc] for x in xs] for pc in pivots], n, den, integer)


def kernel(M: Matrix) -> "Subspace":
    """Exact null space; basis vectors carry a unit at their free coordinate."""
    n = M.cols
    if M.rows == 0 or n == 0:
        return Subspace(n, Matrix.identity(n))
    rows, integer = _elimination_rows(M)
    ech, pivots, _, adjugates = _forward_echelon(rows, integer)
    free = [c for c in range(n) if c not in pivots]
    zero = 0 if integer else _RING_ZERO
    cols, den = _back_substitute(ech, pivots, adjugates, [[zero] * len(pivots)] * len(free),
                                 [[c == fc for c in range(n)] for fc in free], integer)
    return Subspace(n, _matrix_of_cols(cols, n, den, integer))


def rational_kernel(rows: Sequence[Sequence[Fraction]], width: int) -> list[list[Fraction]]:
    """The :func:`kernel` basis of a width-column matrix of Fractions, as Fraction vectors.

    A matrix given by no rows gives the unit vectors of Q^width.
    """
    if not rows:
        return [[Fraction(int(i == j)) for i in range(width)] for j in range(width)]
    basis = kernel(Matrix.from_rows(rows)).basis
    return [[c.rational_value() for c in col] for col in basis.columns()]


def solve(A: Matrix, B: Matrix) -> Matrix | None:
    """Exact solution X of A X = B, or None when inconsistent.

    For a singular consistent system the free variables are set to zero.
    """
    n, k = A.rows, A.cols
    fa = A._integer_form()
    fb = fa is not False and B._integer_form()
    integer = fb is not False
    # each augmented row times the product of its two scales
    if integer:
        aug = [[x * lb for x in ra] + [x * la for x in rb] for (ra, la), (rb, lb) in zip(fa, fb)]
    else:
        aug = [[{key: x * lb for key, x in e} for e in ea] +
               [{key: x * la for key, x in e} for e in eb]
               for (ea, la), (eb, lb) in zip(A._term_form(), B._term_form())]
    ech, pivots, _, adjugates = _forward_echelon(aug, integer)
    pivots = [p for p in pivots if p < k]
    # a nonzero right-hand side below the coefficient rank is inconsistent
    for i in range(len(pivots), n):
        if any(ech[i][j] for j in range(k, k + B.cols)):
            return None
    rhs = [[row[k + bc] for row in ech] for bc in range(B.cols)]
    cols, den = _back_substitute(ech, pivots, adjugates, rhs, [[False] * k for _ in rhs], integer)
    return _matrix_of_cols(cols, k, den, integer)


def _matrix_of_cols(cols: list[list], height: int, den: int, integer: bool) -> Matrix:
    """The height-row matrix whose columns are these numerators over the
    positive int den: ints, whose canonical integer rows are read off
    directly, or ring elements, each of which becomes one Scalar.  With no
    columns it is height x 0."""
    rows = [[c[i] for c in cols] for i in range(height)]
    if integer:
        return Matrix._of_ints([_canonical_row(row, den) for row in rows])
    return Matrix([[_ring_scalar(a, den) for a in row] for row in rows])


# -- subspaces and basis changes ---------------------------------------------


class BasisChange:
    """An invertible matrix with its inverse computed once and verified."""

    __slots__ = ("matrix", "inverse")

    def __init__(self, matrix: Matrix, inverse: Matrix):
        if not (matrix * inverse) == Matrix.identity(matrix.rows):
            raise ValueError("inverse does not verify against the matrix")
        self.matrix = matrix
        self.inverse = inverse

    @staticmethod
    def of(P: Matrix) -> "BasisChange":
        return BasisChange(P, P.inverse())


def _private_rows(M: Matrix) -> list[int] | None:
    """Per column, the first row where that column alone is nonzero; None
    when some column has no such row.

    A combination of the columns that vanishes is zero in each column's
    private row, so its coefficients are all zero: the columns are
    independent, certified without elimination.
    """
    form = M._integer_form()
    rows = M.entries() if form is False else [ints for ints, _ in form]
    found: dict[int, int] = {}
    for i, row in enumerate(rows):
        nonzero = [j for j, a in enumerate(row) if a]
        if len(nonzero) == 1:
            found.setdefault(nonzero[0], i)
    return [found[j] for j in range(M.cols)] if len(found) == M.cols else None


class Subspace:
    """Span of the columns of ``basis`` inside an ambient exact space."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: Matrix):
        cols = basis.cols
        if cols and basis.rows != ambient:
            raise ValueError("basis vectors have wrong length")
        if cols and _private_rows(basis) is None and rank(basis) != cols:
            raise ValueError("basis vectors are linearly dependent")
        self.ambient = ambient
        self.basis = basis

    @staticmethod
    def _of_independent(ambient: int, basis: Matrix) -> "Subspace":
        """The span of columns already known to be independent, of length
        ambient (columns of a verified basis change), with no check."""
        sub = object.__new__(Subspace)
        sub.ambient = ambient
        sub.basis = basis
        return sub

    @property
    def dim(self) -> int:
        return self.basis.cols

    @staticmethod
    def span(ambient: int, vectors: Sequence[Sequence[Scalar]]) -> "Subspace":
        """Canonical subspace spanned by the given (column) vectors."""
        if not vectors:
            return Subspace(ambient, Matrix.zeros(ambient, 0))
        return Subspace(ambient, row_space_basis(Matrix.from_rows(vectors)))

    def contains(self, v: Sequence[Scalar]) -> bool:
        if self.dim == 0:
            return all(x.is_zero() for x in v)
        aug = self.basis.hstack(Matrix.from_cols([list(v)]))
        return rank(aug) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace) or self.ambient != other.ambient:
            return NotImplemented
        return row_space_basis(self.basis.transpose()) == row_space_basis(other.basis.transpose())


def restrict(A: Matrix, basis: Matrix) -> Matrix:
    """Matrix X of A restricted to the A-invariant span of the basis columns.

    X is the solution of ``basis X = A basis``.  When every column j has a
    private row r, row r of that system reads ``basis[r, j] X[j] = (A
    basis)[r]``, so X is read off without elimination; other bases solve
    the system.  Either way ``basis X == A basis`` is then checked exactly,
    which decides invariance: NotInvariant is raised, naming the first basis
    image that leaves the span, when it fails.
    """
    if basis.cols == 0:
        return Matrix.zeros(0, 0)
    target = A * basis
    private = _private_rows(basis)
    fb = basis._integer_form()
    ft = fb is not False and target._integer_form()
    if private is None:
        sol = solve(basis, target)
    elif ft is not False:
        # basis[r, j] is c / den, the row's only nonzero; X[j] = (A basis)[r] den / c
        rows = []
        for j, r in enumerate(private):
            c, den = fb[r][0][j], fb[r][1]
            ints, lcm = ft[r]
            if c == den:
                rows.append(ft[r])
            else:
                m = den if c > 0 else -den
                rows.append(_canonical_row([a * m for a in ints], lcm * abs(c)))
        sol = Matrix._of_ints(rows)
    else:
        image = target.entries()
        rows = []
        for j, r in enumerate(private):
            c = basis[r, j]
            if c == _ONE:
                rows.append(image[r])
            else:
                inv = c.inverse()
                rows.append([x * inv for x in image[r]])
        sol = Matrix(rows)
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
