import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import FIXTURE_NAMES, fixture_by_name, random_integer_matrix, random_scalar
from lindyn import linalg
from lindyn.errors import InvarianceViolation, NotInvariant
from lindyn.linalg import (
    Matrix,
    Subspace,
    as_vector,
    kernel,
    rank,
    rational_kernel,
    restrict,
    solve,
)
from lindyn.numeric import NumericContext, as_complex, nrank, nsolve_cols, to_numeric
from lindyn.scalars import Scalar, parse_scalar


def radical_rows():
    return Matrix.from_rows([["1", "1"], ["sqrt(3)", "sqrt(2)"], ["sqrt(2)", "1"]])


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(3)) == 3

    def test_zero(self):
        assert rank(Matrix.zeros(4, 4)) == 0

    def test_radical_rows(self):
        M = radical_rows()
        assert rank(M) == 2
        # oracle: the top-left 2x2 minor 1*sqrt(2) - 1*sqrt(3) is nonzero
        minor = parse_scalar("sqrt(2)-sqrt(3)")
        assert not minor.is_zero()

    def test_rank_nullity(self, rng):
        for _ in range(30):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            M = Matrix.from_rows(
                [[random_scalar(rng, radicands=(2,)) for _ in range(m)] for _ in range(n)]
            )
            assert rank(M) + kernel(M).dim == m


class TestKernel:
    def test_unipotent_cube(self):
        A = Matrix.from_rows([["1", "0", "0"], ["0", "1", "0"], ["1", "0", "1"]])
        N = A - Matrix.identity(3)
        # oracle: the cube of the strictly lower part vanishes identically
        assert (N * N * N).is_zero()
        assert kernel(N.power(3)).dim == 3

    def test_kernel_identity(self):
        assert kernel(Matrix.identity(4)).dim == 0

    def test_kernel_diag(self):
        K = kernel(Matrix.from_rows([["0", "0"], ["0", "1"]]))
        assert K.dim == 1
        assert [str(x) for x in K.basis.col(0)] == ["1", "0"]

    def test_kernel_vectors_annihilated(self, rng):
        for _ in range(20):
            M = random_integer_matrix(rng, 4)
            K = kernel(M)
            for j in range(K.dim):
                img = M.matvec(K.basis.col(j))
                assert all(x.is_zero() for x in img)


class TestPower:
    def test_matches_repeated_products(self):
        rng = random.Random(7)
        for _ in range(3):
            A = Matrix.zeros(3, 3)
            while A.det().is_zero():
                A = Matrix.from_rows([[random_scalar(rng, radicands=(2,)) for _ in range(3)]
                                      for _ in range(3)])
            inv = A.inverse()
            for k in range(-3, 10):
                # oracle: |k| products of A, or of its inverse for negative k
                expected = Matrix.identity(3)
                for _ in range(abs(k)):
                    expected = expected * (A if k > 0 else inv)
                assert A.power(k) == expected, k
            assert A.power(1) == A and A.power(-1) * A == Matrix.identity(3)


class TestRestrict:
    def setup_method(self):
        self.A = Matrix.from_rows(
            [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["sqrt(2)-1", "1", "0", "1"],
            ]
        )
        self.B = Matrix.from_rows(
            [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["1", "0", "0", "1"],
            ]
        )
        u = as_vector([1, 1, 0, 0])
        e4 = as_vector([0, 0, 0, 1])
        self.H = Subspace(4, Matrix.from_cols([list(u), list(e4)]))

    def test_restriction_values(self):
        RA = restrict(self.A, self.H.basis)
        RB = restrict(self.B, self.H.basis)
        assert RA == Matrix.from_rows([["1", "0"], ["sqrt(2)", "1"]])
        assert RB == Matrix.from_rows([["1", "0"], ["1", "1"]])

    def test_restrict_identity(self):
        assert restrict(Matrix.identity(4), self.H.basis) == Matrix.identity(2)

    def test_not_invariant(self):
        bad = Subspace(4, Matrix.from_cols([[Scalar.one(), Scalar.zero(), Scalar.zero(), Scalar.zero()]]))
        with pytest.raises(NotInvariant):
            restrict(self.A, bad.basis)

    def test_functorial(self):
        RA = restrict(self.A, self.H.basis)
        RB = restrict(self.B, self.H.basis)
        assert restrict(self.A * self.B, self.H.basis) == RA * RB

    def test_defining_equation(self):
        RA = restrict(self.A, self.H.basis)
        assert (self.H.basis * RA) == (self.A * self.H.basis)


class TestBasisChangeAndBackends:
    def test_inverse_cached_identity(self):
        P = Matrix.from_rows([["1", "2", "0"], ["0", "1", "sqrt(2)"], ["1", "0", "1"]])
        assert (P * P.inverse()) == Matrix.identity(3)

    def test_exact_vs_numeric_rank_on_fixtures(self):
        ctx = NumericContext()
        for name in FIXTURE_NAMES:
            for g in fixture_by_name(name)[0].generators:
                assert rank(g) == nrank(to_numeric(g, ctx), ctx)
        M = radical_rows()
        assert rank(M) == nrank(to_numeric(M, ctx), ctx) == 2

    def test_numeric_rank_high_precision_agrees(self):
        ctx = NumericContext(precision=128)
        M = radical_rows()
        assert nrank(to_numeric(M, ctx), ctx) == 2

    def test_high_precision_solve_on_coordinate_basis(self):
        # a pivot with zero real part divided by zero inside mpmath.qr_solve
        ctx = NumericContext(precision=128)
        B = to_numeric(Matrix.from_rows([[0], [0], [1]]), ctx)
        X, resid = nsolve_cols(B, B * 3, ctx)
        assert abs(as_complex(X[0, 0]) - 3) < 1e-30
        assert resid < 1e-30

    def test_high_precision_solve_rejects_dependent_basis(self):
        ctx = NumericContext(precision=128)
        B = to_numeric(Matrix.from_rows([[1, 2], [1, 2], [0, 0]]), ctx)
        with pytest.raises(InvarianceViolation):
            nsolve_cols(B, B, ctx)

    def test_solve_consistency(self, rng):
        for _ in range(10):
            A = random_integer_matrix(rng, 4)
            X = random_integer_matrix(rng, 4)
            B = A * X
            sol = solve(A, B)
            assert sol is not None
            assert (A * sol) == B


# -- integer elimination against a Fraction Gauss-Jordan oracle ---------------


def _gauss_jordan(rows):
    """Reduced row-echelon form over Fraction: (rref, pivot columns, det)."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots, det, r = [], Fraction(1), 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            det = -det
        pv = m[r][c]
        det *= pv
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots, det if r == nrows == ncols else Fraction(0)


def _oracle_kernel(rows, n):
    rref, pivots, _ = _gauss_jordan(rows)
    vecs = []
    for fc in (c for c in range(n) if c not in pivots):
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            x[pc] = -rref[ri][fc]
        vecs.append(x)
    return Matrix.from_cols(vecs) if vecs else Matrix.zeros(n, 0)


def _oracle_solve(a_rows, b_rows, k):
    rref, pivots, _ = _gauss_jordan([ra + rb for ra, rb in zip(a_rows, b_rows)])
    if any(p >= k for p in pivots):
        return None
    cols = []
    for bc in range(len(b_rows[0])):
        x = [Fraction(0)] * k
        for ri, pc in enumerate(pivots):
            x[pc] = rref[ri][k + bc]
        cols.append(x)
    return Matrix.from_cols(cols)


def _fraction_matmul(A, B, cols):
    return [[sum((row[t] * B[t][j] for t in range(len(B))), Fraction(0)) for j in range(cols)]
            for row in A]


def _random_rational_rows(rng, r, c):
    """Entries with small denominators, many zeros, a chance of low rank and
    of an all-zero row or column."""
    def entry():
        if rng.random() < 0.4:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 6]))

    if r and c and rng.random() < 0.4:
        k = rng.randint(0, min(r, c))
        rows = [[entry() for _ in range(k)] for _ in range(r)]
        rows = _fraction_matmul(rows, [[entry() for _ in range(c)] for _ in range(k)], c)
    else:
        rows = [[entry() for _ in range(c)] for _ in range(r)]
    if r and rng.random() < 0.2:
        rows[rng.randrange(r)] = [Fraction(0)] * c
    if c and rng.random() < 0.2:
        j = rng.randrange(c)
        for row in rows:
            row[j] = Fraction(0)
    return rows


class TestIntegerElimination:
    SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1),
              (2, 5), (5, 2), (3, 3), (4, 4), (5, 5), (6, 4)]

    def test_agrees_with_fraction_oracle(self):
        rng = random.Random(314159)
        for _ in range(12):
            for r, c in self.SHAPES:
                rows = _random_rational_rows(rng, r, c)
                M = Matrix.from_rows(rows)
                if r == 0:  # a matrix with no rows also has no columns
                    assert rank(M) == 0
                    assert rational_kernel(rows) == []
                    continue
                assert M._integer_form() is not False
                _, pivots, det = _gauss_jordan(rows)
                assert rank(M) == len(pivots)
                assert kernel(M).basis == _oracle_kernel(rows, c)
                assert rational_kernel(rows) == [
                    [x.rational_value() for x in col]
                    for col in _oracle_kernel(rows, c).columns()
                ]
                if r == c:
                    assert M.det() == Scalar.from_fraction(det)
                if c == 0:
                    continue
                consistent = _fraction_matmul(rows, _random_rational_rows(rng, c, 2), 2)
                arbitrary = _random_rational_rows(rng, r, 2)
                for b_rows in (consistent, arbitrary):
                    expected = _oracle_solve(rows, b_rows, c)
                    got = solve(M, Matrix.from_rows(b_rows))
                    assert (got is None) == (expected is None)
                    if expected is not None:
                        assert got == expected

    def test_inconsistent_system(self):
        A = Matrix.from_rows([[1, 2], [2, 4]])
        assert solve(A, Matrix.from_rows([[1], [3]])) is None
        assert solve(A, Matrix.from_rows([[1], [2]])) == Matrix.from_rows([[1], [0]])

    def test_single_radical_entry_takes_the_scalar_path(self):
        M = Matrix.from_rows([["1", "1/2", "0"], ["2", "sqrt(2)", "1"], ["3", "1", "0"]])
        assert M._integer_form() is False
        # cofactor expansion along the last column: -1 * (1*1 - 1/2*3)
        assert M.det() == Scalar.from_fraction(Fraction(1, 2))
        assert rank(M) == 3
        S = M.vstack(Matrix.from_rows([[0, 0, 0]]))
        assert rank(S) == 3 and kernel(S).dim == 0
        # the top two rows leave a kernel with a unit at the free column
        K = kernel(M.submatrix([0, 1], [0, 1, 2]))
        assert K.basis == Matrix.from_cols([["1/2 + 1/2*sqrt(2)", "-1 - sqrt(2)", "1"]])
        B = Matrix.from_rows([[1], [0], [2]])
        X = solve(M, B)
        assert M * X == B
        assert X == M.inverse() * B


def _scalar_product(A: Matrix, B: Matrix) -> Matrix:
    """A * B entry by entry in Scalar arithmetic, the oracle for the integer product."""
    return Matrix([[sum((a * b for a, b in zip(row, col)), Scalar.zero())
                    for col in B.columns()] for row in A.entries()])


def _wide_rational_rows(rng, r, c):
    """Sparse entries with numerators up to 2^200 and denominators up to 2^60."""
    def entry():
        if rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-2**rng.randint(1, 200), 2**200),
                        rng.randint(1, 2**rng.randint(1, 60)))

    return [[entry() for _ in range(c)] for _ in range(r)]


class TestIntegerProduct:
    """Rational products run on cached integer rows; any other runs on Scalars."""

    def test_agrees_with_scalar_oracle(self):
        rng = random.Random(271828)
        for _ in range(10):
            for r, k, c in [(1, 1, 1), (2, 3, 4), (4, 3, 2), (5, 5, 5), (3, 6, 1), (6, 2, 6)]:
                for make in (_random_rational_rows, _wide_rational_rows):
                    A = Matrix.from_rows(make(rng, r, k))
                    B = Matrix.from_rows(make(rng, k, c))
                    assert A._integer_form() is not False
                    assert A * B == _scalar_product(A, B)
                    v = B.col(0)
                    assert A.matvec(v) == _scalar_product(A, Matrix.from_cols([v])).col(0)
                    assert Matrix.identity(r) * A == A == A * Matrix.identity(k)
                    # results of transpose, hstack and submatrix carry no stale form
                    At, Bt = A.transpose(), B.transpose()
                    assert Bt * At == _scalar_product(Bt, At) == (A * B).transpose()
                    AB = A.hstack(A)
                    assert AB * B.vstack(B) == _scalar_product(AB, B.vstack(B))
                    S = A.submatrix(range(r - 1, -1, -1), range(k))
                    assert S * B == _scalar_product(S, B)

    def test_empty_shapes(self):
        tall = Matrix([[]] * 3)  # 3x0
        assert tall * Matrix([]) == tall
        assert tall.matvec(()) == (Scalar.zero(),) * 3
        M = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert M * tall == Matrix([[]] * 2)
        assert Matrix([]) * Matrix([]) == Matrix([])

    def test_non_rational_entry_takes_the_scalar_path(self, monkeypatch):
        calls = []
        original = linalg._dot

        def counting(u, v):
            calls.append(1)
            return original(u, v)

        monkeypatch.setattr(linalg, "_dot", counting)
        rng = random.Random(161803)
        Q = Matrix.from_rows(_random_rational_rows(rng, 3, 3))
        Q * Q
        Q.matvec(Q.col(1))
        assert calls == []
        for odd in ("sqrt(2)", "1/2*i"):
            rows = _random_rational_rows(rng, 3, 3)
            rows[1][2] = odd
            R = Matrix.from_rows(rows)
            assert R._integer_form() is False
            for A, B in ((R, Q), (Q, R), (R, R)):
                calls.clear()
                assert A * B == _scalar_product(A, B)
                assert A.matvec(B.col(2)) == _scalar_product(A, B).col(2)
                assert len(calls) == 9 + 3


class TestIndependenceCertificate:
    """Subspace bases are checked by private rows first, by rank otherwise."""

    def test_dependent_bases_raise(self):
        for cols in (
            [[1, 2, 3], [0, 0, 0]],              # a zero column
            [[1, 2, 3], [1, 2, 3]],              # a repeated column
            [[1, 1, 0], [0, 1, 1], [1, 2, 1]],   # c3 = c1 + c2, no private row
            [[1, 0, 0], [0, 1, 1], [0, 2, 2]],   # only c1 has a private row
        ):
            with pytest.raises(ValueError, match="dependent"):
                Subspace(3, Matrix.from_cols(cols))

    def test_basis_without_private_rows_goes_through_rank(self, monkeypatch):
        calls = []

        def counting_rank(M):
            calls.append(M)
            return rank(M)

        monkeypatch.setattr(linalg, "rank", counting_rank)
        assert Subspace(2, Matrix.from_rows([[1, 1], [1, -1]])).dim == 2
        assert len(calls) == 1

    def test_kernel_and_span_never_call_rank(self, monkeypatch):
        def no_rank(M):
            raise AssertionError("rank called")

        monkeypatch.setattr(linalg, "rank", no_rank)
        rng = random.Random(2718)
        for _ in range(60):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            rows = _random_rational_rows(rng, r, c)
            if rng.random() < 0.3:
                rows[0] = [random_scalar(rng, radicands=(2,)) for _ in range(c)]
            M = Matrix.from_rows(rows)
            # the module-level rank is the unpatched function
            assert kernel(M).dim == c - rank(M)
            assert Subspace.span(c, M.entries()).dim == rank(M)
            assert Subspace.span(r, M.columns()).dim == rank(M)
