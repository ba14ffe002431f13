import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    FIXTURE_NAMES,
    RowEchelonOracle,
    fixture_by_name,
    random_integer_matrix,
    random_scalar,
)
from lindyn import linalg
from lindyn.errors import NotInvariant
from lindyn.linalg import (
    Matrix,
    Subspace,
    as_vector,
    independent_columns,
    kernel,
    rank,
    rational_kernel,
    restrict,
    row_space_basis,
    solve,
    squarefree_factors,
)
from lindyn.numeric import NumericContext, nrank, to_numeric
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
                assert rank(g) == nrank(to_numeric(g), ctx)
        M = radical_rows()
        assert rank(M) == nrank(to_numeric(M), ctx) == 2

    def test_solve_consistency(self, rng):
        for _ in range(10):
            A = random_integer_matrix(rng, 4)
            X = random_integer_matrix(rng, 4)
            B = A * X
            sol = solve(A, B)
            assert sol is not None
            assert (A * sol) == B


# -- integer elimination against a Fraction Gauss-Jordan oracle ---------------


def _gauss_jordan(rows, one=Fraction(1)):
    """Reduced row-echelon form over the field of ``one`` (Fraction or
    Scalar): (rref, pivot columns, det)."""
    m = [[one * x for x in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots, det, r = [], one, 0
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
    return m, pivots, det if r == nrows == ncols else one * 0


def _oracle_kernel(rows, n, one=Fraction(1)):
    rref, pivots, _ = _gauss_jordan(rows, one)
    vecs = []
    for fc in (c for c in range(n) if c not in pivots):
        x = [one * 0] * n
        x[fc] = one
        for ri, pc in enumerate(pivots):
            x[pc] = -rref[ri][fc]
        vecs.append(x)
    return Matrix.from_cols(vecs) if vecs else Matrix.zeros(n, 0)


def _oracle_solve(a_rows, b_rows, k, one=Fraction(1)):
    rref, pivots, _ = _gauss_jordan([list(ra) + list(rb) for ra, rb in zip(a_rows, b_rows)], one)
    if any(p >= k for p in pivots):
        return None
    cols = []
    for bc in range(len(b_rows[0])):
        x = [one * 0] * k
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


RADICAL_KEYS = [(d, imag) for d in (1, 2, 3, 6) for imag in (False, True)]


def _radical_rows(rng, r, c, wide=False, keys=RADICAL_KEYS):
    """Sparse entries over sqrt(2), sqrt(3), sqrt(6) and i, or the given
    keys; with ``wide``, numerators up to 2^200 and denominators up to 2^60."""
    def coefficient():
        if wide:
            return Fraction(rng.randint(-2**rng.randint(1, 200), 2**200),
                            rng.randint(1, 2**rng.randint(1, 60)))
        return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))

    def entry():
        if rng.random() < 0.4:
            return Scalar.zero()
        return Scalar({k: coefficient() for k in rng.sample(keys, rng.randint(1, min(3, len(keys))))})

    return [[entry() for _ in range(c)] for _ in range(r)]


class TestIntegerProduct:
    """Rational products run on cached integer rows; any other on term rows."""

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

    def test_radical_products_agree_with_scalar_oracle(self):
        rng = random.Random(141421)
        for _ in range(6):
            for r, k, c in [(1, 1, 1), (2, 3, 4), (4, 3, 2), (5, 5, 5), (3, 6, 1), (4, 2, 0)]:
                for wide in (False, True):
                    R = Matrix.from_rows(_radical_rows(rng, r, k, wide))
                    S = Matrix.from_rows(_radical_rows(rng, k, c, wide))
                    make = _wide_rational_rows if wide else _random_rational_rows
                    Qa, Qb = Matrix.from_rows(make(rng, r, k)), Matrix.from_rows(make(rng, k, c))
                    # rational x radical, radical x rational, radical x radical
                    for A, B in ((Qa, S), (R, Qb), (R, S)):
                        assert A * B == _scalar_product(A, B)
                        if c:
                            v = B.col(c - 1)
                            assert A.matvec(v) == _scalar_product(A, Matrix.from_cols([v])).col(0)
                    # a radical matrix against a rational vector and back
                    if c:
                        assert R.matvec(Qb.col(0)) == _scalar_product(R, Qb).col(0)
                    assert R * Matrix.identity(k) == R == Matrix.identity(r) * R

    def test_empty_radical_shapes(self):
        R = Matrix.from_rows([["sqrt(2)", "i"], ["1", "sqrt(6)/3"]])
        wide = Matrix([[]] * 2)  # 2x0
        assert R._integer_form() is False
        assert R * wide == wide  # 2x2 times 2x0 is 2x0
        assert linalg._term_product([], [], 0) == []  # 0x0 times 0x0
        assert linalg._term_product(R._term_form(), wide._term_form(), 0) == [[], []]
        assert R.matvec(as_vector(["0", "0"])) == (Scalar.zero(),) * 2

    def test_non_rational_entry_takes_the_term_path(self, monkeypatch):
        calls = []
        original = linalg._term_product

        def counting(fa, fb, width):
            calls.append(width)
            return original(fa, fb, width)

        monkeypatch.setattr(linalg, "_term_product", counting)
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
                # one term product for the matrix, one for the vector
                assert calls == [3, 1]


class TestScalarElimination:
    """Elimination with radical entries runs on integer term rows, each entry
    a ring element (ints over the basis keys); each exact division by a
    pivot multiplies by its adjugate, computed at most once per pivot."""

    SHAPES = [(1, 1), (1, 4), (4, 1), (2, 5), (5, 2), (3, 3), (4, 4), (5, 5), (6, 4)]
    ONE = Scalar.one()
    # Q(sqrt(2), sqrt(5), sqrt(7), i): an adjugate multiplies up to 15 conjugates
    FOUR_GENERATOR_KEYS = [(d, imag) for d in (1, 2, 5, 7) for imag in (False, True)]

    def _rows(self, rng, r, c, **kw):
        """Radical entries, at times of rank below min(r, c) or with a zero row."""
        rows = _radical_rows(rng, r, c, **kw)
        if rng.random() < 0.4:
            k = rng.randint(0, min(r, c) - 1)
            rows = [[Scalar.zero()] * c for _ in range(r)]
            if k:  # a product through k dimensions
                low = _scalar_product(Matrix.from_rows(_radical_rows(rng, r, k, **kw)),
                                      Matrix.from_rows(_radical_rows(rng, k, c, **kw)))
                rows = [list(row) for row in low.entries()]
        if rng.random() < 0.2:
            rows[rng.randrange(r)] = [Scalar.zero()] * c
        return rows

    def _check(self, rng, rows, **kw):
        """rank, kernel, det and two solves of the rows against the Scalar
        Gauss-Jordan oracle; returns (singular, inconsistent solves)."""
        r, c = len(rows), len(rows[0])
        M = Matrix.from_rows(rows)
        _, pivots, det = _gauss_jordan(rows, self.ONE)
        assert rank(M) == len(pivots)
        assert kernel(M).basis == _oracle_kernel(rows, c, self.ONE)
        singular = inconsistent = 0
        if r == c:
            assert M.det() == det
            singular = det.is_zero()
        consistent = _scalar_product(M, Matrix.from_rows(_radical_rows(rng, c, 2, **kw)))
        for b_rows in (consistent.entries(), _radical_rows(rng, r, 2, **kw)):
            expected = _oracle_solve(rows, b_rows, c, self.ONE)
            got = solve(M, Matrix.from_rows(b_rows))
            assert (got is None) == (expected is None)
            inconsistent += got is None
            if expected is not None:
                assert got == expected
        return singular, inconsistent

    def test_agrees_with_scalar_oracle(self):
        rng = random.Random(173205)
        singular = inconsistent = 0
        for _ in range(5):
            for r, c in self.SHAPES:
                s, i = self._check(rng, self._rows(rng, r, c))
                singular += s
                inconsistent += i
        assert singular and inconsistent

    def test_wide_entries_over_four_generators(self, monkeypatch):
        # numerators up to 2^200 over sqrt(2), sqrt(5), sqrt(7) and i, where a
        # multi-term pivot's adjugate is a product of up to 15 conjugates
        rng = random.Random(264575)
        multi_term = []
        original = linalg._adjugate

        def recording(x):
            if len(x) > 1:
                multi_term.append(x)
            return original(x)

        monkeypatch.setattr(linalg, "_adjugate", recording)
        kw = {"wide": True, "keys": self.FOUR_GENERATOR_KEYS}
        singular = inconsistent = zero_rows = 0
        for _ in range(3):
            for r, c in [(1, 3), (3, 1), (2, 3), (3, 2), (3, 3), (2, 2), (2, 4)]:
                rows = self._rows(rng, r, c, **kw)
                zero_rows += any(not any(row) for row in rows)
                s, i = self._check(rng, rows, **kw)
                singular += s
                inconsistent += i
        assert singular and inconsistent and zero_rows
        assert len(multi_term) >= 20
        # some pivot's conjugates reach all four generators
        assert any({2, 5, 7} <= {p for d, _ in x for p in (2, 5, 7) if d % p == 0}
                   and any(imag for _, imag in x) for x in multi_term)

    def _count_adjugates(self, monkeypatch):
        calls = []
        original = linalg._adjugate

        def counting(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(linalg, "_adjugate", counting)
        return calls

    def test_one_inverse_per_pivot(self, monkeypatch):
        rng = random.Random(223606)
        M = Matrix.from_rows(_radical_rows(rng, 5, 5))
        while M.det().is_zero():
            M = Matrix.from_rows(_radical_rows(rng, 5, 5))
        expected = _gauss_jordan(M.entries(), self.ONE)[2]
        calls = self._count_adjugates(monkeypatch)
        assert M._integer_form() is False
        assert M.det() == expected
        assert 0 < len(calls) <= 5

    def test_back_substitution_inverts_each_pivot_once(self, monkeypatch):
        # a solve with six right-hand sides takes at most one adjugate per
        # pivot step forward and one per pivot back, not one per column
        rng = random.Random(314159)
        M = Matrix.from_rows(_radical_rows(rng, 4, 4))
        while M.det().is_zero():
            M = Matrix.from_rows(_radical_rows(rng, 4, 4))
        B = Matrix.from_rows(_radical_rows(rng, 4, 6))
        expected = _oracle_solve(M.entries(), B.entries(), 4, self.ONE)
        calls = self._count_adjugates(monkeypatch)
        assert solve(M, B) == expected
        assert 0 < len(calls) <= 4 + 4


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


def _row_echelon_oracle(vectors):
    """(indices of the vectors that a Scalar Gauss-Jordan keeps, one at a time,
    and its reduced basis, in order of the pivot columns)."""
    ech = RowEchelonOracle()
    chosen = [i for i, v in enumerate(vectors) if ech.insert(v)]
    return chosen, ech.basis()


class TestReducedEchelon:
    """Pivot columns and reduced bases from the fraction-free elimination
    equal those of the Scalar Gauss-Jordan, entry by entry."""

    FIELDS = {
        "Q": [(1, False)],
        "Q(sqrt2, sqrt5)": [(d, False) for d in (1, 2, 5, 10)],
        "Q(sqrt2, i)": [(d, imag) for d in (1, 2) for imag in (False, True)],
    }
    # (vectors, coordinates): more vectors than coordinates, fewer, as many
    SHAPES = [(1, 1), (1, 4), (4, 1), (2, 5), (3, 3), (4, 4), (6, 3), (5, 5), (7, 4)]

    def _vectors(self, rng, keys, k, n):
        """k vectors of length n, at times of low rank, with zero and repeated vectors."""
        if rng.random() < 0.4:  # a product through fewer dimensions
            low = _scalar_product(Matrix.from_rows(_radical_rows(rng, k, 2, keys=keys)),
                                  Matrix.from_rows(_radical_rows(rng, 2, n, keys=keys)))
            vecs = [list(row) for row in low.entries()]
        else:
            vecs = _radical_rows(rng, k, n, keys=keys)
        if rng.random() < 0.3:
            vecs[rng.randrange(k)] = [Scalar.zero()] * n
        if k > 1 and rng.random() < 0.3:
            i, j = rng.sample(range(k), 2)
            vecs[j] = list(vecs[i])
        return vecs

    def _check(self, vecs, n):
        chosen, basis = _row_echelon_oracle(vecs)
        assert independent_columns(Matrix.from_cols(vecs)) == chosen
        assert rank(Matrix.from_cols(vecs)) == len(chosen)
        want = Matrix.from_cols(basis) if basis else Matrix.zeros(n, 0)
        for got in (row_space_basis(Matrix.from_rows(vecs)), Subspace.span(n, vecs).basis):
            assert got.columns() == basis
            assert [[str(a) for a in col] for col in got.columns()] == \
                [[str(a) for a in col] for col in basis]
            assert got._integer_form() == want._integer_form()
            assert got == want
        return len(chosen)

    @pytest.mark.parametrize("field, seed", [("Q", 11), ("Q(sqrt2, sqrt5)", 12), ("Q(sqrt2, i)", 13)])
    def test_agrees_with_scalar_gauss_jordan(self, field, seed):
        rng = random.Random(seed)
        keys = self.FIELDS[field]
        ranks = set()
        for _ in range(6):
            for k, n in self.SHAPES:
                ranks.add((self._check(self._vectors(rng, keys, k, n), n), min(k, n)))
        assert any(r == full for r, full in ranks) and any(r < full for r, full in ranks)

    def test_rational_result_is_born_in_integer_rows(self):
        rng = random.Random(1618)
        for k, n in self.SHAPES:
            B = row_space_basis(Matrix.from_rows(self._vectors(rng, [(1, False)], k, n)))
            assert B._rows is None

    def test_degenerate_inputs(self):
        zero, one = Scalar.zero(), Scalar.one()
        for vecs, n in (
            ([[zero] * 3], 3),                         # a zero vector
            ([[zero] * 3, [zero] * 3], 3),             # zero vectors only
            ([[one, zero], [one, zero]], 2),           # a repeated vector
            ([[one, zero, zero], [zero, one, zero], [zero, zero, one]], 3),  # full rank
            ([[], []], 0),                             # zero width
        ):
            self._check(vecs, n)
        # no vectors, or no coordinates
        assert independent_columns(Matrix.zeros(4, 0)) == []
        assert independent_columns(Matrix.zeros(0, 3)) == []
        assert independent_columns(Matrix([])) == []
        assert Subspace.span(3, []).basis == Matrix.zeros(3, 0)
        assert row_space_basis(Matrix.zeros(2, 3)) == Matrix.zeros(3, 0)

    def test_subspace_equality(self):
        rng = random.Random(4242)
        for keys in self.FIELDS.values():
            for k, n in self.SHAPES:
                vecs = self._vectors(rng, keys, k, n)
                S = Subspace.span(n, vecs)
                # the same span from its basis run backwards and rescaled
                other = [[a * Scalar.from_fraction(-2) for a in col] for col in S.basis.columns()]
                T = Subspace.span(n, other[::-1])
                assert S == T
                if S.dim < n:  # and a span one larger
                    units = [tuple(Scalar.one() if t == j else Scalar.zero() for t in range(n))
                             for j in range(n)]
                    extra = next(e for e in units if not S.contains(e))
                    assert S != Subspace.span(n, S.basis.columns() + [extra])


class TestZeroWidthResults:
    """A result with no columns keeps its height: x 0 of the coordinates it would have."""

    def test_solve_with_no_right_hand_side(self):
        for A in (Matrix.identity(2), Matrix.from_rows([["sqrt(2)", "1"], ["0", "1"]]),
                  Matrix.from_rows([[1, 2, 3], [0, 1, 1]])):
            X = solve(A, Matrix.zeros(A.rows, 0))
            assert (X.rows, X.cols) == (A.cols, 0)

    def test_rank_zero_row_space_basis(self, monkeypatch):
        zero = Matrix.zeros(2, 3)
        B = row_space_basis(zero)
        assert (B.rows, B.cols) == (3, 0) and B == Matrix.zeros(3, 0)
        # a zero matrix is rational, so the ring path of Q(sqrt2) is forced
        # by hand
        monkeypatch.setattr(Matrix, "_integer_form", lambda self: False)
        B = row_space_basis(zero)
        assert (B.rows, B.cols) == (3, 0) and B._rows == ((),) * 3

    def test_full_rank_kernel(self):
        for M in (Matrix.identity(3), Matrix.from_rows([["sqrt(2)", "1"], ["1", "sqrt(3)"]]),
                  Matrix.from_rows([[1, 2], [3, 4], [5, 6]])):
            K = kernel(M)
            assert K.dim == 0 and (K.basis.rows, K.basis.cols) == (M.cols, 0)


def _restrict_by_solve(A: Matrix, basis: Matrix) -> Matrix:
    """The oracle: restrict by one solve of ``basis X = A basis`` for every
    basis, with restrict's search for the first column that leaves the span."""
    target = A * basis
    sol = solve(basis, target)
    if sol is None or basis * sol != target:
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


def _outcome(restriction, A, basis):
    """The restricted matrix, or the column and residual of NotInvariant."""
    try:
        return restriction(A, basis)
    except NotInvariant as exc:
        return exc.vector_index, exc.residual


class TestRestrictByPrivateRows:
    """restrict reads X off private rows and agrees with the solve route."""

    def _entry(self, rng, radical):
        if radical and rng.random() < 0.5:
            return random_scalar(rng, radicands=(2, 3), max_num=3, allow_imag=rng.random() < 0.3)
        return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))

    def _matrix(self, rng, r, c, radical):
        return Matrix.from_rows([[self._entry(rng, radical) for _ in range(c)] for _ in range(r)])

    def _basis(self, rng, n, kind, radical):
        """An n-row basis: a kernel basis, a reduced-echelon span basis, a
        kernel basis with its columns scaled (private rows that are not unit
        rows), or a dense basis without private rows."""
        while True:
            if kind == "dense":
                B = self._matrix(rng, n, rng.randint(1, n - 1), radical)
                if linalg._private_rows(B) is None and rank(B) == B.cols:
                    return B
                continue
            if kind == "echelon":
                vecs = self._matrix(rng, rng.randint(1, n - 1), n, radical).entries()
                B = Subspace.span(n, vecs).basis
            else:
                B = kernel(self._matrix(rng, rng.randint(1, n - 1), n, radical)).basis
                if kind == "scaled" and B.cols:
                    scales = [self._entry(rng, radical) or Fraction(5, 2) for _ in range(B.cols)]
                    B = Matrix.from_cols([[s * x for x in col]
                                          for s, col in zip(scales, B.columns())])
            if B.cols:
                assert linalg._private_rows(B) is not None
                return B

    def _invariant_target(self, rng, B, radical):
        """P [[X, Y], [0, Z]] P^-1 for P = [B | C], C drawn until P is invertible."""
        n, d = B.rows, B.cols
        while True:
            P = B.hstack(self._matrix(rng, n, n - d, radical)) if d < n else B
            if not P.det().is_zero():
                break
        M = self._matrix(rng, n, n, radical)
        block = Matrix([[M[i, j] if i < d or j >= d else Scalar.zero() for j in range(n)]
                        for i in range(n)])
        return P * block * P.inverse()

    def test_agrees_with_solve_route(self):
        rng = random.Random(141421)
        seen = set()
        for _ in range(3):
            for kind in ("kernel", "echelon", "scaled", "dense"):
                for radical in (False, True):
                    n = rng.randint(2, 5)
                    B = self._basis(rng, n, kind, radical)
                    A = self._invariant_target(rng, B, radical)
                    targets = {"invariant": A, "random": self._matrix(rng, n, n, radical)}
                    if B.cols >= 2:
                        # leaves column 0 inside the span and moves column 1 out
                        w = kernel(Matrix([B.col(0)])).basis.col(0)
                        u = self._matrix(rng, n, 1, radical)
                        targets["column 1"] = A + u * Matrix([w])
                    for name, T in targets.items():
                        expected = _outcome(_restrict_by_solve, T, B)
                        got = _outcome(restrict, T, B)
                        assert got == expected
                        outcome = "restricted" if isinstance(got, Matrix) else got[0]
                        seen.add((kind, name, outcome))
        assert {("kernel", "invariant", "restricted"), ("scaled", "invariant", "restricted"),
                ("echelon", "invariant", "restricted"), ("dense", "invariant", "restricted"),
                ("kernel", "random", 0), ("dense", "random", 0),
                ("kernel", "column 1", 1), ("dense", "column 1", 1)} <= seen

    def test_private_rows_take_no_elimination(self, monkeypatch):
        rng = random.Random(173)

        def no_solve(A, B):
            raise AssertionError("solve called")

        for radical in (False, True):
            B = self._basis(rng, 4, "scaled", radical)
            A = self._invariant_target(rng, B, radical)
            expected = _restrict_by_solve(A, B)
            monkeypatch.setattr(linalg, "solve", no_solve)
            assert restrict(A, B) == expected
            monkeypatch.undo()


# -- rational results born in integer rows --------------------------------------


def _frac(M: Matrix) -> list[list[Fraction]]:
    return [[x.rational_value() for x in row] for row in M.entries()]


def _fraction_restriction(rng, make, n, k, private):
    """A rational n x k basis B, a k x k matrix X and an n x n A with A B = B X.

    With ``private`` each column j of B has a private row (a row where only
    column j is nonzero), and without it no column has one.  A = B X C +
    W (I - B C) for a left inverse C of B, so X is the one restriction of A
    to the span of B.
    """
    while True:
        B = make(rng, n, k)
        if private:
            for j, r in enumerate(rng.sample(range(n), k)):
                B[r] = [Fraction(0)] * k
                B[r][j] = rng.choice([Fraction(1), Fraction(-7, 3), Fraction(2**200 + 1, 5)])
        elif linalg._private_rows(Matrix.from_rows(B)) is not None:
            continue
        Bt = [list(col) for col in zip(*B)]
        gram = _fraction_matmul(Bt, B, k)
        C = _oracle_solve(gram, Bt, k)
        if len(_gauss_jordan(B)[1]) == k and C is not None:
            break
    C = _frac(C)
    X = make(rng, k, k)
    BC = _fraction_matmul(B, C, n)
    eye_minus_bc = [[Fraction(int(i == j)) - BC[i][j] for j in range(n)] for i in range(n)]
    A = [[a + b for a, b in zip(ra, rb)] for ra, rb in
         zip(_fraction_matmul(_fraction_matmul(B, X, k), C, n),
             _fraction_matmul(make(rng, n, n), eye_minus_bc, n))]
    return A, B, X


class TestIntegerRows:
    """Rational results hold canonical integer rows, matched against
    ``Matrix.from_rows`` of the Fractions of their entries."""

    SHAPES = [(0, 0), (3, 0), (1, 1), (1, 4), (4, 1), (2, 5), (3, 3), (4, 4)]

    def _check(self, got: Matrix, rows: list[list[Fraction]]):
        """got is born in integer rows, canonical ones, and agrees with the oracle."""
        assert got._rows is None
        for ints, den in got._ints:
            assert linalg._fraction_row([Fraction(a, den) for a in ints]) == (ints, den)
        oracle = Matrix.from_rows(rows)
        assert got == oracle and oracle == got
        assert hash(got) == hash(oracle)
        assert got.rows == oracle.rows and got.cols == oracle.cols
        assert got.entries() == oracle.entries()

    def test_operations_agree_with_fraction_oracle(self):
        rng = random.Random(577215)
        half = Fraction(1, 2)
        for _ in range(6):
            for make in (_random_rational_rows, _wide_rational_rows):
                for r, c in self.SHAPES:
                    a, b = make(rng, r, c), make(rng, r, c)
                    if r:
                        a[0] = [Fraction(0)] * c  # a zero row
                    A, B = Matrix.from_rows(a), Matrix.from_rows(b)
                    k = rng.randint(1, 4) if c else 0  # no rows, so no columns either
                    d = make(rng, c, k)
                    self._check(A * Matrix.from_rows(d), _fraction_matmul(a, d, k))
                    self._check(A + B, [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
                    self._check(A - B, [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
                    for q in (Fraction(0), Fraction(-3, 7), Fraction(2**200 - 1, 3**40)):
                        self._check(A.scale(q), [[q * x for x in row] for row in a])
                    AB = A + B  # integer rows on both sides of the stacks
                    ab = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
                    self._check(AB.vstack(A.scale(half)), ab + [[half * x for x in row] for row in a])
                    self._check(AB.hstack(B.scale(half)),
                                [ra + [half * x for x in rb] for ra, rb in zip(ab, b)])
                    # operands made from Scalars take the same integer path
                    self._check(A.vstack(B), a + b)
                    self._check(A.hstack(B), [ra + rb for ra, rb in zip(a, b)])
                    self._check(A.transpose(), [list(col) for col in zip(*a)] if c else [])
                    self._check(AB.transpose(), [list(col) for col in zip(*ab)] if c else [])
                    rs = sorted(rng.sample(range(r), rng.randint(1, r))) if r else []
                    cs = sorted(rng.sample(range(c), rng.randint(1, c))) if c else []
                    self._check(AB.submatrix(rs, cs), [[ab[i][j] for j in cs] for i in rs])
                    self._check(A.submatrix(rs, cs), [[a[i][j] for j in cs] for i in rs])
                    if r and c:
                        m = make(rng, r, r)
                        self._check(kernel(A).basis, _frac(_oracle_kernel(a, c)))
                        x = _oracle_solve(m, b, r)
                        if x is not None:
                            self._check(solve(Matrix.from_rows(m), B), _frac(x))
            for n in range(5):
                self._check(Matrix.identity(n), [[Fraction(int(i == j)) for j in range(n)]
                                                 for i in range(n)])
                self._check(Matrix.zeros(n, 2), [[Fraction(0)] * 2 for _ in range(n)])

    def test_restrict_agrees_with_fraction_oracle(self):
        rng = random.Random(662607)
        routes = set()
        for make in (_random_rational_rows, _wide_rational_rows):
            for private in (True, False):
                for _ in range(4):
                    n = rng.randint(3, 4)
                    k = rng.randint(1 if private else 2, n - 1)
                    a, b, x = _fraction_restriction(rng, make, n, k, private)
                    B = Matrix.from_rows(b)
                    routes.add("solve" if linalg._private_rows(B) is None else "read off")
                    self._check(restrict(Matrix.from_rows(a), B), x)
        assert routes == {"read off", "solve"}

    def test_mixed_forms_compare_and_hash(self):
        rng = random.Random(1618)
        for make in (_random_rational_rows, _wide_rational_rows):
            rows = make(rng, 3, 3)
            born = Matrix.from_rows(rows) * Matrix.identity(3)  # integer rows only
            read = Matrix(Matrix.from_rows(rows).entries())  # Scalar rows only
            assert born == read and read == born and hash(born) == hash(read)
            for M in (born, read):  # the predicates read the ints of either form
                assert M._integer_form() is not False
                assert not M.is_zero() and M.is_real()
                assert M.is_lower_triangular() == all(
                    rows[i][j] == 0 for i in range(3) for j in range(i + 1, 3))
                assert linalg._private_rows(M) == linalg._private_rows(born)
            other = [list(row) for row in rows]
            other[2][1] += Fraction(1, 3)
            assert born != Matrix.from_rows(other) and Matrix.from_rows(other) != born
            radical = [list(row) for row in rows]
            radical[1][1] = "sqrt(2)"
            assert born != Matrix.from_rows(radical) and Matrix.from_rows(radical) != born
        # shapes: 2x0 and 3x0 differ, a matrix without rows has no columns
        assert Matrix.zeros(2, 0) != Matrix.zeros(3, 0)
        assert Matrix.zeros(0, 4) == Matrix([]) and hash(Matrix.zeros(0, 4)) == hash(Matrix([]))


class TestShapeMismatch:
    """Sums, differences and hstack refuse operands of different shapes."""

    def test_sum_difference_and_hstack_raise(self):
        row = Matrix.from_rows([[1, 2]])
        col = Matrix.from_rows([[1], [2]])
        square = Matrix.from_rows([[1, 2], [3, 4]])
        radical = Matrix.from_rows([["sqrt(2)", "1"]])
        for A, B in ((row, col), (col, row), (row, square), (radical, col),
                     (row * Matrix.identity(2), col * Matrix.identity(1))):
            with pytest.raises(ValueError, match="shape mismatch"):
                A - B
            with pytest.raises(ValueError, match="shape mismatch"):
                A + B
        for A, B in ((row, square), (square, row), (radical, square), (col, row)):
            with pytest.raises(ValueError, match="shape mismatch"):
                A.hstack(B)
        assert square.hstack(col) == Matrix.from_rows([[1, 2, 1], [3, 4, 2]])


class TestBornInIntegerRows:
    """A chain of rational operations converts nothing: no intermediate result
    has its integer rows rebuilt from Scalars, and no Scalar is made until an
    entry is read."""

    def test_chain_builds_no_scalar_until_read(self, monkeypatch):
        rng = random.Random(8128)
        A, B = (Matrix.from_rows(_random_rational_rows(rng, 4, 4)) for _ in range(2))
        # rank 2: the second row is twice the first, the last the sum of the first and third
        N = Matrix.from_rows([[1, 2, 0, -1], [2, 4, 0, -2], [0, 1, "1/2", 3], [1, 3, "1/2", 2]])
        P = Matrix.from_rows([[2, 1, 0, 0], [0, 1, 0, 3], [1, 0, 1, 0], [0, 0, 1, 1]])
        Q = Matrix.from_rows([[1, 1], [1, 2]])
        s = Scalar.from_fraction(Fraction(-3, 7))
        minus_s = -s
        for M in (A, B, N, P, Q):  # the inputs' integer rows, once
            assert M._integer_form() is not False
        made = []
        original_canonical, original_init = Scalar._canonical, Scalar.__init__

        def canonical(terms):
            made.append(terms)
            return original_canonical(terms)

        def init(self, terms=None):
            made.append(terms)
            original_init(self, terms)

        def no_integer_row(row):
            raise AssertionError("integer rows rebuilt from Scalars")

        monkeypatch.setattr(Scalar, "_canonical", staticmethod(canonical))
        monkeypatch.setattr(Scalar, "__init__", init)
        monkeypatch.setattr(linalg, "_integer_row", no_integer_row)
        C = A * B - B.scale(s)
        M = N - Matrix.identity(4).scale(s)  # -s on ker N
        K = kernel(N * P * P.inverse()).basis  # private rows: a unit at each free coordinate
        X = solve(P, C * K)
        R = restrict(M, K)
        dense = K * Q
        assert linalg._private_rows(dense) is None  # so restrict solves
        R2 = restrict(M, dense)
        assert P * X == C * K
        assert R == R2 == Matrix.identity(2).scale(minus_s)
        assert made == []
        assert R[0, 0] == minus_s and made  # reading an entry makes its Scalar


def _poly_value(f, x):
    """f at x by Horner, f's coefficients highest first."""
    acc = Scalar.zero()
    for c in f:
        acc = acc * x + c
    return acc


def _poly_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def _companion(f) -> Matrix:
    """The companion matrix of a monic f (coefficients highest first): its
    characteristic polynomial is f."""
    n = len(f) - 1
    return Matrix.from_rows([[int(i == j + 1) if j < n - 1 else -f[n - i] for j in range(n)]
                             for i in range(n)])


def _sylvester_resultant(f, g) -> Scalar:
    """The resultant of f and g, the determinant of their Sylvester matrix:
    nonzero exactly when they are coprime."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + list(f) + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g) + [0] * (m - 1 - i) for i in range(m)]
    return Matrix.from_rows(rows).det()


def _conjugated(rng, M: Matrix) -> Matrix:
    while True:
        P = random_integer_matrix(rng, M.rows)
        if not P.det().is_zero():
            return P * M * P.inverse()


class TestCharacteristicPolynomial:
    def _inputs(self):
        rng = random.Random(1984)
        rational = [Matrix.from_rows(_random_rational_rows(rng, n, n)) for n in (1, 2, 3, 5)]
        radical = [Matrix([[random_scalar(rng) for _ in range(n)] for _ in range(n)])
                   for n in (1, 2, 3, 4)]
        return rational + radical + [radical_rows().hstack(radical_rows().submatrix([0, 1, 2], [0]))]

    def test_cayley_hamilton(self):
        # f(A) = 0 exactly: Horner in matrices, each coefficient a multiple of I
        for A in self._inputs():
            f = A.charpoly()
            assert len(f) == A.rows + 1 and f[0] == 1
            value = Matrix.zeros(A.rows, A.rows)
            for c in f:
                value = value * A + Matrix.identity(A.rows).scale(c)
            assert value.is_zero()

    def test_values_are_determinants(self):
        # oracle: det(xI - A) by Bareiss elimination at rational x
        for A in self._inputs():
            f = A.charpoly()
            for x in (Fraction(0), Fraction(1), Fraction(-5, 3), Fraction(7, 2)):
                assert _poly_value(f, x) == (Matrix.identity(A.rows).scale(x) - A).det()

    def test_coefficient_fields(self):
        rational, radical = Matrix.from_rows([[1, "1/2"], [3, 4]]), radical_rows().submatrix([0, 1], [0, 1])
        assert all(isinstance(c, Fraction) for c in rational.charpoly())
        assert all(isinstance(c, Scalar) for c in radical.charpoly())
        assert rational.charpoly() == [1, -5, Fraction(5, 2)]
        assert radical.charpoly() == [1, -1 - parse_scalar("sqrt(2)"),
                                      parse_scalar("sqrt(2) - sqrt(3)")]


class TestSquarefreeFactors:
    # monic factors, pairwise coprime and squarefree, with their multiplicities
    RATIONAL = [([1, Fraction(1, 2)], 1), ([1, 0, -2], 2), ([1, -1], 3)]
    RADICAL = [([1, parse_scalar("-i")], 1), ([1, 0, parse_scalar("-3 - sqrt(2)")], 2),
               ([1, parse_scalar("-sqrt(2)")], 3)]

    def _cases(self):
        rng = random.Random(1976)
        for factors in (self.RATIONAL, self.RADICAL, [([1, -3], 4)], [([1, 0, 1], 1)]):
            f = [1]
            for a, k in factors:
                for _ in range(k):
                    f = _poly_product(f, a)
            # the polynomial of a conjugated companion matrix is f again
            yield factors, _conjugated(rng, _companion(f)).charpoly(), f

    def test_product_of_powers_is_f(self):
        for expected, f, built in self._cases():
            assert f == built
            factors = squarefree_factors(f)
            assert factors == expected
            product = [1]
            for a, k in factors:
                assert a[0] == 1
                for _ in range(k):
                    product = _poly_product(product, a)
            assert product == f

    def test_factors_are_squarefree_and_coprime(self):
        for _, f, _ in self._cases():
            factors = [a for a, _ in squarefree_factors(f)]
            for i, a in enumerate(factors):
                derivative = [c * (len(a) - 1 - j) for j, c in enumerate(a[:-1])]
                assert len(a) == 2 or not _sylvester_resultant(a, derivative).is_zero()
                for b in factors[i + 1:]:
                    assert not _sylvester_resultant(a, b).is_zero()

    def test_squarefree_input_is_one_factor(self):
        rng = random.Random(5)
        squarefree = 0
        for _ in range(5):
            A = random_integer_matrix(rng, 4, -9, 9)
            f = A.charpoly()
            if _sylvester_resultant(f, [c * (4 - j) for j, c in enumerate(f[:-1])]).is_zero():
                continue
            assert squarefree_factors(f) == [(f, 1)]
            squarefree += 1
        assert squarefree >= 3
