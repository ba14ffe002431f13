import random

import numpy as np
import pytest

from conftest import random_integer_matrix, random_scalar
from lindyn.errors import InvarianceViolation, NotInvariant
from lindyn.linalg import (
    Matrix,
    Subspace,
    as_vector,
    kernel,
    matrix_from_strings,
    rank,
    restrict,
    solve,
    sum_intersection,
)
from lindyn.numeric import NumericContext, as_complex, nrank, nsolve_cols, to_numeric
from lindyn.scalars import Scalar, parse_scalar


def radical_rows():
    return matrix_from_strings([["1", "1"], ["sqrt(3)", "sqrt(2)"], ["sqrt(2)", "1"]])


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
        A = matrix_from_strings([["1", "0", "0"], ["0", "1", "0"], ["1", "0", "1"]])
        N = A - Matrix.identity(3)
        # oracle: the cube of the strictly lower part vanishes identically
        assert (N * N * N).is_zero()
        assert kernel(N.power(3)).dim == 3

    def test_kernel_identity(self):
        assert kernel(Matrix.identity(4)).dim == 0

    def test_kernel_diag(self):
        K = kernel(matrix_from_strings([["0", "0"], ["0", "1"]]))
        assert K.dim == 1
        assert [str(x) for x in K.basis.col(0)] == ["1", "0"]

    def test_kernel_vectors_annihilated(self, rng):
        for _ in range(20):
            M = random_integer_matrix(rng, 4)
            K = kernel(M)
            for j in range(K.dim):
                img = M.matvec(K.basis.col(j))
                assert all(x.is_zero() for x in img)


class TestRestrict:
    def setup_method(self):
        self.A = matrix_from_strings(
            [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["sqrt(2)-1", "1", "0", "1"],
            ]
        )
        self.B = matrix_from_strings(
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
        RA = restrict(self.A, self.H)
        RB = restrict(self.B, self.H)
        assert RA == matrix_from_strings([["1", "0"], ["sqrt(2)", "1"]])
        assert RB == matrix_from_strings([["1", "0"], ["1", "1"]])

    def test_restrict_identity(self):
        assert restrict(Matrix.identity(4), self.H) == Matrix.identity(2)

    def test_not_invariant(self):
        bad = Subspace(4, Matrix.from_cols([[Scalar.one(), Scalar.zero(), Scalar.zero(), Scalar.zero()]]))
        with pytest.raises(NotInvariant):
            restrict(self.A, bad)

    def test_functorial(self):
        RA = restrict(self.A, self.H)
        RB = restrict(self.B, self.H)
        assert restrict(self.A * self.B, self.H) == RA * RB

    def test_defining_equation(self):
        RA = restrict(self.A, self.H)
        assert (self.H.basis * RA) == (self.A * self.H.basis)


class TestSumIntersection:
    def test_coordinate_axes(self):
        U = Subspace.span(2, [as_vector([1, 0])])
        V = Subspace.span(2, [as_vector([0, 1])])
        s, i = sum_intersection(U, V)
        assert s.dim == 2 and i.dim == 0

    def test_coordinate_hyperplanes(self):
        E1 = Subspace.span(4, [as_vector(r) for r in ([0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])])
        E2 = Subspace.span(4, [as_vector(r) for r in ([1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])])
        s, i = sum_intersection(E1, E2)
        assert s.dim == 4 and i.dim == 2

    def test_dimension_formula_random(self, rng):
        for _ in range(15):
            n = 6
            U = Subspace.span(
                n, [[Scalar.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            )
            V = Subspace.span(
                n, [[Scalar.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            )
            s, i = sum_intersection(U, V)
            # oracle: dim(U+V) is the rank of the stacked bases
            if U.dim and V.dim:
                stacked = U.basis.hstack(V.basis)
            elif U.dim:
                stacked = U.basis
            else:
                stacked = V.basis
            assert s.dim == (rank(stacked) if stacked.cols else 0)
            assert s.dim + i.dim == U.dim + V.dim
            for j in range(i.dim):
                v = i.basis.col(j)
                assert U.contains(v) and V.contains(v)


class TestNumericSumIntersection:
    def test_tolerant_backend(self, rng):
        import numpy as np

        from lindyn.numeric import NumericContext, NumSubspace

        ctx = NumericContext()
        for _ in range(10):
            n = 6
            Bu = np.random.default_rng(rng.randint(0, 10**6)).normal(size=(n, rng.randint(1, 4)))
            Bv = np.random.default_rng(rng.randint(0, 10**6)).normal(size=(n, rng.randint(1, 4)))
            U = NumSubspace(n, Bu.astype(complex))
            V = NumSubspace(n, Bv.astype(complex))
            s, i = sum_intersection(U, V)
            assert s.dim + i.dim == U.dim + V.dim
            for j in range(i.dim):
                v = i.basis[:, j]
                assert U.contains(v, ctx) and V.contains(v, ctx)

    def test_shared_direction(self):
        import numpy as np

        from lindyn.numeric import NumSubspace

        n = 4
        w = np.array([1.0, 2.0, 0.0, 1.0], dtype=complex)
        U = NumSubspace(n, np.stack([w, np.eye(4, dtype=complex)[0]], axis=1))
        V = NumSubspace(n, np.stack([w, np.eye(4, dtype=complex)[1]], axis=1))
        s, i = sum_intersection(U, V)
        assert s.dim == 3 and i.dim == 1

    def test_mixed_backends_rejected(self):
        import numpy as np

        from lindyn.numeric import NumSubspace

        U = Subspace.span(2, [as_vector([1, 0])])
        V = NumSubspace(2, np.eye(2, dtype=complex)[:, :1])
        with pytest.raises(ValueError):
            sum_intersection(U, V)


class TestBasisChangeAndBackends:
    def test_inverse_cached_identity(self):
        P = matrix_from_strings([["1", "2", "0"], ["0", "1", "sqrt(2)"], ["1", "0", "1"]])
        assert (P * P.inverse()) == Matrix.identity(3)

    def test_exact_vs_numeric_rank_on_fixtures(self):
        from lindyn.fixtures import all_fixtures

        ctx = NumericContext()
        for f in all_fixtures():
            for g in f.group.generators:
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
