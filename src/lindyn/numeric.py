"""Tolerant numeric backend: complex128 by default, mpmath above 53 bits.

High-precision matrices are numpy object arrays with ``mpmath.mpc`` entries so
that slicing, stacking and ``@`` behave identically on both paths; only the
decompositions (eig, svd, qr, lu, inverse) convert to ``mpmath.matrix`` at the
call site and run at the context precision.  Products, sums and powers of
object arrays run outside ``workprec`` and so round at mpmath's global
precision.

A context carries the two settings its callers choose, the precision and the
tolerance.  The eigenvalue clustering radius and the precision ceiling of the
retry ladder are the constants CLUSTER_DELTA and MAX_PRECISION.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import mpmath
import numpy as np

from .errors import InvarianceViolation
from .linalg import Matrix

CLUSTER_DELTA = 1e-8  # smallest eigenvalue clustering radius, relative to the spectrum
MAX_PRECISION = 512   # bits; the precision-doubling retries stop here


@dataclass(frozen=True)
class NumericContext:
    """Precision and tolerance for every tolerant computation."""

    precision: int = 53
    eps: float = 1e-9

    @property
    def high(self) -> bool:
        return self.precision > 53

    def doubled(self) -> "NumericContext":
        return replace(self, precision=min(2 * self.precision, MAX_PRECISION))


def as_complex(x) -> complex:
    if isinstance(x, mpmath.mpc):
        return complex(float(x.real), float(x.imag))
    if isinstance(x, mpmath.mpf):
        return complex(float(x), 0.0)
    return complex(x)


def to_numeric(M, ctx: NumericContext) -> np.ndarray:
    """Numeric view of an exact Matrix (or passthrough for arrays)."""
    if isinstance(M, np.ndarray):
        return M
    if isinstance(M, Matrix):
        if ctx.high:
            ent = [[e.evaluate(ctx.precision) for e in row] for row in M.entries()]
            return np.array(ent, dtype=object)
        return M.to_complex_array()
    raise TypeError(f"cannot convert {type(M)} to numeric")


def vec_to_numeric(v: Sequence, ctx: NumericContext) -> np.ndarray:
    """Numeric view of a vector of Scalars."""
    out = [x.evaluate(ctx.precision) if ctx.high else x.to_complex() for x in v]
    return np.array(out, dtype=object if ctx.high else complex)


def nidentity(n: int, ctx: NumericContext) -> np.ndarray:
    if ctx.high:
        return np.array(
            [[mpmath.mpc(1 if i == j else 0) for j in range(n)] for i in range(n)],
            dtype=object,
        )
    return np.eye(n, dtype=complex)


def max_abs(A: np.ndarray) -> float:
    if A.size == 0:
        return 0.0
    if A.dtype == object:
        return float(max(abs(as_complex(x)) for x in A.ravel()))
    return float(np.max(np.abs(A)))


def _to_mp(A: np.ndarray) -> mpmath.matrix:
    M = mpmath.matrix(A.shape[0], A.shape[1])
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            M[i, j] = A[i, j] if isinstance(A[i, j], (mpmath.mpc, mpmath.mpf)) else mpmath.mpc(A[i, j])
    return M


def _from_mp(M: mpmath.matrix) -> np.ndarray:
    return np.array([[M[i, j] for j in range(M.cols)] for i in range(M.rows)], dtype=object)


def neig(A: np.ndarray, ctx: NumericContext) -> list:
    """Eigenvalues only, at the context precision."""
    if A.shape[0] == 0:
        return []
    if A.shape[0] == 1:
        # mpmath.eig returns the full (E, EL, ER) tuple for 1x1 input
        return [A[0, 0] if A.dtype == object else complex(A[0, 0])]
    if ctx.high:
        with mpmath.workprec(ctx.precision):
            E = mpmath.eig(_to_mp(A), left=False, right=False)
        return list(E)
    return list(np.linalg.eigvals(A.astype(complex)))


def nrank(A: np.ndarray, ctx: NumericContext) -> int:
    """Pivot count from full-pivot elimination, threshold eps * entry scale."""
    if A.size == 0:
        return 0
    work = np.array(A, dtype=object if A.dtype == object else complex)
    nr, nc = work.shape
    scale = max_abs(work)
    if scale == 0.0:
        return 0
    thresh = ctx.eps * scale
    rows = list(range(nr))
    cols = list(range(nc))
    rank_count = 0
    for _ in range(min(nr, nc)):
        best, bi, bj = 0.0, -1, -1
        for i in rows:
            for j in cols:
                m = abs(as_complex(work[i, j]))
                if m > best:
                    best, bi, bj = m, i, j
        if best <= thresh:
            break
        piv = work[bi, bj]
        for i in rows:
            if i == bi:
                continue
            f = work[i, bj] / piv
            for j in cols:
                work[i, j] = work[i, j] - f * work[bi, j]
        rows.remove(bi)
        cols.remove(bj)
        rank_count += 1
    return rank_count


def nsvd(A: np.ndarray, ctx: NumericContext):
    """Singular values and right singular vectors (columns of V)."""
    if ctx.high:
        with mpmath.workprec(ctx.precision):
            U, S, V = mpmath.svd_c(_to_mp(A))
            # mpmath convention: A = U * diag(S) * V, so right vectors are
            # the conjugated rows of V
            sv = [S[i] for i in range(len(S))]
            Vc = np.array(
                [[mpmath.conj(V[i, j]) for i in range(V.rows)] for j in range(V.cols)],
                dtype=object,
            ).T
        return sv, Vc.T  # columns indexed by singular value order
    U, S, Vh = np.linalg.svd(A.astype(complex))
    return list(S), Vh.conj().T


def nkernel(A: np.ndarray, ctx: NumericContext, expected: int | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the tolerant null space, thresholded at
    eps times the largest singular value."""
    nr, nc = A.shape
    if nc == 0:
        return np.zeros((0, 0), dtype=complex)
    if nr == 0 or max_abs(A) == 0.0:
        return nidentity(nc, ctx)
    S, V = nsvd(A, ctx)
    scale = float(abs(as_complex(S[0]))) if len(S) else 0.0
    thresh = ctx.eps * max(scale, 1e-300)
    svals = [float(abs(as_complex(s))) for s in S]
    svals += [0.0] * (nc - len(svals))
    if expected is None:
        nullity = sum(1 for s in svals if s <= thresh)
    else:
        nullity = expected
    if nullity == 0:
        return V[:, :0]
    return V[:, nc - nullity :]


def nsolve_cols(B: np.ndarray, Y: np.ndarray, ctx: NumericContext):
    """Least-squares solution X of B X = Y plus the max-entry residual."""
    if ctx.high:
        # mpmath.qr_solve divides by zero at a pivot whose real part is zero,
        # even for a well-conditioned basis such as a coordinate vector
        with mpmath.workprec(ctx.precision):
            Q, R = mpmath.qr(_to_mp(B), mode="skinny")
            QhY = Q.H * _to_mp(Y)
            try:
                cols = [mpmath.lu_solve(R, QhY.column(j)) for j in range(Y.shape[1])]
            except ZeroDivisionError:
                raise InvarianceViolation("numeric basis is rank-deficient") from None
            X = np.array([[x[i] for i in range(len(x))] for x in cols], dtype=object).T
    else:
        X = np.linalg.lstsq(B.astype(complex), Y.astype(complex), rcond=None)[0]
    residual = max_abs(B @ X - Y)
    return X, residual


def nrestrict(A, basis, ctx: NumericContext):
    """Least-squares restriction X of A to the span of the basis columns,
    with the residual of ``basis X = A basis`` relative to the operand sizes.

    Callers decide whether the residual shows the span is invariant.
    """
    A, basis = to_numeric(A, ctx), to_numeric(basis, ctx)
    X, resid = nsolve_cols(basis, A @ basis, ctx)
    return X, resid / (max(1.0, max_abs(A)) * max(1.0, max_abs(basis)))


def ninverse(A: np.ndarray, ctx: NumericContext) -> np.ndarray:
    if ctx.high:
        with mpmath.workprec(ctx.precision):
            return _from_mp(_to_mp(A) ** -1)
    return np.linalg.inv(A.astype(complex))


def npower(A: np.ndarray, k: int, ctx: NumericContext) -> np.ndarray:
    """A**k for k >= 0."""
    n = A.shape[0]
    result = nidentity(n, ctx)
    base = A
    while k:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
    return result


def nconj(A: np.ndarray) -> np.ndarray:
    if A.dtype == object:
        return np.array(
            [[mpmath.conj(x) for x in row] for row in A], dtype=object
        )
    return np.conj(A)


def real_part(A: np.ndarray) -> np.ndarray:
    if A.dtype == object:
        return np.array([[x.real for x in row] for row in A], dtype=object)
    return A.real.astype(complex)


def imag_part(A: np.ndarray) -> np.ndarray:
    if A.dtype == object:
        return np.array([[x.imag for x in row] for row in A], dtype=object)
    return A.imag.astype(complex)


@dataclass(frozen=True)
class NumSubspace:
    """Span of the columns of a numeric basis matrix."""

    ambient: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]
