"""Tolerant numeric backend in double precision (complex128).

Numeric splitting, restriction and triangularization run in double
precision only.  The one computation above 53 bits is :func:`neig` of an
exact matrix, which proposes an exact spectrum at the context precision
when no double-precision proposal is certified.

A context carries the two settings its callers choose, the precision and the
tolerance.  The eigenvalue clustering radius is the constant CLUSTER_DELTA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

from .linalg import Matrix

CLUSTER_DELTA = 1e-8  # smallest eigenvalue clustering radius, relative to the spectrum


@dataclass(frozen=True)
class NumericContext:
    """Precision and tolerance for every tolerant computation."""

    precision: int = 53
    eps: float = 1e-9

    @property
    def high(self) -> bool:
        return self.precision > 53


def as_complex(x) -> complex:
    if isinstance(x, mpmath.mpc):
        return complex(float(x.real), float(x.imag))
    if isinstance(x, mpmath.mpf):
        return complex(float(x), 0.0)
    return complex(x)


def to_numeric(M) -> np.ndarray:
    """Numeric view of an exact Matrix (or passthrough for arrays)."""
    if isinstance(M, np.ndarray):
        return M
    if isinstance(M, Matrix):
        return M.to_complex_array()
    raise TypeError(f"cannot convert {type(M)} to numeric")


def vec_to_numeric(v: Sequence) -> np.ndarray:
    """Numeric view of a vector of Scalars."""
    return np.array([x.to_complex() for x in v], dtype=complex)


def max_abs(A: np.ndarray) -> float:
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A)))


def neig(A, ctx: NumericContext) -> list:
    """Eigenvalues only: of an exact Matrix at the context precision (mpmath
    values), otherwise in double precision."""
    if isinstance(A, Matrix) and ctx.high and A.rows > 1:
        # mpmath.eig returns the full (E, EL, ER) tuple for 1x1 input
        with mpmath.workprec(ctx.precision):
            M = mpmath.matrix(A.rows, A.cols)
            for i, row in enumerate(A.entries()):
                for j, e in enumerate(row):
                    M[i, j] = e.evaluate(ctx.precision)
            return list(mpmath.eig(M, left=False, right=False))
    return list(np.linalg.eigvals(to_numeric(A).astype(complex)))


def nrank(A: np.ndarray, ctx: NumericContext) -> int:
    """Pivot count from full-pivot elimination, threshold eps * entry scale."""
    if A.size == 0:
        return 0
    work = np.array(A, dtype=complex)
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
                m = abs(complex(work[i, j]))
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


def nkernel(A: np.ndarray, ctx: NumericContext, expected: int | None = None) -> np.ndarray:
    """Orthonormal basis (columns) of the tolerant null space, thresholded at
    eps times the largest singular value."""
    nr, nc = A.shape
    if nc == 0:
        return np.zeros((0, 0), dtype=complex)
    if nr == 0 or max_abs(A) == 0.0:
        return np.eye(nc, dtype=complex)
    _, S, Vh = np.linalg.svd(A.astype(complex))
    V = Vh.conj().T
    thresh = ctx.eps * max(float(S[0]), 1e-300)
    svals = [float(s) for s in S] + [0.0] * (nc - len(S))
    nullity = sum(1 for s in svals if s <= thresh) if expected is None else expected
    return V[:, nc - nullity :]


def nsolve_cols(B: np.ndarray, Y: np.ndarray):
    """Least-squares solution X of B X = Y plus the max-entry residual."""
    X = np.linalg.lstsq(B.astype(complex), Y.astype(complex), rcond=None)[0]
    return X, max_abs(B @ X - Y)


def nrestrict(A, basis):
    """Least-squares restriction X of A to the span of the basis columns,
    with the residual of ``basis X = A basis`` relative to the operand sizes.

    Callers decide whether the residual shows the span is invariant.
    """
    A, basis = to_numeric(A), to_numeric(basis)
    X, resid = nsolve_cols(basis, A @ basis)
    return X, resid / (max(1.0, max_abs(A)) * max(1.0, max_abs(basis)))


def npower(A: np.ndarray, k: int) -> np.ndarray:
    """A**k for k >= 0."""
    result = np.eye(A.shape[0], dtype=complex)
    base = A
    while k:
        if k & 1:
            result = result @ base
        base = base @ base
        k >>= 1
    return result


@dataclass(frozen=True)
class NumSubspace:
    """Span of the columns of a numeric basis matrix."""

    ambient: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]
