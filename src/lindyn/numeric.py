"""Tolerant numeric backend in double precision (complex128).

Numeric eigenvalues, splitting, restriction and triangularization run in
double precision only.  The one computation at the context precision is
:func:`polynomial_roots`, which refines the roots of an exact squarefree
polynomial: :func:`lindyn.spectral.eigenvalues` proposes an exact spectrum
from them when no double-precision proposal is certified.

A context carries the two settings its callers choose, the precision and the
tolerance.  The eigenvalue clustering radius is the constant CLUSTER_DELTA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

from .linalg import Matrix
from .scalars import Scalar

CLUSTER_DELTA = 1e-8  # smallest eigenvalue clustering radius, relative to the spectrum
ROOT_SWEEPS = 32  # cap on the sweeps that refine the roots of one factor


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


def neig(A) -> list[complex]:
    """Double-precision eigenvalues of an exact or numeric square matrix."""
    return np.linalg.eigvals(to_numeric(A).astype(complex)).tolist()


def polynomial_roots(a: list[Scalar], precision: int) -> list:
    """The roots of a monic squarefree polynomial of degree >= 2 with exact
    coefficients (highest first) at the given precision (mpmath values).

    The eigenvalues of the companion matrix of the coefficients rounded to
    doubles (``np.roots`` in complex128) are refined together on the exact
    coefficients, evaluated at the precision, by :func:`_aberth_sweep`.  Once
    no step moves a root by more than 2^-(precision/2) of the root scale, one
    more sweep, which at least squares the error, ends it.  Roots closer
    together than that (whose doubles coincide) may stay that far from the
    exact ones.
    """
    companion = np.eye(len(a) - 1, k=-1, dtype=complex)
    companion[0] = [-c.to_complex() for c in a[1:]]
    starts = np.linalg.eigvals(companion)
    with mpmath.workprec(precision):
        coeffs = [c.evaluate(precision) for c in a]
        scale = max(1.0, float(np.max(np.abs(starts))))
        limit = mpmath.ldexp(scale, -(precision // 2))
        zs = [mpmath.mpc(z) for z in starts]
        for _ in range(ROOT_SWEEPS):
            if _aberth_sweep(coeffs, zs) <= limit:
                _aberth_sweep(coeffs, zs)
                break
    return zs


def _aberth_sweep(coeffs: list, zs: list):
    """Move each root estimate in zs, in place, by the Newton step f/f' of
    the polynomial with the coefficients (highest first), corrected by
    Aberth's repulsion from the other estimates, so that no two converge to
    one root; returns the largest step."""
    largest = 0
    for k, z in enumerate(zs):
        f, df = coeffs[0], 0
        for c in coeffs[1:]:
            df = df * z + f
            f = f * z + c
        repulsion = sum(1 / (z - y) for y in zs if y != z)
        if denominator := df - f * repulsion:
            step = f / denominator
            zs[k] = z - step
            largest = max(largest, abs(step))
    return largest


def nrank(A: np.ndarray, ctx: NumericContext) -> int:
    """Column count less the dimension of the tolerant null space (:func:`nkernel`)."""
    return A.shape[1] - nkernel(A, ctx).shape[1]


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
