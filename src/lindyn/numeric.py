"""Tolerant numeric backend in double precision (complex128).

Numeric eigenvalues, splitting, restriction and triangularization run in
double precision only.  The one computation at the context precision is
:func:`polynomial_roots`, which refines the roots of an exact squarefree
polynomial on fixed-point integers: :func:`lindyn.spectral.eigenvalues`
proposes an exact spectrum from them when no double-precision proposal is
certified, recognising each root in the radical field by :func:`pslq`.

A context carries the two settings its callers choose, the precision and the
tolerance.  The eigenvalue clustering radius is the constant CLUSTER_DELTA.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from ._numpy import np

from .linalg import Matrix
from .scalars import Scalar

CLUSTER_DELTA = 1e-8  # smallest eigenvalue clustering radius, relative to the spectrum
ROOT_SWEEPS = 32  # cap on the sweeps that refine the roots of one factor
ROOT_GUARD = 32  # fixed-point bits beyond the precision in root refinement


class NumericContext(NamedTuple):
    """Precision and tolerance for every tolerant computation."""

    precision: int = 53
    eps: float = 1e-9


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


def polynomial_roots(a: list[Scalar], precision: int) -> list[tuple[Fraction, Fraction]]:
    """The roots of a monic squarefree polynomial of degree >= 2 with exact
    coefficients (highest first) at the given precision, each as its real
    and imaginary parts, dyadic Fractions.

    The eigenvalues of the companion matrix of the coefficients rounded to
    doubles (``np.roots`` in complex128) are refined together on the exact
    coefficients by :func:`_aberth_sweep`, in fixed point with ROOT_GUARD
    bits beyond the precision.  Once no step moves a root by more than
    2^-(precision/2) of the root scale, one more sweep, which at least
    squares the error, ends it.  Roots closer together than that (whose
    doubles coincide) may stay that far from the exact ones.
    """
    companion = np.eye(len(a) - 1, k=-1, dtype=complex)
    companion[0] = [-c.to_complex() for c in a[1:]]
    starts = np.linalg.eigvals(companion)
    bits = precision + ROOT_GUARD
    coeffs = [tuple(_to_fixed(part, bits) for part in c.evaluate(bits)) for c in a]
    zs = [(_to_fixed(z.real, bits), _to_fixed(z.imag, bits)) for z in starts.tolist()]
    limit = _to_fixed(max(1.0, float(np.max(np.abs(starts)))), bits - precision // 2)
    for _ in range(ROOT_SWEEPS):
        if _aberth_sweep(coeffs, zs, bits) <= limit * limit:
            _aberth_sweep(coeffs, zs, bits)
            break
    return [(Fraction(re, 1 << bits), Fraction(im, 1 << bits)) for re, im in zs]


def _aberth_sweep(coeffs: list[tuple[int, int]], zs: list[tuple[int, int]], bits: int) -> int:
    """Move each root estimate in zs, in place, by the Newton step f/f' of
    the polynomial with the coefficients (highest first), corrected by
    Aberth's repulsion from the other estimates, so that no two converge to
    one root; returns the square of the largest step.

    Every value is a Gaussian integer (re, im) standing for (re + i im) /
    2**bits; each product and quotient is floored to that grid.
    """
    largest = 0
    for k, z in enumerate(zs):
        zr, zi = z
        fr, fi = coeffs[0]
        dr = di = 0
        for cr, ci in coeffs[1:]:
            dr, di = ((dr * zr - di * zi) >> bits) + fr, ((dr * zi + di * zr) >> bits) + fi
            fr, fi = ((fr * zr - fi * zi) >> bits) + cr, ((fr * zi + fi * zr) >> bits) + ci
        rr = ri = 0  # the sum of 1 / (z - y) over the other estimates y
        for y in zs:
            if y != z:
                wr, wi = zr - y[0], zi - y[1]
                norm = wr * wr + wi * wi
                rr += (wr << 2 * bits) // norm
                ri += (-wi << 2 * bits) // norm
        qr = dr - ((fr * rr - fi * ri) >> bits)
        qi = di - ((fr * ri + fi * rr) >> bits)
        if norm := qr * qr + qi * qi:
            sr = ((fr * qr + fi * qi) << bits) // norm
            si = ((fi * qr - fr * qi) << bits) // norm
            zs[k] = (zr - sr, zi - si)
            largest = max(largest, sr * sr + si * si)
    return largest


def pslq(x: list[float], tol: float, maxcoeff: int, maxsteps: int) -> list[int] | None:
    """Integers c, each |c_k| < maxcoeff, with |sum c_k x_k| < tol, or None.

    A port of ``pslq`` of mpmath 1.3.0 (BSD licence), the PSLQ integer
    relation algorithm of Ferguson and Bailey in fixed point, at mpmath's
    default 53 bits and with the square roots of its pure-Python backend
    (:func:`_isqrt_fast`), so that it returns the relation, or None, that
    ``mpmath.pslq`` returns on the same doubles, at least two of them.
    Raises ValueError for a zero value, and ArithmeticError or ValueError
    for a value that is not finite.
    """
    n = len(x)
    prec = 53 + 60
    tol = _to_fixed(tol, prec)
    # 1-based, as in Bailey's pseudocode
    x = [0] + [_to_fixed(xk, prec) for xk in x]
    minx = min(abs(xx) for xx in x[1:])
    if not minx:
        raise ValueError("PSLQ requires a vector of nonzero numbers")
    if minx < tol // 100:
        return None
    g = _isqrt_fast(((4 << prec) // 3) << prec)
    idx = range(1, n + 1)
    # mpmath also keeps the inverse of B, which no result reads
    B = [[(i == j) << prec for j in range(n + 1)] for i in range(n + 1)]
    H = [[0] * (n + 1) for _ in range(n + 1)]
    s = [0] * (n + 1)
    for k in idx:
        s[k] = _isqrt_fast(sum(x[j] ** 2 >> prec for j in range(k, n + 1)) << prec)
    t = s[1]
    y = x[:]
    for k in idx:
        y[k] = (x[k] << prec) // t
        s[k] = (s[k] << prec) // t
    for i in idx:
        if i <= n - 1:
            H[i][i] = (s[i + 1] << prec) // s[i] if s[i] else 0
        for j in range(1, i):
            sjj1 = s[j] * s[j + 1]
            H[i][j] = ((-y[i] * y[j]) << prec) // sjj1 if sjj1 else 0

    def reduce_row(i, j):
        t = _round_fixed((H[i][j] << prec) // H[j][j], prec)
        y[j] = y[j] + (t * y[i] >> prec)
        for k in range(1, j + 1):
            H[i][k] = H[i][k] - (t * H[j][k] >> prec)
        for k in idx:
            B[k][j] = B[k][j] + (t * B[k][i] >> prec)

    for i in range(2, n + 1):
        for j in range(i - 1, 0, -1):
            if H[j][j]:
                reduce_row(i, j)
    for _ in range(maxsteps):
        m, szmax = -1, -1
        for i in range(1, n):
            sz = (g**i * abs(H[i][i])) >> (prec * (i - 1))
            if sz > szmax:
                m, szmax = i, sz
        y[m], y[m + 1] = y[m + 1], y[m]
        H[m], H[m + 1] = H[m + 1], H[m]
        for row in B:
            row[m], row[m + 1] = row[m + 1], row[m]
        if m <= n - 2:
            t0 = _isqrt_fast(((H[m][m] ** 2 + H[m][m + 1] ** 2) >> prec) << prec)
            if not t0:  # precision exhausted
                break
            t1 = (H[m][m] << prec) // t0
            t2 = (H[m][m + 1] << prec) // t0
            for i in range(m, n + 1):
                t3, t4 = H[i][m], H[i][m + 1]
                H[i][m] = (t1 * t3 + t2 * t4) >> prec
                H[i][m + 1] = (-t2 * t3 + t1 * t4) >> prec
        for i in range(m + 1, n + 1):
            for j in range(min(i - 1, m + 1), 0, -1):
                if not H[j][j]:  # precision exhausted
                    break
                reduce_row(i, j)
        for i in idx:
            if abs(y[i]) < tol:
                vec = [_round_fixed(B[j][i], prec) >> prec for j in idx]
                if max(abs(v) for v in vec) < maxcoeff:
                    return vec
        recnorm = max(abs(h) for row in H for h in row)
        if not recnorm or (((1 << (2 * prec)) // recnorm) >> prec) // 100 >= maxcoeff:
            break
    return None


def _to_fixed(x: float | Fraction, prec: int) -> int:
    """floor(x * 2**prec)."""
    n, d = x.as_integer_ratio()
    return (n << prec) // d


def _round_fixed(x: int, prec: int) -> int:
    """x rounded to a multiple of 2**prec, halves up."""
    return ((x + (1 << (prec - 1))) >> prec) << prec


def _isqrt_fast(x: int) -> int:
    """mpmath's ``isqrt_fast_python``: floor(sqrt(x)), or 1 less for about
    one x in a thousand.  Below 2^800 it starts from the double square root
    and takes up to three Newton steps; above, it runs Newton's iteration for
    1/sqrt(x) at doubling precision with 10 guard bits."""
    if x < 1 << 800:
        y = int(x**0.5)
        for bound in (1 << 100, 1 << 200, 1 << 400):
            if x < bound:
                break
            y = (y + x // y) >> 1
        return y
    guard_bits = 10
    x <<= 2 * guard_bits
    bc = x.bit_length()
    bc += bc & 1
    hbc = bc // 2
    startprec = min(50, hbc)
    r = int(2.0 ** (2 * startprec) * (x >> (bc - 2 * startprec)) ** -0.5)
    steps = [hbc]
    while steps[-1] > startprec * 2:
        steps.append(steps[-1] // 2 + 2)
    pp = p = startprec
    for p in reversed(steps):
        r2 = (r * r) >> (2 * pp - p)
        xr2 = ((x >> (bc - p)) * r2) >> p
        r = (r * ((3 << p) - xr2)) >> (pp + 1)
        pp = p
    return (r * (x >> hbc)) >> (p + guard_bits)


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
    """A**k for k >= 0; a power past the double range holds inf or nan, unwarned."""
    result = np.eye(A.shape[0], dtype=complex)
    base = A
    with np.errstate(over="ignore", invalid="ignore"):
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
    return result


class NumSubspace:
    """Span of the columns of a numeric basis matrix."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, basis: np.ndarray):
        self.ambient = ambient
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[1]
