"""Eigenstructure of commuting families.

The central routine refines K^n into the finest decomposition on which every
generator acts with a single eigenvalue, working exactly whenever eigenvalues
can be recognised in the radical scalar field and falling back to validated
numerics otherwise.  Single-eigenvalue verdicts use the spectral-radius proxy
``||N^d||^(1/d)`` of the traceless part rather than raw eigenvalue clustering,
which stays reliable for defective matrices where eig output scatters like
``ulp^(1/d)``.

Each job has one routine.  :func:`eigenvalues` is the one exact-spectrum
routine, and the refinement splits an exact block through it.  Numeric
eigenvalues are clustered only by :func:`_separated_clusterings`, which yields
every clustering radius that separates the spectrum; its two callers differ
only in how they accept one (:func:`eigenvalues` recognises the first in the
field, :func:`_split_numeric` certifies the numeric kernels).  A triangular
exact matrix skips clustering and reads its spectrum off the diagonal
(:func:`_triangular_spectrum`), and :func:`re_im_columns` is the one
real/imaginary interleave of a basis.

An exact spectrum is only proposed numerically: :func:`eigenvalues` clusters
double-precision eigenvalues first and proposes again at the context
precision only when that proposal is not certified.  Either way each value v
of multiplicity m is certified exactly by ``kernel((A - v)^m)``
(:func:`_certified`), so the precision of the proposal never changes an
answer, only whether one is found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np

from .errors import (
    ClusterAmbiguity,
    InvarianceViolation,
    NoCommonEigenvector,
    UnmatchedConjugate,
)
from .groups import REAL, GeneratorSet
from .linalg import Matrix, RowEchelon, Subspace, kernel, restrict, solve
from .numeric import (
    CLUSTER_DELTA,
    MAX_PRECISION,
    NumericContext,
    NumSubspace,
    as_complex,
    imag_part,
    max_abs,
    neig,
    nidentity,
    nkernel,
    npower,
    nrank,
    nconj,
    nrestrict,
    nsolve_cols,
    real_part,
    to_numeric,
)
from .scalars import Scalar


class _Ambiguous(Exception):
    """Internal: retry at doubled precision."""


# ---------------------------------------------------------------------------
# blocks


@dataclass
class SpectralBlock:
    """Joint generalized eigenspace: one eigenvalue per generator on it."""

    subspace: Subspace | NumSubspace
    eigen_numeric: dict[int, complex]
    eigen_exact: dict[int, Scalar | None]
    noise: float = 0.0
    conj_partner: int | None = None
    # per-generator restrictions to subspace.basis, computed in restriction_ctx
    restrictions: list | None = None
    restriction_ctx: NumericContext | None = None

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def exact(self) -> bool:
        return isinstance(self.subspace, Subspace)

    def basis(self):
        return self.subspace.basis


@dataclass
class TriangularForm:
    """Common basis in which every generator is lower triangular."""

    basis: Matrix | np.ndarray          # ambient columns, triangular order
    triangular: list                    # per-generator restricted matrices
    diagonal: list                      # per-generator repeated value mu


@dataclass
class RealBlockGroup:
    """A real-invariant unit: a single real block or a conjugate pair."""

    kind: str                  # "real" | "pair"
    members: tuple[int, ...]
    leader: int
    real_basis: Matrix | np.ndarray
    block: SpectralBlock | None = None  # a real singleton's block on real_basis


@dataclass
class _Block:
    basis: Matrix | np.ndarray   # ambient x d columns
    noise: float = 0.0

    @property
    def exact(self) -> bool:
        return isinstance(self.basis, Matrix)

    @property
    def dim(self) -> int:
        return self.basis.cols if self.exact else self.basis.shape[1]


# ---------------------------------------------------------------------------
# restriction helpers


def _block_restriction(g, blk: _Block, ctx: NumericContext):
    if blk.exact and isinstance(g, Matrix):
        return restrict(g, blk.basis)
    sol, rel_resid = nrestrict(g, blk.basis, ctx)
    if rel_resid > 1e3 * max(ctx.eps, blk.noise):
        raise InvarianceViolation(
            f"numeric block basis is not invariant (residual {rel_resid:.3g})"
        )
    return sol


# ---------------------------------------------------------------------------
# single-eigenvalue verdicts


def _trace_mean(R):
    """Mean of the diagonal of R, an exact or numeric square matrix."""
    d = R.rows if isinstance(R, Matrix) else R.shape[0]
    tr = R[0, 0]
    for i in range(1, d):
        tr = tr + R[i, i]
    return tr / d


def _nilpotency_value(N: np.ndarray, ctx: NumericContext) -> tuple[float, float]:
    """Returns (||N^d||^(1/d), ||N||)."""
    d = N.shape[0]
    norm = max_abs(N)
    if norm == 0.0:
        return 0.0, 0.0
    val = max_abs(npower(N, d, ctx))
    return val ** (1.0 / d), norm


def _bands(d: int, norm: float, noise: float, prec: int) -> tuple[float, float]:
    err = max(16 * 2.0 ** (1 - prec), noise)
    low = (d * err) ** (1.0 / d) * max(1.0, norm)
    return low, 20.0 * low


def _single_eigenvalue(R, blk: _Block, ctx: NumericContext):
    """Return the single eigenvalue of R, or None when R has several.

    Exact restrictions are decided exactly; numeric ones use the banded
    spectral-radius test and raise _Ambiguous inside the gray zone.
    """
    mu = _trace_mean(R)
    if isinstance(R, Matrix):
        N = R - Matrix.identity(R.rows).scale(mu)
        return mu if N.power(R.rows).is_zero() else None
    d = R.shape[0]
    if d == 1:
        return mu
    N = R - mu * nidentity(d, ctx)
    value, norm = _nilpotency_value(N, ctx)
    low, high = _bands(d, norm, blk.noise, ctx.precision)
    if value <= low:
        return mu
    if value >= high:
        return None
    raise _Ambiguous(f"nilpotency value {value:.3g} inside band ({low:.3g}, {high:.3g})")


# ---------------------------------------------------------------------------
# eigenvalue clustering and exact recognition


def _cluster(values: list[complex], delta: float) -> list[tuple[complex, int, list[int]]]:
    """Union-find clustering at radius delta; returns (mean, size, members)."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= delta:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        center = sum(values[i] for i in members) / len(members)
        out.append((center, len(members), members))
    out.sort(key=lambda c: (round(c[0].real, 12), round(c[0].imag, 12)))
    return out


def _separated_clusterings(raw: list[complex]):
    """Yield (delta, clusters) for each radius that separates the eigenvalues raw.

    Ten radii grow by 8x from ``CLUSTER_DELTA`` times the spectral scale;
    a radius is skipped when two cluster centres lie within 10 * delta.
    """
    scale = max(1.0, max(abs(v) for v in raw))
    for j in range(10):
        delta = CLUSTER_DELTA * scale * (8.0**j)
        clusters = _cluster(raw, delta)
        centers = [c for c, _, _ in clusters]
        gaps = [abs(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]]
        if gaps and min(gaps) < 10 * delta:
            continue
        yield delta, clusters


def _exact_sort_key(v: Scalar) -> tuple[float, float]:
    z = complex(v.evaluate(64))
    return (round(z.real, 12), round(z.imag, 12))


def _triangular_spectrum(A: Matrix) -> list[tuple[Scalar, int]] | None:
    """Diagonal values with multiplicities of a triangular A, else None."""
    if not (A.is_lower_triangular() or A.transpose().is_lower_triangular()):
        return None
    seen: dict[Scalar, int] = {}
    for i in range(A.rows):
        seen[A[i, i]] = seen.get(A[i, i], 0) + 1
    return list(seen.items())


def recognize_in_field(z, radicands) -> Scalar | None:
    """Try to express a numeric value exactly over [1, sqrt(d)...] and i."""
    z = as_complex(z) if not isinstance(z, complex) else z
    rads = sorted(set(radicands))
    parts = []
    for x in (z.real, z.imag):
        if abs(x) <= 1e-12:
            parts.append(Scalar.zero())
            continue
        basis = [Scalar.one()] + [Scalar.sqrt_int(d) for d in rads]
        vals = [mpmath.mpf(x)] + [v.evaluate(64).real for v in basis]
        try:
            # desk-scale height cap: genuine eigenvalue coordinates of small
            # matrices have tiny height, while junk relations matching an
            # arbitrary double need far larger coefficients
            rel = mpmath.pslq(vals, tol=mpmath.mpf(1e-11), maxcoeff=10**3, maxsteps=10**4)
        except Exception:
            rel = None
        if not rel or rel[0] == 0:
            return None
        from fractions import Fraction

        cand = Scalar.zero()
        for coeff, b in zip(rel[1:], basis):
            cand = cand + b * Scalar.from_fraction(Fraction(-coeff, rel[0]))
        # genuine matches agree to near machine precision; pslq artifacts
        # only reach the pslq tolerance (~1e-11) and are rejected here
        if abs(complex(cand.evaluate(64)) - x) > 2e-13 * max(1.0, abs(x)):
            return None
        parts.append(cand)
    return parts[0] + Scalar.i() * parts[1]


def eigenvalues(
    A: Matrix,
    ctx: NumericContext | None = None,
    radicands: set[int] | None = None,
    numeric: list[complex] | None = None,
) -> list[tuple[Scalar, int, Matrix]] | None:
    """Exact spectrum of A as (value, multiplicity, generalized eigenspace basis).

    A triangular A reads its values off the diagonal.  Otherwise the first
    radius that separates the numeric spectrum clusters it, and each centre
    is recognised over ``radicands`` (default: those of A's entries).  The
    centres are proposed at 53 bits first, and again at ``ctx.precision``
    only when the 53-bit proposal is not certified.  A proposal is certified
    when its values are distinct, its multiplicities sum to n, and each
    ``kernel((A - v)^m)`` has the dimension of v's multiplicity m.  The
    triples are sorted by value; None when some eigenvalue is not found in
    the field.  Then a ``numeric`` list receives the numeric eigenvalues of
    the last rung, at ``ctx.precision``, so that a caller that goes on to
    split A numerically does not compute them again.
    """
    if A.rows != A.cols:
        raise ValueError("eigenvalues of a non-square matrix")
    ctx = ctx or NumericContext()
    spectrum = _triangular_spectrum(A)
    if spectrum is not None:
        return _certified(A, spectrum)
    if radicands is None:
        radicands = set().union(*(e.radicands() for row in A.entries() for e in row))
    # a certified spectrum is unique, so the cheap proposal decides whenever
    # it is certified; only a failed one is proposed again at ctx.precision
    rungs = [replace(ctx, precision=53), ctx] if ctx.high else [ctx]
    for rung in rungs:
        raw = [as_complex(e) for e in neig(to_numeric(A, rung), rung)]
        spectrum = _recognized_spectrum(raw, radicands)
        if spectrum is not None and (out := _certified(A, spectrum)) is not None:
            return out
    if numeric is not None:
        numeric.extend(raw)
    return None


def _recognized_spectrum(raw: list[complex], radicands) -> list[tuple[Scalar, int]] | None:
    """Cluster centres of the numeric spectrum raw recognised over radicands, else None."""
    _, clusters = next(_separated_clusterings(raw), (None, None))
    if clusters is None:
        return None
    spectrum = []
    for center, mult, _ in clusters:
        value = recognize_in_field(center, radicands)
        if value is None:
            return None
        spectrum.append((value, mult))
    return spectrum


def _certified(A: Matrix, spectrum: list[tuple[Scalar, int]]) -> list[tuple[Scalar, int, Matrix]] | None:
    """The proposed (value, multiplicity) pairs with their eigenspaces, if exact.

    ker((A - v)^m) lies in the generalized eigenspace G(v), and the G(v) of
    distinct values form a direct sum, so sum dim G(v_i) <= n = sum m_i.
    When every kernel has dimension m_i, each is therefore the whole G(v_i),
    which is ker((A - v_i)^n): A has no other eigenvalue.  A null space fixes
    the pivot set of its echelon form, so ``kernel`` returns the same basis
    as it would for the n-th power.
    """
    n = A.rows
    if len({v for v, _ in spectrum}) != len(spectrum) or sum(m for _, m in spectrum) != n:
        return None
    out = []
    Id = Matrix.identity(n)
    for value, mult in spectrum:
        K = kernel((A - Id.scale(value)).power(mult))
        if K.dim != mult:
            return None
        out.append((value, mult, K.basis))
    out.sort(key=lambda vmb: _exact_sort_key(vmb[0]))
    return out


# ---------------------------------------------------------------------------
# simultaneous refinement


def simultaneous_refinement(G: GeneratorSet, ctx: NumericContext | None = None) -> list[SpectralBlock]:
    """Finest decomposition with one eigenvalue per generator per block."""
    ctx = ctx or NumericContext()
    G.check_abelian(ctx)
    cur = ctx
    while True:
        try:
            return _refine(G, cur)
        except _Ambiguous as exc:
            if cur.precision >= MAX_PRECISION:
                raise ClusterAmbiguity(str(exc))
            cur = cur.doubled()


def _data_precision(G: GeneratorSet, ctx: NumericContext) -> int:
    """Bit precision actually carried by the generator data."""
    prec = ctx.precision
    for g in G.generators:
        if isinstance(g, np.ndarray) and g.dtype != object:
            prec = min(prec, 53)
    return prec


def _refine(G: GeneratorSet, ctx: NumericContext) -> list[SpectralBlock]:
    n = G.dimension
    radicands = G.radicands()
    if G.exact:
        root = _Block(Matrix.identity(n), noise=0.0)
    else:
        # escalating the context cannot repair double-precision input data,
        # so the noise floor follows the data precision, not the context
        root = _Block(nidentity(n, ctx), noise=64 * 2.0 ** (1 - _data_precision(G, ctx)))
    queue = [root]
    # each block with its restriction and eigenvalue per generator
    final: list[tuple[_Block, list, list]] = []
    while queue:
        blk = queue.pop(0)
        if blk.dim == 0:
            continue
        restrictions, mus = [], []
        for g in G.generators:
            R = _block_restriction(g, blk, ctx)
            mu = _single_eigenvalue(R, blk, ctx)
            if mu is None:
                queue[0:0] = _split_block(R, blk, ctx, radicands)
                break
            restrictions.append(R)
            mus.append(mu)
        else:
            final.append((blk, restrictions, mus))

    total = sum(b.dim for b, _, _ in final)
    if total != n:
        raise _Ambiguous(f"block dimensions sum to {total}, expected {n}")
    _validate_direct_sum([b for b, _, _ in final], ctx)

    blocks = []
    for blk, restrictions, mus in final:
        eig_num: dict[int, complex] = {}
        eig_exact: dict[int, Scalar | None] = {}
        for gi, mu in enumerate(mus):
            if isinstance(mu, Scalar):
                eig_exact[gi] = mu
                eig_num[gi] = complex(mu.evaluate(ctx.precision))
            else:
                eig_exact[gi] = None
                eig_num[gi] = as_complex(mu)
        if blk.exact:
            sub = Subspace(n, blk.basis)
        else:
            sub = NumSubspace(n, blk.basis)
        blocks.append(SpectralBlock(sub, eig_num, eig_exact, noise=blk.noise,
                                    restrictions=restrictions, restriction_ctx=ctx))

    def sort_key(b: SpectralBlock):
        vals = []
        for gi in range(len(G.generators)):
            z = b.eigen_numeric[gi]
            vals.append((round(z.real, 9), round(z.imag, 9)))
        return (tuple(vals), -b.dim)

    blocks.sort(key=sort_key)
    return blocks


def _validate_direct_sum(blocks: list[_Block], ctx: NumericContext) -> None:
    if not blocks:
        return
    if all(b.exact for b in blocks):
        stacked = blocks[0].basis
        for b in blocks[1:]:
            stacked = stacked.hstack(b.basis)
        if stacked.rows == stacked.cols and stacked.det().is_zero():
            raise _Ambiguous("exact block bases do not form a direct sum")
        return
    mats = [to_numeric(b.basis, ctx) for b in blocks]
    stacked = np.hstack([np.asarray(m, dtype=object if m.dtype == object else complex) for m in mats])
    if nrank(stacked, ctx) != stacked.shape[1]:
        raise _Ambiguous("numeric block bases do not form a direct sum")


def _split_block(R, blk: _Block, ctx: NumericContext, radicands) -> list[_Block]:
    """Split a block along the spectrum of one restriction with >= 2 eigenvalues."""
    raw: list[complex] = []
    if isinstance(R, Matrix):
        spectrum = eigenvalues(R, ctx, radicands, raw)
        if spectrum is not None and len(spectrum) >= 2:
            return [_Block(blk.basis * basis) for _, _, basis in spectrum]
        R = to_numeric(R, ctx)
        blk = _Block(to_numeric(blk.basis, ctx), noise=max(blk.noise, 64 * 2.0 ** (1 - ctx.precision)))
    return _split_numeric(R, blk, ctx, raw or [as_complex(e) for e in neig(R, ctx)])


def _split_numeric(R: np.ndarray, blk: _Block, ctx: NumericContext, raw: list[complex]) -> list[_Block]:
    """Split along the clusterings of raw, the numeric eigenvalues of R."""
    d = R.shape[0]
    for delta, clusters in _separated_clusterings(raw):
        if len(clusters) < 2:
            break
        subs = []
        for center, mult, _ in clusters:
            N = R - center * nidentity(d, ctx)
            K = nkernel(npower(N, mult, ctx), ctx, expected=mult)
            sol, resid = nsolve_cols(K, R @ K, ctx)
            if resid > 1e3 * max(ctx.eps, blk.noise, delta) * max(1.0, max_abs(R)):
                break
            subs.append(K)
        if len(subs) == len(clusters) and nrank(np.hstack(subs), ctx) == d:
            child_noise = max(blk.noise, 64 * 2.0 ** (1 - ctx.precision))
            return [_Block(to_numeric(blk.basis, ctx) @ K, noise=child_noise) for K in subs]
    raise _Ambiguous("numeric eigenvalue clusters cannot be certified")


# ---------------------------------------------------------------------------
# conjugate pairing over R


def _eigen_is_real(block: SpectralBlock, tol: float) -> bool:
    for gi, z in block.eigen_numeric.items():
        ex = block.eigen_exact.get(gi)
        if ex is not None:
            if not ex.is_real():
                return False
        elif abs(z.imag) > tol * max(1.0, abs(z)):
            return False
    return True


def _conjugate_maps(a: SpectralBlock, b: SpectralBlock, tol: float) -> bool:
    for gi in a.eigen_numeric:
        za = a.eigen_numeric[gi]
        zb = b.eigen_numeric[gi]
        if abs(za - zb.conjugate()) > tol * max(1.0, abs(za)):
            return False
    return True


def _conjugate_span(a: SpectralBlock, b: SpectralBlock, ctx: NumericContext) -> bool:
    if a.exact and b.exact:
        conj_cols = a.subspace.basis.conjugate().columns()
        return Subspace.span(a.subspace.ambient, conj_cols) == Subspace.span(
            b.subspace.ambient, b.subspace.basis.columns()
        )
    stacked = np.hstack([nconj(to_numeric(a.subspace.basis, ctx)), to_numeric(b.subspace.basis, ctx)])
    return nrank(stacked, ctx) == a.dim


def _real_block(blk: SpectralBlock, ctx: NumericContext) -> SpectralBlock:
    """The block on a real basis of its span.

    An exact block is returned itself, so the restrictions it carries are
    reused: its basis is a kernel of real matrices, hence real.
    """
    if blk.exact:
        if not blk.subspace.basis.is_real():
            raise UnmatchedConjugate("exact block with real eigenvalues has a complex basis")
        return blk
    sub = NumSubspace(blk.subspace.ambient, _realify_numeric_basis(blk.subspace.basis, ctx))
    return SpectralBlock(sub, blk.eigen_numeric, blk.eigen_exact, noise=blk.noise)


def _realify_numeric_basis(basis: np.ndarray, ctx: NumericContext) -> np.ndarray:
    d = basis.shape[1]
    cand = np.hstack([real_part(basis), imag_part(basis)])
    # range of cand = left singular vectors
    if cand.dtype == object:
        A = np.array([[float(x.real) for x in row] for row in cand])
    else:
        A = cand.real.astype(float)
    U, S, _ = np.linalg.svd(A)
    if d and S[d - 1] <= ctx.eps * max(S[0], 1e-300):
        raise UnmatchedConjugate("block with real eigenvalues has deficient real span")
    return U[:, :d].astype(complex)


def pair_conjugates(
    blocks: list[SpectralBlock], G: GeneratorSet, ctx: NumericContext | None = None
) -> list[RealBlockGroup]:
    """Group blocks of a real family into real singletons and conjugate pairs."""
    ctx = ctx or NumericContext()
    if G.field != REAL:
        raise ValueError("conjugate pairing applies to real generator sets")
    tol = math.sqrt(max(ctx.eps, 1e-15))
    groups: list[RealBlockGroup] = []
    used: set[int] = set()
    for i, blk in enumerate(blocks):
        if i in used:
            continue
        if _eigen_is_real(blk, tol):
            used.add(i)
            real = _real_block(blk, ctx)
            groups.append(RealBlockGroup("real", (i,), i, real.basis(), real))
            continue
        partner = None
        for j in range(len(blocks)):
            if j == i or j in used:
                continue
            if blocks[j].dim == blk.dim and _conjugate_maps(blk, blocks[j], tol) and _conjugate_span(blk, blocks[j], ctx):
                partner = j
                break
        if partner is None:
            raise UnmatchedConjugate(
                f"block {i} has complex eigenvalues but no conjugate partner"
            )
        used.add(i)
        used.add(partner)
        leader = i if _leader_orientation(blk) else partner
        blocks[i].conj_partner = partner
        blocks[partner].conj_partner = i
        rb = re_im_columns(blocks[leader].subspace.basis)
        groups.append(RealBlockGroup("pair", (i, partner), leader, rb))
    return groups


def _leader_orientation(blk: SpectralBlock) -> bool:
    for gi in sorted(blk.eigen_numeric):
        im = blk.eigen_numeric[gi].imag
        if abs(im) > 1e-12:
            return im > 0
    return True


def re_im_columns(basis: Matrix | np.ndarray) -> Matrix | np.ndarray:
    """Columns Re(w1), Im(w1), Re(w2), ... of a basis w, exact or numeric."""
    if isinstance(basis, Matrix):
        half = Scalar.from_fraction("1/2")
        mhi = Scalar.i() * Scalar.from_fraction("-1/2")
        cols = []
        for col in basis.columns():
            cols.append([(c + c.conjugate()) * half for c in col])
            cols.append([(c - c.conjugate()) * mhi for c in col])
        return Matrix.from_cols(cols)
    cols = []
    for j in range(basis.shape[1]):
        cols.append(real_part(basis[:, j : j + 1]))
        cols.append(imag_part(basis[:, j : j + 1]))
    return np.hstack(cols)


# ---------------------------------------------------------------------------
# simultaneous triangularization of a single-eigenvalue block


def triangularize(
    G: GeneratorSet,
    block: SpectralBlock,
    ctx: NumericContext | None = None,
) -> TriangularForm:
    """Common basis making every generator lower triangular on the block."""
    ctx = ctx or NumericContext()
    blk = _Block(block.subspace.basis, noise=block.noise)
    restrictions = block.restrictions
    if restrictions is None or block.restriction_ctx != ctx:
        restrictions = [_block_restriction(g, blk, ctx) for g in G.generators]
    mus = []
    for gi, R in enumerate(restrictions):
        ex = block.eigen_exact.get(gi)
        mus.append(ex if ex is not None else _trace_mean(R))
    if all(isinstance(R, Matrix) for R in restrictions):
        coeff_change, tri = _triangularize_exact(restrictions, mus)
    else:
        nmus = [m.evaluate(ctx.precision) if isinstance(m, Scalar) else m for m in mus]
        coeff_change, tri = _triangularize_numeric(
            [to_numeric(R, ctx) for R in restrictions], nmus, ctx, blk.noise
        )
    if isinstance(coeff_change, Matrix) and blk.exact:
        basis = blk.basis * coeff_change
    else:
        basis = to_numeric(blk.basis, ctx) @ to_numeric(coeff_change, ctx)
    return TriangularForm(basis, tri, mus)


def _triangularize_exact(restrictions: list[Matrix], mus: list[Scalar]):
    d = restrictions[0].rows if restrictions else 0
    nils = [R - Matrix.identity(d).scale(mu) for R, mu in zip(restrictions, mus)]
    layers: list[list] = []
    current: list = []  # basis vectors (columns) of the current flag subspace
    flag = RowEchelon()  # the span of current, for independence tests
    while len(current) < d:
        if current:
            ann = kernel(Matrix.from_cols(current).transpose()).basis.transpose()
        else:
            ann = Matrix.identity(d)
        stacked_rows = []
        for N in nils:
            prod = ann * N
            stacked_rows.extend(prod.entries())
        V = kernel(Matrix(stacked_rows))
        new_vecs = [v for v in V.basis.columns() if flag.insert(v)]
        if not new_vecs:
            raise NoCommonEigenvector(
                "joint kernel of the nilpotent parts did not grow"
            )
        layers.append(new_vecs)
        current = current + new_vecs
    cols: list = []
    for layer in reversed(layers):
        cols.extend(layer)
    # leading-one column normalization: keeps the form triangular and the
    # diagonal unchanged, and stops radical factors inflating restrictions
    normed = []
    for col in cols:
        lead = next((x for x in col if not x.is_zero()), None)
        normed.append([x / lead for x in col] if lead is not None else list(col))
    P = Matrix.from_cols(normed)
    tri = []
    for R in restrictions:
        T = solve(P, R * P)
        if T is None or not T.is_lower_triangular():
            raise NoCommonEigenvector("exact triangularization failed")
        tri.append(T)
    return P, tri


def _triangularize_numeric(restrictions, mus, ctx: NumericContext, noise: float):
    d = restrictions[0].shape[0] if restrictions else 0
    nils = [R - mu * nidentity(d, ctx) for R, mu in zip(restrictions, mus)]
    tol = max(ctx.eps, noise)
    layers = []
    current: np.ndarray | None = None
    dim_cur = 0
    while dim_cur < d:
        if current is not None and dim_cur:
            ann = nkernel(current.T, ctx).T
            ann = nconj(ann)
        else:
            ann = nidentity(d, ctx)
        stacked = [ann @ N for N in nils]
        stacked = np.vstack(stacked) if stacked else np.zeros((0, d), dtype=complex)
        V = nkernel(stacked, ctx) if stacked.shape[0] else nidentity(d, ctx)
        new_cols = _extend_numeric(current, V, tol)
        if new_cols is None or new_cols.shape[1] == 0:
            raise NoCommonEigenvector(
                "joint numeric kernel of the nilpotent parts did not grow"
            )
        layers.append(new_cols)
        current = new_cols if current is None else np.hstack([current, new_cols])
        dim_cur = current.shape[1]
    P = np.hstack(list(reversed(layers)))
    tri = []
    for R in restrictions:
        T, resid = nsolve_cols(P, R @ P, ctx)
        scale = max(1.0, max_abs(R))
        if resid > 1e3 * tol * scale:
            raise NoCommonEigenvector("numeric triangular solve residual too large")
        tri.append(T)
    for T in tri:
        if _tri_defect(T) > 1e3 * tol * max(1.0, max_abs(T)):
            raise NoCommonEigenvector("numeric triangularization defect too large")
    return P, tri


def _tri_defect(T: np.ndarray) -> float:
    worst = 0.0
    d = T.shape[0]
    for i in range(d):
        for j in range(i + 1, d):
            worst = max(worst, abs(as_complex(T[i, j])))
    return worst


def _extend_numeric(current: np.ndarray | None, candidates: np.ndarray, tol: float):
    """Greedy column extension keeping numerically independent candidates."""
    cols = []
    if current is not None and current.shape[1]:
        Q, _ = np.linalg.qr(np.asarray(current, dtype=complex))
    else:
        Q = None
    taken = []
    for j in range(candidates.shape[1]):
        c = np.asarray(candidates[:, j], dtype=complex)
        r = c.copy()
        if Q is not None:
            r = r - Q @ (Q.conj().T @ r)
        for t in taken:
            r = r - t * (t.conj() @ r)
        nr = float(np.linalg.norm(r))
        if nr > max(tol, 1e-10) * max(1.0, float(np.linalg.norm(c))):
            taken.append(r / nr)
            cols.append(candidates[:, j : j + 1])
    if not cols:
        return np.zeros((candidates.shape[0], 0), dtype=complex)
    return np.hstack(cols)
