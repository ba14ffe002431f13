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
only in how they accept one (:func:`eigenvalues` recognises each in the
field, :func:`_split_numeric` certifies the numeric kernels), and
:func:`re_im_columns` is the one real/imaginary interleave of a basis.

:func:`eigenvalues` proposes an exact spectrum in one fixed order at every
precision: the diagonal of a triangular matrix, then the clusterings of the
double-precision eigenvalues, then the roots of the squarefree factors of
the exact characteristic polynomial.  Each value v of multiplicity m is
certified exactly by ``kernel((A - v)^m)`` (:func:`_certified`), so the
precision of a proposal never changes an answer, only whether one is found.

A block whose spectrum is not certified is split numerically, in double
precision, and only under a 53-bit context.  Above 53 bits it raises
:class:`SpectrumNotCertified` instead: the numeric kernels are no more
accurate than double precision, so a wider context would not make their
answer better founded.  Every numeric block has the noise floor NOISE.

An exact block's triangular flag takes one :func:`kernel` per layer.  F_(j+1)
is the v with N v in F_j for every nilpotent part N, and the kernel basis V
of F_j, a unit at each free coordinate, states F_j's equations with no
elimination: v[piv] = V[piv] v[free].  So the next layer is the kernel of
the stacked N[piv] - V[piv] N[free], and its new flag columns are those of
its basis whose free coordinate is new (:func:`_triangularize_exact`).  A
triangular exact restriction's single eigenvalue is read off its diagonal.

A numeric block's triangular flag is built on :func:`nkernel` alone: with
the flag kept as orthonormal columns F, the next layer is the joint kernel of
the nilpotent parts projected off the flag, ``(I - F F^H) N``, less its part
in span F.  A stack at most d NOISE times the restrictions' scale (as in
:func:`_single_eigenvalue`) is noise read as zero, so the whole space joins.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from ._numpy import np

from .errors import (
    ClusterAmbiguity,
    InvarianceViolation,
    NoCommonEigenvector,
    SpectrumNotCertified,
    UnmatchedConjugate,
)
from .groups import REAL, GeneratorSet
from .linalg import Matrix, Subspace, kernel, rank, restrict, solve, squarefree_factors
from .numeric import (
    CLUSTER_DELTA,
    NumericContext,
    NumSubspace,
    max_abs,
    neig,
    nkernel,
    npower,
    nrank,
    nrestrict,
    nsolve_cols,
    polynomial_roots,
    pslq,
    to_numeric,
)
from .scalars import Scalar

NOISE = 64 * 2.0**-52  # relative noise floor of every numeric (double-precision) block

# ---------------------------------------------------------------------------
# blocks


class SpectralBlock:
    """Joint generalized eigenspace: one eigenvalue per generator on it."""

    __slots__ = ("subspace", "eigen_numeric", "eigen_exact", "conj_partner", "restrictions")

    def __init__(self, subspace: Subspace | NumSubspace, eigen_numeric: dict[int, complex],
                 eigen_exact: dict[int, Scalar | None], conj_partner: int | None = None,
                 restrictions: list | None = None):
        self.subspace = subspace
        self.eigen_numeric = eigen_numeric
        self.eigen_exact = eigen_exact
        self.conj_partner = conj_partner
        self.restrictions = restrictions  # per-generator restrictions to subspace.basis

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def exact(self) -> bool:
        return isinstance(self.subspace, Subspace)

    def basis(self):
        return self.subspace.basis


class TriangularForm:
    """Common basis in which every generator is lower triangular."""

    __slots__ = ("basis", "triangular", "diagonal")

    def __init__(self, basis: Matrix | np.ndarray, triangular: list, diagonal: list):
        self.basis = basis            # ambient columns, triangular order
        self.triangular = triangular  # per-generator restricted matrices
        self.diagonal = diagonal      # per-generator repeated value mu


# ---------------------------------------------------------------------------
# restriction helpers


def _block_restriction(g, basis: Matrix | np.ndarray, ctx: NumericContext):
    # a group with a numeric generator has a numeric root, so no exact block
    if isinstance(basis, Matrix):
        return restrict(g, basis)
    sol, rel_resid = nrestrict(g, basis)
    if rel_resid > 1e3 * max(ctx.eps, NOISE):
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


def _nilpotency_value(N: np.ndarray) -> tuple[float, float]:
    """Returns (||N^d||^(1/d), ||N||)."""
    d = N.shape[0]
    norm = max_abs(N)
    if norm == 0.0:
        return 0.0, 0.0
    val = max_abs(npower(N, d))
    return val ** (1.0 / d), norm


def _single_eigenvalue(R):
    """Return the single eigenvalue of R, or None when R has several.

    Exact restrictions are decided exactly: a triangular one by its
    diagonal, which is its spectrum, and any other by whether R - mu I is
    nilpotent, mu the trace mean.  Numeric ones use the banded
    spectral-radius test and raise ClusterAmbiguity inside the gray zone.
    """
    if isinstance(R, Matrix):
        spectrum = _triangular_spectrum(R)
        if spectrum is not None:
            return spectrum[0][0] if len(spectrum) == 1 else None
        mu = _trace_mean(R)
        N = R - Matrix.identity(R.rows).scale(mu)
        return mu if N.power(R.rows).is_zero() else None
    mu = _trace_mean(R)
    d = R.shape[0]
    if d == 1:
        return mu
    value, norm = _nilpotency_value(R - mu * np.eye(d, dtype=complex))
    low = (d * NOISE) ** (1.0 / d) * max(1.0, norm)
    if value <= low:
        return mu
    if value >= 20.0 * low:
        return None
    raise ClusterAmbiguity(f"nilpotency value {value:.3g} inside band ({low:.3g}, {20.0 * low:.3g})")


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
    z = v.evaluate_complex(64)
    return (round(z.real, 12), round(z.imag, 12))


def _triangular_spectrum(A: Matrix) -> list[tuple[Scalar, int]] | None:
    """Diagonal values with multiplicities of a triangular A, else None."""
    if not (A.is_lower_triangular() or A.transpose().is_lower_triangular()):
        return None
    seen: dict[Scalar, int] = {}
    for i in range(A.rows):
        seen[A[i, i]] = seen.get(A[i, i], 0) + 1
    return list(seen.items())


def recognize_in_field(z: complex, radicands) -> Scalar | None:
    """Try to express a numeric value exactly over [1, sqrt(d)...] and i."""
    rads = sorted(set(radicands))
    parts = []
    for x in (z.real, z.imag):
        if abs(x) <= 1e-12:
            parts.append(Scalar.zero())
            continue
        basis = [Scalar.one()] + [Scalar.sqrt_int(d) for d in rads]
        vals = [x] + [v.evaluate_complex(64).real for v in basis]
        try:
            # desk-scale height cap: genuine eigenvalue coordinates of small
            # matrices have tiny height, while junk relations matching an
            # arbitrary double need far larger coefficients
            rel = pslq(vals, tol=1e-11, maxcoeff=10**3, maxsteps=10**4)
        except (ArithmeticError, ValueError):  # a value that is not finite
            rel = None
        if not rel or rel[0] == 0:
            return None
        cand = Scalar.zero()
        for coeff, b in zip(rel[1:], basis):
            cand = cand + b * Scalar.from_fraction(Fraction(-coeff, rel[0]))
        # genuine matches agree to near machine precision; pslq artifacts
        # only reach the pslq tolerance (~1e-11) and are rejected here
        if abs(cand.evaluate_complex(64).real - x) > 2e-13 * max(1.0, abs(x)):
            return None
        parts.append(cand)
    return parts[0] + Scalar.i() * parts[1]


def eigenvalues(
    A: Matrix,
    ctx: NumericContext,
    radicands: set[int] | None = None,
) -> list[tuple[Scalar, int, Matrix]] | None:
    """Exact spectrum of A as (value, multiplicity, generalized eigenspace basis).

    Proposals, in order, until :func:`_certified` accepts one:

    1. the diagonal of a triangular A;
    2. every distinct clustering of A's double-precision eigenvalues that
       :func:`_separated_clusterings` yields, in radius order (a defective
       eigenvalue's values scatter into a cluster that only a larger radius
       merges), except one with a single cluster: a non-triangular A comes
       here only with several eigenvalues, from :func:`_split_block`.  Each
       distinct cluster's centre is recognised over ``radicands`` (default:
       those of A's entries) at most once;
    3. for each squarefree factor (a, k) of A's exact characteristic
       polynomial, with multiplicity k: a linear factor's root, exactly, and
       any other factor's roots at ``ctx.precision``
       (:func:`polynomial_roots`), recognised over ``radicands``.

    A proposal is certified when its values are distinct, its multiplicities
    sum to n, and each ``kernel((A - v)^m)`` has the dimension m.  The
    triples are sorted by value; None when no proposal is certified.
    """
    if A.rows != A.cols:
        raise ValueError("eigenvalues of a non-square matrix")
    spectrum = _triangular_spectrum(A)
    if spectrum is not None:
        return _certified(A, spectrum)
    if radicands is None:
        radicands = set().union(*(e.radicands() for row in A.entries() for e in row))
    # a certified spectrum is unique, so the cheap proposal decides whenever
    # one is certified
    recognized: dict[tuple[int, ...], Scalar | None] = {}
    tried = set()
    for _, clusters in _separated_clusterings(neig(A)):
        members = tuple(tuple(m) for _, _, m in clusters)
        if len(members) < 2 or members in tried:
            continue
        tried.add(members)
        spectrum = []
        for (center, mult, _), m in zip(clusters, members):
            if m not in recognized:
                recognized[m] = recognize_in_field(center, radicands)
            if recognized[m] is None:
                break
            spectrum.append((recognized[m], mult))
        else:
            if (out := _certified(A, spectrum)) is not None:
                return out
    spectrum = []
    for a, k in squarefree_factors(A.charpoly()):
        a = [c if isinstance(c, Scalar) else Scalar.from_fraction(c) for c in a]
        if len(a) == 2:
            spectrum.append((-a[1], k))
            continue
        for z in polynomial_roots(a, ctx.precision):
            if (value := recognize_in_field(complex(*z), radicands)) is None:
                return None
            spectrum.append((value, k))
    return _certified(A, spectrum)


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
    Id = Matrix.identity(n)
    out = []
    for value, mult in spectrum:
        K = kernel((A - Id.scale(value)).power(mult))
        if K.dim != mult:
            return None
        out.append((value, mult, K.basis))
    out.sort(key=lambda vmb: _exact_sort_key(vmb[0]))
    return out


# ---------------------------------------------------------------------------
# simultaneous refinement


def simultaneous_refinement(G: GeneratorSet, ctx: NumericContext) -> list[SpectralBlock]:
    """Finest decomposition with one eigenvalue per generator per block."""
    G.check_abelian(ctx)
    n = G.dimension
    radicands = G.radicands()
    queue = [Matrix.identity(n) if G.exact else np.eye(n, dtype=complex)]
    # each block basis with its restriction and eigenvalue per generator
    final: list[tuple[Matrix | np.ndarray, list, list]] = []
    while queue:
        basis = queue.pop(0)
        restrictions, mus = [], []
        for g in G.generators:
            R = _block_restriction(g, basis, ctx)
            mu = _single_eigenvalue(R)
            if mu is None:
                queue[0:0] = _split_block(R, basis, ctx, radicands)
                break
            restrictions.append(R)
            mus.append(mu)
        else:
            final.append((basis, restrictions, mus))

    total = sum(b.cols if isinstance(b, Matrix) else b.shape[1] for b, _, _ in final)
    if total != n:
        raise ClusterAmbiguity(f"block dimensions sum to {total}, expected {n}")
    _validate_direct_sum([b for b, _, _ in final], ctx)

    blocks = []
    for basis, restrictions, mus in final:
        eig_num: dict[int, complex] = {}
        eig_exact: dict[int, Scalar | None] = {}
        for gi, mu in enumerate(mus):
            if isinstance(mu, Scalar):
                eig_exact[gi] = mu
                eig_num[gi] = mu.evaluate_complex(ctx.precision)
            else:
                eig_exact[gi] = None
                eig_num[gi] = complex(mu)
        sub = Subspace(n, basis) if isinstance(basis, Matrix) else NumSubspace(n, basis)
        blocks.append(SpectralBlock(sub, eig_num, eig_exact, restrictions=restrictions))

    def sort_key(b: SpectralBlock):
        vals = []
        for gi in range(len(G.generators)):
            z = b.eigen_numeric[gi]
            vals.append((round(z.real, 9), round(z.imag, 9)))
        return (tuple(vals), -b.dim)

    blocks.sort(key=sort_key)
    return blocks


def _validate_direct_sum(bases: list[Matrix | np.ndarray], ctx: NumericContext) -> None:
    if all(isinstance(b, Matrix) for b in bases):
        stacked = reduce(Matrix.hstack, bases)
        if stacked.rows == stacked.cols and stacked.det().is_zero():
            raise ClusterAmbiguity("exact block bases do not form a direct sum")
        return
    stacked = np.hstack([to_numeric(b) for b in bases])
    if nrank(stacked, ctx) != stacked.shape[1]:
        raise ClusterAmbiguity("numeric block bases do not form a direct sum")


def _split_block(R, basis: Matrix | np.ndarray, ctx: NumericContext, radicands) -> list:
    """Split a block along the spectrum of one restriction with >= 2 eigenvalues.

    An exact R is split along its certified spectrum.  Otherwise the block is
    split numerically, at 53 bits only: above them SpectrumNotCertified is
    raised.
    """
    if isinstance(R, Matrix):
        spectrum = eigenvalues(R, ctx, radicands)
        if spectrum is not None:
            return [basis * b for _, _, b in spectrum]
    if ctx.precision > 53:
        raise SpectrumNotCertified(
            f"no exact spectrum of a block is certified at precision {ctx.precision}, "
            "and numeric splitting runs only at 53 bits; try --precision 53"
        )
    R = to_numeric(R)
    return _split_numeric(R, to_numeric(basis), ctx, neig(R))


def _split_numeric(R: np.ndarray, basis: np.ndarray, ctx: NumericContext,
                   raw: list[complex]) -> list[np.ndarray]:
    """Split along the clusterings of raw, the numeric eigenvalues of R."""
    d = R.shape[0]
    for delta, clusters in _separated_clusterings(raw):
        if len(clusters) < 2:
            break
        subs = []
        for center, mult, _ in clusters:
            K = nkernel(npower(R - center * np.eye(d, dtype=complex), mult), ctx, expected=mult)
            _, resid = nsolve_cols(K, R @ K)
            if resid > 1e3 * max(ctx.eps, NOISE, delta) * max(1.0, max_abs(R)):
                break
            subs.append(K)
        if len(subs) == len(clusters) and nrank(np.hstack(subs), ctx) == d:
            return [basis @ K for K in subs]
    raise ClusterAmbiguity("numeric eigenvalue clusters cannot be certified")


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
        return rank(a.subspace.basis.conjugate().hstack(b.subspace.basis)) == a.dim
    stacked = np.hstack([np.conj(to_numeric(a.subspace.basis)), to_numeric(b.subspace.basis)])
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
    return SpectralBlock(sub, blk.eigen_numeric, blk.eigen_exact)


def _realify_numeric_basis(basis: np.ndarray, ctx: NumericContext) -> np.ndarray:
    d = basis.shape[1]
    # range of [Re basis | Im basis] = left singular vectors
    U, S, _ = np.linalg.svd(np.hstack([basis.real, basis.imag]).astype(float))
    if d and S[d - 1] <= ctx.eps * max(S[0], 1e-300):
        raise UnmatchedConjugate("block with real eigenvalues has deficient real span")
    return U[:, :d].astype(complex)


def pair_conjugates(
    blocks: list[SpectralBlock], G: GeneratorSet, ctx: NumericContext
) -> list[tuple[SpectralBlock, bool]]:
    """The real-invariant units of a real family's blocks, as (block, is_pair).

    A block with real eigenvalues is returned on a real basis of its span; a
    conjugate pair by its leader, whose Re/Im columns span the pair's real
    subspace.  The partners of a pair are cross-linked by conj_partner.
    """
    if G.field != REAL:
        raise ValueError("conjugate pairing applies to real generator sets")
    tol = math.sqrt(max(ctx.eps, 1e-15))
    units: list[tuple[SpectralBlock, bool]] = []
    used: set[int] = set()
    for i, blk in enumerate(blocks):
        if i in used:
            continue
        if _eigen_is_real(blk, tol):
            used.add(i)
            units.append((_real_block(blk, ctx), False))
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
        units.append((blocks[leader], True))
    return units


def _leader_orientation(blk: SpectralBlock) -> bool:
    for gi in sorted(blk.eigen_numeric):
        im = blk.eigen_numeric[gi].imag
        if abs(im) > 1e-12:
            return im > 0
    return True


def re_im_columns(basis: Matrix | np.ndarray) -> Matrix | np.ndarray:
    """Columns Re(w1), Im(w1), Re(w2), ... of a basis w, exact or numeric."""
    if isinstance(basis, Matrix):
        return Matrix.from_cols([[part(c) for c in col] for col in basis.columns()
                                 for part in (Scalar.real_part, Scalar.imag_part)])
    return np.stack([basis.real, basis.imag], axis=-1).reshape(basis.shape[0], -1).astype(complex)


# ---------------------------------------------------------------------------
# simultaneous triangularization of a single-eigenvalue block


def triangularize(
    G: GeneratorSet,
    block: SpectralBlock,
    ctx: NumericContext,
) -> TriangularForm:
    """Common basis making every generator lower triangular on the block."""
    basis = block.subspace.basis
    restrictions = block.restrictions
    if restrictions is None:
        restrictions = [_block_restriction(g, basis, ctx) for g in G.generators]
    mus = []
    for gi, R in enumerate(restrictions):
        ex = block.eigen_exact.get(gi)
        mus.append(ex if ex is not None else _trace_mean(R))
    if all(isinstance(R, Matrix) for R in restrictions):
        coeff_change, tri = _triangularize_exact(restrictions, mus)
    else:
        # a numeric restriction means a numeric basis, and so numeric values mu
        coeff_change, tri = _triangularize_numeric(restrictions, mus, ctx)
    if isinstance(coeff_change, Matrix) and isinstance(basis, Matrix):
        basis = basis * coeff_change
    else:
        basis = to_numeric(basis) @ to_numeric(coeff_change)
    return TriangularForm(basis, tri, mus)


def leading_one(col) -> list[Scalar]:
    """A nonzero vector divided by its first nonzero entry, with one inverse."""
    inv = next(x for x in col if x).inverse()
    return [x * inv for x in col]


def _triangularize_exact(restrictions: list[Matrix], mus: list[Scalar]):
    """Common basis P of the restrictions' flag, and each restriction's
    lower triangular form on it.

    F_0 = 0, and F_(j+1) is the v with N v in F_j for every nilpotent part
    N = R - mu I; its :func:`kernel` basis V is one kernel per layer.
    Column t of V is 1 at its free coordinate f_t and 0 at the others, and 0
    below f_t, since back-substitution from the last pivot gives 0 at every
    pivot after f_t; so f_t is its last nonzero row.  With ``free`` those
    rows of V and ``piv`` the others, v lies in F_(j+1) iff v[piv] =
    V[piv] v[free]: the next layer is the kernel of the stacked
    N[piv] - V[piv] N[free].

    The layer's new flag columns are the columns of V whose f_t is not in
    free_j, the free coordinates of F_j.  The last nonzero rows of F_j's
    vectors are exactly free_j: a combination of V's columns ends at the
    f_t of its last nonzero coefficient.  F_j in F_(j+1) gives free_j in
    free_(j+1).  Column t is independent of F_j and of V's earlier columns
    iff no vector of F_j ends at f_t, iff f_t is not in free_j: when f_t is
    in free_j, F_j holds a vector w ending at f_t with w[f_t] = 1, and
    column t less w is a combination of V's earlier columns; when it is
    not, column t less any combination of V's earlier columns ends at f_t,
    so lies outside F_j.  A layer with no new free coordinate adds nothing,
    and raises NoCommonEigenvector.
    """
    d = restrictions[0].rows  # a group has at least one generator
    nils = [R - Matrix.identity(d).scale(mu) for R, mu in zip(restrictions, mus)]
    layers: list[Matrix] = []
    free: list[int] = []  # the free coordinates of F_j, one per flag column
    stacked = reduce(Matrix.vstack, nils)  # F_1 is the joint kernel of the N
    while len(free) < d:
        V = kernel(stacked).basis
        ends = [next(i for i in reversed(range(d)) if V[i, t]) for t in range(V.cols)]
        grown = [t for t, f in enumerate(ends) if f not in free]
        if not grown:
            raise NoCommonEigenvector("joint kernel of the nilpotent parts did not grow")
        layers.append(V.submatrix(range(d), grown))
        free = ends
        piv = [i for i in range(d) if i not in free]
        if piv:
            W = V.submatrix(piv, range(V.cols))
            stacked = reduce(Matrix.vstack, [
                N.submatrix(piv, range(d)) - W * N.submatrix(free, range(d)) for N in nils])
    cols = [col for layer in reversed(layers) for col in layer.columns()]
    # leading-one column normalization: keeps the form triangular and the
    # diagonal unchanged, and stops radical factors inflating restrictions
    P = Matrix.from_cols([leading_one(col) for col in cols])
    # every generator's triangular matrix from one solve, which eliminates P
    # once: P [T_1 | ... | T_k] = [R_1 P | ... | R_k P].  P is invertible, as
    # the flag took each of its columns only when independent of the others
    images = restrictions[0] * P
    for R in restrictions[1:]:
        images = images.hstack(R * P)
    X = solve(P, images)
    tri = [X.submatrix(range(d), range(i * d, (i + 1) * d)) for i in range(len(restrictions))]
    if not all(T.is_lower_triangular() for T in tri):
        raise NoCommonEigenvector("exact triangularization failed")
    return P, tri


def _triangularize_numeric(restrictions, mus, ctx: NumericContext):
    d = restrictions[0].shape[0]  # a group has at least one generator
    nils = [R - mu * np.eye(d, dtype=complex) for R, mu in zip(restrictions, mus)]
    tol = max(ctx.eps, NOISE)
    # the noise floor of the nilpotent parts, as in _single_eigenvalue
    floor = d * NOISE * max(1.0, max(max_abs(R) for R in restrictions))
    F = np.zeros((d, 0), dtype=complex)  # orthonormal columns of the flag subspace
    while F.shape[1] < d:
        # the vectors that every N maps into the flag: the joint kernel of
        # the N followed by the projection off the flag
        stacked = np.vstack([N - F @ (F.conj().T @ N) for N in nils])
        V = nkernel(stacked, ctx) if max_abs(stacked) > floor else np.eye(d, dtype=complex)
        new_cols = V @ nkernel(F.conj().T @ V, ctx)  # the part of V orthogonal to F
        if new_cols.shape[1] == 0:
            raise NoCommonEigenvector("joint numeric kernel of the nilpotent parts did not grow")
        F = np.hstack([F, new_cols])
    P = F[:, ::-1]  # the common eigenvectors last
    tri = []
    for R in restrictions:
        T, resid = nsolve_cols(P, R @ P)
        if resid > 1e3 * tol * max(1.0, max_abs(R)):
            raise NoCommonEigenvector("numeric triangular solve residual too large")
        if max_abs(np.triu(T, 1)) > 1e3 * tol * max(1.0, max_abs(T)):
            raise NoCommonEigenvector("numeric triangularization defect too large")
        tri.append(T)
    return P, tri
