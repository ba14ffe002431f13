"""Finite orbit exploration and empirical closure classification.

Orbit clouds are enumerated over exponent boxes [-K, K]^g with vectorized
power stacks, from exact generators and an exact start point u, in the
coordinates of the orbit's affine hull u + W.  For abelian G, W is the
smallest G-invariant subspace that contains every (g_i - I)u, a Krylov
closure computed exactly on realified coordinates: over C, coordinates 2i
and 2i + 1 are the real and imaginary parts of z_i, and each generator acts
by its real (2n x 2n) matrix.  Realification is a homeomorphism that carries
G to a real abelian group, so the orbit closures, hulls and verdicts are
those of the realified orbit.  With B the reduced echelon basis of W, every
point of the hull is o + B c, where o is the hull's point that is 0 at the
pivot rows of B and c, the point's hull coordinates, are its own entries at
those rows.  Each generator acts on c by an affine map c -> R c + t of
dimension d = dim W, whatever the coordinates of the input, formed exactly
and rounded to float64 once (see _frame); a box is enumerated, deduplicated
and classified in hull coordinates, and the points o + B c are formed only
when a cloud's points are read, or for the overflow scan, which runs only
when a norm bound cannot clear the box.  Closures are classified in the
frame coordinates V^T B (c - c_u), V the orthonormal frame of W (one
float64 QR of B) and c_u the hull coordinates of u.  A box is deduplicated
through the transposed view of its staged product, so it is not copied into
rows first, and the deduplication consumes it: when at least half of its
rows survive, they are written into the box's own buffer.  A cloud on a
line is deduplicated by sorting its values in the box's own buffer and
keeping the least value of each key, a zero as +0.0, so its rows ascend,
and its frame coordinate is monotone along them: its minimum separation is
the least gap between consecutive rows, and its window is one run of rows,
found by binary search.  Any other cloud is deduplicated by a lexsort of all
its columns, which keeps each key's first row in enumeration order, and its
minimum separation, searched for only up to the DISCRETE floor, is there
the exact nearest pair on a grid of cells, a k-d tree's minimum bit for bit.
Boxes too large to materialize are streamed in chunks: a tuple's frame
coordinates are those of one outer power applied to one inner column, and
they are formed, by the gather-multiply that forms the stored hits, only for
the tuples that can be window hits: each outer power bounds every hull
coordinate of a hit by an interval, takes the inner columns of one search in
their order by the first hull coordinate, and keeps those whose other
coordinates lie in their intervals.  A streamed cloud is its window: it
stores only the deduplicated window hits.  Its points equal the
materialized box's window points up to rounding, and its verdicts and gaps
are the same.  Closure verdicts are explicitly heuristic:
DISCRETE needs a minimum pairwise separation over a fully stored box, the
only verdict that carries one, DENSE_IN_AFFINE(d) needs the sampled window
covered at COVER_RESOLUTION, everything else is INCONCLUSIVE.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import partial
from typing import NamedTuple

from ._numpy import np

from .errors import NoProgress, NotConvergent, PointNotInU
from .groups import COMPLEX, GeneratorSet
from .invariants import InvariantFamily, membership
from .linalg import Matrix, Vector, independent_columns, restrict, row_space_basis
from .numeric import NumericContext, vec_to_numeric
from .scalars import Scalar

DISCRETE = "DISCRETE"
DENSE_IN_AFFINE = "DENSE_IN_AFFINE"
INCONCLUSIVE = "INCONCLUSIVE"

COVER_RESOLUTION = 0.25  # grid cell size for hull dimension >= 2
MIN_DIST_FACTOR = 100.0  # DISCRETE floor = factor * dedup_eps
FIRST_BOX = 8            # classify_stabilized's first exponent bound
RECURRENCE_TOL = 1e-3    # final backward error of a recurrent sequence


class ClosureConfig(NamedTuple):
    """Heuristic thresholds; configuration, not ground truth."""

    window: float = 1.0
    gap_threshold: float = 0.01       # max allowed 1-dim gap inside the window
    dedup_eps: float = 1e-9
    overflow_limit: float = 1e100
    max_store: int = 4_500_000        # largest tuple box fully materialized
    discrete_count_limit: int = 200_000


class Hull:
    """The orbit's affine hull u + W, in float64 on realified coordinates (see _frame).

    B is the reduced echelon basis of W and o the hull's point whose entries
    at the pivot rows of B are 0, so every point x of the hull is o + B c
    with c = x[pivots], its hull coordinates.
    """

    __slots__ = ("base", "V", "origin", "B", "start", "maps", "pivots", "translations")

    def __init__(self, base: np.ndarray, V: np.ndarray, origin: np.ndarray, B: np.ndarray,
                 start: np.ndarray, maps: list, pivots: list[int] | None = None,
                 translations: list | None = None):
        self.base = base      # realified u, the frame's origin
        self.V = V            # (n, d), orthonormal columns spanning W
        self.origin = origin  # o
        self.B = B            # (n, d)
        self.start = start    # (d,), u's hull coordinates
        self.maps = maps      # per generator, the function K -> its power stack
        self.pivots = pivots  # the pivot rows of B
        # each generator's exact t, as Scalars, when every one maps c to c + t,
        # else None; the orbit of u is then c_u + sum Z t_i
        self.translations = translations

    def frame_coordinates(self, coords: np.ndarray) -> np.ndarray:
        """V^T (x - u) of the points x with hull coordinates coords: V^T B (c - c_u)."""
        return _mapped(self.V.T @ self.B, coords - self.start)


class OrbitCloud:
    """A deduplicated orbit sample, stored as hull coordinates.

    Every array is float64 on realified coordinates, n = 2 dim over C.
    `coords` holds the hull coordinates c (m, d) of the points o + B c (see
    Hull), deduplicated at dedup_eps, and `points` forms the (m, n) points
    when it is read.  At a coordinate where every column of B is 0, as at
    one that G does not move, every point holds u's value.

    When d = 1 the rows ascend, and classify_closure relies on it: _dedup
    sorts a line's values in the box's buffer and keeps the least value of
    each key, a zero as +0.0, so they ascend strictly.  A cloud of d >= 2
    keeps each key's first row in enumeration order.
    """

    __slots__ = ("coords", "total_tuples", "hull", "subsampled", "clipped")

    def __init__(self, coords: np.ndarray, total_tuples: int, hull: Hull,
                 subsampled: bool = False, clipped: bool = False):
        self.coords = coords  # deduped hull coordinates (m, d), maybe column-major
        self.total_tuples = total_tuples
        self.hull = hull
        self.subsampled = subsampled
        self.clipped = clipped

    @property
    def count(self) -> int:
        return self.coords.shape[0]

    @property
    def points(self) -> np.ndarray:
        """The deduped points (m, n), o + B c, formed when read."""
        return self.hull.origin + _mapped(self.hull.B, self.coords)


class ClosureVerdict:
    """A sampled closure verdict; `min_distance` is set on DISCRETE verdicts only."""

    __slots__ = ("kind", "hull_dim", "gap", "min_distance", "notes")

    def __init__(self, kind: str, hull_dim: int, gap: float | None = None,
                 min_distance: float | None = None, notes: list[str] | None = None):
        self.kind = kind
        self.hull_dim = hull_dim
        self.gap = gap
        self.min_distance = min_distance
        self.notes = [] if notes is None else notes

    def __eq__(self, other):
        if not isinstance(other, ClosureVerdict):
            return NotImplemented
        return ((self.kind, self.hull_dim, self.gap, self.min_distance, self.notes)
                == (other.kind, other.hull_dim, other.gap, other.min_distance, other.notes))


# ---------------------------------------------------------------------------
# enumeration


def _power_stack(A: np.ndarray, A_inv: np.ndarray, K: int) -> np.ndarray:
    """The powers A^k, k = -K..K, one product by A or by its inverse per step."""
    n = A.shape[0]
    pows = np.empty((2 * K + 1, n, n))
    pows[K] = np.eye(n)
    for k in range(1, K + 1):
        pows[K + k] = A @ pows[K + k - 1]
        pows[K - k] = A_inv @ pows[K - k + 1]
    return pows


def _unipotent_stack(nilpotent: list[np.ndarray], n: int, K: int) -> np.ndarray:
    """The powers (I + N)^k = sum_j C(k, j) N^j, k = -K..K, of a unipotent map.

    `nilpotent` holds N, N^2, ... up to the last nonzero power.  A
    translation's powers are I + k N, so their offsets k t are rounded once.
    """
    ks = np.arange(-K, K + 1, dtype=float)
    pows = np.broadcast_to(np.eye(n), (ks.size, n, n)).copy()
    binom = np.ones_like(ks)
    for j, N in enumerate(nilpotent, 1):
        binom = binom * (ks - (j - 1)) / j
        pows += binom[:, None, None] * N
    return pows


def _mapped(A: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """coords @ A.T, formed as (A @ coords.T).T: one GEMM along the rows of a transposed cloud."""
    return (A @ coords.T).T


def _homogeneous(V: np.ndarray) -> np.ndarray:
    """Columns V (d, M) with a row of ones below, the input of an affine map [[R, t], [0, 1]]."""
    return np.vstack([V, np.ones((1, V.shape[1]))])


def _staged_columns(stacks: list[np.ndarray], V: np.ndarray) -> np.ndarray:
    """Hull coordinates (d, #tuples * b) of the orbit points for start columns V (d, b).

    A stage P, the (d + 1) x (d + 1) powers of one affine map, maps columns V
    to the blocks [R_0 V + t_0, R_1 V + t_1, ...] side by side, each the
    product of P[j] with V and a row of ones; batched GEMMs write a few
    blocks at a time into place, which keeps BLAS call counts low and makes
    no list of blocks to concatenate.  Every row of P[j] is multiplied, so
    that a GEMM of at least two rows forms each block (numpy multiplies a
    single row by GEMV, which may round otherwise), and the homogeneous row
    of ones is dropped: no stage's output holds one.
    """
    for pows in stacks:
        (J, e, _), M = pows.shape, V.shape[1]
        W = _homogeneous(V)
        out = np.empty((e - 1, J, M))
        step = max(1, 2**18 // (e * M))
        for lo in range(0, J, step):
            out[:, lo : lo + step] = np.matmul(pows[lo : lo + step], W)[:, :-1].transpose(1, 0, 2)
        V = out.reshape(e - 1, J * M)
    return V


def _dedup(points: np.ndarray, eps: float) -> np.ndarray:
    """Finite rows of `points`, one per eps-grid key, in lexsort order of the keys.

    The key columns are the columns of `points`, read as strided views:
    `points` may be the transposed view of a (d, m) staged product, and it
    is not copied.  A cloud on a line (d = 1) sorts its values in place, in
    the buffer of `points`, not a permutation of the rows, and keeps the
    least value of each key (see _least_of_each_key), a zero as +0.0: the
    result depends only on the multiset of its values.  Every cloud of d >=
    2 takes the lexsort of its columns and keeps each key's first row in
    enumeration order.  A 0-column cloud keeps its first row.  A line
    allocates no array of the box's size besides the box: its keys are
    formed in slices, and its values are compacted only once a key repeats.

    `points` is consumed: a line is sorted in it, and both paths write
    their (d, m') result into _result_rows and return it transposed, an
    F-contiguous (m', d) array.  Either way a one-column result ascends
    strictly in value.
    """
    points = _finite_rows(points)
    if points.shape[0] == 0:
        return points
    cols = list(points.T)
    if not cols:
        return points[:1].copy()
    if len(cols) == 1:
        line = cols[0]
        line.sort()
        vals = line[: _least_of_each_key(line, eps)]
        out = _result_rows(points, vals.size)
        out[0] = vals  # a no-op when out is the sorted buffer itself
        return out.T
    rows = _first_of_each_key(cols, eps)
    # for a materialized box points.T is the staged (d, M) product itself, so
    # this gathers along its rows; taking rows of points would first copy it
    # into rows, and fancy-indexing them is about three times slower.  Row c
    # is gathered whole before it is written to elements [c k, (c + 1) k) of
    # the result, which lie below row c + 1 of points.T
    out = _result_rows(points, rows.size)
    for c, row in enumerate(points.T):
        out[c] = row[rows]
    return out.T


def _least_of_each_key(line: np.ndarray, eps: float) -> int:
    """Compact sorted float64 `line` in place to the least value of each eps-grid key; return how many.

    Rounding x / eps is monotone, so the keys of the sorted values do not
    decrease, and a key's least value is its first.  0.0 and -0.0 compare
    equal and sort in either order, so a kept zero is written as +0.0.  The
    keys are formed in slices of 2^16 values, each overlapping the next by
    one, and the values move only once a key repeats.  Each slice is
    compared with the value before it before its kept values are written,
    at or below its start; the value before a slice was written over only
    when nothing before it was dropped, and then by itself.
    """
    step = 2**16
    k = 1
    for lo in range(1, line.size, step):
        s = line[lo : lo + step]
        keys = np.round(line[lo - 1 : lo + step] / eps)
        new = keys[1:] != keys[:-1]
        if k == lo and new.all():
            k += s.size  # nothing dropped so far: the slice stays where it is
            continue
        kept = s[new]
        line[k : k + kept.size] = kept
        k += kept.size
    # every key holds one value now, so at most one zero is left
    zero = np.searchsorted(line[:k], 0.0)
    if zero < k and line[zero] == 0.0:
        line[zero] = 0.0
    return k


def _finite_rows(points: np.ndarray) -> np.ndarray:
    """`points` itself when every value is finite, else its finite rows."""
    if points.shape[0] == 0:
        return points
    cols = list(points.T)
    lo, hi = _extremes(cols)  # NaN or inf in a column shows here
    if np.isfinite(lo).all() and np.isfinite(hi).all():
        return points
    return points[np.logical_and.reduce([np.isfinite(c) for c in cols])]


def _first_of_each_key(cols: list[np.ndarray], eps: float) -> np.ndarray:
    """Indices of the first row of each distinct eps-grid key, in lexsort order of the keys.

    The keys, one float64 array per column, and the sort order are freed on
    return.
    """
    keys = [np.round(k, out=k) for k in (c / eps for c in cols)]
    order = np.lexsort(keys)
    keep = np.zeros(order.size, dtype=bool)
    keep[0] = True
    for k in keys:
        ks = k[order]
        keep[1:] |= ks[1:] != ks[:-1]
    return order[keep]


def _result_rows(points: np.ndarray, k: int) -> np.ndarray:
    """The (n, k) array _dedup writes its result into, for points of shape (M, n).

    When points.T is C-contiguous (the transposed view of a materialized box)
    and k >= M / 2, it is the first n * k elements of that buffer, so a box is
    not allocated twice; a smaller result gets its own array and does not pin
    the box.
    """
    n = points.shape[1]
    if points.T.flags.c_contiguous and 2 * k >= points.shape[0]:
        return points.T.reshape(-1)[: n * k].reshape(n, k)
    return np.empty((n, k), dtype=points.dtype)


def _extremes(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([c.min() for c in cols]), np.array([c.max() for c in cols])


def enumerate_orbit(
    G: GeneratorSet,
    u,
    K: int,
    cfg: ClosureConfig,
    *,
    hull: Hull | None = None,
) -> OrbitCloud:
    """Orbit sample {g^k u : k in [-K, K]^g}, deduplicated at dedup_eps in hull coordinates.

    G must be exact and u a vector of Scalars; ValueError otherwise.  The
    cloud's hull and frame (see _frame) are computed from G and u alone, so
    they do not depend on K or on the box.  `hull`, when given, must be
    _frame(G, u), such as an earlier cloud's hull for the same G and u: it
    saves computing the hull again and selects no behaviour, so the cloud is
    the same.  Boxes beyond cfg.max_store are streamed, and the returned
    cloud is then its window: every point of the whole box whose frame
    coordinates lie within 1.5x the classification window, deduplicated.
    The window is exhaustive, so covering verdicts stay sound.  A point with
    a coordinate of o + B c above cfg.overflow_limit is clipped, and one that
    is not finite is dropped.  Deduplication keeps a line's least value of
    each key, a zero as +0.0, and any other cloud's first row of each key in
    enumeration order (see _dedup).
    """
    if not G.exact or not all(isinstance(c, Scalar) for c in u):
        raise ValueError("orbit enumeration requires exact generators and an exact point")
    if hull is None:
        hull = _frame(G, tuple(u))
    total = (2 * K + 1) ** len(hull.maps)
    subsampled = total > cfg.max_store
    # overflow is the clipping case handled below, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        stacks = [powers(K) for powers in hull.maps]
        coords, clipped = (_stream_window if subsampled else _box)(stacks, hull, cfg)
        # coords is a temporary, which _dedup sorts or overwrites
        coords = _dedup(coords, cfg.dedup_eps)
    return OrbitCloud(coords, total, hull, subsampled, clipped)


def _frame(G: GeneratorSet, u: Vector) -> Hull:
    """The hull u + W of G's orbit through u: its frame, its basis and G's maps on it.

    For abelian G, gh u - u = g(hu - u) + (gu - u), so W is the smallest
    G-invariant subspace that contains every (g_i - I)u.  It is grown
    exactly on realified coordinates, with each generator's real matrix (over
    C, the 2 x 2 block [[Re a, -Im a], [Im a, Re a]] of each entry a), in
    rounds: each round keeps the candidates that are independent of those
    kept before (one elimination), and the images g_j v of the kept ones are
    the next round's candidates, until a round keeps none.  B, the reduced
    echelon basis of W, depends on W alone; one float64 QR orthonormalizes
    it into V.  Every point x of the hull is o + B c with c = x[pivots],
    and g maps it to o + B (R c + t), with R = restrict(g, B) and t = (g
    o)[pivots]: g o - o lies in W, so it is B (g o - o)[pivots], and o is 0
    at the pivot rows.  A = [[R, t], [0, 1]] is formed exactly, and maps
    holds the function of K that returns its power stack: from the rounded
    powers of N = A - I when A is unipotent (see _unipotent_stack), else
    from A and its exact inverse, each rounded once (see _power_stack).
    When every R is the identity, the exact t are kept as the translations.
    """
    def realified(v: Vector) -> list[Scalar]:
        if G.field == COMPLEX:
            return [p for c in v for p in (c.real_part(), c.imag_part())]
        return [c.real_part() for c in v]

    def real_matrix(g: Matrix) -> Matrix:
        if G.field != COMPLEX:
            return g
        return Matrix.from_rows([row for r in g.entries() for row in (
            [x for c in r for x in (c.real_part(), -c.imag_part())],
            [x for c in r for x in (c.imag_part(), c.real_part())])])

    gens = [real_matrix(g) for g in G.generators]
    ur = realified(u)
    kept: list[Vector] = []  # a basis of W so far
    todo = [tuple(a - b for a, b in zip(g.matvec(ur), ur)) for g in gens]
    while True:
        vectors = kept + todo
        grown = [j for j in independent_columns(Matrix.from_cols(vectors)) if j >= len(kept)]
        if not grown:
            break
        todo = [g.matvec(vectors[j]) for j in grown for g in gens]
        kept += [vectors[j] for j in grown]
    basis = row_space_basis(Matrix.from_rows(vectors))
    d = basis.cols
    pivots = [next(i for i in range(basis.rows) if basis[i, j]) for j in range(d)]
    start = [ur[p] for p in pivots]
    origin = [x - y for x, y in zip(ur, basis.matvec(start))]
    one = Matrix.identity(d + 1)
    maps, translations = [], []
    for g in gens:
        R, go = restrict(g, basis), g.matvec(origin)
        t = tuple(go[p] for p in pivots)
        translations.append(t if R == Matrix.identity(d) else None)
        A = Matrix.from_rows([[*r, x] for r, x in zip(R.entries(), t)] + [one.entries()[d]])
        nilpotent = [A - one]
        while not nilpotent[-1].is_zero() and len(nilpotent) <= d:
            nilpotent.append(nilpotent[-1] * nilpotent[0])
        if nilpotent[-1].is_zero():
            maps.append(partial(_unipotent_stack, [_rounded(N) for N in nilpotent[:-1]], d + 1))
        else:
            maps.append(partial(_power_stack, _rounded(A), _rounded(A.inverse())))
    B = _rounded(basis)
    return Hull(_rounded(ur), np.linalg.qr(B)[0], _rounded(origin), B, _rounded(start), maps,
                pivots, None if None in translations else translations)


def _rounded(A: Matrix | Vector) -> np.ndarray:
    """A real exact matrix or vector, rounded entrywise to float64."""
    if isinstance(A, Matrix):
        return np.array([_rounded(row) for row in A.entries()]).reshape(A.rows, A.cols)
    return np.array([x.to_complex().real for x in A])


def _points_bound(hull: Hull, c_bound):
    """A bound, with a factor 2 for rounding, on |o + B c|_inf when |c|_inf <= c_bound."""
    return 2.0 * (np.abs(hull.origin).max() + np.abs(hull.B).sum(axis=1).max(initial=0.0) * c_bound)


def _largest_coordinate(hull: Hull, coords: np.ndarray) -> np.ndarray:
    """max_i |(o + B c)_i| of each row c of coords, NaN for a point that holds a NaN.

    The points are formed as OrbitCloud.points forms them, in slices of
    about 16 MB.
    """
    out = np.empty(coords.shape[0])
    step = max(1, 2**21 // hull.origin.size)
    for lo in range(0, coords.shape[0], step):
        out[lo : lo + step] = np.abs(hull.origin + _mapped(hull.B, coords[lo : lo + step])).max(axis=1)
    return out


def _box(stacks: list[np.ndarray], hull: Hull, cfg: ClosureConfig) -> tuple[np.ndarray, bool]:
    """(coords, clipped): the hull coordinates of the points of the whole box [-K, K]^g.

    The points are the staged product of every stage from u's coordinates,
    a transposed view of its (d, M) buffer.  A point with a coordinate of o
    + B c above cfg.overflow_limit is clipped, and one that is not finite is
    dropped too.  The exact scan for them runs only when the norm bound on o
    + B c, from |(c, 1)|_inf <= max(1, |c_u|_inf) prod_i max_k
    ||P_i[k]||_inf, cannot clear the whole box.
    """
    coords = _staged_columns(stacks, hull.start[:, None]).T
    c_bound = np.abs(hull.start).max(initial=1.0) * math.prod(
        np.abs(P).sum(axis=2).max() for P in stacks)
    if _points_bound(hull, c_bound) <= cfg.overflow_limit:
        return coords, False
    big = _largest_coordinate(hull, coords)
    keep = big <= cfg.overflow_limit
    return (coords if keep.all() else coords[keep]), bool((big > cfg.overflow_limit).any())


def _stream_window(stacks: list[np.ndarray], hull: Hull, cfg: ClosureConfig) -> tuple[np.ndarray, bool]:
    """The box's points within 1.5 windows of the frame, as hull coordinates, and whether any was clipped.

    A chunk's tuples are the columns j * M + col of the blocks P[j] (x; 1),
    with P the outermost power stack and x = inner[:, col] (d, M) the
    chunk's start columns, powers of the last generator at u, taken through
    the other stages; a single generator has the identity as its one outer
    stage.  A tuple's frame coordinates V^T B (c - c_u) are Q[j] (x; 1) -
    w, with Q[j] = V^T B P[j] and w = V^T B c_u, and it is a hit when
    their largest modulus is at most 1.5 windows; _window_filter finds the
    hits without forming that value for every tuple, and leaves none out:
    each outer power bounds every hull coordinate of a hit by an interval,
    and only the tuples whose inner column lies in all of them, found from
    the columns' first hull coordinate by one search per outer power and
    exact reads of the others, are formed.
    A point is formed only when it is a window hit or a column whose norm
    bound cannot clear the exact overflow test (every |coordinate| of o + B
    c within the limit).
    """
    d = hull.B.shape[1]
    limit = cfg.overflow_limit
    window_chunks = []
    clipped = False
    *stacks, last = stacks
    outer = stacks.pop() if stacks else np.eye(d + 1)[None]
    M = hull.V.T @ hull.B
    hits_of = _window_filter(M @ outer[:, :d], M @ hull.start, 1.5 * cfg.window)
    # |(P[j] (x; 1))_i| <= rowsum[j] max(1, |x|_inf)
    rowsum = np.abs(outer[:, :d]).sum(axis=2).max(axis=1, initial=0.0)  # (J,)
    per_start = outer.shape[0] * last.shape[0] ** len(stacks)
    batch = max(1, min(last.shape[0], 1_500_000 // per_start))
    for lo in range(0, last.shape[0], batch):
        starts = _staged_columns([last[lo : lo + batch]], hull.start[:, None])  # (d, b)
        inner = _homogeneous(_staged_columns(stacks, starts))  # (d + 1, M)
        hits = hits_of(inner)
        sel = hits
        if not clipped:
            colmax = np.abs(inner).max(axis=0)
            # rounding is monotone, so the largest bound bounds every other
            # one, and only a chunk it does not clear is scanned
            if not _points_bound(hull, rowsum.max() * colmax.max()) <= limit:
                need = ~(_points_bound(hull, np.outer(rowsum, colmax)) <= limit).ravel()
                need[hits] = True
                sel = np.flatnonzero(need)
        pts = _outer_columns(outer, inner, sel)  # (s, d)
        ok = _largest_coordinate(hull, pts) <= limit
        clipped = clipped or not ok.all()
        if sel is not hits:
            ok &= np.isin(sel, hits, assume_unique=True)
        window_chunks.append(pts[ok])
    return np.vstack(window_chunks), clipped  # a pass has at least one chunk


def _window_filter(Q: np.ndarray, offset: np.ndarray, bound: float):
    """hits_of(cols): the ascending flat indices j * M + col of a chunk's tuples
    whose frame coordinates Q[j] @ cols[:, col] - offset, formed by
    _outer_columns, are all within `bound` in modulus.

    Q is (J, d, d + 1) and cols (d + 1, M), hull coordinates x with a last
    row of ones.  Exactly, Q[j] (x; 1) - o = R_j x + a_j, with R_j the first
    d columns of Q[j] and a_j its last column less o.  Only columns with
    |R_j x + a_j|_inf <= B_j can be hits, and each coordinate x_k of those
    lies in an interval [lo_jk, hi_jk].  So each j takes the columns of one
    searchsorted range of the chunk's columns sorted by x_0, drops those
    whose x_1, ..., x_(d-1), read exactly from cols, lie outside their
    intervals, and forms and compares the value of only the rest.
    _outer_columns gives a tuple the same bits whichever tuples it is formed
    with, so these are the hits a test of every tuple would find, and they
    come out in the same ascending flat order.

    No hit is left out.  Let u = 2^-53, g_k = k u / (1 - k u), c = 4 (d +
    5) u, q_j = ||Q[j]||_inf, and let X >= 1 bound the |entries| of the
    chunk's finite columns.  A column with a non-finite entry is never a
    hit: its value is not finite.  A hit has a computed value t =
    fl(fl(Q[j] (x; 1)) - o) with |t_i| <= bound, so exactly |R_j x +
    a_j|_inf <= bound / (1 - u) + g_(d+1) q_j X, whatever order or fused
    multiply-adds the product uses.  The computed a_j is off by at most u
    |a_j|_inf.  So a hit has |R_j x + a_j|_inf <= B_j, with

        B_j = bound (1 + c) + c (q_j X + |a_j|_inf),

    whose factors c also cover the rounding of B_j itself.  Let Y be any d
    x d matrix (a computed pseudo-inverse of R_j) and F = I - Y R_j.  Then
    Y (y - a_j) = x - F x for y = R_j x + a_j, so each row Y_k of Y gives
    |x_k - center_jk| <= |Y_k|_1 B_j + ||F||_inf X, with center_jk = -Y_k
    a_j.  The computed center_jk is off by at most g_d |Y_k|_1 |a_j|_inf,
    the computed ||F||_inf by at most c (1 + ||Y||_inf ||R_j||_inf), and the
    half-width h_jk and the interval's ends are widened by the factor 1 + c
    and by c |center_jk| to cover their own rounding.  A hit's x_k, read
    exactly, therefore lies in [lo_jk, hi_jk], and the x_0 range holds its
    column.  An interval that is not finite (a non-finite Q[j], a_j or
    bound) keeps every tuple: its x_0 range is all M columns, and it becomes
    [-inf, inf] for x_1, ..., x_(d-1), which drops a tuple only when x_k <
    lo_jk or x_k > hi_jk, so no x_k, not even NaN, is outside it.  An
    interval of x_k, k >= 1, that holds every finite x_k of the chunk is not
    tested: it could drop only a column with a non-finite entry.  Every j
    of a 0-dimensional hull, whose every tuple is a hit, takes all M columns.
    """
    def norm(A):  # the largest row sum of |A[j]|, for each j
        return np.abs(A).sum(axis=2).max(axis=1, initial=0.0)

    J, d, _ = Q.shape
    c = 4 * (d + 5) * 2.0**-53
    q = norm(Q)[:, None]
    a, R = Q[:, :, d] - offset, Q[:, :, :d]
    finite_R = np.isfinite(R).all(axis=(1, 2))
    Y = np.linalg.pinv(np.where(finite_R[:, None, None], R, 0.0))
    a_norm = np.abs(a).max(axis=1, initial=0.0)[:, None]
    y_norm = np.abs(Y).sum(axis=2)  # (J, d): |Y_k|_1 of each row k
    center = -(Y @ a[:, :, None])[:, :, 0]  # (J, d)
    f_norm = (norm(np.eye(d) - Y @ R) + c * (1 + norm(Y) * norm(R)))[:, None]
    center_slack, end_slack = c * y_norm * a_norm, c * np.abs(center)

    def hits_of(cols: np.ndarray) -> np.ndarray:
        M = cols.shape[1]
        # the extremes of each coordinate over the finite columns: a NaN or
        # an infinity shows in the extremes over all of them
        x_lo, x_hi = cols[:d].min(axis=1, initial=np.inf), cols[:d].max(axis=1, initial=-np.inf)
        if not (np.isfinite(x_lo).all() and np.isfinite(x_hi).all()):
            fin = cols[:d, np.isfinite(cols).all(axis=0)]
            x_lo, x_hi = fin.min(axis=1, initial=np.inf), fin.max(axis=1, initial=-np.inf)
        X = max(1.0, -x_lo.min(initial=0.0), x_hi.max(initial=0.0))
        B = bound * (1 + c) + c * (q * X + a_norm)
        h = (y_norm * B + f_norm * X + center_slack) * (1 + c) + end_slack
        lo, hi = center - h, center + h
        whole = ~(np.isfinite(lo) & np.isfinite(hi))
        lo[whole], hi[whole] = -np.inf, np.inf
        narrow = (lo > x_lo) | (hi < x_hi)
        if d:
            order = np.argsort(cols[0])  # a non-finite column's NaN key sorts last
            key = cols[0, order]
            start = np.searchsorted(key, lo[:, 0])
            stop = np.where(whole[:, 0], M, np.searchsorted(key, hi[:, 0], side="right"))
        else:
            order, start, stop = np.arange(M), np.zeros(J, dtype=int), np.full(J, M)
        count = stop - start
        j = np.repeat(np.arange(J), count)  # ascending
        col = order[np.arange(j.size) + np.repeat(start - (np.cumsum(count) - count), count)]
        kept = [np.empty(0, dtype=j.dtype)]
        step = 2**16
        for s in range(0, j.size, step):
            js, cs = j[s : s + step], col[s : s + step]
            out = np.zeros(js.size, dtype=bool)
            for k in range(1, d):
                if narrow[js[0] : js[-1] + 1, k].any():
                    x = cols[k, cs]
                    out |= (x < lo[:, k][js]) | (x > hi[:, k][js])
            flat = (js * M + cs)[~out]
            # a 0-dimensional hull maps every point to the base point
            vals = _outer_columns(Q, cols, flat) - offset
            kept.append(flat[np.abs(vals).max(axis=1, initial=0.0) <= bound])
        return np.sort(np.concatenate(kept))

    return hits_of


def _outer_columns(outer: np.ndarray, inner: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """The first d rows (s, d) of outer[j] @ inner[:, col], for the flat indices j * M + col.

    inner is (d + 1, M), and outer (J, d + 1, d + 1) power stacks or (J, d,
    d + 1) frame maps.  Each tuple is its own matrix-vector product in one
    stacked matmul, so its bits do not depend on which other tuples are
    formed with it, or on the slice that holds it.  The gathered matrices
    take about 32 MB per slice.
    """
    js, cols = np.divmod(flat, inner.shape[1])
    d = inner.shape[0] - 1
    out = np.empty((flat.size, d))
    step = max(1, 2**21 // max(1, outer[0].size))  # outer[0] is empty when d = 0
    for lo in range(0, flat.size, step):
        x = inner[:, cols[lo : lo + step]].T[:, :, None]
        out[lo : lo + step] = np.matmul(outer[js[lo : lo + step]], x)[:, :d, 0]
    return out


# ---------------------------------------------------------------------------
# classification


def classify_closure(cloud: OrbitCloud, cfg: ClosureConfig) -> ClosureVerdict:
    """Heuristic closure verdict for a sampled orbit.

    Only DISCRETE carries `min_distance`: a stored box's least separation, at
    least max(MIN_DIST_FACTOR * dedup_eps, gap_threshold), or inf for a point.
    A cloud on a line (d = 1) is classified from its ascending rows (see
    OrbitCloud), and not projected whole.  Its frame coordinate f(c) =
    fl(a fl(c - c_u)), with a = V^T B != 0, is monotone in c: non-decreasing
    when a > 0 and non-increasing when a < 0.  So the extremes of f are at
    the first and last rows, the rows within the window are one run, found by
    binary search on f at single rows, and only that run is sorted.  Likewise
    fl(a c), on which separations are measured, is monotone, so a nearest
    pair is a pair of consecutive rows.  f is formed by frame_coordinates on
    the rows it needs: a 1 x 1 product is one rounded multiply whatever the
    batch shape, and only the sign of a zero may differ, which no comparison,
    difference or square sees.
    """
    if cloud.count == 0:
        return ClosureVerdict(INCONCLUSIVE, 0, notes=["empty cloud"])
    hull = cloud.hull
    d = hull.V.shape[1]
    notes = []
    if cloud.clipped:
        notes.append("overflow-clipped points were dropped")
    if cloud.subsampled:
        notes.append("large box streamed: stored points are window-complete")

    # a streamed cloud's one window hit can lie on a hull of higher dimension
    if cloud.count == 1 and d == 0:
        return ClosureVerdict(DISCRETE, 0, min_distance=math.inf,
                              notes=notes + ["single point"])
    # a streamed cloud stores only its window, so its separation says nothing
    # about the orbit's: DISCRETE needs a fully stored box
    if not cloud.subsampled and cloud.count > cfg.discrete_count_limit:
        notes.append("point count above discrete-check limit")
    elif not cloud.subsampled:
        # a dense orbit sampled at finite K also clears the 100*eps floor, so
        # a discrete verdict additionally demands separation at the scale the
        # density test operates on (the gap threshold)
        floor = max(MIN_DIST_FACTOR * cfg.dedup_eps, cfg.gap_threshold)
        # distances in the frame are the points', and do not depend on its
        # origin: they are measured on V^T B c
        frame = _mapped(hull.V.T @ hull.B, cloud.coords)
        if d == 1:
            min_dist = math.sqrt(np.square(np.diff(frame[:, 0])).min(initial=math.inf))
        else:
            min_dist = _nearest_pair(list(frame.T), floor)
        if min_dist >= floor:
            return ClosureVerdict(DISCRETE, d, min_distance=min_dist, notes=notes)

    W = cfg.window
    if d == 1:
        # sign * f is non-decreasing along the rows, and lies in the window
        # [-W, W] exactly when f does
        sign = math.copysign(1.0, (hull.V.T @ hull.B)[0, 0])

        def rising(i: int) -> float:
            return sign * hull.frame_coordinates(cloud.coords[i : i + 1])[0, 0]

        rows = range(cloud.count)
        start = bisect.bisect_left(rows, -W, key=rising)
        stop = bisect.bisect_right(rows, W, key=rising)
        if not (rising(rows[0]) <= -W and rising(rows[-1]) >= W) or stop - start < 2:
            return ClosureVerdict(
                INCONCLUSIVE, d, notes=notes + ["sampled range does not cover the window"],
            )
        inside = np.sort(hull.frame_coordinates(cloud.coords[start:stop])[:, 0])
        seq = np.concatenate([[-W], inside, [W]])
        gap = float(np.diff(seq).max())
        if gap <= cfg.gap_threshold:
            return ClosureVerdict(DENSE_IN_AFFINE, 1, gap=gap, notes=notes)
        return ClosureVerdict(
            INCONCLUSIVE, d, gap=gap, notes=notes + [f"max window gap {gap:.4g} above threshold"],
        )

    proj = hull.frame_coordinates(cloud.coords)
    res = COVER_RESOLUTION
    cells_per_axis = max(1, int(round(2 * W / res)))
    inwin = np.all(np.abs(proj) <= W, axis=1)
    pw = proj[inwin]
    if pw.shape[0] == 0:
        return ClosureVerdict(INCONCLUSIVE, d, notes=notes + ["no points inside the window"])
    cell_idx = np.clip(((pw + W) / (2 * W) * cells_per_axis).astype(int), 0, cells_per_axis - 1)
    total_cells = cells_per_axis**d
    if total_cells <= np.iinfo(np.int64).max:
        filled = np.unique(np.ravel_multi_index(cell_idx.T, (cells_per_axis,) * d)).size
    else:
        filled = np.unique(cell_idx, axis=0).shape[0]
    empty = total_cells - filled
    gap = res * math.sqrt(d)
    if empty == 0:
        return ClosureVerdict(DENSE_IN_AFFINE, d, gap=gap,
                              notes=notes + [f"window covered at resolution {res}"])
    return ClosureVerdict(
        INCONCLUSIVE, d,
        notes=notes + [f"{empty}/{total_cells} window cells empty at resolution {res}"],
    )


def _nearest_pair(cols: list[np.ndarray], floor: float = 0.0) -> float:
    """Least distance between two rows of a cloud, given as its columns: a k-d tree's, bit for bit.

    cKDTree sums fl(d_j^2) in four lanes (j mod 4) over the full blocks of
    four columns, adds them as ((a0 + a1) + a2) + a3, then the other columns
    in order, and takes the monotone, correctly rounded sqrt of that sum s.

    The s of the lexsort neighbours bounds the least: ub.  A sum of nonnegative
    terms rounds to at least each term, so a pair with s <= ub has
    fl(d_c^2) <= ub and |x_c - y_c| <= sqrt(ub) (1 - u)^-1.5 (u = 2^-53) in
    every column c.  The rows are binned on the (at most) three widest
    columns into cells of side h = sqrt(ub) (1 + 2^-20) + 2^-48 E + 2^-500, E
    the widest extent: the margin covers the error of fl(fl(x - lo) / h), at
    most 2.01 u E / h, the rounding of h and underflow, so such a pair's cells
    differ by at most one per binned column, and each cell is compared with
    itself and its half-neighbourhood.  Cells are numbered by rank, which keeps
    adjacent ones adjacent (and may make others so, adding only candidates);
    a column that would overflow the int64 key is left out.  Candidate pairs
    are formed in slices, so rows that share one cell form no O(m^2) array.

    The search stops below `floor`: when sqrt(ub) < floor, it returns
    sqrt(ub), an upper bound of the least, which then lies below `floor` too.
    """
    m = cols[0].size if cols else 0
    if m < 2:
        return math.inf
    full = len(cols) - len(cols) % 4
    groups = [cols[lane:full:4] for lane in range(4)] + [[c] for c in cols[full:]]

    def sq(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        # sum() starts from 0, and 0 + x is x for x >= +0.0
        return sum(sum(np.square(c[i] - c[j]) for c in group) for group in groups)

    order = np.lexsort(cols)
    best = sq(order[:-1], order[1:]).min()
    if math.sqrt(best) < floor:
        return math.sqrt(best)
    lo, hi = _extremes(cols)
    h = math.sqrt(best) * (1 + 2**-20) + float((hi - lo).max()) * 2**-48 + 2**-500
    key = np.zeros(m, dtype=np.int64)
    strides: list[int] = []
    total = 1
    for k in np.argsort(lo - hi, kind="stable")[:3]:
        occupied, rank = np.unique(np.floor((cols[k] - lo[k]) / h), return_inverse=True)
        size = occupied.size + 1  # a free top cell, so an offset of -1 never aliases
        if total * size >= 2**63:
            break
        key = key * size + rank
        strides = [s * size for s in strides] + [1]
        total *= size
    order = np.argsort(key, kind="stable")
    cells, start, count = np.unique(key[order], return_index=True, return_counts=True)
    deltas = {sum(o * s for o, s in zip(off, strides))
              for off in itertools.product((-1, 0, 1), repeat=len(strides))}
    a, b = [], []
    for delta in sorted(d for d in deltas if d >= 0):
        pos = np.minimum(np.searchsorted(cells, cells + delta), cells.size - 1)
        hit = cells[pos] == cells + delta
        a.append(np.flatnonzero(hit))
        b.append(pos[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    first = np.concatenate([[0], np.cumsum(count[a] * count[b])])
    for t0 in range(0, int(first[-1]), 2**18):
        t = np.arange(t0, min(t0 + 2**18, int(first[-1])))
        p = np.searchsorted(first, t, side="right") - 1
        q, r = np.divmod(t - first[p], count[b[p]])
        i, j = order[start[a[p]] + q], order[start[b[p]] + r]
        s = sq(i, j)
        s[i == j] = np.inf
        best = min(best, s.min())
    return math.sqrt(best)


def classify_stabilized(
    G: GeneratorSet,
    u,
    cfg: ClosureConfig,
    max_exponent: int = 256,
) -> tuple[ClosureVerdict, int]:
    """Grow the exponent box K = FIRST_BOX, 2 FIRST_BOX, ... until the verdict repeats twice.

    The hull depends on G and u alone: the first box computes it, and every
    later box takes it from there.  Each box is still enumerated through the
    module's enumerate_orbit.
    """
    verdict, K, _ = _stabilized_search(G, u, cfg, max_exponent)
    return verdict, K


def _stabilized_search(
    G: GeneratorSet,
    u,
    cfg: ClosureConfig,
    max_exponent: int,
) -> tuple[ClosureVerdict, int, OrbitCloud]:
    """:func:`classify_stabilized`'s verdict and box K, with the cloud of box K."""
    if max_exponent < FIRST_BOX:
        raise ValueError(f"max exponent {max_exponent} is below the first box {FIRST_BOX}")
    prev = None
    hull = None
    streak = 0
    K = FIRST_BOX
    while K <= max_exponent:
        cloud = enumerate_orbit(G, u, K, cfg, hull=hull)
        hull = cloud.hull
        verdict = classify_closure(cloud, cfg)
        # INCONCLUSIVE never stabilizes: evidence may still accumulate
        if verdict.kind != INCONCLUSIVE and prev is not None and _same_signature(prev, verdict):
            streak += 1
            if streak >= 2:
                return verdict, K, cloud
        else:
            streak = 0
        prev = verdict
        K *= 2
    return verdict, K // 2, cloud


def _same_signature(a: ClosureVerdict, b: ClosureVerdict) -> bool:
    """Verdict stability across growing boxes.

    A discrete verdict only counts as stable when the minimum separation
    stays put: a dense orbit sampled too coarsely also looks discrete, but
    its separation keeps shrinking as the box grows.
    """
    if a.kind != b.kind or a.hull_dim != b.hull_dim:
        return False
    if a.kind == DISCRETE:
        da, db = a.min_distance, b.min_distance
        if math.isinf(da) or math.isinf(db):
            return math.isinf(da) and math.isinf(db)
        return abs(da - db) <= 0.01 * max(da, db)
    return True


# ---------------------------------------------------------------------------
# inverse recurrence (the dynamical symmetry check on U)


class InverseRecurrenceReport:
    __slots__ = ("backward_errors", "tail_max", "final_error", "tends_to_zero")

    def __init__(self, backward_errors: list[float], tail_max: float, final_error: float,
                 tends_to_zero: bool):
        self.backward_errors = backward_errors  # ||B_m^-1 v - u||
        self.tail_max = tail_max                # max backward error over the last quarter
        self.final_error = final_error
        self.tends_to_zero = tends_to_zero      # tail decreasing and final error below RECURRENCE_TOL


def inverse_recurrence_check(
    G: GeneratorSet,
    family: InvariantFamily,
    u,
    v,
    words: list[tuple[int, ...]],
    ctx: NumericContext,
) -> InverseRecurrenceReport:
    """If B_m u -> v with u, v in U, the inverses must bring v back to u.

    Refuses points outside U (the symmetry is vacuous there) and requires the
    forward errors to be decreasing along the tail.
    """
    mu = membership(family, u, ctx)
    mv = membership(family, v, ctx)
    if not mu.in_U:
        raise PointNotInU(f"u lies in H_{mu.containing}")
    if not mv.in_U:
        raise PointNotInU(f"v lies in H_{mv.containing}")
    un = vec_to_numeric(u)
    vn = vec_to_numeric(v)
    fwd = []
    bwd = []
    for word in words:
        img = vec_to_numeric(G.word(word).matvec(tuple(u)))
        back = vec_to_numeric(G.word(tuple(-k for k in word)).matvec(tuple(v)))
        fwd.append(float(np.linalg.norm(img - vn)))
        bwd.append(float(np.linalg.norm(back - un)))
    tail = max(2, len(words) // 2)
    for a, b in zip(fwd[-tail:], fwd[-tail + 1 :]):
        if b > a * 1.001 + 1e-12:
            raise NotConvergent("forward errors are not decreasing along the tail")
    quarter = max(1, len(words) // 4)
    tail_max = max(bwd[-quarter:])
    final = bwd[-1]
    decreasing = all(
        b <= a * 1.2 + 1e-12 for a, b in zip(bwd[-tail:], bwd[-tail + 1 :])
    )
    return InverseRecurrenceReport(bwd, tail_max, final, decreasing and final <= RECURRENCE_TOL)


# ---------------------------------------------------------------------------
# integer approximation of a target by the value span


class ApproximationSequence:
    __slots__ = ("tuples", "residuals", "achieved")

    def __init__(self, tuples: list[tuple[int, ...]], residuals: list[float], achieved: float):
        self.tuples = tuples
        self.residuals = residuals
        self.achieved = achieved


def approximate_target(
    values: list[Scalar],
    target: Scalar,
    bound: int = 10**4,
    min_residual: float | None = None,
) -> ApproximationSequence:
    """Integer tuples k with |sum k_i values_i - target| strictly decreasing.

    Searches nested boxes (doubling up to `bound`), solving the largest-value
    coordinate by rounding, which is exhaustive-equivalent over each box.
    Raises NoProgress only when `min_residual` was demanded but the search
    stalled.
    """
    if not values:
        raise ValueError("need at least one value")
    for s in values:
        if not s.is_real():
            raise ValueError("approximation values must be real")
    if not target.is_real():
        raise ValueError("target must be real")
    vals = np.array([s.evaluate_complex(64).real for s in values])
    tgt = target.evaluate_complex(64).real
    if np.all(vals == 0.0):
        raise ValueError("all values are zero")

    pivot = int(np.argmax(np.abs(vals)))
    others = [i for i in range(len(vals)) if i != pivot]

    tuples: list[tuple[int, ...]] = []
    residuals: list[float] = []
    best = math.inf
    B = 1
    while B <= bound:
        if len(vals) > 1 and (2 * B + 1) ** (len(vals) - 1) > 8_000_000:
            break  # desk-scale guard for many-value inputs
        for tup, res in _best_in_box(vals, tgt, pivot, others, B):
            if res < best * (1 - 1e-12):
                best = res
                tuples.append(tup)
                residuals.append(res)
        if min_residual is not None and best <= min_residual:
            break
        B *= 2
    if min_residual is not None and best > min_residual:
        raise NoProgress(best)
    return ApproximationSequence(tuples, residuals, best)


def _best_in_box(vals, tgt, pivot, others, B):
    """Improving (tuple, residual) candidates for one exponent box, best first."""
    g = len(vals)
    grids = np.meshgrid(*[np.arange(-B, B + 1)] * len(others), indexing="ij")
    rest = sum(grids[i] * vals[o] for i, o in enumerate(others))
    kp = np.round((tgt - rest) / vals[pivot])
    out = []
    for dp in (-1.0, 0.0, 1.0):
        kpc = np.clip(kp + dp, -B, B)
        res = np.abs(rest + kpc * vals[pivot] - tgt)
        flat = int(np.argmin(res))
        idx = np.unravel_index(flat, res.shape)
        tup = [0] * g
        for i, o in enumerate(others):
            tup[o] = int(grids[i][idx])
        tup[pivot] = int(kpc[idx])
        out.append((tuple(tup), float(res[idx])))
    out.sort(key=lambda t: t[1])
    return out
