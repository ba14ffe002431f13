import hashlib
import itertools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import (
    FIXTURE_NAMES,
    RowEchelonOracle,
    fixture_by_name,
    group_from_strings,
    integer_relations,
    random_lastrow_group,
)
from lindyn.dynamics import (
    _dedup,
    _nearest_pair,
    _outer_columns,
    _same_signature,
    _window_filter,
    DENSE_IN_AFFINE,
    DISCRETE,
    INCONCLUSIVE,
    ApproximationSequence,
    ClosureConfig,
    ClosureVerdict,
    Hull,
    OrbitCloud,
    approximate_target,
    classify_closure,
    classify_stabilized,
    enumerate_orbit,
    inverse_recurrence_check,
)
from lindyn import dynamics
from lindyn.density import CLOSED, DENSE, IntegerSpan, dense_in
from lindyn.errors import NoProgress, NotConvergent, PointNotInU
from lindyn.groups import GeneratorSet
from lindyn.invariants import invariant_family
from lindyn.linalg import Matrix, as_vector
from lindyn.numeric import NumericContext, vec_to_numeric
from lindyn.scalars import Scalar

CTX = NumericContext()
CFG = ClosureConfig()


def shear3():
    return fixture_by_name("shear3")[0]


def shear4():
    return fixture_by_name("shear4")[0]


def radical4():
    return fixture_by_name("radical4")[0]


def _realify(points, field):
    """Numeric (m, n) points as the orbit engine's rows: interleaved (Re, Im)
    pairs (m, 2n) over C, the real parts over R."""
    points = np.ascontiguousarray(points, dtype=complex)
    return points.view(float) if field == "complex" else np.ascontiguousarray(points.real)


def _rotation_pair():
    """Rotations by (3/5, 4/5) and (5/13, 12/13), of infinite order, and u = (3/5, 4/5)."""
    G = group_from_strings("real", [[["3/5", "-4/5"], ["4/5", "3/5"]],
                                    [["5/13", "-12/13"], ["12/13", "5/13"]]], ["a", "b"])
    return G, as_vector(["3/5", "4/5"])


class TestEnumerate:
    def test_thirteen_points(self):
        cloud = enumerate_orbit(shear3(), as_vector([1, 1, 0]), 3, CFG)
        # n + m over |n|,|m| <= 3 covers exactly the integers -6..6
        assert cloud.count == 13

    def test_k_zero(self):
        cloud = enumerate_orbit(shear3(), as_vector([1, 1, 0]), 0, CFG)
        assert cloud.count == 1

    def test_shear4_last_coordinate_structure(self):
        u = as_vector(["1", "1", "1/2", "1/3"])
        cloud = enumerate_orbit(shear4(), u, 2, CFG)
        # points are (1, 1, 1/2, n + m + 1/3)
        fixed = cloud.points[:, :3]
        assert np.allclose(fixed, fixed[0])
        last = np.sort(cloud.points[:, 3].real)
        assert np.allclose(last, np.arange(-4, 5) + 1 / 3)

    def test_group_law_exact(self, rng):
        G = shear3()
        u = as_vector([1, 1, 0])
        pts = {k: G.word(k).matvec(u) for k in itertools.product(range(-2, 3), repeat=2)}
        for _ in range(100):
            k = (rng.randint(-1, 1), rng.randint(-1, 1))
            kp = (rng.randint(-1, 1), rng.randint(-1, 1))
            total = (k[0] + kp[0], k[1] + kp[1])
            W = G.word(k)
            assert pts[total] == W.matvec(pts[kp])

    def test_streamed_matches_full(self):
        G = shear3()
        u = as_vector(["1", "sqrt(2)", "0"])
        full_cloud = enumerate_orbit(G, u, 300, CFG)
        small_cfg = ClosureConfig(max_store=50_000)
        streamed = enumerate_orbit(G, u, 300, small_cfg)
        assert streamed.subsampled and not full_cloud.subsampled
        v_full = classify_closure(full_cloud, CFG)
        v_stream = classify_closure(streamed, small_cfg)
        assert v_full.kind == v_stream.kind == DENSE_IN_AFFINE
        assert abs(v_full.gap - v_stream.gap) < 1e-9

    def test_overflow_clipping(self):
        G = group_from_strings("real", [[["3", "0"], ["0", "1/3"]]])
        cloud = enumerate_orbit(G, as_vector([1, 1]), 250, ClosureConfig(overflow_limit=1e30))
        assert cloud.clipped and not cloud.subsampled
        assert cloud.count < 501
        assert "overflow-clipped points were dropped" in classify_closure(cloud, CFG).notes

    @pytest.mark.parametrize("name", [
        "generic_complex_streamed", "cshear5_plane_K24_streamed",
        "shear3_dense_K300_streamed",  # a real orbit: the float64 window GEMM, d = 1
        "one_generator_streamed",      # the identity as the one outer stage, J = 1
        "elliptic_plane_streamed",
    ])
    def test_streamed_window_complete(self, name):
        # oracle: the whole box, materialized; every point of it within the
        # window of the frame the stream ran in must have been kept, and
        # every kept point is a point of the box within 1.5 windows
        G, u, K, cfg = _digest_case(name)
        if name == "one_generator_streamed":
            # its points lie sqrt(2) apart on a line: this window holds 283
            cfg = cfg._replace(window=200.0)
        streamed = enumerate_orbit(G, u, K, cfg)
        full = enumerate_orbit(G, u, K, cfg._replace(max_store=10**7))
        assert streamed.subsampled and not full.subsampled
        # both come from G and u alone, so the box is classified in the same frame
        assert _bytes(streamed.hull.base) == _bytes(full.hull.base)
        assert _bytes(streamed.hull.V) == _bytes(full.hull.V)
        base, V = streamed.hull.base, streamed.hull.V
        kept, real = streamed.points, full.points
        offset = np.abs((real - base) @ V).max(axis=1)
        inwin = real[offset <= cfg.window]
        assert inwin.shape[0] > 100
        dist, _ = cKDTree(kept).query(inwin)
        assert dist.max() <= 1e-12
        dist, _ = cKDTree(real[offset <= 1.5 * cfg.window]).query(kept)
        assert dist.max() <= 1e-12

    def test_streamed_cloud_does_not_depend_on_max_store(self):
        # max_store only decides whether a box is streamed; the frame comes
        # from G and u, and the stream's chunks from K alone
        G, u, K, cfg = _digest_case("cshear5_plane_K24_streamed")
        a = enumerate_orbit(G, u, K, cfg._replace(max_store=10_000))
        b = enumerate_orbit(G, u, K, cfg._replace(max_store=50_000))
        assert a.subsampled and b.subsampled
        for x, y in zip([a.hull.base, a.hull.V, a.points], [b.hull.base, b.hull.V, b.points]):
            assert x.dtype == y.dtype and x.shape == y.shape and _bytes(x) == _bytes(y)

    def test_streamed_verdict_matches_materialized(self):
        # the cshear5 dense plane at K=24, streamed, against the whole box
        # classified in the same frame.  The whole box is still separated at 0.064, above the gap threshold, so its
        # nearest-neighbour check would say DISCRETE: it is switched off to
        # compare the covering verdicts
        G, u, K, cfg = _digest_case("cshear5_plane_K24_streamed")
        streamed = enumerate_orbit(G, u, K, cfg)
        full_cfg = cfg._replace(max_store=10**7, discrete_count_limit=0)
        full = enumerate_orbit(G, u, K, full_cfg)
        assert streamed.subsampled and not full.subsampled
        v_stream, v_full = classify_closure(streamed, cfg), classify_closure(full, full_cfg)
        assert v_stream.kind == v_full.kind == DENSE_IN_AFFINE
        assert v_stream.hull_dim == v_full.hull_dim == 2
        assert v_stream.gap == v_full.gap
        # no separation is measured on a cloud that stores only its window
        assert v_stream.min_distance is None

    def test_norm_bound_without_overflow(self):
        # rotations keep |coordinates| <= 1, but their row sums reach sqrt(2):
        # at a limit of 1.2 the norm bound clears no column, and the exact
        # overflow test must then clip nothing
        G, u = _rotation_pair()
        tight = enumerate_orbit(G, u, 150, ClosureConfig(max_store=5000, overflow_limit=1.2))
        loose = enumerate_orbit(G, u, 150, ClosureConfig(max_store=5000))
        assert tight.subsampled and not tight.clipped and not loose.clipped
        assert tight.count == loose.count == 54_661

    def test_norm_bound_without_overflow_materialized(self):
        # the same rotation pair as a materialized box: the norm bound
        # 2 |c_u| prod(row sums), about 3.2, does not clear a limit of 1.2,
        # so the exact scan runs, and it must clip nothing
        G, u = _rotation_pair()
        tight = enumerate_orbit(G, u, 150, ClosureConfig(overflow_limit=1.2))
        loose = enumerate_orbit(G, u, 150, ClosureConfig())
        assert not tight.subsampled and not tight.clipped and not loose.clipped
        assert tight.count == loose.count
        assert tight.points.tobytes() == loose.points.tobytes()

    def test_one_overflowing_tuple_clips(self):
        # points (1, k1 + 1000 k2 + 1/2): only the corner k = (400, 400) is
        # above the limit, and it is not a window hit
        G = group_from_strings("real", [[["1", "0"], ["1", "1"]], [["1", "0"], ["1000", "1"]]])
        cfg = ClosureConfig(max_store=10_000, overflow_limit=400_400.25)
        streamed = enumerate_orbit(G, as_vector(["1", "1/2"]), 400, cfg)
        full = enumerate_orbit(G, as_vector(["1", "1/2"]), 400, cfg._replace(max_store=10**6))
        assert streamed.subsampled and not full.subsampled
        assert streamed.clipped and full.clipped
        assert full.count == 801**2 - 1

    def test_conjugated_dense_line(self):
        # the shear4 dense line after the unimodular change of basis P: the
        # same orbit, so the same verdict and counts, and the cloud stores one
        # hull coordinate per point in both bases
        G, points = fixture_by_name("shear4")
        P = Matrix.from_rows([[2, 1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 1, 2]])
        P_inv = P.inverse()
        conjugated = GeneratorSet("real", 4, [P * g * P_inv for g in G.generators], list(G.names))
        K = 1000
        a = enumerate_orbit(G, points["dense_line"], K, CFG)
        b = enumerate_orbit(conjugated, P.matvec(points["dense_line"]), K, CFG)
        va, vb = classify_closure(a, CFG), classify_closure(b, CFG)
        assert (va.kind, va.hull_dim) == (vb.kind, vb.hull_dim) == (DENSE_IN_AFFINE, 1)
        assert a.count == b.count and a.total_tuples == b.total_tuples == (2 * K + 1) ** 2
        assert a.coords.shape == b.coords.shape == (a.count, 1)

    def test_inexact_inputs_refused(self):
        G, u = _rotation_pair()
        with pytest.raises(ValueError, match="exact"):
            enumerate_orbit(G, np.array([0.6, 0.8]), 3, CFG)
        numeric = GeneratorSet("real", 2, [g.to_complex_array().real for g in G.generators])
        with pytest.raises(ValueError, match="exact"):
            enumerate_orbit(numeric, u, 3, CFG)

    def test_streamed_fixed_point(self):
        # u is a fixed point, so its frame is 0-dimensional
        cloud = enumerate_orbit(shear3(), as_vector([0, 0, 1]), 300, ClosureConfig(max_store=1000))
        assert cloud.subsampled and cloud.count == 1
        assert cloud.points.tolist() == [[0, 0, 1]]
        # its one stored point is the whole orbit
        v = classify_closure(cloud, CFG)
        assert (v.kind, v.hull_dim, v.min_distance) == (DISCRETE, 0, math.inf)
        assert v.notes == ["large box streamed: stored points are window-complete", "single point"]


# sha256 of cloud.points as complex128 (see _digest).  The enumeration
# promises the same verdicts and gaps, and points equal up to rounding; a
# streamed cloud stores only the box's points within 1.5 windows of its
# frame.  A streamed point is formed by a product per gathered column, which
# may round differently from a product over a block of columns
# (generic_complex_streamed, whose float64 entries round, shows it).  The
# digests pin the current bits, so any change that moves a point shows here.
# They hold for numpy's bundled OpenBLAS; another BLAS may round differently.
POINT_DIGESTS = {
    "shear3_dense_K300": "2c531a1e789a296f836c94c586935573e848d89d77a07f12c5e7ee82864d59d2",
    "shear3_dense_K300_streamed": "4ee3925ff43c5a32d0ec27b75a48cdbaa33e07848df44570ade6f0df8e509609",
    "cshear5_plane_K24_streamed": "5db53bc6ce9092749153150e225e30f7a2ad2c6356b07cc1851293768db8069c",
    "one_generator_streamed": "7dbb60e46ac955a83d35a97c8fc2277b1ddc3c48196c03eba9eceef891815b90",
    "expanding_clipped_streamed": "856dcc1aa406fa5f500001ddbeb5e0615387b66744d94b4c69295a5080728db9",
    "generic_complex_streamed": "2e1b32a27c2357e4994b9db53db8a4cee1426b334f3cb20779f45d9cc5485af8",
    "hyperbolic_pair_streamed": "282ad116ccce1ad01b8e32d44ce4353ed888fd5617bcef1106ec70d34a242377",
    "elliptic_plane_streamed": "a45092a1850eb4430e16cb03f2c99a367382a02cf25f72cc98ed80c87972f788",
}


def _digest_case(name):
    dense3 = as_vector(["1", "sqrt(2)", "0"])
    if name == "shear3_dense_K300":
        return shear3(), dense3, 300, CFG
    if name == "shear3_dense_K300_streamed":  # g = 2
        return shear3(), dense3, 300, ClosureConfig(max_store=50_000)
    if name == "cshear5_plane_K24_streamed":  # g = 3: a nested stage before the last
        u = as_vector(["1+i", "sqrt(3)+i*sqrt(2)", "sqrt(2)+i", "0", "0"])
        return fixture_by_name("cshear5")[0], u, 24, ClosureConfig(max_store=10_000)
    if name == "generic_complex_streamed":
        # P D P^-1 with eigenvalues near the unit circle.  The denominators are
        # not powers of two, so the float64 entries round: a point of the last
        # stage formed by a product over fewer columns would round differently
        P = Matrix.from_rows([["2/3+i", "-1+3*i/5", "1"], ["1-2*i/7", "3/2", "-2+i"],
                              ["-1/3", "1+i", "2/5-i"]])
        eigenvalues = [["1001/1000*(3+4*i)/5", "1499/1500*(5+12*i)/13", "3001/3000*(8+15*i)/17"],
                       ["2999/3000*(7+24*i)/25", "1001/1000*(20+21*i)/29", "1499/1500*(12+35*i)/37"]]
        gens = []
        for diag in eigenvalues:
            D = Matrix.from_rows([[x if i == j else "0" for j in range(3)]
                                  for i, x in enumerate(diag)])
            gens.append(P * D * P.inverse())
        G = GeneratorSet("complex", 3, gens, ["a", "b"])
        u = as_vector(["1/3-i", "1+2*i/7", "-3/5+i"])
        return G, u, 100, ClosureConfig(max_store=5000, window=3.0)
    if name == "one_generator_streamed":
        G = group_from_strings("real", [[["1", "0"], ["1", "1"]]])
        return G, as_vector(["sqrt(2)", "1/3"]), 3000, ClosureConfig(max_store=1000)
    if name in ("hyperbolic_pair_streamed", "elliptic_plane_streamed"):
        # P D P^-1 with a fixed third eigenvector, so the hull is a plane in
        # R^3 (d = 2), and with entries that round in float64.  The
        # hyperbolic pair's outer powers run from about 3^-100 to 3^100, and
        # its points to 4e77, below the overflow limit.  Its window hits
        # cancel terms of up to about 1e57, so their rounding, not the orbit,
        # decides which points are hits, and the materialized box forms other
        # points.  The elliptic pair's points lie on an ellipse wider than
        # the window
        P = Matrix.from_rows([["1", "2/3", "-1/5"], ["-1/7", "1", "3/4"], ["2/5", "-1/3", "1"]])
        if name.startswith("hyperbolic"):
            blocks = [[["3", "0"], ["0", "1/3"]], [["2", "0"], ["0", "1/2"]]]
            u, K, cfg = as_vector(["1", "1/3", "-2/7"]), 100, ClosureConfig(max_store=10_000)
        else:
            blocks = [[["3/5", "-4/5"], ["4/5", "3/5"]], [["5/13", "-12/13"], ["12/13", "5/13"]]]
            u, K, cfg = as_vector(["4", "-3", "2"]), 150, ClosureConfig(max_store=5000)
        gens = [P * Matrix.from_rows([[*row, "0"] for row in block] + [["0", "0", "1"]])
                * P.inverse() for block in blocks]
        return GeneratorSet("real", 3, gens, ["a", "b"]), u, K, cfg
    G = group_from_strings(
        "real", [[["3", "0"], ["0", "1/3"]], [["2", "0"], ["0", "1/2"]]]
    )
    return G, as_vector([1, 1]), 250, ClosureConfig(overflow_limit=1e30, max_store=10_000)


def _digest(cloud, field):
    """sha256 of the points as complex128: over C each realified pair read as
    one complex number, over R each coordinate cast with a +0.0 imaginary part."""
    points = np.ascontiguousarray(cloud.points)
    points = points.view(complex) if field == "complex" else points.astype(complex)
    return hashlib.sha256(points.tobytes()).hexdigest()


class TestSameBits:
    @pytest.mark.parametrize("name", sorted(POINT_DIGESTS))
    def test_points_digest(self, name):
        G, u, K, cfg = _digest_case(name)
        cloud = enumerate_orbit(G, u, K, cfg)
        assert cloud.subsampled == name.endswith("_streamed")
        assert cloud.clipped == name.startswith("expanding")
        # every orbit is enumerated in float64, on realified coordinates over C
        width = (2 if G.field == "complex" else 1) * G.dimension
        assert cloud.points.dtype == np.float64 and cloud.points.shape[1] == width
        assert _digest(cloud, G.field) == POINT_DIGESTS[name]

    @pytest.mark.parametrize("max_store", [4_500_000, 200])
    def test_handled_overflow_is_silent(self, max_store):
        # powers of 1e10 overflow long before K=400; clipping drops them
        G = group_from_strings("real", [[["10000000000", "0"], ["0", "1/10000000000"]]])
        for K in (32, 400):
            cfg = ClosureConfig(max_store=max_store)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cloud = enumerate_orbit(G, as_vector([1, 1]), K, cfg)
            assert cloud.clipped and cloud.subsampled == (2 * K + 1 > max_store)
            assert np.isfinite(cloud.points).all()
            assert np.abs(cloud.points).max() <= cfg.overflow_limit


class TestWindowFilter:
    """The window hits of a streamed chunk, found from the frame coordinates of its columns."""

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The number of tuples whose window coordinates were formed, per call.

        Window coordinates are formed by _outer_columns on the frame maps Q,
        of d rows; the stored hits by _outer_columns on the power stack, of
        d + 1 rows, which is not counted."""
        counts = []

        def counting(outer, inner, flat):
            if outer.shape[1] < inner.shape[0]:
                counts.append(flat.size)
            return _outer_columns(outer, inner, flat)

        monkeypatch.setattr(dynamics, "_outer_columns", counting)
        return counts

    def test_plane_forms_few_tuples(self, evaluated):
        G, u, K, cfg = _digest_case("cshear5_plane_K24_streamed")
        cloud = enumerate_orbit(G, u, K, cfg)
        assert cloud.total_tuples == 117_649
        assert 0 < sum(evaluated) <= 2 * cloud.count
        assert _digest(cloud, G.field) == POINT_DIGESTS["cshear5_plane_K24_streamed"]

    def test_every_tuple_a_hit(self, evaluated):
        G, u, K, cfg = _digest_case("generic_complex_streamed")
        cloud = enumerate_orbit(G, u, K, cfg)
        assert sum(evaluated) == cloud.count == cloud.total_tuples
        assert _digest(cloud, G.field) == POINT_DIGESTS["generic_complex_streamed"]

    def test_fixed_point_forms_every_tuple(self, evaluated):
        # a 0-dimensional frame gives no interval: every tuple is formed, and is a hit
        cloud = enumerate_orbit(shear3(), as_vector([0, 0, 1]), 300, ClosureConfig(max_store=1000))
        assert cloud.subsampled and cloud.points.tolist() == [[0, 0, 1]]
        assert sum(evaluated) == cloud.total_tuples

    @staticmethod
    def _against_every_tuple(Q, offset, bound, cols, evaluated, rng, trial):
        """The filter's hits, checked against a test of every tuple, and how many tuples it formed."""
        J, M = Q.shape[0], cols.shape[1]
        # the stream runs the filter where overflow and NaN are expected
        with np.errstate(over="ignore", invalid="ignore"):
            evaluated.clear()
            got = _window_filter(Q, offset, bound)(cols)
            formed = sum(evaluated)
            vals = _outer_columns(Q, cols, np.arange(J * M)) - offset
            # a tuple has the same bits whichever tuples it is formed
            # with: a few on their own, and the rest in reverse order
            few = rng.choice(J * M, size=min(J * M, trial % 3 + 1), replace=False)
            rest = np.setdiff1d(np.arange(J * M), few)[::-1]
            for part in (few, *few[:, None], rest):
                assert np.array_equal(_outer_columns(Q, cols, part) - offset, vals[part],
                                      equal_nan=True), trial
        want = np.flatnonzero(np.abs(vals).max(axis=1, initial=0.0) <= bound)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), trial
        return want.size, formed

    def test_no_hit_left_out(self, evaluated):
        # oracle: every tuple's frame coordinates, formed by the same helper.
        # Q[j] maps the hull coordinates x by a random d x d matrix of scale
        # 1e-3 to 1e3, singular in some trials, and its offsets put the
        # window near a random point x0; some trials have non-finite columns
        # or outer powers
        rng = np.random.default_rng(32)
        pruned = hits = 0
        for trial in range(120):
            d = trial % 4
            J, M = int(rng.integers(1, 25)), int(rng.integers(1, 300))
            x0 = rng.normal(size=(d, 1)) * 10.0 ** rng.uniform(-2, 3)
            cols = np.vstack([x0 + rng.normal(size=(d, M)) * 10.0 ** rng.uniform(-1, 2),
                              np.ones((1, M))])
            A = rng.normal(size=(J, d, d)) * 10.0 ** rng.uniform(-3, 3, size=(J, 1, 1))
            if trial % 6 == 3:
                A[:, :, -1:] = A[:, :, :1]  # singular: the pseudo-inverse leaves a residual
            offset = rng.normal(size=d)
            t = offset - (A @ x0)[:, :, 0] + rng.normal(size=(J, d)) * 10.0 ** rng.uniform(-2, 1)
            Q = np.concatenate([A, t[:, :, None]], axis=2)
            if trial % 5 == 1:
                cols[rng.integers(max(d, 1)), rng.integers(M, size=3)] = rng.choice([np.inf, -np.inf, np.nan])
            if trial % 7 == 2:
                Q[rng.integers(J), :, rng.integers(d + 1)] = np.inf
            found, formed = self._against_every_tuple(
                Q, offset, float(rng.uniform(0.5, 5)), cols, evaluated, rng, trial)
            hits += found
            pruned += formed < J * M
        assert hits > 50_000 and pruned > 60, (hits, pruned)

        # every column has the same x_0, and column 0, x0 itself, is a hit
        # for every j: so the x_0 range of each j holds every column, and
        # only x_1, ..., x_(d-1) can rule tuples out.  Some trials make a
        # column k >= 1 of Q[j], or one entry of it, non-finite, which must
        # keep every tuple of that j, or put NaN or inf at x_k of some
        # columns; some have an infinite bound, under which every tuple
        # whose value is not NaN is a hit
        pruned = hits = 0
        for trial in range(90):
            d = 2 + trial % 3
            J, M = int(rng.integers(1, 25)), int(rng.integers(2, 300))
            x0 = rng.normal(size=(d, 1)) * 10.0 ** rng.uniform(-2, 3)
            cols = np.vstack([x0 + rng.normal(size=(d, M)) * 10.0 ** rng.uniform(-1, 2),
                              np.ones((1, M))])
            cols[0], cols[:d, 0] = x0[0, 0], x0[:, 0]
            A = rng.normal(size=(J, d, d)) * 10.0 ** rng.uniform(-1, 3, size=(J, 1, 1))
            if trial % 6 == 3:
                A[:, :, -1:] = A[:, :, 1:2]  # singular in x_1, ..., x_(d-1)
            offset = rng.normal(size=d)
            t = offset - (A @ x0)[:, :, 0] + rng.normal(size=(J, d)) * 1e-3
            Q = np.concatenate([A, t[:, :, None]], axis=2)
            bound = np.inf if trial % 10 == 9 else float(rng.uniform(0.5, 5))
            kind = trial % 5
            if kind == 1:  # a whole column k >= 1 of one Q[j]
                Q[rng.integers(J), :, rng.integers(1, d)] = rng.choice([np.inf, -np.inf, np.nan])
            elif kind == 2:  # one entry of such a column
                Q[rng.integers(J), rng.integers(d), rng.integers(1, d)] = rng.choice([np.inf, np.nan])
            elif kind == 3:  # x_k of some columns other than x0
                cols[rng.integers(1, d), rng.integers(1, M, size=3)] = rng.choice([np.inf, -np.inf, np.nan])
            found, formed = self._against_every_tuple(Q, offset, bound, cols, evaluated, rng, trial)
            hits += found
            if kind in (1, 2):
                assert formed >= M, trial  # the non-finite Q[j] keeps all its tuples
            elif kind == 0 and bound < np.inf:
                pruned += formed < J * M
        assert hits > 20_000 and pruned > 5, (hits, pruned)

    def test_residual_widens_the_interval(self):
        # hull coordinates (x0, x1) and values Q[j] (x; 1) = (s_j x0 + t_j x1,
        # 0): R_j is singular, so its pseudo-inverse leaves the residual F x,
        # and a hit's s_j x0 is up to 10 |t_j| away from the window, and
        # still in its interval
        rng = np.random.default_rng(33)
        cols = np.vstack([rng.uniform(-20, 20, 400), rng.uniform(-10, 10, 400), np.ones(400)])
        Q = np.zeros((3, 2, 3))
        Q[:, 0, :2] = [[1.0, 1.0], [2.0, 1.0], [0.5, -1.0]]
        offset = np.zeros(2)
        got = _window_filter(Q, offset, 1.5)(cols)
        js, cs = np.divmod(np.arange(3 * 400), 400)
        hit = np.abs(_outer_columns(Q, cols, np.arange(3 * 400)) - offset).max(axis=1) <= 1.5
        assert got.tolist() == np.flatnonzero(hit).tolist()
        # the first coordinate alone would have left these hits out
        assert (np.abs(Q[js, 0, 0] * cols[0, cs])[hit] > 3).sum() > 50

    def test_residual_widens_a_later_interval(self):
        # hull coordinates (x0, x1, x2) and values Q[j] (x; 1) = (x0 - 1, s_j
        # x1 + t_j x2, 0): R_j is singular, its pseudo-inverse's row for x1
        # is (0, s_j, 0) / (s_j^2 + t_j^2), and a hit's s_j x1 is up to 20
        # |t_j| away from the window: only x1's interval widened by the
        # residual F x keeps it
        rng = np.random.default_rng(34)
        M = 400
        cols = np.vstack([rng.uniform(-4, 6, M), rng.uniform(-20, 20, M),
                          rng.uniform(-10, 10, M), np.ones(M)])
        Q = np.zeros((3, 3, 4))
        Q[:, 0, 0], Q[:, 0, 3] = 1.0, -1.0
        Q[:, 1, 1:3] = [[1.0, 1.0], [2.0, -1.0], [0.5, 2.0]]
        offset = np.zeros(3)
        got = _window_filter(Q, offset, 1.5)(cols)
        js, cs = np.divmod(np.arange(3 * M), M)
        hit = np.abs(_outer_columns(Q, cols, np.arange(3 * M)) - offset).max(axis=1) <= 1.5
        assert got.tolist() == np.flatnonzero(hit).tolist()
        # x1's interval without the residual, |s_j x1| <= 1.5 s_j^2 / (s_j^2 +
        # t_j^2) up to rounding, would have left these hits out
        assert (np.abs(Q[js, 1, 1] * cols[1, cs])[hit] > 3).sum() > 20


def _real_case(name):
    if name == "cshear5_real_point_streamed":
        # cshear5's generators are real, so a real start point gives a real
        # orbit in a complex field: its hull frame has zero imaginary rows
        u = as_vector(["1", "sqrt(3)", "sqrt(2)", "0", "0"])
        return fixture_by_name("cshear5")[0], u, 24, ClosureConfig(max_store=10_000)
    return _digest_case(name)


def _realified_twin(G, u):
    """The real group of G's exactly realified generators, and u's realified point.

    Each complex entry a becomes the 2 x 2 block [[Re a, -Im a], [Im a, Re a]]
    on the interleaved (Re, Im) coordinates."""
    def block_rows(g):
        for row in g.entries():
            yield [x for c in row for x in (c.real_part(), -c.imag_part())]
            yield [x for c in row for x in (c.imag_part(), c.real_part())]

    gens = [Matrix.from_rows(list(block_rows(g))) for g in G.generators]
    twin = GeneratorSet("real", 2 * G.dimension, gens, list(G.names))
    return twin, tuple(p for c in u for p in (c.real_part(), c.imag_part()))


def _twin_cases(name):
    """[(case, G, u, K, cfg)] of complex groups, materialized and streamed."""
    if name == "cshear5_fixture_points":
        G, points = fixture_by_name("cshear5")
        return [(f"cshear5.{p}@{K}", G, u, K, CFG) for p, u in sorted(points.items())
                for K in (8, 32)]
    if name == "similarity_pair":
        G = group_from_strings("complex", [[["51/50*(3+4*i)/5"]], [["49/50*(5+12*i)/13"]]])
        return [(name, G, as_vector(["1"]), 128, CFG)]
    if name == "seeded_shears":
        return [(case, G, u, K, CFG) for case, G, u, K, _ in _shear_cases() if G.field == "complex"]
    return [(name, *_real_case(name))]


class TestRealifiedTwinSameBits:
    """A complex group's cloud is, bit for bit, that of the real group of its
    exactly realified generators at the realified start point."""

    @pytest.mark.parametrize("name", [
        "cshear5_real_point_streamed", "generic_complex_streamed", "cshear5_plane_K24_streamed",
        "cshear5_fixture_points", "similarity_pair", "seeded_shears",
    ])
    def test_cloud_is_the_realified_groups(self, name):
        for case, G, u, K, cfg in _twin_cases(name):
            assert G.field == "complex"
            twin, tu = _realified_twin(G, u)
            cloud, want = enumerate_orbit(G, u, K, cfg), enumerate_orbit(twin, tu, K, cfg)
            assert cloud.subsampled == want.subsampled == case.endswith("_streamed"), case
            assert cloud.points.shape[1] == 2 * G.dimension, case
            hulls = [[h.base, h.V, h.origin, h.B, h.start] for h in (cloud.hull, want.hull)]
            for a, b in zip([*hulls[0], cloud.coords, cloud.points], [*hulls[1], want.coords, want.points]):
                assert a.dtype == b.dtype == np.float64 and a.shape == b.shape, case
                assert _bytes(a) == _bytes(b), case
            assert classify_closure(cloud, cfg) == classify_closure(want, cfg), case


def _box_svd_directions(G, u, K=8):
    """Hull directions estimated from a box: principal axes of its realified points less u.

    Those are the right singular vectors whose singular values exceed 1e-6
    times the largest.
    """
    cloud = enumerate_orbit(G, u, K, CFG)
    _, S, Vt = np.linalg.svd(cloud.points - cloud.hull.base, full_matrices=False)
    d = int(np.sum(S > 1e-6 * S[0])) if S[0] > 0 else 0
    return Vt[:d].T


def _frame_cases():
    for name, point in sorted(TestClassify.FIXTURE_VERDICTS):
        G, points = fixture_by_name(name)
        yield f"{name}.{point}", G, points[point]
    rng = random.Random(21)
    for k in range(12):
        n = rng.randint(3, 5)
        G, base, _ = random_lastrow_group(rng, n)
        yield f"lastrow{k}.base", G, base
        # some coordinates zero, so that a shear may fix the point
        yield f"lastrow{k}.p", G, as_vector([rng.choice([0, 0, 1, -2, "1/3"]) for _ in range(n)])
    for name in ("expanding_clipped_streamed", "generic_complex_streamed",
                 "cshear5_real_point_streamed"):
        G, u, _, _ = _real_case(name)
        yield name, G, u


class TestFrame:
    def test_exact_frame_against_box_svd(self):
        # the exact frame spans the principal axes of a K=8 box: the same
        # dimension, and a largest principal angle of at most 1e-9
        dims = set()
        for name, G, u in _frame_cases():
            hull = enumerate_orbit(G, u, 0, CFG).hull
            base, V = hull.base, hull.V
            assert _bytes(base) == _bytes(_realify(vec_to_numeric(u).reshape(1, -1), G.field)[0])
            assert np.allclose(V.T @ V, np.eye(V.shape[1]), rtol=0, atol=1e-12), name
            oracle = _box_svd_directions(G, u)
            assert V.shape == oracle.shape, name
            if V.shape[1]:
                sin_max = np.linalg.norm(oracle - V @ (V.T @ oracle), 2)
                assert sin_max <= 1e-9, name
            dims.add(V.shape[1])
        assert dims == {0, 1, 2, 6}


def _frame_oracle(G, u):
    """_frame by a worklist on the Scalar Gauss-Jordan: each realified vector
    that the echelon keeps pushes its images g_j v."""
    def realified(v):
        if G.field == "complex":
            return [p for c in v for p in (c.real_part(), c.imag_part())]
        return [c.real_part() for c in v]

    ech = RowEchelonOracle()
    todo = [tuple(a - b for a, b in zip(g.matvec(u), u)) for g in G.generators]
    while todo:
        v = todo.pop()
        if ech.insert(realified(v)):
            todo.extend(g.matvec(v) for g in G.generators)
    base = np.array([c.to_complex().real for c in realified(u)])
    rows = [c.to_complex().real for row in ech.basis() for c in row]
    return base, np.linalg.qr(np.reshape(rows, (-1, base.size)).T)[0]


class TestFrameSameBits:
    """The frame, whose QR feeds every window test and projection, has the
    bits of the Scalar Gauss-Jordan worklist's."""

    def _same(self, G, u):
        hull, want = dynamics._frame(G, tuple(u)), _frame_oracle(G, tuple(u))
        for a, b in zip((hull.base, hull.V), want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return hull.V.shape

    def test_fixture_points(self):
        for name in FIXTURE_NAMES:
            G, points = fixture_by_name(name)
            for u in points.values():
                self._same(G, u)

    def test_seeded_shears(self):
        fields = set()
        for name, G, u, _, _ in _shear_cases():
            self._same(G, u)
            fields.add(G.field)
        for _, G, u in _frame_cases():
            self._same(G, u)
            fields.add(G.field)
        assert fields == {"real", "complex"}

    def test_fixed_point(self):
        # the shear moves the last coordinate by the first, which is 0
        G = group_from_strings("real", [[["1", "0", "0"], ["0", "1", "0"], ["sqrt(2)", "0", "1"]]])
        assert self._same(G, as_vector([0, "1/3", 5])) == (3, 0)

    def test_whole_realified_space(self):
        G = group_from_strings("complex", [[["i", "0"], ["0", "1"]], [["1", "0"], ["0", "i"]]])
        assert self._same(G, as_vector([1, "2-i"])) == (4, 4)
        G, u = _rotation_pair()
        assert self._same(G, u) == (2, 2)


def _lastrow_increments(G, u):
    """The last row of g - I applied to u, per generator and realified: the
    translations of a last-row shear's orbit, by the formula that holds only
    in the shear's own basis."""
    n = G.dimension
    incs = [sum((g[n - 1, j] * u[j] for j in range(n - 1)), Scalar.zero()) for g in G.generators]
    if G.field == "complex":
        return [(c.real_part(), c.imag_part()) for c in incs]
    return [(c,) for c in incs]


def _unimodular(rng, n):
    """A seeded integer matrix of determinant 1: a lower times an upper unitriangular one."""
    L = [[rng.randint(-2, 2) if i > j else int(i == j) for j in range(n)] for i in range(n)]
    U = [[rng.randint(-2, 2) if i < j else int(i == j) for j in range(n)] for i in range(n)]
    return Matrix.from_rows(L) * Matrix.from_rows(U)


def _translation_kind(hull):
    return dense_in(IntegerSpan.of(hull.translations, len(hull.pivots))).kind


class TestHullTranslations:
    """A group that acts on its orbit's hull coordinates by translations
    keeps them exactly, and their lattice decides the orbit closure."""

    def test_fixture_points(self):
        dims = []
        for name in FIXTURE_NAMES:
            G, points = fixture_by_name(name)
            for u in points.values():
                hull = dynamics._frame(G, tuple(u))
                assert hull.translations == _lastrow_increments(G, u), name
                dims.append(len(hull.pivots))
        assert sorted(dims) == [1] * 7 + [2] * 2

    def test_random_lastrow_groups_and_their_conjugates(self):
        # the frame reads the increments in the shear's basis, and the same
        # verdict in a basis P where the last-row formula no longer applies
        rng = random.Random(47)
        kinds = set()
        for _ in range(20):
            n = rng.randint(3, 5)
            G, base, _ = random_lastrow_group(rng, n)
            P = _unimodular(rng, n)
            P_inv = P.inverse()
            H = GeneratorSet("real", n, [P * g * P_inv for g in G.generators], G.names)
            point = as_vector([rng.choice([0, 0, 1, -2, "1/3"]) for _ in range(n)])
            for u in (base, point):
                want = _lastrow_increments(G, u)
                hull = dynamics._frame(G, tuple(u))
                if any(t != (Scalar.zero(),) for t in want):
                    assert hull.translations == want
                kind = dense_in(IntegerSpan.of(want, 1)).kind
                assert _translation_kind(hull) == kind
                assert _translation_kind(dynamics._frame(H, P.matvec(u))) == kind
                kinds.add(kind)
        assert kinds == {CLOSED, DENSE}

    def test_not_a_translation(self):
        # the Jordan block moves e3's hull coordinates by a shear, R != I
        G = group_from_strings("real", [[["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]])
        hull = dynamics._frame(G, as_vector([0, 0, 1]))
        assert len(hull.pivots) == 2 and hull.translations is None

    def test_fixed_point_is_closed(self):
        hull = dynamics._frame(shear3(), as_vector([0, 0, 5]))
        assert hull.pivots == [] and hull.translations == [(), ()]
        assert _translation_kind(hull) == CLOSED


def _dedup_oracle(points, eps):
    """_dedup as it was: lexsort over every realified key column."""
    if points.shape[0] == 0:
        return points
    flat = points.view(float).reshape(points.shape[0], -1)
    finite = np.all(np.isfinite(flat), axis=1)
    points, flat = points[finite], flat[finite]
    if points.shape[0] == 0:
        return points
    keys = np.round(flat / eps)
    order = np.lexsort(keys.T)
    ks = keys[order]
    keep = np.concatenate([[True], np.any(ks[1:] != ks[:-1], axis=1)])
    return points[order][keep]


def _line_dedup_oracle(points, eps):
    """_dedup of a one-column cloud: its finite values sorted, the first value
    of each key kept, and a kept zero written as +0.0."""
    x = np.sort(points[np.isfinite(points[:, 0]), 0])
    keys = np.round(x / eps)
    out = x[np.concatenate([[True], keys[1:] != keys[:-1]])[: x.size]]
    out[out == 0.0] = 0.0
    return out[:, None]


def _oracle(points, eps):
    """The oracle of _dedup for `points`, by its number of columns."""
    return (_line_dedup_oracle if points.shape[1] == 1 else _dedup_oracle)(points, eps)


def _dedup_trials():
    """60 seeded complex point sets on a grid near dedup_eps, some with constant
    columns, realified as the orbit engine forms them."""
    rng = np.random.default_rng(5)
    for trial in range(60):
        m, n = int(rng.integers(1, 400)), int(rng.integers(1, 5))
        grid = rng.integers(-3, 4, size=(m, n, 2)) * 1e-9 * rng.choice([0.3, 1, 7])
        pts = (grid[..., 0] + 1j * grid[..., 1]).astype(complex)
        for j in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False):
            pts[:, j] = pts[0, j]  # constant columns
        if trial % 3 == 0:
            pts.imag = 0.0
        yield _realify(pts, "complex")


def _with_nonfinite_rows(pts, rng):
    """A copy of `pts` with NaN or inf in one coordinate of up to three rows."""
    out = pts.copy()
    rows = rng.choice(out.shape[0], size=min(3, out.shape[0]), replace=False)
    for i in rows:
        out[i, rng.integers(out.shape[1])] = rng.choice([np.nan, np.inf, -np.inf])
    return out


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


class TestDedup:
    def _same(self, pts, eps=1e-9):
        want = _dedup_oracle(pts, eps)
        got = _dedup(pts, eps)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_against_all_column_oracle(self):
        for pts in _dedup_trials():
            self._same(pts)
            self._same(pts, eps=2.5e-9)

    def test_float64_and_transposed_views(self):
        # the real parts of the trials' points dedup as the oracle does, and a
        # transposed view (how enumerate_orbit passes a materialized box) as
        # its contiguous copy, on the trials with and without NaN/inf rows
        rng = np.random.default_rng(6)
        for pts in _dedup_trials():
            for rpts in (pts, _with_nonfinite_rows(pts, rng)):
                x = np.ascontiguousarray(rpts[:, 0::2])
                for eps in (1e-9, 2.5e-9):
                    want = _oracle(x, eps)
                    got = _dedup(x.copy(), eps)
                    assert got.dtype == np.float64
                    assert _bytes(got) == _bytes(want)
                    for a in (rpts, x):
                        view = a.T.copy().T
                        got, want = _dedup(view, eps), _dedup(a.copy(), eps)
                        assert got.shape == want.shape and got.dtype == want.dtype
                        assert _bytes(got) == _bytes(want)

    def test_edge_cases(self):
        self._same(np.zeros((0, 6)))
        self._same(_realify(np.full((7, 2), 1 + 2j), "complex"))  # all rows equal
        pts = np.array([[1, np.nan], [np.inf, 0], [1, 1], [1, 1], [0, -np.inf]])
        self._same(pts)  # rows with NaN and inf
        self._same(np.array([[np.nan, 0], [1, np.inf]]))  # nothing finite
        # keys that round to -0.0 and to 0.0 compare equal
        tiny = 1e-9 * np.array([-0.2, 0.2, -0.0, 0.0, 0.4, -0.4, 1.0])
        self._same(np.stack([tiny, tiny[::-1]], axis=1))
        self._same(np.stack([tiny, np.ones_like(tiny)], axis=1))

    def _one_column_cases(self):
        """(name, points) with one key column moving.

        Each case on a line of R^3 comes also as its moving column alone:
        only a one-column cloud sorts its values alone, and any other is
        lexsorted."""
        rng = np.random.default_rng(7)
        m = 500
        line = np.empty((m, 3))
        line[:, 0], line[:, 1] = 1.5, -2.0
        line[:, 2] = rng.integers(-50, 50, m) * 0.25  # exact duplicates
        near = line[:8].copy()
        near[:, 2] = [0.25, np.nextafter(0.25, 1), 0.5, 0.25, -3.0, 0.5, 7.0, -3.0]
        signed = line[:6].copy()
        signed[:, 2] = [0.0, -0.0, 1.0, 0.0, -0.0, 2.0]
        zeros = line[:4].copy()
        zeros[:, 2] = [0.0, -0.0, 0.0, -0.0]  # moves in its bits only
        cases = [("duplicates", line), ("one key, two bit patterns", near),
                 ("+-0.0 mix", signed), ("+-0.0 only", zeros), ("single row", line[:1].copy())]
        for bad in (np.nan, np.inf):
            x = line.copy()
            x[::7, 2] = bad
            cases.append((f"{bad} in the moving column", x))
        for name, pts in cases:
            yield name, pts
            yield f"{name}, one column", np.ascontiguousarray(pts[:, 2:])
        yield "one column, strided", line.copy()[:, 2:]
        yield "one column, transposed view", np.ascontiguousarray(line[:, 2:].T).T
        for bad in (np.nan, np.inf):
            x = line.copy()
            x[::7, 0] = bad
            yield f"{bad} in a fixed column", x
        imag = 1.5 + 0.5j + np.zeros((m, 2), dtype=complex)
        imag[:, 1] = 3.0 + 1j * line[:, 2]
        yield "realified, imaginary part moves", _realify(imag, "complex")
        real = imag.copy()
        real[:, 1] = line[:, 2] + 3.0j
        yield "realified, real part moves", _realify(real, "complex")
        yield "transposed view", np.ascontiguousarray(line.T).T
        yield "transposed realified view", np.ascontiguousarray(_realify(imag, "complex").T).T

    def test_one_moving_column_against_oracle(self, monkeypatch):
        # the rows a single moving column gives are the oracle's, byte for
        # byte: a one-column cloud's least value of each key, any other
        # cloud's first row of each key.  A one-column cloud sorts its values
        # alone and runs no lexsort, and a cloud of two or more columns is
        # lexsorted.  _dedup may write its result into a one-column cloud's
        # buffer, so the second pass takes fresh cases
        results = {}
        for name, pts in self._one_column_cases():
            want = _oracle(np.ascontiguousarray(pts), 1e-9)
            got = _dedup(pts, 1e-9)
            assert got.dtype == pts.dtype and got.shape == want.shape, name
            assert _bytes(got) == _bytes(want), name
            assert got.flags.f_contiguous, name  # the gather path's layout
            results[name] = got

        def no_lexsort(keys):
            raise AssertionError("lexsort called")

        monkeypatch.setattr(np, "lexsort", no_lexsort)
        for name, pts in self._one_column_cases():
            if pts.shape[1] == 1:
                assert _bytes(_dedup(pts, 1e-9)) == _bytes(results[name]), name
            else:
                with pytest.raises(AssertionError, match="lexsort called"):
                    _dedup(pts, 1e-9)

    def test_long_line_compacts_in_slices(self, monkeypatch):
        # a line of several slices of 2^16 values, whose sorted values repeat
        # across a slice boundary, next to one, and at random, is compacted in
        # its own buffer to the oracle's rows and runs no lexsort; the first
        # case repeats one value alone, at positions 2^16 - 1 and 2^16
        rng = np.random.default_rng(9)
        step = 2**16
        base = np.arange(3 * step + 5) * 0.25
        lexsort = np.lexsort

        def no_lexsort(keys):
            raise AssertionError("lexsort called")

        for repeated in ([step - 1], [step - 1, step, 2 * step + 3], rng.integers(0, base.size, 5000)):
            x = rng.permutation(np.concatenate([base, base[repeated]]))[:, None]
            want = _line_dedup_oracle(x, 1e-9)
            monkeypatch.setattr(np, "lexsort", no_lexsort)
            got = _dedup(x, 1e-9)
            monkeypatch.setattr(np, "lexsort", lexsort)
            assert _bytes(got) == _bytes(want) and np.shares_memory(got, x)

    def test_long_line_with_shared_keys(self):
        # a line of several slices of 2^16 values whose keys hold two bit
        # patterns (a value and the float after it, 0.0 and -0.0), each of
        # them in more than one slice, keeps the least value of each key and
        # a zero as +0.0, as the oracle does
        rng = np.random.default_rng(10)
        step = 2**16
        base = np.arange(-step, 2 * step + 5) * 0.25
        for shared in (rng.integers(0, base.size, 3), rng.integers(0, base.size, 5000)):
            twins = np.nextafter(base[shared], np.inf)
            x = rng.permutation(np.concatenate([base, base[shared], twins, twins, [-0.0] * 3]))[:, None]
            want = _line_dedup_oracle(x, 1e-9)
            got = _dedup(x, 1e-9)
            assert _bytes(got) == _bytes(want)
            # no twin is the least of its key, and the one zero is +0.0
            assert not np.isin(got, twins).any() and np.isin(base[shared], got).all()
            assert not np.signbit(got[got == 0.0]).any() and (got == 0.0).sum() == 1

    def test_result_reuses_a_transposed_box(self):
        # a transposed view whose rows mostly survive receives the result in
        # its own buffer, with the bits and layout of a fresh array; a result
        # of fewer than half the rows is its own array
        rng = np.random.default_rng(8)
        for m, width in itertools.product((5, 8, 500), (3, 6)):  # 6: a realified 3-space
            for distinct in (True, False):
                box = np.empty((width, m))
                box[:-1] = rng.normal(size=(width - 1, 1))
                box[-1] = (rng.permutation(m) if distinct else np.arange(m) % 2) * 0.25
                want = _dedup(np.ascontiguousarray(box.T), 1e-9)
                got = _dedup(box.T, 1e-9)
                assert got.flags.f_contiguous and got.shape == want.shape
                assert _bytes(got) == _bytes(want)
                assert np.shares_memory(got, box) == (2 * got.shape[0] >= m)


class TestLeastOfEachKey:
    """A line keeps the least value of each key, a zero as +0.0, read from its
    sorted values alone: its rows are the one-column oracle's, byte for byte,
    and its box is formed once."""

    @staticmethod
    def _record(monkeypatch, name, signed_zeros=False):
        """Copies of every coords array dynamics.<name> returns; with
        signed_zeros, every other 0.0 of the first column is made -0.0 first."""
        formed = []
        inner = getattr(dynamics, name)

        def recorded(*args):
            coords, clipped = inner(*args)
            if signed_zeros:
                col = coords[:, 0]
                col[np.flatnonzero(col == 0)[::2]] = -0.0
            formed.append(coords.copy())
            return coords, clipped

        monkeypatch.setattr(dynamics, name, recorded)
        return formed

    def _check(self, cloud, formed):
        assert len(formed) == 1 and cloud.coords.shape[1] == 1
        assert _bytes(cloud.coords) == _bytes(_line_dedup_oracle(formed[0], CFG.dedup_eps))

    @pytest.mark.parametrize("K", [8, 16, 32])
    def test_two_values_in_one_cell(self, monkeypatch, K):
        # shear4's closed point has two values within one dedup_eps cell
        G, points = fixture_by_name("shear4")
        formed = self._record(monkeypatch, "_box")
        self._check(enumerate_orbit(G, points["closed"], K, CFG), formed)

    @pytest.mark.parametrize("name, point", [("shear3", "closed"), ("shear4", "dense_line")])
    def test_distinct_keys_form_the_box_once(self, monkeypatch, name, point):
        G, points = fixture_by_name(name)
        formed = self._record(monkeypatch, "_box")
        self._check(enumerate_orbit(G, points[point], 32, CFG), formed)

    def test_signed_zeros(self, monkeypatch):
        # a line whose zero key holds 0.0, -0.0 and a positive value gives
        # the same bytes in every order of its rows, with +0.0 kept
        rng = np.random.default_rng(12)
        x = np.array([0.0, -0.0, 4e-10, 1.0, 0.0, -0.0, 2.0, -0.0, 1.0 + 2**-52])
        want = _line_dedup_oracle(x[:, None], 1e-9)
        assert _bytes(want) == _bytes(np.array([0.0, 1.0, 2.0]))
        for _ in range(300):
            assert _bytes(_dedup(rng.permutation(x)[:, None], 1e-9)) == _bytes(want)
        # so does a staged product whose zeros come with both signs, as BLAS
        # may give them
        G, points = fixture_by_name("shear3")
        formed = self._record(monkeypatch, "_box", signed_zeros=True)
        cloud = enumerate_orbit(G, points["closed"], 8, CFG)
        self._check(cloud, formed)
        signs = np.signbit(formed[0][formed[0] == 0])
        assert signs.any() and not signs.all()
        zero = cloud.coords[cloud.coords == 0]
        assert zero.size == 1 and not np.signbit(zero).any()

    def test_line_sorts_inside_its_box(self):
        # the values are sorted and compacted in the box's own buffer: at K =
        # 1000, where the staged product's 2 MB matmul slices are small
        # beside the 32 MB box, the traced peak stays within 1.2 boxes
        G, points = fixture_by_name("shear4")
        K = 1000
        tracemalloc.start()
        try:
            cloud = enumerate_orbit(G, points["closed"], K, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cloud.count == 4 * K + 1
        assert peak <= 1.2 * (2 * K + 1) ** 2 * 8

    def test_streamed_window(self, monkeypatch):
        # a streamed line is deduplicated in its window's buffer: no copy of
        # the window is taken, and no lexsort runs
        class Watched(np.ndarray):
            copies = 0

            def copy(self, *args, **kwargs):
                Watched.copies += 1
                return super().copy(*args, **kwargs)

        G, points = fixture_by_name("shear4")
        formed = []
        stream = dynamics._stream_window

        def watched(*args):
            coords, clipped = stream(*args)
            formed.append(coords.copy())
            return coords.view(Watched), clipped

        def no_lexsort(keys):
            raise AssertionError("lexsort called")

        monkeypatch.setattr(dynamics, "_stream_window", watched)
        monkeypatch.setattr(np, "lexsort", no_lexsort)
        cloud = enumerate_orbit(G, points["closed"], 8, CFG._replace(max_store=16))
        assert cloud.subsampled and Watched.copies == 0
        self._check(cloud, formed)


def _shear_cases():
    """Seeded commuting shears of the last one or two rows: (name, G, u, K, rows moved).

    Rational and radical rates, real and complex fields, and g = 1, 2 and 3
    generators each appear in every combination, twice.
    """
    rng = random.Random(41)
    # rates within 1 in |re| + |im|, on which np.linalg.inv does not pivot
    rates = {"rational": ["1/3", "-1", "3/7", "-5/8"],
             "radical": ["sqrt(2)/2", "-sqrt(3)/5", "(sqrt(5)-1)/2"]}
    imag = {"rational": ["i/3", "1/2-i/2"], "radical": ["i*sqrt(2)/3", "(sqrt(3)+i)/4"]}
    starts = ["0", "1", "-2/3", "sqrt(2)", "1/3+sqrt(3)"]
    for trial in range(24):
        kind = ("rational", "radical")[trial % 4 // 2]
        field = ("real", "complex")[trial % 2]
        g = 1 + trial % 3
        n = rng.randint(2, 5)
        moved = 2 if n > 2 and trial % 5 == 0 else 1
        choices = rates[kind] + (imag[kind] if field == "complex" else [])
        gens = []
        for _ in range(g):
            rows = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
            for i in range(n - moved, n):
                for j in range(n - moved):
                    rows[i][j] = rng.choice(choices)
            gens.append(rows)
        # complex starts with both parts nonzero (test_complex_zero_part_is_formed
        # has zero parts)
        point = ["1+i", "-2/3+i/2", "sqrt(2)-i"] if field == "complex" else starts
        u = as_vector([rng.choice(point) for _ in range(n)])
        K = {1: 400, 2: 150, 3: 12}[g]
        yield f"{trial}:{field},{kind},g={g},n={n}", group_from_strings(field, gens), u, K, moved


def _exact_box(G, u, K):
    """Every tuple's point g^k u, k in [-K, K]^g, formed in Scalars."""
    points = [tuple(u)]
    for g in G.generators:
        steps = (g, g.inverse())
        out = []
        for v in points:
            walks = []
            for step in steps:
                walk, w = [], v
                for _ in range(K):
                    w = step.matvec(w)
                    walk.append(w)
                walks.append(walk)
            out += walks[1][::-1] + [v] + walks[0]
        points = out
    return points


def _realified_float(v):
    """The realified float64 point of an exact one, (Re, Im) pairs; inf beyond the float range."""
    def part(x):
        try:
            return x.to_complex()
        except OverflowError:
            return complex(math.inf, math.inf)
    return [t for c in v for z in (part(c),) for t in (z.real, z.imag)]


def _oracle_cases():
    """(name, G, u, K, cfg) with boxes small enough to form every point exactly."""
    for name, G, u, K, _ in _shear_cases():
        yield name, G, u, min(K, {1: 8, 2: 8, 3: 4}[len(G.generators)]), CFG
    for name in sorted(POINT_DIGESTS):
        G, u, _, cfg = _digest_case(name)
        K = 4 if len(G.generators) == 3 else 8
        yield name + "@materialized", G, u, K, cfg
        # fewer tuples than the box holds: the box is streamed
        yield name + "@streamed", G, u, K, cfg._replace(max_store=(2 * K + 1) ** 2 - 1)


class TestExactOracle:
    """Every stored point lies within a rounding bound of a point of the box formed exactly in
    Scalars, and every exact point of the box (of its window, when streamed) within it of a
    stored point.  The bound is 2^-40 (1 + the largest |coordinate| of the exact points kept)."""

    def _check(self, name, G, u, K, cfg):
        cloud = enumerate_orbit(G, u, K, cfg)
        exact = _exact_box(G, u, K)
        width = 2 * G.dimension if G.field == "complex" else G.dimension
        pts = np.array([_realified_float(v) for v in exact]).reshape(-1, 2 * G.dimension)
        if G.field != "complex":
            pts = pts[:, 0::2]
        assert pts.shape[1] == width == cloud.points.shape[1], name
        big = np.abs(pts).max(axis=1)
        kept = pts[big <= cfg.overflow_limit]
        assert cloud.clipped == bool((big > cfg.overflow_limit).any()), name
        tol = 2.0**-40 * (1 + np.abs(kept).max(initial=0.0))
        got = cloud.points
        assert np.isfinite(got).all(), name
        if kept.shape[0] == 0:
            assert cloud.count == 0, name
            return cloud
        assert cKDTree(kept).query(got)[0].max(initial=0.0) <= tol, name
        want = kept
        if cloud.subsampled:
            base, V = cloud.hull.base, cloud.hull.V
            window = np.abs((kept - base) @ V).max(axis=1, initial=0.0)
            want = kept[window <= 1.5 * cfg.window - tol]
            assert cKDTree(kept[window <= 1.5 * cfg.window + tol]).query(got)[0].max(initial=0.0) <= tol
        else:
            # one stored point per distinct point, when no two lie within 1e-6
            distinct = np.unique(kept, axis=0)
            if distinct.shape[0] < 2 or cKDTree(distinct).query(distinct, k=2)[0][:, 1].min() > 1e-6:
                assert cloud.count == distinct.shape[0], name
        if want.shape[0]:
            assert cKDTree(got).query(want)[0].max() <= tol, name
        return cloud

    def test_seeded_shears_against_oracle(self):
        seen = set()
        for name, G, u, K, cfg in _oracle_cases():
            cloud = self._check(name, G, u, K, cfg)
            # one hull coordinate per direction of W: every shear moves at most two
            # (realified: four) coordinates
            assert cloud.coords.shape[1] == cloud.hull.V.shape[1], name
            seen.add((G.field, len(G.generators), cloud.subsampled))
        assert {s[0] for s in seen} == {"real", "complex"}
        assert {s[1] for s in seen} == {1, 2, 3} and {s[2] for s in seen} == {False, True}

    def test_nonfinite_points_are_dropped(self):
        # the first generator's powers overflow, from 1e200^2 on, and its
        # inverse powers underflow: the points with a non-finite coordinate
        # are dropped and the box is clipped
        G = group_from_strings("real", [
            [["1" + "0" * 200, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            [["1", "0", "0"], ["0", "1", "0"], ["1", "sqrt(2)", "1"]]])
        for u in (as_vector(["1", "2", "1/2"]), as_vector(["0", "2", "1/2"])):
            for cfg in (CFG, CFG._replace(max_store=100)):
                cloud = self._check("blow-up", G, u, 6, cfg)
                assert cloud.clipped == (not u[0].is_zero())
                assert cloud.count > (0 if cloud.subsampled else 1)

    def test_unmoved_value_above_the_limit(self):
        shears = [[["1", "0", "0"], ["0", "1", "0"], ["1", "sqrt(2)/2", "1"]],
                  [["1", "0", "0"], ["0", "1", "0"], ["1/2", "1", "1"]]]
        G = group_from_strings("real", shears)
        # every point holds 1e120 > 1e100 at coordinate 0: all are clipped
        cloud = self._check("above", G, as_vector(["1" + "0" * 120, "1", "1/2"]), 20, CFG)
        assert cloud.clipped and cloud.count == 0
        # values of 1e50 and 1e59 below a limit of 1e60, which the last
        # coordinate, about (k1 + k2) 1e59, passes at |k1 + k2| > 10
        cfg = ClosureConfig(overflow_limit=1e60)
        cloud = self._check("below", G, as_vector(["1" + "0" * 50, "1" + "0" * 59, "0"]), 20, cfg)
        assert cloud.clipped and 0 < cloud.count < 41**2

    def test_identity_generators_give_one_point(self):
        # identity generators fix every point: a 0-dimensional hull, whose one
        # point is u
        for field, n, u in (("real", 2, ["1", "-5/2"]), ("complex", 2, ["1+2*i", "1/2-i"])):
            eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
            for g in (1, 2):
                G = group_from_strings(field, [eye] * g, [f"g{k}" for k in range(g)])
                cloud = self._check(f"{field} identity", G, as_vector(u), 5, CFG)
                assert cloud.count == 1 and cloud.coords.shape == (1, 0)
                assert cloud.points.tolist() == [cloud.hull.base.tolist()]


class TestUnmovedCoordinates:
    """A coordinate that G does not move holds u's value at every point, bit for bit."""

    def _cases(self):
        rng = random.Random(42)
        # 5 x 5 two-row shears with rates -2 and 5/2, on which a pivoting
        # float inverse would leave rounding in the unmoved rows
        for trial in range(6):
            g = 1 + trial % 3
            gens = []
            for _ in range(g):
                rows = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
                for i in (3, 4):
                    for j in range(3):
                        rows[i][j] = rng.choice(["-2", "5/2"])
                gens.append(rows)
            u = as_vector([rng.choice(["1", "-2/3", "sqrt(2)", "1/3+sqrt(3)"]) for _ in range(5)])
            yield f"two-row {trial}", group_from_strings("real", gens), u, {1: 400, 2: 60, 3: 12}[g], 3
        # a last row [1e9, 1, 1]
        G = group_from_strings("real", [[["1", "0", "0"], ["0", "1", "0"], ["1", "sqrt(2)/2", "1"]],
                                        [["1", "0", "0"], ["0", "1", "0"], ["1000000000", "1", "1"]]])
        yield "last row 1e9", G, as_vector(["1", "2", "1/2"]), 20, 2

    def test_points_hold_u_where_the_shear_does_not_move(self):
        for name, G, u, K, unmoved in self._cases():
            for cfg in (CFG, CFG._replace(max_store=100)):
                cloud = enumerate_orbit(G, u, K, cfg)
                want = np.array([c.to_complex().real for c in u[:unmoved]])
                assert cloud.count > (0 if cloud.subsampled else 1), name
                assert (cloud.points[:, :unmoved] == want).all(), name


def _axes_cloud(points):
    """A hand-built cloud of `points` (m, n): its hull is spanned by the axes along which
    they move, with its origin, and u, at 0 there, so its hull coordinates and frame
    coordinates are the points' moving columns.  A cloud on a line takes its rows in
    ascending order, as OrbitCloud requires."""
    moving = np.flatnonzero((points != points[0]).any(axis=0))
    if moving.size == 1:
        points = points[np.argsort(points[:, moving[0]], kind="stable")]
    axes = np.eye(points.shape[1])[:, moving]
    origin = points[0].copy()
    origin[moving] = 0.0
    hull = Hull(origin, axes, origin, axes, np.zeros(moving.size), [])
    return OrbitCloud(np.ascontiguousarray(points[:, moving]), points.shape[0], hull)


class TestClassify:
    def test_discrete_line(self):
        cloud = enumerate_orbit(shear3(), as_vector([1, 1, 0]), 100, CFG)
        v = classify_closure(cloud, CFG)
        assert v.kind == DISCRETE
        assert v.min_distance == pytest.approx(1.0)

    def test_dense_line_with_sort_oracle(self):
        u = as_vector(["1", "sqrt(2)", "0"])
        cloud = enumerate_orbit(shear3(), u, 1000, CFG)
        v = classify_closure(cloud, CFG)
        assert v.kind == DENSE_IN_AFFINE and v.hull_dim == 1
        assert v.gap < 0.01
        # independent oracle: sort the values n + m*sqrt(2) directly
        r = np.arange(-1000, 1001)
        g1, g2 = np.meshgrid(r, r, indexing="ij")
        vals = (g1 + g2 * math.sqrt(2)).ravel()
        win = np.sort(vals[np.abs(vals) <= 1.0])
        oracle_gap = float(np.diff(np.concatenate([[-1.0], win, [1.0]])).max())
        assert oracle_gap < 0.01
        assert v.gap == pytest.approx(oracle_gap, rel=1e-6)

    def test_verdict_invariant_under_group_shift(self):
        G = shear3()
        u = as_vector(["1", "sqrt(2)", "0"])
        shifted = G.word((1, 1)).matvec(u)
        v1 = classify_closure(enumerate_orbit(G, u, 512, CFG), CFG)
        v2 = classify_closure(enumerate_orbit(G, shifted, 512, CFG), CFG)
        assert v1.kind == v2.kind == DENSE_IN_AFFINE
        assert v1.hull_dim == v2.hull_dim

    def test_hull_dim_agreement_within_orbit(self):
        # sampled points of the orbit lying in U span the same hull
        G = shear3()
        fam = invariant_family(G, CTX)
        u = as_vector(["1", "sqrt(2)", "0"])
        base_v = classify_closure(enumerate_orbit(G, u, 256, CFG), CFG)
        from lindyn.invariants import membership

        for word in [(1, 0), (0, 1), (2, -1)]:
            v = G.word(word).matvec(u)
            assert membership(fam, v, CTX).in_U
            vv = classify_closure(enumerate_orbit(G, v, 256, CFG), CFG)
            assert vv.hull_dim == base_v.hull_dim

    def test_empty_cloud_is_inconclusive(self):
        empty = np.zeros((2, 0))
        cloud = OrbitCloud(np.zeros((0, 0)), 0, Hull(np.zeros(2), empty, np.zeros(2), empty, np.zeros(0), []))
        v = classify_closure(cloud, CFG)
        assert (v.kind, v.hull_dim, v.notes) == (INCONCLUSIVE, 0, ["empty cloud"])

    def test_same_signature_of_missing_and_infinite_separations(self):
        def discrete(dist):
            return ClosureVerdict(DISCRETE, 0, min_distance=dist)

        assert _same_signature(discrete(math.inf), discrete(math.inf))
        for a, b in [(math.inf, 1.0), (1.0, math.inf)]:
            assert not _same_signature(discrete(a), discrete(b)), (a, b)

    def test_stabilized_early_stop(self):
        verdict, K = classify_stabilized(shear3(), as_vector([1, 1, 0]), CFG, max_exponent=256)
        assert verdict.kind == DISCRETE
        assert K <= 64  # stabilizes long before the cap

    @pytest.mark.parametrize("window", [1.0, 3.0, 10.0])
    def test_filled_cells_against_set_oracle(self, window):
        # the materialized cshear5 dense plane at K=24, past the separation
        # check; the wider windows leave some of their cells empty
        G, u, K, cfg = _digest_case("cshear5_plane_K24_streamed")
        cfg = cfg._replace(max_store=10**7, discrete_count_limit=0, window=window)
        cloud = enumerate_orbit(G, u, K, cfg)
        verdict = classify_closure(cloud, cfg)
        base, V = cloud.hull.base, cloud.hull.V
        proj = cloud.points @ V - base @ V
        cells = int(round(2 * window / 0.25))
        pw = proj[np.all(np.abs(proj) <= window, axis=1)]
        idx = np.clip(((pw + window) / (2 * window) * cells).astype(int), 0, cells - 1)
        empty = cells**2 - len({tuple(row) for row in idx})
        assert verdict.hull_dim == proj.shape[1] == 2
        if empty == 0:
            assert window == 1.0 and verdict.kind == DENSE_IN_AFFINE
        else:
            assert verdict.kind == INCONCLUSIVE
            assert f"{empty}/{cells**2} window cells empty at resolution 0.25" in verdict.notes

    def test_dense_complex_similarity_pair(self):
        # two commuting similarities of C with dense joint orbit; moduli are
        # kept near 1 so the window fills at desk-scale exponents
        G = group_from_strings("complex", [[["51/50*(3+4*i)/5"]], [["49/50*(5+12*i)/13"]]])
        cloud = enumerate_orbit(G, as_vector(["1"]), 128, CFG)
        verdict = classify_closure(cloud, CFG)
        assert verdict.kind == DENSE_IN_AFFINE and verdict.hull_dim == 2

    def test_one_coordinate_min_distance_is_the_trees(self, monkeypatch):
        # duplicated and two-row clouds spanning 1e-8 to 1e3 that move in one
        # realified coordinate, drawn in any order and stored ascending: the
        # gaps between consecutive rows give the k-d tree's answer bit for
        # bit, and no tree is built for them.  A floor below every nonzero
        # separation makes each cloud without duplicates DISCRETE; a cloud
        # with duplicates, whose tree minimum is 0, is not, and so carries none
        cfg = CFG._replace(gap_threshold=1e-300, dedup_eps=1e-303)
        rng = np.random.default_rng(11)
        clouds = []
        for trial in range(24):
            m = 2 if trial % 6 == 0 else int(rng.integers(3, 300))
            vals = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-8, 3, m)
            if trial % 3 == 1:
                vals[: m // 3] = vals[-(m // 3):]  # duplicate rows
            if trial % 2:
                pts = np.empty((m, 3))
                pts[:, :2] = [1.0, np.sqrt(2.0)]
                pts[:, 2] = vals
            else:  # a realified complex cloud
                pts = np.full((m, 2), 1.0 - 2.0j)
                if trial % 4:
                    pts[:, 1] += 1j * vals
                else:
                    pts[:, 0] = vals + pts[:, 0].imag * 1j
                pts = _realify(pts, "complex")
            clouds.append(_axes_cloud(pts))
        wants = []
        for cloud in clouds:
            wants.append(cKDTree(cloud.points).query(cloud.points, k=2)[0][:, 1].min())

        def no_tree(data):
            raise AssertionError("k-d tree built")

        monkeypatch.setattr("scipy.spatial.cKDTree", no_tree)
        for cloud, want in zip(clouds, wants):
            got = classify_closure(cloud, cfg).min_distance
            assert got is None if want == 0 else float(got).hex() == float(want).hex()

    def test_two_coordinate_min_distance_is_the_trees(self):
        rng = np.random.default_rng(12)
        pts = np.empty((200, 3))
        pts[:, 0] = 1.0
        pts[:, 1:] = rng.uniform(-100, 100, (200, 2))
        cloud = _axes_cloud(pts)
        want = cKDTree(pts).query(pts, k=2)[0][:, 1].min()
        assert float(classify_closure(cloud, CFG).min_distance).hex() == float(want).hex()

    def test_classification_assembles_no_points(self, monkeypatch):
        # a cloud is classified in its frame coordinates V^T B (c - c_u), formed
        # from its hull coordinates: no point is assembled, and the verdicts
        # are those of the assembled points' projection (x - u) V
        def assembled(hull, coords):
            return (hull.origin + coords @ hull.B.T - hull.base) @ hull.V

        def not_assembled(cloud):
            raise AssertionError("points assembled")

        loose = CFG._replace(discrete_count_limit=0)  # every cloud is projected
        kinds = set()
        for name in ("shear3", "shear4", "radical4", "cshear5"):
            G, points = fixture_by_name(name)
            for point, u in sorted(points.items()):
                for K, cfg in itertools.product((8, 64), (CFG, loose, loose._replace(window=2.5))):
                    cloud = enumerate_orbit(G, u, K, cfg)
                    with monkeypatch.context() as m:
                        m.setattr(OrbitCloud, "points", property(not_assembled))
                        got = classify_closure(cloud, cfg)
                    with monkeypatch.context() as m:
                        m.setattr(Hull, "frame_coordinates", assembled)
                        want = classify_closure(cloud, cfg)
                    assert (got.kind, got.hull_dim, got.notes) == (want.kind, want.hull_dim, want.notes)
                    for x, y in ((got.gap, want.gap), (got.min_distance, want.min_distance)):
                        assert (x is None) == (y is None) and (x is None or x == pytest.approx(y, rel=1e-12))
                    kinds.add(got.kind)
        assert kinds == {DISCRETE, DENSE_IN_AFFINE, INCONCLUSIVE}

    def test_dense_line_peaks_below_an_assembled_cloud(self):
        # only the moving coordinate of the shear4 dense line is formed,
        # deduplicated and projected: enumeration and classification together
        # peak below the m n 8 bytes that its assembled points would take
        G, points = fixture_by_name("shear4")
        K = 300
        tracemalloc.start()
        try:
            cloud = enumerate_orbit(G, points["dense_line"], K, CFG)
            verdict = classify_closure(cloud, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.kind == DENSE_IN_AFFINE and cloud.count == (2 * K + 1) ** 2
        assert peak < cloud.count * G.dimension * 8

    @pytest.mark.parametrize("name", ["shear3", "shear4"])
    def test_dense_line_box_is_not_allocated_twice(self, name):
        # a materialized box that moves in one coordinate is deduplicated
        # inside its own buffer: the traced peak of enumeration stays within
        # the staged product and three columns of it
        G, points = fixture_by_name(name)
        K = 300
        tracemalloc.start()
        try:
            cloud = enumerate_orbit(G, points["dense_line"], K, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tuples = (2 * K + 1) ** len(G.generators)
        assert cloud.count == tuples and cloud.points.dtype == np.float64
        assert peak <= (G.dimension + 3) * tuples * 8

    def test_dense_line_sorts_inside_its_box(self):
        # at the documented K = 1000 the line's box is 32 MB, and its values
        # are sorted and deduplicated in that buffer: the traced peak of
        # enumeration stays within 1.2 times the box's bytes
        G, points = fixture_by_name("shear4")
        K = 1000
        tracemalloc.start()
        try:
            cloud = enumerate_orbit(G, points["dense_line"], K, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tuples = (2 * K + 1) ** len(G.generators)
        assert cloud.count == tuples and cloud.coords.shape[1] == 1
        assert peak <= 1.2 * tuples * 8

    def test_dense_plane_box_is_not_allocated_twice(self):
        # a box in several hull coordinates goes through the lexsort, whose
        # gather also writes into the box when most rows survive: the rows
        # live in the box's own buffer, the traced peak stays within the
        # staged product and six int64-wide work arrays of the lexsort (a
        # second box would add d more), and the rows are the all-column
        # oracle's, which gathers the same rows in the same order
        G, points = fixture_by_name("cshear5")
        K = 32
        tracemalloc.start()
        try:
            cloud = enumerate_orbit(G, points["dense_plane"], K, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tuples = (2 * K + 1) ** len(G.generators)
        d = cloud.coords.shape[1]
        staged = tuples * d * cloud.coords.dtype.itemsize
        assert cloud.points.dtype == np.float64 and 2 * cloud.count >= tuples
        buffer = cloud.coords
        while buffer.base is not None:
            buffer = buffer.base
        assert buffer.nbytes == staged
        assert peak <= tuples * 8 * (d + 6)
        hull = cloud.hull
        box = dynamics._staged_columns([powers(K) for powers in hull.maps], hull.start[:, None])
        assert _bytes(cloud.coords) == _bytes(_dedup_oracle(np.ascontiguousarray(box.T), CFG.dedup_eps))

    # (kind, hull dimension, final K, min_distance, gap) of every fixture
    # point, recorded when every cloud's separation came from a k-d tree.
    # The radical4 gaps were re-recorded when the orbits moved to hull
    # coordinates, whose offsets k t are rounded once: they lie within 7e-13
    # of the exact gap, and the earlier ones within 2.2e-12
    FIXTURE_VERDICTS = {
        ("shear3", "closed"): ("DISCRETE", 1, 32, "0x1.0000000000000p+0", None),
        ("shear3", "dense_line"): ("DENSE_IN_AFFINE", 1, 256, None, "0x1.4aff935a61000p-8"),
        ("shear3", "hyperplane"): ("DISCRETE", 1, 32, "0x1.0000000000000p+0", None),
        ("shear4", "closed"): ("DISCRETE", 1, 32, "0x1.fffffffffffe0p-1", None),
        ("shear4", "dense_line"): ("DENSE_IN_AFFINE", 1, 256, None, "0x1.4aff935a61000p-8"),
        ("radical4", "base"): ("DENSE_IN_AFFINE", 1, 256, None, "0x1.4aff935a61000p-8"),
        ("radical4", "limit"): ("DENSE_IN_AFFINE", 1, 256, None, "0x1.4aff935a62000p-8"),
        ("cshear5", "closed"): ("DISCRETE", 2, 32, "0x1.0000000000000p+0", None),
        ("cshear5", "dense_plane"): ("DENSE_IN_AFFINE", 2, 128, None, "0x1.6a09e667f3bcdp-2"),
    }

    @pytest.mark.parametrize("name,point", sorted(FIXTURE_VERDICTS))
    def test_fixture_verdicts(self, name, point):
        G, points = fixture_by_name(name)
        v, K = classify_stabilized(G, points[point], CFG)
        hexed = [None if x is None else float(x).hex() for x in (v.min_distance, v.gap)]
        assert (v.kind, v.hull_dim, K, *hexed) == self.FIXTURE_VERDICTS[name, point]


def _line_oracle(cloud, cfg):
    """A line's verdict from its whole cloud: every row projected, then masked to the
    window and sorted, and the nearest pair from a lexsort of the rows; only DISCRETE
    carries it."""
    hull = cloud.hull
    notes = []
    if cloud.clipped:
        notes.append("overflow-clipped points were dropped")
    if cloud.subsampled:
        notes.append("large box streamed: stored points are window-complete")
    if not cloud.subsampled and cloud.count > cfg.discrete_count_limit:
        notes.append("point count above discrete-check limit")
    elif not cloud.subsampled:
        g = ((hull.V.T @ hull.B) @ cloud.coords.T).T[:, 0]
        order = np.lexsort([g])
        min_dist = math.sqrt(np.square(g[order][1:] - g[order][:-1]).min()) if g.size > 1 else math.inf
        if min_dist >= max(dynamics.MIN_DIST_FACTOR * cfg.dedup_eps, cfg.gap_threshold):
            return ClosureVerdict(DISCRETE, 1, min_distance=min_dist, notes=notes)
    W = cfg.window
    c = hull.frame_coordinates(cloud.coords)[:, 0]
    inside = np.sort(c[(c >= -W) & (c <= W)])
    if c.min() > -W or c.max() < W or inside.size < 2:
        return ClosureVerdict(INCONCLUSIVE, 1,
                              notes=notes + ["sampled range does not cover the window"])
    gap = float(np.diff(np.concatenate([[-W], inside, [W]])).max())
    if gap <= cfg.gap_threshold:
        return ClosureVerdict(DENSE_IN_AFFINE, 1, gap=gap, notes=notes)
    return ClosureVerdict(INCONCLUSIVE, 1, gap=gap,
                          notes=notes + [f"max window gap {gap:.4g} above threshold"])


class TestLineOracle:
    """classify_closure on a line, which reads its ascending rows, against _line_oracle."""

    LIMIT = 40  # a small discrete_count_limit

    def _same(self, cloud, cfg):
        got, want = classify_closure(cloud, cfg), _line_oracle(cloud, cfg)
        assert (got.kind, got.hull_dim, got.notes) == (want.kind, want.hull_dim, want.notes)
        for x, y in ((got.gap, want.gap), (got.min_distance, want.min_distance)):
            assert (x is None) == (y is None) and (x is None or float(x).hex() == float(y).hex())
        return got.kind

    def _hull(self, rng, sign, unit):
        """A seeded line hull whose a = V^T B has the given sign; a = +-1 when unit,
        so a cloud on the grid of eighths meets +-W exactly."""
        n = int(rng.integers(1, 4))
        B = np.eye(n)[:, :1] if unit else rng.normal(size=(n, 1))
        V = sign * B / np.linalg.norm(B)
        start = np.zeros(1) if unit else rng.normal(size=1)
        return Hull(rng.normal(size=n), V, rng.normal(size=n), B, start, [])

    def _coords(self, rng, m, unit):
        """m ascending hull coordinates: distinct eighths, with 0.0 and -0.0 side by
        side, or sorted normal draws."""
        if unit:
            vals = np.sort(rng.choice(np.arange(-24, 25), m, replace=m > 49)) / 8.0
            vals[vals == 0.0] = rng.choice([0.0, -0.0], int((vals == 0.0).sum()))
        else:
            vals = np.sort(rng.normal(scale=rng.choice([0.5, 2.0]), size=m))
        return vals[:, None]

    def test_hand_built_lines(self):
        rng = np.random.default_rng(31)
        kinds = set()
        for trial in range(400):
            sign = (1.0, -1.0)[trial % 2]
            unit = trial % 4 < 2
            m = int(rng.choice([1, 2, 3, self.LIMIT - 1, self.LIMIT, self.LIMIT + 1, 120]))
            cloud = OrbitCloud(self._coords(rng, m, unit), m, self._hull(rng, sign, unit),
                               subsampled=trial % 5 == 4, clipped=trial % 7 == 6)
            # windows at the cloud's ends and past them, and grid values inside
            window = float(rng.choice([0.125, 0.5, 1.0, 2.0, 2.875, 3.0, 3.125, 10.0]))
            cfg = ClosureConfig(window=window, gap_threshold=float(rng.choice([0.01, 0.2, 0.5, 2.0])),
                                discrete_count_limit=self.LIMIT)
            kinds.add(self._same(cloud, cfg))
        assert kinds == {DISCRETE, DENSE_IN_AFFINE, INCONCLUSIVE}

    def test_enumerated_lines(self):
        # fixture lines, whose frames have a < 0, and a streamed dense line
        cases = [(shear3(), as_vector([1, 1, 0]), 40), (shear3(), as_vector(["1", "sqrt(2)", "0"]), 30),
                 (radical4(), fixture_by_name("radical4")[1]["base"], 64)]
        clouds = [(enumerate_orbit(G, u, K, CFG), CFG) for G, u, K in cases]
        G, u, K, cfg = _digest_case("shear3_dense_K300_streamed")
        clouds.append((enumerate_orbit(G, u, K, cfg), cfg))
        assert clouds[-1][0].subsampled
        for cloud, cfg in clouds:
            assert cloud.coords.shape[1] == 1
            assert (np.diff(cloud.coords[:, 0]) > 0).all()
            for window, limit in itertools.product((0.5, 1.0, 3.0, 40.0), (10, 10**6)):
                self._same(cloud, cfg._replace(window=window, discrete_count_limit=limit))


class TestOneHullPerSearch:
    """classify_stabilized computes the hull once and hands it to every later box."""

    def test_stabilized_computes_one_hull(self, monkeypatch):
        frames, boxes = [], []
        frame, enumerate_ = dynamics._frame, dynamics.enumerate_orbit

        def counted_frame(G, u):
            frames.append(1)
            return frame(G, u)

        def counted_enumerate(*args, **kwargs):
            boxes.append(args[2])
            return enumerate_(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_frame", counted_frame)
        # every box goes through the module attribute, where a tracer sees it
        monkeypatch.setattr(dynamics, "enumerate_orbit", counted_enumerate)
        for name, point in (("shear3", "closed"), ("cshear5", "dense_plane")):
            G, points = fixture_by_name(name)
            frames.clear()
            boxes.clear()
            verdict, K = classify_stabilized(G, points[point], CFG)
            assert frames == [1] and len(boxes) >= 3 and boxes[-1] == K, name

    @pytest.mark.parametrize("name", ["shear3_dense_K300", "shear3_dense_K300_streamed",
                                      "cshear5_plane_K24_streamed"])
    def test_given_hull_gives_the_same_cloud(self, name):
        G, u, K, cfg = _digest_case(name)
        for cfg in (cfg, cfg._replace(max_store=10**7)):  # streamed and materialized
            want = enumerate_orbit(G, u, K, cfg)
            got = enumerate_orbit(G, u, K, cfg, hull=dynamics._frame(G, tuple(u)))
            assert _bytes(got.coords) == _bytes(want.coords)
            assert (got.count, got.total_tuples, got.clipped, got.subsampled) == \
                (want.count, want.total_tuples, want.clipped, want.subsampled)


class TestNearestPair:
    """_nearest_pair against the k-d tree's k=2 query, as float.hex."""

    def _same(self, pts):
        got = _nearest_pair(list(pts.T))
        want = cKDTree(pts).query(pts, k=2)[0][:, 1].min()
        assert float(got).hex() == float(want).hex()

    def _moving(self, rng, d):
        """At least three moving columns of d = 5..12, in the blocks of four and past them."""
        picks = {int(rng.integers(4)), d - 1, *rng.choice(d, int(rng.integers(1, d)), replace=False)}
        return np.array(sorted(picks))

    def test_gaussian_and_lattice_clouds(self):
        rng = np.random.default_rng(21)
        for trial in range(80):
            d = int(rng.integers(5, 13))
            m = int(rng.integers(2, 400))
            cols = self._moving(rng, d)
            pts = np.tile(rng.normal(size=d), (m, 1))
            if trial % 2:
                pts[:, cols] = rng.normal(size=(m, cols.size)) * 10.0 ** rng.uniform(-3, 3)
            else:
                pts[:, cols] += rng.integers(-6, 7, (m, cols.size)) * rng.uniform(0.1, 3)
                pts = np.unique(pts, axis=0)
            if pts.shape[0] >= 2:
                self._same(pts)

    def test_two_far_clusters(self):
        rng = np.random.default_rng(22)
        for d in (5, 8, 11):
            cols = self._moving(rng, d)
            pts = np.zeros((300, d))
            pts[:, cols] = rng.normal(size=(300, cols.size))
            pts[:150, cols] += 1e6
            self._same(pts)

    def test_all_rows_in_one_cell(self):
        # about a thousand vertices of the unit 12-cube: no two lie closer
        # than the extent 1 of a column, so every row falls in one cell, and
        # its 10^6 candidate pairs are formed slice by slice
        bits = np.random.default_rng(23).integers(0, 2, (1200, 12))
        self._same(np.unique(bits, axis=0).astype(float))

    def test_wide_extent_fine_spacing(self):
        # clusters spread over 1e12 with a spacing of 1e-3: the raw cell
        # indices of three columns overflow an int64 key
        rng = np.random.default_rng(24)
        for d in (5, 7):
            centers = rng.uniform(-1e12, 1e12, (10, d))
            pts = centers[rng.integers(10, size=400)]
            pts[:, :3] += rng.integers(-5, 6, (400, 3)) * 1e-3
            pts[:, 3:] = 2.0
            self._same(np.unique(pts, axis=0))

    def test_signed_zeros(self):
        rng = np.random.default_rng(25)
        for d in (5, 6, 9):
            pts = np.ones((200, d))
            pts[:, 0] = rng.choice([0.0, -0.0], 200)  # moves in its bits only
            pts[:, 2:] = rng.choice([0.0, -0.0, 0.5, -1.0], (200, d - 2))
            self._same(np.unique(pts, axis=0))


class TestApproximateTarget:
    def test_sqrt3_reachable(self):
        ap = approximate_target([Scalar.sqrt_int(2), Scalar.one()], Scalar.sqrt_int(3), 10**4)
        assert ap.achieved < 1e-4
        assert ap.residuals == sorted(ap.residuals, reverse=True)

    def test_trivial(self):
        ap = approximate_target([Scalar.one()], Scalar.one(), 10)
        assert ap.tuples[-1] == (1,) and ap.achieved == 0.0

    def test_dependent_values_stall_honestly(self):
        ap = approximate_target([Scalar.one(), Scalar.from_int(2)], Scalar.sqrt_int(2))
        assert ap.achieved == pytest.approx(math.sqrt(2) - 1)

    def test_no_progress_when_demanded(self):
        with pytest.raises(NoProgress):
            approximate_target(
                [Scalar.one(), Scalar.from_int(2)], Scalar.sqrt_int(2), min_residual=1e-4
            )


class TestInverseRecurrence:
    def words(self):
        return approximate_target(
            [Scalar.sqrt_int(2), Scalar.one()], Scalar.sqrt_int(3), 10**4
        ).tuples

    def test_radical4_symbolic_oracle(self):
        G = radical4()
        fam = invariant_family(G, CTX)
        u = as_vector([1, 1, 0, 0])
        v = as_vector(["1", "1", "0", "sqrt(3)"])
        words = self.words()
        rep = inverse_recurrence_check(G, fam, u, v, words, CTX)
        assert rep.tends_to_zero and rep.tail_max < 1e-3
        # symbolic oracle: the only moving coordinate of B^-1 v is
        # sqrt(3) - (k sqrt(2) + s)
        for word, err in zip(words, rep.backward_errors):
            k, s = word
            expected = Scalar.sqrt_int(3) - (
                Scalar.sqrt_int(2) * Scalar.from_int(k) + Scalar.from_int(s)
            )
            assert err == pytest.approx(abs(expected.to_complex()), rel=1e-9)

    def test_constant_sequence(self):
        G = shear3()
        fam = invariant_family(G, CTX)
        u = as_vector([1, 1, 0])
        rep = inverse_recurrence_check(G, fam, u, u, [(0, 0)] * 4, CTX)
        assert rep.tail_max == 0.0 and rep.tends_to_zero

    def test_refuses_points_outside_U(self):
        G = shear3()
        fam = invariant_family(G, CTX)
        with pytest.raises(PointNotInU):
            inverse_recurrence_check(
                G, fam, as_vector([0, 1, 0]), as_vector([1, 1, 0]), [(0, 0)], CTX
            )

    def test_rejects_non_decreasing_forward_errors(self):
        G = radical4()
        fam = invariant_family(G, CTX)
        u = as_vector([1, 1, 0, 0])
        v = as_vector(["1", "1", "0", "sqrt(3)"])
        words = [(9, -11), (1, 0), (4, -4), (1, 0), (9, -11), (1, 0)]
        with pytest.raises(NotConvergent):
            inverse_recurrence_check(G, fam, u, v, words, CTX)

    def test_random_lastrow_sequences(self, rng):
        # convergent sequences over random triangular groups return home
        done = 0
        for _ in range(8):
            n = rng.randint(3, 5)
            G, base, values = random_lastrow_group(rng, n)
            if integer_relations(values):
                continue
            target = Scalar.sqrt_int(7) * Scalar.from_fraction(f"{rng.randint(1,3)}/2")
            try:
                ap = approximate_target(values, target, 10**4, min_residual=1e-4)
            except NoProgress:
                continue
            fam = invariant_family(G, CTX)
            v = list(base)
            v[-1] = base[-1] + target
            rep = inverse_recurrence_check(G, fam, base, tuple(v), ap.tuples, CTX)
            assert rep.tends_to_zero and rep.final_error < 1e-3
            done += 1
        assert done >= 4
