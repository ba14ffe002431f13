import math
import operator
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import (
    group_from_strings,
    random_commuting_family,
    random_integer_matrix,
    random_scalar,
    random_sform_family,
    mp_evaluate,
    mp_value,
)
import lindyn.spectral as spectral
from lindyn.errors import NoCommonEigenvector, NotAbelian, SpectrumNotCertified
from lindyn.groups import GeneratorSet
from lindyn.invariants import invariant_family
from lindyn.linalg import Matrix, rank, solve, squarefree_factors
from lindyn.numeric import NumericContext, _isqrt_fast, max_abs, polynomial_roots, pslq, to_numeric
from lindyn.scalars import Scalar, parse_scalar
from lindyn.spectral import (
    SpectralBlock,
    eigenvalues,
    pair_conjugates,
    re_im_columns,
    recognize_in_field,
    simultaneous_refinement,
    triangularize,
)

CTX = NumericContext()
CTX128 = NumericContext(precision=128)


def shear3_group():
    return group_from_strings(
        "real",
        [
            [["1", "0", "0"], ["0", "1", "0"], ["1", "0", "1"]],
            [["1", "0", "0"], ["0", "1", "0"], ["0", "1", "1"]],
        ],
        ["A", "B"],
    )


def rot_block_group():
    """rot(pi/2) + 2rot(pi/2) and 2rot(pi/2) + 3rot(pi/2) on R^4."""
    A = Matrix.from_rows(
        [["0", "-1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-2"], ["0", "0", "2", "0"]]
    )
    B = Matrix.from_rows(
        [["0", "-2", "0", "0"], ["2", "0", "0", "0"], ["0", "0", "0", "-3"], ["0", "0", "3", "0"]]
    )
    return GeneratorSet("real", 4, [A, B], ["A", "B"])


# g0 of benchmark/gen.py's jordan-real4-0 at seed 1: eigenvalues -i, i and a
# defective 1, whose double-precision eigenvalues scatter too far apart to be
# recognised
JORDAN_REAL4_G0 = [["-21", "12", "-6", "-38"], ["-7", "5", "-2", "-12"],
                   ["-7", "4", "-2", "-13"], ["11", "-6", "3", "20"]]


# the matrix of test_defective_block_is_proposed_again_at_context_precision:
# a 3x3 Jordan block at 1 beside the eigenvalue 2, conjugated by an integer
# unimodular matrix
LADDER_A0 = [["3", "4", "4", "4"], ["-14", "-118", "-54", "-84"],
             ["-18", "-145", "-66", "-103"], ["31", "262", "119", "186"]]


def record_calls(monkeypatch, *names) -> list[tuple]:
    """Wrap each named function of lindyn.spectral so that every call appends
    (name, *args) to the returned list, in call order."""
    calls = []
    for name in names:
        def recording(*args, _name=name, _original=getattr(spectral, name)):
            calls.append((_name, *args))
            return _original(*args)

        monkeypatch.setattr(spectral, name, recording)
    return calls


def exact_factor(a: list) -> list[Scalar]:
    return [c if isinstance(c, Scalar) else Scalar.from_fraction(c) for c in a]


class TestEigenvalues:
    def test_unipotent(self):
        A = shear3_group().generators[0]
        evs = eigenvalues(A, CTX)
        assert len(evs) == 1
        value, mult, basis = evs[0]
        assert value == Scalar.one() and mult == 3 and basis.cols == 3

    def test_diag(self):
        evs = eigenvalues(Matrix.from_rows([["2", "0"], ["0", "3"]]), CTX)
        assert [(str(v), m, b) for v, m, b in evs] == [
            ("2", 1, Matrix.from_rows([["1"], ["0"]])),
            ("3", 1, Matrix.from_rows([["0"], ["1"]])),
        ]

    def test_companion_of_quartic(self, monkeypatch):
        # companion matrix of (x^2-2)(x^2-3) = x^4 - 5x^2 + 6
        C = Matrix.from_rows(
            [["0", "0", "0", "-6"], ["1", "0", "0", "0"], ["0", "1", "0", "5"], ["0", "0", "1", "0"]]
        )
        evs = eigenvalues(C, CTX, {2, 3})
        # oracle: the roots of the two quadratic factors, in ascending order
        expected = ["-sqrt(3)", "-sqrt(2)", "sqrt(2)", "sqrt(3)"]
        assert [v for v, _, _ in evs] == [parse_scalar(e) for e in expected]
        for v, mult, basis in evs:
            assert mult == 1 and C * basis == basis.scale(v)
        # the entries are rational, so no radicand is tried by default
        assert eigenvalues(C, CTX) is None
        # under a 128-bit context the double-precision proposal is already
        # certified, so the characteristic polynomial is not factored
        calls = record_calls(monkeypatch, "squarefree_factors")
        assert eigenvalues(C, CTX128, {2, 3}) == evs
        assert calls == []

    def test_close_eigenvalues_not_found(self):
        # eigenvalues 1 +- sqrt(2)*10^-10 fall in one cluster around 1, but
        # kernel((A - 1)^2) is 0, not of dimension 2, so 1 is not certified
        A = Matrix.from_rows([["1", "2"], ["1/" + "1" + "0" * 20, "1"]])
        assert eigenvalues(A, CTX) is None

    def test_recognition_in_field(self):
        val = recognize_in_field(complex(0.5, math.sqrt(3) / 2), {3})
        assert val == parse_scalar("1/2 + 1/2*sqrt(3)*i")
        assert recognize_in_field(complex(math.pi, 0.0), {2, 3}) is None


class TestPslqPort:
    """``numeric.pslq`` against ``mpmath.pslq``, called as the recognition
    called it: on [x, 1, sqrt(d)...], each sqrt(d) the double of its 64-bit
    evaluation, at mpmath's default 53 bits."""

    @staticmethod
    def mp_pslq(x: float, rads: list[int]):
        vals = [mpmath.mpf(x)] + [mp_evaluate(Scalar.sqrt_int(d), 64).real for d in [1] + rads]
        try:
            return mpmath.pslq(vals, tol=mpmath.mpf(1e-11), maxcoeff=10**3, maxsteps=10**4)
        except Exception:
            return None

    @staticmethod
    def port_pslq(x: float, rads: list[int]):
        vals = [x] + [Scalar.sqrt_int(d).evaluate_complex(64).real for d in [1] + rads]
        try:
            return pslq(vals, tol=1e-11, maxcoeff=10**3, maxsteps=10**4)
        except (ArithmeticError, ValueError):
            return None

    def test_same_relation_as_mpmath(self):
        rng = random.Random(1999)
        found = [0, 0]  # relations found on the exact and the random values
        for case in range(2000):
            rads = sorted(rng.sample([2, 3, 5, 6, 7], rng.randint(0, 3)))
            if case % 2:
                # a random double, from far below the tolerance to past 2^287,
                # where the square roots take their Newton branch
                x = rng.choice([-1, 1]) * rng.uniform(1, 2) * 2.0 ** rng.randint(-40, 400)
            else:
                # an exact combination of small height
                value = Scalar.from_fraction(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
                for d in rads:
                    value += Scalar.sqrt_int(d) * Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                x = value.evaluate_complex(64).real
            want = self.mp_pslq(x, rads)
            assert self.port_pslq(x, rads) == want, (x, rads)
            found[case % 2] += want is not None
        # random doubles end both ways: mostly None, and a spurious relation
        # with a zero first coefficient once x is past the precision
        assert found[0] > 950 and 100 < found[1] < 900

    def test_non_finite_values_raise(self):
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises((ArithmeticError, ValueError)):
                pslq([x, 1.0], tol=1e-11, maxcoeff=10**3, maxsteps=10**4)

    def test_square_roots_match_mpmath_backend(self):
        isqrt_fast = mpmath.libmp.libintmath.isqrt_fast_python
        rng = random.Random(5)
        for _ in range(3000):
            x = rng.getrandbits(rng.randint(1, 2400))
            assert _isqrt_fast(x) == isqrt_fast(x), x


class TestProposalLadder:
    def test_defective_block_is_proposed_again_at_context_precision(self, monkeypatch):
        # a 3x3 Jordan block at 1 beside the eigenvalue 2, conjugated by an
        # integer unimodular matrix with entries up to 262: the double-precision
        # cluster around 1 has no centre close enough to 1 to be recognised, so
        # the characteristic polynomial (x - 1)^3 (x - 2) proposes, at every
        # precision (53 bits gave None while it proposed only above them)
        A = Matrix.from_rows(LADDER_A0)
        spectra = []
        for ctx in (CTX, CTX128):
            calls = record_calls(monkeypatch, "squarefree_factors", "recognize_in_field",
                                 "polynomial_roots")
            spectra.append(eigenvalues(A, ctx))
            # both factors are linear, so their roots are exact: no root is
            # refined or recognised after the factoring
            assert calls[-1][0] == "squarefree_factors"
            monkeypatch.undo()
        evs = spectra[0]
        assert evs is not None and spectra[1] == evs
        # oracle: the multiplicities of the Jordan form, and A maps each basis
        # into its span with the single eigenvalue there
        assert [(str(v), m, b.cols) for v, m, b in evs] == [("1", 3, 3), ("2", 1, 1)]
        for v, m, b in evs:
            R = solve(b, A * b)
            assert b * R == A * b
            assert (R - Matrix.identity(m).scale(v)).power(m).is_zero()

    def test_defective_block_is_decided_at_53_bits(self, monkeypatch):
        # the double-precision eigenvalues of the defective 1 scatter into two
        # clusters at the smallest separating radius, but a larger one merges
        # them, so the characteristic polynomial is never factored
        calls = record_calls(monkeypatch, "squarefree_factors")
        evs = eigenvalues(Matrix.from_rows(JORDAN_REAL4_G0), CTX128)
        assert calls == []
        # the triples of the 128-bit proposal alone, as recorded before the
        # double-precision proposal existed
        assert [(str(v), m, [[str(x) for x in row] for row in b.entries()]) for v, m, b in evs] == [
            ("-i", 1, [["-2"], ["-2/3"], ["-2/3 - 1/3*i"], ["1"]]),
            ("i", 1, [["-2"], ["-2/3"], ["-2/3 + 1/3*i"], ["1"]]),
            ("1", 2, [["1/2", "-3/2"], ["1", "0"], ["0", "-1"], ["0", "1"]]),
        ]
        assert eigenvalues(Matrix.from_rows(JORDAN_REAL4_G0), CTX) == evs

    def test_each_cluster_is_recognised_once_per_rung(self, monkeypatch):
        # eigenvalues -2, 1 +- sqrt(2)*10^-4 and (7 +- sqrt(5))/2: the pair
        # around 1 is separated at small radii and merged at larger ones, and
        # every radius also separates -2; sqrt(5) is not in the field
        A = Matrix.from_rows([[-2, 0, 0, 0, 0], [0, 0, Fraction(-(10**8 - 2), 10**8), 0, 0],
                              [0, 1, 2, 0, 0], [0, 0, 0, 0, -11], [0, 0, 0, 1, 7]])
        for ctx in (CTX, CTX128):
            calls = record_calls(monkeypatch, "squarefree_factors", "recognize_in_field")
            assert eigenvalues(A, ctx) is None
            factored = [call[0] for call in calls].index("squarefree_factors")
            centres = [z for _, z, _ in calls[:factored]]
            # -2 and one of the pair at the first radius, then the merged pair
            # and (7 - sqrt(5))/2 (and later the mean of all five): -2 only once
            assert len(centres) >= 4
            assert len(set(centres)) == len(centres), centres
            # the polynomial is squarefree, and its roots are recognised until
            # the first that is not in the field
            assert 1 <= len(calls) - factored - 1 <= 5
            monkeypatch.undo()

    def test_two_clusters_on_one_value_not_certified(self, monkeypatch):
        # eigenvalues 1 and 2; ker(A - 1) alone has the multiplicity's
        # dimension, so only the distinctness check refuses the proposal
        A = Matrix.from_rows([["0", "-2"], ["1", "3"]])
        assert [(str(v), m) for v, m, _ in eigenvalues(A, CTX)] == [("1", 1), ("2", 1)]
        monkeypatch.setattr(spectral, "recognize_in_field", lambda z, radicands: Scalar.one())
        assert eigenvalues(A, CTX) is None
        assert eigenvalues(A, CTX128) is None

    def test_one_value_proposal_runs_no_kernel(self, monkeypatch):
        # a clustering with one cluster is never proposed, since the
        # refinement splits only a block with several eigenvalues: a
        # non-triangular matrix whose one eigenvalue is 2 (a 3x3 Jordan block,
        # conjugated) runs no kernel until the characteristic polynomial
        # (x - 2)^3 proposes 2 with multiplicity 3, which one kernel certifies
        unipotent = Matrix.from_rows([[2, 0, 0], [1, 2, 0], [3, -1, 2]])
        P = Matrix.from_rows([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
        conjugated = P * unipotent * P.inverse()
        assert not conjugated.is_lower_triangular()
        assert not conjugated.transpose().is_lower_triangular()
        two = [(Scalar.from_int(2), 3, Matrix.identity(3))]
        for ctx in (CTX, CTX128):
            calls = record_calls(monkeypatch, "squarefree_factors", "kernel", "polynomial_roots")
            assert eigenvalues(conjugated, ctx) == two
            assert [call[0] for call in calls] == ["squarefree_factors", "kernel"]
            monkeypatch.undo()
        # a triangular matrix reads its one value off the diagonal, and the
        # kernel of (A - 2)^3 = 0 certifies it
        calls = record_calls(monkeypatch, "squarefree_factors", "kernel")
        assert eigenvalues(unipotent, CTX) == two
        assert [call[0] for call in calls] == ["kernel"]


class TestCharacteristicPolynomialRung:
    """The third proposal: the roots of the squarefree factors of the exact
    characteristic polynomial, each with its multiplicity."""

    @staticmethod
    def eig_oracle(A: Matrix, precision: int) -> list:
        # mpmath's Hessenberg QR at the precision, on the entries evaluated there
        with mpmath.workprec(precision):
            M = mpmath.matrix([[mp_value(e.evaluate(precision)) for e in row] for row in A.entries()])
            return list(mpmath.eig(M, left=False, right=False))

    def test_roots_agree_with_eig_on_squarefree_inputs(self):
        rng = random.Random(128)
        inputs = [random_integer_matrix(rng, n, -9, 9) for n in (2, 3, 4, 5, 6)]
        inputs += [Matrix([[random_scalar(rng, max_num=3) for _ in range(n)] for _ in range(n)])
                   for n in (2, 3, 4)]
        for A in inputs:
            factors = squarefree_factors(A.charpoly())
            assert factors == [(A.charpoly(), 1)]
            roots = [mp_value(z) for a, _ in factors for z in polynomial_roots(exact_factor(a), 128)]
            oracle = self.eig_oracle(A, 128)
            assert len(roots) == len(oracle) == A.rows
            with mpmath.workprec(128):
                scale = max(1, max(abs(z) for z in oracle))
                for z in oracle:
                    assert min(abs(z - r) for r in roots) <= mpmath.ldexp(scale, -100)
                for r in roots:
                    assert min(abs(z - r) for z in oracle) <= mpmath.ldexp(scale, -100)

    def test_close_roots_are_resolved(self):
        # x^2 - 2x + 1 - 2*10^-20: the coefficients rounded to doubles have
        # the double root 1, and only Aberth's repulsion keeps both starts
        # from one root, so that the refinement resolves the exact roots
        # 1 +- sqrt(2)*10^-10 to within what 128-bit coefficients fix: a
        # rounding of 2^-128 moves a root by 2^-128 / |f'| = 2^-128 / (2.8 *
        # 10^-10), about 2^-96
        A = Matrix.from_rows([["1", "2"], ["1/" + "1" + "0" * 20, "1"]])
        [(a, k)] = squarefree_factors(A.charpoly())
        assert k == 1
        with mpmath.workprec(128):
            exact = [1 - mpmath.sqrt(2) / 10**10, 1 + mpmath.sqrt(2) / 10**10]
            roots = sorted(map(mp_value, polynomial_roots(exact_factor(a), 128)), key=lambda z: z.real)
            for r, z in zip(roots, exact):
                assert abs(r - z) <= mpmath.ldexp(1, -90)

    def test_repeated_roots_are_exact(self, monkeypatch):
        # (x - 1)^3 (x - 2): one linear factor per multiplicity, whose root is
        # taken exactly, with no refinement and no recognition
        A = Matrix.from_rows(LADDER_A0)
        assert squarefree_factors(A.charpoly()) == [([1, -2], 1), ([1, -1], 3)]
        calls = record_calls(monkeypatch, "recognize_in_field", "polynomial_roots")
        monkeypatch.setattr(spectral, "_separated_clusterings", lambda raw: iter(()))
        assert [(v, m) for v, m, _ in eigenvalues(A, CTX)] == [(Scalar.one(), 3),
                                                               (Scalar.from_int(2), 1)]
        assert calls == []

    def test_radical_defective_block(self, monkeypatch):
        # LADDER_A0 shifted by sqrt(2): Berkowitz and Yun run on Scalars, and
        # both factors are linear over Q(sqrt 2) (53 bits gave None while the
        # characteristic polynomial proposed only above them)
        A = Matrix.from_rows(LADDER_A0) + Matrix.identity(4).scale(parse_scalar("sqrt(2)"))
        calls = record_calls(monkeypatch, "polynomial_roots")
        evs = eigenvalues(A, CTX)
        assert evs is not None and eigenvalues(A, CTX128) == evs
        assert calls == []
        assert [(str(v), m) for v, m, _ in evs] == [("1 + sqrt(2)", 3), ("2 + sqrt(2)", 1)]


class TestRefinement:
    def test_unipotent_single_block(self):
        blocks = simultaneous_refinement(shear3_group(), CTX)
        assert [b.dim for b in blocks] == [3]
        # oracle: both generators are unipotent, sole eigenvalue 1
        assert blocks[0].eigen_exact == {0: Scalar.one(), 1: Scalar.one()}

    def test_diag_splits(self):
        G = group_from_strings(
            "real", [[["2", "0"], ["0", "3"]], [["1", "0"], ["0", "1"]]]
        )
        blocks = simultaneous_refinement(G, CTX)
        assert sorted(b.dim for b in blocks) == [1, 1]

    def test_rot_blocks_split_to_lines(self):
        G = rot_block_group()
        blocks = simultaneous_refinement(G, CTX)
        assert [b.dim for b in blocks] == [1, 1, 1, 1]
        # oracle: explicit diagonalization; the +i eigenvector of rot(pi/2)
        # is (1, -i) supported on the first two coordinates
        by_eig = {}
        for b in blocks:
            key = (str(b.eigen_exact[0]), str(b.eigen_exact[1]))
            by_eig[key] = b
        blk = by_eig[("i", "2*i")]
        col = blk.subspace.basis.col(0)
        expected = [Scalar.one(), -Scalar.i(), Scalar.zero(), Scalar.zero()]
        scale = col[0]
        assert [c / scale for c in col] == expected

    def test_exact_split_goes_through_eigenvalues(self, monkeypatch):
        calls = []
        original = spectral.eigenvalues

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigenvalues", counting)
        G = rot_block_group()
        blocks = simultaneous_refinement(G, CTX)
        # A's spectrum +-i, +-2i splits K^4 into lines at the root, and B has
        # one eigenvalue on each line
        assert calls == [G.generators[0]]
        assert [b.dim for b in blocks] == [1, 1, 1, 1]

    def test_refinement_splits_products_only(self):
        # each generator alone has conjugate-pair spectra, but the complex
        # refinement still reaches four one-dimensional blocks
        G = rot_block_group()
        blocks = simultaneous_refinement(G, CTX)
        stacked = blocks[0].subspace.basis
        for b in blocks[1:]:
            stacked = stacked.hstack(b.subspace.basis)
        assert rank(stacked) == 4

    def test_not_abelian_rejected(self):
        G = group_from_strings(
            "real", [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]]
        )
        with pytest.raises(NotAbelian):
            simultaneous_refinement(G, CTX)

    def test_invariance_of_blocks(self, rng):
        for _ in range(10):
            G = random_commuting_family(rng, rng.randint(2, 4))
            blocks = simultaneous_refinement(G, CTX)
            assert sum(b.dim for b in blocks) == G.dimension
            for b in blocks:
                basis = b.subspace.basis
                for g in G.generators:
                    if b.exact:
                        sol = solve(basis, g * basis)
                        assert sol is not None and (basis * sol - g * basis).is_zero()
                    else:
                        gn = to_numeric(g)
                        from lindyn.numeric import nsolve_cols

                        _, resid = nsolve_cols(basis, gn @ basis)
                        scale = max(1.0, max_abs(gn)) * max(1.0, max_abs(basis))
                        assert resid <= 1e3 * CTX.eps * scale


class TestPairing:
    def test_rotation_pair(self):
        R = Matrix.from_rows([["1/2", "-1/2*sqrt(3)"], ["1/2*sqrt(3)", "1/2"]])
        G = GeneratorSet("real", 2, [R], ["R"])
        blocks = simultaneous_refinement(G, CTX)
        units = pair_conjugates(blocks, G, CTX)
        assert len(units) == 1 and units[0][1]
        rb = re_im_columns(units[0][0].basis())
        assert rb.cols == 2 and rb.is_real()

    def test_diag_real_singletons(self):
        G = group_from_strings("real", [[["2", "0"], ["0", "3"]]])
        blocks = simultaneous_refinement(G, CTX)
        units = pair_conjugates(blocks, G, CTX)
        assert [is_pair for _, is_pair in units] == [False, False]
        # a real exact block is returned itself, with the restrictions it carries
        for (blk, _), block in zip(units, blocks):
            assert blk is block and blk.restrictions is not None

    def test_rot_block_pairs(self):
        G = rot_block_group()
        blocks = simultaneous_refinement(G, CTX)
        units = pair_conjugates(blocks, G, CTX)
        assert [is_pair for _, is_pair in units] == [True, True]
        for leader, _ in units:
            rb = re_im_columns(leader.basis())
            assert rb.cols == 2 and rb.is_real()
        # partners are cross-linked
        for leader, _ in units:
            i = next(k for k, b in enumerate(blocks) if b is leader)
            j = leader.conj_partner
            assert j != i and blocks[j].conj_partner == i


class TestTriangularize:
    def test_already_triangular(self):
        G = shear3_group()
        blocks = simultaneous_refinement(G, CTX)
        tf = triangularize(G, blocks[0], CTX)
        assert tf.basis == Matrix.identity(3)
        for T, g in zip(tf.triangular, G.generators):
            assert T == g

    def test_single_jordan_block(self):
        G = group_from_strings(
            "real", [[["1", "0", "0"], ["1", "1", "0"], ["0", "1", "1"]]]
        )
        blocks = simultaneous_refinement(G, CTX)
        tf = triangularize(G, blocks[0], CTX)
        assert tf.basis == Matrix.identity(3)

    def test_conjugated_group_recovers_triangularity(self, rng):
        # oracle: check triangularity of the output on a conjugated copy
        base = shear3_group()
        for _ in range(5):
            while True:
                R = random_integer_matrix(rng, 3)
                if not R.det().is_zero():
                    break
            Rinv = R.inverse()
            G = GeneratorSet("real", 3, [R * g * Rinv for g in base.generators], ["A", "B"])
            blocks = simultaneous_refinement(G, CTX)
            assert len(blocks) == 1
            tf = triangularize(G, blocks[0], CTX)
            for T in tf.triangular:
                if isinstance(T, Matrix):
                    assert T.is_lower_triangular()
                else:
                    d = T.shape[0]
                    for i in range(d):
                        for j in range(i + 1, d):
                            assert abs(complex(T[i, j])) < 1e-8

    def test_product_closure_of_triangular_form(self, rng):
        # closure check: random generator words stay lower triangular with
        # multiplicative diagonal in the computed basis
        G = random_sform_family(rng, 4)
        blocks = simultaneous_refinement(G, CTX)
        tf = triangularize(G, blocks[0], CTX)
        P = tf.basis
        for _ in range(20):
            word = [rng.randint(-3, 3) for _ in G.generators]
            W = G.word(word)
            T = solve(P, W * P)
            assert T is not None and T.is_lower_triangular()
            mu = Scalar.one()
            for g_mu, k in zip(tf.diagonal, word):
                mu = mu * g_mu**k
            assert T.constant_diagonal() == mu

    def test_restrictions_computed_once_per_block(self, monkeypatch):
        # refinement hands each final block its restrictions; triangularize
        # and the real singleton blocks of pair_conjugates reuse them
        from lindyn import spectral
        from conftest import fixture_by_name

        calls = []
        restrict = spectral._block_restriction

        def counting(g, basis, ctx):
            calls.append((str(basis), id(g)))
            return restrict(g, basis, ctx)

        monkeypatch.setattr(spectral, "_block_restriction", counting)
        G = fixture_by_name("shear3")[0]
        invariant_family(G, CTX)
        assert len(calls) == len(G.generators) == 2  # one block, one call per generator
        diag = group_from_strings(
            "real", [[["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]]
        )
        for group in (diag, rot_block_group()):
            calls.clear()
            invariant_family(group, CTX)
            assert len(calls) == len(set(calls))

    def test_block_without_restrictions(self):
        # a block built elsewhere carries no restrictions: the same form
        for G in (shear3_group(), rot_block_group()):
            for blk in simultaneous_refinement(G, CTX):
                assert blk.restrictions is not None
                tf = triangularize(G, blk, CTX)
                bare = SpectralBlock(blk.subspace, blk.eigen_numeric, blk.eigen_exact,
                                     blk.conj_partner, restrictions=None)
                bare = triangularize(G, bare, CTX)
                assert bare.basis == tf.basis and bare.triangular == tf.triangular
                assert bare.diagonal == tf.diagonal

    def test_single_eigenvalue_words(self, rng):
        # products of single-eigenvalue commuting matrices keep a single
        # eigenvalue (checked on random words)
        G = random_sform_family(rng, 4)
        for _ in range(20):
            word = [rng.randint(-3, 3) for _ in G.generators]
            W = G.word(word)
            evs = eigenvalues(W, CTX)
            assert len(evs) == 1 and evs[0][1] == 4


class TestNumericFlag:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_conjugated_commuting_nilpotents(self, d, field):
        # mu_i I + U N_i U^-1, with the N_i polynomials without constant
        # term in one random nilpotent and U a random unitary (orthogonal
        # for real): the flag is orthonormal, so P is unitary, and every T
        # is lower triangular with mu_i on its diagonal.  A sparse nilpotent
        # gives Jordan types from one block down to zero, where every
        # generator is scalar up to the rounding of the conjugation
        rng = np.random.default_rng([d, field == "complex"])
        cplx = field == "complex"
        for trial in range(20):
            N = np.tril(rng.integers(-2, 3, (d, d)), -1) * (rng.random((d, d)) < trial % 5 / 4)
            Z = rng.normal(size=(d, d)) + 1j * cplx * rng.normal(size=(d, d))
            U = np.linalg.qr(Z)[0]
            restrictions, true_mus = [], []
            for _ in range(rng.integers(1, 4)):
                c1, c2 = rng.integers(-2, 3, 2)
                mu = rng.uniform(-3, 3) + 1j * cplx * rng.uniform(-3, 3)
                restrictions.append(U @ (mu * np.eye(d) + c1 * N + c2 * (N @ N)) @ U.conj().T)
                true_mus.append(mu)
            mus = [spectral._trace_mean(R) for R in restrictions]
            P, tri = spectral._triangularize_numeric(restrictions, mus, CTX)
            assert np.allclose(P.conj().T @ P, np.eye(d), atol=1e-12), trial
            for R, T, mu in zip(restrictions, tri, true_mus):
                scale = max(1.0, max_abs(R))
                assert max_abs(P @ T - R @ P) <= 1e-12 * scale, trial
                assert max_abs(np.triu(T, 1)) <= 1e-12 * scale, trial
                assert max_abs(np.diag(T) - mu) <= 1e-12 * scale, trial


class TestErrorPaths:
    def test_cluster_ambiguity_raised(self):
        # double-precision input whose spectrum is split by ~1e-6, right at
        # the data's own noise band: the refinement must say so instead of
        # guessing
        from lindyn.errors import ClusterAmbiguity

        a, h = 1.0, 1e-12
        N = np.array([[a, 1.0], [-a * a + h, -a]], dtype=complex)
        G = GeneratorSet("real", 2, [np.eye(2, dtype=complex) + N], ["g"])
        with pytest.raises(ClusterAmbiguity):
            simultaneous_refinement(G, NumericContext())

    def test_triangular_input_resolves_band_scale_gap_exactly(self):
        # the same separation is decidable when the input is exact
        A = Matrix.from_rows([[0, 1], [0, "1/20000000"]])
        evs = eigenvalues(A, NumericContext())
        assert [(str(v), m) for v, m, _ in evs] == [("0", 1), ("1/20000000", 1)]

    def test_unmatched_conjugate_raised(self):
        from lindyn.errors import UnmatchedConjugate
        from lindyn.linalg import Subspace
        from lindyn.spectral import SpectralBlock

        R = Matrix.from_rows([["1/2", "-1/2*sqrt(3)"], ["1/2*sqrt(3)", "1/2"]])
        G = GeneratorSet("real", 2, [R], ["R"])
        blocks = simultaneous_refinement(G, CTX)
        with pytest.raises(UnmatchedConjugate):
            pair_conjugates([blocks[0]], G, CTX)  # partner withheld

    def test_no_common_eigenvector_raised(self):
        from lindyn.spectral import _triangularize_exact

        N1 = Matrix.from_rows([[0, 1], [0, 0]])
        N2 = Matrix.from_rows([[0, 0], [1, 0]])
        gens = [Matrix.identity(2) + N1, Matrix.identity(2) + N2]
        with pytest.raises(NoCommonEigenvector):
            _triangularize_exact(gens, [Scalar.one(), Scalar.one()])


class TestHighPrecisionPath:
    def test_eigenvalues_at_128_bits(self):
        ctx = NumericContext(precision=128)
        C = Matrix.from_rows([["0", "-2"], ["1", "0"]])  # x^2 + 2
        evs = eigenvalues(C, ctx, {2})
        assert [v for v, _, _ in evs] == [parse_scalar("-sqrt(2)*i"), parse_scalar("sqrt(2)*i")]

    def test_refinement_at_128_bits(self):
        ctx = NumericContext(precision=128)
        G = group_from_strings("real", [[["2", "0"], ["0", "3"]]])
        blocks = simultaneous_refinement(G, ctx)
        assert sorted(b.dim for b in blocks) == [1, 1]

    def test_sqrt2_spectrum_at_128_bits(self):
        # eigenvalues +-sqrt(2) lie outside the field of the rational entries,
        # so only a numeric split finds the two eigenlines: at 53 bits.  Above
        # them the refinement names the error and the precision that splits
        G = group_from_strings("real", [[["0", "2"], ["1", "0"]]])
        assert invariant_family(G, NumericContext()).count == 2
        with pytest.raises(SpectrumNotCertified, match="precision 128.*--precision 53"):
            invariant_family(G, NumericContext(precision=128))

    def test_random_families_at_128_bits_are_exact_or_refused(self, monkeypatch):
        # survey-style families (polynomials in one random integer matrix):
        # above 53 bits a family is exact throughout or refused by name, and
        # no numeric split or triangularization runs
        numeric_calls = []
        for name in ("_split_numeric", "_triangularize_numeric"):
            def recording(*args, _name=name, _original=getattr(spectral, name)):
                numeric_calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(spectral, name, recording)
        rng = random.Random(5)
        exact = refused = 0
        for _ in range(24):
            G = random_commuting_family(rng, rng.randint(2, 5))
            try:
                fam = invariant_family(G, NumericContext(precision=128))
            except SpectrumNotCertified as exc:
                assert "--precision 53" in str(exc)
                refused += 1
                continue
            assert all(b.exact for b in fam.blocks)
            assert all(s.exact for s in fam.subspaces)
            exact += 1
        assert numeric_calls == []
        assert exact >= 3 and refused >= 3, (exact, refused)


# generators of the fields of the P J P^-1 sweep: Q, Q(sqrt 2), Q(sqrt 3), Q(i)
SWEEP_FIELDS = {"Q": None, "Q(sqrt2)": "sqrt(2)", "Q(sqrt3)": "sqrt(3)", "Q(i)": "i"}


def jordan_conjugate(rng: random.Random, generator: str | None) -> tuple[Matrix, list]:
    """P J P^-1 for a random Jordan matrix J over Q(generator) with at least
    two distinct eigenvalues and a random unimodular integer P; returns it
    with J's (value, algebraic multiplicity) pairs, sorted by their text."""
    w = parse_scalar(generator) if generator else Scalar.zero()
    n = rng.randint(3, 6)
    while True:
        blocks, total = [], 0
        while total < n:
            size = rng.randint(1, n - total)
            value = Scalar.from_int(rng.randint(-3, 3)) + Scalar.from_int(rng.randint(-2, 2)) * w
            blocks.append((value, size))
            total += size
        if len({v for v, _ in blocks}) >= 2:
            break
    rows = [[Scalar.zero()] * n for _ in range(n)]
    start = 0
    for value, size in blocks:
        for i in range(start, start + size):
            rows[i][i] = value
            if i > start:
                rows[i][i - 1] = Scalar.one()
        start += size
    # a unimodular P = L U (unit triangular integer factors) keeps A integral
    # over the field, with entries in the hundreds
    L, U = (Matrix.from_rows([[int(i == j) or (rng.randint(-3, 3) if below(i, j) else 0)
                               for j in range(n)] for i in range(n)])
            for below in (operator.gt, operator.lt))
    P = L * U
    multiplicity: dict[Scalar, int] = {}
    for value, size in blocks:
        multiplicity[value] = multiplicity.get(value, 0) + size
    return P * Matrix(rows) * P.inverse(), sorted(multiplicity.items(), key=lambda vm: str(vm[0]))


class TestJordanSweep:
    # the 100 matrices below are all certified at 53 and at 128 bits; before
    # the characteristic polynomial proposed at every precision, 40 were at
    # 53 bits
    CERTIFIED = 100

    def test_certified_spectra_are_the_jordan_values(self):
        for ctx in (CTX, CTX128):
            certified = 0
            for name, generator in SWEEP_FIELDS.items():
                rng = random.Random(f"jordan sweep {name}")
                for _ in range(25):
                    A, expected = jordan_conjugate(rng, generator)
                    evs = eigenvalues(A, ctx)
                    if evs is None:
                        continue
                    certified += 1
                    assert sorted(((v, m) for v, m, _ in evs), key=lambda vm: str(vm[0])) == expected
            assert certified == self.CERTIFIED
