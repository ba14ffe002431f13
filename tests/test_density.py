import math
import random

import numpy as np
import pytest

from conftest import (
    determinant_cofactors,
    determinant_zero_search,
    integer_relations,
    random_scalar,
)
from lindyn.density import (
    CLOSED,
    DENSE,
    DENSE_IN_PROPER_SUBGROUP,
    IntegerSpan,
    character_basis,
    dense_in,
    relation_basis,
)
from lindyn.linalg import kernel
from lindyn.scalars import Scalar, parse_scalar

ONE = Scalar.one()
ZERO = Scalar.zero()
S2 = Scalar.sqrt_int(2)
S3 = Scalar.sqrt_int(3)


def radical_span():
    return IntegerSpan.of([(ONE, ONE), (S3, S2), (S2, ONE)], 2)


class TestIntegerRelation:
    def test_radical_rows_independent(self):
        assert relation_basis(radical_span()) == []

    def test_collinear_rationals(self):
        sp = IntegerSpan.of([(ONE, ZERO), (Scalar.from_int(2), ZERO), (ZERO, ONE)], 2)
        assert relation_basis(sp)[0] == [2, -1, 0]

    def test_sqrt8(self):
        sp = IntegerSpan.of([(ONE,), (S2,), (Scalar.sqrt_int(8),)], 1)
        assert relation_basis(sp)[0] == [0, 2, -1]

    def test_relations_annihilate(self, rng):
        for _ in range(20):
            k = rng.randint(2, 4)
            vecs = [
                tuple(random_scalar(rng, radicands=(2,), allow_imag=False) for _ in range(2))
                for _ in range(k)
            ]
            sp = IntegerSpan.of(vecs, 2)
            for rel in relation_basis(sp):
                total = [ZERO, ZERO]
                for coeff, v in zip(rel, vecs):
                    total = [t + Scalar.from_int(coeff) * c for t, c in zip(total, v)]
                assert all(t.is_zero() for t in total)


class TestDenseIn:
    def test_one_sqrt2_dense(self):
        assert dense_in(IntegerSpan.of([(ONE,), (S2,)], 1)).kind == DENSE

    def test_integers_closed(self):
        v = dense_in(IntegerSpan.of([(ONE,), (ONE,)], 1))
        assert v.kind == CLOSED
        # vectors of R^0, a fixed point's translations, satisfy every relation
        v = dense_in(IntegerSpan.of([(), ()], 0))
        assert (v.kind, v.free_rank, v.span_dim) == (CLOSED, 0, 0)
        assert v.relations == [[1, 0], [0, 1]]

    def test_radical_rows_dense(self):
        v = dense_in(radical_span())
        assert v.kind == DENSE
        assert v.relations == []
        assert v.free_rank == 3 and v.span_dim == 2

    def test_rational_rows_closed(self):
        sp = IntegerSpan.of(
            [(ONE, ONE), (Scalar.from_int(2), ONE), (ONE, Scalar.from_int(3))], 2
        )
        assert dense_in(sp).kind == CLOSED

    def test_line_times_lattice(self):
        sp = IntegerSpan.of([(ONE, ZERO), (S2, ZERO), (ZERO, ONE)], 2)
        v = dense_in(sp)
        assert v.kind == DENSE_IN_PROPER_SUBGROUP
        assert v.character == [0, 0, 1]

    def test_proper_subspace(self):
        sp = IntegerSpan.of([(ONE, ZERO), (S2, ZERO)], 2)
        v = dense_in(sp)
        assert v.kind == DENSE_IN_PROPER_SUBGROUP and v.span_dim == 1

    @pytest.mark.parametrize(
        "alphas, kind, character",
        [
            (["sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(7)"], DENSE, None),
            (["sqrt(2)", "sqrt(3)", "sqrt(6)", "sqrt(2)+sqrt(3)"], DENSE_IN_PROPER_SUBGROUP, [1, 1, 0, -1, 0]),
            (["sqrt(2)", "sqrt(3)", "sqrt(5)", "sqrt(7)", "sqrt(11)"], DENSE, None),
            ([], CLOSED, None),
        ],
        ids=["d4-dense", "d4-character", "d5-dense", "d4-lattice"],
    )
    def test_kronecker_family(self, alphas, kind, character):
        # Z^d + Z(a_1..a_d) is dense in R^d iff 1, a_1..a_d are Q-independent
        # (Kronecker); with no extra vector the coordinate lattice is closed
        d = len(alphas) or 4
        unit = [tuple(ONE if i == j else ZERO for i in range(d)) for j in range(d)]
        extra = [tuple(parse_scalar(a) for a in alphas)] if alphas else []
        sp = IntegerSpan.of(unit + extra, d)
        v = dense_in(sp)
        assert v.kind == kind
        assert v.character == character
        if alphas:
            assert (v.kind == DENSE) == (integer_relations([ONE] + list(extra[0])) == [])
        if v.character is not None:
            # a character s satisfies sum_j x_j s_j = 0 for every relation x
            ker = kernel(sp.matrix())
            for j in range(ker.dim):
                terms = (Scalar.from_int(s) * x for s, x in zip(v.character, ker.basis.col(j)))
                assert sum(terms, ZERO).is_zero()

    def test_rejects_complex_entries(self):
        with pytest.raises(ValueError):
            IntegerSpan.of([(Scalar.i(),)], 1)


class TestDeterminantCriterion:
    def test_cofactor_expansion_matches_determinant(self, rng):
        sp = radical_span()
        cof = determinant_cofactors(sp)
        for _ in range(20):
            s = [rng.randint(-5, 5) for _ in range(3)]
            total = ZERO
            for si, ci in zip(s, cof):
                total = total + ci * Scalar.from_int(si)
            # oracle: 3x3 determinant with the integer row appended
            m = [
                [sp.vectors[0][0], sp.vectors[1][0], sp.vectors[2][0]],
                [sp.vectors[0][1], sp.vectors[1][1], sp.vectors[2][1]],
                [Scalar.from_int(s[0]), Scalar.from_int(s[1]), Scalar.from_int(s[2])],
            ]
            from lindyn.linalg import Matrix

            assert Matrix(m).det() == total

    def test_no_zero_for_radical_rows(self):
        assert determinant_zero_search(radical_span(), 50) == []

    def test_zeros_found_for_dependent_rows(self):
        sp = IntegerSpan.of([(ONE, ZERO), (Scalar.from_int(2), ZERO), (ZERO, ONE)], 2)
        zeros = determinant_zero_search(sp, 3)
        # the zero set of det = 2 s1 - s2 is exactly the character lattice
        assert (1, 2, 0) in zeros and (0, 0, 1) in zeros
        for s in zeros:
            total = ZERO
            for si, ci in zip(s, determinant_cofactors(sp)):
                total = total + ci * Scalar.from_int(si)
            assert total.is_zero()

    def test_brute_force_agreement_randomized(self, rng):
        # the exact verdict must match the determinant zero-search on random
        # radical instances: zeros exist iff the verdict is not DENSE
        agree = 0
        for _ in range(20):
            vecs = []
            for _ in range(3):
                a = rng.choice([ONE, S2, S3, ONE + S2, Scalar.from_int(rng.randint(1, 3))])
                b = rng.choice([ONE, S2, S3, ONE - S2, Scalar.from_int(rng.randint(1, 3))])
                vecs.append((a, b))
            sp = IntegerSpan.of(vecs, 2)
            verdict = dense_in(sp)
            zeros = determinant_zero_search(sp, 20)
            if verdict.kind == DENSE:
                assert zeros == []
            else:
                assert zeros != []
            agree += 1
        assert agree == 20


class TestSamplingAgreement:
    def _gap_statistic(self, sp: IntegerSpan, box: int = 1000) -> float:
        # numeric window statistic for d = 1 spans
        vals = np.array([v[0].evaluate_complex(64).real for v in sp.vectors])
        r = np.arange(-box, box + 1)
        if len(vals) == 1:
            pts = r * vals[0]
        else:
            g1, g2 = np.meshgrid(r, r, indexing="ij")
            pts = (g1 * vals[0] + g2 * vals[1]).ravel()
        window = np.sort(pts[np.abs(pts) <= 1.0])
        if window.size < 2:
            return math.inf
        return float(np.diff(np.concatenate([[-1.0], window, [1.0]])).max())

    def test_dense_iff_small_gap(self, rng):
        cases = 0
        for _ in range(20):
            if rng.random() < 0.5:
                sp = IntegerSpan.of(
                    [(ONE,), (S2 * Scalar.from_fraction(rng.randint(1, 3)),)], 1
                )
            else:
                q = Scalar.from_fraction(f"{rng.randint(1, 5)}/{rng.randint(1, 3)}")
                sp = IntegerSpan.of([(ONE,), (q,)], 1)
            verdict = dense_in(sp)
            gap = self._gap_statistic(sp)
            if verdict.kind == DENSE:
                assert gap < 0.01
            else:
                assert verdict.kind == CLOSED
                # discrete spans keep a fixed positive spacing
                vals = sorted(
                    {abs(v[0].evaluate_complex(64).real) for v in sp.vectors}
                )
                assert gap > 0 or math.isinf(gap)
            cases += 1
        assert cases == 20
