import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import integer_relations, mp_evaluate, mp_value
from lindyn.errors import ParseError
from lindyn.scalars import (
    Scalar,
    _adjugate,
    _parse_expression,
    _ring_mul,
    parse_scalar,
    square_free_split,
)


def S(text):
    return parse_scalar(text)


def _outcome(parse, text):
    """parse(text), or the type of the exception it raises."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc)


class TestParse:
    def test_identity(self):
        assert S("1") == Scalar.one()

    def test_radical_difference(self):
        assert S("sqrt(2)-1").terms == {
            (1, False): Fraction(-1),
            (2, False): Fraction(1),
        }

    def test_squarefree_normalization(self):
        assert S("sqrt(8)").terms == {(2, False): Fraction(2)}
        assert S("sqrt(4)") == Scalar.from_int(2)
        assert S("sqrt(0)") == Scalar.zero()

    def test_nested_radical_rejected(self):
        with pytest.raises(ParseError):
            S("sqrt(sqrt(2))")
        with pytest.raises(ParseError):
            S("sqrt(1/2)")

    def test_malformed(self):
        with pytest.raises(ParseError):
            S("2 +")
        with pytest.raises(ParseError):
            S("sqrt(2")
        with pytest.raises(ParseError):
            S("x+1")

    def test_division_and_parens(self):
        assert S("(1+i)*(1-i)") == Scalar.from_int(2)
        assert S("1/2 + 1/2") == Scalar.one()

    # pieces of integer literals and of near misses that int() accepts and
    # the parser refuses ("+3", "3_000") or reads its own way (" 3", "٣")
    PIECES = list("0123456789-+ /_i)") + ["sqrt(", "\u0663"]

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.from_regex(r"-?[0-9]+", fullmatch=True),
                     st.lists(st.sampled_from(PIECES), max_size=8).map("".join)))
    def test_integer_literals_read_as_the_parser_reads_them(self, text):
        assert _outcome(parse_scalar, text) == _outcome(_parse_expression, text), text

    def test_near_literals_read_as_the_parser_reads_them(self):
        for text in ("+3", "3_000", " 3", "3 ", "\u0663", "-0", "007", "--3", "-", ""):
            assert _outcome(parse_scalar, text) == _outcome(_parse_expression, text), text
        assert S("-0") == Scalar.zero() and S("007") == Scalar.from_int(7)
        assert S(" 3") == S("\u0663") == Scalar.from_int(3)
        with pytest.raises(ParseError):
            S("+3")
        with pytest.raises(ParseError):
            S("3_000")


class TestArithmetic:
    def test_radical_product(self):
        assert S("sqrt(2)*sqrt(3)") == S("sqrt(6)")

    def test_conjugate_product(self):
        assert S("(1+i)*(1-i)") == Scalar.from_int(2)

    def test_radical_norm_product(self):
        # oracle: numeric evaluation at 128 bits of both sides agrees to 1e-30
        lhs = S("(sqrt(3)+i*sqrt(2))*(sqrt(3)-i*sqrt(2))")
        assert lhs == Scalar.from_int(5)
        a = mp_value(S("sqrt(3)+i*sqrt(2)").evaluate(128))
        b = mp_value(S("sqrt(3)-i*sqrt(2)").evaluate(128))
        assert abs(a * b - mpmath.mpc(5)) < mpmath.mpf("1e-30")

    def test_square_free_split(self):
        assert square_free_split(8) == (2, 2)
        assert square_free_split(1) == (1, 1)
        assert square_free_split(360) == (6, 10)

    def test_division_round_trip(self):
        x = S("1/3 + 2*sqrt(2) - sqrt(6)*i")
        assert x / x == Scalar.one()
        assert (Scalar.one() / x) * x == Scalar.one()

    def test_power(self):
        x = S("1+sqrt(2)")
        assert x**2 == S("3+2*sqrt(2)")
        assert x**-1 == S("sqrt(2)-1")


class TestIndependence:
    def test_one_sqrt2_sqrt3(self):
        assert integer_relations([Scalar.one(), Scalar.sqrt_int(2), Scalar.sqrt_int(3)]) == []

    def test_sqrt8_relation(self):
        rels = integer_relations([Scalar.one(), Scalar.sqrt_int(2), Scalar.sqrt_int(8)])
        assert rels == [[0, 2, -1]]

    def test_sqrt6_family_independent(self):
        vals = [Scalar.one(), Scalar.sqrt_int(2), Scalar.sqrt_int(3), Scalar.sqrt_int(6)]
        assert integer_relations(vals) == []
        # oracle: exhaustive small-coefficient search up to |q| <= 100 finds
        # no vanishing combination (inner coefficient solved by rounding)
        v = np.array([x.evaluate_complex(64).real for x in vals])
        r = np.arange(-100, 101)
        q2, q3, q4 = np.meshgrid(r, r, r, indexing="ij")
        rest = q2 * v[1] + q3 * v[2] + q4 * v[3]
        q1 = np.round(-rest / v[0])
        resid = np.abs(rest + q1 * v[0])
        nontrivial = (np.abs(q2) + np.abs(q3) + np.abs(q4)) > 0
        assert resid[nontrivial].min() > 1e-9

    def test_rejects_complex(self):
        with pytest.raises(ValueError):
            integer_relations([Scalar.i()])


scalar_strategy = st.builds(
    lambda seed: _random(seed),
    st.integers(min_value=0, max_value=10**9),
)

# single terms q * sqrt(d) * i^e with squarefree d
monomial_strategy = st.builds(
    lambda q, d, imag: Scalar({(d, imag): q}),
    st.fractions(max_denominator=50).filter(bool),
    st.sampled_from([1, 2, 3, 5, 6, 7, 10, 30]),
    st.booleans(),
)

# nonzero ring elements: integer coefficients over sqrt(d) * i^e, d a
# squarefree product of 2, 3, 5 and 7, numerators up to 2^64
ring_strategy = st.dictionaries(
    st.tuples(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 35, 70, 105, 210]),
              st.booleans()),
    st.integers(min_value=-2**64, max_value=2**64).filter(bool),
    min_size=1, max_size=6,
)


def _random(seed):
    rng = random.Random(seed)
    from conftest import random_scalar

    return random_scalar(rng)


class TestFieldAxioms:
    @settings(max_examples=200, deadline=None)
    @given(scalar_strategy, scalar_strategy, scalar_strategy)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=200, deadline=None)
    @given(scalar_strategy)
    def test_inverse(self, a):
        if not a.is_zero():
            assert a * a.inverse() == Scalar.one()

    @settings(max_examples=200, deadline=None)
    @given(monomial_strategy)
    def test_monomial_inverse_closed_form(self, a):
        inv = a.inverse()
        assert a * inv == Scalar.one()
        assert inv == a._adjugate_inverse()
        assert len(inv.terms) == 1

    @settings(max_examples=200, deadline=None)
    @given(ring_strategy)
    def test_adjugate_times_element_is_a_positive_int(self, x):
        adj, norm = _adjugate(x)
        assert all(isinstance(c, int) and c for c in adj.values())
        assert isinstance(norm, int) and norm > 0
        assert _ring_mul(x, adj) == {(1, False): norm}

    @settings(max_examples=100, deadline=None)
    @given(scalar_strategy, scalar_strategy)
    def test_evaluate_is_homomorphism(self, a, b):
        pa, pb = mp_value(a.evaluate(96)), mp_value(b.evaluate(96))
        prod = mp_value((a * b).evaluate(96))
        tot = mp_value((a + b).evaluate(96))
        scale = max(1.0, abs(complex(pa)), abs(complex(pb))) ** 2
        assert abs(complex(prod) - complex(pa * pb)) < 1e-24 * scale
        assert abs(complex(tot) - complex(pa + pb)) < 1e-24 * scale

    @settings(max_examples=200, deadline=None)
    @given(scalar_strategy)
    def test_print_parse_round_trip(self, a):
        assert parse_scalar(str(a)) == a


# coefficients that often cancel, and keys that often coincide
coeff_strategy = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]) | (
    st.fractions(max_denominator=20).filter(bool)
)
key_strategy = st.tuples(st.sampled_from([1, 2, 3, 6]), st.booleans())
operand_strategy = st.one_of(
    st.just(Scalar.zero()),
    coeff_strategy.map(Scalar.from_fraction),
    st.builds(lambda k, c: Scalar({k: c}), key_strategy, coeff_strategy),
    st.dictionaries(key_strategy, coeff_strategy, min_size=2, max_size=5).map(Scalar),
)


def _term_loop(op, a, b):
    """Canonical terms of a op b by the general term loop, built from the
    operands' terms alone: summed per key, zeros dropped, keys sorted."""
    if op == "*":
        pairs = []
        for (d1, i1), c1 in a.terms.items():
            for (d2, i2), c2 in b.terms.items():
                g = math.gcd(d1, d2)
                sign = -1 if i1 and i2 else 1
                pairs.append((((d1 // g) * (d2 // g), i1 != i2), sign * g * c1 * c2))
    else:
        sign = 1 if op == "+" else -1
        pairs = list(a.terms.items()) + [(k, sign * c) for k, c in b.terms.items()]
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, Fraction(0)) + c
    return sorted((k, c) for k, c in out.items() if c)


class TestFastPath:
    """One-term and zero operands take a short path; the result must be the
    canonical form the general term loop gives."""

    @settings(max_examples=400, deadline=None)
    @given(operand_strategy, operand_strategy)
    def test_matches_general_term_loop(self, a, b):
        cases = [
            (a + b, _term_loop("+", a, b)),
            (a - b, _term_loop("-", a, b)),
            (a * b, _term_loop("*", a, b)),
            (-a, _term_loop("-", Scalar.zero(), a)),
        ]
        for got, want in cases:
            assert list(got.terms.items()) == want
            assert all(isinstance(c, Fraction) and c != 0 for c in got.terms.values())
            expected = Scalar(dict(want))
            assert got == expected
            assert hash(got) == hash(expected)
            assert str(got) == str(expected)


class TestNumeric:
    def test_evaluate_precision(self):
        x = S("sqrt(2)")
        lo = mp_value(x.evaluate(64))
        hi = mp_value(x.evaluate(256))
        assert abs(lo - hi) < mpmath.mpf(2) ** (1 - 64)

    def test_evaluate_matches_mpmath_bit_for_bit(self):
        # the integer evaluation rounds each step as mpmath's correctly
        # rounded arithmetic does at the same precision: the same P-bit parts,
        # so the same doubles
        rng = random.Random(20260)
        radicands = [1, 1, 2, 3, 5, 6, 7, 10, 11, 15, 30, 105]
        for _ in range(2000):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                num = rng.choice([-1, 1]) * rng.randint(1, 2 ** rng.randint(1, 200))
                den = rng.randint(1, 2 ** rng.randint(0, 200))
                terms[(rng.choice(radicands), rng.random() < 0.5)] = Fraction(num, den)
            x = Scalar(terms)
            for prec in (53, 64, 96, 128, 256):
                want = mp_evaluate(x, prec)
                got = x.evaluate(prec)
                assert mp_value(got) == want, (x, prec)
                assert repr(x.evaluate_complex(prec)) == repr(complex(want)), (x, prec)

    def test_evaluate_complex_overflows_to_inf(self):
        # as mpmath's float() reads a value past the largest double
        for q in (Fraction(2**1100, 7), Fraction(-(2**1100), 7), Fraction(2**1024 - 2**970)):
            x = Scalar.from_fraction(q) * S("1 + i")
            assert repr(x.evaluate_complex(64)) == repr(complex(mp_evaluate(x, 64)))

    def test_to_complex_agrees(self):
        x = S("1/3 + sqrt(5) - 2*i")
        z = x.to_complex()
        ref = x.evaluate_complex(64)
        assert abs(z - ref) < 1e-12

    def test_to_complex_of_terms_past_the_double_range(self):
        # each term overflows a double, but the value does not: the double
        # sums read 10^308 sqrt(5) - 10^308 sqrt(3) as inf and
        # 10^308 sqrt(7) - 10^308 sqrt(5) as inf - inf = nan
        e = 10**308
        for text in (f"{e}*sqrt(5) - {e}*sqrt(3)", f"{e}*sqrt(7) - {e}*sqrt(5)",
                     f"1 + {e}*sqrt(7)*i - {e}*sqrt(5)*i"):
            x = S(text)
            z = x.to_complex()
            assert math.isfinite(z.real) and math.isfinite(z.imag), text
            assert repr(z) == repr(x.evaluate_complex(53)), text
        with pytest.raises(OverflowError, match="lies past the double range"):
            S(f"{e}*sqrt(7) + {e}*sqrt(5)").to_complex()
