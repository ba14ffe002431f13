"""Exact arithmetic in the field Q(sqrt(d1), ..., sqrt(dm), i).

A :class:`Scalar` is a finite sum of terms ``q * sqrt(d) * i^e`` with rational
``q``, squarefree radicand ``d >= 1`` (``d == 1`` is the rational part) and
``e in {0, 1}``.  The representation is canonical, so equality is dictionary
equality and rational-independence questions reduce to exact linear algebra
over the coefficient vectors.  Numeric evaluation rounds integer mantissas
at a configurable precision; a fast ``complex`` path exists for bulk sampling.

Canonical means the terms are keyed by ``(d, e)``, sorted by key, with no
zero coefficient.  Most arithmetic in the exact kernel is on zero or on
single terms, mostly rationals, so sums, differences, negations and products
with a zero operand, or of two single terms, build their canonical result
directly; only longer sums run the general term loop and sort its keys.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import DoubleOverflow, ParseError

Key = tuple[int, bool]  # (squarefree radicand, imaginary flag)

_RATIONAL_KEY: Key = (1, False)
_FRACTION_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def square_free_split(n: int) -> tuple[int, int]:
    """Split ``n >= 1`` as ``g*g*d`` with ``d`` squarefree; returns ``(g, d)``."""
    if n < 1:
        raise ValueError("radicand must be >= 1")
    g, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            g *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return g, d * n


@lru_cache(maxsize=None)
def smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1 if p == 2 else 2
    return n


@lru_cache(maxsize=None)
def _mul_key(k1: Key, k2: Key) -> tuple[Key, int]:
    """Product of two basis elements as (key, integer cofactor)."""
    d1, i1 = k1
    d2, i2 = k2
    g = math.gcd(d1, d2)
    return ((d1 // g) * (d2 // g), i1 != i2), -g if i1 and i2 else g


# Elements of the ring spanned over Z by the basis elements sqrt(d) * i^e are
# dicts {key: nonzero int}; {} is 0.  The span is closed under products, each
# key product adding only its integer cofactor.


def _ring_mul_add(acc: dict[Key, int], a: dict[Key, int], b: dict[Key, int], sign: int) -> None:
    """acc += sign * a * b, for ring elements a and b; acc may keep zeros."""
    for k1, c1 in a.items():
        c1 *= sign
        for k2, c2 in b.items():
            key, cofactor = _mul_key(k1, k2)
            acc[key] = acc.get(key, 0) + c1 * c2 * cofactor


def _ring_mul(a: dict[Key, int], b: dict[Key, int]) -> dict[Key, int]:
    """The product of two ring elements."""
    if len(a) == 1 and _RATIONAL_KEY in a:
        c = a[_RATIONAL_KEY]
        return {k: c * x for k, x in b.items()}
    out: dict[Key, int] = {}
    _ring_mul_add(out, a, b, 1)
    return {k: c for k, c in out.items() if c}


def _adjugate(x: dict[Key, int]) -> tuple[dict[Key, int], int]:
    """A ring element adj and a positive int N with x * adj = N, for x != 0.

    A single term c * sqrt(d) * i^e has adj = +-sqrt(d) * i^e and N = |c| d.
    Otherwise adj is the product of x's nontrivial conjugates: x is
    multiplied by its image under i -> -i, then, while a radicand is left,
    under sqrt(p) -> -sqrt(p) for a prime p of one; each product is fixed by
    every map taken so far, and the last one is the int N (up to sign).
    """
    if len(x) == 1:
        ((d, imag), c), = x.items()
        return {(d, imag): -1 if (c < 0) != imag else 1}, abs(c) * d
    adj, cur = {_RATIONAL_KEY: 1}, x
    if any(imag for _, imag in x):
        adj = {k: -c if k[1] else c for k, c in x.items()}
        cur = _ring_mul(x, adj)
    while (p := next((smallest_prime_factor(d) for d, _ in cur if d > 1), None)) is not None:
        flip = {k: -c if k[0] % p == 0 else c for k, c in cur.items()}
        adj, cur = _ring_mul(adj, flip), _ring_mul(cur, flip)
    n = cur[_RATIONAL_KEY]
    return (adj, n) if n > 0 else ({k: -c for k, c in adj.items()}, -n)


class Scalar:
    """Immutable element of Q(sqrt(d1), ..., sqrt(dm), i) in canonical form."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        clean = {k: c for k, c in terms.items() if c} if terms else {}
        self._terms = dict(sorted(clean.items())) if len(clean) > 1 else clean
        self._hash = None

    @staticmethod
    def _canonical(terms: dict[Key, Fraction]) -> "Scalar":
        """Wrap terms that are already canonical: sorted, no zero coefficient."""
        s = object.__new__(Scalar)
        s._terms = terms
        s._hash = None
        return s

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "Scalar":
        if not isinstance(q, Fraction):
            q = Fraction(q)
        return Scalar._canonical({_RATIONAL_KEY: q} if q else {})

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return Scalar.from_fraction(n)

    @staticmethod
    def zero() -> "Scalar":
        return Scalar._canonical({})

    @staticmethod
    def one() -> "Scalar":
        return Scalar.from_int(1)

    @staticmethod
    def i() -> "Scalar":
        return Scalar({(1, True): Fraction(1)})

    @staticmethod
    def sqrt_int(n: int) -> "Scalar":
        """Exact square root of a nonnegative integer."""
        if n < 0:
            raise ValueError("sqrt of a negative integer is not supported")
        if n == 0:
            return Scalar.zero()
        g, d = square_free_split(n)
        return Scalar({(d, False): Fraction(g)})

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[Key, Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_real(self) -> bool:
        return all(not imag for (_, imag) in self._terms)

    def is_rational(self) -> bool:
        return all(k == _RATIONAL_KEY for k in self._terms)

    def rational_value(self) -> Fraction | None:
        """The value as a Fraction, or None when it is not rational."""
        if not self._terms:
            return _FRACTION_ZERO
        if len(self._terms) > 1:
            return None
        return self._terms.get(_RATIONAL_KEY)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._terms.get(_RATIONAL_KEY, _FRACTION_ZERO)

    def radicands(self) -> set[int]:
        return {d for (d, _) in self._terms if d > 1}

    def real_part(self) -> "Scalar":
        return Scalar({k: c for k, c in self._terms.items() if not k[1]})

    def imag_part(self) -> "Scalar":
        """Imaginary part as a real scalar (coefficient of i)."""
        return Scalar({(d, False): c for (d, imag), c in self._terms.items() if imag})

    def conjugate(self) -> "Scalar":
        return Scalar({k: (-c if k[1] else c) for k, c in self._terms.items()})

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        return self._sum(other._terms, False)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._canonical({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return -other
        return self._sum(other._terms, True)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def _sum(self, other: dict[Key, Fraction], negate: bool) -> "Scalar":
        """self + other, or self - other when negate, for nonzero operands."""
        terms = self._terms
        if len(terms) == 1 and len(other) == 1:
            (k1, c1), = terms.items()
            (k2, c2), = other.items()
            if negate:
                c2 = -c2
            if k1 == k2:
                c = c1 + c2
                return Scalar._canonical({k1: c} if c else {})
            return Scalar._canonical({k1: c1, k2: c2} if k1 < k2 else {k2: c2, k1: c1})
        terms = dict(terms)
        for k, c in other.items():
            if negate:
                c = -c
            terms[k] = terms[k] + c if k in terms else c
        return Scalar(terms)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return self
        if not other._terms:
            return other
        if len(self._terms) == 1 and len(other._terms) == 1:
            (k1, c1), = self._terms.items()
            (k2, c2), = other._terms.items()
            if k1 == _RATIONAL_KEY:
                return Scalar._canonical({k2: c1 * c2})
            if k2 == _RATIONAL_KEY:
                return Scalar._canonical({k1: c1 * c2})
        terms: dict[Key, Fraction] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                key, extra = _mul_key(k1, k2)
                c = c1 * c2 * extra
                terms[key] = terms[key] + c if key in terms else c
        return Scalar(terms)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Multiplicative inverse.

        A single term has a closed form: 1/(q*sqrt(d)*i^e) is
        (1/(q*d)) * sqrt(d) * (-i)^e.  Longer sums go through
        :meth:`_adjugate_inverse`.
        """
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if len(self._terms) == 1:
            ((d, imag), q), = self._terms.items()
            inv = 1 / (q * d)
            return Scalar({(d, imag): -inv if imag else inv})
        return self._adjugate_inverse()

    def _adjugate_inverse(self) -> "Scalar":
        """Inverse by the integer adjugate: self is X / L with X a ring
        element, L the lcm of the denominators, and 1/self = L adj(X) / N."""
        lcm = math.lcm(*(c.denominator for c in self._terms.values()))
        adj, norm = _adjugate({k: c.numerator * (lcm // c.denominator)
                               for k, c in self._terms.items()})
        return Scalar({k: Fraction(c * lcm, norm) for k, c in adj.items()})

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = Scalar.one()
        base = self
        while n:
            if n & 1:
                result *= base
            base *= base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(self._terms.items()))
        return self._hash

    # -- evaluation ---------------------------------------------------

    def evaluate(self, prec: int = 128) -> tuple[Fraction, Fraction]:
        """The real and imaginary parts, dyadic rationals each within
        2**(1-prec) of the true value.

        Each part is summed at P = prec + 16 + the bit length of the
        largest numerator, the bits that hold every numerator exactly: per
        term, num/den, then its product by sqrt(d) (:func:`_cached_sqrt`),
        then each partial sum, every step rounded to P bits, to nearest with
        ties to even, as a correctly rounded binary float arithmetic of that
        precision (mpmath's, for one) rounds them.
        """
        bits = prec + 16 + max(
            (abs(c.numerator).bit_length() for c in self._terms.values()), default=0
        )
        parts = [(0, 0), (0, 0)]  # (m, e) with value m * 2**e
        for (d, imag), c in self._terms.items():
            m, e = _round(c.numerator, c.denominator, 0, bits)
            if d > 1:
                sm, se = _cached_sqrt(d, bits)
                m, e = _round(m * sm, 1, e + se, bits)
            am, ae = parts[imag]
            if am:
                low = min(ae, e)
                m, e = _round((am << ae - low) + (m << e - low), 1, low, bits)
            parts[imag] = m, e
        return tuple(Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e) for m, e in parts)

    def evaluate_complex(self, prec: int = 128) -> complex:
        """The doubles nearest the parts of ``evaluate(prec)``, each +-inf
        past the largest double."""
        return complex(*map(_nearest_float, self.evaluate(prec)))

    def to_complex(self) -> complex:
        """Fast double-precision value for bulk numeric work; DoubleOverflow
        when a part lies past the double range.

        A term past the double range makes its part's sum inf or nan (inf
        minus inf), though the part itself may fit, so a sum that is not
        finite is taken from ``evaluate_complex(53)`` instead."""
        real = 0.0
        imag = 0.0
        try:
            for (d, is_imag), c in self._terms.items():
                v = c.numerator / c.denominator
                if d > 1:
                    v *= math.sqrt(d)
                if is_imag:
                    imag += v
                else:
                    real += v
        except OverflowError:  # a quotient past the double range
            real = math.inf
        if math.isfinite(real) and math.isfinite(imag):
            return complex(real, imag)
        z = self.evaluate_complex(53)
        if math.isinf(z.real) or math.isinf(z.imag):
            raise DoubleOverflow(f"{self} lies past the double range")
        return z

    # -- rendering ----------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (d, imag), c in self._terms.items():
            factors = []
            if abs(c) != 1 or (d == 1 and not imag):
                factors.append(str(abs(c)))
            if d > 1:
                factors.append(f"sqrt({d})")
            if imag:
                factors.append("i")
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Scalar({self})"


def _coerce(value) -> "Scalar":
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.from_fraction(value)
    return NotImplemented


def _round(n: int, d: int, e: int, prec: int) -> tuple[int, int]:
    """(n/d) * 2**e, for d > 0, rounded to prec bits, to nearest with ties to
    even, as (m, e') with the value m * 2**e'."""
    if not n:
        return 0, 0
    a = abs(n)
    # num / den = a * 2**shift / d lies in [2**(prec-1), 2**(prec+1)), and
    # in [2**(prec-1), 2**prec) after the halving
    shift = prec - a.bit_length() + d.bit_length()
    num, den = (a << shift, d) if shift >= 0 else (a, d << -shift)
    if num >= den << prec:
        den <<= 1
        shift -= 1
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return (-q if n < 0 else q), e - shift


@lru_cache(maxsize=None)
def _cached_sqrt(d: int, prec: int) -> tuple[int, int]:
    """sqrt(d), for d >= 2 not a square, rounded to prec bits, to nearest,
    as (m, e) with the value m * 2**e.

    s = isqrt(d * 4**(prec+2)) has at least prec + 2 bits, so sqrt(d) *
    2**(prec+2) and s + 1/2 both lie in (s, s + 1), which holds no rounding
    boundary of prec bits: they round alike.
    """
    s = math.isqrt(d << 2 * (prec + 2))
    return _round(2 * s + 1, 2, -(prec + 2), prec)


def _nearest_float(q: Fraction) -> float:
    """The double nearest q, +-inf past the largest double."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


# -- parsing ----------------------------------------------------------

_TOKEN_SPEC = ("(", ")", "+", "-", "*", "/")


def _tokenize(text: str) -> list:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_SPEC:
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif text.startswith("sqrt", i):
            tokens.append("sqrt")
            i += 4
        elif ch == "i":
            tokens.append("i")
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse_expr(self) -> Scalar:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> Scalar:
        value = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ParseError("division by zero")
                value = value / rhs
        return value

    def parse_unary(self) -> Scalar:
        if self.peek() == "-":
            self.take()
            return -self.parse_unary()
        return self.parse_atom()

    def parse_atom(self) -> Scalar:
        tok = self.peek()
        if isinstance(tok, int):
            self.take()
            return Scalar.from_int(tok)
        if tok == "i":
            self.take()
            return Scalar.i()
        if tok == "sqrt":
            self.take()
            self.take("(")
            inner = self.parse_expr()
            self.take(")")
            if not inner.is_rational():
                raise ParseError("nested radicals are not supported")
            q = inner.as_fraction()
            if q.denominator != 1 or q < 0:
                raise ParseError("sqrt argument must be a nonnegative integer")
            return Scalar.sqrt_int(int(q))
        if tok == "(":
            self.take()
            inner = self.parse_expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected token {tok!r}")


_INT_LITERAL = re.compile(r"-?[0-9]+")


def parse_scalar(text: str) -> Scalar:
    """Parse an expression built from integers, + - * /, sqrt(k) and i.

    An integer literal (``-?[0-9]+``), most entries of an input, skips the
    tokenizer and parser, which read it to the same value."""
    if _INT_LITERAL.fullmatch(text):
        return Scalar.from_int(int(text))
    return _parse_expression(text)


def _parse_expression(text: str) -> Scalar:
    parser = _Parser(_tokenize(text))
    try:
        value = parser.parse_expr()
    except RecursionError:  # the parser recurses once per parenthesis or unary minus
        raise ParseError(f"expression {text!r} is nested too deeply") from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.peek()!r}")
    return value


# -- rational linear algebra over the coefficient vectors -------------


def integerize(vec: Sequence[Fraction]) -> list[int]:
    """Scale a rational vector to coprime integers, first nonzero positive."""
    denom = math.lcm(*(f.denominator for f in vec)) if vec else 1
    ints = [int(f * denom) for f in vec]
    g = math.gcd(*ints) if any(ints) else 1
    ints = [v // g for v in ints]
    first = next((v for v in ints if v != 0), 0)
    if first < 0:
        ints = [-v for v in ints]
    return ints
